"""Precedence-climbing parser for the concrete cCSP syntax.

Grammar:

    std   := atom (BINOP atom)*
    atom  := IDENT | "SKIP" | "THROW" | "YIELD" | "(" std ")" | "[" comp "]"

    comp  := pair (BINOP pair)*     (only operators with a compensable form)
    pair  := atom "%" atom | "SKIPP" | "THROWW" | "YIELDD" | "(" comp ")"

Tokens come from one pattern: after any whitespace, a word
(`ccsp.terms.WORD`; an identifier unless it is a keyword), an operator,
or the end of the text; any other character is a `ParseError`.

The binary operators, their binding order and their constructors are
`ccsp.terms.BINARY_OPERATORS`, which the printer reads too.  One loop,
`_Parser.binary`, parses both grammars: it reads an operand, then, while
the next token is an operator of that grammar binding at least as tightly
as the caller asked, consumes it and reads the right operand as an
expression of strictly tighter operators, so every operator is
left-associative.  `|>` has no compensable form, so it ends a compensable
term.  `%` binds tightest of all; it is non-associative and its operands
are standard atoms, so compound operands must be parenthesized.  Derived
constants desugar at parse time: SKIPP, YIELDD and THROWW become
compensation pairs over SKIP.

Brackets, `(` and `[` together, nest at most `MAX_NESTING` deep, and a
term is at most `ccsp.terms.MAX_DEPTH` constructors deep; deeper input
raises `ParseError` rather than exhausting the interpreter's stack.
"""
from __future__ import annotations

import re
from dataclasses import dataclass
from typing import NoReturn

from .terms import (
    BINARY_OPERATORS,
    COMPENSABLE_KEYWORDS,
    MAX_DEPTH,
    Atom,
    Block,
    CompensableTerm,
    Pair,
    STANDARD_KEYWORDS,
    StandardTerm,
    WORD,
    is_event_name,
)

#: For the standard and the compensable grammar: operator symbol ->
#: (binding level, loosest 0, constructor), for the operators it has.
_INFIX = tuple(
    {op: (level, ctors[k]) for level, (op, *ctors) in enumerate(BINARY_OPERATORS) if ctors[k]}
    for k in (0, 1)
)

# Binary operators first, so `[]` is read before `[`.
_OPERATORS = (*(op for op, *_ in BINARY_OPERATORS), "%", "(", ")", "[", "]")

#: One token after any whitespace: a word, an operator, or the end (group 1),
#: else a character that starts no token (group 2).
_TOKEN = re.compile(
    rf"\s*(?:({WORD.pattern}|{'|'.join(map(re.escape, _OPERATORS))}|\Z)|(\S))"
)

#: Deepest accepted nesting of `(` and `[`.  Each level costs the parser two
#: stack frames, and up to seven when operators of rising binding strength
#: lead up to the bracket (656 frames at this limit), so this keeps below
#: Python's default recursion limit of 1000.
MAX_NESTING = 100


@dataclass
class ParseError(Exception):
    """Syntax error at a character (code point) offset in the input text."""

    position: int
    expected: str
    found: str

    def __str__(self) -> str:
        return f"at offset {self.position}: expected {self.expected}, found {self.found}"


def _tokenize(text: str) -> list[tuple[str, int]]:
    """The `(text, offset)` pairs of the tokens, ending in `("", len(text))`."""
    tokens = []
    for match in _TOKEN.finditer(text):
        if match[2]:
            raise ParseError(match.start(2), "an operator or identifier", repr(match[2]))
        tokens.append((match[1], match.start(1)))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        #: start index of a bracketed atom -> (the atom, the index after it)
        self.brackets: dict[int, tuple[StandardTerm, int]] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> str:
        return self.tokens[self.index][0]

    def advance(self) -> None:
        self.index += 1

    def expect_op(self, op: str) -> None:
        if self.peek() != op:
            self.fail(f"'{op}'")
        self.advance()

    def open_bracket(self) -> None:
        """Consume an opening bracket, enforcing `MAX_NESTING`."""
        if self.depth == MAX_NESTING:
            self.fail(f"at most {MAX_NESTING} nested brackets")
        self.advance()
        self.depth += 1

    def close_bracket(self, op: str) -> None:
        self.expect_op(op)
        self.depth -= 1

    def fail(self, expected: str) -> NoReturn:
        text, offset = self.tokens[self.index]
        raise ParseError(offset, expected, repr(text) if text else "end of input")

    # -- grammar -----------------------------------------------------------

    def binary(self, compensable: bool, min_level: int = 0) -> StandardTerm | CompensableTerm:
        """Operands joined by the grammar's operators of at least `min_level`."""
        left = self.pair() if compensable else self.atom()
        infix = _INFIX[compensable]
        while (op := infix.get(self.peek())) and op[0] >= min_level:
            self.advance()
            left = op[1](left, self.binary(compensable, op[0] + 1))
        return left

    def atom(self) -> StandardTerm:
        tok = self.peek()
        if is_event_name(tok):
            self.advance()
            return Atom(tok)
        if tok in STANDARD_KEYWORDS:
            self.advance()
            return STANDARD_KEYWORDS[tok]
        if tok in ("(", "["):
            # `pair` may read the same bracket twice.  What it holds depends
            # only on where it starts (the nesting depth there is the same on
            # every path), so each is parsed once.
            start = self.index
            if start not in self.brackets:
                self.open_bracket()
                inner = self.binary(False) if tok == "(" else Block(self.binary(True))
                self.close_bracket(")" if tok == "(" else "]")
                self.brackets[start] = inner, self.index
            inner, self.index = self.brackets[start]
            return inner
        self.fail("a standard term")

    def pair(self) -> CompensableTerm:
        tok = self.peek()
        if tok in COMPENSABLE_KEYWORDS:
            self.advance()
            return COMPENSABLE_KEYWORDS[tok]
        if tok == "(":
            # Both `(a ; b) % c` and `(a % b)` start here; try the pair
            # reading first and fall back to a parenthesized compensable.
            mark = self.index, self.depth
            try:
                return self.pair_of_atoms()
            except ParseError:
                self.index, self.depth = mark
            self.open_bracket()
            inner = self.binary(True)
            self.close_bracket(")")
            return inner
        return self.pair_of_atoms()

    def pair_of_atoms(self) -> CompensableTerm:
        forward = self.atom()
        self.expect_op("%")
        return Pair(forward, self.atom())


def _parse(text: str, compensable: bool) -> StandardTerm | CompensableTerm:
    if not isinstance(text, str):
        raise TypeError(f"not a text: {text!r}")
    p = _Parser(text)
    try:
        term = p.binary(compensable)
    except ValueError:  # the constructors' one refusal here: a node too deep
        raise ParseError(0, f"a term at most {MAX_DEPTH} deep", f"depth {MAX_DEPTH + 1}") from None
    if p.peek():
        p.fail("end of input")
    return term


def parse_standard(text: str) -> StandardTerm:
    """Parse a standard process term, consuming the whole input."""
    return _parse(text, False)


def parse_compensable(text: str) -> CompensableTerm:
    """Parse a compensable process term, consuming the whole input."""
    return _parse(text, True)
