"""Recursive-descent parser for the concrete cCSP syntax.

Grammar (loosest binding first; all binary operators left-associative):

    std   := cho ("||" cho)*
    cho   := int ("[]" int)*
    int   := seq ("|>" seq)*
    seq   := atom (";" atom)*
    atom  := IDENT | "SKIP" | "THROW" | "YIELD" | "(" std ")" | "[" comp "]"

    comp  := ccho ("||" ccho)*
    ccho  := cseq ("[]" cseq)*     (no interrupt handler on compensable terms)
    cseq  := pair (";" pair)*
    pair  := atom "%" atom | "SKIPP" | "THROWW" | "YIELDD" | "(" comp ")"

Binding strength, tightest first: `%`, `;`, `|>`, `[]`, `||`.  `%` is
non-associative and its operands are standard atoms, so compound operands
must be parenthesized.  Derived constants desugar at parse time: SKIPP,
YIELDD and THROWW become compensation pairs over SKIP.

Brackets, `(` and `[` together, nest at most `MAX_NESTING` deep, and a
parsed term is at most `MAX_DEPTH` constructors deep; deeper input raises
`ParseError` rather than exhausting the interpreter's stack.
"""
from __future__ import annotations

from dataclasses import dataclass

from .terms import (
    Atom,
    Block,
    CChoice,
    CompensableTerm,
    CPar,
    CSeq,
    Choice,
    Interrupt,
    Pair,
    Par,
    RESERVED_WORDS,
    WORD,
    Seq,
    SKIP,
    StandardTerm,
    THROW,
    YIELD,
    desugar_alias,
    term_depth,
)

_OPERATORS = ("||", "|>", "[]", ";", "%", "(", ")", "[", "]")

#: Deepest accepted nesting of `(` and `[`.  Each level costs the parser
#: about six stack frames, so this keeps far below Python's default
#: recursion limit of 1000.
MAX_NESTING = 100

#: Deepest accepted term, as `term_depth` measures it.  Both semantics
#: recurse about a frame per level and ran out at depth 985-991 (Python's
#: default limit is 1000 frames), so this leaves as many again to callers.
MAX_DEPTH = 500


@dataclass
class ParseError(Exception):
    """Syntax error at a byte offset in the input text."""

    position: int
    expected: str
    found: str

    def __str__(self) -> str:
        return f"at offset {self.position}: expected {self.expected}, found {self.found}"


@dataclass(frozen=True)
class _Token:
    kind: str  # "ident", "keyword", "op", "end"
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    tokens = []
    i = 0
    n = len(text)
    while i < n:
        c = text[i]
        if c.isspace():
            i += 1
            continue
        word = WORD.match(text, i)
        if word:
            kind = "keyword" if word[0] in RESERVED_WORDS else "ident"
            tokens.append(_Token(kind, word[0], i))
            i = word.end()
            continue
        matched = False
        for op in _OPERATORS:
            if text.startswith(op, i):
                tokens.append(_Token("op", op, i))
                i += len(op)
                matched = True
                break
        if not matched:
            raise ParseError(i, "an operator or identifier", repr(c))
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, text: str):
        self.tokens = _tokenize(text)
        self.index = 0
        self.depth = 0
        #: start index of a bracketed atom -> (the atom, the index after it)
        self.brackets: dict[int, tuple[StandardTerm, int]] = {}

    # -- token plumbing ----------------------------------------------------

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def at_op(self, op: str) -> bool:
        tok = self.peek()
        return tok.kind == "op" and tok.text == op

    def expect_op(self, op: str) -> None:
        if not self.at_op(op):
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

    def fail(self, expected: str) -> None:
        tok = self.peek()
        found = repr(tok.text) if tok.kind != "end" else "end of input"
        raise ParseError(tok.pos, expected, found)

    # -- standard terms ----------------------------------------------------

    def std(self) -> StandardTerm:
        left = self.std_cho()
        while self.at_op("||"):
            self.advance()
            left = Par(left, self.std_cho())
        return left

    def std_cho(self) -> StandardTerm:
        left = self.std_int()
        while self.at_op("[]"):
            self.advance()
            left = Choice(left, self.std_int())
        return left

    def std_int(self) -> StandardTerm:
        left = self.std_seq()
        while self.at_op("|>"):
            self.advance()
            left = Interrupt(left, self.std_seq())
        return left

    def std_seq(self) -> StandardTerm:
        left = self.std_atom()
        while self.at_op(";"):
            self.advance()
            left = Seq(left, self.std_atom())
        return left

    def std_atom(self) -> StandardTerm:
        tok = self.peek()
        if tok.kind == "ident":
            self.advance()
            return Atom(tok.text)
        if tok.kind == "keyword":
            if tok.text == "SKIP":
                self.advance()
                return SKIP
            if tok.text == "THROW":
                self.advance()
                return THROW
            if tok.text == "YIELD":
                self.advance()
                return YIELD
            self.fail("a standard term")
        if tok.kind == "op" and tok.text in ("(", "["):
            # `comp_pair` may read the same bracket twice.  What it holds
            # depends only on where it starts (the nesting depth there is the
            # same on every path), so each is parsed once.
            start = self.index
            if start not in self.brackets:
                self.open_bracket()
                inner = self.std() if tok.text == "(" else Block(self.comp())
                self.close_bracket(")" if tok.text == "(" else "]")
                self.brackets[start] = inner, self.index
            inner, self.index = self.brackets[start]
            return inner
        self.fail("a standard term")
        raise AssertionError("unreachable")

    # -- compensable terms -------------------------------------------------

    def comp(self) -> CompensableTerm:
        left = self.comp_cho()
        while self.at_op("||"):
            self.advance()
            left = CPar(left, self.comp_cho())
        return left

    def comp_cho(self) -> CompensableTerm:
        left = self.comp_seq()
        while self.at_op("[]"):
            self.advance()
            left = CChoice(left, self.comp_seq())
        return left

    def comp_seq(self) -> CompensableTerm:
        left = self.comp_pair()
        while self.at_op(";"):
            self.advance()
            left = CSeq(left, self.comp_pair())
        return left

    def comp_pair(self) -> CompensableTerm:
        tok = self.peek()
        if tok.kind == "keyword" and tok.text in ("SKIPP", "THROWW", "YIELDD"):
            self.advance()
            return desugar_alias(tok.text)
        if self.at_op("("):
            # Both `(a ; b) % c` and `(a % b)` start here; try the pair
            # reading first and fall back to a parenthesized compensable.
            mark = self.index, self.depth
            try:
                return self.pair_of_atoms()
            except ParseError:
                self.index, self.depth = mark
            self.open_bracket()
            inner = self.comp()
            self.close_bracket(")")
            return inner
        return self.pair_of_atoms()

    def pair_of_atoms(self) -> CompensableTerm:
        forward = self.std_atom()
        if not self.at_op("%"):
            self.fail("'%'")
        self.advance()
        return Pair(forward, self.std_atom())


def _finish(p: _Parser, term):
    if p.peek().kind != "end":
        p.fail("end of input")
    depth = term_depth(term)
    if depth > MAX_DEPTH:
        raise ParseError(0, f"a term at most {MAX_DEPTH} deep", f"depth {depth}")
    return term


def parse_standard(text: str) -> StandardTerm:
    """Parse a standard process term, consuming the whole input."""
    p = _Parser(text)
    return _finish(p, p.std())


def parse_compensable(text: str) -> CompensableTerm:
    """Parse a compensable process term, consuming the whole input."""
    p = _Parser(text)
    return _finish(p, p.comp())
