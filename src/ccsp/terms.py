"""Process terms, traces, and pretty-printing for the cCSP subset.

Two categories of process terms exist side by side.  A *standard* process
runs and terminates; a *compensable* process additionally installs
compensation behaviour while it runs, to be replayed if the surrounding
transaction aborts.  Observations are finite traces: a sequence of normal
events capped by exactly one terminal marker (success, throw or yield).

Terms are immutable and hash-consed (interned): structurally equal
constructions yield the same instance, so equality and hashing are both by
identity, and the memo tables driving exhaustive exploration stay cheap.
Construction is the only supported way to obtain a term.  Interning also
sizes the term: its operator count and its weight are its class's share
plus its operands' (already computed) sizes, so `term_op_count` and
`term_weight` are attribute reads.
"""
from __future__ import annotations

import re
import weakref
from enum import Enum
from operator import attrgetter
from typing import Iterable, Iterator, Union


class Terminal(Enum):
    """Terminal event ending every trace: success, yield, or throw.

    The declared order TICK < YIELD < THROW is the synchronisation
    lattice for parallel termination: the join of the two sides' terminals
    is the terminal of the composition, so a throw on either side wins and
    success is neutral.
    """

    TICK = 0
    YIELD = 1
    THROW = 2

    # Members are singletons, so identity hashing (in C) replaces Enum's
    # Python-level hash of the member name.
    __hash__ = object.__hash__

    @property
    def glyph(self) -> str:
        return _GLYPHS[self]

    # `_value_` is a plain attribute; the `value` property costs a call.
    def join(self, other: "Terminal") -> "Terminal":
        return self if self._value_ >= other._value_ else other

    def __lt__(self, other: "Terminal") -> bool:
        return self._value_ < other._value_

    def __str__(self) -> str:
        return self.glyph


_GLYPHS = {Terminal.TICK: "*", Terminal.YIELD: "?", Terminal.THROW: "!"}
_BY_GLYPH = {g: t for t, g in _GLYPHS.items()}

#: Words that can never be event names.
RESERVED_WORDS = frozenset({"SKIP", "THROW", "YIELD", "SKIPP", "THROWW", "YIELDD"})

#: Event names: alphabetic start, then letters/digits/underscores/primes.
_EVENT_NAME = re.compile(r"[A-Za-z][A-Za-z0-9_']*\Z")

# An event is just its name; names are validated where events enter the
# system (atom construction, trace deserialization, alphabet declarations).
Event = str


def is_event_name(name: str) -> bool:
    return bool(_EVENT_NAME.match(name)) and name not in RESERVED_WORDS


def terminal_from_glyph(glyph: str) -> Terminal:
    try:
        return _BY_GLYPH[glyph]
    except KeyError:
        raise ValueError(f"not a terminal glyph: {glyph!r}") from None


# ---------------------------------------------------------------------------
# Process terms
# ---------------------------------------------------------------------------


class _Node:
    """Base for interned term nodes; subclasses declare their fields in
    ``__slots__`` and are finished off by the `_node` decorator.  Every
    field is an operand term, except `Atom`'s event name."""

    __slots__ = ("_weight", "_ops", "_pp", "__weakref__")
    _fields: tuple[str, ...] = ()
    _pool: "weakref.WeakValueDictionary"

    def __new__(cls, *args, **kwargs):
        if kwargs:
            names = cls._fields
            try:
                args = args + tuple(kwargs.pop(n) for n in names[len(args):])
            except KeyError as e:
                raise TypeError(f"{cls.__name__} is missing field {e}") from None
            if kwargs:
                raise TypeError(f"{cls.__name__} got unexpected fields {sorted(kwargs)}")
        if len(args) != len(cls._fields):
            raise TypeError(
                f"{cls.__name__} takes {len(cls._fields)} field(s), got {len(args)}"
            )
        inst = cls._pool.get(args)
        if inst is not None:
            return inst
        inst = super().__new__(cls)
        weight, ops = cls._sizes
        for name, value in zip(cls._fields, args):
            object.__setattr__(inst, name, value)
            if cls is Atom:
                if not is_event_name(value):
                    raise ValueError(f"invalid event name: {value!r}")
            elif isinstance(value, _Node):
                weight += value._weight
                ops += value._ops
            else:
                raise TypeError(f"{cls.__name__}.{name} is not a process term")
        object.__setattr__(inst, "_weight", weight)
        object.__setattr__(inst, "_ops", ops)
        cls._pool[args] = inst
        return inst

    def __setattr__(self, name, value):
        raise AttributeError("process terms are immutable")

    def __repr__(self) -> str:
        inner = ", ".join(repr(getattr(self, n)) for n in self._fields)
        return f"{type(self).__name__}({inner})"


def _node(weight: int, ops: int):
    """Finish a node class; `weight` and `ops` are its own share of
    `term_weight` and `term_op_count`."""

    def finish(cls):
        cls._fields = cls.__match_args__ = cls.__slots__
        cls._pool = weakref.WeakValueDictionary()
        cls._sizes = (weight, ops)
        return cls

    return finish


@_node(weight=2, ops=0)
class Atom(_Node):
    """A single atomic event."""

    __slots__ = ("event",)


@_node(weight=1, ops=0)
class Skip(_Node):
    """Immediate successful termination."""

    __slots__ = ()


@_node(weight=1, ops=0)
class Throw(_Node):
    """Raise an interrupt."""

    __slots__ = ()


@_node(weight=2, ops=0)
class Yield(_Node):
    """Offer to yield to an interrupt, or terminate successfully."""

    __slots__ = ()


@_node(weight=0, ops=0)
class Null(_Node):
    """The terminated process.  Runtime-only; never part of a user term."""

    __slots__ = ()


@_node(weight=1, ops=1)
class Seq(_Node):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class Choice(_Node):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class Par(_Node):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class Interrupt(_Node):
    """Interrupt handler: control passes to `right` when `left` throws."""

    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class Block(_Node):
    """Transaction block around a compensable process.

    On success the accumulated compensation is discarded; on throw it runs
    inside the block and the interrupt is not observable outside.
    """

    __slots__ = ("body",)


@_node(weight=1, ops=0)
class Pair(_Node):
    """Compensation pair: forward behaviour with its compensation."""

    __slots__ = ("forward", "compensation")


@_node(weight=1, ops=1)
class CSeq(_Node):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class CChoice(_Node):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class CPar(_Node):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class Aux(_Node):
    """Runtime pairing of a still-running compensable process with an
    already-banked compensation.  Arises only during execution of a
    compensable sequence; never part of a user term."""

    __slots__ = ("rest", "stored")


StandardTerm = Union[Atom, Skip, Throw, Yield, Seq, Choice, Par, Interrupt, Block, Null]
CompensableTerm = Union[Pair, CSeq, CChoice, CPar, Aux]

SKIP = Skip()
THROW = Throw()
YIELD = Yield()
NULL = Null()

_STANDARD_CLASSES = (Atom, Skip, Throw, Yield, Seq, Choice, Par, Interrupt, Block, Null)
_COMPENSABLE_CLASSES = (Pair, CSeq, CChoice, CPar, Aux)


def is_standard(term: object) -> bool:
    return isinstance(term, _STANDARD_CLASSES)


def is_compensable(term: object) -> bool:
    return isinstance(term, _COMPENSABLE_CLASSES)


def _operands(term: _Node) -> list[_Node]:
    fields = (getattr(term, name) for name in term._fields)
    return [f for f in fields if isinstance(f, _Node)]


def subterms(term: StandardTerm | CompensableTerm) -> Iterator[StandardTerm | CompensableTerm]:
    """Yield `term` and every nested subterm, preorder."""
    stack = [term]
    while stack:
        t = stack.pop()
        if not isinstance(t, _Node):
            raise TypeError(f"not a process term: {t!r}")
        yield t
        # Push the operands right to left so the leftmost comes out first.
        stack.extend(reversed(_operands(t)))


def term_op_count(term: StandardTerm | CompensableTerm) -> int:
    """Number of operator nodes.

    Seq/Choice/Par/Interrupt/Block, CSeq/CChoice/CPar and the runtime Aux
    each count one; leaves and compensation pairs are free (a pair is the
    minimal way to form a compensable term, not an extra operator).  Fixed
    at interning.
    """
    try:
        return term._ops
    except AttributeError:
        raise TypeError(f"not a process term: {term!r}") from None


def term_weight(term: StandardTerm | CompensableTerm) -> int:
    """Well-founded size measure that strictly decreases on every
    transition, which is what makes exhaustive exploration terminate.
    Fixed at interning."""
    try:
        return term._weight
    except AttributeError:
        raise TypeError(f"not a process term: {term!r}") from None


def term_depth(term: StandardTerm | CompensableTerm) -> int:
    """Nesting depth counting every constructor, leaves = 1."""
    if not isinstance(term, _Node):
        raise TypeError(f"not a process term: {term!r}")
    depth: dict[_Node, int] = {}
    stack = [term]
    while stack:
        t = stack[-1]
        operands = _operands(t)
        pending = [o for o in operands if o not in depth]
        if pending:
            stack.extend(pending)
        else:
            depth[stack.pop()] = 1 + max((depth[o] for o in operands), default=0)
    return depth[term]


def validate_user_term(
    term: StandardTerm | CompensableTerm, alphabet: Iterable[Event] | None = None
) -> list[str]:
    """Check that `term` is a legal user-supplied term.

    Returns a list of violation descriptions (empty when valid).  Null and
    the runtime-only auxiliary construct are forbidden; when an alphabet is
    declared, every atom must draw from it.
    """
    violations = []
    declared = frozenset(alphabet) if alphabet is not None else None
    for sub in subterms(term):
        if isinstance(sub, Null):
            violations.append("null process is not a user term")
        elif isinstance(sub, Aux):
            violations.append("auxiliary construct is not a user term")
        elif isinstance(sub, Atom) and declared is not None and sub.event not in declared:
            violations.append(f"event {sub.event!r} not in declared alphabet")
    return violations


def desugar_alias(name: str) -> CompensableTerm:
    """Expand a derived compensable constant into its compensation pair."""
    if name == "SKIPP":
        return Pair(SKIP, SKIP)
    if name == "YIELDD":
        return Pair(YIELD, SKIP)
    if name == "THROWW":
        return Pair(THROW, SKIP)
    raise ValueError(f"unknown compensable alias: {name!r}")


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

# Binding strength, loosest first.  `%` operands are restricted to the atom
# level by the grammar, so pairs parenthesize any operator operand.
_LEVEL_PAR = 10
_LEVEL_CHOICE = 20
_LEVEL_INTERRUPT = 30
_LEVEL_SEQ = 40
_LEVEL_PAIR = 50
_LEVEL_ATOM = 60


def pretty_print(term: StandardTerm | CompensableTerm) -> str:
    """Render a term in the concrete syntax with minimal parentheses.

    Round-trips through the parser for every user term.  Runtime-only
    constructs render as `0` and `<..., ...>` and are deliberately not
    parseable.
    """
    try:
        return term._pp
    except AttributeError:
        text = _render(term)
        object.__setattr__(term, "_pp", text)
        return text


def _binary(op: str, level: int) -> tuple[int, tuple]:
    # Left-associative: the right operand needs strictly tighter binding.
    return level, (("left", level), f" {op} ", ("right", level + 1))


# Concrete syntax per node class: the level below which it needs brackets,
# and its layout, where a `str` is literal text and a (field, level) pair a
# field rendered at that minimum level.
_SYNTAX: dict[type, tuple[int, tuple]] = {
    Atom: (_LEVEL_ATOM, (("event", 0),)),
    Skip: (_LEVEL_ATOM, ("SKIP",)),
    Throw: (_LEVEL_ATOM, ("THROW",)),
    Yield: (_LEVEL_ATOM, ("YIELD",)),
    Null: (_LEVEL_ATOM, ("0",)),
    Block: (_LEVEL_ATOM, ("[ ", ("body", 0), " ]")),
    Aux: (_LEVEL_ATOM, ("<", ("rest", 0), ", ", ("stored", 0), ">")),
    Pair: (_LEVEL_PAIR, (("forward", _LEVEL_ATOM), " % ", ("compensation", _LEVEL_ATOM))),
    Interrupt: _binary("|>", _LEVEL_INTERRUPT),
    **dict.fromkeys((Seq, CSeq), _binary(";", _LEVEL_SEQ)),
    **dict.fromkeys((Choice, CChoice), _binary("[]", _LEVEL_CHOICE)),
    **dict.fromkeys((Par, CPar), _binary("||", _LEVEL_PAR)),
}


def _render(term: StandardTerm | CompensableTerm) -> str:
    # A stack of (term or text, minimum level) instead of recursion, so a
    # long `;` chain cannot run out of interpreter frames.
    if not isinstance(term, _Node):
        raise TypeError(f"not a process term: {term!r}")
    parts: list[str] = []
    todo: list = [(term, 0)]
    while todo:
        item, min_level = todo.pop()
        if type(item) is str:
            parts.append(item)
            continue
        level, layout = _SYNTAX[type(item)]
        if level < min_level:
            layout = ("(", *layout, ")")
        todo.extend(
            (piece, 0) if type(piece) is str else (getattr(item, piece[0]), piece[1])
            for piece in reversed(layout)
        )
    return "".join(parts)


# ---------------------------------------------------------------------------
# Traces
# ---------------------------------------------------------------------------


class Trace:
    """A finite observation: normal events capped by one terminal.

    The terminal is held apart from the event sequence, so "exactly one
    terminal, in final position" holds by construction.  Instances are
    immutable, hashable, and totally ordered (length, then events, then
    terminal) to give trace sets a canonical iteration order.
    """

    __slots__ = ("events", "terminal", "_hash")

    def __init__(self, events: tuple[Event, ...], terminal: Terminal):
        if not isinstance(terminal, Terminal):
            raise TypeError(f"not a terminal: {terminal!r}")
        object.__setattr__(self, "events", tuple(events))
        object.__setattr__(self, "terminal", terminal)
        object.__setattr__(self, "_hash", hash((self.events, terminal)))

    def __setattr__(self, name, value):
        raise AttributeError("traces are immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, Trace)
            and self.terminal is other.terminal
            and self.events == other.events
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self):
        return (len(self.events), self.events, self.terminal._value_)

    def __lt__(self, other: "Trace") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return "<" + ",".join((*self.events, self.terminal.glyph)) + ">"

    __repr__ = __str__


class TracePair:
    """Observation of a compensable process: forward trace plus the trace
    of the compensation that would run afterwards."""

    __slots__ = ("forward", "compensation", "_hash")

    def __init__(self, forward: Trace, compensation: Trace):
        object.__setattr__(self, "forward", forward)
        object.__setattr__(self, "compensation", compensation)
        object.__setattr__(self, "_hash", hash((forward, compensation)))

    def __setattr__(self, name, value):
        raise AttributeError("trace pairs are immutable")

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, TracePair)
            and self.forward == other.forward
            and self.compensation == other.compensation
        )

    def __hash__(self) -> int:
        return self._hash

    @property
    def sort_key(self):
        return (self.forward.sort_key, self.compensation.sort_key)

    def __lt__(self, other: "TracePair") -> bool:
        return self.sort_key < other.sort_key

    def __str__(self) -> str:
        return f"({self.forward},{self.compensation})"

    __repr__ = __str__


def trace(*parts: str) -> Trace:
    """Build a trace from event names ending in a terminal glyph.

    Convenience for tests and demos: ``trace("a", "b", "!")``.
    """
    if not parts:
        raise ValueError("a trace needs at least a terminal glyph")
    return Trace(tuple(parts[:-1]), terminal_from_glyph(parts[-1]))


#: Sort key for canonical order of traces and trace pairs; sorting with it
#: builds each member's key once, where `__lt__` builds two per comparison.
by_sort_key = attrgetter("sort_key")


def format_trace_set(traces: Iterable[Trace | TracePair]) -> list[str]:
    """Canonically ordered text rendering, one member per line."""
    return [str(t) for t in sorted(traces, key=by_sort_key)]


def trace_tokens(t: Trace) -> list[str]:
    """Machine form of a trace: event tokens followed by the terminal glyph."""
    return [*t.events, t.terminal.glyph]


def trace_from_tokens(tokens: Iterable[str]) -> Trace:
    tokens = list(tokens)
    if not tokens:
        raise ValueError("empty token list")
    terminal = terminal_from_glyph(tokens[-1])
    events = tokens[:-1]
    for e in events:
        if not is_event_name(e):
            raise ValueError(f"invalid event token: {e!r}")
    return Trace(tuple(events), terminal)


def pair_tokens(p: TracePair) -> list[list[str]]:
    return [trace_tokens(p.forward), trace_tokens(p.compensation)]


def pair_from_tokens(tokens: Iterable[Iterable[str]]) -> TracePair:
    fwd, comp = tokens
    return TracePair(trace_from_tokens(fwd), trace_from_tokens(comp))
