"""Process terms, traces, and pretty-printing for the cCSP subset.

Two kinds of process terms exist side by side, and a term's kind is its
base class.  A *standard* process (`StandardTerm`) runs and terminates; a
*compensable* process (`CompensableTerm`) additionally installs
compensation behaviour while it runs, to be replayed if the surrounding
transaction aborts.  Observations are finite traces: a sequence of normal
events capped by exactly one terminal marker (success, throw or yield).

Terms are immutable and hash-consed (interned): structurally equal
constructions yield the same instance, so equality and hashing are both by
identity, and the memo tables driving exhaustive exploration stay cheap.
Construction is the only supported way to obtain a term.  Each node class
has one constructor for its arity, which takes its operands positionally
and nothing else: a wrong count or a keyword is the interpreter's own
`TypeError`, and it names the class.  Each class has a pool: a plain dict
from the operands to a weak reference to the live node built from them.
The reference remembers its key, and when the node dies its callback
removes the entry, unless a newer reference has taken its place; so a pool
holds only live terms, and a term rebuilt after its death is again the one
instance.  A class with no fields (`Skip`, `Throw`, `Yield`, `Null`) has
exactly one instance, pooled when the class is finished, and its
constructor returns it without a lookup.  Interning also sizes the term:
its operator count, weight and depth are its class's share plus its
operands' (already computed) sizes, so `term_op_count`, `term_weight` and
`term_depth` are attribute reads.  A node deeper than `MAX_DEPTH` is
refused before it is built (`ValueError`).
"""
from __future__ import annotations

import re
import weakref
from enum import Enum
from functools import partial
from operator import attrgetter, itemgetter
from typing import Iterable, Iterator


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
        # Against anything but a terminal, `<` is the interpreter's `TypeError`.
        if not isinstance(other, Terminal):
            return NotImplemented
        return self._value_ < other._value_

    def __str__(self) -> str:
        return self.glyph


_GLYPHS = {Terminal.TICK: "*", Terminal.YIELD: "?", Terminal.THROW: "!"}
_BY_GLYPH = {g: t for t, g in _GLYPHS.items()}

#: Event names and keywords, as the parser reads them: an ASCII letter, then
#: ASCII letters, digits, underscores or primes.
WORD = re.compile(r"[A-Za-z][A-Za-z0-9_']*")

# An event is just its name; names are validated where events enter the
# system (atom and trace construction, alphabet declarations).
Event = str


def is_event_name(name: str) -> bool:
    return bool(WORD.fullmatch(name)) and name not in RESERVED_WORDS


def _event_names(names: Iterable[Event]) -> tuple[Event, ...]:
    """`names` as a tuple, each a valid event name (`ValueError`); a string is
    a `TypeError`, as its letters are not the names meant."""
    if isinstance(names, str):
        raise TypeError(f"events must be a sequence of names, not a string: {names!r}")
    names = tuple(names)
    for name in names:
        if not is_event_name(name):
            raise ValueError(f"invalid event name: {name!r}")
    return names


def check_alphabet(alphabet: Iterable[Event]) -> tuple[Event, ...]:
    """The declared alphabet as a tuple, checked as every term source checks
    it: a sequence of valid event names, not a string, with at least one
    event, each once (a `ValueError`; a string is a `TypeError`)."""
    names = _event_names(alphabet)
    if not names:
        raise ValueError("alphabet must list at least one event")
    if len(set(names)) < len(names):
        raise ValueError("alphabet must list each event once")
    return names


# ---------------------------------------------------------------------------
# Process terms
# ---------------------------------------------------------------------------


class _Node:
    """Base for interned term nodes; subclasses declare their fields in
    ``__slots__`` and are finished off by the `_node` decorator, which gives
    each its interning `__new__`.  Every field is an operand term, except
    `Atom`'s event name."""

    __slots__ = ("_weight", "_ops", "_depth", "_pp", "__weakref__")
    _noun = "process"
    _fields: tuple[str, ...] = ()
    _pool: dict

    def __new__(cls, *args, **kwargs):
        # Only the node classes build terms; a bare kind base has no sizes.
        raise TypeError(f"cannot build a bare {cls.__name__}: terms are built by the node classes")

    def __setattr__(self, name, value):
        raise AttributeError("process terms are immutable")

    def __deepcopy__(self, memo=None):  # interned and immutable: its own copy
        return self

    __copy__ = __deepcopy__

    def __repr__(self) -> str:
        # A stack of nodes and finished text, as in `_render`.
        parts: list[str] = []
        todo: list = [self]
        while todo:
            item = todo.pop()
            if isinstance(item, str):
                parts.append(item)
                continue
            layout = [f"{type(item).__name__}("]
            for i, name in enumerate(item._fields):
                value = getattr(item, name)
                layout += [", "] * (i > 0) + [value if isinstance(value, _Node) else repr(value)]
            todo += reversed(layout + [")"])
        return "".join(parts)


class StandardTerm(_Node):
    __slots__ = ()
    _noun = "standard"


class CompensableTerm(_Node):
    __slots__ = ()
    _noun = "compensable"


def check_kind(term, kind: type) -> None:
    """Refuse anything but a term of `kind` (`_Node`: any term) with a `TypeError`."""
    if not isinstance(term, kind):
        raise TypeError(f"not a {kind._noun} term: {term!r}")


#: Deepest term that can be built (`term_depth`).  No step deepens a term, so
#: both semantics recurse at most this many frames, half Python's default limit.
MAX_DEPTH = 500


class _PoolRef(weakref.ref):
    """A pool entry: a weak reference to a term that remembers its key."""

    __slots__ = ("key",)


def _constructor(cls, weight: int, ops: int, event: bool, kinds: tuple[type, ...]):
    """The interning `__new__` of a node class, one per arity: look the
    operands up in the class's pool, or check them against `kinds`, build the
    node, size it from its operands and pool a weak reference to it.  A class
    with no fields is interned here, once, and its constructor returns that."""
    pool = cls._pool = {}
    get = pool.get
    new = object.__new__
    fields = cls._fields
    setters = [cls.__dict__[name].__set__ for name in fields]
    set_weight, set_ops, set_depth = (
        _Node.__dict__[name].__set__ for name in ("_weight", "_ops", "_depth")
    )

    def remove(ref):
        # A stale callback must not drop a newer entry under the same key.
        if get(ref.key) is ref:
            del pool[ref.key]

    def intern(inst, key, total_weight, total_ops, depth):
        set_weight(inst, total_weight)
        set_ops(inst, total_ops)
        set_depth(inst, depth)
        ref = _PoolRef(inst, remove)
        ref.key = key
        pool[key] = ref
        return inst

    def operand_error(field, operand, kind):
        noun = kind._noun if isinstance(operand, _Node) else "process"
        return TypeError(f"{cls.__name__}.{field} is not a {noun} term")

    def depth_error():
        return ValueError(f"a term is at most {MAX_DEPTH} deep; this {cls.__name__} is deeper")

    if len(fields) == 2:
        set_first, set_second = setters
        first_kind, second_kind = kinds

        def binary(cls, first, second, /):
            key = (first, second)
            ref = get(key)
            if ref is not None:
                inst = ref()
                if inst is not None:
                    return inst
            if not isinstance(first, first_kind):
                raise operand_error(fields[0], first, first_kind)
            if not isinstance(second, second_kind):
                raise operand_error(fields[1], second, second_kind)
            fd, sd = first._depth, second._depth
            depth = 1 + (fd if fd > sd else sd)
            if depth > MAX_DEPTH:
                raise depth_error()
            inst = new(cls)
            set_first(inst, first)
            set_second(inst, second)
            return intern(inst, key, weight + first._weight + second._weight,
                          ops + first._ops + second._ops, depth)

        return binary

    if len(fields) == 1:
        (set_operand,) = setters
        (kind,) = kinds

        def unary(cls, operand, /):
            ref = get(operand)
            if ref is not None:
                inst = ref()
                if inst is not None:
                    return inst
            if event:
                _event_names((operand,))
                sizes = weight, ops, 1
            elif isinstance(operand, kind):
                if operand._depth >= MAX_DEPTH:
                    raise depth_error()
                sizes = weight + operand._weight, ops + operand._ops, 1 + operand._depth
            else:
                raise operand_error(fields[0], operand, kind)
            set_operand(inst := new(cls), operand)
            return intern(inst, operand, *sizes)

        return unary

    one = intern(new(cls), (), weight, ops, 1)

    def nullary(cls, /):
        return one

    return nullary


def _node(weight: int, ops: int, event: bool = False, kinds: tuple[type, ...] | None = None):
    """Finish a node class; `weight` and `ops` are its own share of
    `term_weight` and `term_op_count`, `event` marks a class whose one
    field is an event name rather than an operand term, and `kinds` gives
    each operand's kind (default: the class's own)."""

    def finish(cls):
        cls._fields = cls.__match_args__ = cls.__slots__
        own = CompensableTerm if issubclass(cls, CompensableTerm) else StandardTerm
        new = _constructor(cls, weight, ops, event, kinds or (own,) * len(cls._fields))
        # The interpreter checks the operand count and refuses keywords; named
        # so, its `TypeError` names the class (`Seq.__new__() missing ...`).
        new.__qualname__ = f"{cls.__name__}.__new__"
        cls.__new__ = new
        return cls

    return finish


@_node(weight=2, ops=0, event=True)
class Atom(StandardTerm):
    """A single atomic event."""

    __slots__ = ("event",)


@_node(weight=1, ops=0)
class Skip(StandardTerm):
    """Immediate successful termination."""

    __slots__ = ()


@_node(weight=1, ops=0)
class Throw(StandardTerm):
    """Raise an interrupt."""

    __slots__ = ()


@_node(weight=2, ops=0)
class Yield(StandardTerm):
    """Offer to yield to an interrupt, or terminate successfully."""

    __slots__ = ()


@_node(weight=0, ops=0)
class Null(StandardTerm):
    """The terminated process.  Runtime-only; never part of a user term."""

    __slots__ = ()


@_node(weight=1, ops=1)
class Seq(StandardTerm):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class Choice(StandardTerm):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class Par(StandardTerm):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class Interrupt(StandardTerm):
    """Interrupt handler: control passes to `right` when `left` throws."""

    __slots__ = ("left", "right")


@_node(weight=1, ops=1, kinds=(CompensableTerm,))
class Block(StandardTerm):
    """Transaction block around a compensable process.

    On success the accumulated compensation is discarded; on throw it runs
    inside the block and the interrupt is not observable outside.
    """

    __slots__ = ("body",)


@_node(weight=1, ops=0, kinds=(StandardTerm, StandardTerm))
class Pair(CompensableTerm):
    """Compensation pair: forward behaviour with its compensation."""

    __slots__ = ("forward", "compensation")


@_node(weight=1, ops=1)
class CSeq(CompensableTerm):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class CChoice(CompensableTerm):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1)
class CPar(CompensableTerm):
    __slots__ = ("left", "right")


@_node(weight=1, ops=1, kinds=(CompensableTerm, StandardTerm))
class Aux(CompensableTerm):
    """Runtime pairing of a still-running compensable process with an
    already-banked compensation.  Arises only during execution of a
    compensable sequence; never part of a user term."""

    __slots__ = ("rest", "stored")


SKIP = Skip()
THROW = Throw()
YIELD = Yield()
NULL = Null()

#: Keywords of the standard constants, and of the compensable constants,
#: which desugar at parse time to pairs over SKIP.
STANDARD_KEYWORDS = {"SKIP": SKIP, "THROW": THROW, "YIELD": YIELD}
COMPENSABLE_KEYWORDS = {
    "SKIPP": Pair(SKIP, SKIP), "THROWW": Pair(THROW, SKIP), "YIELDD": Pair(YIELD, SKIP),
}

#: Words that can never be event names.
RESERVED_WORDS = frozenset(STANDARD_KEYWORDS.keys() | COMPENSABLE_KEYWORDS.keys())


def subterms(term: StandardTerm | CompensableTerm) -> Iterator[StandardTerm | CompensableTerm]:
    """Yield `term` and every nested subterm, preorder."""
    check_kind(term, _Node)  # the only check needed: the loop pushes only nodes
    stack = [term]
    while stack:
        t = stack.pop()
        yield t
        # Push the operands right to left so the leftmost comes out first.
        operands = (getattr(t, name) for name in reversed(t._fields))
        stack += [o for o in operands if isinstance(o, _Node)]


def term_op_count(term: StandardTerm | CompensableTerm) -> int:
    """Number of operator nodes.

    Seq/Choice/Par/Interrupt/Block, CSeq/CChoice/CPar and the runtime Aux
    each count one; leaves and compensation pairs are free (a pair is the
    minimal way to form a compensable term, not an extra operator).  Fixed
    at interning.
    """
    check_kind(term, _Node)
    return term._ops


def term_weight(term: StandardTerm | CompensableTerm) -> int:
    """Well-founded size measure that strictly decreases on every
    transition, which is what makes exhaustive exploration terminate.
    Fixed at interning."""
    check_kind(term, _Node)
    return term._weight


def term_depth(term: StandardTerm | CompensableTerm) -> int:
    """Nesting depth counting every constructor, leaves = 1.  Fixed at
    interning."""
    check_kind(term, _Node)
    return term._depth


def validate_user_term(
    term: StandardTerm | CompensableTerm, alphabet: Iterable[Event] | None = None
) -> list[str]:
    """Check that `term` is a legal user-supplied term.

    Returns a list of violation descriptions (empty when valid).  Null and
    the runtime-only auxiliary construct are forbidden; when an alphabet is
    declared, it is checked by `check_alphabet` and every atom must draw
    from it.
    """
    violations = []
    declared = frozenset(check_alphabet(alphabet)) if alphabet is not None else None
    for sub in subterms(term):
        if isinstance(sub, Null):
            violations.append("null process is not a user term")
        elif isinstance(sub, Aux):
            violations.append("auxiliary construct is not a user term")
        elif isinstance(sub, Atom) and declared is not None and sub.event not in declared:
            violations.append(f"event {sub.event!r} not in declared alphabet")
    return violations


# ---------------------------------------------------------------------------
# Pretty-printing
# ---------------------------------------------------------------------------

#: The binary operators of the concrete syntax, loosest binding first, each
#: with its standard and compensable constructor (None: standard only).  All
#: are left-associative.  This is the one statement of their symbols and
#: binding order: the parser's precedence loop and the printer both read it.
BINARY_OPERATORS = (
    ("||", Par, CPar),
    ("[]", Choice, CChoice),
    ("|>", Interrupt, None),
    (";", Seq, CSeq),
)

# `%` binds tighter than every binary operator, and its operands are
# restricted to the atom level by the grammar, so pairs parenthesize any
# operator operand.
_LEVEL_PAIR = len(BINARY_OPERATORS) + 1
_LEVEL_ATOM = _LEVEL_PAIR + 1


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
    **{type(term): (_LEVEL_ATOM, (word,)) for word, term in STANDARD_KEYWORDS.items()},
    Null: (_LEVEL_ATOM, ("0",)),
    Block: (_LEVEL_ATOM, ("[ ", ("body", 0), " ]")),
    Aux: (_LEVEL_ATOM, ("<", ("rest", 0), ", ", ("stored", 0), ">")),
    Pair: (_LEVEL_PAIR, (("forward", _LEVEL_ATOM), " % ", ("compensation", _LEVEL_ATOM))),
    **{
        cls: _binary(op, level)
        for level, (op, *classes) in enumerate(BINARY_OPERATORS, 1)
        for cls in classes
        if cls is not None
    },
}


def _render(term: StandardTerm | CompensableTerm) -> str:
    # A stack of (term or text, minimum level) instead of recursion, so a
    # long `;` chain cannot run out of interpreter frames.
    check_kind(term, _Node)
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


class _Observation(tuple):
    """A fixed-length tuple ordered by its `sort_key`.  All four comparisons
    are overridden: the tuple's lexicographic order would answer any left out.
    Each orders only against its own type and refuses anything else with a
    `TypeError`, a plain tuple too, whose lexicographic order would disagree
    with `sort_key` (not returning `NotImplemented`, which would fall back to it)."""

    __slots__ = ()

    def __reduce__(self):  # copies and pickles, at any protocol, rebuild through `__new__`
        return type(self), tuple(self)

    def _key_of(self, other):
        if type(other) is not type(self):
            raise TypeError(f"a {type(self).__name__} is ordered only against another: {other!r}")
        return other.sort_key

    def __lt__(self, other):
        return self.sort_key < self._key_of(other)

    def __le__(self, other):
        return self.sort_key <= self._key_of(other)

    def __gt__(self, other):
        return self.sort_key > self._key_of(other)

    def __ge__(self, other):
        return self.sort_key >= self._key_of(other)


class Trace(_Observation):
    """A finite observation: normal events capped by one terminal.

    The terminal is held apart from the event sequence, so "exactly one
    terminal, in final position" holds by construction.  A trace is the
    tuple ``(events, terminal)``: immutable, hashed and compared as that
    tuple (so it equals the plain tuple ``(events, terminal)``), and
    totally ordered by `sort_key` (length, then events, then terminal) to
    give trace sets a canonical iteration order.  Each event must be a
    valid event name (`ValueError`), as in an alphabet.
    """

    __slots__ = ()

    def __new__(cls, events: Iterable[Event], terminal: Terminal):
        if not isinstance(terminal, Terminal):
            raise TypeError(f"not a terminal: {terminal!r}")
        return tuple.__new__(cls, (_event_names(events), terminal))

    events = property(itemgetter(0), doc="The normal events, a tuple of names.")
    terminal = property(itemgetter(1), doc="The `Terminal` that ends the trace.")

    @property
    def sort_key(self):
        return (len(self.events), self.events, self.terminal._value_)

    def __str__(self) -> str:
        return "<" + ",".join((*self.events, self.terminal.glyph)) + ">"

    __repr__ = __str__


class TracePair(_Observation):
    """Observation of a compensable process: forward trace plus the trace
    of the compensation that would run afterwards.  The tuple
    ``(forward, compensation)``, so it equals that plain tuple.  Each half
    must be a `Trace` (`TypeError`)."""

    __slots__ = ()

    def __new__(cls, forward: Trace, compensation: Trace):
        for t in (forward, compensation):
            if not isinstance(t, Trace):
                raise TypeError(f"not a trace: {t!r}")
        return tuple.__new__(cls, (forward, compensation))

    forward = property(itemgetter(0), doc="The forward `Trace`.")
    compensation = property(itemgetter(1), doc="The compensation's `Trace`.")

    @property
    def sort_key(self):
        return (self.forward.sort_key, self.compensation.sort_key)

    def __str__(self) -> str:
        return f"({self.forward},{self.compensation})"

    __repr__ = __str__


#: Build a `Trace` from ``(events, terminal)``, or a `TracePair` from
#: ``(forward, compensation)``, unchecked: for loops whose parts have the
#: right types by construction.  Everything else calls the constructors.
unchecked_trace = partial(tuple.__new__, Trace)
unchecked_pair = partial(tuple.__new__, TracePair)


def trace(*parts: str) -> Trace:
    """Build a trace from event names ending in a terminal glyph.

    Convenience for tests and demos: ``trace("a", "b", "!")``.
    """
    if not parts:
        raise ValueError("a trace needs at least a terminal glyph")
    terminal = _BY_GLYPH.get(parts[-1])
    if terminal is None:
        raise ValueError(f"not a terminal glyph: {parts[-1]!r}")
    return Trace(parts[:-1], terminal)


#: Sort key for canonical order of traces and trace pairs; sorting with it
#: builds each member's key once, where `__lt__` builds two per comparison.
by_sort_key = attrgetter("sort_key")


def trace_tokens(t: Trace) -> list[str]:
    """Machine form of a trace: event tokens followed by the terminal glyph."""
    if not isinstance(t, Trace):
        raise TypeError(f"not a trace: {t!r}")
    return [*t.events, t.terminal.glyph]


def pair_tokens(p: TracePair) -> list[list[str]]:
    """Machine form of a trace pair, or of any pair of traces: one token list each."""
    forward, compensation = p
    return [trace_tokens(forward), trace_tokens(compensation)]
