"""Compositional trace semantics.

Operators are defined first on individual traces, then lifted pointwise to
sets: one set operator per clause (`lift_seq`, `lift_par`, `lift_interrupt`,
`lift_block`, `lift_pair`, `lift_cseq`, `lift_cpar`; choice is union).  A
standard process denotes a set of traces; a compensable process denotes a
set of trace pairs (forward trace, compensation trace).  The decomposition
laws in `ccsp.equivalence` apply the same set operators to derived traces.

The rules in one breath:

* sequencing splices the second trace on after a successful first trace,
  otherwise the first trace is the whole observation;
* parallel composition interleaves the event parts and joins the two
  terminals in the lattice tick < yield < throw;
* the interrupt handler is sequencing with throw in place of tick;
* a compensation pair keeps its compensation only when the forward trace
  succeeds, otherwise the compensation collapses to immediate success;
* a transaction block discards the compensation of a successful forward
  trace, splices it on after a thrown one, and drops yielding forward
  traces altogether.

Traces are ``(events, terminal)`` and trace pairs ``(forward, compensation)``
tuples; the per-trace operators unpack them, faster than reading by name,
so an argument that is not a pair is a `TypeError` or `ValueError`.
"""
from __future__ import annotations

from .terms import (
    Atom,
    Aux,
    Block,
    CChoice,
    CompensableTerm,
    CPar,
    CSeq,
    Choice,
    Event,
    Interrupt,
    Null,
    Pair,
    Par,
    Seq,
    Skip,
    StandardTerm,
    Terminal,
    Throw,
    Trace,
    TracePair,
    Yield,
    check_kind,
    unchecked_pair,
    unchecked_trace,
)

_TICK, _THROW, _YIELD = Terminal.TICK, Terminal.THROW, Terminal.YIELD

_TICK_TRACE = Trace((), _TICK)


# The paper's synchronisation set, as (left, right, synchronised) rows.  It
# is tabled here, not read off `Terminal.join`, which the operational
# semantics uses, so that a fault in either shows up as a disagreement.
_SYNC = {
    (left, right): frozenset((omega,))
    for left, right, omega in (
        (_TICK, _TICK, _TICK), (_TICK, _YIELD, _YIELD), (_TICK, _THROW, _THROW),
        (_YIELD, _TICK, _YIELD), (_YIELD, _YIELD, _YIELD), (_YIELD, _THROW, _THROW),
        (_THROW, _TICK, _THROW), (_THROW, _YIELD, _THROW), (_THROW, _THROW, _THROW),
    )
}


def sync_terminals(left: Terminal, right: Terminal) -> frozenset[Terminal]:
    """Synchronise two terminals: the singleton join in tick < yield < throw.

    Set-valued because parallel termination is specified as membership in
    the synchronisation set.
    """
    try:
        return _SYNC[left, right]
    except KeyError:
        bad = right if isinstance(left, Terminal) else left
        raise TypeError(f"not a terminal: {bad!r}") from None


def seq_traces(p: Trace, q: Trace) -> Trace:
    """Sequential composition on traces: continue with `q` only after a
    successful `p`, otherwise the observation is just `p`."""
    (events, terminal), (more, end) = p, q
    if terminal is _TICK:
        return unchecked_trace((events + more, end))
    return p


def interrupt_traces(p: Trace, q: Trace) -> Trace:
    """Interrupt handling on traces: `q` runs when `p` throws."""
    (events, terminal), (more, end) = p, q
    if terminal is _THROW:
        return unchecked_trace((events + more, end))
    return p


def interleave_events(
    s: tuple[Event, ...], u: tuple[Event, ...]
) -> frozenset[tuple[Event, ...]]:
    """All order-preserving shuffles of the two event sequences, built row
    by row without recursion; only the whole pair is memoized."""
    hit = _SHUFFLES.get((s, u))
    if hit is not None:
        return hit
    # row[j] holds the shuffles of s[i:] with u[j:], for i from len(s) down.
    row = [(u[j:],) for j in range(len(u) + 1)]
    for i in reversed(range(len(s))):
        above, row = row, [None] * len(u) + [(s[i:],)]
        for j in reversed(range(len(u))):
            row[j] = {(s[i],) + t for t in above[j]} | {(u[j],) + t for t in row[j + 1]}
    out = _SHUFFLES[(s, u)] = frozenset(row[0])
    return out


def par_traces(p: Trace, q: Trace) -> frozenset[Trace]:
    """Parallel composition on traces: every shuffle of the event parts,
    capped with the synchronised terminal."""
    (s, left), (u, right) = p, q
    return frozenset(
        unchecked_trace((events, omega))
        for omega in sync_terminals(left, right)
        for events in interleave_events(s, u)
    )


def pair_traces(p: Trace, q: Trace) -> TracePair:
    """Compensation pairing on traces: the compensation is installed only
    when the forward trace succeeds.  A half that is not a `Trace` is the
    `TypeError` that `TracePair` gives."""
    if not (isinstance(p, Trace) and isinstance(q, Trace)):
        TracePair(p, q)  # raises
    _, terminal = p
    return unchecked_pair((p, q if terminal is _TICK else _TICK_TRACE))


def block_traces(p: Trace, compensation: Trace) -> frozenset[Trace]:
    """Transaction block on a forward/compensation pair of traces.

    Success keeps only the forward trace, a throw splices the compensation
    on (hiding the interrupt), and a yielding forward trace contributes
    nothing.
    """
    (events, terminal), (more, end) = p, compensation
    if terminal is _TICK:
        return frozenset((p,))
    if terminal is _THROW:
        return frozenset((unchecked_trace((events + more, end)),))
    return frozenset()


# One set operator per clause.  Each looks its per-trace operator up when it
# runs, so patching `seq_traces` (say) changes every clause that uses it.
def lift_seq(ps: frozenset[Trace], qs: frozenset[Trace]) -> frozenset[Trace]:
    """The `Seq` clause: `seq_traces` over every pair of traces."""
    return frozenset(seq_traces(p, q) for p in ps for q in qs)


def lift_interrupt(ps: frozenset[Trace], qs: frozenset[Trace]) -> frozenset[Trace]:
    """The `Interrupt` clause: `interrupt_traces` over every pair of traces."""
    return frozenset(interrupt_traces(p, q) for p in ps for q in qs)


def lift_par(ps: frozenset[Trace], qs: frozenset[Trace]) -> frozenset[Trace]:
    """The `Par` clause: the union of `par_traces` over every pair."""
    return frozenset(t for p in ps for q in qs for t in par_traces(p, q))


def lift_pair(ps: frozenset[Trace], qs: frozenset[Trace]) -> frozenset[TracePair]:
    """The `Pair` clause: `pair_traces` over every forward and compensation."""
    return frozenset(pair_traces(p, q) for p in ps for q in qs)


def lift_block(pairs: frozenset[TracePair]) -> frozenset[Trace]:
    """The `Block` clause: the union of `block_traces` over the pairs."""
    return frozenset(t for forward, comp in pairs for t in block_traces(forward, comp))


def lift_cseq(left: frozenset[TracePair], right: frozenset[TracePair]) -> frozenset[TracePair]:
    """The `CSeq` clause: a successful forward trace goes on into every right
    pair, whose compensation runs first; any other left pair is kept whole."""
    out = []
    for lp in left:
        lf, lc = lp
        _, terminal = lf
        if terminal is _TICK:
            out += (unchecked_pair((seq_traces(lf, rf), seq_traces(rc, lc))) for rf, rc in right)
        else:
            out.append(lp)
    return frozenset(out)


def lift_cpar(left: frozenset[TracePair], right: frozenset[TracePair]) -> frozenset[TracePair]:
    """The `CPar` clause: `par_traces` on forwards and on compensations."""
    return frozenset(
        unchecked_pair((t, t2))
        for lf, lc in left
        for rf, rc in right
        for t in par_traces(lf, rf)
        for t2 in par_traces(lc, rc)
    )


# ---------------------------------------------------------------------------
# Semantic functions
# ---------------------------------------------------------------------------

_TRACES: dict[StandardTerm | CompensableTerm, frozenset] = {}
_SHUFFLES: dict[tuple[tuple[Event, ...], tuple[Event, ...]], frozenset[tuple[Event, ...]]] = {}


def _traces(term: StandardTerm | CompensableTerm) -> frozenset:
    """The trace set of a standard term, or the trace-pair set of a
    compensable one, evaluated compositionally and memoized per subterm."""
    hit = _TRACES.get(term)
    if hit is not None:
        return hit
    # Composites first: a leaf misses the table only on its first visit.
    match term:
        case Pair(f, c):
            out = lift_pair(_traces(f), _traces(c))
        case CSeq(l, r):
            out = lift_cseq(_traces(l), _traces(r))
        case CPar(l, r):
            out = lift_cpar(_traces(l), _traces(r))
        case Seq(l, r):
            out = lift_seq(_traces(l), _traces(r))
        case Choice(l, r) | CChoice(l, r):
            out = _traces(l) | _traces(r)
        case Par(l, r):
            out = lift_par(_traces(l), _traces(r))
        case Interrupt(l, r):
            out = lift_interrupt(_traces(l), _traces(r))
        case Block(body):
            out = lift_block(_traces(body))
        case Atom(e):
            out = frozenset((Trace((e,), _TICK),))
        case Skip():
            out = frozenset((Trace((), _TICK),))
        case Throw():
            out = frozenset((Trace((), _THROW),))
        case Yield():
            out = frozenset((Trace((), _YIELD), Trace((), _TICK)))
        case Null():
            raise ValueError("the null process has no denotation")
        case Aux():
            raise ValueError("the auxiliary construct has no denotation")
        case _:
            raise TypeError(f"not a process term: {term!r}")
    _TRACES[term] = out
    return out


def traces_standard(term: StandardTerm) -> frozenset[Trace]:
    """The trace set of a standard user term."""
    check_kind(term, StandardTerm)
    return _traces(term)


def traces_compensable(term: CompensableTerm) -> frozenset[TracePair]:
    """The trace-pair set of a compensable user term."""
    check_kind(term, CompensableTerm)
    return _traces(term)


def check_healthiness(term: StandardTerm | CompensableTerm) -> bool:
    """Every process must be able to terminate or interrupt: some trace
    (forward trace, for compensable terms) ends in tick or throw."""
    if isinstance(term, CompensableTerm):
        return any(forward[1] is not _YIELD for forward, _ in _traces(term))
    return any(t[1] is not _YIELD for t in _traces(term))


def forget(term: StandardTerm | CompensableTerm) -> None:
    """Drop the term's own memoized trace set, not its subterms'."""
    _TRACES.pop(term, None)


def clear_caches() -> None:
    """Drop all memoized trace sets (used by tests and long campaigns)."""
    _TRACES.clear()
    _SHUFFLES.clear()


def cache_size() -> int:
    return len(_TRACES) + len(_SHUFFLES)
