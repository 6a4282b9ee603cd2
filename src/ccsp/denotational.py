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
tuples; the per-trace operators read them by index, faster than by name.
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
    return _SYNC[left, right]


def seq_traces(p: Trace, q: Trace) -> Trace:
    """Sequential composition on traces: continue with `q` only after a
    successful `p`, otherwise the observation is just `p`."""
    if p[1] is _TICK:
        return unchecked_trace((p[0] + q[0], q[1]))
    return p


def interrupt_traces(p: Trace, q: Trace) -> Trace:
    """Interrupt handling on traces: `q` runs when `p` throws."""
    if p[1] is _THROW:
        return unchecked_trace((p[0] + q[0], q[1]))
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
    return frozenset(
        unchecked_trace((events, omega))
        for omega in sync_terminals(p[1], q[1])
        for events in interleave_events(p[0], q[0])
    )


def pair_traces(p: Trace, q: Trace) -> TracePair:
    """Compensation pairing on traces: the compensation is installed only
    when the forward trace succeeds."""
    if p[1] is _TICK:
        return TracePair(p, q)
    return TracePair(p, _TICK_TRACE)


def block_traces(p: Trace, compensation: Trace) -> frozenset[Trace]:
    """Transaction block on a forward/compensation pair of traces.

    Success keeps only the forward trace, a throw splices the compensation
    on (hiding the interrupt), and a yielding forward trace contributes
    nothing.
    """
    if p[1] is _TICK:
        return frozenset((p,))
    if p[1] is _THROW:
        return frozenset((unchecked_trace((p[0] + compensation[0], compensation[1])),))
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
        if lf[1] is _TICK:
            out += (TracePair(seq_traces(lf, rf), seq_traces(rc, lc)) for rf, rc in right)
        else:
            out.append(lp)
    return frozenset(out)


def lift_cpar(left: frozenset[TracePair], right: frozenset[TracePair]) -> frozenset[TracePair]:
    """The `CPar` clause: `par_traces` on forwards and on compensations."""
    return frozenset(
        TracePair(t, t2)
        for lf, lc in left
        for rf, rc in right
        for t in par_traces(lf, rf)
        for t2 in par_traces(lc, rc)
    )


# ---------------------------------------------------------------------------
# Semantic functions
# ---------------------------------------------------------------------------

_T_STD: dict[StandardTerm, frozenset[Trace]] = {}
_T_COMP: dict[CompensableTerm, frozenset[TracePair]] = {}
_SHUFFLES: dict[tuple[tuple[Event, ...], tuple[Event, ...]], frozenset[tuple[Event, ...]]] = {}


def traces_standard(term: StandardTerm) -> frozenset[Trace]:
    """The trace set of a standard user term, evaluated compositionally
    and memoized per subterm."""
    hit = _T_STD.get(term)
    if hit is not None:
        return hit
    match term:
        case Atom(e):
            out = frozenset((Trace((e,), _TICK),))
        case Skip():
            out = frozenset((Trace((), _TICK),))
        case Throw():
            out = frozenset((Trace((), _THROW),))
        case Yield():
            out = frozenset((Trace((), _YIELD), Trace((), _TICK)))
        case Seq(l, r):
            out = lift_seq(traces_standard(l), traces_standard(r))
        case Choice(l, r):
            out = traces_standard(l) | traces_standard(r)
        case Par(l, r):
            out = lift_par(traces_standard(l), traces_standard(r))
        case Interrupt(l, r):
            out = lift_interrupt(traces_standard(l), traces_standard(r))
        case Block(body):
            out = lift_block(traces_compensable(body))
        case Null():
            raise ValueError("the null process has no denotation")
        case _:
            raise TypeError(f"not a standard term: {term!r}")
    _T_STD[term] = out
    return out


def traces_compensable(term: CompensableTerm) -> frozenset[TracePair]:
    """The trace-pair set of a compensable user term."""
    hit = _T_COMP.get(term)
    if hit is not None:
        return hit
    match term:
        case Pair(f, c):
            out = lift_pair(traces_standard(f), traces_standard(c))
        case CSeq(l, r):
            out = lift_cseq(traces_compensable(l), traces_compensable(r))
        case CChoice(l, r):
            out = traces_compensable(l) | traces_compensable(r)
        case CPar(l, r):
            out = lift_cpar(traces_compensable(l), traces_compensable(r))
        case Aux():
            raise ValueError("the auxiliary construct has no denotation")
        case _:
            raise TypeError(f"not a compensable term: {term!r}")
    _T_COMP[term] = out
    return out


def check_healthiness(term: StandardTerm | CompensableTerm) -> bool:
    """Every process must be able to terminate or interrupt: some trace
    (forward trace, for compensable terms) ends in tick or throw."""
    if isinstance(term, CompensableTerm):
        return any(
            tp.forward.terminal is not _YIELD for tp in traces_compensable(term)
        )
    return any(t.terminal is not _YIELD for t in traces_standard(term))


def forget(term: StandardTerm | CompensableTerm) -> None:
    """Drop the term's own memoized trace set, not its subterms'."""
    _T_STD.pop(term, None)
    _T_COMP.pop(term, None)


def clear_caches() -> None:
    """Drop all memoized trace sets (used by tests and long campaigns)."""
    _T_STD.clear()
    _T_COMP.clear()
    _SHUFFLES.clear()


def cache_size() -> int:
    return len(_T_STD) + len(_T_COMP) + len(_SHUFFLES)
