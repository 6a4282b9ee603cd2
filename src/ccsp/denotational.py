"""Compositional trace semantics.

Operators are defined first on individual traces, then lifted pointwise to
sets.  A standard process denotes a set of traces; a compensable process
denotes a set of trace pairs (forward trace, compensation trace).

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
    is_compensable,
)

_TICK, _THROW, _YIELD = Terminal.TICK, Terminal.THROW, Terminal.YIELD

_TICK_TRACE = Trace((), _TICK)


def sync_terminals(left: Terminal, right: Terminal) -> frozenset[Terminal]:
    """Synchronise two terminals: the singleton join in tick < yield < throw.

    Set-valued because parallel termination is specified as membership in
    the synchronisation set.
    """
    return frozenset((left.join(right),))


def seq_traces(p: Trace, q: Trace) -> Trace:
    """Sequential composition on traces: continue with `q` only after a
    successful `p`, otherwise the observation is just `p`."""
    if p.terminal is _TICK:
        return Trace(p.events + q.events, q.terminal)
    return p


def interrupt_traces(p: Trace, q: Trace) -> Trace:
    """Interrupt handling on traces: `q` runs when `p` throws."""
    if p.terminal is _THROW:
        return Trace(p.events + q.events, q.terminal)
    return p


def interleave_events(
    s: tuple[Event, ...], u: tuple[Event, ...]
) -> frozenset[tuple[Event, ...]]:
    """All order-preserving shuffles of the two event sequences."""
    hit = _SHUFFLES.get((s, u))
    if hit is not None:
        return hit
    if not s:
        out = frozenset((u,))
    elif not u:
        out = frozenset((s,))
    else:
        out = frozenset(
            {(s[0],) + rest for rest in interleave_events(s[1:], u)}
            | {(u[0],) + rest for rest in interleave_events(s, u[1:])}
        )
    _SHUFFLES[(s, u)] = out
    return out


def par_traces(p: Trace, q: Trace) -> frozenset[Trace]:
    """Parallel composition on traces: every shuffle of the event parts,
    capped with the synchronised terminal."""
    return frozenset(
        Trace(events, omega)
        for omega in sync_terminals(p.terminal, q.terminal)
        for events in interleave_events(p.events, q.events)
    )


def pair_traces(p: Trace, q: Trace) -> TracePair:
    """Compensation pairing on traces: the compensation is installed only
    when the forward trace succeeds."""
    if p.terminal is _TICK:
        return TracePair(p, q)
    return TracePair(p, _TICK_TRACE)


def block_traces(p: Trace, compensation: Trace) -> frozenset[Trace]:
    """Transaction block on a forward/compensation pair of traces.

    Success keeps only the forward trace, a throw splices the compensation
    on (hiding the interrupt), and a yielding forward trace contributes
    nothing.
    """
    if p.terminal is _TICK:
        return frozenset((p,))
    if p.terminal is _THROW:
        return frozenset((Trace(p.events + compensation.events, compensation.terminal),))
    return frozenset()


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
            out = frozenset(
                seq_traces(p, q) for p in traces_standard(l) for q in traces_standard(r)
            )
        case Choice(l, r):
            out = traces_standard(l) | traces_standard(r)
        case Par(l, r):
            out = frozenset(
                t
                for p in traces_standard(l)
                for q in traces_standard(r)
                for t in par_traces(p, q)
            )
        case Interrupt(l, r):
            out = frozenset(
                interrupt_traces(p, q)
                for p in traces_standard(l)
                for q in traces_standard(r)
            )
        case Block(body):
            out = frozenset(
                t
                for tp in traces_compensable(body)
                for t in block_traces(tp.forward, tp.compensation)
            )
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
            out = frozenset(
                pair_traces(p, q) for p in traces_standard(f) for q in traces_standard(c)
            )
        case CSeq(l, r):
            out = frozenset(_cseq_pairs(traces_compensable(l), traces_compensable(r)))
        case CChoice(l, r):
            out = traces_compensable(l) | traces_compensable(r)
        case CPar(l, r):
            out = frozenset(
                TracePair(t, t2)
                for lp in traces_compensable(l)
                for rp in traces_compensable(r)
                for t in par_traces(lp.forward, rp.forward)
                for t2 in par_traces(lp.compensation, rp.compensation)
            )
        case Aux():
            raise ValueError("the auxiliary construct has no denotation")
        case _:
            raise TypeError(f"not a compensable term: {term!r}")
    _T_COMP[term] = out
    return out


def _cseq_pairs(left: frozenset[TracePair], right: frozenset[TracePair]):
    # Compensations accumulate in reverse: the second process compensates
    # first, so its compensation trace leads.
    for lp in left:
        if lp.forward.terminal is _TICK:
            for rp in right:
                yield TracePair(
                    seq_traces(lp.forward, rp.forward),
                    seq_traces(rp.compensation, lp.compensation),
                )
        else:
            yield lp


def check_healthiness(term: StandardTerm | CompensableTerm) -> bool:
    """Every process must be able to terminate or interrupt: some trace
    (forward trace, for compensable terms) ends in tick or throw."""
    if is_compensable(term):
        return any(
            tp.forward.terminal is not _YIELD for tp in traces_compensable(term)
        )
    return any(t.terminal is not _YIELD for t in traces_standard(term))


def clear_caches() -> None:
    """Drop all memoized trace sets (used by tests and long campaigns)."""
    _T_STD.clear()
    _T_COMP.clear()
    _SHUFFLES.clear()


def cache_size() -> int:
    return len(_T_STD) + len(_T_COMP) + len(_SHUFFLES)
