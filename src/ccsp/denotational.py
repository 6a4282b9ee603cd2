"""Compositional trace semantics.

A standard process denotes a set of traces; a compensable process denotes
a set of trace pairs (forward trace, compensation trace).  The operators
are defined first on individual traces, then lifted pointwise to sets: one
set operator per clause (`lift_seq`, `lift_par`, `lift_interrupt`,
`lift_block`, `lift_pair`, `lift_cseq`, `lift_cpar`; choice is union).
Those definitions are the specification.  The semantics computes each set
as a node of `ccsp.automata`, an interned acyclic automaton, and `CLAUSES`
maps each composite node class to its clause as an operation on nodes:
union for choice, a graft at tick or throw leaves for `;` and `|>`, the
shuffle product for `||`, and so on, each memoized on the identities of
its operands in the shared computed table, each running on an explicit
stack.  The tests check that every operation writes out to its `lift_*`.
`trace_node` gives a term's node, and `traces_standard` and
`traces_compensable` write it out as a frozenset.  The decomposition laws
in `ccsp.equivalence` apply the same `CLAUSES` to derived nodes.

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

from .automata import COMPUTED, EMPTY, Node, ends_in, language, mk, union
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
# The clauses as automaton operations
# ---------------------------------------------------------------------------

_NO_TERMINALS = frozenset()
_TICKS, _THROWS = frozenset((_TICK,)), frozenset((_THROW,))
_TICK_OR_THROW = _TICKS | _THROWS
_ORDER = (_TICK, _YIELD, _THROW)  # the order of a compensable node's terminals
_TICK_NODE = mk(_TICKS)  # {<*>}

# Both drivers memoize in the shared computed table under ``(leaf rule,
# node, operand)``: keyed by the rule, so a rule patched in (as the mutation
# tests do) never reads another rule's results.
def _graft(leaf, p: Node, q) -> Node:
    """The set whose traces follow `p`'s paths, where at each node of `p`
    `leaf(acc, q)` gives the terminals that still end a trace there and a
    set whose traces go on from there.  A node is built once all its
    children are, on an explicit stack."""
    memo = COMPUTED
    top = (leaf, p, q)
    hit = memo.get(top)
    if hit is not None:
        return hit
    stack = [p]
    while stack:
        node = stack[-1]
        key = (leaf, node, q)
        if key in memo:
            stack.pop()
            continue
        edges = []
        for event, child in node.edges:
            out = memo.get((leaf, child, q))
            if out is None:
                stack.append(child)
            else:
                edges.append((event, out))
        if len(edges) < len(node.edges):
            continue
        stack.pop()
        acc, more = leaf(node.acc, q)
        out = mk(acc, edges)
        memo[key] = out if more is EMPTY else union(out, more)
    return memo[top]


def _shuffle(leaf, p: Node, q: Node) -> Node:
    """The shuffle product: an event of either side leads on with the other
    side where it was, and at each pair of nodes `leaf(p.acc, q.acc)` joins
    the two sides' terminals.  Built pair by pair on an explicit stack."""
    memo = COMPUTED
    top = (leaf, p, q)
    hit = memo.get(top)
    if hit is not None:
        return hit
    stack = [top]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        _, p, q = key
        waiting = len(stack)
        edges = {}
        for event, c in p.edges:
            if (out := memo.get((leaf, c, q))) is None:
                stack.append((leaf, c, q))
            else:
                edges[event] = out
        right = []
        for event, d in q.edges:
            if (out := memo.get((leaf, p, d))) is None:
                stack.append((leaf, p, d))
            else:
                right.append((event, out))
        if len(stack) > waiting:
            continue
        stack.pop()
        for event, out in right:
            edges[event] = union(edges[event], out) if event in edges else out
        memo[key] = mk(leaf(p.acc, q.acc), tuple(sorted(edges.items())))
    return memo[top]


# The leaf rules.  Each clause's operation looks its rule up when it runs,
# so patching a rule (say `_seq_leaf`) changes every clause that uses it.
def _seq_leaf(acc: frozenset, q: Node):
    """`;`: a tick hands over to `q`; any other terminal ends the trace."""
    return (acc - _TICKS, q) if _TICK in acc else (acc, EMPTY)


def _interrupt_leaf(acc: frozenset, q: Node):
    """`|>`: a throw hands over to `q`."""
    return (acc - _THROWS, q) if _THROW in acc else (acc, EMPTY)


def _par_leaf(pa: frozenset, qa: frozenset) -> frozenset:
    """`||`: both sides end at once, in the synchronised terminal."""
    return frozenset(omega for left in pa for right in qa for omega in _SYNC[left, right])


def _pair_leaf(acc: frozenset, q: Node):
    """`%`: success installs the compensation `q`; any other forward
    terminal installs the immediate success <*>."""
    return tuple((w, q if w is _TICK else _TICK_NODE) for w in _ORDER if w in acc), EMPTY


def _block_leaf(acc: tuple, _):
    """A block keeps success, runs the compensation after a throw, and drops
    a yield."""
    comps = dict(acc)
    return (_TICKS if _TICK in comps else _NO_TERMINALS), comps.get(_THROW, EMPTY)


def _cseq_leaf(acc: tuple, r: Node):
    """`;` on compensable sets: a forward tick goes on into every pair of
    `r`, whose compensation then runs before the banked one."""
    if acc and acc[0][0] is _TICK:
        return acc[1:], _graft(_resequence_leaf, r, acc[0][1])
    return acc, EMPTY


def _resequence_leaf(acc: tuple, banked: Node):
    # The pairs of `CSeq`'s right operand, each compensation followed by `banked`.
    return tuple((w, _seq(comp, banked)) for w, comp in acc), EMPTY


def _cpar_leaf(la: tuple, ra: tuple) -> tuple:
    """`||` on compensable sets: forwards end in the synchronised terminal,
    and their compensations run in parallel."""
    comps: dict[Terminal, Node] = {}
    for left, lc in la:
        for right, rc in ra:
            for omega in _SYNC[left, right]:
                both = _par(lc, rc)
                comps[omega] = union(comps[omega], both) if omega in comps else both
    return tuple(sorted(comps.items()))


def _seq(p: Node, q: Node) -> Node:
    return _graft(_seq_leaf, p, q)


def _interrupt(p: Node, q: Node) -> Node:
    return _graft(_interrupt_leaf, p, q)


def _par(p: Node, q: Node) -> Node:
    return _shuffle(_par_leaf, p, q)


def _pair(p: Node, q: Node) -> Node:
    return _graft(_pair_leaf, p, q)


def _block(body: Node) -> Node:
    return _graft(_block_leaf, body, None)


def _cseq(left: Node, right: Node) -> Node:
    return _graft(_cseq_leaf, left, right)


def _cpar(left: Node, right: Node) -> Node:
    return _shuffle(_cpar_leaf, left, right)


#: The clause of each composite node class: its operation on nodes, applied
#: to its operands' nodes in field order.  Choice is union.  Each computes
#: what its `lift_*` computes on the nodes' languages.  The decomposition
#: laws in `ccsp.equivalence` apply the same operations to derived nodes.
CLAUSES = {
    Seq: _seq, Choice: union, Par: _par, Interrupt: _interrupt,
    Block: _block, Pair: _pair, CSeq: _cseq, CChoice: union, CPar: _cpar,
}

#: The nodes of the constant leaves; an atom's is its one-event trace.
_LEAVES = {
    Skip: _TICK_NODE,
    Throw: mk(_THROWS),
    Yield: mk(frozenset((_YIELD, _TICK))),
}


# ---------------------------------------------------------------------------
# Semantic functions
# ---------------------------------------------------------------------------

_TRACES: dict[StandardTerm | CompensableTerm, Node] = {}
_SHUFFLES: dict[tuple[tuple[Event, ...], tuple[Event, ...]], frozenset[tuple[Event, ...]]] = {}


def trace_node(term: StandardTerm | CompensableTerm) -> Node:
    """The node of a standard term's trace set, or of a compensable term's
    trace-pair set, evaluated compositionally and memoized per subterm."""
    hit = _TRACES.get(term)
    if hit is not None:
        return hit
    cls = type(term)
    if (clause := CLAUSES.get(cls)) is not None:
        # A plain loop: a comprehension would add a frame a level, and
        # recursing through `map` raised the enumerations' peak RSS.
        nodes = []
        for name in cls._fields:
            nodes.append(trace_node(getattr(term, name)))
        out = clause(*nodes)
    elif cls in _LEAVES:
        out = _LEAVES[cls]
    elif cls is Atom:
        out = mk(_NO_TERMINALS, ((term.event, _TICK_NODE),))
    elif cls is Null:
        raise ValueError("the null process has no denotation")
    elif cls is Aux:
        raise ValueError("the auxiliary construct has no denotation")
    else:
        raise TypeError(f"not a process term: {term!r}")
    _TRACES[term] = out
    return out


def traces_standard(term: StandardTerm) -> frozenset[Trace]:
    """The trace set of a standard user term."""
    check_kind(term, StandardTerm)
    return frozenset(language(trace_node(term)))


def traces_compensable(term: CompensableTerm) -> frozenset[TracePair]:
    """The trace-pair set of a compensable user term."""
    check_kind(term, CompensableTerm)
    return frozenset(language(trace_node(term)))


def check_healthiness(term: StandardTerm | CompensableTerm) -> bool:
    """Every process must be able to terminate or interrupt: some trace
    (forward trace, for compensable terms) ends in tick or throw.  Searches
    the term's node until it finds one."""
    return ends_in(trace_node(term), _TICK_OR_THROW)


def forget(term: StandardTerm | CompensableTerm) -> None:
    """Drop the term's own memoized node, not its subterms'."""
    _TRACES.pop(term, None)


def clear_caches() -> None:
    """Drop all memoized nodes and shuffles."""
    _TRACES.clear()
    _SHUFFLES.clear()


def cache_size() -> int:
    return len(_TRACES) + len(_SHUFFLES)
