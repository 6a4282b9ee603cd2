"""Small-step operational semantics and derived-trace extraction.

A step is a plain ``(label, successor)`` tuple whose label is either the
event name (a `str`) or a `Terminal`.  A terminal step finishes a standard
process (successor is the null process) and finishes the forward behaviour
of a compensable process (successor is the banked compensation, a standard
term).  One relation, `step`, covers both kinds and returns each step once,
in no particular order; `build_lts`, whose edges users see, is the one place
that orders steps canonically.

Lifting single steps over event sequences gives runs; the derived traces
of a term are the labels of its maximal runs.  Both are computed by
exhaustive exploration, which terminates because every step strictly
decreases `term_weight`.  Exploration shares memo tables across calls,
unless made inside `forgetting`, which drops what one walk added.  A
freshly explored state is one new entry in the run table, and one call may
add at most `STATE_CAP` of them (`build_lts` may hold as many nodes), so
that pathological terms fail loudly instead of thrashing.
"""
from __future__ import annotations

from collections import deque
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Union

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
    NULL,
    Null,
    Pair,
    Par,
    SKIP,
    Seq,
    Skip,
    StandardTerm,
    Terminal,
    Throw,
    Trace,
    TracePair,
    Yield,
    check_kind,
    pretty_print,
    unchecked_pair,
    unchecked_trace,
)

#: The most fresh states one call may explore: the most entries it may add
#: to the run table, or nodes `build_lts` may hold.  Memo hits left by
#: earlier calls are free.  Each CLI command, campaign and law suite starts
#: from empty tables, so its result does not depend on what ran before it.
#: Read at call time, so tests can patch it.
STATE_CAP = 100_000

#: A transition label: the event name, or the terminal for a terminal step.
Label = Union[Event, Terminal]
#: A single step: ``(label, successor)``.
Step = tuple[Label, Union[StandardTerm, CompensableTerm]]

_TICK = Terminal.TICK
_THROW = Terminal.THROW
_YIELD = Terminal.YIELD


class StateCapExceeded(RuntimeError):
    """Exploration touched more fresh states than `STATE_CAP`."""

    def __init__(self, cap: int):
        super().__init__(f"state cap exceeded: more than {cap} states explored")
        self.cap = cap


_STEPS: dict[StandardTerm | CompensableTerm, tuple[Step, ...]] = {}


def step(term: StandardTerm | CompensableTerm) -> tuple[Step, ...]:
    """All single steps of a term of either kind, each a ``(label,
    successor)`` pair, without duplicates and in no particular order
    (`build_lts` is the one place that orders steps canonically).  After an
    event a term keeps its kind; after a terminal a compensable term leaves
    its banked compensation, a standard term."""
    hit = _STEPS.get(term)
    if hit is not None:
        return hit
    # An insertion-ordered dict dedupes steps reached by several rules.
    out: dict[Step, None] = {}
    match term:
        case Atom(e):
            out[e, SKIP] = None
        case Skip():
            out[_TICK, NULL] = None
        case Throw():
            out[_THROW, NULL] = None
        case Yield():
            out[_YIELD, NULL] = None
            out[_TICK, NULL] = None
        case Seq(l, r) | Interrupt(l, r):
            # Control passes to the second process when the first ends in
            # the hand-off terminal, tick for `;` and throw for `|>`: one
            # step of the second happens in the same transition, dropping
            # the node.  Any other terminal ends the composition.
            node = type(term)
            handoff = _TICK if node is Seq else _THROW
            for label, succ in step(l):
                if isinstance(label, str):
                    out[label, node(succ, r)] = None
                elif label is handoff:
                    out.update(dict.fromkeys(step(r)))
                else:
                    out[label, NULL] = None
        case Choice(l, r) | CChoice(l, r):
            out.update(dict.fromkeys(step(l)))
            out.update(dict.fromkeys(step(r)))
        case Par(l, r) | CPar(l, r):
            node = type(term)
            lsteps = step(l)
            rsteps = step(r)
            for label, succ in lsteps:
                if isinstance(label, str):
                    out[label, node(succ, r)] = None
            for label, succ in rsteps:
                if isinstance(label, str):
                    out[label, node(l, succ)] = None
            # Termination is synchronised: both sides finish at once and
            # the terminals join.  A compensable composition banks both
            # sides' compensations, to run in parallel.
            for ll, lsucc in lsteps:
                if not isinstance(ll, str):
                    for rl, rsucc in rsteps:
                        if not isinstance(rl, str):
                            out[ll.join(rl), NULL if node is Par else Par(lsucc, rsucc)] = None
        case Block(body):
            for label, succ in step(body):
                if isinstance(label, str):
                    out[label, Block(succ)] = None
                elif label is _TICK:
                    # Successful block: discard the banked compensation.
                    out[_TICK, NULL] = None
                elif label is _THROW:
                    # The block dissolves and the compensation starts
                    # running; the interrupt itself is not observable.
                    out.update(dict.fromkeys(step(succ)))
                # A yielding forward run has no transition out of a block.
        case Pair(f, c):
            for label, succ in step(f):
                if isinstance(label, str):
                    out[label, Pair(succ, c)] = None
                elif label is _TICK:
                    out[label, c] = None
                else:
                    # Unsuccessful forward behaviour banks no compensation.
                    out[label, SKIP] = None
        case CSeq(l, r):
            for label, succ in step(l):
                if isinstance(label, str):
                    out[label, CSeq(succ, r)] = None
                elif label is _TICK:
                    _aux_steps(step(r), succ, out)
                else:
                    out[label, succ] = None
        case Aux(rest, stored):
            _aux_steps(step(rest), stored, out)
        case Null():
            raise ValueError("the null process has no transitions")
        case _:
            raise TypeError(f"not a process term: {term!r}")
    w = term._weight
    assert all(succ._weight < w for _, succ in out), "step must shrink the term"
    steps = tuple(out)
    _STEPS[term] = steps
    return steps


def _aux_steps(steps: tuple[Step, ...], stored: StandardTerm, out: dict[Step, None]) -> None:
    # The steps of `Aux(rest, stored)` from those of `rest`, stored in no memo.
    for label, succ in steps:
        if isinstance(label, str):
            out[label, Aux(succ, stored)] = None
        else:  # compensations accumulate in reverse order
            out[label, Seq(succ, stored)] = None


# ---------------------------------------------------------------------------
# Lifted runs and derived traces
# ---------------------------------------------------------------------------


def run_lifted(term: StandardTerm, t: Trace) -> bool:
    """Does the standard term have a run labelled exactly by `t`, a `Trace`
    or any ``(events, terminal)`` pair (anything else is a `TypeError`)?
    Follows the trace with the set of states reached after each event, so a
    long trace costs no interpreter frames."""
    check_kind(term, StandardTerm)
    events, terminal = Trace(*t)
    states = {term}
    for event in events:
        states = {succ for state in states for label, succ in step(state) if label == event}
    return any(label is terminal for state in states for label, _ in step(state))


#: Each explored state's run outcomes: traces for a standard state, and
#: ``(trace, banked compensation)`` pairs for a compensable one.
_RUNS: dict[StandardTerm | CompensableTerm, frozenset] = {}


def _runs(term: StandardTerm | CompensableTerm, limit: int) -> frozenset:
    """The run outcomes of `term`, computed without recursion: a state on
    the stack is computed once every event successor is in `_RUNS`, which
    ends because every successor is lighter.  Storing a fresh state past
    `limit` entries in `_RUNS` raises `StateCapExceeded`."""
    runs = _RUNS
    stack = [term]
    while stack:
        state = stack[-1]
        if state in runs:
            stack.pop()
            continue
        steps = step(state)
        waiting = len(stack)
        for label, succ in steps:
            if isinstance(label, str) and succ not in runs:
                stack.append(succ)
        if len(stack) > waiting:
            continue
        stack.pop()
        if len(runs) >= limit:
            raise StateCapExceeded(STATE_CAP)
        out = set()
        if isinstance(state, StandardTerm):
            for label, succ in steps:
                if isinstance(label, str):
                    for events, terminal in runs[succ]:
                        out.add(unchecked_trace(((label,) + events, terminal)))
                else:
                    out.add(unchecked_trace(((), label)))
        else:
            for label, succ in steps:
                if isinstance(label, str):
                    for (events, terminal), banked in runs[succ]:
                        out.add((unchecked_trace(((label,) + events, terminal)), banked))
                else:
                    out.add((unchecked_trace(((), label)), succ))
        runs[state] = frozenset(out)
    return runs[term]


def derived_traces_standard(term: StandardTerm) -> frozenset[Trace]:
    """The labels of all maximal runs of a standard term."""
    check_kind(term, StandardTerm)
    return _runs(term, len(_RUNS) + STATE_CAP)


def derived_forward(term: CompensableTerm) -> frozenset[tuple[Trace, StandardTerm]]:
    """All (forward trace, banked compensation) outcomes of a compensable
    term's forward runs."""
    check_kind(term, CompensableTerm)
    return _runs(term, len(_RUNS) + STATE_CAP)


def derived_traces_compensable(term: CompensableTerm) -> frozenset[TracePair]:
    """Forward runs continued through their banked compensations, which
    share one allowance of fresh states."""
    check_kind(term, CompensableTerm)
    limit = len(_RUNS) + STATE_CAP
    return frozenset(
        unchecked_pair((t, t2))
        for t, banked in _runs(term, limit)
        for t2 in _runs(banked, limit)
    )


# ---------------------------------------------------------------------------
# Labelled transition systems
# ---------------------------------------------------------------------------

LtsNode = Union[StandardTerm, CompensableTerm]
LtsEdge = tuple[LtsNode, Label, LtsNode]


@dataclass(frozen=True)
class Lts:
    """The reachable transition graph of a term.

    Nodes appear in breadth-first discovery order (root first) and edges
    ``(source, label, target)`` in source order, each node's out-edges in
    the canonical step order of `build_lts`, so identical terms always
    produce identical graphs.
    """

    nodes: tuple[LtsNode, ...]
    edges: tuple[LtsEdge, ...]

    def to_dot(self) -> str:
        """Graphviz rendering; terminal edge labels use `*`, `!`, `?`."""
        index = {node: i for i, node in enumerate(self.nodes)}
        lines = ["digraph lts {", "  rankdir=LR;"]
        for i, node in enumerate(self.nodes):
            lines.append(f'  n{i} [label="{_dot_escape(pretty_print(node))}"];')
        for src, label, dst in self.edges:
            text = label if isinstance(label, str) else label.glyph
            lines.append(f'  n{index[src]} -> n{index[dst]} [label="{_dot_escape(text)}"];')
        lines.append("}")
        return "\n".join(lines)


def _dot_escape(text: str) -> str:
    return text.replace("\\", "\\\\").replace('"', '\\"')


def _label_key(item: Step):
    label = item[0]
    return (1, label) if isinstance(label, str) else (0, label.value)


def build_lts(term: LtsNode) -> Lts:
    """Explore the full reachable graph under `step`.

    This is the one place where steps are put in canonical order: terminals
    first by terminal order, then events alphabetically, then successors
    by their rendering.  Terminal steps of compensable nodes lead into the standard graph of the
    banked compensation, so the graph of a compensable term shows the
    compensation runs as well.  A graph of more than `STATE_CAP` nodes
    raises `StateCapExceeded`.
    """
    step(term)  # refuses the null process and non-terms, as every exploration does
    nodes: dict[LtsNode, None] = {term: None}
    edges: list[LtsEdge] = []
    queue = deque(nodes)
    while queue:
        # Every new node is queued, so this sees each growth of the graph.
        if len(nodes) > STATE_CAP:
            raise StateCapExceeded(STATE_CAP)
        node = queue.popleft()
        if isinstance(node, Null):
            continue
        steps = step(node)
        # Successors are rendered only when labels tie; the stable sort by
        # label keeps their rendering order.
        if len({label for label, _ in steps}) < len(steps):
            steps = sorted(steps, key=lambda item: pretty_print(item[1]))
        for label, succ in sorted(steps, key=_label_key):
            if succ not in nodes:
                nodes[succ] = None
                queue.append(succ)
            edges.append((node, label, succ))
    return Lts(nodes=tuple(nodes), edges=tuple(edges))


def forget(term: StandardTerm | CompensableTerm) -> None:
    """Drop the term's own memoized steps and derived traces, not those of
    its subterms or successors."""
    _STEPS.pop(term, None)
    _RUNS.pop(term, None)


@contextmanager
def forgetting():
    """Drop every memo entry added inside the block when it ends or raises
    (say, `StateCapExceeded`).  A walk only inserts, so its entries are the
    tables' tails, popped back to the sizes read on entry."""
    sizes = [(table, len(table)) for table in (_STEPS, _RUNS)]
    try:
        yield
    finally:
        for table, size in sizes:
            while len(table) > size:
                table.popitem()


def clear_caches() -> None:
    """Drop memoized steps and derived traces."""
    _STEPS.clear()
    _RUNS.clear()


def cache_size() -> int:
    return len(_STEPS) + len(_RUNS)
