"""The node layer and the trace clauses as node operations, checked against
their set definitions: `language(op(P, Q)) == lift_op(language(P),
language(Q))` for every clause, by Hypothesis and exhaustively over small
universes, with `language` writing each member once and in `sort_key`
order.  Node counts vary between processes (unions follow `id` order), so
no test pins one."""
import ast
import inspect
from itertools import chain, combinations, product

import pytest
from hypothesis import given, settings, strategies as st

from ccsp import denotational, operational
from ccsp.automata import EMPTY, Node, ends_in, language, mk, union
from ccsp.denotational import (
    CLAUSES,
    check_healthiness,
    lift_block,
    lift_cpar,
    lift_cseq,
    lift_interrupt,
    lift_pair,
    lift_par,
    lift_seq,
    trace_node,
    traces_compensable,
    traces_standard,
)
from ccsp.equivalence import enumerate_terms, gen_term, GenConfig
from ccsp.operational import derived_node
from ccsp.parser import parse_standard
from ccsp.terms import (
    Block,
    CChoice,
    CompensableTerm,
    CPar,
    CSeq,
    Choice,
    Interrupt,
    Pair,
    Par,
    Seq,
    Skip,
    Terminal,
    Trace,
    TracePair,
    by_sort_key,
)

_TICK, _YIELD, _THROW = Terminal.TICK, Terminal.YIELD, Terminal.THROW


def written(node: Node) -> frozenset:
    """The members `language` writes out, checked to come each once and in
    `sort_key` order."""
    members = list(language(node))
    assert members == sorted(set(members), key=by_sort_key)
    return frozenset(members)


def node_of(members, order=lambda xs: xs) -> Node:
    """The node of a set of traces or trace pairs, one chain per member,
    merged by `union` in `order`."""
    out = EMPTY
    for member in order(list(members)):
        if isinstance(member, TracePair):
            (events, terminal), back = member
            node = mk(((terminal, node_of({back})),))
        else:
            events, terminal = member
            node = mk(frozenset((terminal,)))
        for event in reversed(events):
            node = mk(frozenset(), ((event, node),))
        out = union(out, node)
    return out


_traces = st.builds(
    Trace, st.lists(st.sampled_from("ab"), max_size=3), st.sampled_from(list(Terminal)))
_trace_sets = st.frozensets(_traces, min_size=1, max_size=5)
_pair_sets = st.frozensets(st.builds(TracePair, _traces, _traces), min_size=1, max_size=4)

#: clause -> its set operator; the trace semantics builds only nonempty
#: sets, so operands are nonempty.
_STANDARD = {Seq: lift_seq, Choice: frozenset.union, Par: lift_par, Interrupt: lift_interrupt,
             Pair: lift_pair}
_COMPENSABLE = {CSeq: lift_cseq, CChoice: frozenset.union, CPar: lift_cpar}


def _subsets(universe):
    return [frozenset(s) for s in chain.from_iterable(
        combinations(universe, k) for k in range(1, len(universe) + 1))]


_SMALL_TRACES = _subsets([Trace(e, w) for e in ((), ("a",)) for w in Terminal])
_SMALL_PAIRS = _subsets([
    TracePair(Trace((), _TICK), Trace((), _TICK)), TracePair(Trace((), _THROW), Trace(("b",), _TICK)),
    TracePair(Trace(("a",), _TICK), Trace(("b",), _THROW)), TracePair(Trace((), _YIELD), Trace((), _TICK)),
    TracePair(Trace(("a",), _TICK), Trace((), _TICK)),
])


@pytest.mark.parametrize("members", [_SMALL_TRACES[-1], _SMALL_PAIRS[-1]], ids=["traces", "pairs"])
def test_language_writes_out_the_set_a_node_was_built_from(members):
    assert written(node_of(members)) == members
    assert written(EMPTY) == frozenset()


@settings(max_examples=200, deadline=None)
@given(st.one_of(_trace_sets, _pair_sets))
def test_a_set_is_one_node_whatever_the_insertion_order(members):
    forward = node_of(members, sorted)
    assert node_of(members, lambda xs: sorted(xs, reverse=True)) is forward
    assert written(forward) == members


def _terms(kind: str):
    return st.builds(lambda seed, depth: gen_term(GenConfig(seed, depth, ("a", "b"), kind)),
                     st.integers(0, 2**32), st.integers(1, 4))


@settings(max_examples=200, deadline=None)
@given(st.one_of(_terms("std"), _terms("comp")))
def test_language_streams_the_nodes_of_drawn_terms_in_order(term):
    for node in (trace_node(term), derived_node(term)):
        written(node)


def test_language_streams_the_nodes_of_small_terms_in_order():
    for term in chain(enumerate_terms(2, ("a", "b")), enumerate_terms(1, ("a", "b"), "comp")):
        written(trace_node(term))


def test_the_empty_node_yields_nothing():
    assert list(language(EMPTY)) == []


def test_long_traces_stream_without_recursion():
    # The walk holds an explicit stack: one frame per event would pass the
    # default recursion limit on both.
    events = [f"e{i}" for i in range(5000)]
    node = mk(frozenset((_TICK,)))
    for event in reversed(events):
        node = mk(frozenset(), ((event, node),))
    assert list(language(node)) == [Trace(events, _TICK)]
    tree = "a"
    for _ in range(10):
        tree = f"({tree} ; {tree})"  # the balanced tree of 1 024 events
    members = written(trace_node(parse_standard(f"{tree} || b")))
    assert members == {Trace(("a",) * k + ("b",) + ("a",) * (1024 - k), _TICK)
                       for k in range(1025)}


@pytest.mark.parametrize("ctor", list(_STANDARD), ids=lambda c: c.__name__)
def test_every_standard_clause_computes_its_set_operator_on_small_sets(ctor):
    op, lift = CLAUSES[ctor], _STANDARD[ctor]
    nodes = {s: node_of(s) for s in _SMALL_TRACES}
    for ps, qs in product(_SMALL_TRACES, repeat=2):
        assert written(op(nodes[ps], nodes[qs])) == lift(ps, qs), (ps, qs)


@pytest.mark.parametrize("ctor", list(_COMPENSABLE), ids=lambda c: c.__name__)
def test_every_compensable_clause_computes_its_set_operator_on_small_sets(ctor):
    op, lift = CLAUSES[ctor], _COMPENSABLE[ctor]
    nodes = {s: node_of(s) for s in _SMALL_PAIRS}
    for ps, qs in product(_SMALL_PAIRS, repeat=2):
        assert written(op(nodes[ps], nodes[qs])) == lift(ps, qs), (ps, qs)


def test_the_block_clause_computes_its_set_operator_on_small_sets():
    for pairs in _SMALL_PAIRS:
        assert written(CLAUSES[Block](node_of(pairs))) == lift_block(pairs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_STANDARD)), _trace_sets, _trace_sets)
def test_every_standard_clause_computes_its_set_operator(ctor, ps, qs):
    out = CLAUSES[ctor](node_of(ps), node_of(qs))
    assert written(out) == _STANDARD[ctor](ps, qs)


@settings(max_examples=150, deadline=None)
@given(st.sampled_from(list(_COMPENSABLE)), _pair_sets, _pair_sets)
def test_every_compensable_clause_computes_its_set_operator(ctor, ps, qs):
    out = CLAUSES[ctor](node_of(ps), node_of(qs))
    assert written(out) == _COMPENSABLE[ctor](ps, qs)


@settings(max_examples=150, deadline=None)
@given(_pair_sets)
def test_the_block_clause_computes_its_set_operator(pairs):
    assert written(CLAUSES[Block](node_of(pairs))) == lift_block(pairs)


def test_mk_never_stores_an_edge_to_the_empty_node():
    ticks = frozenset((_TICK,))
    b = mk(ticks)
    assert mk(frozenset(), (("a", EMPTY),)) is EMPTY
    assert mk(ticks, (("a", EMPTY), ("b", b))) is mk(ticks, (("b", b),))
    assert mk(((_TICK, EMPTY),)) is EMPTY
    # A block drops a forward run that only yields, so its branch is empty:
    # the clause reaches the empty child, and `mk` leaves the edge out.
    pairs = frozenset({TracePair(Trace((), _TICK), Trace((), _TICK)),
                       TracePair(Trace(("a",), _YIELD), Trace((), _TICK))})
    block = CLAUSES[Block](node_of(pairs))
    assert block is mk(ticks) and block.edges == ()
    assert written(block) == lift_block(pairs)


def _reachable(node: Node):
    seen, stack = {node}, [node]
    while stack:
        node = stack.pop()
        yield node
        children = [c for _, c in node.edges]
        if type(node.acc) is tuple:
            children += [c for _, c in node.acc]
        for child in children:
            if child not in seen:
                seen.add(child)
                stack.append(child)


def test_no_reachable_edge_leads_to_the_empty_node():
    terms = chain(enumerate_terms(2, ("a", "b")), enumerate_terms(1, ("a", "b"), "comp"),
                  (gen_term(GenConfig(seed, 5, ("a", "b"), kind))
                   for seed in range(100) for kind in ("std", "comp")))
    for term in terms:
        for root in (trace_node(term), derived_node(term)):
            for node in _reachable(root):
                assert all(child is not EMPTY for _, child in node.edges)
                if type(node.acc) is tuple:
                    assert all(comp is not EMPTY for _, comp in node.acc)


def test_nodes_refuse_what_is_not_a_node():
    with pytest.raises(TypeError, match="cannot build a Node"):
        Node()
    with pytest.raises(AttributeError, match="immutable"):
        EMPTY.edges = ()
    for call in (lambda: union(EMPTY, "a"), lambda: next(language(frozenset())),
                 lambda: ends_in(frozenset(), frozenset()), lambda: ends_in(EMPTY, {_TICK}),
                 lambda: mk(frozenset(("*",))), lambda: mk(frozenset(), (("a", "b"),)),
                 lambda: mk(((_TICK, "b"),))):
        with pytest.raises(TypeError):
            call()


def test_healthiness_agrees_with_its_set_definition(monkeypatch):
    # Every user term is healthy; with `SKIP` only yielding, some are not,
    # and the node walk must agree with the definition on the sets.  The
    # patch comes before any set is built, so no memo holds an unpatched one.
    monkeypatch.setitem(denotational._LEAVES, Skip, mk(frozenset((_YIELD,))))
    verdicts = set()
    for term in chain(enumerate_terms(1, ("a",)), enumerate_terms(1, ("a",), "comp")):
        if isinstance(term, CompensableTerm):
            healthy = any(t.forward.terminal is not _YIELD for t in traces_compensable(term))
        else:
            healthy = any(t.terminal is not _YIELD for t in traces_standard(term))
        assert check_healthiness(term) is healthy, term
        verdicts.add(healthy)
    assert verdicts == {True, False}


def test_both_semantics_build_the_same_node():
    for term in chain(enumerate_terms(1, ("a", "b")), enumerate_terms(0, ("a", "b"), "comp")):
        assert derived_node(term) is trace_node(term)


def test_neither_semantics_imports_the_other():
    # They share terms and the node layer only, so that a fault in one shows
    # up as a disagreement with the other.
    for module, other in ((operational, "denotational"), (denotational, "operational")):
        names = set()
        for node in ast.walk(ast.parse(inspect.getsource(module))):
            if isinstance(node, ast.ImportFrom):
                names |= {node.module or ""} | {alias.name for alias in node.names}
            elif isinstance(node, ast.Import):
                names |= {alias.name for alias in node.names}
        assert not any(other in name for name in names), (module.__name__, names)
