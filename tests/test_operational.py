import re
from functools import reduce

import pytest
from hypothesis import given, strategies as st

from ccsp import clear_caches, operational
from ccsp.denotational import traces_compensable, traces_standard
from ccsp.equivalence import GenConfig, check_compensable, check_lemma, check_standard, gen_term
from ccsp.operational import (
    Lts,
    StateCapExceeded,
    build_lts,
    derived_forward,
    derived_traces_compensable,
    derived_traces_standard,
    run_lifted,
    step,
)
from ccsp.parser import parse_compensable
from ccsp.terms import (
    NULL,
    SKIP,
    THROW,
    YIELD,
    Atom,
    Aux,
    Block,
    CPar,
    CSeq,
    Choice,
    Interrupt,
    MAX_DEPTH,
    Null,
    Pair,
    Par,
    Seq,
    Terminal,
    Trace,
    StandardTerm,
    TracePair,
    pretty_print,
    term_depth,
    trace,
)

A = Atom("a")
B = Atom("b")


# -- single steps -----------------------------------------------------------


def test_step_base_rules():
    assert step(A) == (("a", SKIP),)
    assert step(SKIP) == ((Terminal.TICK, NULL),)
    assert step(THROW) == ((Terminal.THROW, NULL),)
    assert set(step(YIELD)) == {(Terminal.TICK, NULL), (Terminal.YIELD, NULL)}


def test_step_null_rejected():
    with pytest.raises(ValueError):
        step(NULL)


def test_step_refuses_a_non_term():
    with pytest.raises(TypeError, match="not a process term: 'x'"):
        step("x")


_PAIR = Pair(A, B)
_NOT_STANDARD = "not a standard term: Pair(Atom('a'), Atom('b'))"
_NOT_COMPENSABLE = "not a compensable term: Atom('a')"


# `step` relates terms of both kinds, so each exploration refuses a term of
# the other kind at its start, as the trace semantics does.
@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: derived_traces_standard(_PAIR), _NOT_STANDARD),
        (lambda: run_lifted(_PAIR, trace("a", "*")), _NOT_STANDARD),
        (lambda: derived_forward(A), _NOT_COMPENSABLE),
        (lambda: derived_traces_compensable(A), _NOT_COMPENSABLE),
        (lambda: traces_standard(_PAIR), _NOT_STANDARD),
        (lambda: traces_compensable(A), _NOT_COMPENSABLE),
        (lambda: check_standard(_PAIR), _NOT_STANDARD),
        (lambda: check_compensable(A), _NOT_COMPENSABLE),
    ],
    ids=["derived_traces_standard", "run_lifted", "derived_forward", "derived_traces_compensable",
         "traces_standard", "traces_compensable", "check_standard", "check_compensable"],
)
def test_a_term_of_the_other_kind_is_refused(call, message):
    with pytest.raises(TypeError, match=f"^{re.escape(message)}$"):
        call()


def test_step_seq_terminal_composition():
    # first part succeeds, second throws: the composite throws
    assert step(Seq(SKIP, THROW)) == ((Terminal.THROW, NULL),)
    # non-success propagates without starting the second part
    assert step(Seq(THROW, A)) == ((Terminal.THROW, NULL),)


def test_step_seq_skips_into_second_process():
    # after SKIP's tick, one step of the second process fires in the same
    # transition and the Seq node dissolves
    assert step(Seq(SKIP, A)) == (("a", SKIP),)


def test_step_par_interleaves_without_lone_terminal():
    steps = step(Par(A, THROW))
    assert steps == (("a", Par(SKIP, THROW)),)
    # termination only happens jointly
    assert not any(isinstance(label, Terminal) for label, _ in steps)


def test_step_par_joint_termination_joins_terminals():
    assert step(Par(SKIP, THROW)) == ((Terminal.THROW, NULL),)
    assert set(step(Par(YIELD, YIELD))) == {(Terminal.TICK, NULL), (Terminal.YIELD, NULL)}


def test_step_interrupt_hands_off_on_a_throw():
    # An event keeps the handler; a throw starts it, and its first step
    # happens in the same transition.
    assert step(Interrupt(A, B)) == (("a", Interrupt(SKIP, B)),)
    assert step(Interrupt(THROW, B)) == (("b", SKIP),)
    # Any other terminal passes through, and the handler never runs.
    assert step(Interrupt(SKIP, B)) == ((Terminal.TICK, NULL),)
    assert set(step(Interrupt(YIELD, B))) == {(Terminal.TICK, NULL), (Terminal.YIELD, NULL)}


def test_step_cpar_joint_termination_banks_both_compensations():
    left, right = Pair(SKIP, A), Pair(THROW, B)
    # Success banks the left compensation; the throw banks none (SKIP).
    assert step(CPar(left, right)) == ((Terminal.THROW, Par(A, SKIP)),)
    assert step(CPar(Pair(A, B), left)) == (("a", CPar(Pair(SKIP, B), left)),)


def test_step_block_absorbs_throw_and_runs_compensation():
    # the forward throw discards the pair's compensation, so the block
    # terminates successfully with nothing to replay
    assert step(Block(Pair(THROW, B))) == ((Terminal.TICK, NULL),)
    # a banked compensation does run: [ a % b ; THROWW ] after the `a` step
    inner = Block(CSeq(Pair(SKIP, B), Pair(THROW, SKIP)))
    assert step(inner) == (("b", SKIP),)


def test_step_block_prunes_yielding_forward_runs():
    assert step(Block(Pair(YIELD, SKIP))) == ((Terminal.TICK, NULL),)


def test_step_pair_banks_compensation_only_on_success():
    assert step(Pair(SKIP, B)) == ((Terminal.TICK, B),)
    assert step(Pair(THROW, B)) == ((Terminal.THROW, SKIP),)


def test_step_aux_appends_banked_compensation():
    steps = step(Aux(Pair(SKIP, Atom("q")), Atom("p")))
    assert steps == ((Terminal.TICK, Seq(Atom("q"), Atom("p"))),)


def test_step_cseq_enters_aux_construct():
    steps = step(CSeq(Pair(SKIP, A), Pair(B, SKIP)))
    assert steps == (("b", Aux(Pair(SKIP, SKIP), A)),)


def test_compensable_terminal_steps_yield_standard_terms():
    for term in (Pair(YIELD, A), CSeq(Pair(SKIP, A), Pair(THROW, B))):
        for label, succ in step(term):
            if isinstance(label, Terminal):
                assert isinstance(succ, StandardTerm)


def test_steps_are_canonically_ordered():
    root = Par(B, A)
    lts = build_lts(root)
    assert [label for src, label, _ in lts.edges if src is root] == ["a", "b"]


# -- lifted runs ------------------------------------------------------------


def test_run_lifted_examples():
    assert run_lifted(SKIP, trace("*"))
    assert run_lifted(Seq(A, THROW), trace("a", "!"))
    assert not run_lifted(THROW, trace("*"))
    assert not run_lifted(Seq(A, THROW), trace("a", "*"))
    with pytest.raises(ValueError):
        run_lifted(NULL, trace("*"))


def test_run_lifted_takes_a_plain_events_terminal_pair():
    # A trace equals the plain tuple, so both give one answer.
    assert run_lifted(A, (("a",), Terminal.TICK)) is run_lifted(A, trace("a", "*")) is True
    assert not run_lifted(A, ((), Terminal.TICK))


def test_run_lifted_refuses_a_string_of_events():
    # A string's letters are not a trace's events.
    with pytest.raises(TypeError, match="not a string: 'ab'"):
        run_lifted(Seq(A, B), ("ab", Terminal.TICK))
    with pytest.raises(ValueError, match="^invalid event name: '1'$"):
        run_lifted(A, (("1",), Terminal.TICK))


@pytest.mark.parametrize(
    "t", [("a",), (("a",), "*"), (("a",), Terminal.TICK, "b"), 5],
    ids=["one-part", "glyph", "three-parts", "int"],
)
def test_run_lifted_refuses_what_is_not_a_trace(t):
    with pytest.raises(TypeError):
        run_lifted(A, t)


def test_run_lifted_follows_a_long_trace():
    # A balanced `;` tree of 512 events: two frames per event used to
    # exhaust the interpreter's stack.
    tree = A
    for _ in range(9):
        tree = Seq(tree, tree)
    events = ("a",) * 512
    assert run_lifted(tree, Trace(events, Terminal.TICK))
    assert not run_lifted(tree, Trace(events[1:], Terminal.TICK))
    assert not run_lifted(tree, Trace(events, Terminal.THROW))


# -- derived traces ---------------------------------------------------------


def test_derived_traces_standard_examples():
    assert derived_traces_standard(SKIP) == {trace("*")}
    assert derived_traces_standard(Seq(A, THROW)) == {trace("a", "!")}
    assert derived_traces_standard(YIELD) == {trace("?"), trace("*")}
    with pytest.raises(ValueError):
        derived_traces_standard(NULL)


def test_derived_forward_examples():
    assert derived_forward(Pair(A, B)) == {(trace("a", "*"), B)}
    assert derived_forward(Pair(THROW, B)) == {(trace("!"), SKIP)}
    # compensations accumulate in reverse composition order
    csq = CSeq(Pair(A, Atom("a'")), Pair(B, Atom("b'")))
    assert derived_forward(csq) == {(trace("a", "b", "*"), Seq(Atom("b'"), Atom("a'")))}


def test_derived_traces_compensable_examples():
    assert derived_traces_compensable(Pair(A, B)) == {
        TracePair(trace("a", "*"), trace("b", "*"))
    }
    assert derived_traces_compensable(Pair(THROW, SKIP)) == {
        TracePair(trace("!"), trace("*"))
    }
    assert derived_traces_compensable(Pair(YIELD, SKIP)) == {
        TracePair(trace("?"), trace("*")),
        TracePair(trace("*"), trace("*")),
    }


def test_every_run_of_derived_trace_set_is_lifted_run():
    term = Seq(Par(A, THROW), B)
    for t in derived_traces_standard(term):
        assert run_lifted(term, t)


# -- transition systems -----------------------------------------------------


def test_lts_of_skip():
    lts = build_lts(SKIP)
    assert lts.nodes == (SKIP, NULL)
    assert lts.edges == ((SKIP, Terminal.TICK, NULL),)


def test_lts_interleaving_diamond():
    # hand enumeration: a||b steps to either order of a and b, the two
    # paths meet at SKIP||SKIP, and a joint tick closes the run: four
    # process states plus the null sink, five edges, one of them terminal.
    lts = build_lts(Par(A, B))
    assert len(lts.nodes) == 5
    assert len(lts.edges) == 5
    terminal_edges = [e for e in lts.edges if isinstance(e[1], Terminal)]
    assert terminal_edges == [(Par(SKIP, SKIP), Terminal.TICK, NULL)]


def test_lts_block_absorbing_throw_has_only_tick_edge():
    lts = build_lts(Block(Pair(THROW, B)))
    assert [e[1] for e in lts.edges] == [Terminal.TICK]


def test_lts_compensable_root_continues_into_compensation():
    lts = build_lts(Pair(A, B))
    # forward run, then the banked compensation's own run to null
    assert B in lts.nodes and NULL in lts.nodes


def test_lts_state_cap(monkeypatch):
    monkeypatch.setattr(operational, "STATE_CAP", 3)
    with pytest.raises(StateCapExceeded) as exc:
        build_lts(Par(Par(A, B), Par(Atom("c"), Atom("d"))))
    assert "3" in str(exc.value)


def test_lts_state_cap_bounds_the_node_count(monkeypatch):
    # `a || b` has five nodes, the null process included.
    monkeypatch.setattr(operational, "STATE_CAP", 5)
    assert len(build_lts(Par(A, B)).nodes) == 5
    monkeypatch.setattr(operational, "STATE_CAP", 4)
    with pytest.raises(StateCapExceeded, match="more than 4 states"):
        build_lts(Par(A, B))
    # The root is charged too.
    monkeypatch.setattr(operational, "STATE_CAP", 0)
    with pytest.raises(StateCapExceeded, match="more than 0 states"):
        build_lts(A)


@pytest.mark.parametrize(
    "explore, fresh",
    [
        # the four process states of `a || b`
        (lambda: derived_traces_standard(Par(A, B)), 4),
        # four forward states, then four in the one banked compensation
        # `b || d`: forward and banked runs share one allowance
        (lambda: derived_traces_compensable(parse_compensable("(a % b) || (c % d)")), 8),
    ],
    ids=["standard", "compensable"],
)
def test_state_cap_boundary_on_runs(monkeypatch, explore, fresh):
    monkeypatch.setattr(operational, "STATE_CAP", fresh - 1)
    with pytest.raises(StateCapExceeded, match=f"more than {fresh - 1} states"):
        explore()
    clear_caches()
    monkeypatch.setattr(operational, "STATE_CAP", fresh)
    outcomes = explore()
    # Memo hits are free, so the same call on warm tables needs no fresh state.
    monkeypatch.setattr(operational, "STATE_CAP", 0)
    assert explore() == outcomes


_BIG = Par(Par(A, B), Par(Atom("c"), Atom("d")))  # 16 states before null


@pytest.mark.parametrize(
    "explore",
    [
        lambda: derived_traces_standard(_BIG),
        lambda: derived_forward(Pair(_BIG, SKIP)),
        # one fresh forward state; the budget runs out in the compensation
        lambda: derived_traces_compensable(Pair(SKIP, _BIG)),
        lambda: build_lts(_BIG),
        lambda: check_lemma(1, (_BIG, A)),
    ],
    ids=["derived_traces_standard", "derived_forward", "derived_traces_compensable",
         "build_lts", "check_lemma"],
)
def test_every_exploration_charges_the_state_cap(monkeypatch, explore):
    monkeypatch.setattr(operational, "STATE_CAP", 4)
    with pytest.raises(StateCapExceeded, match="more than 4 states"):
        explore()


def test_lts_deterministic_and_dot_output():
    term = Seq(A, B)
    first, second = build_lts(term), build_lts(term)
    assert first == second
    dot = first.to_dot()
    assert dot.splitlines()[0] == "digraph lts {"
    assert 'n0 [label="a ; b"];' in dot
    assert '[label="a"]' in dot and '[label="*"]' in dot
    assert dot.strip().endswith("}")


def test_dot_renders_all_terminal_glyphs():
    dot = build_lts(YIELD).to_dot()
    assert '[label="*"]' in dot and '[label="?"]' in dot


# -- structural properties ----------------------------------------------------

_seeds = st.integers(0, 2**63 - 1)


@given(_seeds)
def test_standard_terminal_steps_end_in_null(seed):
    term = gen_term(GenConfig(seed=seed, max_depth=4, alphabet=("a", "b"), kind="std"))
    for label, succ in step(term):
        if isinstance(label, Terminal):
            assert isinstance(succ, Null)
        else:
            assert not isinstance(succ, Null)


@given(_seeds)
def test_compensable_terminal_steps_bank_standard_compensation(seed):
    term = gen_term(
        GenConfig(seed=seed, max_depth=4, alphabet=("a", "b"), kind="comp")
    )
    for label, succ in step(term):
        if isinstance(label, Terminal):
            assert isinstance(succ, StandardTerm)


@given(_seeds)
def test_derived_healthiness(seed):
    term = gen_term(GenConfig(seed=seed, max_depth=4, alphabet=("a", "b"), kind="std"))
    terminals = {t.terminal for t in derived_traces_standard(term)}
    assert terminals & {Terminal.TICK, Terminal.THROW}


@given(_seeds, st.sampled_from(["std", "comp"]))
def test_no_step_makes_a_term_deeper(seed, kind):
    # So `MAX_DEPTH`, checked at construction, bounds every state's depth.
    term = gen_term(GenConfig(seed=seed, max_depth=4, alphabet=("a", "b"), kind=kind))
    for src, _, dst in build_lts(term).edges:
        assert term_depth(dst) <= term_depth(src)


def _full_step_key(item):
    label, succ = item
    if isinstance(label, str):
        return (1, 0, label, pretty_print(succ))
    return (0, label.value, "", pretty_print(succ))


@given(_seeds, st.sampled_from(["std", "comp"]))
def test_lts_orders_each_nodes_steps_by_label_then_rendering(seed, kind):
    term = gen_term(GenConfig(seed=seed, max_depth=4, alphabet=("a", "b"), kind=kind))
    lts = build_lts(term)
    for node in lts.nodes:
        if not isinstance(node, Null):
            edges = [(label, dst) for src, label, dst in lts.edges if src is node]
            assert edges == sorted(step(node), key=_full_step_key)


def test_lts_renders_successors_only_to_break_label_ties(monkeypatch):
    rendered = []
    monkeypatch.setattr(operational, "pretty_print",
                        lambda t, render=pretty_print: rendered.append(t) or render(t))
    build_lts(Par(Par(A, B), Par(Atom("c"), Atom("d"))))
    assert rendered == []
    # Both branches start with `a`: their successors are rendered to order them.
    lts = build_lts(Choice(Seq(A, B), Seq(A, A)))
    assert set(rendered) == {Seq(SKIP, A), Seq(SKIP, B)}
    assert [dst for src, _, dst in lts.edges if src is lts.nodes[0]] == [Seq(SKIP, A), Seq(SKIP, B)]


_DEEPEST = {
    "left-seq": reduce(Seq, [A] * MAX_DEPTH),
    "right-seq": reduce(lambda r, l: Seq(l, r), [A] * MAX_DEPTH),
    "par": reduce(Par, [SKIP] * MAX_DEPTH),
    "cseq": reduce(CSeq, [Pair(A, B)] * (MAX_DEPTH - 1)),
}


@pytest.mark.parametrize("term", _DEEPEST.values(), ids=_DEEPEST)
def test_the_deepest_terms_get_verdicts(term):
    assert term_depth(term) == MAX_DEPTH
    check = check_compensable if isinstance(term, CSeq) else check_standard
    assert check(term).is_equal
    assert build_lts(term).nodes[0] is term
    # A refusal names the term, so its `repr` must not recurse either.
    other = traces_standard if check is check_compensable else traces_compensable
    with pytest.raises(TypeError, match="^not a "):
        other(term)
