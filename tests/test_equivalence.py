import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import ccsp
from ccsp import denotational
from ccsp.equivalence import (
    GenConfig,
    LAWS,
    check_compensable,
    check_lemma,
    check_standard,
    enumerate_terms,
    gen_term,
    run_lemma_suite,
    run_prop_campaign,
    verify_verdict_soundness,
)
from ccsp.operational import build_lts
from ccsp.terms import (
    SKIP,
    THROW,
    YIELD,
    Atom,
    Aux,
    Block,
    CChoice,
    CPar,
    CSeq,
    Choice,
    Interrupt,
    Null,
    Pair,
    Par,
    Seq,
    Terminal,
    Trace,
    TracePair,
    Yield,
    pretty_print,
    term_op_count,
    term_weight,
    trace,
    validate_user_term,
)

A = Atom("a")
B = Atom("b")


# -- equivalence verdicts -----------------------------------------------------


def test_check_standard_examples():
    v = check_standard(SKIP)
    assert v.status == "equal" and v.is_equal
    # b never runs because the parallel stage terminates with a throw
    v = check_standard(Seq(Par(A, THROW), B))
    assert v.is_equal
    assert denotational.traces_standard(Seq(Par(A, THROW), B)) == {trace("a", "!")}
    # the banked compensation b replays after the throw
    v = check_standard(Block(CSeq(Pair(A, B), Pair(THROW, SKIP))))
    assert v.is_equal
    assert denotational.traces_standard(Block(CSeq(Pair(A, B), Pair(THROW, SKIP)))) == {
        trace("a", "b", "*")
    }


def test_check_compensable_examples():
    v = check_compensable(Pair(SKIP, SKIP))
    assert v.is_equal
    assert denotational.traces_compensable(Pair(SKIP, SKIP)) == {
        TracePair(trace("*"), trace("*"))
    }
    v = check_compensable(CSeq(Pair(A, Atom("a'")), Pair(THROW, SKIP)))
    assert v.is_equal
    assert denotational.traces_compensable(
        CSeq(Pair(A, Atom("a'")), Pair(THROW, SKIP))
    ) == {TracePair(trace("a", "!"), trace("a'", "*"))}
    v = check_compensable(CPar(Pair(A, Atom("a'")), Pair(B, Atom("b'"))))
    assert v.is_equal
    assert len(denotational.traces_compensable(CPar(Pair(A, Atom("a'")), Pair(B, Atom("b'"))))) == 4


# -- decomposition laws -------------------------------------------------------


def test_law_registry_shape():
    assert sorted(LAWS) == [1, 2, 3, 4, 5, 6, 7]


def test_check_lemma_examples():
    assert check_lemma(1, (A, THROW)).is_equal
    assert check_lemma(4, (Pair(SKIP, Atom("q")), Atom("p"))).is_equal
    assert check_lemma(7, (Pair(THROW, SKIP),)).is_equal


def test_check_lemma_rejects_bad_operands():
    with pytest.raises(ValueError):
        check_lemma(1, (Pair(A, B), THROW))  # law 1 wants standard operands
    with pytest.raises(ValueError):
        check_lemma(4, (Pair(A, B),))  # wrong arity
    with pytest.raises(ValueError):
        check_lemma(8, (A, B))


@given(st.integers(0, 2**63 - 1), st.sampled_from(sorted(LAWS)))
@settings(max_examples=120)
def test_laws_hold_on_random_operands(seed, lemma):
    _, kinds, _ = LAWS[lemma]
    rng = random.Random(seed)
    operands = tuple(
        gen_term(
            GenConfig(
                seed=rng.getrandbits(63),
                max_depth=4,
                alphabet=("a", "b"),
                kind="standard" if k == "std" else "compensable",
            )
        )
        for k in kinds
    )
    assert check_lemma(lemma, operands).is_equal


def test_lemma_suite_covers_both_cond_branches_and_forward_throw():
    s3 = run_lemma_suite(3, 100, 42, 4, ("a", "b"))
    assert s3.equal == s3.total == 100
    assert s3.coverage["cond-true"] > 0 and s3.coverage["cond-false"] > 0
    s6 = run_lemma_suite(6, 100, 42, 4, ("a", "b"))
    assert s6.equal == 100
    assert s6.coverage["forward-throw"] > 0


# -- generation ---------------------------------------------------------------


def test_gen_depth_one_standard_is_leaf():
    term = gen_term(GenConfig(seed=1, max_depth=1, alphabet=("a",), kind="standard"))
    assert term_op_count(term) == 0


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=0, alphabet=("a",), kind="standard")
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=2, alphabet=(), kind="standard")
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=2, alphabet=("a",), kind="mixed")
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=2, alphabet=("a",), kind="standard", weights={"par": 0})
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=2, alphabet=("a",), kind="standard", weights={"aux": 1})


def test_gen_compensable_never_contains_aux():
    for seed in range(50):
        term = gen_term(
            GenConfig(seed=seed, max_depth=5, alphabet=("a", "b"), kind="compensable")
        )
        assert validate_user_term(term) == []


# -- enumeration --------------------------------------------------------------


def test_enumerate_zero_ops_standard():
    got = list(enumerate_terms(0, ("a",), "standard"))
    assert got == [A, SKIP, THROW, YIELD]


def test_enumerate_counts_match_grammar_arithmetic():
    # leaves: one atom per event plus SKIP/THROW/YIELD
    leaves = len(("a",)) + 3
    pairs0 = leaves * leaves
    # exactly one operator: four binary constructors over leaf operands,
    # plus a block over an operator-free compensable
    std1 = 4 * leaves * leaves + pairs0
    got = list(enumerate_terms(1, ("a",), "standard"))
    assert len(got) == leaves + std1 == 84

    # one-operator compensables: a pair with one one-operator standard
    # operand, or a binary composition of operator-free pairs
    comp1 = 2 * leaves * std1 + 3 * pairs0 * pairs0
    comp_got = list(enumerate_terms(1, ("a",), "compensable"))
    assert len(comp_got) == pairs0 + comp1


def test_enumerate_respects_pair_operand_cap():
    capped = list(enumerate_terms(2, ("a",), "compensable", max_pair_operand_ops=0))
    for term in capped:
        for sub in ccsp.terms.subterms(term):
            if isinstance(sub, Pair):
                assert term_op_count(sub.forward) == 0
                assert term_op_count(sub.compensation) == 0


#: A node's own share of `term_weight`; every other node counts one.
_OWN_WEIGHT = {Null: 0, Atom: 2, Yield: 2}
_OPERATORS = (Block, Seq, Choice, Par, Interrupt, CSeq, CChoice, CPar, Aux)


@pytest.mark.parametrize("kind", ["standard", "compensable"])
def test_cached_op_count_matches_fresh_count(kind):
    # Sizes are fixed when a term is interned; recount them over the whole
    # tree.  The reachable states add the runtime-only Null and Aux nodes.
    reachable = (
        node for term in enumerate_terms(1, ("a", "b"), kind)
        for node in build_lts(term).nodes
    )
    for term in itertools.chain(enumerate_terms(2, ("a", "b"), kind), reachable):
        subs = list(ccsp.terms.subterms(term))
        fresh = sum(isinstance(sub, _OPERATORS) for sub in subs)
        assert term_op_count(term) == fresh
        assert term_op_count(term) == fresh  # read again from the node
        assert term_weight(term) == sum(_OWN_WEIGHT.get(type(sub), 1) for sub in subs)


def test_enumerate_is_duplicate_free_and_valid():
    seen = set()
    for term in enumerate_terms(2, ("a",), "standard"):
        assert term not in seen
        seen.add(term)
        assert validate_user_term(term, ("a",)) == []
        assert term_op_count(term) <= 2
    leaves, pairs0 = 4, 16
    std1 = 4 * leaves**2 + pairs0
    comp1 = 2 * leaves * std1 + 3 * pairs0**2
    std2 = 4 * 2 * leaves * std1 + comp1
    assert len(seen) == leaves + std1 + std2


def test_enumerate_is_deterministic():
    first = list(enumerate_terms(2, ("a", "b"), "standard"))
    second = list(enumerate_terms(2, ("a", "b"), "standard"))
    assert first == second


# -- campaigns ----------------------------------------------------------------


def test_prop_campaign_deterministic_and_green():
    runs = [
        [
            (r.kind, pretty_print(r.term), r.verdict.status, r.healthy)
            for r in run_prop_campaign(11, 60, 4, ("a", "b"), "both")
        ]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert all(status == "equal" and healthy for _, _, status, healthy in runs[0])
    kinds = {k for k, *_ in runs[0]}
    assert kinds == {"std", "comp"}


# -- mutation sensitivity and counterexample soundness ------------------------


def _mutant_seq_traces(p: Trace, q: Trace) -> Trace:
    # deliberately wrong: splice on throw instead of success
    if p.terminal is Terminal.THROW:
        return Trace(p.events + q.events, q.terminal)
    return p


def test_mutated_seq_success_condition_is_caught(monkeypatch):
    ccsp.clear_caches()
    monkeypatch.setattr(denotational, "seq_traces", _mutant_seq_traces)
    try:
        mismatches = []
        for term in enumerate_terms(2, ("a", "b"), "standard"):
            verdict = check_standard(term)
            if not verdict.is_equal:
                mismatches.append(verdict)
                if len(mismatches) >= 5:
                    break
        assert mismatches, "the mutant semantics went undetected"
        # the evidence must be real: every reported trace belongs to exactly
        # one of the (current) semantics
        for verdict in mismatches:
            assert verify_verdict_soundness(verdict)
    finally:
        ccsp.clear_caches()


def test_smallest_seq_mutant_witness():
    ccsp.clear_caches()
    original = denotational.seq_traces
    denotational.seq_traces = _mutant_seq_traces
    try:
        verdict = check_standard(Seq(THROW, SKIP))
        assert verdict.status == "mismatch"
        assert verdict.only_operational == {trace("!")}
        assert verdict.only_denotational == {trace("*")}
    finally:
        denotational.seq_traces = original
        ccsp.clear_caches()
