import itertools
import random

import pytest
from hypothesis import given, settings, strategies as st

import ccsp
from ccsp import denotational, equivalence, operational
from ccsp.equivalence import (
    GenConfig,
    LAWS,
    check_compensable,
    check_lemma,
    check_standard,
    check_terms,
    enumerate_terms,
    gen_term,
    run_lemma_suite,
    run_prop_campaign,
)
from ccsp.operational import StateCapExceeded, build_lts, derived_traces_standard, run_lifted
from ccsp.terms import (
    SKIP,
    THROW,
    YIELD,
    Atom,
    Aux,
    Block,
    CChoice,
    CompensableTerm,
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


def test_check_lemma_verdict_names_the_composite_term():
    verdict = check_lemma(7, (Pair(THROW, SKIP),))
    assert verdict.term is Block(Pair(THROW, SKIP))
    assert verdict.is_equal and not verdict.only_denotational
    composites = {1: Seq, 2: Par, 3: CSeq, 4: Aux, 5: CPar, 6: Pair, 7: Block}
    operands = {"std": A, "comp": Pair(A, B)}
    for lemma, (_, kinds, *_) in LAWS.items():
        ops = tuple(operands[k] for k in kinds)
        assert check_lemma(lemma, ops).term is composites[lemma](*ops)


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
    _, kinds, *_ = LAWS[lemma]
    rng = random.Random(seed)
    operands = tuple(
        gen_term(
            GenConfig(
                seed=rng.getrandbits(63),
                max_depth=4,
                alphabet=("a", "b"),
                kind=k,
            )
        )
        for k in kinds
    )
    assert check_lemma(lemma, operands).is_equal


def test_lemma_suite_rejects_an_unknown_law():
    with pytest.raises(ValueError, match="no such law: 8"):
        run_lemma_suite(8, 1, 0, 3, ("a",))


@pytest.mark.parametrize("lemma", [1.0, True, "1"], ids=["float", "bool", "str"])
def test_a_law_id_must_be_an_integer(lemma):
    # Each used to check law 1, or to fail later inside the suite's seeding.
    with pytest.raises(TypeError):
        check_lemma(lemma, (A, B))
    with pytest.raises(TypeError):
        run_lemma_suite(lemma, 2, 0, 2, ("a",))


def test_prop_campaign_refuses_a_negative_case_count():
    cases = run_prop_campaign(1, -3, 3, ("a", "b"), "both")
    with pytest.raises(ValueError, match="cases must be nonnegative"):
        next(cases)


def test_lemma_suite_refuses_a_negative_case_count():
    with pytest.raises(ValueError, match="cases must be nonnegative"):
        run_lemma_suite(1, -5, 0, 3, ("a",))


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 0, 0, ("a", "a"), "std"), "max_depth must be at least 1"),
        ((1, 0, 1, ("a", "a"), "std"), "each event once"),
        ((1, 0, 0, ("a",), "std"), "max_depth must be at least 1"),
        ((1, 0, 1, ("a",), "standard"), "unknown kind"),
        ((1, 0, 1, (), "both"), "at least one event"),
    ],
    ids=["depth-and-repeat", "repeat", "depth", "long-kind", "empty"],
)
def test_prop_campaign_checks_every_argument_before_its_first_case(args, message):
    # With no cases to build, the arguments used to go unchecked.
    cases = run_prop_campaign(*args)
    with pytest.raises(ValueError, match=message):
        next(cases)


@pytest.mark.parametrize(
    "args, message",
    [
        ((1, 0, 0, -2, ("a",)), "max_depth must be at least 1"),
        ((1, 0, 0, 3, ("SKIP",)), "invalid event name: 'SKIP'"),
        ((4, 0, 0, 3, ("a", "a")), "each event once"),
    ],
    ids=["depth", "reserved", "repeat"],
)
def test_lemma_suite_checks_every_argument_before_its_first_case(args, message):
    with pytest.raises(ValueError, match=message):
        run_lemma_suite(*args)


def test_lemma_suite_covers_both_cond_branches_and_forward_throw():
    # Each law's counters come from its own row's probe, and only from it.
    expected = {3: {"cond-true", "cond-false"}, 6: {"forward-throw"}}
    for lemma in sorted(LAWS):
        suite = run_lemma_suite(lemma, 100, 42, 4, ("a", "b"))
        assert suite.equal == suite.total == 100
        assert set(suite.coverage) == expected.get(lemma, set()), lemma
        assert all(0 < count <= 100 for count in suite.coverage.values())


# -- generation ---------------------------------------------------------------


def test_gen_depth_one_standard_is_leaf():
    term = gen_term(GenConfig(seed=1, max_depth=1, alphabet=("a",), kind="std"))
    assert term_op_count(term) == 0


def test_gen_config_validation():
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=0, alphabet=("a",), kind="std")
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=2, alphabet=(), kind="std")
    with pytest.raises(ValueError):
        GenConfig(seed=0, max_depth=2, alphabet=("a",), kind="mixed")


@pytest.mark.parametrize(
    "seed, max_depth",
    [(0, 2.5), ("7", 3), (0.5, 3)],
    ids=["float-depth", "str-seed", "float-seed"],
)
def test_gen_config_refuses_a_non_integer(seed, max_depth):
    # A float depth used to make a term, and "7" to seed another stream than 7.
    with pytest.raises(TypeError, match="cannot be interpreted as an integer"):
        GenConfig(seed, max_depth, ("a",), "std")


def test_gen_term_refuses_a_non_config():
    with pytest.raises(TypeError, match="not a GenConfig: 'x'"):
        gen_term("x")


def test_gen_config_keeps_the_checked_alphabet():
    # The caller's list used to be kept, unhashable and still open to change.
    events = ["a", "b"]
    cfg = GenConfig(0, 3, events, "std")
    events.append("c")
    assert cfg.alphabet == ("a", "b") and type(cfg.alphabet) is tuple
    assert hash(cfg) == hash(GenConfig(0, 3, ("a", "b"), "std"))
    assert cfg == GenConfig(0, 3, ("a", "b"), "std")
    assert gen_term(cfg) is gen_term(GenConfig(0, 3, ("a", "b"), "std"))
    assert GenConfig(0, 3, iter(events), "std").alphabet == ("a", "b", "c")


def test_gen_config_refuses_a_repeated_event():
    # A repeated event would be drawn twice as often as the others.
    with pytest.raises(ValueError, match="alphabet must list each event once"):
        GenConfig(1, 3, ("a", "a"), "std")


def test_gen_config_refuses_an_invalid_event_name():
    # `SKIP` names a process, not an event; it used to pass until an atom was drawn.
    with pytest.raises(ValueError, match="invalid event name: 'SKIP'"):
        gen_term(GenConfig(1, 3, ("SKIP",), "std"))


@pytest.mark.parametrize("kind", ["standard", "compensable"])
def test_kind_has_one_spelling(kind):
    with pytest.raises(ValueError, match="unknown kind"):
        GenConfig(seed=0, max_depth=2, alphabet=("a",), kind=kind)
    with pytest.raises(ValueError, match="unknown kind"):
        list(enumerate_terms(1, ("a",), kind))
    with pytest.raises(ValueError, match="unknown kind"):
        list(run_prop_campaign(1, 3, 3, ("a", "b"), kind))


# The generator as it was written on `random.choices`, kept verbatim as the
# reference that `gen_term`'s precomputed tables must reproduce term for term.
_STD_LEAVES = ("atom", "skip", "throw", "yield")
_STD_INTERNAL = ("seq", "choice", "par", "interrupt", "block")
_COMP_INTERNAL = ("cseq", "cchoice", "cpar")
_WEIGHTS = {name: 1.0 for name in (*_STD_LEAVES, *_STD_INTERNAL, "pair", *_COMP_INTERNAL)}


def reference_gen_term(cfg: GenConfig):
    rng = random.Random(cfg.seed)
    if cfg.kind == "std":
        return _gen_std(rng, cfg, _WEIGHTS, cfg.max_depth, 0)
    return _gen_comp(rng, cfg, _WEIGHTS, cfg.max_depth, 0)


def _pick(rng, choices: list[str], weights: list[float]) -> str:
    return rng.choices(choices, weights=weights, k=1)[0]


def _leaf_bias(cfg: GenConfig, remaining: int) -> float:
    depth = cfg.max_depth - remaining  # 0 at the root
    return (depth + 1) ** 2 / 4.0


def _gen_std(rng, cfg, weights, remaining: int, par_depth: int):
    if remaining <= 1:
        kind = _pick(rng, list(_STD_LEAVES), [weights[k] for k in _STD_LEAVES])
    else:
        bias = _leaf_bias(cfg, remaining)
        par_decay = 3.0 ** par_depth
        names = list(_STD_LEAVES) + list(_STD_INTERNAL)
        ws = [weights[k] * bias for k in _STD_LEAVES] + [
            weights[k] / (par_decay if k == "par" else 1.0) for k in _STD_INTERNAL
        ]
        kind = _pick(rng, names, ws)
    if kind == "atom":
        return Atom(rng.choice(cfg.alphabet))
    if kind == "skip":
        return SKIP
    if kind == "throw":
        return THROW
    if kind == "yield":
        return YIELD
    if kind == "block":
        return Block(_gen_comp(rng, cfg, weights, remaining - 1, par_depth))
    left = _gen_std(rng, cfg, weights, remaining - 1, par_depth + (kind == "par"))
    right = _gen_std(rng, cfg, weights, remaining - 1, par_depth + (kind == "par"))
    if kind == "seq":
        return Seq(left, right)
    if kind == "choice":
        return Choice(left, right)
    if kind == "par":
        return Par(left, right)
    return Interrupt(left, right)


def _gen_comp(rng, cfg, weights, remaining: int, par_depth: int):
    if remaining <= 1:
        kind = "pair"
    else:
        bias = _leaf_bias(cfg, remaining)
        par_decay = 3.0 ** par_depth
        names = ["pair"] + list(_COMP_INTERNAL)
        ws = [weights["pair"] * bias] + [
            weights[k] / (par_decay if k == "cpar" else 1.0) for k in _COMP_INTERNAL
        ]
        kind = _pick(rng, names, ws)
    if kind == "pair":
        budget = max(remaining - 1, 1)
        return Pair(
            _gen_std(rng, cfg, weights, budget, par_depth),
            _gen_std(rng, cfg, weights, budget, par_depth),
        )
    left = _gen_comp(rng, cfg, weights, remaining - 1, par_depth + (kind == "cpar"))
    right = _gen_comp(rng, cfg, weights, remaining - 1, par_depth + (kind == "cpar"))
    if kind == "cseq":
        return CSeq(left, right)
    if kind == "cchoice":
        return CChoice(left, right)
    return CPar(left, right)


def test_gen_term_matches_choices_reference():
    rng = random.Random(20261018)
    kinds, depths = set(), set()
    for _ in range(6000):
        cfg = GenConfig(
            seed=rng.getrandbits(63),
            max_depth=rng.randint(1, 7),
            alphabet=tuple(rng.sample(("a", "b", "c"), rng.randint(1, 3))),
            kind=rng.choice(("std", "comp")),
        )
        assert gen_term(cfg) is reference_gen_term(cfg), cfg
        kinds.add(cfg.kind)
        depths.add(cfg.max_depth)
    assert kinds == {"std", "comp"} and depths == set(range(1, 8))


def test_gen_compensable_never_contains_aux():
    for seed in range(50):
        term = gen_term(
            GenConfig(seed=seed, max_depth=5, alphabet=("a", "b"), kind="comp")
        )
        assert validate_user_term(term) == []


# -- enumeration --------------------------------------------------------------


def test_enumerate_zero_ops_standard():
    got = list(enumerate_terms(0, ("a",), "std"))
    assert got == [A, SKIP, THROW, YIELD]


def test_enumerate_counts_match_grammar_arithmetic():
    # leaves: one atom per event plus SKIP/THROW/YIELD
    leaves = len(("a",)) + 3
    pairs0 = leaves * leaves
    # exactly one operator: four binary constructors over leaf operands,
    # plus a block over an operator-free compensable
    std1 = 4 * leaves * leaves + pairs0
    got = list(enumerate_terms(1, ("a",), "std"))
    assert len(got) == leaves + std1 == 84

    # one-operator compensables: a pair with one one-operator standard
    # operand, or a binary composition of operator-free pairs
    comp1 = 2 * leaves * std1 + 3 * pairs0 * pairs0
    comp_got = list(enumerate_terms(1, ("a",), "comp"))
    assert len(comp_got) == pairs0 + comp1


def test_enumerate_refuses_a_negative_pair_operand_cap():
    with pytest.raises(ValueError, match="nonnegative"):
        list(enumerate_terms(1, ("a",), "comp", max_pair_operand_ops=-1))


def test_enumerate_refuses_a_non_integer_pair_operand_cap():
    # It used to list 784 terms.
    with pytest.raises(TypeError, match="'float' object cannot be interpreted as an integer"):
        next(enumerate_terms(1, ("a",), "comp", 0.5))


def test_enumerate_respects_pair_operand_cap():
    capped = list(enumerate_terms(2, ("a",), "comp", max_pair_operand_ops=0))
    for term in capped:
        for sub in ccsp.terms.subterms(term):
            if isinstance(sub, Pair):
                assert term_op_count(sub.forward) == 0
                assert term_op_count(sub.compensation) == 0


#: A node's own share of `term_weight`; every other node counts one.
_OWN_WEIGHT = {Null: 0, Atom: 2, Yield: 2}
_OPERATORS = (Block, Seq, Choice, Par, Interrupt, CSeq, CChoice, CPar, Aux)


@pytest.mark.parametrize("kind", ["std", "comp"], ids=["standard", "compensable"])
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
    for term in enumerate_terms(2, ("a",), "std"):
        assert term not in seen
        seen.add(term)
        assert validate_user_term(term, ("a",)) == []
        assert term_op_count(term) <= 2
    leaves, pairs0 = 4, 16
    std1 = 4 * leaves**2 + pairs0
    comp1 = 2 * leaves * std1 + 3 * pairs0**2
    std2 = 4 * 2 * leaves * std1 + comp1
    assert len(seen) == leaves + std1 + std2


def test_enumerate_refuses_a_repeated_event():
    # A repeated event would list `a` and every term over it twice.
    with pytest.raises(ValueError, match="each event once"):
        list(enumerate_terms(1, ("a", "a"), "std"))


def test_enumerate_refuses_an_empty_alphabet():
    # It used to list the three atom-free leaves.
    with pytest.raises(ValueError, match="alphabet must list at least one event"):
        next(enumerate_terms(0, ()))


def test_enumerate_is_deterministic():
    first = list(enumerate_terms(2, ("a", "b"), "std"))
    second = list(enumerate_terms(2, ("a", "b"), "std"))
    assert first == second


# -- campaigns ----------------------------------------------------------------


def test_prop_campaign_deterministic_and_green():
    runs = [
        [
            (isinstance(term, CompensableTerm), pretty_print(term), verdict.status, healthy)
            for term, verdict, healthy in run_prop_campaign(11, 60, 4, ("a", "b"), "both")
        ]
        for _ in range(2)
    ]
    assert runs[0] == runs[1]
    assert all(status == "equal" and healthy for _, _, status, healthy in runs[0])
    # `both` alternates the two kinds, standard first
    assert [comp for comp, *_ in runs[0]] == [False, True] * 30


def test_check_terms_matches_the_direct_checks():
    std = list(enumerate_terms(1, ("a",), "std"))
    comp = list(enumerate_terms(0, ("a",), "comp"))
    mixed = [term for pair in zip(std, comp) for term in pair]
    assert {isinstance(term, CompensableTerm) for term in mixed} == {False, True}
    checked = list(check_terms(iter(mixed)))
    assert [term for term, _, _ in checked] == mixed
    for term, verdict, healthy in checked:
        check = check_compensable if isinstance(term, CompensableTerm) else check_standard
        assert verdict == check(term)
        assert healthy == denotational.check_healthiness(term)


_MEMO_TABLES = (operational._STEPS, operational._RUNS, denotational._TRACES)


def test_check_terms_forgets_each_checked_term_and_its_block_body():
    body = Pair(A, B)
    terms = [Block(body), Seq(A, B)]
    assert [verdict.status for _, verdict, _ in check_terms(terms)] == ["equal", "equal"]
    for table in _MEMO_TABLES:
        assert not {*terms, body} & table.keys()


@pytest.mark.parametrize(
    "args, limit",
    [((2, ("a", "b")), 1_000), ((1, ("a", "b"), "comp"), 1_000)],
    ids=["std-2", "comp-1"],
)
def test_check_terms_leaves_few_memo_entries(args, limit):
    # Keeping every checked term's entries left 31 173 and 9 899.
    for _ in check_terms(enumerate_terms(*args)):
        pass
    assert operational.cache_size() + denotational.cache_size() < limit


@pytest.mark.parametrize(
    "term",
    [
        Par(Seq(A, B), Seq(Atom("c"), Atom("d"))),
        Block(CSeq(Pair(A, Atom("a'")), Pair(THROW, SKIP))),
        CPar(CSeq(Pair(A, Atom("a'")), Pair(B, Atom("b'"))), Pair(Atom("c"), Atom("d"))),
    ],
    ids=["std", "block", "comp"],
)
def test_one_term_check_drops_its_walk(term):
    # Entries of an earlier walk stay; the check's own walk leaves none.
    run_lifted(Seq(B, A), trace("b", "a", "*"))
    before = operational.cache_size()
    assert before > 0
    check = check_compensable if isinstance(term, CompensableTerm) else check_standard
    verdict = check(term)
    assert operational.cache_size() == before
    assert verdict.is_equal
    assert [verdict] == [v for _, v, _ in check_terms([term])]


def test_forgetting_drops_a_walk_stopped_by_the_state_cap(monkeypatch):
    derived_traces_standard(Seq(A, B))
    before = dict(operational._STEPS), dict(operational._RUNS)
    monkeypatch.setattr(operational, "STATE_CAP", 5)
    with pytest.raises(StateCapExceeded):
        with operational.forgetting():
            derived_traces_standard(Par(Par(A, B), Par(Atom("c"), Atom("d"))))
    assert (operational._STEPS, operational._RUNS) == before


def test_check_terms_gives_the_same_verdicts_twice_in_a_row():
    terms = list(enumerate_terms(2, ("a", "b"))) + list(enumerate_terms(1, ("a",), "comp"))
    first, second = (list(check_terms(terms)) for _ in range(2))
    assert first == second


def test_trimmed_memo_tables_give_the_same_verdicts(monkeypatch):
    # At the default threshold these campaigns never trim the tables, so the
    # trim runs here at a small one.  Only a clear made by a trim counts: the
    # drivers also clear the tables before their first case.
    terms = list(enumerate_terms(2, ("a", "b"))) + list(enumerate_terms(1, ("a",), "comp"))
    trims, trimming = [], []

    def trim(original=equivalence.maybe_trim_caches):
        trimming.append(True)
        try:
            original()
        finally:
            trimming.pop()

    monkeypatch.setattr(equivalence, "maybe_trim_caches", trim)
    for module in (operational, denotational):
        monkeypatch.setattr(module, "clear_caches",
                            lambda clear=module.clear_caches: trims.extend(trimming) or clear())

    def campaign() -> tuple[tuple, tuple[int, int]]:
        ccsp.clear_caches()
        trims.clear()
        checked = list(check_terms(terms))
        trimmed = len(trims)
        suites = [run_lemma_suite(lemma, 20, 3, 3, ("a", "b")) for lemma in sorted(LAWS)]
        return (checked, suites), (trimmed, len(trims) - trimmed)

    plain, no_trims = campaign()
    assert no_trims == (0, 0)
    monkeypatch.setattr(equivalence, "CACHE_TRIM_THRESHOLD", 50)
    trimmed, trims_made = campaign()
    assert min(trims_made) > 0
    assert trimmed == plain


def test_each_lemma_suite_starts_cold_and_forgets_each_tuple(monkeypatch):
    sizes, kept, tuples = [], [], []

    def remembered() -> set:
        return {term for table in _MEMO_TABLES for term in tuples[-1] if term in table}

    def recording_check(lemma, operands, check=equivalence.check_lemma):
        sizes.append(operational.cache_size() + denotational.cache_size())
        if tuples:  # a later tuple may build an earlier one again, so look now
            kept.append(remembered())
        verdict = check(lemma, operands)
        tuples.append((verdict.term, *operands))
        return verdict

    monkeypatch.setattr(equivalence, "check_lemma", recording_check)
    for lemma in sorted(LAWS):  # back to back, as `prop --lemmas` runs them
        sizes.clear()
        kept.clear()
        tuples.clear()
        run_lemma_suite(lemma, 20, 3, 3, ("a", "b"))
        kept.append(remembered())
        assert sizes[0] == 0 < max(sizes)
        assert kept == [set()] * 20


@pytest.mark.parametrize(
    "cap, lemma, before",
    # At these caps the suite alone stops at the cap, while on the warm
    # tables the earlier suite leaves it would complete.
    [(3, 1, 7), (3, 1, 1), (5, 2, 2)],
)
def test_a_lemma_suite_gives_the_same_result_after_another(monkeypatch, cap, lemma, before):
    monkeypatch.setattr(operational, "STATE_CAP", cap)

    def suite(lemma):
        try:
            return run_lemma_suite(lemma, 20, 3, 3, ("a", "b"))
        except operational.StateCapExceeded as e:
            return e.args

    ccsp.clear_caches()
    alone = suite(lemma)
    suite(before)
    assert suite(lemma) == alone


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
        for term in enumerate_terms(2, ("a", "b"), "std"):
            verdict = check_standard(term)
            if not verdict.is_equal:
                mismatches.append(verdict)
                if len(mismatches) >= 5:
                    break
        assert mismatches, "the mutant semantics went undetected"
        # the evidence must be real: every reported trace belongs to exactly
        # one of the (current) semantics
        for verdict in mismatches:
            term, denoted = verdict.term, denotational.traces_standard(verdict.term)
            for t in verdict.only_operational:
                assert run_lifted(term, t) and t not in denoted
            for t in verdict.only_denotational:
                assert t in denoted and not run_lifted(term, t)
    finally:
        ccsp.clear_caches()


@pytest.mark.parametrize(
    "lemma,operator,wrong,operands",
    [
        (1, "seq_traces", lambda p, q: p, (SKIP, Atom("a"))),
        (2, "par_traces", lambda p, q: frozenset((p,)), (Atom("a"), Atom("b"))),
        (6, "pair_traces", lambda p, q: TracePair(p, p), (Atom("a"), Atom("b"))),
        (7, "block_traces", lambda p, c: frozenset((p,)), (Pair(THROW, Atom("a")),)),
    ],
    ids=["seq", "par", "pair", "block"],
)
def test_clause_law_follows_its_semantic_clause(monkeypatch, lemma, operator, wrong, operands):
    # Laws 1, 2, 6 and 7 apply the trace semantics' own set operator to the
    # derived traces of the operands, so a wrong trace operator breaks them.
    assert check_lemma(lemma, operands).status == "equal"
    monkeypatch.setattr(denotational, operator, wrong)
    assert check_lemma(lemma, operands).status == "mismatch"


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
