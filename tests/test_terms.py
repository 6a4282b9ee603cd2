import copy
import operator
import pickle
from functools import reduce
from itertools import product
from pathlib import Path

import pytest
from hypothesis import given, strategies as st

from ccsp.denotational import traces_compensable, traces_standard
from ccsp.equivalence import GenConfig, Verdict, check_lemma, gen_term
from ccsp.operational import derived_forward
from ccsp.parser import parse_compensable, parse_standard
from ccsp import terms
from ccsp.terms import (
    NULL,
    SKIP,
    THROW,
    MAX_DEPTH,
    Atom,
    Aux,
    Block,
    CSeq,
    Null,
    Pair,
    Par,
    Seq,
    Skip,
    StandardTerm,
    Terminal,
    Trace,
    TracePair,
    by_sort_key,
    is_event_name,
    pair_tokens,
    pretty_print,
    subterms,
    term_depth,
    term_op_count,
    term_weight,
    trace,
    trace_tokens,
    unchecked_trace,
    validate_user_term,
)

A = Atom("a")
B = Atom("b")


def test_terminal_order_and_glyphs():
    assert Terminal.TICK < Terminal.YIELD < Terminal.THROW
    assert [t.glyph for t in (Terminal.TICK, Terminal.YIELD, Terminal.THROW)] == ["*", "?", "!"]


def test_a_terminal_prints_as_its_glyph():
    assert [str(t) for t in (Terminal.TICK, Terminal.YIELD, Terminal.THROW)] == ["*", "?", "!"]


def test_terminal_join_is_lattice_join():
    assert Terminal.THROW.join(Terminal.YIELD) is Terminal.THROW
    assert Terminal.TICK.join(Terminal.YIELD) is Terminal.YIELD
    for t in Terminal:
        assert t.join(t) is t
        assert Terminal.TICK.join(t) is t  # success is neutral


def test_event_names():
    assert is_event_name("a")
    assert is_event_name("PackItem1")
    assert is_event_name("a'")
    assert not is_event_name("1a")
    assert not is_event_name("")
    assert not is_event_name("SKIP")


def test_atom_rejects_reserved_and_malformed_names():
    with pytest.raises(ValueError):
        Atom("THROW")
    with pytest.raises(ValueError):
        Atom("2pc")


def test_terms_are_interned_values():
    assert Seq(A, B) is Seq(A, B)
    assert Pair(SKIP, SKIP) is parse_compensable("SKIPP")
    assert Seq(A, B) != Seq(B, A)


def test_terms_are_immutable():
    with pytest.raises(AttributeError):
        Seq(A, B).left = B


def test_trace_structure():
    t = trace("a", "b", "!")
    assert t.events == ("a", "b")
    assert t.terminal is Terminal.THROW
    assert str(t) == "<a,b,!>"
    assert str(trace("*")) == "<*>"
    with pytest.raises(ValueError):
        trace("a")  # 'a' is not a terminal glyph
    with pytest.raises(AttributeError):
        t.terminal = Terminal.TICK


def test_trace_canonical_order_is_length_then_lexicographic():
    ts = [trace("b", "*"), trace("*"), trace("a", "b", "?"), trace("a", "!"), trace("!")]
    assert [str(t) for t in sorted(ts)] == ["<*>", "<!>", "<a,!>", "<b,*>", "<a,b,?>"]


def test_trace_pair_order():
    p1 = TracePair(trace("a", "*"), trace("b", "*"))
    p2 = TracePair(trace("a", "*"), trace("c", "*"))
    p3 = TracePair(trace("b", "*"), trace("a", "*"))
    assert sorted([p3, p2, p1]) == [p1, p2, p3]


def _pinned_observations():
    """Every trace pair of the pinned worked examples, and every trace in
    them, halves of pairs included."""
    traces, pairs = set(), set()
    golden = Path(__file__).parent / "data" / "pinned_values.txt"
    for line in golden.read_text(encoding="utf-8").splitlines():
        if not line.strip() or line.startswith("#"):
            continue
        kind, text, _ = (part.strip() for part in line.split("::"))
        if kind == "std":
            traces |= traces_standard(parse_standard(text))
        else:
            members = traces_compensable(parse_compensable(text))
            pairs |= members
            traces |= {t for p in members for t in p}
    return sorted(traces, key=by_sort_key), sorted(pairs, key=by_sort_key)


PINNED_TRACES, PINNED_PAIRS = _pinned_observations()
_ORDERINGS = (operator.lt, operator.le, operator.gt, operator.ge)


@pytest.mark.parametrize("members", [PINNED_TRACES, PINNED_PAIRS], ids=["traces", "pairs"])
@pytest.mark.parametrize("compare", _ORDERINGS, ids=lambda op: op.__name__)
def test_every_ordering_operator_follows_sort_key(members, compare):
    for x, y in product(members, repeat=2):
        assert compare(x, y) == compare(x.sort_key, y.sort_key), (compare, x, y)


def test_pinned_traces_tell_sort_key_from_tuple_order():
    # Without this, a trace type that fell back to the tuple's own
    # lexicographic order would pass the test above.
    assert any(
        tuple.__lt__(x, y) != (x.sort_key < y.sort_key)
        for x, y in product(PINNED_TRACES, repeat=2)
    )


def test_observations_equal_only_their_own_kind():
    outcomes = derived_forward(parse_compensable("(a % a') ; (b % b') [] THROWW"))
    terms = (A, SKIP, Pair(A, B))
    for t in PINNED_TRACES:
        # The documented equality: a trace is the tuple (events, terminal).
        assert t == (t.events, t.terminal) and hash(t) == hash((t.events, t.terminal))
        for other in (*PINNED_PAIRS, *terms, *outcomes):
            assert t != other and other != t
    for p in PINNED_PAIRS:
        for other in (*terms, *outcomes):
            assert p != other and other != p
    assert not set(PINNED_TRACES) & set(PINNED_PAIRS)


def test_observations_check_terminals_and_are_immutable():
    for bad in ("*", 0, None, trace("*")):
        with pytest.raises(TypeError):
            Trace(("a",), bad)
    t = trace("a", "*")
    p = TracePair(t, t)
    for obj, name in ((t, "events"), (t, "terminal"), (p, "forward"), (p, "compensation"), (t, "extra")):
        with pytest.raises(AttributeError):
            setattr(obj, name, None)


def test_validate_user_term_accepts_plain_atom():
    assert validate_user_term(A) == []


def test_validate_user_term_rejects_null_and_aux():
    assert validate_user_term(NULL) == ["null process is not a user term"]
    violations = validate_user_term(Aux(Pair(A, B), SKIP))
    assert violations == ["auxiliary construct is not a user term"]
    # nested occurrences are found too
    assert validate_user_term(Seq(A, Seq(NULL, B))) != []


def test_validate_user_term_checks_declared_alphabet():
    assert validate_user_term(Seq(A, B), alphabet=("a", "b")) == []
    assert validate_user_term(Seq(A, B), alphabet=("a",)) == ["event 'b' not in declared alphabet"]


def test_pretty_print_examples():
    assert pretty_print(Seq(A, THROW)) == "a ; THROW"
    assert pretty_print(Block(Pair(A, B))) == "[ a % b ]"
    # `;` binds tighter than `||`, so no parentheses are needed here.
    assert pretty_print(Par(Seq(A, B), SKIP)) == "a ; b || SKIP"
    assert parse_standard(pretty_print(Par(Seq(A, B), SKIP))) is Par(Seq(A, B), SKIP)


def test_pretty_print_forces_parens_where_needed():
    assert pretty_print(Seq(A, Seq(B, B))) == "a ; (b ; b)"
    assert pretty_print(Seq(Seq(A, B), B)) == "a ; b ; b"
    assert pretty_print(Pair(Seq(A, B), SKIP)) == "(a ; b) % SKIP"
    assert pretty_print(Seq(Par(A, THROW), B)) == "(a || THROW) ; b"


def test_pretty_print_runtime_constructs():
    assert pretty_print(NULL) == "0"
    assert pretty_print(Aux(Pair(A, B), SKIP)) == "<a % b, SKIP>"


def test_counts_and_measures():
    t = Block(CSeq(Pair(A, B), Pair(THROW, SKIP)))
    assert term_op_count(t) == 2  # Block + CSeq; pairs are free
    assert term_op_count(A) == 0
    assert term_depth(A) == 1
    assert term_depth(t) == 4
    assert term_weight(NULL) == 0
    assert term_weight(SKIP) < term_weight(A)


def test_measures_of_a_long_chain():
    # Built by hand, as deep as the constructors allow.
    chain = reduce(Seq, [A] * MAX_DEPTH)
    assert term_depth(chain) == MAX_DEPTH
    assert term_op_count(chain) == MAX_DEPTH - 1
    assert term_weight(chain) == MAX_DEPTH * 2 + MAX_DEPTH - 1
    assert pretty_print(chain) == " ; ".join(["a"] * MAX_DEPTH)
    # `repr` walks a stack too, so the deepest term has one.
    assert repr(chain) == "Seq(" * (MAX_DEPTH - 1) + "Atom('a')" + ", Atom('a'))" * (MAX_DEPTH - 1)


def test_constructors_refuse_a_node_deeper_than_max_depth():
    chain = reduce(Seq, [A] * MAX_DEPTH)
    pairs = reduce(CSeq, [Pair(A, B)] * (MAX_DEPTH - 1))
    assert term_depth(pairs) == MAX_DEPTH
    for build in (
        lambda: Seq(chain, A),
        lambda: Par(A, chain),
        lambda: Block(pairs),
        lambda: Pair(SKIP, chain),
        lambda: reduce(Seq, [A] * 5000),
    ):
        with pytest.raises(ValueError, match=f"^a term is at most {MAX_DEPTH} deep; this "):
            build()


def test_measures_reject_non_terms():
    for measure in (term_depth, term_op_count, term_weight):
        with pytest.raises(TypeError):
            measure("a")
    with pytest.raises(TypeError, match=r"Seq\.right is not a process term"):
        Seq(A, "b")


@pytest.mark.parametrize(
    "build, message",
    [
        (lambda: Seq(Pair(A, B), Atom("c")), r"Seq\.left is not a standard term"),
        (lambda: Block(A), r"Block\.body is not a compensable term"),
        (lambda: CSeq(A, Pair(A, B)), r"CSeq\.left is not a compensable term"),
        (lambda: Pair(Pair(A, B), Atom("c")), r"Pair\.forward is not a standard term"),
        (lambda: Aux(Pair(A, B), Pair(A, B)), r"Aux\.stored is not a standard term"),
    ],
    ids=["seq-of-pair", "block-of-atom", "cseq-of-atom", "pair-of-pair", "aux-of-pairs"],
)
def test_operands_of_the_wrong_kind_are_refused(build, message):
    # Such terms used to construct, print as text no parser accepts and
    # fail inside a semantics.
    with pytest.raises(TypeError, match=message):
        build()


_gen_cfgs = st.builds(
    GenConfig,
    seed=st.integers(0, 2**63 - 1),
    max_depth=st.integers(1, 5),
    alphabet=st.just(("a", "b")),
    kind=st.sampled_from(["std", "comp"]),
)


@given(_gen_cfgs)
def test_generated_terms_are_valid_and_round_trip(cfg):
    term = gen_term(cfg)
    assert validate_user_term(term, cfg.alphabet) == []
    assert term_depth(term) <= cfg.max_depth + 1
    text = pretty_print(term)
    parse = parse_standard if cfg.kind == "std" else parse_compensable
    assert parse(text) is term


@given(_gen_cfgs)
def test_generator_is_deterministic(cfg):
    assert gen_term(cfg) is gen_term(cfg)


@given(_gen_cfgs)
def test_a_copy_of_a_term_is_the_term(cfg):
    term = gen_term(cfg)
    assert copy.copy(term) is term and copy.deepcopy(term) is term


def test_leaves_runtime_terms_and_the_deepest_chain_copy_to_themselves():
    # `copy.copy(SKIP)` used to raise AttributeError, and a deep copy TypeError.
    chain = reduce(Seq, [A] * MAX_DEPTH)
    for term in (NULL, SKIP, Aux(Pair(A, B), B), chain):
        assert copy.copy(term) is term and copy.deepcopy(term) is term
    held = {"terms": [A, chain]}
    copied = copy.deepcopy(held)
    assert copied == held and copied["terms"][1] is chain


_PROTOCOLS = range(pickle.HIGHEST_PROTOCOL + 1)


@given(_gen_cfgs)
def test_an_unpickled_term_is_the_term(cfg):
    term = gen_term(cfg)
    for n in _PROTOCOLS:
        assert pickle.loads(pickle.dumps(term, n)) is term


def test_leaves_runtime_terms_and_deep_terms_pickle_to_themselves():
    # Each used to raise TypeError or AttributeError; a reduce to the
    # constructor and operands recursed once per level and overflowed.
    chain = reduce(Seq, [A] * MAX_DEPTH)
    dag = SKIP
    for _ in range(MAX_DEPTH - 1):  # 500 distinct nodes, 2**500 - 1 in preorder
        dag = Seq(dag, dag)
    assert term_depth(dag) == MAX_DEPTH
    for term in (NULL, SKIP, Aux(Pair(A, B), B), chain, dag):
        for n in _PROTOCOLS:
            assert pickle.loads(pickle.dumps(term, n)) is term
    _, (entries,) = dag.__reduce__()
    assert len(entries) == MAX_DEPTH  # each distinct node once


class _Forged:
    """Pickles as the term encoding `entries`, whatever they hold."""

    def __init__(self, entries):
        self.entries = entries

    def __reduce__(self):
        return terms._unpickle_term, (self.entries,)


_DEEPER = ((Skip,), *((Seq, i, i) for i in range(MAX_DEPTH)))


@pytest.mark.parametrize(
    "entries, error, message",
    [
        (((str, "x"),), TypeError, "not a term class: <class 'str'>"),
        (((StandardTerm,),), TypeError, "cannot build a bare StandardTerm"),
        (((Skip,), (Seq, 0, 1)), ValueError, r"not earlier entries: \[0, 1\]"),
        (((Skip,), (Seq, 0, -1)), ValueError, "not earlier entries"),
        (((Skip,), (Seq, 0, True)), ValueError, "not earlier entries"),
        (((Skip,), (Seq, 0)), TypeError, "Seq.__new__"),
        (((Skip,), (Block, 0)), TypeError, "Block.body is not a compensable term"),
        (((Atom, "1x"),), ValueError, "invalid event name: '1x'"),
        (_DEEPER, ValueError, f"a term is at most {MAX_DEPTH} deep"),
        ((), ValueError, "no term to rebuild"),
    ],
    ids=["class", "bare", "forward", "negative", "bool", "arity", "kind", "event", "depth",
         "empty"],
)
def test_forged_term_data_is_refused(entries, error, message):
    for n in _PROTOCOLS:
        with pytest.raises(error, match=message):
            pickle.loads(pickle.dumps(_Forged(entries), n))


def _types(value) -> set:
    """The types of an observation, a set of them or a verdict, and of all they hold."""
    if isinstance(value, Verdict):
        return {Verdict}.union(*map(_types, (value.only_operational, value.only_denotational)))
    if isinstance(value, (tuple, frozenset)):
        return {type(value)}.union(*map(_types, value))
    return {type(value)}


def test_observations_copy_and_pickle_as_their_own_types():
    # Each used to raise `Trace.__new__() missing 1 required positional argument`.
    t, u = trace("a", "b", "!"), trace("*")
    p = TracePair(t, u)
    protocols = range(pickle.HIGHEST_PROTOCOL + 1)
    copies = [copy.copy, copy.deepcopy]
    copies += [lambda v, n=n: pickle.loads(pickle.dumps(v, n)) for n in protocols]
    for value in (t, u, p, frozenset({t, u}), frozenset({p, TracePair(u, t)})):
        for make in copies:
            twin = make(value)
            assert twin == value and _types(twin) == _types(value), (value, twin)
    mismatch = Verdict(Seq(A, B), frozenset({t}), frozenset({u}))
    for verdict in (check_lemma(7, (Pair(THROW, SKIP),)), mismatch):
        twin = copy.deepcopy(verdict)
        assert twin == verdict and twin.term is verdict.term and _types(twin) == _types(verdict)


def test_an_unpickled_trace_is_checked_again():
    forged = unchecked_trace((("1x",), Terminal.TICK))
    for n in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(ValueError, match="invalid event name: '1x'"):
            pickle.loads(pickle.dumps(forged, n))
    with pytest.raises(ValueError, match="invalid event name: '1x'"):
        copy.deepcopy(forged)


def test_an_unpickled_trace_pair_is_checked_again():
    forged = tuple.__new__(TracePair, ("x", trace("*")))
    for n in range(pickle.HIGHEST_PROTOCOL + 1):
        with pytest.raises(TypeError, match="not a trace: 'x'"):
            pickle.loads(pickle.dumps(forged, n))
    with pytest.raises(TypeError, match="not a trace: 'x'"):
        copy.deepcopy(forged)


def test_subterms_refuses_a_non_term_at_its_first_step():
    walk = subterms("x")  # a generator checks nothing until it runs
    with pytest.raises(TypeError, match="not a process term: 'x'"):
        next(walk)
    term = Seq(A, Par(B, SKIP))
    assert list(subterms(term)) == [term, A, Par(B, SKIP), B, SKIP]


def test_trace_token_round_trip():
    t = trace("a", "b", "?")
    assert trace_tokens(t) == ["a", "b", "?"]
    assert trace(*trace_tokens(t)) == t
    p = TracePair(trace("a", "!"), trace("*"))
    assert TracePair(*(trace(*tokens) for tokens in pair_tokens(p))) == p
    with pytest.raises(ValueError, match="not a terminal glyph: 'b'"):
        trace("a", "b")  # missing terminal glyph
    with pytest.raises(ValueError):
        trace()


def test_trace_events_are_a_sequence_of_names():
    with pytest.raises(TypeError, match="not a string: 'ab'"):
        Trace("ab", Terminal.TICK)
    assert Trace(["a", "b"], Terminal.TICK) == (("a", "b"), Terminal.TICK)


@pytest.mark.parametrize("name", ["1", "SKIP", "THROWW", "", "a b", "b!"])
def test_trace_refuses_an_invalid_or_reserved_event_name(name):
    with pytest.raises(ValueError, match=f"^invalid event name: {name!r}$"):
        Trace(["a", name], Terminal.TICK)
    with pytest.raises(ValueError, match=f"^invalid event name: {name!r}$"):
        trace(name, "*")


def test_terms_are_built_positionally():
    # A wrong operand count or a keyword is the interpreter's own refusal,
    # and it names the class.
    calls = [
        (lambda: Seq(A), "Seq"),
        (lambda: Seq(A, A, A), "Seq"),
        (lambda: Atom(), "Atom"),
        (lambda: Block(), "Block"),
        (lambda: Skip(1), "Skip"),
        (lambda: Seq(left=A, right=A), "Seq"),
    ]
    for call, name in calls:
        with pytest.raises(TypeError, match=rf"^{name}\.__new__\(\) "):
            call()
    # A class with no fields has one instance.
    assert Skip() is SKIP
    assert Null() is NULL
