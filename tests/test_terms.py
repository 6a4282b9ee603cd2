import pytest
from hypothesis import given, strategies as st

from ccsp.equivalence import GenConfig, gen_term
from ccsp.parser import parse_compensable, parse_standard
from ccsp.terms import (
    NULL,
    SKIP,
    THROW,
    YIELD,
    Atom,
    Aux,
    Block,
    CSeq,
    Pair,
    Par,
    Seq,
    Terminal,
    Trace,
    TracePair,
    desugar_alias,
    is_event_name,
    pair_from_tokens,
    pair_tokens,
    pretty_print,
    term_depth,
    term_op_count,
    term_weight,
    trace,
    trace_from_tokens,
    trace_tokens,
    validate_user_term,
)

A = Atom("a")
B = Atom("b")


def test_terminal_order_and_glyphs():
    assert Terminal.TICK < Terminal.YIELD < Terminal.THROW
    assert [t.glyph for t in (Terminal.TICK, Terminal.YIELD, Terminal.THROW)] == ["*", "?", "!"]


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
    assert Pair(SKIP, SKIP) is desugar_alias("SKIPP")
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


def test_desugar_aliases():
    assert desugar_alias("SKIPP") == Pair(SKIP, SKIP)
    assert desugar_alias("YIELDD") == Pair(YIELD, SKIP)
    assert desugar_alias("THROWW") == Pair(THROW, SKIP)
    with pytest.raises(ValueError):
        desugar_alias("STOPP")


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
    chain = parse_standard(" ; ".join(["a"] * 5000))
    assert term_depth(chain) == 5000
    assert term_op_count(chain) == 4999
    assert term_weight(chain) == 5000 * 2 + 4999
    assert pretty_print(chain) == " ; ".join(["a"] * 5000)


def test_measures_reject_non_terms():
    for measure in (term_depth, term_op_count, term_weight):
        with pytest.raises(TypeError):
            measure("a")
    with pytest.raises(TypeError):
        Seq(A, "b")


_gen_cfgs = st.builds(
    GenConfig,
    seed=st.integers(0, 2**63 - 1),
    max_depth=st.integers(1, 5),
    alphabet=st.just(("a", "b")),
    kind=st.sampled_from(["standard", "compensable"]),
)


@given(_gen_cfgs)
def test_generated_terms_are_valid_and_round_trip(cfg):
    term = gen_term(cfg)
    assert validate_user_term(term, cfg.alphabet) == []
    assert term_depth(term) <= cfg.max_depth + 1
    text = pretty_print(term)
    parse = parse_standard if cfg.kind == "standard" else parse_compensable
    assert parse(text) is term


@given(_gen_cfgs)
def test_generator_is_deterministic(cfg):
    assert gen_term(cfg) is gen_term(cfg)


def test_trace_token_round_trip():
    t = trace("a", "b", "?")
    assert trace_tokens(t) == ["a", "b", "?"]
    assert trace_from_tokens(trace_tokens(t)) == t
    p = TracePair(trace("a", "!"), trace("*"))
    assert pair_from_tokens(pair_tokens(p)) == p
    with pytest.raises(ValueError):
        trace_from_tokens(["a", "b"])  # missing terminal glyph
    with pytest.raises(ValueError):
        trace_from_tokens([])
