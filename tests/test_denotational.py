import random
from itertools import combinations
from math import comb

import pytest
from hypothesis import given, strategies as st

from ccsp.denotational import (
    block_traces,
    check_healthiness,
    interleave_events,
    interrupt_traces,
    pair_traces,
    par_traces,
    seq_traces,
    sync_terminals,
    traces_compensable,
    traces_standard,
)
from ccsp.equivalence import GenConfig, check_standard, enumerate_terms, gen_term
from ccsp.operational import derived_traces_standard, run_lifted
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
    Pair,
    Par,
    Seq,
    Terminal,
    TracePair,
    trace,
)

A = Atom("a")
B = Atom("b")


def shuffle_oracle(s, u):
    """Independent reference for interleavings: plain binary recursion."""
    if not s:
        return {u}
    if not u:
        return {s}
    return {(s[0],) + rest for rest in shuffle_oracle(s[1:], u)} | {
        (u[0],) + rest for rest in shuffle_oracle(s, u[1:])
    }


# -- terminal synchronisation -------------------------------------------------


def test_sync_terminals_examples():
    assert sync_terminals(Terminal.TICK, Terminal.TICK) == {Terminal.TICK}
    # a throw wins over a yield
    assert sync_terminals(Terminal.THROW, Terminal.YIELD) == {Terminal.THROW}
    assert sync_terminals(Terminal.TICK, Terminal.YIELD) == {Terminal.YIELD}


def test_sync_terminals_is_commutative_associative_with_tick_identity():
    ts = list(Terminal)
    for x in ts:
        assert sync_terminals(Terminal.TICK, x) == {x}
        for y in ts:
            assert sync_terminals(x, y) == sync_terminals(y, x)
            for z in ts:
                (xy,) = sync_terminals(x, y)
                (yz,) = sync_terminals(y, z)
                assert sync_terminals(xy, z) == sync_terminals(x, yz)


def test_join_mutant_makes_the_semantics_disagree(monkeypatch):
    # `sync_terminals` has its own table, so a fault in `Terminal.join`,
    # which the operational semantics uses for parallel termination, changes
    # only one side and the checker sees it.
    monkeypatch.setattr(Terminal, "join", lambda self, other: self)
    first = next(
        (i, term)
        for i, term in enumerate(enumerate_terms(2, ("a", "b")), start=1)
        if not check_standard(term).is_equal
    )
    assert first == (59, Par(A, THROW))


# -- trace operators ----------------------------------------------------------


def test_seq_traces():
    q = trace("b", "!")
    assert seq_traces(trace("*"), q) == q
    assert seq_traces(trace("a", "*"), trace("b", "!")) == trace("a", "b", "!")
    # oracle for the splice: the lifted run of the decomposed term
    assert run_lifted(Seq(A, Seq(B, THROW)), trace("a", "b", "!"))
    assert seq_traces(trace("a", "!"), trace("b", "*")) == trace("a", "!")
    assert seq_traces(trace("a", "?"), q) == trace("a", "?")


def test_interleave_events_examples():
    assert interleave_events((), ()) == {()}
    assert interleave_events(("a",), ("b",)) == {("a", "b"), ("b", "a")}
    three = interleave_events(("a", "b"), ("c",))
    assert three == shuffle_oracle(("a", "b"), ("c",))
    assert three == {("a", "b", "c"), ("a", "c", "b"), ("c", "a", "b")}
    assert len(three) == comb(3, 1)


@given(
    st.lists(st.sampled_from("abcd"), max_size=4),
    st.lists(st.sampled_from("wxyz"), max_size=4),
)
def test_interleave_events_matches_oracle(s, u):
    s, u = tuple(s), tuple(u)
    result = interleave_events(s, u)
    assert result == shuffle_oracle(s, u)
    assert len(result) == comb(len(s) + len(u), len(s))  # all events distinct


@given(st.lists(st.sampled_from("ab"), max_size=4), st.lists(st.sampled_from("ab"), max_size=4))
def test_interleave_events_with_duplicates_bounded_by_binomial(s, u):
    s, u = tuple(s), tuple(u)
    assert len(interleave_events(s, u)) <= comb(len(s) + len(u), len(s))


def _shuffles_by_position(s, u):
    """Reference for interleavings with no recursion: one shuffle per choice
    of the positions that `s`'s events take."""
    out = set()
    for positions in combinations(range(len(s) + len(u)), len(s)):
        left, right = iter(s), iter(u)
        out.add(tuple(next(left) if k in positions else next(right)
                      for k in range(len(s) + len(u))))
    return out


def test_interleave_events_matches_positions_on_seeded_pairs():
    rng = random.Random(17)
    for _ in range(300):
        s = tuple(rng.choices("abc", k=rng.randint(0, 7)))
        u = tuple(rng.choices("abc", k=rng.randint(0, 7)))
        assert interleave_events(s, u) == _shuffles_by_position(s, u)
    for s, u in [((), ()), (("a",) * 6, ()), ((), ("b", "b")), (("a",) * 5, ("a",) * 4)]:
        assert interleave_events(s, u) == _shuffles_by_position(s, u)


def test_par_traces_examples():
    assert par_traces(trace("*"), trace("*")) == {trace("*")}
    assert par_traces(trace("a", "*"), trace("!")) == {trace("a", "!")}
    # oracle: the other semantics of the same composition
    assert par_traces(trace("a", "*"), trace("!")) == derived_traces_standard(Par(A, THROW))
    assert par_traces(trace("a", "*"), trace("b", "?")) == {
        trace("a", "b", "?"),
        trace("b", "a", "?"),
    }


@given(
    st.lists(st.sampled_from("ab"), max_size=3),
    st.lists(st.sampled_from("cd"), max_size=3),
    st.sampled_from(list(Terminal)),
    st.sampled_from(list(Terminal)),
)
def test_par_traces_symmetric(s, u, w1, w2):
    p, q = trace(*s, w1.glyph), trace(*u, w2.glyph)
    assert par_traces(p, q) == par_traces(q, p)


def test_interrupt_traces_examples():
    q = trace("b", "*")
    assert interrupt_traces(trace("!"), q) == q
    assert interrupt_traces(trace("a", "!"), trace("b", "*")) == trace("a", "b", "*")
    # oracle: derived traces of the decomposed handler term
    assert derived_traces_standard(Interrupt(Seq(A, THROW), B)) == {trace("a", "b", "*")}
    assert interrupt_traces(trace("a", "*"), trace("b", "*")) == trace("a", "*")
    assert interrupt_traces(trace("a", "?"), q) == trace("a", "?")


def test_pair_traces_examples():
    assert pair_traces(trace("a", "*"), trace("b", "*")) == TracePair(
        trace("a", "*"), trace("b", "*")
    )
    assert pair_traces(trace("a", "!"), trace("b", "*")) == TracePair(
        trace("a", "!"), trace("*")
    )
    assert pair_traces(trace("?"), trace("b", "*")) == TracePair(trace("?"), trace("*"))


def test_block_traces_examples():
    assert block_traces(trace("a", "*"), trace("zz", "!")) == {trace("a", "*")}
    assert block_traces(trace("a", "!"), trace("b", "*")) == {trace("a", "b", "*")}
    # oracle: derived traces of a block whose compensation replays b
    assert derived_traces_standard(Block(CSeq(Pair(A, B), Pair(THROW, SKIP)))) == {
        trace("a", "b", "*")
    }
    assert block_traces(trace("a", "?"), trace("b", "*")) == frozenset()


@given(st.lists(st.sampled_from("ab"), max_size=3), st.sampled_from(list(Terminal)))
def test_block_ignores_compensation_of_successful_traces(events, w):
    p = trace(*events, "*")
    assert block_traces(p, trace("x", w.glyph)) == block_traces(p, trace(w.glyph)) == {p}


# -- semantic functions -------------------------------------------------------


def test_traces_standard_base_cases():
    assert traces_standard(THROW) == {trace("!")}
    assert traces_standard(SKIP) == {trace("*")}
    assert traces_standard(YIELD) == {trace("?"), trace("*")}
    assert traces_standard(A) == {trace("a", "*")}


def test_traces_standard_composites():
    got = traces_standard(Seq(A, Choice(SKIP, THROW)))
    assert got == {trace("a", "*"), trace("a", "!")}
    assert got == derived_traces_standard(Seq(A, Choice(SKIP, THROW)))
    # forward throw empties the compensation, so the block contributes an
    # immediate success
    assert traces_standard(Block(Pair(THROW, B))) == {trace("*")}


def test_traces_standard_rejects_null():
    with pytest.raises(ValueError):
        traces_standard(NULL)
    with pytest.raises(ValueError):
        traces_standard(Seq(NULL, A))


def test_traces_compensable_pair():
    assert traces_compensable(Pair(A, B)) == {TracePair(trace("a", "*"), trace("b", "*"))}


def test_traces_compensable_seq_reverses_compensations():
    term = CSeq(Pair(A, Atom("a'")), Pair(B, Atom("b'")))
    expected = {TracePair(trace("a", "b", "*"), trace("b'", "a'", "*"))}
    assert traces_compensable(term) == expected


def test_traces_compensable_par_counts():
    term = CPar(Pair(A, Atom("a'")), Pair(B, Atom("b'")))
    got = traces_compensable(term)
    # 2 forward shuffles x 2 compensation shuffles
    assert len(got) == 4
    assert {str(p) for p in got} == {
        "(<a,b,*>,<a',b',*>)",
        "(<a,b,*>,<b',a',*>)",
        "(<b,a,*>,<a',b',*>)",
        "(<b,a,*>,<b',a',*>)",
    }


def test_traces_compensable_rejects_aux():
    with pytest.raises(ValueError):
        traces_compensable(Aux(Pair(A, B), SKIP))


def test_check_healthiness_examples():
    assert check_healthiness(SKIP)
    assert check_healthiness(Pair(YIELD, SKIP))  # has the (tick, tick) branch
    assert check_healthiness(Par(YIELD, YIELD))


@given(st.integers(0, 2**63 - 1), st.sampled_from(["std", "comp"]))
def test_every_generated_term_is_healthy_and_nonempty(seed, kind):
    term = gen_term(GenConfig(seed=seed, max_depth=4, alphabet=("a", "b"), kind=kind))
    if kind == "std":
        assert traces_standard(term)
    else:
        assert traces_compensable(term)
    assert check_healthiness(term)


@given(st.integers(0, 2**63 - 1))
def test_seq_and_interrupt_preserve_selected_terminal(seed):
    term = gen_term(GenConfig(seed=seed, max_depth=3, alphabet=("a",), kind="std"))
    for p in traces_standard(term):
        for q in (trace("x", "*"), trace("!"), trace("?")):
            spliced = seq_traces(p, q)
            expected = q.terminal if p.terminal is Terminal.TICK else p.terminal
            assert spliced.terminal is expected
            handled = interrupt_traces(p, q)
            expected = q.terminal if p.terminal is Terminal.THROW else p.terminal
            assert handled.terminal is expected
