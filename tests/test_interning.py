"""The intern pools behind term construction: one weak entry per live
term, removed when the term dies, and "structurally equal => identical"
across deaths, rebuilds and memo clears."""
import gc
import weakref

from ccsp import clear_caches
from ccsp.denotational import traces_standard
from ccsp.equivalence import enumerate_terms
from ccsp.operational import derived_traces_standard
from ccsp.parser import parse_standard
from ccsp.terms import (
    NULL,
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
    Skip,
    Terminal,
    Throw,
    Trace,
    TracePair,
    Yield,
    term_depth,
    trace,
    unchecked_pair,
    unchecked_trace,
)

NODE_CLASSES = (
    Atom, Skip, Throw, Yield, Null, Seq, Choice, Par, Interrupt, Block,
    Pair, CSeq, CChoice, CPar, Aux,
)


def _pool_sizes() -> dict[type, int]:
    return {cls: len(cls._pool) for cls in NODE_CLASSES}


def _fresh_term(i: int):
    """A term no other test builds, with a node of every class."""
    a, b = Atom(f"pool{i}"), Atom(f"pool{i}b")
    std = Interrupt(Par(Choice(Seq(a, SKIP), THROW), YIELD), b)
    comp = Aux(CPar(CChoice(CSeq(Pair(a, b), Pair(std, SKIP)), Pair(b, a)), Pair(a, a)), NULL)
    return Block(CSeq(comp, Pair(std, b)))


def _depth_by_traversal(term) -> int:
    operands = [getattr(term, name) for name in term._fields]
    return 1 + max((_depth_by_traversal(o) for o in operands if not isinstance(o, str)), default=0)


def test_pools_shrink_back_when_terms_die():
    gc.collect()
    before = _pool_sizes()
    terms = [_fresh_term(i) for i in range(10_000)]
    grown = _pool_sizes()
    assert all(grown[cls] > before[cls] for cls in NODE_CLASSES if cls._fields), grown
    del terms
    gc.collect()
    assert _pool_sizes() == before


def test_a_term_rebuilt_after_its_death_is_the_one_live_instance():
    term = Seq(Atom("reborn"), SKIP)
    died = weakref.ref(term)
    del term
    assert died() is None
    rebuilt = Seq(Atom("reborn"), SKIP)
    assert rebuilt is Seq(Atom("reborn"), SKIP)
    assert rebuilt is parse_standard("reborn ; SKIP")
    assert [ref() for ref in Seq._pool.values() if ref() == rebuilt] == [rebuilt]


def test_a_stale_callback_leaves_a_newer_entry_in_place():
    term = Seq(Atom("stale"), THROW)
    key = (term.left, THROW)
    stale = Seq._pool[key]
    callback = stale.__callback__
    del term
    assert key not in Seq._pool
    newer = Seq(*key)
    entry = Seq._pool[key]
    assert entry is not stale and entry() is newer
    # The dead term's callback, run late, must not drop the newer entry.
    callback(stale)
    assert Seq._pool[key] is entry
    assert Seq(*key) is newer


def test_clear_caches_keeps_held_terms_identical():
    held = parse_standard("a ; b || c |> THROW")
    traces_standard(held)
    derived_traces_standard(held)
    clear_caches()
    assert parse_standard("a ; b || c |> THROW") is held
    assert Par(Seq(Atom("a"), Atom("b")), Interrupt(Atom("c"), THROW)) is held


def test_depth_is_fixed_at_interning():
    for term in enumerate_terms(2, ("a",), "std"):
        assert term_depth(term) == _depth_by_traversal(term)
    for term in enumerate_terms(1, ("a",), "comp"):
        assert term_depth(term) == _depth_by_traversal(term)
    assert term_depth(Aux(Pair(Atom("a"), SKIP), Seq(SKIP, NULL))) == 3


def test_unchecked_trace_builds_the_checked_value():
    for events, terminal in (((), Terminal.TICK), (("a", "b"), Terminal.THROW)):
        built = unchecked_trace((events, terminal))
        assert type(built) is Trace
        assert built == Trace(events, terminal) and built.events == events
        assert built.terminal is terminal
    t, u = trace("a", "!"), trace("*")
    pair = unchecked_pair((t, u))
    assert type(pair) is TracePair and pair == TracePair(t, u)
