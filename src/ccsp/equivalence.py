"""Mechanical comparison of the two semantics.

`check_standard` / `check_compensable` compare the derived traces of a term
(read off its maximal operational runs) with its compositional trace set.
Both semantics build their sets as nodes of `ccsp.automata`, where equal
sets are one interned node, so exact set equality is one `is`, and the two
differences are written out only on a mismatch.  A one-term check drops
the operational walk before the trace semantics runs; `check_terms`, for
loops over many terms, keeps memo entries the terms share.  `check_lemma`
does the same for the seven decomposition laws relating lifted runs of a
composite term to trace-level operators over the runs of its parts, one
law per operator.  Each law is one row of `LAWS`: its composite's
constructor, the runs it compares, its formula over the operands and its
coverage probe.  Laws 1, 2, 6 and 7 have no formula: each is its
constructor's clause in `denotational.CLAUSES` over derived nodes, so a
fault in a clause shows up in its law; laws 3-5 relate sets of forward
outcomes.  Neither semantics imports the other or this module.

Terms come from either a seeded random generator or an exhaustive
enumerator of all user terms up to an operator budget, so the equality can
be tested both broadly and completely at desk scale.  Both take the binary
operators in the row order of `terms.BINARY_OPERATORS`.
"""
from __future__ import annotations

import functools
import random
from bisect import bisect
from dataclasses import dataclass, field
from itertools import accumulate, product, starmap
from operator import index
from typing import Callable, Iterable, Iterator

from . import automata, denotational, operational
from .automata import Node, ends_in, language
from .denotational import CLAUSES, check_healthiness, par_traces, seq_traces, trace_node
from .operational import derived_forward, derived_node
from .terms import (
    BINARY_OPERATORS,
    Atom,
    Aux,
    Block,
    CompensableTerm,
    CPar,
    CSeq,
    Event,
    Pair,
    Par,
    SKIP,
    Seq,
    StandardTerm,
    Terminal,
    THROW,
    YIELD,
    check_alphabet,
    check_kind,
)

# ---------------------------------------------------------------------------
# Verdicts
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Verdict:
    """Outcome of comparing the two semantics of one term.

    For a decomposition law (`check_lemma`) the term is the law's composite
    and `only_denotational` holds what only the law's formula gives.
    """

    term: StandardTerm | CompensableTerm
    only_operational: frozenset
    only_denotational: frozenset

    @property
    def is_equal(self) -> bool:
        return not self.only_operational and not self.only_denotational

    @property
    def status(self) -> str:
        return "equal" if self.is_equal else "mismatch"


_NONE: frozenset = frozenset()


def _verdict(term, ours: Node | frozenset, theirs: Node | frozenset) -> Verdict:
    """The verdict on two nodes, or on two sets (laws 3-5).  Equal sets have
    identical nodes, so one `is` decides; the two differences are written
    out only on a mismatch."""
    if type(ours) is Node:
        if ours is theirs:
            return Verdict(term, _NONE, _NONE)
        ours, theirs = frozenset(language(ours)), frozenset(language(theirs))
    if ours == theirs:
        return Verdict(term, _NONE, _NONE)
    return Verdict(term, frozenset(ours - theirs), frozenset(theirs - ours))


def check_standard(term: StandardTerm) -> Verdict:
    """Exact two-way comparison of derived and compositional traces, by the
    identity of their nodes.  The walk's memo entries are dropped before the
    trace semantics runs, so the heap never holds both; loops should use
    `check_terms`, which keeps them."""
    check_kind(term, StandardTerm)
    with operational.forgetting():
        derived = derived_node(term)
    return _verdict(term, derived, trace_node(term))


def check_compensable(term: CompensableTerm) -> Verdict:
    """`check_standard` for a compensable term's trace pairs."""
    check_kind(term, CompensableTerm)
    with operational.forgetting():
        derived = derived_node(term)
    return _verdict(term, derived, trace_node(term))


# ---------------------------------------------------------------------------
# Decomposition laws
# ---------------------------------------------------------------------------


def _forward(term):
    """`derived_forward`, called through the global that perfbench's tracer wraps."""
    return derived_forward(term)


def _seq_forward(pp, qq):
    """Law 3: `qq` runs on after `pp` ticks, and is compensated before `pp`."""
    return frozenset(
        (seq_traces(p, q), Seq(banked_q, banked_p)) if p.terminal is Terminal.TICK
        else (p, banked_p)
        for p, banked_p in derived_forward(pp)
        for q, banked_q in derived_forward(qq)
    )


def _par_forward(pp, qq):
    """Law 5: each interleaving, banking the two compensations in parallel."""
    return frozenset(
        (t, Par(banked_p, banked_q))
        for p, banked_p in derived_forward(pp)
        for q, banked_q in derived_forward(qq)
        for t in par_traces(p, q)
    )


def _cond_branches(pp, qq):
    """Law 3's coverage: the branches of `CSeq`'s condition that `pp` takes."""
    return {"cond-true" if p.terminal is Terminal.TICK else "cond-false"
            for p, _ in derived_forward(pp)}


def _forward_throws(p, q):
    """Law 6's coverage: whether the pair's forward process can throw."""
    return {"forward-throw"} if ends_in(derived_node(p), frozenset((Terminal.THROW,))) else set()


#: law id -> (name, operand kinds, composite constructor, runs, formula over
#: the operands or None, coverage probe or None).  A law with no formula
#: (1, 2, 6 and 7) is its constructor's trace clause (`CLAUSES`) over the
#: operands' derived nodes.
LAWS: dict[int, tuple[str, tuple[str, ...], type, Callable, Callable | None, Callable | None]] = {
    1: ("seq-standard", ("std", "std"), Seq, derived_node, None, None),
    2: ("par-standard", ("std", "std"), Par, derived_node, None, None),
    3: ("seq-forward", ("comp", "comp"), CSeq, _forward, _seq_forward, _cond_branches),
    4: ("aux-removal", ("comp", "std"), Aux, _forward,
        lambda qq, p: frozenset((t, Seq(banked, p)) for t, banked in derived_forward(qq)), None),
    5: ("par-forward", ("comp", "comp"), CPar, _forward, _par_forward, None),
    6: ("pair", ("std", "std"), Pair, derived_node, None, _forward_throws),
    7: ("block", ("comp",), Block, derived_node, None, None),
}


def _integer(value, name: str, floor: float = float("-inf")) -> int:
    if isinstance(value, bool):  # `index` takes True as 1 (and refuses 1.0 and "1")
        raise TypeError(f"{name} must be an integer, not {value!r}")
    if (value := index(value)) < floor:
        raise ValueError(f"{name} must be {'nonnegative' if floor == 0 else f'at least {floor}'}")
    return value


def _law(lemma: int) -> tuple:
    if _integer(lemma, "a law id") not in LAWS:
        raise ValueError(f"no such law: {lemma}")
    return LAWS[lemma]


def check_lemma(lemma: int, operands: tuple) -> Verdict:
    """Check one decomposition law (1-7) on concrete operand terms: the runs
    of its composite `ctor(*operands)` against `formula(*operands)`."""
    _, kinds, ctor, runs, formula, _ = _law(lemma)
    if len(operands) != len(kinds):
        raise ValueError(f"law {lemma} takes {len(kinds)} operands, got {len(operands)}")
    for operand, kind in zip(operands, kinds):
        if not isinstance(operand, StandardTerm if kind == "std" else CompensableTerm):
            raise ValueError(f"law {lemma} operand kinds are {kinds}")
    term = ctor(*operands)
    theirs = formula(*operands) if formula else CLAUSES[ctor](*map(derived_node, operands))
    return _verdict(term, runs(term), theirs)


# ---------------------------------------------------------------------------
# Term generation
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class GenConfig:
    """Deterministic random-term recipe.

    `max_depth` bounds constructor nesting up to one extra level: a
    compensation pair over two leaves, the minimal compensable term, has
    depth 2 on its own, so terms reach at most max_depth + 1 constructors.
    Leaf probability rises with depth, and the weight of nested parallel
    composition decays, to keep interleaving products at desk scale.  Null
    and the auxiliary construct are never generated.
    """

    seed: int
    max_depth: int
    alphabet: tuple[Event, ...]
    kind: str  # "std" | "comp"

    def __post_init__(self):
        _integer(self.seed, "seed")  # an integer, as `--seed` is
        _integer(self.max_depth, "max_depth", 1)
        object.__setattr__(self, "alphabet", check_alphabet(self.alphabet))
        if self.kind not in ("std", "comp"):
            raise ValueError(f"unknown kind: {self.kind!r}")


def gen_term(cfg: GenConfig) -> StandardTerm | CompensableTerm:
    """Generate a valid user term; a pure function of the config.

    The term is fixed by the order in which it reads the seeded stream,
    top-down and left operand first: one `random()` per weighted choice of
    constructor, one `choice(alphabet)` per atom, none for a pair forced at
    the depth limit.  A weighted choice reads the stream as
    `random.choices(names, weights)` does with every constructor weighted
    1.0, so the terms are that recipe's; the tests keep it as the reference.
    """
    if not isinstance(cfg, GenConfig):
        raise TypeError(f"not a GenConfig: {cfg!r}")
    return _generate(cfg, cfg.seed)


def _generate(recipe: GenConfig, seed: int) -> StandardTerm | CompensableTerm:
    """`gen_term` of the recipe with its seed replaced, without checking the
    recipe again."""
    gen = _Generator(_DrawTables(recipe.max_depth), random.Random(seed), recipe.alphabet)
    return gen.std(recipe.max_depth, 0) if recipe.kind == "std" else gen.comp(recipe.max_depth, 0)


#: What a weighted draw picks: the leaves, then the binary operators in
#: `BINARY_OPERATORS` order, then (standard only) blocks.
_STD_LEAVES = (Atom, SKIP, THROW, YIELD)
_STD_NODES = (*_STD_LEAVES, *(std for _, _, std, _ in BINARY_OPERATORS), Block)
_COMP_NODES = (Pair, *(comp for *_, comp in BINARY_OPERATORS if comp))


@functools.lru_cache(maxsize=64)  # one shared instance per max_depth
class _DrawTables(dict):
    """Cell `(compensable, remaining, par_depth)` -> `(nodes, cum, total, hi)`: the floats
    `random.choices` computed for such a node (`accumulate`, then `cum[-1] + 0.0`)."""

    def __init__(self, max_depth: int):
        self.max_depth = max_depth

    def __missing__(self, key):
        compensable, remaining, par_depth = key
        if remaining <= 1:  # standard only: a compensable node here is a pair
            nodes, ws = _STD_LEAVES, [1.0] * len(_STD_LEAVES)
        else:  # leaves gain weight with depth, nested parallels lose it
            bias, par = (self.max_depth - remaining + 1) ** 2 / 4.0, 1.0 / 3.0 ** par_depth
            nodes = _COMP_NODES if compensable else _STD_NODES
            ws = [bias if node in _STD_LEAVES or node is Pair else par if node in (Par, CPar)
                  else 1.0 for node in nodes]
        cum = list(accumulate(ws))
        self[key] = cell = (nodes, cum, cum[-1] + 0.0, len(cum) - 1)
        return cell


class _Generator:
    """One `gen_term` call (methods, not closures: two closures that call
    each other make a reference cycle per call, left to the collector)."""

    __slots__ = ("tables", "alphabet", "rng", "draw")

    def __init__(self, tables: _DrawTables, rng: random.Random, alphabet: tuple[Event, ...]):
        self.tables, self.alphabet, self.rng, self.draw = tables, alphabet, rng, rng.random

    def pick(self, compensable: bool, remaining: int, par_depth: int):
        nodes, cum, total, hi = self.tables[compensable, remaining, par_depth]
        return nodes[bisect(cum, self.draw() * total, 0, hi)]

    def std(self, remaining: int, par_depth: int) -> StandardTerm:
        ctor = self.pick(False, remaining, par_depth)
        if ctor is Atom:
            return Atom(self.rng.choice(self.alphabet))
        if ctor is Block:
            return Block(self.comp(remaining - 1, par_depth))
        if not isinstance(ctor, type):  # SKIP, THROW or YIELD
            return ctor
        par_depth += ctor is Par
        return ctor(self.std(remaining - 1, par_depth), self.std(remaining - 1, par_depth))

    def comp(self, remaining: int, par_depth: int) -> CompensableTerm:
        ctor = Pair if remaining <= 1 else self.pick(True, remaining, par_depth)
        if ctor is Pair:
            budget = max(remaining - 1, 1)
            return Pair(self.std(budget, par_depth), self.std(budget, par_depth))
        par_depth += ctor is CPar
        return ctor(self.comp(remaining - 1, par_depth), self.comp(remaining - 1, par_depth))


# ---------------------------------------------------------------------------
# Exhaustive enumeration
# ---------------------------------------------------------------------------


def enumerate_terms(
    max_ops: int,
    alphabet: tuple[Event, ...],
    kind: str = "std",
    max_pair_operand_ops: int | None = None,
) -> Iterator[StandardTerm | CompensableTerm]:
    """Every valid user term with at most `max_ops` operator nodes,
    exactly once, in a deterministic order (by operator count, then by
    constructor, then by operand order).

    Operator counting follows `term_op_count`: compensation pairs are free
    and their operands' operators count toward the budget.
    `max_pair_operand_ops` additionally caps the operator count of each
    pair operand (useful to keep compensable enumeration finite-friendly).
    A negative count is a `ValueError`, and a bool or a non-integer one a
    `TypeError`.  The alphabet is checked by `check_alphabet`.
    """
    _integer(max_ops, "max_ops", 0)
    if max_pair_operand_ops is not None:
        _integer(max_pair_operand_ops, "max_pair_operand_ops", 0)
    if kind not in ("std", "comp"):
        raise ValueError(f"unknown kind: {kind!r}")
    world = _EnumWorld(check_alphabet(alphabet), max_pair_operand_ops)
    compensable = kind == "comp"
    for k in range(max_ops):
        yield from world.stored(compensable, k)
    yield from world.exact(compensable, max_ops)


class _EnumWorld:
    """Term levels by kind and operator count: every level below the top is
    stored, while the top level and `Block` bodies stream."""

    def __init__(self, alphabet: tuple[Event, ...], pair_cap: int | None):
        self.alphabet = alphabet
        self.pair_cap = pair_cap
        self.levels: dict[tuple[bool, int], list] = {}

    def stored(self, compensable: bool, k: int) -> list:
        level = self.levels.get((compensable, k))
        if level is None:
            level = self.levels[compensable, k] = list(self.exact(compensable, k))
        return level

    def exact(self, compensable: bool, k: int) -> Iterator[StandardTerm | CompensableTerm]:
        """The terms of one kind with exactly `k` operators: atoms and the
        constants or pairs first, then each binary operator in
        `BINARY_OPERATORS` order, then blocks."""
        stored = self.stored
        if compensable:
            for i in range(k + 1):
                if self.pair_cap is None or max(i, k - i) <= self.pair_cap:
                    yield from starmap(Pair, product(stored(False, i), stored(False, k - i)))
        elif k == 0:
            yield from map(Atom, sorted(self.alphabet))
            yield from (SKIP, THROW, YIELD)
        for ctor in filter(None, (ctors[compensable] for _, _, *ctors in BINARY_OPERATORS)):
            for i in range(k):
                operands = stored(compensable, i), stored(compensable, k - 1 - i)
                yield from starmap(ctor, product(*operands))
        if not compensable and k:
            yield from map(Block, self.exact(True, k - 1))


# ---------------------------------------------------------------------------
# Campaign drivers
# ---------------------------------------------------------------------------

#: Trim memo tables once they hold this many entries, to bound memory on
#: very large campaigns; recomputation after a trim is cheap.  Each driver
#: starts from empty tables and drops what its checked cases leave, so this
#: is only the backstop for long `prop` and `enumerate` runs.
CACHE_TRIM_THRESHOLD = 400_000

#: Empty the node operations' computed table between checked terms once it
#: holds more than this many entries.  Its entries keep their nodes alive
#: (the unique table is weak): over the compensable enumeration at one
#: operator and eight events, 4 000 peaked 1 MiB higher than 2 000, and
#: 1 000 ran slower.
COMPUTED_LIMIT = 2_000


def clear_caches() -> None:
    """Drop every memo table in both semantics, and the computed table."""
    operational.clear_caches()
    denotational.clear_caches()
    automata.clear_caches()


def maybe_trim_caches() -> None:
    if (operational.cache_size() + denotational.cache_size() + automata.cache_size()
            > CACHE_TRIM_THRESHOLD):
        clear_caches()


def _release(*terms: StandardTerm | CompensableTerm) -> None:
    """Drop the checked terms' own memo entries, and a block's body's too;
    empty the computed table once it passes `COMPUTED_LIMIT`; then trim the
    memo tables if they are still large."""
    for term in terms:
        for dead in (term, term.body) if isinstance(term, Block) else (term,):
            operational.forget(dead)
            denotational.forget(dead)
    if len(automata.COMPUTED) > COMPUTED_LIMIT:
        automata.clear_caches()
    maybe_trim_caches()


def check_terms(
    terms: Iterable[StandardTerm | CompensableTerm],
) -> Iterator[tuple[StandardTerm | CompensableTerm, Verdict, bool]]:
    """`(term, verdict, healthy)` for each term, of either kind.  The
    terms share their subterms' and successors' memo entries; once the
    consumer has taken an item, only the term's own entries are dropped,
    and a block's body's too (`enumerate_terms` streams block bodies, so
    no later term uses them), then the memo tables are trimmed if they are
    still large.  Once the terms run out, the computed table is emptied.
    A verdict compares the two semantics' nodes by identity."""
    for term in terms:
        yield term, _verdict(term, derived_node(term), trace_node(term)), check_healthiness(term)
        _release(term)
    automata.clear_caches()


def run_prop_campaign(
    seed: int,
    cases: int,
    max_depth: int,
    alphabet: tuple[Event, ...],
    kind: str,  # "std" | "comp" | "both"
) -> Iterator[tuple[StandardTerm | CompensableTerm, Verdict, bool]]:
    """Seeded `check_terms` campaign; `both` alternates the two kinds,
    standard first.

    The per-case terms are a pure function of the arguments (one seed drawn
    per case, in order), so transcripts are reproducible.  A negative
    `cases`, or any argument `GenConfig` refuses, is a `ValueError` at the
    first `next()`, before any case.  The first case starts from empty memo
    tables: the state cap charges only fresh states, so a campaign's result
    does not depend on what ran before it.
    """
    _integer(cases, "cases", 0)
    kinds = ("std", "comp") if kind == "both" else (kind,)
    recipes = [GenConfig(seed, max_depth, alphabet, k) for k in kinds]  # checks every argument
    clear_caches()
    rng = random.Random(seed)
    terms = (_generate(recipes[i % len(recipes)], rng.getrandbits(63)) for i in range(cases))
    yield from check_terms(terms)


@dataclass
class LemmaSuiteResult:
    lemma: int
    name: str
    total: int = 0
    failures: list[tuple] = field(default_factory=list)  # operand tuples
    #: tuples counted per key of the law's coverage probe (`LAWS`): the
    #: branches of law 3's condition, law 6's forward throws
    coverage: dict[str, int] = field(default_factory=dict)
    equal = property(lambda self: self.total - len(self.failures), doc="Tuples the law held on.")


def run_lemma_suite(
    lemma: int,
    cases: int,
    seed: int,
    max_depth: int,
    alphabet: tuple[Event, ...],
) -> LemmaSuiteResult:
    """Check one law on `cases` seeded operand tuples; its arguments are
    checked before the first case, as `run_prop_campaign` checks them.  As
    there, the first case starts from empty memo tables, and each tuple's
    composite and operands are dropped from them once checked."""
    _integer(cases, "cases", 0)
    name, kinds, *_, probe = _law(lemma)
    recipes = [GenConfig(seed, max_depth, alphabet, k) for k in kinds]  # checks every argument
    clear_caches()
    result = LemmaSuiteResult(lemma, name)
    rng = random.Random((seed << 3) ^ lemma)
    for _ in range(cases):
        operands = tuple(_generate(r, rng.getrandbits(63)) for r in recipes)
        verdict = check_lemma(lemma, operands)
        result.total += 1
        if not verdict.is_equal:
            result.failures.append(operands)
        for key in sorted(probe(*operands) if probe else ()):
            result.coverage[key] = result.coverage.get(key, 0) + 1
        _release(verdict.term, *operands)
    return result

