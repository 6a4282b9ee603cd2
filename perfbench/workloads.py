"""The benchmark's workloads: the `ccsp` invocations of one round, and the
independent checks that judge their output.

A round is a fixed list of calls.  Every call is one `ccsp.cli.run`
invocation (argv) plus a judge that reads the call's exit code, stdout and
stderr and returns how many operations the call attempted, how many of them
failed, and whether the output of the operations that did not fail is right.
Expected values are computed here, apart from the program: closed-form term
counts, shuffles built with `itertools`, and hand-written trace sets.  No
judge compares against a stored copy of the program's output.

Only the judges touch the program's own code (the parser and the
pretty-printer), to check that every query term round-trips.
"""
from __future__ import annotations

import functools
import itertools
import random
import re
from dataclasses import dataclass
from typing import Callable


@dataclass(frozen=True)
class Outcome:
    attempted: int
    failed: int
    correct: bool
    note: str = ""


Judge = Callable[[int, str, str], Outcome]


@dataclass(frozen=True)
class Call:
    label: str
    argv: tuple[str, ...]
    judge: Judge


# ---------------------------------------------------------------------------
# Enumeration: every term up to an operator budget, checked by `--check`
# ---------------------------------------------------------------------------

#: Event names a seed draws from; all the same length, so that renaming
#: changes no cost.
_EVENT_NAMES = [c + d for c in "abcdefghijklmnopqrstuvwxyz" for d in "0123456789"]

#: Events in the enumeration alphabet.  Eight events make one level-2
#: standard round 111 089 terms: enough to cross the program's memo-trim
#: threshold once per round and to give the collector a heap like the
#: acceptance campaign's, while a round still takes seconds, not minutes.
ENUM_EVENTS = 8


def level_counts(max_ops: int, events: int, pair_cap: int | None, kind: str) -> list[int]:
    """Terms per operator level, from the grammar's recurrence.

    S_0 = |alphabet| + 3 (atoms, SKIP, THROW, YIELD);
    S_k = 4 * sum S_i * S_{k-1-i} + C_{k-1}   (four binary operators, Block);
    C_k = sum_{i+j=k, i,j <= cap} S_i * S_j + 3 * sum C_i * C_{k-1-i}
          (pairs are free; three compensable binary operators).
    """
    cap = max_ops if pair_cap is None else pair_cap
    std: list[int] = []
    comp: list[int] = []
    for k in range(max_ops + 1):
        if k == 0:
            std.append(events + 3)
        else:
            std.append(4 * sum(std[i] * std[k - 1 - i] for i in range(k)) + comp[k - 1])
        pairs = sum(std[i] * std[k - i] for i in range(k + 1) if i <= cap and k - i <= cap)
        comp.append(pairs + 3 * sum(comp[i] * comp[k - 1 - i] for i in range(k)))
    return std if kind == "std" else comp


_LEVEL_LINE = re.compile(r"ops (\d+): (\d+) terms, (\d+) equal\Z")


def _enum_judge(expected: list[int]) -> Judge:
    total = sum(expected)

    def judge(rc: int, out: str, err: str) -> Outcome:
        lines = out.splitlines()
        bad_terms = {
            line.split(" ", 1)[1]
            for line in lines
            if line.startswith(("MISMATCH ", "UNHEALTHY "))
        }
        failed = len(bad_terms)
        levels = [m.groups() for m in map(_LEVEL_LINE.match, lines) if m]
        counts = [int(n) for _, n, _ in levels]
        equal = sum(int(ok) for _, _, ok in levels)
        notes = []
        if [int(k) for k, _, _ in levels] != list(range(len(expected))) or counts != expected:
            notes.append(f"level counts {counts}, recurrence gives {expected}")
        if f"total {total} terms, {equal} equal, {total - equal} mismatches" not in lines:
            notes.append("total line disagrees with the level lines")
        if err:
            notes.append(f"stderr: {err.strip()[:200]}")
        if rc != (1 if failed else 0):
            notes.append(f"exit code {rc} with {failed} failed terms")
        return Outcome(total, failed, not notes, "; ".join(notes))

    return judge


def _enum_round(seed: int, kind: str, max_ops: int) -> list[Call]:
    names = random.Random(seed).sample(_EVENT_NAMES, ENUM_EVENTS)
    argv = ("enumerate", "--max-ops", str(max_ops), "--alphabet", ",".join(names), "--kind", kind, "--check")
    expected = level_counts(max_ops, ENUM_EVENTS, None, kind)
    return [Call(f"enumerate {kind} {max_ops}", argv, _enum_judge(expected))]


# ---------------------------------------------------------------------------
# Campaign: seeded random cases plus the seven decomposition-law suites
# ---------------------------------------------------------------------------

CAMPAIGN_CASES = 2000
CAMPAIGN_LEMMA_CASES = 500
CAMPAIGN_LAWS = 7
_CASE_LINE = re.compile(r"(ok|FAIL) (\d{4}) (std|comp) (.+)\Z")
_LEMMA_LINE = re.compile(r"lemma (\d) \S+ (\d+)/(\d+) equal(.*)\Z")
#: Coverage the law suites must reach: both branches of the sequencing
#: condition (law 3) and a throwing forward process (law 6).
_COVERAGE = {"3": ("cond-true", "cond-false"), "6": ("forward-throw",)}


def _campaign_judge(rc: int, out: str, err: str) -> Outcome:
    lines = out.splitlines()
    notes = []
    failed = 0
    ok_cases = 0
    cases = [m for m in map(_CASE_LINE.match, lines) if m]
    for i, m in enumerate(cases):
        marker, index, kind, text = m.groups()
        if int(index) != i or kind != ("std" if i % 2 == 0 else "comp"):
            notes.append(f"case line {i} out of order: {m.group(0)[:80]}")
            break
        if marker == "FAIL":
            failed += 1
            continue
        ok_cases += 1
        if not _roundtrip_ok(kind, text, printed=True):
            notes.append(f"case {i} does not round-trip: {text[:80]}")
    if len(cases) != CAMPAIGN_CASES:
        notes.append(f"{len(cases)} case lines, expected {CAMPAIGN_CASES}")
    for line in (f"equal {ok_cases}/{CAMPAIGN_CASES}", f"healthy {ok_cases}/{CAMPAIGN_CASES}"):
        if failed == 0 and line not in lines:
            notes.append(f"missing {line!r}")
    lemmas = [m for m in map(_LEMMA_LINE.match, lines) if m]
    lemma_equal = 0
    for m in lemmas:
        law, equal, total, coverage = m.groups()
        if int(total) != CAMPAIGN_LEMMA_CASES:
            notes.append(f"law {law} ran {total} tuples")
        failed += int(total) - int(equal)
        lemma_equal += int(equal)
        counts = dict(item.split("=") for item in coverage.split())
        for key in _COVERAGE.get(law, ()):
            if int(counts.get(key, 0)) < 1:
                notes.append(f"law {law} never covered {key}")
    if [int(m.group(1)) for m in lemmas] != list(range(1, CAMPAIGN_LAWS + 1)):
        notes.append("law suites missing or out of order")
    lemma_total = CAMPAIGN_LAWS * CAMPAIGN_LEMMA_CASES
    if f"lemmas equal {lemma_equal}/{lemma_total}" not in lines:
        notes.append("lemma total line disagrees with the suites")
    if err:
        notes.append(f"stderr: {err.strip()[:200]}")
    if rc != (1 if failed else 0):
        notes.append(f"exit code {rc} with {failed} failed operations")
    return Outcome(CAMPAIGN_CASES + lemma_total, failed, not notes, "; ".join(notes))


#: The `prop` seed.  It fixes the shapes of the random terms, and so the
#: work; the benchmark seed renames their two events.  With the benchmark
#: seed passed to `prop` directly, the cost of a round moved by about 15 %
#: from seed to seed, more than the machine's own noise leaves room for.
CAMPAIGN_PROP_SEED = 7


def _campaign_round(seed: int) -> list[Call]:
    alphabet = random.Random(seed).sample(_EVENT_NAMES, 2)
    argv = (
        "prop", "--seed", str(CAMPAIGN_PROP_SEED), "--cases", str(CAMPAIGN_CASES),
        "--max-depth", "5", "--alphabet", ",".join(alphabet), "--kind", "both", "--lemmas",
        "--lemma-cases", str(CAMPAIGN_LEMMA_CASES),
    )
    return [Call("prop", argv, _campaign_judge)]


# ---------------------------------------------------------------------------
# Queries: one-term invocations, each one user command
# ---------------------------------------------------------------------------

#: Worked examples with their trace sets written out by hand from the
#: semantics' rules (kind, term, members).
WORKED_EXAMPLES = (
    ("std", "SKIP", "<*>"),
    ("std", "THROW", "<!>"),
    ("std", "YIELD", "<*> <?>"),
    ("std", "a ; THROW", "<a,!>"),
    ("std", "a ; (SKIP [] THROW)", "<a,*> <a,!>"),
    ("std", "(a || THROW) ; b", "<a,!>"),
    ("std", "[ THROW % b ]", "<*>"),
    ("std", "[ a % b ; THROWW ]", "<a,b,*>"),
    ("std", "[ YIELD % SKIP ]", "<*>"),
    ("std", "a |> b", "<a,*>"),
    ("std", "(a ; THROW) |> b", "<a,b,*>"),
    ("comp", "SKIPP", "(<*>,<*>)"),
    ("comp", "THROWW", "(<!>,<*>)"),
    ("comp", "YIELDD", "(<*>,<*>) (<?>,<*>)"),
    ("comp", "a % b", "(<a,*>,<b,*>)"),
    ("comp", "(a % a') ; (b % b')", "(<a,b,*>,<b',a',*>)"),
    ("comp", "(a % a') ; THROWW", "(<a,!>,<a',*>)"),
    ("comp", "(a % a') || (b % b')",
     "(<a,b,*>,<a',b',*>) (<a,b,*>,<b',a',*>) (<b,a,*>,<a',b',*>) (<b,a,*>,<b',a',*>)"),
    ("comp", "a % b [] THROWW", "(<!>,<*>) (<a,*>,<b,*>)"),
)

WAREHOUSE_TEXT = (
    "[ AcceptOrder % RestockOrder ;"
    " ( BookCourier % CancelCourier"
    " || PackItem1 % UnpackItem1"
    " || PackItem2 % UnpackItem2"
    " || (CreditCheck % SKIP ; (Ok % SKIP [] NotOk % SKIP ; THROWW)) ) ]"
)
#: The warehouse's compensations, which a failed run replays.
_UNDO = {"AcceptOrder": "RestockOrder", "BookCourier": "CancelCourier",
         "PackItem1": "UnpackItem1", "PackItem2": "UnpackItem2"}

CHAIN_MAX = 9
COMP_CHAIN_MAX = 5
#: `traces` prints every member, so the largest chains are only checked:
#: printing their 48 620 and 63 504 members took 4-6 s a call.  The n = 5
#: block is left out too: its `check` alone took a third of a round, and
#: fewer rounds in a run made the figures less steady.
TRACES_CHAIN_MAX = 8
BLOCK_MAX = 4


def shuffles(left: tuple[str, ...], right: tuple[str, ...]) -> list[tuple[str, ...]]:
    """Every interleaving of two sequences that keeps the order of each."""
    n = len(left) + len(right)
    out = []
    for picks in itertools.combinations(range(n), len(left)):
        chosen = set(picks)
        li = iter(left)
        ri = iter(right)
        out.append(tuple(next(li) if i in chosen else next(ri) for i in range(n)))
    return out


def _trace_text(events, glyph: str = "*") -> str:
    return "<" + ",".join((*events, glyph)) + ">"


def _parse(kind: str, text: str):
    # Imported here: `run.py` reads the workload names without `ccsp`.
    from ccsp.parser import parse_compensable, parse_standard

    return (parse_standard if kind == "std" else parse_compensable)(text)


def _pretty(term) -> str:
    from ccsp.terms import pretty_print

    return pretty_print(term)


def _roundtrip_ok(kind: str, text: str, printed: bool = False) -> bool:
    """The pretty-printed term parses back to the same (interned) term;
    with `printed`, `text` must also be that printed form."""
    term = _parse(kind, text)
    shown = _pretty(term)
    return _parse(kind, shown) is term and (not printed or shown == text)


def _sections(out: str) -> dict[str, list[str]]:
    """Split `traces --semantics both` output into its two member lists."""
    sections: dict[str, list[str]] = {}
    current = None
    for line in out.splitlines():
        if line in ("denotational:", "operational:"):
            current = sections.setdefault(line[:-1], [])
        elif current is not None:
            current.append(line)
    return sections


def _query_outcome(notes: list[str], err: str) -> Outcome:
    if err:
        notes.append(f"stderr: {err.strip()[:200]}")
    # A query that disagrees with its independent check fails; the output of
    # the queries that pass is then right by construction.
    return Outcome(1, 1 if notes else 0, True, "; ".join(notes))


def _traces_judge(kind: str, text: str, expected: Callable[[], frozenset[str]]) -> Judge:
    def judge(rc: int, out: str, err: str) -> Outcome:
        notes = []
        if rc != 0:
            notes.append(f"exit code {rc}")
        want = expected()
        sections = _sections(out)
        for name in ("denotational", "operational"):
            got = sections.get(name, [])
            if len(got) != len(set(got)) or set(got) != want:
                notes.append(f"{name} set differs: {len(got)} members, expected {len(want)}")
        if not _roundtrip_ok(kind, text):
            notes.append("term does not round-trip")
        return _query_outcome(notes, err)

    return judge


def _check_judge(kind: str, text: str) -> Judge:
    def judge(rc: int, out: str, err: str) -> Outcome:
        notes = []
        if out.splitlines() != [f"term: {_pretty(_parse(kind, text))}", "status: equal"] or rc != 0:
            notes.append(f"exit code {rc}, output {out[:120]!r}")
        if not _roundtrip_ok(kind, text):
            notes.append("term does not round-trip")
        return _query_outcome(notes, err)

    return judge


_DOT_NODE = re.compile(r'  n(\d+) \[label="(.*)"\];\Z')
_DOT_EDGE = re.compile(r'  n(\d+) -> n(\d+) \[label="(.*)"\];\Z')


def _lts_judge(text: str, nodes: int | None, edges: int | None, events: set[str]) -> Judge:
    def judge(rc: int, out: str, err: str) -> Outcome:
        lines = out.splitlines()
        node_lines = [m for m in map(_DOT_NODE.match, lines) if m]
        edge_lines = [m for m in map(_DOT_EDGE.match, lines) if m]
        notes = []
        if rc != 0 or lines[:2] != ["digraph lts {", "  rankdir=LR;"] or lines[-1:] != ["}"]:
            notes.append(f"exit code {rc} or malformed dot")
        if len(lines) != 3 + len(node_lines) + len(edge_lines):
            notes.append("unrecognised dot lines")
        labels = [m.group(2) for m in node_lines]
        if [int(m.group(1)) for m in node_lines] != list(range(len(node_lines))):
            notes.append("nodes not numbered in order")
        elif labels[:1] != [_pretty(_parse("std", text))] or len(set(labels)) != len(labels):
            notes.append("root label wrong or duplicate node labels")
        if nodes is not None and len(node_lines) != nodes:
            notes.append(f"{len(node_lines)} nodes, expected {nodes}")
        if edges is not None and len(edge_lines) != edges:
            notes.append(f"{len(edge_lines)} edges, expected {edges}")
        if any(
            not (int(m.group(1)) < len(labels) and int(m.group(2)) < len(labels))
            or m.group(3) not in events | {"*", "!", "?"}
            for m in edge_lines
        ):
            notes.append("edge with an unknown node or label")
        if not _roundtrip_ok("std", text):
            notes.append("term does not round-trip")
        return _query_outcome(notes, err)

    return judge


def _warehouse_example_judge(rc: int, out: str, err: str) -> Outcome:
    lines = out.splitlines()
    report = lines[lines.index("report:") + 1:] if "report:" in lines else []
    notes = []
    if rc != 0 or len(report) != 5 or not all(line.startswith("pass: ") for line in report):
        notes.append(f"exit code {rc}, report {report}")
    return _query_outcome(notes, err)


def _warehouse_traces_judge(rc: int, out: str, err: str) -> Outcome:
    notes = []
    if rc != 0:
        notes.append(f"exit code {rc}")
    sections = _sections(out)
    den = sections.get("denotational", [])
    if not den or sorted(den) != sorted(sections.get("operational", [])):
        notes.append("the two trace sets differ or are empty")
    for line in den:
        events = line[1:-1].split(",")
        done = events[:-1]
        if events[-1] != "*":
            notes.append(f"trace does not end in success: {line}")
            break
        failed_run = "NotOk" in done
        undo = [_UNDO[e] for e in _UNDO if e in done]
        if failed_run and (
            done[-1] != "RestockOrder" or sorted(u for u in done if u in undo) != sorted(undo)
        ):
            notes.append(f"failed run does not undo its actions: {line}")
            break
        if not failed_run and any(u in done for u in _UNDO.values()):
            notes.append(f"successful run undoes an action: {line}")
            break
    if not _roundtrip_ok("std", WAREHOUSE_TEXT):
        notes.append("term does not round-trip")
    return _query_outcome(notes, err)


def _chain(names: str, n: int) -> str:
    return " ; ".join(f"{names}{i}" for i in range(n))


def _query_round(seed: int) -> list[Call]:
    rng = random.Random(seed)
    x, y, a, u, b, v = rng.sample("abcdefghijklmnopqrstuvwxyz", 6)
    calls: list[Call] = []

    for n in range(1, CHAIN_MAX + 1):
        text = f"({_chain(x, n)}) || ({_chain(y, n)})"
        xs = tuple(f"{x}{i}" for i in range(n))
        ys = tuple(f"{y}{i}" for i in range(n))
        want = functools.cache(lambda xs=xs, ys=ys: frozenset(_trace_text(s) for s in shuffles(xs, ys)))
        events = set(xs) | set(ys)
        calls += [
            Call(f"check chain {n}", ("check", text), _check_judge("std", text)),
            Call(f"lts chain {n}", ("lts", text),
                 _lts_judge(text, (n + 1) ** 2 + 1, 2 * n * (n + 1) + 1, events)),
        ]
        if n <= TRACES_CHAIN_MAX:
            calls.append(Call(f"traces chain {n}", ("traces", "--semantics", "both", text),
                              _traces_judge("std", text, want)))

    for n in range(1, COMP_CHAIN_MAX + 1):
        left = " ; ".join(f"{a}{i} % {u}{i}" for i in range(n))
        right = " ; ".join(f"{b}{i} % {v}{i}" for i in range(n))
        comp = f"({left}) || ({right})"
        block = f"[ ({comp}) ; THROWW ]"
        fwd = (tuple(f"{a}{i}" for i in range(n)), tuple(f"{b}{i}" for i in range(n)))
        back = (tuple(f"{u}{i}" for i in reversed(range(n))),
                tuple(f"{v}{i}" for i in reversed(range(n))))
        pairs = functools.cache(lambda fwd=fwd, back=back: frozenset(
            f"({_trace_text(f)},{_trace_text(c)})"
            for f in shuffles(*fwd) for c in shuffles(*back)))
        runs = functools.cache(lambda fwd=fwd, back=back: frozenset(
            _trace_text(f + c) for f in shuffles(*fwd) for c in shuffles(*back)))
        calls.append(
            Call(f"check comp chain {n}", ("check", "--kind", "comp", comp), _check_judge("comp", comp)))
        if n <= BLOCK_MAX:
            calls += [
                Call(f"traces comp chain {n}", ("traces", "--kind", "comp", "--semantics", "both", comp),
                     _traces_judge("comp", comp, pairs)),
                Call(f"check block {n}", ("check", block), _check_judge("std", block)),
                Call(f"traces block {n}", ("traces", "--semantics", "both", block),
                     _traces_judge("std", block, runs)),
            ]

    warehouse_events = set(_UNDO) | set(_UNDO.values()) | {"CreditCheck", "Ok", "NotOk"}
    calls += [
        Call("example warehouse", ("example", "warehouse"), _warehouse_example_judge),
        Call("check warehouse", ("check", WAREHOUSE_TEXT), _check_judge("std", WAREHOUSE_TEXT)),
        Call("traces warehouse", ("traces", "--semantics", "both", WAREHOUSE_TEXT),
             _warehouse_traces_judge),
        Call("lts warehouse", ("lts", WAREHOUSE_TEXT),
             _lts_judge(WAREHOUSE_TEXT, None, None, warehouse_events)),
    ]

    for kind, text, members in WORKED_EXAMPLES:
        want = frozenset(members.split())
        calls += [
            Call(f"check {text}", ("check", "--kind", kind, text), _check_judge(kind, text)),
            Call(f"traces {text}", ("traces", "--kind", kind, "--semantics", "both", text),
                 _traces_judge(kind, text, lambda want=want: want)),
        ]

    rng.shuffle(calls)
    return calls


#: workload name -> function that builds one round from the seed.  BENCHMARK.json and
#: the README say why each workload is here.
WORKLOADS: dict[str, Callable[[int], list[Call]]] = {
    "enum-std2": lambda seed: _enum_round(seed, "std", 2),
    "enum-comp1": lambda seed: _enum_round(seed, "comp", 1),
    "campaign": _campaign_round,
    "queries": _query_round,
}
