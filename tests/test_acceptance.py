"""End-to-end acceptance gates.

Each test enforces one shipped guarantee at its exact tolerance (set
equality everywhere, wall-clock limits where stated) and prints a
PASS/FAIL line so a `pytest -s` run doubles as an acceptance transcript:

1. exhaustive standard equivalence up to three operators over {a, b};
2. exhaustive compensable equivalence up to two operators (pair operands
   capped at one operator);
3. the 2000-case seeded randomized campaign with a reproducible transcript;
4. the seven decomposition-law suites, 500 seeded operand tuples each,
   covering both conditional branches of the sequential-compensation law
   and a throwing forward operand for the pair law;
5. healthiness of every term in both campaigns;
6. pinned golden trace sets for the worked examples;
7. the warehouse demo with its transactional guarantees;
8. mutation sensitivity: a deliberately broken trace operator must be
   caught by the checker (no vacuous equality).
"""
import io
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import ccsp
from ccsp import denotational
from ccsp.cli import run
from ccsp.equivalence import check_standard, enumerate_terms, run_lemma_suite
from ccsp.operational import derived_traces_compensable, derived_traces_standard
from ccsp.parser import parse_compensable, parse_standard
from ccsp.terms import Terminal, Trace, by_sort_key

TIME_LIMIT = 300.0  # seconds per exhaustive campaign
GOLDEN = Path(__file__).parent / "data" / "pinned_values.txt"


def record(name: str, ok: bool, detail: str = "") -> None:
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {name}: {'PASS' if ok else 'FAIL'}{suffix}")
    assert ok, f"{name}{suffix}"


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def standard_enumeration():
    started = time.monotonic()
    code, out, err = invoke(["enumerate", "--max-ops", "3", "--alphabet", "a,b", "--check"])
    return code, out, err, time.monotonic() - started


@pytest.fixture(scope="module")
def compensable_enumeration():
    started = time.monotonic()
    code, out, err = invoke(
        ["enumerate", "--max-ops", "2", "--alphabet", "a,b", "--kind", "comp",
         "--max-pair-ops", "1", "--check"]
    )
    return code, out, err, time.monotonic() - started


@pytest.fixture(scope="module")
def randomized_campaign():
    args = ["prop", "--seed", "42", "--cases", "2000", "--max-depth", "5",
            "--alphabet", "a,b", "--kind", "both"]
    return invoke(args), invoke(args)


def test_exhaustive_standard_equivalence(standard_enumeration):
    code, out, err, elapsed = standard_enumeration
    ok = (
        code == 0
        and "total 961380 terms, 961380 equal, 0 mismatches" in out
        and "state cap" not in err
        and elapsed < TIME_LIMIT
    )
    record(
        "exhaustive standard equivalence (<=3 ops)",
        ok,
        f"961380 terms, {elapsed:.0f}s, state cap untouched",
    )


def test_exhaustive_compensable_equivalence(compensable_enumeration):
    code, out, err, elapsed = compensable_enumeration
    ok = (
        code == 0
        and "total 487525 terms, 487525 equal, 0 mismatches" in out
        and "state cap" not in err
        and elapsed < TIME_LIMIT
    )
    record(
        "exhaustive compensable equivalence (<=2 ops, pair operands <=1)",
        ok,
        f"487525 terms, {elapsed:.0f}s",
    )


def test_randomized_equivalence_campaign(randomized_campaign):
    first, second = randomized_campaign
    code, out, _ = first
    ok = code == 0 and "equal 2000/2000" in out and first == second
    record(
        "randomized equivalence (seed 42, 2000 cases, depth 5, both kinds)",
        ok,
        "2000/2000 equal, transcript identical across reruns",
    )


def test_decomposition_law_suites():
    total = equal = 0
    coverage = {}
    for lemma in range(1, 8):
        suite = run_lemma_suite(lemma, 500, 42, 4, ("a", "b"))
        total += suite.total
        equal += suite.equal
        coverage.update({f"{lemma}:{k}": v for k, v in suite.coverage.items()})
    branch_ok = (
        coverage.get("3:cond-true", 0) >= 1
        and coverage.get("3:cond-false", 0) >= 1
        and coverage.get("6:forward-throw", 0) >= 1
    )
    record(
        "decomposition laws 1-7 (500 tuples each)",
        equal == total == 3500 and branch_ok,
        f"{equal}/{total} equal, coverage {coverage}",
    )


def test_healthiness_of_both_campaigns(standard_enumeration, randomized_campaign):
    _, enum_out, _, _ = standard_enumeration
    (_, prop_out, _), _ = randomized_campaign
    ok = "healthy 961380/961380" in enum_out and "healthy 2000/2000" in prop_out
    record("healthiness across both campaigns", ok, "zero failures")


def _load_golden():
    for line in GOLDEN.read_text().splitlines():
        line = line.strip()
        if not line or line.startswith("#"):
            continue
        kind, term_text, expected = (part.strip() for part in line.split("::"))
        yield kind, term_text, expected.split()


def test_pinned_golden_values():
    failures = []
    checked = 0
    for kind, term_text, expected in _load_golden():
        if kind == "std":
            term = parse_standard(term_text)
            derived = derived_traces_standard(term)
            denoted = denotational.traces_standard(term)
        else:
            term = parse_compensable(term_text)
            derived = derived_traces_compensable(term)
            denoted = denotational.traces_compensable(term)
        for name, got in (("derived", derived), ("denotational", denoted)):
            rendered = [str(t) for t in sorted(got, key=by_sort_key)]
            if rendered != expected:
                failures.append(f"{term_text} [{name}]: {rendered}")
        checked += 1
    record("pinned golden values", not failures, f"{checked} worked examples; {failures}")


def test_warehouse_demo():
    code, out, _ = invoke(["example", "warehouse"])
    ok = code == 0 and out.count("pass:") == 5 and "FAIL" not in out
    record("warehouse demo", ok, "all transactional guarantees hold, exit 0")


def test_mutation_sensitivity(monkeypatch):
    def mutant(p: Trace, q: Trace) -> Trace:
        if p.terminal is Terminal.THROW:  # wrong: success flipped to throw
            return Trace(p.events + q.events, q.terminal)
        return p

    ccsp.clear_caches()
    monkeypatch.setattr(denotational, "seq_traces", mutant)
    try:
        mismatch = None
        for term in enumerate_terms(2, ("a", "b"), "std"):
            verdict = check_standard(term)
            if not verdict.is_equal:
                mismatch = verdict
                break
        record(
            "mutation sensitivity (flipped sequencing success condition)",
            mismatch is not None,
            f"first witness: {ccsp.pretty_print(mismatch.term) if mismatch else 'none'}",
        )
    finally:
        ccsp.clear_caches()
