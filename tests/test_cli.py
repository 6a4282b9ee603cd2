import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import ccsp
from ccsp import cli
from ccsp.cli import run
from ccsp.denotational import traces_compensable, traces_standard
from ccsp.parser import parse_compensable, parse_standard
from ccsp.terms import pair_from_tokens, trace_from_tokens


def invoke(argv):
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = run(argv)
    return code, out.getvalue(), err.getvalue()


def test_check_equal_exits_zero():
    code, out, _ = invoke(["check", "SKIP ; THROW"])
    assert code == 0
    assert "status: equal" in out


def test_check_null_is_a_parse_error():
    code, _, err = invoke(["check", "0"])
    assert code == 2
    assert "parse error" in err


def test_deep_nesting_exits_two():
    code, out, err = invoke(["check", "(" * 196 + "a" + ")" * 196])
    assert code == 2
    assert out == ""
    assert "parse error" in err and "nested brackets" in err


@pytest.mark.parametrize("command", ["check", "lts"])
def test_long_sequence_chain_exits_zero(command):
    # Rendering the term must not take one interpreter frame per operand.
    chain = " ; ".join(["a"] * 500)
    code, out, err = invoke([command, chain])
    assert code == 0
    assert chain in out
    assert err == ""


def test_usage_error_exits_two():
    code, _, _ = invoke(["check"])
    assert code == 2
    code, _, _ = invoke(["bogus"])
    assert code == 2


def test_traces_both_semantics_agree_in_output():
    code, out, _ = invoke(["traces", "a [] b", "--semantics", "both"])
    assert code == 0
    assert (
        out
        == "denotational:\n<a,*>\n<b,*>\noperational:\n<a,*>\n<b,*>\n"
    )


def test_traces_alphabet_violation_is_usage_error():
    code, _, err = invoke(["traces", "a ; b", "--alphabet", "a"])
    assert code == 2
    assert "not in declared alphabet" in err


def test_traces_machine_round_trips():
    code, out, _ = invoke(
        ["traces", "a ; (SKIP [] THROW)", "--format", "machine", "--semantics", "both"]
    )
    assert code == 0
    record = json.loads(out)
    term = parse_standard(record["term"])
    for tokens_set in record["sets"].values():
        assert {trace_from_tokens(t) for t in tokens_set} == traces_standard(term)


def test_traces_machine_round_trips_compensable():
    code, out, _ = invoke(
        ["traces", "a % b [] THROWW", "--kind", "comp", "--format", "machine"]
    )
    assert code == 0
    record = json.loads(out)
    term = parse_compensable(record["term"])
    for tokens_set in record["sets"].values():
        assert {pair_from_tokens(p) for p in tokens_set} == traces_compensable(term)


def test_check_machine_record_fields():
    code, out, _ = invoke(["check", "a % b", "--kind", "comp", "--format", "machine"])
    assert code == 0
    record = json.loads(out)
    assert record["status"] == "equal"
    assert record["only_operational"] == []
    assert record["only_denotational"] == []
    assert record["term"] == "a % b"


def test_lts_dot_to_stdout_and_file(tmp_path):
    code, out, _ = invoke(["lts", "a ; b"])
    assert code == 0
    assert out.startswith("digraph lts {")
    target = tmp_path / "g.dot"
    code, out, _ = invoke(["lts", "a ; b", "--out", str(target)])
    assert code == 0 and out == ""
    assert target.read_text().startswith("digraph lts {")


def test_prop_transcript_is_deterministic():
    args = ["prop", "--seed", "3", "--cases", "40", "--max-depth", "4", "--kind", "both"]
    first = invoke(args)
    second = invoke(args)
    assert first == second
    code, out, _ = first
    assert code == 0
    assert "equal 40/40" in out
    assert "healthy 40/40" in out


def test_prop_with_lemma_suites():
    code, out, _ = invoke(
        ["prop", "--seed", "5", "--cases", "4", "--max-depth", "3", "--lemmas",
         "--lemma-cases", "20"]
    )
    assert code == 0
    assert "lemmas equal 140/140" in out
    for lemma in range(1, 8):
        assert f"lemma {lemma} " in out


def test_enumerate_listing_matches_check_counts():
    code, out, _ = invoke(["enumerate", "--max-ops", "0", "--alphabet", "a,b"])
    assert code == 0
    assert out.splitlines()[1:] == ["a", "b", "SKIP", "THROW", "YIELD"]

    code, out, _ = invoke(["enumerate", "--max-ops", "1", "--alphabet", "a", "--check"])
    assert code == 0
    assert "ops 0: 4 terms, 4 equal" in out
    assert "ops 1: 80 terms, 80 equal" in out
    assert "total 84 terms, 84 equal, 0 mismatches" in out
    assert "healthy 84/84" in out


def test_enumerate_compensable_with_pair_cap():
    code, out, _ = invoke(
        ["enumerate", "--max-ops", "1", "--alphabet", "a", "--kind", "comp",
         "--max-pair-ops", "0", "--check"]
    )
    assert code == 0
    # pairs over leaves only: 16 at zero ops, 3*16*16 binaries at one op
    assert "ops 0: 16 terms, 16 equal" in out
    assert "ops 1: 768 terms, 768 equal" in out


def test_example_warehouse_passes():
    code, out, _ = invoke(["example", "warehouse"])
    assert code == 0
    assert "traces (420):" in out
    assert out.count("pass:") == 5
    assert "FAIL" not in out


def _goldens() -> list:
    """One param per `=== command kind :: term` section: header, expected stdout."""
    text = (Path(__file__).parent / "data" / "cli_golden.txt").read_text(encoding="utf-8")
    sections = []
    for line in text.splitlines(keepends=True):
        if line.startswith("=== "):
            sections.append([line[4:].rstrip("\n"), ""])
        elif sections:
            sections[-1][1] += line
    return [pytest.param(header, out, id=header) for header, out in sections]


@pytest.mark.parametrize("header,expected", _goldens())
def test_lts_and_traces_output_is_pinned(header, expected):
    # `lts` shows the canonical step order: terminals first, then events
    # alphabetically, then successors by rendering.
    command, rest = header.split(" ", 1)
    kind, term = rest.split(" :: ", 1)
    argv = [command, "--kind", kind, term]
    if command == "traces":
        argv += ["--semantics", "both"]
    code, out, _ = invoke(argv)
    assert code == 0
    assert out == expected


# -- the cyclic collector ---------------------------------------------------


def _garbage_after(argv) -> int:
    """Objects the cyclic collector finds after one `run` with it off."""
    ccsp.clear_caches()
    gc.collect()
    gc.disable()
    try:
        invoke(argv)
        return gc.collect()
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "small,large",
    [
        (["prop", "--cases", "10"],
         ["prop", "--cases", "300", "--lemmas", "--lemma-cases", "50"]),
        (["enumerate", "--max-ops", "1", "--check"],
         ["enumerate", "--max-ops", "2", "--check"]),
        (["enumerate", "--max-ops", "1", "--check", "--kind", "comp"],
         ["enumerate", "--max-ops", "2", "--check", "--kind", "comp",
          "--alphabet", "a", "--max-pair-ops", "0"]),
    ],
    ids=["prop", "enumerate-std", "enumerate-comp"],
)
def test_campaign_leaves_no_cyclic_garbage(small, large):
    # `run` keeps the collector off because terms, traces and memo tables
    # are acyclic: whatever cyclic garbage a call leaves (the argument
    # parser's) must not grow with the size of the campaign.
    _garbage_after(small)  # first-call garbage (lazy imports) out of the way
    assert _garbage_after(large) <= _garbage_after(small)


@pytest.mark.parametrize(
    "argv,code",
    [
        (["check", "a ; b"], 0),
        (["prop", "--cases", "5", "--state-cap", "1"], 1),
        (["check", "a ;"], 2),
        (["check", "--no-such-option", "a"], 2),
    ],
    ids=["equal", "state-cap", "parse-error", "usage-error"],
)
@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_run_restores_the_collector(argv, code, collecting):
    (gc.enable if collecting else gc.disable)()
    try:
        assert invoke(argv)[0] == code
        assert gc.isenabled() == collecting
    finally:
        gc.enable()


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_run_restores_the_collector_when_a_command_raises(monkeypatch, collecting):
    seen = []

    def failing_dispatch(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setattr(cli, "_dispatch", failing_dispatch)
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            run(["check", "a"])
        assert seen == [False]
        assert gc.isenabled() == collecting
    finally:
        gc.enable()
