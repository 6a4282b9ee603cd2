import gc
import io
import json
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path

import pytest

import ccsp
from ccsp import cli, denotational, equivalence, operational
from ccsp.cli import run
from ccsp.denotational import traces_compensable, traces_standard
from ccsp.equivalence import enumerate_terms
from ccsp.parser import MAX_DEPTH, MAX_NESTING, parse_compensable, parse_standard
from ccsp.terms import Terminal, Trace, by_sort_key, term_depth


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


# Input shapes whose depth grows with their length, each built to exactly
# `depth` constructors.
_DEEP_SHAPES = {
    "seq": lambda depth: " ; ".join(["a"] * depth),
    "choice": lambda depth: " [] ".join(["a"] * depth),
    "interrupt": lambda depth: " |> ".join(["THROW"] * (depth - 1) + ["a"]),
    "block-cseq": lambda depth: "[ " + " ; ".join(["a % b"] * (depth - 2)) + " ]",
    # The throw runs the whole banked compensation, a run as long as the term.
    "block-cseq-throw": lambda depth: "[ " + " ; ".join(["a % b"] * (depth - 3)) + " ; THROWW ]",
}


@pytest.mark.parametrize("command", ["check", "lts", "traces"])
@pytest.mark.parametrize("shape", _DEEP_SHAPES.values(), ids=_DEEP_SHAPES)
def test_depth_limit_on_cli_input(shape, command):
    assert term_depth(parse_standard(shape(MAX_DEPTH))) == MAX_DEPTH
    # Fresh memo tables: entries left by a shallower term would shorten
    # the recursion and hide a failure.
    ccsp.clear_caches()
    code, out, err = invoke([command, shape(MAX_DEPTH)])
    assert (code, err) == (0, "")
    assert out
    code, out, err = invoke([command, shape(MAX_DEPTH + 1)])
    assert (code, out) == (2, "")
    assert f"parse error: at offset 0: expected a term at most {MAX_DEPTH} deep" in err


def _balanced_seq(n: int) -> str:
    """A balanced `;` tree of 2**n events, n + 1 constructors deep."""
    return "a" if n == 0 else f"({_balanced_seq(n - 1)} ; {_balanced_seq(n - 1)})"


def test_balanced_tree_of_1024_events_gets_a_verdict():
    # Shallow enough for the parser, and no derived run or shuffle recurses
    # once per event, so 1 024 events no longer end in a RecursionError.
    text = _balanced_seq(10)
    assert term_depth(parse_standard(text)) == 11
    code, out, err = invoke(["check", text])
    assert (code, err) == (0, "")
    assert "status: equal" in out
    code, out, err = invoke(["traces", "--semantics", "operational", text])
    assert (code, out, err) == (0, "<" + "a," * 1024 + "*>\n", "")
    code, out, err = invoke(["check", f"{text} || b"])
    assert (code, err) == (0, "")
    assert "status: equal" in out


@pytest.mark.parametrize(
    "argv", [["check"], ["traces", "--semantics", "operational"]], ids=["check", "traces"]
)
def test_term_too_large_to_explore_exits_one(argv, monkeypatch):
    # Six interleaved events reach 64 states, more than the lowered cap: the
    # one "too large" outcome left is the state cap, never a RecursionError.
    monkeypatch.setattr(operational, "STATE_CAP", 32)
    code, out, err = invoke([*argv, "a || b || c || d || e || f"])
    assert (code, out) == (1, "")
    assert err == "error: state cap exceeded: more than 32 states explored\n"
    assert invoke(["check", "a ; b"])[0] == 0


@pytest.mark.parametrize(
    "argv",
    [["check"], ["traces", "--semantics", "both"],
     ["check", "--kind", "comp"], ["traces", "--kind", "comp", "--semantics", "both"]],
    ids=["check", "traces", "check-comp", "traces-comp"],
)
def test_state_cap_stops_a_one_term_command_before_the_trace_semantics(argv, monkeypatch):
    # The operational walk runs first, so no trace set is built.
    monkeypatch.setattr(operational, "STATE_CAP", 32)
    term = " || ".join(f"{e} % {e}'" if "comp" in argv else e for e in "abcdef")
    code, out, err = invoke([*argv, term])
    assert (code, out) == (1, "")
    assert err == "error: state cap exceeded: more than 32 states explored\n"
    assert denotational.cache_size() == 0


# Right-nested chains, as deep as the bracket limit lets them be.
_RIGHT_CHAINS = {
    name: f" {op} (".join(leaves[:MAX_NESTING + 1]) + ")" * MAX_NESTING
    for name, op, leaves in (
        ("seq", ";", ["a", "b"] * MAX_NESTING),
        ("choice", "[]", ["a", "b"] * MAX_NESTING),
        ("interrupt", "|>", ["THROW"] * MAX_NESTING + ["a"]),
    )
}


@pytest.mark.parametrize("command", ["check", "traces", "lts"])
@pytest.mark.parametrize("shape", list(_RIGHT_CHAINS))
def test_right_nested_chains_end_in_a_verdict_or_the_state_cap(shape, command):
    text = _RIGHT_CHAINS[shape]
    assert term_depth(parse_standard(text)) == MAX_NESTING + 1
    code, out, err = invoke([command, text])
    if code == 1:
        assert (out, err[:26]) == ("", "error: state cap exceeded:")
    else:
        assert (code, err) == (0, "")
        assert out


def test_usage_error_exits_two():
    code, _, _ = invoke(["check"])
    assert code == 2
    code, _, _ = invoke(["bogus"])
    assert code == 2


def test_back_to_back_runs_share_no_options():
    code, out, _ = invoke(
        ["traces", "--kind", "comp", "--alphabet", "a,b", "--semantics", "operational",
         "--format", "machine", "a % b"]
    )
    assert code == 0 and out.startswith("{")
    both = "denotational:\n<{0},*>\noperational:\n<{0},*>\n"
    assert invoke(["traces", "a"]) == (0, both.format("a"), "")
    # `c` is outside the alphabet the first call declared.
    assert invoke(["traces", "c"]) == (0, both.format("c"), "")


@pytest.mark.parametrize(
    "argv",
    [["check", "--no-such-option", "a"], ["check"], ["traces", "--alphabet", "1x", "a"]],
    ids=["top-level", "missing-term", "bad-alphabet"],
)
def test_usage_errors_print_what_a_fresh_parser_prints(argv):
    err = io.StringIO()
    with redirect_stderr(err), pytest.raises(SystemExit) as exc:
        cli._build_parser.__wrapped__().parse_args(argv)
    assert exc.value.code == 2
    for _ in range(2):
        assert invoke(argv) == (2, "", err.getvalue())


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


def _tokens(t):
    """A trace as the machine format writes it: its events, then its glyph."""
    return [*t.events, t.terminal.glyph]


def test_traces_machine_round_trips():
    code, out, _ = invoke(
        ["traces", "a ; (SKIP [] THROW)", "--format", "machine", "--semantics", "both"]
    )
    assert code == 0
    record = json.loads(out)
    term = parse_standard(record["term"])
    expected = [_tokens(t) for t in sorted(traces_standard(term), key=by_sort_key)]
    for tokens_set in record["sets"].values():
        assert tokens_set == expected


def test_traces_machine_round_trips_compensable():
    code, out, _ = invoke(
        ["traces", "a % b [] THROWW", "--kind", "comp", "--format", "machine"]
    )
    assert code == 0
    record = json.loads(out)
    term = parse_compensable(record["term"])
    expected = [[_tokens(f), _tokens(c)] for f, c in sorted(traces_compensable(term), key=by_sort_key)]
    for tokens_set in record["sets"].values():
        assert tokens_set == expected


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


@pytest.mark.parametrize("where", ["directory", "missing-parent"])
def test_lts_unwritable_out_is_a_usage_error(tmp_path, where):
    target = tmp_path if where == "directory" else tmp_path / "missing" / "g.dot"
    code, out, err = invoke(["lts", "a ; b", "--out", str(target)])
    assert code == 2
    assert out == ""
    assert err.startswith(f"error: cannot write {target}: ")


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


def test_prop_state_cap_bounds_the_law_suites(monkeypatch):
    monkeypatch.setattr(operational, "STATE_CAP", 1)
    code, out, err = invoke(["prop", "--cases", "0", "--lemmas", "--lemma-cases", "3"])
    assert code == 1
    assert "lemmas equal" not in out
    assert err == "error: state cap exceeded: more than 1 states explored\n"


def test_state_cap_outcome_does_not_depend_on_earlier_commands(monkeypatch):
    # Each command starts from empty memo tables: a run of the same campaign
    # at the default cap must not leave states that a low-cap run then skips.
    argv = ["prop", "--seed", "3", "--cases", "200", "--max-depth", "4"]
    default = operational.STATE_CAP
    monkeypatch.setattr(operational, "STATE_CAP", 5)
    before = invoke(argv)
    monkeypatch.setattr(operational, "STATE_CAP", default)
    assert invoke(argv)[0] == 0
    monkeypatch.setattr(operational, "STATE_CAP", 5)
    assert invoke(argv) == before
    assert before[0] == 1
    assert before[2] == "error: state cap exceeded: more than 5 states explored\n"


def test_prop_lemma_transcript_is_pinned():
    # The golden file is the whole stdout of this command at a known-good
    # commit: the case lines, every law's line and its coverage counters.
    golden = Path(__file__).parent / "data" / "prop_lemmas_golden.txt"
    code, out, _ = invoke(
        ["prop", "--seed", "42", "--cases", "60", "--max-depth", "5", "--lemmas",
         "--lemma-cases", "60"]
    )
    assert code == 0
    assert out == golden.read_text(encoding="utf-8")


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


def test_repeated_alphabet_event_is_a_usage_error():
    code, out, err = invoke(["enumerate", "--max-ops", "0", "--alphabet", "a,a"])
    assert code == 2
    assert out == ""
    assert "alphabet must list each event once" in err


@pytest.mark.parametrize(
    "text, names",
    [(",", ()), ("a,a", ("a", "a")), ("a,1x", ("a", "1x")), ("THROW", ("THROW",))],
    ids=["empty", "repeated", "malformed", "reserved"],
)
def test_alphabet_usage_error_reads_as_the_library_error(text, names):
    with pytest.raises(ValueError) as library:
        next(enumerate_terms(0, names))
    code, out, err = invoke(["enumerate", "--max-ops", "0", "--alphabet", text])
    assert (code, out) == (2, "")
    assert err.splitlines()[-1] == f"ccsp enumerate: error: argument --alphabet: {library.value}"


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
    # are acyclic and the argument parser is built once: a call leaves no
    # cyclic garbage, whatever the size of the campaign.
    _garbage_after(small)  # first-call garbage (lazy imports) out of the way
    assert _garbage_after(small) == 0
    assert _garbage_after(large) == 0


@pytest.mark.parametrize(
    "argv,code,cap",
    [
        (["check", "a ; b"], 0, None),
        (["prop", "--cases", "5"], 1, 1),
        (["check", "a ;"], 2, None),
        (["check", "--no-such-option", "a"], 2, None),
    ],
    ids=["equal", "state-cap", "parse-error", "usage-error"],
)
@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_run_restores_the_collector(monkeypatch, argv, code, cap, collecting):
    if cap is not None:
        monkeypatch.setattr(operational, "STATE_CAP", cap)
    (gc.enable if collecting else gc.disable)()
    try:
        assert invoke(argv)[0] == code
        assert gc.isenabled() == collecting
    finally:
        gc.enable()


@pytest.mark.parametrize(
    "argv, message",
    [
        (["prop", "--max-depth", "0", "--cases", "2"], "must be at least 1, got 0"),
        (["enumerate", "--max-ops", "-1"], "must be at least 0, got -1"),
        (["prop", "--cases", "-3"], "must be at least 0, got -3"),
        (["prop", "--lemmas", "--lemma-cases", "-1"], "must be at least 0, got -1"),
        (["enumerate", "--max-ops", "1", "--kind", "comp", "--max-pair-ops", "-1"],
         "must be at least 0, got -1"),
        # Not an integer at all.
        (["prop", "--cases", "abc"], "invalid int value: 'abc'"),
        (["enumerate", "--max-ops", "1.5"], "invalid int value: '1.5'"),
    ],
    ids=["max-depth", "max-ops", "cases", "lemma-cases", "max-pair-ops",
         "cases-not-int", "max-ops-not-int"],
)
def test_out_of_range_numeric_option_is_a_usage_error(argv, message):
    code, out, err = invoke(argv)
    assert code == 2
    assert out == ""
    assert "usage:" in err and message in err
    assert "Traceback" not in err


@pytest.mark.parametrize(
    "argv", [["prop"], ["enumerate", "--max-ops", "1"]], ids=["prop", "enumerate"]
)
def test_state_cap_is_not_an_option(argv):
    # The cap is a constant of `ccsp.operational`, not a user setting.
    code, out, err = invoke([*argv, "--state-cap", "5"])
    assert code == 2
    assert out == ""
    assert "usage:" in err and "unrecognized arguments: --state-cap 5" in err


@pytest.mark.parametrize("collecting", [True, False], ids=["gc-on", "gc-off"])
def test_run_restores_the_collector_when_a_command_raises(monkeypatch, collecting):
    seen = []

    def failing_check(args):
        seen.append(gc.isenabled())
        raise RuntimeError("boom")

    monkeypatch.setitem(cli._COMMANDS, "check", failing_check)
    (gc.enable if collecting else gc.disable)()
    try:
        with pytest.raises(RuntimeError, match="boom"):
            run(["check", "a"])
        assert seen == [False]
        assert gc.isenabled() == collecting
    finally:
        gc.enable()


# -- the failure output paths ------------------------------------------------


@pytest.fixture
def seq_mutant(monkeypatch):
    """The acceptance mutant: the trace semantics' `;` continues after a
    throw instead of after success, so the two semantics disagree."""

    def mutant(p, q):
        if p.terminal is Terminal.THROW:
            return Trace(p.events + q.events, q.terminal)
        return p

    monkeypatch.setattr(denotational, "seq_traces", mutant)
    yield
    ccsp.clear_caches()


def test_check_prints_both_sides_of_a_mismatch(seq_mutant):
    assert invoke(["check", "a ; THROW ; b"]) == (1, (
        "term: a ; THROW ; b\n"
        "status: mismatch\n"
        "only in operational semantics:\n"
        "<a,!>\n"
        "only in denotational semantics:\n"
        "<a,*>\n"
    ), "")
    code, out, err = invoke(["check", "a ; THROW ; b", "--format", "machine"])
    assert (code, err) == (1, "")
    assert json.loads(out) == {
        "command": "check", "kind": "std", "status": "mismatch", "term": "a ; THROW ; b",
        "only_operational": [["a", "!"]], "only_denotational": [["a", "*"]],
    }


def test_enumerate_check_prints_each_mismatch_with_its_witnesses(seq_mutant):
    code, out, err = invoke(["enumerate", "--max-ops", "1", "--alphabet", "a", "--check"])
    assert (code, err) == (1, "")
    assert out.splitlines()[:8] == [
        "enumerate max-ops=1 alphabet=a kind=std check=true",
        "MISMATCH a ; a",
        "  only operational: <a,a,*>",
        "  only denotational: <a,*>",
        "MISMATCH a ; THROW",
        "  only operational: <a,!>",
        "  only denotational: <a,*>",
        "MISMATCH a ; YIELD",
    ]
    assert out.count("MISMATCH") == 11
    assert out.splitlines()[-4:] == [
        "ops 0: 4 terms, 4 equal",
        "ops 1: 80 terms, 69 equal",
        "total 84 terms, 73 equal, 11 mismatches",
        "healthy 84/84",
    ]


def test_prop_prints_each_failing_case_with_its_witnesses(seq_mutant):
    assert invoke(["prop", "--seed", "2", "--cases", "4", "--max-depth", "2", "--kind", "std"]) == (
        1, (
            "prop seed=2 cases=4 max-depth=2 alphabet=a,b kind=std\n"
            "ok 0000 std YIELD |> b\n"
            "FAIL 0001 std a ; THROW\n"
            "  only operational: <a,!>\n"
            "  only denotational: <a,*>\n"
            "ok 0002 std a |> YIELD\n"
            "ok 0003 std b ; SKIP\n"
            "equal 3/4\n"
            "healthy 4/4\n"
        ), "")


def test_prop_lemmas_prints_the_operands_a_law_fails_on(seq_mutant):
    code, out, err = invoke(["prop", "--seed", "1", "--cases", "0", "--lemmas", "--lemma-cases",
                             "6", "--max-depth", "2", "--alphabet", "a"])
    assert (code, err) == (1, "")
    assert out.splitlines()[3:7] == [
        "lemma 1 seq-standard 3/6 equal",
        "  FAIL operands: (a |> SKIP), (YIELD)",
        "  FAIL operands: (SKIP ; THROW), (YIELD || a)",
        "  FAIL operands: ([ THROW % a ]), (THROW || a)",
    ]
    assert "FAIL" not in "".join(out.splitlines()[7:])
    assert out.endswith("lemmas equal 39/42\n")
    # Each printed operand parses back to the operand the law failed on.
    failures = equivalence.run_lemma_suite(1, 6, 1, 2, ("a",)).failures
    printed = [line.removeprefix("  FAIL operands: ") for line in out.splitlines()[4:7]]
    assert [tuple(map(parse_standard, ops.split(", "))) for ops in printed] == failures


@pytest.mark.parametrize(
    "argv, expected",
    [
        (["prop", "--seed", "2", "--cases", "2", "--max-depth", "2", "--kind", "std"],
         "prop seed=2 cases=2 max-depth=2 alphabet=a,b kind=std\n"
         "FAIL 0000 std YIELD |> b\n  healthiness violated\n"
         "FAIL 0001 std a ; THROW\n  healthiness violated\n"
         "equal 2/2\nhealthy 0/2\n"),
        # Every law holds, and the campaign's failure still sets the exit code.
        (["prop", "--seed", "2", "--cases", "2", "--max-depth", "2", "--kind", "std",
          "--lemmas", "--lemma-cases", "3"],
         "prop seed=2 cases=2 max-depth=2 alphabet=a,b kind=std\n"
         "FAIL 0000 std YIELD |> b\n  healthiness violated\n"
         "FAIL 0001 std a ; THROW\n  healthiness violated\n"
         "equal 2/2\nhealthy 0/2\n"
         "lemma 1 seq-standard 3/3 equal\nlemma 2 par-standard 3/3 equal\n"
         "lemma 3 seq-forward 3/3 equal cond-false=1 cond-true=3\n"
         "lemma 4 aux-removal 3/3 equal\nlemma 5 par-forward 3/3 equal\n"
         "lemma 6 pair 3/3 equal\nlemma 7 block 3/3 equal\nlemmas equal 21/21\n"),
        (["enumerate", "--max-ops", "0", "--alphabet", "a", "--check"],
         "enumerate max-ops=0 alphabet=a kind=std check=true\n"
         "UNHEALTHY a\nUNHEALTHY SKIP\nUNHEALTHY THROW\nUNHEALTHY YIELD\n"
         "ops 0: 4 terms, 4 equal\ntotal 4 terms, 4 equal, 0 mismatches\nhealthy 0/4\n"),
    ],
    ids=["prop", "prop-lemmas", "enumerate"],
)
def test_an_unhealthy_trace_set_fails_the_campaign(monkeypatch, argv, expected):
    monkeypatch.setattr(equivalence, "check_healthiness", lambda term: False)
    assert invoke(argv) == (1, expected, "")
