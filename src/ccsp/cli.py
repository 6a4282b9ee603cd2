"""Command-line front end.

Subcommands: `traces` (print trace sets), `check` (compare the two
semantics of one term), `lts` (export the transition graph as dot), `prop`
(seeded equivalence campaign, optionally with the decomposition-law
suites), `enumerate` (exhaustive equivalence check up to an operator
budget), and `example` (bundled scenarios).

Exit codes: 0 on success and agreement, 1 on any mismatch or failed check,
2 on parse or usage errors.  Output is deterministic for identical
arguments and seed.
"""
from __future__ import annotations

import argparse
import functools
import gc
import json
import sys
from collections import defaultdict
from itertools import islice
from typing import Iterator, Sequence

from . import warehouse
from .automata import clear_caches as clear_node_memos, language
from .denotational import clear_caches as clear_trace_memos, trace_node
from .equivalence import (
    LAWS,
    Verdict,
    check_compensable,
    check_standard,
    check_terms,
    enumerate_terms,
    run_lemma_suite,
    run_prop_campaign,
)
from .operational import (
    StateCapExceeded,
    build_lts,
    clear_caches as clear_step_memos,
    derived_node,
    forgetting,
)
from .parser import ParseError, parse_compensable, parse_standard
from .terms import (
    CompensableTerm,
    by_sort_key,
    check_alphabet,
    pair_tokens,
    pretty_print,
    term_op_count,
    trace_tokens,
    validate_user_term,
)


def _split_alphabet(text: str) -> tuple[str, ...]:
    try:
        return check_alphabet(part.strip() for part in text.split(",") if part.strip())
    except ValueError as e:
        raise argparse.ArgumentTypeError(str(e)) from None


def _int_at_least(low: int):
    """An argparse type for integer options that refuses values below `low`."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"invalid int value: {text!r}") from None
        if value < low:
            raise argparse.ArgumentTypeError(f"must be at least {low}, got {value}")
        return value

    return parse


_COUNT = _int_at_least(0)
_POSITIVE = _int_at_least(1)


def _set_tokens(traces, kind: str) -> list:
    tokens = trace_tokens if kind == "std" else pair_tokens
    return [tokens(t) for t in sorted(traces, key=by_sort_key)]


#: Members per write.  A chunk of the traces of `<tree> || b`, 2 KiB a
#: line, is 0.5 MiB: `traces` on it peaked at 27 MiB with 4 096 and at
#: 20.5 MiB with 256, with no change in time on either row of the
#: acceptance table.
_CHUNK = 256


def _chunks(items: Iterator) -> Iterator[list]:
    """`items` in lists of up to `_CHUNK`, so that output is written a
    chunk at a time, neither a line at a time nor all at once."""
    while chunk := list(islice(items, _CHUNK)):
        yield chunk


def _print_set(traces) -> None:
    for t in sorted(traces, key=by_sort_key):
        print(t)


def _print_witnesses(verdict: Verdict) -> None:
    """The members one semantics has and the other lacks, indented."""
    for name, traces in (("operational", verdict.only_operational),
                         ("denotational", verdict.only_denotational)):
        for t in sorted(traces, key=by_sort_key):
            print(f"  only {name}: {t}")


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    # Built once: building it cost more than a small `check`, and parsing
    # leaves it unchanged, so no call leaks options into the next.
    parser = argparse.ArgumentParser(
        prog="ccsp",
        description="Run and compare the operational and trace semantics of cCSP terms.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_term_command(name: str, help_text: str):
        p = sub.add_parser(name, help=help_text)
        p.add_argument("term", help="process term in concrete syntax")
        p.add_argument("--kind", choices=("std", "comp"), default="std")
        p.add_argument(
            "--alphabet",
            type=_split_alphabet,
            default=None,
            help="declared alphabet (comma-separated); default: inferred from the term",
        )
        return p

    p_traces = add_term_command("traces", "print the trace set(s) of a term")
    p_traces.add_argument(
        "--semantics",
        choices=("denotational", "operational", "both"),
        default="both",
    )
    p_traces.add_argument("--format", choices=("text", "machine"), default="text")

    p_check = add_term_command("check", "compare derived and compositional traces")
    p_check.add_argument("--format", choices=("text", "machine"), default="text")

    p_lts = add_term_command("lts", "write the labelled transition system as dot")
    p_lts.add_argument("--out", default=None, help="output file (default: stdout)")

    p_prop = sub.add_parser("prop", help="seeded randomized equivalence campaign")
    p_prop.add_argument("--seed", type=int, default=0)
    p_prop.add_argument("--cases", type=_COUNT, default=100)
    p_prop.add_argument("--max-depth", type=_POSITIVE, default=4)
    p_prop.add_argument("--alphabet", type=_split_alphabet, default=("a", "b"))
    p_prop.add_argument("--kind", choices=("std", "comp", "both"), default="both")
    p_prop.add_argument(
        "--lemmas",
        action="store_true",
        help="also run the decomposition-law suites (laws 1-7)",
    )
    p_prop.add_argument("--lemma-cases", type=_COUNT, default=500)

    p_enum = sub.add_parser(
        "enumerate", help="enumerate all terms up to an operator budget"
    )
    p_enum.add_argument("--max-ops", type=_COUNT, required=True)
    p_enum.add_argument("--alphabet", type=_split_alphabet, default=("a", "b"))
    p_enum.add_argument("--kind", choices=("std", "comp"), default="std")
    p_enum.add_argument(
        "--max-pair-ops",
        type=_COUNT,
        default=None,
        help="cap on operator count of each compensation-pair operand",
    )
    p_enum.add_argument(
        "--check",
        action="store_true",
        help="check semantic equivalence of every enumerated term",
    )

    p_example = sub.add_parser("example", help="run a bundled scenario")
    p_example.add_argument("name", choices=("warehouse",))

    return parser


def run(argv: Sequence[str] | None = None) -> int:
    """Entry point returning the exit code (no sys.exit).

    The cyclic collector is off while the command runs (and back on after,
    if it was on): terms, traces and memo tables are acyclic, so reference
    counting frees them, and the argument parser, which holds cycles, is
    built once per process and kept.  Rescanning that heap took 2.1 s of a
    9.1 s `enumerate --check` call over 111 089 terms, in 2 498 collections
    (2 cores, Python 3.11.7).

    Each command starts from empty memo tables, as in a fresh process: the
    state cap charges only states missing from them, so without the reset
    the output and exit code would depend on what ran before.
    """
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as e:
        return 2 if e.code not in (0, None) else 0

    clear_step_memos()
    clear_trace_memos()
    clear_node_memos()
    collecting = gc.isenabled()
    gc.disable()
    try:
        return _COMMANDS[args.command](args)
    except ParseError as e:
        print(f"parse error: {e}", file=sys.stderr)
        return 2
    except StateCapExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    finally:
        if collecting:
            gc.enable()


def _validated_term(args):
    term = (parse_standard if args.kind == "std" else parse_compensable)(args.term)
    violations = validate_user_term(term, args.alphabet)
    if violations:
        for v in violations:
            print(f"invalid term: {v}", file=sys.stderr)
        raise ParseError(0, "a valid user term", args.term)
    return term


def _cmd_traces(args) -> int:
    term = _validated_term(args)
    nodes = {}
    # The walk runs first and is dropped before the trace semantics runs;
    # the denotational set still prints first.
    if args.semantics != "denotational":
        with forgetting():
            nodes["operational"] = derived_node(term)
    if args.semantics != "operational":
        nodes = {"denotational": trace_node(term), **nodes}
    write = sys.stdout.write
    if args.format == "machine":
        tokens = trace_tokens if args.kind == "std" else pair_tokens
        record = {"command": "traces", "term": pretty_print(term), "kind": args.kind,
                  "sets": {name: [] for name in nodes}}
        # The record as `json.dumps` lays it out, each set streamed into the
        # place of its empty list: the sets come before the term.
        rest = json.dumps(record, sort_keys=True).split("[]", len(nodes))
        write(rest[0])
        for node, after in zip(nodes.values(), rest[1:]):
            write("[")
            sep = ""
            for chunk in _chunks(map(tokens, language(node))):
                write(sep + json.dumps(chunk)[1:-1])
                sep = ", "
            write("]" + after)
        write("\n")
        return 0
    for name, node in nodes.items():
        if len(nodes) > 1:
            write(f"{name}:\n")
        for chunk in _chunks(map(str, language(node))):
            write("\n".join(chunk) + "\n")
    return 0


def _verdict_record(term_text: str, kind: str, verdict: Verdict) -> dict:
    return {
        "command": "check",
        "term": term_text,
        "kind": kind,
        "status": verdict.status,
        "only_operational": _set_tokens(verdict.only_operational, kind),
        "only_denotational": _set_tokens(verdict.only_denotational, kind),
    }


def _cmd_check(args) -> int:
    term = _validated_term(args)
    verdict = (
        check_standard(term) if args.kind == "std" else check_compensable(term)
    )
    if args.format == "machine":
        print(json.dumps(_verdict_record(pretty_print(term), args.kind, verdict), sort_keys=True))
    else:
        print(f"term: {pretty_print(term)}")
        print(f"status: {verdict.status}")
        if not verdict.is_equal:
            print("only in operational semantics:")
            _print_set(verdict.only_operational)
            print("only in denotational semantics:")
            _print_set(verdict.only_denotational)
    return 0 if verdict.is_equal else 1


def _cmd_lts(args) -> int:
    term = _validated_term(args)
    dot = build_lts(term).to_dot()
    if args.out:
        try:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(dot + "\n")
        except OSError as e:
            print(f"error: cannot write {args.out}: {e.strerror or e}", file=sys.stderr)
            return 2
    else:
        print(dot)
    return 0


def _cmd_prop(args) -> int:
    print(
        f"prop seed={args.seed} cases={args.cases} max-depth={args.max_depth}"
        f" alphabet={','.join(args.alphabet)} kind={args.kind}"
    )
    equal = 0
    healthy = 0
    cases = run_prop_campaign(args.seed, args.cases, args.max_depth, args.alphabet, args.kind)
    for index, (term, verdict, is_healthy) in enumerate(cases):
        ok = verdict.is_equal
        equal += ok
        healthy += is_healthy
        marker = "ok" if ok and is_healthy else "FAIL"
        kind = "comp" if isinstance(term, CompensableTerm) else "std"
        print(f"{marker} {index:04d} {kind} {pretty_print(term)}")
        if not ok:
            _print_witnesses(verdict)
        if not is_healthy:
            print("  healthiness violated")
    print(f"equal {equal}/{args.cases}")
    print(f"healthy {healthy}/{args.cases}")

    lemma_total = 0
    lemma_equal = 0
    if args.lemmas:
        for lemma in sorted(LAWS):
            suite = run_lemma_suite(
                lemma, args.lemma_cases, args.seed, args.max_depth, args.alphabet
            )
            lemma_total += suite.total
            lemma_equal += suite.equal
            coverage = "".join(
                f" {key}={suite.coverage[key]}" for key in sorted(suite.coverage)
            )
            print(f"lemma {lemma} {suite.name} {suite.equal}/{suite.total} equal{coverage}")
            for operands in suite.failures[:5]:
                ops = ", ".join(f"({pretty_print(t)})" for t in operands)
                print(f"  FAIL operands: {ops}")
        print(f"lemmas equal {lemma_equal}/{lemma_total}")

    return 1 if equal < args.cases or healthy < args.cases or lemma_equal < lemma_total else 0


def _cmd_enumerate(args) -> int:
    print(
        f"enumerate max-ops={args.max_ops} alphabet={','.join(args.alphabet)}"
        f" kind={args.kind} check={str(args.check).lower()}"
    )
    terms = enumerate_terms(args.max_ops, args.alphabet, args.kind, args.max_pair_ops)
    if not args.check:
        for term in terms:
            print(pretty_print(term))
        return 0

    # Not `Counter`s: their increments took 2.5 times as long.
    terms_at: defaultdict[int, int] = defaultdict(int)  # terms per operator count
    equal_at: defaultdict[int, int] = defaultdict(int)  # equal verdicts per operator count
    unhealthy = 0
    for term, verdict, healthy in check_terms(terms):
        level = term_op_count(term)
        terms_at[level] += 1
        if verdict.is_equal:
            equal_at[level] += 1
        else:
            print(f"MISMATCH {pretty_print(term)}")
            _print_witnesses(verdict)
        if not healthy:
            unhealthy += 1
            print(f"UNHEALTHY {pretty_print(term)}")
    for level in sorted(terms_at):
        print(f"ops {level}: {terms_at[level]} terms, {equal_at[level]} equal")
    total, equal = sum(terms_at.values()), sum(equal_at.values())
    print(f"total {total} terms, {equal} equal, {total - equal} mismatches")
    print(f"healthy {total - unhealthy}/{total}")
    return 1 if equal < total or unhealthy else 0


def _cmd_example(args) -> int:
    report = warehouse.warehouse_report()
    print(f"term: {report.term_text}")
    print(f"traces ({len(report.traces)}):")
    for t in report.traces:
        print(t)
    print("report:")
    for name, passed, detail in report.checks:
        print(f"{'pass' if passed else 'FAIL'}: {name} ({detail})")
    return 0 if report.ok else 1


_COMMANDS = {
    "traces": _cmd_traces, "check": _cmd_check, "lts": _cmd_lts,
    "prop": _cmd_prop, "enumerate": _cmd_enumerate, "example": _cmd_example,
}


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
