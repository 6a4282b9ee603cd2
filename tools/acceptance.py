"""Print the acceptance table: exit code, wall time and peak RSS of the
nine acceptance workloads.

    python3 tools/acceptance.py [CHECKOUT ...] [--runs N]

Each workload is one CLI argv, listed in `WORKLOADS`.  It runs through
`ccsp.cli.run` in a fresh process against a checkout's `src/`
(PYTHONPATH=<checkout>/src), with the command's stdout sent to the null
device.  The child reports the exit
code, the wall time of the `run` call and its own peak resident set size
(`ru_maxrss`).  CHECKOUT defaults to the checkout this script sits in.  With
several checkouts, each round runs every workload once in each checkout,
alternating which checkout goes first, so that parent and change can be
compared on the same machine.  `--runs N` makes N rounds; the table then
gives each figure's range over them.  Below the table, each checkout's
`src/` line count (newlines in its `*.py` files, as `wc -l` counts them),
per module and in total.  An argv longer than 120 characters (the tree
rows') is cut short in the table.
Runs are one at a time, so the table needs about one minute per round and
checkout.  Standard library only; not a Tier-1 test.
"""
from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _tree(events: int) -> str:
    """The balanced `;` tree of `events` copies of `a`, in concrete syntax."""
    level = ["a"] * events
    while len(level) > 1:
        level = [f"({level[i]} ; {level[i + 1]})" for i in range(0, len(level), 2)]
    return level[0]


#: name -> (what it checks, argv)
WORKLOADS = {
    "standard": ("standard, <= 3 ops over a,b (961 380 terms)",
                 ["enumerate", "--max-ops", "3", "--alphabet", "a,b", "--check"]),
    "compensable": ("compensable, <= 2 ops, pair cap 1 (487 525 terms)",
                    ["enumerate", "--max-ops", "2", "--alphabet", "a,b", "--kind", "comp",
                     "--max-pair-ops", "1", "--check"]),
    "prop": ("prop, 2 000 cases, depth 5, both kinds",
             ["prop", "--seed", "42", "--cases", "2000", "--max-depth", "5"]),
    "laws": ("laws 1-7, 500 tuples each, depth 4",
             ["prop", "--seed", "42", "--cases", "0", "--lemmas", "--max-depth", "4"]),
    "check": ("largest one-term check, two 9-event chains in parallel",
              ["check", "(x0 ; x1 ; x2 ; x3 ; x4 ; x5 ; x6 ; x7 ; x8)"
                        " || (y0 ; y1 ; y2 ; y3 ; y4 ; y5 ; y6 ; y7 ; y8)"]),
    "tree": ("the balanced 1 024-event `;` tree of a, beside b (1 025 traces of 1 025 events)",
             ["check", f"{_tree(1024)} || b"]),
    "chains": ("three chains of 7, 7 and 3 events in parallel (2 333 760 traces)",
               ["check", "(a ; b ; c ; d ; e ; f ; g) || (h ; i ; j ; k ; l ; m ; n)"
                         " || (o ; p ; q)"]),
    "traces": ("every trace of two 9-event chains in parallel (48 620), from both semantics",
               ["traces", "--semantics", "both", "(x0 ; x1 ; x2 ; x3 ; x4 ; x5 ; x6 ; x7 ; x8)"
                " || (y0 ; y1 ; y2 ; y3 ; y4 ; y5 ; y6 ; y7 ; y8)"]),
    "tree traces": ("every trace of the 1 024-event tree beside b, from both semantics",
                    ["traces", "--semantics", "both", f"{_tree(1024)} || b"]),
}

#: Runs in the child: one `cli.run` call, then its figures as one JSON line.
CHILD = """\
import json, os, resource, sys, time
from contextlib import redirect_stdout
from ccsp.cli import run
with open(os.devnull, "w") as sink, redirect_stdout(sink):
    t0 = time.perf_counter()
    code = run(sys.argv[1:])
    wall = time.perf_counter() - t0
rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
print(json.dumps({"code": code, "wall_s": wall, "rss_mib": rss}))
"""


def run_once(checkout: Path, argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-c", CHILD, *argv], env=env,
                          capture_output=True, text=True)
    if proc.returncode != 0 or not proc.stdout.strip():
        raise RuntimeError(f"{checkout}: {' '.join(argv)} failed: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def span(values: list[float], fmt: str) -> str:
    low, high = format(min(values), fmt), format(max(values), fmt)
    return low if low == high else f"{low}-{high}"


def src_lines(checkout: Path) -> dict[str, int]:
    """Newlines per `*.py` file under the checkout's `src/`, by relative path."""
    src = checkout / "src"
    return {str(path.relative_to(src)): path.read_bytes().count(b"\n")
            for path in sorted(src.rglob("*.py"))}


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("checkouts", type=Path, nargs="*", default=[ROOT])
    ap.add_argument("--runs", type=int, default=1, help="rounds of every workload")
    args = ap.parse_args()

    checkouts = [c.resolve() for c in args.checkouts]
    results: dict[tuple[Path, str], list[dict]] = {}
    for i in range(args.runs):
        order = checkouts if i % 2 == 0 else checkouts[::-1]
        for name, (_, argv) in WORKLOADS.items():
            for checkout in order:
                result = run_once(checkout, argv)
                results.setdefault((checkout, name), []).append(result)
                print(f"round {i + 1} {name} {checkout}: {json.dumps(result)}",
                      file=sys.stderr, flush=True)

    print("| checkout | acceptance workload | argv | exit | wall | peak RSS |")
    print("|---|---|---|---|---|---|")
    for name, (label, argv) in WORKLOADS.items():
        for checkout in checkouts:
            runs = results[checkout, name]
            codes = ",".join(sorted({str(r["code"]) for r in runs}))
            shown = " ".join(argv)
            shown = (shown if len(shown) <= 120 else shown[:117] + "...").replace("|", "\\|")
            print(f"| {checkout} | {label} | `{shown}` | {codes} | "
                  f"{span([r['wall_s'] for r in runs], '.1f')} s | "
                  f"{span([r['rss_mib'] for r in runs], '.0f')} MiB |")
    print()
    for checkout in checkouts:
        lines = src_lines(checkout)
        per_module = ", ".join(f"{name} {count}" for name, count in lines.items())
        print(f"{checkout}: `src/` has {sum(lines.values())} lines ({per_module})")
    return 0


if __name__ == "__main__":
    sys.exit(main())
