"""Alternating parent/change benchmark pairs, recorded as JSON.

    python3 tools/abbench.py PARENT CHANGE --workload campaign \
        --seeds 901 902 903 --out BENCH_7.json [--trace] [--claim verdicts_per_s]

PARENT and CHANGE are two checkouts of the repository.  For each seed the
script runs `perfbench/run.py` once in each checkout, at the benchmark's own
run length, alternating which side runs first (parent first on the first
seed), and appends every run's final JSON line to OUT with the side, the
checkout's git sha (and whether its `src/` differs from that commit), a
SHA-256 of its `src/` tree, the workload and the seed.  OUT is rewritten
after every run, so an interrupted series keeps what it measured.  At the
end it prints, per metric, each side's median and quartiles over this
invocation's pairs (a pair is one seed's two runs, whatever the seed) and the
number of pairs the change won.  For each end-to-end metric it states
whether the change's median is within that metric's bound in
`BENCHMARK.json`, and whether the parent's own quartiles lie further apart
than the bound (then the comparison is unresolved).  For the metric named by
`--claim` it states the claim rule: did the change win at least 9/10 of the
pairs, and is its median gain larger than the distance between the parent's
quartiles?  Standard library only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: The benchmark's declaration: each metric's direction, and each
#: end-to-end metric's bound.
BENCHMARK = Path(__file__).resolve().parents[1] / "BENCHMARK.json"


def checkout_id(root: Path) -> dict:
    """The git sha of a checkout, whether its `src/` differs from that
    commit, and a digest of its `src/` files (path and bytes, sorted)."""
    digest = hashlib.sha256()
    for path in sorted((root / "src").rglob("*.py")):
        digest.update(str(path.relative_to(root)).encode() + b"\0" + path.read_bytes() + b"\0")

    def git(*args: str) -> str | None:
        proc = subprocess.run(["git", "-C", str(root), *args], capture_output=True, text=True)
        return proc.stdout.strip() if proc.returncode == 0 else None

    sha = git("rev-parse", "HEAD")
    dirty = bool(git("status", "--porcelain", "--", "src")) if sha else None
    return {"sha": sha, "src_dirty": dirty, "src_sha256": digest.hexdigest()}


def run_once(root: Path, workload: str, seed: int, trace: bool) -> dict:
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
           "--trace", str(int(trace))]
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{root}: {' '.join(cmd)} exited {proc.returncode}: "
                           f"{proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else values * 3


def summarize(pairs: list[dict[str, dict]], claim: str) -> None:
    """Print each metric's medians and wins over `pairs`, each a mapping
    side -> that run's metrics, and judge it: the claim rule for `claim`,
    the benchmark's bound for every end-to-end metric."""
    declared = json.loads(BENCHMARK.read_text())
    specs = {m["name"]: m for m in declared["end_to_end"] + declared["per_layer"]}
    yes_no = {True: "yes", False: "NO"}
    for name in pairs[0]["parent"] if pairs else ():
        spec = specs.get(name)
        if spec is None:
            continue
        higher = spec["better"] == "higher"
        parent = [p["parent"][name]["value"] for p in pairs]
        change = [p["change"][name]["value"] for p in pairs]
        wins = sum((c > p) if higher else (c < p) for p, c in zip(parent, change))
        qp, qc = quartiles(parent), quartiles(change)
        line = (f"{name}: parent median {qp[1]:.6g} (quartiles {qp[0]:.6g}-{qp[2]:.6g}); "
                f"change median {qc[1]:.6g} (quartiles {qc[0]:.6g}-{qc[2]:.6g}); "
                f"change better in {wins}/{len(pairs)} pairs")
        if name == claim:
            gain = qc[1] - qp[1] if higher else qp[1] - qc[1]
            spread = qp[2] - qp[0]
            line += (f"; claim rule: wins >= 9/10 of pairs: {yes_no[10 * wins >= 9 * len(pairs)]}, "
                     f"median gain {gain:.6g} > parent interquartile range {spread:.6g}: "
                     f"{yes_no[gain > spread]}")
        if "bound" in spec:
            bound = spec["bound"]
            limit = qp[1] * (1 - bound if higher else 1 + bound)
            within = qc[1] >= limit if higher else qc[1] <= limit
            line += f"; within its {bound:.0%} bound ({limit:.6g}): {yes_no[within]}"
            if qp[2] - qp[0] > bound * abs(qp[1]):
                line += " (unresolved: the parent's quartiles lie further apart than the bound)"
        print(line)


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", action="store_true", help="per-layer metrics (perfbench --trace 1)")
    ap.add_argument("--claim", metavar="METRIC",
                    help="the metric the change claims to improve, judged by the claim rule")
    ap.add_argument("--out", type=Path, required=True, help="JSON list to append the runs to")
    args = ap.parse_args()

    records = json.loads(args.out.read_text()) if args.out.exists() else []
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ids = {side: checkout_id(root) for side, root in sides.items()}
    new, pairs = [], []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        pair = {}
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.trace)
            pair[side] = result["metrics"]
            record = {"side": side, **ids[side], "workload": args.workload, "seed": seed,
                      "trace": args.trace, "result": result}
            new.append(record)
            args.out.write_text(json.dumps(records + new, indent=1) + "\n")
            value = result["metrics"].get("verdicts_per_s", {}).get("value")
            print(f"seed {seed} {side}: verdicts_per_s {value}", flush=True)
        pairs.append(pair)
    summarize(pairs, args.claim)
    return 0


if __name__ == "__main__":
    sys.exit(main())
