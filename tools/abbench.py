"""Alternating parent/change benchmark pairs, recorded as JSON.

    python3 tools/abbench.py PARENT CHANGE --workload campaign \
        --seeds 901 902 903 --out BENCH_7.json [--trace]

PARENT and CHANGE are two checkouts of the repository.  For each seed the
script runs `perfbench/run.py` once in each checkout, at the benchmark's own
run length, alternating which side runs first (parent first on the first
seed), and appends every run's final JSON line to OUT with the side, the
checkout's git sha (and whether its `src/` differs from that commit), a
SHA-256 of its `src/` tree, the workload and the seed.  OUT is rewritten
after every run, so an interrupted series keeps what it measured.  At the
end it prints, per end-to-end metric, each side's median and quartiles over
this invocation and the number of pairs the change won.  Standard library
only.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import statistics
import subprocess
import sys
from pathlib import Path

#: For each end-to-end metric, whether a higher value is better.
HIGHER_IS_BETTER = {
    "verdicts_per_s": True, "setup_s": False, "peak_rss_mib": False,
    "latency_p50_ms": False, "latency_p90_ms": False,
}


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


def summarize(records: list[dict]) -> None:
    by_seed: dict[int, dict[str, dict]] = {}
    for r in records:
        by_seed.setdefault(r["seed"], {})[r["side"]] = r["result"]["metrics"]
    pairs = [p for p in by_seed.values() if len(p) == 2]
    for metric, higher in HIGHER_IS_BETTER.items():
        if not pairs or metric not in pairs[0]["parent"]:
            continue
        values = {side: [p[side][metric]["value"] for p in pairs] for side in ("parent", "change")}
        pairs_of_values = zip(values["parent"], values["change"])
        wins = sum((c > p) if higher else (c < p) for p, c in pairs_of_values)
        cells = []
        for side, vs in values.items():
            q = statistics.quantiles(vs, n=4) if len(vs) > 1 else [vs[0]] * 3
            cells.append(f"{side} median {q[1]:.6g} (quartiles {q[0]:.6g}-{q[2]:.6g})")
        print(f"{metric}: {'; '.join(cells)}; change better in {wins}/{len(pairs)} pairs")


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=int, nargs="+", required=True)
    ap.add_argument("--trace", action="store_true", help="per-layer metrics (perfbench --trace 1)")
    ap.add_argument("--out", type=Path, required=True, help="JSON list to append the runs to")
    args = ap.parse_args()

    records = json.loads(args.out.read_text()) if args.out.exists() else []
    sides = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    ids = {side: checkout_id(root) for side, root in sides.items()}
    new = []
    for i, seed in enumerate(args.seeds):
        order = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        for side in order:
            result = run_once(sides[side], args.workload, seed, args.trace)
            record = {"side": side, **ids[side], "workload": args.workload, "seed": seed,
                      "trace": args.trace, "result": result}
            new.append(record)
            args.out.write_text(json.dumps(records + new, indent=1) + "\n")
            value = result["metrics"].get("verdicts_per_s", {}).get("value")
            print(f"seed {seed} {side}: verdicts_per_s {value}", flush=True)
    summarize(new)
    return 0


if __name__ == "__main__":
    sys.exit(main())
