"""Benchmark of the ccsp workbench.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

runs one workload for about S seconds in a worker process and prints, as
its last line, one JSON object: `correct`, `attempted`, `failed` and the
metrics (end-to-end with `--trace 0`, per-layer with `--trace 1`).  Without
`--workload` it runs every workload in turn.  Run it from the root of a
checkout: it uses the package under `src/` and exits with code 2, printing
no result, when there is none.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

#: Set-up samples per untraced run: this many probe processes plus the
#: measuring worker itself; the reported set-up time is their median.
SETUP_PROBES = 11
#: Every run must end well inside this many seconds.
RUN_LIMIT_S = 170


def spawn(args: list[str], deadline: float) -> str:
    """Start a worker, wait for it and return its stdout."""
    cmd = [sys.executable, str(HERE / "worker.py"), *args, "--spawned-at", repr(time.monotonic())]
    proc = subprocess.run(
        cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True,
        timeout=max(deadline - time.monotonic(), 1.0),
    )
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with code {proc.returncode}")
    return proc.stdout


def run_workload(name: str, seed: int, seconds: int, trace: bool) -> dict:
    deadline = time.monotonic() + RUN_LIMIT_S
    common = ["--workload", name, "--seed", str(seed), "--seconds", str(seconds)]
    setups = []
    if not trace:
        for _ in range(SETUP_PROBES):
            setups.append(json.loads(spawn([*common, "--probe"], deadline).splitlines()[-1])["setup_s"])
    extra = ["--trace", "1", "--spans-out", str(HERE / "out" / f"spans-{name}-{seed}.json")] if trace else []
    out = spawn([*common, *extra], deadline).splitlines()
    for line in out[:-1]:
        print(f"[{name}] {line}")
    result = json.loads(out[-1])
    if not trace:
        setups.append(result["metrics"]["setup_s"]["value"])
        result["metrics"]["setup_s"]["value"] = statistics.median(setups)
    return result


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", choices=sorted(WORKLOADS), default=None,
                    help="one workload (default: all of them, one after another)")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=24)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (ROOT / "src" / "ccsp" / "__init__.py").is_file():
        print(f"no ccsp package under {ROOT / 'src'}; run from a checkout of the repository",
              file=sys.stderr)
        return 2

    names = [args.workload] if args.workload else list(WORKLOADS)
    for name in names:
        try:
            result = run_workload(name, args.seed, args.seconds, bool(args.trace))
        except (RuntimeError, subprocess.TimeoutExpired, ValueError, KeyError) as e:
            print(f"{name}: {e}", file=sys.stderr)
            return 1
        for metric, m in result["metrics"].items():
            print(f"{name}  {metric} = {m['value']:.6g} {m['unit']}")
        print(f"{name}  attempted {result['attempted']}, failed {result['failed']},"
              f" correct {str(result['correct']).lower()}")
        print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
