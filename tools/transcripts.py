"""Compare CLI transcripts of two checkouts, byte for byte.

    python3 tools/transcripts.py PARENT CHANGE

PARENT and CHANGE are two checkouts of the repository.  Each argv of a
fixed list runs as `python3 -m ccsp.cli ARGV` in a fresh process, once
against each checkout's `src/` (PYTHONPATH=<checkout>/src), two argvs at a
time.  The exit code, stdout and stderr must match exactly.  Prints `same`
or `DIFF` per argv and exits 1 on any difference.  The list: two
`enumerate --check` runs, one compensable listing, three listings over the
one-event alphabet `a` at `--max-ops 2` that reach each branch of the
enumerator's walk (standard; compensable with `--max-pair-ops 0`, which
skips pairs; compensable with `--max-pair-ops 1`), `enumerate` with
each kind of bad `--alphabet` (empty, repeated, malformed, reserved),
`enumerate --max-ops 0 --alphabet a --check` (a one-level tally), a seeded
`prop --lemmas` campaign at `--max-depth 5`, the law suites alone
(`prop --seed 42 --cases 0 --lemmas --max-depth 4`, a campaign of no
cases, as in the acceptance table), four shorter campaigns at
depths 1, 2, 3 and 8 (leaf-only, shallow and deep generator tables),
`prop` with `--kind std` and with `--kind comp` (each case's kind label),
`prop --seed 3 --cases 200 --max-depth 4`, `example warehouse`, `lts` and
`traces --semantics operational` on the warehouse term (its transition
graph takes every compensable rule: `;` into the auxiliary construct, `||`,
`[]` and `THROWW` inside a block), `lts` on `e0 || e1 || ... || e16`
(131 073 nodes, so it stops at the default `STATE_CAP` with exit 1 after
about 10 s; this is the one argv that meets the default cap's boundary,
which Tier-1 reaches only with a patched cap), then `check`,
`traces`, `traces --format machine` and `lts` on every term of
`tests/data/pinned_values.txt`, and `check` on every input of
`tests/data/parse_errors_golden.txt`; the warehouse term and both files
are read from the checkout this script sits in.  Needs only the standard
library and that checkout's `src/`.
"""
from __future__ import annotations

import argparse
import json
import os
import shlex
import subprocess
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
DATA = ROOT / "tests" / "data"
sys.path.insert(0, str(ROOT / "src"))
from ccsp.warehouse import WAREHOUSE_TEXT  # noqa: E402

JOBS = 2


def argvs() -> list[list[str]]:
    runs = [
        ["enumerate", "--max-ops", "2", "--alphabet", "a,b", "--check"],
        ["enumerate", "--max-ops", "1", "--alphabet", "a,b", "--kind", "comp", "--check"],
        ["enumerate", "--max-ops", "1", "--alphabet", "a,b", "--kind", "comp"],
        ["enumerate", "--max-ops", "2", "--alphabet", "a"],
        *(["enumerate", "--max-ops", "2", "--alphabet", "a", "--kind", "comp",
           "--max-pair-ops", cap] for cap in ("0", "1")),
        *(["enumerate", "--max-ops", "0", "--alphabet", text]
          for text in (",", "a,a", "a,1x", "THROW")),
        ["enumerate", "--max-ops", "0", "--alphabet", "a", "--check"],
        ["prop", "--seed", "42", "--cases", "2000", "--max-depth", "5", "--lemmas"],
        ["prop", "--seed", "42", "--cases", "0", "--lemmas", "--max-depth", "4"],
        *(["prop", "--seed", "7", "--cases", "300", "--max-depth", str(depth), "--kind", "both",
           "--lemmas", "--lemma-cases", "50"] for depth in (1, 2, 3, 8)),
        *(["prop", "--seed", "7", "--cases", "300", "--max-depth", "4", "--kind", kind]
          for kind in ("std", "comp")),
        ["prop", "--seed", "3", "--cases", "200", "--max-depth", "4"],
        ["example", "warehouse"],
        ["lts", WAREHOUSE_TEXT],
        ["traces", "--semantics", "operational", WAREHOUSE_TEXT],
        ["lts", " || ".join(f"e{i}" for i in range(17))],
    ]
    for line in (DATA / "pinned_values.txt").read_text(encoding="utf-8").splitlines():
        if line.strip() and not line.startswith("#"):
            kind, term, _ = (part.strip() for part in line.split("::"))
            for command in (["check"], ["traces"], ["traces", "--format", "machine"], ["lts"]):
                runs.append([*command, "--kind", kind, term])
    for line in (DATA / "parse_errors_golden.txt").read_text(encoding="utf-8").splitlines():
        kind, text, _ = json.loads(line)
        runs.append(["check", "--kind", kind, text])
    return runs


def transcript(checkout: Path, argv: list[str]) -> tuple[int, bytes, bytes]:
    env = {**os.environ, "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-m", "ccsp.cli", *argv], env=env,
                          capture_output=True)
    return proc.returncode, proc.stdout, proc.stderr


def main() -> int:
    ap = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    args = ap.parse_args()
    sides = (args.parent.resolve(), args.change.resolve())

    def compare(argv: list[str]) -> bool:
        return transcript(sides[0], argv) == transcript(sides[1], argv)

    runs = argvs()
    differ = 0
    with ThreadPoolExecutor(JOBS) as pool:
        for argv, same in zip(runs, pool.map(compare, runs)):
            differ += not same
            print(f"{'same' if same else 'DIFF'} {shlex.join(argv)}", flush=True)
    print(f"{len(runs) - differ}/{len(runs)} same")
    return 1 if differ else 0


if __name__ == "__main__":
    sys.exit(main())
