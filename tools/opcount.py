"""Count the bytecode instructions one CLI call executes in `ccsp` code.

    python3 tools/opcount.py CHECKOUT [CHECKOUT ...] -- ARGV...

For each checkout, in a fresh process with PYTHONHASHSEED=0 and
PYTHONPATH=<checkout>/src, the script runs `ccsp.cli.run(ARGV)` once under a
`sys.settrace` opcode trace (`frame.f_trace_opcodes`) and counts the
instructions executed in frames whose code lives in that checkout's `ccsp`
package.  The command's own stdout goes to the null device.  It prints one
line per checkout: the count, the exit code, the change against the first
checkout, and the checkout.

The count barely moves between runs, so it can resolve a difference of a
few per cent that wall-clock pairs on a shared machine cannot.  It is not
quite fixed: terms hash by address, so the order of a set of terms, and
with it the work, can change from run to run; `enumerate --max-ops 2
--alphabet a,b,c --check` read 18 342 861 to 18 362 061 over four runs of
one checkout, while `check` on one term and a plain listing repeat exactly.
It counts interpreted instructions only: work done in C (set and dict
operations, `sorted`, the regex engine, memory allocation) costs no
instructions, and one instruction may cost anything from a few nanoseconds
to milliseconds.  So a count supplements `tools/abbench.py` pairs and does
not replace them.  The trace makes the call many times slower; keep the
argv small.  Standard library only; not a Tier-1 test.
"""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

# Run in the child: trace `cli.run(argv)` and print the count as JSON.
_CHILD = r"""
import json, os, sys
import ccsp
from ccsp import cli

argv = json.loads(sys.argv[1])
package = os.path.dirname(ccsp.__file__) + os.sep
count = 0

def per_opcode(frame, event, arg):
    global count
    if event == "opcode":
        count += 1
    return per_opcode

def per_call(frame, event, arg):
    if frame.f_code.co_filename.startswith(package):
        frame.f_trace_opcodes = True
        return per_opcode
    return None

out = sys.stdout
with open(os.devnull, "w") as sys.stdout:
    sys.settrace(per_call)
    try:
        code = cli.run(argv)
    finally:
        sys.settrace(None)
print(json.dumps({"opcodes": count, "exit": code}), file=out)
"""


def count_opcodes(checkout: Path, argv: list[str]) -> dict:
    env = {**os.environ, "PYTHONHASHSEED": "0", "PYTHONPATH": str(checkout / "src")}
    proc = subprocess.run([sys.executable, "-c", _CHILD, json.dumps(argv)],
                          env=env, capture_output=True, text=True)
    if proc.returncode != 0:
        raise RuntimeError(f"{checkout}: exited {proc.returncode}: {proc.stderr[-500:]}")
    return json.loads(proc.stdout.splitlines()[-1])


def main(args: list[str]) -> int:
    split = args.index("--") if "--" in args else 0
    if not split:
        print("usage: opcount.py CHECKOUT [CHECKOUT ...] -- ARGV...", file=sys.stderr)
        return 2
    argv = args[split + 1:]
    first = None
    for checkout in args[:split]:
        result = count_opcodes(Path(checkout).resolve(), argv)
        first = first or result["opcodes"]
        change = 100 * (result["opcodes"] / first - 1)
        print(f"{result['opcodes']:>14,}  exit {result['exit']}  {change:+6.2f} %  {checkout}")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
