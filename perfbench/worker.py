"""One workload in one process: set up, run whole rounds for a time budget,
judge every call, and print a JSON result as the last line.

Started by `run.py`; see the README for the metrics.  `--probe` stops after
set-up and reports only the set-up time, so `run.py` can take several
samples of it.
"""
from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import resource
import statistics
import sys
import time
import traceback
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import ccsp  # noqa: E402
from ccsp import cli  # noqa: E402

from workloads import WORKLOADS, Call, Outcome  # noqa: E402


class GcClock:
    """Collections and collector time inside the timed calls, from
    `gc.callbacks`."""

    def __init__(self):
        self.collections = 0
        self.seconds = 0.0
        self.active = False
        self._start = 0.0
        gc.callbacks.append(self._callback)

    def _callback(self, phase: str, info: dict) -> None:
        if not self.active:
            return
        if phase == "start":
            self._start = time.perf_counter()
        else:
            self.collections += 1
            self.seconds += time.perf_counter() - self._start


class Tally:
    """What a set of rounds did: operations, call times and judgements."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.correct = True
        #: position of the call in the round -> its times, one per round
        self.call_s: dict[int, list[float]] = {}
        self.round_s: list[float] = []
        self.notes: list[str] = []
        #: Peak RSS when the first round ended: what one pass over the
        #: workload's calls costs, whatever the number of rounds.
        self.first_round_rss_mib = 0.0

    def add(self, outcome: Outcome, label: str) -> None:
        self.attempted += outcome.attempted
        self.failed += outcome.failed
        self.correct &= outcome.correct
        if outcome.note and len(self.notes) < 20:
            self.notes.append(f"{label}: {outcome.note}")


def run_call(call: Call, clock: GcClock, tracer=None) -> tuple[float, Outcome]:
    """One `cli.run` invocation on fresh memo tables, as a new process
    would start; the collector runs first so no earlier garbage lands in
    the timed region.  A tracer records spans during the call only, not
    while the judge reads its output."""
    ccsp.clear_caches()
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    raised = None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        clock.active = True
        if tracer is not None:
            tracer.enabled = True
        t0 = time.perf_counter()
        try:
            rc = cli.run(list(call.argv))
        except Exception:  # a raise is a failed operation, not a crash
            rc = -1
            raised = traceback.format_exc(limit=3)
        elapsed = time.perf_counter() - t0
        clock.active = False
        if tracer is not None:
            tracer.enabled = False
            tracer.sample_memo()
    outcome = call.judge(rc, out.getvalue(), err.getvalue())
    if raised is not None:
        outcome = Outcome(outcome.attempted, outcome.attempted, True, raised.splitlines()[-1])
    return elapsed, outcome


def run_rounds(calls: list[Call], budget_s: float, clock: GcClock, tally: Tally,
               rounds: int | None = None, tracer=None) -> int:
    """Run whole rounds until the next would overrun `budget_s` (at least
    one), or exactly `rounds` rounds when given."""
    start = time.perf_counter()
    done = 0
    walls: list[float] = []
    while True:
        if rounds is not None and done == rounds:
            break
        if rounds is None and done and time.perf_counter() - start + statistics.median(walls) > budget_s:
            break
        t0 = time.perf_counter()
        timed = 0.0
        for i, call in enumerate(calls):
            elapsed, outcome = run_call(call, clock, tracer)
            timed += elapsed
            tally.call_s.setdefault(i, []).append(elapsed)
            tally.add(outcome, call.label)
        tally.round_s.append(timed)
        walls.append(time.perf_counter() - t0)
        if len(tally.round_s) == 1:
            tally.first_round_rss_mib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
        done += 1
    return done


def quantile(values: list[float], q: int) -> float:
    """The q-th percentile, interpolated between samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned-at", type=float, required=True,
                    help="time.monotonic() of the parent just before it started this process")
    ap.add_argument("--probe", action="store_true")
    ap.add_argument("--spans-out", type=Path, default=None)
    args = ap.parse_args()

    calls = WORKLOADS[args.workload](args.seed)
    setup_s = time.monotonic() - args.spawned_at
    if args.probe:
        print(json.dumps({"setup_s": setup_s}))
        return 0

    clock = GcClock()
    tally = Tally()
    metrics: dict[str, tuple[float, str]] = {}
    if not args.trace:
        run_rounds(calls, args.seconds, clock, tally)
        metrics["setup_s"] = (setup_s, "s")
        # A call's time is its median over the rounds, so one slow sample of
        # a call moves neither the rate nor the percentiles much.
        call_s = [statistics.median(times) for times in tally.call_s.values()]
        per_round = tally.attempted / len(tally.round_s)
        metrics["verdicts_per_s"] = (per_round / sum(call_s), "1/s")
        metrics["peak_rss_mib"] = (tally.first_round_rss_mib, "MiB")
        ms = [s * 1000 for s in call_s]
        metrics["latency_p50_ms"] = (statistics.median(ms), "ms")
        metrics["latency_p90_ms"] = (quantile(ms, 90), "ms")
        print(f"rounds {len(tally.round_s)}, calls per round {len(calls)},"
              f" round seconds {[round(s, 3) for s in tally.round_s]}")
        print(f"gc: {clock.collections} collections, {clock.seconds:.3f} s"
              f" of {sum(tally.round_s):.3f} s in cli.run")
    else:
        from tracer import Tracer

        # Untraced and traced rounds alternate, so a drift in machine speed
        # falls on both; the difference in time inside cli.run is the
        # tracing overhead.  Collector figures come from the untraced rounds.
        tracer = Tracer()
        start = time.perf_counter()
        plain: list[float] = []
        traced: list[float] = []
        gc_collections, gc_s = 0, 0.0
        while not plain or time.perf_counter() - start + (plain[-1] + traced[-1]) * 1.1 <= args.seconds:
            before = (clock.collections, clock.seconds)
            run_rounds(calls, 0, clock, tally, rounds=1)
            plain.append(tally.round_s[-1])
            gc_collections += clock.collections - before[0]
            gc_s += clock.seconds - before[1]
            tracer.install()
            try:
                run_rounds(calls, 0, clock, tally, rounds=1, tracer=tracer)
            finally:
                tracer.uninstall()
            traced.append(tally.round_s[-1])
        n = len(plain)
        metrics.update(tracer.metrics(n))
        metrics["runtime.gc_s"] = (gc_s / n, "s")
        metrics["runtime.gc_collections"] = (gc_collections / n, "count")
        metrics["trace.overhead_s"] = ((sum(traced) - sum(plain)) / n, "s")
        print(f"round pairs {n}: untraced {[round(x, 3) for x in plain]} s,"
              f" traced {[round(x, 3) for x in traced]} s in cli.run")
        if args.spans_out is not None:
            tracer.write_spans(args.spans_out)
            print(f"spans: {len(tracer.spans)} written to {args.spans_out}")

    for note in tally.notes:
        print(f"note: {note}")
    print(json.dumps({
        "correct": tally.correct,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
