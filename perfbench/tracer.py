"""Per-layer spans, recorded from outside the program.

`Tracer.install` wraps public functions of the `ccsp` modules at every name
through which the package reaches them: each module global (and the `Lts`
method) that holds the original function object is rebound to a timing
wrapper, so a call from `cli`, `equivalence`, `operational` or a recursive
call inside `denotational` all pass through it.  No source file changes.

Each wrapped call is a span.  A layer's self time is the sum of its spans'
durations minus the time their child spans cover, so the layers partition
the traced time.  Aggregates cover every traced call; the spans themselves
are kept in memory for the first `SPAN_LIMIT` calls and written out at the
end.
"""
from __future__ import annotations

import functools
import inspect
import json
import sys
import time
from collections import Counter, defaultdict
from pathlib import Path

#: layer -> the (module, attribute) pairs whose spans it owns.  Every
#: public entry point that `cli`, `equivalence` and `operational` call across
#: a module boundary is listed, so `cli`'s self time is argument handling
#: and transcript formatting only.
LAYERS: dict[str, tuple[tuple[str, str], ...]] = {
    "cli": (("cli", "run"),),
    "parser.parse": (("parser", "parse_standard"), ("parser", "parse_compensable")),
    "terms.op_count": (("terms", "term_op_count"),),
    "terms.pretty_print": (("terms", "pretty_print"),),
    "terms.validate": (("terms", "validate_user_term"),),
    "operational.derived": (
        ("operational", "derived_traces_standard"),
        ("operational", "derived_traces_compensable"),
        ("operational", "derived_forward"),
    ),
    "operational.lts": (("operational", "build_lts"), ("operational", "Lts.to_dot")),
    "denotational.traces": (
        ("denotational", "traces_standard"),
        ("denotational", "traces_compensable"),
    ),
    "denotational.healthiness": (("denotational", "check_healthiness"),),
    "equivalence.enumerate": (("equivalence", "enumerate_terms"),),
    "equivalence.check_self": (
        ("equivalence", "check_standard"),
        ("equivalence", "check_compensable"),
    ),
    "equivalence.generate": (("equivalence", "gen_term"),),
    "equivalence.lemma": (("equivalence", "check_lemma"),),
    "equivalence.campaign": (
        ("equivalence", "run_prop_campaign"),
        ("equivalence", "run_lemma_suite"),
    ),
    "equivalence.trim": (("equivalence", "maybe_trim_caches"),),
    "warehouse.report": (("warehouse", "warehouse_report"),),
}

#: per-layer metric -> layer: self seconds, then call counts.
TIMES = {
    "terms.op_count_s": "terms.op_count",
    "terms.pretty_print_s": "terms.pretty_print",
    "terms.validate_s": "terms.validate",
    "parser.parse_s": "parser.parse",
    "operational.derived_s": "operational.derived",
    "operational.lts_s": "operational.lts",
    "denotational.traces_s": "denotational.traces",
    "denotational.healthiness_s": "denotational.healthiness",
    "equivalence.enumerate_s": "equivalence.enumerate",
    "equivalence.check_self_s": "equivalence.check_self",
    "equivalence.generate_s": "equivalence.generate",
    "equivalence.lemma_s": "equivalence.lemma",
    "equivalence.campaign_s": "equivalence.campaign",
    "equivalence.trim_s": "equivalence.trim",
    "warehouse.report_s": "warehouse.report",
    "cli.self_s": "cli",
}
COUNTS = {
    "terms.pretty_print_calls": "terms.pretty_print",
    "parser.parse_calls": "parser.parse",
    "cli.calls": "cli",
}


#: Spans kept for the span file; aggregates cover every call.
SPAN_LIMIT = 50_000


class Tracer:
    def __init__(self):
        self.self_s: defaultdict[str, float] = defaultdict(float)
        self.calls: Counter[str] = Counter()
        self.items: Counter[str] = Counter()
        self.trims = 0
        #: Spans are recorded only while this is set: inside `cli.run`.
        self.enabled = False
        self.memo_max = {"operational": 0, "denotational": 0}
        self.spans: list[tuple[int, int, str, float, float]] = []
        # One entry per open span: [span id, time covered by its children].
        self._open: list[list] = [[-1, 0.0]]
        self._next_id = 0
        self._restore: list[tuple[object, str, object]] = []

    # -- spans -------------------------------------------------------------

    def _begin(self) -> list:
        frame = [self._next_id if self._next_id < SPAN_LIMIT else -1, 0.0]
        self._next_id += 1
        self._open.append(frame)
        return frame

    def _end(self, layer: str, name: str, frame: list, t0: float) -> None:
        t1 = time.perf_counter()
        dt = t1 - t0
        self._open.pop()
        parent = self._open[-1]
        parent[1] += dt
        self.self_s[layer] += dt - frame[1]
        self.calls[layer] += 1
        if frame[0] >= 0:
            self.spans.append((frame[0], parent[0], name, t0, t1))

    def _wrap(self, layer: str, name: str, fn):
        if inspect.isgeneratorfunction(fn):
            # A generator's layer time is the time spent producing each item.
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                it = fn(*args, **kwargs)
                while True:
                    if not self.enabled:
                        yield from it
                        return
                    frame = self._begin()
                    t0 = time.perf_counter()
                    try:
                        item = next(it)
                    except StopIteration:
                        return
                    finally:
                        self._end(layer, name, frame, t0)
                    self.items[layer] += 1
                    yield item

            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            frame = self._begin()
            t0 = time.perf_counter()
            try:
                return fn(*args, **kwargs)
            finally:
                self._end(layer, name, frame, t0)

        return wrapper

    # -- installation ------------------------------------------------------

    def install(self) -> None:
        from ccsp import denotational, operational

        modules = [m for n, m in sys.modules.items() if n == "ccsp" or n.startswith("ccsp.")]
        for layer, targets in LAYERS.items():
            for module_name, attr in targets:
                owner = sys.modules[f"ccsp.{module_name}"]
                if "." in attr:
                    cls_name, method = attr.split(".")
                    cls = getattr(owner, cls_name)
                    original = cls.__dict__[method]
                    self._rebind(cls, method, self._wrap(layer, attr, original))
                    continue
                original = getattr(owner, attr)
                wrapper = self._wrap(layer, attr, original)
                for module in modules:
                    for key, value in list(vars(module).items()):
                        if value is original:
                            self._rebind(module, key, wrapper)
        self._sizes = (operational.cache_size, denotational.cache_size)
        # Inside `cli.run` only a memo trim clears the operational tables.
        clear = operational.clear_caches

        def counting_clear():
            if self.enabled:
                self.sample_memo()
                self.trims += 1
            clear()

        self._rebind(operational, "clear_caches", counting_clear)

    def _rebind(self, owner, key: str, value) -> None:
        self._restore.append((owner, key, vars(owner)[key]))
        setattr(owner, key, value)

    def uninstall(self) -> None:
        for owner, key, value in reversed(self._restore):
            setattr(owner, key, value)
        self._restore.clear()

    def sample_memo(self) -> None:
        """Record the memo table sizes."""
        op, den = (size() for size in self._sizes)
        self.memo_max["operational"] = max(self.memo_max["operational"], op)
        self.memo_max["denotational"] = max(self.memo_max["denotational"], den)

    # -- results -----------------------------------------------------------

    def metrics(self, rounds: int) -> dict[str, tuple[float, str]]:
        """Per-layer metrics per traced round, with their units."""
        out: dict[str, tuple[float, str]] = {}
        for metric, layer in TIMES.items():
            out[metric] = (self.self_s[layer] / rounds, "s")
        for metric, layer in COUNTS.items():
            out[metric] = (self.calls[layer] / rounds, "count")
        out["equivalence.terms_enumerated"] = (self.items["equivalence.enumerate"] / rounds, "count")
        out["equivalence.trims"] = (self.trims / rounds, "count")
        out["operational.memo_entries_max"] = (self.memo_max["operational"], "count")
        out["denotational.memo_entries_max"] = (self.memo_max["denotational"], "count")
        out["trace.spans"] = (sum(self.calls.values()) / rounds, "count")
        return out

    def write_spans(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w", encoding="utf-8") as fh:
            fh.write("[\n")
            for i, span in enumerate(self.spans):
                sep = ",\n" if i + 1 < len(self.spans) else "\n"
                fh.write(json.dumps(dict(zip(("id", "parent", "name", "start", "end"), span))) + sep)
            fh.write("]\n")
