"""Bundled order-processing transaction demo.

A warehouse accepts an order (deducting stock), then in parallel books a
courier, packs the items, and runs a credit check.  A failed credit check
throws inside the transaction block, which then replays the compensations
of whatever had already completed: unpack, cancel the courier, restock.

The scenario exercises the engine end to end: the trace set is computed by
both semantics, cross-checked for equality, and validated against the
transactional guarantees one expects from the block operator:

(a) every trace ends successfully (the block absorbs the throw);
(b) in every failed run, each completed forward action is later undone by
    its compensation;
(c) compensations of sequentially composed steps run in reverse order of
    their forward steps (restocking is always the final action of a failed
    run).
"""
from __future__ import annotations

from dataclasses import dataclass

from .denotational import traces_standard
from .operational import derived_traces_standard
from .parser import parse_standard
from .terms import StandardTerm, Terminal, Trace, by_sort_key

WAREHOUSE_TEXT = (
    "[ AcceptOrder % RestockOrder ;"
    " ( BookCourier % CancelCourier"
    " || PackItem1 % UnpackItem1"
    " || PackItem2 % UnpackItem2"
    " || (CreditCheck % SKIP ; (Ok % SKIP [] NotOk % SKIP ; THROWW)) ) ]"
)

#: forward action -> compensating action
COMPENSATIONS = {
    "AcceptOrder": "RestockOrder",
    "BookCourier": "CancelCourier",
    "PackItem1": "UnpackItem1",
    "PackItem2": "UnpackItem2",
}

_PARALLEL_FORWARDS = ("BookCourier", "PackItem1", "PackItem2")


def warehouse_term() -> StandardTerm:
    return parse_standard(WAREHOUSE_TEXT)


@dataclass(frozen=True)
class WarehouseReport:
    term_text: str
    traces: tuple[Trace, ...]
    #: (check name, passed, detail) triples
    checks: tuple[tuple[str, bool, str], ...]

    @property
    def ok(self) -> bool:
        return all(passed for _, passed, _ in self.checks)


def warehouse_report() -> WarehouseReport:
    term = warehouse_term()
    derived = derived_traces_standard(term)
    denoted = traces_standard(term)
    traces = tuple(sorted(denoted, key=by_sort_key))

    checks = [
        (
            "semantics agree",
            derived == denoted,
            f"{len(derived)} derived traces, {len(denoted)} compositional traces",
        )
    ]

    all_tick = all(t.terminal is Terminal.TICK for t in traces)
    checks.append(
        (
            "every trace ends successfully",
            all_tick,
            f"{len(traces)} traces, terminals {{{','.join(sorted({t.terminal.glyph for t in traces}))}}}",
        )
    )

    failed_runs = [t for t in traces if "NotOk" in t.events]
    compensated = all(_forward_actions_compensated(t) for t in failed_runs)
    checks.append(
        (
            "failed runs compensate every completed action",
            bool(failed_runs) and compensated,
            f"{len(failed_runs)} failed runs checked",
        )
    )

    reverse_order = all(_compensations_reversed(t) for t in failed_runs)
    checks.append(
        (
            "sequential compensations run in reverse order",
            bool(failed_runs) and reverse_order,
            "restocking is the final action of every failed run",
        )
    )

    success_runs = [t for t in traces if "Ok" in t.events]
    clean = all(
        not set(t.events) & set(COMPENSATIONS.values()) for t in success_runs
    )
    checks.append(
        (
            "successful runs discard compensations",
            bool(success_runs) and clean,
            f"{len(success_runs)} successful runs contain no undo actions",
        )
    )

    return WarehouseReport(WAREHOUSE_TEXT, traces, tuple(checks))


def _forward_actions_compensated(t: Trace) -> bool:
    events = list(t.events)
    for forward, undo in COMPENSATIONS.items():
        if forward in events:
            if undo not in events:
                return False
            if events.index(forward) > events.index(undo):
                return False
    return True


def _compensations_reversed(t: Trace) -> bool:
    # AcceptOrder is composed sequentially before the parallel stage, so its
    # compensation must come after every parallel compensation: last of all.
    events = list(t.events)
    if events[0] != "AcceptOrder" or events[-1] != "RestockOrder":
        return False
    restock = events.index("RestockOrder")
    for forward in _PARALLEL_FORWARDS:
        undo = COMPENSATIONS[forward]
        if undo in events and events.index(undo) > restock:
            return False
    return True
