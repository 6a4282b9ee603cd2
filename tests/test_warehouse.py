import pytest

from ccsp import warehouse
from ccsp.automata import mk
from ccsp.denotational import traces_standard
from ccsp.operational import derived_traces_standard
from ccsp.terms import Terminal, trace, validate_user_term
from ccsp.warehouse import (
    COMPENSATIONS,
    _compensations_reversed,
    _forward_actions_compensated,
    warehouse_report,
    warehouse_term,
)


def test_warehouse_term_is_valid():
    assert validate_user_term(warehouse_term()) == []


def test_warehouse_semantics_agree():
    term = warehouse_term()
    assert derived_traces_standard(term) == traces_standard(term)


def test_warehouse_trace_census():
    # success runs: AcceptOrder then the 60 interleavings of one courier
    # booking, two packings, and the two-event credit check; failed runs:
    # the same 60 forward shuffles times 6 compensation orders
    report = warehouse_report()
    assert len(report.traces) == 420
    success = [t for t in report.traces if "Ok" in t.events]
    failed = [t for t in report.traces if "NotOk" in t.events]
    assert len(success) == 60
    assert len(failed) == 360
    assert all(t.terminal is Terminal.TICK for t in report.traces)


def test_warehouse_success_runs_do_not_compensate():
    report = warehouse_report()
    undo = set(COMPENSATIONS.values())
    for t in report.traces:
        if "Ok" in t.events:
            assert not undo & set(t.events)


def test_warehouse_failed_runs_compensate_in_reverse_order():
    report = warehouse_report()
    for t in report.traces:
        if "NotOk" not in t.events:
            continue
        events = list(t.events)
        # every forward action is undone afterwards
        for forward, undo in COMPENSATIONS.items():
            assert forward in events
            assert events.index(forward) < events.index(undo)
        # the first forward step is compensated last
        assert events[0] == "AcceptOrder"
        assert events[-1] == "RestockOrder"


def test_warehouse_report_is_green():
    report = warehouse_report()
    assert report.ok
    assert [passed for _, passed, _ in report.checks] == [True] * 5


def test_warehouse_report_lists_the_traces_in_canonical_order():
    assert list(warehouse_report().traces) == sorted(traces_standard(warehouse_term()))


def test_warehouse_report_counts_both_sets_when_the_semantics_disagree(monkeypatch):
    # Agreement is node identity; on a disagreement the derived set is
    # still counted, from its own node.
    monkeypatch.setattr(warehouse, "trace_node", lambda term: mk(frozenset((Terminal.TICK,))))
    report = warehouse_report()
    assert report.traces == (trace("*"),)
    assert report.checks[0] == ("semantics agree", False, "420 derived traces, 1 compositional traces")
    assert not report.ok


@pytest.mark.parametrize(
    "guarantee, events",
    [
        (_forward_actions_compensated, ["AcceptOrder", "NotOk"]),
        (_forward_actions_compensated, ["RestockOrder", "AcceptOrder"]),
        (_compensations_reversed, ["BookCourier", "RestockOrder"]),
        (_compensations_reversed, ["AcceptOrder", "RestockOrder", "CancelCourier", "RestockOrder"]),
    ],
    ids=["never-undone", "undone-first", "first-not-accept", "undo-after-restock"],
)
def test_warehouse_guarantees_can_fail(guarantee, events):
    assert guarantee(trace(*events, "*")) is False
