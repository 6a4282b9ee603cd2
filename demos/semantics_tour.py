#!/usr/bin/env python3
"""Tour of the engine: parse terms, run both semantics, compare them.

Walks through the language operator by operator, printing the trace set
of each example term under the compositional semantics and under the
small-step transition semantics, and ends with a transition-graph export.
"""
from ccsp import (
    build_lts,
    check_compensable,
    check_standard,
    derived_traces_compensable,
    derived_traces_standard,
    parse_compensable,
    parse_standard,
    pretty_print,
    traces_compensable,
    traces_standard,
)
from ccsp.terms import by_sort_key


def _render(traces):
    return " ".join(str(t) for t in sorted(traces, key=by_sort_key))


def show_standard(text):
    term = parse_standard(text)
    print(f"\n  {text}")
    print(f"    compositional: {_render(traces_standard(term))}")
    print(f"    derived:       {_render(derived_traces_standard(term))}")
    print(f"    verdict:       {check_standard(term).status}")


def show_compensable(text):
    term = parse_compensable(text)
    print(f"\n  {text}")
    print(f"    compositional: {_render(traces_compensable(term))}")
    print(f"    derived:       {_render(derived_traces_compensable(term))}")
    print(f"    verdict:       {check_compensable(term).status}")


def tour_standard_operators():
    print("=" * 64)
    print("STANDARD PROCESSES")
    print("=" * 64)
    print("Traces end in * (success), ! (throw), or ? (yield).")

    show_standard("a ; b")
    show_standard("a ; THROW")
    show_standard("a [] b ; c")
    show_standard("a || b")
    show_standard("a || THROW")          # terminals synchronise: * & ! = !
    show_standard("(a ; THROW) |> b")    # the handler picks up the throw
    show_standard("YIELD ; a")           # a yield point before a


def tour_compensable_processes():
    print()
    print("=" * 64)
    print("COMPENSABLE PROCESSES")
    print("=" * 64)
    print("Each observation is a pair: forward trace, compensation trace.")

    show_compensable("a % a'")
    show_compensable("THROWW")           # failed forward runs bank nothing
    show_compensable("(a % a') ; (b % b')")   # compensations accumulate in reverse
    show_compensable("(a % a') || (b % b')")  # forward and compensation shuffles
    show_compensable("(a % a') ; THROWW")     # abort after a: only a' compensates


def tour_transaction_blocks():
    print()
    print("=" * 64)
    print("TRANSACTION BLOCKS")
    print("=" * 64)
    print("A block discards compensations on success, replays them on a")
    print("throw, and hides the interrupt from the outside.")

    show_standard("[ a % a' ]")
    show_standard("[ a % a' ; THROWW ]")
    show_standard("[ a % a' ; (b % b' || THROWW) ]")


def tour_transition_graph():
    print()
    print("=" * 64)
    print("TRANSITION GRAPH EXPORT")
    print("=" * 64)
    term = parse_standard("[ a % a' ; THROWW ]")
    lts = build_lts(term)
    print(f"{pretty_print(term)}: {len(lts.nodes)} states, {len(lts.edges)} transitions")
    print(lts.to_dot())


def main():
    tour_standard_operators()
    tour_compensable_processes()
    tour_transaction_blocks()
    tour_transition_graph()


if __name__ == "__main__":
    main()
