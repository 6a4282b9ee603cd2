"""Trace sets as interned acyclic automata, shared by both semantics.

A `Node` stands for a set of traces, as the state of a minimal acyclic
deterministic automaton reading events: the DAWG of string sets (Revuz,
TCS 1992; Daciuk, Mihov, Watson & Watson, Comput. Linguistics 2000).  It
holds

* `acc`, what ends a trace at this prefix: for a standard set, the frozenset
  of its terminals; for a compensable set, a tuple of ``(terminal,
  compensation node)`` pairs in terminal order, at most one per terminal,
  whose node is the union of the compensations of the forward traces
  ending there.  Where nothing ends, `acc` is the empty frozenset for
  either kind;
* `edges`, a tuple of ``(event, child)`` pairs in event order, each event
  once.

`mk` interns every node, as a BDD package's unique table does (Brace,
Rudell & Bryant, DAC 1990): the table maps ``(acc, edges)`` to a weak
reference to the one live node, so a node lives only while some set or
memo holds it, and two equal sets are the same object.  It never stores
an edge to `EMPTY`, nor a terminal whose compensations are empty, which is
what keeps the form canonical.  So two trace sets are equal exactly when
their nodes are identical, and comparing them is one `is`.

This layer holds what both semantics share: `mk`; `union`, which merges two
sets of the same kind; `language`, the one walk that writes a node's traces
out, in canonical order with no set and no sort; `ends_in`, which searches
a node for a terminal; and the computed table in which every node
operation memoizes its results, keyed by the identities of its operands.
Every operation runs on an explicit stack: an automaton is as deep as its
longest trace, and nothing here recurses once per event.
"""
from __future__ import annotations

from typing import Iterator

from .terms import Terminal, Trace, TracePair, _PoolRef, unchecked_pair, unchecked_trace

#: Each set of terminals, to its one shared instance (a frozenset is large).
_TERMINAL_SETS = {
    s: s for s in (frozenset(t for t in Terminal if bits >> t._value_ & 1) for bits in range(8))
}
_NO_TERMINALS = _TERMINAL_SETS[frozenset()]
#: Each set of terminals, to its members in terminal order.
_IN_ORDER = {s: tuple(sorted(s)) for s in _TERMINAL_SETS}


class Node:
    """One interned trace set; built by `mk` only, and immutable."""

    __slots__ = ("acc", "edges", "__weakref__")

    def __new__(cls, *args, **kwargs):
        raise TypeError("cannot build a Node: nodes are built by mk")

    def __setattr__(self, name, value):
        raise AttributeError("nodes are immutable")

    def __repr__(self) -> str:
        return f"<Node {id(self):#x}: {len(self.edges)} edges>"


_set_acc, _set_edges = Node.acc.__set__, Node.edges.__set__
_new = object.__new__

#: ``(acc, edges)`` -> a weak reference to the live node: the unique table.
_UNIQUE: dict[tuple, _PoolRef] = {}


def _remove(ref: _PoolRef) -> None:
    # A stale callback must not drop a newer entry under the same key.
    if _UNIQUE.get(ref.key) is ref:
        del _UNIQUE[ref.key]


def _intern(acc, edges) -> Node:
    key = (acc, edges)
    ref = _UNIQUE.get(key)
    if ref is not None:
        node = ref()
        if node is not None:
            return node
    node = _new(Node)
    _set_acc(node, acc)
    _set_edges(node, edges)
    ref = _PoolRef(node, _remove)
    ref.key = key
    _UNIQUE[key] = ref
    return node


#: The empty set, of either kind.
EMPTY = _intern(_NO_TERMINALS, ())


def mk(acc: frozenset | tuple, edges: tuple = ()) -> Node:
    """The one node with these terminals and edges, as the module docstring
    lays them out: edges in event order and each event once, compensable
    terminals in terminal order and each once (the caller keeps both
    orders).  Edges to `EMPTY` and terminals with empty compensations are
    dropped; anything but nodes, terminals and a frozenset or tuple in
    their places is a `TypeError`."""
    if type(acc) is frozenset:
        shared = _TERMINAL_SETS.get(acc)
        if shared is None:
            raise TypeError(f"not a set of terminals: {acc!r}")
        acc = shared
    elif type(acc) is tuple:
        empty = False
        for terminal, comp in acc:
            if type(terminal) is not Terminal or type(comp) is not Node:
                raise TypeError(f"not a (terminal, node) pair: {(terminal, comp)!r}")
            empty = empty or comp is EMPTY
        if empty:
            acc = tuple(entry for entry in acc if entry[1] is not EMPTY)
        acc = acc or _NO_TERMINALS
    else:
        raise TypeError(f"not a set of terminals: {acc!r}")
    edges = tuple(edges)
    empty = False
    for event, child in edges:
        if type(child) is not Node or type(event) is not str:
            raise TypeError(f"not an (event, node) edge: {(event, child)!r}")
        empty = empty or child is EMPTY
    if empty:
        edges = tuple(edge for edge in edges if edge[1] is not EMPTY)
    if not edges and not acc:
        return EMPTY
    return _intern(acc, edges)


#: The computed table every node operation shares, as BDD packages share
#: one: `union` keys a pair of nodes in `id` order, and each trace clause of
#: `ccsp.denotational` ``(its leaf rule, node, operand)``.  It is emptied
#: only between operations (`clear_caches`), never during one.
COMPUTED: dict[tuple, Node] = {}


def _ordered(p: Node, q: Node) -> tuple[Node, Node]:
    return (p, q) if id(p) < id(q) else (q, p)


def union(p: Node, q: Node) -> Node:
    """The union of two sets of the same kind.  A pair is merged once every
    pair of children under a shared event is; compensations under a shared
    terminal are merged by a nested `union` over standard nodes."""
    if type(p) is not Node or type(q) is not Node:
        raise TypeError(f"not a node: {q if type(p) is Node else p!r}")
    if p is q or q is EMPTY:
        return p
    if p is EMPTY:
        return q
    memo = COMPUTED
    top = _ordered(p, q)
    stack = [top]
    while stack:
        key = stack[-1]
        if key in memo:
            stack.pop()
            continue
        p, q = key
        shared = dict(p.edges)
        waiting = len(stack)
        for event, d in q.edges:
            c = shared.get(event)
            if c is not None and c is not d and (pair := _ordered(c, d)) not in memo:
                stack.append(pair)
        if len(stack) > waiting:
            continue
        stack.pop()
        for event, d in q.edges:
            c = shared.get(event)
            shared[event] = d if c is None or c is d else memo[_ordered(c, d)]
        pa, qa = p.acc, q.acc
        if not pa or not qa:
            acc = pa or qa
        elif type(pa) is frozenset:
            acc = _TERMINAL_SETS[pa | qa]
        else:
            comps = dict(pa)
            for terminal, comp in qa:
                comps[terminal] = union(comps[terminal], comp) if terminal in comps else comp
            acc = tuple(sorted(comps.items()))
        memo[key] = _intern(acc, tuple(sorted(shared.items())))
    return memo[top]


def _lengths(root: Node) -> dict[Node, int]:
    """Each node reachable from `root` by its edges, to the lengths of its
    (forward) traces as a bitmask: bit k is set when some trace has k
    events.  Built once all children are, on an explicit stack."""
    lengths: dict[Node, int] = {}
    stack = [root]
    while stack:
        node = stack[-1]
        if node in lengths:
            stack.pop()
            continue
        waiting = len(stack)
        for _, child in node.edges:
            if child not in lengths:
                stack.append(child)
        if len(stack) > waiting:
            continue
        stack.pop()
        bits = 1 if node.acc else 0
        for _, child in node.edges:
            bits |= lengths[child] << 1
        lengths[node] = bits
    return lengths


def language(node: Node) -> Iterator[Trace | TracePair]:
    """Every trace of a standard node, or trace pair of a compensable one,
    each once and in `sort_key` order, straight from the automaton: by
    length, one walk per length that keeps only the children with a trace
    of the length still to go (read from a per-call table of lengths); then
    by events, following the edges in their event order; then by terminal,
    in terminal order.  Under a compensable node's forward trace, its
    compensation's traces come in the same order.

    The walk runs on an explicit stack of nodes and shares one list of
    events, so a member costs O(its length).  Beside the nodes it holds the
    table (an int per node), the stack (under one node's edges per event
    of the longest trace), that trace, and one list per distinct
    compensation node, of that node's traces."""
    if type(node) is not Node:
        raise TypeError(f"not a node: {node!r}")
    root, lengths = node, _lengths(node)
    comps: dict[Node, list[Trace]] = {}
    bits = lengths[root]
    for length in range(bits.bit_length()):
        if not bits >> length & 1:
            continue
        path = [None] * length  # path[:depth] holds the events to `node`
        stack = [(root, 0, None)]  # (node, its depth, the event into it)
        while stack:
            node, depth, event = stack.pop()
            if depth:
                path[depth - 1] = event
            # Go down the first child with a trace of the length still to go,
            # and leave the later ones on the stack.
            while depth < length:
                rest, first = length - depth - 1, None
                for edge in reversed(node.edges):
                    if lengths[edge[1]] >> rest & 1:
                        if first is not None:
                            stack.append((first[1], depth + 1, first[0]))
                        first = edge
                path[depth], node = first
                depth += 1
            events, acc = tuple(path), node.acc
            if type(acc) is tuple:
                for terminal, comp in acc:
                    forward = unchecked_trace((events, terminal))
                    backs = comps.get(comp)
                    if backs is None:
                        backs = comps[comp] = list(language(comp))
                    for back in backs:
                        yield unchecked_pair((forward, back))
            else:
                for terminal in _IN_ORDER[acc]:
                    yield unchecked_trace((events, terminal))


def ends_in(node: Node, terminals: frozenset) -> bool:
    """Whether some trace of a standard node, or forward trace of a
    compensable one, ends in one of `terminals`: a search of the nodes
    reachable by edges that stops at the first such terminal."""
    if type(node) is not Node:
        raise TypeError(f"not a node: {node!r}")
    if type(terminals) is not frozenset:
        raise TypeError(f"not a set of terminals: {terminals!r}")
    stack, seen = [node], {node}
    while stack:
        node = stack.pop()
        if not terminals.isdisjoint(node.acc if type(node.acc) is frozenset else dict(node.acc)):
            return True
        for _, child in node.edges:
            if child not in seen:
                seen.add(child)
                stack.append(child)
    return False


def clear_caches() -> None:
    """Empty the computed table; the unique table is weak and needs no
    clearing."""
    COMPUTED.clear()


def cache_size() -> int:
    return len(COMPUTED)
