"""Directed-graph algebra: ancestral sets, descendants, separation.

All operations are pure functions over immutable graphs.  Every edge
points forward in the declaration order, so that order is a topological
one and no graph needs a cycle check.  Node sets are returned as tuples
sorted by declaration order, so repeated runs print identically.
Separation uses the moral-graph criterion (Lauritzen, Dawid, Larsen &
Leimer 1990): ``a`` and ``b`` are separated by ``c`` when, in the
moralization of the smallest ancestral subgraph containing ``a | b | c``,
every path from ``a`` to ``b`` intersects ``c``.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from .errors import InputError, ModelError

Node = str


@dataclass(frozen=True)
class Dag:
    """Directed acyclic graph over named nodes.

    ``nodes`` fixes the declaration order used to sort every set-valued
    result.  Edges are (parent, child) pairs and must point forward in
    that order, which rules out cycles.  Duplicates, self-loops,
    references to undeclared nodes and backward edges are rejected; the
    first offending edge in input order is the one reported.
    """

    nodes: tuple[Node, ...]
    edges: frozenset[tuple[Node, Node]]
    _index: dict = field(init=False, repr=False, compare=False)
    _parents: dict = field(init=False, repr=False, compare=False)
    _children: dict = field(init=False, repr=False, compare=False)

    def __init__(self, nodes: Iterable[Node], edges: Iterable[tuple[Node, Node]]):
        nodes = tuple(nodes)
        if len(set(nodes)) != len(nodes):
            raise ModelError("duplicate node declaration")
        edge_list = [tuple(e) for e in edges]
        edge_set = frozenset(edge_list)
        if len(edge_set) != len(edge_list):
            raise ModelError("duplicate edge")
        index = {v: i for i, v in enumerate(nodes)}
        for u, v in edge_list:
            if u not in index or v not in index:
                raise InputError(f"edge ({u}, {v}) references an undeclared node")
            if u == v:
                raise ModelError(f"self-loop at {u}")
            if index[u] > index[v]:
                raise ModelError(f"edge {u} -> {v} goes backward in the declared order")
        parents = {v: [] for v in nodes}
        children = {v: [] for v in nodes}
        for u, v in sorted(edge_list, key=lambda e: (index[e[0]], index[e[1]])):
            parents[v].append(u)
            children[u].append(v)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", edge_set)
        object.__setattr__(self, "_index", index)
        object.__setattr__(self, "_parents", parents)
        object.__setattr__(self, "_children", children)

    def parents(self, v: Node) -> tuple[Node, ...]:
        self._check(v)
        return tuple(self._parents[v])

    def children(self, v: Node) -> tuple[Node, ...]:
        self._check(v)
        return tuple(self._children[v])

    def sort(self, nodes: Iterable[Node]) -> tuple[Node, ...]:
        """Sort a node set by declaration order."""
        return tuple(sorted(set(nodes), key=self._index.__getitem__))

    def with_parents(self, assignments: dict[Node, Iterable[Node]]) -> "Dag":
        """Copy of the graph with the in-edges of some nodes replaced."""
        edges = [(u, v) for u, v in self.edges if v not in assignments]
        for v, ps in assignments.items():
            edges.extend((p, v) for p in ps)
        return Dag(self.nodes, edges)

    def _check(self, v: Node) -> None:
        if v not in self._index:
            raise InputError(f"unknown node {v!r}")


def _closure(dag: Dag, seed: Iterable[Node], step) -> tuple[Node, ...]:
    seen = set()
    queue = deque()
    for v in seed:
        dag._check(v)
        if v not in seen:
            seen.add(v)
            queue.append(v)
    while queue:
        for w in step(queue.popleft()):
            if w not in seen:
                seen.add(w)
                queue.append(w)
    return dag.sort(seen)


def ancestral_closure(dag: Dag, seed: Iterable[Node]) -> tuple[Node, ...]:
    """Smallest superset of ``seed`` closed under taking parents."""
    return _closure(dag, seed, lambda v: dag._parents[v])


def descendants(dag: Dag, seed: Iterable[Node]) -> tuple[Node, ...]:
    """Smallest superset of ``seed`` closed under taking children."""
    return _closure(dag, seed, lambda v: dag._children[v])


def _disjoint(*sets) -> None:
    seen = set()
    for s in sets:
        for v in s:
            if v in seen:
                raise InputError(f"sets overlap at {v!r}")
            seen.add(v)


def connecting_path(
    dag: Dag, a: Iterable[Node], b: Iterable[Node], c: Iterable[Node]
) -> tuple[Node, ...] | None:
    """One path from ``a`` to ``b`` avoiding ``c`` in the moral ancestral
    graph of ``a | b | c``, or None when no such path exists.

    One breadth-first walk, with no graph built: the ancestral set is
    taken once, and the moral neighbours of ``v`` are read on the fly as
    its parents, its children inside the set and those children's other
    parents.  Neighbours are visited in declaration order, so the
    returned witness is deterministic.
    """
    a, b, c = set(a), set(b), set(c)
    _disjoint(a, b, c)
    keep = set(ancestral_closure(dag, a | b | c))
    prev: dict[Node, Node | None] = {v: v for v in a}
    queue = deque(dag.sort(a))
    while queue:
        v = queue.popleft()
        if v in b:
            path = [v]
            while prev[path[-1]] != path[-1]:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        near = set(dag._parents[v])
        for child in dag._children[v]:
            if child in keep:
                near.add(child)
                near.update(dag._parents[child])
        for w in dag.sort(near - c - prev.keys()):
            prev[w] = v
            queue.append(w)
    return None


def separated(dag: Dag, a: Iterable[Node], b: Iterable[Node], c: Iterable[Node]) -> bool:
    """Whether ``c`` separates ``a`` from ``b`` in the moral ancestral graph."""
    return connecting_path(dag, a, b, c) is None
