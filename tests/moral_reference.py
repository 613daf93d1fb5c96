"""The moral ancestral graph built as an object: the reference that
``regimes.graph.connecting_path``'s on-the-fly walk is checked against.

``moral_ancestral`` keeps the smallest ancestral subgraph containing a
seed, marries unlinked co-parents and drops edge directions, giving an
``UndirectedGraph`` whose neighbours are sorted by declaration order.
``reference_path`` is a plain breadth-first search over that graph.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass, field
from typing import Iterable

from regimes.errors import InputError, ModelError
from regimes.graph import Dag


@dataclass(frozen=True)
class UndirectedGraph:
    """Undirected graph with the same declaration-order conventions."""

    nodes: tuple[str, ...]
    edges: frozenset[frozenset]
    _adj: dict = field(init=False, repr=False, compare=False)

    def __init__(self, nodes: Iterable[str], edges: Iterable):
        nodes = tuple(nodes)
        index = {v: i for i, v in enumerate(nodes)}
        adj = {v: set() for v in nodes}
        norm = set()
        for e in edges:
            u, v = tuple(e)
            if u not in index or v not in index:
                raise InputError(f"edge ({u}, {v}) references an undeclared node")
            if u == v:
                raise ModelError(f"self-loop at {u}")
            norm.add(frozenset((u, v)))
            adj[u].add(v)
            adj[v].add(u)
        object.__setattr__(self, "nodes", nodes)
        object.__setattr__(self, "edges", frozenset(norm))
        object.__setattr__(self, "_adj", {v: tuple(sorted(s, key=index.__getitem__)) for v, s in adj.items()})

    def neighbors(self, v: str) -> tuple[str, ...]:
        if v not in self._adj:
            raise InputError(f"unknown node {v!r}")
        return self._adj[v]


def moralize(dag: Dag) -> UndirectedGraph:
    """Marry unlinked co-parents, then drop edge directions."""
    edges = {frozenset(e) for e in dag.edges}
    for v in dag.nodes:
        ps = dag.parents(v)
        for i in range(len(ps)):
            for j in range(i + 1, len(ps)):
                edges.add(frozenset((ps[i], ps[j])))
    return UndirectedGraph(dag.nodes, edges)


def moral_ancestral(dag: Dag, seed: Iterable[str]) -> UndirectedGraph:
    """Moralization of the smallest ancestral subgraph containing ``seed``."""
    keep = set(seed)
    todo = list(keep)
    while todo:
        for p in dag.parents(todo.pop()):
            if p not in keep:
                keep.add(p)
                todo.append(p)
    sub = Dag(
        tuple(v for v in dag.nodes if v in keep),
        [(u, v) for u, v in dag.edges if u in keep and v in keep],
    )
    return moralize(sub)


def reference_path(dag: Dag, a, b, c) -> tuple[str, ...] | None:
    """Breadth-first path from ``a`` to ``b`` avoiding ``c`` over the built
    moral ancestral graph of ``a | b | c``, neighbours in declaration
    order; None when there is none."""
    a, b, c = set(a), set(b), set(c)
    graph = moral_ancestral(dag, a | b | c)
    prev = {v: v for v in a}
    queue = deque(v for v in graph.nodes if v in a)
    while queue:
        v = queue.popleft()
        if v in b:
            path = [v]
            while prev[path[-1]] != path[-1]:
                path.append(prev[path[-1]])
            return tuple(reversed(path))
        for w in graph.neighbors(v):
            if w not in c and w not in prev:
                prev[w] = v
                queue.append(w)
    return None
