"""Shortest-path distances between concepts.

Distance is the minimum hop count between two concepts treating edges as
undirected; a pair with no connecting path gets the distinguished
``UNREACHABLE`` value rather than a sentinel integer, so threshold
comparisons against it fail loudly instead of silently matching.

Pure functions over an immutable graph; safe to call from many threads.
"""

from __future__ import annotations

from .errors import ConfigError
from .kg_store import KnowledgeGraph


class Unreachable:
    """Singleton marker for "no path exists"; not comparable to integers."""

    _instance = None

    def __new__(cls):
        if cls._instance is None:
            cls._instance = super().__new__(cls)
        return cls._instance

    def __repr__(self) -> str:
        return "UNREACHABLE"


UNREACHABLE = Unreachable()

Distance = int | Unreachable


def shortest_path_len(graph: KnowledgeGraph, x: str, y: str) -> Distance:
    """Length of the shortest undirected path between two concepts.

    Returns 0 iff ``x == y`` and ``UNREACHABLE`` when the concepts lie in
    disjoint components.  Unknown concepts raise
    :class:`~nniou.errors.UnknownConceptError`.
    """
    src = graph.node_id(x)
    dst = graph.node_id(y)
    if src == dst:
        return 0
    # a set, not a bytearray per node: a search touches few of a large
    # graph's nodes, and allocating the whole table cost more than the walk
    seen = {src}
    frontier = [src]
    depth = 0
    while frontier:
        depth += 1
        nxt: list[int] = []
        for u in frontier:
            for v in graph.neighbor_ids(u):
                if v == dst:
                    return depth
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        frontier = nxt
    return UNREACHABLE


def bounded_neighborhood(graph: KnowledgeGraph, x: str, n: int) -> set[str]:
    """All concepts within ``n`` hops of ``x``, excluding ``x`` itself.

    Breadth-first traversal truncated at depth ``n``; never explores
    further, so radius 0 returns the empty set without touching edges.
    """
    if n < 0:
        raise ConfigError(f"radius must be >= 0, got {n}")
    src = graph.node_id(x)
    if n == 0:
        return set()
    seen = {src}
    frontier = [src]
    for _ in range(n):
        nxt: list[int] = []
        for u in frontier:
            for v in graph.neighbor_ids(u):
                if v not in seen:
                    seen.add(v)
                    nxt.append(v)
        if not nxt:
            break
        frontier = nxt
    seen.remove(src)
    return {graph.name_of(i) for i in seen}
