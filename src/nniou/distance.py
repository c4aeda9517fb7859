"""Shortest-path distances and bounded neighborhoods between concepts.

Distance is the minimum hop count between two concepts treating edges as
undirected; a pair with no connecting path gets the distinguished
``UNREACHABLE`` value rather than a sentinel integer, so threshold
comparisons against it fail loudly instead of silently matching.  Both
questions are answered by one layered breadth-first walk, which yields
the concepts first reached at each hop distance.  A walk bounded at ``n``
hops first gathers every neighbor list it will read, one batched graph
lookup per hop, so a top-down graph can answer from its edge arrays.

Pure functions over an immutable graph; safe to call from many threads.
"""

from __future__ import annotations

from itertools import islice
from typing import Callable, Iterator, Sequence

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


def _layers(neighbors: Callable[[int], Sequence[int]], src: int) -> Iterator[list[int]]:
    """Yield the ids first reached at hop distance 1, 2, ... from ``src``.

    One list per distance, each non-empty; the walk stops when a layer
    reaches no new node, and a caller that stops iterating stops the walk.
    """
    # a set, not a bytearray per node: a search touches few of a large
    # graph's nodes, and allocating the whole table cost more than the walk
    seen = {src}
    frontier = [src]
    while True:
        layer: list[int] = []
        for u in frontier:
            for v in neighbors(u):
                if v not in seen:
                    seen.add(v)
                    layer.append(v)
        if not layer:
            return
        yield layer
        frontier = layer


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
    for depth, layer in enumerate(_layers(graph.neighbor_ids, src), start=1):
        if dst in layer:
            return depth
    return UNREACHABLE


def checked_radius(n: int) -> int:
    """A distance threshold, which must be >= 0."""
    if n < 0:
        raise ConfigError(f"radius must be >= 0, got {n}")
    return n


def bounded_neighborhood(graph: KnowledgeGraph, x: str, n: int) -> set[str]:
    """All concepts within ``n`` hops of ``x``, excluding ``x`` itself.

    The first ``n`` layers of the walk; radius 0 returns the empty set
    without touching edges.
    """
    checked_radius(n)
    (ball,) = bounded_neighborhood_ids(graph, [graph.node_id(x)], n)
    return {graph.name_of(i) for i in ball}


def bounded_neighborhood_ids(
    graph: KnowledgeGraph, sources: Sequence[int], n: int
) -> Iterator[list[int]]:
    """For each source id in turn, the ids within ``n`` hops of it, excluding it.

    Every neighbor list the walks read is gathered first, in at most ``n``
    batched lookups: hop ``k`` looks up the nodes first reached at hop
    ``k - 1`` from any source.  Then each source is walked alone, so only
    one ball is alive at a time.
    """
    lists: dict[int, Sequence[int]] = {}
    fresh = set(sources)
    for hop in range(n):
        if hop:
            fresh = {v for vs in found.values() for v in vs if v not in lists}
        if not fresh:
            break
        found = graph.neighbor_lists(fresh)
        lists.update(found)
    for src in sources:
        yield [v for layer in islice(_layers(lists.__getitem__, src), n) for v in layer]
