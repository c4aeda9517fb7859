"""Hop distances, bounded neighborhoods and the offline neighbor-set index.

Distance is the minimum hop count between two concepts treating edges as
undirected; a pair with no connecting path gets the distinguished
``UNREACHABLE`` value rather than a sentinel integer, so threshold
comparisons against it fail loudly instead of silently matching.  Both
distances and neighborhoods come from one layered breadth-first walk,
which yields the concepts first reached at each hop distance.  Every walk
makes one batched graph lookup per hop, so a top-down graph can answer
from its edge lists.  A walk bounded at ``n`` hops gathers every neighbor
list it will read first, for all its sources at once.  The walks are pure
functions over an immutable graph, safe to call from many threads.

Relevance scoring only ever asks one question of the graph: which concepts
sit within the distance threshold of a given concept.  Answering that with
per-pair shortest-path searches at evaluation time is expensive, so the
within-radius neighbor sets of every corpus concept are precomputed once
and persisted; evaluation then needs no graph at all.

Index file format (UTF-8 text read with universal newlines, so a record
ends at ``\n``, ``\r\n`` or ``\r`` and at no other character)::

    #nnidx v1 radius=<n> checksum=<hex>
    conceptId<TAB>neighbor1,neighbor2,...

Concepts appear one per line, sorted; neighbor lists are sorted and
comma-separated; a concept with no neighbors keeps the tab and an empty
list.  A concept may hold any character but a comma, a tab, ``\n`` or
``\r``.  The checksum is the SHA-256 of the edge file the index was built
from, so stale indexes are detectable.  The neighbor relation is
symmetric and closed (every listed neighbor has its own entry listing the
concept back), and empty at radius 0; a file that breaks this is rejected
on load, since scoring reads the neighbor lists and not the radius.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field
from itertools import islice
from pathlib import Path
from typing import Callable, Iterable, Iterator, Mapping, Sequence

from .errors import ConfigError, IndexFormatError, text_lines
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


def _layers(
    lookup: Callable[[list[int]], Mapping[int, Sequence[int]]], src: int
) -> Iterator[list[int]]:
    """Yield the ids first reached at hop distance 1, 2, ... from ``src``.

    One list per distance, each non-empty.  Each hop makes one ``lookup``
    of the whole frontier, which maps each of its ids to its neighbors.
    The walk stops when a layer reaches no new node, and a caller that
    stops iterating stops the walk.
    """
    # a set, not a bytearray per node: a search touches few of a large
    # graph's nodes, and allocating the whole table cost more than the walk
    seen = {src}
    frontier = [src]
    while True:
        lists = lookup(frontier)
        layer: list[int] = []
        for u in frontier:
            for v in lists[u]:
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
    for depth, layer in enumerate(_layers(graph.neighbor_lists, src), start=1):
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
    (layers,) = bounded_neighborhood_ids(graph, [graph.node_id(x)], n)
    return {graph.name_of(i) for layer in layers for i in layer}


def bounded_neighborhood_ids(
    graph: KnowledgeGraph, sources: Sequence[int], n: int
) -> Iterator[Iterator[list[int]]]:
    """For each source id in turn, an iterator over its first ``n`` hop layers.

    The layers are those of :func:`_layers`: the ids first reached at each
    hop, so their concatenation is the source's ball, excluding it.

    Every neighbor list the walks read is gathered first, in at most ``n``
    batched lookups: hop ``k`` looks up the nodes first reached at hop
    ``k - 1`` from any source.  Then each source is walked alone, as its
    layers are read, so only one walk is alive at a time.
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
        yield islice(_layers(lambda _: lists, src), n)


FORMAT_VERSION = 1

_HEADER_RE = re.compile(r"#nnidx v[0-9]+ radius=([0-9]+) checksum=([0-9a-f]+)")

# The format's separators: ``,`` between neighbors, a tab before them, and
# the line ends that universal newlines read (``\n``, ``\r``).  A concept
# holding one could not be read back; any other character round-trips.
_UNSTORABLE = re.compile(r"[,\t\n\r]")

_EMPTY: frozenset[str] = frozenset()


@dataclass
class NeighborIndex:
    """Per-concept neighbor sets at a fixed radius.

    Immutable after construction; safe for unrestricted concurrent reads.
    Querying a concept that was never indexed returns the empty set rather
    than raising, so evaluation cannot crash on unseen concepts.
    """

    radius: int
    source_checksum: str
    entries: dict[str, frozenset[str]] = field(default_factory=dict)

    def neighbors(self, concept: str) -> frozenset[str]:
        return self.entries.get(concept, _EMPTY)

    def __contains__(self, concept: str) -> bool:
        return concept in self.entries

    def __len__(self) -> int:
        return len(self.entries)


def build_index(
    graph: KnowledgeGraph, concepts: Iterable[str], radius: int
) -> NeighborIndex:
    """Index every given concept with its within-radius neighbors.

    Only the given concepts are indexed and only they may appear as
    neighbors of each other; the rest of the graph is traversed but not
    recorded.  Concepts absent from the graph are registered with empty
    neighbor sets (isolated), matching how corpus concepts missing from
    the hierarchy are treated everywhere else.  All the walks share one
    batched neighbor lookup per hop, ``radius`` in all, so a top-down
    graph seldom needs its undirected view.  The one-radius case of
    :func:`build_indexes`.
    """
    return build_indexes(graph, concepts, [radius])[0]


def build_indexes(
    graph: KnowledgeGraph, concepts: Iterable[str], radii: Sequence[int]
) -> list[NeighborIndex]:
    """:func:`build_index` at each of ``radii``, in order, from one walk.

    The walk goes to the largest radius, and radius ``r``'s entry of a
    concept is its first ``r`` hop layers, filtered to the given concepts.
    Radius 0 needs no walk: an index there touches no edge and asks the
    graph nothing.
    """
    radii = [checked_radius(radius) for radius in radii]
    vocabulary = set(concepts)
    # one table per distinct radius, ascending; an index never changes, so
    # a repeated radius shares its table
    tables = {radius: dict.fromkeys(sorted(vocabulary), _EMPTY) for radius in sorted(radii)}
    deeper = [(radius, table) for radius, table in tables.items() if radius]
    if deeper:
        deepest = max(radii)
        known = [c for c in tables[deepest] if graph.has_node(c)]
        names = graph.node_names
        walks = bounded_neighborhood_ids(graph, [graph.node_id(c) for c in known], deepest)
        for concept, layers in zip(known, walks):
            ball: list[str] = []
            depth = 0
            for radius, table in deeper:
                ball += [names[i] for layer in islice(layers, radius - depth) for i in layer]
                table[concept], depth = frozenset(ball) & vocabulary, radius
    return [
        NeighborIndex(radius=radius, source_checksum=graph.source_checksum, entries=tables[radius])
        for radius in radii
    ]


def save_index(index: NeighborIndex, path: str | Path) -> None:
    """Write the index in the nnidx v1 text format (sorted, reproducible).

    Raises :class:`IndexFormatError`, before anything is written, naming
    the first (smallest) concept that holds one of the format's separators.
    """
    # a closed index lists only entries as neighbors, so this covers them too
    if _UNSTORABLE.search("".join(index.entries)):
        bad = min(c for c in index.entries if _UNSTORABLE.search(c))
        raise IndexFormatError(
            f"cannot store concept {bad!r}: it contains a comma, tab or line break"
        )
    lines = [
        f"#nnidx v{FORMAT_VERSION} radius={index.radius} checksum={index.source_checksum}"
    ]
    for concept in sorted(index.entries):
        lines.append(f"{concept}\t{','.join(sorted(index.entries[concept]))}")
    Path(path).write_text("\n".join(lines) + "\n", encoding="utf-8")


def load_index(path: str | Path) -> NeighborIndex:
    """Read an nnidx file back into a :class:`NeighborIndex`.

    Raises :class:`IndexFormatError` on bytes that are not UTF-8, a
    missing/malformed header, an unsupported version, a malformed record,
    a neighbor list at radius 0, or a neighbor relation that is not
    symmetric (a neighbor without an entry of its own, or one that does
    not list the concept back).
    """
    with text_lines(Path(path).read_bytes(), IndexFormatError) as stream:
        lines = [line.rstrip("\n") for line in stream]
    if not lines:
        raise IndexFormatError("empty index file")
    versioned = re.match(r"#nnidx v([0-9]+)\b", lines[0])
    if versioned and int(versioned.group(1)) != FORMAT_VERSION:
        raise IndexFormatError(
            f"unsupported index version {int(versioned.group(1))} "
            f"(expected {FORMAT_VERSION})"
        )
    header = _HEADER_RE.fullmatch(lines[0])
    if header is None:
        raise IndexFormatError(
            "malformed index header: expected "
            "'#nnidx v1 radius=<n> checksum=<hex>', got "
            f"{lines[0]!r}"
        )
    radius = int(header.group(1))
    checksum = header.group(2)

    entries: dict[str, frozenset[str]] = {}
    for lineno, line in enumerate(lines[1:], start=2):
        parts = line.split("\t")
        if len(parts) != 2:
            raise IndexFormatError(
                f"expected 'concept<TAB>neighbors', got {line!r}", line=lineno
            )
        concept, neighbor_field = parts
        if not concept:
            raise IndexFormatError("empty concept identifier", line=lineno)
        if concept in entries:
            raise IndexFormatError(f"duplicate entry for {concept!r}", line=lineno)
        neighbors = frozenset(n for n in neighbor_field.split(",") if n)
        if concept in neighbors:
            raise IndexFormatError(
                f"{concept!r} lists itself as a neighbor", line=lineno
            )
        if neighbors and radius == 0:
            raise IndexFormatError(
                f"{concept!r} lists neighbors, but the index radius is 0", line=lineno
            )
        entries[concept] = neighbors
    # every record line holds one entry, in file order
    for lineno, (concept, neighbors) in enumerate(entries.items(), start=2):
        for neighbor in sorted(neighbors):
            back = entries.get(neighbor)
            if back is None:
                raise IndexFormatError(
                    f"{concept!r} lists neighbor {neighbor!r}, which has no entry "
                    "of its own",
                    line=lineno,
                )
            if concept not in back:
                raise IndexFormatError(
                    f"{concept!r} lists neighbor {neighbor!r}, but {neighbor!r} "
                    f"does not list {concept!r} back",
                    line=lineno,
                )
    return NeighborIndex(radius=radius, source_checksum=checksum, entries=entries)
