"""Offline neighbor-set index.

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
from pathlib import Path
from typing import Iterable

# bounded_neighborhood is unused here but stays a module attribute:
# benchmarks/tracer.py wraps it.
from .distance import bounded_neighborhood, bounded_neighborhood_ids, checked_radius
from .errors import IndexFormatError
from .kg_store import KnowledgeGraph

FORMAT_VERSION = 1

_HEADER_RE = re.compile(r"#nnidx v\d+ radius=(\d+) checksum=([0-9a-f]+)")

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
    graph seldom needs its undirected view.
    """
    checked_radius(radius)
    vocabulary = set(concepts)
    entries = dict.fromkeys(sorted(vocabulary), _EMPTY)
    known = [c for c in entries if graph.has_node(c)]
    names = graph.node_names
    balls = bounded_neighborhood_ids(graph, [graph.node_id(c) for c in known], radius)
    for concept, ball in zip(known, balls):
        entries[concept] = frozenset([names[i] for i in ball]) & vocabulary
    return NeighborIndex(radius=radius, source_checksum=graph.source_checksum, entries=entries)


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
    try:
        with open(path, encoding="utf-8-sig") as stream:
            lines = [line.rstrip("\n") for line in stream]
    except UnicodeDecodeError as exc:
        raise IndexFormatError.undecodable(path, exc) from None
    if not lines:
        raise IndexFormatError("empty index file")
    versioned = re.match(r"#nnidx v(\d+)\b", lines[0])
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
