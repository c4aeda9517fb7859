"""Offline neighbor-set index.

Relevance scoring only ever asks one question of the graph: which concepts
sit within the distance threshold of a given concept.  Answering that with
per-pair shortest-path searches at evaluation time is expensive, so the
within-radius neighbor sets of every corpus concept are precomputed once
and persisted; evaluation then needs no graph at all.

Index file format (UTF-8 text)::

    #nnidx v1 radius=<n> checksum=<hex>
    conceptId<TAB>neighbor1,neighbor2,...

Concepts appear one per line, sorted; neighbor lists are sorted and
comma-separated; a concept with no neighbors keeps the tab and an empty
list.  The checksum is the SHA-256 of the edge file the index was built
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

from .distance import bounded_neighborhood, checked_radius
from .errors import IndexFormatError
from .kg_store import KnowledgeGraph

FORMAT_VERSION = 1

_HEADER_RE = re.compile(r"#nnidx v\d+ radius=(\d+) checksum=([0-9a-f]+)")

# The format's separators (``,`` between neighbors, tab before them, any
# line boundary ``str.splitlines`` knows): a concept containing one could
# not be read back.
_UNSTORABLE = re.compile(r"[,\t\n\r\v\f\x1c\x1d\x1e\x85\u2028\u2029]")

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
    the hierarchy are treated everywhere else.
    """
    checked_radius(radius)
    vocabulary = set(concepts)
    entries: dict[str, frozenset[str]] = {}
    for concept in sorted(vocabulary):
        if graph.has_node(concept):
            entries[concept] = frozenset(
                bounded_neighborhood(graph, concept, radius) & vocabulary
            )
        else:
            entries[concept] = _EMPTY
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

    Raises :class:`IndexFormatError` on a missing/malformed header, an
    unsupported version, a malformed record, a neighbor list at radius 0,
    or a neighbor relation that is not symmetric (a neighbor without an
    entry of its own, or one that does not list the concept back).
    """
    text = Path(path).read_text(encoding="utf-8-sig")
    lines = text.splitlines()
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
                f"line {lineno}: expected 'concept<TAB>neighbors', got {line!r}"
            )
        concept, neighbor_field = parts
        if not concept:
            raise IndexFormatError(f"line {lineno}: empty concept identifier")
        if concept in entries:
            raise IndexFormatError(f"line {lineno}: duplicate entry for {concept!r}")
        neighbors = frozenset(n for n in neighbor_field.split(",") if n)
        if concept in neighbors:
            raise IndexFormatError(
                f"line {lineno}: {concept!r} lists itself as a neighbor"
            )
        if neighbors and radius == 0:
            raise IndexFormatError(
                f"line {lineno}: {concept!r} lists neighbors, but the index radius is 0"
            )
        entries[concept] = neighbors
    # every record line holds one entry, in file order
    for lineno, (concept, neighbors) in enumerate(entries.items(), start=2):
        for neighbor in sorted(neighbors):
            back = entries.get(neighbor)
            if back is None:
                raise IndexFormatError(
                    f"line {lineno}: {concept!r} lists neighbor "
                    f"{neighbor!r}, which has no entry of its own"
                )
            if concept not in back:
                raise IndexFormatError(
                    f"line {lineno}: {concept!r} lists neighbor "
                    f"{neighbor!r}, but {neighbor!r} does not list {concept!r} back"
                )
    return NeighborIndex(radius=radius, source_checksum=checksum, entries=entries)
