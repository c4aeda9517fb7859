"""Concept knowledge-graph loading and validation.

The graph holds hierarchical (is_a) relations between concepts.  Each edge
is a directed child -> parent pair; distance computations traverse the
undirected view.  Edge files and in-memory pairs go through one loader:
identifiers are interned to dense integers in first-seen order and the
distinct edges are kept as two parallel int arrays (children, parents).
The undirected view is one flat array of neighbor ids with per-node
offsets; it holds no per-node container.  The graph's ``acyclic`` and
``cycle`` attributes hold the acyclicity verdict and, for a cyclic graph,
a witness cycle.

A file is top-down when each ``child<TAB>parent`` record names a child
that no earlier line named, as a file listing a taxonomy parents first
does.  Such a file is acyclic by its record order alone: number each node
by the record that made it a child, or -1 if none did.  A node can become
a child only on the record that first names it, so a parent, named by its
child's record at the latest, has a smaller number than the child, and
the numbers fall strictly along every edge.  Nor can its edges repeat,
since no child does.  Every other input is decided at load time by
Kahn's in-degree peel (Kahn 1962), linear in nodes plus edges, which
needs the undirected view.  A top-down graph defers the view: it answers
a batch of neighbor lookups by scanning its two edge arrays, and builds
the view only once further scans would cost more than building it, or on
a single-node lookup.  So a load that walks no edge never pays for it,
nor does a walk of a few hops from a small vocabulary.

Edge file format (UTF-8 text read with universal newlines, so a record
ends at ``\n``, ``\r\n`` or ``\r`` and at no other character; a leading
byte-order mark is skipped):
  - ``#`` starts a comment line; blank lines are ignored
  - ``child<TAB>parent`` declares an is_a edge
  - a bare ``node`` registers an isolated concept

Identifiers may not contain tabs or newlines; surrounding whitespace is
trimmed.  The graph is immutable after load and safe for concurrent reads.
"""

from __future__ import annotations

import hashlib
import io
import re
from array import array
from bisect import bisect_left
from itertools import accumulate, chain, compress, islice
from operator import add, eq, not_
from pathlib import Path
from typing import Collection, Iterable, Sequence

from .errors import EdgeFileError, UnknownConceptError

CUI_PATTERN = re.compile(r"C\d{7}")

# Edges are deduplicated on the int key child << _SHIFT | parent, which is
# unique while node ids stay below 2**32.
_SHIFT = 32
_MASK = (1 << _SHIFT) - 1

# A top-down graph answers a batch of neighbor lookups by scanning its two
# edge arrays until scans would cost more than building the undirected
# view: ski rental (Karlin et al. 1988), which rents until the rent paid
# would have bought.  On the 200,000-node sparse benchmark file, under
# CPython 3.11 on a shared 2-vCPU Xeon VM, one scan for its 1,664 corpus
# concepts took a median 21 ms over 9 repeats and building the view
# 209 ms, a ratio of 10.  A scan's cost also grows by about 2.5 us per id
# it asks for, so the ids asked for in all are capped as well.
_SCANS = 10


def _keep_scanning(scans: int, scanned: int, num_nodes: int) -> bool:
    """Whether a top-down graph should scan once more rather than build its view.

    ``scans`` counts the scans made so far and ``scanned`` the ids they and
    the next batch ask for.  A graph scans at most ``_SCANS`` times, for
    under ``num_nodes / _SCANS`` ids in all, so scans and the view cost at
    most about two view builds together.
    """
    return scans < _SCANS and scanned * _SCANS < num_nodes


def normalize_concept_id(raw: str, strict_cui: bool = False) -> str:
    """Trim and validate a concept identifier.

    With ``strict_cui`` the identifier must be the letter ``C`` followed by
    exactly seven decimal digits.  Raises ValueError on violation.
    """
    concept = raw.strip()
    if not concept:
        raise ValueError("empty concept identifier")
    if strict_cui and not CUI_PATTERN.fullmatch(concept):
        raise ValueError(
            f"invalid CUI {concept!r}: expected the letter 'C' followed by seven digits"
        )
    return concept


def _reject(fields: Sequence[str], strict_cui: bool, line: int | None) -> None:
    """Raise the error of the first invalid identifier among ``fields``."""
    for raw in fields:
        try:
            normalize_concept_id(raw, strict_cui)
        except ValueError as exc:
            raise EdgeFileError(str(exc), line=line) from None


def _intern(
    rows: Iterable[tuple[int | None, Sequence[str]]], strict_cui: bool
) -> tuple[dict[str, int], list[int], list[int], bool]:
    """Intern ``(line, fields)`` records and deduplicate their edges.

    ``fields`` holds one raw identifier (a node) or two (child, parent).
    Returns the identifier -> id map in first-seen order, the distinct
    edges, in first-seen order, as parallel child and parent id lists, and
    whether the records are top-down (each names a child no earlier record
    or node line named).  Errors are :class:`EdgeFileError` naming ``line``
    unless it is None.
    """
    index: dict[str, int] = {}
    top_down = True
    intern = index.setdefault
    children: list[int] = []
    parents: list[int] = []
    add_child = children.append
    add_parent = parents.append
    match = CUI_PATTERN.fullmatch if strict_cui else None
    for line, fields in rows:
        if len(fields) == 2:
            child, parent = fields
            child = child.strip()
            parent = parent.strip()
            if not (child and parent) or (match and not (match(child) and match(parent))):
                _reject(fields, strict_cui, line)
            fresh = len(index)
            c = intern(child, fresh)
            p = intern(parent, len(index))
            if c == p:
                raise EdgeFileError(f"self-loop edge {child!r}", line=line)
            if c != fresh:
                top_down = False
            add_child(c)
            add_parent(p)
        elif len(fields) == 1:
            node = fields[0].strip()
            if not node or (match and not match(node)):
                _reject(fields, strict_cui, line)
            intern(node, len(index))
        else:
            raise EdgeFileError(
                f"expected 1 or 2 tab-separated fields, got {len(fields)}",
                line=line,
            )
    if top_down:
        return index, children, parents, True
    # A repeated edge repeats its child.  Keying every edge takes several
    # times the memory of the edge lists, so it is done only when some
    # child is listed twice, which a tree never does.
    ordered = sorted(children)
    if any(map(eq, ordered, islice(ordered, 1, None))):
        distinct = dict.fromkeys([c << _SHIFT | p for c, p in zip(children, parents)])
        if len(distinct) < len(children):
            children = [key >> _SHIFT for key in distinct]
            parents = [key & _MASK for key in distinct]
    return index, children, parents, False


def _adjacency(
    num_nodes: int, children: Sequence[int], parents: Sequence[int]
) -> tuple[array, array, array, list[int]]:
    """Flat undirected adjacency, plus what Kahn's peel needs.

    Node ``u`` owns ``targets[offsets[u]:offsets[u + 1]]``: its parents up
    to ``split[u]``, then its children, both in edge order.  Returns
    ``(offsets, targets, split, indegree)``, where ``indegree`` counts
    each node's children.
    """
    outdegree = [0] * num_nodes
    for c in children:
        outdegree[c] += 1
    indegree = [0] * num_nodes
    for p in parents:
        indegree[p] += 1
    offsets = array("q", [0])
    offsets.extend(accumulate(map(add, outdegree, indegree)))
    targets = array("q", bytes(8 * offsets[-1]))
    up = offsets[:-1]
    down = array("q", map(add, up, outdegree))
    split = down[:]
    for c, p in zip(children, parents):
        targets[up[c]] = p
        up[c] += 1
        targets[down[p]] = c
        down[p] += 1
    return offsets, targets, split, indegree


def _kahn(
    offsets: array, targets: array, split: array, indegree: list[int]
) -> int:
    """Kahn's in-degree peel, children before parents; returns the peeled count.

    ``indegree`` is consumed: afterwards it is nonzero exactly on the
    nodes left unpeeled, which all lie on or above a directed cycle.
    """
    # an array, not a list, so a large graph's ids are not all alive as ints
    order = array("q", compress(range(len(indegree)), map(not_, indegree)))
    append = order.append
    for u in order:
        for p in targets[offsets[u]:split[u]]:
            left = indegree[p] - 1
            indegree[p] = left
            if not left:
                append(p)
    return len(order)


def _witness(
    offsets: array, targets: array, split: array, indegree: list[int]
) -> list[int]:
    """A directed cycle among the nodes a Kahn peel left behind.

    An unpeeled node still counts an unpeeled child, so stepping from
    child to child must revisit a node.  The walk runs against the edges;
    the loop it closes is returned reversed, starting and ending on the
    same node (``[a, b, a]`` for a 2-cycle).
    """
    node = next(v for v, left in enumerate(indegree) if left)
    walk: list[int] = []
    step: dict[int, int] = {}
    while node not in step:
        step[node] = len(walk)
        walk.append(node)
        node = next(c for c in targets[split[node]:offsets[node + 1]] if indegree[c])
    cycle = walk[step[node]:] + [node]
    cycle.reverse()
    return cycle


def _drop_twins(offsets: array, targets: array) -> tuple[array, array]:
    """Keep one copy of each neighbor: a pair listed both ways appears twice.

    The copy among the node's parents is kept.  Only a cyclic graph can
    list a pair both ways.
    """
    kept_offsets = array("q", [0])
    kept = array("q")
    for u in range(len(offsets) - 1):
        kept.extend(dict.fromkeys(targets[offsets[u]:offsets[u + 1]]))
        kept_offsets.append(len(kept))
    return kept_offsets, kept


class KnowledgeGraph:
    """Immutable concept graph: interned nodes plus directed is_a edges.

    ``acyclic`` records whether the directed edge set is a DAG.  When it is
    not, ``cycle`` is a witness: concepts along directed edges, starting
    and ending on the same one; for a DAG it is None.  Cyclic input is
    usable (distances run on the undirected view) but callers may want to
    surface the warning.

    Input listed top-down is acyclic by its record order; any other input
    is checked by Kahn's peel while it loads, which builds the undirected
    view.  A top-down graph answers :meth:`neighbor_lists` batches by
    scanning its edge arrays while that stays cheaper, and builds the view
    once it no longer does, or on the first :meth:`neighbor_ids` call.
    """

    __slots__ = (
        "_names",
        "_index",
        "_children",
        "_parents",
        "_undirected",
        "_scans",
        "acyclic",
        "cycle",
        "source_checksum",
    )

    def __init__(
        self,
        index: dict[str, int],
        children: list[int],
        parents: list[int],
        top_down: bool,
        source_checksum: str,
    ):
        # The arguments are what _intern returns: identifier -> id in
        # first-seen order, distinct (child, parent) id pairs with no
        # self-loops, and whether the records were top-down.  Use
        # from_edges or parse_edge_file instead.
        self._names = tuple(index)
        self._index = index
        self.acyclic = True
        self.cycle = None
        # (offsets, targets), or None until a top-down graph needs it
        self._undirected: tuple[array, array] | None = None
        # (scans made, ids they asked for), counted until the view is built
        self._scans = (0, 0)
        if not top_down:
            offsets, targets, split, indegree = _adjacency(len(index), children, parents)
            self.acyclic = _kahn(offsets, targets, split, indegree) == len(index)
            if not self.acyclic:
                self.cycle = [
                    self._names[i] for i in _witness(offsets, targets, split, indegree)
                ]
                offsets, targets = _drop_twins(offsets, targets)
            self._undirected = (offsets, targets)
        # Arrays, not lists: the garbage collector never scans an array,
        # while each full collection walks every element of a list.
        self._children = array("q", children)
        self._parents = array("q", parents)
        self.source_checksum = source_checksum

    @classmethod
    def from_edges(
        cls,
        edges: Iterable[tuple[str, str]],
        nodes: Iterable[str] = (),
    ) -> "KnowledgeGraph":
        """Build a graph from (child, parent) pairs plus optional isolated nodes."""
        rows = chain(
            ((None, (node,)) for node in nodes),
            ((None, (child, parent)) for child, parent in edges),
        )
        try:
            index, children, parents, top_down = _intern(rows, False)
        except EdgeFileError as exc:
            raise ValueError(str(exc)) from None
        names = list(index)
        checksum = _canonical_checksum(
            names, [(names[c], names[p]) for c, p in zip(children, parents)]
        )
        return cls(index, children, parents, top_down, checksum)

    @property
    def num_nodes(self) -> int:
        return len(self._names)

    @property
    def num_edges(self) -> int:
        return len(self._children)

    @property
    def node_names(self) -> tuple[str, ...]:
        return self._names

    def edges(self) -> list[tuple[str, str]]:
        """Directed (child, parent) pairs in first-seen order."""
        names = self._names
        return [(names[c], names[p]) for c, p in zip(self._children, self._parents)]

    def has_node(self, concept: str) -> bool:
        return concept in self._index

    def node_id(self, concept: str) -> int:
        try:
            return self._index[concept]
        except KeyError:
            raise UnknownConceptError(concept) from None

    def name_of(self, node_id: int) -> str:
        return self._names[node_id]

    def neighbor_ids(self, node_id: int) -> Sequence[int]:
        """Undirected neighbors, each once: parents, then children, in edge order."""
        offsets, targets = self._undirected or self._view()
        return targets[offsets[node_id]:offsets[node_id + 1]]

    def neighbor_lists(self, ids: Collection[int]) -> dict[int, Sequence[int]]:
        """Each id's :meth:`neighbor_ids`, for a whole batch of ids at once.

        A graph that has its undirected view slices it.  A top-down graph
        scans its edge arrays instead until scans would cost more than
        building the view (see :func:`_keep_scanning`), and then builds it.
        """
        view = self._undirected
        if view is None:
            scans, scanned = self._scans
            scanned += len(ids)
            if _keep_scanning(scans, scanned, len(self._names)):
                # threads may race on the counts: a lost update costs one
                # more scan, never a different answer
                self._scans = (scans + 1, scanned)
                return self._scan(ids)
            view = self._view()
        offsets, targets = view
        return {u: targets[offsets[u]:offsets[u + 1]] for u in ids}

    def _scan(self, ids: Collection[int]) -> dict[int, list[int]]:
        """:meth:`neighbor_lists` of a top-down graph, from its edge arrays.

        Each record's child is the next fresh id, so the children strictly
        increase: a node's one parent edge is found by bisection, and the
        child edges of every id by one pass over the parents.
        """
        children, parents = self._children, self._parents
        end = len(children)
        lists: dict[int, list[int]] = {}
        for u in ids:
            i = bisect_left(children, u)
            lists[u] = [parents[i]] if i < end and children[i] == u else []
        for e in compress(range(end), map(lists.__contains__, parents)):
            lists[parents[e]].append(children[e])
        return lists

    def _view(self) -> tuple[array, array]:
        """The undirected view ``(offsets, targets)``, built on first use."""
        view = self._undirected
        if view is None:
            # one assignment: a concurrent reader sees both arrays or none,
            # and two threads that both build them build equal ones
            view = self._undirected = _adjacency(
                len(self._names), self._children, self._parents
            )[:2]
        return view

    def neighbors(self, concept: str) -> tuple[str, ...]:
        """Undirected neighbors, sorted by node id."""
        ids = sorted(self.neighbor_ids(self.node_id(concept)))
        return tuple(self._names[i] for i in ids)

    def __repr__(self) -> str:
        return (
            f"KnowledgeGraph(nodes={self.num_nodes}, edges={self.num_edges}, "
            f"acyclic={self.acyclic})"
        )


def parse_edge_file(path: str | Path, strict_cui: bool = False) -> KnowledgeGraph:
    """Parse an edge file into a :class:`KnowledgeGraph`.

    Edges are deduplicated; every endpoint becomes a node; self-loops,
    malformed records and bytes that are not UTF-8 raise
    :class:`EdgeFileError` with the line number.
    The file's SHA-256 is recorded as the graph's ``source_checksum``.
    """
    data = Path(path).read_bytes()
    checksum = hashlib.sha256(data).hexdigest()
    # universal newlines end a line at \n, \r\n or \r and nowhere else
    lines = io.TextIOWrapper(io.BytesIO(data), encoding="utf-8-sig")
    rows = (
        (lineno, line.split("\t"))
        for lineno, line in enumerate(lines, start=1)
        if (stripped := line.strip()) and stripped[0] != "#"
    )
    # only rows holds the bytes now, so they are freed after the last line
    del data, lines
    try:
        parts = _intern(rows, strict_cui)
    except UnicodeDecodeError as exc:
        raise EdgeFileError.undecodable(path, exc) from None
    return KnowledgeGraph(*parts, checksum)


def edge_file_checksum(path: str | Path) -> str:
    """SHA-256 hex digest of an edge file's raw bytes.

    The file is hashed in 64 KiB blocks, so checking a large graph's
    checksum never holds the whole file in memory.
    """
    digest = hashlib.sha256()
    with open(path, "rb") as stream:
        for block in iter(lambda: stream.read(1 << 16), b""):
            digest.update(block)
    return digest.hexdigest()


def _canonical_checksum(nodes: list[str], edges: list[tuple[str, str]]) -> str:
    """Checksum for graphs built in memory: hash of a canonical rendering."""
    lines = sorted(nodes) + ["--"] + sorted(f"{c}\t{p}" for c, p in edges)
    return hashlib.sha256("\n".join(lines).encode("utf-8")).hexdigest()
