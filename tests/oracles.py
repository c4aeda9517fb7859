"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code with the package: distances come from every
node's bitset balls of growing radius, related-concept sets from the
literal double loop over concept pairs, and nn-IoU from direct arithmetic
on those.  Keeping these separate from the BFS/index-based production paths
is the whole point.  Only the standard library is used.

The edge-file oracle re-reads the format line by line into a dict of sets,
which a second oracle sorts into the documented neighbour order.  The
acyclicity oracle is Kahn's algorithm over plain (child, parent) pairs,
rescanning the whole edge list for every emitted node.  The witness
oracle peels leaves from a set until none is left to peel and walks what
remains; the record-order oracle replays a file's records against a set of
the names seen so far.

The ranking oracles take the pair score as a callable, so the pruned
scoring core can be checked against the pairwise definition it replaces:
every other document scored, sorted by (-score, id).  The Precision@K
oracle compares labels one category at a time, as the definition reads.
"""

from __future__ import annotations

import math
import random
import re

INF = float("inf")


class DistanceOracle:
    """All-pairs undirected hop distances from bitset balls of growing radius.

    Bit ``j`` of ``balls[k][i]`` is set iff node ``j`` is at most ``k`` hops
    from node ``i``.  Ball 0 holds the node alone; ball ``k + 1`` is ball
    ``k`` ORed with ball ``k`` of each neighbour, edges taken both ways,
    until no ball grows.
    """

    def __init__(self, nodes, edges):
        self.index = {name: i for i, name in enumerate(nodes)}
        pairs = [(self.index[a], self.index[b]) for a, b in edges]
        ball = [1 << i for i in range(len(nodes))]
        self.balls = [ball]
        while True:
            grown = list(ball)
            for i, j in pairs:
                grown[i] |= ball[j]
                grown[j] |= ball[i]
            if grown == ball:
                break
            self.balls.append(grown)
            ball = grown

    def dist(self, x: str, y: str) -> float:
        """Hop distance: the radius of ``x``'s first ball that holds ``y``;
        0 when ``x == y``, else infinity when unreachable or either concept
        unknown."""
        if x == y:
            return 0.0
        i = self.index.get(x)
        j = self.index.get(y)
        if i is None or j is None:
            return INF
        return next((float(k) for k, ball in enumerate(self.balls) if ball[i] >> j & 1), INF)


def oracle_edge_file(text: str):
    """Nodes and edges in first-seen order, plus the undirected adjacency.

    Follows the documented format: lines end at ``\n``, ``\r\n`` or ``\r``,
    ``#`` comment lines and blank lines are skipped, fields are
    tab-separated and trimmed, duplicates collapse.  The text must be
    well-formed.
    """
    nodes: list[str] = []
    edges: list[tuple[str, str]] = []
    for line in re.split(r"\r\n|\r|\n", text):
        if not line.strip() or line.strip().startswith("#"):
            continue
        fields = [field.strip() for field in line.split("\t")]
        for name in fields:
            if name not in nodes:
                nodes.append(name)
        if len(fields) == 2 and tuple(fields) not in edges:
            edges.append(tuple(fields))
    adjacency: dict[str, set[str]] = {name: set() for name in nodes}
    for child, parent in edges:
        adjacency[child].add(parent)
        adjacency[parent].add(child)
    return nodes, edges, adjacency


def documented_adjacency(text: str) -> dict[str, list[str]]:
    """:func:`oracle_edge_file`'s adjacency, each node's neighbours listed in
    the documented order: its parents, then its children, each in edge order.

    A pair listed both ways is listed once, among the parents.
    """
    _, edges, adjacency = oracle_edge_file(text)

    def ordered(name):
        def rank(other):
            if (name, other) in edges:
                return 0, edges.index((name, other))
            return 1, edges.index((other, name))
        return sorted(adjacency[name], key=rank)

    return {name: ordered(name) for name in adjacency}


def kahn_acyclic(nodes, edges) -> bool:
    """True iff every node can be emitted in a topological order."""
    indegree = {name: 0 for name in nodes}
    for _, parent in edges:
        indegree[parent] += 1
    ready = [name for name in nodes if indegree[name] == 0]
    emitted = 0
    while ready:
        node = ready.pop()
        emitted += 1
        for child, parent in edges:
            if child == node:
                indegree[parent] -= 1
                if indegree[parent] == 0:
                    ready.append(parent)
    return emitted == len(nodes)


def witness_cycle(nodes, edges):
    """The directed cycle the loader reports, or None for a DAG.

    Peel every node none of whose children is left until nothing changes.
    From the first remaining node (in ``nodes`` order) step to its first
    remaining child (in ``edges`` order) until a node repeats; the loop
    closed is returned in edge direction, first node repeated at the end.
    """
    left = set(nodes)
    peeled = True
    while peeled:
        leaves = {p for p in left if not any(c in left for c, q in edges if q == p)}
        left -= leaves
        peeled = bool(leaves)
    if not left:
        return None
    node = next(name for name in nodes if name in left)
    walk: list[str] = []
    while node not in walk:
        walk.append(node)
        node = next(c for c, p in edges if p == node and c in left)
    cycle = walk[walk.index(node):] + [node]
    return cycle[::-1]


def top_down(text: str) -> bool:
    """True iff every ``child<TAB>parent`` record names a child no earlier line named."""
    named: set[str] = set()
    for line in re.split(r"\r\n|\r|\n", text):
        if not line.strip() or line.strip().startswith("#"):
            continue
        fields = [field.strip() for field in line.split("\t")]
        if len(fields) == 2 and fields[0] in named:
            return False
        named.update(fields)
    return True


def literal_rel_set(a, b, threshold, dist) -> set[str]:
    """Related concepts by the literal pairwise loop.

    For every (x, y) pair within the distance threshold, x joins the result
    unless it is shared or already present, then y likewise.  ``dist`` is
    any callable returning hop counts (infinity for unreachable).
    """
    a, b = set(a), set(b)
    shared = a & b
    rel: list[str] = []
    for x in sorted(a):
        for y in sorted(b):
            if dist(x, y) <= threshold:
                if x not in shared and x not in rel:
                    rel.append(x)
                if y not in shared and y not in rel:
                    rel.append(y)
    return set(rel)


def brute_nn_iou(a, b, lam, threshold, dist) -> float:
    """nn-IoU from first principles: direct set arithmetic over oracle distances."""
    a, b = set(a), set(b)
    union = a | b
    if not union:
        return 0.0
    rel = literal_rel_set(a, b, threshold, dist)
    return (len(a & b) + lam * len(rel)) / len(union)


def random_graph_parts(rng: random.Random, max_nodes: int = 50):
    """Random node list and directed edge list (no self-loops, deduplicated)."""
    n = rng.randint(2, max_nodes)
    nodes = [f"c{i:03d}" for i in range(n)]
    max_edges = rng.randint(0, min(2 * n, 90))
    edges: set[tuple[str, str]] = set()
    for _ in range(max_edges):
        a, b = rng.sample(nodes, 2)
        edges.add((a, b))
    return nodes, sorted(edges)


def random_concept_set(rng: random.Random, nodes, max_size: int = 8) -> set[str]:
    """Random subset of graph nodes, occasionally salted with unknown concepts."""
    size = rng.randint(0, min(max_size, len(nodes)))
    members = set(rng.sample(nodes, size))
    if rng.random() < 0.25:
        members.add(f"zz{rng.randint(0, 3)}")
    return members


def brute_ranking(query, corpus, score) -> list[str]:
    """Ids of every document without the query's id, by (-score, id)."""
    pool = [doc for doc in corpus if doc.id != query.id]
    pool.sort(key=lambda doc: (-score(doc.concepts, query.concepts), doc.id))
    return [doc.id for doc in pool]


def brute_nn_cui(corpus, runs, k, score) -> dict[str, float]:
    """Per-query NDCG@k of ``runs`` against brute-force ideal rankings."""
    docs = {doc.id: doc for doc in corpus}

    def dcg(ids, query):
        return sum(
            score(docs[i].concepts, query.concepts) / math.log2(rank + 1)
            for rank, i in enumerate(ids[:k], start=1)
        )

    per_query = {}
    for run in sorted(runs, key=lambda r: r.query_id):
        query = docs[run.query_id]
        ideal = dcg(brute_ranking(query, corpus, score), query)
        per_query[run.query_id] = 0.0 if ideal == 0.0 else dcg(run.ranked_ids, query) / ideal
    return per_query


def brute_precision(corpus, runs, k, categories) -> dict[str, float]:
    """Per-query Precision@k: the share of the top ``k`` results that carry
    every requested category with the query's value.

    Queries lacking a requested category are left out; an empty run scores 0.
    """
    docs = {doc.id: doc for doc in corpus}
    per_query = {}
    for run in sorted(runs, key=lambda r: r.query_id):
        query = docs[run.query_id]
        if any(c not in query.labels for c in categories):
            continue
        top = run.ranked_ids[:k]
        matches = 0
        for ranked_id in top:
            labels = docs[ranked_id].labels
            if all(c in labels and labels[c] == query.labels[c] for c in categories):
                matches += 1
        per_query[run.query_id] = matches / len(top) if top else 0.0
    return per_query
