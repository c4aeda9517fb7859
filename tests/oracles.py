"""Independent brute-force oracles used to cross-check the library.

Nothing here shares code with the package: distances come from a
Floyd-Warshall all-pairs sweep (numpy min-plus), related-concept sets from
the literal double loop over concept pairs, and nn-IoU from direct
arithmetic on those.  Keeping these separate from the BFS/index-based
production paths is the whole point.

The ranking oracles take the pair score as a callable, so the pruned
scoring core can be checked against the pairwise definition it replaces:
every other document scored, sorted by (-score, id).
"""

from __future__ import annotations

import math
import random

import numpy as np

INF = float("inf")


class DistanceOracle:
    """All-pairs undirected hop distances via Floyd-Warshall."""

    def __init__(self, nodes, edges):
        self.index = {name: i for i, name in enumerate(nodes)}
        n = len(nodes)
        dist = np.full((n, n), INF)
        np.fill_diagonal(dist, 0.0)
        for a, b in edges:
            i, j = self.index[a], self.index[b]
            dist[i, j] = 1.0
            dist[j, i] = 1.0
        for k in range(n):
            dist = np.minimum(dist, dist[:, k, None] + dist[None, k, :])
        self.matrix = dist

    def dist(self, x: str, y: str) -> float:
        """Hop distance; infinity when unreachable or either concept unknown."""
        if x == y:
            return 0.0
        i = self.index.get(x)
        j = self.index.get(y)
        if i is None or j is None:
            return INF
        return float(self.matrix[i, j])


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
