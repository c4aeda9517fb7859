"""Independent reference for the benchmark's output checks.

Nothing here imports ``nniou``.  Neighbourhoods come from a breadth-first
search over the generated edge list, and nn-IoU is the literal formula
evaluated with :class:`fractions.Fraction`, so a check cannot pass because
the program and the reference share a bug.
"""

from __future__ import annotations

from fractions import Fraction


def neighbourhoods(
    edges: list[tuple[str, str]], vocabulary: set[str], radius: int
) -> dict[str, frozenset[str]]:
    """For each vocabulary concept, the other vocabulary concepts within ``radius`` hops."""
    adj: dict[str, list[str]] = {}
    for child, parent in edges:
        adj.setdefault(child, []).append(parent)
        adj.setdefault(parent, []).append(child)
    result = {}
    for concept in vocabulary:
        seen = {concept}
        frontier = [concept]
        for _ in range(radius):
            frontier = [o for n in frontier for o in adj.get(n, ()) if o not in seen]
            seen.update(frontier)
        result[concept] = frozenset((seen - {concept}) & vocabulary)
    return result


def nn_iou(a: frozenset, b: frozenset, lam: Fraction, nbrs: dict) -> Fraction:
    """(|A & B| + lam * |rel(A, B)|) / |A | B|, exactly; 0 for two empty sets."""
    union = a | b
    if not union:
        return Fraction(0)
    rel = {x for x in a - b if nbrs[x] & b} | {y for y in b - a if nbrs[y] & a}
    return (len(a & b) + lam * len(rel)) / len(union)


def ranking(query: str, docs: dict[str, frozenset], lam: Fraction, nbrs: dict, k: int):
    """Top-k document ids by descending score, ties by ascending id."""
    q = docs[query]
    scored = sorted(
        (-nn_iou(d, q, lam, nbrs), doc_id) for doc_id, d in docs.items() if doc_id != query
    )
    return [doc_id for _, doc_id in scored[:k]]


def nonzero_partners(docs: dict[str, frozenset], nbrs: dict, related: bool) -> dict[str, int]:
    """Per document, how many other documents score above 0 against it.

    A pair scores above 0 exactly when the two sets share a concept or,
    with related-concept credit on, one holds a neighbour of the other's.
    """
    postings: dict[str, list[str]] = {}
    for doc_id, concepts in docs.items():
        for c in concepts:
            postings.setdefault(c, []).append(doc_id)
    counts = {}
    for doc_id, concepts in docs.items():
        reach = set(concepts)
        if related:
            for c in concepts:
                reach |= nbrs[c]
        partners = {other for c in reach for other in postings.get(c, ())}
        partners.discard(doc_id)
        counts[doc_id] = len(partners)
    return counts
