"""Exact, pruned nn-IoU ranking over a whole corpus.

A document can score above zero against a query only if the two share a
concept or one of them holds a concept whose neighbor list meets the
other.  So instead of scoring every pair, each concept carries the set of
documents it can reach that way, a query's candidates are the union of
those sets over its concepts, and every other document scores exactly 0
and fills the ranking's tail in id order.  Candidate generation from
posting lists with top-k pruning follows AllPairs (Bayardo, Ma & Srikant,
WWW 2007) and top-k set-similarity joins (Xiao et al., ICDE 2009).

Concepts are interned to bit positions and documents to bit positions of
another space, so every set above is a Python int and each pair costs a
few ANDs and popcounts::

    inter = |A & B|
    rel   = |(A - B) & near(B)| + |(B - A) & near(A)|
    score = (inter + lam * rel) / |A | B|

where ``near(S)`` holds every concept whose neighbor list meets ``S``.
That is :func:`nniou.relevance.rel_set` term for term, for any
:class:`NeighborIndex`, symmetric or not, and the score is the same float
expression as :func:`nniou.relevance.nn_iou`, so rankings match the
pairwise definition byte for byte.

Only the last line depends on the weight.  :meth:`ScoringCore.tops`
therefore computes each candidate's (inter, rel, union) once and ranks the
query under a whole list of lambdas from those counts, which is how the
ablation sweep scores each pair once per radius instead of once per
(radius, lambda) cell; :meth:`ScoringCore.top` is its one-lambda case.
"""

from __future__ import annotations

import heapq
from typing import Iterator, Sequence

from .errors import EvaluationError
from .neighbor_index import NeighborIndex


class ScoringCore:
    """Bitmask view of a corpus for exact ranking at one radius.

    Built once per (corpus, index) from documents with ``id`` and
    ``concepts``; without an index, approximate matching is off and scores
    reduce to IoU.  Queries are corpus positions and never retrieve
    themselves; document ids are expected to be unique.  Immutable after
    construction.
    """

    def __init__(self, docs: Sequence, index: NeighborIndex | None = None):
        self.ids = [doc.id for doc in docs]
        self._id_order = sorted(range(len(docs)), key=self.ids.__getitem__)
        self._sizes = [len(doc.concepts) for doc in docs]
        bit: dict[str, int] = {}
        postings: list[int] = []
        for j, doc in enumerate(docs):
            for c in doc.concepts:
                if c not in bit:
                    bit[c] = len(postings)
                    postings.append(0)
                postings[bit[c]] |= 1 << j
        self._masks = [sum(1 << bit[c] for c in doc.concepts) for doc in docs]

        self._near: list[int] | None = None
        reach = postings
        if index is not None:
            listed_by = [0] * len(bit)
            reach = list(postings)
            for c, i in bit.items():
                for neighbor in index.neighbors(c):
                    n = bit.get(neighbor)
                    if n is not None:
                        listed_by[n] |= 1 << i
                        reach[i] |= postings[n]
                        reach[n] |= postings[i]
            self._near = [_union(bit, listed_by, doc.concepts) for doc in docs]
        self._reach = [_union(bit, reach, doc.concepts) for doc in docs]

    def score(self, q: int, j: int, lam: float) -> float:
        """nn-IoU of documents ``q`` and ``j``; 0.0 when both are empty."""
        a, b = self._masks[q], self._masks[j]
        shared = a & b
        inter = shared.bit_count()
        union = self._sizes[q] + self._sizes[j] - inter
        if not union:
            return 0.0
        near = self._near
        rel = 0
        if near is not None:
            rel = ((a ^ shared) & near[j]).bit_count() + ((b ^ shared) & near[q]).bit_count()
        return (inter + lam * rel) / union

    def top(self, q: int, lam: float, k: int | None = None) -> list[tuple[float, int]]:
        """The first ``k`` (score, document) pairs of query ``q``'s ranking."""
        return self.tops(q, (lam,), k)[0]

    def tops(
        self, q: int, lams: Sequence[float], k: int | None = None
    ) -> list[list[tuple[float, int]]]:
        """Query ``q``'s first ``k`` (score, document) pairs under each weight.

        One ranking per entry of ``lams``, in order.  Each is ordered by
        descending score, ties by ascending id; ``k=None`` ranks every
        other document.  Only reachable documents are scored, and each of
        them once: with several weights its weight-free (inter, rel, union)
        counts are kept and re-weighted per lambda; with one they stream
        straight into the heap, so no per-candidate list is held.  The
        positive ones come first and zero-score documents fill the
        remaining slots in id order.
        """
        ids = self.ids
        if len(ids) < 2:
            raise EvaluationError(
                f"no candidate documents for query {ids[q]!r} (corpus too small)"
            )
        counts = self._counts(q)
        several = len(lams) > 1
        if several:
            counts = list(counts)  # re-weighted once per lambda
        rankings = []
        for lam in lams:
            positive = (
                (neg, ids[j], j)
                for inter, rel, union, j in counts
                if (neg := -((inter + lam * rel) / union)) < 0
            )
            if several:
                # nsmallest sorts a list of at most k outright instead of
                # heap-walking it in Python
                positive = list(positive)
            best = sorted(positive) if k is None else heapq.nsmallest(k, positive)
            ranked = [(-neg, j) for neg, _, j in best]
            if k is None or len(ranked) < k:
                # every positive document is ranked already; the rest score 0
                taken = 1 << q
                for _, j in ranked:
                    taken |= 1 << j
                for j in self._id_order:
                    if k is not None and len(ranked) == k:
                        break
                    if not taken >> j & 1:
                        ranked.append((0.0, j))
            rankings.append(ranked)
        return rankings

    def _counts(self, q: int) -> Iterator[tuple[int, int, int, int]]:
        """Weight-free (inter, rel, union, document) of ``q``'s candidates.

        Only reachable documents that share a concept with ``q`` or hold a
        neighbor of one are yielded: any other document, one with an empty
        union included, scores 0 at every lambda.
        """
        masks, sizes, near = self._masks, self._sizes, self._near
        a, size_a = masks[q], sizes[q]
        near_a = 0 if near is None else near[q]
        reach = self._reach[q] & ~(1 << q)
        while reach:
            low = reach & -reach
            reach ^= low
            j = low.bit_length() - 1
            b = masks[j]
            shared = a & b
            inter = shared.bit_count()
            rel = 0
            if near is not None:
                rel = ((a ^ shared) & near[j]).bit_count() + ((b ^ shared) & near_a).bit_count()
            if inter or rel:
                yield inter, rel, size_a + sizes[j] - inter, j


def _union(bit: dict[str, int], masks: list[int], concepts) -> int:
    """OR of the per-concept ``masks`` over ``concepts``."""
    out = 0
    for c in concepts:
        out |= masks[bit[c]]
    return out
