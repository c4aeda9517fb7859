"""Exact, pruned nn-IoU ranking over a whole corpus.

A document can score above zero against a query only if the two share a
concept or one of them holds a concept whose neighbor list meets the
other.  So instead of scoring every pair, each concept carries the set of
documents it can reach that way, a query's candidates are the union of
those sets over its concepts, and every other document scores exactly 0
and fills the ranking's tail in id order.  Candidate generation from
posting lists with top-k pruning follows AllPairs (Bayardo, Ma & Srikant,
WWW 2007) and top-k set-similarity joins (Xiao et al., ICDE 2009).

Concepts are interned to the bits ``0 .. w-1`` of a Python int, ``w``
being the number of distinct concepts, and documents to bit positions of
another space, so every set above is an int.  Each document is packed
into one int ``P = held | (near - held) << w``, where ``near(S)`` holds
every concept whose neighbor list meets ``S``.  A query ``A`` swaps the
halves of its own once, ``Q = (near(A) - A) | A << w``, and each
candidate ``B`` then costs two ANDs and two popcounts::

    inter = |A & P(B)|                          = |A & B|
    rel   = |Q & P(B)|  = |B & (near(A) - A)| + |A & (near(B) - B)|
    score = (inter + lam * rel) / |A | B|

The two halves of ``rel`` are :func:`nniou.relevance.rel_set`'s two loops,
``(B - A) & near(A)`` and ``(A - B) & near(B)``, for any
:class:`NeighborIndex`, symmetric or not, and the score is the same float
expression as :func:`nniou.relevance.nn_iou`, so rankings match the
pairwise definition byte for byte.

Only the last line depends on the weight.  :meth:`ScoringCore.tops`
therefore computes each candidate's (inter, rel, union) once and ranks the
query under a whole list of lambdas from those counts, which is how the
ablation sweep scores each pair once per radius instead of once per
(radius, lambda) cell; :meth:`ScoringCore.top` is its one-lambda case.
Per lambda, the candidates' float scores come first and the k-th largest
is a cut: only positive scores at or above it become (-score, id) sort
keys, so a query builds about k keys instead of one per candidate, and
every float tie at the cut is kept for the id tie-break.  A query lists
its zero-score tail once for all lambdas, when the first one falls short
of k.  Every ranking has a cutoff; a ``k`` of one less than the corpus
size ranks every other document.
"""

from __future__ import annotations

from typing import Sequence

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
        self._width = width = len(bit)
        self._held_bits = (1 << width) - 1  # the held half of a packed int
        # without an index no concept is near, so only the held half is set
        self._packed = [sum(1 << bit[c] for c in doc.concepts) for doc in docs]

        reach = postings
        if index is not None:
            listed_by = [0] * width
            reach = list(postings)
            for c, i in bit.items():
                for neighbor in index.neighbors(c):
                    n = bit.get(neighbor)
                    if n is not None:
                        listed_by[n] |= 1 << i
                        reach[i] |= postings[n]
                        reach[n] |= postings[i]
            self._packed = [
                held | (_union(bit, listed_by, doc.concepts) & ~held) << width
                for held, doc in zip(self._packed, docs)
            ]
        self._reach = [_union(bit, reach, doc.concepts) for doc in docs]

    def score(self, q: int, j: int, lam: float) -> float:
        """nn-IoU of documents ``q`` and ``j``; 0.0 when both are empty."""
        # unpacked inline as in _counts, not by a shared helper: nn-CUI
        # calls this k times per query, where a helper call is a visible cost
        query, packed, width = self._packed[q], self._packed[j], self._width
        held = query & self._held_bits
        inter = (held & packed).bit_count()
        union = self._sizes[q] + self._sizes[j] - inter
        if not union:
            return 0.0
        swapped = query >> width | held << width
        return (inter + lam * (swapped & packed).bit_count()) / union

    def top(self, q: int, lam: float, k: int) -> list[tuple[float, int]]:
        """The first ``k`` (score, document) pairs of query ``q``'s ranking."""
        return self.tops(q, (lam,), k)[0]

    def tops(
        self, q: int, lams: Sequence[float], k: int
    ) -> list[list[tuple[float, int]]]:
        """Query ``q``'s first ``k`` (score, document) pairs under each weight.

        One ranking per entry of ``lams``, in order.  Each is ordered by
        descending score, ties by ascending id.  Only reachable documents
        are scored, and each of them once: its weight-free (inter, rel,
        union) counts are kept and re-weighted per lambda.  Per lambda, the
        k-th largest float score is the cut, and only positive scores at or
        above it are sorted by (-score, id); float ties at the cut all take
        part, so equal floats break by id.  The positive ones come first and
        zero-score documents fill the rest in id order: the unreachable
        ones, listed when the first lambda falls short of ``k`` (and again
        only for a later one that needs more), merged with the reachable
        ones that score 0 at this lambda (at lambda 0, those sharing no
        concept).
        """
        ids = self.ids
        if len(ids) < 2:
            raise EvaluationError(
                f"no candidate documents for query {ids[q]!r} (corpus too small)"
            )
        counts = self._counts(q)
        fill: list[tuple[float, int]] = []  # unreached documents, (0.0, j) in id order
        rankings = []
        for lam in lams:
            scores = [(inter + lam * rel) / union for inter, rel, union, _ in counts]
            cut = 0.0
            if len(scores) > k:
                cut = sorted(scores)[-k]
            best = sorted([
                (-s, ids[c[3]], c[3]) for s, c in zip(scores, counts) if s >= cut and s > 0
            ])[:k]
            ranked = [(-neg, j) for neg, _, j in best]
            short = k - len(ranked)
            if short > 0:
                # every positive document is ranked already; the rest score 0
                if len(fill) < short and len(fill) < len(ids) - 1 - len(counts):
                    fill, outside = [], self._reach[q] | 1 << q
                    for j in self._id_order:
                        if not outside >> j & 1:
                            fill.append((0.0, j))
                            if len(fill) == short:
                                break
                if len(counts) > len(ranked):  # some candidates score 0: merge by id
                    zeros = [(0.0, c[3]) for s, c in zip(scores, counts) if not s > 0]
                    ranked += sorted(zeros + fill[:short], key=lambda z: ids[z[1]])[:short]
                else:
                    ranked += fill[:short]
            rankings.append(ranked)
        return rankings

    def _counts(self, q: int) -> list[tuple[int, int, int, int]]:
        """Weight-free (inter, rel, union, document) of ``q``'s candidates.

        Candidates are the reachable documents: each shares a concept with
        ``q`` or holds a neighbor of one, so its inter or rel count is
        positive; any other document, one with an empty union included,
        scores 0 at every lambda.
        """
        packed, sizes, width = self._packed, self._sizes, self._width
        held = packed[q] & self._held_bits
        swapped = packed[q] >> width | held << width
        size_q = sizes[q]
        counts = []
        append = counts.append
        reach = self._reach[q] & ~(1 << q)
        while reach:
            low = reach & -reach
            reach ^= low
            j = low.bit_length() - 1
            p = packed[j]
            inter = (held & p).bit_count()
            append((inter, (swapped & p).bit_count(), size_q + sizes[j] - inter, j))
        return counts


def _union(bit: dict[str, int], masks: list[int], concepts) -> int:
    """OR of the per-concept ``masks`` over ``concepts``."""
    out = 0
    for c in concepts:
        out |= masks[bit[c]]
    return out
