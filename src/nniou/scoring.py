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
another space, so every set above is an int.  ``near(S)`` holds every
concept whose neighbor list meets ``S``.  A query ``A`` needs, for each
candidate ``B``, the weight-free counts::

    inter = |A & B|
    rel   = |B & (near(A) - A)| + |A & (near(B) - B)|
    union = |A| + |B| - inter
    score = (inter + lam * rel) / union

The two halves of ``rel`` are :func:`nniou.relevance.rel_set`'s two loops,
``(B - A) & near(A)`` and ``(A - B) & near(B)``, for any
:class:`NeighborIndex`, symmetric or not.  There are two ways to count:

* The walk visits the candidates one bit at a time.  Each document is
  packed into one int ``P = held | (near - held) << w``; a query swaps the
  halves of its own once, ``Q = (near(A) - A) | A << w``, and a candidate
  ``B`` then costs two ANDs and two popcounts: ``inter = |A & P(B)|`` and
  ``rel = |Q & P(B)|``.
* The sums count every document at once, SWAR style ("SIMD within a
  register"): per concept ``c``, ``spread[c]`` is an int with one byte
  field per document, 1 where the document holds ``c``, and ``meets[c]``
  one with 1 where ``c`` is in ``near(B) - B``.  Then ``inter`` is the sum
  of ``spread[c]`` over ``A``, and ``rel`` the sum of ``meets[c]`` over
  ``A`` plus that of ``spread[c]`` over ``near(A) - A``: a few dozen big
  int additions.  ``to_bytes`` reads the sums out, and one
  ``memoryview.cast`` gives every document's code.  A concept's two ints
  are built from its bitmasks with bytes work (``bin``, ``translate``,
  ``int.from_bytes``) when a summed query first needs them.

The switch rule is fixed: a query is summed when its candidates are at
least half of the other documents, and walked otherwise.  The walk costs
the same per candidate; the sums cost grows with the corpus and with the
query's concepts and near concepts, hardly with its candidates.  On the
benchmark's 240- and 300-document corpora at radii 0-6 (CPython 3.11),
the sums were 14-57% faster for queries reaching half of the corpus or
more, about even at a third, and two to three times slower at a tenth.

The sums have a size limit: every count must fit in its one-byte field,
so a corpus is summed only while each of its documents has at most 127
concepts (``rel`` and ``union`` reach twice that), and only on a
little-endian host, whose native 4-byte ints ``memoryview.cast`` reads
the codes as.  Any other corpus is always walked.

Both ways hand each candidate on as one code ``inter << 2b | rel << b |
union`` (``b`` bits per field, 8 whenever the sums may run), and one
ranking tail takes it from there.
A code's score at a lambda is the same float expression as
:func:`nniou.relevance.nn_iou`, computed once per code, so rankings match
the pairwise definition byte for byte.  :meth:`ScoringCore.tops` ranks a
query under a whole list of lambdas from one count, which is how the
ablation sweep scores each pair once per radius instead of once per
(radius, lambda) cell; :meth:`ScoringCore.top` is its one-lambda case.
:meth:`ScoringCore.gains` takes the same count and ranks nothing: it maps
each candidate to its score, which is all nn-CUI@K needs, since an ideal
DCG depends only on the k largest gains and a run's documents are looked
up in it.
Per lambda, the candidates' float scores come first and the k-th largest
is a cut: only positive scores at or above it become (-score, id) sort
keys, so a query builds about k keys instead of one per candidate, and
every float tie at the cut is kept for the id tie-break.  A query lists
its zero-score tail once for all lambdas, when the first one falls short
of k.  Every ranking has a cutoff; a ``k`` of one less than the corpus
size ranks every other document.
"""

from __future__ import annotations

import sys
from itertools import compress, count
from typing import Sequence

from .errors import EvaluationError
from .neighbor_index import NeighborIndex

_BITS = bytes.maketrans(b"01", b"\0\1")


class ScoringCore:
    """Bitmask view of a corpus for exact ranking at one radius.

    Built once per (corpus, index) from documents with ``id`` and
    ``concepts``; without an index, approximate matching is off and scores
    reduce to IoU.  Queries are corpus positions and never retrieve
    themselves; document ids are expected to be unique.  :meth:`tops`
    ranks a query (retrieval, the ablation sweep); :meth:`gains` lists its
    scores unranked (nn-CUI@K).  Both count through one step, so they
    agree float for float.  Results are fixed at construction; the
    byte-field counters and the score of each count code are cached as
    queries first need them, the scores only for the lambdas of the latest
    :meth:`tops` or :meth:`gains` call.
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
        # kept for the sums' counters, built only when a query is summed
        self._bit, self._names = bit, list(bit)
        self._postings, self._index = postings, index

        # bits per count field: inter <= the largest size, rel and union
        # <= twice that; the size limit of the sums (module docstring)
        self._bits = max(8, (2 * max(self._sizes, default=0)).bit_length())
        self._summable = self._bits == 8 and sys.byteorder == "little"
        self._inter_weight = (1 << 2 * self._bits) - 1
        # spread[c] and meets[c] (see _sums), filled in only for the concepts
        # in the mask _built
        self._spread: list[int] = []
        self._meets: list[int] = []
        self._built = 0
        self._size_fields = 0  # each document's size in its field
        self._one_fields = 0  # 1 in every field
        self._scores: dict[float, _Scores] = {}

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
        union) counts are kept as one code and re-weighted per lambda.  Per
        lambda, the k-th largest float score is the cut, and only positive
        scores at or above it are sorted by (-score, id); float ties at the
        cut all take part, so equal floats break by id.  The positive ones
        come first and zero-score documents fill the rest in id order: the
        unreachable ones, listed when the first lambda falls short of ``k``
        (and again only for a later one that needs more), merged with the
        reachable ones that score 0 at this lambda (at lambda 0, those
        sharing no concept).
        """
        ids = self.ids
        reach, candidates, codes = self._count(q)
        tables = self._tables(lams)
        fill: list[tuple[float, int]] = []  # unreached documents, (0.0, j) in id order
        rankings = []
        for lam in lams:
            scores = list(map(tables[lam].__getitem__, codes))
            cut = 0.0
            if len(scores) > k:
                cut = sorted(scores)[-k]
            best = sorted([
                (-s, ids[j], j) for s, j in zip(scores, candidates) if s >= cut and s > 0
            ])[:k]
            ranked = [(-neg, j) for neg, _, j in best]
            short = k - len(ranked)
            if short > 0:
                # every positive document is ranked already; the rest score 0
                if len(fill) < short and len(fill) < len(ids) - 1 - len(candidates):
                    fill, outside = [], reach | 1 << q
                    for j in self._id_order:
                        if not outside >> j & 1:
                            fill.append((0.0, j))
                            if len(fill) == short:
                                break
                if len(candidates) > len(ranked):  # some candidates score 0: merge by id
                    zeros = [(0.0, j) for s, j in zip(scores, candidates) if not s > 0]
                    ranked += sorted(zeros + fill[:short], key=lambda z: ids[z[1]])[:short]
                else:
                    ranked += fill[:short]
            rankings.append(ranked)
        return rankings

    def gains(self, q: int, lam: float) -> dict[int, float]:
        """Every candidate of query ``q`` with its score at ``lam``, by position.

        The candidates are the documents :meth:`tops` scores, each score
        the float it ranks by; every other document, ``q`` itself aside,
        scores exactly 0 at every lambda (see :meth:`_walk`).  Nothing is
        ranked: an ideal DCG needs only the largest values.
        """
        _, candidates, codes = self._count(q)
        return dict(zip(candidates, map(self._tables((lam,))[lam].__getitem__, codes)))

    def _count(self, q: int) -> tuple[int, list[int], list[int]]:
        """Query ``q``'s reach, then its candidates and their count codes."""
        ids = self.ids
        if len(ids) < 2:
            raise EvaluationError(
                f"no candidate documents for query {ids[q]!r} (corpus too small)"
            )
        reach = self._reach[q] & ~(1 << q)
        # the switch rule (module docstring): sum once the candidates are at
        # least half of the other documents
        if self._summable and 2 * reach.bit_count() >= len(ids) - 1:
            candidates, codes = self._sums(q, reach)
        else:
            candidates, codes = self._walk(q, reach)
        return reach, candidates, codes

    def _tables(self, lams: Sequence[float]) -> dict[float, _Scores]:
        """The score tables of ``lams``; only they are kept from now on, so a
        core swept over many lambdas holds no more tables than one call asks for."""
        kept = self._scores
        self._scores = tables = {
            lam: kept[lam] if lam in kept else _Scores(lam, self._bits) for lam in lams
        }
        return tables

    def _walk(self, q: int, reach: int) -> tuple[list[int], list[int]]:
        """``q``'s candidates in position order, each with its count code.

        Candidates are the reachable documents, ``reach``: each shares a
        concept with ``q`` or holds a neighbor of one, so its inter or rel
        count is positive; any other document, one with an empty union
        included, scores 0 at every lambda.  Each candidate costs two ANDs
        and two popcounts on its packed int.
        """
        packed, sizes, width = self._packed, self._sizes, self._width
        held = packed[q] & self._held_bits
        swapped = packed[q] >> width | held << width
        # inter << 2 * bits | rel << bits | union, where union = the two
        # sizes - inter
        bits, inter_weight, size_q = self._bits, self._inter_weight, sizes[q]
        candidates: list[int] = []
        codes: list[int] = []
        while reach:
            low = reach & -reach
            reach ^= low
            j = low.bit_length() - 1
            p = packed[j]
            candidates.append(j)
            codes.append((held & p).bit_count() * inter_weight
                         + ((swapped & p).bit_count() << bits) + size_q + sizes[j])
        return candidates, codes

    def _sums(self, q: int, reach: int) -> tuple[list[int], list[int]]:
        """What :meth:`_walk` returns, from byte-field sums over the corpus.

        ``spread[c]`` holds a 1 in the field of every document holding
        ``c``, and ``meets[c]`` in that of every document near ``c``
        without holding it.  Summed over ``q``'s concepts ``A`` and its
        near ones ``N = near(A) - A``, they give every document's counts
        at once::

            inter = sum(spread[c] for c in A)
            rel   = sum(meets[c] for c in A) + sum(spread[c] for c in N)

        A field never carries into the next one: ``inter`` is at most the
        largest document's size, and ``rel`` and ``union`` at most twice
        that, below 256 in a summable corpus.
        """
        held = self._packed[q] & self._held_bits
        near = self._packed[q] >> self._width
        self._build(held | near)
        spread, held, near = self._spread, _digits(held), _digits(near)
        inter = sum(compress(spread, held))
        rel = sum(compress(self._meets, held)) + sum(compress(spread, near))
        union = self._size_fields + self._sizes[q] * self._one_fields - inter
        # each document's code is 4 bytes, from the lowest: union, rel, inter, 0
        n = len(self.ids)
        data = bytearray(4 * n)
        data[0::4] = union.to_bytes(n, "little")
        data[1::4] = rel.to_bytes(n, "little")
        data[2::4] = inter.to_bytes(n, "little")
        chosen = _digits(reach)
        codes = memoryview(data).cast("I")
        return list(compress(count(), chosen)), list(compress(codes, chosen))

    def _build(self, concepts: int) -> None:
        """Fill in ``spread`` and ``meets`` for the concepts in the mask ``concepts``."""
        todo = concepts & ~self._built
        if not todo:
            return
        if not self._built:
            self._spread = [0] * self._width
            self._meets = [0] * self._width
            self._size_fields = int.from_bytes(bytes(self._sizes), "little")
            self._one_fields = int.from_bytes(b"\1" * len(self.ids), "little")
        postings, bit, names = self._postings, self._bit, self._names
        for c in compress(count(), _digits(todo)):
            # the documents that hold a concept c lists, so have c near, but
            # do not hold c
            near = 0
            if self._index is not None:
                for neighbor in self._index.neighbors(names[c]):
                    n = bit.get(neighbor)
                    if n is not None:
                        near |= postings[n]
            self._spread[c] = _fields(postings[c])
            self._meets[c] = _fields(near & ~postings[c])
        # marked only once filled in, so an interrupted build is redone
        self._built |= todo


class _Scores(dict):
    """The score of each count code at one lambda, computed on first use."""

    def __init__(self, lam: float, bits: int):
        super().__init__()
        self.lam, self.bits = lam, bits

    def __missing__(self, code: int) -> float:
        low = (1 << self.bits) - 1
        inter, rel, union = code >> 2 * self.bits, code >> self.bits & low, code & low
        score = self[code] = (inter + self.lam * rel) / union
        return score


def _digits(mask: int) -> bytes:
    """A 1 or 0 byte per bit of ``mask``, lowest first, up to its highest set bit."""
    return bin(mask)[:1:-1].encode().translate(_BITS)


def _fields(mask: int) -> int:
    """``mask`` with bit ``j`` moved to the low bit of byte ``j``."""
    return int.from_bytes(_digits(mask), "little")


def _union(bit: dict[str, int], masks: list[int], concepts) -> int:
    """OR of the per-concept ``masks`` over ``concepts``."""
    out = 0
    for c in concepts:
        out |= masks[bit[c]]
    return out
