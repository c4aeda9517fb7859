"""nn-IoU between two concept sets, and its exact, pruned ranking over a corpus.

Plain intersection-over-union treats distinct concepts as unrelated even
when they sit one hop apart in the hierarchy.  nn-IoU credits those near
misses: concepts of either set that the neighbor index lists next to some
concept on the other side join the numerator with weight ``lam``::

    nn_iou(A, B) = (|A & B| + lam * |rel(A, B)|) / |A | B|

where ``rel(A, B)`` contains every concept of the symmetric difference
that participates in at least one within-threshold pair; no concept is
counted twice, and exact matches stay in the intersection term.  The
distance threshold n is the radius the index was built at; an index at
radius 0 lists no neighbors, so nn-IoU then equals IoU.  Both parameters
are checked in one place each: :func:`checked_lambda` keeps ``lam`` in
[0, 1] and :func:`checked_index` demands an index when it is > 0.  The
pairwise functions are pure and safe for concurrent use.

Ranking a whole corpus scores few pairs.  A document can score above
zero against a query only if the two share a concept or one of them holds
a concept whose neighbor list meets the other.  So instead of scoring
every pair, each concept carries the set of documents it can reach that
way, a query's candidates are the union of those sets over its concepts,
and every other document scores exactly 0 and fills the ranking's tail in
id order.  Candidate generation from posting lists with top-k pruning
follows AllPairs (Bayardo, Ma & Srikant, WWW 2007) and top-k
set-similarity joins (Xiao et al., ICDE 2009).

Concepts are interned to the bits ``0 .. w-1`` of a Python int, ``w``
being the number of distinct concepts, and documents to the bits of
another, numbered by ascending id, so every set above is an int.
``near(S)`` holds every concept whose neighbor list meets ``S``.  A query
``A`` needs, for each candidate ``B``, the weight-free counts of the
nn-IoU formula::

    inter = |A & B|
    rel   = |B & (near(A) - A)| + |A & (near(B) - B)|
    union = |A| + |B| - inter

The two halves of ``rel`` are :func:`rel_set`'s two loops,
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
  ``memoryview.cast`` gives every document's code: the query's *row*,
  indexed by document number, with its own code set to one that scores 0
  (union 1, inter 0, rel 0), so no candidate list is built.  A core with a
  summed document builds every concept's two ints when it is made, from
  its bitmasks with bytes work (``bin``, ``translate``, ``int.from_bytes``).
* The *near table* lets the documents fill in ``|B & (near(A) - A)|``
  once for every query: per document ``B``, the sum of ``meets[c]`` over
  ``B``'s concepts, so its byte ``B*n + q`` is ``|B & (near(q) - q)|``,
  and its column ``q``, one strided slice, replaces the sum over
  ``near(A) - A``.  Its row ``q`` is the sum of ``meets[c]`` over ``q``'s
  own concepts, the other half of ``rel``, so one contiguous slice
  replaces that sum too.  That only regroups ``meets``, so it holds for
  asymmetric indexes too.  It is built with the two ints.

The switch rule is fixed: a query is summed when its candidates are at
least half of the other documents, and walked otherwise.  The core decides
it once per document when it is made; a corpus of fewer than two documents
has no candidates and sums nothing.  The walk costs the same per
candidate; the sums cost grows with the corpus and with the query's
concepts and near concepts, hardly with its candidates.  On the
benchmark's 240- and 300-document corpora at radii 0-6 (CPython 3.11),
before the near table, the sums were 14-57% faster for queries reaching
half of the corpus or more, about even at a third, and two to three
times slower at a tenth.

The sums have a size limit: every count must fit in its one-byte field,
so a corpus is summed only while each of its documents has at most 127
concepts (``rel`` and ``union`` reach twice that), and only on a
little-endian host, whose native 4-byte ints ``memoryview.cast`` reads
the codes as.  Any other corpus is always walked.  The near table takes
``n**2`` bytes for ``n`` documents (88 KiB at 300), so it is built only
while that is at most the ``2 * w * n`` bytes that ``spread`` and
``meets`` can take, ``n <= 2w``, and only when some concept is near a
document that does not hold it, so never at radius 0 or for IoU.  Any
other summed corpus keeps both sums of ``rel``.

So a count has one of two shapes: a walked query's candidate list, or a
summed query's row.  Both hand each counted document on as one code
``inter << 2b | rel << b | union`` (``b`` bits per field, 8 whenever the
sums may run), and one ranking tail takes it from there.  A code's score
at a lambda is the same float expression as :func:`nn_iou`, computed once
per code, so rankings match the pairwise definition byte for byte.
:meth:`ScoringCore.tops` ranks a query under a whole list of lambdas from
one count, which is how the ablation sweep scores each pair once per
radius instead of once per (radius, lambda) cell.  A core whose index
lists no corpus concept as another's neighbor (radius 0, or no index) is
*inert*: every ``rel`` is 0, so every lambda scores alike.  The core
decides this once, when it is made, and ``tops`` then ranks the first
lambda and copies that ranking to the others.  :meth:`ScoringCore.gains`
takes the same count and ranks nothing: it returns the scores, whose k
largest values are all an ideal DCG needs, and a lookup of run
documents' scores: by number in a summed query's row, and by id from a
dict of a walked query's candidates.
Queries and results are document ids.  The core sorts its documents by id
once and numbers them in that order, so both ways list the counted
documents in id order.  Per lambda, one stable sort of their positions
by descending float score, ``sorted(positions, key=scores.__getitem__,
reverse=True)[:k]``, keeps the ``k`` best and breaks every tie by id.
Only the positive scores it keeps are mapped to ids; every other document
scores 0 and follows in id order.  Every ranking has a cutoff; a ``k`` of
one less than the corpus size ranks every other document.
"""

from __future__ import annotations

import math
import sys
from itertools import compress, filterfalse, islice, repeat
from operator import attrgetter
from typing import Callable, Collection, Iterable, Sequence

from .errors import ConfigError, EvaluationError
from .neighbor_index import NeighborIndex

_BITS = bytes.maketrans(b"01", b"\0\1")
# the lookup ScoringCore.gains returns: ids in, their scores out
_Lookup = Callable[[Iterable[str]], list[float]]


def iou(a: Collection[str], b: Collection[str]) -> float:
    """Intersection over union: nn-IoU at lambda 0; 0.0 when both sets are empty."""
    return nn_iou(a, b, 0)


def rel_set(a: Collection[str], b: Collection[str], index: NeighborIndex) -> frozenset[str]:
    """Related-but-not-shared concepts between two sets.

    A concept qualifies when it lies outside the intersection and the index
    lists it as a neighbor of some concept on the other side.  The result
    is a set, so it is independent of any iteration order.
    """
    a, b = frozenset(a), frozenset(b)
    shared = a & b
    related = set()
    for x in a - shared:
        if index.neighbors(x) & b:
            related.add(x)
    for y in b - shared:
        if index.neighbors(y) & a:
            related.add(y)
    return frozenset(related)


def nn_iou(
    a: Collection[str],
    b: Collection[str],
    lam: float,
    index: NeighborIndex | None = None,
) -> float:
    """Nearest-neighbor-aware IoU; 0.0 when both sets are empty.

    The index is consulted, and required, only when ``lam`` is positive.
    Concepts absent from the index participate only in exact matching.
    """
    checked_lambda(lam)
    a, b = frozenset(a), frozenset(b)
    union = a | b
    if not union:
        return 0.0
    related = 0
    if lam:
        related = len(rel_set(a, b, checked_index(index)))
    return (len(a & b) + lam * related) / len(union)


def checked_lambda(lam: float) -> float:
    """The weight of approximate matching, which must lie in [0, 1] and not be -0.0."""
    if not 0.0 <= lam <= 1.0 or math.copysign(1.0, lam) < 0:
        raise ConfigError(f"lambda must be in [0, 1], got {lam}")
    return lam


def checked_index(index: NeighborIndex | None) -> NeighborIndex:
    """The index approximate matching needs, which must be present."""
    if index is None:
        raise ConfigError("a neighbor index is required when lambda > 0 "
                          "(build one with 'nniou build-index')")
    return index


class ScoringCore:
    """Bitmask view of a corpus for exact ranking at one radius.

    Built once per (corpus, index) from documents with ``id`` and
    ``concepts``; without an index, approximate matching is off and scores
    reduce to IoU.  Queries and results are document ids, which are
    expected to be unique; a query never retrieves itself.  :meth:`tops`
    ranks a query (retrieval, the ablation sweep); :meth:`gains` lists its
    scores unranked (nn-CUI@K).  Both count through one step, so they
    agree float for float.  Results are fixed at construction, and the
    index is read only there.  Construction also decides each document's
    count path and whether the core is inert and, if any document is
    summed, builds every concept's byte-field counters and the near table;
    the score of each count code is cached as queries first need it, in
    one table per lambda scored, kept for the life of the core.
    """

    def __init__(self, docs: Sequence, index: NeighborIndex | None = None):
        # bit r of a document set is the r-th smallest id, so every scan
        # lists documents in id order
        docs = sorted(docs, key=attrgetter("id"))
        self.ids = [doc.id for doc in docs]
        self._number = {doc_id: r for r, doc_id in enumerate(self.ids)}
        self._row = range(len(docs))  # every document number, as a row lists them
        self._sizes = [len(doc.concepts) for doc in docs]
        bit: dict[str, int] = {}
        postings: list[int] = []
        for r, doc in enumerate(docs):
            for c in doc.concepts:
                if c not in bit:
                    bit[c] = len(postings)
                    postings.append(0)
                postings[bit[c]] |= 1 << r
        self._width = width = len(bit)
        self._held_bits = (1 << width) - 1  # the held half of a packed int

        # near[c]: the documents B with c in near(B), i.e. holding a concept
        # c lists; reach[c] adds those that hold c or a concept listing c
        near = [0] * width
        reach = list(postings)
        listed_by = [0] * width
        for c, i in bit.items():
            for neighbor in index.neighbors(c) if index is not None else ():
                n = bit.get(neighbor)
                if n is not None:
                    listed_by[n] |= 1 << i
                    near[i] |= postings[n]
                    reach[n] |= postings[i]
        # no concept listed by another: every rel is 0 (radius 0, or no index)
        self._inert = not any(listed_by)
        self._packed = [
            (held := sum(1 << bit[c] for c in doc.concepts))
            | (_union(bit, listed_by, doc.concepts) & ~held) << width
            for doc in docs
        ]
        reach = [r | n for r, n in zip(reach, near)]
        # a query never retrieves itself, so its own bit is cleared here
        self._reach = [_union(bit, reach, doc.concepts) & ~(1 << r)
                       for r, doc in enumerate(docs)]

        # bits per count field: inter <= the largest size, rel and union
        # <= twice that; the size limit of the sums (module docstring)
        self._bits = max(8, (2 * max(self._sizes, default=0)).bit_length())
        self._inter_weight = (1 << 2 * self._bits) - 1
        # the switch rule (module docstring), once per document: sum once the
        # candidates are at least half of the other documents
        n = len(docs)
        summable = self._bits == 8 and sys.byteorder == "little" and n > 1
        self._summed = [summable and 2 * reached.bit_count() >= n - 1
                        for reached in self._reach]
        # spread[c], meets[c] and the near table (see _build), left empty
        # when no document is summed
        self._spread: list[int] = []
        self._meets: list[int] = []
        self._near_rows = b""
        if any(self._summed):
            self._build(postings, near)
        self._scores: dict[float, _Scores] = {}

    def tops(self, q: str, lams: Sequence[float], k: int) -> list[list[str]]:
        """Query ``q``'s first ``k`` document ids under each weight.

        One ranking per entry of ``lams``, in order.  Each is ordered by
        descending score, ties by ascending id.  Each counted document is
        scored once: its weight-free (inter, rel, union) counts are kept as
        one code and re-weighted per lambda.  The count lists documents by
        number, so in id order, and per lambda one stable sort of their
        positions by descending score keeps the top ``k``, every float tie
        in id order; only its positive scores are mapped to ids.  Every
        other document scores 0 and fills the rest in id order.  An inert
        core (module docstring) ranks the first lambda only and gives every
        later one a copy.  :meth:`gains` gives the scores.
        """
        numbers, codes = self._count(q)
        ids = self.ids
        positions = range(len(codes))
        rankings = []
        for lam in lams:
            if rankings and self._inert:
                rankings.append(rankings[0].copy())
                continue
            scores = list(map(self._table(lam).__getitem__, codes))
            top = sorted(positions, key=scores.__getitem__, reverse=True)[:k]
            ranked = [ids[numbers[i]] for i in top if scores[i] > 0]
            if len(ranked) < k:
                # every positive document is ranked already; the rest score 0
                skip = {q, *ranked}
                ranked += islice(filterfalse(skip.__contains__, ids), k - len(ranked))
            rankings.append(ranked)
        return rankings

    def gains(self, q: str, lam: float) -> tuple[Collection[float], _Lookup]:
        """Query ``q``'s scores at ``lam``, and a lookup of documents' scores by id.

        The scores are the floats :meth:`tops` ranks by, one per counted
        document, so their ``k`` largest values are the ideal gains.  The
        lookup maps ids, a run's for one, to their scores in one call: by
        document number from a summed query's row, and by id from a dict of
        a walked query's candidates, 0.0 for a document that is none, as
        every such document scores exactly 0 at every lambda (see
        :meth:`_walk`).  Nothing is ranked.
        """
        numbers, codes = self._count(q)
        score = self._table(lam).__getitem__
        if numbers is self._row:
            scores = list(map(score, codes))
            number = self._number.__getitem__
            return scores, lambda ids: list(map(scores.__getitem__, map(number, ids)))
        by_id = dict(zip(map(self.ids.__getitem__, numbers), map(score, codes)))
        return by_id.values(), lambda ids: list(map(by_id.get, ids, repeat(0.0)))

    def _count(self, q: str) -> tuple[Sequence[int], Sequence[int]]:
        """Query ``q``'s counted documents, as numbers in ascending order, and
        their count codes: a walked query's candidates, or a summed query's
        row, ``self._row``."""
        if len(self.ids) < 2:
            raise EvaluationError(
                f"no candidate documents for query {q!r} (corpus too small)"
            )
        r = self._number[q]
        if self._summed[r]:
            return self._sums(r)
        return self._walk(r, self._reach[r])

    def _table(self, lam: float) -> _Scores:
        """The score table of ``lam``, made on first use and kept."""
        if lam not in self._scores:
            self._scores[lam] = _Scores(lam, self._bits)
        return self._scores[lam]

    def _walk(self, q: int, reach: int) -> tuple[list[int], list[int]]:
        """The candidates of query number ``q``, as numbers in ascending
        order, each with its count code.

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
            r = low.bit_length() - 1
            p = packed[r]
            candidates.append(r)
            codes.append((held & p).bit_count() * inter_weight
                         + ((swapped & p).bit_count() << bits) + size_q + sizes[r])
        return candidates, codes

    def _sums(self, q: int) -> tuple[range, memoryview]:
        """Query number ``q``'s row: every document's count code by number,
        from byte-field sums over the corpus.  ``q``'s own code is union 1,
        rel 0, inter 0, which scores 0.  A document ``q`` does not reach has
        inter and rel 0, and ``q`` has concepts, so it scores exactly 0.

        ``spread[c]`` holds a 1 in the field of every document holding
        ``c``, and ``meets[c]`` in that of every document near ``c``
        without holding it.  Summed over ``q``'s concepts ``A`` and its
        near ones ``N = near(A) - A``, they give every document's counts
        at once::

            inter = sum(spread[c] for c in A)
            rel   = sum(meets[c] for c in A) + sum(spread[c] for c in N)

        Where the core has a near table, its row ``q`` is the sum of
        ``meets`` and its column ``q`` the last sum.  A field never carries
        into the next one: ``inter`` is at most the largest document's size,
        and ``rel`` and ``union`` at most twice that, below 256 in a
        summable corpus.
        """
        spread, packed, n = self._spread, self._packed[q], len(self.ids)
        held = _digits(packed & self._held_bits)
        inter = sum(compress(spread, held))
        rows = self._near_rows
        if rows:
            rel = (int.from_bytes(rows[q * n:(q + 1) * n], "little")
                   + int.from_bytes(rows[q::n], "little"))
        else:
            rel = (sum(compress(self._meets, held))
                   + sum(compress(spread, _digits(packed >> self._width))))
        union = self._size_fields + self._sizes[q] * self._one_fields - inter
        # each document's code is 4 bytes, from the lowest: union, rel, inter, 0
        data = bytearray(4 * n)
        data[0::4] = union.to_bytes(n, "little")
        data[1::4] = rel.to_bytes(n, "little")
        data[2::4] = inter.to_bytes(n, "little")
        data[4 * q:4 * q + 4] = b"\1\0\0\0"
        return self._row, memoryview(data).cast("I")

    def _build(self, postings: list[int], near: list[int]) -> None:
        """Fill in ``spread`` and ``meets`` from the documents holding each
        concept (``postings``) and those it is near (``near``), and the near
        table.

        Byte ``B*n + q`` of the table is ``|B & (near(q) - q)|``: the sum of
        ``meets[c]`` over document ``B``'s concepts, read at ``q``.  Outside
        its bound (module docstring) it stays ``b""``.
        """
        n = len(self.ids)
        self._size_fields = int.from_bytes(bytes(self._sizes), "little")  # each size in its field
        self._one_fields = int.from_bytes(b"\1" * n, "little")  # 1 in every field
        self._spread = list(map(_fields, postings))
        self._meets = meets = [_fields(near_c & ~held) for held, near_c in zip(postings, near)]
        if n > 2 * self._width or not any(meets):
            return
        rows = bytearray(n * n)  # filled in place: a join would hold it twice
        for b, packed in enumerate(self._packed):
            near_b = sum(compress(meets, _digits(packed & self._held_bits)))
            rows[b * n:(b + 1) * n] = near_b.to_bytes(n, "little")
        self._near_rows = rows


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
