"""Set-level relevance between concept sets: IoU and nn-IoU.

Plain intersection-over-union treats distinct concepts as unrelated even
when they sit one hop apart in the hierarchy.  nn-IoU credits those near
misses: concepts of either set that the neighbor index lists next to some
concept on the other side join the numerator with weight ``lam``::

    nn_iou(A, B) = (|A & B| + lam * |rel(A, B)|) / |A | B|

where ``rel(A, B)`` contains every concept of the symmetric difference
that participates in at least one within-threshold pair; no concept is
counted twice, and exact matches stay in the intersection term.  The
distance threshold n is the radius the index was built at; an index at
radius 0 lists no neighbors, so nn-IoU then equals IoU.

Both parameters are checked here alone: :func:`checked_lambda` keeps
``lam`` in [0, 1] and :func:`checked_index` demands an index when it is > 0.

All functions are pure and safe for concurrent use.
"""

from __future__ import annotations

import math
from typing import Collection

from .errors import ConfigError
from .neighbor_index import NeighborIndex


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
