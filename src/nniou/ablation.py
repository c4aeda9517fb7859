"""The (radius, lambda, k) Precision@K sweep behind ``nniou ablate``.

:func:`ablation_rows` walks the graph once, to the largest radius, for an
index at every radius (:func:`nniou.neighbor_index.build_indexes`).  Per
radius it ranks each graded query once under every lambda
(:meth:`nniou.scoring.ScoringCore.tops`) and grades each distinct ranking
once with :func:`nniou.precision_at_k`'s own helpers, so a cell builds no
runs or reports, and its rows equal ``precision_at_k`` over ground truth,
float for float.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import corpus_vocabulary
from .distance import checked_radius
from .errors import ConfigError
from .neighbor_index import build_indexes
from .ranking_eval import (
    Document,
    EvalConfig,
    _docs_by_id,
    _label_matches,
    _mean,
    _precisions,
    derive_labels,
)
from .relevance import checked_lambda
from .scoring import ScoringCore


@dataclass(frozen=True)
class AblationGrid:
    """Parameter grid for the (radius, lambda, k) precision sweep."""

    lambdas: tuple[float, ...]
    radii: tuple[int, ...]
    ks: tuple[int, ...]

    def __post_init__(self):
        if not self.lambdas or not self.radii or not self.ks:
            raise ConfigError("ablation grid lists must be non-empty")
        for lam in self.lambdas:
            checked_lambda(lam)
        for radius in self.radii:
            checked_radius(radius)
        for k in self.ks:
            EvalConfig(k=k)
        _no_repeats(self.lambdas, "lambda")
        _no_repeats(self.radii, "radius")
        _no_repeats(self.ks, "k")


def _no_repeats(values: Sequence, name: str) -> None:
    for i, value in enumerate(values):
        if value in values[:i]:
            raise ConfigError(f"{name} {value!r} is listed more than once")


def ablation_rows(
    graph,
    docs: Sequence[Document],
    grid: AblationGrid,
    class_map,
    categories: Sequence[str],
) -> list[tuple[int, float, int, float]]:
    """Precision per (radius, lambda, k) cell, from one graph walk for every radius.

    Labels are derived from ``class_map``; a query lacking one of
    ``categories`` is excluded, as Precision@K excludes it, and never
    ranked.  Ids must be unique.  A query's ranking is graded only where it
    differs from its ranking at the previous lambda; at radius 0 it never
    does, since approximate matching is inert there, so a precision that
    varies with lambda at radius 0 is an internal error.
    """
    matches = _label_matches(_docs_by_id(derive_labels(docs, class_map)).values(), categories)
    indexes = build_indexes(graph, corpus_vocabulary(docs), grid.radii)
    rows: list[tuple[int, float, int, float]] = []
    for radius, index in zip(grid.radii, indexes):
        core = ScoringCore(docs, index)
        # per lambda and k, each graded query's precision in id order
        cells = [[[] for _ in grid.ks] for _ in grid.lambdas]
        for q in sorted(matches):
            last = None
            for columns, ranked in zip(cells, core.tops(q, grid.lambdas, max(grid.ks))):
                if ranked != last:
                    last, precisions = ranked, _precisions(ranked, matches[q], grid.ks)
                for column, precision in zip(columns, precisions):
                    column.append(precision)
        for lam, columns in zip(grid.lambdas, cells):
            rows += [(radius, lam, k, _mean(column)) for k, column in zip(grid.ks, columns)]
    flat: dict[int, float] = {}
    for radius, lam, k, precision in rows:
        if radius == 0 and flat.setdefault(k, precision) != precision:
            raise RuntimeError("precision varies with lambda at radius 0 "
                               f"(k={k}: {flat[k]!r} != {precision!r})")
    return rows
