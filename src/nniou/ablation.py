"""The (radius, lambda, k) Precision@K sweep behind ``nniou ablate``.

:func:`ablation_rows` ranks each graded query once per radius under every
lambda (:meth:`nniou.scoring.ScoringCore.tops`) and grades each ranking
against the set of ids that share the query's label key, so a cell builds
no runs or reports.  Its rows equal :func:`nniou.precision_at_k` over the
ground-truth runs, float for float: queries are summed in sorted-id order.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

from .corpus import corpus_vocabulary
from .distance import checked_radius
from .errors import ConfigError
from .neighbor_index import build_index
from .ranking_eval import Document, EvalConfig, _docs_by_id, _label_keys, derive_labels
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
    """Precision per (radius, lambda, k) cell, one index and scoring pass per radius.

    Labels are derived from ``class_map``; a query lacking one of
    ``categories`` is excluded, as Precision@K excludes it, and never
    ranked.  Ids must be unique.  At radius 0 approximate matching is
    inert, so a precision that varies with lambda there is an internal error.
    """
    labeled = _docs_by_id(derive_labels(docs, class_map))
    keys = dict(zip(labeled, _label_keys(labeled.values(), categories)))
    sharing: dict[tuple, set[str]] = {}  # the ids that share each label key
    for doc_id, key in keys.items():
        sharing.setdefault(key, set()).add(doc_id)
    graded = sorted(q for q, doc in labeled.items() if all(c in doc.labels for c in categories))
    max_k = max(grid.ks)
    rows: list[tuple[int, float, int, float]] = []
    for radius in grid.radii:
        core = ScoringCore(docs, build_index(graph, corpus_vocabulary(docs), radius))
        # per lambda and k, each graded query's matching fraction in id order
        fractions = [[[] for _ in grid.ks] for _ in grid.lambdas]
        for q in graded:
            matches = sharing[keys[q]]
            for cells, ranked in zip(fractions, core.tops(q, grid.lambdas, max_k)):
                found = [j in matches for _, j in ranked]
                for cell, k in zip(cells, grid.ks):
                    top = found[:k]
                    cell.append(top.count(True) / len(top))
        for lam, cells in zip(grid.lambdas, fractions):
            for k, cell in zip(grid.ks, cells):
                rows.append((radius, lam, k, sum(cell) / len(cell) if cell else 0.0))
    flat: dict[int, float] = {}
    for radius, lam, k, precision in rows:
        if radius == 0 and flat.setdefault(k, precision) != precision:
            raise RuntimeError("precision varies with lambda at radius 0 "
                               f"(k={k}: {flat[k]!r} != {precision!r})")
    return rows
