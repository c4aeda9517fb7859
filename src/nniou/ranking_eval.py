"""Ranking evaluation: ground-truth generation, NDCG, nn-CUI@K, Precision@K and its sweep.

The evaluation treats every corpus document in turn as a query.  Candidate
documents are scored against the query's concept set with the configured
measure by the pruned scoring core (:mod:`nniou.scoring`), which scores
only documents that can score above 0; ordering those scores (descending,
ties broken by ascending id) yields the ground-truth ranking.
An :class:`EvalConfig` holds k, the weight ``lam`` and the measure; only
:func:`scoring_core` maps a measure to a weight (IoU is nn-IoU at 0).
:func:`ground_truth_rankings` builds one core for a whole corpus and
returns every query's top K from it; :func:`ground_truth_ranking` is the
one-query case.  A system's returned ranking is then graded position by
position: each result contributes its relevance divided by
log2(rank + 1), the resulting DCG is normalized by the ideal DCG, that of
the query's k largest scores, and the final metric is the mean per-query
NDCG.  nn-CUI@K builds no ranking: one count per query scores every
candidate (:meth:`ScoringCore.gains`), a summed query every document as
one row by number; the ideal takes the k largest scores with
``heapq.nlargest``, and each run document's gain comes from the lookup
``gains`` returns: by number in a row, else by id, 0.0 for a document
that is no candidate.  A row builds no candidate id list or score dict,
and the result does not depend on tie order.

:func:`ablation_rows` is the (radius, lambda, k) Precision@K sweep behind
``nniou ablate``.  It walks the graph once, to the largest radius, for an
index at every radius (:func:`nniou.neighbor_index.build_indexes`).  Per
radius it ranks each graded query once under every lambda
(:meth:`ScoringCore.tops`) and grades each distinct ranking once with
:func:`precision_at_k`'s own helpers, so a cell builds no runs or reports,
and its rows equal ``precision_at_k`` over ground truth, float for float.

Per-query evaluations are independent; report assembly is a deterministic
reduction over queries sorted by id.
"""

from __future__ import annotations

import heapq
import math
from dataclasses import dataclass, field
from itertools import accumulate, chain, count
from operator import truediv
from typing import Collection, Iterable, Mapping, Sequence

from .errors import ConfigError, EvaluationError
from .neighbor_index import NeighborIndex, build_indexes, checked_radius
# ``iou`` and ``nn_iou`` stay module attributes (benchmarks/tracer.py wraps
# them) although ranking now goes through the scoring core.
from .scoring import ScoringCore, checked_index, checked_lambda, iou, nn_iou

MEASURES = ("iou", "nniou")


@dataclass
class Document:
    """A corpus item: id, concept set, optional categorical labels."""

    id: str
    concepts: frozenset[str]
    labels: dict[str, str] = field(default_factory=dict)

    def __post_init__(self):
        if not self.id:
            raise ValueError("document id must be non-empty")
        self.concepts = frozenset(self.concepts)
        self.labels = dict(self.labels)


@dataclass
class RankingRun:
    """One query id plus the ordered document ids some system returned."""

    query_id: str
    ranked_ids: list[str]

    def __post_init__(self):
        self.ranked_ids = list(self.ranked_ids)
        if len(set(self.ranked_ids)) != len(self.ranked_ids):
            raise EvaluationError(
                f"run for query {self.query_id!r} contains duplicate document ids"
            )
        if self.query_id in self.ranked_ids:
            raise EvaluationError(
                f"run for query {self.query_id!r} retrieves the query itself"
            )


def checked_k(k: int) -> int:
    """A ranking cutoff, which must be >= 1."""
    if k < 1:
        raise ConfigError(f"k must be >= 1, got {k}")
    return k


@dataclass(frozen=True)
class EvalConfig:
    """Cutoff, weight of approximate matching, and measure for one evaluation."""

    k: int
    lam: float = 0.5
    measure: str = "nniou"

    def __post_init__(self):
        checked_k(self.k)
        checked_lambda(self.lam)
        if self.measure not in MEASURES:
            raise ConfigError(
                f"measure must be one of {MEASURES}, got {self.measure!r}"
            )


@dataclass
class MetricReport:
    """Per-query scores plus their mean and the configuration that produced them."""

    metric: str
    config: dict[str, object]
    per_query: dict[str, float]
    aggregate: float
    exclusions: list[dict[str, str]] = field(default_factory=list)
    notes: list[str] = field(default_factory=list)

    @classmethod
    def from_scores(
        cls,
        metric: str,
        config: Mapping[str, object],
        per_query: Mapping[str, float],
        exclusions: Iterable[dict[str, str]] = (),
        notes: Iterable[str] = (),
    ) -> "MetricReport":
        scores = dict(per_query)
        return cls(metric, dict(config), scores, _mean(scores.values()), list(exclusions),
                   list(notes))

    def to_dict(self) -> dict[str, object]:
        # every field, shallow: dataclasses.asdict would deep-copy each score
        return dict(vars(self))


def scoring_core(
    corpus: Sequence[Document], cfg: EvalConfig, index: NeighborIndex | None
) -> tuple[ScoringCore, float]:
    """The scoring core and weight that rank ``corpus`` under ``cfg``.

    IoU is nn-IoU with approximate matching off, and so is nn-IoU at
    lambda 0; only then may the index be missing.  Otherwise the index's
    neighbor lists are the distance threshold: one built at radius 0 lists
    none, and scores equal IoU.
    """
    lam = cfg.lam if cfg.measure == "nniou" else 0
    if lam == 0:
        return ScoringCore(corpus), lam
    return ScoringCore(corpus, checked_index(index)), lam


def _docs_by_id(corpus: Iterable[Document]) -> dict[str, Document]:
    by_id: dict[str, Document] = {}
    for doc in corpus:
        if doc.id in by_id:
            raise EvaluationError(f"duplicate document id {doc.id!r} in corpus")
        by_id[doc.id] = doc
    return by_id


def _runs_by_query(
    docs: Mapping[str, Document], runs: Iterable[RankingRun]
) -> dict[str, RankingRun]:
    by_query: dict[str, RankingRun] = {}
    for run in runs:
        if run.query_id not in docs:
            raise EvaluationError(
                f"run references unknown document id {run.query_id!r}"
            )
        if run.query_id in by_query:
            raise EvaluationError(f"multiple runs for query {run.query_id!r}")
        for ranked_id in run.ranked_ids:
            if ranked_id not in docs:
                raise EvaluationError(
                    f"run for query {run.query_id!r} references unknown document "
                    f"id {ranked_id!r}"
                )
        by_query[run.query_id] = run
    return by_query


def ground_truth_ranking(
    query: Document,
    corpus: Sequence[Document],
    cfg: EvalConfig,
    index: NeighborIndex | None = None,
) -> RankingRun:
    """Rank all candidates against the query by the configured measure.

    The query document itself is excluded from the candidate pool
    (self-retrieval trivially scores 1.0).  Ordering is by descending
    score with ties broken by ascending document id, so repeated calls are
    deterministic.  The full ranking is returned: documents scoring above
    0, then every other candidate by id.  Callers truncate to K.  Corpus
    ids must be unique.
    """
    pool = [doc for doc in _docs_by_id(corpus).values() if doc.id != query.id] + [query]
    core, lam = scoring_core(pool, cfg, index)
    return RankingRun(query.id, core.tops(query.id, (lam,), len(pool) - 1)[0])


def ground_truth_rankings(
    corpus: Sequence[Document],
    cfg: EvalConfig,
    index: NeighborIndex | None = None,
) -> list[RankingRun]:
    """Every document's ground-truth top ``cfg.k``, in corpus order.

    Each run equals :func:`ground_truth_ranking` of that document cut at
    ``cfg.k``, but one scoring core ranks them all.  Ids must be unique.
    """
    docs = _docs_by_id(corpus)
    core, lam = scoring_core(list(docs.values()), cfg, index)
    return [RankingRun(query_id, core.tops(query_id, (lam,), cfg.k)[0]) for query_id in docs]


# log2(rank + 1) for ranks 1-64; a longer list computes the rest as it goes
_DISCOUNTS = tuple(math.log2(rank + 1) for rank in range(1, 65))


def dcg(relevances: Iterable[float]) -> float:
    """Discounted cumulative gain with a log2(rank + 1) position penalty.

    Ranks are 1-based, so the first item is undiscounted (log2(2) = 1).
    """
    return sum(map(truediv, relevances, chain(_DISCOUNTS, map(math.log2, count(66)))))


def ndcg_at_k(
    system_relevances: Sequence[float],
    ideal_relevances: Sequence[float],
    k: int,
) -> float:
    """DCG of the system's top-k over DCG of the ideal top-k.

    Lists longer than k are truncated; shorter lists are implicitly padded
    with zero relevance.  Returns 0.0 when the ideal DCG is zero.
    """
    idcg = dcg(list(ideal_relevances)[:k])
    if idcg == 0.0:
        return 0.0
    return dcg(list(system_relevances)[:k]) / idcg


def nn_cui_at_k(
    corpus: Sequence[Document],
    runs: Iterable[RankingRun],
    cfg: EvalConfig,
    index: NeighborIndex | None = None,
) -> MetricReport:
    """Mean NDCG@k of system rankings against measure-derived ground truth.

    For each query, the top-k system results are graded by the configured
    measure against the query's concepts; the ideal DCG is that of the k
    largest scores over the candidate pool, in descending order, so it does
    not depend on how ties are ordered.  One count per query gives both:
    :meth:`ScoringCore.gains` scores a walked query's candidates, or a
    summed query's row, whose own entry scores 0, and returns a lookup of
    each run document's score, 0.0 for a non-candidate.  Corpus documents
    without a run are skipped as queries and recorded as exclusions; runs
    shorter than k are padded with zero relevance and noted.  The report's
    ``"n"`` is the index's radius, or 1 without an index.
    """
    docs = _docs_by_id(corpus)
    core, lam = scoring_core(list(docs.values()), cfg, index)
    by_query = _runs_by_query(docs, runs)

    per_query: dict[str, float] = {}
    exclusions: list[dict[str, str]] = []
    notes: list[str] = []
    for query_id in sorted(docs):
        run = by_query.get(query_id)
        if run is None:
            exclusions.append({"query_id": query_id, "reason": "no run provided"})
            continue
        top = run.ranked_ids[: cfg.k]
        if len(top) < cfg.k:
            notes.append(
                f"query {query_id}: run returned {len(top)} of k={cfg.k} results; "
                "missing positions padded with zero relevance"
            )
        scores, gains_of = core.gains(query_id, lam)
        per_query[query_id] = ndcg_at_k(gains_of(top), heapq.nlargest(cfg.k, scores), cfg.k)

    metric = f"nn-CUI@{cfg.k}" if cfg.measure == "nniou" else f"CUI@{cfg.k}"
    config = {
        "k": cfg.k,
        "measure": cfg.measure,
        "lambda": cfg.lam,
        "n": 1 if index is None else index.radius,
    }
    return MetricReport.from_scores(metric, config, per_query, exclusions, notes)


def precision_at_k(
    corpus: Sequence[Document],
    runs: Iterable[RankingRun],
    k: int,
    label_categories: Sequence[str],
) -> MetricReport:
    """Fraction of top-k results matching the query on every given category.

    Queries lacking a label in any requested category are excluded and
    recorded.  Results lacking a label simply never match.  The fraction is
    over the results actually considered (at most k), so exhaustive
    retrieval on a small corpus is not penalized.
    """
    checked_k(k)
    categories = list(label_categories)
    docs = _docs_by_id(corpus)
    matches = _label_matches(docs.values(), categories)
    by_query = _runs_by_query(docs, runs)

    per_query: dict[str, float] = {}
    exclusions: list[dict[str, str]] = []
    notes: list[str] = []
    for query_id in sorted(docs):
        run = by_query.get(query_id)
        if run is None:
            exclusions.append({"query_id": query_id, "reason": "no run provided"})
            continue
        if query_id not in matches:
            missing = ", ".join(c for c in categories if c not in docs[query_id].labels)
            exclusions.append({"query_id": query_id, "reason": f"missing label(s): {missing}"})
            continue
        if not run.ranked_ids:
            notes.append(f"query {query_id}: empty result list")
        per_query[query_id] = _precisions(run.ranked_ids, matches[query_id], (k,))[0]

    metric = f"Precision@{k}[{'&'.join(categories)}]"
    config = {"k": k, "categories": categories}
    return MetricReport.from_scores(metric, config, per_query, exclusions, notes)


def _label_matches(corpus: Collection[Document], categories: Sequence[str]) -> dict[str, set[str]]:
    """Each document carrying every category, mapped to the ids sharing all its labels."""
    if not categories:
        raise ConfigError("at least one label category is required")
    for category in categories:
        if not any(category in doc.labels for doc in corpus):
            raise ConfigError(f"no document carries label category {category!r}")
    sharing: dict[tuple, set[str]] = {}  # the ids that share each label key
    matches: dict[str, set[str]] = {}
    for doc in corpus:
        if doc.labels.keys() >= set(categories):
            matches[doc.id] = sharing.setdefault(tuple(map(doc.labels.get, categories)), set())
            matches[doc.id].add(doc.id)
    return matches


def _precisions(ranked: Sequence[str], matches: Collection[str], ks: Sequence[int]) -> list[float]:
    """Per k in ``ks``, the share of ``ranked``'s first k ids (or all) in ``matches``."""
    # hits[i]: how many of the first i + 1 ids match, from one pass
    hits = list(accumulate(map(matches.__contains__, ranked[:max(ks)])))
    return [hits[min(k, len(hits)) - 1] / min(k, len(hits)) if hits else 0.0 for k in ks]


def _mean(values: Collection[float]) -> float:
    return sum(values) / len(values) if values else 0.0


def label_from_concepts(
    concepts: Iterable[str], value_map: Mapping[str, frozenset[str]]
) -> str | None:
    """Pick the single category value whose concept set intersects the document's.

    Zero or multiple intersecting values yield ``None`` (no label); callers
    exclude such documents from label-based metrics rather than guessing.
    """
    concepts = frozenset(concepts)
    matches = [value for value in sorted(value_map) if value_map[value] & concepts]
    if len(matches) == 1:
        return matches[0]
    return None


def derive_labels(
    corpus: Sequence[Document],
    class_map: Mapping[str, Mapping[str, frozenset[str]]],
) -> list[Document]:
    """Re-derive categorical labels from concepts for every class-map category.

    For each category the mapped value replaces any explicit label; an
    ambiguous or empty match leaves the category unset, which later excludes
    the document from that category's Precision@K.  Labels for categories
    outside the map are preserved.
    """
    out: list[Document] = []
    for doc in corpus:
        labels = dict(doc.labels)
        for category in sorted(class_map):
            labels.pop(category, None)
            value = label_from_concepts(doc.concepts, class_map[category])
            if value is not None:
                labels[category] = value
        out.append(Document(doc.id, doc.concepts, labels))
    return out


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
            checked_k(k)
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
    indexes = build_indexes(graph, (c for doc in docs for c in doc.concepts), grid.radii)
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
