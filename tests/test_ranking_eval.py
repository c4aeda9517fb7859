from __future__ import annotations

import math
import random
import re
from pathlib import Path

import pytest

from nniou import (
    ConfigError,
    Document,
    EvalConfig,
    EvaluationError,
    KnowledgeGraph,
    RankingRun,
    build_index,
    dcg,
    derive_labels,
    ground_truth_ranking,
    ground_truth_rankings,
    label_from_concepts,
    ndcg_at_k,
    nn_cui_at_k,
    precision_at_k,
)
from nniou import ranking_eval
from nniou.scoring import ScoringCore

from oracles import DistanceOracle, brute_nn_iou, brute_precision
from synthdata import planted_cluster_corpus, random_tree_corpus


def _iou_cfg(k: int) -> EvalConfig:
    return EvalConfig(k=k, lam=0.0, measure="iou")


@pytest.fixture()
def small_corpus():
    return [
        Document("q", frozenset({"x", "y"})),
        Document("d1", frozenset({"x", "y"})),
        Document("d2", frozenset({"x"})),
        Document("d3", frozenset({"z"})),
    ]


class TestDcg:
    def test_single_item_undiscounted(self):
        assert dcg([1.0]) == 1.0

    def test_two_perfect_items(self):
        assert dcg([1.0, 1.0]) == pytest.approx(1.630930, abs=1e-6)

    def test_reversed_pair(self):
        assert dcg([0.5, 1.0]) == pytest.approx(1.130930, abs=1e-6)

    def test_matches_direct_formula(self):
        rels = [0.9, 0.1, 0.4, 0.7]
        expected = sum(r / math.log2(i + 2) for i, r in enumerate(rels))
        assert dcg(rels) == pytest.approx(expected, abs=1e-12)

    def test_discounts_give_the_literal_sum_at_every_length(self):
        """Float for float, within the discount table and past its end."""
        first = len(ranking_eval._DISCOUNTS)
        rng = random.Random(5)
        for length in (0, 1, 2, first - 1, first, first + 1, 3 * first, 1000, 3000, 7, 2500):
            rels = [rng.choice((0.0, 1.0, rng.random())) for _ in range(length)]
            literal = sum(rel / math.log2(j + 1) for j, rel in enumerate(rels, start=1))
            assert dcg(rels) == literal
            assert dcg(tuple(rels)) == literal


class TestNdcg:
    def test_perfect_ranking(self):
        assert ndcg_at_k([1.0, 0.5], [1.0, 0.5], 2) == 1.0

    def test_reversed_top_two(self):
        assert ndcg_at_k([0.5, 1.0], [1.0, 0.5], 2) == pytest.approx(
            0.859719, abs=1e-6
        )

    def test_zero_ideal_scores_zero(self):
        assert ndcg_at_k([0.0, 0.0], [0.0, 0.0], 2) == 0.0

    def test_truncates_to_k(self):
        assert ndcg_at_k([1.0, 0.0, 1.0], [1.0, 1.0, 1.0], 1) == 1.0

    def test_short_system_list_padded(self):
        # one returned result of two: the missing slot contributes nothing
        assert ndcg_at_k([1.0], [1.0, 1.0], 2) == pytest.approx(
            1.0 / dcg([1.0, 1.0]), abs=1e-12
        )


def test_document_id_must_be_non_empty():
    with pytest.raises(ValueError) as raised:
        Document("", frozenset({"x"}))
    assert type(raised.value) is ValueError
    assert str(raised.value) == "document id must be non-empty"


class TestGroundTruthRanking:
    def test_full_overlap_ranks_first(self, small_corpus):
        run = ground_truth_ranking(small_corpus[0], small_corpus, _iou_cfg(3))
        assert run.ranked_ids == ["d1", "d2", "d3"]

    def test_tie_break_by_ascending_id(self):
        corpus = [
            Document("q", frozenset({"x"})),
            Document("b", frozenset({"x"})),
            Document("a", frozenset({"x"})),
        ]
        run = ground_truth_ranking(corpus[0], corpus, _iou_cfg(2))
        assert run.ranked_ids == ["a", "b"]

    def test_query_excluded_from_candidates(self, small_corpus):
        run = ground_truth_ranking(small_corpus[0], small_corpus, _iou_cfg(3))
        assert "q" not in run.ranked_ids

    def test_empty_candidate_pool_rejected(self):
        lone = Document("q", frozenset({"x"}))
        with pytest.raises(EvaluationError, match="candidate"):
            ground_truth_ranking(lone, [lone], _iou_cfg(1))

    def test_deterministic(self, small_corpus):
        first = ground_truth_ranking(small_corpus[0], small_corpus, _iou_cfg(3))
        second = ground_truth_ranking(small_corpus[0], small_corpus, _iou_cfg(3))
        assert first.ranked_ids == second.ranked_ids


class TestNnCuiAtK:
    def test_ground_truth_runs_score_exactly_one(self, small_corpus):
        # d4 keeps d3 non-degenerate: a query whose candidates all score 0
        # has IDCG 0 and is pinned to 0 by convention, not 1
        corpus = small_corpus + [Document("d4", frozenset({"z"}))]
        cfg = _iou_cfg(3)
        runs = [ground_truth_ranking(doc, corpus, cfg) for doc in corpus]
        report = nn_cui_at_k(corpus, runs, cfg)
        assert report.aggregate == 1.0
        assert all(score == 1.0 for score in report.per_query.values())

    def test_zero_idcg_query_scores_zero_and_counts(self, small_corpus):
        cfg = _iou_cfg(3)
        runs = [ground_truth_ranking(small_corpus[3], small_corpus, cfg)]
        report = nn_cui_at_k(small_corpus, runs, cfg)
        assert report.per_query["d3"] == 0.0

    def test_reversed_top_two_reproduces_fixture_value(self, small_corpus):
        cfg = _iou_cfg(2)
        runs = [RankingRun("q", ["d2", "d1"])]
        report = nn_cui_at_k(small_corpus, runs, cfg)
        assert report.per_query["q"] == pytest.approx(0.859719, abs=1e-6)

    def test_lambda_zero_equals_iou_pipeline(self):
        graph = KnowledgeGraph.from_edges([("x", "z"), ("y", "w")])
        corpus = [
            Document("q", frozenset({"x", "y"})),
            Document("d1", frozenset({"z", "y"})),
            Document("d2", frozenset({"w"})),
            Document("d3", frozenset({"q1"})),
        ]
        index = build_index(graph, {"x", "y", "z", "w", "q1"}, 1)
        zero_lam = EvalConfig(k=3, lam=0.0, measure="nniou")
        iou_cfg = _iou_cfg(3)
        runs = [RankingRun("q", ["d3", "d1", "d2"])]
        with_nn = nn_cui_at_k(corpus, runs, zero_lam, index)
        with_iou = nn_cui_at_k(corpus, runs, iou_cfg)
        assert with_nn.per_query == with_iou.per_query
        assert with_nn.aggregate == with_iou.aggregate

    def test_missing_run_skips_query_and_notes_it(self, small_corpus):
        cfg = _iou_cfg(2)
        runs = [RankingRun("q", ["d1", "d2"])]
        report = nn_cui_at_k(small_corpus, runs, cfg)
        assert set(report.per_query) == {"q"}
        excluded = {e["query_id"] for e in report.exclusions}
        assert excluded == {"d1", "d2", "d3"}

    def test_unknown_document_in_run_rejected(self, small_corpus):
        with pytest.raises(EvaluationError, match="mystery"):
            nn_cui_at_k(small_corpus, [RankingRun("q", ["mystery"])], _iou_cfg(1))

    def test_unknown_query_rejected(self, small_corpus):
        with pytest.raises(EvaluationError, match="mystery"):
            nn_cui_at_k(small_corpus, [RankingRun("mystery", ["d1"])], _iou_cfg(1))

    def test_duplicate_runs_rejected(self, small_corpus):
        runs = [RankingRun("q", ["d1"]), RankingRun("q", ["d2"])]
        with pytest.raises(EvaluationError, match="multiple runs"):
            nn_cui_at_k(small_corpus, runs, _iou_cfg(1))

    def test_short_run_padded_and_noted(self, small_corpus):
        cfg = _iou_cfg(3)
        report = nn_cui_at_k(small_corpus, [RankingRun("q", ["d1"])], cfg)
        assert any("padded" in note for note in report.notes)
        assert 0.0 <= report.per_query["q"] <= 1.0

    def test_equal_relevance_permutations_leave_score_unchanged(self):
        corpus = [
            Document("q", frozenset({"x"})),
            Document("a", frozenset({"x"})),
            Document("b", frozenset({"x"})),
            Document("c", frozenset()),
        ]
        cfg = _iou_cfg(2)
        first = nn_cui_at_k(corpus, [RankingRun("q", ["a", "b"])], cfg)
        second = nn_cui_at_k(corpus, [RankingRun("q", ["b", "a"])], cfg)
        assert first.per_query == second.per_query

    def test_better_result_at_same_position_never_hurts(self):
        corpus = [
            Document("q", frozenset({"x", "y"})),
            Document("good", frozenset({"x", "y"})),
            Document("half", frozenset({"x"})),
            Document("bad", frozenset()),
        ]
        cfg = _iou_cfg(2)
        weaker = nn_cui_at_k(corpus, [RankingRun("q", ["bad", "half"])], cfg)
        stronger = nn_cui_at_k(corpus, [RankingRun("q", ["good", "half"])], cfg)
        assert stronger.per_query["q"] >= weaker.per_query["q"]

    def test_aggregate_is_mean(self, small_corpus):
        cfg = _iou_cfg(2)
        runs = [
            ground_truth_ranking(doc, small_corpus, cfg) for doc in small_corpus[:2]
        ]
        runs[1] = RankingRun(runs[1].query_id, list(reversed(runs[1].ranked_ids[:2])))
        report = nn_cui_at_k(small_corpus, runs, cfg)
        assert report.aggregate == pytest.approx(
            sum(report.per_query.values()) / len(report.per_query)
        )


class TestPrecisionAtK:
    @pytest.fixture()
    def labeled_corpus(self):
        return [
            Document("q", frozenset({"x"}), {"modality": "ct", "organ": "lung"}),
            Document("a", frozenset({"x"}), {"modality": "ct", "organ": "lung"}),
            Document("b", frozenset({"x"}), {"modality": "ct", "organ": "liver"}),
            Document("c", frozenset({"x"}), {"modality": "mri", "organ": "lung"}),
            Document("d", frozenset({"x"}), {"modality": "mri", "organ": "liver"}),
        ]

    def test_all_matching(self, labeled_corpus):
        runs = [RankingRun("q", ["a", "b"])]
        report = precision_at_k(labeled_corpus, runs, 2, ["organ"])
        assert report.per_query["q"] == 0.5

    def test_half_matching_modality(self, labeled_corpus):
        runs = [RankingRun("q", ["a", "b", "c", "d"])]
        report = precision_at_k(labeled_corpus, runs, 4, ["modality"])
        assert report.per_query["q"] == 0.5

    def test_conjunction_below_single_categories(self, labeled_corpus):
        runs = [RankingRun("q", ["a", "b", "c", "d"])]
        both = precision_at_k(labeled_corpus, runs, 4, ["modality", "organ"])
        modality = precision_at_k(labeled_corpus, runs, 4, ["modality"])
        organ = precision_at_k(labeled_corpus, runs, 4, ["organ"])
        assert both.aggregate <= modality.aggregate
        assert both.aggregate <= organ.aggregate

    def test_query_without_label_excluded(self, labeled_corpus):
        corpus = labeled_corpus + [Document("e", frozenset({"x"}))]
        runs = [RankingRun("q", ["a"]), RankingRun("e", ["a"])]
        report = precision_at_k(corpus, runs, 1, ["modality"])
        assert "e" not in report.per_query
        assert any(e["query_id"] == "e" for e in report.exclusions)

    def test_empty_category_list_rejected(self, labeled_corpus):
        with pytest.raises(ConfigError) as raised:
            precision_at_k(labeled_corpus, [RankingRun("q", ["a"])], 1, [])
        assert str(raised.value) == "at least one label category is required"

    def test_unknown_category_rejected(self, labeled_corpus):
        with pytest.raises(ConfigError, match="stain"):
            precision_at_k(labeled_corpus, [RankingRun("q", ["a"])], 1, ["stain"])

    def test_unlabeled_result_counts_as_mismatch(self, labeled_corpus):
        corpus = labeled_corpus + [Document("e", frozenset({"x"}))]
        runs = [RankingRun("q", ["a", "e"])]
        report = precision_at_k(corpus, runs, 2, ["modality"])
        assert report.per_query["q"] == 0.5

    def test_result_lacking_one_of_two_categories_never_matches(self, labeled_corpus):
        corpus = labeled_corpus + [
            Document("e", frozenset({"x"}), {"modality": "ct"}),
            Document("f", frozenset({"x"}), {"organ": "lung"}),
        ]
        runs = [RankingRun("q", ["e", "a", "f"])]
        report = precision_at_k(corpus, runs, 3, ["modality", "organ"])
        expected = brute_precision(corpus, runs, 3, ["modality", "organ"])
        assert report.per_query == expected == {"q": 1 / 3}

    def test_two_category_conjunction_exact_values(self, labeled_corpus):
        runs = [
            RankingRun("q", ["a", "b", "c", "d"]),
            RankingRun("a", ["q", "b"]),
            RankingRun("b", ["a", "c", "d"]),
            RankingRun("d", ["c", "b"]),
        ]
        categories = ["modality", "organ"]
        expected = {"a": 0.5, "b": 0.0, "d": 0.0, "q": 0.25}
        for k, want in ((4, expected), (1, {"a": 1.0, "b": 0.0, "d": 0.0, "q": 1.0})):
            report = precision_at_k(labeled_corpus, runs, k, categories)
            assert report.per_query == want == brute_precision(
                labeled_corpus, runs, k, categories
            )
            assert report.aggregate == sum(want[q] for q in sorted(want)) / 4
            assert report.exclusions == [{"query_id": "c", "reason": "no run provided"}]
        assert report.metric == "Precision@1[modality&organ]"

    def test_empty_run_scores_zero_with_note(self, labeled_corpus):
        runs = [RankingRun("q", []), RankingRun("a", ["q"])]
        report = precision_at_k(labeled_corpus, runs, 2, ["modality"])
        assert report.per_query == brute_precision(labeled_corpus, runs, 2, ["modality"])
        assert report.per_query == {"a": 1.0, "q": 0.0}
        assert report.notes == ["query q: empty result list"]

    def test_each_cutoff_grades_the_same_runs(self, labeled_corpus):
        corpus = labeled_corpus + [Document("e", frozenset({"x"}))]
        runs = [
            RankingRun("q", ["a", "b", "c", "d"]),
            RankingRun("a", []),
            RankingRun("b", ["d", "q", "e"]),
            RankingRun("e", ["a"]),
        ]
        categories = ["modality", "organ"]
        for k in (4, 1, 2, 4, 9):
            report = precision_at_k(corpus, runs, k, categories)
            assert report.metric == f"Precision@{k}[modality&organ]"
            assert report.config == {"k": k, "categories": categories}
            assert report.per_query == brute_precision(corpus, runs, k, categories)
            assert report.exclusions == [
                {"query_id": "c", "reason": "no run provided"},
                {"query_id": "d", "reason": "no run provided"},
                {"query_id": "e", "reason": "missing label(s): modality, organ"},
            ]
            assert report.notes == ["query a: empty result list"]

    def test_bad_cutoff_and_unknown_result_are_rejected(self, labeled_corpus):
        runs = [RankingRun("q", ["a"])]
        with pytest.raises(ConfigError, match="k must be >= 1, got 0"):
            precision_at_k(labeled_corpus, runs, 0, ["modality"])
        with pytest.raises(EvaluationError, match="unknown document id 'zz'"):
            precision_at_k(labeled_corpus, [RankingRun("q", ["zz"])], 2, ["modality"])

    def test_nn_iou_retrieval_beats_iou_on_planted_clusters(self):
        graph, docs, class_map, _ = planted_cluster_corpus(docs_per_cluster=10)
        labeled = derive_labels(docs, class_map)
        vocabulary = set().union(*(d.concepts for d in docs))
        index = build_index(graph, vocabulary, 1)
        k = 5
        scores = {}
        for lam, radius in ((0.0, 0), (0.5, 1)):
            cfg = EvalConfig(k=k, lam=lam, measure="nniou")
            runs = [
                RankingRun(
                    doc.id,
                    ground_truth_ranking(
                        doc, docs, cfg, index if radius else None
                    ).ranked_ids[:k],
                )
                for doc in docs
            ]
            scores[(lam, radius)] = precision_at_k(
                labeled, runs, k, ["modality"]
            ).aggregate
        assert scores[(0.5, 1)] >= scores[(0.0, 0)]


# Graded runs that are not the ground truth, each per-query value against
# ndcg_at_k over the oracle's scores.  At radius 1 the tree corpus sums 25
# of its 30 queries and walks 5, the planted one sums 23 of 24 and walks 1;
# at radius 2 the tree corpus sums all 30.
GRADED_CORPORA = {
    "tree": lambda: random_tree_corpus(seed=3, num_nodes=40, num_docs=30),
    "planted": lambda: planted_cluster_corpus(docs_per_cluster=12)[:2],
}
GRADED_LAMBDAS = (0.0, 0.1, 0.3, 0.5, 0.7, 1.0)


def _graded_runs(docs, index, k, kind):
    """Seeded runs of one ``kind``: the ground truth's top 2k shuffled and cut
    to k, the ground truth cut short so it is padded, or IoU's own top k."""
    rng = random.Random(11)
    if kind == "iou":
        return ground_truth_rankings(docs, EvalConfig(k=k, measure="iou"))
    truth = ground_truth_rankings(docs, EvalConfig(k=2 * k, lam=0.5), index)
    if kind == "shuffled":
        return [RankingRun(run.query_id, rng.sample(run.ranked_ids, len(run.ranked_ids))[:k])
                for run in truth]
    return [RankingRun(run.query_id, run.ranked_ids[:rng.randrange(k)]) for run in truth]


@pytest.mark.parametrize("kind", ["shuffled", "short", "iou"])
@pytest.mark.parametrize("corpus, radius", [("tree", 1), ("tree", 2), ("planted", 1)])
def test_runs_that_are_not_the_ground_truth_grade_like_the_oracle(corpus, radius, kind):
    graph, docs = GRADED_CORPORA[corpus]()
    by_id = {doc.id: doc for doc in docs}
    index = build_index(graph, set().union(*(d.concepts for d in docs)), radius)
    summed = ScoringCore(docs, index)._summed
    assert any(summed) and (radius == 2 or not all(summed))
    dist = DistanceOracle(graph.node_names, graph.edges()).dist
    k = 5
    runs = _graded_runs(docs, index, k, kind)
    below_ideal = 0
    for lam in GRADED_LAMBDAS:
        report = nn_cui_at_k(docs, runs, EvalConfig(k=k, lam=lam), index)
        expected = {}
        for run in runs:
            query = by_id[run.query_id]
            gains = {d.id: brute_nn_iou(query.concepts, d.concepts, lam, radius, dist)
                     for d in docs if d is not query}
            expected[run.query_id] = ndcg_at_k([gains[i] for i in run.ranked_ids],
                                               sorted(gains.values(), reverse=True), k)
        assert report.per_query == dict(sorted(expected.items()))
        below_ideal += sum(0 < value < 1 for value in report.per_query.values())
        if kind == "short":
            assert len(report.notes) == len(runs)
    assert below_ideal


class TestLabelFromConcepts:
    VALUE_MAP = {
        "ct": frozenset({"C01", "C02"}),
        "mri": frozenset({"C03"}),
    }

    def test_single_match(self):
        assert label_from_concepts({"C02", "C99"}, self.VALUE_MAP) == "ct"

    def test_ambiguous_gives_none(self):
        assert label_from_concepts({"C01", "C03"}, self.VALUE_MAP) is None

    def test_no_match_gives_none(self):
        assert label_from_concepts({"C99"}, self.VALUE_MAP) is None

    def test_derive_labels_replaces_mapped_categories(self):
        docs = [
            Document("a", frozenset({"C01"}), {"modality": "stale", "site": "arm"}),
            Document("b", frozenset({"C01", "C03"}), {"modality": "stale"}),
        ]
        derived = derive_labels(docs, {"modality": self.VALUE_MAP})
        assert derived[0].labels == {"modality": "ct", "site": "arm"}
        assert "modality" not in derived[1].labels


class TestValidation:
    def test_duplicate_corpus_ids_rejected(self):
        corpus = [Document("a", frozenset()), Document("a", frozenset())]
        with pytest.raises(EvaluationError, match="duplicate") as evaluated:
            nn_cui_at_k(corpus, [], _iou_cfg(1))
        with pytest.raises(EvaluationError) as ranked:
            ground_truth_rankings(corpus, _iou_cfg(1))
        assert str(ranked.value) == str(evaluated.value)

    def test_ground_truth_ranking_rejects_duplicate_corpus_ids(self):
        corpus = [Document("a", frozenset({"x"})), Document("b", frozenset({"x"})),
                  Document("b", frozenset({"x"}))]
        for query in corpus[:2]:
            with pytest.raises(EvaluationError) as raised:
                ground_truth_ranking(query, corpus, _iou_cfg(1))
            assert str(raised.value) == "duplicate document id 'b' in corpus"

    def test_rankings_of_a_one_document_corpus_have_no_candidates(self):
        only = [Document("only", frozenset({"x"}))]
        with pytest.raises(EvaluationError, match="no candidate documents for query 'only'"):
            ground_truth_rankings(only, _iou_cfg(1))
        assert ground_truth_rankings([], _iou_cfg(1)) == []

    def test_run_with_duplicate_ids_rejected(self):
        with pytest.raises(EvaluationError, match="duplicate"):
            RankingRun("q", ["a", "a"])

    def test_run_retrieving_its_own_query_rejected(self):
        with pytest.raises(EvaluationError, match="itself"):
            RankingRun("q", ["a", "q"])

    def test_eval_config_validation(self):
        with pytest.raises(ConfigError):
            EvalConfig(k=0)
        with pytest.raises(ConfigError):
            EvalConfig(k=1, measure="cosine")


def test_report_round_trips_to_dict(small_corpus=None):
    corpus = [
        Document("q", frozenset({"x"})),
        Document("a", frozenset({"x"})),
    ]
    cfg = _iou_cfg(1)
    report = nn_cui_at_k(corpus, [RankingRun("q", ["a"])], cfg)
    payload = report.to_dict()
    assert payload["metric"] == "CUI@1"
    assert payload["config"]["measure"] == "iou"
    assert payload["aggregate"] == 1.0
    assert payload["per_query"] == {"q": 1.0}


def test_random_runs_never_exceed_one():
    rng = random.Random(31)
    concepts = [f"t{i}" for i in range(12)]
    corpus = [
        Document(
            f"d{i:02d}",
            frozenset(rng.sample(concepts, rng.randint(1, 4))),
        )
        for i in range(12)
    ]
    cfg = _iou_cfg(5)
    ids = [d.id for d in corpus]
    for doc in corpus:
        candidates = [i for i in ids if i != doc.id]
        rng.shuffle(candidates)
        report = nn_cui_at_k(corpus, [RankingRun(doc.id, candidates[:5])], cfg)
        assert 0.0 <= report.per_query[doc.id] <= 1.0 + 1e-12


def test_readme_library_example_runs_verbatim(tmp_path, monkeypatch, capsys):
    """The README's library code block, run as written, so it tracks the API."""
    readme = Path(__file__).resolve().parents[1] / "README.md"
    block = re.search(r"## Library\n+```python\n(.*?)```",
                      readme.read_text(encoding="utf-8"), re.S)
    (tmp_path / "kg.tsv").write_text("x\tz\ny\tz\n", encoding="utf-8")
    (tmp_path / "corpus.jsonl").write_text(
        '{"id": "a", "cuis": ["x"]}\n{"id": "b", "cuis": ["y", "w"]}\n'
        '{"id": "c", "cuis": ["z"]}\n',
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    exec(compile(block.group(1), "README.md", "exec"), {})
    assert capsys.readouterr().out == "1.0\n"
