"""The pruned scoring core against the pairwise brute force it replaces.

Every ranking the toolkit produces (retrieval runs, nn-CUI@K's ideal
rankings and ablation cells) goes through ``ScoringCore``; these tests pin
it, byte for byte, to sorting every other document by (-nn_iou, id).
"""

from __future__ import annotations

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nniou import (
    ConfigError,
    Document,
    EvalConfig,
    KnowledgeGraph,
    NeighborIndex,
    RankingRun,
    RelevanceParams,
    build_index,
    derive_labels,
    ground_truth_ranking,
    iou,
    nn_cui_at_k,
    nn_iou,
    precision_at_k,
    rel_set,
)
from nniou.cli import AblationGrid, ablation_rows, main
from nniou.ranking_eval import scoring_core
from nniou.scoring import ScoringCore

from oracles import brute_nn_cui, brute_ranking

GRAPH_CONCEPTS = [f"c{i}" for i in range(7)]
# "zz" is in no graph; "yy" is in the graph but left out of every built index
CONCEPTS = GRAPH_CONCEPTS + ["yy", "zz"]
LAMBDAS = (0.0, 0.1, 0.5, 1.0)


@st.composite
def corpora(draw, min_docs=1):
    ids = draw(st.lists(st.sampled_from("abcdefghij"), min_size=min_docs,
                        max_size=8, unique=True))
    return [
        Document(doc_id, frozenset(draw(st.sets(st.sampled_from(CONCEPTS), max_size=4))))
        for doc_id in ids
    ]


@st.composite
def graphs(draw):
    pairs = draw(st.lists(st.tuples(st.sampled_from(GRAPH_CONCEPTS + ["yy"]),
                                    st.sampled_from(GRAPH_CONCEPTS + ["yy"])),
                          max_size=10))
    edges = sorted({(a, b) for a, b in pairs if a != b})
    return KnowledgeGraph.from_edges(edges, nodes=GRAPH_CONCEPTS + ["yy"])


@st.composite
def asymmetric_indexes(draw, radius):
    """Hand-built directed neighbor lists, some naming concepts with no entry."""
    keys = draw(st.sets(st.sampled_from(CONCEPTS)))
    entries = {
        c: frozenset(draw(st.sets(st.sampled_from([x for x in CONCEPTS if x != c]),
                                  max_size=3)))
        for c in keys
    }
    return NeighborIndex(radius=radius, source_checksum="hand", entries=entries)


@st.composite
def settings_cases(draw):
    """(corpus, cfg, index) covering IoU, nn-IoU at radius 0-2 and asymmetric indexes."""
    docs = draw(corpora(min_docs=2))
    radius = draw(st.integers(0, 2))
    cfg = EvalConfig(
        k=draw(st.integers(1, len(docs) + 2)),
        relevance=RelevanceParams(lam=draw(st.sampled_from(LAMBDAS)), radius=radius),
        measure=draw(st.sampled_from(("iou", "nniou"))),
    )
    if draw(st.booleans()):
        index = draw(asymmetric_indexes(radius))
    else:
        vocabulary = set().union(*(d.concepts for d in docs)) - {"yy"}
        index = build_index(draw(graphs()), vocabulary, radius)
    return docs, cfg, index


def _pair_score(cfg, index):
    if cfg.measure == "iou":
        return iou
    return lambda a, b: nn_iou(a, b, cfg.relevance, index)


@settings(max_examples=300)
@given(settings_cases())
def test_core_rankings_equal_brute_force(case):
    docs, cfg, index = case
    score = _pair_score(cfg, index)
    core, lam = scoring_core(docs, cfg, index)
    by_id = {d.id: d for d in docs}
    for q, query in enumerate(docs):
        expected = brute_ranking(query, docs, score)
        top = core.top(q, lam, cfg.k)
        assert [core.ids[j] for _, j in top] == expected[: cfg.k]
        assert [s for s, _ in top] == [
            score(by_id[i].concepts, query.concepts) for i in expected[: cfg.k]
        ]
        assert ground_truth_ranking(query, docs, cfg, index).ranked_ids == expected


@settings(max_examples=300)
@given(corpora(min_docs=2), st.integers(0, 2), st.data())
def test_tops_equal_brute_force_for_every_lambda(docs, radius, data):
    """One scoring pass ranks like a separate brute-force sort per lambda."""
    drawn = data.draw(st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=4))
    # always 0, 1 and a repeated lambda, in a drawn order
    lams = data.draw(st.permutations(drawn + [0.0, 1.0, drawn[0]]))
    k = data.draw(st.none() | st.integers(1, len(docs) + 2))
    if data.draw(st.booleans()):
        index = data.draw(asymmetric_indexes(radius))
    else:
        vocabulary = set().union(*(d.concepts for d in docs)) - {"yy"}
        index = build_index(data.draw(graphs()), vocabulary, radius)
    core = ScoringCore(docs, index if radius else None)
    by_id = {d.id: d for d in docs}
    for q, query in enumerate(docs):
        rankings = core.tops(q, lams, k)
        assert len(rankings) == len(lams)
        for lam, ranked in zip(lams, rankings):
            params = RelevanceParams(lam=lam, radius=radius)

            def score(a, b, params=params):
                return nn_iou(a, b, params, index)

            expected = brute_ranking(query, docs, score)[:k]
            assert [core.ids[j] for _, j in ranked] == expected
            assert [s for s, _ in ranked] == [
                score(by_id[i].concepts, query.concepts) for i in expected
            ]
        assert core.top(q, lams[0], k) == rankings[0]


@settings(max_examples=200)
@given(settings_cases(), st.randoms(use_true_random=False))
def test_nn_cui_reports_equal_brute_force(case, rng):
    docs, cfg, index = case
    ids = [d.id for d in docs]
    runs = []
    for doc in docs:
        others = [i for i in ids if i != doc.id]
        rng.shuffle(others)
        if rng.random() < 0.8:
            runs.append(RankingRun(doc.id, others[: rng.randint(0, cfg.k + 1)]))
    report = nn_cui_at_k(docs, runs, cfg, index)
    expected = brute_nn_cui(docs, runs, cfg.k, _pair_score(cfg, index))
    assert report.per_query == expected
    assert list(report.per_query) == sorted(expected)


TIE_CONCEPTS = ["t0", "t1", "t2"]


@st.composite
def tie_cases(draw):
    """Many documents over a 2-3 concept alphabet, so scores tie in groups.

    Five or more documents take their concept sets from a pool of at most
    four, so two of them share a set and tie in every other query's
    ranking.  Ids come in drawn order, not sorted, so corpus position is no
    stand-in for the id tie-break; empty and unrelated documents give
    zero-score tails for the candidates to stay ahead of.
    """
    alphabet = TIE_CONCEPTS[: draw(st.integers(2, 3))]
    ids = draw(st.lists(st.sampled_from("abcdefghijklmn"), min_size=5, max_size=12,
                        unique=True))
    pool = draw(st.lists(st.frozensets(st.sampled_from(alphabet)), min_size=1, max_size=4))
    docs = [Document(doc_id, draw(st.sampled_from(pool))) for doc_id in ids]
    entries = {
        c: frozenset(draw(st.sets(st.sampled_from([x for x in alphabet if x != c]))))
        for c in draw(st.sets(st.sampled_from(alphabet)))
    }
    return docs, NeighborIndex(radius=1, source_checksum="hand", entries=entries)


@settings(max_examples=200)
@given(tie_cases())
def test_ties_straddling_the_kth_place_break_by_id(case):
    """Every k, including each one that falls inside a tie group."""
    docs, index = case
    core = ScoringCore(docs, index)
    by_id = {d.id: d for d in docs}
    lams = (0.0, 0.5, 1.0)
    straddled = 0
    for q, query in enumerate(docs):
        full = core.tops(q, lams)
        for lam, ranked in zip(lams, full):
            params = RelevanceParams(lam=lam, radius=1)

            def score(a, b, params=params):
                return nn_iou(a, b, params, index)

            expected = brute_ranking(query, docs, score)
            scores = [score(by_id[i].concepts, query.concepts) for i in expected]
            assert [core.ids[j] for _, j in ranked] == expected
            assert [s for s, _ in ranked] == scores
            straddled += sum(a == b for a, b in zip(scores, scores[1:]))
        for k in range(1, len(docs) + 1):
            assert core.tops(q, lams, k) == [ranked[:k] for ranked in full]
            for lam, ranked in zip(lams, full):
                assert core.top(q, lam, k) == ranked[:k]
    assert straddled
    for lam in lams:
        for k in (1, 2, 3, len(docs)):
            cfg = EvalConfig(k=k, relevance=RelevanceParams(lam=lam, radius=1))
            runs = [RankingRun(d.id, [o.id for o in reversed(docs) if o is not d][:k])
                    for d in docs]
            expected = brute_nn_cui(docs, runs, k,
                                    lambda a, b, cfg=cfg: nn_iou(a, b, cfg.relevance, index))
            assert nn_cui_at_k(docs, runs, cfg, index).per_query == expected


@pytest.mark.parametrize("entries", [
    # symmetric: p0 and p3 list each other, so do p1 and p2
    {"p0": {"p3"}, "p3": {"p0"}, "p1": {"p2"}, "p2": {"p1"}},
    # asymmetric: only p0 and p3 have lists, naming concepts that list nothing
    {"p0": {"p2"}, "p3": {"p1"}},
])
def test_related_concepts_on_the_first_and_last_concept_bits(entries):
    """A related concept on bit 0 and one on bit w-1 of the packed halves.

    Concepts are interned to bits in first-seen order, and each of the
    first four documents brings one new concept, so p0 takes bit 0 and p3
    bit 3 = w-1 of the w = 4 concept bits; shifting the near half by one
    bit too few or too many moves one of them onto the other half.
    """
    docs = [Document(f"d{i}", frozenset({f"p{i}"})) for i in range(4)] + [
        Document("e0", frozenset({"p0", "p1"})),
        Document("e1", frozenset({"p2", "p3"})),
        Document("e2", frozenset({"p0", "p3"})),
        Document("e3", frozenset({"p1", "p2", "p3"})),
    ]
    index = NeighborIndex(radius=1, source_checksum="hand",
                          entries={c: frozenset(n) for c, n in entries.items()})
    core = ScoringCore(docs, index)
    by_id = {d.id: d for d in docs}
    related = set()
    for lam in (0.5, 1.0):
        params = RelevanceParams(lam=lam, radius=1)

        def score(a, b, params=params):
            return nn_iou(a, b, params, index)

        for q, query in enumerate(docs):
            for j, doc in enumerate(docs):
                related |= rel_set(query.concepts, doc.concepts, index)
                assert core.score(q, j, lam) == score(query.concepts, doc.concepts)
            expected = brute_ranking(query, docs, score)
            top = core.top(q, lam)
            assert [core.ids[j] for _, j in top] == expected
            assert [s for s, _ in top] == [
                score(by_id[i].concepts, query.concepts) for i in expected
            ]
    assert {"p0", "p3"} <= related


GROUPS = {"group": {"low": frozenset({"c0", "c1", "zz"}),
                    "high": frozenset({"c4", "c5", "c6"})}}


def _brute_ablation_rows(graph, docs, grid):
    labeled = derive_labels(docs, GROUPS)
    vocabulary = set().union(*(d.concepts for d in docs))
    expected = []
    for radius in grid.radii:
        index = build_index(graph, vocabulary, radius)
        for lam in grid.lambdas:
            params = RelevanceParams(lam=lam, radius=radius)
            runs = [
                RankingRun(doc.id, brute_ranking(
                    doc, docs, lambda a, b: nn_iou(a, b, params, index))[: max(grid.ks)])
                for doc in docs
            ]
            for k in grid.ks:
                expected.append(
                    (radius, lam, k, precision_at_k(labeled, runs, k, ["group"]).aggregate)
                )
    return expected


@settings(max_examples=100)
@given(
    corpora(min_docs=2),
    graphs(),
    st.lists(st.sampled_from(LAMBDAS), min_size=1, max_size=5),
    st.lists(st.integers(0, 2), min_size=1, max_size=3),
    st.lists(st.integers(1, 10), min_size=1, max_size=3),
)
def test_ablation_rows_equal_brute_force(docs, graph, lambdas, radii, ks):
    if not any("group" in d.labels for d in derive_labels(docs, GROUPS)):
        return
    grid = AblationGrid(lambdas=tuple(lambdas), radii=tuple(radii), ks=tuple(ks))
    assert ablation_rows(graph, docs, grid, GROUPS, ["group"]) == (
        _brute_ablation_rows(graph, docs, grid)
    )


def test_ablation_rows_with_every_k_beyond_a_two_document_corpus():
    """Each run is one document wide, whatever the largest k asks for."""
    graph = KnowledgeGraph.from_edges([("c0", "c1"), ("c1", "c4")], nodes=GRAPH_CONCEPTS)
    docs = [Document("a", frozenset({"c0"})), Document("b", frozenset({"c1"}))]
    grid = AblationGrid(lambdas=(0.0, 0.5, 1.0), radii=(0, 1, 2), ks=(1, 3, 10))
    rows = ablation_rows(graph, docs, grid, GROUPS, ["group"])
    assert rows == _brute_ablation_rows(graph, docs, grid)
    # both are "low", and each one's single result is the other
    assert [precision for *_, precision in rows] == [1.0] * 27


def test_duplicate_lambdas_repeat_their_rows(tmp_path, capsys):
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text(
        '{"id": "a", "cuis": ["x"]}\n{"id": "b", "cuis": ["x", "y"]}\n'
        '{"id": "c", "cuis": ["y"]}\n',
        encoding="utf-8",
    )
    edges = tmp_path / "edges.tsv"
    edges.write_text("x\ty\n", encoding="utf-8")
    cmap = tmp_path / "classes.json"
    cmap.write_text('{"g": {"one": ["x"], "two": ["y"]}}', encoding="utf-8")
    assert main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                 "--class-map", str(cmap), "--lambdas", "0.5,0.5,0",
                 "--radii", "1", "--ks", "1"]) == 0
    rows = capsys.readouterr().out.splitlines()[1:]
    assert [r.split(",")[1] for r in rows] == ["0.500000", "0.500000", "0.000000"]
    assert rows[0] == rows[1]


class TestErrorPaths:
    """Errors once raised from each nn_iou call keep their type and message."""

    CORPUS = [Document("q", frozenset({"x"})), Document("d", frozenset({"y"}))]

    def test_one_document_corpus_has_no_candidates(self, tmp_path, capsys):
        corpus = tmp_path / "one.jsonl"
        corpus.write_text('{"id": "only", "cuis": ["x"]}\n', encoding="utf-8")
        code = main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "3", "--out", str(tmp_path / "x.runs")])
        assert code == 2
        assert "no candidate documents for query 'only'" in capsys.readouterr().err

    def test_missing_index_raises_the_nn_iou_config_error(self):
        params = RelevanceParams(lam=0.5, radius=1)
        with pytest.raises(ConfigError) as pairwise:
            nn_iou({"x"}, {"y"}, params, None)
        cfg = EvalConfig(k=1, relevance=params)
        with pytest.raises(ConfigError) as evaluated:
            nn_cui_at_k(self.CORPUS, [RankingRun("q", ["d"])], cfg, None)
        assert str(evaluated.value) == str(pairwise.value)
        assert "neighbor index is required" in str(evaluated.value)

    def test_index_radius_mismatch_raises_the_nn_iou_config_error(self):
        params = RelevanceParams(lam=0.5, radius=2)
        index = NeighborIndex(1, "ff", {"x": frozenset({"y"}), "y": frozenset({"x"})})
        with pytest.raises(ConfigError) as pairwise:
            nn_iou({"x"}, {"y"}, params, index)
        cfg = EvalConfig(k=1, relevance=params)
        for call in (
            lambda: nn_cui_at_k(self.CORPUS, [RankingRun("q", ["d"])], cfg, index),
            lambda: ground_truth_ranking(self.CORPUS[0], self.CORPUS, cfg, index),
        ):
            with pytest.raises(ConfigError) as raised:
                call()
            assert str(raised.value) == str(pairwise.value)
            assert "index radius 1 does not match configured radius 2" in str(raised.value)
