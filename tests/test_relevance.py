from __future__ import annotations

import random

import pytest
from hypothesis import given, strategies as st

from nniou import (
    ConfigError,
    Document,
    EvalConfig,
    KnowledgeGraph,
    RankingRun,
    build_index,
    ground_truth_ranking,
    iou,
    nn_cui_at_k,
    nn_iou,
    rel_set,
)

from oracles import DistanceOracle, brute_nn_iou, literal_rel_set, random_graph_parts


class TestIou:
    def test_identical_sets(self):
        assert iou({"x", "y"}, {"x", "y"}) == 1.0

    def test_disjoint_sets(self):
        assert iou({"x"}, {"y"}) == 0.0

    def test_partial_overlap(self):
        assert iou({"x", "y", "z"}, {"y", "z", "w"}) == 0.5

    def test_both_empty(self):
        assert iou(set(), set()) == 0.0

    def test_one_empty(self):
        assert iou({"x"}, set()) == 0.0


class TestRelSet:
    def test_directly_connected_pair(self, anatomy_graph):
        index = build_index(anatomy_graph, {"C0042449", "C0005847"}, 1)
        assert rel_set({"C0042449"}, {"C0005847"}, index) == {"C0042449", "C0005847"}

    def test_identical_sets_give_empty_rel(self, anatomy_graph):
        index = build_index(anatomy_graph, {"C0042449", "C0005847"}, 1)
        both = {"C0042449", "C0005847"}
        assert rel_set(both, both, index) == frozenset()

    def test_chain_respects_threshold(self, chain_graph):
        # b and c sit two hops apart (b - a - c)
        near = build_index(chain_graph, {"b", "c"}, 1)
        far = build_index(chain_graph, {"b", "c"}, 2)
        assert rel_set({"b"}, {"c"}, near) == frozenset()
        assert rel_set({"b"}, {"c"}, far) == {"b", "c"}

    def test_unknown_concepts_contribute_nothing(self, chain_graph):
        index = build_index(chain_graph, {"a", "b"}, 1)
        assert rel_set({"ghost"}, {"a"}, index) == frozenset()

    def test_never_overlaps_intersection(self, chain_graph):
        index = build_index(chain_graph, set(chain_graph.node_names), 2)
        a, b = {"a", "b", "d"}, {"b", "c"}
        rel = rel_set(a, b, index)
        assert rel & (a & b) == frozenset()


class TestNnIou:
    def test_identical_sets_score_one(self, anatomy_graph):
        index = build_index(anatomy_graph, {"C0042449", "C0005847"}, 1)
        both = {"C0042449", "C0005847"}
        assert nn_iou(both, both, 0.7, index) == 1.0

    def test_directly_connected_pair_scores_half(self, anatomy_graph):
        index = build_index(anatomy_graph, {"C0042449", "C0005847"}, 1)
        assert nn_iou({"C0042449"}, {"C0005847"}, 0.5, index) == pytest.approx(0.5)

    def test_lambda_zero_degenerates_to_iou(self, chain_graph):
        index = build_index(chain_graph, set(chain_graph.node_names), 1)
        a, b = {"a", "b"}, {"b", "c"}
        assert nn_iou(a, b, 0.0, index) == iou(a, b)

    def test_related_pair_with_shared_member(self):
        graph = KnowledgeGraph.from_edges([("x", "z")])
        index = build_index(graph, {"x", "y", "z"}, 1)
        assert nn_iou({"x", "y"}, {"y", "z"}, 0.5, index) == pytest.approx(2 / 3)

    def test_empty_union_scores_zero(self):
        assert nn_iou(set(), set(), 0.5, index=None) == 0.0

    def test_index_required_when_effective(self):
        with pytest.raises(ConfigError, match="index"):
            nn_iou({"a"}, {"b"}, 0.5, index=None)

    @pytest.mark.parametrize("lam", [0.0, 0.1, 0.5, 1.0])
    def test_radius_zero_index_scores_iou(self, chain_graph, lam):
        """An index built at radius 0 lists no neighbors, so every result is IoU's."""
        docs = [
            Document("q", frozenset({"a", "c"})),
            Document("d1", frozenset({"b", "c"})),
            Document("d2", frozenset({"b"})),
            Document("d3", frozenset({"a", "d"})),
        ]
        index = build_index(chain_graph, set(chain_graph.node_names), 0)
        for x in docs:
            for y in docs:
                assert nn_iou(x.concepts, y.concepts, lam, index) == iou(
                    x.concepts, y.concepts
                )
        nn_cfg = EvalConfig(k=2, lam=lam, measure="nniou")
        iou_cfg = EvalConfig(k=2, measure="iou")
        for query in docs:
            assert ground_truth_ranking(query, docs, nn_cfg, index) == (
                ground_truth_ranking(query, docs, iou_cfg)
            )
        runs = [RankingRun("q", ["d2", "d3"]), RankingRun("d1", ["q", "d3"])]
        nn_report = nn_cui_at_k(docs, runs, nn_cfg, index)
        iou_report = nn_cui_at_k(docs, runs, iou_cfg)
        assert nn_report.per_query == iou_report.per_query
        assert nn_report.aggregate == iou_report.aggregate
        assert nn_report.config["n"] == 0


class TestParams:
    @pytest.mark.parametrize("lam", [-0.1, 1.1, float("nan"), -0.0])
    def test_lambda_out_of_range(self, lam):
        with pytest.raises(ConfigError, match=r"lambda must be in \[0, 1\], got"):
            EvalConfig(k=1, lam=lam)
        with pytest.raises(ConfigError, match=r"lambda must be in \[0, 1\], got"):
            nn_iou({"a"}, {"a"}, lam)

    def test_defaults(self):
        assert EvalConfig(k=1).lam == 0.5


def _random_case(rng):
    nodes, edges = random_graph_parts(rng, max_nodes=50)
    graph = KnowledgeGraph.from_edges(edges, nodes=nodes)
    oracle = DistanceOracle(nodes, edges)
    size_a = rng.randint(0, 8)
    size_b = rng.randint(0, 8)
    a = set(rng.sample(nodes, min(size_a, len(nodes))))
    b = set(rng.sample(nodes, min(size_b, len(nodes))))
    if rng.random() < 0.3:
        a.add("offgraph1")
    if rng.random() < 0.3:
        b.add("offgraph1" if rng.random() < 0.5 else "offgraph2")
    return graph, oracle, a, b


def test_oracle_equivalence_on_random_graphs():
    rng = random.Random(99)
    for _ in range(30):
        graph, oracle, a, b = _random_case(rng)
        vocabulary = a | b
        for radius in (0, 1, 2, 3):
            index = build_index(graph, vocabulary, radius)
            assert rel_set(a, b, index) == literal_rel_set(a, b, radius, oracle.dist)
            for lam in (0.0, 0.25, 0.5, 1.0):
                expected = brute_nn_iou(a, b, lam, radius, oracle.dist)
                assert nn_iou(a, b, lam, index) == pytest.approx(
                    expected, abs=1e-12
                )


@st.composite
def sets_on_graph(draw):
    n = draw(st.integers(min_value=2, max_value=10))
    nodes = [f"c{i}" for i in range(n)]
    pairs = [(x, y) for x in nodes for y in nodes if x != y]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=15))
    graph = KnowledgeGraph.from_edges(edges, nodes=nodes)
    universe = nodes + ["ghost"]
    a = draw(st.sets(st.sampled_from(universe), max_size=6))
    b = draw(st.sets(st.sampled_from(universe), max_size=6))
    return graph, a, b


@given(
    sets_on_graph(),
    st.integers(min_value=0, max_value=3),
    st.floats(min_value=0.0, max_value=1.0, allow_nan=False),
)
def test_range_dominance_symmetry(data, radius, lam):
    graph, a, b = data
    index = build_index(graph, a | b, radius)
    base = iou(a, b)
    assert base == (len(a & b) / len(a | b) if a | b else 0.0)
    score = nn_iou(a, b, lam, index)
    assert 0.0 <= base <= score <= 1.0
    assert score == nn_iou(b, a, lam, index)
    assert rel_set(a, b, index) == rel_set(b, a, index)


@given(sets_on_graph(), st.integers(min_value=0, max_value=3))
def test_monotone_in_lambda(data, radius):
    graph, a, b = data
    index = build_index(graph, a | b, radius)
    scores = [
        nn_iou(a, b, lam, index)
        for lam in (0.0, 0.25, 0.5, 0.75, 1.0)
    ]
    assert scores == sorted(scores)


@given(sets_on_graph(), st.floats(min_value=0.0, max_value=1.0, allow_nan=False))
def test_monotone_in_radius(data, lam):
    graph, a, b = data
    scores = []
    for radius in (0, 1, 2, 3):
        index = build_index(graph, a | b, radius)
        scores.append(nn_iou(a, b, lam, index))
    assert scores == sorted(scores)
