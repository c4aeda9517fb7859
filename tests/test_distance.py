from __future__ import annotations

import random
from unittest import mock

import pytest
from hypothesis import given, strategies as st

from nniou import (
    UNREACHABLE,
    ConfigError,
    KnowledgeGraph,
    UnknownConceptError,
    bounded_neighborhood,
    kg_store,
    shortest_path_len,
)

from oracles import INF, DistanceOracle, random_graph_parts
from synthdata import GRAPH_SOURCES, drawn_graph


class TestShortestPathLen:
    def test_direct_edge_distance_is_one(self, anatomy_graph):
        assert shortest_path_len(anatomy_graph, "C0042449", "C0005847") == 1

    def test_three_hop_chain(self, anatomy_graph):
        assert shortest_path_len(anatomy_graph, "C0006121", "C0018670") == 3

    def test_three_hop_chain_requires_undirected_traversal(self, anatomy_graph):
        # C0006104 has no outgoing edge toward C0926510, so a directed-only
        # walk could never connect brain stem to head.
        assert "C0926510" in anatomy_graph.neighbors("C0006104")

    def test_identity_is_zero(self, anatomy_graph):
        assert shortest_path_len(anatomy_graph, "C0006104", "C0006104") == 0

    def test_disconnected_components_unreachable(self, anatomy_graph):
        result = shortest_path_len(anatomy_graph, "C0042449", "C0018670")
        assert result is UNREACHABLE

    def test_unreachable_is_not_an_integer(self):
        assert repr(UNREACHABLE) == "UNREACHABLE"
        with pytest.raises(TypeError):
            UNREACHABLE <= 3  # noqa: B015 - the comparison itself is the assertion

    def test_unknown_concept_raises(self, anatomy_graph):
        with pytest.raises(UnknownConceptError, match="nope"):
            shortest_path_len(anatomy_graph, "nope", "C0005847")

    def test_symmetry(self, chain_graph):
        assert shortest_path_len(chain_graph, "d", "c") == 3
        assert shortest_path_len(chain_graph, "c", "d") == 3

    def test_agrees_with_floyd_warshall_on_random_graphs(self):
        rng = random.Random(11)
        for _ in range(25):
            nodes, edges = random_graph_parts(rng, max_nodes=50)
            graph = KnowledgeGraph.from_edges(edges, nodes=nodes)
            oracle = DistanceOracle(nodes, edges)
            for _ in range(30):
                x, y = rng.choice(nodes), rng.choice(nodes)
                got = shortest_path_len(graph, x, y)
                expected = oracle.dist(x, y)
                if expected == INF:
                    assert got is UNREACHABLE
                else:
                    assert got == int(expected)


class TestBoundedNeighborhood:
    def test_radius_zero_is_empty(self, anatomy_graph):
        assert bounded_neighborhood(anatomy_graph, "C0006104", 0) == set()

    def test_radius_one_direct_pair(self, anatomy_graph):
        assert bounded_neighborhood(anatomy_graph, "C0042449", 1) == {"C0005847"}

    def test_radius_two_on_chain(self, chain_graph):
        assert bounded_neighborhood(chain_graph, "d", 2) == {"b", "a"}

    def test_never_includes_self(self, chain_graph):
        for node in chain_graph.node_names:
            for radius in range(5):
                hood = bounded_neighborhood(chain_graph, node, radius)
                assert node not in hood
                assert len(hood) < chain_graph.num_nodes

    def test_negative_radius_rejected(self, chain_graph):
        with pytest.raises(ConfigError):
            bounded_neighborhood(chain_graph, "a", -1)
        # the radius is checked before the concept is looked up
        with pytest.raises(ConfigError):
            bounded_neighborhood(chain_graph, "missing", -1)

    def test_unknown_concept_raises(self, chain_graph):
        with pytest.raises(UnknownConceptError):
            bounded_neighborhood(chain_graph, "missing", 1)
        # radius 0 touches no edge, but the concept is still looked up
        with pytest.raises(UnknownConceptError):
            bounded_neighborhood(chain_graph, "missing", 0)

    @pytest.mark.parametrize("scan", [False, True], ids=["view", "scan"])
    @pytest.mark.parametrize("source", GRAPH_SOURCES)
    def test_matches_threshold_filter_of_oracle(self, tmp_path, source, scan):
        """Top-down graphs either scan their edge arrays or build the view."""
        rng = random.Random(23)
        with mock.patch.object(kg_store, "_keep_scanning", lambda *_: scan):
            for _ in range(15):
                nodes, edges, load = drawn_graph(tmp_path, rng, source, max_nodes=40)
                graph = load()
                oracle = DistanceOracle(nodes, edges)
                for radius in (0, 1, 2, 3):
                    x = rng.choice(nodes)
                    expected = {
                        y for y in nodes if 0 < oracle.dist(x, y) <= radius
                    }
                    assert bounded_neighborhood(graph, x, radius) == expected
                ids = rng.sample(range(graph.num_nodes), graph.num_nodes)
                assert [(u, list(v)) for u, v in load().neighbor_lists(ids).items()] == [
                    (u, list(graph.neighbor_ids(u))) for u in ids
                ]


@st.composite
def graph_and_node(draw):
    n = draw(st.integers(min_value=2, max_value=12))
    nodes = [f"c{i}" for i in range(n)]
    pairs = [(a, b) for a in nodes for b in nodes if a != b]
    edges = draw(st.lists(st.sampled_from(pairs), max_size=18))
    graph = KnowledgeGraph.from_edges(edges, nodes=nodes)
    return graph, draw(st.sampled_from(nodes)), draw(st.sampled_from(nodes))


@given(graph_and_node(), st.integers(min_value=0, max_value=4))
def test_neighborhood_symmetry_and_monotonicity(data, radius):
    graph, x, y = data
    smaller = bounded_neighborhood(graph, x, radius)
    larger = bounded_neighborhood(graph, x, radius + 1)
    assert smaller <= larger
    assert (y in smaller) == (x in bounded_neighborhood(graph, y, radius))


@given(graph_and_node())
def test_distance_symmetry_and_identity(data):
    graph, x, y = data
    dxy = shortest_path_len(graph, x, y)
    dyx = shortest_path_len(graph, y, x)
    if dxy is UNREACHABLE:
        assert dyx is UNREACHABLE
    else:
        assert dxy == dyx
        assert (dxy == 0) == (x == y)


@given(graph_and_node())
def test_triangle_inequality(data):
    graph, x, y = data
    for z in graph.node_names:
        dxz = shortest_path_len(graph, x, z)
        dxy = shortest_path_len(graph, x, y)
        dyz = shortest_path_len(graph, y, z)
        if dxy is not UNREACHABLE and dyz is not UNREACHABLE:
            assert dxz is not UNREACHABLE
            assert dxz <= dxy + dyz
