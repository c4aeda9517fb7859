from __future__ import annotations

import random
from unittest import mock

import pytest

from nniou import (
    ConfigError,
    IndexFormatError,
    KnowledgeGraph,
    NeighborIndex,
    build_index,
    build_indexes,
    kg_store,
    load_index,
    save_index,
)
from nniou.cli import main

from oracles import DistanceOracle, documented_adjacency, random_graph_parts
from synthdata import GRAPH_SOURCES, drawn_graph


def _counting(name):
    """Patch a kg_store function with a wrapper that counts its calls."""
    return mock.patch.object(kg_store, name, wraps=getattr(kg_store, name))


def counting_graph_method(name):
    """Patch a KnowledgeGraph method with a wrapper that counts its calls."""
    method = getattr(KnowledgeGraph, name)
    return mock.patch.object(KnowledgeGraph, name, autospec=True, side_effect=method)


class TestBuildIndex:
    def test_radius_zero_entries_all_empty(self, chain_graph):
        index = build_index(chain_graph, {"a", "b", "c", "d"}, 0)
        assert all(neigh == frozenset() for neigh in index.entries.values())

    def test_direct_pair_symmetric_entries(self, anatomy_graph):
        index = build_index(anatomy_graph, {"C0042449", "C0005847"}, 1)
        assert index.neighbors("C0042449") == {"C0005847"}
        assert index.neighbors("C0005847") == {"C0042449"}

    def test_vocabulary_restriction(self, chain_graph):
        # d and c sit three hops apart; at radius 2 neither sees the other
        # and intermediate nodes are not part of the indexed vocabulary.
        index = build_index(chain_graph, {"d", "c"}, 2)
        assert index.neighbors("d") == frozenset()
        assert index.neighbors("c") == frozenset()

    def test_concept_absent_from_graph_is_isolated(self, chain_graph):
        index = build_index(chain_graph, {"a", "ghost"}, 2)
        assert "ghost" in index
        assert index.neighbors("ghost") == frozenset()

    def test_unindexed_concept_queries_return_empty(self, chain_graph):
        index = build_index(chain_graph, {"a"}, 1)
        assert index.neighbors("never-seen") == frozenset()

    def test_negative_radius_rejected(self, chain_graph):
        with pytest.raises(ConfigError):
            build_index(chain_graph, {"a"}, -1)

    def test_build_is_order_independent(self, chain_graph):
        concepts = ["d", "c", "b", "a"]
        forward = build_index(chain_graph, concepts, 2)
        backward = build_index(chain_graph, list(reversed(concepts)), 2)
        assert forward == backward

    @pytest.mark.parametrize("scan", [False, True], ids=["view", "scan"])
    @pytest.mark.parametrize("source", GRAPH_SOURCES)
    def test_matches_brute_force_sets(self, tmp_path, source, scan):
        """Top-down graphs either scan their edge lists or build the view."""
        rng = random.Random(5)
        top_down = source in ("parents-first", "from-edges")
        with mock.patch.object(kg_store, "_keep_scanning", lambda *_: scan):
            for _ in range(20):
                nodes, edges, load = drawn_graph(tmp_path, rng, source, max_nodes=50)
                graph = load()
                oracle = DistanceOracle(nodes, edges)
                vocabulary = set(rng.sample(nodes, rng.randint(1, len(nodes))))
                with _counting("_adjacency") as adjacency:
                    for radius in (0, 1, 2, 3):
                        index = build_index(graph, vocabulary, radius)
                        for x in vocabulary:
                            expected = {
                                y
                                for y in vocabulary
                                if 0 < oracle.dist(x, y) <= radius
                            }
                            assert index.neighbors(x) == expected
                if top_down:
                    assert adjacency.call_count == (not scan)
                listed = documented_adjacency("\n".join([*nodes, *map("\t".join, edges)]))
                ids = rng.sample(range(graph.num_nodes), graph.num_nodes)
                assert [(u, list(v)) for u, v in load().neighbor_lists(ids).items()] == [
                    (u, [graph.node_id(v) for v in listed[graph.name_of(u)]]) for u in ids
                ]

    def test_symmetric_closure(self, anatomy_graph):
        vocabulary = set(anatomy_graph.node_names)
        index = build_index(anatomy_graph, vocabulary, 2)
        for x in vocabulary:
            for y in index.neighbors(x):
                assert x in index.neighbors(y)


class TestBuildIndexes:
    def test_one_walk_serves_every_radius(self, chain_graph):
        """Radius r's index is the first r layers of one walk to the largest radius."""
        concepts = {"a", "b", "c", "d", "ghost"}
        with counting_graph_method("neighbor_lists") as lookups:
            indexes = build_indexes(chain_graph, concepts, [2, 0, 1])
        assert indexes == [build_index(chain_graph, concepts, r) for r in (2, 0, 1)]
        assert lookups.call_count <= 2
        assert indexes[0].neighbors("d") == {"b", "a"}
        assert indexes[2].neighbors("d") == {"b"}
        assert indexes[0].neighbors("ghost") == frozenset()

    def test_radius_zero_asks_the_graph_nothing(self, chain_graph):
        with counting_graph_method("neighbor_lists") as lookups:
            with counting_graph_method("has_node") as has_node:
                (index,) = build_indexes(chain_graph, {"a", "b", "ghost"}, [0])
        assert lookups.call_count == has_node.call_count == 0
        assert index == build_index(chain_graph, {"a", "b", "ghost"}, 0)

    def test_every_radius_is_checked(self, chain_graph):
        with pytest.raises(ConfigError):
            build_indexes(chain_graph, {"a"}, [1, -1])


class TestPersistence:
    def test_round_trip_identity(self, anatomy_graph, tmp_path):
        index = build_index(anatomy_graph, set(anatomy_graph.node_names), 2)
        path = tmp_path / "anatomy.nnidx"
        save_index(index, path)
        assert load_index(path) == index

    def test_save_load_save_is_bit_exact(self, anatomy_graph, tmp_path):
        index = build_index(anatomy_graph, set(anatomy_graph.node_names), 1)
        first = tmp_path / "a.nnidx"
        second = tmp_path / "b.nnidx"
        save_index(index, first)
        save_index(load_index(first), second)
        assert first.read_bytes() == second.read_bytes()

    def test_exact_file_format(self, tmp_path):
        graph = KnowledgeGraph.from_edges([("C0042449", "C0005847")])
        index = build_index(graph, {"C0042449", "C0005847"}, 1)
        path = tmp_path / "pair.nnidx"
        save_index(index, path)
        expected = (
            f"#nnidx v1 radius=1 checksum={graph.source_checksum}\n"
            "C0005847\tC0042449\n"
            "C0042449\tC0005847\n"
        )
        assert path.read_text(encoding="utf-8") == expected

    def test_empty_neighbor_list_keeps_tab(self, chain_graph, tmp_path):
        index = build_index(chain_graph, {"a"}, 0)
        path = tmp_path / "empty.nnidx"
        save_index(index, path)
        assert path.read_text(encoding="utf-8").splitlines()[1] == "a\t"

    def test_load_hand_written_fixture(self, tmp_path):
        path = tmp_path / "hand.nnidx"
        path.write_text(
            "#nnidx v1 radius=1 checksum=abc123\n"
            "C0005847\tC0042449\n"
            "C0042449\tC0005847\n",
            encoding="utf-8",
        )
        index = load_index(path)
        assert index.radius == 1
        assert index.source_checksum == "abc123"
        assert index.neighbors("C0042449") == {"C0005847"}

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_byte_order_mark_is_skipped(self, anatomy_graph, tmp_path, mark):
        index = build_index(anatomy_graph, set(anatomy_graph.node_names), 1)
        saved = tmp_path / "saved.nnidx"
        save_index(index, saved)
        marked = tmp_path / "marked.nnidx"
        marked.write_bytes(mark + saved.read_bytes())
        assert load_index(marked) == index

    @pytest.mark.parametrize("concept", ["a,b", "a\tb", "a\nb"])
    def test_unstorable_concept_rejected_before_writing(self, tmp_path, concept):
        graph = KnowledgeGraph.from_edges([(concept, "p"), ("q,r", "p")])
        index = build_index(graph, {concept, "p", "q,r"}, 1)
        path = tmp_path / "bad.nnidx"
        with pytest.raises(IndexFormatError) as raised:
            save_index(index, path)
        assert str(raised.value) == (
            f"cannot store concept {concept!r}: it contains a comma, tab or line break"
        )
        assert not path.exists()

    @pytest.mark.parametrize(
        "inner", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]
    )
    def test_concept_holding_a_break_that_ends_no_record_round_trips(
        self, tmp_path, inner
    ):
        concept = f"a{inner}b"
        graph = KnowledgeGraph.from_edges([(concept, "p"), ("q", "p")])
        index = build_index(graph, {concept, "p", "q"}, 2)
        path = tmp_path / "odd.nnidx"
        save_index(index, path)
        assert f"{concept}\tp,q\n" in path.read_text(encoding="utf-8")
        assert load_index(path) == index

    @pytest.mark.parametrize("end", ["\r\n", "\r"], ids=["crlf", "cr"])
    def test_other_line_ends_load_the_same_index(self, anatomy_graph, tmp_path, end):
        index = build_index(anatomy_graph, set(anatomy_graph.node_names), 1)
        path = tmp_path / "saved.nnidx"
        save_index(index, path)
        path.write_bytes(path.read_bytes().replace(b"\n", end.encode()))
        assert load_index(path) == index

    def test_version_gate_names_both_versions(self, tmp_path):
        path = tmp_path / "vnext.nnidx"
        # the version is judged before the rest of the header
        for header in ("#nnidx v2 radius=1 checksum=ff", "#nnidx v2 radius=x"):
            path.write_text(header + "\nx\t\n", encoding="utf-8")
            with pytest.raises(IndexFormatError, match="version 2.*expected 1"):
                load_index(path)

    def test_missing_checksum_rejected(self, tmp_path):
        path = tmp_path / "nochk.nnidx"
        # and a version or radius in digits other than ASCII 0-9 (full-width here)
        for header in ("#nnidx v1 radius=1", "#nnidx v\uff11 radius=1 checksum=ab",
                       "#nnidx v1 radius=\uff12 checksum=ab"):
            path.write_text(header + "\nx\t\n", encoding="utf-8")
            with pytest.raises(IndexFormatError, match="malformed index header"):
                load_index(path)

    def test_malformed_record_reports_line(self, tmp_path):
        path = tmp_path / "bad.nnidx"
        path.write_text(
            "#nnidx v1 radius=1 checksum=ff\nno-tab-here\n", encoding="utf-8"
        )
        with pytest.raises(IndexFormatError, match="line 2") as raised:
            load_index(path)
        assert raised.value.line == 2

    def test_duplicate_entry_rejected(self, tmp_path):
        path = tmp_path / "dup.nnidx"
        path.write_text(
            "#nnidx v1 radius=1 checksum=ff\na\tb\na\t\n", encoding="utf-8"
        )
        with pytest.raises(IndexFormatError, match="line 3.*duplicate"):
            load_index(path)

    def test_empty_concept_names_its_line(self, tmp_path):
        path = tmp_path / "empty.nnidx"
        path.write_text("#nnidx v1 radius=1 checksum=ff\na\t\n\tb\n", encoding="utf-8")
        with pytest.raises(IndexFormatError) as raised:
            load_index(path)
        assert str(raised.value) == "line 3: empty concept identifier"
        assert raised.value.line == 3

    def test_self_neighbor_rejected(self, tmp_path):
        path = tmp_path / "self.nnidx"
        path.write_text(
            "#nnidx v1 radius=1 checksum=ff\na\ta,b\n", encoding="utf-8"
        )
        with pytest.raises(IndexFormatError, match="itself"):
            load_index(path)

    def test_neighbor_without_entry_rejected(self, tmp_path):
        path = tmp_path / "partial.nnidx"
        path.write_text(
            "#nnidx v1 radius=1 checksum=ff\na\t\nb\tc\n", encoding="utf-8"
        )
        with pytest.raises(
            IndexFormatError, match="line 3: 'b' lists neighbor 'c', which has no entry"
        ):
            load_index(path)

    def test_one_sided_neighbor_rejected(self, tmp_path):
        path = tmp_path / "asymmetric.nnidx"
        path.write_text(
            "#nnidx v1 radius=1 checksum=ff\na\tb\nb\t\n", encoding="utf-8"
        )
        with pytest.raises(
            IndexFormatError,
            match="line 2: 'a' lists neighbor 'b', but 'b' does not list 'a' back",
        ) as raised:
            load_index(path)
        assert raised.value.line == 2

    def test_radius_zero_file_listing_a_neighbor_rejected(self, tmp_path, capsys):
        # scoring reads the lists, not the radius, so they must agree
        path = tmp_path / "r0.nnidx"
        path.write_text(
            "#nnidx v1 radius=0 checksum=ff\na\t\nb\tc\nc\tb\n", encoding="utf-8"
        )
        message = "line 3: 'b' lists neighbors, but the index radius is 0"
        with pytest.raises(IndexFormatError, match=message):
            load_index(path)
        code = main(["relevance", "b", "c", "--index", str(path), "--lambda", "0.5"])
        assert code == 2
        captured = capsys.readouterr()
        assert message in captured.err
        assert captured.out == ""

    def test_empty_file_rejected(self, tmp_path):
        path = tmp_path / "empty.nnidx"
        path.write_text("", encoding="utf-8")
        with pytest.raises(IndexFormatError, match="empty"):
            load_index(path)

    def test_loaded_index_answers_like_fresh_build(self, tmp_path):
        rng = random.Random(17)
        nodes, edges = random_graph_parts(rng, max_nodes=40)
        graph = KnowledgeGraph.from_edges(edges, nodes=nodes)
        fresh = build_index(graph, set(nodes), 2)
        path = tmp_path / "roundtrip.nnidx"
        save_index(fresh, path)
        loaded = load_index(path)
        for node in nodes:
            assert loaded.neighbors(node) == fresh.neighbors(node)


def test_neighbor_index_equality_includes_metadata():
    a = NeighborIndex(1, "aa", {"x": frozenset({"y"})})
    b = NeighborIndex(1, "aa", {"x": frozenset({"y"})})
    c = NeighborIndex(2, "aa", {"x": frozenset({"y"})})
    assert a == b
    assert a != c
