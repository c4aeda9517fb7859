from __future__ import annotations

import hashlib

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from nniou import (
    EdgeFileError,
    KnowledgeGraph,
    UnknownConceptError,
    build_index,
    edge_file_checksum,
    normalize_concept_id,
    parse_edge_file,
)

from oracles import kahn_acyclic, oracle_edge_file


def _write(tmp_path, text: str):
    path = tmp_path / "edges.tsv"
    path.write_text(text, encoding="utf-8")
    return path


class TestParseEdgeFile:
    def test_single_edge(self, tmp_path):
        graph = parse_edge_file(_write(tmp_path, "C0042449\tC0005847\n"))
        assert graph.num_nodes == 2
        assert graph.num_edges == 1
        assert graph.acyclic is True
        assert graph.edges() == [("C0042449", "C0005847")]

    def test_comments_and_blank_lines_ignored(self, tmp_path):
        graph = parse_edge_file(
            _write(tmp_path, "# header\n\n   \n# another\n# child\tparent\n\t\n  \t# x\n")
        )
        assert graph.num_nodes == 0
        assert graph.num_edges == 0
        assert graph.acyclic is True

    def test_three_cycle_loads_with_warning_state(self, tmp_path):
        graph = parse_edge_file(_write(tmp_path, "a\tb\nb\tc\nc\ta\n"))
        assert graph.acyclic is False
        assert graph.num_nodes == 3
        # witness walks each of the three edges once and closes the loop
        assert graph.cycle is not None
        assert graph.cycle[0] == graph.cycle[-1]
        assert len(graph.cycle) - 1 == 3

    def test_standalone_node_lines(self, tmp_path):
        graph = parse_edge_file(_write(tmp_path, "lonely\na\tb\n"))
        assert graph.num_nodes == 3
        assert graph.has_node("lonely")
        assert graph.neighbors("lonely") == ()

    def test_duplicate_edges_collapse(self, tmp_path):
        graph = parse_edge_file(_write(tmp_path, "a\tb\na\tb\nb\tc\n"))
        assert graph.num_edges == 2

    def test_malformed_line_reports_line_number(self, tmp_path):
        with pytest.raises(EdgeFileError, match="line 2"):
            parse_edge_file(_write(tmp_path, "a\tb\nx\ty\tz\n"))

    def test_self_loop_reports_line_number(self, tmp_path):
        with pytest.raises(EdgeFileError, match="line 3.*self-loop"):
            parse_edge_file(_write(tmp_path, "a\tb\nb\tc\nq\tq\n"))

    def test_empty_identifier_rejected(self, tmp_path):
        with pytest.raises(EdgeFileError, match="line 1"):
            parse_edge_file(_write(tmp_path, "a\t\n"))

    def test_strict_cui_accepts_canonical_ids(self, tmp_path):
        graph = parse_edge_file(
            _write(tmp_path, "C0042449\tC0005847\n"), strict_cui=True
        )
        assert graph.num_nodes == 2

    @pytest.mark.parametrize("bad", ["c0042449", "C004244", "C00424491", "V0042449"])
    def test_strict_cui_rejects_malformed_ids(self, tmp_path, bad):
        with pytest.raises(EdgeFileError, match="line 1"):
            parse_edge_file(_write(tmp_path, f"{bad}\tC0005847\n"), strict_cui=True)

    def test_parse_is_idempotent(self, tmp_path):
        path = _write(tmp_path, "b\ta\nc\tb\nlonely\n")
        g1 = parse_edge_file(path)
        g2 = parse_edge_file(path)
        assert g1.node_names == g2.node_names
        assert g1.edges() == g2.edges()
        assert g1.acyclic == g2.acyclic
        assert g1.source_checksum == g2.source_checksum

    def test_node_count_covers_every_identifier(self, tmp_path):
        graph = parse_edge_file(_write(tmp_path, "a\tb\nc\td\ne\n"))
        assert set(graph.node_names) == {"a", "b", "c", "d", "e"}

    def test_adjacency_is_symmetric(self, tmp_path):
        graph = parse_edge_file(_write(tmp_path, "a\tb\nb\tc\nc\td\na\td\n"))
        for node in graph.node_names:
            for neighbor in graph.neighbors(node):
                assert node in graph.neighbors(neighbor)

    def test_checksum_tracks_file_content(self, tmp_path):
        g1 = parse_edge_file(_write(tmp_path, "a\tb\n"))
        path2 = tmp_path / "other.tsv"
        path2.write_text("a\tc\n", encoding="utf-8")
        g2 = parse_edge_file(path2)
        assert g1.source_checksum != g2.source_checksum
        assert len(g1.source_checksum) == 64

    def test_byte_order_mark_is_not_part_of_the_first_identifier(self, tmp_path):
        text = "a\tb\nb\tc\n"
        plain = parse_edge_file(_write(tmp_path, text))
        path = tmp_path / "bom.tsv"
        path.write_bytes(b"\xef\xbb\xbf" + text.encode("utf-8"))
        marked = parse_edge_file(path)
        assert marked.node_names == plain.node_names == ("a", "b", "c")
        assert marked.edges() == plain.edges()
        for node in plain.node_names:
            assert marked.neighbors(node) == plain.neighbors(node)
        vocabulary = set(plain.node_names)
        assert build_index(marked, vocabulary, 1).entries == (
            build_index(plain, vocabulary, 1).entries
        )
        # the checksum still hashes the file's raw bytes, mark included
        assert marked.source_checksum == hashlib.sha256(path.read_bytes()).hexdigest()
        assert marked.source_checksum != plain.source_checksum


    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_streamed_checksum_equals_the_parsed_one(self, tmp_path, mark):
        """edge_file_checksum reads 64 KiB blocks; a file of several agrees with the parse."""
        text = "".join(f"C{i:07d}\tC{i // 2:07d}\n" for i in range(1, 12000))
        path = tmp_path / "large.tsv"
        path.write_bytes(mark + text.encode("utf-8"))
        assert path.stat().st_size > 3 * (1 << 16)
        checksum = edge_file_checksum(path)
        assert checksum == parse_edge_file(path).source_checksum
        assert checksum == hashlib.sha256(path.read_bytes()).hexdigest()


class TestValidateDag:
    def test_chain_is_acyclic(self):
        graph = KnowledgeGraph.from_edges([("b", "a"), ("c", "b")])
        assert (graph.acyclic, graph.cycle) == (True, None)

    def test_two_cycle_witness(self):
        graph = KnowledgeGraph.from_edges([("a", "b"), ("b", "a")])
        assert graph.acyclic is False
        assert graph.cycle == ["a", "b", "a"]

    def test_witness_against_topological_sort_oracle(self):
        edges = [("a", "b"), ("b", "c"), ("c", "a"), ("c", "d")]
        graph = KnowledgeGraph.from_edges(edges)
        acyclic, witness = graph.acyclic, graph.cycle

        # a topological order exists iff the directed edge set is acyclic
        assert kahn_acyclic(graph.node_names, edges) == acyclic
        assert acyclic is False
        # the witness must actually walk existing directed edges
        edge_set = set(edges)
        assert witness[0] == witness[-1]
        assert all(
            (witness[i], witness[i + 1]) in edge_set for i in range(len(witness) - 1)
        )


class TestConceptIds:
    def test_trimming(self):
        assert normalize_concept_id("  C0042449 ") == "C0042449"

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            normalize_concept_id("   ")

    def test_unknown_lookup_names_the_concept(self, anatomy_graph):
        with pytest.raises(UnknownConceptError, match="C9999999"):
            anatomy_graph.node_id("C9999999")

    def test_from_edges_rejects_self_loop(self):
        with pytest.raises(ValueError, match="self-loop"):
            KnowledgeGraph.from_edges([("a", "a")])


NAMES = ["a", "b", "c", "d", "e", "x y", "C0000001"]
_pad = st.sampled_from(["", " ", "  "])
_name = st.builds(lambda l, n, r: l + n + r, _pad, st.sampled_from(NAMES), _pad)
_pair = st.tuples(_name, _name).filter(lambda t: t[0].strip() != t[1].strip())
_line = st.one_of(
    st.sampled_from(["# comment", "#", "  # child\tparent", "\t# note\ta", ""]),
    st.sampled_from(["   ", "\t", " \t "]),
    _name,
    _pair.map("\t".join),
)


@st.composite
def edge_file_texts(draw):
    lines = draw(st.lists(_line, max_size=25))
    ring = draw(st.lists(st.sampled_from(NAMES), unique=True, max_size=5))
    if len(ring) >= 2:
        lines += [f"{a}\t{b}" for a, b in zip(ring, ring[1:] + ring[:1])]
    lines = draw(st.permutations(lines))
    end = draw(st.sampled_from(["\n", "\r\n"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


@settings(max_examples=300)
@given(edge_file_texts())
def test_loader_matches_dict_of_sets_oracle(tmp_path_factory, text):
    path = tmp_path_factory.mktemp("kg") / "edges.tsv"
    path.write_bytes(text.encode("utf-8"))
    graph = parse_edge_file(path)
    nodes, edges, adjacency = oracle_edge_file(text)

    assert list(graph.node_names) == nodes
    assert graph.edges() == edges
    assert (graph.num_nodes, graph.num_edges) == (len(nodes), len(edges))
    for name in nodes:
        assert graph.neighbors(name) == tuple(sorted(adjacency[name], key=nodes.index))
        assert sorted(graph.neighbor_ids(graph.node_id(name))) == sorted(
            graph.node_id(other) for other in adjacency[name]
        )
    assert graph.acyclic == kahn_acyclic(nodes, edges)
    if graph.acyclic:
        assert graph.cycle is None
    else:
        cycle = graph.cycle
        assert len(cycle) >= 3 and cycle[0] == cycle[-1]
        assert all(pair in edges for pair in zip(cycle, cycle[1:]))

    in_memory = KnowledgeGraph.from_edges(edges, nodes=nodes)
    assert in_memory.node_names == graph.node_names
    assert in_memory.edges() == graph.edges()
    assert all(in_memory.neighbors(name) == graph.neighbors(name) for name in nodes)
    assert (in_memory.acyclic, in_memory.cycle) == (graph.acyclic, graph.cycle)
