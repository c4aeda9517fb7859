from __future__ import annotations

import hashlib
import sys
import threading
from concurrent.futures import ThreadPoolExecutor
from unittest import mock

import pytest
from hypothesis import event, given, settings
from hypothesis import strategies as st

from nniou import (
    EdgeFileError,
    KnowledgeGraph,
    UnknownConceptError,
    build_index,
    edge_file_checksum,
    kg_store,
    normalize_concept_id,
    parse_edge_file,
)
from nniou.distance import bounded_neighborhood

from oracles import kahn_acyclic, oracle_edge_file, top_down, witness_cycle
from synthdata import EDGE_ORDERS, write_edge_file


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

    @pytest.mark.parametrize("inner", ["\v", "\f", "\x1c", "\x1d", "\x1e", "\x85",
                                       "\u2028", "\u2029"])
    def test_records_end_only_at_newlines(self, tmp_path, inner):
        """``str.splitlines`` would split here, making node C1 and edge C9 -> C2."""
        graph = parse_edge_file(_write(tmp_path, f"C1{inner}C9\tC2\r\nC3\tC4\rC5\n"))
        assert graph.edges() == [(f"C1{inner}C9", "C2"), ("C3", "C4")]
        assert graph.node_names == (f"C1{inner}C9", "C2", "C3", "C4", "C5")
        with pytest.raises(EdgeFileError, match="line 2"):
            parse_edge_file(_write(tmp_path, f"C1{inner}C9\tC2\nx\ty\tz\n"))

    def test_records_span_the_split_slices(self, tmp_path):
        """The file is decoded 8 KiB at a time; no record or line number may shift."""
        ends = ["\n", "\r\n", "\r"]
        names = [f"n{i}" + "x" * (i % 13) for i in range(20_000)]
        pairs = list(zip(names[1:], names))
        body = "".join(f"{c}\t{p}{ends[i % 3]}" for i, (c, p) in enumerate(pairs))
        # a comment line sized so that one \r\n straddles a read boundary
        boundary = 5 * 8192
        comment = "#" * (boundary - 2 - body.index("\r\n", 4 * 8192)) + "\n"
        text = comment + body
        assert text[boundary - 1:boundary + 1] == "\r\n"
        assert len(text) > 30 * 8192
        graph = parse_edge_file(_write(tmp_path, text))
        assert graph.node_names == (names[1], names[0], *names[2:])
        assert graph.edges() == pairs
        bad = len(pairs) + 2
        with pytest.raises(EdgeFileError, match=f"line {bad}:"):
            parse_edge_file(_write(tmp_path, text + "x\ty\tz\n"))

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


# "x\u2028y": str.splitlines would end a line inside it, the loader must not
NAMES = ["a", "b", "c", "d", "e", "x y", "x\u2028y", "C0000001"]
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
    end = draw(st.sampled_from(["\n", "\r\n", "\r"]))
    return end.join(lines) + draw(st.sampled_from(["", end]))


def _counting(name):
    """Patch a kg_store function with a wrapper that counts its calls."""
    return mock.patch.object(kg_store, name, wraps=getattr(kg_store, name))


@settings(max_examples=300)
@given(
    st.one_of(
        edge_file_texts(),
        # (seed, order, nodes) for the seeded writer
        st.tuples(
            st.integers(0, 2**16), st.sampled_from(EDGE_ORDERS), st.integers(2, 40)
        ),
    )
)
def test_loader_matches_dict_of_sets_oracle(tmp_path_factory, drawn):
    """Kahn's peel runs exactly on the files that are not top-down; either way
    the verdict is Kahn's and the witness follows the documented rule."""
    path = tmp_path_factory.mktemp("kg") / "edges.tsv"
    if isinstance(drawn, str):
        path.write_bytes(drawn.encode("utf-8"))
    else:
        write_edge_file(path, *drawn)
    text = path.read_bytes().decode("utf-8")
    with _counting("_kahn") as kahn:
        graph = parse_edge_file(path)
    event(f"Kahn's peel ran: {kahn.call_count == 1}")
    assert kahn.call_count == (0 if top_down(text) else 1)
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
    assert graph.cycle == witness_cycle(nodes, edges)
    if not graph.acyclic:
        cycle = graph.cycle
        assert len(cycle) >= 3 and cycle[0] == cycle[-1]
        assert all(pair in edges for pair in zip(cycle, cycle[1:]))

    in_memory = KnowledgeGraph.from_edges(edges, nodes=nodes)
    assert in_memory.node_names == graph.node_names
    assert in_memory.edges() == graph.edges()
    assert all(in_memory.neighbors(name) == graph.neighbors(name) for name in nodes)
    assert (in_memory.acyclic, in_memory.cycle) == (graph.acyclic, graph.cycle)


class TestAcyclicityPath:
    @pytest.mark.parametrize(
        "text, peeled, cycle",
        [
            ("b\ta\nc\ta\nc\tb\n", True, None),
            ("c\tx\np\tc\nc\tp\n", True, ["c", "p", "c"]),
            ("b\nb\ta\n", True, None),
            ("lonely\nb\ta\nc\tb\n", False, None),
        ],
        ids=["second-parent", "cycle-after-fresh-records", "node-line-then-child",
             "node-line-never-child"],
    )
    def test_fixed_files(self, tmp_path, text, peeled, cycle):
        path = _write(tmp_path, text)
        with _counting("_kahn") as kahn:
            graph = parse_edge_file(path)
        assert kahn.call_count == peeled
        assert (graph.acyclic, graph.cycle) == (cycle is None, cycle)
        nodes, edges, _ = oracle_edge_file(text)
        assert graph.cycle == witness_cycle(nodes, edges)

    @pytest.mark.parametrize("order", EDGE_ORDERS)
    def test_written_orders(self, tmp_path, order):
        path = tmp_path / "kg.tsv"
        edges = write_edge_file(path, seed=3, order=order, num_nodes=300)
        with _counting("_kahn") as kahn:
            graph = parse_edge_file(path)
        assert kahn.call_count == (order != "parents-first")
        assert (graph.acyclic, graph.cycle) == (True, None)
        assert graph.edges() == edges

    @pytest.mark.parametrize("nodes, peeled", [(["a"], False), (["b"], True)])
    def test_from_edges_with_nodes(self, nodes, peeled):
        """Nodes come before the edges: one that is later a child sends the graph to Kahn."""
        with _counting("_kahn") as kahn:
            graph = KnowledgeGraph.from_edges([("b", "a")], nodes=nodes)
        assert kahn.call_count == peeled
        assert (graph.acyclic, graph.cycle) == (True, None)
        assert graph.neighbors("a") == ("b",)


class TestLazyAdjacency:
    @pytest.mark.parametrize("order", EDGE_ORDERS)
    def test_neighbors_match_the_documented_order(self, tmp_path, order):
        path = tmp_path / "kg.tsv"
        write_edge_file(path, seed=8, order=order, num_nodes=200)
        with _counting("_adjacency") as adjacency:
            graph = parse_edge_file(path)
            built_at_load = adjacency.call_count
            ids = [(graph.node_id(c), graph.node_id(p)) for c, p in graph.edges()]
            for u in range(graph.num_nodes):
                assert list(graph.neighbor_ids(u)) == (
                    [p for c, p in ids if c == u] + [c for c, p in ids if p == u]
                )
        assert (built_at_load, adjacency.call_count) == (
            (0, 1) if order == "parents-first" else (1, 1)
        )
        _, _, oracle = oracle_edge_file(path.read_text(encoding="utf-8"))
        for name in graph.node_names:
            assert graph.neighbors(name) == tuple(sorted(oracle[name], key=graph.node_id))

    def test_a_loop_of_single_walks_builds_the_view_once(self, tmp_path):
        """Past _SCANS scans a top-down graph stops scanning and builds its view."""
        path = tmp_path / "kg.tsv"
        write_edge_file(path, seed=4, order="parents-first", num_nodes=2000)
        graph = parse_edge_file(path)
        names = graph.node_names[:3 * kg_store._SCANS]
        scan = mock.patch.object(
            KnowledgeGraph, "_scan", autospec=True, side_effect=KnowledgeGraph._scan
        )
        with _counting("_adjacency") as adjacency, scan as scans:
            walked = [bounded_neighborhood(graph, name, 1) for name in names]
        assert (scans.call_count, adjacency.call_count) == (kg_store._SCANS, 1)
        assert walked == [set(graph.neighbors(name)) for name in names]

    def test_threads_walking_a_fresh_graph_agree(self, tmp_path):
        path = tmp_path / "kg.tsv"
        write_edge_file(path, seed=5, order="parents-first", num_nodes=3000)
        names = parse_edge_file(path).node_names[::25]
        expected = [bounded_neighborhood(parse_edge_file(path), n, 2) for n in names]
        graph = parse_edge_file(path)
        start = threading.Barrier(4)

        def walk(_):
            start.wait(timeout=30)
            return [bounded_neighborhood(graph, n, 2) for n in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(walk, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        assert all(result == expected for result in results)
