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
from nniou import bounded_neighborhood, shortest_path_len

from oracles import (
    DistanceOracle,
    documented_adjacency,
    kahn_acyclic,
    oracle_edge_file,
    top_down,
    witness_cycle,
)
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

    @pytest.mark.parametrize("mark", ["", "\ufeff"], ids=["plain", "bom"])
    @pytest.mark.parametrize("end", ["\n", "\r\n", "\r"], ids=["lf", "crlf", "cr"])
    @pytest.mark.parametrize(
        "skipped", ["# c", "\t# note", "", "   ", "C0000009"],
        ids=["comment", "tab-comment", "blank", "whitespace", "bare-node"],
    )
    @pytest.mark.parametrize(
        "bad, strict, message",
        [
            ("C0000003\tC0000001\tC0000002", False,
             "expected 1 or 2 tab-separated fields, got 3"),
            ("C0000003\tC0000003", False, "self-loop edge 'C0000003'"),
            ("C0000003\t", False, "empty concept identifier"),
            ("C0000003\tX1", True,
             "invalid CUI 'X1': expected the letter 'C' followed by seven digits"),
            ("C0000003\tC\uff11\uff12\uff13\uff14\uff15\uff16\uff17", True,
             "invalid CUI 'C\uff11\uff12\uff13\uff14\uff15\uff16\uff17': "
             "expected the letter 'C' followed by seven digits"),
        ],
        ids=["three-fields", "self-loop", "empty-parent", "strict-cui", "strict-cui-fullwidth"],
    )
    def test_bad_records_after_skipped_lines_name_their_line(
        self, tmp_path, mark, end, skipped, bad, strict, message
    ):
        """Lines that hold no edge still count, whatever ends them."""
        lines = [skipped, "C0000002\tC0000001", skipped, skipped, bad, "C0000004\tC0000001"]
        path = tmp_path / "edges.tsv"
        path.write_bytes((mark + end.join(lines) + end).encode("utf-8"))
        with pytest.raises(EdgeFileError) as caught:
            parse_edge_file(path, strict_cui=strict)
        assert caught.value.line == 5
        assert str(caught.value) == f"line 5: {message}"

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

    @pytest.mark.parametrize("bad", [
        "c0042449", "C004244", "C00424491", "V0042449",
        "C\u0660\u0660\u0664\u0662\u0664\u0664\u0669",  # Arabic-Indic digits
    ])
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


class TestFromEdges:
    """In-memory records follow the identifier rules, not the file syntax."""

    def test_hash_led_children_and_nodes_are_concepts(self):
        graph = KnowledgeGraph.from_edges([("#a", "b"), ("  #c ", "#a")], nodes=["#n", " # m"])
        assert graph.node_names == ("#n", "# m", "#a", "b", "#c")
        assert graph.edges() == [("#a", "b"), ("#c", "#a")]

    def test_surrounding_tabs_and_line_breaks_are_trimmed(self):
        graph = KnowledgeGraph.from_edges(
            [("\ta\r\n", "c\t"), ("e", " a\n")], nodes=["\rx", "\tz"]
        )
        assert graph.node_names == ("x", "z", "a", "c", "e")
        assert graph.edges() == [("a", "c"), ("e", "a")]

    @pytest.mark.parametrize("sep", ["\t", "\n", "\r"], ids=["tab", "lf", "cr"])
    @pytest.mark.parametrize("where", ["child", "parent", "node"])
    def test_an_identifier_holding_a_separator_raises(self, where, sep):
        """An edge file could not hold it: a tab splits fields and a break ends the record."""
        bad = f" b{sep}c "
        edges, nodes = {
            "child": ([("a", "d"), (bad, "a")], ["n"]),
            "parent": ([("a", "d"), ("a", bad)], ["n"]),
            "node": ([("a", "d")], ["n", bad]),
        }[where]
        with pytest.raises(ValueError) as caught:
            KnowledgeGraph.from_edges(edges, nodes=nodes)
        assert type(caught.value) is ValueError
        assert str(caught.value) == f"identifier {f'b{sep}c'!r} contains a tab or line break"

    @pytest.mark.parametrize(
        "edges, nodes, message",
        [
            ([("", "b")], (), "empty concept identifier"),
            ([("a", "")], (), "empty concept identifier"),
            ([("a", " \t ")], (), "empty concept identifier"),
            ([("\t", "b")], (), "empty concept identifier"),
            ([("a", "b")], [""], "empty concept identifier"),
            ([("a", "b")], ["  "], "empty concept identifier"),
            ([("a", "b"), ("c", "c")], (), "self-loop edge 'c'"),
            ([(" c", "c\t")], ["c"], "self-loop edge 'c'"),
            ([("#c", "#c")], (), "self-loop edge '#c'"),
        ],
    )
    def test_empty_identifiers_and_self_loops_raise_without_a_line(self, edges, nodes, message):
        with pytest.raises(ValueError) as caught:
            KnowledgeGraph.from_edges(edges, nodes=nodes)
        assert type(caught.value) is ValueError
        assert str(caught.value) == message

    @pytest.mark.parametrize(
        "edges, shown",
        [
            ([("b", "a")], "KnowledgeGraph(nodes=2, edges=1, acyclic=True)"),
            ([("a", "b"), ("b", "a")], "KnowledgeGraph(nodes=2, edges=2, acyclic=False)"),
        ],
    )
    def test_repr(self, edges, shown):
        assert repr(KnowledgeGraph.from_edges(edges, nodes=["a"])) == shown


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


def _counting_scans():
    """Patch KnowledgeGraph._scan with a wrapper that counts its calls."""
    return mock.patch.object(
        KnowledgeGraph, "_scan", autospec=True, side_effect=KnowledgeGraph._scan
    )


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
    listed = documented_adjacency(text)

    assert list(graph.node_names) == nodes
    assert graph.edges() == edges
    assert (graph.num_nodes, graph.num_edges) == (len(nodes), len(edges))
    for name in nodes:
        assert graph.neighbors(name) == tuple(sorted(adjacency[name], key=nodes.index))
        u = graph.node_id(name)
        assert list(graph.neighbor_lists([u])[u]) == [graph.node_id(v) for v in listed[name]]
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
        listed = documented_adjacency(path.read_text(encoding="utf-8"))
        with _counting("_adjacency") as adjacency:
            graph = parse_edge_file(path)
            built_at_load = adjacency.call_count
            for name in graph.node_names:
                u = graph.node_id(name)
                assert list(graph.neighbor_lists([u])[u]) == (
                    [graph.node_id(v) for v in listed[name]]
                )
        assert (built_at_load, adjacency.call_count) == (
            (0, 1) if order == "parents-first" else (1, 1)
        )
        for name in graph.node_names:
            assert graph.neighbors(name) == tuple(sorted(listed[name], key=graph.node_id))

    def test_a_loop_of_single_walks_builds_the_view_once(self, tmp_path):
        """Past _SCANS scans a top-down graph stops scanning and builds its view."""
        path = tmp_path / "kg.tsv"
        write_edge_file(path, seed=4, order="parents-first", num_nodes=2000)
        graph = parse_edge_file(path)
        names = graph.node_names[:3 * kg_store._SCANS]
        with _counting("_adjacency") as adjacency, _counting_scans() as scans:
            walked = [bounded_neighborhood(graph, name, 1) for name in names]
        assert (scans.call_count, adjacency.call_count) == (kg_store._SCANS, 1)
        assert walked == [set(graph.neighbors(name)) for name in names]

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_a_batch_of_a_tenth_of_the_nodes_builds_the_view_at_once(self, tmp_path, extra):
        """The scans' id cap: a first batch of num_nodes / _SCANS ids or more
        builds the view without a scan, and one id fewer scans once."""
        path = tmp_path / "kg.tsv"
        write_edge_file(path, seed=4, order="parents-first", num_nodes=2000)
        listed = documented_adjacency(path.read_text(encoding="utf-8"))
        graph = parse_edge_file(path)
        assert graph.num_nodes % kg_store._SCANS == 0
        ids = range(graph.num_nodes // kg_store._SCANS + extra)
        with _counting("_adjacency") as adjacency, _counting_scans() as scans:
            lists = graph.neighbor_lists(ids)
        assert (scans.call_count, adjacency.call_count) == ((1, 0) if extra < 0 else (0, 1))
        assert {u: list(lists[u]) for u in ids} == {
            u: [graph.node_id(v) for v in listed[graph.name_of(u)]] for u in ids
        }

    @pytest.mark.parametrize("walk", ["shortest_path_len", "bounded_neighborhood"])
    def test_one_walk_builds_the_view_partway_through(self, tmp_path, walk):
        """A walk along a chain outlasts the _SCANS scans well before their id
        cap, so it builds the view on its next hop and walks on through it."""
        names = [f"C{i:07d}" for i in range(500)]
        edges = list(zip(names[1:], names))  # each record names a fresh child
        path = _write(tmp_path, "".join(f"{c}\t{p}\n" for c, p in edges))
        oracle = DistanceOracle(names, edges)
        end, radius = names[-1], 3 * kg_store._SCANS
        with _counting("_adjacency") as adjacency, _counting_scans() as scans:
            graph = parse_edge_file(path)
            if walk == "shortest_path_len":
                assert shortest_path_len(graph, end, names[0]) == oracle.dist(end, names[0])
            else:
                assert bounded_neighborhood(graph, end, radius) == {
                    y for y in names if 0 < oracle.dist(end, y) <= radius
                }
        assert (scans.call_count, adjacency.call_count) == (kg_store._SCANS, 1)

    @pytest.mark.parametrize("hops", [1, 2, 3])
    def test_a_short_walk_scans_once_per_hop(self, tmp_path, hops):
        path = tmp_path / "kg.tsv"
        edges = write_edge_file(path, seed=4, order="parents-first", num_nodes=2000)
        parent = dict(edges)
        up = [edges[-1][0]]
        while len(up) <= hops:
            up.append(parent[up[-1]])
        with _counting("_adjacency") as adjacency, _counting_scans() as scans:
            assert shortest_path_len(parse_edge_file(path), up[0], up[-1]) == hops
        assert (scans.call_count, adjacency.call_count) == (hops, 0)
        with _counting("_adjacency") as adjacency, _counting_scans() as scans:
            graph = parse_edge_file(path)
            assert set(graph.neighbors(up[0])) == (
                {parent[up[0]]} | {c for c, p in edges if p == up[0]}
            )
        assert (scans.call_count, adjacency.call_count) == (1, 0)

    def test_threads_walking_a_fresh_graph_agree(self, tmp_path):
        """Bounded walks, distances and neighbor lookups share one graph's scan
        counts and its lazily built view."""
        path = tmp_path / "kg.tsv"
        write_edge_file(path, seed=5, order="parents-first", num_nodes=3000)
        names = parse_edge_file(path).node_names[::25]
        pairs = list(zip(names[::2], names[1::2]))
        reference = parse_edge_file(path)
        expected = (
            [bounded_neighborhood(parse_edge_file(path), n, 2) for n in names],
            [shortest_path_len(reference, x, y) for x, y in pairs],
            [reference.neighbors(n) for n in names],
        )
        graph = parse_edge_file(path)
        start = threading.Barrier(4)

        def walk(_):
            start.wait(timeout=30)
            return (
                [bounded_neighborhood(graph, n, 2) for n in names],
                [shortest_path_len(graph, x, y) for x, y in pairs],
                [graph.neighbors(n) for n in names],
            )

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            with ThreadPoolExecutor(4) as pool:
                results = list(pool.map(walk, range(4), timeout=120))
        finally:
            sys.setswitchinterval(interval)
        assert len(results) == 4
        assert all(result == expected for result in results)
