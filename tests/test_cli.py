from __future__ import annotations

import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path
from unittest import mock

import pytest

import nniou
from nniou import (
    ConfigError,
    DataFileError,
    EdgeFileError,
    IndexFormatError,
    RankingRun,
    derive_labels,
    kg_store,
    load_index,
    precision_at_k,
    read_class_map,
    read_corpus,
    read_runs,
    write_runs,
)
from nniou.cli import AblationGrid, main
from nniou.scoring import ScoringCore

from synthdata import planted_cluster_corpus, write_edge_file, write_fixture_files

INDEX_ERROR = (
    "configuration error: a neighbor index is required when lambda > 0 "
    "(build one with 'nniou build-index')\n"
)


@pytest.fixture()
def workspace(tmp_path):
    _, docs, class_map, edge_lines = planted_cluster_corpus(docs_per_cluster=8)
    edges, corpus, cmap = write_fixture_files(tmp_path, docs, class_map, edge_lines)
    return tmp_path, edges, corpus, cmap


def _run_cli(argv, **env):
    """``python -m nniou.cli`` with ``argv`` in a subprocess, ``env`` added to
    this one's environment; its output is kept as bytes."""
    # the package this process imported, whether its directory came from
    # PYTHONPATH or from sys.path
    path = os.pathsep.join(filter(None, [str(Path(nniou.__file__).parents[1]),
                                         os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-m", "nniou.cli", *argv], capture_output=True,
                          env={**os.environ, "PYTHONPATH": path, **env})


def _blank_lines(size: int, end: bytes) -> tuple[bytes, int]:
    """Whitespace lines ending in ``end``, ``size`` (64 or more) bytes in all, and their count."""
    count = size // 64
    last = size - 64 * (count - 1)
    return (b" " * (64 - len(end)) + end) * (count - 1) + b" " * (last - len(end)) + end, count


def _with_site_category(cmap):
    """The class map plus a second category, ``site``, over the noise concepts.

    A document holding noise concepts from both groups gets no site label.
    """
    payload = json.loads(cmap.read_text(encoding="utf-8"))
    payload["site"] = {"upper": [f"C00001{i:02d}" for i in range(1, 5)],
                       "lower": [f"C00001{i:02d}" for i in range(5, 9)]}
    path = cmap.with_name("two-categories.json")
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


# the four documents holding noise from both site groups get no site label
SITE_EXCLUSIONS = ("warning: 4 query(s) excluded from a report, e.g. 'ct000' from "
                   "Precision@5[site]: missing label(s): site\n")


def _with_unused_category(cmap):
    """The class map plus a category whose only concept no document carries."""
    payload = json.loads(cmap.read_text(encoding="utf-8"))
    payload["organ"] = {"liver": ["not-in-the-corpus"]}
    path = cmap.with_name("unused-category.json")
    path.write_text(json.dumps(payload), encoding="utf-8")
    return path


class TestBuildIndex:
    def test_two_node_fixture(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("C0042449\tC0005847\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "a", "cuis": ["C0042449"]}\n{"id": "b", "cuis": ["C0005847"]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "pair.nnidx"
        code = main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", "1", "--out", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out
        assert "nodes=2" in printed and "edges=1" in printed and "entries=2" in printed
        assert "seconds=" in printed
        index = load_index(out)
        assert index.neighbors("C0042449") == {"C0005847"}
        assert index.neighbors("C0005847") == {"C0042449"}

    def test_radius_zero_all_entries_empty(self, workspace):
        tmp_path, edges, corpus, _ = workspace
        out = tmp_path / "r0.nnidx"
        assert main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", "0", "--out", str(out)]
        ) == 0
        index = load_index(out)
        assert len(index) > 0
        assert all(not n for n in index.entries.values())

    def test_concept_missing_from_graph_warns_but_indexes(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tb\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d", "cuis": ["a", "ghost"]}\n', encoding="utf-8")
        out = tmp_path / "out.nnidx"
        assert main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", "1", "--out", str(out)]
        ) == 0
        assert "1 corpus concept(s) absent from the graph, e.g. 'ghost'" in (
            capsys.readouterr().err
        )
        index = load_index(out)
        assert "ghost" in index
        assert index.neighbors("ghost") == frozenset()

    def test_cyclic_edges_warn(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tb\nb\ta\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d", "cuis": ["a"]}\n', encoding="utf-8")
        out = tmp_path / "out.nnidx"
        assert main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", "1", "--out", str(out)]
        ) == 0
        assert "cycle" in capsys.readouterr().err

    def test_long_cycle_warning_gives_length_and_short_example(self, tmp_path, capsys):
        ring = [f"r{i:03d}" for i in range(1000)]
        edges = tmp_path / "ring.tsv"
        edges.write_text(
            "".join(f"{a}\t{b}\n" for a, b in zip(ring, ring[1:] + ring[:1])),
            encoding="utf-8",
        )
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d", "cuis": ["r000"]}\n', encoding="utf-8")
        assert main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", "1", "--out", str(tmp_path / "out.nnidx")]
        ) == 0
        warnings = [
            line for line in capsys.readouterr().err.splitlines() if "cycle" in line
        ]
        assert len(warnings) == 1
        assert len(warnings[0].encode("utf-8")) < 200
        assert "1000" in warnings[0] and "..." in warnings[0]

    def test_concept_with_comma_exits_two_naming_the_line(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a,b\tx\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "d", "cuis": ["x"]}\n{"id": "e", "cuis": ["a,b"]}\n',
            encoding="utf-8",
        )
        out = tmp_path / "out.nnidx"
        code = main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", "1", "--out", str(out)]
        )
        assert code == 2
        assert "line 2: concept 'a,b'" in capsys.readouterr().err
        assert not out.exists()

    def test_negative_radius_rejected_before_the_graph_is_read(self, workspace, capsys):
        tmp_path, _, corpus, _ = workspace
        out = tmp_path / "x.nnidx"
        code = main(["build-index", "--edges", str(tmp_path / "missing.tsv"),
                     "--corpus", str(corpus), "--n", "-1", "--out", str(out)])
        assert code == 1
        assert capsys.readouterr().err == (
            "configuration error: radius must be >= 0, got -1\n"
        )
        assert not out.exists()

    def test_parse_error_exits_two(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tb\tc\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d", "cuis": []}\n', encoding="utf-8")
        code = main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", "1", "--out", str(tmp_path / "x.nnidx")]
        )
        assert code == 2
        assert "line 1" in capsys.readouterr().err


class TestGraphLoad:
    """A top-down edge file builds its undirected view only when scanning costs more."""

    @staticmethod
    def _write(tmp_path, order, num_nodes):
        edges = tmp_path / "kg.tsv"
        records = write_edge_file(edges, seed=11, order=order, num_nodes=num_nodes)
        names = sorted({name for record in records for name in record})
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            "".join(
                json.dumps({"id": f"d{i:02d}", "cuis": names[i:i + 3]}) + "\n"
                for i in range(0, 57, 3)
            ),
            encoding="utf-8",
        )
        cmap = tmp_path / "classes.json"
        cmap.write_text(json.dumps({"half": {"low": names[:30], "high": names[30:]}}),
                        encoding="utf-8")
        return tmp_path, edges, corpus, cmap

    @pytest.fixture()
    def files(self, tmp_path):
        return self._write(tmp_path, "parents-first", 60)

    @staticmethod
    def _counting(name):
        return mock.patch.object(kg_store, name, wraps=getattr(kg_store, name))

    def test_radius_zero_ablate_neither_peels_nor_builds_the_view(self, files, capsys):
        tmp_path, edges, corpus, cmap = files
        with self._counting("_adjacency") as adjacency, self._counting("_kahn") as kahn:
            assert main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                         "--class-map", str(cmap), "--lambdas", "0.5",
                         "--radii", "0", "--ks", "5"]) == 0
        assert (adjacency.call_count, kahn.call_count) == (0, 0)
        assert capsys.readouterr().out.startswith("n,lambda,k,precision\n0,")

    @pytest.mark.parametrize("order, calls", [("parents-first", (0, 0)), ("shuffled", (1, 1))])
    def test_build_index_scans_a_top_down_file(self, tmp_path, order, calls):
        """57 corpus concepts of 1,000 nodes: the top-down file is scanned, never viewed."""
        tmp_path, edges, corpus, cmap = self._write(tmp_path, order, 1000)
        out = tmp_path / "kg.nnidx"
        with self._counting("_adjacency") as adjacency, self._counting("_kahn") as kahn:
            assert main(["build-index", "--edges", str(edges), "--corpus", str(corpus),
                         "--n", "1", "--out", str(out)]) == 0
        assert (adjacency.call_count, kahn.call_count) == calls
        assert any(load_index(out).entries.values())


class TestRelevance:
    def test_prints_six_digit_scores(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("x\tz\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d", "cuis": ["x", "y", "z"]}\n', encoding="utf-8")
        out = tmp_path / "idx.nnidx"
        main(["build-index", "--edges", str(edges), "--corpus", str(corpus),
              "--n", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["relevance", "x,y", "y,z", "--index", str(out), "--lambda", "0.5"]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed[0] == "iou=0.333333"
        assert printed[1] == "nniou=0.666667"

    def test_document_id_resolution(self, workspace, capsys):
        tmp_path, edges, corpus, _ = workspace
        out = tmp_path / "idx.nnidx"
        main(["build-index", "--edges", str(edges), "--corpus", str(corpus),
              "--n", "1", "--out", str(out)])
        capsys.readouterr()
        code = main(
            ["relevance", "ct000", "ct000", "--corpus", str(corpus),
             "--index", str(out)]
        )
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["iou=1.000000", "nniou=1.000000"]

    def test_missing_index_with_positive_lambda_is_usage_error(self, capsys):
        code = main(["relevance", "a,b", "c,d", "--lambda", "0.5"])
        assert code == 1
        assert "index" in capsys.readouterr().err

    def test_lambda_zero_needs_no_index(self, capsys):
        code = main(["relevance", "a,b", "b,c", "--lambda", "0"])
        assert code == 0
        printed = capsys.readouterr().out.splitlines()
        assert printed == ["iou=0.333333", "nniou=0.333333"]


class TestRetrieveAndEval:
    def _build(self, workspace, radius=1):
        tmp_path, edges, corpus, cmap = workspace
        index = tmp_path / f"idx{radius}.nnidx"
        assert main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", str(radius), "--out", str(index)]
        ) == 0
        return tmp_path, edges, corpus, cmap, index

    def test_iou_and_lambda_zero_nniou_runs_byte_identical(self, workspace):
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        a = tmp_path / "iou.runs"
        b = tmp_path / "nn0.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "5", "--out", str(a)]) == 0
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "nniou",
                     "--lambda", "0", "--k", "5", "--out", str(b)]) == 0
        assert a.read_bytes() == b.read_bytes()

    def test_retrieve_then_eval_closure_scores_one(self, workspace):
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "self.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                     "--measure", "nniou", "--lambda", "0.5", "--k", "15",
                     "--out", str(runs)]) == 0
        report_path = tmp_path / "report.json"
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--index", str(index), "--measure", "nniou",
                     "--lambda", "0.5", "--k", "15",
                     "--out", str(report_path)]) == 0
        payload = json.loads(report_path.read_text(encoding="utf-8"))
        ndcg_report = payload["reports"][0]
        assert ndcg_report["aggregate"] == 1.0
        assert ndcg_report["metric"] == "nn-CUI@15"

    def test_eval_emits_precision_reports_with_class_map(self, workspace, capsys):
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "r.runs"
        main(["retrieve", "--corpus", str(corpus), "--index", str(index),
              "--measure", "nniou", "--lambda", "0.5", "--k", "5", "--out", str(runs)])
        capsys.readouterr()
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--index", str(index), "--k", "5",
                     "--class-map", str(cmap)]) == 0
        payload = json.loads(capsys.readouterr().out)
        metrics = [r["metric"] for r in payload["reports"]]
        assert metrics == ["nn-CUI@5", "Precision@5[modality]"]

    def test_eval_csv_format(self, workspace, capsys):
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "r.runs"
        main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
              "--k", "3", "--out", str(runs)])
        capsys.readouterr()
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "3", "--format", "csv"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "metric,query_id,score"
        assert lines[1].startswith("CUI@3,ct000,")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_eval_warns_once_about_exclusions_and_padded_runs(self, tmp_path, capsys, fmt):
        """Four documents and one 1-id run at k=3: three queries have no run and
        the one run is padded.  Each kind is one warning with a count and an
        example, in either format; a full set of runs gives none."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text("".join(json.dumps({"id": i, "cuis": c}) + "\n" for i, c in (
            ("a", ["C1"]), ("b", ["C1", "C2"]), ("c", ["C2"]), ("d", ["C3"]))), encoding="utf-8")
        runs = tmp_path / "r.runs"
        write_runs([RankingRun("a", ["b"])], runs)
        argv = ["eval", "--corpus", str(corpus), "--runs", str(runs), "--measure", "iou",
                "--k", "3", "--format", fmt]
        assert main(argv) == 0
        out, err = capsys.readouterr()
        assert err == (
            "warning: 3 query(s) excluded from a report, e.g. 'b' from CUI@3: "
            "no run provided\n"
            "warning: 1 run(s) shorter than k=3 padded with zero relevance, "
            "e.g. 'a' with 1 result(s)\n"
        )
        if fmt == "csv":
            assert out == "metric,query_id,score\nCUI@3,a,1.000000\n"
        else:
            (report,) = json.loads(out)["reports"]
            assert [e["query_id"] for e in report["exclusions"]] == ["b", "c", "d"]
            assert report["notes"] == ["query a: run returned 1 of k=3 results; "
                                       "missing positions padded with zero relevance"]
        write_runs([RankingRun(q, [d for d in "abcd" if d != q]) for q in "abcd"], runs)
        assert main(argv) == 0
        assert capsys.readouterr().err == ""

    def test_eval_rejects_a_query_run_twice_naming_both_lines(self, tmp_path, capsys):
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a", "cuis": ["C1"]}\n{"id": "b", "cuis": ["C1"]}\n',
                          encoding="utf-8")
        runs = tmp_path / "r.runs"
        runs.write_text('{"query": "a", "ranked": ["b"]}\n{"query": "b", "ranked": []}\n'
                        '{"query": "a", "ranked": []}\n', encoding="utf-8")
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "1"]) == 2
        assert capsys.readouterr() == (
            "", "error: line 3: duplicate query 'a' (first seen on line 1)\n")

    @pytest.mark.parametrize("fmt", ["json", "csv"])
    def test_eval_writes_stdout_in_the_bytes_of_out_whatever_its_encoding(self, tmp_path,
                                                                        fmt):
        """An id latin-1 cannot encode reaches a latin-1 stdout as UTF-8."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "\u6587", "cuis": ["C1"]}\n{"id": "b", "cuis": ["C1"]}\n',
                          encoding="utf-8")
        runs = tmp_path / "r.runs"
        write_runs([RankingRun("\u6587", ["b"]), RankingRun("b", ["\u6587"])], runs)
        out = tmp_path / "report.out"
        argv = ["eval", "--corpus", str(corpus), "--runs", str(runs), "--measure", "iou",
                "--k", "1", "--format", fmt]
        assert main([*argv, "--out", str(out)]) == 0
        assert "\u6587" in out.read_text(encoding="utf-8")
        result = _run_cli(argv, PYTHONIOENCODING="latin-1")
        assert (result.returncode, result.stderr) == (0, b"")
        assert result.stdout == out.read_bytes()

    def test_eval_counts_each_excluded_query_once_across_reports(self, workspace, capsys):
        """A query without a run is excluded from nn-CUI@K and from Precision@K:
        one query, one warning, and its example from the first report."""
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "r.runs"
        docs = read_corpus(corpus)
        write_runs([RankingRun(d.id, [o.id for o in docs if o is not d][:5]) for d in docs[1:]],
                   runs)
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs), "--index", str(index),
                     "--k", "5", "--class-map", str(cmap), "--format", "csv"]) == 0
        assert capsys.readouterr().err == (
            f"warning: 1 query(s) excluded from a report, e.g. {docs[0].id!r} from nn-CUI@5: "
            "no run provided\n"
        )

    def test_an_id_holding_u2028_round_trips_retrieve_then_eval(self, tmp_path, capsys):
        """Runs are written with the raw U+2028, which ends no record on reading."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a\\u2028b", "cuis": ["x"]}\n'
                          '{"id": "c", "cuis": ["x", "y"]}\n', encoding="utf-8")
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "1", "--out", str(runs)]) == 0
        assert "a\u2028b" in runs.read_text(encoding="utf-8")
        assert [r.ranked_ids for r in read_runs(runs)] == [["c"], ["a\u2028b"]]
        capsys.readouterr()
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "1"]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["aggregate"] == 1.0

    def test_a_u2028_concept_goes_from_graph_to_eval(self, tmp_path, capsys):
        """U+2028 ends no record in the edge file, corpus, index or runs."""
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\u2028x\tp\nb\tp\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d1", "cuis": ["a\u2028x"]}\n'
                          '{"id": "d2", "cuis": ["b"]}\n'
                          '{"id": "d3", "cuis": ["p", "q"]}\n', encoding="utf-8")
        index, runs = tmp_path / "kg.nnidx", tmp_path / "r.runs"
        scoring = ["--index", str(index), "--measure", "nniou", "--lambda", "0.5",
                   "--k", "2"]
        assert main(["build-index", "--edges", str(edges), "--corpus", str(corpus),
                     "--n", "2", "--out", str(index)]) == 0
        assert "\na\u2028x\tb,p\n" in index.read_text(encoding="utf-8")
        assert main(["retrieve", "--corpus", str(corpus), *scoring,
                     "--out", str(runs)]) == 0
        assert [r.ranked_ids for r in read_runs(runs)] == [
            ["d2", "d3"], ["d1", "d3"], ["d1", "d2"]
        ]
        capsys.readouterr()
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     *scoring]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["aggregate"] == 1.0

    @pytest.mark.parametrize("bad", ["corpus-id", "corpus-cuis", "runs", "class-map"])
    def test_a_lone_surrogate_escape_exits_two_keeping_the_out_file(self, tmp_path, capsys,
                                                                   bad):
        """No UTF-8 output could hold it, so it is rejected before any output is opened."""
        lone = {bad: "\\ud800"}.get
        edges = tmp_path / "edges.tsv"
        edges.write_text("x\tp\ny\tp\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(f'{{"id": "a{lone("corpus-id", "")}", '
                          f'"cuis": ["x{lone("corpus-cuis", "")}"]}}\n'
                          '{"id": "b", "cuis": ["x", "y"]}\n', encoding="utf-8")
        runs = tmp_path / "r.runs"
        runs.write_text('{"query": "a", "ranked": ["b"]}\n'
                        f'{{"query": "b", "ranked": ["a{lone("runs", "")}"]}}\n',
                        encoding="utf-8")
        cmap = tmp_path / "map.json"
        cmap.write_text(f'{{"group{lone("class-map", "")}": {{"one": ["x"]}}}}',
                        encoding="utf-8")
        out = tmp_path / "kept.out"
        out.write_bytes(b"kept\n")
        evaluate = ["eval", "--corpus", str(corpus), "--runs", str(runs), "--measure", "iou",
                    "--k", "1", "--out", str(out)]
        command, where = {
            "corpus-id": (["retrieve", "--corpus", str(corpus), "--measure", "iou", "--k", "1",
                           "--out", str(out)], "line 1: "),
            "corpus-cuis": (["build-index", "--edges", str(edges), "--corpus", str(corpus),
                             "--n", "1", "--out", str(out)], "line 1: "),
            "runs": (evaluate, "line 2: "),
            "class-map": ([*evaluate, "--class-map", str(cmap)],
                          "class map category 'group\\ud800' value 'one': "),
        }[bad]
        assert main(command) == 2
        assert capsys.readouterr().err == (
            f"error: {where}a \\u escape leaves a lone surrogate, which UTF-8 cannot encode\n"
        )
        assert out.read_bytes() == b"kept\n"

    def test_a_paired_surrogate_escape_round_trips_retrieve_then_eval(self, tmp_path, capsys):
        """``\\ud83d\\ude00`` is one character, written raw to the runs and the report."""
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "a\\ud83d\\ude00", "cuis": ["x"]}\n'
                          '{"id": "c", "cuis": ["x", "y"]}\n', encoding="utf-8")
        cmap = tmp_path / "map.json"
        cmap.write_text('{"smile\\ud83d\\ude00": {"one": ["x"]}}', encoding="utf-8")
        runs, report = tmp_path / "r.runs", tmp_path / "report.json"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "1", "--out", str(runs)]) == 0
        assert runs.read_text(encoding="utf-8") == (
            '{"query":"a\U0001f600","ranked":["c"]}\n{"query":"c","ranked":["a\U0001f600"]}\n'
        )
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs), "--measure", "iou",
                     "--k", "1", "--class-map", str(cmap), "--out", str(report)]) == 0
        reports = json.loads(report.read_text(encoding="utf-8"))["reports"]
        assert [r["metric"] for r in reports] == ["CUI@1", "Precision@1[smile\U0001f600]"]
        assert [r["per_query"] for r in reports] == [{"a\U0001f600": 1.0, "c": 1.0}] * 2

    @pytest.mark.parametrize("damage", ["bad-byte", "mark-cut-to-1", "mark-cut-to-2"])
    @pytest.mark.parametrize("bad", ["edges", "corpus", "runs", "index", "class-map"])
    def test_an_undecodable_byte_exits_two_writing_nothing(self, workspace, capsys, bad,
                                                           damage):
        """The error names the byte's line and its offset in the file, past 8 KiB reads.
        A file that is only the first one or two bytes of a byte-order mark is
        not read as empty."""
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                     "--measure", "nniou", "--lambda", "0.5", "--k", "5",
                     "--out", str(runs)]) == 0
        damaged = {"edges": edges, "corpus": corpus, "runs": runs, "index": index,
                   "class-map": cmap}[bad]
        # blank lines every reader reads past, ending in each universal newline
        blanks = b"".join(b" " * 60 + end for end in [b"\n", b"\r\n", b"\r"] * 100)
        text = damaged.read_bytes()
        head = text + blanks
        assert len(head) > 2 * 8192
        damaged.write_bytes({"bad-byte": head + b"\xff\n", "mark-cut-to-1": b"\xef",
                             "mark-cut-to-2": b"\xef\xbb"}[damage])
        line = text.count(b"\n") + 300 + 1
        message = {
            "bad-byte": f"line {line}: 'utf-8' codec can't decode byte 0xff "
                        f"in position {len(head)}: invalid start byte",
            "mark-cut-to-1": "line 1: 'utf-8' codec can't decode byte 0xef "
                             "in position 0: unexpected end of data",
            "mark-cut-to-2": "line 1: 'utf-8' codec can't decode bytes "
                             "in position 0-1: unexpected end of data",
        }[damage]
        out = tmp_path / "fresh.out"
        command = {
            "edges": ["build-index", "--edges", str(edges), "--corpus", str(corpus),
                      "--n", "1", "--out", str(out)],
            "corpus": ["retrieve", "--corpus", str(corpus), "--measure", "iou",
                       "--k", "5", "--out", str(out)],
            "runs": ["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "5"],
            "index": ["retrieve", "--corpus", str(corpus), "--index", str(index),
                      "--measure", "nniou", "--lambda", "0.5", "--k", "5",
                      "--out", str(out)],
            "class-map": ["eval", "--corpus", str(corpus), "--runs", str(runs),
                          "--measure", "iou", "--k", "5", "--class-map", str(cmap)],
        }[bad]
        capsys.readouterr()
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.err == f"error: {message}\n"
        assert captured.out == ""
        assert not out.exists()

    def _damaged(self, workspace, bad, head):
        """The file of format ``bad`` with ``head`` before its bytes, a command reading it,
        and that command's output path."""
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou", "--k", "5",
                     "--out", str(runs)]) == 0
        damaged = {"edges": edges, "corpus": corpus, "runs": runs, "index": index,
                   "class-map": cmap}[bad]
        damaged.write_bytes(head + damaged.read_bytes())
        out = tmp_path / "fresh.out"
        iou = ["--corpus", str(corpus), "--measure", "iou", "--k", "5", "--out", str(out)]
        command = {
            "edges": ["build-index", "--edges", str(edges), "--corpus", str(corpus),
                      "--n", "1", "--out", str(out)],
            "corpus": ["retrieve", *iou],
            "runs": ["eval", "--runs", str(runs), *iou],
            "index": ["retrieve", "--corpus", str(corpus), "--index", str(index),
                      "--measure", "nniou", "--lambda", "0.5", "--k", "5", "--out", str(out)],
            "class-map": ["eval", "--runs", str(runs), *iou, "--class-map", str(cmap)],
        }[bad]
        return damaged, command, out

    def _exits_two_naming(self, capsys, command, out, line, position):
        capsys.readouterr()
        assert main(command) == 2
        captured = capsys.readouterr()
        assert captured.err == (
            f"error: line {line}: 'utf-8' codec can't decode byte 0xff "
            f"in position {position}: invalid start byte\n"
        )
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("end", [b"\r", b"\r\n"], ids=["cr", "crlf"])
    @pytest.mark.parametrize("offset", [8191, 8192, 8193])
    @pytest.mark.parametrize("bad", ["edges", "corpus", "runs", "index", "class-map"])
    def test_a_bad_byte_beside_the_first_read_boundary_names_its_line(
        self, workspace, capsys, bad, offset, end
    ):
        """Readers decode 8,192-byte blocks; a bad byte on either side of the
        first block's end is placed in the file, past CR-only or CRLF lines."""
        blanks, count = _blank_lines(offset, end)
        _, command, out = self._damaged(workspace, bad, blanks + b"\xff\n")
        self._exits_two_naming(capsys, command, out, count + 1, offset)

    @pytest.mark.parametrize("split", [(2, 1), (3, 1), (3, 2), (4, 1), (4, 2), (4, 3)],
                             ids=lambda split: "{}-byte-{}-before".format(*split))
    @pytest.mark.parametrize("bad", ["edges", "corpus", "runs", "index", "class-map"])
    def test_a_character_across_the_first_read_boundary_decodes(
        self, workspace, capsys, bad, split
    ):
        """A 2-, 3- or 4-byte character split across the first block's end reads
        whole: the error names the bad byte on the line after it."""
        size, before = split
        char = {2: "\u00e9", 3: "\u20ac", 4: "\U0001f600"}[size].encode("utf-8")
        # a line each format reads past: a comment, a record, or any text in a
        # file decoded whole before it is parsed
        holder = {"edges": "# {}", "corpus": '{{"id": "pad{}"}}',
                  "runs": '{{"query": "pad{}", "ranked": []}}'}.get(bad, "{}").encode()
        start, rest = holder.split(b"{}")
        blanks, count = _blank_lines(8192 - before - len(start), b"\n")
        head = blanks + start + char + rest + b"\n"
        assert len(blanks + start) + before == 8192
        _, command, out = self._damaged(workspace, bad, head + b"\xff\n")
        self._exits_two_naming(capsys, command, out, count + 2, len(head))

    @pytest.mark.parametrize("head", [b"", b"\xff\n"], ids=["utf-8", "bad-byte"])
    @pytest.mark.parametrize("bad", ["edges", "corpus", "runs", "index", "class-map"])
    def test_each_reader_opens_its_file_once(self, workspace, bad, head):
        """A reader places a bad byte in the bytes it read, not by reading the file again."""
        path, _, _ = self._damaged(workspace, bad, head)
        read, error = {"edges": (kg_store.parse_edge_file, EdgeFileError),
                       "corpus": (read_corpus, DataFileError),
                       "runs": (read_runs, DataFileError),
                       "index": (load_index, IndexFormatError),
                       "class-map": (read_class_map, DataFileError)}[bad]
        opened = []
        real_path_open, real_open = Path.open, open

        def path_open(self, *args, **kwargs):
            opened.append(str(self))
            return real_path_open(self, *args, **kwargs)

        def counted(file, *args, **kwargs):
            opened.append(str(file))
            return real_open(file, *args, **kwargs)

        # Path.read_bytes and read_text open through Path.open; Path.open goes on
        # through io.open (through a copy of it held since import, on 3.10), and
        # never through builtins.open
        with mock.patch.object(Path, "open", autospec=True, side_effect=path_open), \
                mock.patch("builtins.open", counted):
            if head:
                with pytest.raises(error, match=r"^line 1: 'utf-8' codec can't decode byte "
                                                r"0xff in position 0: invalid start byte$"):
                    read(path)
            else:
                read(path)
        assert opened.count(str(path)) == 1

    def test_retrieve_k_beyond_corpus_returns_all_candidates(self, workspace):
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs_path = tmp_path / "all.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "999", "--out", str(runs_path)]) == 0
        runs = read_runs(runs_path)
        assert all(len(r.ranked_ids) == 15 for r in runs)

    def test_missing_index_for_nniou_retrieval_is_usage_error(self, workspace, capsys):
        tmp_path, edges, corpus, cmap = workspace
        code = main(["retrieve", "--corpus", str(corpus), "--measure", "nniou",
                     "--lambda", "0.5", "--k", "3",
                     "--out", str(tmp_path / "x.runs")])
        assert code == 1
        assert capsys.readouterr().err == INDEX_ERROR

    def test_radius_is_a_build_index_flag_only(self, workspace, capsys):
        """build-index --n sets the radius; the scoring commands read it from the index."""
        tmp_path, edges, corpus, cmap, index = self._build(workspace, radius=2)
        runs = tmp_path / "x.runs"
        scoring = ["--index", str(index), "--n", "2"]
        for argv in (
            ["relevance", "a", "b", *scoring],
            ["retrieve", "--corpus", str(corpus), *scoring, "--out", str(runs)],
            ["eval", "--corpus", str(corpus), "--runs", str(runs), *scoring],
        ):
            capsys.readouterr()
            assert main(argv) == 1
            assert "unrecognized arguments: --n 2" in capsys.readouterr().err
        assert not runs.exists()
        assert main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                     "--out", str(runs)]) == 0
        capsys.readouterr()
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--index", str(index)]) == 0
        assert json.loads(capsys.readouterr().out)["reports"][0]["config"]["n"] == 2

    def test_checksum_mismatch_warns(self, workspace, capsys):
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        other_edges = tmp_path / "other.tsv"
        other_edges.write_text("p\tq\n", encoding="utf-8")
        runs = tmp_path / "w.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                     "--edges", str(other_edges), "--measure", "nniou",
                     "--lambda", "0.5", "--k", "3", "--out", str(runs)]) == 0
        assert "different edge file" in capsys.readouterr().err

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_index_of_a_multi_block_edge_file_matches_it(self, workspace, capsys, mark):
        """The streamed checksum of an edge file over 64 KiB agrees with its own index."""
        tmp_path, edges, corpus, cmap = workspace
        padding = "".join(f"P{i:07d}\tP{i + 1:07d}\n" for i in range(10000))
        large = tmp_path / "large.tsv"
        large.write_bytes(mark + (edges.read_text(encoding="utf-8") + padding).encode("utf-8"))
        assert large.stat().st_size > 2 * (1 << 16)
        index = tmp_path / "large.nnidx"
        assert main(["build-index", "--edges", str(large), "--corpus", str(corpus),
                     "--out", str(index)]) == 0
        capsys.readouterr()
        assert main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                     "--edges", str(large), "--out", str(tmp_path / "large.runs")]) == 0
        assert capsys.readouterr().err == ""

    @pytest.mark.parametrize("mark", [b"", b"\xef\xbb\xbf"], ids=["plain", "bom"])
    def test_index_file_may_start_with_a_byte_order_mark(self, workspace, capsys, mark):
        """retrieve and eval read a marked index like the file build-index wrote."""
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        marked = tmp_path / "marked.nnidx"
        marked.write_bytes(mark + index.read_bytes())
        outputs = []
        for source in (index, marked):
            runs = tmp_path / f"{source.stem}.runs"
            report = tmp_path / f"{source.stem}.json"
            assert main(["retrieve", "--corpus", str(corpus), "--index", str(source),
                         "--edges", str(edges), "--k", "5", "--out", str(runs)]) == 0
            assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                         "--index", str(source), "--k", "5", "--out", str(report)]) == 0
            assert capsys.readouterr().err == ""
            outputs.append((runs.read_bytes(), report.read_bytes()))
        assert outputs[1] == outputs[0]

    def test_eval_repeated_category_is_usage_error(self, workspace, capsys):
        tmp_path, edges, corpus, cmap = workspace
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "3", "--out", str(runs)]) == 0
        capsys.readouterr()
        code = main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "3", "--class-map", str(cmap),
                     "--categories", "modality,modality"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: category 'modality' is listed more than once\n"
        )
        assert captured.out == ""

    def test_eval_unknown_category_is_reported_before_the_runs_are_read(self, workspace,
                                                                        capsys):
        tmp_path, edges, corpus, cmap = workspace
        runs = tmp_path / "malformed.runs"
        runs.write_text("not json\n", encoding="utf-8")
        code = main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "3", "--class-map", str(cmap),
                     "--categories", "stain"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: unknown label category 'stain' (not in class map)\n"
        )
        assert captured.out == ""

    def test_eval_categories_without_class_map_is_usage_error(self, workspace, capsys):
        tmp_path, edges, corpus, cmap = workspace
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "3", "--out", str(runs)]) == 0
        report = tmp_path / "report.json"
        code = main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "3", "--categories", "modality",
                     "--out", str(report)])
        assert code == 1
        err = capsys.readouterr().err
        assert "--categories" in err and "--class-map" in err
        assert not report.exists()

    @pytest.mark.parametrize("categories", ["", ","])
    def test_eval_categories_naming_none_is_usage_error(self, workspace, capsys,
                                                        categories):
        tmp_path, edges, corpus, cmap = workspace
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "3", "--out", str(runs)]) == 0
        capsys.readouterr()
        code = main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "3", "--class-map", str(cmap),
                     "--categories", categories])
        assert code == 1
        captured = capsys.readouterr()
        assert "must name at least one category" in captured.err
        assert captured.out == ""

    def _eval_report(self, workspace, capsys, *flags):
        """Exit code, stderr and report of ``eval`` over retrieved runs, plus the runs."""
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                     "--k", "5", "--out", str(runs)]) == 0
        capsys.readouterr()
        report = tmp_path / "report.json"
        code = main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--index", str(index), "--k", "5", "--out", str(report), *flags])
        captured = capsys.readouterr()
        assert captured.out == f"report written to {report}\n"
        return code, captured.err, json.loads(report.read_text(encoding="utf-8")), runs

    def test_eval_categories_grades_only_the_named_category(self, workspace, capsys):
        cmap = _with_site_category(workspace[3])
        code, err, payload, _ = self._eval_report(
            workspace, capsys, "--class-map", str(cmap), "--categories", "site")
        assert (code, err) == (0, SITE_EXCLUSIONS)
        assert [r["metric"] for r in payload["reports"]] == ["nn-CUI@5", "Precision@5[site]"]
        assert payload["reports"][1]["config"] == {"k": 5, "categories": ["site"]}

    @pytest.mark.parametrize("categories", [["--categories", "modality,site"], []],
                             ids=["named", "whole-class-map"])
    def test_eval_adds_a_joint_report_for_two_categories(self, workspace, capsys,
                                                         categories):
        cmap = _with_site_category(workspace[3])
        code, err, payload, runs = self._eval_report(
            workspace, capsys, "--class-map", str(cmap), *categories)
        assert (code, err) == (0, SITE_EXCLUSIONS)
        assert [r["metric"] for r in payload["reports"]] == [
            "nn-CUI@5", "Precision@5[modality]", "Precision@5[site]",
            "Precision@5[modality&site]",
        ]
        joint = payload["reports"][3]
        labeled = derive_labels(read_corpus(workspace[2]), read_class_map(cmap))
        expected = precision_at_k(labeled, read_runs(runs), 5, ["modality", "site"])
        assert joint["per_query"] == expected.per_query
        # a document with noise from both site groups is left out
        assert joint["exclusions"] == expected.exclusions != []

    def test_class_map_category_labelling_no_document_is_usage_error(self, workspace,
                                                                     capsys):
        tmp_path, edges, corpus, cmap = workspace
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--k", "3", "--out", str(runs)]) == 0
        capsys.readouterr()
        code = main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "3",
                     "--class-map", str(_with_unused_category(cmap))])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: no document carries label category 'organ'\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("runs_text", [None, "not json\n"],
                             ids=["valid-runs", "malformed-runs"])
    def test_category_labelling_no_document_is_reported_before_ranking(
            self, workspace, capsys, monkeypatch, runs_text):
        """No query is ranked, and the runs file is not read, before the error."""
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "r.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                     "--k", "3", "--out", str(runs)]) == 0
        if runs_text is not None:
            runs.write_text(runs_text, encoding="utf-8")
        capsys.readouterr()
        ranked = []
        tops = ScoringCore.tops

        def counting(core, q, lams, k):
            ranked.append(q)
            return tops(core, q, lams, k)

        monkeypatch.setattr(ScoringCore, "tops", counting)
        code = main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--index", str(index), "--k", "3",
                     "--class-map", str(_with_unused_category(cmap))])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: no document carries label category 'organ'\n"
        )
        assert captured.out == ""
        assert ranked == []

    def test_byte_order_mark_leaves_runs_and_report_unchanged(self, workspace):
        """A corpus or runs file may start with a UTF-8 byte-order mark."""
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        marked = tmp_path / "marked.jsonl"
        marked.write_bytes(b"\xef\xbb\xbf" + corpus.read_bytes())
        outputs = {}
        for name, source in (("plain", corpus), ("marked", marked)):
            runs = tmp_path / f"{name}.runs"
            assert main(["retrieve", "--corpus", str(source), "--index", str(index),
                         "--lambda", "0.5", "--k", "5", "--out", str(runs)]) == 0
            if name == "marked":
                runs.write_bytes(b"\xef\xbb\xbf" + runs.read_bytes())
            report = tmp_path / f"{name}.json"
            assert main(["eval", "--corpus", str(source), "--runs", str(runs),
                         "--index", str(index), "--lambda", "0.5", "--k", "5",
                         "--out", str(report)]) == 0
            outputs[name] = runs.read_bytes(), report.read_bytes()
        assert outputs["marked"][0] == b"\xef\xbb\xbf" + outputs["plain"][0]
        assert outputs["marked"][1] == outputs["plain"][1]

    def test_unknown_run_id_is_data_error(self, workspace, capsys):
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        runs = tmp_path / "bad.runs"
        runs.write_text('{"query": "ct000", "ranked": ["mystery"]}\n', encoding="utf-8")
        code = main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--measure", "iou", "--k", "3"])
        assert code == 2
        assert "mystery" in capsys.readouterr().err

    def test_unindexed_concepts_warn_without_changing_outputs(self, tmp_path, capsys):
        edges = tmp_path / "edges.tsv"
        edges.write_text("x\tz\ny\tz\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text(
            '{"id": "d1", "cuis": ["x", "ghost"]}\n{"id": "d2", "cuis": ["z"]}\n'
            '{"id": "d3", "cuis": ["x", "y"]}\n{"id": "d4", "cuis": ["ghost", "y"]}\n',
            encoding="utf-8",
        )
        full = tmp_path / "full.nnidx"
        assert main(["build-index", "--edges", str(edges), "--corpus", str(corpus),
                     "--n", "1", "--out", str(full)]) == 0
        # 'ghost' is absent from the graph, so its entry is empty and
        # dropping it leaves every score the same
        partial = tmp_path / "partial.nnidx"
        lines = full.read_text(encoding="utf-8").splitlines(keepends=True)
        partial.write_text("".join(l for l in lines if l != "ghost\t\n"), encoding="utf-8")
        assert len(load_index(partial)) == len(load_index(full)) - 1
        capsys.readouterr()

        outputs = {}
        for name, index in (("full", full), ("partial", partial)):
            runs = tmp_path / f"{name}.runs"
            report = tmp_path / f"{name}.json"
            assert main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                         "--k", "3", "--out", str(runs)]) == 0
            assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                         "--index", str(index), "--k", "3", "--out", str(report)]) == 0
            outputs[name] = (runs.read_bytes(), report.read_bytes(), capsys.readouterr().err)
        assert outputs["full"][:2] == outputs["partial"][:2]
        assert "no entry in the index" not in outputs["full"][2]
        warning = "1 corpus concept(s) have no entry in the index, e.g. 'ghost'"
        assert outputs["partial"][2].count(warning) == 2

    def test_determinism_byte_identical_outputs(self, workspace):
        tmp_path, edges, corpus, cmap, index = self._build(workspace)
        outputs = []
        for name in ("one", "two"):
            runs = tmp_path / f"{name}.runs"
            report = tmp_path / f"{name}.json"
            main(["retrieve", "--corpus", str(corpus), "--index", str(index),
                  "--measure", "nniou", "--lambda", "0.5", "--k", "5",
                  "--out", str(runs)])
            main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                  "--index", str(index), "--measure", "nniou", "--lambda", "0.5",
                  "--k", "5", "--class-map", str(cmap), "--out", str(report)])
            outputs.append((runs.read_bytes(), report.read_bytes()))
        assert outputs[0] == outputs[1]


class TestAblate:
    def test_grid_csv_shape_and_radius_zero_flat(self, workspace, capsys):
        tmp_path, edges, corpus, cmap = workspace
        assert main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                     "--class-map", str(cmap), "--lambdas", "0,0.5,1",
                     "--radii", "0,1", "--ks", "5"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[0] == "n,lambda,k,precision"
        assert len(lines) == 1 + 2 * 3
        flat = {line.split(",")[3] for line in lines[1:] if line.startswith("0,")}
        assert len(flat) == 1

    def test_radius_zero_cell_equals_lambda_zero_cell(self, workspace):
        tmp_path, edges, corpus, cmap = workspace
        out = tmp_path / "grid.csv"
        assert main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                     "--class-map", str(cmap), "--lambdas", "0,0.6",
                     "--radii", "0,1", "--ks", "5", "--out", str(out)]) == 0
        cells = {}
        for line in out.read_text(encoding="utf-8").splitlines()[1:]:
            radius, lam, k, precision = line.split(",")
            cells[(radius, lam)] = precision
        assert cells[("0", "0.600000")] == cells[("1", "0.000000")]
        assert cells[("0", "0.000000")] == cells[("1", "0.000000")]

    def test_concept_absent_from_graph_warns_and_keeps_the_csv(self, workspace, capsys):
        """An absent concept is isolated, as if the graph listed it without edges."""
        tmp_path, edges, corpus, cmap = workspace
        with corpus.open("a", encoding="utf-8") as stream:
            stream.write('{"id": "zz-ghost", "cuis": ["ghost"]}\n')
        listed = tmp_path / "listed.tsv"
        listed.write_text(edges.read_text(encoding="utf-8") + "ghost\n", encoding="utf-8")
        outputs = {}
        for name, graph in (("absent", edges), ("listed", listed)):
            assert main(["ablate", "--corpus", str(corpus), "--edges", str(graph),
                         "--class-map", str(cmap), "--lambdas", "0,0.5",
                         "--radii", "0,1", "--ks", "5,40"]) == 0
            outputs[name] = capsys.readouterr()
        assert outputs["absent"].out == outputs["listed"].out
        assert outputs["absent"].err == (
            "warning: 1 corpus concept(s) absent from the graph, e.g. 'ghost'; "
            "indexed with empty neighbor sets\n"
        )
        assert outputs["listed"].err == ""

    def test_an_internal_error_exits_two(self, workspace, capsys):
        tmp_path, edges, corpus, cmap = workspace
        with mock.patch("nniou.cli.ablation_rows", side_effect=RuntimeError("broken sweep")):
            code = main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                         "--class-map", str(cmap), "--lambdas", "0,0.5",
                         "--radii", "0", "--ks", "5"])
        assert code == 2
        assert capsys.readouterr() == ("", "internal error: broken sweep\n")

    def test_negative_radius_rejected_before_the_graph_is_read(self, workspace, capsys):
        tmp_path, _, corpus, cmap = workspace
        code = main(["ablate", "--corpus", str(corpus),
                     "--edges", str(tmp_path / "missing.tsv"), "--class-map", str(cmap),
                     "--lambdas", "0.5", "--radii", "1,-1", "--ks", "5"])
        assert code == 1
        assert capsys.readouterr().err == (
            "configuration error: radius must be >= 0, got -1\n"
        )

    def test_empty_grid_is_usage_error(self, workspace, capsys):
        tmp_path, edges, corpus, cmap = workspace
        code = main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                     "--class-map", str(cmap), "--lambdas", "",
                     "--radii", "0", "--ks", "5"])
        assert code == 1
        assert "at least one value" in capsys.readouterr().err

    def test_unknown_category_is_usage_error(self, workspace, capsys):
        tmp_path, edges, corpus, cmap = workspace
        code = main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                     "--class-map", str(cmap), "--categories", "stain",
                     "--lambdas", "0", "--radii", "0", "--ks", "5"])
        assert code == 1
        assert "stain" in capsys.readouterr().err

    def test_unknown_category_is_reported_before_the_graph_is_read(self, workspace,
                                                                   capsys):
        tmp_path, _, corpus, cmap = workspace
        code = main(["ablate", "--corpus", str(corpus),
                     "--edges", str(tmp_path / "missing.tsv"), "--class-map", str(cmap),
                     "--categories", "stain", "--lambdas", "0", "--radii", "0",
                     "--ks", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: unknown label category 'stain' (not in class map)\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("categories", ["", ","])
    def test_categories_naming_none_is_usage_error(self, workspace, capsys, categories):
        tmp_path, edges, corpus, cmap = workspace
        code = main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                     "--class-map", str(cmap), "--categories", categories,
                     "--lambdas", "0", "--radii", "0", "--ks", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert "must name at least one category" in captured.err
        assert captured.out == ""

    def test_class_map_category_labelling_no_document_is_usage_error(self, workspace,
                                                                     capsys):
        tmp_path, edges, corpus, cmap = workspace
        code = main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                     "--class-map", str(_with_unused_category(cmap)),
                     "--lambdas", "0", "--radii", "0", "--ks", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == (
            "configuration error: no document carries label category 'organ'\n"
        )
        assert captured.out == ""

    @pytest.mark.parametrize("flag, values, named", [
        pytest.param("--lambdas", "0.5,0.50", "lambda 0.5", id="lambdas"),
        pytest.param("--radii", "1,0,1", "radius 1", id="radii"),
        pytest.param("--ks", "5,5", "k 5", id="ks"),
        pytest.param("--categories", "modality,modality", "category 'modality'",
                     id="categories"),
    ])
    def test_repeated_value_is_usage_error(self, workspace, capsys, flag, values, named):
        tmp_path, edges, corpus, cmap = workspace
        flags = {"--lambdas": "0.5", "--radii": "1", "--ks": "5", flag: values}
        code = main(["ablate", "--corpus", str(corpus), "--edges", str(edges),
                     "--class-map", str(cmap), *(x for item in flags.items() for x in item)])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {named} is listed more than once\n"
        assert captured.out == ""

    def test_lambdas_that_print_alike_are_a_usage_error(self, tmp_path, capsys):
        """Two lambdas that round to one CSV label exit 1 before any file is read."""
        missing = str(tmp_path / "missing")
        code = main(["ablate", "--corpus", missing, "--edges", missing, "--class-map", missing,
                     "--lambdas", "0.1,0.1234567,0.1234568", "--radii", "1", "--ks", "5"])
        assert code == 1
        captured = capsys.readouterr()
        assert captured.err == ("configuration error: lambdas 0.1234567 and 0.1234568 both "
                                "print as 0.123457 in the CSV\n")
        assert captured.out == ""

    def test_grid_validation(self):
        with pytest.raises(Exception):
            AblationGrid(lambdas=(), radii=(0,), ks=(5,))
        with pytest.raises(Exception):
            AblationGrid(lambdas=(2.0,), radii=(0,), ks=(5,))
        with pytest.raises(ConfigError, match=r"lambda must be in \[0, 1\], got -0.0"):
            AblationGrid(lambdas=(-0.0, 0.5), radii=(0,), ks=(5,))
        with pytest.raises(Exception):
            AblationGrid(lambdas=(0.5,), radii=(-1,), ks=(5,))
        with pytest.raises(Exception):
            AblationGrid(lambdas=(0.5,), radii=(0,), ks=(0,))
        with pytest.raises(ConfigError, match="lambda 0.0 is listed more than once"):
            AblationGrid(lambdas=(0.0, 0.5, 0.0), radii=(0,), ks=(5,))
        with pytest.raises(ConfigError, match="radius 2 is listed more than once"):
            AblationGrid(lambdas=(0.5,), radii=(2, 2), ks=(5,))
        with pytest.raises(ConfigError, match="k 5 is listed more than once"):
            AblationGrid(lambdas=(0.5,), radii=(0,), ks=(5, 10, 5))


class TestFlagsCheckedBeforeFiles:
    """A bad scoring flag exits 1 before any input file, missing here, is read."""

    @staticmethod
    def _argv(command, tmp_path, with_index=False):
        missing = str(tmp_path / "missing")
        index = ["--index", missing] if with_index else []
        return {
            "relevance": ["relevance", "a", "b", "--corpus", missing, *index],
            "retrieve": ["retrieve", "--corpus", missing, "--edges", missing, *index,
                         "--out", str(tmp_path / "x.runs")],
            "eval": ["eval", "--corpus", missing, "--runs", missing, "--edges", missing,
                     *index],
        }[command]

    @pytest.mark.parametrize("command", ["relevance", "retrieve", "eval"])
    @pytest.mark.parametrize("with_index", [False, True], ids=["no-index", "missing-index"])
    def test_lambda_out_of_range(self, tmp_path, capsys, command, with_index):
        for lam, shown in (("1.5", "1.5"), ("-0", "-0.0")):
            assert main([*self._argv(command, tmp_path, with_index), "--lambda", lam]) == 1
            captured = capsys.readouterr()
            assert captured.err == f"configuration error: lambda must be in [0, 1], got {shown}\n"
            assert captured.out == ""

    @pytest.mark.parametrize("command", ["retrieve", "eval"])
    def test_k_below_one(self, tmp_path, capsys, command):
        assert main([*self._argv(command, tmp_path), "--k", "0"]) == 1
        captured = capsys.readouterr()
        assert captured.err == "configuration error: k must be >= 1, got 0\n"
        assert captured.out == ""

    @pytest.mark.parametrize("command", ["relevance", "retrieve", "eval"])
    def test_missing_index_at_positive_lambda_prints_and_writes_nothing(
        self, workspace, capsys, command
    ):
        tmp_path, edges, corpus, cmap = workspace
        runs = tmp_path / "iou.runs"
        assert main(["retrieve", "--corpus", str(corpus), "--measure", "iou",
                     "--out", str(runs)]) == 0
        capsys.readouterr()
        out = tmp_path / "out"
        argv = {
            "relevance": ["relevance", "ct000", "mri000", "--corpus", str(corpus)],
            "retrieve": ["retrieve", "--corpus", str(corpus), "--out", str(out)],
            "eval": ["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--class-map", str(cmap), "--out", str(out)],
        }[command]
        assert main([*argv, "--lambda", "0.5"]) == 1
        captured = capsys.readouterr()
        assert captured.err == INDEX_ERROR
        assert captured.out == ""
        assert not out.exists()

    @pytest.mark.parametrize("flag, value, token", [
        ("--lambdas", "0.5,half", "half"),
        ("--radii", "1,one", "one"),
        ("--ks", "5,5.0", "5.0"),
    ])
    def test_unparseable_grid_token(self, tmp_path, capsys, flag, value, token):
        missing = str(tmp_path / "missing")
        grid = {"--lambdas": "0.5", "--radii": "1", "--ks": "5", flag: value}
        argv = ["ablate", "--corpus", missing, "--edges", missing, "--class-map", missing]
        assert main([*argv, *(x for item in grid.items() for x in item)]) == 1
        captured = capsys.readouterr()
        assert captured.err == f"configuration error: {flag}: cannot parse {token!r}\n"
        assert captured.out == ""

    def test_missing_index_is_reported_before_a_bad_run(self, workspace, capsys):
        tmp_path, edges, corpus, cmap = workspace
        runs = tmp_path / "ghost.runs"
        write_runs([RankingRun("ghost", ["ct000"])], runs)
        assert main(["eval", "--corpus", str(corpus), "--runs", str(runs),
                     "--lambda", "0.5"]) == 1
        assert capsys.readouterr().err == INDEX_ERROR


class TestUsage:
    def test_module_entry_point(self, tmp_path):
        edges = tmp_path / "edges.tsv"
        edges.write_text("a\tb\n", encoding="utf-8")
        corpus = tmp_path / "corpus.jsonl"
        corpus.write_text('{"id": "d", "cuis": ["a", "b"]}\n', encoding="utf-8")
        out = tmp_path / "idx.nnidx"
        result = _run_cli(["build-index", "--edges", str(edges), "--corpus", str(corpus),
                           "--n", "1", "--out", str(out)])
        assert result.returncode == 0, result.stderr
        assert b"entries=2" in result.stdout
        assert out.exists()

    def test_no_subcommand_exits_one(self, capsys):
        assert main([]) == 1
        assert "subcommand" in capsys.readouterr().err

    def test_unknown_flag_exits_one(self, capsys):
        assert main(["retrieve", "--bogus"]) == 1

    def test_missing_file_exits_two(self, tmp_path, capsys):
        code = main(["retrieve", "--corpus", str(tmp_path / "nope.jsonl"),
                     "--measure", "iou", "--k", "3",
                     "--out", str(tmp_path / "x.runs")])
        assert code == 2

    def test_empty_corpus_exits_two(self, tmp_path, capsys):
        empty = tmp_path / "empty.jsonl"
        empty.write_text("", encoding="utf-8")
        code = main(["retrieve", "--corpus", str(empty), "--measure", "iou",
                     "--k", "3", "--out", str(tmp_path / "x.runs")])
        assert code == 2
        assert "no documents" in capsys.readouterr().err


def test_readme_cli_block_runs_verbatim(tmp_path, monkeypatch, capsys):
    """The README's CLI commands, run as written, so the docs name only real flags."""
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    edges = re.search(r"\*\*Edge file\*\*.*?```\n(.*?)```", readme, re.S).group(1)
    block = re.search(r"## CLI\n+```sh\n(.*?)```", readme, re.S).group(1)
    commands = [line for line in block.replace("\\\n", " ").splitlines()
                if line.startswith("nniou ")]
    documented = re.search(r"# -> (iou=\S+)\n#\s+(nniou=\S+)\n", block).groups()
    (tmp_path / "kg.tsv").write_text(edges, encoding="utf-8")
    (tmp_path / "corpus.jsonl").write_text(
        '{"id": "d1", "cuis": ["C0000011", "C0000101"]}\n'
        '{"id": "d2", "cuis": ["C0000012", "C0000101"]}\n'
        '{"id": "d3", "cuis": ["C0000021"]}\n'
        '{"id": "d4", "cuis": ["C0000022"]}\n',
        encoding="utf-8",
    )
    (tmp_path / "classes.json").write_text(
        '{"modality": {"ct": ["C0000011", "C0000012"], "mri": ["C0000021", "C0000022"]}}',
        encoding="utf-8",
    )
    monkeypatch.chdir(tmp_path)
    subcommands = []
    for command in commands:
        argv = shlex.split(command)[1:]
        capsys.readouterr()
        assert main(argv) == 0, command
        if argv[0] == "relevance":
            assert tuple(capsys.readouterr().out.splitlines()) == documented
        subcommands.append(argv[0])
    assert subcommands == ["build-index", "relevance", "retrieve", "eval", "ablate"]
    assert documented == ("iou=0.333333", "nniou=0.666667")
