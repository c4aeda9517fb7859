"""Acceptance suite: one test per criterion, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see the per-criterion
lines as they print.  Every tolerance and runtime bound is pinned here.
"""

from __future__ import annotations

import json
import random
import time
from contextlib import contextmanager

import pytest

from nniou import (
    Document,
    EvalConfig,
    KnowledgeGraph,
    RankingRun,
    build_index,
    dcg,
    ground_truth_ranking,
    iou,
    load_index,
    ndcg_at_k,
    nn_cui_at_k,
    nn_iou,
    rel_set,
    save_index,
    shortest_path_len,
)
from nniou.cli import main

from conftest import ANATOMY_EDGES
from oracles import (
    DistanceOracle,
    brute_nn_iou,
    literal_rel_set,
    random_concept_set,
    random_graph_parts,
)
from synthdata import (
    planted_cluster_corpus,
    random_tree_corpus,
    write_fixture_files,
)


@contextmanager
def criterion(number: int, label: str):
    try:
        yield
    except BaseException:
        print(f"[FAIL] criterion {number}: {label}")
        raise
    print(f"[PASS] criterion {number}: {label}")


def test_criterion_1_distance_fidelity():
    with criterion(1, "distance fidelity on known taxonomy pairs (< 1 s)"):
        start = time.perf_counter()
        graph = KnowledgeGraph.from_edges(ANATOMY_EDGES)
        assert shortest_path_len(graph, "C0042449", "C0005847") == 1
        assert shortest_path_len(graph, "C0006121", "C0018670") == 3
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, f"took {elapsed:.3f}s"


def test_criterion_2_oracle_equivalence():
    with criterion(
        2,
        "nn-IoU matches bitset-ball distance + literal pairwise oracle on 200 "
        "random graphs (< 30 s, tol 1e-12)",
    ):
        start = time.perf_counter()
        rng = random.Random(4242)
        graphs = 0
        comparisons = 0
        while graphs < 200:
            nodes, edges = random_graph_parts(rng, max_nodes=50)
            graph = KnowledgeGraph.from_edges(edges, nodes=nodes)
            oracle = DistanceOracle(nodes, edges)
            vocabulary = set(nodes) | {"zz0", "zz1", "zz2", "zz3"}
            indexes = {
                radius: build_index(graph, vocabulary, radius)
                for radius in (0, 1, 2, 3)
            }
            for _ in range(2):
                a = random_concept_set(rng, nodes)
                b = random_concept_set(rng, nodes)
                for radius in (0, 1, 2, 3):
                    index = indexes[radius]
                    assert rel_set(a, b, index) == literal_rel_set(
                        a, b, radius, oracle.dist
                    )
                    for lam in (0.0, 0.25, 0.5, 1.0):
                        got = nn_iou(a, b, lam, index)
                        expected = brute_nn_iou(a, b, lam, radius, oracle.dist)
                        assert abs(got - expected) <= 1e-12
                        comparisons += 1
            graphs += 1
        elapsed = time.perf_counter() - start
        assert graphs >= 200 and comparisons >= 200 * 2 * 16
        assert elapsed < 30.0, f"took {elapsed:.3f}s"


def _strip_config(report_payload: dict) -> str:
    """Report bytes minus the configuration echo and metric name.

    The echo necessarily records which measure was requested, so the
    degeneracy comparison is over everything else: per-query scores,
    aggregate, exclusions, and notes.
    """
    reports = []
    for report in report_payload["reports"]:
        stripped = {
            key: value
            for key, value in report.items()
            if key not in ("config", "metric")
        }
        reports.append(stripped)
    return json.dumps(reports, sort_keys=True)


def test_criterion_3_degeneracy(tmp_path):
    with criterion(
        3, "lambda=0 and n=0 pipelines byte-identical to the IoU pipeline"
    ):
        _, docs, class_map, edge_lines = planted_cluster_corpus(docs_per_cluster=8)
        edges, corpus, _ = write_fixture_files(tmp_path, docs, class_map, edge_lines)
        index0 = tmp_path / "r0.nnidx"
        assert main(
            ["build-index", "--edges", str(edges), "--corpus", str(corpus),
             "--n", "0", "--out", str(index0)]
        ) == 0

        legs = {
            "iou": ["--measure", "iou"],
            "lambda0": ["--measure", "nniou", "--lambda", "0"],
            "radius0": ["--measure", "nniou", "--lambda", "0.5",
                        "--index", str(index0)],
        }
        runs_bytes = {}
        report_payloads = {}
        for name, flags in legs.items():
            runs_path = tmp_path / f"{name}.runs"
            report_path = tmp_path / f"{name}.json"
            assert main(
                ["retrieve", "--corpus", str(corpus), "--k", "5",
                 "--out", str(runs_path), *flags]
            ) == 0
            assert main(
                ["eval", "--corpus", str(corpus), "--runs", str(runs_path),
                 "--k", "5", "--out", str(report_path), *flags]
            ) == 0
            runs_bytes[name] = runs_path.read_bytes()
            report_payloads[name] = _strip_config(
                json.loads(report_path.read_text(encoding="utf-8"))
            )

        assert runs_bytes["lambda0"] == runs_bytes["iou"]
        assert runs_bytes["radius0"] == runs_bytes["iou"]
        assert report_payloads["lambda0"] == report_payloads["iou"]
        assert report_payloads["radius0"] == report_payloads["iou"]


def test_criterion_4_dominance_and_range():
    with criterion(
        4,
        "range, dominance, symmetry, and lambda/radius monotonicity on "
        ">= 10,000 random cases (< 10 s)",
    ):
        start = time.perf_counter()
        rng = random.Random(777)
        radii = (0, 1, 2, 3)
        lambdas = (0.0, 0.25, 0.5, 1.0)
        cases = 0
        for _ in range(40):
            nodes, edges = random_graph_parts(rng, max_nodes=30)
            graph = KnowledgeGraph.from_edges(edges, nodes=nodes)
            vocabulary = set(nodes) | {"zz0", "zz1", "zz2", "zz3"}
            indexes = {
                radius: build_index(graph, vocabulary, radius) for radius in radii
            }
            for _ in range(25):
                a = random_concept_set(rng, nodes)
                b = random_concept_set(rng, nodes)
                base = iou(a, b)
                scores: dict[tuple[int, float], float] = {}
                for radius in radii:
                    for lam in lambdas:
                        score = nn_iou(a, b, lam, indexes[radius])
                        assert 0.0 <= base <= score <= 1.0
                        assert score == nn_iou(b, a, lam, indexes[radius])
                        scores[(radius, lam)] = score
                        cases += 1
                for radius in radii:
                    row = [scores[(radius, lam)] for lam in lambdas]
                    assert row == sorted(row)
                for lam in lambdas:
                    column = [scores[(radius, lam)] for radius in radii]
                    assert column == sorted(column)
        elapsed = time.perf_counter() - start
        assert cases >= 10_000, f"only {cases} cases"
        assert elapsed < 10.0, f"took {elapsed:.3f}s"


def test_criterion_5_ndcg_correctness():
    with criterion(
        5,
        "NDCG fixture value 0.859719 +/- 1e-6 and exact 1.0 on "
        "ground-truth runs",
    ):
        assert ndcg_at_k([0.5, 1.0], [1.0, 0.5], 2) == pytest.approx(
            0.859719, abs=1e-6
        )
        assert dcg([1.0, 1.0]) == pytest.approx(1.630930, abs=1e-6)
        assert dcg([0.5, 1.0]) == pytest.approx(1.130930, abs=1e-6)

        corpus = [
            Document("q", frozenset({"x", "y"})),
            Document("d1", frozenset({"x", "y"})),
            Document("d2", frozenset({"x"})),
            Document("d3", frozenset({"z"})),
        ]
        cfg = EvalConfig(k=2, lam=0.0, measure="iou")
        reversed_run = [RankingRun("q", ["d2", "d1"])]
        report = nn_cui_at_k(corpus, reversed_run, cfg)
        assert report.per_query["q"] == pytest.approx(0.859719, abs=1e-6)

        graph, docs, _, _ = planted_cluster_corpus(docs_per_cluster=10)
        vocabulary = set().union(*(d.concepts for d in docs))
        index = build_index(graph, vocabulary, 1)
        cfg = EvalConfig(k=10, lam=0.5, measure="nniou")
        truth_runs = [
            RankingRun(
                doc.id,
                ground_truth_ranking(doc, docs, cfg, index).ranked_ids[:10],
            )
            for doc in docs
        ]
        closure = nn_cui_at_k(docs, truth_runs, cfg, index)
        assert closure.aggregate == 1.0
        assert all(score == 1.0 for score in closure.per_query.values())


def test_criterion_6_index_round_trip(tmp_path):
    with criterion(
        6,
        "index save/load round-trip is structurally identical, answers "
        "match a fresh build, format is bit-exact",
    ):
        rng = random.Random(606)
        for trial in range(5):
            nodes, edges = random_graph_parts(rng, max_nodes=40)
            graph = KnowledgeGraph.from_edges(edges, nodes=nodes)
            vocabulary = set(rng.sample(nodes, rng.randint(1, len(nodes))))
            radius = rng.randint(0, 3)
            built = build_index(graph, vocabulary, radius)

            path = tmp_path / f"trial{trial}.nnidx"
            save_index(built, path)
            loaded = load_index(path)
            assert loaded == built
            assert loaded.radius == built.radius
            assert loaded.source_checksum == built.source_checksum

            fresh = build_index(graph, vocabulary, radius)
            for concept in vocabulary:
                assert loaded.neighbors(concept) == fresh.neighbors(concept)

            again = tmp_path / f"trial{trial}-resave.nnidx"
            save_index(loaded, again)
            assert again.read_bytes() == path.read_bytes()


def test_criterion_7_ablation_shape(tmp_path):
    with criterion(
        7,
        "planted-cluster precision: n=1 curve >= n=0 curve for lambda in "
        "{0.1..0.7}, n=0 flat (< 60 s)",
    ):
        start = time.perf_counter()
        graph, docs, class_map, edge_lines = planted_cluster_corpus()
        assert len(docs) == 100
        assert graph.num_nodes == 28
        edges, corpus, cmap = write_fixture_files(tmp_path, docs, class_map, edge_lines)
        out = tmp_path / "ablation.csv"
        lambdas = [0.0, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7]
        assert main(
            ["ablate", "--corpus", str(corpus), "--edges", str(edges),
             "--class-map", str(cmap),
             "--lambdas", ",".join(str(l) for l in lambdas),
             "--radii", "0,1", "--ks", "30", "--out", str(out)]
        ) == 0
        cells: dict[tuple[int, float], float] = {}
        lines = out.read_text(encoding="utf-8").splitlines()
        assert lines[0] == "n,lambda,k,precision"
        for line in lines[1:]:
            radius, lam, k, precision = line.split(",")
            assert k == "30"
            cells[(int(radius), float(lam))] = float(precision)

        flat = {cells[(0, lam)] for lam in lambdas}
        assert len(flat) == 1, f"radius-0 row not flat: {sorted(flat)}"
        for lam in lambdas[1:]:
            assert cells[(1, lam)] >= cells[(0, lam)], (
                f"lambda={lam}: n=1 precision {cells[(1, lam)]} below "
                f"n=0 precision {cells[(0, lam)]}"
            )
        # the fixture is built so approximate matching actually helps
        assert cells[(1, 0.5)] > cells[(0, 0.5)]
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, f"took {elapsed:.3f}s"


def test_criterion_8_precomputation_speedup():
    with criterion(
        8,
        "indexed nn-CUI@K evaluation at least 5x faster than per-pair BFS "
        "on a 1,000-doc corpus",
    ):
        graph, docs = random_tree_corpus()
        assert len(docs) == 1000
        vocabulary = set().union(*(d.concepts for d in docs))
        cfg = EvalConfig(k=10, lam=0.5, measure="nniou")
        index = build_index(graph, vocabulary, 1)

        # modest system runs for a few queries; both timings evaluate the
        # same queries over the full 1,000-doc candidate pool
        docs_by_id = {d.id: d for d in docs}
        query_ids = ["doc0000", "doc0400", "doc0800"]
        iou_cfg = EvalConfig(k=10, lam=0.0, measure="iou")
        runs = [
            RankingRun(
                qid,
                ground_truth_ranking(docs_by_id[qid], docs, iou_cfg).ranked_ids[:10],
            )
            for qid in query_ids
        ]

        start = time.perf_counter()
        fast_report = nn_cui_at_k(docs, runs, cfg, index)
        fast_elapsed = time.perf_counter() - start

        def pairwise_bfs_nn_iou(a: frozenset[str], b: frozenset[str]) -> float:
            # the no-index route: a fresh shortest-path search per concept pair
            union = a | b
            if not union:
                return 0.0
            shared = a & b
            related = set()
            for x in a:
                for y in b:
                    distance = shortest_path_len(graph, x, y)
                    if isinstance(distance, int) and distance <= index.radius:
                        if x not in shared:
                            related.add(x)
                        if y not in shared:
                            related.add(y)
            return (len(shared) + cfg.lam * len(related)) / len(union)

        start = time.perf_counter()
        slow_scores = {}
        for run in runs:
            query = docs_by_id[run.query_id]
            system = [
                pairwise_bfs_nn_iou(docs_by_id[r].concepts, query.concepts)
                for r in run.ranked_ids[: cfg.k]
            ]
            candidates = sorted(
                (doc for doc in docs if doc.id != query.id),
                key=lambda doc: (
                    -pairwise_bfs_nn_iou(doc.concepts, query.concepts),
                    doc.id,
                ),
            )
            ideal = [
                pairwise_bfs_nn_iou(doc.concepts, query.concepts)
                for doc in candidates[: cfg.k]
            ]
            slow_scores[run.query_id] = ndcg_at_k(system, ideal, cfg.k)
        slow_elapsed = time.perf_counter() - start

        for qid in query_ids:
            assert fast_report.per_query[qid] == pytest.approx(
                slow_scores[qid], abs=1e-12
            )
        speedup = slow_elapsed / fast_elapsed
        print(
            f"  index={fast_elapsed:.3f}s per-pair-bfs={slow_elapsed:.3f}s "
            f"speedup={speedup:.1f}x"
        )
        assert speedup >= 5.0, f"speedup only {speedup:.2f}x"
