"""Spans around the public functions of the ``nniou`` modules, installed from outside.

The CLI and the evaluation code look their collaborators up as module
globals at call time, so replacing those globals with timing wrappers
traces every layer without editing the package.  A span records its name,
start, end, parent, the stage (CLI command) it ran in and a few counts
taken from its result.  Spans stay in memory and are written out once the
run ends.

The per-pair scorers and the per-concept BFS run millions of times in one
stage, too often to keep one span each.  Their calls are aggregated per
stage instead (count, seconds, nonzero results, result sizes), and their
time is charged to the enclosing span's children, so self times stay
exact.
"""

from __future__ import annotations

import json
import os
import statistics
from contextlib import contextmanager
from time import perf_counter

# (module, attribute, span name).  ``ground_truth_ranking`` is looked up in
# both ``cli`` (retrieve, ablate) and ``ranking_eval`` (nn-CUI's ideal ranking).
SPANS = (
    ("cli", "parse_edge_file", "kg_store.parse_edge_file"),
    ("cli", "edge_file_checksum", "kg_store.edge_file_checksum"),
    ("cli", "build_index", "neighbor_index.build_index"),
    ("cli", "save_index", "neighbor_index.save_index"),
    ("cli", "load_index", "neighbor_index.load_index"),
    ("cli", "read_corpus", "corpus.read_corpus"),
    ("cli", "read_runs", "corpus.read_runs"),
    ("cli", "write_runs", "corpus.write_runs"),
    ("cli", "read_class_map", "corpus.read_class_map"),
    ("cli", "ground_truth_ranking", "ranking_eval.ground_truth_ranking"),
    ("ranking_eval", "ground_truth_ranking", "ranking_eval.ground_truth_ranking"),
    ("cli", "nn_cui_at_k", "ranking_eval.nn_cui_at_k"),
    ("cli", "precision_at_k", "ranking_eval.precision_at_k"),
    ("cli", "derive_labels", "ranking_eval.derive_labels"),
    ("cli", "ablation_rows", "cli.ablation_rows"),
)

LEAVES = (
    ("ranking_eval", "nn_iou", "relevance.pair"),
    ("ranking_eval", "iou", "relevance.pair"),
    ("neighbor_index", "bounded_neighborhood", "distance.bounded_neighborhood"),
)


def _index_attrs(index, args):
    return {"entries": len(index), "links": sum(len(n) for n in index.entries.values())}


def _report_attrs(report, args):
    return {
        "zero": sum(1 for v in report.per_query.values() if v == 0.0),
        "padded": len(report.notes),
        "excluded": len(report.exclusions),
    }


ATTRS = {
    "kg_store.parse_edge_file": lambda g, args: {"nodes": g.num_nodes, "edges": g.num_edges},
    "neighbor_index.build_index": _index_attrs,
    "neighbor_index.load_index": _index_attrs,
    "neighbor_index.save_index": lambda _, args: {"file_bytes": os.path.getsize(args[1])},
    "corpus.read_corpus": lambda docs, args: {
        "docs": len(docs),
        "vocabulary": len(set().union(*(d.concepts for d in docs))),
    },
    "ranking_eval.ground_truth_ranking": lambda run, args: {"ranked": len(run.ranked_ids)},
    "ranking_eval.nn_cui_at_k": _report_attrs,
    "ranking_eval.precision_at_k": _report_attrs,
    "cli.ablation_rows": lambda rows, args: {"cells": len({(r[0], r[1]) for r in rows})},
}


class Tracer:
    """In-memory span recorder; ``stage`` names the CLI command being run."""

    def __init__(self):
        # Each span: [name, start, end, parent index or -1, child seconds, stage, attrs]
        self.spans: list[list] = []
        self._open: list[int] = []
        # (leaf name, stage) -> [calls, seconds, nonzero results, summed result size]
        self.leaves: dict[tuple[str, str], list] = {}
        self.stage = ""

    def span(self, name, fn):
        spans, open_spans, attrs = self.spans, self._open, ATTRS.get(name)

        def traced(*args, **kwargs):
            parent = open_spans[-1] if open_spans else -1
            record = [name, 0.0, 0.0, parent, 0.0, self.stage, None]
            open_spans.append(len(spans))
            spans.append(record)
            record[1] = start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                record[2] = end = perf_counter()
                open_spans.pop()
                if parent >= 0:
                    spans[parent][4] += end - start
            if attrs is not None:
                record[6] = attrs(result, args)
            return result

        return traced

    def leaf(self, name, fn):
        spans, open_spans, leaves = self.spans, self._open, self.leaves

        def traced(*args, **kwargs):
            start = perf_counter()
            result = fn(*args, **kwargs)
            elapsed = perf_counter() - start
            key = (name, self.stage)
            stats = leaves.get(key)
            if stats is None:
                stats = leaves[key] = [0, 0.0, 0, 0]
            stats[0] += 1
            stats[1] += elapsed
            if isinstance(result, set):
                stats[3] += len(result)
            elif result:
                stats[2] += 1
            if open_spans:
                spans[open_spans[-1]][4] += elapsed
            return result

        return traced

    @contextmanager
    def installed(self, modules):
        """Replace the traced module globals for the duration of the block."""
        wrappers: dict[int, object] = {}
        saved = []
        for table, make in ((SPANS, self.span), (LEAVES, self.leaf)):
            for module_name, attr, name in table:
                module = modules[module_name]
                original = getattr(module, attr)
                if id(original) not in wrappers:
                    wrappers[id(original)] = make(name, original)
                saved.append((module, attr, original))
                setattr(module, attr, wrappers[id(original)])
        try:
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def write(self, path) -> None:
        """Write every span and leaf aggregate as JSON lines."""
        origin = self.spans[0][1] if self.spans else 0.0
        with open(path, "w", encoding="utf-8") as out:
            for i, (name, start, end, parent, child, stage, attrs) in enumerate(self.spans):
                out.write(json.dumps({
                    "id": i, "name": name, "parent": parent, "stage": stage,
                    "start": start - origin, "end": end - origin,
                    "self_s": end - start - child, "attrs": attrs,
                }) + "\n")
            for (name, stage), (calls, seconds, nonzero, size) in sorted(self.leaves.items()):
                out.write(json.dumps({
                    "leaf": name, "stage": stage, "calls": calls, "seconds": seconds,
                    "nonzero": nonzero, "result_size": size,
                }) + "\n")


def _duration(span) -> float:
    return span[2] - span[1]


def _self(span) -> float:
    return span[2] - span[1] - span[4]


def _ablation_cells(spans, ablation: int) -> list[float]:
    """Durations of each (radius, lambda) cell inside one ``ablation_rows`` span.

    A cell runs from the end of the previous cell (or of the radius's index
    build) to the end of the Precision@K calls that close it.
    """
    cells = []
    start = spans[ablation][1]
    closing = None
    for span in spans[ablation + 1:]:
        if span[1] >= spans[ablation][2]:
            break
        if span[3] != ablation:
            continue
        if span[0] == "ranking_eval.precision_at_k":
            closing = span[2]
            continue
        if closing is not None:
            cells.append(closing - start)
            start, closing = closing, None
        if span[0] == "neighbor_index.build_index":
            start = span[2]
    if closing is not None:
        cells.append(closing - start)
    return cells


def layer_metrics(tracer: Tracer, stages: list[str]):
    """Per-layer numbers for one traced pass, as {name: (value, unit)}."""
    spans = tracer.spans
    by_name: dict[str, list] = {}
    for span in spans:
        by_name.setdefault(span[0], []).append(span)

    def total(name):
        return sum(_duration(s) for s in by_name.get(name, ()))

    def last(name, key):
        found = [s[6][key] for s in by_name.get(name, ()) if s[6]]
        return found[-1] if found else 0

    def leaf(name, field, stage=None):
        return sum(v[field] for (n, st), v in tracer.leaves.items()
                   if n == name and stage in (None, st))

    def report_sum(name, key, stage):
        return sum(s[6][key] for s in by_name.get(name, ()) if s[6] and s[5] == stage)

    gt = by_name.get("ranking_eval.ground_truth_ranking", [])
    gt_ms = [_duration(s) * 1e3 for s in gt]
    cuts = statistics.quantiles(gt_ms, n=100) if len(gt_ms) > 1 else [0.0] * 99
    pairs = leaf("relevance.pair", 0)
    pair_s = leaf("relevance.pair", 1)

    ablations = [i for i, s in enumerate(spans) if s[0] == "cli.ablation_rows"]
    cells = [c for i in ablations for c in _ablation_cells(spans, i)]
    builds_in_ablation = sum(
        1 for s in by_name.get("neighbor_index.build_index", ())
        if s[3] >= 0 and spans[s[3]][0] == "cli.ablation_rows"
    )
    retrieve_span = total("cli.retrieve")
    retrieve_scoring = leaf("relevance.pair", 1, "retrieve") + sum(
        _self(s) for s in gt if s[5] == "retrieve"
    )

    m = {
        "kg_store.parse_s": (total("kg_store.parse_edge_file"), "s"),
        "kg_store.nodes": (last("kg_store.parse_edge_file", "nodes"), "count"),
        "kg_store.edges": (last("kg_store.parse_edge_file", "edges"), "count"),
        "kg_store.checksum_s": (total("kg_store.edge_file_checksum"), "s"),
        "distance.neighborhood_calls": (leaf("distance.bounded_neighborhood", 0), "count"),
        "distance.neighborhood_s": (leaf("distance.bounded_neighborhood", 1), "s"),
        "distance.reached_nodes": (leaf("distance.bounded_neighborhood", 3), "count"),
        "neighbor_index.build_s": (total("neighbor_index.build_index"), "s"),
        "neighbor_index.save_s": (total("neighbor_index.save_index"), "s"),
        "neighbor_index.load_s": (total("neighbor_index.load_index"), "s"),
        "neighbor_index.entries": (last("neighbor_index.load_index", "entries"), "count"),
        "neighbor_index.neighbor_links": (last("neighbor_index.load_index", "links"), "count"),
        "neighbor_index.file_bytes": (last("neighbor_index.save_index", "file_bytes"), "bytes"),
        "corpus.read_corpus_s": (total("corpus.read_corpus"), "s"),
        "corpus.read_runs_s": (total("corpus.read_runs"), "s"),
        "corpus.write_runs_s": (total("corpus.write_runs"), "s"),
        "corpus.docs": (last("corpus.read_corpus", "docs"), "count"),
        "corpus.vocabulary": (last("corpus.read_corpus", "vocabulary"), "count"),
        "relevance.pair_scores": (pairs, "count"),
        "relevance.pair_s": (pair_s, "s"),
        "relevance.pair_us": (pair_s / pairs * 1e6 if pairs else 0.0, "us"),
        "relevance.nonzero_pair_share": (
            leaf("relevance.pair", 2) / pairs if pairs else 0.0, "ratio"),
        "ranking_eval.ground_truth_calls": (len(gt), "count"),
        "ranking_eval.ground_truth_self_s": (sum(_self(s) for s in gt), "s"),
        "ranking_eval.query_p50_ms": (cuts[49], "ms"),
        "ranking_eval.query_p99_ms": (cuts[98], "ms"),
        "ranking_eval.candidates_ranked": (sum(s[6]["ranked"] for s in gt if s[6]), "count"),
        "ranking_eval.nn_cui_s": (total("ranking_eval.nn_cui_at_k"), "s"),
        "ranking_eval.precision_s": (total("ranking_eval.precision_at_k"), "s"),
        "ranking_eval.derive_labels_s": (total("ranking_eval.derive_labels"), "s"),
        "ranking_eval.zero_idcg_queries": (
            report_sum("ranking_eval.nn_cui_at_k", "zero", "eval"), "count"),
        "ranking_eval.padded_runs": (
            report_sum("ranking_eval.nn_cui_at_k", "padded", "eval"), "count"),
        "ranking_eval.excluded_queries": (
            report_sum("ranking_eval.nn_cui_at_k", "excluded", "eval")
            + report_sum("ranking_eval.precision_at_k", "excluded", "eval"), "count"),
        "cli.ablation_cells": (last("cli.ablation_rows", "cells"), "count"),
        "cli.ablation_index_builds": (builds_in_ablation, "count"),
        "cli.ablation_cell_p50_s": (statistics.median(cells) if cells else 0.0, "s"),
        "cli.retrieve.scoring_share": (
            retrieve_scoring / retrieve_span if retrieve_span else 0.0, "ratio"),
    }
    for stage in stages:
        m[f"cli.{stage}.self_s"] = (sum(_self(s) for s in by_name.get(f"cli.{stage}", ())), "s")
    return m
