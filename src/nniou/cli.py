"""Command-line front end.

Subcommands: ``build-index``, ``relevance``, ``retrieve``, ``eval``,
``ablate``.  Exit status 0 on success, 1 on usage/configuration errors,
2 on data errors.  All outputs are deterministic: identical inputs and
flags produce byte-identical runs, report, and CSV files.

The distance threshold n is chosen where neighbor sets are built:
``build-index --n`` and ``ablate --radii``.  ``relevance``, ``retrieve``
and ``eval`` take no ``--n``; they score with the loaded index's neighbor
lists, and an ``eval`` report records its radius as ``"n"``.  Without an
index, approximate matching is off (IoU or lambda 0) or refused, and
``"n"`` reads 1.

Lambda, k, radius and the ablation grid are checked before any file is
read; a value listed twice in ``--categories``, ``--lambdas``, ``--radii``
or ``--ks`` is an error, and so are two lambdas that the CSV prints alike.
``eval`` and ``ablate`` then check the class map and ``--categories``
before reading the graph, corpus, runs or index.
A chosen category that labels no document is reported once the corpus is
read and before any query is ranked; ``eval`` reports it before reading
the runs or the index.
``eval`` adds a joint ``Precision@K[a&b]`` report to the per-category ones
when it grades two or more categories.
The sweep that ``ablate`` runs is :func:`nniou.ranking_eval.ablation_rows`.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import sys
import time
from pathlib import Path
from typing import Sequence

from .corpus import (
    corpus_vocabulary,
    read_class_map,
    read_corpus,
    read_runs,
    write_runs,
)
from .errors import ConfigError, DataError, EvaluationError
from .kg_store import KnowledgeGraph, edge_file_checksum, parse_edge_file
from .neighbor_index import NeighborIndex, build_index, checked_radius, load_index, save_index
# ground_truth_ranking is unused here but stays a module attribute:
# benchmarks/tracer.py wraps it.
from .ranking_eval import (
    MEASURES,
    AblationGrid,
    Document,
    EvalConfig,
    MetricReport,
    _label_matches,
    _no_repeats,
    ablation_rows,
    derive_labels,
    ground_truth_ranking,
    ground_truth_rankings,
    nn_cui_at_k,
    precision_at_k,
)
from .scoring import checked_lambda, iou, nn_iou


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # noqa: A002 - argparse API
        raise _UsageError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="nniou",
        description=(
            "Knowledge-graph-aware relevance scoring and retrieval evaluation"
        ),
    )
    sub = parser.add_subparsers(dest="command", metavar="COMMAND")

    # shared by the commands that read the graph and corpus (_graph_and_corpus)
    graph_input = argparse.ArgumentParser(add_help=False)
    graph_input.add_argument("--edges", required=True,
                             help="edge file (child<TAB>parent lines)")
    graph_input.add_argument("--corpus", required=True, help="JSONL corpus file")
    graph_input.add_argument("--strict-cui", action="store_true",
                             help="require edge-file identifiers shaped like 'C' + "
                                  "seven ASCII digits")

    p = sub.add_parser(
        "build-index",
        parents=[graph_input],
        help="precompute within-radius neighbor sets for a corpus vocabulary",
    )
    p.add_argument("--n", type=int, default=1, help="distance threshold (default 1)")
    p.add_argument("--out", required=True, help="output index path")
    p.set_defaults(func=_cmd_build_index)

    # shared by the scoring commands, which take their radius from the index
    scoring = argparse.ArgumentParser(add_help=False)
    scoring.add_argument("--index", help="neighbor index path (sets the radius)")
    scoring.add_argument("--lambda", dest="lam", type=float, default=0.5,
                         help="related-concept weight (default 0.5)")
    ranking = argparse.ArgumentParser(add_help=False, parents=[scoring])
    ranking.add_argument("--corpus", required=True, help="JSONL corpus file")
    ranking.add_argument("--edges", help="edge file, only to cross-check the index checksum")
    ranking.add_argument("--measure", choices=MEASURES, default="nniou",
                         help="relevance measure (default nniou)")
    ranking.add_argument("--k", type=int, default=10, help="ranking cutoff (default 10)")

    p = sub.add_parser(
        "relevance",
        parents=[scoring],
        help="score two concept sets (or two corpus document ids)",
    )
    p.add_argument("set_a", help="comma-separated concepts or a document id")
    p.add_argument("set_b", help="comma-separated concepts or a document id")
    p.add_argument("--corpus", help="JSONL corpus used to resolve document ids")
    p.set_defaults(func=_cmd_relevance)

    p = sub.add_parser(
        "retrieve",
        parents=[ranking],
        help="rank every corpus document against every other (exact, pruned)",
    )
    p.add_argument("--out", required=True, help="output runs file (JSONL)")
    p.set_defaults(func=_cmd_retrieve)

    p = sub.add_parser("eval", parents=[ranking], help="score runs against a corpus")
    p.add_argument("--runs", required=True, help="JSONL runs file")
    p.add_argument("--class-map", help="JSON class map enabling Precision@K")
    p.add_argument("--categories", help="comma-separated subset of class-map categories")
    p.add_argument("--out", help="write the report here instead of stdout")
    p.add_argument("--format", choices=["json", "csv"], default="json")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser(
        "ablate",
        parents=[graph_input],
        help="sweep (radius, lambda, k) and report precision per cell",
    )
    p.add_argument("--class-map", required=True)
    p.add_argument("--categories", help="comma-separated subset of class-map categories")
    p.add_argument("--lambdas", required=True, help="comma-separated lambda values")
    p.add_argument("--radii", required=True, help="comma-separated radius values")
    p.add_argument("--ks", required=True, help="comma-separated cutoff values")
    p.add_argument("--out", help="write the CSV here instead of stdout")
    p.set_defaults(func=_cmd_ablate)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if not hasattr(args, "func"):
            parser.print_usage(sys.stderr)
            print("error: a subcommand is required", file=sys.stderr)
            return 1
        return args.func(args)
    except _UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except ConfigError as exc:
        print(f"configuration error: {exc}", file=sys.stderr)
        return 1
    except (DataError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except RuntimeError as exc:
        print(f"internal error: {exc}", file=sys.stderr)
        return 2


def _warn(message: str) -> None:
    print(f"warning: {message}", file=sys.stderr)


def _warn_cycle(graph) -> None:
    if not graph.acyclic:
        # graph.cycle is closed: its first concept repeats at the end
        length = len(graph.cycle) - 1
        example = graph.cycle if length <= 3 else graph.cycle[:3] + ["..."]
        _warn(
            f"edge set contains a directed cycle of {length} concepts "
            f"({' -> '.join(example)}); distances use the undirected view"
        )


def _ranking_index(args, docs: Sequence[Document]) -> NeighborIndex | None:
    """The index (if any) that ``retrieve`` and ``eval`` rank with, warnings given."""
    if not args.index:
        return None
    index = load_index(args.index)
    if args.edges:
        actual = edge_file_checksum(args.edges)
        if actual != index.source_checksum:
            _warn(
                f"index {args.index} was built from a different edge file "
                f"(checksum {index.source_checksum[:12]}.. != {actual[:12]}..)"
            )
    missing = corpus_vocabulary(docs).difference(index.entries)
    if missing:
        _warn(
            f"{len(missing)} corpus concept(s) have no entry in the index, "
            f"e.g. {min(missing)!r}; they match only themselves"
        )
    return index


def _graph_and_corpus(args) -> tuple[KnowledgeGraph, list[Document]]:
    """The graph and corpus that ``build-index`` and ``ablate`` read, warnings given."""
    graph = parse_edge_file(args.edges, strict_cui=args.strict_cui)
    _warn_cycle(graph)
    docs = read_corpus(args.corpus)
    missing = [c for c in corpus_vocabulary(docs) if not graph.has_node(c)]
    if missing:
        _warn(
            f"{len(missing)} corpus concept(s) absent from the graph, "
            f"e.g. {min(missing)!r}; indexed with empty neighbor sets"
        )
    return graph, docs


def _cmd_build_index(args) -> int:
    checked_radius(args.n)
    graph, docs = _graph_and_corpus(args)
    start = time.perf_counter()
    index = build_index(graph, corpus_vocabulary(docs), args.n)
    elapsed = time.perf_counter() - start
    save_index(index, args.out)
    print(
        f"nodes={graph.num_nodes} edges={graph.num_edges} "
        f"entries={len(index)} radius={args.n} seconds={elapsed:.3f}"
    )
    return 0


def _cmd_relevance(args) -> int:
    checked_lambda(args.lam)
    index = load_index(args.index) if args.index else None
    docs_by_id: dict[str, Document] = {}
    if args.corpus:
        docs_by_id = {d.id: d for d in read_corpus(args.corpus)}

    def resolve(token: str) -> frozenset[str]:
        if token in docs_by_id:
            return docs_by_id[token].concepts
        return frozenset(t.strip() for t in token.split(",") if t.strip())

    set_a = resolve(args.set_a)
    set_b = resolve(args.set_b)
    nniou = nn_iou(set_a, set_b, args.lam, index)
    print(f"iou={iou(set_a, set_b):.6f}\nnniou={nniou:.6f}")
    return 0


def _cmd_retrieve(args) -> int:
    cfg = EvalConfig(k=args.k, lam=args.lam, measure=args.measure)
    docs = read_corpus(args.corpus)
    if not docs:
        raise EvaluationError(f"corpus {args.corpus} contains no documents")
    runs = ground_truth_rankings(docs, cfg, _ranking_index(args, docs))
    write_runs(runs, args.out)
    print(f"queries={len(runs)} k={args.k} measure={args.measure} out={args.out}")
    return 0


def _split_categories(args, class_map) -> list[str]:
    if args.categories is not None:
        categories = [c.strip() for c in args.categories.split(",") if c.strip()]
        if not categories:
            raise ConfigError("--categories must name at least one category")
        _no_repeats(categories, "category")
        for category in categories:
            if category not in class_map:
                raise ConfigError(
                    f"unknown label category {category!r} (not in class map)"
                )
        return categories
    return sorted(class_map)


def _reports_to_csv(reports: Sequence[MetricReport]) -> str:
    buffer = io.StringIO()
    writer = csv.writer(buffer, lineterminator="\n")
    writer.writerow(["metric", "query_id", "score"])
    for report in reports:
        for query_id in sorted(report.per_query):
            writer.writerow([report.metric, query_id, f"{report.per_query[query_id]:.6f}"])
    return buffer.getvalue()


def _emit(text: str, out_path: str | None) -> None:
    if out_path:
        Path(out_path).write_text(text, encoding="utf-8")
        print(f"report written to {out_path}")
    else:
        # the bytes --out would hold, whatever the encoding of stdout
        sys.stdout.flush()
        sys.stdout.buffer.write(text.encode("utf-8"))
        sys.stdout.buffer.flush()


def _warn_left_out(reports: Sequence[MetricReport], runs, k: int) -> None:
    """Warn once about the queries the reports exclude and once about the runs
    padded to ``k``, each with a count and one example, in either format."""
    excluded = [(entry, report.metric) for report in reports for entry in report.exclusions]
    if excluded:
        (entry, metric), queries = excluded[0], {entry["query_id"] for entry, _ in excluded}
        _warn(f"{len(queries)} query(s) excluded from a report, e.g. {entry['query_id']!r} "
              f"from {metric}: {entry['reason']}")
    padded = sorted((run.query_id, len(run.ranked_ids)) for run in runs
                    if len(run.ranked_ids) < k)
    if padded:
        query_id, length = padded[0]
        _warn(f"{len(padded)} run(s) shorter than k={k} padded with zero relevance, "
              f"e.g. {query_id!r} with {length} result(s)")


def _cmd_eval(args) -> int:
    if args.categories is not None and not args.class_map:
        raise ConfigError("--categories needs --class-map to derive the labels it names")
    cfg = EvalConfig(k=args.k, lam=args.lam, measure=args.measure)
    class_map = read_class_map(args.class_map) if args.class_map else {}
    categories = _split_categories(args, class_map)
    docs = read_corpus(args.corpus)
    if categories:
        labeled = derive_labels(docs, class_map)
        _label_matches(labeled, categories)  # fails on a category no document carries
    runs = read_runs(args.runs)
    reports = [nn_cui_at_k(docs, runs, cfg, _ranking_index(args, docs))]
    if categories:
        for category in categories:
            reports.append(precision_at_k(labeled, runs, args.k, [category]))
        if len(categories) > 1:
            reports.append(precision_at_k(labeled, runs, args.k, categories))
    _warn_left_out(reports, runs, args.k)
    if args.format == "json":
        payload = {"reports": [r.to_dict() for r in reports]}
        text = json.dumps(payload, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    else:
        text = _reports_to_csv(reports)
    _emit(text, args.out)
    return 0


def _parse_number_list(raw: str, kind, flag: str) -> tuple:
    values = []
    for token in raw.split(","):
        token = token.strip()
        if not token:
            continue
        try:
            values.append(kind(token))
        except ValueError:
            raise ConfigError(f"{flag}: cannot parse {token!r}") from None
    if not values:
        raise ConfigError(f"{flag} must list at least one value")
    return tuple(values)


def _lambda_label(lam: float) -> str:
    """``lam`` as the ablation CSV writes it."""
    return f"{lam:.6f}"


def _cmd_ablate(args) -> int:
    grid = AblationGrid(
        lambdas=_parse_number_list(args.lambdas, float, "--lambdas"),
        radii=_parse_number_list(args.radii, int, "--radii"),
        ks=_parse_number_list(args.ks, int, "--ks"),
    )
    labels: dict[str, float] = {}
    for lam in grid.lambdas:
        label = _lambda_label(lam)
        other = labels.setdefault(label, lam)
        if other != lam:
            raise ConfigError(f"lambdas {other!r} and {lam!r} both print as {label} "
                              "in the CSV")
    class_map = read_class_map(args.class_map)
    categories = _split_categories(args, class_map)
    graph, docs = _graph_and_corpus(args)
    rows = ablation_rows(graph, docs, grid, class_map, categories)
    lines = ["n,lambda,k,precision"]
    for radius, lam, k, precision in rows:
        lines.append(f"{radius},{_lambda_label(lam)},{k},{precision:.6f}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


if __name__ == "__main__":
    sys.exit(main())
