"""Seeded input generators and stage plans for the benchmark workloads.

Every workload is a pure function of its seed: the same seed writes the
same edge file, corpus and class map byte for byte.  Nothing here imports
``nniou``; the generated files are the program's only inputs.
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable


@dataclass
class Inputs:
    """Generated taxonomy, corpus and class map, kept in memory for the checks."""

    edges: list[tuple[str, str]]
    docs: list[tuple[str, list[str]]]
    class_map: dict[str, dict[str, list[str]]]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    generate: Callable[[random.Random], Inputs]
    radius: int
    lam: float
    k: int
    eval_class_map: bool
    ablate_radii: tuple[int, ...]
    ablate_lambdas: tuple[float, ...]
    ablate_ks: tuple[int, ...]


def _names(count: int, base: int) -> list[str]:
    return [f"C{base + i:07d}" for i in range(count)]


def _random_tree(rng: random.Random, names: list[str]) -> list[tuple[str, str]]:
    """Random recursive tree: each node's parent is a uniformly chosen earlier node."""
    return [(names[i], names[rng.randrange(i)]) for i in range(1, len(names))]


def _adjacency(edges: list[tuple[str, str]]) -> dict[str, list[str]]:
    adj: dict[str, list[str]] = {}
    for child, parent in edges:
        adj.setdefault(child, []).append(parent)
        adj.setdefault(parent, []).append(child)
    return adj


def _ball(adj: dict[str, list[str]], start: str, radius: int) -> list[str]:
    """``start`` plus every node within ``radius`` hops, in BFS order."""
    seen = {start}
    order = [start]
    frontier = [start]
    for _ in range(radius):
        nxt = []
        for node in frontier:
            for other in adj.get(node, ()):
                if other not in seen:
                    seen.add(other)
                    nxt.append(other)
        order.extend(nxt)
        frontier = nxt
    return order


def _claim(groups: list[list[str]]) -> dict[str, list[str]]:
    """Disjoint class values: each concept belongs to the first group listing it."""
    claimed: set[str] = set()
    values: dict[str, list[str]] = {}
    for i, group in enumerate(groups):
        mine = sorted(set(group) - claimed)
        claimed.update(mine)
        values[f"t{i}"] = mine
    return values


def sparse_large_kg(rng: random.Random) -> Inputs:
    """~200k-node taxonomy; 500 docs of 3-6 concepts near one of 330 topic seeds."""
    names = _names(200_000, 1_000_000)
    edges = _random_tree(rng, names)
    adj = _adjacency(edges)
    balls: list[list[str]] = []
    while len(balls) < 330:
        ball = _ball(adj, rng.choice(names), 2)
        if len(ball) >= 8:
            balls.append(ball)
    docs = []
    for i in range(500):
        ball = rng.choice(balls)
        docs.append((f"d{i:05d}", rng.sample(ball, rng.randint(3, 6))))
    groups = [sum(balls[g::4], []) for g in range(4)]
    return Inputs(edges, docs, {"topic": _claim(groups)})


def dense_small_kg(rng: random.Random) -> Inputs:
    """~400-node taxonomy; 300 docs of 15-25 uniformly drawn concepts."""
    names = _names(400, 2_000_000)
    edges = _random_tree(rng, names)
    docs = [
        (f"d{i:05d}", rng.sample(names, rng.randint(15, 25))) for i in range(300)
    ]
    markers = rng.sample(names, 12)
    groups = [markers[g::4] for g in range(4)]
    return Inputs(edges, docs, {"topic": _claim(groups)})


def ablate_labelled(rng: random.Random) -> Inputs:
    """~3k-node taxonomy: six labelled subtrees plus a shared noise subtree.

    Same-class documents mostly meet through hierarchy neighbours, while
    exact overlap across classes comes from the noise subtree, so the
    ablation curve depends on radius and lambda.  About 5% of documents
    borrow a concept from another class, which leaves them unlabelled.
    """
    root = "C3000000"
    edges: list[tuple[str, str]] = []
    subtrees: list[list[str]] = []
    for c in range(7):
        names = _names(450 if c < 6 else 300, 3_000_001 + c * 1000)
        edges.append((names[0], root))
        edges.extend(_random_tree(rng, names))
        subtrees.append(names)
    adj = _adjacency(edges)
    classes, noise = subtrees[:6], subtrees[6]
    members = [set(names) for names in classes]
    docs = []
    for i in range(240):
        c = i % 6
        ball = [n for n in _ball(adj, rng.choice(classes[c]), 2) if n in members[c]]
        concepts = rng.sample(ball, min(len(ball), rng.randint(3, 5)))
        concepts += rng.sample(noise, rng.randint(1, 2))
        if rng.random() < 0.05:
            concepts.append(rng.choice(classes[(c + 1) % 6]))
        docs.append((f"d{i:05d}", concepts))
    return Inputs(edges, docs, {"topic": _claim(classes)})


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="sparse-large-kg",
            why=(
                "200k-node taxonomy, 500 docs, radius 1: ~0.3% of pairs score above 0, "
                "so candidate pruning has the most to win and edge parsing dominates set-up"
            ),
            generate=sparse_large_kg,
            radius=1,
            lam=0.5,
            k=10,
            eval_class_map=False,
            ablate_radii=(0,),
            ablate_lambdas=(0.5,),
            ablate_ks=(10,),
        ),
        Workload(
            name="dense-small-kg",
            why=(
                "400-node taxonomy, 300 docs of 15-25 concepts, radius 2: nearly every "
                "pair scores above 0, so pruning is bypassed and per-pair cost dominates"
            ),
            generate=dense_small_kg,
            radius=2,
            lam=0.5,
            k=10,
            eval_class_map=False,
            ablate_radii=(0,),
            ablate_lambdas=(0.5,),
            ablate_ks=(10,),
        ),
        Workload(
            name="ablate-labelled",
            why=(
                "3k-node taxonomy, 240 docs in 6 classes: the only full ablation sweep "
                "(18 retrieval passes, 3 index builds) plus label derivation and Precision@K"
            ),
            generate=ablate_labelled,
            radius=1,
            lam=0.5,
            k=30,
            eval_class_map=True,
            ablate_radii=(0, 1, 2),
            ablate_lambdas=(0.0, 0.1, 0.3, 0.5, 0.7, 1.0),
            ablate_ks=(10, 30),
        ),
    )
}


def write_inputs(inputs: Inputs, directory: Path) -> dict[str, Path]:
    """Write the edge file, corpus and class map; return their paths."""
    directory.mkdir(parents=True, exist_ok=True)
    paths = {
        "edges": directory / "kg.tsv",
        "corpus": directory / "corpus.jsonl",
        "class_map": directory / "classes.json",
    }
    edge_lines = ["# child\tparent"] + [f"{c}\t{p}" for c, p in inputs.edges]
    paths["edges"].write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    corpus_lines = [json.dumps({"id": i, "cuis": cuis}) for i, cuis in inputs.docs]
    paths["corpus"].write_text("\n".join(corpus_lines) + "\n", encoding="utf-8")
    paths["class_map"].write_text(json.dumps(inputs.class_map), encoding="utf-8")
    return paths


def stage_plan(
    w: Workload, inputs: dict[str, Path], out: Path
) -> tuple[dict[str, list[str]], dict[str, Path]]:
    """CLI argument lists of the four timed stages, in run order, and each one's output."""
    outputs = {
        "build-index": out / "kg.nnidx",
        "retrieve": out / "system.runs",
        "eval": out / "report.json",
        "ablate": out / "grid.csv",
    }
    corpus, edges = ["--corpus", str(inputs["corpus"])], ["--edges", str(inputs["edges"])]
    index = ["--index", str(outputs["build-index"])]
    scoring = ["--lambda", repr(w.lam), "--k", str(w.k)]
    class_map = ["--class-map", str(inputs["class_map"])]
    argv = {
        "build-index": ["build-index", *edges, *corpus, "--n", str(w.radius)],
        "retrieve": ["retrieve", *corpus, *index, *edges, "--measure", "nniou", *scoring],
        "eval": ["eval", *corpus, "--runs", str(outputs["retrieve"]), *index, *edges,
                 *scoring, *(class_map if w.eval_class_map else [])],
        "ablate": ["ablate", *corpus, *edges, *class_map,
                   "--lambdas", ",".join(repr(x) for x in w.ablate_lambdas),
                   "--radii", ",".join(str(x) for x in w.ablate_radii),
                   "--ks", ",".join(str(x) for x in w.ablate_ks)],
    }
    for stage, path in outputs.items():
        argv[stage] += ["--out", str(path)]
    return argv, outputs
