"""Deterministic synthetic corpora for evaluation tests.

The planted-cluster corpus is built so that approximate matching provably
cannot hurt label precision and strictly helps somewhere: each cluster owns
three parent/child concept pairs and every document picks one variant from
two of its cluster's pairs, so same-cluster documents often overlap only
through hierarchy-adjacent (never identical) concepts, while cross-cluster
documents can overlap only through isolated shared noise concepts.  Since
the clusters are graph-disconnected from each other and from the noise,
related-concept credit flows exclusively between same-label documents.
"""

from __future__ import annotations

import json
import random

from nniou import Document, KnowledgeGraph


def planted_cluster_corpus(seed: int = 20240810, docs_per_cluster: int = 50):
    """(graph, documents, class_map, edge_lines) with two label clusters."""
    rng = random.Random(seed)
    pairs = {
        "ct": [("C0000011", "C0000012"), ("C0000021", "C0000022"), ("C0000031", "C0000032")],
        "mri": [("C0000041", "C0000042"), ("C0000051", "C0000052"), ("C0000061", "C0000062")],
    }
    noise = [f"C00001{i:02d}" for i in range(1, 9)]
    filler = [f"C00002{i:02d}" for i in range(1, 9)]

    edges: list[tuple[str, str]] = []
    for cluster_pairs in pairs.values():
        edges.extend(cluster_pairs)
    edges.extend((filler[i], filler[i + 1]) for i in range(len(filler) - 1))

    graph = KnowledgeGraph.from_edges(edges, nodes=noise)

    docs: list[Document] = []
    for label, cluster_pairs in pairs.items():
        for i in range(docs_per_cluster):
            chosen = rng.sample(cluster_pairs, 2)
            concepts = {pair[rng.randint(0, 1)] for pair in chosen}
            concepts |= set(rng.sample(noise, rng.randint(1, 2)))
            docs.append(
                Document(f"{label}{i:03d}", frozenset(concepts), {"modality": label})
            )

    class_map = {
        "modality": {
            label: frozenset(c for pair in cluster_pairs for c in pair)
            for label, cluster_pairs in pairs.items()
        }
    }

    edge_lines = [f"{child}\t{parent}" for child, parent in edges] + list(noise)
    return graph, docs, class_map, edge_lines


def write_fixture_files(tmp_path, docs, class_map, edge_lines):
    """Materialize a corpus/edge-file/class-map triple for CLI-level tests."""
    edges = tmp_path / "edges.tsv"
    edges.write_text("\n".join(edge_lines) + "\n", encoding="utf-8")
    lines = []
    for doc in docs:
        record: dict = {"id": doc.id, "cuis": sorted(doc.concepts)}
        if doc.labels:
            record["labels"] = doc.labels
        lines.append(json.dumps(record))
    corpus = tmp_path / "corpus.jsonl"
    corpus.write_text("\n".join(lines) + "\n", encoding="utf-8")
    cmap = tmp_path / "classes.json"
    cmap.write_text(
        json.dumps(
            {
                category: {value: sorted(concepts) for value, concepts in values.items()}
                for category, values in class_map.items()
            }
        ),
        encoding="utf-8",
    )
    return edges, corpus, cmap


def random_tree_corpus(seed: int = 7, num_nodes: int = 1200, num_docs: int = 1000):
    """(graph, documents): a connected random taxonomy and a large corpus."""
    rng = random.Random(seed)
    names = [f"C{2000000 + i:07d}" for i in range(num_nodes)]
    edges = [(names[i], names[rng.randrange(i)]) for i in range(1, num_nodes)]
    graph = KnowledgeGraph.from_edges(edges)
    docs = [
        Document(
            f"doc{i:04d}",
            frozenset(rng.sample(names, rng.randint(3, 4))),
        )
        for i in range(num_docs)
    ]
    return graph, docs


EDGE_ORDERS = ("parents-first", "shuffled", "multi-parent")


def write_edge_file(path, seed: int, order: str, num_nodes: int = 40):
    """Write a seeded random taxonomy as an edge file; return its (child, parent) records.

    The taxonomy is a random recursive tree over ``num_nodes`` concepts.
    ``parents-first`` lists each node's record after its parent was named,
    so every record names a new child; ``shuffled`` lists the same records
    in random order; ``multi-parent`` lists them parents first, then gives
    a quarter of the nodes a second, earlier parent, so children repeat but
    the edges stay acyclic.
    """
    rng = random.Random(seed)
    names = [f"C{3000000 + i:07d}" for i in rng.sample(range(num_nodes), num_nodes)]
    parent_of = [0] + [rng.randrange(i) for i in range(1, num_nodes)]
    edges = [(names[i], names[parent_of[i]]) for i in range(1, num_nodes)]
    if order == "shuffled":
        rng.shuffle(edges)
    elif order == "multi-parent":
        for i in rng.sample(range(2, num_nodes), (num_nodes - 2) // 4):
            second = rng.randrange(i - 1)
            second += second >= parent_of[i]
            edges.append((names[i], names[second]))
    elif order != "parents-first":
        raise ValueError(f"unknown order {order!r}; expected one of {EDGE_ORDERS}")
    lines = ["# child\tparent"] + [f"{child}\t{parent}" for child, parent in edges]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return edges
