from __future__ import annotations

import warnings

import pytest
from hypothesis import settings

from nniou import KnowledgeGraph

settings.register_profile("suite", deadline=None)
settings.load_profile("suite")

# Hypothesis's pytest plugin imports hypothesis.extra._patching while it
# reports a failing test, and that imports libcst where it is installed,
# which raises a DeprecationWarning about mypy_extensions.TypedDict.  Under
# ``-W error`` that warning turns the failure report into an INTERNALERROR
# and the falsifying example is lost, so import the module once here with
# that one warning ignored.
with warnings.catch_warnings():
    warnings.filterwarnings(
        "ignore", message="mypy_extensions.TypedDict is deprecated",
        category=DeprecationWarning,
    )
    try:
        import hypothesis.extra._patching  # noqa: F401
    except ImportError:
        pass

# Real UMLS is_a fragments with well-known taxonomy distances: veins sit one
# hop from blood vessels; brain stem reaches head in three hops via brain
# and the intracranial region.  The middle edges point against each other so
# the three-hop path exists only under undirected traversal.
ANATOMY_EDGES = [
    ("C0042449", "C0005847"),
    ("C0006121", "C0006104"),
    ("C0926510", "C0006104"),
    ("C0926510", "C0018670"),
]


@pytest.fixture(scope="session")
def anatomy_graph() -> KnowledgeGraph:
    return KnowledgeGraph.from_edges(ANATOMY_EDGES)


@pytest.fixture(scope="session")
def chain_graph() -> KnowledgeGraph:
    # undirected chain d - b - a - c
    return KnowledgeGraph.from_edges([("d", "b"), ("b", "a"), ("a", "c")])


@pytest.fixture()
def anatomy_edge_file(tmp_path):
    path = tmp_path / "anatomy.tsv"
    lines = ["# is_a edges"] + [f"{c}\t{p}" for c, p in ANATOMY_EDGES]
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    return path
