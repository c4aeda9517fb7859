"""What outside code relies on: the public names, the module attributes the
benchmark traces, a runtime that needs nothing beyond the standard library,
and a test suite that needs only pytest and hypothesis beside it.

``benchmarks/tracer.py`` replaces module globals of ``nniou`` by name, so a
rename or deletion inside the package would break the traced benchmark
without failing any other test.  The package's modules also take a few
private names from each other; those are pinned here too.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import sys
from pathlib import Path

import nniou

TRACER = Path(__file__).resolve().parents[1] / "benchmarks" / "tracer.py"


def test_every_public_name_resolves():
    assert [name for name in nniou.__all__ if not hasattr(nniou, name)] == []
    assert len(set(nniou.__all__)) == len(nniou.__all__)


def test_every_traced_attribute_exists():
    spec = importlib.util.spec_from_file_location("benchmark_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    traced = [(module, attr) for module, attr, _ in tracer.SPANS + tracer.LEAVES]
    assert traced
    missing = [
        f"nniou.{module}.{attr}"
        for module, attr in traced
        if not hasattr(importlib.import_module(f"nniou.{module}"), attr)
    ]
    assert missing == []


def _imports_outside(modules, allowed=frozenset()):
    """``file: name`` for each absolute import, anywhere in ``modules``, of a
    name that is neither in the standard library nor under ``allowed``."""
    outside = []
    for module in modules:
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom) and not node.level:
                names = [node.module]
            else:
                continue
            outside += [
                f"{module.name}: {name}" for name in names
                if name.split(".")[0] not in sys.stdlib_module_names | allowed
            ]
    return outside


def test_the_runtime_imports_only_the_standard_library():
    modules = sorted(Path(nniou.__file__).parent.rglob("*.py"))
    assert modules
    assert _imports_outside(modules) == []


def test_the_suite_imports_only_the_standard_library_pytest_hypothesis_and_nniou():
    """So tier-1 runs on any supported interpreter that has pytest and hypothesis."""
    modules = sorted(Path(__file__).parent.rglob("*.py"))
    own = {module.stem for module in modules}
    assert _imports_outside(modules, {"pytest", "hypothesis", "nniou", *own}) == []


def test_cross_module_private_imports_are_the_known_few():
    """Each ``from .module import _name`` inside the package, so a new reach
    into another module's private names has to change this list."""
    reached = []
    for module in sorted(Path(nniou.__file__).parent.glob("*.py")):
        for node in ast.walk(ast.parse(module.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and node.level:
                reached += [(module.stem, node.module, alias.name) for alias in node.names
                            if alias.name.startswith("_")]
    assert sorted(reached) == [
        ("cli", "ranking_eval", "_label_matches"),
        ("cli", "ranking_eval", "_no_repeats"),
        ("corpus", "neighbor_index", "_UNSTORABLE"),
    ]
