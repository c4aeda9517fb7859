"""What outside code relies on: the public names, the module attributes the
benchmark traces, a runtime that needs nothing beyond the standard library,
a test suite that needs only pytest and hypothesis beside it, and the smoke
checks that CI runs.

``benchmarks/tracer.py`` replaces module globals of ``nniou`` by name, so a
rename or deletion inside the package would break the traced benchmark
without failing any other test.  The package's modules also take a few
private names from each other; those are pinned here too.
``.github/smoke_checks.py`` holds the checks of CI's ``benchmark-smoke``
job, each called from one of its steps, and reads each benchmark run's
verdict and output digests.
"""

from __future__ import annotations

import ast
import importlib
import importlib.util
import json
import re
import sys
from pathlib import Path

import pytest

import nniou

ROOT = Path(__file__).resolve().parents[1]
TRACER = ROOT / "benchmarks" / "tracer.py"
SMOKE = ROOT / ".github" / "smoke_checks.py"
WORKFLOW = ROOT / ".github" / "workflows" / "tests.yml"


def _load(path, name):
    """Import a script that is not on ``sys.path``, from its file."""
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_public_name_resolves():
    assert [name for name in nniou.__all__ if not hasattr(nniou, name)] == []
    assert len(set(nniou.__all__)) == len(nniou.__all__)


def test_every_traced_attribute_exists():
    tracer = _load(TRACER, "benchmark_tracer")
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


def test_every_smoke_check_runs_in_exactly_one_ci_step():
    """The workflow is read as text, since PyYAML is no test dependency; a
    step that names no check runs them all."""
    checks = _load(SMOKE, "smoke_checks").CHECKS
    job = re.search(r"^  benchmark-smoke:\n((?:    .*\n|\n)*)",
                    WORKFLOW.read_text(encoding="utf-8"), re.MULTILINE)
    steps = re.findall(r"^ +run: python3 \.github/smoke_checks\.py\b(.*)$", job[1], re.MULTILINE)
    called = [name for step in steps for name in step.split() or checks]
    assert sorted(called) == sorted(checks)


def _smoke_run_problems(tmp_path, edit=None):
    """``run_problems`` of one workload's three two-line ``run.out`` files,
    seed 1 plain and traced and seed 7 plain, each holding its seed's
    table, after ``edit`` of their ``[summary, verdict]`` pairs."""
    smoke = _load(SMOKE, "smoke_checks")
    workload = "sparse-large-kg"
    runs = [
        [{"workload": workload, "seed": seed, "digests": dict(smoke.TABLES[seed][workload])},
         {"correct": True, "attempted": 531, "failed": 0}]
        for seed in (1, 1, 7)
    ]
    if edit:
        edit(runs)
    paths = [tmp_path / f"run{i}.out" for i in range(len(runs))]
    for path, lines in zip(paths, runs):
        path.write_text("".join(json.dumps(line) + "\n" for line in lines), encoding="utf-8")
    return smoke.run_problems(workload, paths)


def test_the_smoke_run_reader_passes_runs_that_match_their_tables(tmp_path):
    assert _smoke_run_problems(tmp_path) == []


def _off_by_one_character(runs):
    digests = runs[2][0]["digests"]
    digests["ablate"] = digests["ablate"][:-1] + ("0" if digests["ablate"][-1] != "0" else "1")


@pytest.mark.parametrize(
    "edit, reported",
    [
        (lambda runs: runs[2][0].update(workload="dense-small-kg"),
         "run2.out: a run of dense-small-kg"),
        (lambda runs: runs[2][0].update(seed=2), "run2.out: no digest table for seed 2"),
        (lambda runs: runs[1][0]["digests"].update(eval="0" * 64),
         "run1.out: seed 1 outputs differ from an earlier run's"),
        (_off_by_one_character, "seed 7 ablate output SHA-256 "),
        (lambda runs: runs[1][1].update(correct=False), "run1.out: correct False, failed 0"),
        (lambda runs: runs[0][1].update(failed=1), "run0.out: correct True, failed 1"),
    ],
    ids=["other-workload", "seed-without-table", "seed-1-runs-disagree",
         "digest-off-by-one-character", "not-correct", "one-failed"],
)
def test_the_smoke_run_reader_reports_each_fault(tmp_path, edit, reported):
    problems = _smoke_run_problems(tmp_path, edit)
    assert len(problems) == 1
    assert problems[0].startswith(f"sparse-large-kg: {reported}")
