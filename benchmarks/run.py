"""End-to-end benchmark for the nniou CLI: build-index, retrieve, eval, ablate.

Usage (from the repository root)::

    python3 benchmarks/run.py --workload sparse-large-kg --seed 1 --seconds 36 --trace 0

The seed fixes the generated taxonomy, corpus and class map, which are
written to files before any timing starts.  A fresh interpreter
(``worker.py``) then runs the real CLI stages on those files only.  The
outputs are checked here against an independent reference, and the last
line printed is one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end stage times and peak
memory; with ``--trace 1`` they are the per-layer numbers of one traced
pass.  A stage time is the median over the run's repeats of the command's
wall time scaled to a reference machine speed: a fixed pure-Python probe
runs before and after each command, and the wall time is multiplied by
``REFERENCE_PROBE_S`` over the probe's time.  On a shared host this removes
most of the swings in machine speed from the result.  The line before the
result carries the environment, the input properties, the SHA-256 of every
output, and the raw wall times and probe times.
Scratch files go to ``.benchmarks-work/`` under the repository root; the
run's summary and, when traced, its spans stay there after it ends.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import random
import shutil
import statistics
import subprocess
import sys
from fractions import Fraction
from pathlib import Path
from time import monotonic

import reference
from workloads import WORKLOADS, Inputs, Workload, stage_plan, write_inputs

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = ROOT / ".benchmarks-work"
DEADLINE_S = 170.0
SAMPLED_QUERIES = 16
# Probe time that defines the reference machine speed (this is about what
# the probe takes on a 2-vCPU Xeon VM).  A stage time is its wall time
# scaled by REFERENCE_PROBE_S / (probe time measured around that command).
REFERENCE_PROBE_S = 0.025


class Checks:
    """Counts operations (CLI calls and output checks) and the ones that failed."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def expect(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)


def _environment() -> dict:
    cpu = platform.processor()
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as info:
            cpu = next(line.split(":", 1)[1].strip() for line in info
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                                  capture_output=True, text=True, timeout=10)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    source = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        source.update(str(path.relative_to(ROOT)).encode() + b"\0" + path.read_bytes())
    return {
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "cpu_model": cpu,
        "commit": commit,
        "source_sha256": source.hexdigest(),
    }


def scaled_seconds(entry: dict) -> list[float]:
    """Wall times of one stage's repeats, scaled to the reference machine speed."""
    return [t * REFERENCE_PROBE_S / p for t, p in zip(entry["seconds"], entry["probe"])]


def _read_jsonl(path: Path) -> list[dict]:
    return [json.loads(line) for line in path.read_text(encoding="utf-8").splitlines() if line]


def input_properties(w: Workload, inputs: Inputs):
    """Reference neighbourhoods, nonzero partners per document, and the input counts."""
    docs = {doc_id: frozenset(cuis) for doc_id, cuis in inputs.docs}
    vocabulary = set().union(*docs.values())
    nbrs = reference.neighbourhoods(inputs.edges, vocabulary, w.radius)
    partners = reference.nonzero_partners(docs, nbrs, related=w.lam > 0 and w.radius > 0)
    n = len(docs)
    properties = {
        "documents": n,
        "vocabulary": len(vocabulary),
        "neighbor_links": sum(len(v) for v in nbrs.values()),
        "nonzero_pair_share": sum(partners.values()) / (n * (n - 1)),
        "zero_idcg_queries": sum(1 for v in partners.values() if v == 0),
    }
    return docs, nbrs, partners, properties


def check_outputs(w: Workload, docs: dict, nbrs: dict, partners: dict,
                  outputs: dict[str, Path], seed: int, checks: Checks) -> None:
    """Compare the program's output files with the reference."""
    index_lines = outputs["build-index"].read_text(encoding="utf-8").splitlines()[1:]
    index = {c: frozenset(x for x in ns.split(",") if x)
             for c, ns in (line.split("\t") for line in index_lines)}
    checks.expect(index == nbrs, "index neighbour sets differ from the reference BFS")

    runs = {r["query"]: r["ranked"] for r in _read_jsonl(outputs["retrieve"])}
    checks.expect(list(runs) == list(docs), "runs file does not hold one run per document")
    lam = Fraction(repr(w.lam))
    for query in random.Random(seed).sample(sorted(docs), SAMPLED_QUERIES):
        expected = reference.ranking(query, docs, lam, nbrs, w.k)
        checks.expect(runs.get(query) == expected, f"ranking for {query} differs from reference")

    reports = json.loads(outputs["eval"].read_text(encoding="utf-8"))["reports"]
    per_query = reports[0]["per_query"]
    for query, partner_count in partners.items():
        want = 1.0 if partner_count else 0.0
        checks.expect(per_query.get(query) == want,
                      f"nn-CUI@{w.k} of {query} is {per_query.get(query)}, expected {want}")

    lines = outputs["ablate"].read_text(encoding="utf-8").splitlines()
    rows = [line.split(",") for line in lines[1:]]
    cells = len(w.ablate_radii) * len(w.ablate_lambdas) * len(w.ablate_ks)
    checks.expect(lines[:1] == ["n,lambda,k,precision"] and len(rows) == cells,
                  "ablation CSV has the wrong shape")
    for k in w.ablate_ks:
        flat = {row[3] for row in rows if len(row) == 4 and row[0] == "0" and row[2] == str(k)}
        checks.expect(len(flat) <= 1, f"radius-0 precision varies with lambda at k={k}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args()
    started = monotonic()

    if not (ROOT / "src" / "nniou" / "cli.py").is_file():
        print(f"error: no nniou sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    w = WORKLOADS[args.workload]
    tag = f"{w.name}-seed{args.seed}-trace{args.trace}"
    work = WORK / tag
    shutil.rmtree(work, ignore_errors=True)
    inputs = w.generate(random.Random(args.seed))
    argv, outputs = stage_plan(w, write_inputs(inputs, work), work)
    plan = {"stages": argv, "outputs": {stage: str(path) for stage, path in outputs.items()}}
    (work / "plan.json").write_text(json.dumps(plan), encoding="utf-8")

    results = WORK / "results"
    results.mkdir(parents=True, exist_ok=True)
    command = [sys.executable, str(HERE / "worker.py"), "--plan", str(work / "plan.json"),
               "--result", str(work / "result.json"), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
    if args.trace:
        command += ["--trace-out", str(results / f"{tag}.spans.jsonl")]
    try:
        worker = subprocess.run(command, cwd=ROOT, capture_output=True, text=True,
                                timeout=DEADLINE_S - (monotonic() - started))
    except subprocess.TimeoutExpired:
        print("error: worker did not finish in time", file=sys.stderr)
        return 1
    if worker.returncode != 0:
        print(f"error: worker exited {worker.returncode}\n{worker.stderr}", file=sys.stderr)
        return 1
    result = json.loads((work / "result.json").read_text(encoding="utf-8"))
    record = result["stages"]

    checks = Checks()
    for stage, entry in record.items():
        for code in entry["codes"]:
            checks.expect(code == 0, f"{stage} exited {code}")
        checks.expect(len(set(entry["digests"])) == 1 and entry["digests"][0] is not None,
                      f"{stage} output missing or different between repeats")
    docs, nbrs, partners, properties = input_properties(w, inputs)
    try:
        check_outputs(w, docs, nbrs, partners, outputs, args.seed, checks)
    except (OSError, ValueError, KeyError, IndexError, TypeError) as exc:
        checks.expect(False, f"output unreadable: {exc!r}")
    digests = {stage: entry["digests"][0] for stage, entry in record.items()}
    for problem in checks.problems[:20] + result["log"][:5]:
        print(f"check failed: {problem}", file=sys.stderr)

    if args.trace == 0:
        metrics = {
            f"{'setup' if stage == 'build-index' else stage}_s":
                {"value": statistics.median(scaled_seconds(entry)), "unit": "s"}
            for stage, entry in record.items()
        }
        metrics["peak_rss_mib"] = {"value": result["peak_rss_kib"] / 1024, "unit": "MiB"}
    else:
        metrics = {name: {"value": value, "unit": unit}
                   for name, (value, unit) in result["layers"].items()}
        overhead = {}
        for stage, entry in record.items():
            plain, traced = scaled_seconds(entry)  # the plain pass ran first
            overhead[stage] = traced - plain
            metrics[f"trace.{stage}.overhead_s"] = {"value": overhead[stage], "unit": "s"}
        metrics["trace.overhead_s"] = {"value": sum(overhead.values()), "unit": "s"}
        for name, value in properties.items():
            unit = "ratio" if name == "nonzero_pair_share" else "count"
            metrics[f"input.{name}"] = {"value": value, "unit": unit}
        metrics["error_rate"] = {"value": checks.failed / checks.attempted, "unit": "ratio"}

    summary = {
        "workload": w.name,
        "seed": args.seed,
        "trace": args.trace,
        "environment": _environment(),
        "properties": properties,
        "digests": digests,
        "samples": {stage: len(entry["seconds"]) for stage, entry in record.items()},
        "wall_median_s": {stage: statistics.median(entry["seconds"])
                          for stage, entry in record.items()},
        "wall_seconds": {stage: entry["seconds"] for stage, entry in record.items()},
        "probe_seconds": {stage: entry["probe"] for stage, entry in record.items()},
        "problems": checks.problems[:20],
    }
    (results / f"{tag}.json").write_text(json.dumps(summary, indent=2), encoding="utf-8")
    shutil.rmtree(work, ignore_errors=True)
    print(json.dumps(summary))
    print(json.dumps({
        "correct": checks.failed == 0,
        "attempted": checks.attempted,
        "failed": checks.failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
