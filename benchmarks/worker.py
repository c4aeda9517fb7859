"""Run one workload's CLI stages in this (fresh) interpreter and report timings.

Started by ``run.py`` once per benchmark run, so peak memory and warm
caches never carry over from input generation or from another workload.
Each stage is a real ``nniou`` command run in-process through
``nniou.cli.main``; its wall time is measured around that call.

Untraced (``--trace 0``): ``build-index`` runs at least three times and
until a second of set-up has been measured, then ``retrieve``, ``eval`` and
``ablate`` repeat as whole passes while another pass fits in ``--seconds``.
Traced (``--trace 1``): one untraced pass, then one pass with every layer
wrapped, so the per-stage difference is the tracing overhead.  A speed
probe runs between consecutive commands in both modes.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import io
import json
import resource
import statistics
import sys
import traceback
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(Path(__file__).resolve().parent))

SETUP_MIN_RUNS = 3
SETUP_MIN_SECONDS = 1.0
SETUP_MAX_RUNS = 20


def _digest(path: str) -> str | None:
    try:
        return hashlib.sha256(Path(path).read_bytes()).hexdigest()
    except OSError:
        return None


# The machine's speed is sampled next to every timed command, because on a
# shared host it can change by half within a minute (for instance when
# another tenant loads the sibling hyperthread).  ``run.py`` scales each
# command's wall time by the probe taken around it.  The probe is a small
# nn-IoU retrieval written here, so it stresses the interpreter the way the
# program does but never runs the program's code.
_PROBE_CONCEPTS = [f"P{i:07d}" for i in range(4000)]
_PROBE_NEIGHBORS = {
    c: frozenset(_PROBE_CONCEPTS[(i + d) % 4000] for d in (1, 7, 31))
    for i, c in enumerate(_PROBE_CONCEPTS)
}
_PROBE_DOCS = [
    frozenset(_PROBE_CONCEPTS[(i * 7919 + j * 104729) % 4000] for j in range(3 + i % 5))
    for i in range(400)
]
PROBE_REPEATS = 5


def _probe_once() -> float:
    start = perf_counter()
    for q in _PROBE_DOCS[:10]:
        def score(d, q=q):
            shared = q & d
            rel = sum(1 for x in d - shared if _PROBE_NEIGHBORS[x] & q)
            rel += sum(1 for y in q - shared if _PROBE_NEIGHBORS[y] & d)
            return (len(shared) + 0.5 * rel) / len(q | d)

        sorted(range(len(_PROBE_DOCS)), key=lambda i: (-score(_PROBE_DOCS[i]), i))
    return perf_counter() - start


def speed_probe() -> float:
    """Median seconds of a fixed ~25 ms job over five repeats; one hiccup does not count."""
    return statistics.median(_probe_once() for _ in range(PROBE_REPEATS))


class Stages:
    """Runs CLI stages and keeps every timing, speed probe, exit status and output digest."""

    def __init__(self, plan: dict, call):
        self.argv = plan["stages"]
        self.outputs = plan["outputs"]
        self.call = call
        self.record = {stage: {"seconds": [], "codes": [], "digests": [], "probe": []}
                       for stage in self.argv}
        self.last_probe: float | None = None
        self.log: list[str] = []

    def run(self, stage: str) -> float:
        # A command run on its own starts with an empty heap; collect what the
        # previous command left so its garbage is not charged to this one.
        gc.collect()
        before = self.last_probe if self.last_probe is not None else speed_probe()
        captured = io.StringIO()
        with contextlib.redirect_stdout(captured), contextlib.redirect_stderr(captured):
            start = perf_counter()
            try:
                code = self.call(stage, self.argv[stage])
            except Exception:  # noqa: BLE001 - a crash is a failed operation, not a lost run
                code = -1
                captured.write(traceback.format_exc())
            elapsed = perf_counter() - start
        entry = self.record[stage]
        entry["seconds"].append(elapsed)
        self.last_probe = speed_probe()
        entry["probe"].append((before + self.last_probe) / 2)  # probes on both sides
        entry["codes"].append(code)
        entry["digests"].append(_digest(self.outputs[stage]))
        if code != 0:
            self.log.append(f"{stage} exited {code}: {captured.getvalue()[-2000:]}")
        return elapsed

    def setup(self) -> None:
        spent = 0.0
        runs = 0
        while runs < SETUP_MIN_RUNS or (spent < SETUP_MIN_SECONDS and runs < SETUP_MAX_RUNS):
            spent += self.run("build-index")
            runs += 1

    def one_pass(self) -> None:
        for stage in self.argv:
            if stage != "build-index":
                self.run(stage)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--plan", required=True)
    parser.add_argument("--result", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    from nniou import cli, neighbor_index, ranking_eval

    plan = json.loads(Path(args.plan).read_text(encoding="utf-8"))
    result: dict = {}
    if args.trace == 0:
        stages = Stages(plan, lambda stage, argv: cli.main(argv))
        start = perf_counter()
        stages.setup()
        while True:
            pass_start = perf_counter()
            stages.one_pass()
            last = perf_counter() - pass_start
            if perf_counter() - start + last > args.seconds:
                break
    else:
        import tracer as tracing

        tr = tracing.Tracer()
        stages = Stages(plan, lambda stage, argv: cli.main(argv))
        stages.run("build-index")
        stages.one_pass()
        spans = {stage: tr.span(f"cli.{stage}", cli.main) for stage in plan["stages"]}

        def traced_call(stage, argv):
            tr.stage = stage
            return spans[stage](argv)

        stages.call = traced_call
        modules = {"cli": cli, "ranking_eval": ranking_eval, "neighbor_index": neighbor_index}
        with tr.installed(modules):
            stages.run("build-index")
            stages.one_pass()
        layers = tracing.layer_metrics(tr, list(plan["stages"]))
        result["layers"] = {name: list(value) for name, value in layers.items()}
        if args.trace_out:
            tr.write(args.trace_out)

    result["stages"] = stages.record
    result["log"] = stages.log
    result["peak_rss_kib"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    Path(args.result).write_text(json.dumps(result), encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
