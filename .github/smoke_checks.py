"""The benchmark smoke checks: every output stays byte-identical, whatever the input order.

Usage, from anywhere::

    python3 .github/smoke_checks.py [CHECK ...]

With no CHECK, every check runs, in the order of ``CHECKS``; otherwise only
those named.  Each check works in a temporary directory of its own, prints
what it compared, and ends in one ``CHECK: passed`` or ``CHECK: FAILED``
line.  The script exits 0 when every check it ran passed, 1 when one
failed, and 2 on an unknown check name.

``runs`` runs ``benchmarks/run.py --seconds 1`` nine times: seed 1 plain
and traced, and seed 7 plain, on each workload.  ``run.py`` exits 0 even
when an output check fails, so the verdict is read from its last stdout
line, and the output digests from the line before it.  A run fails when
its verdict is not ``correct`` with 0 failed, when it is of another
workload or of a seed with no table below, when runs of one seed (plain
and traced) differ in their digests, or when its digests differ from its
seed's table: the index, runs, eval report and ablation CSV that every
change so far has kept byte-identical.  They are CPython 3.11's: on 3.12
and later the ablate-labelled eval report differs in one aggregate's last
digit.  A change that alters output bytes on purpose updates the tables and
says why in CHANGES.md.

The other five checks give one input to the CLI in two or more forms
that must not change its output; see each one's docstring.
"""

from __future__ import annotations

import json
import os
import random
import subprocess
import sys
import tempfile
from dataclasses import replace
from pathlib import Path
from typing import Callable, Iterable

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOADS = ("sparse-large-kg", "dense-small-kg", "ablate-labelled")

SEED_1 = {
    "sparse-large-kg": {
        "build-index": "00c40ba84795b472676b8e565016ff56f41c28eb22797ff21c28c99759bb27ea",
        "retrieve": "afffc5968f12e6612f0f0f970c188c49d22ffb9cd67671b25ff26a8d853fad7d",
        "eval": "2625b3ab01e034e60af632d3421f6c482804f4b4a07bb9dbbadd8cea008c120e",
        "ablate": "f8fe8513b16cc172839c3e016d34c99b704375b702bc7bd94b84bb341b01f039",
    },
    "dense-small-kg": {
        "build-index": "0c9c91f7ef7d0a850bb988eedc41872124dd411f41331d33db3e440055b338c3",
        "retrieve": "0b8af6a5762d4b3cf89ccef9d846ccdcccd6d494c699b121a259a6696ad1b013",
        "eval": "fbda702010883d660ee29c4a31b958960b30e5a1a9aa6e886eed0474a6f4972b",
        "ablate": "1d0a1b9276e842384bf410133a6e935a016087620cc42c642407941ca6e6d1ee",
    },
    "ablate-labelled": {
        "build-index": "e199208042c23ae853e8149047119f0876a533ce8e6794c8ec4a99ee97a5b2e5",
        "retrieve": "ef1d802be9876991edda70c70ff9eefb181d89aafe6f2ba10b4564df2835925c",
        "eval": "7b2a852189f124409b2f489a5bccd72ab23b33044c9cf9749078b8fcfb397edb",
        "ablate": "0e8a0440d8ce8937238996060e455531121593989d29417050947d6cfa89cb9d",
    },
}

SEED_7 = {
    "sparse-large-kg": {
        "build-index": "86deea8315fbc98e0668a435a7796c4520afa01cacc7e215b0ef4c700e1cdb96",
        "retrieve": "a312c51f1ae4ed7dcf1dfe1ac14dd71cdebb6f06f1fb1c633611a8bae1ca8a20",
        "eval": "9f5d9c541e5a73cd34238194d4cf4bc9fee3c6c76435eaa6c5c27e16d9b8a12d",
        "ablate": "724921588a40ba0ba9fcba4280c98572497ac26f5050e83cd860c84a9567470b",
    },
    "dense-small-kg": {
        "build-index": "5f110af8641988a030e23a3d8b80a3ef54c95ed0ef7b9075340a79d6be6d35c5",
        "retrieve": "bd13f787868d73a0c50ff5453889232696e5ae776b936ce57da3c9016b252229",
        "eval": "fbda702010883d660ee29c4a31b958960b30e5a1a9aa6e886eed0474a6f4972b",
        "ablate": "1f25021b2ebd3209a31631f9ce34f2eb51ddddc677bb32900cf794e1064acd02",
    },
    "ablate-labelled": {
        "build-index": "002d9b364838a1448a6119828239f30019faee9bed7c619ef0bbf846672dc4ef",
        "retrieve": "31509ffd46c47a0a919719fac4af9b3059d1fad1ab4cd62682c160d8d1653cdf",
        "eval": "657b90cfbb2cfa8b73b2a92e32819c5c94a4edb6f6a4e9830dc2b2ae1470b631",
        "ablate": "2515cf126b10ea6be04535509aaf9d21a7bb026da4cb953ce3d11a12614c1867",
    },
}

TABLES = {1: SEED_1, 7: SEED_7}


class CheckFailed(Exception):
    pass


def run_problems(workload: str, paths: Iterable[Path]) -> list[str]:
    """What is wrong with one workload's ``benchmarks/run.py`` outputs, one line each.

    Each path holds the stdout of one run; its last line is the verdict and
    the line before it the summary with the workload, seed and digests.
    """
    problems = []
    by_seed: dict[int, dict[str, str]] = {}
    for path in paths:
        run, verdict = map(json.loads, path.read_text(encoding="utf-8").splitlines()[-2:])
        if verdict["correct"] is not True or verdict["failed"] != 0:
            problems.append(f"{path.name}: correct {verdict['correct']}, failed {verdict['failed']}")
        seed, got = run["seed"], run["digests"]
        if run["workload"] != workload:
            problems.append(f"{path.name}: a run of {run['workload']}")
        elif seed not in TABLES:
            problems.append(f"{path.name}: no digest table for seed {seed}")
        elif by_seed.setdefault(seed, got) != got:
            problems.append(f"{path.name}: seed {seed} outputs differ from an earlier run's")
        else:
            for stage, want in TABLES[seed][workload].items():
                if got.get(stage) != want:
                    problems.append(
                        f"seed {seed} {stage} output SHA-256 {got.get(stage)} != {want}"
                    )
    return [f"{workload}: {problem}" for problem in problems]


def runs(directory: Path) -> None:
    """One-second benchmark runs, seed 1 plain and traced, seed 7 plain.

    Each workload's traced seed-1 outputs must equal its plain ones, and
    every run's outputs its seed's SHA-256 table.
    """
    for workload in WORKLOADS:
        outs = []
        for seed, trace in ((1, 0), (1, 1), (7, 0)):
            out = directory / f"{workload}-seed{seed}-trace{trace}.out"
            with out.open("w", encoding="utf-8") as stdout:
                subprocess.run(
                    [sys.executable, "benchmarks/run.py", "--workload", workload,
                     "--seed", str(seed), "--seconds", "1", "--trace", str(trace)],
                    cwd=ROOT, stdout=stdout, check=True,
                )
            verdict = out.read_text(encoding="utf-8").splitlines()[-1]
            print(f"{workload} seed={seed} trace={trace}: {verdict}")
            outs.append(out)
        problems = run_problems(workload, outs)
        if problems:
            raise CheckFailed("\n".join(problems))


def _seed_1_inputs(workload: str, directory: Path) -> dict[str, Path]:
    """Write a benchmark workload's seed-1 edge file, corpus and class map
    into ``directory``, and return their paths by kind."""
    import workloads

    inputs = workloads.WORKLOADS[workload].generate(random.Random(1))
    return workloads.write_inputs(inputs, directory)


def _cli(*args: str, check: bool = True, **run) -> subprocess.CompletedProcess:
    """Run ``python3 -m nniou.cli`` on the package under ``src/``, in a process of its own."""
    return subprocess.run([sys.executable, "-m", "nniou.cli", *args], cwd=ROOT,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, check=check, **run)


def _build_index(directory: Path, edges: str, n: int, **run) -> subprocess.CompletedProcess:
    """``build-index`` of ``directory/EDGES.tsv`` over its ``corpus.jsonl``, into ``EDGES.nnidx``."""
    return _cli("build-index", "--edges", str(directory / f"{edges}.tsv"),
                "--corpus", str(directory / "corpus.jsonl"), "--n", str(n),
                "--out", str(directory / f"{edges}.nnidx"), **run)


def _same_after_header(a: Path, b: Path) -> None:
    """Fail unless two files are byte-identical after their first lines."""
    if a.read_bytes().partition(b"\n")[2] != b.read_bytes().partition(b"\n")[2]:
        raise CheckFailed(f"{a.name} and {b.name} differ after their header lines")


def orders(directory: Path) -> None:
    """The seed-1 sparse graph gives one index, parents first or shuffled.

    build-index scans a top-down file's edge lists, while any other record
    order gets Kahn's peel and the undirected view; both must index the
    corpus alike.  Only the header lines differ: each names its own file's
    checksum.  Distances and neighbours agree too: the near pairs come
    first, so the parents-first graph answers them by scanning, and a long
    walk after them builds its view partway through; the shuffled graph has
    had its view since load.
    """
    from nniou import parse_edge_file, shortest_path_len

    edges = _seed_1_inputs("sparse-large-kg", directory)["edges"]
    header, *records = edges.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(7).shuffle(records)
    (directory / "shuffled.tsv").write_text(header + "".join(records), encoding="utf-8")
    for name in ("kg", "shuffled"):
        _build_index(directory, name, 2)
    _same_after_header(directory / "kg.nnidx", directory / "shuffled.nnidx")

    kg, shuffled = (parse_edge_file(directory / f"{name}.tsv") for name in ("kg", "shuffled"))
    parent = dict(kg.edges())
    rng = random.Random(1)
    pairs = []
    for hops in (1, 2, 3, 1, 2):
        up = [rng.choice(kg.node_names)]
        while len(up) <= hops and up[-1] in parent:
            up.append(parent[up[-1]])
        pairs.append((up[0], up[-1]))
    pairs += [tuple(rng.sample(kg.node_names, 2)) for _ in range(5)]
    for x, y in pairs:
        near, far = shortest_path_len(kg, x, y), shortest_path_len(shuffled, x, y)
        if near != far:
            raise CheckFailed(f"{x} to {y}: {near} hops parents first, {far} shuffled")
        print(f"{x} to {y}: {near} hop(s)")
    for name in sorted({name for pair in pairs for name in pair}):
        if set(kg.neighbors(name)) != set(shuffled.neighbors(name)):
            raise CheckFailed(f"the neighbours of {name} differ between the two orders")


def edgeless(directory: Path) -> None:
    """The seed-1 sparse graph gives one index with a byte-order mark, CRLF
    ends and edgeless lines.

    The loader interns a plain child<TAB>parent record inline and sends
    every other line through the full rules, which count it for line
    numbers; a comment, a blank line, a whitespace-only line and a node
    line after every 1,000 records take that path 200 times over.  The node
    line names a child already written, so the file stays top-down.
    """
    edges = _seed_1_inputs("sparse-large-kg", directory)["edges"]
    header, *records = edges.read_text(encoding="utf-8").splitlines()
    lines = [header]
    for i, record in enumerate(records, start=1):
        lines.append(record)
        if i % 1000 == 0:
            lines += [f"# after record {i}", "", " \t ", record.partition("\t")[0]]
    text = "\ufeff" + "\r\n".join(lines) + "\r\n"
    (directory / "marked.tsv").write_bytes(text.encode("utf-8"))
    for name in ("kg", "marked"):
        _build_index(directory, name, 1)
    _same_after_header(directory / "kg.nnidx", directory / "marked.nnidx")


def undecodable(directory: Path) -> None:
    """A bad byte deep in the seed-1 sparse graph exits 2 naming its line and offset.

    The loader reads the 3.6 MB file once and places the byte in those
    bytes, not in the last 8 KiB block it decoded; build-index writes no
    index.
    """
    edges = _seed_1_inputs("sparse-large-kg", directory)["edges"]
    # line 1 is the header, so record 150,000 starts line 150,001
    lines = edges.read_bytes().splitlines(keepends=True)
    head = b"".join(lines[:150000])
    edges.write_bytes(head + b"\xff" + b"".join(lines[150000:]))
    built = _build_index(directory, "kg", 1, check=False, stderr=subprocess.PIPE)
    want = (f"error: line 150001: 'utf-8' codec can't decode byte 0xff in position"
            f" {len(head)}: invalid start byte\n").encode("utf-8")
    if built.returncode != 2:
        raise CheckFailed(f"build-index exited {built.returncode}, not 2")
    if built.stderr != want:
        raise CheckFailed(f"build-index wrote {built.stderr!r} to stderr, not {want!r}")
    if (directory / "kg.nnidx").exists():
        raise CheckFailed("build-index wrote an index")


def one_walk(directory: Path) -> None:
    """The seed-1 labelled sweep gives one grid from one walk as from a walk per radius.

    ablate walks the graph once, to its largest radius, and takes every
    radius's index from that walk; its rows over --radii 2,0,1 must equal,
    byte for byte and in that order, those of one run per radius.
    """
    paths = _seed_1_inputs("ablate-labelled", directory)

    def sweep(radii: str) -> bytes:
        printed = _cli("ablate", "--edges", str(paths["edges"]), "--corpus", str(paths["corpus"]),
                       "--class-map", str(paths["class_map"]),
                       "--lambdas", "0.0,0.1,0.3,0.5,0.7,1.0", "--ks", "10,30",
                       "--radii", radii, stdout=subprocess.PIPE).stdout
        return printed.partition(b"\n")[2]

    joint = sweep("2,0,1")
    if joint != b"".join(sweep(radius) for radius in ("2", "0", "1")):
        raise CheckFailed("the --radii 2,0,1 rows differ from those of one run per radius")
    # 3 radii, 6 lambdas and 2 cutoffs
    rows = joint.count(b"\n")
    if rows != 36:
        raise CheckFailed(f"{rows} ablation rows, not 36")


def shuffled(directory: Path) -> None:
    """The seed-1 sparse, dense and labelled corpora give one result, in id
    order or shuffled.

    The scoring core numbers documents by ascending id, which every
    benchmark corpus already lists them in; a shuffled corpus must give the
    same index, eval report and ablation CSV byte for byte, and the same
    runs once their lines are sorted by query.  Every sparse query is
    walked and every dense one summed, so both count shapes are checked, a
    walked query's candidate list and a summed query's row, and with them
    the near table: dense retrieve and eval at radius 2, and ablate on the
    labelled grid at radii 1-2, where only graded queries are asked.

    Each corpus also gets IoU runs (``retrieve --measure iou``), which are
    not the ground truth, graded by ``eval`` at the workload's lambda and
    index: their report must be byte-equal too, so gains below the ideal
    go through the sums on dense and through the walk on sparse and
    labelled.
    """
    import workloads
    from nniou.cli import main

    grid = workloads.WORKLOADS["ablate-labelled"]
    for name in WORKLOADS:
        # eval with the class map, and ablate over the labelled workload's full grid
        w = replace(workloads.WORKLOADS[name], eval_class_map=True,
                    ablate_radii=grid.ablate_radii, ablate_lambdas=grid.ablate_lambdas,
                    ablate_ks=grid.ablate_ks)
        paths = _seed_1_inputs(name, directory / name)
        records = paths["corpus"].read_text(encoding="utf-8").splitlines(keepends=True)
        random.Random(7).shuffle(records)
        mixed_corpus = directory / name / "shuffled.jsonl"
        mixed_corpus.write_text("".join(records), encoding="utf-8")
        outputs = []
        for corpus in (paths["corpus"], mixed_corpus):
            out = directory / name / f"{corpus.stem}-out"
            out.mkdir()
            argv, written = workloads.stage_plan(w, {**paths, "corpus": corpus}, out)
            written |= {"retrieve-iou": out / "iou.runs", "eval-iou": out / "iou-report.json"}
            argv["retrieve-iou"] = ["retrieve", "--corpus", str(corpus), "--measure", "iou",
                                    "--k", str(w.k), "--out", str(written["retrieve-iou"])]
            argv["eval-iou"] = ["eval", "--corpus", str(corpus),
                                "--runs", str(written["retrieve-iou"]),
                                "--index", str(written["build-index"]), "--lambda", repr(w.lam),
                                "--k", str(w.k), "--out", str(written["eval-iou"])]
            for stage, args in argv.items():
                if main(args) != 0:
                    raise CheckFailed(f"{name}: {stage} failed on {corpus.name}")
            outputs.append({stage: path.read_bytes() for stage, path in written.items()})
        ordered, mixed = outputs
        for stage in ("build-index", "eval", "ablate", "eval-iou"):
            if ordered[stage] != mixed[stage]:
                raise CheckFailed(f"{name}: {stage} output differs on the shuffled corpus")
        for stage in ("retrieve", "retrieve-iou"):
            if sorted(ordered[stage].splitlines()) != sorted(mixed[stage].splitlines()):
                raise CheckFailed(f"{name}: {stage} runs differ on the shuffled corpus")
        graded = json.loads(ordered["eval-iou"])["reports"][0]
        print(f"{name}: every output agrees on the shuffled corpus; the IoU runs grade "
              f"{graded['metric']} = {graded['aggregate']!r}")


CHECKS: dict[str, Callable[[Path], None]] = {
    "runs": runs,
    "orders": orders,
    "edgeless": edgeless,
    "undecodable": undecodable,
    "one-walk": one_walk,
    "shuffled": shuffled,
}


def main(argv: list[str]) -> int:
    unknown = [name for name in argv if name not in CHECKS]
    if unknown:
        print(f"usage: smoke_checks.py [CHECK ...]; unknown {', '.join(unknown)}; "
              f"the checks are {', '.join(CHECKS)}", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "benchmarks"), str(SRC)]
    # each line out before a child process writes its own
    sys.stdout.reconfigure(line_buffering=True)
    failed = []
    for name in argv or CHECKS:
        with tempfile.TemporaryDirectory(prefix=f"smoke-{name}-") as directory:
            try:
                CHECKS[name](Path(directory))
            except (CheckFailed, subprocess.CalledProcessError) as exc:
                print(f"{name}: FAILED: {exc}", file=sys.stderr)
                failed.append(name)
                continue
        print(f"{name}: passed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
