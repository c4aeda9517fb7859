"""Check the output digests of one workload's benchmark smoke runs.

Usage (from the repository root)::

    python3 .github/benchmark_digests.py WORKLOAD PLAIN.out TRACED.out

``PLAIN.out`` and ``TRACED.out`` hold the stdout of
``benchmarks/run.py --workload WORKLOAD --seed 1`` with ``--trace 0`` and
``--trace 1``; the line before the last one carries the SHA-256 of every
output file.  The check fails when the traced run's digests differ from the
plain run's, or the plain run's from the seed-1 table below: the index,
runs, eval report and ablation CSV that every change so far has kept
byte-identical.  They are CPython 3.11's: on 3.12 and later the
ablate-labelled eval report differs in one aggregate's last digit.  A
change that alters output bytes on purpose updates the table and says why
in CHANGES.md.
"""

from __future__ import annotations

import json
import sys

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


def digests(path: str) -> dict[str, str]:
    with open(path, encoding="utf-8") as out:
        return json.loads(out.read().splitlines()[-2])["digests"]


def main(argv: list[str]) -> int:
    workload, plain, traced = argv
    got = digests(plain)
    problems = []
    if digests(traced) != got:
        problems.append("--trace 1 outputs differ from --trace 0 outputs")
    for stage, want in SEED_1[workload].items():
        if got.get(stage) != want:
            problems.append(f"{stage} output SHA-256 {got.get(stage)} != {want}")
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
