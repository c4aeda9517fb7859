"""Check the output digests of one workload's benchmark smoke runs.

Usage (from the repository root)::

    python3 .github/benchmark_digests.py WORKLOAD RUN.out [RUN.out ...]

Each ``RUN.out`` holds the stdout of one
``benchmarks/run.py --workload WORKLOAD --seed SEED --trace 0|1`` run; the
line before the last one carries the workload, the seed and the SHA-256 of
every output file.  The check fails when a run is of another workload or of
a seed with no table below, when runs of one seed (``--trace 0`` and
``--trace 1``) differ in their digests, or when a run's digests differ from
its seed's table: the index, runs, eval report and ablation CSV that every
change so far has kept byte-identical.  They are CPython 3.11's: on 3.12
and later the ablate-labelled eval report differs in one aggregate's last
digit.  A change that alters output bytes on purpose updates the tables and
says why in CHANGES.md.
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


def summary(path: str) -> dict:
    with open(path, encoding="utf-8") as out:
        return json.loads(out.read().splitlines()[-2])


def main(argv: list[str]) -> int:
    if len(argv) < 2:
        print("usage: benchmark_digests.py WORKLOAD RUN.out [RUN.out ...]", file=sys.stderr)
        return 2
    workload, *paths = argv
    problems = []
    by_seed: dict[int, dict[str, str]] = {}
    for path in paths:
        run = summary(path)
        seed, got = run["seed"], run["digests"]
        if run["workload"] != workload:
            problems.append(f"{path}: a run of {run['workload']}")
        elif seed not in TABLES:
            problems.append(f"{path}: no digest table for seed {seed}")
        elif by_seed.setdefault(seed, got) != got:
            problems.append(f"{path}: seed {seed} outputs differ from an earlier run's")
        else:
            for stage, want in TABLES[seed][workload].items():
                if got.get(stage) != want:
                    problems.append(
                        f"seed {seed} {stage} output SHA-256 {got.get(stage)} != {want}"
                    )
    for problem in problems:
        print(f"{workload}: {problem}", file=sys.stderr)
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
