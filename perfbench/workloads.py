"""The three workloads: their inputs and the ``palinopt`` jobs run on them.

A job is one ``palinopt.cli.main(argv)`` call.  Jobs run in list order,
wrapping around, and a run only stops at the end of a cycle (a fixed number
of jobs), so every run holds the same mix of job kinds.  Paths are relative
to the worker's own directory, where ``write_inputs`` puts the inputs.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from pathlib import Path

import inputs

OUT = "{out}"  # replaced by the job's own output file


@dataclass(frozen=True)
class Job:
    kind: str  # compile | count | trie
    argv: tuple[str, ...]
    input: str = ""  # input file read by the job
    order: str = ""  # compile: poa or conventional


@dataclass(frozen=True)
class Workload:
    jobs: tuple[Job, ...]
    cycle: int  # a run ends only after a multiple of this many jobs
    warmup: tuple[Job, ...]


def _compile(path: str, order: str) -> Job:
    argv = ("compile", "--input", path, "--order", order, "--output", OUT, "--cancel", "--verify")
    return Job("compile", argv, path, order)


def _trie(path: str) -> Job:
    return Job("trie", ("trie", "--input", path), path)


# count --range 2..COUNT_HI: Table 2 for n <= 7 and the closed forms at n=8.
COUNT_LO, COUNT_HI = 2, 8
COUNT = Job("count", ("count", "--range", f"{COUNT_LO}..{COUNT_HI}", "--mode", "both"))
TRIE_N = 7
# structure_n8: trie jobs per count job, so that the median job is a trie
# job and a run holds a dozen or more of them.
TRIES = 5

# batch_small: sizes per 200-job cycle.  The median job lies near the middle
# of the n=3 block (the 55th of 120), far from the n=2 and n=4 blocks, so
# job-to-job noise of up to ~25% cannot move it to another size; the p99
# falls inside the n=5 block.
BATCH_SIZES = {2: 45, 3: 120, 4: 30, 5: 5}

# Distinct input matrices of compile_poa_n6; jobs cycle through them.
POA_N6_INPUTS = 8


def workload(name: str) -> Workload:
    if name == "compile_poa_n6":
        jobs = tuple(_compile(f"in/u{k}.mat", "poa") for k in range(POA_N6_INPUTS))
        return Workload(jobs, 1, (_compile("in/warm.mat", "poa"),))
    if name == "batch_small":
        count = sum(BATCH_SIZES.values())
        jobs = tuple(_compile(f"in/u{k}.mat", "poa") for k in range(count))
        return Workload(jobs, count, (_compile("in/warm.mat", "poa"),))
    if name == "structure_n8":
        trie = _trie("in/poa7.circ")
        warm = (Job("count", ("count", "--n", "2", "--mode", "both")), _trie("in/warm.circ"))
        return Workload((COUNT,) + (trie,) * TRIES, 1 + TRIES, warm)
    raise ValueError(f"unknown workload {name!r}")


NAMES = ("compile_poa_n6", "batch_small", "structure_n8")


def write_inputs(name: str, seed: int, workdir: Path) -> None:
    """Write every input file of the workload (and its warm-up) from the seed."""
    rng = inputs.rng_for(seed, name)
    indir = workdir / "in"
    indir.mkdir(parents=True, exist_ok=True)

    def matrix(path: str, n: int) -> None:
        (workdir / path).write_text(inputs.matrix_text(inputs.haar_unitaries(rng, n, 1)[0]))

    if name == "structure_n8":
        (indir / "poa7.circ").write_text(inputs.uncancelled_poa_circuit_text(TRIE_N, rng))
        (indir / "warm.circ").write_text(inputs.uncancelled_poa_circuit_text(2, rng))
        return
    matrix("in/warm.mat", 2)
    if name == "batch_small":
        sizes = [n for n, k in BATCH_SIZES.items() for _ in range(k)]
        random.Random(int(rng.integers(2**63))).shuffle(sizes)
    else:
        sizes = [6] * POA_N6_INPUTS
    for k, n in enumerate(sizes):
        matrix(f"in/u{k}.mat", n)
