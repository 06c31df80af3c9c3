"""Runs one workload in a fresh process: set up, then jobs through palinopt.cli.main.

run.py starts this with the worker's own directory as working directory and
palinopt's ``src`` on PYTHONPATH.  Set-up is the import of palinopt, writing
the seeded inputs, and one small warm-up job of each kind; then the worker
prints READY.  With --setup-only it stops there.  Otherwise it runs the
workload's jobs back to back, in whole cycles, for as near --seconds as
whole cycles allow, keeps each job's stdout and circuit file, and writes
records.json.
With --trace 1 every job runs twice, untraced and then traced.
Before the first job, after the last, and after any job that ends at
least REF_EVERY_S after the last sample, it samples the host's speed with
speed.sample().  Each job records the index of the last sample before it;
the next sample is the first after it.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import platform
import resource
import sys
import time
import traceback
from pathlib import Path

import numpy as np
from palinopt import cli

import spans
import speed
import workloads

REF_EVERY_S = 0.5


def run_job(argv: list[str], tracer: spans.Tracer | None = None, job: int = 0):
    """(seconds, exit code, stdout, stderr, error) of one cli.main call."""
    out, err = io.StringIO(), io.StringIO()
    rc, error = None, None
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            rc = tracer.run(job, cli.main, argv) if tracer else cli.main(argv)
        except SystemExit as exc:  # argparse rejected the arguments
            error = f"SystemExit({exc.code!r})"
        except Exception:
            error = traceback.format_exc()
        seconds = time.perf_counter() - start
    return seconds, rc, out.getvalue(), err.getvalue(), error


def environment() -> dict:
    try:
        blas = np.__config__.CONFIG["Build Dependencies"]["blas"]
        blas_name = f"{blas['name']} {blas['version']}"
    except (AttributeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpus_allowed": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas_name,
        "blas_threads": os.environ.get("OPENBLAS_NUM_THREADS", "default"),
    }


def main() -> int:
    p = argparse.ArgumentParser()
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    p.add_argument("--setup-only", action="store_true")
    args = p.parse_args()

    wl = workloads.workload(args.workload)
    workloads.write_inputs(args.workload, args.seed, Path("."))
    for d in ("out", "warm"):
        Path(d).mkdir()
    for k, job in enumerate(wl.warmup):
        argv = [f"warm/{k}.circ" if a == workloads.OUT else a for a in job.argv]
        _, rc, _, stderr, error = run_job(argv)
        if rc != 0 or error:
            print(f"warm-up {argv} failed: rc={rc}\n{stderr}{error or ''}", file=sys.stderr)
            return 3
    print("READY", flush=True)
    if args.setup_only:
        return 0

    tracer = spans.Tracer() if args.trace else None
    records = []
    refs = [speed.sample()]
    ref_at = start = cycle_start = time.perf_counter()
    i = 0
    while True:
        job = wl.jobs[i % len(wl.jobs)]
        for traced in (False, True) if tracer else (False,):
            jid = len(records)
            out = f"out/job{jid}.circ"
            argv = [out if a == workloads.OUT else a for a in job.argv]
            if traced:
                with tracer.installed():
                    seconds, rc, stdout, stderr, error = run_job(argv, tracer, jid)
            else:
                seconds, rc, stdout, stderr, error = run_job(argv)
            Path(f"out/job{jid}.out").write_text(stdout.replace(out, workloads.OUT))
            records.append({
                "job": i % len(wl.jobs),
                "traced": traced,
                "seconds": seconds,
                "rc": rc,
                "output": out if job.kind == "compile" else None,
                "stdout": f"out/job{jid}.out",
                "ref": len(refs) - 1,
                "error": error or (stderr[-2000:] if rc else None),
            })
        if time.perf_counter() - ref_at >= REF_EVERY_S:
            refs.append(speed.sample())
            ref_at = time.perf_counter()
        i += 1
        if i % wl.cycle == 0:
            # Run another cycle only if, as long as the last one, it would
            # end nearer to --seconds than stopping now.
            now = time.perf_counter()
            if (now - start) + (now - cycle_start) / 2 > args.seconds:
                break
            cycle_start = now
    refs.append(speed.sample())

    result = {
        "jobs": records,
        "spans": tracer.spans if tracer else [],
        "peak_rss_kb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "refs": refs,
        "env": environment(),
    }
    Path("records.json").write_text(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
