"""palinopt benchmark: one workload, one seed, one run.

Run from the repository root:

    python3 perfbench/run.py --workload compile_poa_n6 --seed 1 --seconds 32 --trace 0

Set-up is timed in SETUP_RUNS fresh worker processes (process start, import
of palinopt, seeded inputs, warm-up); the last of them then runs the jobs.
Every time metric is wall time normalised to the host's nominal speed (see
speed.py); the raw wall figures are printed above the result.
Afterwards every job's output is checked here, independently of palinopt.
The metrics are printed one per line with their units, and the last line is
one JSON object {"correct", "attempted", "failed", "metrics"} holding the
end-to-end metrics of BENCHMARK.json with --trace 0, the per-layer ones
with --trace 1.  See perfbench/README.md for what each metric means.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import selectors
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

# One BLAS thread: the dense decompose is then not at the mercy of
# whatever else runs on the other core, and runs are steadier.
# Set before numpy is imported, so the speed samples taken here run the
# kernel as the worker does.
os.environ["OPENBLAS_NUM_THREADS"] = "1"

import check  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import workloads  # noqa: E402

ROOT = Path(__file__).resolve().parent.parent
WORKER = Path(__file__).resolve().parent / "worker.py"
SETUP_RUNS = 5
DEADLINE_S = 170  # the whole run, set-ups included, must end within 180 s
TAIL_BEYOND = 10  # the tail percentile has at least this many samples beyond it


def worker_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    return env


def wait_ready(proc: subprocess.Popen, deadline: float) -> None:
    """Block until the worker prints READY, it exits, or the deadline passes."""
    line = b""
    with selectors.DefaultSelector() as sel:
        sel.register(proc.stdout, selectors.EVENT_READ)
        while not line.endswith(b"\n"):
            if not sel.select(max(0.0, deadline - time.monotonic())):
                raise TimeoutError("worker set-up did not finish in time")
            chunk = os.read(proc.stdout.fileno(), 64)
            if not chunk:
                raise RuntimeError(f"worker exited during set-up (code {proc.wait()})")
            line += chunk
    if line != b"READY\n":
        raise RuntimeError(f"unexpected worker output {line!r}")


def run_worker(args, workdir: Path, setup_only: bool, deadline: float) -> tuple[float, float]:
    """Start one worker in workdir; return its set-up time and the speed
    sample taken just before it started.  With setup_only it is left to
    exit, otherwise it is waited for until its jobs are done."""
    workdir.mkdir(parents=True)
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace)]
    before = speed.sample()
    start = time.perf_counter()
    proc = subprocess.Popen(cmd + ["--setup-only"] * setup_only, cwd=workdir,
                            env=worker_env(), stdout=subprocess.PIPE)
    try:
        wait_ready(proc, deadline)
        setup_s = time.perf_counter() - start
        rest, _ = proc.communicate(timeout=max(1.0, deadline - time.monotonic()))
        if proc.returncode != 0 or rest:
            raise RuntimeError(f"worker failed (code {proc.returncode}) {rest[-500:]!r}")
        return setup_s, before
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        proc.stdout.close()


def check_jobs(wl: workloads.Workload, records: list, workdir: Path):
    """Check every job's output; return per-job problems and (gates, cx) sizes.

    The first job on each input gets the full independent check; later jobs
    on the same input (including the traced twin of each job) must produce
    byte-identical stdout and circuit text.
    """
    first: dict = {}
    problems: list[list[str]] = []
    sizes: list[tuple[int, int] | None] = []
    for rec in records:
        job = wl.jobs[rec["job"]]
        if rec["error"] or rec["rc"] != 0:
            problems.append([f"exit code {rec['rc']}: {rec['error']}"])
            sizes.append(None)
            continue
        stdout = (workdir / rec["stdout"]).read_text()
        circuit = (workdir / rec["output"]).read_text() if rec["output"] else None
        if job in first:
            same = first[job][:2] == (stdout, circuit)
            problems.append([] if same else ["output differs from the first job on the same input"])
            sizes.append(first[job][2] if same else None)
            continue
        if job.kind == "compile":
            found, gates, x_gates = check.check_compile(
                (workdir / job.input).read_text(), circuit, job.order)
            if "pass=true" not in stdout:
                found.append("program's own --verify did not pass")
            size = (gates, x_gates)
        elif job.kind == "count":
            found = check.check_count(stdout, workloads.COUNT_LO, workloads.COUNT_HI)
            gates = check.poa_gates(workloads.COUNT_HI)
            size = (gates, gates - check.two_level_factors(workloads.COUNT_HI))
        else:
            found = check.check_trie(stdout, workloads.TRIE_N)
            _, interior, count = check.trie_counts(stdout) or (0, 0, 0)
            size = (count, 2 * interior)
        problems.append(found)
        sizes.append(None if found else size)
        if not found:
            first[job] = (stdout, circuit, size)
    return problems, sizes


def tail(times: list[float]) -> tuple[float, float]:
    """(value, percentile): the highest percentile with at least TAIL_BEYOND
    samples beyond it, but not below the median.  Up to 2 * TAIL_BEYOND
    jobs no percentile above the median is resolved, and this is the p50."""
    ordered = sorted(times)
    n = len(ordered)
    if n <= 2 * TAIL_BEYOND:
        return statistics.median(ordered), 50.0
    return ordered[n - TAIL_BEYOND - 1], 100.0 * (n - TAIL_BEYOND) / n


def job_times(times: list[float], good: int) -> tuple[dict, float]:
    """job_s.p50, job_s.tail and jobs_per_s of the given job times, and the
    tail's percentile."""
    value, pct = tail(times)
    return {"job_s.p50": statistics.median(times), "job_s.tail": value,
            "jobs_per_s": good / sum(times)}, pct


def end_to_end(records, sizes, refs, peak_rss_kb, setups) -> tuple[dict, list[str]]:
    """The end-to-end metrics, each job's and set-up's time normalised by
    the speed samples around it; and notes that give the time metrics in
    wall seconds too."""
    good = sum(s is not None for s in sizes)
    wall, _ = job_times([r["seconds"] for r in records], good)
    metrics, pct = job_times([speed.normalise(r["seconds"], refs[r["ref"]], refs[r["ref"] + 1])
                              for r in records], good)
    wall["setup_s"] = statistics.median(w for w, _ in setups)
    sized = [s for s in sizes if s is not None]
    metrics.update({
        "setup_s": statistics.median(n for _, n in setups),
        "peak_rss_mb": peak_rss_kb / 1024,
        "passed_ratio": good / len(records),
        "gates_out": statistics.fmean(g for g, _ in sized) if sized else 0.0,
        "cx_out": statistics.fmean(x for _, x in sized) if sized else 0.0,
    })
    notes = [
        f"jobs: {len(records)}; job_s.tail is their p{pct:.2f}",
        f"setup_s samples, wall/normalised: {', '.join(f'{w:.4f}/{n:.4f}' for w, n in setups)}",
        f"speed samples: {len(refs)}, mean {statistics.fmean(refs):.6f} s",
        f"wall seconds: {' '.join(f'{k}={v!r}' for k, v in wall.items())}",
        f"failed_ratio: {1 - metrics['passed_ratio']:.6g}",
    ]
    return metrics, notes


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=workloads.NAMES)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=int, required=True)
    p.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = p.parse_args()
    # Killed from outside, still stop the worker and remove its directory.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if not (ROOT / "src" / "palinopt" / "__init__.py").is_file():
        print(f"error: no palinopt sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = declared["per_layer" if args.trace else "end_to_end"]

    deadline = time.monotonic() + DEADLINE_S
    base = ROOT / "perfbench" / ".work"
    workdir = base / f"{args.workload}-{os.getpid()}"
    try:
        # (wall, normalised) set-up times.  The speed sample after a
        # set-up-only worker is taken once it has exited, so the sample has
        # the CPU to itself; the job-running worker takes its own first
        # sample right after READY, before its jobs.
        setups = []
        for k in range(SETUP_RUNS - 1):
            wall, before = run_worker(args, workdir / f"setup{k}", True, deadline)
            setups.append((wall, speed.normalise(wall, before, speed.sample())))
        rundir = workdir / "run"
        wall, before = run_worker(args, rundir, False, deadline)
        result = json.loads((rundir / "records.json").read_text())
        setups.append((wall, speed.normalise(wall, before, result["refs"][0])))
        wl = workloads.workload(args.workload)
        records = result["jobs"]
        problems, sizes = check_jobs(wl, records, rundir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            base.rmdir()  # only once empty: other runs may share it

    env = result["env"]
    lines = [f"env: {' '.join(f'{k}={v}' for k, v in env.items())}"]
    failed = sum(bool(found) for found in problems)
    correct = failed == 0
    for rec, found in zip(records, problems):
        if found:
            lines.append(f"FAILED job {rec['job']} (traced={rec['traced']}): {'; '.join(found)}")
    if args.trace:
        metrics = spans.layer_metrics(result["spans"])
        untraced = [r["seconds"] for r in records if not r["traced"]]
        traced = [r["seconds"] for r in records if r["traced"]]
        metrics["trace.overhead_s"] = statistics.fmean(t - u for u, t in zip(untraced, traced))
        parts = sum(v for k, v in metrics.items() if k.endswith(".s")) + metrics["cli.self_s"]
        if abs(parts - metrics["trace.job_s"]) > 1e-6 * metrics["trace.job_s"]:
            lines.append(f"FAILED: layer self times sum to {parts}, traced job is {metrics['trace.job_s']}")
            correct = False
    else:
        metrics, notes = end_to_end(records, sizes, result["refs"], result["peak_rss_kb"], setups)
        lines += notes
    names = [m["name"] for m in declared]
    if set(metrics) != set(names):
        raise RuntimeError(f"metrics {sorted(set(metrics) ^ set(names))} not as declared")
    units = {m["name"]: m["unit"] for m in declared}
    lines += [f"{name} {metrics[name]!r} {units[name]}" for name in names]
    print("\n".join(lines))
    print(json.dumps({
        "correct": correct,
        "attempted": len(records),
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in names},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
