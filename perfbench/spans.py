"""Spans around calls into palinopt's layers, recorded from outside the program.

While a traced job runs, every attribute of a ``palinopt`` module that is
bound to one of the functions in ``SPANS`` is replaced by a wrapper that
records a span (name, start, end, parent, job) and, for some layers, work
counts taken from the arguments and result.  Because every binding is
replaced, calls through ``from .x import f`` names are caught as well as
calls through the module, so the traced job is the ``cli.main`` job itself
and cannot drift from it.  Spans stay in memory until the worker writes
them out at the end of the run.
"""

from __future__ import annotations

import contextlib
import importlib
import sys
import time

import numpy as np

# (module, function) -> span name.  Calls a layer makes to itself are
# recorded too (e.g. the unitarity check of every two-level factor shows
# under linalg.is_unitary, and the cancel passes of `count` under
# optimize.cancel).
SPANS = {
    ("linalg", "read_matrix"): "linalg.read_matrix",
    ("linalg", "is_unitary"): "linalg.is_unitary",
    ("ordering", "poa_order"): "ordering.order",
    ("ordering", "conventional_order"): "ordering.order",
    ("decompose", "two_level_decompose"): "decompose",
    ("synth", "construct_circuit"): "synth.construct",
    ("synth", "write_circuit"): "synth.write",
    ("synth", "read_circuit"): "synth.read",
    ("synth", "split_subcircuits"): "synth.split",
    ("optimize", "cancel_pass"): "optimize.cancel",
    ("optimize", "table_rows"): "optimize.table_rows",
    ("palindrome", "build_trie"): "palindrome.build_trie",
    ("palindrome", "dump_trie"): "palindrome.dump_trie",
    ("sim", "verify"): "sim.verify",
}
ROOT = "cli"  # the whole cli.main call; its self time is the CLI's glue
COUNTING = "trace.count"  # time spent taking the counts below

# The tolerance palinopt's --skip-identity uses for an identity component.
IDENTITY_TOL = 1e-10


def _decompose_counts(args, result) -> dict:
    comps = np.array([f.comp for f in result.factors]).reshape(-1, 4)
    identity = np.abs(comps - np.array([1, 0, 0, 1])).max(axis=1) < IDENTITY_TOL
    return {"decompose.factors": len(comps), "decompose.identity_factors": int(identity.sum())}


# Span name -> counts from (positional args, result), taken after the span ends.
COUNTERS = {
    "linalg.read_matrix": lambda a, r: {"linalg.read_matrix.bytes": len(a[0])},
    "ordering.order": lambda a, r: {"ordering.pairs": sum(map(len, r.columns))},
    "decompose": _decompose_counts,
    "synth.construct": lambda a, r: {"synth.gates": len(r)},
    "synth.write": lambda a, r: {"synth.write.bytes": len(r)},
    "synth.read": lambda a, r: {"synth.read.gates": len(r)},
    "optimize.cancel": lambda a, r: {
        "optimize.cancel.removed": len(a[0]) - len(r),
        "optimize.cancel.x_in": sum(g.is_x for g in a[0].gates),
    },
    "palindrome.build_trie": lambda a, r: {"palindrome.trie_nodes": sum(r.counts())},
    "sim.verify": lambda a, r: {
        "sim.gate_applications": len(a[1]) << a[1].n,
        "sim.residual": r.frobenius,
    },
}
# Functions only counted, into the enclosing span: the structural circuits
# `count` enumerates.
COUNT_ONLY = {("optimize", "structural_circuit"): "optimize.enumerated_gates"}
# Counts reported per job; the others only feed rates and the residual max.
PER_JOB = (
    "linalg.read_matrix.bytes", "ordering.pairs", "decompose.factors",
    "decompose.identity_factors", "synth.gates", "synth.write.bytes",
    "optimize.cancel.removed", "optimize.enumerated_gates", "palindrome.trie_nodes",
    "sim.gate_applications",
)


class Tracer:
    def __init__(self) -> None:
        self.spans: list[list] = []  # [name, start, end, parent index, job, counts]
        self._stack: list[int] = []
        self._patched: list[tuple] = []
        self._job = None

    def _open(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else None
        self._stack.append(len(self.spans))
        rec = [name, 0.0, 0.0, parent, self._job, {}]
        self.spans.append(rec)
        rec[1] = time.perf_counter()
        return rec

    def _close(self, rec: list) -> None:
        rec[2] = time.perf_counter()
        self._stack.pop()

    def _span(self, name: str, fn):
        counter = COUNTERS.get(name)

        def traced(*args, **kwargs):
            rec = self._open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self._close(rec)
            if counter is not None:
                count = self._open(COUNTING)
                rec[5].update(counter(args, result))
                self._close(count)
            return result

        return traced

    def _count_only(self, key: str, fn):
        def counted(*args, **kwargs):
            result = fn(*args, **kwargs)
            counts = self.spans[self._stack[-1]][5]
            counts[key] = counts.get(key, 0) + len(result)
            return result

        return counted

    def _install(self) -> None:
        modules = [m for k, m in sys.modules.items() if k == "palinopt" or k.startswith("palinopt.")]
        for (mod, fn), name in [*SPANS.items(), *COUNT_ONLY.items()]:
            orig = getattr(importlib.import_module(f"palinopt.{mod}"), fn)
            wrapper = self._span(name, orig) if (mod, fn) in SPANS else self._count_only(name, orig)
            for m in modules:
                for attr, val in list(vars(m).items()):
                    if val is orig:
                        setattr(m, attr, wrapper)
                        self._patched.append((m, attr, orig))

    def _uninstall(self) -> None:
        for m, attr, orig in reversed(self._patched):
            setattr(m, attr, orig)
        self._patched.clear()

    @contextlib.contextmanager
    def installed(self):
        """Trace every layer while the block runs."""
        self._install()
        try:
            yield
        finally:
            self._uninstall()

    def run(self, job: int, fn, *args):
        """Call fn(*args) as job ``job`` under a root span."""
        self._job = job
        rec = self._open(ROOT)
        try:
            return fn(*args)
        finally:
            self._close(rec)


def self_times(spans: list) -> list[float]:
    """Each span's duration minus the durations of its direct children."""
    out = [end - start for _, start, end, *_ in spans]
    for _, start, end, parent, *_ in spans:
        if parent is not None:
            out[parent] -= end - start
    return out


def layer_metrics(spans: list) -> dict[str, float]:
    """Per-job layer figures over all traced jobs: each span name's self
    time, the work counts, and rates of work over self time."""
    jobs = sum(rec[0] == ROOT for rec in spans) or 1
    busy: dict[str, float] = {}
    counts: dict[str, float] = {}
    residual = 0.0
    for rec, own in zip(spans, self_times(spans)):
        busy[rec[0]] = busy.get(rec[0], 0.0) + own
        for key, value in rec[5].items():
            counts[key] = counts.get(key, 0) + value
            if key == "sim.residual":
                residual = max(residual, value)

    def rate(count: str, span: str) -> float:
        return counts.get(count, 0) / busy[span] if busy.get(span) else 0.0

    out = {f"{name}.s": busy.get(name, 0.0) / jobs for name in {*SPANS.values(), COUNTING}}
    out["cli.self_s"] = busy.get(ROOT, 0.0) / jobs
    out["trace.job_s"] = sum(end - start for name, start, end, *_ in spans if name == ROOT) / jobs
    out.update({metric: counts.get(metric, 0) / jobs for metric in PER_JOB})
    out["decompose.factors_per_s"] = rate("decompose.factors", "decompose")
    out["synth.gates_per_s"] = rate("synth.gates", "synth.construct")
    out["synth.read.gates_per_s"] = rate("synth.read.gates", "synth.read")
    x_in = counts.get("optimize.cancel.x_in", 0)
    out["optimize.cancel.useful_ratio"] = counts.get("optimize.cancel.removed", 0) / x_in if x_in else 0.0
    out["sim.residual_max"] = residual
    return out
