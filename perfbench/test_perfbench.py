"""Tests of the benchmark itself: its checks reject broken outputs, its
inputs have the structure the program expects, and tracing changes nothing.

Run from the repository root:  python3 -m pytest perfbench
"""

from __future__ import annotations

import contextlib
import io
import sys
from pathlib import Path

import numpy as np
import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import check  # noqa: E402
import inputs  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import speed  # noqa: E402
import worker  # noqa: E402
from palinopt import cli  # noqa: E402


def palinopt(*argv: str) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
        assert cli.main(list(argv)) == 0
    return out.getvalue()


@pytest.fixture
def compiled(tmp_path):
    """(matrix text, compile(order) -> circuit text) for one Haar n=3 input."""
    mat = tmp_path / "u.mat"
    mat.write_text(inputs.matrix_text(inputs.haar_unitaries(inputs.rng_for(7, "test"), 3, 1)[0]))

    def compile_(order: str, *flags: str) -> str:
        out = tmp_path / f"{order}.circ"
        palinopt("compile", "--input", str(mat), "--order", order, "--output", str(out), *flags)
        return out.read_text()

    return mat.read_text(), compile_


@pytest.mark.parametrize("order", ["poa", "conventional"])
def test_check_accepts_compiled_circuit(compiled, order):
    matrix, compile_ = compiled
    problems, gates, x_gates = check.check_compile(matrix, compile_(order, "--cancel"), order)
    assert problems == []
    assert gates == check.TABLE2[3][0 if order == "poa" else 1]
    assert gates - x_gates == check.two_level_factors(3)


def _move_target(line: str, n: int) -> str:
    """The same gate kind and matrix on the next qubit as target."""
    kind, t, c, *m = line.split(" ")
    old = int(t[2:])
    new = (old + 1) % n
    bits = list(c[2:])
    bits[n - 1 - old], bits[n - 1 - new] = "0", "_"
    return " ".join([kind, f"t={new}", "c=" + "".join(bits), *m])


@pytest.mark.parametrize("kind", ["X", "U"])
def test_check_rejects_flipped_target(compiled, kind):
    matrix, compile_ = compiled
    lines = compile_("poa", "--cancel").split("\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith(kind + " "))
    lines[i] = _move_target(lines[i], 3)
    problems, _, _ = check.check_compile(matrix, "\n".join(lines), "poa")
    assert any("Frobenius" in p for p in problems)


def test_check_rejects_changed_u_entry(compiled):
    matrix, compile_ = compiled
    lines = compile_("poa", "--cancel").split("\n")
    i = next(i for i, ln in enumerate(lines) if ln.startswith("U "))
    head, m = lines[i].split(" m=")
    entries = m.split(";")
    re_, im = entries[2].split(",")
    entries[2] = f"{float(re_) + 1e-6!r},{im}"
    lines[i] = head + " m=" + ";".join(entries)
    problems, _, _ = check.check_compile(matrix, "\n".join(lines), "poa")
    assert any("Frobenius" in p for p in problems)


def test_check_rejects_wrong_gate_count(compiled):
    matrix, compile_ = compiled
    # Uncancelled output reproduces the input but misses the closed form.
    problems, gates, _ = check.check_compile(matrix, compile_("poa"), "poa")
    assert problems == [f"{gates} gates, closed form gives {check.poa_gates(3)}"]


def test_count_check():
    out = palinopt("count", "--range", "2..5", "--mode", "both")
    assert check.check_count(out, 2, 5) == []
    assert check.check_count(out.replace("246", "247"), 2, 5) != []
    assert check.expected_count_rows(8, 8) == [(8, 75566, 229250, 229504)]


def test_trie_check_on_generated_circuit(tmp_path):
    circ = tmp_path / "poa.circ"
    circ.write_text(inputs.uncancelled_poa_circuit_text(4, inputs.rng_for(1, "test")))
    out = palinopt("trie", "--input", str(circ))
    assert check.check_trie(out, 4) == []
    assert check.check_trie(out, 5) != []


@pytest.mark.parametrize("n", [2, 3, 4])
def test_generated_circuit_has_the_programs_structure(tmp_path, n):
    """Gate for gate, the benchmark's uncancelled poa circuit has the
    targets and control patterns of `palinopt compile --order poa`."""
    mat = tmp_path / "u.mat"
    mat.write_text(inputs.matrix_text(inputs.haar_unitaries(inputs.rng_for(2, "test"), n, 1)[0]))
    out = tmp_path / "u.circ"
    palinopt("compile", "--input", str(mat), "--order", "poa", "--output", str(out))
    generated = inputs.uncancelled_poa_circuit_text(n, inputs.rng_for(3, "test"))

    def shape(text: str) -> list[str]:
        return [ln.split(" m=")[0] for ln in text.split("\n")]

    assert shape(generated) == shape(out.read_text())


def test_poa_columns_match_the_program():
    lines = palinopt("order", "--n", "5", "--mode", "poa").split("\n")[1:-1]
    assert [[int(r) for r in ln.split(":")[1].split()] for ln in lines] == inputs.poa_columns(5)


def test_haar_inputs_are_seeded_unitary_and_exact_in_text():
    a = inputs.haar_unitaries(inputs.rng_for(5, "w"), 4, 1)[0]
    b = inputs.haar_unitaries(inputs.rng_for(5, "w"), 4, 1)[0]
    assert np.array_equal(a, b)
    assert not np.array_equal(a, inputs.haar_unitaries(inputs.rng_for(6, "w"), 4, 1)[0])
    assert np.abs(a.conj().T @ a - np.eye(16)).max() < 1e-12
    assert np.array_equal(check.read_matrix_text(inputs.matrix_text(a)), a)


@pytest.mark.parametrize("argv", [
    ["compile", "--input", "u.mat", "--order", "poa", "--output", "OUT", "--cancel", "--verify"],
    ["count", "--range", "2..4", "--mode", "both"],
    ["trie", "--input", "poa.circ"],
])
def test_traced_job_is_the_untraced_job(tmp_path, monkeypatch, argv):
    """The traced job emits byte-identical output, its spans account for
    the whole job, and tracing leaves palinopt as it found it."""
    monkeypatch.chdir(tmp_path)
    Path("u.mat").write_text(inputs.matrix_text(inputs.haar_unitaries(inputs.rng_for(1, "t"), 3, 1)[0]))
    Path("poa.circ").write_text(inputs.uncancelled_poa_circuit_text(3, inputs.rng_for(1, "t")))
    decompose_before = cli.two_level_decompose

    def argv_for(out: str) -> list[str]:
        return [out if a == "OUT" else a for a in argv]

    _, rc, plain, _, error = worker.run_job(argv_for("a.circ"))
    assert (rc, error) == (0, None)
    tracer = spans.Tracer()
    with tracer.installed():
        _, rc, traced, _, error = worker.run_job(argv_for("b.circ"), tracer, 0)
    assert (rc, error) == (0, None)
    assert traced.replace("b.circ", "a.circ") == plain
    if argv[0] == "compile":
        assert Path("b.circ").read_bytes() == Path("a.circ").read_bytes()
    assert cli.two_level_decompose is decompose_before

    metrics = spans.layer_metrics(tracer.spans)
    parts = sum(v for k, v in metrics.items() if k.endswith(".s")) + metrics["cli.self_s"]
    assert parts == pytest.approx(metrics["trace.job_s"], rel=1e-9)
    if argv[0] == "compile":
        assert metrics["decompose.factors"] == check.two_level_factors(3)
        assert metrics["synth.gates"] == check.conventional_gates(3)
        assert metrics["sim.gate_applications"] == check.poa_gates(3) * 8
        assert 0 < metrics["optimize.cancel.useful_ratio"] < 1
    elif argv[0] == "count":
        assert metrics["optimize.enumerated_gates"] == 3 * sum(
            check.conventional_gates(n) for n in (2, 3, 4))
    else:
        assert metrics["palindrome.trie_nodes"] > check.two_level_factors(3)


def test_tail_is_the_highest_percentile_with_ten_beyond_it():
    assert run.tail([3.0, 1.0, 2.0, 4.0]) == (2.5, 50.0)  # too few jobs: the median
    times = [float(i) for i in range(200)]
    assert run.tail(times) == (189.0, 95.0)  # ten samples, 190..199, beyond it


def test_speed_normalise_rescales_to_the_nominal_kernel_time():
    assert speed.normalise(2.0, speed.NOMINAL_S, speed.NOMINAL_S) == 2.0
    assert speed.normalise(2.0, 2 * speed.NOMINAL_S, 2 * speed.NOMINAL_S) == 1.0
    assert speed.normalise(2.0, 0.5 * speed.NOMINAL_S, 1.5 * speed.NOMINAL_S) == pytest.approx(2.0)
    assert 0 < speed.sample() < 1


def test_end_to_end_normalises_each_time_by_the_samples_around_it():
    n = speed.NOMINAL_S
    refs = [n, n, 3 * n]  # the host halves its speed after the first job
    records = [{"seconds": 1.0, "ref": 0}, {"seconds": 4.0, "ref": 1}, {"seconds": 4.0, "ref": 1}]
    sizes = [(10, 4), (10, 4), None]  # the last job failed its check
    setups = [(0.5, 0.4), (0.4, 0.3), (0.6, 0.5)]
    metrics, notes = run.end_to_end(records, sizes, refs, 50 * 1024, setups)
    assert [metrics["job_s.p50"], metrics["job_s.tail"]] == [2.0, 2.0]
    assert metrics["jobs_per_s"] == pytest.approx(2 / 5)
    assert metrics["setup_s"] == 0.4
    assert (metrics["peak_rss_mb"], metrics["gates_out"], metrics["cx_out"]) == (50, 10, 4)
    assert metrics["passed_ratio"] == pytest.approx(2 / 3)
    assert any("job_s.p50=4.0" in line for line in notes)
