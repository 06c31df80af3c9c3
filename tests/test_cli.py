import contextlib
import io
import os
import subprocess
import sys
import tracemalloc
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from oracles import (
    circuit_from_gates,
    identity_circuit,
    ref_gray_circuit,
    subcircuit_arrays,
    subcircuit_for_pair,
    trie_grid,
)

import palinopt
from palinopt import cli, synth
from palinopt.cli import build_parser, main
from palinopt.decompose import two_level_decompose
from palinopt.linalg import random_unitary, write_matrix
from palinopt.optimize import cancel_pass, formula_poa
from palinopt.ordering import conventional_order, poa_order, save_order
from palinopt.palindrome import build_trie, dump_trie
from palinopt.synth import (
    ARRAY_MAX_N,
    ControlledGate,
    construct_circuit,
    read_circuit,
    split_subcircuits,
    write_circuit,
)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def write_unitary(tmp_path, n, seed=0, name="u.mat"):
    path = tmp_path / name
    path.write_text(write_matrix(random_unitary(n, seed)), encoding="utf-8")
    return path


def test_count_table_both(capsys):
    code, out, _ = run(capsys, "count", "--range", "2..7", "--mode", "both")
    assert code == 0
    rows = [tuple(int(v) for v in ln.split("\t")) for ln in out.strip().splitlines()]
    assert rows == [
        (2, 8, 8, 10),
        (3, 50, 62, 68),
        (4, 246, 378, 392),
        (5, 1086, 2034, 2064),
        (6, 4558, 10210, 10272),
        (7, 18670, 49090, 49216),
    ]


def test_count_single_n(capsys):
    code, out, _ = run(capsys, "count", "--n", "2")
    assert code == 0
    assert out.strip() == "2\t8\t8\t10"


def test_count_formula_n4(capsys):
    code, out, _ = run(capsys, "count", "--n", "4", "--mode", "formula")
    assert code == 0
    assert out.strip() == "4\t246\t378\t392"


def test_count_builds_no_circuit_and_cancels_nothing(capsys, monkeypatch):
    def no_circuit(*args, **kwargs):
        raise AssertionError("count built a circuit")

    monkeypatch.setattr("palinopt.synth.Circuit.__post_init__", no_circuit)
    monkeypatch.setattr("palinopt.optimize.cancel_pass", no_circuit)
    code, out, err = run(capsys, "count", "--range", "2..6", "--mode", "both")
    assert (code, err) == (0, "")
    assert out.splitlines()[-1] == "6\t4558\t10210\t10272"


@pytest.mark.parametrize(
    "argv",
    [
        ("--range", "2..12", "--mode", "both"),
        ("--range", "9..12", "--mode", "enumerate"),
        ("--n", "12", "--mode", "enumerate"),
    ],
)
def test_count_enumeration_size_guard(capsys, monkeypatch, argv):
    def no_enumeration(*args):
        raise AssertionError("enumerated past the size guard")

    monkeypatch.setattr("palinopt.optimize.structural_circuit", no_enumeration)
    code, out, err = run(capsys, "count", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "n=11" in err
    assert len(err.strip().splitlines()) == 1


def test_count_formula_mode_has_no_size_guard(capsys):
    code, out, _ = run(capsys, "count", "--n", "11", "--mode", "formula")
    assert code == 0
    assert out.split("\t")[0] == "11"


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", str(1 << 62)),
        ("--range", f"2..{1 << 62}"),
        ("--range", f"{1 << 62}..{(1 << 62) + 1}"),
        ("--n", "1025", "--mode", "formula"),
    ],
    ids=["n=2^62", "range-to-2^62", "range-from-2^62", "n=1025"],
)
def test_count_formula_size_guard(capsys, monkeypatch, argv):
    def no_table(*args, **kwargs):
        raise AssertionError("computed counts past the size guard")

    monkeypatch.setattr("palinopt.optimize.table_rows", no_table)
    code, out, err = run(capsys, "count", *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "n=1024" in err
    assert len(err.strip().splitlines()) == 1


def test_count_formula_at_the_size_limit(capsys):
    code, out, _ = run(capsys, "count", "--n", "1024")
    assert code == 0
    n, *counts = out.split("\t")
    assert n == "1024"
    assert int(counts[0]) == formula_poa(1024)


def test_count_usage_error(capsys):
    code, _, err = run(capsys, "count")
    assert code == 1
    assert "need --n or --range" in err


def test_order_poa_n3(capsys):
    code, out, _ = run(capsys, "order", "--n", "3", "--mode", "poa")
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "n=3"
    assert lines[1] == "0: 2 4 6 1 3 5 7"


def test_gray_table1(capsys):
    code, out, _ = run(capsys, "gray", "--n", "3", "--from", "0", "--to", "7")
    assert code == 0
    assert out.split() == ["000", "001", "011", "111"]


@pytest.mark.parametrize("n", [1 << 62, 1025], ids=["n=2^62", "n=1025"])
def test_gray_size_guard(capsys, monkeypatch, n):
    def no_codes(*args):
        raise AssertionError("walked a Gray code past the size guard")

    monkeypatch.setattr("palinopt.synth.gray_code", no_codes)
    code, out, err = run(capsys, "gray", "--n", str(n), "--from", "0", "--to", "1")
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "n=1024" in err
    assert len(err.strip().splitlines()) == 1


def test_gray_at_the_size_limit(capsys):
    code, out, _ = run(capsys, "gray", "--n", "1024", "--from", "0", "--to", str((1 << 1024) - 1))
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 1025
    assert lines[0] == "0" * 1024 and lines[-1] == "1" * 1024


@pytest.mark.parametrize("n", [0, -1])
def test_gray_rejects_qubit_counts_below_one(capsys, n):
    code, out, err = run(capsys, "gray", "--n", str(n), "--from", "0", "--to", "1")
    assert (code, out, err) == (1, "", f"error: qubit count must be >= 1, got {n}\n")


def test_gray_bad_endpoints(capsys):
    code, _, err = run(capsys, "gray", "--n", "3", "--from", "2", "--to", "2")
    assert code == 1
    assert "differ" in err


def test_compile_identity_poa_cancel(tmp_path, capsys):
    inp = tmp_path / "id.mat"
    inp.write_text(write_matrix(np.eye(8)), encoding="utf-8")
    out_path = tmp_path / "c.circ"
    code, out, _ = run(
        capsys, "compile", "--input", str(inp), "--order", "poa",
        "--output", str(out_path), "--cancel",
    )
    assert code == 0
    circuit = read_circuit(io.StringIO(out_path.read_text(encoding="utf-8")))
    assert len(circuit.gates) == 50


def test_compile_verify_pass(tmp_path, capsys):
    inp = write_unitary(tmp_path, 3, seed=5)
    out_path = tmp_path / "c.circ"
    code, out, _ = run(
        capsys, "compile", "--input", str(inp), "--order", "conventional",
        "--output", str(out_path), "--verify",
    )
    assert code == 0
    assert "pass=true" in out


def test_compile_round_trips_bit_exactly(tmp_path, capsys):
    inp = write_unitary(tmp_path, 3, seed=8)
    out_path = tmp_path / "c.circ"
    code, *_ = run(capsys, "compile", "--input", str(inp), "--output", str(out_path))
    assert code == 0
    text = out_path.read_text(encoding="utf-8")
    from palinopt.synth import write_circuit

    assert write_circuit(read_circuit(io.StringIO(text))) == text


@pytest.mark.parametrize("chunk", [1, 1000, synth._CHUNK])
def test_compile_writes_the_writers_text_a_chunk_at_a_time(tmp_path, capsys, monkeypatch, chunk):
    # The text is encoded and written _CHUNK characters at a time, never
    # copied whole, and the file holds it exactly.
    u = random_unitary(4, 6)
    inp = tmp_path / "u.mat"
    inp.write_text(write_matrix(u), encoding="utf-8")
    out_path = tmp_path / "c.circ"
    monkeypatch.setattr(synth, "_CHUNK", chunk)
    code, *_ = run(capsys, "compile", "--input", str(inp), "--output", str(out_path), "--cancel")
    assert code == 0
    text = write_circuit(cancel_pass(construct_circuit(two_level_decompose(u, poa_order(4)))))
    assert len(text) > 1000
    assert out_path.read_bytes() == text.encode("utf-8")


def test_write_text_holds_no_encoded_copy_of_the_text(tmp_path, monkeypatch):
    monkeypatch.setattr(synth, "_CHUNK", 1000)
    text = "X t=0 c=0_\n" * 40_000
    tracemalloc.start()
    try:
        cli._write_text(tmp_path / "c.circ", text)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (tmp_path / "c.circ").read_bytes() == text.encode("utf-8")
    assert peak < len(text) / 4


def test_compile_with_order_file(tmp_path, capsys):
    inp = write_unitary(tmp_path, 3, seed=2)
    order_path = tmp_path / "o.ord"
    order_path.write_text(save_order(poa_order(3)), encoding="utf-8")
    out_path = tmp_path / "c.circ"
    code, *_ = run(
        capsys, "compile", "--input", str(inp), "--order", str(order_path),
        "--output", str(out_path), "--cancel", "--verify",
    )
    assert code == 0


def test_compile_rejects_non_unitary(tmp_path, capsys):
    inp = tmp_path / "bad.mat"
    inp.write_text(write_matrix(np.ones((4, 4))), encoding="utf-8")
    code, _, err = run(
        capsys, "compile", "--input", str(inp), "--output", str(tmp_path / "c.circ")
    )
    assert code == 1
    assert "unitarity" in err
    assert "1e-10" in err
    assert len(err.strip().splitlines()) == 1
    assert not (tmp_path / "c.circ").exists()


def test_compile_rejects_missing_file(tmp_path, capsys):
    code, _, err = run(
        capsys, "compile", "--input", str(tmp_path / "nope.mat"),
        "--output", str(tmp_path / "c.circ"),
    )
    assert code == 1


def test_compile_into_missing_directory(tmp_path, capsys):
    inp = write_unitary(tmp_path, 2)
    code, out, err = run(
        capsys, "compile", "--input", str(inp), "--output", str(tmp_path / "no" / "c.circ")
    )
    assert code == 1
    assert err.startswith("error: cannot write output: ")
    assert len(err.strip().splitlines()) == 1


def test_compile_verify_unreadable_circuit(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(synth, "write_circuit", lambda c: "n=2 gates=1\nX c=0_\n")
    inp = write_unitary(tmp_path, 2)
    code, _, err = run(
        capsys, "compile", "--input", str(inp), "--output", str(tmp_path / "c.circ"), "--verify"
    )
    assert code == 1
    assert "missing field t=" in err
    assert len(err.strip().splitlines()) == 1


def test_out_of_memory_is_one_error_line(tmp_path, capsys, monkeypatch):
    # A MemoryError exits 1 with one line and no traceback: a bare one, and
    # numpy's _ArrayMemoryError, here for an array of 256 PiB, which no
    # allocator grants.
    inp = write_unitary(tmp_path, 2)
    argv = ["compile", "--input", str(inp), "--output", str(tmp_path / "c.circ"), "--verify"]

    def bare(c):
        raise MemoryError

    monkeypatch.setattr(synth, "write_circuit", bare)
    assert run(capsys, *argv) == (1, "", "error: out of memory\n")
    monkeypatch.setattr(synth, "write_circuit", lambda c: np.empty(1 << 58, np.uint8))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (1, "")
    assert err.startswith("error: out of memory: Unable to allocate 256. PiB") and err.count("\n") == 1


@pytest.mark.parametrize("n", [7, 8])
def test_compile_skip_identity_keeps_the_circuit_within_the_verify_bound(tmp_path, capsys, n):
    # Every factor of diag(e^{+-0.9e-10 i}) is within UNITARY_TOL of the
    # identity, but dropping them all moves the circuit's unitary by
    # 2^{n/2} 0.9e-10, past RECONSTRUCT_TOL from n=7 on; only as many are
    # dropped as keep their summed distances below a share of it.
    inp = tmp_path / "d.mat"
    phases = 0.9e-10 * (1 - 2 * (np.arange(1 << n) & 1))
    inp.write_text(write_matrix(np.diag(np.exp(1j * phases))), encoding="utf-8")
    out_path = tmp_path / "d.circ"
    code, out, err = run(
        capsys, "compile", "--input", str(inp), "--output", str(out_path), "--skip-identity", "--verify"
    )
    assert (code, err) == (0, "")
    wrote, report = out.splitlines()
    assert wrote != f"wrote 0 gates to {out_path}" and report.startswith("pass=true ")


def test_compile_rejects_input_its_factors_do_not_reconstruct_before_synth(tmp_path, capsys):
    # U passes is_unitary, but its non-unitarity sums past RECONSTRUCT_TOL
    # over the factors: exit 1 in one line, no circuit written, never exit 2.
    inp = tmp_path / "s.mat"
    inp.write_text(write_matrix(random_unitary(9, 1) * (1 + 4.9e-11)), encoding="utf-8")
    out_path = tmp_path / "s.circ"
    code, out, err = run(capsys, "compile", "--input", str(inp), "--output", str(out_path), "--cancel", "--verify")
    assert (code, out) == (1, "")
    assert err.startswith("error: input fails the unitarity check (") and err.count("\n") == 1
    assert not out_path.exists()


def test_compile_skip_identity(tmp_path, capsys):
    inp = tmp_path / "id.mat"
    inp.write_text(write_matrix(np.eye(4)), encoding="utf-8")
    out_path = tmp_path / "c.circ"
    code, *_ = run(
        capsys, "compile", "--input", str(inp), "--output", str(out_path),
        "--skip-identity",
    )
    assert code == 0
    assert len(read_circuit(io.StringIO(out_path.read_text(encoding="utf-8"))).gates) == 0


def test_trie_poa_column(capsys):
    code, out, _ = run(
        capsys, "trie", "--n", "3", "--order", "poa", "--column", "0"
    )
    assert code == 0
    assert out.strip().splitlines()[-1] == "leaves=7 interior=3 count=13"


def test_trie_from_circuit_file(tmp_path, capsys):
    inp = write_unitary(tmp_path, 3, seed=3)
    out_path = tmp_path / "c.circ"
    run(capsys, "compile", "--input", str(inp), "--output", str(out_path))
    code, out, _ = run(capsys, "trie", "--input", str(out_path))
    assert code == 0
    assert "leaves=28" in out.splitlines()[-1]


@pytest.mark.parametrize("source", ["input", "column"])
def test_trie_builds_no_gate_object(tmp_path, capsys, monkeypatch, source):
    # Reading, splitting, building, counting and dumping run on gate codes.
    inp = write_unitary(tmp_path, 4, seed=5)
    circ = tmp_path / "c.circ"
    assert main(["compile", "--input", str(inp), "--output", str(circ)]) == 0
    capsys.readouterr()

    def no_gate(self, *args):
        raise AssertionError("built a ControlledGate")

    monkeypatch.setattr(ControlledGate, "__init__", no_gate)
    if source == "input":
        code, out, err = run(capsys, "trie", "--input", str(circ))
        leaves = 120
    else:
        code, out, err = run(capsys, "trie", "--n", "4", "--order", "poa", "--column", "0")
        leaves = 15
    assert (code, err) == (0, "")
    fields = dict(kv.split("=") for kv in out.splitlines()[-1].split())
    assert int(fields["leaves"]) == leaves
    assert int(fields["count"]) == leaves + 2 * int(fields["interior"])


def test_trie_rejects_cancelled_circuit(tmp_path, capsys):
    inp = write_unitary(tmp_path, 3, seed=3)
    out_path = tmp_path / "c.circ"
    run(capsys, "compile", "--input", str(inp), "--output", str(out_path), "--cancel")
    code, _, err = run(capsys, "trie", "--input", str(out_path))
    assert code == 1


@pytest.mark.parametrize(
    "body", ["X c=0_", "X t=0", "U t=0 c=0_", "X t=5 c=01", "U t=0 c=0_ m=2,0;0,0;0,0;2,0"]
)
def test_trie_bad_circuit_file_exits_1(tmp_path, capsys, body):
    path = tmp_path / "bad.circ"
    path.write_text(f"n=2 gates=1\n{body}\n", encoding="utf-8")
    code, _, err = run(capsys, "trie", "--input", str(path))
    assert code == 1
    assert err.startswith("error: cannot read circuit: ")
    assert len(err.strip().splitlines()) == 1


def run_on_circuit_file(tmp_path, capsys, monkeypatch, command, edit=None):
    """Run ``trie --input`` or ``compile --verify`` on the uncancelled poa
    circuit of an n=5 unitary, about 105 kB of text, its file's bytes
    passed through ``edit`` first: for ``compile`` as it writes them."""
    inp = write_unitary(tmp_path, 5, seed=4)
    circ = tmp_path / "c.circ"
    if command == "trie":
        assert main(["compile", "--input", str(inp), "--output", str(circ)]) == 0
        capsys.readouterr()
        if edit:
            circ.write_bytes(edit(circ.read_bytes()))
        return run(capsys, "trie", "--input", str(circ))
    if edit:
        def write_text(path, text):
            Path(path).write_bytes(edit(text.encode("utf-8")))

        monkeypatch.setattr(cli, "_write_text", write_text)
    return run(capsys, "compile", "--input", str(inp), "--output", str(circ), "--verify")


def _truncate(data: bytes) -> bytes:
    """The header and the first 1,000 gate lines."""
    return b"".join(data.splitlines(keepends=True)[:1001])


READ_ERROR = {"trie": "error: cannot read circuit: ", "compile": "error: cannot read circuit back: "}


@pytest.mark.parametrize("command", ["trie", "compile"])
def test_circuit_file_with_crlf_breaks_reads_the_same(tmp_path, capsys, monkeypatch, command):
    expected = run_on_circuit_file(tmp_path, capsys, monkeypatch, command)
    assert expected[0] == 0
    crlf = run_on_circuit_file(tmp_path, capsys, monkeypatch, command, lambda b: b.replace(b"\n", b"\r\n"))
    assert crlf == expected


@pytest.mark.parametrize("command", ["trie", "compile"])
def test_circuit_file_not_utf8_past_the_first_chunk_exits_1(tmp_path, capsys, monkeypatch, command):
    def bad_byte(data):
        assert len(data) > synth._CHUNK + 100
        return data[: synth._CHUNK + 100] + b"\xff" + data[synth._CHUNK + 100 :]

    code, _, err = run_on_circuit_file(tmp_path, capsys, monkeypatch, command, bad_byte)
    assert code == 1
    assert err.startswith(READ_ERROR[command] + "'utf-8' codec can't decode byte 0xff")
    assert len(err.splitlines()) == 1


@pytest.mark.parametrize("command", ["trie", "compile"])
def test_truncated_circuit_file_exits_1(tmp_path, capsys, monkeypatch, command):
    code, _, err = run_on_circuit_file(tmp_path, capsys, monkeypatch, command, _truncate)
    assert (code, err) == (1, READ_ERROR[command] + "header says 2064 gates, file has 1000\n")


@pytest.mark.parametrize("command", ["trie", "compile"])
def test_bad_line_wins_over_a_wrong_gate_count(tmp_path, capsys, monkeypatch, command):
    # The gate count is checked once the whole file is read, so a bad line
    # in a file that also has too few lines is the one reported.
    def truncate_and_break(data):
        return _truncate(data).replace(b"X t=0", b"X t=7", 1)

    code, _, err = run_on_circuit_file(tmp_path, capsys, monkeypatch, command, truncate_and_break)
    assert code == 1
    assert err.startswith(READ_ERROR[command] + "target 7 out of range for n=5: 'X t=7 c=")
    assert len(err.splitlines()) == 1


def test_trie_rejects_repeated_subcircuit(tmp_path, capsys):
    # One subcircuit twice: both split off with the pair (r, c) = (3, 0),
    # which the trie refuses as a duplicate.
    sub = "X t=0 c=0_\nU t=1 c=_1 m=1.0,0.0;0.0,0.0;0.0,0.0;1.0,0.0\nX t=0 c=0_\n"
    path = tmp_path / "twice.circ"
    path.write_text("n=2 gates=6\n" + sub * 2, encoding="utf-8")
    code, out, err = run(capsys, "trie", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == "error: duplicate subcircuit for pair (3, 0)\n"


def test_trie_usage_error(capsys):
    code, _, err = run(capsys, "trie")
    assert code == 1


@pytest.mark.parametrize(
    "argv",
    [
        (),
        ("bogus",),
        ("compile", "--input", "u.mat"),
        ("count", "--n", "x"),
        ("count", "--mode", "bogus"),
        ("order",),
        ("gray", "--n", "3", "--from", "0"),
        ("trie", "--column", "one"),
    ],
)
def test_usage_errors_exit_1_in_one_line(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ")
    assert len(err.strip().splitlines()) == 1


@pytest.mark.parametrize("argv", [("--help",), ("compile", "--help"), ("count", "-h")])
def test_help_exits_0(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(list(argv))
    assert exc.value.code == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "argv",
    [
        ("order", "--n", "12"),
        ("order", "--n", "30", "--mode", "conventional"),
        ("trie", "--n", "12", "--order", "poa", "--column", "0"),
        ("trie", "--n", "30", "--order", "conventional", "--column", "0"),
    ],
)
def test_order_size_guard(capsys, monkeypatch, argv):
    def no_order(*args):
        raise AssertionError("built an order past the size guard")

    monkeypatch.setattr("palinopt.ordering.poa_order", no_order)
    monkeypatch.setattr("palinopt.ordering.conventional_order", no_order)
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err.startswith("error: ") and "n=11" in err
    assert len(err.strip().splitlines()) == 1


def test_trie_column_at_the_size_limit(capsys):
    code, out, _ = run(capsys, "trie", "--n", "11", "--order", "poa", "--column", "2046")
    assert code == 0
    assert out.splitlines()[-1] == "leaves=1 interior=0 count=1"


def test_count_past_n7_writes_nothing_to_stderr(capsys):
    code, out, err = run(capsys, "count", "--n", "8", "--mode", "both")
    assert code == 0
    assert out == "8\t75566\t229250\t229504\n"
    assert err == ""


def test_compile_checks_unitarity_once(tmp_path, capsys, monkeypatch):
    from palinopt import decompose, linalg

    checked = []
    is_unitary = linalg.is_unitary

    def counted(m):
        checked.append(np.shape(m))
        return is_unitary(m)

    monkeypatch.setattr(linalg, "is_unitary", counted)
    monkeypatch.setattr(decompose, "is_unitary", counted)
    inp = write_unitary(tmp_path, 3, seed=4)
    code, *_ = run(
        capsys, "compile", "--input", str(inp), "--output", str(tmp_path / "c.circ"), "--verify"
    )
    assert code == 0
    assert checked == [(8, 8)]


def test_parser_is_built_once():
    assert build_parser() is build_parser()


def test_count_mismatch_exits_2(capsys, monkeypatch):
    monkeypatch.setattr("palinopt.optimize.formula_poa", lambda n: 0)
    code, out, err = run(capsys, "count", "--n", "3", "--mode", "both")
    assert code == 2
    assert out == ""
    assert err == "error: n=3: formula (0, 62, 68) != enumeration (50, 62, 68)\n"


def _x(n, target, base):
    return ControlledGate(n, target, base, "X")


def _palindrome(n, xs, target, base):
    """One subcircuit's gates: X run ``xs``, identity middle, mirrored run."""
    return circuit_from_gates(n, (*xs, ControlledGate(n, target, base, np.eye(2)), *xs[::-1]))


@pytest.mark.parametrize(
    "circuit, pair",
    [
        # an X gate at the middle's target: c would equal r
        (_palindrome(2, [_x(2, 0, 0)], 0, 0), (1, 1)),
        # an X gate above the middle's target: c would exceed r
        (_palindrome(2, [_x(2, 1, 0)], 0, 0), (1, 2)),
        # an X gate that does not act on the running state c = 0
        (_palindrome(2, [_x(2, 0, 2)], 1, 1), (3, 0)),
        # a walk from 0 to 3 that flips bit 1 before bit 0
        (_palindrome(3, [_x(3, 1, 0), _x(3, 0, 2)], 2, 3), (7, 0)),
    ],
    ids=["at-middle-target", "above-middle-target", "off-the-walk", "falling-targets"],
)
def test_trie_rejects_x_runs_that_are_not_gray_walks(tmp_path, capsys, circuit, pair):
    path = tmp_path / "walk.circ"
    path.write_text(write_circuit(circuit), encoding="utf-8")
    code, out, err = run(capsys, "trie", "--input", str(path))
    assert code == 1
    assert out == ""
    assert err == f"error: cannot read circuit: X run is not the Gray walk of pair {pair}\n"


@pytest.mark.parametrize("n", [2, ARRAY_MAX_N])
def test_trie_of_an_empty_circuit(tmp_path, capsys, n):
    # No work is sized by 2^n: an empty circuit of the widest n gives the
    # empty trie.
    path = tmp_path / "empty.circ"
    path.write_text(f"n={n} gates=0\n", encoding="utf-8")
    code, out, err = run(capsys, "trie", "--input", str(path))
    assert code == 0
    assert out == "leaves=0 interior=0 count=0\n"
    assert err == ""


def test_trie_at_array_max_n(tmp_path, capsys):
    # Position codes near the top of int64: an empty circuit gives the
    # empty trie, and a circuit of two pairs the trie of their subcircuits.
    n = ARRAY_MAX_N
    path = tmp_path / "wide.circ"
    path.write_text(f"n={n} gates=0\n", encoding="utf-8")
    assert run(capsys, "trie", "--input", str(path)) == (0, "leaves=0 interior=0 count=0\n", "")
    pairs = [((1 << n) - 1, 0), ((1 << n) - 2, 0)]
    path.write_text(write_circuit(ref_gray_circuit(n, pairs)), encoding="utf-8")
    trie = build_trie(n, *subcircuit_arrays(n, [subcircuit_for_pair(r, c, n) for r, c in pairs]))
    leaves, interior = trie.counts()
    expected = f"{dump_trie(trie)}leaves={leaves} interior={interior} count={leaves + 2 * interior}\n"
    assert run(capsys, "trie", "--input", str(path)) == (0, expected, "")


@pytest.mark.parametrize("n", [ARRAY_MAX_N + 1, 64, 1 << 62, 99999999999])
def test_trie_rejects_a_circuit_file_past_array_max_n(tmp_path, capsys, n):
    # The header alone is rejected: the line after it, no gate line, is
    # never parsed.
    path = tmp_path / "wide.circ"
    path.write_text(f"n={n} gates=1\nthis is no gate line\n", encoding="utf-8")
    expected = f"error: cannot read circuit: circuits have at most n={ARRAY_MAX_N} qubits, got n={n}\n"
    assert run(capsys, "trie", "--input", str(path)) == (1, "", expected)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("spec, make_order", [("poa", poa_order), ("conventional", conventional_order)])
def test_trie_column_matches_per_pair_subcircuits(capsys, n, spec, make_order):
    # `trie --n` takes the column's pairs and builds no circuit; its dump
    # equals the trie of the subcircuits built pair by pair, and its output
    # that of the trie of the split of the column's circuit, byte for byte.
    order = make_order(n)
    for col, rows in enumerate(order.columns):
        code, out, err = run(capsys, "trie", "--n", str(n), "--order", spec, "--column", str(col))
        assert (code, err) == (0, "")
        expected = dump_trie(build_trie(n, *subcircuit_arrays(n, (subcircuit_for_pair(r, col, n) for r in rows))))
        assert out.rsplit("leaves=", 1)[0] == expected
        trie = build_trie(n, *trie_grid(split_subcircuits(identity_circuit(n, rows, [col] * len(rows)))))
        leaves, interior = trie.counts()
        assert out == f"{dump_trie(trie)}leaves={leaves} interior={interior} count={leaves + 2 * interior}\n"


VALIDATION = "order file fails validation: columns must each permute {c+1, ..., 2^n - 1}"
CONVENTIONAL_2 = save_order(conventional_order(2))


@pytest.mark.parametrize(
    "text, msg",
    [
        ("n=-1\n0: 1\n", "bad qubit count: 'n=-1'"),
        ("n=0\n", "bad qubit count: 'n=0'"),
        # 1 << n does not fit in memory: the column count rejects n first
        (f"n={1 << 62}\n0: 1\n", VALIDATION),
        (CONVENTIONAL_2, "order file is for n=2, need n=3"),
        # n=2 orders but for one row: past int64, then negative
        (CONVENTIONAL_2.replace("0: 1 2 3", "0: 1 2 100000000000000000000000000000"), VALIDATION),
        (CONVENTIONAL_2.replace("0: 1 2 3", "0: 1 2 -3"), VALIDATION),
    ],
    ids=["n=-1", "n=0", "n=2^62", "n=2", "row past int64", "negative row"],
)
@pytest.mark.parametrize("command", ["compile", "trie"])
def test_order_file_qubit_count(tmp_path, capsys, text, msg, command):
    order = tmp_path / "o.ord"
    order.write_text(text, encoding="utf-8")
    out_path = tmp_path / "c.circ"
    if command == "compile":
        argv = ("compile", "--input", str(write_unitary(tmp_path, 3)), "--order", str(order),
                "--output", str(out_path))
    else:
        argv = ("trie", "--n", "3", "--order", str(order), "--column", "0")
    code, out, err = run(capsys, *argv)
    assert code == 1
    assert out == ""
    assert err == f"error: cannot resolve order: {msg}\n"
    assert not out_path.exists()


# Buffered, gray's output first reaches the pipe at main's flush; unbuffered, each print does.
@pytest.mark.parametrize("unbuffered", [False, True], ids=["buffered", "unbuffered"])
@pytest.mark.parametrize(
    "argv",
    [("gray", "--n", "3", "--from", "0", "--to", "7"), ("order", "--n", "10"), ("trie", "--input")],
    ids=["gray", "order", "trie"],
)
def test_closed_stdout_exits_1_in_one_line(tmp_path, capsys, argv, unbuffered):
    if argv[0] == "trie":
        circuit = tmp_path / "poa5.circ"
        run(capsys, "compile", "--input", str(write_unitary(tmp_path, 5)), "--output", str(circuit))
        argv += (str(circuit),)
    env = {k: v for k, v in os.environ.items() if k != "PYTHONUNBUFFERED"}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(palinopt.__file__).parents[1]), env.get("PYTHONPATH", "")])
    if unbuffered:
        env["PYTHONUNBUFFERED"] = "1"
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "palinopt.cli", *argv], stdout=write_end,
            stderr=subprocess.PIPE, env=env, encoding="utf-8", timeout=120,
        )
    finally:
        os.close(write_end)
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ")
    assert len(proc.stderr.splitlines()) == 1
    assert "Traceback" not in proc.stderr and "Exception ignored" not in proc.stderr


def test_text_files_name_their_encoding(tmp_path):
    # Every text file the CLI reads or writes is opened as UTF-8, whatever
    # the locale, so a run warns of no default encoding.
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join([str(Path(palinopt.__file__).parents[1]), env.get("PYTHONPATH", "")])
    inp = write_unitary(tmp_path, 3)
    order = tmp_path / "o.ord"
    order.write_text(save_order(conventional_order(3)), encoding="utf-8")
    circ = tmp_path / "c.circ"
    for argv in (
        ("compile", "--input", inp, "--output", circ, "--verify"),
        ("compile", "--input", inp, "--order", order, "--output", circ, "--verify"),
        ("trie", "--input", circ),
    ):
        proc = subprocess.run(
            [sys.executable, "-X", "warn_default_encoding", "-W", "error::EncodingWarning",
             "-m", "palinopt.cli", *map(str, argv)],
            capture_output=True, encoding="utf-8", env=env, timeout=120,
        )
        assert (proc.returncode, proc.stderr) == (0, ""), argv


def _valid_inputs() -> dict:
    """Valid n=2 and n=3 input files of every kind, by (kind, n)."""
    files = {}
    for n in (2, 3):
        u = random_unitary(n, n)
        circuit = construct_circuit(two_level_decompose(u, poa_order(n)))
        files["matrix", n] = write_matrix(u)
        files["order", n] = save_order((poa_order if n == 3 else conventional_order)(n))
        files["circuit", n] = write_circuit(circuit)
        files["cancelled circuit", n] = write_circuit(cancel_pass(circuit))
    return files


VALID_INPUTS = _valid_inputs()
# What a mutation inserts: numbers past float and int64 ranges, line
# breaks and control characters, non-ASCII spaces and letters, field keys
# and the files' own separators and digits.
_INSERTS = st.sampled_from([
    "1e400", "-1e400", "nan", "inf", "99999999999", "-1", "\r", "\n", "\r\n", "\x00", "\x1f", "\x0b",
    "\xa0", "\u3000", "\u2028", "\xe9", "\u03bb", "\U0001f600", "n=", "gates=", "t=", "c=", "m=",
    "X ", "U ", "_", ",", ";", ":", " ", "\t", "0", "1", "2", "-", ".",
])


@st.composite
def mutated_inputs(draw):
    """A valid input file with one to four edits: an insert, a deletion of
    one to eight characters, or a replacement of them."""
    kind, n = draw(st.sampled_from(sorted(VALID_INPUTS)))
    text = VALID_INPUTS[kind, n]
    for _ in range(draw(st.integers(1, 4))):
        at = draw(st.integers(0, len(text)))
        edit = draw(st.sampled_from(["insert", "delete", "replace"]))
        cut = 0 if edit == "insert" else draw(st.integers(1, 8))
        text = text[:at] + ("" if edit == "delete" else draw(_INSERTS)) + text[at + cut :]
    return kind, n, text


@settings(max_examples=200, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(case=mutated_inputs(), cancel=st.booleans())
def test_every_input_path_works_or_fails_in_one_line(tmp_path, case, cancel):
    # Whatever a file holds, `main` returns 0, 1 or 2, and on 1 or 2 writes
    # exactly one line to stderr, starting "error: "; no exception leaves it.
    kind, n, text = case
    path, matrix, out = tmp_path / "input", tmp_path / "u.mat", tmp_path / "c.circ"
    path.write_text(text, encoding="utf-8", newline="")
    matrix.write_text(VALID_INPUTS["matrix", n], encoding="utf-8")
    if kind == "matrix":
        argvs = [["compile", "--input", path, "--output", out, "--verify", *["--cancel"] * cancel]]
    elif kind == "order":
        argvs = [
            ["compile", "--input", matrix, "--order", path, "--output", out, "--verify"],
            ["trie", "--n", n, "--order", path, "--column", 0],
        ]
    else:
        argvs = [["trie", "--input", path]]
    for argv in argvs:
        stdout, stderr = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            code = main([str(a) for a in argv])
        err = stderr.getvalue()
        assert code in (0, 1, 2), argv
        if code:
            assert err.startswith("error: ") and err.endswith("\n") and len(err.splitlines()) == 1, err
        else:
            assert err == ""
