import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (
    apply_gate,
    circuit_from_gates,
    circuit_matrix,
    expand_two_level,
    ref_circuit_to_matrix,
    subcircuit_for_pair,
    subcircuits_circuit,
)
from strategies import random_circuits

from palinopt.decompose import two_level_decompose
from palinopt.linalg import TwoLevelMatrix, is_unitary, random_unitary
from palinopt.optimize import cancel_pass
from palinopt.ordering import conventional_order, poa_order
from palinopt.sim import circuit_to_matrix, verify
from palinopt.synth import ControlledGate, construct_circuit

X2 = np.array([[0, 1], [1, 0]], dtype=complex)


def basis(n, x):
    v = np.zeros(1 << n, dtype=complex)
    v[x] = 1.0
    return v


def test_x_on_single_qubit():
    g = ControlledGate(n=1, target=0, base=0, op="X")
    assert np.array_equal(apply_gate(basis(1, 0), g), basis(1, 1))
    assert np.array_equal(apply_gate(basis(1, 1), g), basis(1, 0))


def test_cnot_action():
    # |x, y> -> |x, x XOR y> with qubit 1 as control
    cnot = ControlledGate(n=2, target=0, base=0b10, op="X")
    assert np.array_equal(apply_gate(basis(2, 0b10), cnot), basis(2, 0b11))
    assert np.array_equal(apply_gate(basis(2, 0b11), cnot), basis(2, 0b10))
    assert np.array_equal(apply_gate(basis(2, 0b00), cnot), basis(2, 0b00))


def test_unmet_control_is_identity():
    g = ControlledGate(n=3, target=0, base=0b110, op="X")
    for x in range(6):  # states with qubit 2 or 1 unset
        assert np.array_equal(apply_gate(basis(3, x), g), basis(3, x))


def test_x_gate_twice_is_identity_on_states():
    rng = np.random.default_rng(1)
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    g = ControlledGate(n=3, target=1, base=0b001, op="X")
    assert np.allclose(apply_gate(apply_gate(state, g), g), state)


def test_norm_preservation():
    rng = np.random.default_rng(2)
    state = rng.standard_normal(8) + 1j * rng.standard_normal(8)
    state /= np.linalg.norm(state)
    g = ControlledGate(
        n=3, target=2, base=0b001,
        op=np.array([[0.6, 0.8j], [0.8j, 0.6]]),
    )
    out = apply_gate(state, g)
    assert abs(np.linalg.norm(out) - 1.0) < 1e-12


def test_dimension_mismatch():
    g = ControlledGate(n=2, target=0, base=0b00, op="X")
    with pytest.raises(ValueError):
        apply_gate(np.zeros(8, dtype=complex), g)


def test_empty_circuit_is_identity():
    assert np.array_equal(circuit_to_matrix(circuit_from_gates(3, ())), np.eye(8))


def test_gray_walk_circuit_is_two_level_x():
    # The 5-gate walk between |000> and |111> with an X middle acts as the
    # permutation swapping indices 0 and 7.
    t = TwoLevelMatrix(row=7, col=0, comp=X2, dim=8)
    circuit = subcircuits_circuit(3, [subcircuit_for_pair(t.row, t.col, 3)], [t.comp])
    m = circuit_to_matrix(circuit)
    assert np.allclose(m, expand_two_level(t))


def test_circuit_matrix_unitary():
    d = two_level_decompose(random_unitary(3, 9), poa_order(3))
    m = circuit_to_matrix(construct_circuit(d))
    assert is_unitary(m)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_end_to_end_oracle(n):
    u = random_unitary(n, 13)
    for order in (conventional_order(n), poa_order(n)):
        d = two_level_decompose(u, order)
        circuit = construct_circuit(d)
        assert np.max(np.abs(circuit_to_matrix(circuit) - u)) < 1e-9


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits())
def test_circuit_to_matrix_matches_column_oracle(circuit):
    m = circuit_to_matrix(circuit)
    assert np.max(np.abs(m - circuit_matrix(circuit))) < 1e-12


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits())
def test_circuit_to_matrix_matches_gate_object_reference(circuit):
    # Row views updated through a scratch pair against the fancy-indexed
    # gather and scatter over gate objects.
    assert np.max(np.abs(circuit_to_matrix(circuit) - ref_circuit_to_matrix(circuit))) < 1e-12


def test_verify_identity():
    report = verify(np.eye(4), circuit_from_gates(2, ()))
    assert report.passed
    assert report.frobenius == 0.0
    assert report.gates == 0


def test_verify_pipeline_and_report_text():
    u = random_unitary(3, 21)
    d = two_level_decompose(u, conventional_order(3))
    circuit = cancel_pass(construct_circuit(d))
    report = verify(u, circuit)
    assert report.passed
    text = str(report)
    assert text.startswith("pass=true frobenius=")
    assert f"gates={len(circuit)}" in text


def test_verify_detects_deleted_gate():
    u = random_unitary(3, 21)
    d = two_level_decompose(u, conventional_order(3))
    circuit = construct_circuit(d)
    mutated = circuit_from_gates(3, circuit.gates[:-1])
    report = verify(u, mutated)
    assert not report.passed
    assert report.frobenius > 0.5


def test_verify_dimension_mismatch():
    with pytest.raises(ValueError):
        verify(np.eye(8), circuit_from_gates(2, ()))
