import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (
    cancel_pass_peephole,
    circuit_from_gates,
    column_counts,
    intercolumn_cancellation,
    overlap,
    ref_cancel_pass,
    subcircuit_for_pair,
)
from strategies import random_circuits

from palinopt.decompose import two_level_decompose
from palinopt.linalg import random_unitary
from palinopt.optimize import (
    cancel_pass,
    count_structural,
    formula_conventional,
    formula_conventional_cancel,
    formula_poa,
    poa_recurrence,
    structural_circuit,
    table_rows,
)
from palinopt.ordering import conventional_order, poa_order
from palinopt.sim import circuit_to_matrix
from palinopt.synth import ControlledGate, construct_circuit

TABLE = {
    2: (8, 8, 10),
    3: (50, 62, 68),
    4: (246, 378, 392),
    5: (1086, 2034, 2064),
    6: (4558, 10210, 10272),
    7: (18670, 49090, 49216),
}


def xgate(n, target, base):
    return ControlledGate(n=n, target=target, base=base, op="X")


def test_cancel_adjacent_pair():
    g = xgate(3, 0, 0b000)
    assert cancel_pass(circuit_from_gates(3, (g, g))).gates == ()


def test_cancel_abc_example():
    # ABC A1 CBA ABA2BA -> ABC A1 C A2 BA (13 symbols down to 8)
    a = xgate(4, 0, 0b0000)
    b = xgate(4, 1, 0b0000)
    c = xgate(4, 2, 0b0000)
    m1 = ControlledGate(n=4, target=3, base=0b0000, op=np.eye(2))
    m2 = ControlledGate(n=4, target=3, base=0b0100, op=np.eye(2))
    gates = (a, b, c, m1, c, b, a, a, b, m2, b, a)
    out = cancel_pass(circuit_from_gates(4, gates))
    assert out.gates == (a, b, c, m1, c, m2, b, a)


def test_cancel_keeps_component_gates():
    m = ControlledGate(n=2, target=0, base=0b00, op=np.eye(2))
    out = cancel_pass(circuit_from_gates(2, (m, m)))
    assert len(out) == 2


def test_cancel_full_conventional_n3():
    d = two_level_decompose(random_unitary(3, 0), conventional_order(3))
    circuit = construct_circuit(d)
    assert len(circuit) == 68
    assert len(cancel_pass(circuit)) == 62


@pytest.mark.parametrize("n", [2, 3, 4])
def test_stack_and_peephole_agree(n):
    for order in (conventional_order(n), poa_order(n)):
        d = two_level_decompose(random_unitary(n, 1), order)
        circuit = construct_circuit(d)
        assert cancel_pass(circuit).gates == tuple(cancel_pass_peephole(circuit.gates))


@settings(max_examples=100, deadline=None)
@given(circuit=random_circuits(max_n=3, max_gates=30, x_share=0.8))
def test_cancel_pass_matches_peephole_on_random_sequences(circuit):
    # Few qubits and mostly X gates, so equal X gates often meet.
    assert cancel_pass(circuit).gates == tuple(cancel_pass_peephole(circuit.gates))


@settings(max_examples=100, deadline=None)
@given(circuit=random_circuits(max_n=3, max_gates=30, x_share=0.8))
def test_cancel_pass_matches_gate_object_reference(circuit):
    # The scan over codes against the same scan over gate objects.
    out = cancel_pass(circuit)
    assert out.gates == ref_cancel_pass(circuit).gates
    assert out.u_at is circuit.u_at and out.comps is circuit.comps


@pytest.mark.parametrize("n", [3, 4])
def test_cancel_preserves_semantics(n):
    for seed in range(5):
        d = two_level_decompose(random_unitary(n, seed), poa_order(n))
        circuit = construct_circuit(d)
        before = circuit_to_matrix(circuit)
        after = circuit_to_matrix(cancel_pass(circuit))
        assert np.max(np.abs(before - after)) < 1e-10


@pytest.mark.parametrize("n,expected", sorted(TABLE.items()))
def test_formulas_match_table(n, expected):
    assert formula_poa(n) == expected[0]
    assert formula_conventional_cancel(n) == expected[1]
    assert formula_conventional(n) == expected[2]


@pytest.mark.parametrize("n", range(2, 8))
def test_recurrence_matches_closed_form(n):
    assert poa_recurrence(n) == formula_poa(n)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_count_structural_matches_formulas(n):
    conv = conventional_order(n)
    poa = poa_order(n)
    assert count_structural(n, conv, cancelled=False) == formula_conventional(n)
    assert count_structural(n, conv, cancelled=True) == formula_conventional_cancel(n)
    assert count_structural(n, poa, cancelled=True) == formula_poa(n)


def test_count_structural_spec_points():
    assert count_structural(3, conventional_order(3), cancelled=False) == 68
    assert count_structural(3, poa_order(3), cancelled=True) == 50
    assert count_structural(2, poa_order(2), cancelled=True) == 8


def test_column_counts_n3():
    counts = column_counts(3)
    assert counts[0] == 13
    assert counts[-1] == 1
    assert len(counts) == 7


@pytest.mark.parametrize("n", range(2, 7))
def test_column_counts_assemble_to_poa(n):
    assert sum(column_counts(n)) - 2 * ((1 << (n - 1)) - 1) == formula_poa(n)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_column_counts_match_measured_columns(n):
    order = poa_order(n)
    counts = column_counts(n)
    for c, rows in enumerate(order.columns):
        measured = len(cancel_pass(structural_circuit(n, ((r, c) for r in rows))))
        assert measured == counts[c]


@pytest.mark.parametrize("make_order", [conventional_order, poa_order])
def test_structural_circuit_is_its_columns_concatenated(make_order):
    order = make_order(4)
    columns = [
        structural_circuit(4, ((r, c) for r in rows)) for c, rows in enumerate(order.columns)
    ]
    whole = structural_circuit(4, order.pairs())
    assert whole.gates == tuple(g for col in columns for g in col.gates)


@pytest.mark.parametrize("n", range(2, 7))
@pytest.mark.parametrize("make_order", [conventional_order, poa_order])
def test_intercolumn_cancellation_count(n, make_order):
    assert intercolumn_cancellation(n, make_order(n)) == 2 * ((1 << (n - 1)) - 1)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_parity_blocks_overlap(n):
    # Adjacent rows of differing parity never overlap, in any column of
    # either ordering.
    for order in (conventional_order(n), poa_order(n)):
        for c, rows in enumerate(order.columns):
            subs = [subcircuit_for_pair(r, c, n) for r in rows]
            for (r1, s1), (r2, s2) in zip(zip(rows, subs), zip(rows[1:], subs[1:])):
                if r1 % 2 != r2 % 2:
                    assert overlap(s1, s2) == 0


def test_table_rows_both_mode():
    rows = table_rows(2, 7, mode="both")
    assert rows == [(n, *TABLE[n]) for n in range(2, 8)]


def test_formula_domain_errors():
    with pytest.raises(ValueError):
        formula_poa(1)
    with pytest.raises(ValueError):
        poa_recurrence(1)
    with pytest.raises(ValueError):
        formula_conventional(0)
