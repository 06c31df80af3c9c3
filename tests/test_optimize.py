import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    array_circuit,
    cancel_pass_peephole,
    circuit_from_gates,
    column_counts,
    identity_circuit,
    intercolumn_cancellation,
    overlap,
    poa_recurrence,
    ref_cancel_pass,
    subcircuit_for_pair,
)
from strategies import random_circuits

from palinopt.decompose import two_level_decompose
from palinopt.linalg import random_unitary
from palinopt.optimize import (
    _SCAN_MAX_GATES,
    _cancel_regions,
    _cancel_scan,
    cancel_pass,
    count_structural,
    formula_conventional,
    formula_conventional_cancel,
    formula_poa,
    structural_circuit,
    table_rows,
)
from palinopt.ordering import conventional_order, poa_order
from palinopt.sim import circuit_to_matrix
from palinopt.synth import ARRAY_MAX_N, ControlledGate, construct_circuit

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


@pytest.mark.parametrize("n", [4, 5])
def test_cancel_pass_scans_small_circuits_and_grows_regions_in_large_ones(n, monkeypatch):
    circuit = construct_circuit(two_level_decompose(random_unitary(n, 1), poa_order(n)))
    unused = "_cancel_regions" if len(circuit) <= _SCAN_MAX_GATES else "_cancel_scan"
    monkeypatch.setattr(f"palinopt.optimize.{unused}", None)
    assert cancel_pass(circuit).gates == ref_cancel_pass(circuit).gates


@settings(max_examples=100, deadline=None)
@given(circuit=random_circuits(max_n=3, max_gates=30, x_share=0.8))
def test_cancel_pass_matches_peephole_on_random_sequences(circuit):
    # Few qubits and mostly X gates, so equal X gates often meet.
    assert cancel_pass(circuit).gates == tuple(cancel_pass_peephole(circuit.gates))


@settings(max_examples=100, deadline=None)
@given(circuit=random_circuits(max_n=3, max_gates=30, x_share=0.8))
def test_cancel_pass_matches_gate_object_reference(circuit):
    # Both ways over codes against the scan over gate objects.
    for cancel in (_cancel_scan, _cancel_regions):
        out = cancel(circuit)
        assert out.gates == ref_cancel_pass(circuit).gates
        assert out.u_at is circuit.u_at and out.comps is circuit.comps


# A word's letters: three X positions of 3 qubits (targets 0, 1, 2), a new
# U gate, and the last U gate again.
_LETTERS = st.sampled_from([0b000, 1 << 3 | 0b001, 2 << 3 | 0b011, "U", "U again"])
# Nested palindromes (a W a) and touching ones (W W^R V V^R) among the letters.
_WORDS = st.recursive(
    st.lists(_LETTERS, max_size=4),
    lambda inner: st.one_of(
        st.tuples(_LETTERS, inner).map(lambda t: [t[0], *t[1], t[0]]),
        st.tuples(inner, inner).map(lambda t: t[0] + t[0][::-1] + t[1] + t[1][::-1]),
        st.tuples(inner, inner).map(lambda t: t[0] + t[1]),
    ),
    max_leaves=30,
)


@settings(max_examples=400, deadline=None)
@given(word=_WORDS, wide=st.booleans())
@example(word=[0, 0, 0], wide=False)  # the left pair cancels
@example(word=[0, 8, 0, 0, 8, 0, 8, 8], wide=False)  # touching regions merge, then grow
@example(word=[0, "U", "U again", 0], wide=False)  # equal U codes do not cancel
@example(word=["U", 0, 0, "U again"], wide=False)  # nor do they around a region
def test_cancel_pass_matches_the_stack_reference_on_any_codes(word, wide):
    # Past ARRAY_MAX_N the codes are Python ints: the positions move up to
    # qubits n - 3 .. n - 1, which gives codes past int64.
    n = ARRAY_MAX_N + 3 if wide else 3

    def at(letter):
        target, base = letter >> 3, letter & 7
        return (target + n - 3) << n | base << (n - 3)

    code, u_at = [], []
    for letter in word:
        if letter == "U" or (letter == "U again" and not u_at):
            u_at.append(at(len(u_at) % 4 << 1))  # target 0, bits 1 and 2 drawn
        code.append(~(len(u_at) - 1) if isinstance(letter, str) else at(letter))
    circuit = array_circuit(n, code, u_at, np.broadcast_to(np.eye(2, dtype=complex), (len(u_at), 2, 2)))
    for cancel in (_cancel_scan, _cancel_regions):
        out = cancel(circuit)
        assert out.gates == ref_cancel_pass(circuit).gates
        assert out.code.dtype == circuit.code.dtype


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


@pytest.mark.parametrize("n", range(2, 11))
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
        measured = len(cancel_pass(identity_circuit(n, rows, [c] * len(rows))))
        assert measured == counts[c]


@pytest.mark.parametrize("make_order", [conventional_order, poa_order])
def test_structural_circuit_is_its_columns_concatenated(make_order):
    order = make_order(4)
    columns = [identity_circuit(4, rows, [c] * len(rows)) for c, rows in enumerate(order.columns)]
    whole = identity_circuit(4, order.rows, order.cols)
    assert whole.gates == tuple(g for col in columns for g in col.gates)
    held = structural_circuit(4, order.rows, order.cols)
    assert (len(held), held.cancelled_len()) == (len(whole), len(cancel_pass(whole)))


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
