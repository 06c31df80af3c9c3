import numpy as np
import pytest

from palinopt.decompose import two_level_decompose
from palinopt.linalg import TwoLevelMatrix, random_unitary
from palinopt.ordering import conventional_order
from palinopt.synth import (
    Circuit,
    ControlledGate,
    build_subcircuit,
    construct_circuit,
    gray_code,
    read_circuit,
    split_subcircuits,
    subcircuit_for_pair,
    write_circuit,
)

X2 = np.array([[0, 1], [1, 0]], dtype=complex)


def bits(codes, n):
    return [format(g, f"0{n}b") for g in codes]


def test_gray_code_000_to_111():
    assert bits(gray_code(0, 7, 3), 3) == ["000", "001", "011", "111"]


def test_gray_code_single_flip():
    assert bits(gray_code(0, 1, 3), 3) == ["000", "001"]


def test_gray_code_rightmost_first():
    # 010 vs 100 differ in bits 1 and 2; bit 1 flips first
    assert bits(gray_code(2, 4, 3), 3) == ["010", "000", "100"]


def test_gray_code_properties():
    for c in range(8):
        for r in range(8):
            if c == r:
                continue
            codes = gray_code(c, r, 3)
            assert codes[0] == c and codes[-1] == r
            assert len(codes) <= 4
            flips = [(a ^ b) for a, b in zip(codes, codes[1:])]
            assert all(f.bit_count() == 1 for f in flips)
            # flip significance strictly increases
            assert flips == sorted(flips)


def test_gray_code_rejects_equal_endpoints():
    with pytest.raises(ValueError):
        gray_code(3, 3, 3)
    with pytest.raises(ValueError):
        gray_code(0, 8, 3)


def test_subcircuit_pair_7_0():
    v = TwoLevelMatrix(row=7, col=0, comp=X2, dim=8)
    sub = build_subcircuit(v, 3)
    gates = sub.flatten()
    assert len(gates) == 5
    assert [g.is_x for g in gates] == [True, True, False, True, True]
    assert (gates[0].target, gates[0].controls) == (0, ((1, 0), (2, 0)))
    assert (gates[1].target, gates[1].controls) == (1, ((0, 1), (2, 0)))
    assert (gates[2].target, gates[2].controls) == (2, ((0, 1), (1, 1)))
    assert gates[3] == gates[1] and gates[4] == gates[0]


def test_subcircuit_adjacent_pair_has_empty_prefix():
    v = TwoLevelMatrix(row=1, col=0, comp=X2, dim=8)
    sub = build_subcircuit(v, 3)
    assert sub.prefix == ()
    assert (sub.middle.target, sub.middle.controls) == (0, ((1, 0), (2, 0)))


def test_subcircuit_pair_2_0():
    sub = subcircuit_for_pair(2, 0, 3)
    assert sub.prefix == ()
    assert (sub.middle.target, sub.middle.controls) == (1, ((0, 0), (2, 0)))


def test_subcircuit_length_formula():
    # A Gray sequence of m codes yields 2(m-1) - 1 gates.
    for c in range(8):
        for r in range(c + 1, 8):
            m = len(gray_code(c, r, 3))
            assert len(subcircuit_for_pair(r, c, 3)) == 2 * m - 3


def test_prefix_targets_strictly_increase():
    for c in range(16):
        for r in range(c + 1, 16):
            targets = [g.target for g in subcircuit_for_pair(r, c, 4).prefix]
            assert targets == sorted(set(targets))


def test_construct_circuit_identity_counts():
    d = two_level_decompose(np.eye(4), conventional_order(2))
    assert len(construct_circuit(d)) == 10
    assert len(construct_circuit(d, skip_identity=True)) == 0


def test_construct_circuit_n3_count():
    d = two_level_decompose(random_unitary(3, 1), conventional_order(3))
    assert len(construct_circuit(d)) == 68


def test_circuit_applies_v_k_first():
    # V_1 ... V_k = U applies V_k to the state first, so the last factor's
    # subcircuit leads the gate sequence.
    d = two_level_decompose(random_unitary(2, 2), conventional_order(2))
    circuit = construct_circuit(d)
    first = build_subcircuit(d.factors[-1], 2).flatten()
    assert circuit.gates[: len(first)] == first


def test_controls_cover_non_target_qubits():
    with pytest.raises(ValueError):
        ControlledGate(n=3, target=0, controls=((1, 0),), op="X")
    with pytest.raises(ValueError):
        ControlledGate(n=3, target=0, controls=((0, 0), (1, 0)), op="X")


@pytest.mark.parametrize("target", [-1, 3, 5])
def test_target_must_be_a_qubit(target):
    with pytest.raises(ValueError, match="target"):
        ControlledGate(n=3, target=target, controls=((0, 1), (1, 0), (2, 1)), op="X")


def test_gate_pattern_rendering():
    g = ControlledGate(n=3, target=1, controls=((0, 1), (2, 0)), op="X")
    assert g.pattern() == "0_1"


def test_x_gate_self_inverse_symbolically():
    a = ControlledGate(n=3, target=2, controls=((0, 0), (1, 1)), op="X")
    b = ControlledGate(n=3, target=2, controls=((0, 0), (1, 1)), op="X")
    assert a == b and hash(a) == hash(b)
    assert a != ControlledGate(n=3, target=2, controls=((0, 1), (1, 1)), op="X")


def test_circuit_text_round_trip():
    d = two_level_decompose(random_unitary(3, 6), conventional_order(3))
    circuit = construct_circuit(d)
    text = write_circuit(circuit)
    again = read_circuit(text)
    assert again.n == circuit.n
    assert len(again) == len(circuit)
    for g1, g2 in zip(circuit.gates, again.gates):
        assert g1.is_x == g2.is_x
        assert (g1.target, g1.controls) == (g2.target, g2.controls)
        if not g1.is_x:
            assert np.array_equal(g1.op, g2.op)
    # serialization is bit-stable
    assert write_circuit(again) == text


def test_circuit_text_format():
    sub = subcircuit_for_pair(7, 0, 3)
    text = write_circuit(Circuit(3, sub.flatten()))
    lines = text.splitlines()
    assert lines[0] == "n=3 gates=5"
    assert lines[1] == "X t=0 c=00_"
    assert lines[3].startswith("U t=2 c=_11 m=1.0,0.0;0.0,0.0;0.0,0.0;1.0,0.0")


def test_read_circuit_rejects_garbage():
    with pytest.raises(ValueError):
        read_circuit("bogus\n")
    with pytest.raises(ValueError):
        read_circuit("n=2 gates=1\n")
    with pytest.raises(ValueError):
        read_circuit("n=2 gates=1\nX t=0 c=00\n")  # no target slot


@pytest.mark.parametrize("line", ["X c=0_", "X t=0", "U t=0 c=0_", "U c=0_ m=1,0;0,0;0,0;1,0"])
def test_read_circuit_missing_field_is_value_error(line):
    with pytest.raises(ValueError, match="missing field"):
        read_circuit(f"n=2 gates=1\n{line}\n")


def test_read_circuit_rejects_target_out_of_range():
    # Pattern without a '_' slot and t beyond n: the controls cover qubits
    # 0 and 1, so only the target range check stops it.
    with pytest.raises(ValueError, match="target"):
        read_circuit("n=2 gates=1\nX t=5 c=01\n")


@pytest.mark.parametrize(
    "m, match",
    [
        ("2,0;0,0;0,0;2,0", "not unitary"),
        ("1,0;1,0;0,0;1,0", "not unitary"),
        ("nan,0;0,0;0,0;1,0", "non-finite"),
        ("1,0;0,inf;0,0;1,0", "non-finite"),
        ("1e200,1e200;0,0;0,0;1,0", "not unitary"),
    ],
)
def test_read_circuit_rejects_bad_component(m, match):
    with pytest.raises(ValueError, match=match):
        read_circuit(f"n=2 gates=1\nU t=0 c=0_ m={m}\n")


def test_read_circuit_rejects_bad_header_n():
    with pytest.raises(ValueError, match="header"):
        read_circuit("n=0 gates=0\n")


def test_split_subcircuits_round_trip():
    d = two_level_decompose(random_unitary(3, 3), conventional_order(3))
    circuit = construct_circuit(d)
    subs = split_subcircuits(circuit)
    assert len(subs) == len(d.factors)
    flat = tuple(g for s in subs for g in s.flatten())
    assert flat == circuit.gates


def test_split_subcircuits_rejects_cancelled():
    from palinopt.optimize import cancel_pass

    d = two_level_decompose(random_unitary(3, 3), conventional_order(3))
    cancelled = cancel_pass(construct_circuit(d))
    with pytest.raises(ValueError):
        split_subcircuits(cancelled)
