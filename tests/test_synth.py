import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    cancel_pass_peephole,
    circuit_from_gates,
    ref_construct,
    ref_read_circuit,
    ref_write,
    subcircuit_for_pair,
    subcircuits_circuit,
)
from strategies import random_circuits, valid_orders

from palinopt import cli, synth
from palinopt.decompose import two_level_decompose
from palinopt.linalg import TwoLevelMatrix, random_unitary, write_matrix
from palinopt.optimize import cancel_pass
from palinopt.ordering import conventional_order, poa_order
from palinopt.synth import (
    Circuit,
    ControlledGate,
    construct_circuit,
    gray_code,
    read_circuit,
    split_subcircuits,
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
    prefix, pair = subcircuit_for_pair(v.row, v.col, 3)
    assert prefix == (0 << 3 | 0b000, 1 << 3 | 0b001) and pair == (7, 0)
    circuit = subcircuits_circuit(3, [(prefix, pair)], [v.comp])
    assert circuit.u_at == [2 << 3 | 0b011]
    gates = circuit.gates
    assert len(gates) == 5
    assert [g.is_x for g in gates] == [True, True, False, True, True]
    assert (gates[0].target, gates[0].base) == (0, 0b000)
    assert (gates[1].target, gates[1].base) == (1, 0b001)
    assert (gates[2].target, gates[2].base) == (2, 0b011)
    assert [g.pattern() for g in gates[:3]] == ["00_", "0_1", "_11"]
    assert gates[3] == gates[1] and gates[4] == gates[0]


def test_subcircuit_adjacent_pair_has_empty_prefix():
    v = TwoLevelMatrix(row=1, col=0, comp=X2, dim=8)
    sub = subcircuit_for_pair(v.row, v.col, 3)
    assert sub[0] == ()
    [middle] = subcircuits_circuit(3, [sub]).u_at
    assert (middle >> 3, middle & 0b111) == (0, 0b000)


def test_subcircuit_pair_2_0():
    sub = subcircuit_for_pair(2, 0, 3)
    assert sub[0] == ()
    [middle] = subcircuits_circuit(3, [sub]).u_at
    assert (middle >> 3, middle & 0b111) == (1, 0b000)


def test_subcircuit_length_formula():
    # A Gray sequence of m codes yields 2(m-1) - 1 gates.
    for c in range(8):
        for r in range(c + 1, 8):
            m = len(gray_code(c, r, 3))
            sub = subcircuit_for_pair(r, c, 3)
            assert len(subcircuits_circuit(3, [sub])) == 2 * len(sub[0]) + 1 == 2 * m - 3


def test_prefix_targets_strictly_increase():
    for c in range(16):
        for r in range(c + 1, 16):
            targets = [x >> 4 for x in subcircuit_for_pair(r, c, 4)[0]]
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
    last = d.factors[-1]
    first = subcircuits_circuit(2, [subcircuit_for_pair(last.row, last.col, 2)], [last.comp]).gates
    assert circuit.gates[: len(first)] == first


def test_base_must_be_a_state_with_target_bit_clear():
    with pytest.raises(ValueError, match="target bit"):
        ControlledGate(n=3, target=0, base=0b011, op="X")
    with pytest.raises(ValueError, match="target bit"):
        ControlledGate(n=3, target=2, base=0b100, op="X")
    for base in (-1, 8, 0b1010):
        with pytest.raises(ValueError, match="base"):
            ControlledGate(n=3, target=0, base=base, op="X")
    with pytest.raises(ValueError, match="symbol"):
        ControlledGate(n=3, target=0, base=0, op="Y")
    assert ControlledGate(n=3, target=0, base=0b110, op="X").basis_pair == (6, 7)


@pytest.mark.parametrize("target", [-1, 3, 5])
def test_target_must_be_a_qubit(target):
    with pytest.raises(ValueError, match="target"):
        ControlledGate(n=3, target=target, base=0b000, op="X")


def test_gate_pattern_rendering():
    g = ControlledGate(n=3, target=1, base=0b001, op="X")
    assert g.pattern() == "0_1"


def test_gate_is_immutable():
    g = ControlledGate(n=3, target=1, base=0b001, op="X")
    with pytest.raises(AttributeError):
        g.base = 0


def test_x_gate_self_inverse_symbolically():
    a = ControlledGate(n=3, target=2, base=0b010, op="X")
    b = ControlledGate(n=3, target=2, base=0b010, op="X")
    assert a == b and hash(a) == hash(b)
    assert (a.target, a.base) == (b.target, b.base) == (2, 0b010)
    assert a != ControlledGate(n=3, target=2, base=0b011, op="X")


def test_circuit_text_round_trip():
    d = two_level_decompose(random_unitary(3, 6), conventional_order(3))
    circuit = construct_circuit(d)
    text = write_circuit(circuit)
    again = read_circuit(text)
    assert again.n == circuit.n
    assert len(again) == len(circuit)
    for g1, g2 in zip(circuit.gates, again.gates):
        assert g1.is_x == g2.is_x
        assert (g1.target, g1.base) == (g2.target, g2.base)
        if not g1.is_x:
            assert np.array_equal(g1.op, g2.op)
    # serialization is bit-stable
    assert write_circuit(again) == text


def test_circuit_text_format():
    sub = subcircuit_for_pair(7, 0, 3)
    text = write_circuit(subcircuits_circuit(3, [sub]))
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
        ("1,0;0,0;0,0", "needs 4 entries"),
        ("1,0;0,0;0,0;1,0;0,0", "needs 4 entries"),
        ("1,0;0;0,0;1,0", "re,im pairs"),
        ("1,0;0,0,0;0,0;1,0", "re,im pairs"),
        # four commas in four entries, but not one in each
        ("1;0,0,0;0,0;1,0", "re,im pairs"),
        ("1,0;,0;0,0;1,0", "bad number ''"),
        ("1,0;0,x;0,0;1,0", "bad number 'x'"),
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
    flat = subcircuits_circuit(3, subs, circuit.comps)
    assert flat.code == circuit.code and flat.u_at == circuit.u_at
    assert flat.gates == circuit.gates


def test_split_subcircuits_rejects_cancelled():
    from palinopt.optimize import cancel_pass

    d = two_level_decompose(random_unitary(3, 3), conventional_order(3))
    cancelled = cancel_pass(construct_circuit(d))
    with pytest.raises(ValueError):
        split_subcircuits(cancelled)


def test_split_subcircuits_recovers_pairs():
    for order in (conventional_order(3), poa_order(3)):
        d = two_level_decompose(random_unitary(3, 3), order)
        subs = split_subcircuits(read_circuit(write_circuit(construct_circuit(d))))
        assert [pair for _, pair in subs] == [f.pair for f in reversed(d.factors)]


def test_construct_shares_x_gates():
    d = two_level_decompose(random_unitary(3, 4), poa_order(3))
    x_gates = [g for g in construct_circuit(d).gates if g.is_x]
    by_symbol = {(g.target, g.base): g for g in x_gates}
    assert all(g is by_symbol[g.target, g.base] for g in x_gates)
    assert len(by_symbol) <= 3 * 4  # n * 2^(n-1) distinct X gates at most


@settings(max_examples=30, deadline=None)
@given(order=valid_orders(2, 5), seed=st.integers(0, 2**32 - 1))
def test_circuit_text_matches_controls_tuple_reference(order, seed):
    # The (target, base) gates and their writer give, byte for byte, the
    # text of gates that list every control bit, cancelled or not.
    d = two_level_decompose(random_unitary(order.n, seed), order)
    circuit, reference = construct_circuit(d), ref_construct(d)
    assert write_circuit(circuit) == ref_write(d.n, reference)
    assert write_circuit(cancel_pass(circuit)) == ref_write(d.n, cancel_pass_peephole(reference))


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits(max_n=5, max_gates=30))
def test_read_write_round_trip_gate_for_gate(circuit):
    again = read_circuit(write_circuit(circuit))
    assert again.n == circuit.n
    assert again.gates == circuit.gates
    assert all(g.op.dtype == complex for g in again.gates if not g.is_x)


@pytest.mark.parametrize(
    "m, match",
    [
        ("2,0;0,0;0,0;2,0", "not unitary"),
        ("nan,0;0,0;0,0;1,0", "non-finite"),
        ("1,0;0,0;0,0", "needs 4 entries"),
        ("1,0;0,0,0;0,0;1,0", "re,im pairs"),
        ("1,0;0,x;0,0;1,0", "bad number 'x'"),
    ],
)
def test_read_circuit_names_the_first_bad_component_line(m, match):
    # The components are checked all at once; the message still quotes the
    # first line that fails, here the third of four U lines.
    good = "1.0,0.0;0.0,0.0;0.0,0.0;1.0,0.0"
    bad = f"U t=1 c=_1 m={m}"
    body = [f"U t=0 c=0_ m={good}", "X t=0 c=1_", bad, f"U t=1 c=_0 m={m}"]
    with pytest.raises(ValueError, match=match) as info:
        read_circuit("n=2 gates=4\n" + "\n".join(body) + "\n")
    assert str(info.value).endswith(repr(bad))


def test_circuit_codes_match_its_gates():
    # X gates are position codes target << n | base, U gate j is ~j with
    # its position in u_at[j] and its component in comps[j].
    n = 3
    d = two_level_decompose(random_unitary(n, 5), poa_order(n))
    circuit = cancel_pass(construct_circuit(d))
    assert len(circuit.code) == len(circuit) == len(circuit.gates)
    j = 0
    for g, gate in zip(circuit.code, circuit.gates):
        at = gate.target << n | gate.base
        if gate.is_x:
            assert g == at
        else:
            assert g == ~j and circuit.u_at[j] == at
            assert np.array_equal(circuit.comps[j], gate.op)
            j += 1
    assert j == len(circuit.u_at) == len(d.factors)
    assert np.array_equal(circuit.comps, d.comps[::-1])


def test_circuit_shares_each_distinct_x_code():
    # At n=6 most position codes are past CPython's cached small ints.
    d = two_level_decompose(random_unitary(6, 4), conventional_order(6))
    for circuit in (construct_circuit(d), read_circuit(write_circuit(construct_circuit(d)))):
        first = {}
        for g in circuit.code:
            if g >= 0:
                assert first.setdefault(g, g) is g


def test_circuit_rejects_mismatched_components():
    with pytest.raises(ValueError, match="components"):
        Circuit(2, [~0], [0], np.zeros((2, 2, 2), dtype=complex))
    gate = ControlledGate(n=3, target=0, base=0, op="X")
    with pytest.raises(ValueError, match="n=3"):
        circuit_from_gates(2, [gate])


def test_gates_are_built_once_on_first_access():
    d = two_level_decompose(random_unitary(2, 3), conventional_order(2))
    circuit = construct_circuit(d)
    assert "gates" not in vars(circuit)
    assert circuit.gates is circuit.gates


@pytest.mark.parametrize("order", ["poa", "conventional"])
def test_compile_builds_no_gate_object(tmp_path, capsys, monkeypatch, order):
    def no_gate(self, *args):
        raise AssertionError("built a ControlledGate")

    monkeypatch.setattr(ControlledGate, "__init__", no_gate)
    matrix = tmp_path / "u.mat"
    matrix.write_text(write_matrix(random_unitary(3, 2)))
    argv = ["compile", "--input", str(matrix), "--order", order, "--cancel", "--verify",
            "--output", str(tmp_path / "u.circ")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("pass=true ")


def test_circuit_text_past_one_block_of_components(monkeypatch):
    # 4100 U gates: several blocks of the writer and the reader.
    n = 2
    gates = []
    for s in range(4100):
        target = s % 2
        gates.append(ControlledGate(n, target, (s >> 1 & 1) << (1 - target), random_unitary(1, s)))
    circuit = circuit_from_gates(n, gates)
    text = write_circuit(circuit)
    blocks = []
    components = synth._components

    def recorded(fields, lines):
        blocks.append(len(fields))
        return components(fields, lines)

    monkeypatch.setattr(synth, "_components", recorded)
    again = read_circuit(text)
    assert blocks == [1024, 1024, 1024, 1024, 4]
    assert np.array_equal(again.comps, circuit.comps)
    assert again.code == circuit.code and again.u_at == circuit.u_at
    assert write_circuit(again) == text
    lines = text.splitlines()
    lines[4099] = lines[4099].split(" m=")[0] + " m=2,0;0,0;0,0;2,0"  # U gate 4098
    with pytest.raises(ValueError, match="not unitary") as info:
        read_circuit("\n".join(lines))
    assert str(info.value).endswith(repr(lines[4099]))


_M = "0.0,0.0;1.0,0.0;1.0,0.0;0.0,0.0"


@pytest.mark.parametrize(
    "line",
    [
        f"U t=0 c=0_ m={_M}",
        f"U  t=0 c=0_ m={_M}",
        f"U t=0  c=0_ m={_M}",
        f"U t=0 c=0_  m={_M}",
        f"U\tt=0\tc=0_ m={_M}",
        f"U t=0 c=0_\tm={_M}",
        f"U t=0 c=0_ m={_M}\t",
        f"U t=0 c=0_ m={_M} ",
        f"U c=0_ t=0 m={_M}",
        f"U m={_M} t=0 c=0_",
        f"U t=0 m={_M} c=0_",
        f"U t=0 c=0_ m={_M} x",
        f"U t=0 c=0_ m={_M} t=1",
        f"U t=0 c=0_ m={_M} c=1_",
        f"U t=0 c=0_ m={_M} m=2,0;0,0;0,0;2,0",
        f"U t=0 c=0_ m= {_M}",
        f"U t=0 c=0_ m={_M};",
        "U t=0 c=0_ m=",
        "U t=0 c=0_ m=x",
        "U t=0 c=0_ m=x\t",
        "U t=0 c=0_",
        f"X t=0 c=0_ m={_M}",
        f"V t=0 c=0_ m={_M}",
        f"U t=0 c=0_ m=={_M}",
        f"U t=0 c=0_ m={_M}=",
    ],
)
@pytest.mark.parametrize("first", [True, False], ids=["head-seen-first", "line-first"])
def test_read_circuit_matches_the_full_parse_reference(line, first):
    # The reader parses a U line's head once and reuses it for lines made
    # of that head, " m=" and one field without whitespace.  Any other line
    # gets the full parse, so codes, components and error lines equal those
    # of the reference reader, which parses every such line in full.
    canonical = [f"U t=0 c=0_ m={_M}", "X t=0 c=1_", "U t=0 c=0_ m=1.0,0.0;0.0,0.0;0.0,0.0;1.0,0.0"]
    body = canonical + [line] if first else [line] + canonical
    text = f"n=2 gates={len(body)}\n" + "\n".join(body) + "\n"

    def outcome(read):
        try:
            c = read(text)
        except ValueError as exc:
            return str(exc)
        return c.n, c.code, c.u_at, c.comps.tolist()

    assert outcome(read_circuit) == outcome(ref_read_circuit)


def test_read_circuit_parses_each_u_line_head_once(monkeypatch):
    calls = []
    parse = synth._parse_fields

    def counted(tokens):
        calls.append(tokens[0])
        return parse(tokens)

    monkeypatch.setattr(synth, "_parse_fields", counted)
    d = two_level_decompose(random_unitary(3, 8), poa_order(3))
    circuit = construct_circuit(d)
    text = write_circuit(circuit)
    again = read_circuit(text)
    assert again.code == circuit.code and np.array_equal(again.comps, circuit.comps)
    heads = {ln.split(" m=")[0] for ln in text.splitlines()[1:]}
    assert len(calls) == 1 + len(heads)  # the header, then each distinct X line and U head
