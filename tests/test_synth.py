import io
import math
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from oracles import (
    array_circuit,
    cancel_pass_peephole,
    circuit_from_gates,
    identity_circuit,
    pair_columns,
    ref_construct,
    ref_gray_circuit,
    ref_read_circuit,
    ref_split_subcircuits,
    ref_write,
    subcircuit_for_pair,
    subcircuit_tuples,
    subcircuits_circuit,
    trie_grid,
)
from strategies import random_circuits, valid_orders

from palinopt import cli, synth
from palinopt.decompose import two_level_decompose
from palinopt.linalg import TwoLevelMatrix, random_unitary, write_matrix
from palinopt.optimize import cancel_pass
from palinopt.ordering import conventional_order, poa_order
from palinopt.sim import circuit_to_matrix
from palinopt.synth import (
    ControlledGate,
    GrayPairs,
    construct_circuit,
    gray_circuit,
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
    assert circuit.u_at.tolist() == [2 << 3 | 0b011]
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
    again = read_circuit(io.StringIO(text))
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
        read_circuit(io.StringIO("bogus\n"))
    with pytest.raises(ValueError):
        read_circuit(io.StringIO("n=2 gates=1\n"))
    with pytest.raises(ValueError):
        read_circuit(io.StringIO("n=2 gates=1\nX t=0 c=00\n"))  # no target slot


@pytest.mark.parametrize("line", ["X c=0_", "X t=0", "U t=0 c=0_", "U c=0_ m=1,0;0,0;0,0;1,0"])
def test_read_circuit_missing_field_is_value_error(line):
    with pytest.raises(ValueError, match="missing field"):
        read_circuit(io.StringIO(f"n=2 gates=1\n{line}\n"))


def test_read_circuit_rejects_target_out_of_range():
    # Pattern without a '_' slot and t beyond n: the controls cover qubits
    # 0 and 1, so only the target range check stops it.
    with pytest.raises(ValueError, match="target"):
        read_circuit(io.StringIO("n=2 gates=1\nX t=5 c=01\n"))


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
        read_circuit(io.StringIO(f"n=2 gates=1\nU t=0 c=0_ m={m}\n"))


def test_read_circuit_rejects_bad_header_n():
    with pytest.raises(ValueError, match="header"):
        read_circuit(io.StringIO("n=0 gates=0\n"))


def test_split_subcircuits_round_trip():
    d = two_level_decompose(random_unitary(3, 3), conventional_order(3))
    circuit = construct_circuit(d)
    subs = subcircuit_tuples(*trie_grid(split_subcircuits(circuit)))
    assert len(subs) == len(d.factors)
    flat = subcircuits_circuit(3, subs, circuit.comps)
    assert_code_arrays(flat, circuit)
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
        circuit = read_circuit(io.StringIO(write_circuit(construct_circuit(d))))
        subs = subcircuit_tuples(*trie_grid(split_subcircuits(circuit)))
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


# Reals whose repr or sign flip is special, and ordinary ones.
_REALS = st.one_of(
    st.sampled_from(
        [0.0, -0.0, 5e-324, -5e-324, 1e-05, -1e-05, 1e16, -1e16, math.inf, -math.inf, math.nan, -math.nan]
    ),
    st.floats(-2, 2),
)


@st.composite
def component_floats(draw):
    """A component's 8 floats, real and imaginary parts row-major: Givens
    form ``[[a, conj(c)], [c, -conj(a)]]``, that form with one float's sign
    flipped, or 8 drawn floats."""
    ar, ai, cr, ci = (draw(_REALS) for _ in range(4))
    floats = [ar, ai, cr, -ci, cr, ci, -ar, ai]
    kind = draw(st.sampled_from(["givens", "one sign flipped", "other"]))
    if kind == "one sign flipped":
        i = draw(st.integers(0, 7))
        floats[i] = -floats[i]
    elif kind == "other":
        floats = [draw(_REALS) for _ in range(8)]
    return floats


@settings(max_examples=150, deadline=None)
@given(
    rows=st.lists(component_floats(), max_size=8),
    block=st.sampled_from([1, 2, 3, synth._BLOCK]),
    n=st.sampled_from([2, synth.ARRAY_MAX_N + 1]),
    layout=st.sampled_from(["in order", "U reversed", "X around", "U twice"]),
)
@example(rows=[[0.0, 1.0, 2.0, -3.0, 2.0, 3.0, 0.0, 1.0]], block=1, n=2, layout="in order")  # d.re 0.0, not -0.0
# repr(-nan) is 'nan': a.re and c.im of a Givens form keep their strings
@example(rows=[[math.nan, 1.0, 2.0, -3.0, 2.0, 3.0, -math.nan, 1.0]], block=1, n=2, layout="in order")
@example(rows=[[1.0, 0.0, 2.0, -math.nan, 2.0, math.nan, -1.0, 0.0]], block=1, n=2, layout="in order")
@example(rows=[[1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 1.0, 0.0]] * 2, block=1, n=2, layout="U reversed")  # code [~1, ~0]
@example(
    rows=[[0.0, 0.0, 1.0, 0.0, 1.0, 0.0, 0.0, 0.0]] * 3, block=2, n=synth.ARRAY_MAX_N + 1, layout="X around"
)
def test_write_circuit_matches_per_float_reference(rows, block, n, layout):
    # Givens-form components have only a and c formatted; every float of
    # the text must still be its own repr.  The U codes may come out of
    # gate order or twice each, an X code before, between and after them,
    # and past ARRAY_MAX_N the codes are Python ints.
    comps = np.array(rows, dtype=float).reshape(-1).view(complex).reshape(-1, 2, 2)
    u_at = [(0 << n | 0b00, 0 << n | 0b10, 1 << n | 0b00, 1 << n | 0b01)[j % 4] for j in range(len(rows))]
    u, x = [~j for j in range(len(rows))], (n - 1) << n | 1
    code = {
        "in order": u,
        "U reversed": u[::-1],
        "X around": [x, *(g for j in u for g in (j, x))],
        "U twice": [g for j in u for g in (j, j)],
    }[layout]
    circuit = array_circuit(n, code, u_at, comps)
    with mock.patch.object(synth, "_BLOCK", block):
        assert write_circuit(circuit) == ref_write(n, circuit.gates)


@settings(max_examples=60, deadline=None)
@given(circuit=random_circuits(max_n=5, max_gates=30))
def test_read_write_round_trip_gate_for_gate(circuit):
    again = read_circuit(io.StringIO(write_circuit(circuit)))
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
        read_circuit(io.StringIO("n=2 gates=4\n" + "\n".join(body) + "\n"))
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


def assert_code_arrays(circuit, reference):
    """``circuit``'s ``code`` and ``u_at`` are int64 arrays, or arrays of
    Python ints past ``ARRAY_MAX_N``, holding ``reference``'s values."""
    wide = circuit.n > synth.ARRAY_MAX_N
    for got, want in ((circuit.code, reference.code), (circuit.u_at, reference.u_at)):
        assert got.dtype == (object if wide else np.int64) and got.ndim == 1
        assert got.tolist() == want.tolist()
        assert not wide or all(type(g) is int for g in got.tolist())


def test_circuit_codes_are_int64_arrays_of_the_reference_values():
    # In the mixed text every other line has a doubled space, so the parsed
    # lines and the writer's own ones, found through the entered positions,
    # meet at the same codes.
    d = two_level_decompose(random_unitary(6, 4), conventional_order(6))
    built = construct_circuit(d)
    lines = write_circuit(built).splitlines()
    reread = read_circuit(io.StringIO("\n".join(lines)))
    lines[1::2] = [ln.replace(" c=", "  c=") for ln in lines[1::2]]
    mixed = read_circuit(io.StringIO("\n".join(lines)))
    assert mixed.code.tolist() == reread.code.tolist()
    reference = ref_gray_circuit(6, list(zip(d.rows[::-1].tolist(), d.cols[::-1].tolist())))
    for circuit in (built, reread, mixed):
        assert_code_arrays(circuit, reference)


def test_circuit_codes_are_read_only():
    # Circuits share their arrays (cancel_pass keeps u_at), so writing into
    # the codes raises, and the split, the cancellation and the simulator
    # take read-only codes and leave them as they were.
    u = random_unitary(3, 5)
    d = two_level_decompose(u, poa_order(3))
    circuit = construct_circuit(d)
    before = circuit.code.tolist()
    for codes in (circuit.code, circuit.u_at):
        with pytest.raises(ValueError, match="read-only"):
            codes[0] = 0
    subs = subcircuit_tuples(*trie_grid(split_subcircuits(circuit)))
    assert [pair for _, pair in subs] == list(zip(d.rows[::-1].tolist(), d.cols[::-1].tolist()))
    cancelled = cancel_pass(circuit)
    assert not cancelled.code.flags.writeable and cancelled.u_at is circuit.u_at
    assert cancelled.gates == tuple(cancel_pass_peephole(circuit.gates))
    assert np.allclose(circuit_to_matrix(cancelled), u) and np.allclose(circuit_to_matrix(circuit), u)
    assert circuit.code.tolist() == before


def test_circuit_rejects_mismatched_components():
    with pytest.raises(ValueError, match="components"):
        array_circuit(2, [~0], [0], np.zeros((2, 2, 2), dtype=complex))
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
    matrix.write_text(write_matrix(random_unitary(3, 2)), encoding="utf-8")
    argv = ["compile", "--input", str(matrix), "--order", order, "--cancel", "--verify",
            "--output", str(tmp_path / "u.circ")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("pass=true ")


def test_circuit_text_past_one_block_of_components(monkeypatch):
    # 4100 U gates: several blocks of the writer, and of the reader: 256
    # m= fields, the 2,048 numbers of one conversion, 16 times, then 4.
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
    again = read_circuit(io.StringIO(text))
    assert blocks == [256] * 16 + [4]
    assert np.array_equal(again.comps, circuit.comps)
    assert_code_arrays(again, circuit)
    assert write_circuit(again) == text
    lines = text.splitlines()
    lines[4099] = lines[4099].split(" m=")[0] + " m=2,0;0,0;0,0;2,0"  # U gate 4098
    with pytest.raises(ValueError, match="not unitary") as info:
        read_circuit(io.StringIO("\n".join(lines)))
    assert str(info.value).endswith(repr(lines[4099]))


def test_write_circuit_holds_its_text_about_twice():
    # The block strings and their join: about twice the text.
    d = two_level_decompose(random_unitary(8, 1), poa_order(8))
    circuit = cancel_pass(construct_circuit(d))
    tracemalloc.start()
    try:
        text = write_circuit(circuit)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert text == ref_write(8, circuit.gates)
    assert peak <= 2.5 * len(text)


def test_read_circuit_converts_no_more_than_the_budget_at_once(monkeypatch):
    sizes = []
    parse = synth.parse_floats

    def recorded(numbers, where):
        sizes.append(len(numbers))
        return parse(numbers, where)

    circuit = construct_circuit(two_level_decompose(random_unitary(6, 0), poa_order(6)))
    monkeypatch.setattr(synth, "parse_floats", recorded)
    again = read_circuit(io.StringIO(write_circuit(circuit)))
    assert np.array_equal(again.comps, circuit.comps)
    assert max(sizes) <= synth._PARSE_BUDGET
    assert sum(sizes) == 8 * len(circuit.comps)


_M = "0.0,0.0;1.0,0.0;1.0,0.0;0.0,0.0"
# A U line's places for whitespace, " " where the canonical line has it:
# before and after each word, after m= and inside the m= field.
_SLOTS = ("", " ", " ", " ", "", "", "")
_U_LINE = "{}U{}t=0{}c=0_{}m={}0.0,0.0;{}1.0,0.0;1.0,0.0;0.0,0.0{}"
# Whitespace other than " ": the ASCII "\t" and "\x1f", the only other ASCII
# whitespace that can sit inside a line, and the non-ASCII "\xa0" and
# "\u3000".
_SPACES = ("\t", "\x1f", "\xa0", "\u3000")
# The canonical U line with one of them added at one place.
_SPACED = [
    _U_LINE.format(*_SLOTS[:k], w + _SLOTS[k], *_SLOTS[k + 1 :])
    for k in range(len(_SLOTS))
    for w in _SPACES
]


def read_text(text):
    return read_circuit(io.StringIO(text))


def read_outcome(read, text):
    """What ``read(text)`` gives: the circuit's fields, the components as
    bytes, or the error."""
    try:
        c = read(text)
    except ValueError as exc:
        return str(exc)
    return c.n, c.code.tolist(), c.u_at.tolist(), c.comps.tobytes()


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
        *_SPACED,
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
    assert read_outcome(read_text, text) == read_outcome(ref_read_circuit, text)


@pytest.mark.parametrize(
    "edit",
    [
        lambda ln: ln.replace(";", ";\xa0", 1),
        lambda ln: ln.replace(";", ";\u3000", 1),
        lambda ln: ln.replace(";", ";\x1f", 1),
        lambda ln: ln + "\u3000",
        lambda ln: ln + "\u3000t=1",
        lambda ln: ln.replace(" m=", "\u3000m=", 1),
        lambda ln: ln.replace(" c=", "\xa0c=", 1),
        lambda ln: ln.replace(" m=", " m=\xe9", 1),
    ],
    ids=["nbsp-in-m", "ideographic-in-m", "unit-sep-in-m", "ideographic-after",
         "ideographic-then-t", "ideographic-before-m", "nbsp-before-c", "accent-in-m"],
)
@pytest.mark.parametrize("chunk", [64, 4096])
def test_read_circuit_with_a_later_chunk_past_ascii(edit, chunk):
    # The first chunks are ASCII and cache the U-line heads; the last U
    # line, in a later chunk, has the same head and one non-ASCII or tab-like
    # character, so its head may be reused only if its m= field is one ASCII
    # field without whitespace.
    pairs = [(3, 0), (2, 1)] * 40
    comps = np.array([random_unitary(1, j) for j in range(len(pairs))]).reshape(-1, 2, 2)
    lines = write_circuit(gray_circuit(2, *pair_columns(pairs), comps)).splitlines()
    last = max(i for i, ln in enumerate(lines) if ln.startswith("U"))
    ascii_text = "\n".join(lines) + "\n"
    assert ascii_text.index(lines[last]) > chunk
    lines[last] = edit(lines[last])
    text = "\n".join(lines) + "\n"
    assert not text.isascii() or "\x1f" in text
    with mock.patch.object(synth, "_CHUNK", chunk):
        for t in (ascii_text, text):
            assert read_outcome(read_text, t) == read_outcome(ref_read_circuit, t)


def counted_parses(monkeypatch):
    """The first token of each ``_parse_fields`` call, as they happen."""
    calls = []
    parse = synth._parse_fields

    def counted(tokens):
        calls.append(tokens[0])
        return parse(tokens)

    monkeypatch.setattr(synth, "_parse_fields", counted)
    return calls


def parsed(lines):
    """What ``counted_parses`` records for ``lines`` if each is parsed."""
    return [ln.split()[0 if ln.startswith("n=") else 1] for ln in lines]


@pytest.mark.parametrize("n, cancelled", [(3, False), (7, True), (8, True), (8, False)])
def test_read_circuit_parses_no_canonical_line(monkeypatch, n, cancelled):
    # Each written poa circuit holds the characters of every position's
    # texts within its first chunk, so the reader enters them and only the
    # header reaches the field parse.  From the cancelled n=7 one on, that
    # chunk holds fewer than n << n lines.
    calls = counted_parses(monkeypatch)
    circuit = construct_circuit(two_level_decompose(random_unitary(n, 8), poa_order(n)))
    if cancelled:
        circuit = cancel_pass(circuit)
    again = read_circuit(io.StringIO(write_circuit(circuit)))
    assert again.code.tolist() == circuit.code.tolist() and np.array_equal(again.comps, circuit.comps)
    assert calls == [f"n={n}"]


def test_read_circuit_parses_every_line_outside_the_writers_layout(monkeypatch):
    # Lines that are not the writer's own, and every line of a file shorter
    # than the texts of its n's positions (n=9, 32 pairs: 286 lines against
    # 78,336 characters), reach the field parse each time they occur.
    calls = counted_parses(monkeypatch)
    circuit = construct_circuit(two_level_decompose(random_unitary(3, 8), poa_order(3)))
    spaced = write_circuit(circuit).replace(" c=", "  c=")
    pairs = [((5 * j + 1) % 512, (3 * j) % 512) for j in range(32)]
    sparse = write_circuit(identity_circuit(9, *pair_columns(pairs)))
    assert len(sparse) < (9 << 9) * (9 + 8)
    for text in (spaced, sparse):
        calls.clear()
        again = read_circuit(io.StringIO(text))
        assert write_circuit(again) == text.replace("  c=", " c=")
        assert calls == parsed(text.splitlines())


@pytest.mark.parametrize(
    "text",
    [
        "n=99999999999 gates=0\n",
        "n=12 gates=3\nX t=0 c=00000000000_\nX t=11 c=_00000000001\nX t=0 c=00000000000_\n",
    ],
    ids=["huge-n", "n=12"],
)
def test_read_circuit_never_seeds_past_the_text_read(monkeypatch, text):
    # The texts of every position of n=12 take (12 << 12) * 21 characters,
    # far more than the file holds, and those of a huge n are never even
    # counted, so the reader enters none of them and parses every line.
    calls = counted_parses(monkeypatch)
    with mock.patch.object(synth, "_seed", side_effect=AssertionError("seeded")):
        again = read_circuit(io.StringIO(text))
    assert len(again) == len(text.splitlines()) - 1
    assert calls == parsed(text.splitlines())


def test_read_circuit_seeds_at_the_chunk_that_reaches_the_bound(monkeypatch):
    # n=6: its positions' texts take (6 << 6) * 14 = 5,376 characters.  In
    # chunks of 1,000 the bound is met as the sixth chunk arrives, so every
    # line that ends in the first five is parsed and no later one, and the
    # codes, parsed or entered, are int64 arrays of the circuit's values.
    calls = counted_parses(monkeypatch)
    order = poa_order(6)
    circuit = identity_circuit(6, order.rows, order.cols)
    text = write_circuit(circuit)
    seed = mock.Mock(wraps=synth._seed)
    with mock.patch.object(synth, "_CHUNK", 1000), mock.patch.object(synth, "_seed", seed):
        again = read_circuit(io.StringIO(text))
    assert again.code.tolist() == circuit.code.tolist() and np.array_equal(again.comps, circuit.comps)
    assert seed.call_count == 1
    ended = text[:5000].split("\n")[:-1]
    assert 5 < len(ended) < len(circuit) and calls == parsed(ended)
    assert_code_arrays(again, circuit)


@st.composite
def pair_lists(draw, min_n=1, max_n=8, falling=False):
    """n = min_n..max_n and a list of (r, c) pairs of distinct states,
    r > c or r < c (only r > c if ``falling``)."""
    n = draw(st.integers(min_n, max_n))
    state = st.integers(0, (1 << n) - 1)
    pair = st.tuples(state, state).filter(lambda p: p[0] > p[1] if falling else p[0] != p[1])
    return n, draw(st.lists(pair, max_size=draw(st.sampled_from([0, 1, 40]))))


# Pairs per block of the array builder: one pair, a few, and the default.
BLOCKS = st.sampled_from([1, 2, 3, synth._PAIR_BLOCK])
# Widths where a circuit of up to 40 pairs has fewer gates than there are
# position codes, up to and past int64 (n > 57).
WIDE = pair_lists(min_n=9, max_n=70)


@settings(max_examples=300, deadline=None)
@given(case=st.one_of(pair_lists(), WIDE), block=BLOCKS)
def test_gray_circuit_matches_the_gray_code_reference(case, block):
    # The array builder, in blocks of any size and at any width, gives the
    # codes and positions of the pairs' Gray codes, as int64 arrays, or
    # arrays of Python ints past ARRAY_MAX_N.
    n, pairs = case
    with mock.patch.object(synth, "_PAIR_BLOCK", block):
        circuit = identity_circuit(n, *pair_columns(pairs))
    reference = ref_gray_circuit(n, pairs)
    assert_code_arrays(circuit, reference)
    assert circuit.comps.shape == (len(pairs), 2, 2)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(pair_lists(max_n=6, falling=True), pair_lists(55, 70, falling=True)), block=BLOCKS)
def test_split_inverts_gray_circuit_in_blocks(case, block):
    # Pairs with empty runs anywhere, the first and last included, and
    # circuits of many blocks of pairs split back into their pairs and runs,
    # also where position codes leave int64.
    n, pairs = case
    with mock.patch.object(synth, "_PAIR_BLOCK", block):
        subs = subcircuit_tuples(*trie_grid(split_subcircuits(identity_circuit(n, *pair_columns(pairs)))))
    runs = [ref_gray_circuit(n, [pair]).code.tolist() for pair in pairs]
    assert subs == [(tuple(run[: len(run) // 2]), pair) for run, pair in zip(runs, pairs)]


@pytest.mark.parametrize(
    "pairs",
    [
        [(1, 0), (7, 0), (6, 1), (2, 0)],  # empty first and last runs
        [(7, 0), (1, 0), (6, 1)],  # an empty run between two others
        [(1, 0)],
        [(7, 0)],
    ],
)
def test_split_recovers_runs_of_any_length(pairs):
    circuit = identity_circuit(3, *pair_columns(pairs))
    subs = subcircuit_tuples(*trie_grid(split_subcircuits(circuit)))
    assert [pair for _, pair in subs] == pairs
    assert [len(prefix) for prefix, _ in subs] == [(r ^ c).bit_count() - 1 for r, c in pairs]
    assert subs == [(tuple(g.target << 3 | g.base for g in p), q) for p, q in ref_split_subcircuits(circuit)]


def test_split_of_a_circuit_longer_than_one_block():
    # The n=7 palindromic order has 8,128 pairs, several blocks.
    order = poa_order(7)
    rows, cols = order.rows, order.cols
    assert len(rows) > synth._PAIR_BLOCK
    pairs = list(zip(rows.tolist(), cols.tolist()))
    circuit = identity_circuit(7, rows, cols)
    reference = ref_gray_circuit(7, pairs)
    assert_code_arrays(circuit, reference)
    subs = subcircuit_tuples(*trie_grid(split_subcircuits(read_circuit(io.StringIO(write_circuit(circuit))))))
    assert [pair for _, pair in subs] == pairs
    assert subcircuits_circuit(7, subs).code.tolist() == circuit.code.tolist()


@pytest.mark.parametrize(
    "n, u_at, pairs",
    [(1, [0, 0], [(1, 0), (1, 0)]), (2, [1 << 2 | 0b00, 0b00], [(1, 0), (2, 0)])],
)
def test_split_reads_component_gates_through_their_codes(n, u_at, pairs):
    # U gates coded ~1 then ~0: each is read through its code, as the
    # gate-object reference reads it, so U gate 1 leads.
    circuit = array_circuit(n, [~1, ~0], u_at, np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)))
    subs = subcircuit_tuples(*trie_grid(split_subcircuits(circuit)))
    assert subs == [(tuple(p), q) for p, q in ref_split_subcircuits(circuit)]
    assert subs == [((), pair) for pair in pairs]


@pytest.mark.parametrize(
    "rows, cols",
    [([1], [1]), ([0, 3, 2], [1, 3, 0]), ([4], [0]), ([0], [4]), ([-1], [0]), ([1], [-2])],
)
@pytest.mark.parametrize("n", [2, 60])
@pytest.mark.parametrize("build", [identity_circuit, GrayPairs])
def test_gray_circuit_rejects_pairs_that_are_not_two_states(build, n, rows, cols):
    rows, cols = [r << n - 2 for r in rows], [c << n - 2 for c in cols]
    r, c = next((r, c) for r, c in zip(rows, cols) if r == c or (r | c) >> n)
    with pytest.raises(ValueError, match=rf"^pair \({r}, {c}\) is not two distinct states of {n} qubits$"):
        build(n, rows, cols)


@pytest.mark.parametrize("build", [identity_circuit, GrayPairs])
def test_gray_circuit_needs_rows_and_cols_of_one_length(build):
    with pytest.raises(ValueError, match="one length"):
        build(2, [1, 2], [0])
    with pytest.raises(ValueError, match="one length"):
        build(2, [[1]], [[0]])
    assert len(identity_circuit(2, [], [])) == 0
    assert len(GrayPairs(2, [], [])) == GrayPairs(2, [], []).cancelled_len() == 0


@pytest.mark.parametrize("n", [synth.ARRAY_MAX_N + 1, 64])
def test_split_past_int64_matches_the_gate_object_reference(n):
    assert subcircuit_tuples(*trie_grid(split_subcircuits(read_circuit(io.StringIO(f"n={n} gates=0\n"))))) == []
    pairs = [((1 << n) - 1, 0), (1 << n - 1, 1), (3, 2)]
    circuit = read_circuit(io.StringIO(write_circuit(identity_circuit(n, *pair_columns(pairs)))))
    subs = subcircuit_tuples(*trie_grid(split_subcircuits(circuit)))
    assert [pair for _, pair in subs] == pairs
    assert subs == [(tuple(g.target << n | g.base for g in p), q) for p, q in ref_split_subcircuits(circuit)]


@st.composite
def column_stretches(draw):
    """n = 1..8 and pairs in stretches that share a column c, rows c ^ d
    for drawn masks d of every popcount: 1 is an empty X run (the pair
    differs in its top bit only), n the longest.  Rows of one column often
    agree in their low bits, so neighbouring runs often share a prefix."""
    n = draw(st.integers(1, 8))
    mask = st.sets(st.integers(0, n - 1), min_size=1).map(lambda bits: sum(1 << b for b in bits))
    stretch = st.tuples(st.integers(0, (1 << n) - 1), st.lists(mask, min_size=1, max_size=12))
    stretches = draw(st.lists(stretch, min_size=1, max_size=8))
    return n, [(c ^ d, c) for c, masks in stretches for d in masks]


@settings(max_examples=200, deadline=None)
@given(case=column_stretches(), block=st.sampled_from([1, 2, 3, synth._PAIR_BLOCK]))
@example(case=(3, [(7, 0), (7, 1)]), block=1)
def test_gray_pairs_count_the_built_circuit_before_and_after_cancellation(case, block):
    # The pairs repeat until they fill more than two blocks, so that some
    # boundaries, and the overlaps across them, fall between blocks.  In the
    # example the runs share the X gate of bit 1 but not that of bit 0, so
    # nothing cancels.
    n, pairs = case
    pairs *= (2 * block + 1) // len(pairs) + 1
    rows, cols = pair_columns(pairs)
    circuit = identity_circuit(n, rows, cols)
    held = GrayPairs(n, rows, cols)
    with mock.patch.object(synth, "_PAIR_BLOCK", block):
        assert (len(held), held.cancelled_len()) == (len(circuit), len(cancel_pass(circuit)))


@pytest.mark.parametrize("n", [synth.ARRAY_MAX_N + 1, 64])
def test_gray_pairs_count_past_int64(n):
    pairs = [((1 << n) - 1, 0), (3, 0), (7, 0), (1 << n - 1 | 3, 2)]
    circuit = identity_circuit(n, *pair_columns(pairs))
    held = GrayPairs(n, *pair_columns(pairs))
    assert (len(held), held.cancelled_len()) == (len(circuit), len(cancel_pass(circuit)))
    assert len(cancel_pass(circuit)) < len(circuit)


@settings(max_examples=200, deadline=None)
@given(case=st.one_of(pair_lists(max_n=8), pair_lists(55, 70), column_stretches()), block=BLOCKS)
def test_gray_pairs_runs_are_the_built_circuits_x_runs(case, block):
    # Column j of the grid is pair j's X run as the builder lays it out,
    # then -1 down to a last row of -1, in blocks of any size, for empty
    # runs, and as arrays of Python ints past ARRAY_MAX_N.
    n, pairs = case
    with mock.patch.object(synth, "_PAIR_BLOCK", block):
        x = GrayPairs(n, *pair_columns(pairs)).runs()
    runs = [list(subcircuit_for_pair(r, c, n)[0]) for r, c in pairs]
    assert x.shape == (max(map(len, runs), default=0) + 1, len(pairs))
    assert x.T.tolist() == [run + [-1] * (len(x) - len(run)) for run in runs]
    assert x.dtype == (np.int64 if n <= synth.ARRAY_MAX_N else object)
    assert all(type(g) is int for g in x.ravel().tolist())


def test_gray_pairs_runs_of_no_pairs_build_no_per_bit_rows():
    with mock.patch.object(synth, "_gray_rows", side_effect=AssertionError("built per-bit rows")):
        assert GrayPairs(10**11, [], []).runs().shape == (1, 0)


# Line breaks of str.splitlines: LF, CRLF and CR, then vertical tab, form
# feed, file separator, next line and line separator.
_BREAKS = st.sampled_from(["\n", "\r\n", "\r", "\x0b", "\x0c", "\x1c", "\x85", "\u2028"])
# A single fault in a gate line: the kinds of line it can hit, and the edit.
_FAULTS = {
    "target": ("XU", lambda ln: ln.replace("t=", "t=9", 1)),
    "pattern": ("XU", lambda ln: ln.replace("c=", "c=2", 1)),
    "missing": ("XU", lambda ln: ln.replace(" c=", " d=", 1)),
    "number": ("U", lambda ln: ln.replace("m=", "m=x", 1)),
    "unitary": ("U", lambda ln: ln.partition(" m=")[0] + " m=2.0,0.0;0.0,0.0;0.0,0.0;2.0,0.0"),
}


@st.composite
def circuit_texts(draw):
    """The text of a written circuit, n = 1..5: line breaks drawn in a
    repeating mix, blank and whitespace-only lines anywhere, a final break
    or none, and at most one fault, in a gate line or in the header's gate
    count, one too high or too low."""
    n, pairs = draw(pair_lists(max_n=5))
    seed = draw(st.integers(0, 2**32))
    comps = np.array([random_unitary(1, seed + j) for j in range(len(pairs))], dtype=complex)
    lines = write_circuit(gray_circuit(n, *pair_columns(pairs), comps.reshape(-1, 2, 2))).splitlines()
    fault = draw(st.sampled_from([None, "count", *_FAULTS]))
    if fault == "count":
        lines[0] = f"n={n} gates={len(lines) - 1 + draw(st.sampled_from([-1, 1]))}"
    elif fault is not None:
        kinds, edit = _FAULTS[fault]
        gates = [i for i, ln in enumerate(lines[1:], 1) if ln[0] in kinds]
        if gates:
            i = draw(st.sampled_from(gates))
            lines[i] = edit(lines[i])
    blanks = st.tuples(st.integers(0, len(lines)), st.sampled_from(["", " ", "\t", " \t "]))
    for i, blank in sorted(draw(st.lists(blanks, max_size=4)), reverse=True):
        lines.insert(i, blank)
    breaks = draw(st.lists(_BREAKS, min_size=1, max_size=4))
    text = "".join(ln + breaks[i % len(breaks)] for i, ln in enumerate(lines))
    if not draw(st.booleans()):
        text = text[: -len(breaks[(len(lines) - 1) % len(breaks)])]
    return text


@settings(max_examples=150, deadline=None)
@given(text=circuit_texts())
@example(text="n=1 gates=1\r\nX t=0 c=_")
def test_read_circuit_in_any_chunks_reads_the_whole_text(text):
    # Chunks of 1, 2, 3 and 7 characters split \r\n, and every line, at
    # every place; a written circuit of up to 40 pairs fits one default chunk.
    expected = read_outcome(ref_read_circuit, text)
    for chunk in (1, 2, 3, 7, synth._CHUNK):
        with mock.patch.object(synth, "_CHUNK", chunk):
            assert read_outcome(read_text, text) == expected


def _rotate_pattern(ln):
    """The line with its control pattern rotated one place, which moves
    the ``_`` off the target's slot (n > 1)."""
    head, _, rest = ln.partition(" c=")
    pattern, space, tail = rest.partition(" ")
    return f"{head} c={pattern[1:]}{pattern[:1]}{space}{tail}"


# An edit of one gate line that leaves the writer's layout: the kinds of
# line it can hit, and the edit.  Some keep the line valid, the rest break it.
_EDITS = {
    **_FAULTS,
    "doubled space": ("XU", lambda ln: ln.replace(" ", "  ", 1)),
    "tab": ("XU", lambda ln: ln.replace(" c=", "\tc=", 1)),
    "reordered": ("XU", lambda ln: " ".join([ln.split()[0], *ln.split()[:0:-1]])),
    "extra field": ("XU", lambda ln: ln + " x=1"),
    "misplaced _": ("XU", _rotate_pattern),
}


@st.composite
def written_texts(draw):
    """A written circuit, n = 1..7, of drawn pairs or of a whole poa or
    conventional order, cancelled or not, with LF or CRLF breaks and blank
    lines, and at most one edit of one gate line or a cut of the text."""
    n = draw(st.integers(1, 7))
    kind = draw(st.sampled_from(["drawn", "poa", "conventional"])) if n > 1 else "drawn"
    if kind == "drawn":
        state = st.integers(0, (1 << n) - 1)
        pair = st.tuples(state, state.filter(bool)).map(lambda cd: (cd[0] ^ cd[1], cd[0]))
        rows, cols = pair_columns(draw(st.lists(pair, min_size=1, max_size=60)))
    else:
        order = (poa_order if kind == "poa" else conventional_order)(n)
        rows, cols = order.rows, order.cols
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    comps = np.linalg.qr(rng.standard_normal((len(rows), 2, 2, 2)).view(complex)[..., 0])[0]
    circuit = gray_circuit(n, rows, cols, comps)
    if draw(st.booleans()):
        circuit = cancel_pass(circuit)
    lines = write_circuit(circuit).splitlines()
    edit = draw(st.sampled_from([None, "cut", *_EDITS]))
    if edit in _EDITS:
        kinds, change = _EDITS[edit]
        i = draw(st.sampled_from([i for i, ln in enumerate(lines[1:], 1) if ln[0] in kinds]))
        lines[i] = change(lines[i])
    blanks = st.tuples(st.integers(0, len(lines)), st.sampled_from(["", " ", "\t"]))
    for i, blank in sorted(draw(st.lists(blanks, max_size=3)), reverse=True):
        lines.insert(i, blank)
    text = draw(st.sampled_from(["\n", "\r\n"])).join(lines) + "\n"
    if edit == "cut":
        text = text[: draw(st.integers(0, len(text) - 1))]
    return n, text


@settings(max_examples=80, deadline=None)
@given(case=written_texts())
def test_read_circuit_seeded_or_not_reads_the_same(case):
    # With _seed doing nothing the reader enters no position's text and
    # parses every line; seeded, it skips the parse of the writer's own
    # lines.  Both give the same circuit or the same first error.
    _, text = case
    seeded = read_outcome(read_text, text)
    with mock.patch.object(synth, "_seed"):
        assert read_outcome(read_text, text) == seeded


class _Reads:
    """A text file with ``read(size)`` alone, recording each size."""

    def __init__(self, text: str) -> None:
        self._file = io.StringIO(text)
        self.sizes: list[int] = []

    def read(self, size: int) -> str:
        self.sizes.append(size)
        return self._file.read(size)


def test_read_circuit_reads_the_file_in_chunks_only():
    d = two_level_decompose(random_unitary(6, 3), conventional_order(6))
    circuit = construct_circuit(d)
    text = write_circuit(circuit)
    assert len(text) > 3 * synth._CHUNK
    f = _Reads(text)
    again = read_circuit(f)
    assert_code_arrays(again, circuit)
    assert np.array_equal(again.comps, circuit.comps)
    assert all(0 < size <= synth._CHUNK for size in f.sizes)
    assert len(f.sizes) == -(-len(text) // synth._CHUNK) + 1  # the last read finds the end
