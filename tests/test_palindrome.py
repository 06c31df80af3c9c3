"""Trie construction, mos characterization, and overlap accounting.

The abstract two-subcircuit example ABCA1CBA . ABA2BA = ABCA1CA2BA is
modelled with real X gates standing in for the symbols A, B, C: their
position codes target << n | base at n=4.
"""

import gc
import io
import random
import re
import weakref
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    array_circuit,
    dfs_order,
    identity_circuit,
    mos_check,
    overlap,
    pair_columns,
    ref_build_trie,
    ref_dump_trie,
    ref_mos_check,
    ref_overlap,
    ref_split_subcircuits,
    ref_trie,
    subcircuit_arrays,
    subcircuit_for_pair,
    subcircuit_tuples,
    subcircuits_circuit,
    total_overlap,
    trie_grid,
    trie_leaves,
    trie_order,
)

from palinopt.optimize import cancel_pass
from palinopt.ordering import conventional_order, poa_order
from palinopt.palindrome import build_trie, dump_trie, trie_gate_count
from palinopt.synth import (
    ARRAY_MAX_N,
    read_circuit,
    split_subcircuits,
    write_circuit,
)


def _sym(target):
    return target << 4  # the X gate on ``target`` with base 0 at n=4


A, B, C = _sym(0), _sym(1), _sym(2)
MID = 3 << 4  # the component gate on qubit 3 with base 0


def sub(prefix, ident):
    return tuple(prefix), ident


def column_subcircuits(order, col, n):
    return [subcircuit_for_pair(r, col, n) for r in order.columns[col].tolist()]


def cancelled_length(subs, n, middles=None):
    return len(cancel_pass(subcircuits_circuit(n, subs, middles=middles)))


def _shuffled_dfs(node, rnd):
    """Leaves of a dict trie in a depth-first order with each node's
    children shuffled: always a maximal overlap sequence."""
    children = list(node.items())
    rnd.shuffle(children)
    return [
        leaf
        for key, child in children
        for leaf in ([child] if key < 0 else _shuffled_dfs(child, rnd))
    ]


S1 = sub([A, B, C], (1, -1))  # ABC A1 CBA
S2 = sub([A, B], (2, -1))  # AB A2 BA


def test_trie_single_empty_prefix_leaf():
    t = build_trie(4, *subcircuit_arrays(4, [sub([], (1, -1))]))
    assert t.counts() == (1, 0)
    assert trie_gate_count(t) == 1


def test_trie_abc_example_counts():
    t = build_trie(4, *subcircuit_arrays(4, [S1, S2]))
    assert t.counts() == (2, 3)
    assert trie_gate_count(t) == 8  # the 8 symbols of ABCA1CA2BA


def test_abc_example_overlap_and_cancellation():
    assert overlap(S1, S2) == 2  # AB
    # The example's pairs are labels only; both component gates are MID.
    assert cancelled_length([S1, S2], 4, [MID, MID]) == 8
    assert cancelled_length([S2, S1], 4, [MID, MID]) == 8


def test_poa_column0_n3_trie():
    subs = column_subcircuits(poa_order(3), 0, 3)
    t = build_trie(3, *subcircuit_arrays(3, subs))
    assert t.counts() == (7, 3)
    assert trie_gate_count(t) == 13


def test_dfs_order_of_poa_column_is_row_order():
    # The palindromic row order is itself a depth-first traversal of the
    # trie it induces.
    order = poa_order(3)
    subs = column_subcircuits(order, 0, 3)
    rows = [(r, 0) for r in order.columns[0].tolist()]
    assert trie_order(build_trie(3, *subcircuit_arrays(3, subs))) == dfs_order(ref_build_trie(3, subs)) == rows


def test_dfs_order_abc_example():
    t = build_trie(4, *subcircuit_arrays(4, [S1, S2]))
    assert trie_order(t) == dfs_order(ref_build_trie(4, [S1, S2])) == [(1, -1), (2, -1)]


def test_mos_dfs_always_true():
    rnd = random.Random(0)
    for n in (3, 4, 5):
        for make_order in (poa_order, conventional_order):
            for col in range((1 << n) - 1):
                subs = column_subcircuits(make_order(n), col, n)
                t = ref_build_trie(n, subs)
                assert mos_check(t, dfs_order(t))
                assert mos_check(t, _shuffled_dfs(t.root, rnd))
                assert mos_check(t, trie_order(build_trie(n, *subcircuit_arrays(n, subs))))


def test_mos_siblings_permute_freely():
    t = ref_build_trie(4, [S1, S2])
    assert mos_check(t, [(1, -1), (2, -1)])
    assert mos_check(t, [(2, -1), (1, -1)])


def test_mos_rejects_conventional_row_order():
    # Leaves below the shared first-flip node are rows 3, 5, 7; they are
    # not contiguous in 1..7.
    subs = column_subcircuits(poa_order(3), 0, 3)
    t = ref_build_trie(3, subs)
    assert not mos_check(t, [(r, 0) for r in range(1, 8)])


def test_mos_rejects_non_permutation():
    t = ref_build_trie(4, [S1, S2])
    with pytest.raises(ValueError):
        mos_check(t, [(1, -1)])
    with pytest.raises(ValueError):
        mos_check(t, [(1, -1), (1, -1)])
    with pytest.raises(ValueError):
        mos_check(t, [(1, -1), (3, -1)])
    with pytest.raises(ValueError):
        mos_check(t, [(1, -1), (2, -1), (3, -1)])


def test_overlap_identical_prefixes():
    s1, s2 = sub([A, B, C], (1, -1)), sub([A, B, C], (2, -1))
    assert overlap(s1, s2) == 3


def test_overlap_shared_first_flip():
    s35 = [subcircuit_for_pair(r, 0, 3) for r in (3, 5)]
    assert overlap(*s35) == 1


def test_mos_order_cancels_to_trie_count():
    for col in range(7):
        subs = column_subcircuits(poa_order(3), col, 3)
        t = build_trie(3, *subcircuit_arrays(3, subs))
        by_id = {s[1]: s for s in subs}
        ordered = [by_id[i] for i in trie_order(t)]
        assert cancelled_length(ordered, 3) == trie_gate_count(t)


def test_total_overlap_matches_cancellation():
    for col in (0, 1, 2):
        subs = column_subcircuits(poa_order(3), col, 3)
        raw = len(subcircuits_circuit(3, subs))
        assert raw == sum(2 * len(prefix) + 1 for prefix, _ in subs)
        assert raw - 2 * total_overlap(subs) == cancelled_length(subs, 3)


def test_duplicate_subcircuit_rejected():
    for build in (lambda n, subs: build_trie(n, *subcircuit_arrays(n, subs)), ref_build_trie):
        with pytest.raises(ValueError, match=r"^duplicate subcircuit for pair \(1, -1\)$"):
            build(4, [S1, S2, S1])


def test_trie_counts_insertion_order_invariant():
    subs = column_subcircuits(poa_order(3), 0, 3)
    base = build_trie(3, *subcircuit_arrays(3, subs)).counts()
    for perm in ([6, 0, 3, 1, 5, 2, 4], [2, 1, 0, 6, 5, 4, 3]):
        t = build_trie(3, *subcircuit_arrays(3, [subs[i] for i in perm]))
        assert t.counts() == base


def test_brute_force_optimality_small():
    # Exhaustive over the 5 subcircuits of column 2, n=3: dfs order is
    # minimal and minimality coincides with mos membership.
    subs = column_subcircuits(poa_order(3), 2, 3)
    t = ref_build_trie(3, subs)
    best = trie_gate_count(build_trie(3, *subcircuit_arrays(3, subs)))
    for perm in permutations(subs):
        count = cancelled_length(list(perm), 3)
        assert count >= best
        is_min = count == best
        assert is_min == mos_check(t, [pair for _, pair in perm])


def test_dump_trie_shape():
    text = dump_trie(build_trie(4, *subcircuit_arrays(4, [S1, S2])))
    lines = text.splitlines()
    assert len(lines) == 5  # A, B, C, leaf1, leaf2
    assert lines[0].startswith("X t=0")
    assert sum("[leaf" in ln for ln in lines) == 2
    # depth is encoded as two spaces per level
    assert lines[1].startswith("  X t=1")


def test_dump_empty_trie():
    assert dump_trie(build_trie(3, *subcircuit_arrays(3, []))) == ""
    # A circuit with no gates splits into no pairs, whatever its u_at holds.
    gateless = array_circuit(2, [], [1, 1], np.broadcast_to(np.eye(2, dtype=complex), (2, 2, 2)))
    t = build_trie(2, *trie_grid(split_subcircuits(gateless)))
    assert t.counts() == (0, 0)
    assert dump_trie(t) == ""


@pytest.mark.parametrize(
    "walk", [ref_dump_trie, dfs_order, lambda t: mos_check(t, dfs_order(t))], ids=["dump", "dfs", "mos"]
)
def test_walks_leave_the_trie_to_reference_counting(walk):
    # The dict trie's recursive walks make no reference cycles, so the trie
    # is freed when its last reference goes, without waiting for the cyclic
    # garbage collector.
    enabled = gc.isenabled()
    gc.disable()
    try:
        trie = ref_build_trie(4, column_subcircuits(poa_order(4), 0, 4))
        ref = weakref.ref(trie)
        gc.collect()
        walk(trie)
        del trie
        assert ref() is None
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


@pytest.mark.parametrize("tuples", [False, True], ids=["split", "tuples"])
def test_trie_path_leaves_nothing_to_the_cyclic_collector(tuples):
    # Split, runs, build and dump make no reference cycles: the split's
    # pairs and the trie are freed when their last references go, and
    # nothing is left for the cyclic garbage collector.
    enabled = gc.isenabled()
    gc.disable()
    try:
        gc.collect()
        order = poa_order(4)
        subs = split_subcircuits(identity_circuit(4, order.rows, order.cols))
        grid = trie_grid(subs)
        trie = build_trie(4, *subcircuit_arrays(4, subcircuit_tuples(*grid)) if tuples else grid)
        refs = weakref.ref(subs), weakref.ref(trie)
        assert dump_trie(trie)
        del subs, grid, trie
        assert [ref() for ref in refs] == [None, None]
        assert gc.collect() == 0
    finally:
        if enabled:
            gc.enable()


def test_conventional_column_trie_same_counts():
    # Column sets are identical for both orderings, so the tries agree.
    for col in range(7):
        a = build_trie(3, *subcircuit_arrays(3, column_subcircuits(poa_order(3), col, 3))).counts()
        b = build_trie(3, *subcircuit_arrays(3, column_subcircuits(conventional_order(3), col, 3))).counts()
        assert a == b


def test_trie_leaves_are_the_subcircuit_pairs():
    subs = column_subcircuits(poa_order(3), 0, 3)
    leaves = trie_leaves(ref_build_trie(3, subs))
    assert sorted(leaves) == sorted(pair for _, pair in subs)
    assert len(leaves) == ref_build_trie(3, subs).counts()[0]
    assert trie_order(build_trie(3, *subcircuit_arrays(3, subs))) == leaves
    assert len(leaves) == build_trie(3, *subcircuit_arrays(3, subs)).counts()[0]


@st.composite
def column_tries_and_sequences(draw):
    """A column trie (n = 3..5, either order) and a permutation of its
    leaves: uniformly random, a depth-first order with shuffled siblings, or
    such an order with one or two transpositions (near-MOS)."""
    n = draw(st.integers(3, 5))
    make_order = draw(st.sampled_from([poa_order, conventional_order]))
    col = draw(st.integers(0, (1 << n) - 2))
    trie = ref_build_trie(n, column_subcircuits(make_order(n), col, n))
    rnd = draw(st.randoms(use_true_random=False))
    kind = draw(st.sampled_from(["random", "dfs", "swapped"]))
    if kind == "random":
        return trie, draw(st.permutations(dfs_order(trie)))
    seq = _shuffled_dfs(trie.root, rnd)
    if kind == "swapped":
        for _ in range(draw(st.integers(1, 2))):
            i, j = draw(st.integers(0, len(seq) - 1)), draw(st.integers(0, len(seq) - 1))
            seq[i], seq[j] = seq[j], seq[i]
    return trie, seq


@given(column_tries_and_sequences())
def test_mos_check_matches_recursive_reference(case):
    trie, seq = case
    assert mos_check(trie, seq) == ref_mos_check(trie, seq)


def test_mos_empty_trie_and_sequence():
    t = ref_build_trie(3, [])
    assert mos_check(t, []) and ref_mos_check(t, [])


def test_dump_trie_text():
    # Labels are rendered from the integer keys at dump time.
    text = dump_trie(build_trie(3, *subcircuit_arrays(3, column_subcircuits(poa_order(3), 0, 3))))
    assert text == (
        "V(2, 0) [leaf (2, 0)]\n"
        "V(4, 0) [leaf (4, 0)]\n"
        "X t=1 c=0_0\n"
        "  V(6, 0) [leaf (6, 0)]\n"
        "V(1, 0) [leaf (1, 0)]\n"
        "X t=0 c=00_\n"
        "  V(3, 0) [leaf (3, 0)]\n"
        "  V(5, 0) [leaf (5, 0)]\n"
        "  X t=1 c=0_1\n"
        "    V(7, 0) [leaf (7, 0)]\n"
    )


def test_trie_keys_are_ints():
    t = ref_build_trie(3, column_subcircuits(conventional_order(3), 0, 3))
    stack = [t.root]
    while stack:
        node = stack.pop()
        for key, child in node.items():
            # a leaf is its pair, an X gate's child a node dict
            assert type(key) is int and (key < 0) == (type(child) is tuple)
            if key >= 0:
                stack.append(child)


def test_trie_arrays_are_ints():
    # The array trie's counterpart of the dict trie's int keys: its arrays
    # hold ints, and column i of x is leaf i's X run, padded with -1.
    subs = column_subcircuits(conventional_order(3), 0, 3)
    t = build_trie(3, *subcircuit_arrays(3, subs))
    assert all(a.dtype.kind in "iu" for a in (t.x, t.rows, t.cols))
    runs = {pair: list(prefix) for prefix, pair in subs}
    for i, pair in enumerate(trie_order(t)):
        assert t.x[:, i].tolist() == runs[pair] + [-1] * (len(t.x) - len(runs[pair]))


@st.composite
def pair_sequences(draw):
    """n = 2..5 and a random subset of its (r, c) pairs in a random order."""
    n = draw(st.integers(2, 5))
    dim = 1 << n
    pairs = draw(st.permutations([(r, c) for c in range(dim) for r in range(c + 1, dim)]))
    return n, pairs[: draw(st.integers(0, len(pairs)))]


@settings(max_examples=80, deadline=None)
@given(pair_sequences())
def test_split_and_trie_match_gate_object_reference(case):
    # The split and the trie run on position codes; the references read the
    # same circuit file through gate objects and render labels from them.
    n, pairs = case
    circuit = read_circuit(io.StringIO(write_circuit(identity_circuit(n, *pair_columns(pairs)))))
    split, ref = split_subcircuits(circuit), ref_split_subcircuits(circuit)
    subs = subcircuit_tuples(*trie_grid(split))
    assert [pair for _, pair in subs] == [pair for _, pair in ref] == pairs
    assert [prefix for prefix, _ in subs] == [
        tuple(g.target << n | g.base for g in prefix) for prefix, _ in ref
    ]
    assert [overlap(a, b) for a, b in zip(subs, subs[1:])] == [
        ref_overlap(a, b) for a, b in zip(ref, ref[1:])
    ]
    trie = build_trie(n, *trie_grid(split))
    counts, text = ref_trie(ref)
    assert trie.counts() == counts
    assert trie_gate_count(trie) == counts[0] + 2 * counts[1]
    assert dump_trie(trie) == text


@pytest.mark.parametrize("n", range(ARRAY_MAX_N + 1, 65))
def test_dump_trie_past_int64_matches_gate_object_reference(n):
    # Past ARRAY_MAX_N the split reads the pairs from object arrays, and
    # the leaves render the largest ints: states up to 2^n - 1.
    top = (1 << n) - 1
    pairs = [(top, 0), (top, 1), (top - 2, 0), (1 << n - 1 | 3, 2), (3, 0), (top, 1 << n - 1)]
    circuit = identity_circuit(n, *pair_columns(pairs))
    split = split_subcircuits(circuit)
    subs = subcircuit_tuples(*trie_grid(split))
    assert [pair for _, pair in subs] == pairs
    assert all(type(v) is int for _, pair in subs for v in pair)
    trie = build_trie(n, *trie_grid(split))
    counts, text = ref_trie(ref_split_subcircuits(circuit))
    assert trie.counts() == counts and counts[1] > 0
    assert dump_trie(trie) == text
    assert f"V({top}, 0) [leaf ({top}, 0)]\n" in text


def _x_codes(n):
    """Position codes target << n | base of any gate at n qubits."""
    return st.integers(0, n - 1).flatmap(
        lambda t: st.integers(0, (1 << n) - 1).map(lambda b: t << n | b & ~(1 << t))
    )


@st.composite
def palindrome_shaped_circuits(draw):
    """Circuits of X run, component gate, mirrored X run: each run a Gray
    walk's or random X gates.  Then maybe one change: a code replaced by a
    random X gate, a random X gate inserted, an X gate deleted, or a
    component gate moved to a random position; and maybe the tail cut
    off."""
    n = draw(st.integers(1, 4))
    code, u_at = [], []
    for j in range(draw(st.integers(0, 4))):
        if draw(st.booleans()):
            c = draw(st.integers(0, (1 << n) - 2))
            pair = (draw(st.integers(c + 1, (1 << n) - 1)), c)
            run = list(subcircuit_for_pair(*pair, n)[0])
            middle = identity_circuit(n, [pair[0]], [pair[1]]).u_at[0]
        else:
            run, middle = draw(st.lists(_x_codes(n), max_size=n + 1)), draw(_x_codes(n))
        code += [*run, ~j, *run[::-1]]
        u_at.append(middle)
    change = draw(st.sampled_from(["none", "replace", "insert", "delete", "middle"]))
    x_at = [i for i, g in enumerate(code) if g >= 0]
    if change == "replace" and code:
        code[draw(st.integers(0, len(code) - 1))] = draw(_x_codes(n))
    elif change == "insert":
        code.insert(draw(st.integers(0, len(code))), draw(_x_codes(n)))
    elif change == "delete" and x_at:
        del code[draw(st.sampled_from(x_at))]
    elif change == "middle" and u_at:
        u_at[draw(st.integers(0, len(u_at) - 1))] = draw(_x_codes(n))
    code = code[: draw(st.integers(0, len(code)))] if draw(st.booleans()) else code
    return array_circuit(n, code, u_at, np.broadcast_to(np.eye(2, dtype=complex), (len(u_at), 2, 2)))


def _split_outcome(split, circuit, key):
    try:
        return [(pair, key(prefix)) for prefix, pair in split(circuit)]
    except ValueError as exc:
        return str(exc)


@settings(max_examples=200, deadline=None)
@given(palindrome_shaped_circuits())
def test_split_checks_match_gate_object_reference(circuit):
    # Both accept the same circuits with the same subcircuits, and reject
    # the others with the same message.
    n = circuit.n

    def gate_codes(prefix):
        return tuple(g.target << n | g.base for g in prefix)

    got = _split_outcome(lambda c: subcircuit_tuples(*trie_grid(split_subcircuits(c))), circuit, tuple)
    assert got == _split_outcome(ref_split_subcircuits, circuit, gate_codes)


@pytest.mark.parametrize("n", [2, 3, 4, 5, 6])
def test_trie_counts_are_recorded_while_building(n):
    # For the whole circuit of either order: the dict trie's counts() is
    # what it recorded while building, and a walk of the finished trie gives
    # the same pair; the array trie's counts, depth-first order and dump
    # agree with it, its walks agree with the references, and the dump with
    # the gate-object trie's.
    rnd = random.Random(n)
    for make_order in (poa_order, conventional_order):
        order = make_order(n)
        rows, cols = order.rows, order.cols
        pairs = list(zip(rows.tolist(), cols.tolist()))
        circuit = identity_circuit(n, rows, cols)
        split = split_subcircuits(circuit)
        grid = trie_grid(split)
        trie, ref = build_trie(n, *grid), ref_build_trie(n, subcircuit_tuples(*grid))
        leaves = interior = 0
        stack = list(ref.root.items())
        while stack:
            key, child = stack.pop()
            if key < 0:
                leaves += 1
            else:
                interior += 1
                stack.extend(child.items())
        assert trie.counts() == ref.counts() == (ref.leaves, ref.interior) == (leaves, interior)
        assert leaves == (1 << (n - 1)) * ((1 << n) - 1)
        assert trie_order(trie) == dfs_order(ref) == trie_leaves(ref)
        for seq in (dfs_order(ref), _shuffled_dfs(ref.root, rnd), pairs, pairs[::-1]):
            assert mos_check(ref, seq) == ref_mos_check(ref, seq)
        assert dump_trie(trie) == ref_dump_trie(ref) == ref_trie(ref_split_subcircuits(circuit))[1]


_CODES = st.integers(0, 5).map(lambda k: 1 << 4 | k)  # a few n=4 position codes
_WIDE = st.integers(0, 5).map(lambda k: 59 << 60 | k)  # n=60 codes past int64


@st.composite
def subcircuit_lists(draw):
    """n and ``(prefix, pair)`` subcircuits of runs over a few codes, so
    that runs share prefixes and a leaf may come before, between or after
    sibling subtrees: empty runs (leaves at the root) included, and the
    empty list.  At n=60 the codes and the pairs leave int64.  Up to two
    pairs are overwritten with drawn ones, so that pairs may repeat."""
    n, codes = draw(st.sampled_from([(4, _CODES), (60, _WIDE)]))
    prefixes = draw(st.lists(st.lists(codes, max_size=4).map(tuple), max_size=12))
    top = (1 << n) - 1
    pairs = draw(
        st.lists(
            st.tuples(st.integers(top - 20, top), st.integers(0, 3)),
            min_size=len(prefixes),
            max_size=len(prefixes),
            unique=True,
        )
    )
    for _ in range(draw(st.integers(0, 2)) if pairs else 0):
        pairs[draw(st.integers(0, len(pairs) - 1))] = draw(st.sampled_from(pairs))
    return n, list(zip(prefixes, pairs))


@settings(max_examples=300, deadline=None)
@given(subcircuit_lists())
def test_array_trie_matches_dict_trie(case):
    # The array trie against the dict trie it replaces: the same dump, the
    # same counts and the same depth-first leaf order, or the same message
    # for a repeated pair.
    n, subs = case
    try:
        ref = ref_build_trie(n, subs)
    except ValueError as exc:
        with pytest.raises(ValueError, match=f"^{re.escape(str(exc))}$"):
            build_trie(n, *subcircuit_arrays(n, subs))
        return
    trie = build_trie(n, *subcircuit_arrays(n, subs))
    assert trie.counts() == ref.counts()
    assert trie_order(trie) == dfs_order(ref)
    assert dump_trie(trie) == ref_dump_trie(ref)
    if n > ARRAY_MAX_N:
        assert all(type(v) is int for a in (trie.x, trie.rows, trie.cols) for v in a.ravel().tolist())
