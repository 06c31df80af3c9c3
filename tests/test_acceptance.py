"""Acceptance suite: one criterion per test, one pass/fail line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines; all tolerances are fixed here, nothing is calibrated elsewhere.
"""

from itertools import permutations

import numpy as np
import pytest
from oracles import (
    dfs_order,
    factor_pairs,
    intercolumn_cancellation,
    mos_check,
    overlap,
    poa_recurrence,
    ref_build_trie,
    subcircuit_arrays,
    subcircuit_for_pair,
    subcircuits_circuit,
    trie_order,
)

from palinopt.cli import main
from palinopt.decompose import two_level_decompose
from palinopt.linalg import random_unitary
from palinopt.optimize import (
    cancel_pass,
    count_structural,
    formula_conventional,
    formula_conventional_cancel,
    formula_poa,
)
from palinopt.ordering import conventional_order, poa_order
from palinopt.palindrome import build_trie, trie_gate_count
from palinopt.sim import circuit_to_matrix
from palinopt.synth import construct_circuit

TABLE = [
    (2, 8, 8, 10),
    (3, 50, 62, 68),
    (4, 246, 378, 392),
    (5, 1086, 2034, 2064),
    (6, 4558, 10210, 10272),
    (7, 18670, 49090, 49216),
]


def report(num, name, ok):
    print(f"acceptance {num} ({name}): {'PASS' if ok else 'FAIL'}")
    assert ok, f"acceptance criterion {num} ({name}) failed"


def column_circuit_gates(n, rows, col):
    return subcircuits_circuit(n, [subcircuit_for_pair(r, col, n) for r in rows])


def test_criterion_1_table_reproduction(capsys):
    code = main(["count", "--range", "2..7", "--mode", "both"])
    out = capsys.readouterr().out
    rows = [tuple(int(v) for v in ln.split("\t")) for ln in out.strip().splitlines()]
    with capsys.disabled():
        report(1, "Table 2 via count CLI, formula vs enumeration", code == 0 and rows == TABLE)


def test_criterion_2_closed_form_identities(capsys):
    ok = True
    for n in range(2, 8):
        conv = conventional_order(n)
        poa = poa_order(n)
        ok &= formula_poa(n) == poa_recurrence(n)
        ok &= count_structural(n, conv, cancelled=False) == formula_conventional(n)
        ok &= count_structural(n, conv, cancelled=True) == formula_conventional_cancel(n)
        ok &= count_structural(n, poa, cancelled=True) == formula_poa(n)
    with capsys.disabled():
        report(2, "closed forms = recurrence = structural counts, n in [2,7]", ok)


def test_criterion_3_end_to_end_reconstruction(capsys):
    ok = True
    cases = [(n, 20) for n in (2, 3, 4, 5)] + [(6, 3)]
    for n, seeds in cases:
        for seed in range(seeds):
            u = random_unitary(n, seed)
            for make_order in (conventional_order, poa_order):
                d = two_level_decompose(u, make_order(n))
                circuit = construct_circuit(d)
                for variant in (circuit, cancel_pass(circuit)):
                    dist = np.linalg.norm(circuit_to_matrix(variant) - u)
                    ok &= dist < 1e-9
    with capsys.disabled():
        report(3, "reconstruction < 1e-9, both orderings, +/- cancel", ok)


def test_criterion_4_mos_brute_force(capsys):
    ok = True
    n = 3
    order = poa_order(n)
    for col, rows in enumerate(order.columns):
        poa_count = len(cancel_pass(column_circuit_gates(n, rows, col)))
        subs = {r: subcircuit_for_pair(r, col, n) for r in rows}
        trie = ref_build_trie(n, subs.values())
        best = min(
            len(cancel_pass(column_circuit_gates(n, perm, col)))
            for perm in permutations(rows)
        )
        ok &= best == poa_count
        for perm in permutations(rows):
            count = len(cancel_pass(column_circuit_gates(n, perm, col)))
            if count == best:
                ok &= mos_check(trie, [(r, col) for r in perm])
    with capsys.disabled():
        report(4, "n=3 exhaustive: POA row order minimal, minima = mos", ok)


def test_criterion_5_trie_count_equality(capsys):
    # Corollary: a maximal-overlap concatenation of a column cancels to
    # leaves + 2 * interior.  The POA row order is such a sequence already;
    # for the conventional rows the trie's DFS order is used (the
    # conventional row order itself admits no within-column cancellation).
    ok = True
    for n in (3, 4, 5):
        for make_order in (conventional_order, poa_order):
            order = make_order(n)
            for col, rows in enumerate(order.columns):
                subs = {r: subcircuit_for_pair(r, col, n) for r in rows}
                trie = build_trie(n, *subcircuit_arrays(n, subs.values()))
                ok &= trie_order(trie) == dfs_order(ref_build_trie(n, subs.values()))
                mos_rows = [r for (r, _) in trie_order(trie)]
                cancelled = len(cancel_pass(column_circuit_gates(n, mos_rows, col)))
                ok &= cancelled == trie_gate_count(trie)
        # POA columns are already maximal overlap sequences in place
        order = poa_order(n)
        for col, rows in enumerate(order.columns):
            trie = build_trie(n, *subcircuit_arrays(n, (subcircuit_for_pair(r, col, n) for r in rows)))
            cancelled = len(cancel_pass(column_circuit_gates(n, rows, col)))
            ok &= cancelled == trie_gate_count(trie)
    with capsys.disabled():
        report(5, "within-column mos cancellation = leaves + 2*interior", ok)


def test_criterion_6_intercolumn_and_parity(capsys):
    ok = True
    for n in range(2, 7):
        for make_order in (conventional_order, poa_order):
            ok &= intercolumn_cancellation(n, make_order(n)) == 2 * ((1 << (n - 1)) - 1)
    for n in (3, 4, 5):
        for make_order in (conventional_order, poa_order):
            for col, rows in enumerate(make_order(n).columns):
                subs = [subcircuit_for_pair(r, col, n) for r in rows]
                for (r1, s1), (r2, s2) in zip(zip(rows, subs), zip(rows[1:], subs[1:])):
                    if r1 % 2 != r2 % 2:
                        ok &= overlap(s1, s2) == 0
    with capsys.disabled():
        report(6, "inter-column cancels = 2(2^(n-1)-1); parity blocks overlap", ok)


def test_criterion_7_cancellation_semantics(capsys):
    ok = True
    for n in (3, 4):
        for seed in range(10):
            d = two_level_decompose(random_unitary(n, seed), poa_order(n))
            circuit = construct_circuit(d)
            before = circuit_to_matrix(circuit)
            after = circuit_to_matrix(cancel_pass(circuit))
            ok &= np.max(np.abs(before - after)) < 1e-10
    with capsys.disabled():
        report(7, "cancel_pass preserves the unitary within 1e-10", ok)


def test_criterion_8_worked_example_pair_sequences(capsys):
    u = random_unitary(3, 0)
    poa_pairs = factor_pairs(two_level_decompose(u, poa_order(3)))
    conv_pairs = factor_pairs(two_level_decompose(u, conventional_order(3)))
    # spec/figure notation lists (column, row)
    ok = tuple((c, r) for (r, c) in poa_pairs[:7]) == (
        (0, 2), (0, 4), (0, 6), (0, 1), (0, 3), (0, 5), (0, 7)
    )
    ok &= tuple((c, r) for (r, c) in conv_pairs[:8]) == (
        (0, 1), (0, 2), (0, 3), (0, 4), (0, 5), (0, 6), (0, 7), (1, 2)
    )
    with capsys.disabled():
        report(8, "n=3 factor pair sequences match the worked figures", ok)
