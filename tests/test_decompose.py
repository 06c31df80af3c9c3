import io

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from oracles import (
    dense_decompose,
    expand_two_level,
    factor_pairs,
    order_from_columns,
    progress_invariant_check,
)
from strategies import adversarial_unitaries, valid_orders

from palinopt import cli
from palinopt.decompose import Decomposition, two_level_decompose
from palinopt.linalg import TwoLevelMatrix, frobenius_distance, random_unitary, write_matrix
from palinopt.optimize import cancel_pass
from palinopt.ordering import conventional_order, poa_order, validate_order
from palinopt.sim import verify
from palinopt.synth import construct_circuit, read_circuit, write_circuit

CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def reconstruct(d):
    """Independent oracle: multiply the expanded factors left to right."""
    dim = 1 << d.n
    prod = np.eye(dim, dtype=complex)
    for f in d.factors:
        prod = prod @ expand_two_level(f)
    return prod


def expected_factor_count(n):
    return (1 << (n - 1)) * ((1 << n) - 1)


def test_identity_input_gives_identity_factors():
    for order in (conventional_order(3), poa_order(3)):
        d = two_level_decompose(np.eye(8), order)
        assert len(d.factors) == expected_factor_count(3)
        for f in d.factors:
            assert np.allclose(f.comp, np.eye(2), atol=1e-12)
        assert frobenius_distance(reconstruct(d), np.eye(8)) < 1e-12


def test_cnot_decomposition():
    d = two_level_decompose(CNOT, conventional_order(2))
    assert len(d.factors) == 6
    assert frobenius_distance(reconstruct(d), CNOT) < 1e-12


def test_random_n3_poa():
    u = random_unitary(3, 42)
    d = two_level_decompose(u, poa_order(3))
    assert len(d.factors) == 28
    assert frobenius_distance(reconstruct(d), u) < 1e-9


def test_pairs_follow_order():
    order = poa_order(3)
    d = two_level_decompose(random_unitary(3, 0), order)
    assert factor_pairs(d) == tuple(zip(order.rows.tolist(), order.cols.tolist()))


def test_factor_count_independent_of_input():
    for seed in range(3):
        d = two_level_decompose(random_unitary(4, seed), conventional_order(4))
        assert len(d.factors) == expected_factor_count(4)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
@pytest.mark.parametrize("make_order", [conventional_order, poa_order])
def test_reconstruction_sweep(n, make_order):
    for seed in range(20):
        u = random_unitary(n, seed)
        d = two_level_decompose(u, make_order(n))
        assert frobenius_distance(reconstruct(d), u) < 1e-9


def test_reconstruction_n6():
    for seed in range(3):
        u = random_unitary(6, seed)
        for order in (conventional_order(6), poa_order(6)):
            d = two_level_decompose(u, order)
            assert frobenius_distance(reconstruct(d), u) < 1e-9


def test_shuffled_order_still_reconstructs():
    # Correctness only needs column-major elimination, not any particular
    # row order within a column.
    rng = np.random.default_rng(9)
    dim = 16
    cols = []
    for c in range(dim - 1):
        rows = list(range(c + 1, dim))
        rng.shuffle(rows)
        cols.append(tuple(rows))
    order = order_from_columns(4, cols)
    assert validate_order(order)
    u = random_unitary(4, 17)
    d = two_level_decompose(u, order)
    assert frobenius_distance(reconstruct(d), u) < 1e-9


def test_factors_are_valid_two_level():
    from palinopt.linalg import is_unitary

    d = two_level_decompose(random_unitary(3, 5), poa_order(3))
    for f in d.factors:
        m = expand_two_level(f)
        assert is_unitary(m)
        # identity outside the ordering pair
        mask = np.ones((8, 8), dtype=bool)
        for i in (f.col, f.row):
            mask[i, :] = mask[:, i] = False
        assert np.allclose(m[mask], np.eye(8)[mask], atol=1e-12)


def test_dense_and_two_row_updates_agree():
    # The in-place two-row update against full elimination products.
    u = random_unitary(4, 23)
    order = poa_order(4)
    dense = dense_decompose(u, order)
    d = two_level_decompose(u, order)
    assert len(d.factors) == len(dense)
    for f1, f2 in zip(dense, d.factors):
        assert f1.pair == f2.pair
        assert np.max(np.abs(f1.comp - f2.comp)) < 1e-12


@settings(max_examples=40, deadline=None)
@given(order=valid_orders(), seed=st.integers(0, 2**32 - 1))
def test_any_valid_order_reconstructs(order, seed):
    assert validate_order(order)
    u = random_unitary(order.n, seed)
    d = two_level_decompose(u, order)
    assert factor_pairs(d) == tuple(zip(order.rows.tolist(), order.cols.tolist()))
    assert frobenius_distance(reconstruct(d), u) < 1e-9


@settings(max_examples=80, deadline=None)
@given(data=st.data(), order=valid_orders())
def test_matches_dense_oracle_on_adversarial_unitaries(data, order):
    # Zero, near-ZERO_TOL and exact-phase entries exercise the identity
    # steps, the last-row phase fix and the final 2x2 block.
    u = data.draw(adversarial_unitaries(order.n))
    seen = []
    d = two_level_decompose(u, order, lambda m, c: seen.append(progress_invariant_check(m, c)))
    assert seen == [True] * len(order.columns)
    dense = dense_decompose(u, order)
    assert factor_pairs(d) == tuple(f.pair for f in dense)
    for f, comp in zip(dense, d.comps):
        assert np.max(np.abs(f.comp - comp)) < 1e-12
    circuit = read_circuit(io.StringIO(write_circuit(cancel_pass(construct_circuit(d)))))
    assert verify(u, circuit).passed  # Frobenius distance < 1e-9


def test_factors_are_the_arrays_entry_for_entry():
    d = two_level_decompose(random_unitary(3, 6), poa_order(3))
    assert len(d.factors) == len(d.rows) == len(d.cols) == len(d.comps) == 28
    for f, r, c, comp in zip(d.factors, d.rows, d.cols, d.comps):
        assert isinstance(f, TwoLevelMatrix)
        assert (f.row, f.col, f.dim) == (r, c, 8)
        assert np.array_equal(f.comp, comp)
    assert d.factors is d.factors  # built once


@pytest.mark.parametrize("order", ["poa", "conventional"])
def test_compile_builds_no_two_level_matrix(tmp_path, capsys, monkeypatch, order):
    def no_factor(self):
        raise AssertionError("built a TwoLevelMatrix")

    monkeypatch.setattr(TwoLevelMatrix, "__post_init__", no_factor)
    matrix = tmp_path / "u.mat"
    matrix.write_text(write_matrix(random_unitary(3, 2)), encoding="utf-8")
    argv = ["compile", "--input", str(matrix), "--order", order, "--cancel", "--verify",
            "--output", str(tmp_path / "u.circ")]
    assert cli.main(argv) == 0
    assert capsys.readouterr().out.splitlines()[-1].startswith("pass=true ")


def _arrays():
    d = two_level_decompose(random_unitary(2, 1), conventional_order(2))
    return d.rows, d.cols, d.comps


def test_decomposition_checks_shapes_and_indices():
    rows, cols, comps = _arrays()
    with pytest.raises(ValueError, match="shapes"):
        Decomposition(2, rows, cols[:-1], comps)
    with pytest.raises(ValueError, match="shapes"):
        Decomposition(2, rows, cols, comps[:, :1])
    for bad_rows, bad_cols in ((cols, rows), (rows, cols - 1), (rows + 4, cols)):
        with pytest.raises(ValueError, match="col < row"):
            Decomposition(2, bad_rows, bad_cols, comps)


@pytest.mark.parametrize("entry", [np.nan, np.inf, 1e200])
def test_decomposition_rejects_non_finite_or_huge_components(entry):
    rows, cols, comps = _arrays()
    comps[3, 1, 1] = entry
    with pytest.raises(ValueError, match="not unitary"):
        Decomposition(2, rows, cols, comps)


def test_decomposition_unitarity_tolerance():
    rows, cols, comps = _arrays()
    Decomposition(2, rows, cols, comps * (1 + 1e-12))  # deviation 2e-12
    with pytest.raises(ValueError, match="not unitary within 1e-10"):
        Decomposition(2, rows, cols, comps * (1 + 1e-9))


def test_progress_invariant_during_decomposition():
    u = random_unitary(3, 4)
    seen = []

    def hook(m, c):
        seen.append(progress_invariant_check(m, c))

    two_level_decompose(u, conventional_order(3), column_hook=hook)
    assert len(seen) == 7
    assert all(seen)


def test_progress_invariant_identity():
    assert progress_invariant_check(np.eye(8), 5)


def test_final_working_matrix_is_identity():
    u = random_unitary(4, 8)
    captured = {}

    def hook(m, c):
        captured[c] = m.copy()

    two_level_decompose(u, poa_order(4), column_hook=hook)
    last = captured[max(captured)]
    assert np.max(np.abs(last - np.eye(16))) < 1e-9


def test_rejects_non_unitary():
    with pytest.raises(ValueError, match="unitary"):
        two_level_decompose(np.ones((4, 4)), conventional_order(2))


def test_rejects_dimension_mismatch():
    with pytest.raises(ValueError):
        two_level_decompose(np.eye(8), conventional_order(2))


def test_rejects_invalid_order():
    bad = order_from_columns(2, ((1, 2, 2), (2, 3), (3,)))
    with pytest.raises(ValueError, match="order"):
        two_level_decompose(np.eye(4), bad)


def test_n1_single_factor():
    u = random_unitary(1, 3)
    d = two_level_decompose(u, conventional_order(1))
    assert len(d.factors) == 1
    assert frobenius_distance(reconstruct(d), u) < 1e-12
