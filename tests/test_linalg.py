import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from oracles import adjoint, expand_two_level, matmul

from palinopt import linalg
from palinopt.linalg import (
    UNITARY_TOL,
    TwoLevelMatrix,
    is_unitary,
    is_unitary_entries,
    random_unitary,
    read_matrix,
    write_matrix,
)

X = np.array([[0, 1], [1, 0]], dtype=complex)
Y = np.array([[0, -1j], [1j, 0]])
CNOT = np.array(
    [[1, 0, 0, 0], [0, 1, 0, 0], [0, 0, 0, 1], [0, 0, 1, 0]], dtype=complex
)


def test_is_unitary_identity():
    assert is_unitary(np.eye(4))


def test_is_unitary_cnot():
    assert is_unitary(CNOT)


def test_is_unitary_all_ones():
    assert not is_unitary(np.ones((2, 2)))


def test_is_unitary_rejects_non_square():
    assert not is_unitary(np.ones((2, 3)))


def _unitary_2x2(m):
    """The 2x2 unitarity rule through both of its users: ``TwoLevelMatrix``
    (which also rejects any other shape) and, for a 2x2 ``m``,
    ``is_unitary_entries`` on its entries.  Asserts that the two agree."""
    m = np.asarray(m, dtype=complex)
    try:
        TwoLevelMatrix(row=1, col=0, comp=m, dim=2)
        accepted = True
    except ValueError:
        accepted = False
    if m.shape == (2, 2):
        assert is_unitary_entries(*m.reshape(4)) == accepted
    return accepted


def _max_dev(m):
    with np.errstate(all="ignore"):
        return float(np.max(np.abs(m.conj().T @ m - np.eye(2))))


@given(st.lists(st.complex_numbers(), min_size=4, max_size=4))
def test_is_unitary_2x2_agrees_on_random(vals):
    m = np.array(vals, dtype=complex).reshape(2, 2)
    with np.errstate(all="ignore"):
        assert _unitary_2x2(m) == is_unitary(m)


@given(
    seed=st.integers(0, 2**32 - 1),
    entry=st.integers(0, 3),
    size=st.floats(0.25, 4.0),
    angle=st.floats(0.0, 2 * np.pi),
)
def test_is_unitary_2x2_agrees_near_tolerance(seed, entry, size, angle):
    # One entry of a unitary moved by a few UNITARY_TOL, so the largest
    # deviation lands on either side of the tolerance.  Within rounding
    # (1e-15) of the tolerance the two sums may round to different sides.
    m = random_unitary(1, seed)
    m.flat[entry] += size * UNITARY_TOL * np.exp(1j * angle)
    assume(abs(_max_dev(m) - UNITARY_TOL) > 1e-15)
    assert _unitary_2x2(m) == is_unitary(m)


@pytest.mark.parametrize(
    "m",
    [
        np.full((2, 2), np.nan),
        np.array([[np.inf, 0], [0, 1]]),
        np.full((2, 2), 1e200 + 1e200j),
        np.eye(3),
        np.ones(4),
    ],
)
def test_is_unitary_2x2_rejects(m):
    assert not _unitary_2x2(m)


def test_is_unitary_2x2_accepts():
    assert _unitary_2x2(X) and _unitary_2x2(Y) and _unitary_2x2(np.eye(2))


def test_is_unitary_entries_elementwise_handles_its_own_overflow():
    # No np.errstate here: under -W error an overflow warning would raise.
    comps = np.array(
        [np.eye(2), X, np.full((2, 2), 1e200 + 1e200j), np.full((2, 2), np.nan), [[np.inf, 0], [0, 1]]],
        dtype=complex,
    )
    assert is_unitary_entries(*comps.reshape(-1, 4).T).tolist() == [True, True, False, False, False]


def test_adjoint_identity():
    assert np.array_equal(adjoint(np.eye(3)), np.eye(3))


def test_adjoint_hermitian_gates():
    assert np.array_equal(adjoint(X), X)
    assert np.array_equal(adjoint(Y), Y)


def test_adjoint_involution():
    m = np.arange(9, dtype=complex).reshape(3, 3) + 1j
    assert np.array_equal(adjoint(adjoint(m)), m)


def test_matmul():
    a = random_unitary(2, 0)
    assert np.allclose(matmul(a, np.eye(4)), a)
    assert np.allclose(matmul(X, X), np.eye(2))
    assert np.allclose(matmul(CNOT, CNOT), np.eye(4))


def test_matmul_dimension_mismatch():
    with pytest.raises(ValueError):
        matmul(X, CNOT)


def test_expand_two_level_identity_component():
    t = TwoLevelMatrix(row=5, col=2, comp=np.eye(2), dim=8)
    assert np.array_equal(expand_two_level(t), np.eye(8))


def test_expand_two_level_cnot():
    # X on components (2, 3) of a 4-dim space is exactly CNOT
    t = TwoLevelMatrix(row=3, col=2, comp=X, dim=4)
    assert np.array_equal(expand_two_level(t), CNOT)


def test_expand_two_level_adjacent_swap():
    t = TwoLevelMatrix(row=1, col=0, comp=X, dim=4)
    expected = np.eye(4)[[1, 0, 2, 3]]
    assert np.array_equal(expand_two_level(t), expected)


def test_two_level_rejects_bad_pair():
    with pytest.raises(ValueError):
        TwoLevelMatrix(row=1, col=1, comp=np.eye(2), dim=4)
    with pytest.raises(ValueError):
        TwoLevelMatrix(row=2, col=3, comp=np.eye(2), dim=4)


def test_two_level_rejects_non_unitary_component():
    with pytest.raises(ValueError):
        TwoLevelMatrix(row=1, col=0, comp=np.ones((2, 2)), dim=4)


@pytest.mark.parametrize("n", [1, 2, 3, 7])
def test_random_unitary_is_unitary(n):
    assert is_unitary(random_unitary(n, seed=3))


def test_random_unitary_deterministic():
    assert np.array_equal(random_unitary(3, 11), random_unitary(3, 11))


def test_random_unitary_seed_sensitivity():
    assert np.linalg.norm(random_unitary(3, 1) - random_unitary(3, 2)) > 0.1


def test_random_unitary_range():
    with pytest.raises(ValueError):
        random_unitary(0, 1)
    assert is_unitary(random_unitary(8, 1))


def test_random_unitary_phases_unbiased():
    # Haar measure is invariant under U -> -U, so every entry has mean 0.
    # QR without the diag(R) phase fix fails this: LAPACK makes R's diagonal
    # real, which biases the phase of Q's entries (over these seeds the
    # mean of u[0, 0] is then -0.42; with the fix it is 0.01).
    mean = np.mean([random_unitary(1, seed)[0, 0] for seed in range(2000)])
    assert abs(mean) < 0.05


def test_random_unitary_uu_dagger():
    for seed in range(5):
        u = random_unitary(4, seed)
        assert np.linalg.norm(matmul(u, adjoint(u)) - np.eye(16)) < 1e-9


def test_expanded_two_level_always_unitary():
    rng = np.random.default_rng(0)
    for _ in range(20):
        theta, phi = rng.uniform(0, 2 * np.pi, size=2)
        comp = np.array(
            [[np.cos(theta), -np.exp(1j * phi) * np.sin(theta)],
             [np.exp(-1j * phi) * np.sin(theta), np.cos(theta)]]
        )
        r, c = sorted(rng.choice(8, size=2, replace=False))[::-1]
        t = TwoLevelMatrix(row=int(r), col=int(c), comp=comp, dim=8)
        assert is_unitary(expand_two_level(t))


def test_matrix_text_round_trip():
    u = random_unitary(3, 5)
    assert np.array_equal(read_matrix(write_matrix(u)), u)


def test_matrix_text_format_shape():
    text = write_matrix(np.eye(2))
    lines = text.strip().splitlines()
    assert lines[0] == "2"
    assert lines[1].split() == ["1.0,0.0", "0.0,0.0"]


def test_read_matrix_rejects_garbage():
    with pytest.raises(ValueError):
        read_matrix("")
    with pytest.raises(ValueError):
        read_matrix("2\n1,0 0,0\n")  # short row count
    with pytest.raises(ValueError):
        read_matrix("2\n1 0\n0 1\n")  # missing commas


@pytest.mark.parametrize(
    "row, match",
    [
        ("1,0", "row 0: expected 2 entries, got 1"),
        ("1,0 0,0 0,0", "row 0: expected 2 entries, got 3"),
        ("1,0 0", "row 0 entry 1: missing comma in '0'"),
        # two entries and two commas, but not one comma per entry
        ("1 0,0,0", "row 0 entry 0: missing comma in '1'"),
        ("1,0 0,0,0", "row 0 entry 1: more than one comma in '0,0,0'"),
        ("1,0 ,0", "row 0 entry 1: bad number ''"),
        ("1,0 0,x", "row 0 entry 1: bad number 'x'"),
        ("1,0 0,inf", "non-finite"),
        ("1,0 nan,0", "non-finite"),
    ],
)
def test_read_matrix_names_the_bad_row_and_entry(row, match):
    with pytest.raises(ValueError, match=match):
        read_matrix(f"2\n{row}\n0,0 1,0\n")
    with pytest.raises(ValueError, match=match.replace("row 0", "row 1")):
        read_matrix(f"2\n1,0 0,0\n{row}\n")


@st.composite
def finite_complex_matrices(draw):
    """Square complex matrices whose parts are any finite floats: signed
    zeros, subnormals and values near the float range included."""
    dim = draw(st.integers(1, 5))
    parts = draw(arrays(np.float64, (dim, dim, 2), elements=st.floats(allow_nan=False, allow_infinity=False)))
    return parts.view(complex).reshape(dim, dim)


@settings(max_examples=80, deadline=None)
@given(m=finite_complex_matrices())
def test_matrix_text_round_trip_is_bit_exact(m):
    again = read_matrix(write_matrix(m))
    assert again.shape == m.shape
    assert np.array_equal(again.view(np.uint64), m.view(np.uint64))


def _wide_matrix(dim):
    """A dim x dim matrix of Gaussian parts spread over many magnitudes."""
    rng = np.random.default_rng(dim)
    parts = rng.standard_normal((dim, dim, 2)) * 10.0 ** rng.integers(-300, 300, (dim, dim, 2))
    return parts.view(complex).reshape(dim, dim)


def test_matrix_text_past_one_block_of_rows(monkeypatch):
    # 130 rows of 260 numbers: blocks of 7 rows (1,820 numbers) within the
    # 2,048-number budget, 18 of them, then 4 rows, each converted on its own.
    m = _wide_matrix(130)
    blocks = []
    parse = linalg.parse_floats

    def recorded(numbers, where):
        blocks.append(len(numbers) // (2 * 130))
        return parse(numbers, where)

    monkeypatch.setattr(linalg, "parse_floats", recorded)
    again = read_matrix(write_matrix(m))
    assert blocks == [7] * 18 + [4]
    assert np.array_equal(again.view(np.uint64), m.view(np.uint64))


@pytest.mark.parametrize(
    "i, j, part",
    [(0, 0, 0), (6, 129, 1), (7, 0, 0), (63, 129, 1), (64, 0, 0), (100, 5, 1), (125, 3, 1), (126, 0, 0),
     (128, 77, 0), (129, 129, 1)],
)
def test_read_matrix_names_a_bad_number_in_any_block(i, j, part):
    lines = write_matrix(_wide_matrix(130)).splitlines()
    row = lines[1 + i].split()
    entry = row[j].split(",")
    entry[part] = "x"
    row[j] = ",".join(entry)
    lines[1 + i] = " ".join(row)
    with pytest.raises(ValueError, match=rf"^row {i} entry {j}: bad number 'x'$"):
        read_matrix("\n".join(lines))


def test_read_matrix_converts_no_more_than_the_budget_at_once(monkeypatch):
    # n=6: 64 rows of 128 numbers, 16 rows to a conversion.
    sizes = []
    parse = linalg.parse_floats

    def recorded(numbers, where):
        sizes.append(len(numbers))
        return parse(numbers, where)

    monkeypatch.setattr(linalg, "parse_floats", recorded)
    m = random_unitary(6, 0)
    assert np.array_equal(read_matrix(write_matrix(m)), m)
    assert sizes == [linalg._PARSE_BUDGET] * 4
