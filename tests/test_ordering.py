import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from strategies import valid_orders

from palinopt.ordering import (
    OrderArray,
    conventional_order,
    load_order,
    poa_order,
    save_order,
    validate_order,
)


def produce_array_reference(n):
    """In-place index-arithmetic construction of the palindromic array,
    kept as an independent cross-check of the sequence recurrence."""
    size = 1 << n
    arr = {2: [[0] * 4 for _ in range(4)]}
    arr[2][1][0], arr[2][2][0], arr[2][3][0] = 1, 2, 3
    arr[2][1][1], arr[2][2][1] = 2, 3
    arr[2][1][2] = 3
    for m in range(3, n + 1):
        dim = 1 << m
        a = [[0] * dim for _ in range(dim)]
        k = 1 << (m - 1)
        for c in range(1 << (m - 1)):
            a[k][2 * c] = 2 * c + 1
            for r in range(1, (1 << (m - 1)) - c):
                a[r][2 * c] = 2 * arr[m - 1][r][c]
                a[r + k][2 * c] = 2 * arr[m - 1][r][c] + 1
                a[r][2 * c + 1] = 2 * arr[m - 1][r][c]
                a[r + k - 1][2 * c + 1] = 2 * arr[m - 1][r][c] + 1
            k -= 1
        arr[m] = a
    a = arr[n]
    cols = []
    for c in range(size - 1):
        cols.append(tuple(a[r][c] for r in range(1, size - c)))
    return OrderArray(n, tuple(cols))


def test_conventional_n2():
    assert conventional_order(2).columns == ((1, 2, 3), (2, 3), (3,))


def test_conventional_n1():
    assert conventional_order(1).columns == ((1,),)


def test_conventional_n3_column5():
    assert conventional_order(3).columns[5] == (6, 7)


def test_conventional_rejects_n0():
    with pytest.raises(ValueError):
        conventional_order(0)


def test_poa_base_case_matches_conventional():
    assert poa_order(2).columns == conventional_order(2).columns


def test_poa_n3_column0():
    assert poa_order(3).columns[0] == (2, 4, 6, 1, 3, 5, 7)


def test_poa_n3_all_columns():
    assert poa_order(3).columns == (
        (2, 4, 6, 1, 3, 5, 7),
        (2, 4, 6, 3, 5, 7),
        (4, 6, 3, 5, 7),
        (4, 6, 5, 7),
        (6, 5, 7),
        (6, 7),
        (7,),
    )


def test_poa_rejects_n1():
    with pytest.raises(ValueError):
        poa_order(1)


@pytest.mark.parametrize("n", range(3, 8))
def test_poa_matches_produce_array_pseudocode(n):
    assert poa_order(n).columns == produce_array_reference(n).columns


@pytest.mark.parametrize("n", range(2, 8))
def test_validate_both_orderings(n):
    assert validate_order(conventional_order(n))
    assert validate_order(poa_order(n))


@pytest.mark.parametrize("n", range(2, 8))
def test_poa_last_column_single_entry(n):
    assert poa_order(n).columns[(1 << n) - 2] == ((1 << n) - 1,)


@pytest.mark.parametrize("n", range(3, 7))
def test_poa_parity_structure(n):
    # Even columns: evens, then the single odd entry 2c+1, then odds.
    # Odd columns: evens then odds.
    cols = poa_order(n).columns
    for c, rows in enumerate(cols[:-1]):
        parities = [r % 2 for r in rows]
        if c % 2 == 0:
            half = (len(rows) - 1) // 2
            assert parities == [0] * half + [1] * (half + 1)
            assert rows[half] == c + 1
        else:
            half = len(rows) // 2
            assert parities == [0] * half + [1] * half


@pytest.mark.parametrize("n", range(3, 7))
def test_poa_column_boundary_parity(n):
    # Needed for the single inter-column overlap: even columns end odd,
    # the following odd column starts even.
    cols = poa_order(n).columns
    for c in range(0, len(cols) - 1, 2):
        assert cols[c][-1] % 2 == 1
        assert cols[c + 1][0] % 2 == 0


def test_validate_rejects_duplicate_row():
    bad = OrderArray(2, ((1, 2, 2), (2, 3), (3,)))
    assert not validate_order(bad)


def test_validate_rejects_short_column():
    bad = OrderArray(2, ((1, 2, 3), (2,), (3,)))
    assert not validate_order(bad)


@pytest.mark.parametrize("n", [-1, 0, 3, 1 << 62])
def test_validate_rejects_qubit_count_that_misfits_the_columns(n):
    # n=3 needs 7 columns; 1 << n is never computed for an n this large.
    assert not validate_order(OrderArray(n, ((1,),)))
    assert not validate_order(OrderArray(n, ()))


@pytest.mark.parametrize("head", ["n=-1", "n=0"])
def test_load_rejects_qubit_count_below_1(head):
    with pytest.raises(ValueError, match="bad qubit count"):
        load_order(head + "\n0: 1\n")


def test_save_load_round_trip():
    for o in (poa_order(3), conventional_order(4)):
        assert load_order(save_order(o)) == o


def test_save_format():
    text = save_order(poa_order(3))
    assert text.splitlines()[0] == "n=3"
    assert text.splitlines()[1] == "0: 2 4 6 1 3 5 7"


def test_load_conventional_n2_file():
    text = "n=2\n0: 1 2 3\n1: 2 3\n2: 3\n"
    assert load_order(text) == conventional_order(2)


def test_load_rejects_missing_row():
    text = "n=2\n0: 2 3\n1: 2 3\n2: 3\n"
    with pytest.raises(ValueError):
        load_order(text)


def test_load_rejects_malformed():
    with pytest.raises(ValueError):
        load_order("nope\n")
    with pytest.raises(ValueError):
        load_order("n=2\n0: a b c\n")


@pytest.mark.parametrize("make_order", [poa_order, conventional_order])
def test_orders_past_n7_emit_no_warning(make_order):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert validate_order(make_order(8))


@settings(max_examples=40, deadline=None)
@given(order=valid_orders(1, 4))
def test_order_text_round_trip(order):
    again = load_order(save_order(order))
    assert again.n == order.n
    assert again.columns == order.columns


def test_poa_order_leaves_no_memory_behind():
    # Each call frees its columns; 300 calls kept ~2.8 MB in CPython's
    # tuple free lists when the columns were built by tuple(generator).
    poa_order(6)
    gc.collect()  # empties the free lists
    tracemalloc.start()
    try:
        for _ in range(300):
            poa_order(6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


@pytest.mark.parametrize("order", [conventional_order(1), conventional_order(3), poa_order(4), OrderArray(2)])
def test_pairs_are_the_arrays_of_rows_and_columns(order):
    rows, cols = order.pairs()
    assert rows.dtype == cols.dtype == np.intp
    assert list(zip(rows.tolist(), cols.tolist())) == [
        (r, c) for c, column in enumerate(order.columns) for r in column
    ]
