import gc
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from oracles import (
    order_from_columns,
    ref_conventional_columns,
    ref_poa_columns,
    ref_save_order,
)
from strategies import valid_orders

from palinopt.ordering import (
    OrderArray,
    conventional_order,
    load_order,
    poa_order,
    save_order,
    validate_order,
)


def columns(order):
    """The order's columns as tuples of ints."""
    return tuple(tuple(rows.tolist()) for rows in order.columns)


def same(a, b):
    """Whether two orders hold the same qubit count and pairs."""
    return a.n == b.n and np.array_equal(a.rows, b.rows) and np.array_equal(a.cols, b.cols)


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
    return tuple(cols)


def test_conventional_n2():
    assert columns(conventional_order(2)) == ((1, 2, 3), (2, 3), (3,))


def test_conventional_n1():
    assert columns(conventional_order(1)) == ((1,),)


def test_conventional_n3_column5():
    assert columns(conventional_order(3))[5] == (6, 7)


def test_conventional_rejects_n0():
    with pytest.raises(ValueError):
        conventional_order(0)


def test_poa_base_case_matches_conventional():
    assert same(poa_order(2), conventional_order(2))


def test_poa_n3_column0():
    assert columns(poa_order(3))[0] == (2, 4, 6, 1, 3, 5, 7)


def test_poa_n3_all_columns():
    assert columns(poa_order(3)) == (
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
    assert columns(poa_order(n)) == produce_array_reference(n)


@pytest.mark.parametrize("n", range(2, 8))
def test_validate_both_orderings(n):
    assert validate_order(conventional_order(n))
    assert validate_order(poa_order(n))


@pytest.mark.parametrize("n", range(2, 8))
def test_poa_last_column_single_entry(n):
    assert columns(poa_order(n))[(1 << n) - 2] == ((1 << n) - 1,)


@pytest.mark.parametrize("n", range(3, 7))
def test_poa_parity_structure(n):
    # Even columns: evens, then the single odd entry 2c+1, then odds.
    # Odd columns: evens then odds.
    cols = columns(poa_order(n))
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
    cols = columns(poa_order(n))
    for c in range(0, len(cols) - 1, 2):
        assert cols[c][-1] % 2 == 1
        assert cols[c + 1][0] % 2 == 0


def test_validate_rejects_duplicate_row():
    bad = order_from_columns(2, ((1, 2, 2), (2, 3), (3,)))
    assert not validate_order(bad)


def test_validate_rejects_short_column():
    bad = order_from_columns(2, ((1, 2, 3), (2,), (3,)))
    assert not validate_order(bad)


@pytest.mark.parametrize("n", [-1, 0, 3, 1 << 62])
def test_validate_rejects_qubit_count_that_misfits_the_columns(n):
    # n=3 needs 7 columns; 1 << n is never computed for an n this large.
    assert not validate_order(order_from_columns(n, ((1,),)))
    assert not validate_order(order_from_columns(n, ()))


@pytest.mark.parametrize("head", ["n=-1", "n=0"])
def test_load_rejects_qubit_count_below_1(head):
    with pytest.raises(ValueError, match="bad qubit count"):
        load_order(head + "\n0: 1\n")


def test_save_load_round_trip():
    for o in (poa_order(3), conventional_order(4)):
        assert same(load_order(save_order(o)), o)


def test_save_format():
    text = save_order(poa_order(3))
    assert text.splitlines()[0] == "n=3"
    assert text.splitlines()[1] == "0: 2 4 6 1 3 5 7"


def test_load_conventional_n2_file():
    text = "n=2\n0: 1 2 3\n1: 2 3\n2: 3\n"
    assert same(load_order(text), conventional_order(2))


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
    assert same(load_order(save_order(order)), order)


def test_poa_order_leaves_no_memory_behind():
    poa_order(6)
    gc.collect()
    tracemalloc.start()
    try:
        for _ in range(300):
            poa_order(6)
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert held < 1_000_000


@pytest.mark.parametrize(
    "order", [conventional_order(1), conventional_order(3), poa_order(4), order_from_columns(2, ())]
)
def test_columns_are_the_rows_split_by_column(order):
    assert order.rows.dtype == order.cols.dtype == np.intp
    assert list(zip(order.rows.tolist(), order.cols.tolist())) == [
        (r, c) for c, column in enumerate(columns(order)) for r in column
    ]


@pytest.mark.parametrize("n", range(1, 11))
def test_orders_are_the_tuple_references(n):
    builds = [(conventional_order, ref_conventional_columns), (poa_order, ref_poa_columns)]
    for make_order, ref_columns in builds[: 1 + (n >= 2)]:
        order, ref = make_order(n), ref_columns(n)
        assert same(order, order_from_columns(n, ref))
        assert save_order(order) == ref_save_order(n, ref)


@pytest.mark.parametrize(
    "bad_columns",
    [
        ((1, 2, 3), (2, 7), (3,)),  # 7 = 1 << 2 | 3: its key col << n | row is (1, 3)'s
        ((1, 2, 3), (-2, 3), (3,)),
    ],
)
def test_validate_rejects_rows_outside_the_states(bad_columns):
    assert not validate_order(order_from_columns(2, bad_columns))


def test_validate_rejects_columns_out_of_turn():
    # The triangle's pairs, but a pair of column 1 amid column 0's.
    order = OrderArray(2, np.array([1, 2, 2, 3, 3, 3]), np.array([0, 1, 0, 0, 1, 2]))
    assert not validate_order(order)
