"""Ordering arrays that direct two-level decomposition.

An order holds, for every column c in [0, 2^n - 2] in turn, the row indices
r (all r > c, each exactly once) in the order their entries get eliminated,
as two integer arrays: pair j is (``rows[j]``, ``cols[j]``).  ``columns``
splits ``rows`` into each column's rows, as views.  Two constructions are
provided: the conventional ascending order and the palindromic order built
by doubling the previous level.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True, eq=False)
class OrderArray:
    n: int
    rows: np.ndarray
    cols: np.ndarray

    @property
    def columns(self) -> list[np.ndarray]:
        """Each column's rows in elimination order, as views of ``rows``."""
        return np.split(self.rows, np.flatnonzero(np.diff(self.cols)) + 1)


def _from_columns(n: int, columns: list[np.ndarray]) -> OrderArray:
    """The order whose column c eliminates the rows ``columns[c]`` in turn."""
    rows = np.concatenate([np.empty(0, np.intp), *columns])
    return OrderArray(n, rows, np.arange(len(columns)).repeat([len(c) for c in columns]))


def conventional_order(n: int) -> OrderArray:
    """Column c eliminates rows c+1, c+2, ..., 2^n - 1 in ascending order."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    dim = 1 << n
    return _from_columns(n, [np.arange(c + 1, dim) for c in range(dim - 1)])


def poa_order(n: int) -> OrderArray:
    """Palindromic order: maximal within-column gate overlap for each column.

    Level n=2 is the conventional order.  Column c of level m-1 spawns
    columns 2c and 2c+1 of level m: the even column is the doubled rows,
    then the single odd entry 2c+1, then the doubled rows plus one; the odd
    column drops the middle entry.  The final column is always [2^m - 1].
    """
    if n < 2:
        raise ValueError(f"qubit count must be >= 2, got {n}")
    columns = [np.array([1, 2, 3]), np.array([2, 3]), np.array([3])]
    for m in range(3, n + 1):
        prev, columns = columns, []
        for c in range((1 << (m - 1)) - 1):
            d = 2 * prev[c]
            columns += [np.concatenate((d, [2 * c + 1], d + 1)), np.concatenate((d, d + 1))]
        columns.append(np.array([(1 << m) - 1]))
    return _from_columns(n, columns)


def validate_order(o: OrderArray) -> bool:
    """Check the triangular shape: column c is a permutation of c+1..2^n-1."""
    k = len(o.cols)  # n <= its bit length bounds 1 << n
    if not 1 <= o.n <= k.bit_length() or k != (1 << o.n - 1) * ((1 << o.n) - 1) or o.rows.shape != (k,):
        return False
    dim = 1 << o.n
    # In the triangle's column sequence, k pairs c < r < 2^n whose sorted
    # keys col << n | row all differ are the triangle's k pairs.
    keys = np.sort(o.cols << o.n | o.rows)
    return bool(
        (o.cols == np.arange(dim - 1).repeat(np.arange(dim - 1, 0, -1))).all()
        and ((o.cols < o.rows) & (o.rows < dim)).all()
        and (keys[1:] > keys[:-1]).all()
    )


def save_order(o: OrderArray) -> str:
    """The order as text: a line n=<n>, then a line "c: rows" per column.
    Each of the 2^n states is rendered once."""
    digits = np.array([str(r) for r in range(1 << o.n)], object)
    lines = [f"n={o.n}"]
    lines += (f"{c}: " + " ".join(digits[rows].tolist()) for c, rows in enumerate(o.columns))
    return "\n".join(lines) + "\n"


def load_order(text: str) -> OrderArray:
    lines = [ln.strip() for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("order file must start with 'n=<int>'")
    try:
        n = int(lines[0][2:])
    except ValueError as exc:
        raise ValueError(f"bad qubit count: {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"bad qubit count: {lines[0]!r}")
    columns: list[list[int]] = []
    for expected_c, line in enumerate(lines[1:]):
        head, _, tail = line.partition(":")
        try:
            c = int(head)
            rows = [int(t) for t in tail.split()]
        except ValueError as exc:
            raise ValueError(f"malformed column line: {line!r}") from exc
        if c != expected_c:
            raise ValueError(f"expected column {expected_c}, got {c}")
        columns.append(rows)
    try:
        o = _from_columns(n, [np.array(rows, np.intp) for rows in columns])
    except OverflowError:  # a row past the index type is no row of any order
        o = None
    if o is None or not validate_order(o):
        raise ValueError("order file fails validation: columns must each "
                         "permute {c+1, ..., 2^n - 1}")
    return o
