"""Two-level decomposition of a unitary matrix.

Factors U into two-level unitaries V_1 ... V_k (left-to-right product equal
to U) following the ordering pairs of a supplied :class:`OrderArray`.  Each
step applies a quantum Givens elimination that zeroes the working matrix
entry at the current pair; identity factors are kept so the factor count is
always 2^{n-1} (2^n - 1) regardless of the input.

A step for pair (r, c) changes only rows c and r of the working matrix, and
by the column-progress invariant both rows are already zero left of column
c, so each step updates those two rows in place over columns >= c.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import (
    RECONSTRUCT_TOL,
    UNITARY_TOL,
    ZERO_TOL,
    TwoLevelMatrix,
    is_unitary,
)
from .ordering import OrderArray, validate_order


@dataclass(frozen=True)
class Decomposition:
    n: int
    factors: tuple[TwoLevelMatrix, ...]

    @property
    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple(f.pair for f in self.factors)


def _step_matrix(m: np.ndarray, r: int, c: int, final_col: bool, last_row: bool) -> np.ndarray:
    """2x2 block of the elimination matrix M_j for pair (r, c), rows/cols (c, r)."""
    if final_col:
        # Remaining 2x2 block is unitary; its conjugate entries invert it.
        return np.array(
            [[np.conj(m[c, c]), np.conj(m[r, c])],
             [np.conj(m[c, r]), np.conj(m[r, r])]],
            dtype=complex,
        )
    if abs(m[r, c]) < ZERO_TOL:
        if last_row:
            # Column done: fix the residual phase on the diagonal.
            return np.array([[np.conj(m[c, c]), 0.0], [0.0, 1.0]], dtype=complex)
        return np.eye(2, dtype=complex)
    denom = np.sqrt(abs(m[c, c]) ** 2 + abs(m[r, c]) ** 2)
    return np.array(
        [[np.conj(m[c, c]) / denom, np.conj(m[r, c]) / denom],
         [m[r, c] / denom, -m[c, c] / denom]],
        dtype=complex,
    )


def two_level_decompose(
    u: np.ndarray,
    order: OrderArray,
    column_hook=None,
) -> Decomposition:
    """Factor ``u`` into two-level unitaries along ``order``.

    ``column_hook(m, c)`` is invoked after each column is fully processed
    with the live working matrix, which later steps keep updating in place
    (used by tests to watch the elimination progress).
    """
    u = np.asarray(u, dtype=complex)
    dim = 1 << order.n
    if u.shape != (dim, dim):
        raise ValueError(f"matrix shape {u.shape} does not match order for n={order.n}")
    if not validate_order(order):
        raise ValueError("invalid order array")
    if not is_unitary(u):
        raise ValueError(f"input fails the unitarity check (not unitary within {UNITARY_TOL})")

    m = u.copy()
    factors: list[TwoLevelMatrix] = []
    final_col = dim - 2
    for c, rows in enumerate(order.columns):
        for r in rows:
            block = _step_matrix(m, r, c, final_col=(c == final_col), last_row=(r == rows[-1]))
            factors.append(TwoLevelMatrix(row=r, col=c, comp=block.conj().T, dim=dim))
            pair = [c, r]  # M_j differs from I only here; both rows are 0 left of c
            m[pair, c:] = block @ m[pair, c:]
        if column_hook is not None:
            column_hook(m, c)
    return Decomposition(n=order.n, factors=tuple(factors))


def progress_invariant_check(m: np.ndarray, c: int) -> bool:
    """After processing columns 0..c the working matrix must agree with the
    identity on those columns (and, by unitarity, rows).  Test hook."""
    dim = m.shape[0]
    eye = np.eye(dim, dtype=complex)
    return bool(np.max(np.abs(m[:, : c + 1] - eye[:, : c + 1])) < RECONSTRUCT_TOL)
