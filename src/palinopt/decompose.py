"""Two-level decomposition of a unitary matrix.

Factors U into two-level unitaries V_1 ... V_k (left-to-right product equal
to U) following the ordering pairs of a supplied :class:`OrderArray`.  Each
step applies a quantum Givens elimination that zeroes the working matrix
entry at the current pair; identity factors are kept so the factor count is
always 2^{n-1} (2^n - 1) regardless of the input.

The steps of column c change only row c and the rows r_1, r_2, ... being
eliminated, each of them once, so every x_j = m[r_j, c] still holds its
start-of-column value when its step runs, and a whole column is eliminated
at once.  Steps with |x_j| < ZERO_TOL are identity factors.  From the first
other step on, with m0 = m[c, c] at the start of the column, the sums over
those steps i <= j

    den_j = sqrt(|m0|^2 + sum |x_i|^2)
    S_j   = conj(m0) row_c + sum conj(x_i) row_{r_i}

give row c after step j as S_j / den_j (one ``cumsum`` over the rows), and
each eliminated row as (x_j row_c' - a row_{r_j}) / den_j, where row_c' and
a are row c and m[c, c] before the step: the start-of-column row and m0 at
the first step, S_{j-1} / den_{j-1} and den_{j-1} after it.  If the
column's last step is an identity step it instead fixes the residual phase
of m[c, c]; the final column's 2x2 block is inverted whole.

A :class:`Decomposition` holds the factors as arrays: ``rows``, ``cols``
and the ``(k, 2, 2)`` component matrices ``comps``.  ``factors`` builds
the per-factor :class:`TwoLevelMatrix` objects on first access.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .linalg import (
    UNITARY_TOL,
    ZERO_TOL,
    TwoLevelMatrix,
    is_unitary,
    is_unitary_entries,
)
from .ordering import OrderArray, validate_order


@dataclass(frozen=True, eq=False)
class Decomposition:
    """Factor j acts on basis states ``cols[j]`` and ``rows[j]`` with the 2x2
    component ``comps[j]``; the factors multiply left to right in index
    order."""

    n: int
    rows: np.ndarray
    cols: np.ndarray
    comps: np.ndarray

    def __post_init__(self) -> None:
        rows, cols, comps = self.rows, self.cols, self.comps
        if rows.ndim != 1 or cols.shape != rows.shape or comps.shape != (len(rows), 2, 2):
            shapes = f"{rows.shape}, {cols.shape}, {comps.shape}"
            raise ValueError(f"shapes {shapes}: need (k,) rows and cols, (k, 2, 2) components")
        if not ((cols >= 0) & (rows > cols) & (rows < 1 << self.n)).all():
            raise ValueError(f"factor indices must satisfy 0 <= col < row < {1 << self.n}")
        with np.errstate(all="ignore"):  # inf and NaN entries fail the check
            unitary = is_unitary_entries(*comps.reshape(-1, 4).T).all()
        if not unitary:
            raise ValueError(f"component matrix is not unitary within {UNITARY_TOL}")

    @functools.cached_property
    def factors(self) -> tuple[TwoLevelMatrix, ...]:
        dim = 1 << self.n
        return tuple(
            TwoLevelMatrix(row=r, col=c, comp=comp, dim=dim)
            for r, c, comp in zip(self.rows.tolist(), self.cols.tolist(), self.comps)
        )


def two_level_decompose(
    u: np.ndarray,
    order: OrderArray,
    column_hook=None,
) -> Decomposition:
    """Factor ``u`` into two-level unitaries along ``order``.

    ``column_hook(m, c)`` is invoked after each column is fully processed
    with the live working matrix, which later columns keep updating in place
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
    rows, cols = order.rows, order.cols
    # Column c's slice of ``index`` is c, then the rows it eliminates.
    heads = np.arange(dim - 1)
    index = np.insert(rows, np.searchsorted(cols, heads), heads)
    # Row j holds factor j's component [[a, b], [c, d]] as (a, b, c, d); an
    # identity step keeps the identity.
    comps = np.zeros((len(rows), 4), dtype=complex)
    comps[:, ::3] = 1
    end = 0
    for c in range(dim - 2):
        start, end = end, end + dim - 1 - c
        steps = slice(start, end)
        at = index[start + c : end + c + 1]
        block = m[at, c:]
        size = np.abs(block[1:, 0])
        if size.min() < ZERO_TOL:  # identity steps leave their rows as they are
            nonzero = size >= ZERO_TOL
            steps = start + np.flatnonzero(nonzero)
            take = np.concatenate(([True], nonzero))
            at, block = at[take], block[take]
        if len(block) > 1:
            # Row 0 of ``block`` is row c, row i the row of the (i-1)-th
            # step, so sums[i] = S_{i-1} and den[i] = den_{i-1}, counting
            # from S_{-1} = conj(m0) row_c and den_{-1} = |m0|.
            sums = (block[:, 0].conj()[:, None] * block).cumsum(axis=0)
            den = np.sqrt(sums[:, 0].real)  # S_j[c] = den_j^2
            ratio = den[:-1].astype(complex)  # a over den_j
            ratio[0] = block[0, 0]
            ratio /= den[1:]
            coef = block[1:, 0] / den[1:]  # x_j over den_j
            sums[0], den[0] = block[0], 1  # now row c before step j is sums[j] / den[j]
            np.divide(sums[-1], den[-1], out=block[0])
            block[1:] *= ratio[:, None]
            np.subtract((coef / den[:-1])[:, None] * sums[:-1], block[1:], out=block[1:])
            m[at, c:] = block
            comps[steps, 0] = ratio
            comps[steps, 2] = coef
            comps[steps, 3] = -ratio.conj()
        if size[-1] < ZERO_TOL:
            # Column done: fix the residual phase on the diagonal.
            comps[end - 1, 0] = phase = m[c, c]
            m[c, c:] *= phase.conjugate()
        if column_hook is not None:
            column_hook(m, c)
    comps[:, 1] = comps[:, 2].conj()
    comps = comps.reshape(-1, 2, 2)
    # The remaining 2x2 block is unitary; its adjoint inverts it.
    block = m[dim - 2 :, dim - 2 :]
    comps[-1] = block
    if column_hook is not None:
        m[dim - 2 :, dim - 2 :] = block.conj().T @ block
        column_hook(m, dim - 2)
    return Decomposition(n=order.n, rows=rows, cols=cols, comps=comps)

