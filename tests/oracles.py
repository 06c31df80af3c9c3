"""Reference implementations the tests check the library against.

They compute the same things as the library in the most direct way: the
decomposition by full dim x dim elimination products, and a circuit's
unitary by pushing every basis column through every gate, one amplitude
pair at a time.
"""

from __future__ import annotations

import numpy as np

from palinopt.linalg import ZERO_TOL, TwoLevelMatrix, expand_two_level
from palinopt.synth import Circuit, ControlledGate

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def dense_decompose(u: np.ndarray, order) -> list[TwoLevelMatrix]:
    """Two-level factors of ``u`` along ``order``, each elimination step
    applied as a full matrix product M_j @ m."""
    m = np.asarray(u, dtype=complex).copy()
    dim = m.shape[0]
    factors = []
    for c, rows in enumerate(order.columns):
        for r in rows:
            if c == dim - 2:
                block = np.conj(m[np.ix_([c, r], [c, r])]).T
            elif abs(m[r, c]) < ZERO_TOL:
                phase = np.conj(m[c, c]) if r == rows[-1] else 1.0
                block = np.array([[phase, 0.0], [0.0, 1.0]], dtype=complex)
            else:
                a, b = m[c, c], m[r, c]
                denom = np.sqrt(abs(a) ** 2 + abs(b) ** 2)
                block = np.array([[np.conj(a), np.conj(b)], [b, -a]], dtype=complex) / denom
            factor = TwoLevelMatrix(row=r, col=c, comp=block.conj().T, dim=dim)
            factors.append(factor)
            m = expand_two_level(factor).conj().T @ m
    return factors


def apply_gate(state: np.ndarray, g: ControlledGate) -> np.ndarray:
    """Apply ``g`` to a 2^n amplitude vector, returning a new vector."""
    dim = 1 << g.n
    if state.shape != (dim,):
        raise ValueError(f"state length {state.shape} does not match n={g.n}")
    i0 = 0
    for q, bit in g.controls:
        i0 |= bit << q
    i1 = i0 | (1 << g.target)
    out = state.copy()
    op = PAULI_X if g.is_x else g.op
    a0, a1 = state[i0], state[i1]
    out[i0] = op[0, 0] * a0 + op[0, 1] * a1
    out[i1] = op[1, 0] * a0 + op[1, 1] * a1
    return out


def circuit_matrix(c: Circuit) -> np.ndarray:
    """Unitary of ``c``: every basis column run through the gates in order."""
    dim = 1 << c.n
    m = np.eye(dim, dtype=complex)
    for x in range(dim):
        col = m[:, x]
        for g in c.gates:
            col = apply_gate(col, g)
        m[:, x] = col
    return m
