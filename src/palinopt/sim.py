"""Simulation of circuits of fully controlled gates.

A gate with n-1 controls acts on exactly one pair of basis states, so the
circuit's unitary is built row-wise: a controlled X only swaps which stored
row holds each of its two basis states, and a controlled U updates those two
rows, 2^n entries each, in one numpy product.  Only the U gates cost
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .linalg import RECONSTRUCT_TOL, frobenius_distance
from .synth import Circuit


def circuit_to_matrix(c: Circuit) -> np.ndarray:
    """Unitary computed by the circuit, gates applied in sequence order.

    ``row[i]`` names the row of ``m`` holding basis state i of the product
    so far, so the product is ``m[row]``.  A U gate's two stored rows a and
    b are the only rows of the strided view ``m[a:b+1:b-a]`` (for a > b,
    ``m[b:a+1:a-b]``, with the component's rows and columns reversed).  One
    ``np.matmul`` computes their update into a contiguous ``(2, 2^n)``
    scratch pair, made once, and one copy writes it back to the view: an
    output that overlapped the operand would make numpy allocate and copy a
    temporary for every U gate.
    """
    n = c.n
    dim = 1 << n
    mask = dim - 1
    m = np.eye(dim, dtype=complex)
    row = list(range(dim))
    u_at, comps = c.u_at, c.comps
    flipped = comps[:, ::-1, ::-1]
    pair = np.empty((2, dim), dtype=complex)
    for g in c.code:
        if g >= 0:
            i0 = g & mask
            i1 = i0 | 1 << (g >> n)
            row[i0], row[i1] = row[i1], row[i0]
        else:
            at = u_at[~g]
            i0 = at & mask
            a, b = row[i0], row[i0 | 1 << (at >> n)]
            if a < b:
                v = m[a : b + 1 : b - a]
                np.matmul(comps[~g], v, out=pair)
            else:
                v = m[b : a + 1 : a - b]
                np.matmul(flipped[~g], v, out=pair)
            v[...] = pair
    return m[row]


@dataclass(frozen=True)
class VerificationReport:
    passed: bool
    frobenius: float
    maxdev: float
    gates: int

    def __str__(self) -> str:
        return (
            f"pass={str(self.passed).lower()} frobenius={self.frobenius} "
            f"maxdev={self.maxdev} gates={self.gates}"
        )


def verify(u: np.ndarray, c: Circuit) -> VerificationReport:
    """Compare the circuit's unitary against ``u``; pass below RECONSTRUCT_TOL."""
    u = np.asarray(u, dtype=complex)
    dim = 1 << c.n
    if u.shape != (dim, dim):
        raise ValueError(f"matrix shape {u.shape} does not match circuit n={c.n}")
    built = circuit_to_matrix(c)
    frob = frobenius_distance(built, u)
    maxdev = float(np.max(np.abs(built - u)))
    return VerificationReport(passed=frob < RECONSTRUCT_TOL, frobenius=frob, maxdev=maxdev, gates=len(c))
