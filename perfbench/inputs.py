"""Seeded input generation, written independently of palinopt.

The program under test only ever sees the files written from here: Haar
matrices in its matrix format, and an uncancelled palindromic-order circuit
in its circuit format.  Nothing here imports palinopt, so a change to the
program's own generators or orderings cannot change the inputs.
"""

from __future__ import annotations

import zlib

import numpy as np


def rng_for(seed: int, workload: str) -> np.random.Generator:
    """One independent stream per (seed, workload)."""
    return np.random.default_rng([seed, zlib.crc32(workload.encode())])


def haar_unitaries(rng: np.random.Generator, n: int, count: int) -> np.ndarray:
    """``count`` Haar-distributed 2^n x 2^n unitaries: QR of complex Ginibre
    matrices, with the phases of diag(R) moved into Q (Mezzadri,
    math-ph/0609050) so the distribution is exactly Haar and not biased by
    the QR convention."""
    dim = 1 << n
    shape = (count, dim, dim)
    z = (rng.standard_normal(shape) + 1j * rng.standard_normal(shape)) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    d = np.diagonal(r, axis1=1, axis2=2)
    return q * (d / np.abs(d))[:, None, :]


def _entry(z: complex) -> str:
    return f"{float(z.real)!r},{float(z.imag)!r}"


def matrix_text(u: np.ndarray) -> str:
    """The program's matrix format: dimension line, then ``re,im`` rows.
    ``repr`` of a float round-trips exactly, so the file holds ``u`` bit for bit."""
    rows = [" ".join(_entry(z) for z in row) for row in u]
    return f"{u.shape[0]}\n" + "\n".join(rows) + "\n"


def poa_columns(n: int) -> list[list[int]]:
    """The paper's palindromic ordering, by level doubling from n=2.

    Column c of level m-1 yields column 2c (doubled rows, then 2c+1, then
    doubled rows plus one) and column 2c+1 (the same without 2c+1); the
    last column is always [2^m - 1].
    """
    cols = [[1, 2, 3], [2, 3], [3]]
    for m in range(3, n + 1):
        nxt = []
        for c in range((1 << (m - 1)) - 1):
            doubled = [2 * r for r in cols[c]]
            plus_one = [2 * r + 1 for r in cols[c]]
            nxt.append(doubled + [2 * c + 1] + plus_one)
            nxt.append(doubled + plus_one)
        nxt.append([(1 << m) - 1])
        cols = nxt
    return cols


def gray_path(c: int, r: int) -> list[int]:
    """Basis states from c to r, flipping the lowest differing bit each step."""
    path = [c]
    while path[-1] != r:
        diff = path[-1] ^ r
        path.append(path[-1] ^ (diff & -diff))
    return path


def _gate_line(kind: str, g: int, h: int, n: int, m: str = "") -> str:
    """A fully controlled gate acting between basis states g and h, which
    differ in one bit: that bit is the target, g's other bits the controls."""
    target = (g ^ h).bit_length() - 1
    pattern = "".join(
        "_" if q == target else str((g >> q) & 1) for q in range(n - 1, -1, -1)
    )
    return f"{kind} t={target} c={pattern}" + (f" m={m}" if m else "")


def uncancelled_poa_circuit_text(n: int, rng: np.random.Generator) -> str:
    """An uncancelled palindromic-order circuit in the program's format.

    Gate structure is what ``palinopt compile --order poa`` emits without
    ``--cancel``: per ordering pair (r, c), the X run along the Gray path
    from c to r, one U gate, then the X run mirrored; subcircuits in reverse
    factor order.  The U components are seeded Haar 2x2 unitaries, since the
    trie reads only the structure.
    """
    pairs = [(r, c) for c, rows in enumerate(poa_columns(n)) for r in rows]
    comps = haar_unitaries(rng, 1, len(pairs))
    lines = []
    for (r, c), u in zip(reversed(pairs), comps):
        path = gray_path(c, r)
        prefix = [_gate_line("X", path[j], path[j + 1], n) for j in range(len(path) - 2)]
        comp = ";".join(_entry(z) for z in u.flat)
        middle = _gate_line("U", path[-2], path[-1], n, comp)
        lines += prefix + [middle] + prefix[::-1]
    return f"n={n} gates={len(lines)}\n" + "\n".join(lines) + "\n"
