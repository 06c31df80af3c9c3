"""Dense complex matrix utilities and two-level matrix embedding.

Matrices are plain ``numpy`` arrays of ``complex128``.  The tolerance ladder
used throughout the package is fixed; these constants are its only values,
and no function takes a tolerance argument:

* ``ZERO_TOL`` 1e-12 for "is this entry zero" decisions inside algorithms,
* ``UNITARY_TOL`` 1e-10 for unitarity validation,
* ``RECONSTRUCT_TOL`` 1e-9 for end-to-end circuit reconstruction checks.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

ZERO_TOL = 1e-12
UNITARY_TOL = 1e-10
RECONSTRUCT_TOL = 1e-9


def is_unitary(m: np.ndarray) -> bool:
    """True iff every entry of ``m† m - I`` is below ``UNITARY_TOL`` in magnitude."""
    m = np.asarray(m, dtype=complex)
    if m.ndim != 2 or m.shape[0] != m.shape[1]:
        return False
    dev = m.conj().T @ m - np.eye(m.shape[0])
    return bool(np.abs(dev).max() < UNITARY_TOL)


def is_unitary_entries(a: complex, b: complex, c: complex, d: complex) -> bool | np.ndarray:
    """:func:`is_unitary` of ``[[a, b], [c, d]]`` given as Python numbers, or
    elementwise for numpy arrays of entries (a bool array).

    The two off-diagonal entries of ``m† m - I`` are conjugates, so one is
    checked; a NaN entry fails every comparison and so fails the check.
    """
    ac, cc = a.conjugate(), c.conjugate()
    try:
        return (
            (abs(ac * a + cc * c - 1) < UNITARY_TOL)
            & (abs(b.conjugate() * b + d.conjugate() * d - 1) < UNITARY_TOL)
            & (abs(ac * b + cc * d) < UNITARY_TOL)
        )
    except OverflowError:  # |z| of a finite z past the float range: far from unitary
        return False


def frobenius_distance(a: np.ndarray, b: np.ndarray) -> float:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape != b.shape:
        raise ValueError(f"shape mismatch: {a.shape} vs {b.shape}")
    return float(np.linalg.norm(a - b))


@dataclass(frozen=True)
class TwoLevelMatrix:
    """A unitary acting nontrivially only on components ``col`` and ``row``.

    ``comp`` is the 2x2 component matrix [[a, b], [c, d]] occupying positions
    (col, col), (col, row), (row, col), (row, row) of the expanded matrix.
    The convention row > col is enforced.
    """

    row: int
    col: int
    comp: np.ndarray
    dim: int

    def __post_init__(self) -> None:
        if self.row <= self.col:
            raise ValueError(f"require row > col, got ({self.row}, {self.col})")
        if not (0 <= self.col < self.dim and 0 <= self.row < self.dim):
            raise ValueError(f"indices ({self.row}, {self.col}) out of range for dim {self.dim}")
        comp = np.asarray(self.comp, dtype=complex)
        if comp.shape != (2, 2):
            raise ValueError("component matrix must be 2x2")
        if not is_unitary_entries(*comp.reshape(4).tolist()):
            raise ValueError("component matrix is not unitary")
        object.__setattr__(self, "comp", comp)

    @property
    def pair(self) -> tuple[int, int]:
        return (self.row, self.col)


def random_unitary(n: int, seed: int) -> np.ndarray:
    """Seeded Haar-random 2^n x 2^n unitary.

    QR of a complex Gaussian matrix, each column of Q multiplied by the
    phase of R's diagonal entry so the distribution is Haar (Mezzadri, "How
    to generate random matrices from the classical compact groups",
    arXiv math-ph/0609050).
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    dim = 1 << n
    rng = np.random.default_rng(seed)
    q, r = np.linalg.qr(rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim)))
    d = np.diagonal(r)
    return q * (d / np.abs(d))


def write_matrix(m: np.ndarray) -> str:
    """Serialize: first line is the dimension, then one row per line with
    ``re,im`` tokens."""
    m = np.asarray(m, dtype=complex)
    lines = [str(m.shape[0])]
    for row in m:
        lines.append(" ".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in row))
    return "\n".join(lines) + "\n"


# Numbers per parse_floats call of the matrix and circuit readers, which
# bounds the number strings alive at once.
_PARSE_BUDGET = 2048


def parse_floats(numbers: list[str], where) -> np.ndarray:
    """``numbers`` converted by one numpy call; a number that does not parse
    raises ValueError ``where(k, s)`` for the first such ``numbers[k] == s``."""
    try:
        return np.array(numbers, dtype=float)
    except ValueError:
        for k, s in enumerate(numbers):
            try:
                float(s)
            except ValueError:
                raise ValueError(where(k, s)) from None
        raise


def read_matrix(text: str) -> np.ndarray:
    """Parse a matrix file.  Each row is checked for ``dim`` entries of one
    ``re,im`` pair each, and the numbers are converted by one numpy call
    per block of rows: as many as ``_PARSE_BUDGET`` numbers hold, 2 dim to
    a row, and at least one."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise ValueError("empty matrix file")
    try:
        dim = int(lines[0])
    except ValueError as exc:
        raise ValueError(f"bad dimension line: {lines[0]!r}") from exc
    if dim < 1 or len(lines) != dim + 1:
        raise ValueError(f"expected {dim} rows, got {len(lines) - 1}")
    step = max(1, _PARSE_BUDGET // (2 * dim))
    blocks: list[np.ndarray] = []
    for start in range(0, dim, step):
        entries: list[str] = []
        for i, line in enumerate(lines[1 + start : 1 + start + step], start):
            toks = line.split()
            if len(toks) != dim:
                raise ValueError(f"row {i}: expected {dim} entries, got {len(toks)}")
            # dim commas and one in every entry: exactly one in each
            if line.count(",") != dim or not all("," in tok for tok in toks):
                for j, tok in enumerate(toks):
                    if "," not in tok:
                        raise ValueError(f"row {i} entry {j}: missing comma in {tok!r}")
                    if tok.count(",") > 1:
                        raise ValueError(f"row {i} entry {j}: more than one comma in {tok!r}")
            entries += toks
        numbers = ",".join(entries).split(",")  # re and im of each entry, row-major
        blocks.append(parse_floats(numbers, lambda k, s: (
            f"row {start + k // 2 // dim} entry {k // 2 % dim}: bad number {s!r}")))
    values = np.concatenate(blocks)
    if not np.all(np.isfinite(values)):
        raise ValueError("matrix contains non-finite entries")
    return values.view(complex).reshape(dim, dim)
