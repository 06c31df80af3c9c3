"""Ordering arrays that direct two-level decomposition.

An order array holds, for every column c in [0, 2^n - 2], the sequence of
row indices r (all r > c, each exactly once) in the order their entries get
eliminated.  Two constructions are provided: the conventional ascending
order and the palindromic order built by doubling the previous level.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class OrderArray:
    n: int
    columns: tuple[tuple[int, ...], ...] = field(default_factory=tuple)

    @property
    def dim(self) -> int:
        return 1 << self.n

    def pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """All ordering pairs (r, c) in elimination order, as the arrays of
        their rows and of their columns."""
        sizes = np.fromiter(map(len, self.columns), np.intp, len(self.columns))
        rows = np.fromiter(itertools.chain.from_iterable(self.columns), np.intp, sizes.sum())
        return rows, np.arange(len(self.columns)).repeat(sizes)


def conventional_order(n: int) -> OrderArray:
    """Column c eliminates rows c+1, c+2, ..., 2^n - 1 in ascending order."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    dim = 1 << n
    cols = tuple(tuple(range(c + 1, dim)) for c in range(dim - 1))
    return OrderArray(n, cols)


def poa_order(n: int) -> OrderArray:
    """Palindromic order: maximal within-column gate overlap for each column.

    Level n=2 is the conventional order.  Column c of level m-1 spawns
    columns 2c and 2c+1 of level m: the even column is the doubled rows,
    then the single odd entry 2c+1, then the doubled rows plus one; the odd
    column drops the middle entry.  The final column is always [2^m - 1].
    """
    if n < 2:
        raise ValueError(f"qubit count must be >= 2, got {n}")
    cols: list[tuple[int, ...]] = [(1, 2, 3), (2, 3), (3,)]
    for m in range(3, n + 1):
        prev = cols
        cols = []
        for c in range((1 << (m - 1)) - 1):
            # Lists, not tuple(generator): a tuple grown from a generator is
            # resized past CPython's tuple free lists, so freeing the
            # columns of every call would fill those lists by megabytes.
            doubled = [2 * r for r in prev[c]]
            plus_one = [r + 1 for r in doubled]
            cols.append((*doubled, 2 * c + 1, *plus_one))
            cols.append((*doubled, *plus_one))
        cols.append(((1 << m) - 1,))
    return OrderArray(n, tuple(cols))


def validate_order(o: OrderArray) -> bool:
    """Check the triangular shape: column c is a permutation of c+1..2^n-1."""
    dim = len(o.columns) + 1
    if not 1 <= o.n < dim or dim != 1 << o.n:  # n < dim bounds the shift
        return False
    for c, rows in enumerate(o.columns):
        if sorted(rows) != list(range(c + 1, dim)):
            return False
    return True


def save_order(o: OrderArray) -> str:
    lines = [f"n={o.n}"]
    for c, rows in enumerate(o.columns):
        lines.append(f"{c}: " + " ".join(str(r) for r in rows))
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
    cols: list[tuple[int, ...]] = []
    for expected_c, line in enumerate(lines[1:]):
        head, _, tail = line.partition(":")
        try:
            c = int(head)
            rows = tuple(int(t) for t in tail.split())
        except ValueError as exc:
            raise ValueError(f"malformed column line: {line!r}") from exc
        if c != expected_c:
            raise ValueError(f"expected column {expected_c}, got {c}")
        cols.append(rows)
    o = OrderArray(n, tuple(cols))
    if not validate_order(o):
        raise ValueError("order file fails validation: columns must each "
                         "permute {c+1, ..., 2^n - 1}")
    return o
