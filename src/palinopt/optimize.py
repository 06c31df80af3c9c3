"""Gate cancellation and closed-form gate counts.

Adjacent identical controlled-X gates square to the identity and are
deleted.  Gate counts for the conventional and palindromic orderings admit
closed forms, which the structural counters here reproduce from the
orderings' pairs alone, held as :class:`~palinopt.synth.GrayPairs`: no
circuit is built and no matrix value is involved.
"""

from __future__ import annotations

import numpy as np

from .ordering import OrderArray, conventional_order, poa_order
from .synth import Circuit, GrayPairs


# Circuits of at most this many gates are cancelled by the stack scan:
# below it the regions' fixed cost, a few dozen numpy calls a round, is
# more than the scan's cost per gate (they break even near 1,000-1,500).
_SCAN_MAX_GATES = 1024


def cancel_pass(c: Circuit) -> Circuit:
    """Delete adjacent self-annihilating X pairs until none remain.

    X-pair deletion is confluent, so any order of deletions reaches the
    fixed point of a left-to-right stack scan; component-matrix gates are
    never touched.  A circuit of up to ``_SCAN_MAX_GATES`` gates takes that
    scan (:func:`_cancel_scan`); a larger one is cancelled by regions
    (:func:`_cancel_regions`), which make no Python int per gate.
    """
    if len(c.code) <= _SCAN_MAX_GATES:
        return _cancel_scan(c)
    return _cancel_regions(c)


def _cancel_scan(c: Circuit) -> Circuit:
    """Single left-to-right stack scan over the gate codes: push each
    code, but pop instead when it is an X code equal to the code on top."""
    stack: list[int] = []
    for g in c.code.tolist():
        if stack and g >= 0 and stack[-1] == g:
            stack.pop()
        else:
            stack.append(g)
    return Circuit(c.n, np.array(stack, c.code.dtype), c.u_at, c.comps)


def _cancel_regions(c: Circuit) -> Circuit:
    """The deletions made on the codes, as regions ``[lo, hi)`` of gates
    that cancel to nothing, grown all at once, round by round.  A region
    starts empty between two equal X codes, and lies in one cell: the X
    gates between two U gates, or an end.  In a round it takes the gates
    either side of it when they are in its cell and equal, as they are
    adjacent once the region is deleted; of two regions with one gate
    between them, only the left one takes it.  Regions that come to touch
    merge.  A region that is alone in its cell is done once it cannot
    grow; all are done once none grows."""
    code, size = c.code, len(c.code)
    walls = np.flatnonzero(code < 0)
    lo = np.flatnonzero((code[1:] == code[:-1]) & (code[1:] >= 0)) + 1
    hi = lo.copy()
    cell = np.searchsorted(walls, lo)
    first, last = np.append(-1, walls)[cell] + 1, np.append(walls, size)[cell]
    mark = np.zeros(size + 1, np.int8)  # +1 at each done region's lo, -1 at its hi
    while len(lo):
        grew = code.take(lo - 1, mode="clip") == code.take(hi, mode="clip")
        grew &= (lo > first) & (hi < last)
        if grew.any():
            grew[1:] &= ~grew[:-1] | (hi[:-1] + 1 != lo[1:])
            lo -= grew
            hi += grew
            touch = hi[:-1] == lo[1:]
            if touch.any():  # merge each run of touching regions into its first
                start = np.flatnonzero(np.append(True, ~touch))
                grew = np.logical_or.reduceat(grew, start)
                lo, first, last = lo[start], first[start], last[start]
                hi = hi[np.append(start[1:] - 1, len(hi) - 1)]
            alone = np.ones(len(lo) + 1, bool)
            alone[1:-1] = last[:-1] != last[1:]
            done = alone[:-1] & alone[1:] & (~grew | (lo == first) | (hi == last))
        else:
            done = np.ones(len(lo), bool)
        mark[lo[done]] += 1
        mark[hi[done]] -= 1
        keep = ~done
        lo, hi, first, last = lo[keep], hi[keep], first[keep], last[keep]
    return Circuit(c.n, code[np.cumsum(mark[:-1], dtype=np.int8) == 0], c.u_at, c.comps)


def structural_circuit(n: int, rows, cols) -> GrayPairs:
    """Circuit skeleton of the pairs (rows[j], cols[j]), in order: real X
    runs, identity middles, held as the pairs and counted from them."""
    return GrayPairs(n, rows, cols)


def count_structural(n: int, order: OrderArray, cancelled: bool) -> int:
    """Gates of the order's structural circuit, after cancellation if
    ``cancelled``."""
    circuit = structural_circuit(n, order.rows, order.cols)
    return circuit.cancelled_len() if cancelled else len(circuit)


def formula_conventional(n: int) -> int:
    """Unoptimized conventional-order circuit size."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    return (n - 1) * (1 << (2 * n - 1)) + (1 << (n - 1))


def formula_conventional_cancel(n: int) -> int:
    """Conventional-order size after cancellation (boundary overlaps only)."""
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    return (n - 1) * (1 << (2 * n - 1)) - (1 << (n - 1)) + 2


def formula_poa(n: int) -> int:
    """Palindromic-order size after cancellation.

    Evaluated in integer arithmetic; 7 * 2^(2n-1) + 10 is divisible by 3
    for every n >= 1.
    """
    if n < 2:
        raise ValueError(f"qubit count must be >= 2, got {n}")
    num = 7 * (1 << (2 * n - 1)) + 10
    assert num % 3 == 0
    return num // 3 - 7 * (1 << (n - 1))


def table_rows(lo: int, hi: int, mode: str = "formula") -> list[tuple[int, int, int, int]]:
    """(n, palindromic, conventional, no-canceling) rows.

    mode "formula" uses the closed forms, "enumerate" counts the
    structural circuits, cancelled and not, from the orders' pairs, "both"
    does both and raises on disagreement.
    """
    rows = []
    for n in range(lo, hi + 1):
        formula = (formula_poa(n), formula_conventional_cancel(n), formula_conventional(n))
        if mode in ("enumerate", "both"):
            poa = count_structural(n, poa_order(n), cancelled=True)
            conv = conventional_order(n)  # built once the poa order is freed
            enum = (
                poa,
                count_structural(n, conv, cancelled=True),
                count_structural(n, conv, cancelled=False),
            )
            if mode == "both" and enum != formula:
                raise AssertionError(f"n={n}: formula {formula} != enumeration {enum}")
            row = enum
        else:
            row = formula
        rows.append((n, *row))
    return rows
