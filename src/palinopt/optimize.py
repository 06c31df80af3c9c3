"""Gate cancellation and closed-form gate counts.

Adjacent identical controlled-X gates square to the identity and are
deleted.  Gate counts for the conventional and palindromic orderings admit
closed forms, which the structural counters here reproduce from the
orderings' pairs alone, held as :class:`~palinopt.synth.GrayPairs`: no
circuit is built and no matrix value is involved.
"""

from __future__ import annotations

from .ordering import OrderArray, conventional_order, poa_order
from .synth import Circuit, GrayPairs


def cancel_pass(c: Circuit) -> Circuit:
    """Delete adjacent self-annihilating X pairs until none remain.

    Single left-to-right stack scan over the gate codes: push each code,
    but pop instead when it equals the code on top.  Equal codes are equal
    X gates, because every U code occurs once.  This reaches the same fixed
    point as repeated peephole deletion (X-pair deletion is confluent).
    Component-matrix gates are never touched.
    """
    stack: list[int] = []
    for g in c.code:
        if stack and stack[-1] == g:
            stack.pop()
        else:
            stack.append(g)
    return Circuit(c.n, stack, c.u_at, c.comps)


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
