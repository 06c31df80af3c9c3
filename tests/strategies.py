"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

from hypothesis import strategies as st

from palinopt.linalg import random_unitary
from palinopt.ordering import OrderArray
from palinopt.synth import Circuit, ControlledGate


@st.composite
def valid_orders(draw, min_n: int = 2, max_n: int = 4):
    """Any column-major order: each column's rows in a drawn permutation."""
    n = draw(st.integers(min_n, max_n))
    dim = 1 << n
    cols = tuple(
        tuple(draw(st.permutations(range(c + 1, dim)))) for c in range(dim - 1)
    )
    return OrderArray(n, cols)


@st.composite
def random_circuits(draw, max_n: int = 5, max_gates: int = 40, x_share: float = 0.5):
    """Circuits of fully controlled X and Haar-random U gates, n = 1..max_n.

    Every gate is a new object, so equal X gates are never shared.  About
    ``x_share`` of the gates are X gates.
    """
    n = draw(st.integers(1, max_n))
    gates = []
    for _ in range(draw(st.integers(0, max_gates))):
        target = draw(st.integers(0, n - 1))
        base = draw(st.integers(0, (1 << n) - 1)) & ~(1 << target)
        if draw(st.floats(0, 1)) < x_share:
            op = "X"
        else:
            op = random_unitary(1, draw(st.integers(0, 2**32 - 1)))
        gates.append(ControlledGate(n=n, target=target, base=base, op=op))
    return Circuit(n, tuple(gates))
