"""Hypothesis strategies shared by the property tests."""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st
from oracles import circuit_from_gates, order_from_columns

from palinopt.linalg import ZERO_TOL, random_unitary
from palinopt.synth import ControlledGate


@st.composite
def valid_orders(draw, min_n: int = 2, max_n: int = 4):
    """Any column-major order: each column's rows in a drawn permutation."""
    n = draw(st.integers(min_n, max_n))
    dim = 1 << n
    return order_from_columns(n, [draw(st.permutations(range(c + 1, dim))) for c in range(dim - 1)])


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
    return circuit_from_gates(n, gates)


# The sine of a 2x2 block's mixing angle: none, a value at least 1% away
# from ZERO_TOL on either side (so that rounding cannot move it across the
# identity-step threshold), or a plain mix.
_MIX = st.one_of(
    st.just(0.0),
    st.floats(0.5, 0.99).map(lambda f: f * ZERO_TOL),
    st.floats(1.01, 2.0).map(lambda f: f * ZERO_TOL),
    st.floats(0.05, 0.95),
)


@st.composite
def adversarial_unitaries(draw, n: int):
    """2^n x 2^n unitaries with many zero and near-``ZERO_TOL`` entries.

    A permutation matrix, times disjoint 2x2 blocks that mix pairs of basis
    states by drawn angles, times diagonal phases.  A block whose angle is 0
    leaves the pair alone, so pure permutations and pure phases are drawn
    too.
    """
    dim = 1 << n
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    mix = np.eye(dim, dtype=complex)
    pairs = rng.permutation(dim).reshape(-1, 2)
    for (i, j), s in zip(pairs, draw(st.lists(_MIX, min_size=len(pairs), max_size=len(pairs)))):
        w = np.exp(2j * np.pi * rng.random())
        cos = np.sqrt(1 - s * s)
        mix[np.ix_((i, j), (i, j))] = [[cos, -np.conj(w) * s], [w * s, cos]]
    perm = np.eye(dim)[rng.permutation(dim)] if draw(st.booleans()) else np.eye(dim)
    phases = np.exp(2j * np.pi * rng.random(dim)) if draw(st.booleans()) else np.ones(dim)
    return perm @ mix * phases
