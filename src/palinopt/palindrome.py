"""Trie-based ordering of palindromic subcircuits for maximal cancellation.

The X run of every subcircuit is entered into a trie by its gates' position
codes, ending in a leaf for the subcircuit's pair; runs sharing a prefix
share a path.  Listing leaves in depth-first order yields an ordering whose
concatenation cancels the maximum number of adjacent self-inverting gates,
and the trie shape gives the post-cancellation gate count directly: leaves
+ 2 * interior nodes.

The trie is held as arrays with a column per leaf and a row per depth, and
no object per node.  The runs form the grid ``x`` of
:meth:`~palinopt.synth.GrayPairs.runs`: ``x[d, j]`` is the code of run j's
gate d, or -1 past the run's end.  Sorted as words, the runs through one
node at depth d are adjacent columns equal in rows 0..d, and the least
subcircuit index among them is the node's insertion time, the first
subcircuit through it.  The nodes' times, and past the run's end the leaf's
own index, sorted as words give the depth-first order, each node's children
(subtrees and leaves) in insertion order as they would be walked in a trie
of nested nodes.  In that order adjacent leaves share the nodes of the rows
where their runs agree, from row 0 on.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .synth import _fresh, position_text


@dataclass(frozen=True, eq=False)
class PalindromeTrie:
    """The leaves in depth-first order: leaf i is the pair (``rows[i]``,
    ``cols[i]``) and column i of ``x`` its path, with one row more than the
    deepest leaf's depth."""

    n: int  # qubit count of the subcircuits
    x: np.ndarray
    rows: np.ndarray
    cols: np.ndarray
    interior: int  # nodes other than the root and the leaves

    def counts(self) -> tuple[int, int]:
        """(leaf count, interior count)."""
        return len(self.rows), self.interior


def _narrow(a: np.ndarray) -> np.ndarray:
    """``a`` in the smallest integer type that holds its values: numpy's
    stable sort, which ``np.lexsort`` runs per key, is a radix sort on keys
    of 16 bits or fewer."""
    if not a.size:
        return a
    lo, hi = int(a.min()), int(a.max())
    return a.astype(np.result_type(np.min_scalar_type(lo), np.min_scalar_type(~hi if lo < 0 else hi)))


def build_trie(n: int, x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> PalindromeTrie:
    """One leaf per subcircuit of n qubits: column j of the grid ``x`` is
    the X run of the pair (``rows[j]``, ``cols[j]``), padded with -1 to a
    last row of -1.  X runs with a common prefix share its path.  A pair
    that occurs twice is a ``ValueError`` naming its first repeat."""
    by_pair = np.lexsort((_narrow(cols), _narrow(rows)))  # stable: a repeat sorts after its first
    again = (rows[by_pair[1:]] == rows[by_pair[:-1]]) & (cols[by_pair[1:]] == cols[by_pair[:-1]])
    if again.any():
        j = by_pair[1:][again].min()
        raise ValueError(f"duplicate subcircuit for pair {(int(rows[j]), int(cols[j]))}")
    x = _narrow(x)
    by_run = np.lexsort(x[::-1])
    x = x[:, by_run]
    live = x >= 0
    fresh = _fresh(x)
    # A run of columns fresh only at its head is one node; its time is the
    # least subcircuit index in the run.
    heads = np.flatnonzero(fresh)
    index = _narrow(by_run)
    time = np.minimum.reduceat(np.tile(index, len(x)), heads)
    time = time.repeat(np.diff(heads, append=fresh.size)).reshape(x.shape)
    np.copyto(time, index, where=~live)
    dfs = np.lexsort(time[::-1])
    leaves = by_run[dfs]
    interior = int(np.count_nonzero(fresh & live))
    return PalindromeTrie(n, x[:, dfs], rows[leaves], cols[leaves], interior)


def trie_gate_count(t: PalindromeTrie) -> int:
    """Gates remaining after cancelling a maximal overlap concatenation."""
    leaves, interior = t.counts()
    return leaves + 2 * interior


def dump_trie(t: PalindromeTrie) -> str:
    """Indented one-node-per-line rendering, leaves tagged with their pair.

    The leaves in depth-first order, each below the X lines of the nodes on
    its path that the leaf before it does not share.  Each distinct X code
    and each distinct state of the pairs is rendered once."""
    lines = np.empty(t.x.shape, object)
    show = _fresh(t.x)
    live = t.x >= 0
    show &= live
    indents = np.array(["  " * d for d in range(len(lines))], object)
    at = show[:-1]
    codes, label = np.unique(t.x[:-1][at], return_inverse=True)
    texts = np.array([f"X {position_text(g, t.n)}\n" for g in codes.tolist()], object)
    lines[:-1][at] = (indents[:-1, None] + texts)[np.nonzero(at)[0], label]
    states, state = np.unique(np.concatenate((t.rows, t.cols)), return_inverse=True)
    digits = np.array([str(v) for v in states.tolist()], object)[state]
    leaves = len(t.rows)
    rcs = zip(indents[live.sum(axis=0)].tolist(), digits[:leaves].tolist(), digits[leaves:].tolist())
    lines[-1] = [f"{i}V({r}, {c}) [leaf ({r}, {c})]\n" for i, r, c in rcs]
    show[-1] = True
    return "".join(lines.T[show.T].tolist())
