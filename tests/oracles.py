"""Reference implementations the tests check the library against.

They compute the same things as the library in the most direct way: the
decomposition by full dim x dim elimination products, a circuit's unitary
by pushing every basis column through every gate, one amplitude pair at a
time, cancellation by repeated peephole deletion, circuit construction
with gates that name each control qubit's bit explicitly, and the maximal
overlap test by recursive runs of leaf sets.  The library runs its stack
cancellation, row-tracking simulator, subcircuit split and trie on integer
gate codes; the same algorithms over gate objects are kept here as
references, and so are the circuit reader without its U-line head cache
and the simulator that updates a U gate's two rows in place.
The library's palindrome trie is arrays; the trie as nested dicts, built
one subcircuit at a time, with its recursive depth-first walk, mos test
and dump, is its reference here, and so is the level-doubling recurrence
for the palindromic gate count that the closed form is checked against.
Circuits of (r, c) pairs are also built from the pairs' Gray codes, state
by state, as a reference for the library's builders.  The library holds
an order as two integer arrays; the orders as tuples of column tuples,
built over Python ints and written one int at a time, are their
reference, and orders of any columns, valid or not, are made from such
tuples here.  So is the trie's grid of X runs, from ``(prefix, pair)``
tuples or from a :class:`~palinopt.synth.GrayPairs`, and so are circuits
of pairs with identity components.
The small matrix helpers, per-column counts, subcircuit overlaps, the
decomposition's progress check and the builders of circuits from gate
objects and of factor pair lists, which the library does not need, live
here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence, Union

import numpy as np

from palinopt.decompose import Decomposition
from palinopt.linalg import _PARSE_BUDGET, RECONSTRUCT_TOL, ZERO_TOL, TwoLevelMatrix
from palinopt.optimize import cancel_pass, count_structural
from palinopt.ordering import OrderArray
from palinopt.synth import (
    Circuit,
    ControlledGate,
    GrayPairs,
    _code_arrays,
    _components,
    _parse_fields,
    _parse_position,
    gray_circuit,
    gray_code,
    position_text,
)

PAULI_X = np.array([[0, 1], [1, 0]], dtype=complex)


def adjoint(m: np.ndarray) -> np.ndarray:
    """Conjugate transpose."""
    return np.asarray(m, dtype=complex).conj().T


def matmul(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    a = np.asarray(a, dtype=complex)
    b = np.asarray(b, dtype=complex)
    if a.shape[1] != b.shape[0]:
        raise ValueError(f"dimension mismatch: {a.shape} x {b.shape}")
    return a @ b


def expand_two_level(t: TwoLevelMatrix) -> np.ndarray:
    """Embed the 2x2 component into a dim x dim identity."""
    m = np.eye(t.dim, dtype=complex)
    c, r = t.col, t.row
    m[c, c] = t.comp[0, 0]
    m[c, r] = t.comp[0, 1]
    m[r, c] = t.comp[1, 0]
    m[r, r] = t.comp[1, 1]
    return m


def array_circuit(n: int, code, u_at, comps) -> Circuit:
    """The circuit of the codes ``code`` and ``u_at``, given as any
    sequences of ints, held as the library holds them: int64 arrays, or
    arrays of Python ints past ``ARRAY_MAX_N``."""
    return Circuit(n, *_code_arrays(n, code, u_at), comps)


def circuit_from_gates(n: int, gates) -> Circuit:
    """The circuit of gate objects ``gates`` in application order."""
    code, u_at, ops = [], [], []
    for g in gates:
        if g.n != n:
            raise ValueError(f"gate for n={g.n} in a circuit for n={n}")
        at = g.target << n | g.base
        if g.is_x:
            code.append(at)
        else:
            code.append(~len(u_at))
            u_at.append(at)
            ops.append(g.op)
    return array_circuit(n, code, u_at, np.array(ops, dtype=complex).reshape(-1, 2, 2))


def factor_pairs(d: Decomposition) -> tuple[tuple[int, int], ...]:
    """The (row, col) pair of every factor, in factor order."""
    return tuple(zip(d.rows.tolist(), d.cols.tolist()))


def progress_invariant_check(m: np.ndarray, c: int) -> bool:
    """After processing columns 0..c the working matrix must agree with the
    identity on those columns (and, by unitarity, rows)."""
    dim = m.shape[0]
    eye = np.eye(dim, dtype=complex)
    return bool(np.max(np.abs(m[:, : c + 1] - eye[:, : c + 1])) < RECONSTRUCT_TOL)


def pair_columns(pairs) -> tuple[list[int], list[int]]:
    """The rows and the columns of (r, c) pairs, as the library's builders
    take them."""
    rows: list[int] = []
    cols: list[int] = []
    for r, c in pairs:
        rows.append(r)
        cols.append(c)
    return rows, cols


def identity_circuit(n: int, rows, cols) -> Circuit:
    """The circuit :func:`gray_circuit` builds of the pairs (``rows[j]``,
    ``cols[j]``), every component the identity."""
    return gray_circuit(n, rows, cols, np.broadcast_to(np.eye(2, dtype=complex), (len(rows), 2, 2)))


def ref_gray_circuit(n: int, pairs, comps=None) -> Circuit:
    """The circuit of (r, c) pairs from their Gray codes: each step from a
    state g to the next flips one bit b, by the gate at position b << n |
    g & ~2^b.  A pair's last step is its component gate, the steps before
    it the X run, mirrored after it."""
    code: list[int] = []
    u_at: list[int] = []
    for j, (r, c) in enumerate(pairs):
        states = gray_code(c, r, n)
        steps = [((g ^ h).bit_length() - 1) << n | (g & ~(g ^ h)) for g, h in zip(states, states[1:])]
        run = steps[:-1]
        u_at.append(steps[-1])
        code += [*run, ~j, *run[::-1]]
    if comps is None:
        comps = np.broadcast_to(np.eye(2, dtype=complex), (len(u_at), 2, 2))
    return array_circuit(n, code, u_at, comps)


def subcircuit_for_pair(r: int, c: int, n: int) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The palindromic subcircuit ``(prefix, pair)`` for ordering pair
    (r, c), its X run cut out of the library's circuit construction of that
    one pair."""
    circuit = identity_circuit(n, [r], [c])
    return tuple(circuit.code[: len(circuit) // 2].tolist()), (r, c)


def subcircuits_circuit(n: int, subs, comps=None, middles=None) -> Circuit:
    """The circuit of ``(prefix, pair)`` subcircuits in order: each X run,
    its component gate and the X run mirrored.  Subcircuit j's component
    gate is at position code ``middles[j]``, by default the one of its
    pair's Gray walk, with component ``comps[j]``, by default the
    identity."""
    if middles is None:
        middles = identity_circuit(n, *pair_columns(pair for _, pair in subs)).u_at
    code: list[int] = []
    u_at = list(middles)
    for j, (prefix, _) in enumerate(subs):
        code += [*prefix, ~j, *prefix[::-1]]
    if comps is None:
        comps = np.broadcast_to(np.eye(2, dtype=complex), (len(u_at), 2, 2))
    return array_circuit(n, code, u_at, np.asarray(comps, dtype=complex).reshape(-1, 2, 2))


def ref_split_subcircuits(c: Circuit) -> list:
    """Palindromic subcircuits ``(prefix, pair)`` of an uncancelled circuit,
    the prefix as gate objects: the X run's flips give the pair, and each X
    gate is checked against the running state of the walk from c."""
    subs = []
    gates = c.gates
    i = 0
    while i < len(gates):
        start = i
        flips = 0
        while i < len(gates) and gates[i].is_x:
            flips ^= 1 << gates[i].target
            i += 1
        if i == len(gates):
            raise ValueError("trailing X gates with no component gate")
        prefix = gates[start:i]
        middle = gates[i]
        i += 1
        if gates[i : i + len(prefix)] != prefix[::-1]:
            raise ValueError("gate sequence is not palindromic; was this circuit cancelled?")
        i += len(prefix)
        pair = (middle.base | 1 << middle.target, middle.base ^ flips)
        g, low = pair[1], 0
        for x in prefix:
            bit = 1 << x.target
            if not low < bit < 1 << middle.target or x.base != g & ~bit:
                raise ValueError(f"X run is not the Gray walk of pair {pair}")
            g, low = g ^ bit, bit
        subs.append((prefix, pair))
    return subs


def overlap(a, b) -> int:
    """Length of the cancelling run between consecutive ``(prefix, pair)``
    subcircuits: the longest common prefix of their X runs."""
    (pa, _), (pb, _) = a, b
    return next((k for k, (x, y) in enumerate(zip(pa, pb)) if x != y), min(len(pa), len(pb)))


def ref_overlap(a, b) -> int:
    """Common prefix length of two gate-object X runs, gates compared by
    (target, base)."""
    k = 0
    for ga, gb in zip(a[0], b[0]):
        if (ga.target, ga.base) != (gb.target, gb.base):
            break
        k += 1
    return k


def _ref_dump(node: dict, depth: int, lines: list[str]) -> tuple[int, int]:
    leaves = interior = 0
    for label, children in node.values():
        lines.append("  " * depth + label + "\n")
        if children is None:
            leaves += 1
        else:
            below = _ref_dump(children, depth + 1, lines)
            leaves, interior = leaves + below[0], interior + 1 + below[1]
    return leaves, interior


def ref_trie(subs) -> tuple[tuple[int, int], str]:
    """(leaf count, interior count) and the dump text of the palindrome trie
    of gate-object subcircuits.  Nodes are nested dicts keyed by gate
    (target, base), children in insertion order; labels are rendered from
    the gates' control patterns, and the counts come from walking the
    finished trie."""
    root: dict = {}
    for k, (prefix, pair) in enumerate(subs):
        node = root
        for g in prefix:
            label = f"X t={g.target} c={g.pattern()}"
            node = node.setdefault((g.target, g.base), (label, {}))[1]
        node[k] = (f"V{pair} [leaf {pair}]", None)
    lines: list[str] = []
    counts = _ref_dump(root, 0, lines)
    return counts, "".join(lines)


@dataclass
class RefTrie:
    """The palindrome trie as nested dicts.  A node is a dict: an X gate's
    child node under its position code target << n | base, a leaf's pair
    (r, c) under a negative int unique within the trie."""

    root: dict
    n: int  # qubit count of the subcircuits
    leaves: int
    interior: int  # nodes other than the root and the leaves

    def counts(self) -> tuple[int, int]:
        """(leaf count, interior count), as recorded while building."""
        return self.leaves, self.interior


def ref_build_trie(n: int, subs) -> RefTrie:
    """One leaf per ``(prefix, pair)`` subcircuit of n qubits, inserted one
    by one: shared X-run prefixes share paths, children keyed by the X
    gates' position codes; leaves and interior nodes are counted as they
    are inserted."""
    root: dict = {}
    interior = 0
    pairs: set[tuple[int, int]] = set()
    for prefix, pair in subs:
        if pair in pairs:
            raise ValueError(f"duplicate subcircuit for pair {pair}")
        pairs.add(pair)
        node = root
        for key in prefix:
            child = node.get(key)
            if child is None:
                child = node[key] = {}
                interior += 1
            node = child
        node[-len(pairs)] = pair
    return RefTrie(root, n, len(pairs), interior)


# The recursive walks are module-level functions: a nested function that
# calls itself is a reference cycle, which would keep the trie alive until
# the cyclic garbage collector runs.
def _leaves(node: dict, out: list) -> list:
    for key, child in node.items():
        if key < 0:
            out.append(child)
        else:
            _leaves(child, out)
    return out


def dfs_order(t: RefTrie) -> list[tuple[int, int]]:
    """Leaf pairs in depth-first order; children visited in insertion order."""
    return _leaves(t.root, [])


def _run(node: dict, pos: dict, runs: list) -> tuple[int, int, int]:
    """(first, last, count) of the leaf positions under ``node``; appends
    each interior node's triple to ``runs``."""
    first, last, count = len(pos), -1, 0
    for key, child in node.items():
        if key < 0:
            lo = hi = pos[child]
            k = 1
        else:
            lo, hi, k = _run(child, pos, runs)
        first, last, count = min(first, lo), max(last, hi), count + k
    runs.append((first, last, count))
    return first, last, count


def mos_check(t: RefTrie, seq) -> bool:
    """True iff ``seq`` is a maximal overlap sequence for the trie.

    Characterization: the leaves under every trie node fill one contiguous
    run of positions in the sequence; siblings may appear in any order.
    One post-order walk finds each node's (first, last, count) of leaf
    positions.  Positions are distinct, so a run with last - first >= count
    has a gap.
    """
    pos = {leaf: i for i, leaf in enumerate(seq)}
    if len(pos) != len(seq) or pos.keys() != set(dfs_order(t)):
        raise ValueError("sequence is not a permutation of the trie's leaves")
    runs: list[tuple[int, int, int]] = []
    _run(t.root, pos, runs)
    return all(last - first < count for first, last, count in runs)


def _dump(node: dict, n: int, indent: str, lines: list[str], labels: dict) -> list[str]:
    for key, child in node.items():
        if key < 0:  # the pair (r, c) as its repr, rendered from its two ints
            pair = "(%d, %d)" % child
            lines.append(f"{indent}V{pair} [leaf {pair}]\n")
            continue
        label = labels.get(key)
        if label is None:  # each distinct X gate's text is rendered once
            label = labels[key] = "X " + position_text(key, n) + "\n"
        lines.append(indent + label)
        _dump(child, n, indent + "  ", lines, labels)
    return lines


def ref_dump_trie(t: RefTrie) -> str:
    """Indented one-node-per-line rendering of the dict trie, by a
    recursive walk."""
    return "".join(_dump(t.root, t.n, "", [], {}))


def trie_order(t) -> list[tuple[int, int]]:
    """The leaf pairs of the library's trie, in its depth-first order."""
    return list(zip(t.rows.tolist(), t.cols.tolist()))


def subcircuit_tuples(x: np.ndarray, rows: np.ndarray, cols: np.ndarray) -> list:
    """The grid :func:`~palinopt.palindrome.build_trie` takes as
    ``(prefix, pair)`` tuples, the prefix as the X run's position codes up
    to the column's first -1."""
    columns = zip(x.T.tolist(), rows.tolist(), cols.tolist())
    return [(tuple(run[: run.index(-1)]), (r, c)) for run, r, c in columns]


def subcircuit_arrays(n: int, tuples: Iterable[tuple[Sequence[int], tuple[int, int]]]) -> tuple:
    """``(prefix, pair)`` subcircuits as the grid
    :func:`~palinopt.palindrome.build_trie` takes, ``(x, rows, cols)``, the
    inverse of :func:`subcircuit_tuples`."""
    prefixes, rows, cols = [], [], []
    for prefix, (r, c) in tuples:
        prefixes.append(prefix)
        rows.append(r)
        cols.append(c)
    rows, cols = _code_arrays(n, rows, cols)
    x = np.full((max(map(len, prefixes), default=0) + 1, len(prefixes)), -1, rows.dtype)
    for j, prefix in enumerate(prefixes):
        x[: len(prefix), j] = prefix
    return x, rows, cols


def trie_grid(p: GrayPairs) -> tuple:
    """The grid :func:`~palinopt.palindrome.build_trie` takes of the pairs
    ``p``: their X runs, rows and cols."""
    return p.runs(), p.rows, p.cols


def order_from_columns(n: int, columns) -> OrderArray:
    """The order whose column c eliminates the rows ``columns[c]`` in turn,
    whether or not that is a valid order."""
    rows = [r for column in columns for r in column]
    cols = [c for c, column in enumerate(columns) for _ in column]
    return OrderArray(n, np.array(rows, dtype=np.intp), np.array(cols, dtype=np.intp))


def ref_conventional_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """The conventional order as a tuple of column tuples: column c is
    c+1, ..., 2^n - 1."""
    dim = 1 << n
    return tuple(tuple(range(c + 1, dim)) for c in range(dim - 1))


def ref_poa_columns(n: int) -> tuple[tuple[int, ...], ...]:
    """The palindromic order as a tuple of column tuples, by the paper's
    level doubling over Python ints: column c of level m-1 spawns the
    columns (2r..., 2c+1, 2r+1...) and (2r..., 2r+1...) of level m, and the
    last column is (2^m - 1,)."""
    cols: list[tuple[int, ...]] = [(1, 2, 3), (2, 3), (3,)]
    for m in range(3, n + 1):
        prev = cols
        cols = []
        for c in range((1 << (m - 1)) - 1):
            doubled = [2 * r for r in prev[c]]
            plus_one = [r + 1 for r in doubled]
            cols.append((*doubled, 2 * c + 1, *plus_one))
            cols.append((*doubled, *plus_one))
        cols.append(((1 << m) - 1,))
    return tuple(cols)


def ref_save_order(n: int, columns) -> str:
    """The order file of ``columns``, each row rendered by its own ``str``."""
    lines = [f"n={n}"]
    for c, rows in enumerate(columns):
        lines.append(f"{c}: " + " ".join(str(r) for r in rows))
    return "\n".join(lines) + "\n"


def poa_recurrence(n: int) -> int:
    """Palindromic-order size after cancellation, by the level-doubling
    recurrence, base 8 at n=2."""
    if n < 2:
        raise ValueError(f"qubit count must be >= 2, got {n}")
    val = 8
    for m in range(3, n + 1):
        half = 1 << (m - 1)
        val = 4 * (val + half - 2) + 5 * (half - 1) + 1 - 2 * (half - 1)
    return val


def dense_decompose(u: np.ndarray, order) -> list[TwoLevelMatrix]:
    """Two-level factors of ``u`` along ``order``, each elimination step
    applied as a full matrix product M_j @ m."""
    m = np.asarray(u, dtype=complex).copy()
    dim = m.shape[0]
    factors = []
    for c, rows in enumerate(order.columns):
        rows = rows.tolist()
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
    """Apply ``g`` to a 2^n amplitude vector, returning a new vector.  The
    states it acts on are read off its control pattern text."""
    dim = 1 << g.n
    if state.shape != (dim,):
        raise ValueError(f"state length {state.shape} does not match n={g.n}")
    i0 = int(g.pattern().replace("_", "0"), 2)
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


def cancel_pass_peephole(gates) -> list:
    """Delete adjacent equal X gate pairs from a gate sequence,
    rescanning until none remain."""
    gates = list(gates)
    changed = True
    while changed:
        changed = False
        i = 0
        while i + 1 < len(gates):
            a, b = gates[i], gates[i + 1]
            if a.is_x and b.is_x and a == b:
                del gates[i : i + 2]
                changed = True
                i = max(i - 1, 0)
            else:
                i += 1
    return gates


def ref_cancel_pass(c: Circuit) -> Circuit:
    """Stack scan over gate objects: push each gate, but pop instead when
    it is an X gate with the same (target, base) as an X gate on top."""
    stack: list[ControlledGate] = []
    for g in c.gates:
        if stack and g.is_x:
            top = stack[-1]
            if top.is_x and top.target == g.target and top.base == g.base:
                stack.pop()
                continue
        stack.append(g)
    return circuit_from_gates(c.n, stack)


def ref_circuit_to_matrix(c: Circuit) -> np.ndarray:
    """Row-tracking simulation over gate objects: an X gate swaps which
    row holds each of its basis states, a U gate updates its two rows by a
    fancy-indexed gather and scatter."""
    dim = 1 << c.n
    m = np.eye(dim, dtype=complex)
    row = list(range(dim))
    for g in c.gates:
        i0, i1 = g.basis_pair
        if g.is_x:
            row[i0], row[i1] = row[i1], row[i0]
        else:
            rows = [row[i0], row[i1]]
            m[rows] = g.op @ m[rows]
    return m[row]


def ref_inplace_circuit_to_matrix(c: Circuit) -> np.ndarray:
    """The library's row-tracking simulation with each U gate's product
    written straight into the strided view of its two rows, which numpy
    computes through a temporary copy of the operand."""
    n = c.n
    dim = 1 << n
    mask = dim - 1
    m = np.eye(dim, dtype=complex)
    row = list(range(dim))
    flipped = c.comps[:, ::-1, ::-1]
    for g in c.code.tolist():
        if g >= 0:
            i0 = g & mask
            i1 = i0 | 1 << (g >> n)
            row[i0], row[i1] = row[i1], row[i0]
        else:
            at = int(c.u_at[~g])
            i0 = at & mask
            a, b = row[i0], row[i0 | 1 << (at >> n)]
            if a < b:
                v = m[a : b + 1 : b - a]
                np.matmul(c.comps[~g], v, out=v)
            else:
                v = m[b : a + 1 : a - b]
                np.matmul(flipped[~g], v, out=v)
    return m[row]


def column_counts(n: int) -> list[int]:
    """Within-column cancelled gate counts for the palindromic ordering.

    Column c of one level spawns columns 2c (count doubled plus 3: a new
    branch plus a new leaf) and 2c+1 (doubled plus 2) of the next; the last
    two columns collapse to 1 and 0.  Base counts at n=2 are structural.
    The column sum exceeds the whole-circuit count by the boundary
    cancellations 2(2^{n-1} - 1).
    """
    if n < 2:
        raise ValueError(f"qubit count must be >= 2, got {n}")
    counts = [5, 4, 1, 0]  # n=2 columns 0..3 (column 3 is empty)
    for m in range(3, n + 1):
        prev = counts
        counts = []
        for c in range((1 << (m - 1)) - 1):
            counts.append(2 * prev[c] + 3)
            counts.append(2 * prev[c] + 2)
        counts.append(1)  # final nonempty column: single adjacent pair
        counts.append(0)
    return counts[:-1]


def intercolumn_cancellation(n: int, order: OrderArray) -> int:
    """Gates cancelled at column boundaries: the per-column cancelled counts
    sum to more than the whole-circuit cancelled count by exactly this."""
    per_column = sum(
        len(cancel_pass(identity_circuit(n, rows, [c] * len(rows))))
        for c, rows in enumerate(order.columns)
    )
    return per_column - count_structural(n, order, cancelled=True)


def total_overlap(subs) -> int:
    """Cancelling gates between consecutive subcircuits, summed."""
    return sum(overlap(a, b) for a, b in zip(subs, subs[1:]))


def trie_leaves(t) -> list:
    """Leaf pairs of a palindrome trie in depth-first order, children in
    insertion order: an explicit stack of child iterators over the node
    dicts, a leaf told by its negative key."""
    leaves = []
    stack = [iter(t.root.items())]
    while stack:
        for key, child in stack[-1]:
            if key < 0:
                leaves.append(child)
            else:
                stack.append(iter(child.items()))
                break
        else:
            stack.pop()
    return leaves


def _is_leaf(node) -> bool:
    return not isinstance(node, dict)  # a leaf is its pair


def _leaf_set(node) -> frozenset:
    if _is_leaf(node):
        return frozenset([node])
    acc: set = set()
    for child in node.values():
        acc |= _leaf_set(child)
    return frozenset(acc)


def ref_mos_check(t, seq) -> bool:
    """True iff ``seq`` is a maximal overlap sequence for the trie: at every
    node, the leaves of each child subtrie form one contiguous run of the
    node's chunk of the sequence, recursively.  Siblings may appear in any
    order."""
    all_leaves = _leaf_set(t.root)
    if len(seq) != len(all_leaves) or set(seq) != set(all_leaves):
        raise ValueError("sequence is not a permutation of the trie's leaves")

    def check(node, chunk) -> bool:
        if _is_leaf(node):
            return True
        owner = {}
        for child in node.values():
            for leaf in _leaf_set(child):
                owner[leaf] = child
        runs = []
        i = 0
        while i < len(chunk):
            child = owner[chunk[i]]
            j = i
            while j < len(chunk) and owner[chunk[j]] is child:
                j += 1
            runs.append((child, i, j))
            i = j
        seen = set()
        for child, i, j in runs:
            if id(child) in seen:
                return False
            seen.add(id(child))
            if j - i != len(_leaf_set(child)):
                return False
            if not check(child, chunk[i:j]):
                return False
        return True

    return check(t.root, list(seq))


@dataclass(frozen=True)
class RefGate:
    """A fully controlled gate that lists every control qubit's bit as
    sorted (qubit, bit) tuples; the library identifies it by ints."""

    n: int
    target: int
    controls: tuple[tuple[int, int], ...]
    op: Union[str, np.ndarray]

    def __post_init__(self) -> None:
        if not 0 <= self.target < self.n:
            raise ValueError(f"target {self.target} out of range for n={self.n}")
        expected = [q for q in range(self.n) if q != self.target]
        if [q for q, _ in self.controls] != expected:
            raise ValueError("controls must cover exactly the non-target qubits")

    @property
    def is_x(self) -> bool:
        return isinstance(self.op, str)

    def pattern(self) -> str:
        bits = dict(self.controls)
        return "".join(
            "_" if q == self.target else str(bits[q]) for q in range(self.n - 1, -1, -1)
        )


def ref_transition_gate(g: int, h: int, n: int, op) -> RefGate:
    """Gate flipping (or operating on) the single bit where g and h differ."""
    target = (g ^ h).bit_length() - 1
    controls = tuple((q, (g >> q) & 1) for q in range(n) if q != target)
    return RefGate(n=n, target=target, controls=controls, op=op)


def ref_subcircuit(r: int, c: int, n: int, comp) -> list[RefGate]:
    """X run along the Gray code from c to r, the component gate, mirror."""
    codes = gray_code(c, r, n)
    prefix = [ref_transition_gate(codes[j], codes[j + 1], n, "X") for j in range(len(codes) - 2)]
    middle = ref_transition_gate(codes[-2], codes[-1], n, comp)
    return prefix + [middle] + prefix[::-1]


def ref_construct(d) -> list[RefGate]:
    """The decomposition's subcircuits in reverse factor order."""
    return [g for v in reversed(d.factors) for g in ref_subcircuit(v.row, v.col, d.n, v.comp)]


def ref_write(n: int, gates) -> str:
    """Circuit file text, every line rendered from its gate alone."""
    lines = [f"n={n} gates={len(gates)}"]
    for g in gates:
        if g.is_x:
            lines.append(f"X t={g.target} c={g.pattern()}")
        else:
            m = ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in np.asarray(g.op).flat)
            lines.append(f"U t={g.target} c={g.pattern()} m={m}")
    return "\n".join(lines) + "\n"


def ref_read_circuit(text: str) -> Circuit:
    """Circuit file parser that runs the full field parse on every line not
    seen before as an X line (the reader's U-line head cache left out)."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("circuit file must start with 'n=<int> gates=<int>'")
    head = _parse_fields(lines[0].split())
    try:
        n = int(head["n"])
        count = int(head["gates"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad header: {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"bad header: {lines[0]!r}")
    if len(lines) - 1 != count:
        raise ValueError(f"header says {count} gates, file has {len(lines) - 1}")
    positions: dict[tuple[str, str], int] = {}
    x_codes: dict[str, int] = {}
    code: list[int] = []
    u_at: list[int] = []
    blocks: list[np.ndarray] = []
    fields: list[str] = []
    u_lines: list[str] = []
    for line in lines[1:]:
        g = x_codes.get(line)
        if g is None:
            kind, *tokens = line.split()
            if kind not in ("X", "U"):
                raise ValueError(f"unknown gate line {line!r}")
            f = _parse_fields(tokens)
            for key in ("t", "c", "m") if kind == "U" else ("t", "c"):
                if key not in f:
                    raise ValueError(f"missing field {key}=: {line!r}")
            at = (f["t"], f["c"])
            g = positions.get(at)
            if g is None:
                g = positions[at] = _parse_position(*at, n, line)
            if kind == "X":
                x_codes[line] = g
            else:
                m = f["m"]
                if m.count(";") != 3:
                    raise ValueError(f"component matrix needs 4 entries: {line!r}")
                u_at.append(g)
                fields.append(m)
                u_lines.append(line)
                if 8 * len(fields) == _PARSE_BUDGET:
                    blocks.append(_components(fields, u_lines))
                    fields, u_lines = [], []
                g = ~(len(u_at) - 1)
        code.append(g)
    blocks.append(_components(fields, u_lines))
    return array_circuit(n, code, u_at, np.concatenate(blocks))
