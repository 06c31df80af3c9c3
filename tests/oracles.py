"""Reference implementations the tests check the library against.

They compute the same things as the library in the most direct way: the
decomposition by full dim x dim elimination products, a circuit's unitary
by pushing every basis column through every gate, one amplitude pair at a
time, cancellation by repeated peephole deletion, circuit construction
with gates that name each control qubit's bit explicitly, and the maximal
overlap test by recursive runs of leaf sets.  The library runs its stack
cancellation, row-tracking simulator, subcircuit split and trie on integer
gate codes; the same algorithms over gate objects are kept here as
references, and so is the circuit reader without its U-line head cache.
The small matrix helpers, per-column counts, subcircuit overlaps, the
decomposition's progress check and the builders of circuits from gate
objects and of factor pair lists, which the library does not need, live
here as well.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Union

import numpy as np

from palinopt.decompose import Decomposition
from palinopt.linalg import RECONSTRUCT_TOL, ZERO_TOL, TwoLevelMatrix
from palinopt.optimize import cancel_pass, count_structural, structural_circuit
from palinopt.ordering import OrderArray
from palinopt.synth import (
    _BLOCK,
    Circuit,
    ControlledGate,
    _components,
    _parse_fields,
    _parse_position,
    gray_circuit,
    gray_code,
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


def circuit_from_gates(n: int, gates) -> Circuit:
    """The circuit of gate objects ``gates`` in application order."""
    x_codes: dict[int, int] = {}
    code, u_at, ops = [], [], []
    for g in gates:
        if g.n != n:
            raise ValueError(f"gate for n={g.n} in a circuit for n={n}")
        at = g.target << n | g.base
        if g.is_x:
            code.append(x_codes.setdefault(at, at))
        else:
            code.append(~len(u_at))
            u_at.append(at)
            ops.append(g.op)
    return Circuit(n, code, u_at, np.array(ops, dtype=complex).reshape(-1, 2, 2))


def factor_pairs(d: Decomposition) -> tuple[tuple[int, int], ...]:
    """The (row, col) pair of every factor, in factor order."""
    return tuple(zip(d.rows.tolist(), d.cols.tolist()))


def progress_invariant_check(m: np.ndarray, c: int) -> bool:
    """After processing columns 0..c the working matrix must agree with the
    identity on those columns (and, by unitarity, rows)."""
    dim = m.shape[0]
    eye = np.eye(dim, dtype=complex)
    return bool(np.max(np.abs(m[:, : c + 1] - eye[:, : c + 1])) < RECONSTRUCT_TOL)


def subcircuit_for_pair(r: int, c: int, n: int) -> tuple[tuple[int, ...], tuple[int, int]]:
    """The palindromic subcircuit ``(prefix, pair)`` for ordering pair
    (r, c), its X run cut out of the library's circuit construction of that
    one pair."""
    gray_code(c, r, n)  # checks the endpoints
    circuit = gray_circuit(n, [(r, c)])
    return tuple(circuit.code[: len(circuit) // 2]), (r, c)


def subcircuits_circuit(n: int, subs, comps=None, middles=None) -> Circuit:
    """The circuit of ``(prefix, pair)`` subcircuits in order: each X run,
    its component gate and the X run mirrored.  Subcircuit j's component
    gate is at position code ``middles[j]``, by default the one of its
    pair's Gray walk, with component ``comps[j]``, by default the
    identity."""
    if middles is None:
        middles = gray_circuit(n, [pair for _, pair in subs]).u_at
    code: list[int] = []
    u_at = list(middles)
    for j, (prefix, _) in enumerate(subs):
        code += [*prefix, ~j, *prefix[::-1]]
    if comps is None:
        comps = np.broadcast_to(np.eye(2, dtype=complex), (len(u_at), 2, 2))
    return Circuit(n, code, u_at, np.asarray(comps, dtype=complex).reshape(-1, 2, 2))


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


def dense_decompose(u: np.ndarray, order) -> list[TwoLevelMatrix]:
    """Two-level factors of ``u`` along ``order``, each elimination step
    applied as a full matrix product M_j @ m."""
    m = np.asarray(u, dtype=complex).copy()
    dim = m.shape[0]
    factors = []
    for c, rows in enumerate(order.columns):
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
        len(cancel_pass(structural_circuit(n, ((r, c) for r in rows))))
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
                if len(fields) == _BLOCK:
                    blocks.append(_components(fields, u_lines))
                    fields, u_lines = [], []
                g = ~(len(u_at) - 1)
        code.append(g)
    blocks.append(_components(fields, u_lines))
    return Circuit(n, code, u_at, np.concatenate(blocks))
