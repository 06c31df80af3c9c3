"""Gray-code construction of controlled single-qubit circuits.

Each two-level factor acting on basis states |c> and |r> becomes a
palindromic subcircuit: a run of fully controlled X gates walking a Gray
code from c toward r, one fully controlled gate carrying the 2x2 component
matrix, and the X run mirrored to undo the state changes.

A fully controlled gate acts on one pair of basis states that differ in
its target bit, so it is identified by two integers: ``target`` and
``base``, the lower state of the pair (target bit cleared; its other bits
are the control values).  Its position code is ``target << n | base``.

A :class:`Circuit` holds integer codes, not gate objects.  ``code`` has
one code per gate in application order: an X gate is its position code
(>= 0), and the j-th component gate is ``~j`` (< 0).  ``u_at[j]`` is that
gate's position code and ``comps[j]`` its 2x2 component matrix, rows of a
``(k, 2, 2)`` array.  ``code`` and ``u_at`` are read-only int64 arrays, so
a :class:`Circuit`, a :class:`GrayPairs` or a circuit file's header with n
past ``ARRAY_MAX_N`` = 57 is a ``ValueError``.  Construction, cancellation,
the file text, splitting into subcircuits and simulation work on the codes;
``Circuit.gates`` builds :class:`ControlledGate` objects on first access.

:func:`gray_circuit` builds the codes of the pairs per block of
``_PAIR_BLOCK`` pairs.  Each X run follows from its pair alone, so an
uncancelled circuit's structure is its pairs, a :class:`GrayPairs`, which
counts its gates before and after cancellation and lays out its X runs
without building it; :func:`split_subcircuits` recovers them from a
circuit.  :func:`write_circuit` renders the circuit file per block of
``_BLOCK`` gates and :func:`read_circuit` reads it per ``_CHUNK``
characters, so neither holds a list of all its lines.

Qubit 0 is the least significant bit of a basis-state index; the control
pattern strings render qubit n-1 leftmost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterator, TextIO, Union

import numpy as np

from .decompose import Decomposition
from .linalg import _PARSE_BUDGET, RECONSTRUCT_TOL, UNITARY_TOL, is_unitary_entries, parse_floats


def _pattern(n: int, target: int, base: int) -> str:
    bits = bin(base | 1 << n)  # "0b1", then the base's n bits
    slot = n + 2 - target  # the target bit's index in bits
    return bits[3:slot] + "_" + bits[slot + 1 :]


def position_text(at: int, n: int) -> str:
    """``t=<target> c=<pattern>`` of position code ``at``."""
    target = at >> n
    return f"t={target} c={_pattern(n, target, at & ((1 << n) - 1))}"


class ControlledGate:
    """A gate on ``target`` conditioned on every other qubit's bit value.

    ``base`` is the basis index of the states the gate acts on with the
    target bit cleared: the gate acts on the pair ``(base, base | 1 <<
    target)``, and the other bits of ``base`` are the control values.
    ``op`` is the string "X" for a controlled bit flip, otherwise a 2x2
    unitary.  Gates are immutable, so equal X gates may share one object.
    """

    __slots__ = ("n", "target", "base", "op", "is_x")

    def __init__(self, n: int, target: int, base: int, op: Union[str, np.ndarray]) -> None:
        if not 0 <= target < n:
            raise ValueError(f"target {target} out of range for n={n}")
        if not 0 <= base < 1 << n:
            raise ValueError(f"base {base} out of range for n={n}")
        if base >> target & 1:
            raise ValueError(f"base {base} has the target bit {target} set")
        is_x = isinstance(op, str)
        if is_x:
            if op != "X":
                raise ValueError(f"unknown gate symbol {op!r}")
        else:
            op = np.asarray(op, dtype=complex)
            if op.shape != (2, 2):
                raise ValueError(f"component matrix must be 2x2, got shape {op.shape}")
        _set = object.__setattr__
        _set(self, "n", n)
        _set(self, "target", target)
        _set(self, "base", base)
        _set(self, "op", op)
        _set(self, "is_x", is_x)

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"ControlledGate is immutable; cannot set {name!r}")

    @property
    def basis_pair(self) -> tuple[int, int]:
        """Basis states (target bit 0, target bit 1) on which the gate acts."""
        return (self.base, self.base | 1 << self.target)

    def pattern(self) -> str:
        """Control pattern with qubit n-1 leftmost and ``_`` at the target."""
        return _pattern(self.n, self.target, self.base)

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ControlledGate):
            return NotImplemented
        if (self.n, self.target, self.base) != (other.n, other.target, other.base):
            return False
        if self.is_x or other.is_x:
            return self.is_x and other.is_x
        return bool(np.array_equal(self.op, other.op))

    def __hash__(self) -> int:
        return hash((self.n, self.target, self.base, self.is_x))

    def __repr__(self) -> str:
        op = "'X'" if self.is_x else np.array2string(self.op, separator=", ")
        return f"ControlledGate(n={self.n}, target={self.target}, base={self.base}, op={op})"


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gates as integer codes; see the module docstring.  A circuit may
    hold another's arrays (``cancel_pass`` keeps ``u_at`` and ``comps``),
    so ``code`` and ``u_at`` are made read-only."""

    n: int
    code: np.ndarray
    u_at: np.ndarray
    comps: np.ndarray

    def __post_init__(self) -> None:
        _check_width(self.n)
        if self.comps.shape != (len(self.u_at), 2, 2):
            raise ValueError(f"need ({len(self.u_at)}, 2, 2) components, got {self.comps.shape}")
        self.code.setflags(write=False)
        self.u_at.setflags(write=False)

    def __len__(self) -> int:
        return len(self.code)

    @functools.cached_property
    def gates(self) -> tuple[ControlledGate, ...]:
        """One :class:`ControlledGate` per gate; equal X gates share one."""
        n, mask = self.n, (1 << self.n) - 1
        x_gates: dict[int, ControlledGate] = {}
        gates = []
        u_at = self.u_at.tolist()
        for g in self.code.tolist():
            if g >= 0:
                gate = x_gates.get(g)
                if gate is None:
                    gate = x_gates[g] = ControlledGate(n, g >> n, g & mask, "X")
            else:
                at = u_at[~g]
                gate = ControlledGate(n, at >> n, at & mask, self.comps[~g])
            gates.append(gate)
        return tuple(gates)


def gray_code(c: int, r: int, n: int) -> tuple[int, ...]:
    """Gray code from c to r, flipping the rightmost differing bit each step.

    Bit flips therefore occur in increasing significance 2^0, 2^1, ...; the
    sequence has at most n+1 codes.
    """
    if n < 1:
        raise ValueError(f"qubit count must be >= 1, got {n}")
    if c == r:
        raise ValueError("endpoints must differ")
    if not (0 <= c < (1 << n) and 0 <= r < (1 << n)):
        raise ValueError(f"indices ({c}, {r}) out of range for n={n}")
    codes = [c]
    g = c
    while g != r:
        diff = g ^ r
        g ^= diff & -diff  # flip lowest differing bit
        codes.append(g)
    return tuple(codes)


# Pairs per block of the array builder.  Its largest temporary, the grid,
# is (2n - 1) x 2048 x 8 B = 240 kB at n=8, and a block's traced peak
# (tracemalloc) is 621 kB at n=8 and 836 kB at n=11.
_PAIR_BLOCK = 2048
# Largest n of a circuit: the largest whose position codes, below n << n, fit int64.
ARRAY_MAX_N = 57


def _check_width(n: int) -> None:
    if n > ARRAY_MAX_N:
        raise ValueError(f"circuits have at most n={ARRAY_MAX_N} qubits, got n={n}")


def _gray_rows(n: int, r: np.ndarray, c: np.ndarray) -> tuple[np.ndarray, ...]:
    """The Gray walks of the pairs (r, c) as ``(n - 1, pairs)`` arrays, one
    row per bit b < n - 1: ``above``, a higher bit than b differs; ``flips``,
    the X run flips bit b; and ``x``, the code of that X gate.

    With diff = r ^ c, a pair's X run has one gate per set bit b of diff
    below its highest bit h, in rising b.  That gate acts on the state
    c ^ (diff & (2^b - 1)), the lower bits already flipped, so its code is
    b << n | (c ^ (diff & (2^b - 1))) & ~2^b.
    """
    b = np.arange(n - 1, dtype=r.dtype)[:, None]
    bits = 1 << b
    diff = r ^ c
    above = diff >= bits << 1
    flips = (diff & bits).astype(bool)
    flips &= above
    x = diff & bits - 1
    x ^= c
    x &= ~bits
    x |= b << n
    return above, flips, x


def _gray_blocks(n: int, rows: np.ndarray, cols: np.ndarray) -> Iterator[tuple]:
    """Per block of ``_PAIR_BLOCK`` pairs: the slices of the block's pairs
    and gates, and its ``code`` and ``u_at`` as int64 arrays, U gate j as
    ``~j`` counting from the first pair.

    The block is one ``(2n - 1, pairs)`` grid, a column per pair read
    A U A^R: the X codes of :func:`_gray_rows` by rising bit, the U codes,
    and the X codes reversed, under the mask ``flips``, all true, ``flips``
    reversed; ``code`` is the masked grid read column by column.  The
    component gate flips the highest bit h in which r and c differ, at
    base r & ~2^h.
    """
    done = 0
    for first in range(0, len(rows), _PAIR_BLOCK):
        r, c = rows[first : first + _PAIR_BLOCK], cols[first : first + _PAIR_BLOCK]
        above, flips, x = _gray_rows(n, r, c)
        u = np.arange(~first, ~first - len(r), -1)[None]
        grid = np.concatenate((x, u, x[::-1]))
        mask = np.concatenate((flips, np.ones(u.shape, bool), flips[::-1]))
        code = grid.T[mask.T]
        top = above.sum(axis=0)  # h
        pairs, gates = slice(first, first + len(r)), slice(done, done + len(code))
        yield pairs, gates, code, top << n | r & ~(1 << top)
        done = gates.stop


def _fresh(a: np.ndarray) -> np.ndarray:
    """True where column i of ``a`` differs from column i - 1 in this row
    or one above it; all of column 0.  With a column per X run and a row
    per gate, false marks the gates run i shares with run i - 1: their
    common prefix, which the Palindrome Transform cancels."""
    fresh = np.ones(a.shape, bool)
    np.not_equal(a[:, 1:], a[:, :-1], out=fresh[:, 1:])
    for d in range(1, len(fresh)):  # a row loop: numpy's accumulate along axis 0 is slower
        fresh[d] |= fresh[d - 1]
    return fresh


class GrayPairs:
    """The circuit :func:`gray_circuit` builds of the pairs (``rows[j]``,
    ``cols[j]``), held as the pairs: ``len`` is its gate count,
    :meth:`cancelled_len` the count :func:`~palinopt.optimize.cancel_pass`
    leaves of it, both counted without building it, and :meth:`runs` its X
    runs.  n past ``ARRAY_MAX_N``, arrays of different lengths, or a pair
    of equal states or of a state outside [0, 2^n), are a ``ValueError``.
    """

    __slots__ = ("n", "rows", "cols", "__weakref__")

    def __init__(self, n: int, rows, cols) -> None:
        _check_width(n)
        rows, cols = np.asarray(rows, np.int64), np.asarray(cols, np.int64)
        if rows.ndim != 1 or cols.shape != rows.shape:
            raise ValueError(f"need rows and cols of one length, got shapes {rows.shape}, {cols.shape}")
        bad = np.flatnonzero((rows == cols) | ((rows | cols) >> n != 0))
        if len(bad):
            r, c = rows[bad[0]], cols[bad[0]]
            raise ValueError(f"pair ({r}, {c}) is not two distinct states of {n} qubits")
        self.n, self.rows, self.cols = n, rows, cols

    def __len__(self) -> int:
        """Gates of the pairs' subcircuits, 2 popcount(r ^ c) - 1 each."""
        diff = self.rows ^ self.cols
        return 2 * sum(np.count_nonzero(diff & 1 << b) for b in range(self.n)) - len(diff)

    def cancelled_len(self) -> int:
        """The gate count after cancellation.

        Subcircuit j is the X run A_j, its component gate and A_j
        mirrored, so at the boundary to subcircuit j + 1 the scan cancels
        the longest common prefix of A_j and A_{j+1}, and no further: every
        component gate is distinct.  Both runs are in rising bit order, so
        that prefix is the run of bits b, from 0, where both runs flip b
        with one code or neither flips it; its length counts the bits of
        that run that A_j flips.  Each block of ``_PAIR_BLOCK`` boundaries
        reads one pair past its end, the first pair of the next block.
        """
        n, rows, cols = self.n, self.rows, self.cols
        overlap = 0
        for first in range(0, len(rows) - 1, _PAIR_BLOCK):
            stop = first + _PAIR_BLOCK + 1
            _, flips, x = _gray_rows(n, rows[first:stop], cols[first:stop])
            shared = ~_fresh(np.where(flips, x, -1))[:, 1:]  # by the X gate at bit b, or none
            overlap += int(np.count_nonzero(shared & flips[:, :-1]))
        return len(self) - 2 * overlap

    def runs(self) -> np.ndarray:
        """The X runs as a ``(longest run + 1, pairs)`` grid: column j is
        pair j's run as :func:`gray_circuit` lays it out, then -1 down to a
        last row of -1.  The rows of :func:`_gray_rows` are walked by
        rising bit, each writing its X codes at every pair's running rank,
        -1 where the run does not flip the bit, and the rank moving on
        where it does: a -1 lands only in a cell that stays -1 or is
        written by a later flip."""
        n, rows, cols = self.n, self.rows, self.cols
        grid = np.full((n, len(rows)), -1, np.int64)  # a run has at most n - 1 gates
        longest = 0
        for first in range(0, len(rows), _PAIR_BLOCK):
            _, flips, x = _gray_rows(n, rows[first : first + _PAIR_BLOCK], cols[first : first + _PAIR_BLOCK])
            x[~flips] = -1
            at = np.arange(first, first + flips.shape[1])
            rank = np.zeros(len(at), np.intp)
            for b in range(n - 1):
                grid[rank, at] = x[b]
                rank += flips[b]
            longest = max(longest, rank.max())
        return grid[: longest + 1]


def gray_circuit(n: int, rows, cols, comps: np.ndarray) -> Circuit:
    """Concatenate the palindromic subcircuits of the pairs (``rows[j]``,
    ``cols[j]``), in order.  Pair j's component gate is U gate j, with
    component ``comps[j]``.  A pair of equal states, or of a state outside
    [0, 2^n), is a ``ValueError``.

    The codes are built by :func:`_gray_blocks` into two arrays made at
    their full length and filled in place: grown block by block, they
    would be moved past each block's temporaries and fragment the heap.
    """
    held = GrayPairs(n, rows, cols)
    code, u_at = np.empty(len(held), np.int64), np.empty_like(held.rows)
    for pairs, gates, block_code, block_u in _gray_blocks(n, held.rows, held.cols):
        code[gates], u_at[pairs] = block_code, block_u
    return Circuit(n, code, u_at, comps)


_SKIP_SHARE = 0.1  # the share of RECONSTRUCT_TOL that skip_identity may use up


def construct_circuit(d: Decomposition, skip_identity: bool = False) -> Circuit:
    """Assemble the full circuit from the decomposition's subcircuits.

    The factor product V_1 V_2 ... V_k applies V_k to a state first, so the
    gate sequence (application order) holds the subcircuits in reverse
    factor order; a diagram drawn left to right then shows V_1 rightmost.
    ``skip_identity`` drops subcircuits whose component is the identity
    within ``UNITARY_TOL`` per entry, nearest first, while the sum of their
    ‖comp - I‖_F, which bounds how far dropping these unitary factors moves
    the circuit's unitary, stays below ``_SKIP_SHARE * RECONSTRUCT_TOL``.
    It is off by default so gate counts stay structural.
    """
    rows, cols, comps = d.rows[::-1], d.cols[::-1], d.comps[::-1]
    if skip_identity:
        off = comps - np.eye(2)
        cost = np.where(np.abs(off).max(axis=(1, 2)) < UNITARY_TOL, np.linalg.norm(off, axis=(1, 2)), np.inf)
        nearest = np.argsort(cost, kind="stable")
        keep = (np.cumsum(cost[nearest]) >= _SKIP_SHARE * RECONSTRUCT_TOL)[np.argsort(nearest)]
        rows, cols, comps = rows[keep], cols[keep], comps[keep]
    return gray_circuit(d.n, rows, cols, comps)


def split_subcircuits(c: Circuit) -> GrayPairs:
    """Recover the pairs of an uncancelled circuit's palindromic
    subcircuits, in gate order.

    The inverse of :func:`gray_circuit`, on arrays.  The component gates
    are the negative codes, at p_0 < p_1 < ...; subcircuit j is k_j X
    gates, its component gate and their mirror, so k_0 = p_0 and k_j =
    p_j - p_{j-1} - 1 - k_{j-1}.  Subcircuit j's component gate acts at
    ``u_at[~code[p_j]]``, and r is that base with the target bit set.  The
    run's first X gate flips the lowest bit in which c and r differ, so c
    is that gate's base with the bit set where r has it clear; for an empty
    run the component gate takes its place (r has its bit set), which
    gives c as its base.  The circuit rebuilt from the pairs must equal the
    one given, its component gates numbered in gate order: cancelled
    circuits no longer have this shape and are rejected with the first
    fault in gate order.  A circuit with no gates has no pairs.
    """
    n, codes, u_at = c.n, c.code.copy(), c.u_at
    at = np.flatnonzero(codes < 0)  # p_j
    # k_j = g_j - k_{j-1} with the gaps g_j = p_j - p_{j-1} - 1 (p_{-1} =
    # -1), so (-1)^j k_j is the running sum of (-1)^i g_i.
    sign = 1 - 2 * (np.arange(len(at)) & 1)
    k = np.cumsum((np.diff(at, prepend=-1) - 1) * sign) * sign
    if len(codes) and (not len(at) or (k < 0).any() or at[-1] + k[-1] + 1 != len(codes)):
        raise _first_fault(c)
    mask = (1 << n) - 1
    middle = u_at[~codes[at]]
    rows = middle & mask | 1 << (middle >> n)
    first = np.where(k > 0, codes[at - k], middle)
    cols = first & mask | 1 << (first >> n) & ~rows
    codes[at] = ~np.arange(len(at))
    for pairs, gates, block_code, block_u in _gray_blocks(n, rows, cols):
        if not (np.array_equal(block_code, codes[gates]) and np.array_equal(block_u, middle[pairs])):
            raise _first_fault(c)
    return GrayPairs(n, rows, cols)


def _first_fault(c: Circuit) -> ValueError:
    """The first fault in gate order of a circuit the split rejects: each
    subcircuit must be an X run, its component gate and the run mirrored,
    and the run the Gray walk of the pair whose c is the component gate's
    base with the run's flips undone."""
    n, code, u_at = c.n, c.code.tolist(), c.u_at.tolist()
    mask = (1 << n) - 1
    i = 0
    while True:
        start = i
        while i < len(code) and code[i] >= 0:
            i += 1
        if i == len(code):
            return ValueError("trailing X gates with no component gate")
        prefix, middle, end = code[start:i], u_at[~code[i]], 2 * i + 1 - start
        if code[end - 1 : i : -1] != prefix:
            return ValueError("gate sequence is not palindromic; was this circuit cancelled?")
        r, flipped = middle & mask | 1 << (middle >> n), middle & mask
        for x in prefix:
            flipped ^= 1 << (x >> n)
        _, flips, walk = _gray_rows(n, np.array([r]), np.array([flipped]))
        if walk[flips].tolist() != prefix:
            return ValueError(f"X run is not the Gray walk of pair {(r, flipped)}")
        i = end


# Gates per block of the circuit file's writer.
_BLOCK = 1024


def _u_lines(at: dict[int, str], u_at: np.ndarray, comps: np.ndarray) -> list[str]:
    """The U lines of the components ``comps`` at positions ``u_at``, the
    floats (real and imaginary parts, row-major) formatted by one ``repr``
    of a list.  A component in Givens form, ``[[a, conj(c)], [c,
    -conj(a)]]`` bit for bit (each eliminating step of ``decompose``), has
    only a and c formatted: b and d take those strings, copied or with the
    sign flipped, which is exact for every float; a NaN keeps its string,
    as ``repr(-nan)`` is ``'nan'``."""
    bits = comps.reshape(-1).view(np.int64).reshape(-1, 8)
    floats = bits.view(float)
    sign = np.int64(-1 << 63)
    givens = (bits[:, 6] == bits[:, 0] ^ sign) & (bits[:, 7] == bits[:, 1])  # d = -conj(a)
    givens &= (bits[:, 2] == bits[:, 4]) & (bits[:, 3] == bits[:, 5] ^ sign)
    free = floats.reshape(-1, 4, 2)[givens, ::2].reshape(-1).tolist()  # a and c
    block = repr(free + floats[~givens].reshape(-1).tolist())[1:-1].split(", ")
    ar, ai, cr, ci = (block[k : len(free) : 4] for k in range(4))
    neg_ar, neg_ci = ([s[1:] if s[0] == "-" else s if s == "nan" else "-" + s for s in x] for x in (ar, ci))
    givens_rows = zip(ar, ai, cr, neg_ci, cr, ci, neg_ar, ai)
    other_rows = zip(*[iter(block[len(free) :])] * 8)
    return [
        "U %s m=%s,%s;%s,%s;%s,%s;%s,%s" % (at[p], *(next(givens_rows) if g else next(other_rows)))
        for p, g in zip(u_at.tolist(), givens.tolist())
    ]


def write_circuit(c: Circuit) -> str:
    """Circuit file text, rendered and joined per block of ``_BLOCK``
    gates, so that no list of all lines, nor of all U lines, is held.  A
    block's lines are those of its distinct codes, one ``np.unique``: the
    U codes ``~j`` first, whose lines :func:`_u_lines` renders from
    ``comps[j]``, in whatever order and multiplicity they occur, then the
    X codes.  Each position's ``t=.. c=..`` text is rendered once."""
    n, code = c.n, c.code
    at: dict[int, str] = {}  # the text of each position met so far
    blocks = [f"n={n} gates={len(code)}"]
    for start in range(0, len(code), _BLOCK):
        distinct, line_of = np.unique(code[start : start + _BLOCK], return_inverse=True)
        split = np.count_nonzero(distinct < 0)
        j = ~distinct[:split]
        u_at, x_at = c.u_at[j], distinct[split:].tolist()
        for p in {*u_at.tolist(), *x_at} - at.keys():
            at[p] = position_text(p, n)
        lines = _u_lines(at, u_at, c.comps[j]) + ["X " + at[p] for p in x_at]
        blocks.append("\n".join(np.array(lines, object)[line_of].tolist()))
    blocks.append("")
    return "\n".join(blocks)


def _parse_fields(tokens: list[str]) -> dict[str, str]:
    fields = {}
    for tok in tokens:
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def _parse_position(t: str, pattern: str, n: int, line: str) -> int:
    """Position code of a gate line's ``t=`` and ``c=`` fields."""
    target = int(t)
    if not 0 <= target < n:
        raise ValueError(f"target {target} out of range for n={n}: {line!r}")
    if len(pattern) != n:
        raise ValueError(f"pattern length {len(pattern)} != n={n}: {line!r}")
    slot = n - 1 - target
    for pos, ch in enumerate(pattern):
        if ch == "_":
            if pos != slot:
                raise ValueError(f"'_' not at target position: {line!r}")
        elif ch not in "01":
            raise ValueError(f"bad pattern character {ch!r}: {line!r}")
    if pattern[slot] != "_":
        raise ValueError(f"no '_' at target position: {line!r}")
    return target << n | int(pattern[:slot] + "0" + pattern[slot + 1 :], 2)


# Every byte but those of "," and ";", which are one byte in UTF-8, a byte
# no other character's encoding holds.
_NOT_SEPARATOR = bytes(b for b in range(256) if b not in b",;")


def _components(fields: list[str], lines: list[str]) -> np.ndarray:
    """The ``(k, 2, 2)`` components of the ``m=`` fields of k U lines,
    each field holding four ``;``-separated entries.

    The entries are checked as ``re,im`` pairs at once, their numbers
    converted by one numpy call, and the matrices tested for finiteness
    and unitarity at once; an error names the first line at fault.
    """
    if not fields:
        return np.empty((0, 2, 2), dtype=complex)
    joined = ";".join(fields)
    # exactly one comma in each entry: the separators alternate ",;" from a comma
    seps = joined.encode("utf-8", "surrogatepass").translate(None, _NOT_SEPARATOR)
    if seps != (b",;" * (4 * len(fields)))[:-1]:
        for m, line in zip(fields, lines):
            if any(e.count(",") != 1 for e in m.split(";")):
                raise ValueError(f"component entries must be re,im pairs: {line!r}")
    numbers = joined.replace(";", ",").split(",")
    values = parse_floats(
        numbers, lambda k, s: f"bad number {s!r} in component matrix: {lines[k // 8]!r}"
    )
    comps = values.view(complex).reshape(-1, 2, 2)
    finite = np.isfinite(values).reshape(-1, 8).all(axis=1)
    unitary = is_unitary_entries(*comps.reshape(-1, 4).T)
    bad = np.flatnonzero(~(finite & unitary))
    if len(bad):
        line = lines[bad[0]]
        if not finite[bad[0]]:
            raise ValueError(f"component matrix has non-finite entries: {line!r}")
        raise ValueError(f"component matrix is not unitary within {UNITARY_TOL}: {line!r}")
    return comps


def _parse_header(line: str) -> tuple[int, int]:
    """``n`` and the gate count of the header, the file's first non-blank line."""
    if not line.startswith("n="):
        raise ValueError("circuit file must start with 'n=<int> gates=<int>'")
    head = _parse_fields(line.split())
    try:
        n, count = int(head["n"]), int(head["gates"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad header: {line!r}") from exc
    if n < 1:
        raise ValueError(f"bad header: {line!r}")
    _check_width(n)
    return n, count


# Characters per read of the circuit file's reader, and per write of the CLI.
_CHUNK = 1 << 16


def _seed(n: int, x_codes: dict, u_heads: dict) -> None:
    """Enter every position's text as the writer renders it, so that the
    reader finds each canonical X line and U-line head without parsing it:
    ``"X " + text`` in ``x_codes`` and ``"U " + text`` in ``u_heads``, both
    mapped to the position's code.  There are ``n << (n - 1)`` positions."""
    for p in range(n << n):
        if not p >> (p >> n) & 1:  # the target bit of the base is clear
            text = position_text(p, n)
            x_codes["X " + text] = u_heads["U " + text] = p


def read_circuit(f: TextIO) -> Circuit:
    """Parse a circuit file from the open text file ``f``, read with
    ``f.read(_CHUNK)``, never whole.

    Each chunk is split with ``str.splitlines`` and the piece after its last
    line break carried into the next, so the lines are those of the whole
    text split at once; blank and whitespace-only lines are dropped.  One
    rule skips the parse of a line: once the characters read so far are at
    least those of the texts :func:`_seed` enters, ``(n << n) * (n + 8)``
    up to n=10, every position's text as the writer renders it is entered
    as an X line and as a U-line head (the text before `` m=``, used only
    for a line whose rest is one ASCII field without whitespace), so no
    line the writer made is parsed.  The bound is tested right after the
    header and again as each chunk arrives, so the tables never outgrow
    the text read.  Any other line, among them those read before the tables
    are entered, takes the full parse every time, and nothing is learned
    from it.  The ``m=`` fields
    are checked and converted by :func:`_components` per block of U lines,
    as many as the ``_PARSE_BUDGET`` numbers of one conversion hold, 8 to
    a field.  The header's gate count is checked at the end of the file,
    so a fault in a line is reported before a wrong count, and the codes
    become arrays there."""
    n = count = None
    x_codes: dict[str, int] = {}  # code of each X line the writer renders, once seeded
    u_heads: dict[str, int] = {}  # position code of each U-line head, likewise
    read, need = 0, float("inf")  # characters read; characters _seed enters
    code: list[int] = []
    u_at: list[int] = []
    blocks: list[np.ndarray] = []  # components, one array per block of U lines
    fields: list[str] = []  # m= of each U line of the current block
    u_lines: list[str] = []
    tail: list[str] = []  # the pieces read so far of a line not yet ended
    while True:
        chunk = f.read(_CHUNK)
        read += len(chunk)
        if need <= read and not x_codes:  # not seeded yet
            _seed(n, x_codes, u_heads)
        if chunk:
            lines = chunk.splitlines()
            # the chunk may end inside its last line: carry that line on
            last = lines.pop() if lines[-1] and chunk.endswith(lines[-1]) else ""
            if not lines:  # no line break in the chunk
                tail.append(last)
                continue
            lines[0] = "".join(tail) + lines[0]
            tail = [last]
        else:
            lines = ["".join(tail)]
        for line in lines:
            g = x_codes.get(line)
            if g is None:
                head, _, m = line.partition(" m=")
                # Inside a line, the only ASCII whitespace is " ", "\t" and
                # "\x1f": the others break lines.
                one_field = m.isascii() and m and " " not in m and "\t" not in m and "\x1f" not in m
                g = u_heads.get(head) if one_field else None
                if g is None:
                    words = line.split()
                    if not words:  # a blank line
                        continue
                    if n is None:  # the first line that is not blank
                        n, count = _parse_header(line)
                        need = (n << n) * (n + 7 + len(str(n - 1)))
                        if need <= read:
                            _seed(n, x_codes, u_heads)
                        continue
                    kind, *tokens = words
                    if kind not in ("X", "U"):
                        raise ValueError(f"unknown gate line {line!r}")
                    parsed = _parse_fields(tokens)
                    for key in ("t", "c", "m") if kind == "U" else ("t", "c"):
                        if key not in parsed:
                            raise ValueError(f"missing field {key}=: {line!r}")
                    g = _parse_position(parsed["t"], parsed["c"], n, line)
                    if kind == "X":
                        code.append(g)
                        continue
                    m = parsed["m"]
                if m.count(";") != 3:
                    raise ValueError(f"component matrix needs 4 entries: {line!r}")
                u_at.append(g)
                fields.append(m)
                u_lines.append(line)
                if 8 * len(fields) == _PARSE_BUDGET:  # 8 numbers a field
                    blocks.append(_components(fields, u_lines))
                    fields, u_lines = [], []
                g = -len(u_at)  # ~j of U gate j
            code.append(g)
        if not chunk:
            break
    if n is None:
        raise ValueError("circuit file must start with 'n=<int> gates=<int>'")
    blocks.append(_components(fields, u_lines))
    if len(code) != count:
        raise ValueError(f"header says {count} gates, file has {len(code)}")
    return Circuit(n, np.array(code, np.int64), np.array(u_at, np.int64), np.concatenate(blocks))
