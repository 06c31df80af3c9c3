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
one int per gate in application order: an X gate is its position code
(>= 0), and the j-th component gate is ``~j`` (< 0).  ``u_at[j]`` is that
gate's position code and ``comps[j]`` its 2x2 component matrix, rows of a
``(k, 2, 2)`` array.  Within a circuit each distinct X code is one shared
int object.  Construction, cancellation, the file text, splitting into
subcircuits and simulation work on the codes; ``Circuit.gates`` builds
:class:`ControlledGate` objects on first access, one per distinct X gate.

Qubit 0 is the least significant bit of a basis-state index; the control
pattern strings render qubit n-1 leftmost.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .decompose import Decomposition
from .linalg import UNITARY_TOL, is_unitary_entries, parse_floats


def _pattern(n: int, target: int, base: int) -> str:
    bits = format(base, f"0{n}b")
    slot = n - 1 - target
    return bits[:slot] + "_" + bits[slot + 1 :]


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


@dataclass(frozen=True)
class PalindromicSubcircuit:
    """The subcircuit of pair (r, c) as position codes: the X run ``prefix``
    in application order, the component gate ``middle``, the X run mirrored."""

    prefix: tuple[int, ...]
    middle: int
    pair: tuple[int, int]
    n: int


@dataclass(frozen=True, eq=False)
class Circuit:
    """Gates as integer codes; see the module docstring.  The lists are
    shared between circuits (``cancel_pass`` keeps ``u_at`` and ``comps``)
    and must not be changed."""

    n: int
    code: list[int]
    u_at: list[int]
    comps: np.ndarray

    def __post_init__(self) -> None:
        if self.comps.shape != (len(self.u_at), 2, 2):
            raise ValueError(f"need ({len(self.u_at)}, 2, 2) components, got {self.comps.shape}")

    def __len__(self) -> int:
        return len(self.code)

    @classmethod
    def from_gates(cls, n: int, gates: Iterable[ControlledGate]) -> Circuit:
        """The circuit of ``gates`` in application order."""
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
        return cls(n, code, u_at, np.array(ops, dtype=complex).reshape(-1, 2, 2))

    @functools.cached_property
    def gates(self) -> tuple[ControlledGate, ...]:
        """One :class:`ControlledGate` per gate; equal X gates share one."""
        n, mask = self.n, (1 << self.n) - 1
        x_gates: dict[int, ControlledGate] = {}
        gates = []
        for g in self.code:
            if g >= 0:
                gate = x_gates.get(g)
                if gate is None:
                    gate = x_gates[g] = ControlledGate(n, g >> n, g & mask, "X")
            else:
                at = self.u_at[~g]
                gate = ControlledGate(n, at >> n, at & mask, self.comps[~g])
            gates.append(gate)
        return tuple(gates)


def gray_code(c: int, r: int, n: int) -> tuple[int, ...]:
    """Gray code from c to r, flipping the rightmost differing bit each step.

    Bit flips therefore occur in increasing significance 2^0, 2^1, ...; the
    sequence has at most n+1 codes.
    """
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


def gray_circuit(
    n: int, pairs: Iterable[tuple[int, int]], comps: Optional[np.ndarray] = None
) -> Circuit:
    """Concatenate the palindromic subcircuits of (r, c) pairs, in the given
    order.  Pair j's component gate is U gate j, with component ``comps[j]``,
    or the identity for every pair if ``comps`` is None.

    Each subcircuit walks the Gray code from c to r as ints.
    """
    x_codes: dict[int, int] = {}
    code: list[int] = []
    u_at: list[int] = []
    for j, (r, c) in enumerate(pairs):
        run = []
        g, diff = c, c ^ r
        while diff & (diff - 1):  # more than the last flip to go
            low = diff & -diff
            x = (low.bit_length() - 1) << n | g & ~low
            run.append(x_codes.setdefault(x, x))
            g ^= low
            diff ^= low
        u_at.append((diff.bit_length() - 1) << n | g & ~diff)
        code += run
        code.append(~j)
        run.reverse()
        code += run
    if comps is None:
        comps = np.broadcast_to(np.eye(2, dtype=complex), (len(u_at), 2, 2))
    return Circuit(n, code, u_at, comps)


def construct_circuit(d: Decomposition, skip_identity: bool = False) -> Circuit:
    """Assemble the full circuit from the decomposition's subcircuits.

    The factor product V_1 V_2 ... V_k applies V_k to a state first, so the
    gate sequence (application order) holds the subcircuits in reverse
    factor order; a diagram drawn left to right then shows V_1 rightmost.
    ``skip_identity`` drops subcircuits whose component is the identity
    within 1e-10; it is off by default so gate counts stay structural.
    """
    rows, cols, comps = d.rows[::-1], d.cols[::-1], d.comps[::-1]
    if skip_identity:
        keep = np.abs(comps - np.eye(2)).max(axis=(1, 2)) >= UNITARY_TOL
        rows, cols, comps = rows[keep], cols[keep], comps[keep]
    return gray_circuit(d.n, zip(rows.tolist(), cols.tolist()), comps)


def split_subcircuits(c: Circuit) -> list[PalindromicSubcircuit]:
    """Recover the palindromic subcircuits of an uncancelled circuit.

    Expects the exact construct_circuit layout (X run, component gate,
    mirrored X run per subcircuit); cancelled circuits no longer have this
    shape and are rejected.  Each subcircuit's pair (r, c) is read off its
    codes: the middle gate moves its base to r, and the X run moves c to
    that base.  The X run must be the Gray walk from c: each gate acts on
    the running state, at a target above the last one and below the
    middle's; one walk back from the middle's base checks it and finds c.
    """
    n, code, u_at = c.n, c.code, c.u_at
    mask = (1 << n) - 1
    subs: list[PalindromicSubcircuit] = []
    i = 0
    while i < len(code):
        start = i
        while i < len(code) and code[i] >= 0:
            i += 1
        if i == len(code):
            raise ValueError("trailing X gates with no component gate")
        prefix, middle, end = code[start:i], u_at[~code[i]], 2 * i + 1 - start
        if code[end - 1 : i : -1] != prefix:
            raise ValueError("gate sequence is not palindromic; was this circuit cancelled?")
        base, top = middle & mask, 1 << (middle >> n)
        g, high, walk = base, top, True
        for x in reversed(prefix):
            bit = 1 << (x >> n)
            walk = walk and bit < high and x & mask == g & ~bit
            g, high = g ^ bit, bit
        pair = (base | top, g)
        if not walk:
            raise ValueError(f"X run is not the Gray walk of pair {pair}")
        subs.append(PalindromicSubcircuit(tuple(prefix), middle, pair, n))
        i = end
    return subs


# Component matrices per block of the circuit file's writer and reader.
_BLOCK = 1024


def write_circuit(c: Circuit) -> str:
    """Circuit file text.  Each distinct position's ``t=.. c=..`` text and
    each distinct X line is rendered once, and the floats of the component
    matrices (real and imaginary parts, row-major) by one ``repr`` of a list
    per block of matrices, which bounds the float strings alive at once."""
    n, code, u_at = c.n, c.code, c.u_at
    floats = c.comps.reshape(-1).view(float).reshape(-1, 8)
    distinct = set(code)
    at = {p: position_text(p, n) for p in distinct.union(u_at) if p >= 0}
    lines = {g: "X " + at[g] for g in distinct if g >= 0}  # code -> its line
    for start in range(0, len(u_at), _BLOCK):
        block = repr(floats[start : start + _BLOCK].reshape(-1).tolist())[1:-1].split(", ")
        entries = zip(*[iter(block)] * 8)
        for j, (p, m) in enumerate(zip(u_at[start : start + _BLOCK], entries), start):
            lines[~j] = "U %s m=%s,%s;%s,%s;%s,%s;%s,%s" % (at[p], *m)
    return "\n".join([f"n={n} gates={len(code)}", *map(lines.__getitem__, code), ""])


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
    entries = joined.split(";")
    # as many commas as entries and one in every entry: exactly one in each
    if joined.count(",") != len(entries) or not all("," in e for e in entries):
        for m, line in zip(fields, lines):
            if any(e.count(",") != 1 for e in m.split(";")):
                raise ValueError(f"component entries must be re,im pairs: {line!r}")
    numbers = joined.replace(";", ",").split(",")
    values = parse_floats(
        numbers, lambda k, s: f"bad number {s!r} in component matrix: {lines[k // 8]!r}"
    )
    comps = values.view(complex).reshape(-1, 2, 2)
    finite = np.isfinite(values).reshape(-1, 8).all(axis=1)
    with np.errstate(all="ignore"):  # a huge finite entry overflows: not unitary
        unitary = is_unitary_entries(*comps.reshape(-1, 4).T)
    bad = np.flatnonzero(~(finite & unitary))
    if len(bad):
        line = lines[bad[0]]
        if not finite[bad[0]]:
            raise ValueError(f"component matrix has non-finite entries: {line!r}")
        raise ValueError(f"component matrix is not unitary within {UNITARY_TOL}: {line!r}")
    return comps


def read_circuit(text: str) -> Circuit:
    """Parse a circuit file.  Each distinct ``(t, c)`` position, X line and
    U-line head (the text before `` m=``, reused only for a line whose rest is
    one field without whitespace) is parsed once.  The ``m=`` fields are
    checked and converted by :func:`_components` per block of U lines, which
    bounds the number strings alive at once."""
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
    x_codes: dict[str, int] = {}  # code of each distinct X line
    u_heads: dict[str, int] = {}  # position code of each distinct U-line head
    code: list[int] = []
    u_at: list[int] = []
    blocks: list[np.ndarray] = []  # components, one array per block of U lines
    fields: list[str] = []  # m= of each U line of the current block
    u_lines: list[str] = []
    for line in lines[1:]:
        g = x_codes.get(line)
        if g is None:
            head, _, m = line.partition(" m=")
            one_field = m.split() == [m]
            g = u_heads.get(head) if one_field else None
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
                    code.append(g)
                    continue
                if one_field:  # t= and c= are in the head
                    u_heads[head] = g
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
