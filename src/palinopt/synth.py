"""Gray-code construction of controlled single-qubit circuits.

Each two-level factor acting on basis states |c> and |r> becomes a
palindromic subcircuit: a run of fully controlled X gates walking a Gray
code from c toward r, one fully controlled gate carrying the 2x2 component
matrix, and the X run mirrored to undo the state changes.

A fully controlled gate acts on one pair of basis states that differ in
its target bit, so it is identified by two integers: ``target`` and
``base``, the lower state of the pair (target bit cleared; its other bits
are the control values).  Construction walks the Gray codes as integers
and keeps one gate object per distinct (target, base) X gate within a
circuit; reading a circuit file shares X gates the same way.

Qubit 0 is the least significant bit of a basis-state index; the control
pattern strings render qubit n-1 leftmost.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Iterable, Optional, Union

import numpy as np

from .decompose import Decomposition
from .linalg import UNITARY_TOL, is_unitary_entries


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
    def symbol(self) -> tuple[int, int]:
        """Structural identity of an X gate: (target, base)."""
        return (self.target, self.base)

    @property
    def basis_pair(self) -> tuple[int, int]:
        """Basis states (target bit 0, target bit 1) on which the gate acts."""
        return (self.base, self.base | 1 << self.target)

    def pattern(self) -> str:
        """Control pattern with qubit n-1 leftmost and ``_`` at the target."""
        bits = format(self.base, f"0{self.n}b")
        slot = self.n - 1 - self.target
        return bits[:slot] + "_" + bits[slot + 1 :]

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
    prefix: tuple[ControlledGate, ...]
    middle: ControlledGate
    pair: tuple[int, int]

    def flatten(self) -> tuple[ControlledGate, ...]:
        return self.prefix + (self.middle,) + self.prefix[::-1]

    def __len__(self) -> int:
        return 2 * len(self.prefix) + 1


@dataclass(frozen=True)
class Circuit:
    n: int
    gates: tuple[ControlledGate, ...]

    def __len__(self) -> int:
        return len(self.gates)


def _check_endpoints(c: int, r: int, n: int) -> None:
    if c == r:
        raise ValueError("endpoints must differ")
    if not (0 <= c < (1 << n) and 0 <= r < (1 << n)):
        raise ValueError(f"indices ({c}, {r}) out of range for n={n}")


def gray_code(c: int, r: int, n: int) -> tuple[int, ...]:
    """Gray code from c to r, flipping the rightmost differing bit each step.

    Bit flips therefore occur in increasing significance 2^0, 2^1, ...; the
    sequence has at most n+1 codes.
    """
    _check_endpoints(c, r, n)
    codes = [c]
    g = c
    while g != r:
        diff = g ^ r
        g ^= diff & -diff  # flip lowest differing bit
        codes.append(g)
    return tuple(codes)


def subcircuit_for_pair(
    r: int, c: int, n: int, comp: Optional[np.ndarray] = None
) -> PalindromicSubcircuit:
    """Build the palindromic subcircuit for ordering pair (r, c).

    ``comp`` defaults to the identity, which is what structural gate
    counting uses; the middle gate never cancels either way.
    """
    _check_endpoints(c, r, n)
    gates = gray_circuit(n, [(r, c, comp)]).gates
    k = len(gates) // 2
    return PalindromicSubcircuit(prefix=gates[:k], middle=gates[k], pair=(r, c))


def gray_circuit(
    n: int, subcircuits: Iterable[tuple[int, int, Optional[np.ndarray]]]
) -> Circuit:
    """Concatenate the palindromic subcircuits of (r, c, component) triples,
    in the given order.

    Each subcircuit walks the Gray code from c to r as ints.  One gate
    object is made per distinct X gate, and per distinct position of a
    ``None`` (identity) component, and shared by every subcircuit that
    uses it; gates are immutable, so sharing is safe.
    """
    eye = np.eye(2, dtype=complex)
    eye.flags.writeable = False  # shared by every identity middle gate
    x_gates: dict[int, ControlledGate] = {}
    eye_gates: dict[tuple[int, int], ControlledGate] = {}
    gates: list[ControlledGate] = []
    for r, c, comp in subcircuits:
        start = len(gates)
        g, diff = c, c ^ r
        while diff & (diff - 1):  # more than the last flip to go
            low = diff & -diff
            key = g | low | low << n  # the pair's upper state and the flipped bit
            gate = x_gates.get(key)
            if gate is None:
                gate = x_gates[key] = ControlledGate(n, low.bit_length() - 1, g & ~low, "X")
            gates.append(gate)
            g ^= low
            diff ^= low
        mid = len(gates)
        at = (diff.bit_length() - 1, g & ~diff)
        if comp is not None:
            gates.append(ControlledGate(n, *at, comp))
        else:
            gate = eye_gates.get(at)
            if gate is None:
                gate = eye_gates[at] = ControlledGate(n, *at, eye)
            gates.append(gate)
        gates.extend(reversed(gates[start:mid]))
    return Circuit(n=n, gates=tuple(gates))


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
    return gray_circuit(d.n, zip(rows.tolist(), cols.tolist(), comps))


def split_subcircuits(c: Circuit) -> list[PalindromicSubcircuit]:
    """Recover the palindromic subcircuits of an uncancelled circuit.

    Expects the exact construct_circuit layout (X run, component gate,
    mirrored X run per subcircuit); cancelled circuits no longer have this
    shape and are rejected.  Each subcircuit's pair (r, c) is read off its
    gates: the middle gate moves ``base`` to r, and the X run moves c to
    ``base``.  The X run must be the Gray walk from c: each gate acts on the
    running state, at a target above the last one and below the middle's.
    """
    subs: list[PalindromicSubcircuit] = []
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
            raise ValueError(
                "gate sequence is not palindromic; was this circuit cancelled?"
            )
        i += len(prefix)
        pair = (middle.base | 1 << middle.target, middle.base ^ flips)
        g, low = pair[1], 0
        for x in prefix:
            bit = 1 << x.target
            if not low < bit < 1 << middle.target or x.base != g & ~bit:
                raise ValueError(f"X run is not the Gray walk of pair {pair}")
            g, low = g ^ bit, bit
        subs.append(PalindromicSubcircuit(prefix=prefix, middle=middle, pair=pair))
    return subs


def write_circuit(c: Circuit) -> str:
    """Circuit file text.  Each distinct position's ``t=.. c=..`` text is
    rendered once, and the floats of all component matrices (real and
    imaginary parts, row-major) by a single ``repr`` of one list."""
    ops = [g.op for g in c.gates if not g.is_x]
    floats = np.array(ops, dtype=complex).reshape(-1).view(float).tolist()
    entries = zip(*[iter(repr(floats)[1:-1].split(", "))] * 8)  # 8 floats per matrix
    lines = [f"n={c.n} gates={len(c.gates)}"]
    positions: dict[tuple[int, int], str] = {}
    for g in c.gates:
        at = positions.get((g.target, g.base))
        if at is None:
            at = positions[g.target, g.base] = f"t={g.target} c={g.pattern()}"
        if g.is_x:
            lines.append("X " + at)
        else:
            lines.append("U %s m=%s,%s;%s,%s;%s,%s;%s,%s" % (at, *next(entries)))
    return "\n".join(lines) + "\n"


def _parse_fields(line: str) -> dict[str, str]:
    fields = {}
    for tok in line.split()[1:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def _parse_position(t: str, pattern: str, n: int, line: str) -> tuple[int, int]:
    """Target and base of a gate line's ``t=`` and ``c=`` fields."""
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
    return target, int(pattern[:slot] + "0" + pattern[slot + 1 :], 2)


def read_circuit(text: str) -> Circuit:
    """Parse a circuit file.  Each distinct ``(t, c)`` position is parsed
    once, and equal X lines share one (immutable) gate object."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or not lines[0].startswith("n="):
        raise ValueError("circuit file must start with 'n=<int> gates=<int>'")
    head = _parse_fields("_ " + lines[0])
    try:
        n = int(head["n"])
        count = int(head["gates"])
    except (KeyError, ValueError) as exc:
        raise ValueError(f"bad header: {lines[0]!r}") from exc
    if n < 1:
        raise ValueError(f"bad header: {lines[0]!r}")
    if len(lines) - 1 != count:
        raise ValueError(f"header says {count} gates, file has {len(lines) - 1}")
    positions: dict[tuple[str, str], tuple[int, int]] = {}
    x_lines: dict[str, ControlledGate] = {}  # X gate of each distinct X line
    gates = []
    for line in lines[1:]:
        gate = x_lines.get(line)
        if gate is not None:
            gates.append(gate)
            continue
        kind = line.split(None, 1)[0]
        if kind not in ("X", "U"):
            raise ValueError(f"unknown gate line {line!r}")
        f = _parse_fields(line)
        for key in ("t", "c", "m") if kind == "U" else ("t", "c"):
            if key not in f:
                raise ValueError(f"missing field {key}=: {line!r}")
        at = (f["t"], f["c"])
        if at not in positions:
            positions[at] = _parse_position(*at, n, line)
        target, base = positions[at]
        if kind == "X":
            gate = x_lines[line] = ControlledGate(n, target, base, "X")
        else:
            parts = f["m"].split(";")
            if len(parts) != 4:
                raise ValueError(f"component matrix needs 4 entries: {line!r}")
            vals = []
            for p in parts:
                real, _, imag = p.partition(",")
                vals.append(complex(float(real), float(imag)))
            if not all(map(cmath.isfinite, vals)):
                raise ValueError(f"component matrix has non-finite entries: {line!r}")
            if not is_unitary_entries(*vals):
                raise ValueError(f"component matrix is not unitary within {UNITARY_TOL}: {line!r}")
            gate = ControlledGate(n, target, base, np.array(vals, dtype=complex).reshape(2, 2))
        gates.append(gate)
    return Circuit(n=n, gates=tuple(gates))
