"""Gray-code construction of controlled single-qubit circuits.

Each two-level factor acting on basis states |c> and |r> becomes a
palindromic subcircuit: a run of fully controlled X gates walking a Gray
code from c toward r, one fully controlled gate carrying the 2x2 component
matrix, and the X run mirrored to undo the state changes.

Qubit 0 is the least significant bit of a basis-state index; the control
pattern strings render qubit n-1 leftmost.
"""

from __future__ import annotations

import cmath
from dataclasses import dataclass
from typing import Optional, Union

import numpy as np

from .decompose import Decomposition
from .linalg import UNITARY_TOL, TwoLevelMatrix, is_unitary_2x2


@dataclass(frozen=True)
class ControlledGate:
    """A gate on ``target`` conditioned on every other qubit's bit value.

    ``op`` is the string "X" for a controlled bit flip, otherwise a 2x2
    unitary.  ``controls`` maps each non-target qubit to its required bit,
    stored as sorted (qubit, bit) tuples so gates hash and compare cleanly.
    """

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
        if isinstance(self.op, str):
            if self.op != "X":
                raise ValueError(f"unknown gate symbol {self.op!r}")
        else:
            object.__setattr__(self, "op", np.asarray(self.op, dtype=complex))

    @property
    def is_x(self) -> bool:
        return isinstance(self.op, str)

    @property
    def symbol(self) -> tuple[int, tuple[tuple[int, int], ...]]:
        """Structural identity of an X gate (target plus control pattern)."""
        return (self.target, self.controls)

    def pattern(self) -> str:
        """Control pattern with qubit n-1 leftmost and ``_`` at the target."""
        bits = dict(self.controls)
        return "".join(
            "_" if q == self.target else str(bits[q]) for q in range(self.n - 1, -1, -1)
        )

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, ControlledGate):
            return NotImplemented
        if (self.n, self.target, self.controls) != (other.n, other.target, other.controls):
            return False
        if self.is_x or other.is_x:
            return self.is_x and other.is_x
        return bool(np.array_equal(self.op, other.op))

    def __hash__(self) -> int:
        return hash((self.n, self.target, self.controls, self.is_x))


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


def _transition_gate(g: int, h: int, n: int, op: Union[str, np.ndarray]) -> ControlledGate:
    """Gate flipping (or operating on) the single bit where g and h differ."""
    diff = g ^ h
    target = diff.bit_length() - 1
    controls = tuple(
        (q, (g >> q) & 1) for q in range(n) if q != target
    )
    return ControlledGate(n=n, target=target, controls=controls, op=op)


def subcircuit_for_pair(
    r: int, c: int, n: int, comp: Optional[np.ndarray] = None
) -> PalindromicSubcircuit:
    """Build the palindromic subcircuit for ordering pair (r, c).

    ``comp`` defaults to the identity, which is what structural gate
    counting uses; the middle gate never cancels either way.
    """
    codes = gray_code(c, r, n)
    prefix = tuple(
        _transition_gate(codes[j], codes[j + 1], n, "X") for j in range(len(codes) - 2)
    )
    if comp is None:
        comp = np.eye(2, dtype=complex)
    middle = _transition_gate(codes[-2], codes[-1], n, comp)
    return PalindromicSubcircuit(prefix=prefix, middle=middle, pair=(r, c))


def build_subcircuit(v: TwoLevelMatrix, n: int) -> PalindromicSubcircuit:
    return subcircuit_for_pair(v.row, v.col, n, comp=v.comp)


def construct_circuit(d: Decomposition, skip_identity: bool = False) -> Circuit:
    """Assemble the full circuit from the decomposition's subcircuits.

    The factor product V_1 V_2 ... V_k applies V_k to a state first, so the
    gate sequence (application order) holds the subcircuits in reverse
    factor order; a diagram drawn left to right then shows V_1 rightmost.
    ``skip_identity`` drops subcircuits whose component is the identity
    within 1e-10; it is off by default so gate counts stay structural.
    """
    gates: list[ControlledGate] = []
    eye = np.eye(2)
    for v in reversed(d.factors):
        if skip_identity and np.max(np.abs(v.comp - eye)) < UNITARY_TOL:
            continue
        gates.extend(build_subcircuit(v, d.n).flatten())
    return Circuit(n=d.n, gates=tuple(gates))


def split_subcircuits(c: Circuit) -> list[PalindromicSubcircuit]:
    """Recover the palindromic subcircuits of an uncancelled circuit.

    Expects the exact construct_circuit layout (X run, component gate,
    mirrored X run per subcircuit); cancelled circuits no longer have this
    shape and are rejected.
    """
    subs: list[PalindromicSubcircuit] = []
    gates = list(c.gates)
    i = 0
    while i < len(gates):
        start = i
        while i < len(gates) and gates[i].is_x:
            i += 1
        if i == len(gates):
            raise ValueError("trailing X gates with no component gate")
        prefix = tuple(gates[start:i])
        middle = gates[i]
        i += 1
        mirror = gates[i : i + len(prefix)]
        if tuple(mirror) != prefix[::-1]:
            raise ValueError(
                "gate sequence is not palindromic; was this circuit cancelled?"
            )
        i += len(prefix)
        subs.append(PalindromicSubcircuit(prefix=prefix, middle=middle, pair=(len(subs), -1)))
    return subs


def write_circuit(c: Circuit) -> str:
    lines = [f"n={c.n} gates={len(c.gates)}"]
    for g in c.gates:
        if g.is_x:
            lines.append(f"X t={g.target} c={g.pattern()}")
        else:
            m = ";".join(f"{float(z.real)!r},{float(z.imag)!r}" for z in g.op.flat)
            lines.append(f"U t={g.target} c={g.pattern()} m={m}")
    return "\n".join(lines) + "\n"


def _parse_fields(line: str) -> dict[str, str]:
    fields = {}
    for tok in line.split()[1:]:
        key, _, val = tok.partition("=")
        fields[key] = val
    return fields


def _parse_position(t: str, pattern: str, n: int, line: str) -> tuple[int, tuple[tuple[int, int], ...]]:
    """Target and sorted controls of a gate line's ``t=`` and ``c=`` fields."""
    target = int(t)
    if len(pattern) != n:
        raise ValueError(f"pattern length {len(pattern)} != n={n}: {line!r}")
    controls = []
    for pos, ch in enumerate(pattern):
        q = n - 1 - pos
        if ch == "_":
            if q != target:
                raise ValueError(f"'_' not at target position: {line!r}")
        elif ch in "01":
            controls.append((q, int(ch)))
        else:
            raise ValueError(f"bad pattern character {ch!r}: {line!r}")
    return target, tuple(sorted(controls))


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
    positions: dict[tuple[str, str], tuple[int, tuple[tuple[int, int], ...]]] = {}
    x_gates: dict[tuple[str, str], ControlledGate] = {}
    gates = []
    for line in lines[1:]:
        kind = line.split(None, 1)[0]
        if kind not in ("X", "U"):
            raise ValueError(f"unknown gate line {line!r}")
        f = _parse_fields(line)
        for key in ("t", "c", "m") if kind == "U" else ("t", "c"):
            if key not in f:
                raise ValueError(f"missing field {key}=: {line!r}")
        at = (f["t"], f["c"])
        if kind == "X" and at in x_gates:
            gates.append(x_gates[at])
            continue
        if at not in positions:
            positions[at] = _parse_position(*at, n, line)
        target, controls = positions[at]
        if kind == "X":
            gate = x_gates[at] = ControlledGate(n=n, target=target, controls=controls, op="X")
        else:
            parts = f["m"].split(";")
            if len(parts) != 4:
                raise ValueError(f"component matrix needs 4 entries: {line!r}")
            vals = [complex(float(p.partition(",")[0]), float(p.partition(",")[2])) for p in parts]
            if not all(map(cmath.isfinite, vals)):
                raise ValueError(f"component matrix has non-finite entries: {line!r}")
            op = np.array(vals, dtype=complex).reshape(2, 2)
            if not is_unitary_2x2(op):
                raise ValueError(f"component matrix is not unitary within {UNITARY_TOL}: {line!r}")
            gate = ControlledGate(n=n, target=target, controls=controls, op=op)
        gates.append(gate)
    return Circuit(n=n, gates=tuple(gates))
