"""Independent checks of the program's outputs.

Circuits are parsed and multiplied out here with plain numpy, not with
palinopt, and gate counts are compared with the paper's closed forms and
Table 2 as written in this file.  Each check returns a list of problems; an
empty list means the output is correct.
"""

from __future__ import annotations

import re

import numpy as np

RECONSTRUCT_TOL = 1e-9

# The paper's Table 2: n -> (palindromic, conventional, no canceling).
TABLE2 = {
    2: (8, 8, 10),
    3: (50, 62, 68),
    4: (246, 378, 392),
    5: (1086, 2034, 2064),
    6: (4558, 10210, 10272),
    7: (18670, 49090, 49216),
}


def poa_gates(n: int) -> int:
    """Palindromic order after cancellation: (7*2^(2n-1) + 10)/3 - 7*2^(n-1)."""
    num = 7 * 2 ** (2 * n - 1) + 10
    if num % 3:
        raise ValueError(f"closed form not integral at n={n}")
    return num // 3 - 7 * 2 ** (n - 1)


def conventional_cancel_gates(n: int) -> int:
    """Conventional order after cancellation: (n-1)*2^(2n-1) - 2^(n-1) + 2."""
    return (n - 1) * 2 ** (2 * n - 1) - 2 ** (n - 1) + 2


def conventional_gates(n: int) -> int:
    """Any order without cancellation: (n-1)*2^(2n-1) + 2^(n-1)."""
    return (n - 1) * 2 ** (2 * n - 1) + 2 ** (n - 1)


def two_level_factors(n: int) -> int:
    """Factors of the two-level decomposition, one U gate each: 2^(n-1)(2^n - 1)."""
    return 2 ** (n - 1) * (2**n - 1)


EXPECTED_GATES = {"poa": poa_gates, "conventional": conventional_cancel_gates}


def read_matrix_text(text: str) -> np.ndarray:
    lines = text.split("\n")
    dim = int(lines[0])
    rows = [
        [complex(float(re_), float(im)) for re_, im in (tok.split(",") for tok in line.split())]
        for line in lines[1 : dim + 1]
    ]
    u = np.array(rows, dtype=complex)
    if u.shape != (dim, dim):
        raise ValueError(f"matrix is {u.shape}, header says {dim}")
    return u


_GATE = re.compile(r"([XU]) t=(\d+) c=([01_]+)(?: m=(\S+))?")


def parse_circuit(text: str) -> tuple[int, list[tuple[int, int, np.ndarray | None]]]:
    """(n, gates), each gate (target, i0, op) in application order.

    i0 is the basis state with the target bit 0 and the controls' bits
    set; op is None for X, else the 2x2 component.
    """
    lines = text.rstrip("\n").split("\n")
    head = re.fullmatch(r"n=(\d+) gates=(\d+)", lines[0])
    if not head:
        raise ValueError(f"bad header {lines[0]!r}")
    n, count = int(head[1]), int(head[2])
    if len(lines) - 1 != count:
        raise ValueError(f"header says {count} gates, file has {len(lines) - 1}")
    gates = []
    for line in lines[1:]:
        g = _GATE.fullmatch(line)
        if not g or len(g[3]) != n or (g[1] == "U") != (g[4] is not None):
            raise ValueError(f"bad gate line {line!r}")
        target, pattern = int(g[2]), g[3]
        if pattern.count("_") != 1 or pattern.index("_") != n - 1 - target:
            raise ValueError(f"target {target} does not match pattern {pattern!r}")
        op = None
        if g[1] == "U":
            vals = [complex(float(a), float(b)) for a, b in (e.split(",") for e in g[4].split(";"))]
            op = np.array(vals, dtype=complex).reshape(2, 2)
        gates.append((target, int(pattern.replace("_", "0"), 2), op))
    return n, gates


def circuit_unitary(n: int, gates) -> np.ndarray:
    """Product of the gates, the first applied rightmost."""
    m = np.eye(1 << n, dtype=complex)
    for target, i0, op in gates:
        idx = [i0, i0 | (1 << target)]
        m[idx] = m[idx[::-1]] if op is None else op @ m[idx]
    return m


def check_compile(matrix: str, circuit: str, order: str) -> tuple[list[str], int, int]:
    """Problems with a compiled circuit, plus its gate and X-gate counts.

    The circuit must multiply out to the input within 1e-9 (Frobenius),
    and its gate and U-gate counts must equal the closed forms.
    """
    try:
        u = read_matrix_text(matrix)
        n, gates = parse_circuit(circuit)
    except ValueError as exc:
        return [f"unreadable: {exc}"], 0, 0
    problems = []
    if u.shape[0] != 1 << n:
        return [f"circuit is for n={n}, input is {u.shape[0]}x{u.shape[0]}"], 0, 0
    frob = float(np.linalg.norm(circuit_unitary(n, gates) - u))
    if not frob < RECONSTRUCT_TOL:
        problems.append(f"reconstruction Frobenius {frob:.3e} >= {RECONSTRUCT_TOL}")
    x_gates = sum(op is None for _, _, op in gates)
    if len(gates) != EXPECTED_GATES[order](n):
        problems.append(f"{len(gates)} gates, closed form gives {EXPECTED_GATES[order](n)}")
    if len(gates) - x_gates != two_level_factors(n):
        problems.append(f"{len(gates) - x_gates} U gates, expected {two_level_factors(n)}")
    return problems, len(gates), x_gates


def expected_count_rows(lo: int, hi: int) -> list[tuple[int, ...]]:
    """Table 2 for n <= 7, the closed forms beyond it."""
    return [
        (n, *TABLE2[n]) if n in TABLE2
        else (n, poa_gates(n), conventional_cancel_gates(n), conventional_gates(n))
        for n in range(lo, hi + 1)
    ]


def check_count(stdout: str, lo: int, hi: int) -> list[str]:
    try:
        rows = [tuple(int(v) for v in line.split("\t")) for line in stdout.split("\n") if line]
    except ValueError:
        return [f"unparsable count output {stdout[:80]!r}"]
    expected = expected_count_rows(lo, hi)
    return [] if rows == expected else [f"count rows {rows} != expected {expected}"]


_TRIE_TAIL = re.compile(r"leaves=(\d+) interior=(\d+) count=(\d+)")


def trie_counts(stdout: str) -> tuple[int, int, int] | None:
    last = stdout.rstrip("\n").rsplit("\n", 1)[-1]
    m = _TRIE_TAIL.fullmatch(last)
    return (int(m[1]), int(m[2]), int(m[3])) if m else None


def check_trie(stdout: str, n: int) -> list[str]:
    """One leaf per two-level factor, and count = leaves + 2 * interior."""
    counts = trie_counts(stdout)
    if counts is None:
        return ["no 'leaves= interior= count=' line"]
    leaves, interior, count = counts
    problems = []
    if leaves != two_level_factors(n):
        problems.append(f"leaves={leaves}, expected 2^(n-1)(2^n-1) = {two_level_factors(n)}")
    if count != leaves + 2 * interior:
        problems.append(f"count={count} != leaves + 2*interior = {leaves + 2 * interior}")
    return problems
