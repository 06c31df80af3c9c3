"""Command-line front end for the compilation pipeline.

Exit codes: 0 success, 1 input or usage error, 2 verification or
consistency failure.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from pathlib import Path

from . import linalg, optimize, ordering, palindrome, sim, synth
from .decompose import two_level_decompose


# Largest n that `order`, `trie --n` and `count --mode enumerate|both` build
# orders for: the n=11 orders hold ~4.2M pairs, and none of the three builds
# a whole-order circuit.
ENUMERATE_MAX_N = 11
# Largest n of a `count --mode formula` table: its rows hold counts of up to
# ~0.6 n digits, ~1 MB of text for the range 2..1024.
FORMULA_MAX_N = 1024
# Largest n that `gray` prints codes for: up to n + 1 lines of n characters.
GRAY_MAX_N = 1024


def _fail(msg: str, code: int = 1) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


@contextlib.contextmanager
def _context(msg: str, cause: bool = True):
    """Re-raise an OSError or ValueError as ValueError "msg: <its message>" ("msg" if not cause)."""
    try:
        yield
    except (OSError, ValueError) as exc:
        raise ValueError(f"{msg}: {exc}" if cause else msg) from exc


def _resolve_order(spec: str, n: int) -> ordering.OrderArray:
    if spec == "conventional":
        return ordering.conventional_order(n)
    if spec == "poa":
        return ordering.poa_order(n)
    order = ordering.load_order(Path(spec).read_text(encoding="utf-8"))
    if order.n != n:
        raise ValueError(f"order file is for n={order.n}, need n={n}")
    return order


def _write_text(path: str, text: str) -> None:
    """Write ``text`` to ``path`` as UTF-8 ``synth._CHUNK`` characters at a
    time, so that no encoded copy of the whole text is made."""
    with open(path, "w", encoding="utf-8") as f:
        for start in range(0, len(text), synth._CHUNK):
            f.write(text[start : start + synth._CHUNK])


def cmd_compile(args: argparse.Namespace) -> int:
    with _context("cannot read input matrix"):
        u = linalg.read_matrix(Path(args.input).read_text(encoding="utf-8"))
    dim = u.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or dim != 1 << n:
        return _fail(f"matrix dimension {dim} is not a power of two >= 2")
    with _context("cannot resolve order"):
        order = _resolve_order(args.order, n)
    decomp = two_level_decompose(u, order)  # checks that u is unitary
    circuit = synth.construct_circuit(decomp, skip_identity=args.skip_identity)
    if args.cancel:
        circuit = optimize.cancel_pass(circuit)
    with _context("cannot write output"):
        _write_text(args.output, synth.write_circuit(circuit))
    print(f"wrote {len(circuit)} gates to {args.output}")

    if args.verify:
        with _context("cannot read circuit back"), open(args.output, encoding="utf-8") as f:
            reread = synth.read_circuit(f)
        report = sim.verify(u, reread)
        print(report)
        return 0 if report.passed else 2
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.range:
        lo_s, _, hi_s = args.range.partition("..")
        with _context(f"bad range {args.range!r}, expected a..b", cause=False):
            lo, hi = int(lo_s), int(hi_s)
    elif args.n is not None:
        lo = hi = args.n
    else:
        return _fail("need --n or --range")
    if lo < 2 or hi < lo:
        return _fail(f"range [{lo}, {hi}] must satisfy 2 <= a <= b")
    if args.mode != "formula" and hi > ENUMERATE_MAX_N:
        return _fail(f"--mode {args.mode} enumerates orders only up to n={ENUMERATE_MAX_N}, got n={hi}")
    if hi > FORMULA_MAX_N:
        return _fail(f"count computes counts only up to n={FORMULA_MAX_N}, got n={hi}")
    for row in optimize.table_rows(lo, hi, mode=args.mode):  # AssertionError: exit 2
        print("\t".join(str(v) for v in row))
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    if args.n > ENUMERATE_MAX_N:
        return _fail(f"order --n builds orders only up to n={ENUMERATE_MAX_N}, got n={args.n}")
    print(ordering.save_order(_resolve_order(args.mode, args.n)), end="")
    return 0


def cmd_gray(args: argparse.Namespace) -> int:
    if args.n > GRAY_MAX_N:
        return _fail(f"gray prints codes only up to n={GRAY_MAX_N}, got n={args.n}")
    for g in synth.gray_code(getattr(args, "from"), args.to, args.n):
        print(format(g, f"0{args.n}b"))
    return 0


def cmd_trie(args: argparse.Namespace) -> int:
    if args.input:
        with _context("cannot read circuit"):
            with open(args.input, encoding="utf-8") as f:
                circuit = synth.read_circuit(f)
            pairs = synth.split_subcircuits(circuit)
    elif args.n is not None and args.order and args.column is not None:
        if args.n > ENUMERATE_MAX_N:
            return _fail(f"trie --n builds orders only up to n={ENUMERATE_MAX_N}, got n={args.n}")
        with _context("cannot resolve order"):
            order = _resolve_order(args.order, args.n)
        if not 0 <= args.column < (1 << args.n) - 1:
            return _fail(f"column {args.column} out of range")
        rows = order.rows[order.cols == args.column]
        pairs = synth.GrayPairs(args.n, rows, [args.column] * len(rows))
    else:
        return _fail("need --input, or --n with --order and --column")
    trie = palindrome.build_trie(pairs.n, pairs.runs(), pairs.rows, pairs.cols)
    print(palindrome.dump_trie(trie), end="")
    leaves, interior = trie.counts()
    print(f"leaves={leaves} interior={interior} count={palindrome.trie_gate_count(trie)}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main reports it in one line, exit code 1
        raise argparse.ArgumentError(None, message)


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="palinopt",
        description="Compile unitary matrices into controlled single-qubit circuits",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("compile", help="decompose a unitary matrix into a circuit file")
    p.add_argument("--input", required=True, help="matrix file (dim header, re,im entries)")
    p.add_argument("--order", default="poa", help="conventional, poa, or an order file path")
    p.add_argument("--output", required=True, help="circuit file to write")
    p.add_argument("--cancel", action="store_true", help="run the cancellation pass")
    p.add_argument("--skip-identity", action="store_true", help="drop identity-component subcircuits")
    p.add_argument("--verify", action="store_true", help="re-read the circuit and verify against the input")
    p.set_defaults(func=cmd_compile)

    p = sub.add_parser("count", help="gate-count table (palindromic, conventional, no canceling)")
    p.add_argument("--n", type=int, help="single qubit count")
    p.add_argument("--range", help="inclusive range a..b")
    p.add_argument("--mode", choices=["formula", "enumerate", "both"], default="formula")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("order", help="print an ordering array")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--mode", choices=["poa", "conventional"], default="poa")
    p.set_defaults(func=cmd_order)

    p = sub.add_parser("gray", help="print the Gray code between two basis states")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--from", type=int, required=True, dest="from")
    p.add_argument("--to", type=int, required=True)
    p.set_defaults(func=cmd_gray)

    p = sub.add_parser("trie", help="dump the palindrome trie of a circuit or column")
    p.add_argument("--input", help="uncancelled circuit file")
    p.add_argument("--n", type=int)
    p.add_argument("--order", help="conventional, poa, or an order file path")
    p.add_argument("--column", type=int)
    p.set_defaults(func=cmd_trie)

    return parser


def main(argv: list[str] | None = None) -> int:
    """Run one command; the only place an exception becomes an exit code."""
    try:
        args = build_parser().parse_args(argv)
        code = args.func(args)
        sys.stdout.flush()  # so that a closed stdout fails here
        return code
    except (argparse.ArgumentError, AssertionError, OSError, ValueError) as exc:
        if isinstance(exc, BrokenPipeError):  # send the exit-time flush nowhere
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        # AssertionError is a consistency failure: count's formula != enumeration
        return _fail(str(exc), code=2 if isinstance(exc, AssertionError) else 1)


if __name__ == "__main__":
    sys.exit(main())
