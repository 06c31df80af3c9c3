"""Command-line front end for the compilation pipeline.

Exit codes: 0 success, 1 input or usage error, 2 verification or
consistency failure.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import linalg, optimize, ordering, palindrome, sim, synth
from .decompose import two_level_decompose


# Largest n that `count --mode enumerate|both`, `order` and `trie --n` build
# circuits or orders for: the conventional circuit at n=10 holds ~4.7M gates.
ENUMERATE_MAX_N = 10


def _fail(msg: str, code: int = 1) -> int:
    print(f"error: {msg}", file=sys.stderr)
    return code


def _resolve_order(spec: str, n: int) -> ordering.OrderArray:
    if spec == "conventional":
        return ordering.conventional_order(n)
    if spec == "poa":
        return ordering.poa_order(n)
    order = ordering.load_order(Path(spec).read_text())
    if order.n != n:
        raise ValueError(f"order file is for n={order.n}, matrix needs n={n}")
    return order


def cmd_compile(args: argparse.Namespace) -> int:
    try:
        u = linalg.read_matrix(Path(args.input).read_text())
    except (OSError, ValueError) as exc:
        return _fail(f"cannot read input matrix: {exc}")
    dim = u.shape[0]
    n = dim.bit_length() - 1
    if dim < 2 or dim != 1 << n:
        return _fail(f"matrix dimension {dim} is not a power of two >= 2")
    try:
        order = _resolve_order(args.order, n)
    except (OSError, ValueError) as exc:
        return _fail(f"cannot resolve order: {exc}")
    try:
        decomp = two_level_decompose(u, order)  # checks that u is unitary
    except ValueError as exc:
        return _fail(str(exc))
    circuit = synth.construct_circuit(decomp, skip_identity=args.skip_identity)
    if args.cancel:
        circuit = optimize.cancel_pass(circuit)
    try:
        Path(args.output).write_text(synth.write_circuit(circuit))
    except OSError as exc:
        return _fail(f"cannot write output: {exc}")
    print(f"wrote {len(circuit)} gates to {args.output}")

    if args.verify:
        try:
            reread = synth.read_circuit(Path(args.output).read_text())
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read circuit back: {exc}")
        report = sim.verify(u, reread)
        print(report)
        if not report.passed:
            return 2
    return 0


def cmd_count(args: argparse.Namespace) -> int:
    if args.range:
        lo_s, _, hi_s = args.range.partition("..")
        try:
            lo, hi = int(lo_s), int(hi_s)
        except ValueError:
            return _fail(f"bad range {args.range!r}, expected a..b")
    elif args.n is not None:
        lo = hi = args.n
    else:
        return _fail("need --n or --range")
    if lo < 2 or hi < lo:
        return _fail(f"range [{lo}, {hi}] must satisfy 2 <= a <= b")
    if args.mode != "formula" and hi > ENUMERATE_MAX_N:
        return _fail(
            f"--mode {args.mode} enumerates circuits only up to n={ENUMERATE_MAX_N}, got n={hi}"
        )
    try:
        rows = optimize.table_rows(lo, hi, mode=args.mode)
    except AssertionError as exc:
        return _fail(str(exc), code=2)
    for row in rows:
        print("\t".join(str(v) for v in row))
    return 0


def cmd_order(args: argparse.Namespace) -> int:
    if args.n > ENUMERATE_MAX_N:
        return _fail(f"order --n builds orders only up to n={ENUMERATE_MAX_N}, got n={args.n}")
    try:
        order = _resolve_order(args.mode, args.n)
    except ValueError as exc:
        return _fail(str(exc))
    print(ordering.save_order(order), end="")
    return 0


def cmd_gray(args: argparse.Namespace) -> int:
    try:
        codes = synth.gray_code(getattr(args, "from"), args.to, args.n)
    except ValueError as exc:
        return _fail(str(exc))
    for g in codes:
        print(format(g, f"0{args.n}b"))
    return 0


def cmd_trie(args: argparse.Namespace) -> int:
    if args.input:
        try:
            circuit = synth.read_circuit(Path(args.input).read_text())
            subs = synth.split_subcircuits(circuit)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot read circuit: {exc}")
    elif args.n is not None and args.order and args.column is not None:
        if args.n > ENUMERATE_MAX_N:
            return _fail(f"trie --n builds orders only up to n={ENUMERATE_MAX_N}, got n={args.n}")
        try:
            order = _resolve_order(args.order, args.n)
        except (OSError, ValueError) as exc:
            return _fail(f"cannot resolve order: {exc}")
        if not 0 <= args.column < len(order.columns):
            return _fail(f"column {args.column} out of range")
        subs = [
            synth.subcircuit_for_pair(r, args.column, args.n) for r in order.columns[args.column]
        ]
    else:
        return _fail("need --input, or --n with --order and --column")
    try:
        trie = palindrome.build_trie(subs)
    except ValueError as exc:
        return _fail(str(exc))
    print(palindrome.dump_trie(trie), end="")
    leaves, interior = trie.counts()
    print(f"leaves={leaves} interior={interior} count={palindrome.trie_gate_count(trie)}")
    return 0


class _Parser(argparse.ArgumentParser):
    def error(self, message: str):  # main reports it in one line, exit code 1
        raise argparse.ArgumentError(None, message)


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
    try:
        args = build_parser().parse_args(argv)
    except argparse.ArgumentError as exc:
        return _fail(str(exc))
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
