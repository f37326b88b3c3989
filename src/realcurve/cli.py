"""Command-line surface.

Exit codes: 0 when a verdict was produced (inconclusive included), 1 for
usage errors, 2 for computation errors.  Diagnostics go to stderr; only
results are printed to stdout.
"""

from __future__ import annotations

import argparse
import sys
import time
from fractions import Fraction
from typing import Sequence

from .decide import classify_point
from .errors import RealCurveError
from .fourbar import FourBarParams, analyze_fourbar
from .ideals import groebner_basis, krull_dimension
from .oracle import halfbranch_count
from .parsing import parse_ideal, polynomial_to_string
from .polynomials import GREVLEX, LEX, MonomialOrder, block_order
from .report import build_report, machine_format, text_format
from .singular import singular_locus_ideal
from .zerodim import build, count_points

Q = Fraction


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse would exit(2); the contract wants 1
        raise UsageError(message)


def _load_ideal(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return parse_ideal(fh.read())
    except OSError as exc:
        raise UsageError(f"cannot read {path}: {exc}") from exc


def _parse_point(text: str, expected: int) -> list[Fraction]:
    coords = [_parse_fraction(p.strip()) for p in text.split(",")]
    if len(coords) != expected:
        raise UsageError(
            f"point has {len(coords)} coordinates but the ideal has {expected} variables"
        )
    return coords


def _parse_order(text: str, n: int) -> MonomialOrder:
    """The order named by text, for a ring of n variables."""
    if text == "lex":
        return LEX
    if text == "grevlex":
        return GREVLEX
    if text.startswith("elim:"):
        try:
            k = int(text.split(":", 1)[1])
        except ValueError as exc:
            raise UsageError(f"bad order {text!r}") from exc
        if not 0 < k < n:
            raise UsageError(f"bad order {text!r}: elim:K needs 1 <= K < {n}")
        return block_order(k)
    raise UsageError(f"unknown order {text!r} (use lex, grevlex, or elim:K)")


def _parse_fraction(text: str) -> Fraction:
    try:
        return Q(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise UsageError(f"bad rational {text!r}") from exc


def _max_depth(text: str) -> int:
    try:
        depth = int(text)
    except ValueError:
        depth = -1
    if depth < 0:
        raise argparse.ArgumentTypeError(f"max depth must be a nonnegative integer: {text!r}")
    return depth


def _emit_report(report: dict, fmt: str) -> None:
    if fmt == "machine":
        sys.stdout.write(machine_format(report))
    else:
        sys.stdout.write(text_format(report))


def _cmd_analyze(args) -> int:
    i = _load_ideal(args.ideal)
    point = _parse_point(args.point, len(i.variables))
    options = {"assume_radical": args.assume_radical, "max_depth": args.max_depth}
    started = time.perf_counter()
    classification = classify_point(
        i, point, assume_radical=args.assume_radical, max_depth=args.max_depth
    )
    report = build_report(
        classification, i, point, options, time.perf_counter() - started
    )
    _emit_report(report, args.format)
    return 0


def _cmd_gb(args) -> int:
    i = _load_ideal(args.ideal)
    order = _parse_order(args.order, len(i.variables))
    gb = groebner_basis(i, order)
    for g in gb.basis:
        sys.stdout.write(polynomial_to_string(g, order) + "\n")
    return 0


def _cmd_dim(args) -> int:
    i = _load_ideal(args.ideal)
    sys.stdout.write(f"{krull_dimension(i)}\n")
    return 0


def _cmd_singlocus(args) -> int:
    i = _load_ideal(args.ideal)
    j = singular_locus_ideal(i)
    for g in j.generators:
        sys.stdout.write(polynomial_to_string(g) + "\n")
    sys.stdout.write(f"dimension: {krull_dimension(j)}\n")
    return 0


def _cmd_realcount(args) -> int:
    i = _load_ideal(args.ideal)
    counts = count_points(build(i))
    sys.stdout.write(
        f"complex_distinct: {counts.complex_distinct}\n"
        f"real_distinct: {counts.real_distinct}\n"
    )
    return 0


def _cmd_fourbar(args) -> int:
    params = FourBarParams.of(
        _parse_fraction(args.l2),
        _parse_fraction(args.l4),
        _parse_fraction(args.l3) if args.l3 is not None else None,
    )
    options = {"l2": str(params.l2), "l3": str(params.l3), "l4": str(params.l4),
               "max_depth": args.max_depth}
    started = time.perf_counter()
    analysis = analyze_fourbar(params, max_depth=args.max_depth)
    report = build_report(
        analysis.classification,
        analysis.ideal,
        analysis.point,
        options,
        time.perf_counter() - started,
        extras={
            "fourbar": {
                "ideal_dimension": analysis.ideal_dimension,
                "singular_locus_dimension": analysis.singular_locus_dimension,
                "singular_point": ",".join(str(c) for c in analysis.point),
            }
        },
    )
    _emit_report(report, args.format)
    return 0


def _cmd_oracle(args) -> int:
    i = _load_ideal(args.ideal)
    point = _parse_point(args.point, len(i.variables))
    radii = None
    if args.radii:
        radii = [_parse_fraction(r) for r in args.radii.split(",")]
        if any(r <= 0 for r in radii):
            raise UsageError(f"radii must be positive: {args.radii!r}")
    count = halfbranch_count(i, point, radii)
    sys.stdout.write(f"{count}\n")
    return 0


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="realcurve",
        description="Exact manifold-point decisions for real algebraic curves over Q.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    analyze = sub.add_parser("analyze", help="classify a rational point of a curve")
    analyze.add_argument("--ideal", required=True, help="ideal file")
    analyze.add_argument("--point", required=True, help="rational coordinates c1,...,cn")
    analyze.add_argument("--assume-radical", action="store_true", dest="assume_radical")
    analyze.add_argument("--max-depth", type=_max_depth, default=6, dest="max_depth")
    analyze.add_argument("--format", choices=("text", "machine"), default="text")
    analyze.set_defaults(run=_cmd_analyze)

    gb = sub.add_parser("gb", help="reduced Groebner basis")
    gb.add_argument("--ideal", required=True)
    gb.add_argument("--order", default="grevlex", help="lex | grevlex | elim:K")
    gb.set_defaults(run=_cmd_gb)

    dim = sub.add_parser("dim", help="Krull dimension")
    dim.add_argument("--ideal", required=True)
    dim.set_defaults(run=_cmd_dim)

    singlocus = sub.add_parser("singlocus", help="singular locus ideal and dimension")
    singlocus.add_argument("--ideal", required=True)
    singlocus.set_defaults(run=_cmd_singlocus)

    realcount = sub.add_parser("realcount", help="real/complex point counts (0-dim)")
    realcount.add_argument("--ideal", required=True)
    realcount.set_defaults(run=_cmd_realcount)

    fourbar = sub.add_parser("fourbar", help="analyze a degenerate four-bar instance")
    fourbar.add_argument("--l2", required=True)
    fourbar.add_argument("--l4", required=True)
    fourbar.add_argument("--l3", default=None, help="defaults to l2+l4-2")
    fourbar.add_argument("--max-depth", type=_max_depth, default=6, dest="max_depth")
    fourbar.add_argument("--format", choices=("text", "machine"), default="text")
    fourbar.set_defaults(run=_cmd_fourbar)

    oracle = sub.add_parser("oracle", help="half-branch count via sphere probes")
    oracle.add_argument("--ideal", required=True)
    oracle.add_argument("--point", required=True)
    oracle.add_argument("--radii", default=None, help="comma-separated rationals")
    oracle.set_defaults(run=_cmd_oracle)

    return parser


def main(argv: Sequence[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return args.run(args)
    except UsageError as exc:
        print(f"usage error: {exc}", file=sys.stderr)
        return 1
    except RealCurveError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
