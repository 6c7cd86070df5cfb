"""Command-line front end: evaluate expressions, print string functions,
run verification suites.

Exit codes: 0 success (verify: all selected cases pass), 1 verification
failures, 2 expression parse error, 3 evaluation error, 4 invalid string
label.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from fractions import Fraction

from . import expr as exprmod
from . import verify as verifymod
from .series import QSeries, format_series, series_to_json
from .strings import (
    C_full,
    InvalidLabel,
    StringLabel,
    calC_hecke,
    s_exponent,
    symmetry_reduce,
)

F = Fraction


def _parse_order(text: str) -> Fraction:
    try:
        r = Fraction(text)
    except (ValueError, ZeroDivisionError):
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}")
    if r <= 0:
        raise argparse.ArgumentTypeError("order must be positive")
    return r


def _print_series(s: QSeries, fmt: str) -> None:
    if fmt == "json":
        print(series_to_json(s))
    else:
        print(format_series(s))


def cmd_eval(args) -> int:
    try:
        ast = exprmod.parse(args.expr)
    except exprmod.ParseError as e:
        sys.stderr.write(f"parse error: {e}\n")
        sys.stderr.write(args.expr + "\n" + " " * e.position + "^\n")
        return 2
    try:
        s = exprmod.evaluate(ast, args.order)
    except exprmod.EvalError as e:
        sys.stderr.write(f"evaluation error: {e}\n")
        return 3
    _print_series(s, args.format)
    return 0


def cmd_string(args) -> int:
    try:
        lbl = StringLabel(args.N, args.ell, args.m)
    except InvalidLabel as e:
        sys.stderr.write(f"invalid label: {e}\n")
        return 4
    shown = lbl
    if not 0 <= lbl.m < 2 * lbl.N:
        shown = symmetry_reduce(lbl)
        sys.stderr.write(f"note: reduced to the canonical label "
                         f"(N={shown.N}, ell={shown.ell}, m={shown.m})\n")
    s_exp = s_exponent(shown)
    if args.normalized:
        series = calC_hecke(shown, args.order)
    else:
        series = C_full(shown, args.order)
    if args.format == "text":
        print(f"s = {s_exp}")
    _print_series(series, args.format)
    return 0


def cmd_verify(args) -> int:
    report = verifymod.run_suite(args.suite, order=args.order,
                                 jobs=args.jobs, filter=args.filter)
    if args.format == "json":
        print(verifymod.report_to_json(report, timings=args.timings))
    else:
        print(verifymod.report_to_text(report))
    return 0 if report.all_pass else 1


def cmd_list(args) -> int:
    cases = verifymod.list_cases(filter=args.filter)
    if args.format == "json":
        rows = [
            {
                "case_id": c.id,
                "suite": c.suite,
                "order": str(c.default_order),
                "lattice_den": c.lattice_den,
                "paper_ref": c.paper_ref,
            }
            for c in cases
        ]
        print(json.dumps(rows, indent=2, sort_keys=True))
    else:
        for c in cases:
            print(f"{c.id:<44} {c.suite:<20} order {c.default_order}")
        print(f"{len(cases)} cases")
    return 0


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """Built once per process: `parse_args` keeps no state between calls, so
    `main` stays re-entrant."""
    ap = argparse.ArgumentParser(
        prog="qstrings",
        description="Exact q-series: theta functions, Appell-Lerch sums, "
                    "Hecke-type double sums, and string functions.",
    )
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("eval", help="evaluate an expression to a truncated series")
    p.add_argument("expr")
    p.add_argument("--order", type=_parse_order, default=F(30))
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_eval)

    p = sub.add_parser("string", help="print a string function")
    p.add_argument("--N", type=int, required=True)
    p.add_argument("--ell", type=int, required=True)
    p.add_argument("--m", type=int, required=True)
    p.add_argument("--order", type=_parse_order, default=F(30))
    p.add_argument("--normalized", action="store_true",
                   help="print the normalized series without its q^s prefactor")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_string)

    p = sub.add_parser("verify", help="run identity verification suites")
    p.add_argument("--suite", choices=verifymod.SUITES + ("all",), default="all")
    p.add_argument("--order", type=_parse_order, default=None,
                   help="override every selected case's default order")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--filter", default=None, help="substring filter on case ids")
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.add_argument("--timings", action="store_true",
                   help="include per-case milliseconds in JSON output")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("list", help="list registered identity cases")
    p.add_argument("--filter", default=None)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_list)

    return ap


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    if getattr(args, "jobs", 1) < 1:
        sys.stderr.write("jobs must be >= 1\n")
        return 2
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
