"""Command-line front end.

Subcommands:
  coeff      print the c_k table (or one entry) for a composition
  verify     run an identity sweep, one JSON report line per instance
  linearize  print a linearization table (d, d-tilde or c-tilde)

Exit codes: 0 ok / all verified, 1 falsified value or identity (or a division
that leaves a remainder), 2 usage error, 3 method unsupported for the given
shape.  Values are integers, emitted as decimal strings to keep precision.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from typing import Dict

from .coefficients import (
    C_METHODS,
    DEFAULT_C_METHOD,
    Composition,
    c_coeff,
    c_table,
    linearization_d,
)
from .identities import sweep

_BASIS_VARIANTS = {
    "falling": "d",
    "binom": "d_tilde",
    "rising_over_binom": "c_tilde",
}


def _emit_table(values: Dict[int, int], fmt: str) -> None:
    keys = sorted(values)
    if fmt == "json":
        print(json.dumps({str(k): str(values[k]) for k in keys}, separators=(",", ":")))
    elif fmt == "csv":
        print("k,value")
        for k in keys:
            print(f"{k},{values[k]}")
    else:
        for k in keys:
            print(f"{k} {values[k]}")


def _emit_scalar(k: int, v: int, fmt: str) -> None:
    if fmt == "json":
        print(json.dumps(str(v)))
    elif fmt == "csv":
        print("k,value")
        print(f"{k},{v}")
    else:
        print(v)


def cmd_coeff(args: argparse.Namespace) -> int:
    r = Composition.parse(args.r)
    if args.k is not None and args.k < 1:
        raise ValueError(f"k must be positive, got {args.k}")
    try:  # shape rules live in the library, e.g. hyp3f2 needs m = 2
        if args.k is None:
            values = c_table(r, args.method).values
        else:
            values = {args.k: c_coeff(r, args.k, args.method)}
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3
    bad = [k for k, v in values.items() if k <= r.total and v < 1]
    if bad:
        print(f"error: c_k({r}) is not a positive integer at k={bad}", file=sys.stderr)
        return 1
    if args.k is None:
        _emit_table(values, args.format)
    else:
        _emit_scalar(args.k, values[args.k], args.format)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    # sweep rejects a bad id or grid when called, before any report is printed
    reports = sweep(
        args.id,
        n_max=args.n_max,
        m_max=args.m_max,
        r_max=args.r_max,
        n=args.n,
        p=args.p,
        r=None if args.r is None else Composition.parse(args.r),
    )
    all_ok = True
    for report in reports:
        print(report.to_json_line())
        all_ok &= report.verified
    return 0 if all_ok else 1


def cmd_linearize(args: argparse.Namespace) -> int:
    table = linearization_d(Composition.parse(args.r), _BASIS_VARIANTS[args.basis])
    _emit_table(table.values, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbinom",
        description="Exact generalized binomial coefficients, linearization tables, and identity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_coeff = sub.add_parser("coeff", help="print c_k values for a composition")
    p_coeff.add_argument("--r", required=True, help="composition, e.g. 2,1")
    p_coeff.add_argument("--k", type=int, default=None, help="single k instead of the whole table")
    p_coeff.add_argument("--method", choices=C_METHODS, default=DEFAULT_C_METHOD)
    p_coeff.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_coeff.set_defaults(func=cmd_coeff)

    p_verify = sub.add_parser("verify", help="sweep one identity over bounded parameters")
    p_verify.add_argument("--id", required=True, help="identity name")
    p_verify.add_argument("--n-max", type=int, default=6)
    p_verify.add_argument("--m-max", type=int, default=2)
    p_verify.add_argument("--r-max", type=int, default=3)
    p_verify.add_argument("--n", type=int, default=None, help="verify at one n only")
    p_verify.add_argument("--p", type=int, default=None, help="fix p (las0pp only)")
    p_verify.add_argument("--r", default=None, help="fix the composition, e.g. 2,1")
    p_verify.set_defaults(func=cmd_verify)

    p_lin = sub.add_parser("linearize", help="print a linearization table")
    p_lin.add_argument("--r", required=True, help="composition, e.g. 2,2")
    p_lin.add_argument(
        "--basis",
        choices=tuple(_BASIS_VARIANTS),
        default="falling",
        help="falling -> d, binom -> d-tilde, rising_over_binom -> c-tilde",
    )
    p_lin.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_lin.set_defaults(func=cmd_linearize)

    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one parser of this process: building it costs ten times a parse."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:  # every rejected input (composition, k, identity id, bounds) is a usage error
        return args.func(args)
    except (ValueError, ArithmeticError) as exc:  # ArithmeticError: a falsified value
        print(f"error: {exc}", file=sys.stderr)
        return 2 if isinstance(exc, ValueError) else 1


if __name__ == "__main__":
    sys.exit(main())
