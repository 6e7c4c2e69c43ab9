"""Command-line front end.

Subcommands:
  coeff      print the c_k table (or one entry) for a composition
  verify     run an identity sweep, one JSON report line per instance
  linearize  print a linearization table (d, d-tilde or c-tilde)

Exit codes: 0 ok / all verified, 1 falsified value or identity (or a division
that leaves a remainder), 2 usage error, 3 method unsupported for the given
shape (a ShapeError), 141 stdout closed by its reader (128 + SIGPIPE, as
for ``| head``).  Only ``main`` maps exceptions to exit codes, by type.
Values are integers, emitted as decimal strings to keep precision.  Numbers
are read as ASCII digits only, by argparse through ``_count``: ``--r`` is
digit runs joined by commas (``composition``), and every integer option one
run; a sign, an underscore, a space or another script's digits, which ``int``
would take, is a usage error.  A ``verify`` bound left off the line is left to
``sweep``'s default.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import sys
from typing import Dict

from .coefficients import (
    C_METHODS,
    DEFAULT_C_METHOD,
    Composition,
    ShapeError,
    c_coeff,
    c_table,
    linearization_d,
)

_BASIS_VARIANTS = {
    "falling": "d",
    "binom": "d_tilde",
    "rising_over_binom": "c_tilde",
}


def _count(text: str) -> int:
    """An integer option's value: ASCII digits only, where ``int`` would also take
    a sign, underscores, spaces and non-ASCII digits."""
    if not (text.isascii() and text.isdigit()):
        raise argparse.ArgumentTypeError(f"expected ASCII digits, got {text!r}")
    return int(text)


def composition(text: str) -> Composition:
    """``--r``'s value: ``_count`` runs joined by commas, checked as a Composition; a
    ValueError there reads ``invalid composition value: '0,0'``."""
    return Composition([_count(run) for run in text.split(",")])


def _emit(values: Dict[int, int], fmt: str, k: int | None = None) -> None:
    """Print the table, or with k only its entry k: JSON of decimal strings, csv
    rows under ``k,value``, or text rows ``k value`` (the value alone for one k)."""
    keys = sorted(values) if k is None else [k]
    if fmt == "json":
        shown = {str(key): str(values[key]) for key in keys}
        print(json.dumps(shown if k is None else shown[str(k)], separators=(",", ":")))
    elif fmt == "csv":
        print("k,value", *(f"{key},{values[key]}" for key in keys), sep="\n")
    else:
        print(*(values[key] if k is not None else f"{key} {values[key]}" for key in keys), sep="\n")


def cmd_coeff(args: argparse.Namespace) -> int:
    if args.k is None:
        values = c_table(args.r, args.method).values
    else:
        values = {args.k: c_coeff(args.r, args.k, args.method)}
    bad = [k for k, v in values.items() if k <= args.r.total and v < 1]
    if bad:
        raise ArithmeticError(f"c_k({args.r}) is not a positive integer at k={bad}")
    _emit(values, args.format, args.k)
    return 0


def cmd_verify(args: argparse.Namespace) -> int:
    from .identities import sweep  # loaded here: coeff and linearize never need it

    # sweep rejects a bad id or grid when called, before any report is printed; an
    # option left off the line is absent from args, so sweep's default applies
    reports = sweep(args.id, **{name: v for name, v in vars(args).items() if name not in ("id", "func")})
    all_ok = True
    for report in reports:
        print(report.to_json_line())
        all_ok &= report.verified
    return 0 if all_ok else 1


def cmd_linearize(args: argparse.Namespace) -> int:
    table = linearization_d(args.r, _BASIS_VARIANTS[args.basis])
    _emit(table.values, args.format)
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="genbinom",
        description="Exact generalized binomial coefficients, linearization tables, and identity sweeps.",
    )
    sub = parser.add_subparsers(dest="command", required=True)
    parser.set_defaults(commands=sub.choices)  # command -> its parser, read back by main

    p_coeff = sub.add_parser("coeff", help="print c_k values for a composition")
    p_coeff.add_argument("--r", type=composition, required=True, help="composition, e.g. 2,1")
    p_coeff.add_argument("--k", type=_count, default=None, help="single k instead of the whole table")
    p_coeff.add_argument("--method", choices=C_METHODS, default=DEFAULT_C_METHOD)
    p_coeff.add_argument("--format", choices=("json", "csv", "text"), default="json")
    p_coeff.set_defaults(func=cmd_coeff)

    p_verify = sub.add_parser("verify", help="sweep one identity over bounded parameters",
                              argument_default=argparse.SUPPRESS)
    p_verify.add_argument("--id", required=True, help="identity name")
    p_verify.add_argument("--n-max", type=_count)
    p_verify.add_argument("--m-max", type=_count)
    p_verify.add_argument("--r-max", type=_count)
    p_verify.add_argument("--n", type=_count, help="verify at one n only")
    p_verify.add_argument("--p", type=_count, help="fix p (las0pp only)")
    p_verify.add_argument("--r", type=composition, help="fix the composition, e.g. 2,1")
    p_verify.set_defaults(func=cmd_verify)

    p_lin = sub.add_parser("linearize", help="print a linearization table")
    p_lin.add_argument("--r", type=composition, required=True, help="composition, e.g. 2,2")
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
    argv = sys.argv[1:] if argv is None else argv
    # str(int) refuses more than 4300 digits from Python 3.10.7 on; a table within
    # TABLE_SIZE_MAX has values of up to 6053 digits (c_k, d~ and c~ at (1,)*2000)
    if hasattr(sys, "set_int_max_str_digits"):
        sys.set_int_max_str_digits(0)
    parser = _parser()
    # a known command's own parser reads the rest of the line, so the line is
    # parsed once; the top-level parser prints help or rejects the command
    command = parser.get_default("commands").get(argv[0]) if argv else None
    try:
        args = command.parse_args(argv[1:]) if command else parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:  # the one place where an exception's type picks the exit code
        code = args.func(args)
        sys.stdout.flush()  # a closed pipe raises here, inside the handler
        return code
    except BrokenPipeError:  # fd 1 to devnull: the interpreter's exit flush cannot raise again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (ValueError, ArithmeticError) as exc:  # ArithmeticError: a falsified value
        print(f"error: {exc}", file=sys.stderr)
        if isinstance(exc, ShapeError):  # the route does not take the composition's shape
            return 3
        return 2 if isinstance(exc, ValueError) else 1  # any other rejected input: usage error


if __name__ == "__main__":
    sys.exit(main())
