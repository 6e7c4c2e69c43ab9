"""Output checks, computed independently of the package under test.

Every check uses its own closed forms and plain integer/Fraction arithmetic
and calls nothing in ``genbinom``, so it neither shares a bug with the
route that served a request nor warms that route's memos.  A check returns
None when the output is right and a short reason otherwise.
"""

from __future__ import annotations

import json
from fractions import Fraction
from functools import lru_cache
from math import comb, prod
from typing import Dict, List, Optional, Sequence, Tuple


@lru_cache(maxsize=None)
def reference_c(parts: Tuple[int, ...]) -> Dict[int, int]:
    """c_k(r) for k = 1..|r| by the explicit alternating sum
    c_k = |r| sum_i (-1)^(k-i) C(k-1, i-1)/i prod_l C(r_l+i-1, r_l)."""
    total = sum(parts)
    inner = [Fraction(prod(comb(r + i - 1, r) for r in parts), i) for i in range(1, total + 1)]
    out = {}
    for k in range(1, total + 1):
        acc = sum((-1) ** (k - i) * comb(k - 1, i - 1) * inner[i - 1] for i in range(1, k + 1))
        value = total * acc
        if value.denominator != 1:
            raise ArithmeticError(f"reference c_{k}({list(parts)}) = {value} is not an integer")
        out[k] = value.numerator
    return out


def _falling(x: int, n: int) -> int:
    return prod(x - i for i in range(n))


# Each linearize basis b: the product side prod_i f(x, r_i) and the basis
# the table expands it in, g(x, k).
_LINEARIZE = {
    "falling": (_falling, _falling),
    "binom": (comb, comb),
    "rising_over_binom": (lambda x, r: comb(x + r - 1, r) if r else 1, comb),
}


def _argmap(argv: Sequence[str]) -> Dict[str, str]:
    return dict(zip(argv[1::2], argv[2::2]))


def _parts(text: str) -> List[int]:
    return [int(s) for s in text.split(",")]


def _positive_table(values: Dict[str, str], parts: Sequence[int]) -> Optional[str]:
    """A full c table: keys 1..|r|, each a positive integer equal to the
    reference."""
    ref = reference_c(tuple(parts))
    if sorted(values, key=int) != [str(k) for k in ref]:
        return f"keys {sorted(values, key=int)} are not 1..{sum(parts)}"
    for k, want in ref.items():
        got = values[str(k)]
        if not got.isdigit() or int(got) < 1:
            return f"c_{k} = {got!r} is not a positive integer"
        if int(got) != want:
            return f"c_{k} = {got}, expected {want}"
    return None


def check_coeff(argv: Sequence[str], out: str) -> Optional[str]:
    """`coeff --r R [--k K] [--format json|csv]`."""
    args = _argmap(argv)
    parts = _parts(args["--r"])
    if "--k" in args:
        k = int(args["--k"])
        got = json.loads(out)
        want = reference_c(tuple(parts)).get(k, 0)
        return None if got == str(want) else f"c_{k} = {got!r}, expected {want}"
    if args.get("--format") == "csv":
        lines = out.splitlines()
        if not lines or lines[0] != "k,value":
            return "missing csv header"
        values = dict(line.split(",", 1) for line in lines[1:])
    else:
        values = json.loads(out)
    return _positive_table(values, parts)


def check_linearize(argv: Sequence[str], out: str) -> Optional[str]:
    """`linearize --r R --basis B`: re-expand sum_k t_k g(x, k) and compare
    it with the product prod_i f(x, r_i).  Both sides have degree at most
    |r|, so agreeing at the |r|+1 points x = 0..|r| proves them equal."""
    args = _argmap(argv)
    parts = _parts(args["--r"])
    factor, basis = _LINEARIZE[args["--basis"]]
    table = {int(k): Fraction(v) for k, v in json.loads(out).items()}
    total = sum(parts)
    if not table or not all(1 <= k <= total for k in table):
        return f"keys {sorted(table)} outside 1..{total}"
    for x in range(total + 1):
        lhs = prod(factor(x, r) for r in parts)
        rhs = sum(v * basis(x, k) for k, v in table.items())
        if lhs != rhs:
            return f"re-expansion differs at x = {x}: {rhs} != {lhs}"
    return None


def expected_verify_lines(argv: Sequence[str]) -> int:
    """`verify` with --n/--p/--r fixed checks one instance, except
    `injections`, which checks k = 0..n."""
    args = _argmap(argv)
    return int(args["--n"]) + 1 if args["--id"] == "injections" else 1


def check_verify(argv: Sequence[str], out: str) -> Optional[str]:
    """Exactly the expected number of report lines, each for the requested
    id and each `verified`.  A run that checks nothing is a failure."""
    ident = _argmap(argv)["--id"]
    lines = out.splitlines()
    want = expected_verify_lines(argv)
    if len(lines) != want:
        return f"{len(lines)} report lines, expected {want}"
    for line in lines:
        report = json.loads(line)
        if report.get("id") != ident or report.get("status") != "verified":
            return f"bad report {line!r}"
    return None


def check_cli(argv: Sequence[str], result) -> Optional[str]:
    """Check one `("cli", argv)` request; ``result`` is (exit code, stdout)."""
    code, out = result
    if code != 0:
        return f"exit code {code}"
    if not out.strip():
        return "empty output"
    checker = {"coeff": check_coeff, "linearize": check_linearize, "verify": check_verify}[argv[0]]
    try:
        return checker(argv, out)
    except (ValueError, KeyError, TypeError, AttributeError) as exc:
        return f"unreadable output: {exc!r}"


def check_c_table(parts: Sequence[int], values) -> Optional[str]:
    """Check one `("c_table", parts, method)` request; ``values`` maps k to
    the route's exact value.  Comparing every route with the same reference
    also makes all routes of a composition agree with each other."""
    try:
        table = {str(k): str(v) for k, v in values.items()}
    except AttributeError:
        return f"not a table: {values!r}"
    return _positive_table(table, parts)


def check(request, result) -> Optional[str]:
    if request[0] == "cli":
        return check_cli(request[1], result)
    return check_c_table(request[1], result)
