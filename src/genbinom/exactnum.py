"""Exact integer and rational arithmetic primitives.

Arbitrary-precision integers are plain ``int``; exact rationals are
``fractions.Fraction`` (always in lowest terms, denominator positive).
No floating point is used anywhere in this package.

All functions here are pure and safe to call from concurrent contexts.
"""

from __future__ import annotations

import math
from fractions import Fraction
from operator import index, sub
from typing import Iterable, List, Sequence, Union

Rat = Union[int, Fraction]


def as_int(value) -> int:
    """``value`` as an int, for anything that is an integer; a float, a
    string or any other non-integer raises ValueError instead of being
    truncated or parsed."""
    try:
        return index(value)
    except TypeError:
        raise ValueError(f"expected an integer, got {value!r}") from None


def binomial(n: int, k: int) -> int:
    """Binomial coefficient C(n, k) for n >= 0.

    Returns 0 whenever k < 0 or k > n, so summation loops need no
    explicit range guards.
    """
    if n < 0:
        raise ValueError(f"binomial: n must be nonnegative, got {n}")
    if k < 0 or k > n:
        return 0
    return math.comb(n, k)


def factorial(n: int) -> int:
    if n < 0:
        raise ValueError(f"factorial: n must be nonnegative, got {n}")
    return math.factorial(n)


def rising(x: Rat, n: int) -> Rat:
    """Rising factorial x(x+1)...(x+n-1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"rising: n must be nonnegative, got {n}")
    out: Rat = 1
    for i in range(n):
        out *= x + i
    return out


def falling(x: Rat, n: int) -> Rat:
    """Falling factorial x(x-1)...(x-n+1); the empty product (n = 0) is 1."""
    if n < 0:
        raise ValueError(f"falling: n must be nonnegative, got {n}")
    out: Rat = 1
    for i in range(n):
        out *= x - i
    return out


def multinomial(n: int, parts: Iterable[int]) -> int:
    """n! / (a_1! ... a_j!) for nonnegative parts a_i with sum n."""
    parts = tuple(parts)
    if any(a < 0 for a in parts):
        raise ValueError(f"multinomial: parts must be nonnegative, got {parts}")
    if sum(parts) != n:
        raise ValueError(f"multinomial: parts {parts} do not sum to {n}")
    out = factorial(n)
    for a in parts:
        out //= factorial(a)
    return out


def forward_differences(values: Sequence[int]) -> List[int]:
    """Delta^k f(0) for k = 0..len(values)-1, given values = f(0), f(1), ...

    Taken as an integer difference table, one row per k: no products and
    no division, and Delta^k f(0) = sum_j (-1)^(k-j) C(k, j) f(j).
    """
    row, out = list(values), []
    while row:
        out.append(row[0])
        row = list(map(sub, row[1:], row))  # map stops at the shorter run
    return out


def int_str(n: int) -> str:
    """Decimal-string serialization of an integer."""
    return str(n)


def rat_str(q: Rat) -> str:
    """Serialize a rational as "num/den" (always with the slash)."""
    q = Fraction(q)
    return f"{q.numerator}/{q.denominator}"
