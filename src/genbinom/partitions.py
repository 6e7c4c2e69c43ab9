"""Integer partitions and their classical statistics.

A partition is a weakly decreasing sequence of positive integers, kept here
in multiplicity form: the (part, multiplicity) pairs by decreasing part.
The statistics carried with it are the ones that weight partition sums: the
length and the centralizer size z = prod_i i^{m_i} m_i!.

`partitions_of` is the one enumerator and the one computation of z: it
yields each partition of n in multiplicity form with its length and z,
carried from step to step, and builds no object.
`ferrers_poly` is the one Ferrers-diagram product, read by `ferrers_choose`
and by the class-size tables of `identities`.
"""

from __future__ import annotations

import math
from typing import Iterable, Iterator, List, Sequence, Tuple

from .exactnum import as_int


def partitions_of(n: int, max_part: int | None = None) -> Iterator[Tuple[Tuple[Tuple[int, int], ...], int, int]]:
    """Yield (mults, length, z) for every partition of n exactly once, in
    reverse-lexicographic order: mults lists the (part, multiplicity) pairs
    by decreasing part, length is l(mu) and z the centralizer size z_mu.
    A max_part t >= 1 keeps those with parts <= t, the conjugates of those
    with at most t parts: the walk starts at (t^q, rest), n = q t + rest, the
    first of them in this order, so it visits only their suffix.

    This is the multiplicity form of Zoghbi and Stojmenovic's ZS1 (1998;
    Knuth, TAOCP 4A, 7.2.1.4): the next partition takes one copy of the
    smallest part j > 1, adds it to the trailing ones and refills them with
    parts j - 1 and one remainder part.  Each pair keeps the length and z
    of the pairs up to it, so a step touches only the pairs it changes and
    no object is built.  n = 0 yields the empty partition; the fixed order
    keeps sweep logs diffable.  n and max_part are read by `as_int` first, so
    a non-integer raises its ValueError, not the range rule's.
    """
    n, max_part = as_int(n), None if max_part is None else as_int(max_part)
    if n < 0 or (max_part is not None and max_part < 1):
        raise ValueError(f"partitions_of: need n >= 0 and max_part >= 1, got n={n}, max_part={max_part}")
    mults: List[Tuple[int, int]] = []
    prefix = [(0, 1)]  # (length, z) of mults[:i], i = 0..len(mults)

    def push(part: int, mult: int) -> None:
        length, z = prefix[-1]
        mults.append((part, mult))
        prefix.append((length + mult, z * part**mult * math.factorial(mult)))

    def pop() -> Tuple[int, int]:
        prefix.pop()
        return mults.pop()

    top = min(max_part or n, n)
    if top:
        q, rest = divmod(n, top)
        push(top, q)
        if rest:
            push(rest, 1)
    while True:
        yield (tuple(mults), *prefix[-1])
        ones = pop()[1] if mults and mults[-1][0] == 1 else 0
        if not mults:
            return
        part, mult = pop()
        if mult > 1:
            push(part, mult - 1)
        refill, rest = divmod(ones + part, part - 1)
        push(part - 1, refill)
        if rest:
            push(rest, 1)


def ferrers_poly(mults: Iterable[Tuple[int, int]], n: int) -> List[int]:
    """Coefficients of x^0..x^n in prod_j ((1+x)^j - 1)^{m_j}, for the
    (part j, multiplicity m_j) pairs of a partition of n: the coefficient of
    x^p counts the p-cell choices in its Ferrers diagram that hit every row.

    The coefficients are nonnegative and add up to prod_j (2^j - 1)^{m_j}
    <= 2^n, so each fits in n + 1 bits: the product is taken as one integer
    at x = 2^(n+1) (Kronecker substitution) and its bit fields are read off.
    """
    width = n + 1
    base = 1 << width
    value = 1
    for part, mult in mults:
        value *= ((1 + base) ** part - 1) ** mult
    mask = base - 1
    return [(value >> (width * p)) & mask for p in range(n + 1)]


def ferrers_choose(mults: Sequence[Tuple[int, int]], p: int) -> int:
    """Number of ways to pick p cells of the Ferrers diagram of the partition
    with (part, multiplicity) pairs mults hitting every row at least once:
    the coefficient of x^p in `ferrers_poly`.

    For the empty partition the product is empty, so p = 0 gives 1 and every
    p > 0 gives 0.
    """
    p = as_int(p)
    n = sum(part * mult for part, mult in mults)
    if p < 0 or p < sum(mult for _, mult in mults) or p > n:
        # fewer picks than rows, or more picks than cells
        return 0
    return ferrers_poly(mults, n)[p]
