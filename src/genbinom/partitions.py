"""Integer partitions and their classical statistics.

A partition is a weakly decreasing sequence of positive integers.  The
statistics cached here are the ones that weight partition sums: the length,
the multiplicities of each part value, and the centralizer size
z = prod_i i^{m_i} m_i!.  Partitions are immutable values, so enumeration
results can be handed to parallel workers freely.

`partition_mults` is the one enumerator and the one computation of z: it
yields each partition of n in multiplicity form with its length and z,
carried from step to step, and builds no object; `partitions_of` wraps its
output in `Partition`s.
`ferrers_poly` is the one Ferrers-diagram product, read by `ferrers_choose`
and by the class-size tables of `identities`.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, Iterator, List, Sequence, Tuple

from .exactnum import as_int


class Partition:
    """Weakly decreasing positive parts with cached multiplicities."""

    __slots__ = ("parts", "n", "length", "mults")

    def __init__(self, parts: Sequence[int] = ()):
        parts = tuple(map(as_int, parts))
        for a, b in zip(parts, parts[1:]):
            if a < b:
                raise ValueError(f"parts must be weakly decreasing: {parts}")
        if parts and parts[-1] <= 0:
            raise ValueError(f"parts must be positive: {parts}")
        self.parts: Tuple[int, ...] = parts
        self.n: int = sum(parts)
        self.length: int = len(parts)
        mults: Dict[int, int] = {}
        for p in parts:
            mults[p] = mults.get(p, 0) + 1
        self.mults = mults

    def __iter__(self):
        return iter(self.parts)

    def __len__(self) -> int:
        return self.length

    def __eq__(self, other) -> bool:
        return isinstance(other, Partition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Partition({list(self.parts)})"

    def __str__(self) -> str:
        """Comma-separated decreasing part list, e.g. "3,1,1"."""
        return ",".join(str(p) for p in self.parts)


def partition_mults(n: int) -> Iterator[Tuple[Tuple[Tuple[int, int], ...], int, int]]:
    """Yield (mults, length, z) for every partition of n exactly once, in
    reverse-lexicographic order: mults lists the (part, multiplicity) pairs
    by decreasing part, length is l(mu) and z the centralizer size z_mu.

    This is the multiplicity form of Zoghbi and Stojmenovic's ZS1 (1998;
    Knuth, TAOCP 4A, 7.2.1.4): the next partition takes one copy of the
    smallest part j > 1, adds it to the trailing ones and refills them with
    parts j - 1 and one remainder part.  Each pair keeps the length and z
    of the pairs up to it, so a step touches only the pairs it changes and
    no `Partition` is built.  n = 0 yields the empty partition.
    """
    if n < 0:
        raise ValueError(f"partition_mults: n must be nonnegative, got {n}")
    mults: List[Tuple[int, int]] = []
    prefix = [(0, 1)]  # (length, z) of mults[:i], i = 0..len(mults)

    def push(part: int, mult: int) -> None:
        length, z = prefix[-1]
        mults.append((part, mult))
        prefix.append((length + mult, z * part**mult * math.factorial(mult)))

    def pop() -> Tuple[int, int]:
        prefix.pop()
        return mults.pop()

    if n:
        push(n, 1)
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


def partitions_of(n: int) -> Iterator[Partition]:
    """Yield every partition of n exactly once, in reverse-lexicographic order,
    as read from `partition_mults`.

    n = 0 yields the single empty partition.  The fixed order keeps sweep
    logs diffable.
    """
    for mults, _, _ in partition_mults(n):
        yield Partition([part for part, mult in mults for _ in range(mult)])


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


def ferrers_choose(mu: Partition, p: int) -> int:
    """Number of ways to pick p cells of the Ferrers diagram of mu hitting
    every row at least once: the coefficient of x^p in `ferrers_poly`.

    For the empty partition the product is empty, so p = 0 gives 1 and every
    p > 0 gives 0.
    """
    if p < 0 or p < mu.length or p > mu.n:
        # fewer picks than rows, or more picks than cells
        return 0
    return ferrers_poly(mu.mults.items(), mu.n)[p]
