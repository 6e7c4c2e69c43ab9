from fractions import Fraction
from typing import Dict, Iterator, Sequence, Tuple

import pytest

from genbinom.exactnum import as_int, binomial, factorial
from genbinom.partitions import ferrers_choose, partitions_of
from genbinom.polybasis import UPoly, shifted_binom_poly


# The package's former partition object, kept verbatim as the reference that
# the old loops and the recursion below are written against.

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


def partition_objects(n: int) -> Iterator[Partition]:
    """Each multiplicity form that `partitions_of` yields, as a `Partition`."""
    for mults, _, _ in partitions_of(n):
        yield Partition([part for part, mult in mults for _ in range(mult)])


def z_mu(mu: Partition) -> int:
    """Centralizer size prod_i i^{m_i(mu)} * m_i(mu)!: the reference for the
    z that `partitions_of` carries step to step."""
    out = 1
    for part, mult in mu.mults.items():
        out *= part**mult
        for j in range(2, mult + 1):
            out *= j
    return out


def count_partitions_dp(n):
    """Independent counter: p(n, k) = partitions of n with parts <= k."""
    table = [[0] * (n + 1) for _ in range(n + 1)]
    for k in range(n + 1):
        table[0][k] = 1
    for total in range(1, n + 1):
        for k in range(1, n + 1):
            table[total][k] = table[total][k - 1]
            if total >= k:
                table[total][k] += table[total - k][k]
    return table[n][n]


def test_partitions_of_4_order():
    got = [p.parts for p in partition_objects(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_counts_against_dp():
    for n in range(11):
        listed = list(partitions_of(n))
        assert len(listed) == count_partitions_dp(n)
        assert len(set(listed)) == len(listed)
    assert len(list(partitions_of(8))) == 22


def test_partitions_of_zero():
    assert list(partitions_of(0)) == [((), 0, 1)]


def test_partition_statistics_consistent():
    for n in range(9):
        for mults, length, _ in partitions_of(n):
            assert sum(m for _, m in mults) == length
            assert sum(i * m for i, m in mults) == n
            parts = [part for part, _ in mults]
            assert parts == sorted(set(parts), reverse=True)
            assert all(part > 0 and m > 0 for part, m in mults)


def test_z_mu_values():
    assert z_mu(Partition([2, 1, 1])) == 4
    for n in range(1, 7):
        assert z_mu(Partition([1] * n)) == factorial(n)
        assert z_mu(Partition([n])) == n


def test_macdonald_weighted_sum():
    # sum over |mu|=n of X^l(mu)/z_mu equals binomial(X+n-1, n)
    for n in range(1, 13):
        acc = UPoly.zero()
        for _, length, z in partitions_of(n):
            acc = acc + UPoly([0] * length + [Fraction(1, z)])
        assert acc == shifted_binom_poly(n, 0)


def test_ferrers_choose_values():
    mu = ((2, 1), (1, 1))
    assert ferrers_choose(mu, 2) == 2  # expand (2x+x^2)(x)
    assert ferrers_choose(mu, 3) == 1
    for n in range(1, 8):
        row = ((n, 1),)
        for p in range(1, n + 1):
            assert ferrers_choose(row, p) == binomial(n, p)


def test_ferrers_choose_support():
    for n in range(7):
        for mults, length, _ in partitions_of(n):
            assert ferrers_choose(mults, length - 1) == 0
            assert ferrers_choose(mults, n + 1) == 0
            assert ferrers_choose(mults, -1) == 0


def test_ferrers_choose_total():
    # generating polynomial evaluated at x=1
    for n in range(8):
        for mults, _, _ in partitions_of(n):
            total = sum(ferrers_choose(mults, p) for p in range(n + 1))
            expected = 1
            for part, mult in mults:
                expected *= (2**part - 1) ** mult
            assert total == expected


def test_ferrers_choose_at_zero():
    assert ferrers_choose((), 0) == 1
    for n in range(1, 6):
        for mults, _, _ in partitions_of(n):
            assert ferrers_choose(mults, 0) == 0


# The descending-parts recursion and the truncated Ferrers product that the
# multiplicity-form enumerator and `ferrers_poly` replaced, kept verbatim.

def _old_partitions_of(n: int):
    """Yield every partition of n exactly once, in reverse-lexicographic order.

    n = 0 yields the single empty partition.  The descending-parts recursion
    makes the order deterministic, which keeps sweep logs diffable.
    """
    if n < 0:
        raise ValueError(f"partitions_of: n must be nonnegative, got {n}")

    def gen(remaining: int, max_part: int):
        if remaining == 0:
            yield ()
            return
        for part in range(min(remaining, max_part), 0, -1):
            for rest in gen(remaining - part, part):
                yield (part,) + rest

    for parts in gen(n, n):
        yield Partition(parts)


def _mul_trunc(a: list, b: list, cap: int) -> list:
    out = [0] * min(len(a) + len(b) - 1, cap + 1)
    for i, ca in enumerate(a):
        if not ca:
            continue
        for j, cb in enumerate(b):
            if i + j > cap:
                break
            out[i + j] += ca * cb
    return out


def _old_ferrers_choose(mu: Partition, p: int) -> int:
    if p < 0 or p < mu.length or p > mu.n:
        # fewer picks than rows, or more picks than cells
        return 0
    poly = [1]
    for part, mult in sorted(mu.mults.items()):
        row = [binomial(part, j) for j in range(part + 1)]
        row[0] -= 1  # (1+x)^part - 1
        for _ in range(mult):
            poly = _mul_trunc(poly, row, p)
    return poly[p] if p < len(poly) else 0


def test_partitions_of_matches_recursion_reference():
    for n in range(21):
        got = [mults for mults, _, _ in partitions_of(n)]
        assert got == [tuple(mu.mults.items()) for mu in _old_partitions_of(n)], n


def test_partition_mults_statistics():
    for n in range(21):
        rows = list(partitions_of(n))
        expected = list(_old_partitions_of(n))
        assert len(rows) == len(expected), n
        for (_, length, z), mu in zip(rows, expected):
            assert (length, z) == (mu.length, z_mu(mu)), (n, mu)


def test_partition_mults_rejects_negative():
    with pytest.raises(ValueError):
        next(partitions_of(-1))


def _conjugate(mults) -> Tuple[int, ...]:
    """The parts of the conjugate of the partition with (part, multiplicity)
    pairs mults: its i-th part counts the parts >= i."""
    parts = [part for part, mult in mults for _ in range(mult)]
    return tuple(sum(1 for q in parts if q >= i) for i in range(1, (parts or [0])[0] + 1))


def test_max_part_walks_the_bounded_suffix():
    # ZS1 started at (t^q, rest), n = q t + rest, walks exactly the suffix of the
    # unbounded order whose parts are <= t, with the same length and z; their
    # conjugates are exactly the partitions with at most t parts
    for n in range(26):
        full = list(partitions_of(n))
        for t in range(1, 27):
            got = list(partitions_of(n, t))
            assert got == full[len(full) - len(got):], (n, t)
            assert got == [row for row in full if all(part <= t for part, _ in row[0])], (n, t)
            at_most_t = {tuple(mu.parts) for mu in partition_objects(n) if mu.length <= t}
            assert {_conjugate(mults) for mults, _, _ in got} == at_most_t, (n, t)
    with pytest.raises(ValueError):
        next(partitions_of(3, 0))


def test_ferrers_choose_matches_truncated_product():
    for n in range(13):
        for mu in partition_objects(n):
            for p in range(-1, n + 2):
                assert ferrers_choose(tuple(mu.mults.items()), p) == _old_ferrers_choose(mu, p), (mu, p)
