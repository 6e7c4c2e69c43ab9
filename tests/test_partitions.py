from fractions import Fraction

import pytest

from genbinom.exactnum import binomial, factorial
from genbinom.partitions import Partition, ferrers_choose, partition_mults, partitions_of
from genbinom.polybasis import UPoly, shifted_binom_poly


def z_mu(mu: Partition) -> int:
    """Centralizer size prod_i i^{m_i(mu)} * m_i(mu)!: the reference for the
    z that `partition_mults` carries step to step."""
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
    got = [p.parts for p in partitions_of(4)]
    assert got == [(4,), (3, 1), (2, 2), (2, 1, 1), (1, 1, 1, 1)]


def test_partition_counts_against_dp():
    for n in range(11):
        listed = list(partitions_of(n))
        assert len(listed) == count_partitions_dp(n)
        assert len(set(listed)) == len(listed)
    assert len(list(partitions_of(8))) == 22


def test_partitions_of_zero():
    only = list(partitions_of(0))
    assert len(only) == 1
    assert only[0].parts == ()


def test_partition_statistics_consistent():
    for n in range(9):
        for mu in partitions_of(n):
            assert mu.n == n
            assert sum(mu.mults.values()) == mu.length
            assert sum(i * m for i, m in mu.mults.items()) == n
            assert all(a >= b for a, b in zip(mu.parts, mu.parts[1:]))


def test_partition_validation():
    with pytest.raises(ValueError):
        Partition([1, 2])
    with pytest.raises(ValueError):
        Partition([2, 0])


def test_partition_serialization():
    assert str(Partition([3, 1, 1])) == "3,1,1"
    assert str(Partition()) == ""


def test_z_mu_values():
    assert z_mu(Partition([2, 1, 1])) == 4
    for n in range(1, 7):
        assert z_mu(Partition([1] * n)) == factorial(n)
        assert z_mu(Partition([n])) == n


def test_macdonald_weighted_sum():
    # sum over |mu|=n of X^l(mu)/z_mu equals binomial(X+n-1, n)
    for n in range(1, 13):
        acc = UPoly.zero()
        for mu in partitions_of(n):
            acc = acc + UPoly([0] * mu.length + [Fraction(1, z_mu(mu))])
        assert acc == shifted_binom_poly(n, 0)


def test_ferrers_choose_values():
    mu = Partition([2, 1])
    assert ferrers_choose(mu, 2) == 2  # expand (2x+x^2)(x)
    assert ferrers_choose(mu, 3) == 1
    for n in range(1, 8):
        row = Partition([n])
        for p in range(1, n + 1):
            assert ferrers_choose(row, p) == binomial(n, p)


def test_ferrers_choose_support():
    for n in range(7):
        for mu in partitions_of(n):
            assert ferrers_choose(mu, mu.length - 1) == 0
            assert ferrers_choose(mu, mu.n + 1) == 0
            assert ferrers_choose(mu, -1) == 0


def test_ferrers_choose_total():
    # generating polynomial evaluated at x=1
    for n in range(8):
        for mu in partitions_of(n):
            total = sum(ferrers_choose(mu, p) for p in range(mu.n + 1))
            expected = 1
            for part, mult in mu.mults.items():
                expected *= (2**part - 1) ** mult
            assert total == expected


def test_ferrers_choose_at_zero():
    assert ferrers_choose(Partition(), 0) == 1
    for n in range(1, 6):
        for mu in partitions_of(n):
            assert ferrers_choose(mu, 0) == 0


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
        got, expected = list(partitions_of(n)), list(_old_partitions_of(n))
        assert [mu.parts for mu in got] == [mu.parts for mu in expected], n
        assert [(mu.length, z_mu(mu)) for mu in got] == [(mu.length, z_mu(mu)) for mu in expected], n


def test_partition_mults_statistics():
    for n in range(21):
        rows = list(partition_mults(n))
        expected = list(_old_partitions_of(n))
        assert len(rows) == len(expected), n
        for (mults, length, z), mu in zip(rows, expected):
            assert mults == tuple(mu.mults.items()), (n, mu)
            assert (length, z) == (mu.length, z_mu(mu)), (n, mu)


def test_partition_mults_rejects_negative():
    for enumerate_ in (partition_mults, partitions_of):
        with pytest.raises(ValueError):
            next(enumerate_(-1))


def test_ferrers_choose_matches_truncated_product():
    for n in range(13):
        for mu in partitions_of(n):
            for p in range(-1, n + 2):
                assert ferrers_choose(mu, p) == _old_ferrers_choose(mu, p), (mu, p)
