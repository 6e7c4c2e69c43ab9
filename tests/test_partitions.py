from fractions import Fraction
from typing import Tuple

import pytest

import reference as ref
from genbinom.exactnum import binomial, factorial
from genbinom.partitions import ferrers_choose, partitions_of
from genbinom.polybasis import UPoly


def _parts(mults) -> Tuple[int, ...]:
    """The weakly decreasing parts of the partition with (part, multiplicity) pairs mults."""
    return tuple(part for part, mult in mults for _ in range(mult))


def _mults(mu) -> Tuple[Tuple[int, int], ...]:
    """The (part, multiplicity) pairs of the weakly decreasing parts mu."""
    return tuple((part, mu.count(part)) for part in dict.fromkeys(mu))


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
    got = [_parts(mults) for mults, _, _ in partitions_of(4)]
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
    assert ref.z((2, 1, 1)) == 4
    for n in range(1, 7):
        assert ref.z((1,) * n) == factorial(n)
        assert ref.z((n,)) == n


def test_macdonald_weighted_sum():
    # sum over |mu|=n of X^l(mu)/z_mu equals binomial(X+n-1, n) = X (X+1) ... (X+n-1) / n!
    for n in range(1, 13):
        acc = UPoly()
        for _, length, z in partitions_of(n):
            acc = acc + UPoly([0] * length + [Fraction(1, z)])
        assert acc == UPoly(ref.linear_product(range(n))).scale(Fraction(1, factorial(n)))


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


def test_partitions_of_matches_recursion_reference():
    for n in range(21):
        got = [mults for mults, _, _ in partitions_of(n)]
        assert got == [_mults(mu) for mu in ref.partitions(n)], n


def test_partitions_of_lengths_and_z_match_the_reference():
    for n in range(21):
        rows = list(partitions_of(n))
        expected = list(ref.partitions(n))
        assert len(rows) == len(expected), n
        for (_, length, z), mu in zip(rows, expected):
            assert (length, z) == (len(mu), ref.z(mu)), (n, mu)


def test_partitions_of_rejects_negative():
    with pytest.raises(ValueError):
        next(partitions_of(-1))


@pytest.mark.parametrize("args", [(2.5,), ("3",)])
def test_partitions_of_reads_integers(args):
    # n is read as an integer before the range rule, which keeps its message for
    # values of the right type
    with pytest.raises(ValueError, match="^expected an integer, got "):
        next(partitions_of(*args))
    with pytest.raises(ValueError, match="^partitions_of: n must be nonnegative, got -1$"):
        next(partitions_of(-1))


def test_ferrers_choose_matches_truncated_product():
    for n in range(13):
        for mu in ref.partitions(n):
            for p in range(-1, n + 2):
                assert ferrers_choose(_mults(mu), p) == ref.ferrers_choose(mu, p), (mu, p)
