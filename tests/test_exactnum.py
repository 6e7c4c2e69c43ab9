from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from genbinom.coefficients import Composition
from genbinom.exactnum import (
    binomial,
    factorial,
    falling,
    forward_differences,
    int_str,
    multinomial,
    rat_str,
    rising,
)
from genbinom.partitions import partitions_of
from genbinom.polybasis import UPoly
from genbinom.series import MPoly


def test_binomial_values():
    assert binomial(5, 2) == 10
    assert binomial(3, 5) == 0
    assert binomial(0, 0) == 1
    assert binomial(4, -1) == 0


def test_binomial_negative_n_rejected():
    with pytest.raises(ValueError):
        binomial(-1, 0)


@pytest.mark.parametrize("k", [4.5, -0.5, 1.5])
def test_binomial_reads_k_as_an_integer(k):
    # outside 0..n a float k gave 0, inside it a bare TypeError from math.comb
    with pytest.raises(ValueError, match=f"^expected an integer, got {k}$"):
        binomial(3, k)


def test_factorial_family_values():
    assert rising(2, 3) == 24  # 2*3*4
    assert falling(2, 3) == 0  # factor (2-2)
    assert falling(-2, 2) == 6
    assert rising(2, 2) == 6
    assert rising(Fraction(1, 2), 2) == Fraction(3, 4)
    assert falling(Fraction(7, 2), 0) == 1


def test_falling_vs_binomial():
    for x in range(13):
        for n in range(x + 1):
            assert falling(x, n) == factorial(n) * binomial(x, n)


rats = st.fractions(
    max_denominator=12,
    min_value=Fraction(-8),
    max_value=Fraction(8),
)


@given(rats, st.integers(min_value=0, max_value=8))
def test_falling_is_signed_rising(x, n):
    assert falling(-x, n) == (-1) ** n * rising(x, n)


def test_multinomial():
    assert multinomial(3, (2, 1)) == 3
    assert multinomial(4, (2, 2)) == 6
    assert multinomial(5, (5,)) == 1
    assert multinomial(0, ()) == 1
    with pytest.raises(ValueError):
        multinomial(4, (2, 1))
    with pytest.raises(ValueError):
        multinomial(3, (4, -1))


@given(st.lists(st.integers(min_value=-10**30, max_value=10**30), max_size=12))
def test_forward_differences_is_alternating_sum(values):
    # Delta^k f(0) = sum_j (-1)^(k-j) C(k, j) f(j), one entry per value
    assert forward_differences(values) == ref.alternating_sums(values)


@given(rats, rats, st.integers(min_value=0, max_value=6))
def test_results_stay_reduced(x, y, n):
    # Fraction keeps everything in lowest terms; re-reducing is a no-op
    q = Fraction(rising(x, n)) + Fraction(falling(y, n))
    assert Fraction(q.numerator, q.denominator) == q


def test_serialization():
    assert int_str(2**70) == str(2**70)
    assert rat_str(Fraction(3, 4)) == "3/4"
    assert rat_str(Fraction(5)) == "5/1"
    assert Fraction(rat_str(Fraction(-7, 12))) == Fraction(-7, 12)


@pytest.mark.parametrize("build", [
    lambda: Composition((2.9, 1)),
    lambda: Composition(("3",)),
    lambda: MPoly((2.5,)),
    lambda: MPoly((2,), {(1.9,): 1}),
    lambda: UPoly([0.1]),
    lambda: UPoly(["1/2"]),
])
def test_constructors_reject_non_integers(build):
    # truncating 2.9 to 2 would answer for another input
    with pytest.raises(ValueError):
        build()


def test_partitions_of_error_names_itself():
    with pytest.raises(ValueError, match="^partitions_of:"):
        next(partitions_of(-1))
