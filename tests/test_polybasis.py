from fractions import Fraction

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbinom.exactnum import binomial, factorial, rising
from genbinom.polybasis import (
    UPoly,
    binom_poly,
    delta_at_zero,
    falling_poly,
    from_falling_basis,
    rising_poly,
    shifted_binom_poly,
    to_falling_basis,
)


def test_basis_polys():
    assert falling_poly(2) == UPoly((0, -1, 1))  # X^2 - X
    assert shifted_binom_poly(2, 1) == UPoly((1, 1))  # X + 1
    assert rising_poly(0) == UPoly.one()
    assert rising_poly(2) == UPoly((0, 1, 1))
    assert falling_poly(0) == UPoly.one()
    assert binom_poly(2) == UPoly((0, Fraction(-1, 2), Fraction(1, 2)))


def test_shifted_binom_consistency():
    # binomial(X+n-1, n-k) evaluated at integers matches binomial()
    assert shifted_binom_poly(0, 0) == UPoly.one()
    for n in range(1, 7):
        for k in range(n + 1):
            p = shifted_binom_poly(n, k)
            assert p.degree <= n - k
            for x in range(8):
                assert p(x) == binomial(x + n - 1, n - k)
    with pytest.raises(ValueError):
        shifted_binom_poly(2, 3)


def test_delta_at_zero():
    sq = UPoly((0, 0, 1))
    assert delta_at_zero(sq, 1) == 1
    assert delta_at_zero(sq, 2) == 2
    assert delta_at_zero(sq, 3) == 0
    assert delta_at_zero(sq, 0) == 0


def test_to_falling_basis_values():
    assert to_falling_basis(rising_poly(2)) == {1: 2, 2: 1}
    assert to_falling_basis(falling_poly(3)) == {3: 1}
    assert to_falling_basis(UPoly.one()) == {0: 1}


def test_arith():
    x = UPoly.x()
    assert (x + UPoly.one()) * (x - UPoly.one()) == UPoly((-1, 0, 1))
    assert UPoly((0, -1, 1)) == falling_poly(2)
    assert (x + UPoly.one()).scale(Fraction(1, 2)) == UPoly((Fraction(1, 2), Fraction(1, 2)))
    assert x**3 == UPoly((0, 0, 0, 1))
    assert UPoly((1, 2))(Fraction(1, 2)) == 2


rational = st.fractions(max_denominator=6, min_value=Fraction(-5), max_value=Fraction(5))


@given(st.lists(rational, min_size=0, max_size=11))
def test_falling_basis_round_trip(coeffs):
    p = UPoly(coeffs)
    assert from_falling_basis(to_falling_basis(p)) == p


@given(st.lists(rational, max_size=8), st.lists(rational, max_size=8))
def test_mul_matches_fraction_convolution(a, b):
    expected = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            expected[i + j] += x * y
    assert UPoly(a) * UPoly(b) == UPoly(expected)


@given(st.lists(rational, max_size=4), st.integers(min_value=0, max_value=9))
def test_pow_matches_repeated_product(coeffs, e):
    p, expected = UPoly(coeffs), UPoly.one()
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


def _falling_basis_by_deltas(p):
    """Reference Newton coefficients: one delta_at_zero per k."""
    out = {}
    for k in range(p.degree + 1):
        a = delta_at_zero(p, k) / factorial(k)
        if a:
            out[k] = a
    return out


@given(st.lists(st.fractions(max_denominator=30, min_value=-50, max_value=50), max_size=12))
def test_to_falling_basis_matches_delta_reference(coeffs):
    p = UPoly(coeffs)
    newton = to_falling_basis(p)
    assert newton == _falling_basis_by_deltas(p)
    assert all(isinstance(a, Fraction) for a in newton.values())


def test_to_falling_basis_zero_and_constant():
    assert to_falling_basis(UPoly.zero()) == {}
    assert to_falling_basis(UPoly((Fraction(-7, 3),))) == {0: Fraction(-7, 3)}


def test_newton_coefficient_count():
    for d in range(9):
        p = falling_poly(d) + rising_poly(max(d - 1, 0))
        assert len(to_falling_basis(p)) <= p.degree + 1


def test_rising_in_falling_basis_closed_form():
    # (X)_n = sum_j C(n,j) * (j)_(n-j) * falling(j), exactly, n <= 8
    for n in range(9):
        rhs = UPoly.zero()
        for j in range(n + 1):
            rhs = rhs + falling_poly(j).scale(binomial(n, j) * rising(j, n - j))
        assert rising_poly(n) == rhs


def _series_mul(a, b, cap):
    out = [UPoly.zero() for _ in range(cap + 1)]
    for i, pa in enumerate(a):
        if not pa:
            continue
        for j, pb in enumerate(b):
            if i + j > cap:
                break
            out[i + j] = out[i + j] + pa * pb
    return out


def test_exponential_collapse_to_rising():
    # exp(X * sum t^i/i) * (sum t^i)^k agrees with coefficients (X+k)_i / i!
    cap = 8
    x = UPoly.x()
    log_inv = [UPoly.zero()] + [UPoly.one().scale(Fraction(1, i)) for i in range(1, cap + 1)]
    xlog = [p * x for p in log_inv]
    expseries = [UPoly.one()] + [UPoly.zero()] * cap
    power = [UPoly.one()] + [UPoly.zero()] * cap
    for j in range(1, cap + 1):
        power = _series_mul(power, xlog, cap)
        for i in range(cap + 1):
            expseries[i] = expseries[i] + power[i].scale(Fraction(1, factorial(j)))
    geom = [UPoly.one() for _ in range(cap + 1)]
    for k in range(4):
        product = expseries
        for _ in range(k):
            product = _series_mul(product, geom, cap)
        for i in range(cap + 1):
            assert product[i] == rising_poly(i, shift=k).scale(Fraction(1, factorial(i)))


def test_serialization():
    p = UPoly((Fraction(1, 2), 0, -2))
    assert p.to_strs() == ["1/2", "0/1", "-2/1"]
    assert UPoly.zero().to_strs() == []
    assert str(UPoly((1, -1, 1))) == "X^2 - X + 1"
    assert str(UPoly.zero()) == "0"
