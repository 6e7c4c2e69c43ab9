import math
from fractions import Fraction
from typing import List

import pytest
from hypothesis import given
from hypothesis import strategies as st

import reference as ref
from genbinom.coefficients import iter_compositions
from genbinom.exactnum import binomial, factorial, rising
from genbinom.polybasis import (
    UPoly,
    _linear_product,
    binom_poly,
    delta_at_zero,
    falling_poly,
    from_falling_basis,
    newton_coeffs,
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
    x = UPoly((0, 1))
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
    assert UPoly(a) * UPoly(b) == UPoly(ref.poly_mul(a, b))


@given(st.lists(rational, max_size=4), st.integers(min_value=0, max_value=9))
def test_pow_matches_repeated_product(coeffs, e):
    p, expected = UPoly(coeffs), UPoly.one()
    for _ in range(e):
        expected = expected * p
    assert p**e == expected


@given(st.lists(st.fractions(max_denominator=30, min_value=-50, max_value=50), max_size=12))
def test_to_falling_basis_matches_delta_reference(coeffs):
    # A_k = Delta^k p(0) / k!: the Newton coefficients on binomial(X, k), over k!
    p = UPoly(coeffs)
    a = ref.newton_coeffs(coeffs, 0, 1)
    assert [delta_at_zero(p, k) for k in range(len(a))] == a
    newton = to_falling_basis(p)
    assert newton == {k: ak / factorial(k) for k, ak in enumerate(a) if ak}
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
    x = UPoly((0, 1))
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


def _fractions(p: UPoly) -> List[Fraction]:
    """p's coefficients as Fractions, lowest degree first, as the reference holds them."""
    return [p.coeff(d) for d in range(p.degree + 1)]


def _assert_canonical(p: UPoly) -> None:
    assert all(type(c) is int for c in p.coeffs) and type(p.den) is int
    assert p.den > 0
    assert math.gcd(p.den, *p.coeffs) == 1
    assert not p.coeffs or p.coeffs[-1] != 0
    if not p.coeffs:
        assert p.den == 1


small_rational = st.fractions(max_denominator=12, min_value=Fraction(-20), max_value=Fraction(20))
coeff_lists = st.lists(st.one_of(small_rational, st.integers(-20, 20)), max_size=7)


@given(coeff_lists, coeff_lists, small_rational, small_rational)
def test_integer_layout_matches_fraction_reference(a, b, value, x):
    p, q = UPoly(a), UPoly(b)
    rp, rq = ref.poly(a), ref.poly(b)
    rneg = [-c for c in rq]
    for got, want in ((p, rp), (q, rq), (p + q, ref.poly_add(rp, rq)), (p - q, ref.poly_add(rp, rneg)),
                      (-p, [-c for c in rp]), (p * q, ref.poly_mul(rp, rq)), (p.scale(value), ref.poly_mul(rp, [value])),
                      (p * value, ref.poly_mul(rp, [value])), (p ** 2, ref.poly_mul(rp, rp))):
        _assert_canonical(got)
        assert _fractions(got) == want
        assert repr(got) == f"UPoly({[str(c) for c in want]})"
        assert got(x) == ref.poly_value(want, x) and isinstance(got(x), Fraction)
        assert got.coeff(-1) == 0 and got.coeff(9) == (want[9] if len(want) > 9 else 0)
    assert (p == q) == (rp == rq)
    if p == q:
        assert hash(p) == hash(q)
    assert (p - p) == UPoly.zero() and hash(p - p) == hash(UPoly.zero())


def test_canonical_form():
    half = UPoly((Fraction(2, 4),))
    assert half == UPoly((Fraction(1, 2),)) and hash(half) == hash(UPoly((Fraction(1, 2),)))
    assert (half.coeffs, half.den) == ((1,), 2)
    p = UPoly((Fraction(2, 3), 4, Fraction(-4, 6), 0, 0))
    assert (p.coeffs, p.den) == ((2, 12, -2), 3)
    assert (p.scale(Fraction(3, 2)).coeffs, p.scale(Fraction(3, 2)).den) == ((1, 6, -1), 1)
    assert p.scale(3) == UPoly((2, 12, -2))
    assert (UPoly.zero().coeffs, UPoly.zero().den) == ((), 1)
    assert UPoly((0, 0)) == UPoly.zero() and not UPoly((Fraction(0, 5),))
    assert (p - p).den == 1 and p.scale(0) == UPoly.zero()
    for q in (half, p, p * p, p + half, p.scale(Fraction(-5, 7)), UPoly((0, 1)) ** 3):
        _assert_canonical(q)


def test_rising_poly_matches_linear_factor_product():
    for n in range(13):
        for shift in range(-12, 13):
            p = rising_poly(n, shift)
            _assert_canonical(p)
            assert p.den == 1
            assert _fractions(p) == ref.linear_product(range(shift, shift + n)), (n, shift)
    with pytest.raises(ValueError):
        rising_poly(-1)


# ---------------------------------------------------------------------------
# the Newton-form pair, against a direct Fraction evaluation of its sum
# ---------------------------------------------------------------------------

@given(st.lists(rational, max_size=10), st.sampled_from(["binomial", "multichoose", "shifted"]),
       st.integers(min_value=1, max_value=12))
def test_newton_pair_round_trip_and_values(a, family, n):
    start, step = {"binomial": (0, 1), "multichoose": (0, -1), "shifted": (1 - n, 1)}[family]
    want = ref.newton_sum(a, start, step)
    p = UPoly(want)
    _assert_canonical(p)
    trimmed = ref.poly(a)
    assert p.degree == len(trimmed) - 1  # basis j has leading coefficient 1/j!
    nums, den = newton_coeffs(p, start, step)
    assert [Fraction(x, den) for x in nums] == trimmed
    for x in range(-4, 9):
        assert p(x) == ref.poly_value(want, x), x


def test_newton_sum_families_are_the_bases():
    # each family of Newton sums is its basis: the j-th basis polynomial has the unit
    # vector e_j as its newton_coeffs
    def on_basis(p, start, step):
        return UPoly._of(*newton_coeffs(p, start, step))

    for j in range(9):
        unit = UPoly._of([0] * j + [1])
        assert on_basis(binom_poly(j), 0, 1) == unit
        assert on_basis(rising_poly(j).scale(Fraction(1, factorial(j))), 0, -1) == unit
        for n in range(max(j, 1), 10):
            assert on_basis(shifted_binom_poly(n, n - j), 1 - n, 1) == unit
    assert newton_coeffs(UPoly.zero(), 0, 1) == ([], 1)


@given(coeff_lists, st.sampled_from(["binomial", "multichoose", "shifted"]), st.integers(min_value=1, max_value=12))
def test_newton_coeffs_integer_pair_matches_fraction_reference(coeffs, family, n):
    start, step = {"binomial": (0, 1), "multichoose": (0, -1), "shifted": (1 - n, 1)}[family]
    p = UPoly(coeffs)
    nums, den = newton_coeffs(p, start, step)
    assert all(type(x) is int for x in nums) and type(den) is int and den == p.den
    assert [Fraction(x, den) for x in nums] == ref.newton_coeffs(p.coeffs, start, step, p.den)
    assert UPoly(ref.newton_sum([Fraction(x, den) for x in nums], start, step)) == p


@pytest.mark.parametrize("sigma", [-1, 0, 1])
def test_linear_product_on_its_newton_basis(sigma):
    # prod_a (X + a) on N_k = prod_{t<k} (X - sigma t), k! times, is the Newton pass of
    # the monomial product at the nodes sigma t: shifts zero, negative, repeated, mixed
    for shifts in ([], [0], [0, 0], [-3], [5, 5, 5, 5], [-2, -2, 0, 1], [2, -1, 2, 0, -7], range(-4, 5)):
        a = _linear_product(shifts, sigma)
        nums, den = newton_coeffs(UPoly._of(_linear_product(shifts)), 0, sigma)
        assert den == 1 and [factorial(k) * x for k, x in enumerate(a)] == nums, (shifts, sigma)
    assert _linear_product(range(3)) == _linear_product(range(3), 0) == [0, 2, 3, 1]


def test_linear_product_gives_the_linearization_tables():
    # over the falling shifts at sigma = +1 the loop is the d table itself; over the
    # rising shifts it is prod r_i! c~_k / k! at sigma = +1 and prod r_i! w_j / j!, w the
    # multichoose chain's weights, at sigma = -1
    for r in iter_compositions(3, 4):
        falling = [a for ri in r.parts for a in range(0, -ri, -1)]
        rising_shifts = [a for ri in r.parts for a in range(ri)]
        scale = math.prod(map(factorial, r.parts))
        d, ct = ([table(r.parts).get(k, 0) for k in range(r.total + 1)] for table in (ref.d, ref.c_tilde))
        assert _linear_product(falling, 1) == d, r
        assert _linear_product(rising_shifts, 1) == [Fraction(scale * c, factorial(k)) for k, c in enumerate(ct)], r
        w = ref.merge_weights(r.species, -1)
        assert _linear_product(rising_shifts, -1) == [Fraction(scale * x, factorial(j)) for j, x in enumerate(w)], r
