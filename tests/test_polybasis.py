import math
from fractions import Fraction
from typing import Iterable, List, Tuple

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbinom.exactnum import Rat, binomial, factorial, rising
from genbinom.polybasis import (
    UPoly,
    binom_poly,
    delta_at_zero,
    falling_poly,
    from_falling_basis,
    newton_coeffs,
    newton_sum,
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
    assert str(UPoly((1, -1, 1))) == "X^2 - X + 1"
    assert str(UPoly.zero()) == "0"


# ---------------------------------------------------------------------------
# reference: the former Fraction-tuple UPoly, kept verbatim (renamed
# RefUPoly), and the former rising_poly as a product of linear factors
# ---------------------------------------------------------------------------

def _integer_coeffs(p: "RefUPoly") -> Tuple[int, List[int]]:
    """(den, coefficients of den * p), den the lcm of p's denominators."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return den, [c.numerator * (den // c.denominator) for c in p.coeffs]


class RefUPoly:
    """Polynomial in one indeterminate, coefficients indexed by degree.

    Trailing zero coefficients are stripped; the zero polynomial has an
    empty coefficient tuple.  Instances are immutable and hashable.
    Products are convolved in integers over a common denominator.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "RefUPoly":
        return cls()

    @classmethod
    def one(cls) -> "RefUPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "RefUPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> Fraction:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, RefUPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "RefUPoly") -> "RefUPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return RefUPoly(
            (self.coeff(d) + other.coeff(d) for d in range(n))
        )

    def __neg__(self) -> "RefUPoly":
        return RefUPoly((-c for c in self.coeffs))

    def __sub__(self, other: "RefUPoly") -> "RefUPoly":
        return self + (-other)

    def __mul__(self, other) -> "RefUPoly":
        if not isinstance(other, RefUPoly):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return RefUPoly()
        den_a, a = _integer_coeffs(self)
        den_b, b = _integer_coeffs(other)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        den = den_a * den_b
        return RefUPoly(Fraction(c, den) for c in out)

    def __rmul__(self, other) -> "RefUPoly":
        return self.scale(other)

    def scale(self, value: Rat) -> "RefUPoly":
        return RefUPoly((c * value for c in self.coeffs))

    def __pow__(self, e: int) -> "RefUPoly":
        if e < 0:
            raise ValueError(f"negative power: {e}")
        out, base = RefUPoly.one(), self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __call__(self, x: Rat) -> Fraction:
        """Evaluate by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def __repr__(self) -> str:
        return f"UPoly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
            if not c:
                continue
            mono = "1" if d == 0 else ("X" if d == 1 else f"X^{d}")
            if d == 0:
                body = str(c) if c > 0 else str(-c)
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            chunks.append(("- " if c < 0 else ("+ " if chunks else "")) + body)
        return " ".join(chunks)


def _ref_rising_poly(n: int, shift: int = 0) -> RefUPoly:
    out = RefUPoly.one()
    for i in range(n):
        out = out * RefUPoly((shift + i, 1))
    return out


def _matches(p: UPoly, ref: RefUPoly) -> bool:
    return p.degree == ref.degree and all(p.coeff(d) == c for d, c in enumerate(ref.coeffs))


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
    rp, rq = RefUPoly(a), RefUPoly(b)
    for got, want in ((p, rp), (q, rq), (p + q, rp + rq), (p - q, rp - rq), (-p, -rp),
                      (p * q, rp * rq), (p.scale(value), rp.scale(value)), (p * value, rp * value),
                      (p ** 2, rp ** 2)):
        _assert_canonical(got)
        assert _matches(got, want)
        assert str(got) == str(want)
        assert repr(got) == repr(want)
        assert got(x) == want(x) and isinstance(got(x), Fraction)
        assert got.coeff(-1) == want.coeff(-1) and got.coeff(9) == want.coeff(9)
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
    for q in (half, p, p * p, p + half, p.scale(Fraction(-5, 7)), UPoly.x() ** 3):
        _assert_canonical(q)


def test_rising_poly_matches_linear_factor_product():
    for n in range(13):
        for shift in range(-12, 13):
            p = rising_poly(n, shift)
            _assert_canonical(p)
            assert p.den == 1
            assert _matches(p, _ref_rising_poly(n, shift)), (n, shift)
    with pytest.raises(ValueError):
        rising_poly(-1)


# ---------------------------------------------------------------------------
# the Newton-form pair, against a direct Fraction evaluation of its sum
# ---------------------------------------------------------------------------

def _newton_value(start: int, step: int, a, x: int) -> Fraction:
    """sum_j a[j] prod_{t<j} (x - start - t*step) / j!, term by term."""
    total, term = Fraction(0), Fraction(1)
    for j, aj in enumerate(a):
        if j:
            term = term * (x - start - (j - 1) * step) / j
        total += aj * term
    return total


@given(st.lists(rational, max_size=10), st.sampled_from(["binomial", "multichoose", "shifted"]),
       st.integers(min_value=1, max_value=12))
def test_newton_pair_round_trip_and_values(a, family, n):
    start, step = {"binomial": (0, 1), "multichoose": (0, -1), "shifted": (1 - n, 1)}[family]
    p = newton_sum(start, step, a)
    _assert_canonical(p)
    trimmed = list(a)
    while trimmed and not trimmed[-1]:
        trimmed.pop()
    assert p.degree == len(trimmed) - 1  # basis j has leading coefficient 1/j!
    got = newton_coeffs(p, start, step)
    assert got == trimmed and all(type(c) is Fraction for c in got)
    for x in range(-4, 9):
        assert p(x) == _newton_value(start, step, a, x), x


def test_newton_sum_families_are_the_bases():
    for j in range(9):
        unit = [0] * j + [1]
        assert newton_sum(0, 1, unit) == binom_poly(j)
        assert newton_sum(0, -1, unit) == rising_poly(j).scale(Fraction(1, factorial(j)))
        for n in range(max(j, 1), 10):
            assert newton_sum(1 - n, 1, unit) == shifted_binom_poly(n, n - j)
    assert newton_sum(0, 1, []) == UPoly.zero() and newton_coeffs(UPoly.zero(), 0, 1) == []
