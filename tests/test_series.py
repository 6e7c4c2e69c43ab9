from fractions import Fraction
from itertools import product
from typing import Dict, Sequence

import pytest
from hypothesis import given
from hypothesis import strategies as st

from genbinom.exactnum import as_int
from genbinom.series import Expt, MPoly, geom_inverse_product, homogeneous_h


def test_truncated_square():
    p = MPoly((1,), {(0,): 1, (1,): 1})  # 1 + x with cap 1
    assert p * p == MPoly((1,), {(0,): 1, (1,): 2})


def test_truncated_power_two_vars():
    q = MPoly((1, 1), {(1, 0): 1, (0, 1): 1, (1, 1): 1})
    assert q**2 == MPoly((1, 1), {(1, 1): 2})


def test_add_cancels():
    p = MPoly((2, 2), {(1, 0): Fraction(2, 3), (2, 1): -5})
    assert p + (-p) == MPoly.zero((2, 2))
    assert not (p - p)


def test_caps_enforced_on_construction():
    with pytest.raises(ValueError):
        MPoly((1,), {(2,): 1})
    with pytest.raises(ValueError):
        MPoly((1, 1), {(1,): 1})  # wrong arity
    with pytest.raises(ValueError):
        MPoly((1,), {(-1,): 1})


def test_mismatched_caps_rejected():
    a = MPoly((1,), {(1,): 1})
    b = MPoly((2,), {(1,): 1})
    with pytest.raises(ValueError):
        a + b
    with pytest.raises(ValueError):
        a * b


def test_coeff_lookup():
    p = MPoly((3,), {(0,): 1, (1,): 2})
    assert p.coeff((1,)) == 2
    assert p.coeff((0,)) == 1
    assert p.coeff((2,)) == 0
    with pytest.raises(ValueError):
        p.coeff((4,))  # truncated away, unknown


def test_geom_inverse_product():
    assert geom_inverse_product((3,)) == MPoly((3,), {(e,): 1 for e in range(4)})
    assert geom_inverse_product((1, 1)) == MPoly(
        (1, 1), {(0, 0): 1, (1, 0): 1, (0, 1): 1, (1, 1): 1}
    )
    q = geom_inverse_product((1, 1)) - MPoly.const((1, 1), 1)
    assert (q**2).coeff((1, 1)) == 2


def test_geom_times_one_minus_x_collapses():
    for caps in ((3,), (1, 1), (2, 3), (1, 2, 2)):
        prod = geom_inverse_product(caps)
        for i in range(len(caps)):
            x_i = tuple(int(k == i) for k in range(len(caps)))
            prod = prod * MPoly(caps, {(0,) * len(caps): 1, x_i: -1})
        assert prod == MPoly.const(caps, 1)


def test_homogeneous_h_values():
    caps = (2, 2)
    assert homogeneous_h(2, caps) == MPoly(caps, {(2, 0): 1, (1, 1): 1, (0, 2): 1})
    assert homogeneous_h(0, caps) == MPoly.const(caps, 1)
    caps3 = (1, 1, 1)
    assert homogeneous_h(1, caps3) == MPoly(
        caps3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1}
    )
    assert homogeneous_h(3, (3, 3)).coeff((2, 1)) == 1


def test_homogeneous_h_matches_z_extraction():
    # h_n = [z^n] prod 1/(1 - z*x_i), expanded with an auxiliary variable
    for caps in ((2, 2), (3, 1), (2, 2, 1)):
        for n in range(sum(caps) + 1):
            aug = (n,) + caps
            prod = MPoly.const(aug, 1)
            for i, cap in enumerate(caps):
                terms = {}
                for e in range(min(n, cap) + 1):
                    key = [0] * len(aug)
                    key[0] = e
                    key[i + 1] = e
                    terms[tuple(key)] = 1
                prod = prod * MPoly(aug, terms)
            got = {e[1:]: c for e, c in prod.terms.items() if e[0] == n}
            assert MPoly(caps, got) == homogeneous_h(n, caps)


def _ref_homogeneous_h(n: int, caps: Sequence[int]) -> MPoly:
    """Complete homogeneous symmetric polynomial h_n, truncated to caps.

    Built by dynamic programming, adding one variable at a time, rather
    than by enumerating all degree-n monomials up front.
    """
    if n < 0:
        raise ValueError(f"homogeneous_h: n must be nonnegative, got {n}")
    caps = tuple(map(as_int, caps))
    prefixes: Dict[Expt, int] = {(): 0}  # exponent prefix -> total degree
    for cap in caps:
        nxt: Dict[Expt, int] = {}
        for pre, d in prefixes.items():
            for e in range(min(cap, n - d) + 1):
                nxt[pre + (e,)] = d + e
        prefixes = nxt
    return MPoly(caps, {e: 1 for e, d in prefixes.items() if d == n})


def test_homogeneous_h_matches_prefix_dp_reference():
    # the box slice against the prefix DP it replaced, one degree past the box too
    for m in range(4):
        for caps in product(range(7), repeat=m):
            for n in range(sum(caps) + 2):
                assert homogeneous_h(n, caps).terms == _ref_homogeneous_h(n, caps).terms, (n, caps)


small_fraction = st.fractions(
    max_denominator=4, min_value=Fraction(-3), max_value=Fraction(3)
)


@st.composite
def small_mpoly(draw, caps=(2, 2)):
    nterms = draw(st.integers(min_value=0, max_value=5))
    terms = {}
    for _ in range(nterms):
        e = tuple(draw(st.integers(min_value=0, max_value=c)) for c in caps)
        terms[e] = draw(small_fraction)
    return MPoly(caps, terms)


@given(small_mpoly(), small_mpoly())
def test_mul_commutative(a, b):
    assert a * b == b * a


@given(small_mpoly(), small_mpoly(), small_mpoly())
def test_mul_associative(a, b, c):
    assert (a * b) * c == a * (b * c)


@given(small_mpoly(), small_mpoly(), small_mpoly())
def test_mul_distributes(a, b, c):
    assert a * (b + c) == a * b + a * c


@given(small_mpoly(), st.integers(min_value=0, max_value=9))
def test_pow_matches_repeated_product(a, e):
    # truncation is a quotient ring, so square-and-multiply gives the same power
    expected = MPoly.const(a.caps, 1)
    for _ in range(e):
        expected = expected * a
    assert a**e == expected


def test_debug_serialization():
    p = MPoly((2, 2), {(1, 0): Fraction(1, 2), (0, 2): -3})
    assert p.debug_lines() == ["-3/1 * x1^0x2^2", "1/2 * x1^1x2^0"]
    assert str(MPoly.zero((1,))) == "0"
