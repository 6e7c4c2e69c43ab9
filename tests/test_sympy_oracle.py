"""Independent oracle: every c_k route and the factorial bases against sympy.

sympy computes c_k(r) = |r|/k [x^r] (G - 1)^k, G = 1/((1-x_1)...(1-x_m)),
from truncated sympy Poly powers, and the bases from its expanded rf, ff and
binomial; nothing in genbinom is used on that side.  The merge chain's
weights are checked the same way: sympy expands both sides of the product
identity they state.
"""

from fractions import Fraction

import pytest

from genbinom.coefficients import C_METHODS, Composition, _merge_chain, c_table, iter_compositions
from genbinom.polybasis import UPoly, binom_poly, falling_poly, rising_poly

sympy = pytest.importorskip("sympy")


def _sympy_c(parts):
    """{k: c_k} for k = 1..|r| from running products of G - 1, each
    truncated to the box x_i <= r_i."""
    gens = sympy.symbols(f"x1:{len(parts) + 1}")

    def truncate(p):
        kept = {e: c for e, c in p.as_dict().items() if all(a <= b for a, b in zip(e, parts))}
        return sympy.Poly.from_dict(kept or {(0,) * len(parts): 0}, *gens)

    g = sympy.Integer(1)
    for x, ri in zip(gens, parts):
        g *= sum(x**a for a in range(ri + 1))
    base = truncate(sympy.Poly(g - 1, *gens))
    total = sum(parts)
    power, out = sympy.Poly(1, *gens), {}
    for k in range(1, total + 1):
        power = truncate(power * base)
        c = sympy.Rational(total, k) * power.coeff_monomial(tuple(parts))
        out[k] = Fraction(int(c.p), int(c.q))
    return out


def test_every_route_matches_sympy():
    for r in iter_compositions(3, 3):
        expected = _sympy_c(r.parts)
        assert all(v.denominator == 1 and v >= 1 for v in expected.values()), r
        for method in C_METHODS:
            if method == "hyp3f2" and len(r.species) > 2:
                continue
            assert c_table(r, method).values == expected, (r, method)


def _sympy_upoly(expr, x):
    """The expanded polynomial expr in x as a UPoly, lowest degree first."""
    coeffs = sympy.Poly(sympy.expand(expr), x).all_coeffs()[::-1]
    return UPoly([Fraction(int(c.p), int(c.q)) for c in coeffs])


def test_bases_match_sympy():
    x = sympy.Symbol("x")
    for n in range(10):
        assert falling_poly(n) == _sympy_upoly(sympy.ff(x, n), x), n
        assert binom_poly(n) == _sympy_upoly(sympy.expand_func(sympy.binomial(x, n)), x), n
        for shift in range(-6, 7):
            assert rising_poly(n, shift) == _sympy_upoly(sympy.rf(x + shift, n), x), (n, shift)


def test_merge_chain_matches_sympy():
    # the merge chain's weights w_s: sum_s w_s binomial(x, s) is prod binomial(x, r_i)
    # at sign +1, and sum_s w_s binomial(x+s-1, s) is prod binomial(x+r_i-1, r_i) at -1
    x = sympy.Symbol("x")

    def expanded(expr):
        return sympy.expand(sympy.expand_func(expr))

    for r in [*iter_compositions(3, 3), Composition((4, 5, 6))]:
        for sign, shift in ((1, lambda n: 0), (-1, lambda n: n - 1)):
            w = _merge_chain(r.species, sign)
            lhs = expanded(sympy.Mul(*(sympy.binomial(x + shift(ri), ri) for ri in r.parts)))
            rhs = expanded(sympy.Add(*(ws * sympy.binomial(x + shift(s), s) for s, ws in enumerate(w))))
            assert sympy.expand(lhs - rhs) == 0, (r, sign)
