"""Independent oracle: every c_k route against sympy.

sympy computes c_k(r) = |r|/k [x^r] (G - 1)^k, G = 1/((1-x_1)...(1-x_m)),
from truncated sympy Poly powers; nothing in genbinom is used on that side.
"""

from fractions import Fraction

import pytest

from genbinom.coefficients import C_METHODS, c_table, iter_compositions

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
            if method == "hyp3f2" and r.m != 2:
                continue
            assert c_table(r, method).values == expected, (r, method)
