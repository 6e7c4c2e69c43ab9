"""Every pair `identities` builds, against the same pair from the definitions.

For each id the expected pairs come from tests/reference.py alone: a left side
is the reference partition sum (or, for the lin ids, the table itself) mapped
onto the pair's Newton basis by the reference Newton pass, and a right side is
the per-k coefficient list of the identity's expansion, read off the
reference's c_k, seating counts, linearization tables, marked-cells sums or
two-factor weights.  Integer pairs are lists on k compared as polynomials in T.
Here too are the checks of `extract_c_from_las` and `from_falling_basis`.
"""

import math
from fractions import Fraction
from math import comb, factorial
from typing import List

import pytest

import reference as ref
from genbinom import identities
from genbinom.coefficients import Composition, iter_compositions
from genbinom.identities import Pair, _las_lhs, extract_c_from_las
from genbinom.oracles import COVERING_K_MAX
from genbinom.polybasis import UPoly, from_falling_basis


def _newton(nums, den: int, start: int, step: int) -> UPoly:
    """sum_d nums[d] X^d / den on the Newton basis prod_{t<j} (X - s_t) / j!, s_t = start +
    t*step, as one UPoly in T."""
    return UPoly(ref.newton_coeffs(nums, start, step, den))


def _las(n: int, r: Composition) -> List[Pair]:
    c, P = ref.c(r.parts), ref.species_products(r.parts, n)
    # c_k / |r| on binomial(X+n-1, n-k)
    rhs = UPoly([Fraction(c.get(n - j, 0), r.total) for j in range(n)])
    return [(_newton(ref.partition_sum(n, P), factorial(n), 1 - n, 1), rhs)]


def _bigeq(n: int, r: Composition) -> List[Pair]:
    c, rprod = ref.c(r.parts), math.prod(r.parts)
    F = [0] + [ref.seating_f(r.parts, j) for j in range(1, n + 1)]
    lhs = ref.partition_sum(n, F)  # not over n!: the forms are n! times the c and F sums
    form_c = UPoly([Fraction(c.get(n - j, 0) * factorial(n) * rprod, r.total) for j in range(n)])
    form_s = (UPoly([k * rprod * c.get(k, 0) for k in range(n + 1)]),
              UPoly([r.total * ref.seating_s(r.parts, k) for k in range(n + 1)]))
    form_f = UPoly([Fraction(factorial(n) * F[n - j], n - j) for j in range(n)])  # n! F_k / k on binomial(X+j-1, j)
    return [(_newton(lhs, 1, 1 - n, 1), form_c), form_s, (_newton(lhs, 1, 0, -1), form_f)]


def _las0p(n: int, r: Composition) -> List[Pair]:
    P = ref.species_products(r.parts, n)
    return [(_newton(ref.partition_sum(n, P), factorial(n), 0, -1), UPoly([Fraction(P[n - j], n - j) for j in range(n)]))]


def _las0pp(n: int, p: int, r: Composition) -> List[Pair]:
    P = ref.species_products(r.parts, n)
    return [(_newton(ref.partition_sum(n, P, p), factorial(n), 0, -1), UPoly(ref.marked_cells(n, p, P)))]


def _mac(n: int) -> List[Pair]:
    sums = ref.partition_sum(n, [1] * (n + 1))  # n! sum over mu of l(mu) X^(l-1) / z_mu
    body = [0] + [Fraction(s, factorial(n) * l) for l, s in enumerate(sums, 1)]  # sum X^l(mu) / z_mu
    companion = UPoly([Fraction((-1) ** (n - j - 1), n - j) for j in range(n)])  # (-1)^(k-1) / k at j = n-k
    return [(_newton(body, 1, 1 - n, 1), UPoly([0] * n + [1])), (_newton(sums, factorial(n), 1 - n, 1), companion)]


def _lemma1(n: int) -> List[Pair]:
    # the y^j coefficient of sum_k binomial(X+n-1, n-k) (y-1)^k / k is (-1)^(k+j) C(k, j) / k
    return [(_newton(col, factorial(n), 1 - n, 1), UPoly([Fraction((-1) ** (k + j) * comb(k, j), k) for k in range(n, 0, -1)]))
            for j, col in enumerate(ref.y_slices(n))]


def _table_pairs(table: dict, r: Composition, oracle_max: int) -> List[Pair]:
    # the table against the product, the merge chain and, within its budget, the oracle: every
    # side is the table, a list on k; every shape here is within RECURRENCE_STEPS_MAX
    side = UPoly([table.get(k, 0) for k in range(r.total + 1)])
    return [(side, side)] * (2 + (r.total <= oracle_max))


def _binom2(r1: int, r2: int) -> List[Pair]:
    w = UPoly(ref.two_factor(r1, r2, -1))
    return [(w, w)]


EXPECTED = {
    "las": _las,
    "bigeq": _bigeq,
    "las0p": _las0p,
    "las0pp": _las0pp,
    "mac": _mac,
    "lemma1": _lemma1,
    "linm": lambda r: _table_pairs(ref.d(r.parts), r, identities.TRANSVERSAL_T_MAX),
    "linbin": lambda r: _table_pairs(ref.d_tilde(r.parts), r, COVERING_K_MAX),
    "linlas": lambda r: _table_pairs(ref.c_tilde(r.parts), r, COVERING_K_MAX),
    "binom2": _binom2,
}

# the largest n of each id's grid (8 for the others), and the extra instances: linlas's
# product is one rising loop over every factor's shifts, so shapes with more factors,
# zero padding and larger parts
N_MAX = {"bigeq": 16, "las0pp": 20, "mac": 14, "lemma1": 14}
EXTRA = {"linlas": [dict(r=Composition(q)) for q in ((0, 5, 0, 4), (2, 2, 2, 2, 2), (1, 8), (12,))]}


def _grid(ident: str) -> List[dict]:
    """The id's sweep grid at n <= N_MAX, over the compositions with m <= 3 and r_i <= 3,
    and for the lin ids those with m <= 4 and r_i <= 2 too (binom2: r1, r2 <= 12), then its
    `EXTRA` instances."""
    grid_fn = identities._IDENTITIES[ident][1]
    comps = list(dict.fromkeys([*iter_compositions(3, 3), *(iter_compositions(4, 2) if ident.startswith("lin") else ())]))
    return [*grid_fn(ns=range(1, N_MAX.get(ident, 8) + 1), comps=lambda: comps, p=None, r=None,
                     m_max=3, r_max=12 if ident == "binom2" else 3, t_max=1), *EXTRA.get(ident, [])]


@pytest.mark.parametrize("ident", sorted(EXPECTED))
def test_right_sides_match_per_k_sums(ident):
    grid = _grid(ident)
    assert grid
    for params in grid:
        assert identities._IDENTITIES[ident][0](**params) == EXPECTED[ident](**params), (ident, params)


def test_extract_c_matches_back_substitution():
    for r in [*iter_compositions(3, 3), Composition([5, 4]), Composition([0, 6, 1])]:
        c = ref.c(r.parts)
        for n in range(1, 11):
            got, want = extract_c_from_las(n, r), {k: v for k, v in c.items() if k <= n}
            assert got.values == want, (n, r)
            assert list(got.values) == list(want), (n, r)
            assert all(type(v) is int for v in got.values.values()), (n, r)


@pytest.mark.parametrize("extra", [0, 1])
def test_extract_c_rejects_degree_n_or_more(monkeypatch, extra):
    # a term of degree n or n+1 lies outside binomial(X+n-1, n-k), k = 1..n
    n, r = 4, Composition([3])
    lhs = _las_lhs(n, r)
    assert extract_c_from_las(n, r).values == {1: 3, 2: 3, 3: 1}
    monkeypatch.setattr(identities, "_las_lhs", lambda n, r: lhs + UPoly((0, 1)) ** (n + extra))
    with pytest.raises(AssertionError):
        extract_c_from_las(n, r)


def test_extract_c_rejects_a_non_integer_reading(monkeypatch):
    # a constant 1/7 added to the partition sum sits on binomial(X+3, 0), so
    # c_4((3,)) would read 3/7: the checked division raises instead
    real = identities._las_lhs
    monkeypatch.setattr(identities, "_las_lhs", lambda n, r: real(n, r) + UPoly((Fraction(1, 7),)))
    with pytest.raises(ArithmeticError, match=r"\bk=4\b"):
        extract_c_from_las(4, (3,))


def test_from_falling_basis_matches_per_k_sum():
    # sum_k A_k falling(X, k) is the Newton sum of the k! A_k on binomial(X, k)
    tables = [ref.d(r.parts) for r in iter_compositions(3, 3)]
    tables += [{}, {0: Fraction(-7, 3)}, {5: Fraction(1, 2), 2: 3}, {3: 0, 0: 1}]
    for coeffs in tables:
        a = [coeffs.get(k, 0) * factorial(k) for k in range(max(coeffs, default=-1) + 1)]
        assert from_falling_basis(coeffs) == UPoly(ref.newton_sum(a, 0, 1)), coeffs
