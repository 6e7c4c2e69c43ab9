"""Every right side `identities` builds in Newton form, against the per-k sums
it replaced.

The references below are the basis constructors, `from_falling_basis`,
the ten univariate checkers and the triangular `extract_c_from_las` as they
were before `polybasis.newton_sum` / `newton_coeffs` existed, kept verbatim:
each right side is one `sum` of basis(k).scale(a_k), every basis built on
the rising-factorial product loop defined here.  The checkers now compare
each such pair on its Newton basis, so each reference pair is mapped there,
at the nodes `NODES` gives, by the Fraction reference
`test_polybasis._ref_newton_coeffs`; linm's product pair is mapped onto
falling(X, k) itself, where the checker builds it, by
`test_identities._on_falling_basis`.  The integer pairs, added later, are
lists on k compared as polynomials in T: those of linm, linbin and linlas
compare the table with the merge chain, whose weights come from
`test_identities._ref_merge_chain`, one multinomial per term, and with the
oracle counts; bigeq's compares k prod(r) c_k with |r| S_k.  Only the
partition-sum left sides (`_las_lhs`, `_partition_sum`, `_class_table`,
`_species_products`) are shared with the package; they do not touch the
Newton pass.
"""

import math
from fractions import Fraction
from typing import Dict, List

import pytest

from genbinom import identities
from genbinom.coefficients import (
    CoeffTable,
    Composition,
    c_table,
    iter_compositions,
    linearization_d,
    seating_counts,
)
from genbinom.exactnum import Rat, binomial, factorial, multinomial
from genbinom.identities import (
    Pair,
    _check_n_p,
    _class_table,
    _las_lhs,
    _partition_sum,
    _species_products,
    extract_c_from_las,
)
from genbinom.oracles import COVERING_K_MAX, oracle_covering_choices, oracle_transversal_partitions
from genbinom.polybasis import UPoly, from_falling_basis
from test_identities import _ref_mchoose as _mchoose
from test_identities import _on_falling_basis, _on_newton_basis, _ref_merge_chain, _ref_on_binomials


# ---------------------------------------------------------------------------
# the former polybasis constructors and from_falling_basis
# ---------------------------------------------------------------------------

def rising_poly(n: int, shift: int = 0) -> UPoly:
    """(X+shift)(X+shift+1)...(X+shift+n-1); n = 0 gives 1."""
    if n < 0:
        raise ValueError(f"rising_poly: n must be nonnegative, got {n}")
    cs = [1]
    for a in range(shift, shift + n):  # cs times (X + a)
        cs = [a * c + b for c, b in zip(cs + [0], [0] + cs)]
    return UPoly._of(cs)


def falling_poly(n: int) -> UPoly:
    """X(X-1)...(X-n+1) = (X-n+1)...(X) as a polynomial; n = 0 gives 1."""
    if n < 0:
        raise ValueError(f"falling_poly: n must be nonnegative, got {n}")
    return rising_poly(n, shift=1 - n)


def shifted_binom_poly(n: int, k: int) -> UPoly:
    """binomial(X+n-1, n-k) = (X+k)...(X+n-1)/(n-k)! as a polynomial of
    degree n-k, for 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"shifted_binom_poly: need 0 <= k <= n, got n={n}, k={k}")
    return rising_poly(n - k, shift=k).scale(Fraction(1, factorial(n - k)))


def binom_poly(k: int) -> UPoly:
    """binomial(X, k) = falling(k)/k!."""
    return falling_poly(k).scale(Fraction(1, factorial(k)))


def _old_from_falling_basis(coeffs: Dict[int, Rat]) -> UPoly:
    """Reassemble sum_k A_k * falling(k)."""
    return sum((falling_poly(k).scale(a) for k, a in coeffs.items()), UPoly.zero())


# ---------------------------------------------------------------------------
# the former checkers: one sum of scaled basis polynomials per right side
# ---------------------------------------------------------------------------

def _check_las(n: int, r: Composition) -> List[Pair]:
    lhs = _las_lhs(n, r)
    c = c_table(r).values
    terms = (shifted_binom_poly(n, k).scale(c[k]) for k in range(1, min(n, r.total) + 1))
    return [(lhs, sum(terms, UPoly.zero()).scale(Fraction(1, r.total)))]


def _check_bigeq(n: int, r: Composition) -> List[Pair]:
    # F_j: seatings of every species, r_l representatives each, at one j-chair table
    F = [0] + [seating_counts(r, j, "F") for j in range(1, n + 1)]
    lhs = UPoly(_partition_sum(n, F))

    c = c_table(r).values
    terms_c = (rising_poly(n - k, shift=k).scale(c[k] * factorial(k) * binomial(n, k))
               for k in range(1, min(n, r.total) + 1))
    rhs_c = sum(terms_c, UPoly.zero()).scale(Fraction(math.prod(r.parts), r.total))
    # k prod(r) c_k against |r| S_k, k = 0..n, S_0 = 0
    ints = (UPoly([k * math.prod(r.parts) * c.get(k, 0) for k in range(n + 1)]),
            UPoly([0] + [r.total * seating_counts(r, k, "S") for k in range(1, n + 1)]))
    w = {k: factorial(k - 1) * binomial(n, k) for k in range(1, n + 1)}
    terms_f = (rising_poly(n - k).scale(wk * F[k]) for k, wk in w.items())
    return [(lhs, rhs_c), ints, (lhs, sum(terms_f, UPoly.zero()))]


def _check_las0p(n: int, r: Composition) -> List[Pair]:
    P = _species_products(n, r)
    terms = (shifted_binom_poly(n - k, 0).scale(Fraction(P[k], k)) for k in range(1, n + 1))
    return [(_las_lhs(n, r, P=P), sum(terms, UPoly.zero()))]


def _check_las0pp(n: int, p: int, r: Composition) -> List[Pair]:
    P = _species_products(n, r)
    inner = {
        k: sum(binomial(j - 1, k - 1) * _mchoose(p - k, n - p - j + k) * P[j]
               for j in range(k, n - p + k + 1))
        for k in range(1, min(p, n) + 1)
    }
    terms = (shifted_binom_poly(p - k, 0).scale(Fraction(s, k)) for k, s in inner.items())
    return [(_las_lhs(n, r, p, P), sum(terms, UPoly.zero()))]


def _check_mac(n: int) -> List[Pair]:
    # sum_j m_j(mu) = l(mu), so g = 1 weights each mu by its length
    nfact = factorial(n)
    deriv = [Fraction(s, nfact) for s in _partition_sum(n, [1] * (n + 1))]
    body = [0] + [d / l for l, d in enumerate(deriv, 1)]
    terms = (shifted_binom_poly(n, k).scale(Fraction((-1) ** (k - 1), k)) for k in range(1, n + 1))
    return [
        (UPoly(body), shifted_binom_poly(n, 0)),
        (UPoly(deriv), sum(terms, UPoly.zero())),
    ]


def _check_lemma1(n: int) -> List[Pair]:
    # sum over mu |- n of X^(l(mu)-1) / z_mu * (sum_i y^mu_i - l(mu)) against
    # sum_k binomial(X+n-1, n-k) (y-1)^k / k: one UPoly pair in X per power y^j
    rows = _class_table(n)[1:]
    bases = {k: shifted_binom_poly(n, k) for k in range(1, n + 1)}
    pairs: List[Pair] = []
    for j in range(n + 1):
        # row l has n+2-l entries, so the rows too short for column j are a suffix
        col = [row[j] if j else -sum(row) for row in rows if j < len(row)]
        terms = (bases[k].scale(Fraction((-1) ** (k - j) * binomial(k, j), k))
                 for k in range(max(j, 1), n + 1))
        pairs.append((UPoly(col).scale(Fraction(1, factorial(n))), sum(terms, UPoly.zero())))
    return pairs


def _table_list(r: Composition, variant: str) -> List[int]:
    table = linearization_d(r, variant).values
    return [table.get(k, 0) for k in range(r.total + 1)]


def _check_linm(r: Composition) -> List[Pair]:
    lhs = math.prod((falling_poly(ri) for ri in r.parts), start=UPoly.one())
    falling = _old_from_falling_basis(linearization_d(r, "d").values)
    pairs: List[Pair] = [(_on_falling_basis(lhs), _on_falling_basis(falling))]  # both on falling(X, k)
    # the merge chain's d_k = prod r_i! d~_k / k!, every shape of the grid being within
    # RECURRENCE_STEPS_MAX
    scale = math.prod(map(factorial, r.parts))
    chain = [Fraction(scale * w, factorial(k)) for k, w in enumerate(_ref_merge_chain(r.species, 1))]
    pairs.append((UPoly(_table_list(r, "d")), UPoly(chain)))
    if r.total <= 7:
        oracle = [0] + [oracle_transversal_partitions(r, k) for k in range(1, r.total + 1)]
        pairs.append((UPoly(_table_list(r, "d")), UPoly(oracle)))
    return pairs


def _check_linbin(r: Composition) -> List[Pair]:
    lhs = math.prod((binom_poly(ri) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "d_tilde").values
    pairs: List[Pair] = [(lhs, sum((binom_poly(k).scale(v) for k, v in table.items()), UPoly.zero()))]
    pairs.append((UPoly(_table_list(r, "d_tilde")), UPoly(_ref_merge_chain(r.species, 1))))
    if r.total <= COVERING_K_MAX:  # k runs up to |r|
        oracle = [0] + [oracle_covering_choices(r, k, "set") for k in range(1, r.total + 1)]
        pairs.append((UPoly(_table_list(r, "d_tilde")), UPoly(oracle)))
    return pairs


def _check_linlas(r: Composition) -> List[Pair]:
    lhs = math.prod((rising_poly(ri).scale(Fraction(1, factorial(ri))) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "c_tilde").values
    pairs: List[Pair] = [(lhs, sum((binom_poly(k).scale(v) for k, v in table.items()), UPoly.zero()))]
    chain = _ref_on_binomials(_ref_merge_chain(r.species, -1))  # moved onto binomial(X, k)
    pairs.append((UPoly(_table_list(r, "c_tilde")), UPoly(chain)))
    if r.total <= COVERING_K_MAX:  # k runs up to |r|
        oracle = [0] + [oracle_covering_choices(r, k, "multiset") for k in range(1, r.total + 1)]
        pairs.append((UPoly(_table_list(r, "c_tilde")), UPoly(oracle)))
    return pairs


def _check_binom2(r1: int, r2: int) -> List[Pair]:
    if r1 < 0 or r2 < 0 or r1 + r2 == 0:
        raise ValueError(f"need nonnegative r1, r2 with r1+r2 > 0, got {r1}, {r2}")
    lhs = rising_poly(r1).scale(Fraction(1, factorial(r1))) * rising_poly(r2).scale(Fraction(1, factorial(r2)))
    terms = (
        rising_poly(r1 + r2 - l).scale(
            Fraction((-1) ** l * multinomial(r1 + r2 - l, (l, r1 - l, r2 - l)), factorial(r1 + r2 - l)))
        for l in range(min(r1, r2) + 1)
    )
    return [(lhs, sum(terms, UPoly.zero()))]


def _old_extract_c_from_las(n: int, r: Composition) -> CoeffTable:
    _check_n_p(n, None)
    residue = _las_lhs(n, r)
    values: Dict[int, Fraction] = {}
    for k in range(1, n + 1):
        d = n - k
        a = residue.coeff(d) * factorial(d)  # basis leading coefficient is 1/d!
        if a:
            values[k] = r.total * a
            residue = residue - shifted_binom_poly(n, k).scale(a)
    if residue:
        raise AssertionError("triangular back-substitution left a nonzero residue")
    return CoeffTable("c", r, values)


REFERENCES = {
    "las": _check_las,
    "bigeq": _check_bigeq,
    "las0p": _check_las0p,
    "las0pp": _check_las0pp,
    "mac": _check_mac,
    "lemma1": _check_lemma1,
    "linm": _check_linm,
    "linbin": _check_linbin,
    "linlas": _check_linlas,
    "binom2": _check_binom2,
}


# id -> the (start, step) of each pair's Newton basis, from the checker's parameters;
# None marks an integer pair, already two lists on k
NODES = {
    "las": lambda n, r: [(1 - n, 1)],
    "bigeq": lambda n, r: [(1 - n, 1), None, (0, -1)],
    "las0p": lambda n, r: [(0, -1)],
    "las0pp": lambda n, p, r: [(0, -1)],
    "mac": lambda n: [(1 - n, 1)] * 2,
    "lemma1": lambda n: [(1 - n, 1)] * (n + 1),
    "linm": lambda r: [None, None, None],
    "linbin": lambda r: [(0, 1), None, None],
    "linlas": lambda r: [(0, 1), None, None],
    "binom2": lambda r1, r2: [(0, -1)],
}


# linlas's product is one rising loop over every factor's shifts: shapes past the grid,
# with more factors, zero padding and larger parts
EXTRA = {"linlas": [dict(r=Composition(q)) for q in ((0, 5, 0, 4), (2, 2, 2, 2, 2), (1, 8), (12,))]}


def _grid(ident: str) -> List[dict]:
    """The id's sweep grid at n <= 8, m <= 3, r_i <= 3 (binom2: r1, r2 <= 12), then its
    `EXTRA` instances."""
    grid_fn = identities._IDENTITIES[ident][1]
    comps = list(iter_compositions(3, 3))
    return [*grid_fn(ns=range(1, 9), comps=lambda: comps, p=None, r=None,
                     m_max=3, r_max=12 if ident == "binom2" else 3, t_max=1), *EXTRA.get(ident, [])]


@pytest.mark.parametrize("ident", sorted(REFERENCES))
def test_right_sides_match_per_k_sums(ident):
    grid = _grid(ident)
    assert grid
    for params in grid:
        got = identities._IDENTITIES[ident][0](**params)
        want = REFERENCES[ident](**params)
        assert len(got) == len(want), (ident, params)
        for pair, ref, nodes in zip(got, want, NODES[ident](**params)):
            if nodes is not None:
                ref = tuple(_on_newton_basis(side, *nodes) for side in ref)
            assert pair == ref, (ident, params)


def test_extract_c_matches_back_substitution():
    for r in [*iter_compositions(3, 3), Composition([5, 4]), Composition([0, 6, 1])]:
        for n in range(1, 11):
            got, want = extract_c_from_las(n, r), _old_extract_c_from_las(n, r)
            assert got.values == want.values, (n, r)
            assert list(got.values) == list(want.values), (n, r)
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
    tables = [linearization_d(r, "d").values for r in iter_compositions(3, 3)]
    tables += [{}, {0: Fraction(-7, 3)}, {5: Fraction(1, 2), 2: 3}, {3: 0, 0: 1}]
    for coeffs in tables:
        assert from_falling_basis(coeffs) == _old_from_falling_basis(coeffs), coeffs
