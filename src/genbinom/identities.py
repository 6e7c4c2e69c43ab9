"""Exact verification of the package's polynomial identities.

Every check compares two explicitly constructed polynomials (UPoly in X,
or a truncated MPoly) coefficient by coefficient; "verified" means exact
equality.  Supported identity ids:

  las         partition sum against the c_k expansion in binomial(X+n-1, n-k)
  bigeq       scenario count: partition sum vs the S_k / F_k / c_k forms
  las0p       partition sum vs the per-k product form
  las0pp      the same with a marked-cells factor <mu, p>
  mac         weighted partition sums against binomial(X+n-1, n) and its
              alternating companion
  lemma1      bivariate (X, y) generating identity at fixed total weight
  waring      two-variable-family expansion against complete homogeneous
              symmetric functions
  linm        prod falling(r_i) = sum_k d_k falling(k)
  linbin      prod binom(x, r_i) = sum_k dt_k binom(x, k)
  linlas      prod multichoose(x, r_i) = sum_k ct_k binom(x, k)
  binom2      two-factor normalized linearization with alternating signs
  injections  cycle-count polynomial of injections vs a rising factorial

The six partition-sum left sides (las, las0p, las0pp, bigeq, mac, lemma1)
read one integer table of S_n class sizes n!/z_mu, `_class_table`.  It is
built by enumerating partitions, not from sum_mu X^l(mu) t^|mu| / z_mu =
(1-t)^(-X): that is las0p's right side, so las0p would then check nothing.

Each id has one entry in a table holding its checker and its parameter
grid.  Each (id, params) verification is independent, so sweeps can be
fanned out; `sweep` validates the whole grid before checking any instance,
then yields reports in a fixed deterministic parameter order.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from typing import Dict, Iterator, List, Sequence, Tuple

from .coefficients import (
    CoeffTable,
    Composition,
    c_table,
    check_positive_species,
    iter_compositions,
    linearization_d,
    seating_counts,
)
from .exactnum import binomial, factorial, multinomial, rising
from .oracles import (
    INJECTION_N_MAX,
    oracle_covering_choices,
    oracle_injection_cycle_poly,
    oracle_transversal_partitions,
)
from .partitions import ferrers_choose, partitions_of, z_mu
from .polybasis import (
    UPoly,
    binom_poly,
    falling_poly,
    from_falling_basis,
    rising_poly,
    shifted_binom_poly,
)
from .series import MPoly, homogeneous_h


@dataclass
class IdentityReport:
    id: str
    params: dict
    status: str
    lhs: str | None = None
    rhs: str | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_line(self) -> str:
        return json.dumps(
            {"id": self.id, "params": self.params, "status": self.status},
            separators=(",", ":"),
        )


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------

@lru_cache(maxsize=256)
def _class_table(n: int, p: int | None = None) -> Tuple[Tuple[int, ...], ...]:
    """T[l][j] = sum over mu |- n, l(mu) = l of w(mu) * m_j(mu) * n!/z_mu, for
    j <= n + 1 - l, the largest part; w = ferrers_choose(., p), or 1 if p is
    None.  Memoized by (n, p): sweeps repeat each (n, p) across compositions."""
    nfact = factorial(n)
    table = [[0] * (n + 2 - l) for l in range(n + 1)]
    for mu in partitions_of(n):
        w = nfact // z_mu(mu) * (1 if p is None else ferrers_choose(mu, p))
        row = table[mu.length]
        for part, mult in mu.mults.items():
            row[part] += w * mult
    return tuple(tuple(row) for row in table)


def _partition_sum(n: int, g: Sequence[int], p: int | None = None) -> List[int]:
    """n! times the X^(l-1) coefficients, l = 1..n, of the sum over mu |- n of
    w(mu) * X^(l(mu)-1) / z_mu * sum_i g[mu_i]; w as in `_class_table`."""
    return [sum(gj * t for gj, t in zip(g, row)) for row in _class_table(n, p)[1:]]


def _las_lhs(n: int, r: Composition, p: int | None = None) -> UPoly:
    """`_partition_sum` / n! at g(j) = prod_k C(j+r_k-1, r_k) = prod_k rising(j, r_k)/r_k!."""
    g = [0] + [math.prod(binomial(j + rk - 1, rk) for rk in r.parts) for j in range(1, n + 1)]
    nfact = factorial(n)
    return UPoly(Fraction(s, nfact) for s in _partition_sum(n, g, p))


def _mchoose(a: int, q: int) -> int:
    """Multisets of size q from a symbols: rising(a, q)/q!; (0, 0) -> 1."""
    return rising(a, q) // factorial(q)


Pair = Tuple[object, object]


# ---------------------------------------------------------------------------
# checkers: each returns a list of (lhs, rhs) pairs that must be equal
# ---------------------------------------------------------------------------

def _check_las(n: int, r: Composition) -> List[Pair]:
    lhs = _las_lhs(n, r)
    c = c_table(r).values
    rhs = UPoly.zero()
    for k in range(1, min(n, r.total) + 1):
        rhs = rhs + shifted_binom_poly(n, k).scale(c[k])
    return [(lhs, rhs.scale(Fraction(1, r.total)))]


def _check_bigeq(n: int, r: Composition) -> List[Pair]:
    check_positive_species(r)
    # g(j): seatings of every species, r_l representatives each, at one j-chair table
    g = [0] + [math.prod(j * binomial(j + rl - 1, rl - 1) for rl in r.parts) for j in range(1, n + 1)]
    lhs = UPoly(_partition_sum(n, g))

    c = c_table(r).values
    rhs_c = UPoly.zero()
    for k in range(1, min(n, r.total) + 1):
        w = c[k] * factorial(k) * binomial(n, k)
        rhs_c = rhs_c + rising_poly(n - k, shift=k).scale(w)
    rhs_c = rhs_c.scale(Fraction(math.prod(r.parts), r.total))

    rhs_s = UPoly.zero()
    rhs_f = UPoly.zero()
    for k in range(1, n + 1):
        w = factorial(k - 1) * binomial(n, k)
        rhs_s = rhs_s + rising_poly(n - k, shift=k).scale(w * seating_counts(r, k, "S"))
        rhs_f = rhs_f + rising_poly(n - k).scale(w * seating_counts(r, k, "F"))
    return [(lhs, rhs_c), (lhs, rhs_s), (lhs, rhs_f)]


def _check_las0p(n: int, r: Composition) -> List[Pair]:
    lhs = _las_lhs(n, r)
    rhs = UPoly.zero()
    for k in range(1, n + 1):
        w = Fraction(math.prod(binomial(rl + k - 1, rl) for rl in r.parts), k)
        rhs = rhs + shifted_binom_poly(n - k, 0).scale(w)
    return [(lhs, rhs)]


def _check_las0pp(n: int, p: int, r: Composition) -> List[Pair]:
    lhs = _las_lhs(n, r, p)
    rhs = UPoly.zero()
    for k in range(1, min(p, n) + 1):
        inner = 0
        for j in range(k, n - p + k + 1):
            inner += (
                binomial(j - 1, k - 1)
                * _mchoose(p - k, n - p - j + k)
                * math.prod(binomial(rl + j - 1, rl) for rl in r.parts)
            )
        rhs = rhs + shifted_binom_poly(p - k, 0).scale(Fraction(inner, k))
    return [(lhs, rhs)]


def _check_mac(n: int) -> List[Pair]:
    # sum_j m_j(mu) = l(mu), so g = 1 weights each mu by its length
    nfact = factorial(n)
    deriv = [Fraction(s, nfact) for s in _partition_sum(n, [1] * (n + 1))]
    body = [0] + [d / l for l, d in enumerate(deriv, 1)]
    rhs_deriv = UPoly.zero()
    for k in range(1, n + 1):
        rhs_deriv = rhs_deriv + shifted_binom_poly(n, k).scale(Fraction((-1) ** (k - 1), k))
    return [
        (UPoly(body), shifted_binom_poly(n, 0)),
        (UPoly(deriv), rhs_deriv),
    ]


def _embed(p: UPoly, caps: Tuple[int, ...], var: int) -> MPoly:
    terms = {}
    for d in range(p.degree + 1):
        c = p.coeff(d)
        if c:
            e = [0] * len(caps)
            e[var] = d
            terms[tuple(e)] = c
    return MPoly(caps, terms)


def _check_lemma1(n: int) -> List[Pair]:
    # sum over mu |- n of X^(l(mu)-1) / z_mu * (sum_i y^mu_i - l(mu)), in (X, y)
    caps = (n - 1, n)
    nfact = factorial(n)
    terms = {}
    for l, row in enumerate(_class_table(n)[1:]):
        terms.update({(l, j): Fraction(t, nfact) for j, t in enumerate(row) if t})
        terms[(l, 0)] = Fraction(-sum(row), nfact)
    lhs = MPoly(caps, terms)
    rhs = MPoly.zero(caps)
    ym1 = MPoly(caps, {(0, 1): 1, (0, 0): -1})
    power = MPoly.const(caps, 1)  # (y - 1)^k, one product per k
    for k in range(1, n + 1):
        power = power * ym1
        rhs = rhs + _embed(shifted_binom_poly(n, k), caps, 0) * power.scale(Fraction(1, k))
    return [(lhs, rhs)]


def _box(caps: Tuple[int, ...]) -> Iterator[Tuple[int, ...]]:
    yield from _cartesian(*(range(c + 1) for c in caps))


def _check_waring(caps: Sequence[int], t_max: int) -> List[Pair]:
    caps = tuple(int(c) for c in caps)
    full = (t_max,) + caps
    lhs = MPoly.zero(full)
    for parts in _box(caps):
        if sum(parts) == 0:
            continue
        r = Composition(parts)
        c = c_table(r).values
        for k in range(1, min(t_max, r.total) + 1):
            lhs = lhs + MPoly(full, {(k,) + parts: c[k]})
    rhs = MPoly.zero(full)
    for size in range(1, sum(caps) + 1):
        for lam in partitions_of(size):
            if lam.length > t_max:
                continue
            coef = Fraction(size * factorial(lam.length - 1))
            for mult in lam.mults.values():
                coef /= factorial(mult)
            hpart = MPoly.const(caps, 1)
            for part in lam.parts:
                hpart = hpart * homogeneous_h(part, caps)
            lifted = MPoly(full, {(lam.length,) + e: c for e, c in hpart.terms.items()})
            rhs = rhs + lifted.scale(coef)
    return [(lhs, rhs)]


def _check_linm(r: Composition) -> List[Pair]:
    lhs = UPoly.one()
    for ri in r.parts:
        lhs = lhs * falling_poly(ri)
    table = linearization_d(r, "d")
    rhs = from_falling_basis(table.values)
    pairs: List[Pair] = [(lhs, rhs)]
    if r.m == 2:
        r1, r2 = r.parts
        closed = UPoly.zero()
        for k in range(min(r1, r2) + 1):
            w = binomial(r1, k) * binomial(r2, k) * factorial(k)
            closed = closed + falling_poly(r1 + r2 - k).scale(w)
        pairs.append((lhs, closed))
    if r.total <= 7:
        oracle = UPoly.zero()
        for k in range(1, r.total + 1):
            oracle = oracle + falling_poly(k).scale(oracle_transversal_partitions(r, k))
        pairs.append((lhs, oracle))
    return pairs


def _check_linbin(r: Composition) -> List[Pair]:
    lhs = UPoly.one()
    for ri in r.parts:
        lhs = lhs * binom_poly(ri)
    table = linearization_d(r, "d_tilde")
    rhs = UPoly.zero()
    for k, v in table.values.items():
        rhs = rhs + binom_poly(k).scale(v)
    pairs: List[Pair] = [(lhs, rhs)]
    if r.m == 2:
        r1, r2 = r.parts
        closed = UPoly.zero()
        for k in range(min(r1, r2) + 1):
            w = multinomial(r1 + r2 - k, (k, r1 - k, r2 - k))
            closed = closed + binom_poly(r1 + r2 - k).scale(w)
        pairs.append((lhs, closed))
    if r.total <= 6:
        oracle = UPoly.zero()
        for k in range(1, r.total + 1):
            oracle = oracle + binom_poly(k).scale(oracle_covering_choices(r, k, "set"))
        pairs.append((lhs, oracle))
    return pairs


def _check_linlas(r: Composition) -> List[Pair]:
    lhs = UPoly.one()
    for ri in r.parts:
        lhs = lhs * rising_poly(ri).scale(Fraction(1, factorial(ri)))
    table = linearization_d(r, "c_tilde")
    rhs = UPoly.zero()
    for k, v in table.values.items():
        rhs = rhs + binom_poly(k).scale(v)
    pairs: List[Pair] = [(lhs, rhs)]
    if r.total <= 6:
        oracle = UPoly.zero()
        for k in range(1, r.total + 1):
            oracle = oracle + binom_poly(k).scale(oracle_covering_choices(r, k, "multiset"))
        pairs.append((lhs, oracle))
    return pairs


def _check_binom2(r1: int, r2: int) -> List[Pair]:
    if r1 < 0 or r2 < 0 or r1 + r2 == 0:
        raise ValueError(f"need nonnegative r1, r2 with r1+r2 > 0, got {r1}, {r2}")
    lhs = rising_poly(r1).scale(Fraction(1, factorial(r1)))
    lhs = lhs * rising_poly(r2).scale(Fraction(1, factorial(r2)))
    rhs = UPoly.zero()
    for l in range(min(r1, r2) + 1):
        w = Fraction(
            (-1) ** l * multinomial(r1 + r2 - l, (l, r1 - l, r2 - l)),
            factorial(r1 + r2 - l),
        )
        rhs = rhs + rising_poly(r1 + r2 - l).scale(w)
    return [(lhs, rhs)]


def _check_injections(n: int, k: int) -> List[Pair]:
    return [(oracle_injection_cycle_poly(n, k), rising_poly(n - k, shift=k))]


def _jsonable(value):
    if isinstance(value, Composition):
        return list(value.parts)
    if isinstance(value, (tuple, list)):
        return [_jsonable(v) for v in value]
    return value


def _check_n_p(n: int | None, p: int | None) -> None:
    """The rule on the shared parameters: n >= 1 and 1 <= p <= n."""
    if (n is not None and n < 1) or (p is not None and p < 1):
        raise ValueError(f"n and p must be positive, got n={n}, p={p}")
    if n is not None and p is not None and p > n:
        raise ValueError(f"need p <= n, got p={p}, n={n}")


def verify(identity: str, **params) -> IdentityReport:
    """Check one identity instance; exact equality decides the verdict."""
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    _check_n_p(params.get("n"), params.get("p"))
    shown = {k: _jsonable(v) for k, v in params.items()}
    pairs = _IDENTITIES[identity][0](**params)
    for lhs, rhs in pairs:
        if lhs != rhs:
            return IdentityReport(identity, shown, "failed", lhs=str(lhs), rhs=str(rhs))
    return IdentityReport(identity, shown, "verified")


def extract_c_from_las(n: int, r: Composition) -> CoeffTable:
    """Recover the c_k(r) from the degree-(n-1) partition sum alone.

    The basis {binomial(X+n-1, n-k)}, k = 1..n, is triangular in degree, so
    back-substitution from the top degree solves the expansion uniquely.
    Entries come out as |r| times the expansion coefficients; zero entries
    are dropped.
    """
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


# ---------------------------------------------------------------------------
# parameter grids: each turns the sweep bounds into the checker's kwargs
# ---------------------------------------------------------------------------

def _grid_n(ns, **_) -> List[dict]:
    return [dict(n=n) for n in ns]


def _grid_r(comps, **_) -> List[dict]:
    return [dict(r=r) for r in comps()]


def _grid_n_r(ns, comps, **_) -> List[dict]:
    return [dict(n=n, r=r) for n in ns for r in comps()]


def _grid_bigeq(ns, comps, **_) -> List[dict]:
    return [dict(n=n, r=r) for n in ns for r in comps() if 0 not in r.parts]


def _grid_las0pp(ns, comps, p, **_) -> List[dict]:
    return [dict(n=n, p=q, r=r) for n in ns for q in ([p] if p else range(1, n + 1))
            if q <= n for r in comps()]


def _grid_waring(r, m_max, r_max, t_max, **_) -> List[dict]:
    # caps go through Composition, so negative or all-zero caps are rejected
    caps = [r] if r is not None else [Composition((r_max,) * m) for m in range(1, m_max + 1)]
    return [dict(caps=c.parts, t_max=t_max) for c in caps]


def _grid_binom2(r, r_max, **_) -> List[dict]:
    if r is None:
        return [dict(r1=a, r2=b) for a in range(r_max + 1) for b in range(r_max + 1) if a + b]
    if r.m != 2:
        raise ValueError("binom2 needs a two-entry composition")
    return [dict(r1=r.parts[0], r2=r.parts[1])]


def _grid_injections(ns, **_) -> List[dict]:
    if any(n > INJECTION_N_MAX for n in ns):
        raise ValueError(f"injections: n = {max(ns)} is over the oracle budget {INJECTION_N_MAX}")
    return [dict(n=n, k=k) for n in ns for k in range(n + 1)]


_IDENTITIES = {
    "las": (_check_las, _grid_n_r),
    "bigeq": (_check_bigeq, _grid_bigeq),
    "las0p": (_check_las0p, _grid_n_r),
    "las0pp": (_check_las0pp, _grid_las0pp),
    "mac": (_check_mac, _grid_n),
    "lemma1": (_check_lemma1, _grid_n),
    "waring": (_check_waring, _grid_waring),
    "linm": (_check_linm, _grid_r),
    "linbin": (_check_linbin, _grid_r),
    "linlas": (_check_linlas, _grid_r),
    "binom2": (_check_binom2, _grid_binom2),
    "injections": (_check_injections, _grid_injections),
}

IDENTITY_IDS = tuple(sorted(_IDENTITIES))


def sweep(
    identity: str,
    *,
    n_max: int = 6,
    m_max: int = 2,
    r_max: int = 3,
    t_max: int = 4,
    n: int | None = None,
    p: int | None = None,
    r: Composition | None = None,
) -> Iterator[IdentityReport]:
    """Verify an identity over its bounded parameter grid, in deterministic
    order.  Which bounds apply depends on the identity; fixing ``n``, ``p``
    or ``r`` narrows the corresponding range to that single value.

    The grid is built before any instance runs, so an unknown id, ``n`` or
    ``p`` below 1, ``p > n``, an oracle budget overrun or an empty grid
    raises ValueError here, not midway through the returned iterator."""
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; known: {', '.join(IDENTITY_IDS)}")
    _check_n_p(n, p)
    ns = [n] if n is not None else list(range(1, n_max + 1))

    def comps() -> List[Composition]:  # built only for the ids that take r
        return [r] if r is not None else list(iter_compositions(m_max, r_max))

    grid = _IDENTITIES[identity][1](ns=ns, comps=comps, p=p, r=r, m_max=m_max, r_max=r_max, t_max=t_max)
    if not grid:
        raise ValueError(f"{identity}: no instance within the given bounds")
    return (verify(identity, **params) for params in grid)
