"""Exact verification of the package's polynomial identities.

Every check compares pairs of explicitly constructed polynomials
coefficient by coefficient; "verified" means exact equality.  A pair is
two UPoly in X, except for the two identities in an extra variable, which
compare one pair per power of it: lemma1 one UPoly pair in X per power
of y, waring one MPoly pair in the x variables (truncated to the caps)
per power of t.  Supported identity ids:

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

Each univariate right side is one `newton_sum` over its coefficients on
binomial(X+n-1, j), binomial(X+j-1, j) or binomial(X, j); product sides keep
the basis constructors' own loops, so no identity's two sides share code.
The checker inputs (species products, partition sums, the las0pp and
two-factor coefficient lists) are whole integer runs, `math.comb` mapped over
ranges and multiplied entrywise, built in this module: they share no code
with the c_k routes they check.  waring's caps and t_max have a budget,
WARING_BOX_MAX and WARING_DEGREE_MAX, checked by its grid and its checker.

The six partition-sum left sides (las, las0p, las0pp, bigeq, mac, lemma1)
read one integer table of S_n class sizes n!/z_mu, `_class_table`.  It is
built by enumerating partitions, not from sum_mu X^l(mu) t^|mu| / z_mu =
(1-t)^(-X): that is las0p's right side, so las0p would then check nothing.
The tables come from `_class_tables(n, weighted)`, one bounded `lru_cache`
(64 entries) keyed by (n, weighted): a single pass over
`partitions.partitions_of` fills the unweighted table, or every p's
table of las0pp's Ferrers weight at once.  After one `identity_sweep`
benchmark list it holds 43 entries (163 tables), about 0.46 MiB.  An n
over PARTITION_N_MAX is rejected there, and by the grid of each
partition-sum id, before `sweep` runs any instance.

The brute-force oracle sides of linm, linbin and linlas (transversal
partitions, covering choices by sets and by multisets) come from
`_oracle_counts(kind, parts)`, one bounded `lru_cache` (128 entries) keyed
by the oracle and `Composition.species`, the sorted nonzero species sizes:
an oracle count depends only on that multiset, so each permutation or zero
padding of a composition reads one enumeration.  Each instance still builds
its own closed form and product polynomial and compares them with the
counts; none is inferred from another.  The oracles keep no memo: they are
the ground truth, enumerating every object, and reusing a count is this
checker's choice.  The memo calls them through this module's globals, so a
hook or monkeypatch on them sees each enumeration it makes.  After one
`identity_sweep` benchmark list it holds 71 entries (22 for each covering
mode, 27 for linm), read by 537 instances.

Each id has one entry in a table holding its checker and its parameter
grid; the fixed parameters (n, p, r) an id takes are those its grid
function reads, the named parameters of its code object
(``__code__.co_varnames[:co_argcount]``).  Each (id, params) verification
is independent, so sweeps can be fanned out; `sweep` validates the whole
grid before checking any instance, then yields reports in a fixed
deterministic parameter order.
"""

from __future__ import annotations

import json
import math
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian, repeat
from operator import mul
from typing import Iterator, List, NamedTuple, Sequence, Tuple

from .coefficients import (
    CoeffTable,
    Composition,
    as_composition,
    c_table,
    check_positive_species,
    iter_compositions,
    linearization_d,
)
from .exactnum import binomial, factorial, forward_differences
from .oracles import (
    COVERING_K_MAX,
    INJECTION_N_MAX,
    oracle_covering_choices,
    oracle_injection_cycle_poly,
    oracle_transversal_partitions,
)
from .partitions import ferrers_poly, partitions_of
from .polybasis import UPoly, binom_poly, falling_poly, from_falling_basis, newton_coeffs, newton_sum, rising_poly
from .series import MPoly, homogeneous_h


# json.dumps with non-default separators builds a new encoder on every call
_encode = json.JSONEncoder(separators=(",", ":")).encode


class IdentityReport(NamedTuple):
    id: str
    params: dict
    status: str
    lhs: str | None = None
    rhs: str | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_line(self) -> str:
        return _encode({"id": self.id, "params": self.params, "status": self.status})


# ---------------------------------------------------------------------------
# shared building blocks
# ---------------------------------------------------------------------------

# The six partition-sum ids enumerate every partition of n, and p(n) grows
# as exp(pi sqrt(2n/3)): p(45) = 89,134, p(200) is about 4*10^12.  An n over
# this budget is rejected before any enumeration.  At n = 45, cold, one las0pp
# instance (every p's weighted table) takes 5.6 s, bigeq 0.4 s, mac 0.3 s
# (Python 3.11, 2-core Xeon VM).
PARTITION_N_MAX = 45


def _check_partition_budget(n: int) -> None:
    if n > PARTITION_N_MAX:
        raise ValueError(f"n = {n} is over the partition-sum budget PARTITION_N_MAX = {PARTITION_N_MAX}")


@lru_cache(maxsize=64)
def _class_tables(n: int, weighted: bool) -> Tuple[Tuple[Tuple[int, ...], ...], ...]:
    """The tables T[l][j] = sum over mu |- n, l(mu) = l of w(mu) * m_j(mu) *
    n!/z_mu, for j <= n + 1 - l, the largest part: one table with w = 1, or
    if weighted the tables with w = ferrers_choose(., p) for p = 0..n, indexed
    by p and all filled from one Ferrers polynomial per partition.

    One pass over `partitions_of`; the unweighted table computes no Ferrers
    polynomial.  Memoized by (n, weighted): sweeps repeat each n across
    compositions and p.  An n over PARTITION_N_MAX raises ValueError."""
    _check_partition_budget(n)
    nfact = factorial(n)
    tables = [[[0] * (n + 2 - l) for l in range(n + 1)] for _ in range(n + 1 if weighted else 1)]
    for mults, length, z in partitions_of(n):
        size = nfact // z
        weights = enumerate(ferrers_poly(mults, n)) if weighted else ((0, 1),)
        for p, w in weights:
            if w:
                row = tables[p][length]
                for part, mult in mults:
                    row[part] += size * w * mult
    return tuple(tuple(tuple(row) for row in table) for table in tables)


def _class_table(n: int, p: int | None = None) -> Tuple[Tuple[int, ...], ...]:
    """The table of `_class_tables` with w = ferrers_choose(., p), or w = 1
    if p is None."""
    return _class_tables(n, p is not None)[p or 0]


def _partition_sum(n: int, g: Sequence[int], p: int | None = None) -> List[int]:
    """n! times the X^(l-1) coefficients, l = 1..n, of the sum over mu |- n of
    w(mu) * X^(l(mu)-1) / z_mu * sum_i g[mu_i]; w as in `_class_table`."""
    return [sum(map(mul, g, row)) for row in _class_table(n, p)[1:]]


def _species_products(n: int, r: Composition) -> List[int]:
    """[0, P_1, ..., P_n], P_j = prod_k C(j+r_k-1, r_k) = prod_k rising(j, r_k)/r_k!:
    one run of C(j+r_k-1, r_k), j = 1..n, per species, multiplied entrywise."""
    P = [1] * n
    for rk in r.parts:
        P = list(map(mul, P, map(math.comb, range(rk, n + rk), repeat(rk))))
    return [0, *P]


def _las_lhs(n: int, r: Composition, p: int | None = None, P: Sequence[int] | None = None) -> UPoly:
    """`_partition_sum` / n! at g = P, the `_species_products` of r unless given."""
    g = _species_products(n, r) if P is None else P
    return UPoly._of(_partition_sum(n, g, p), factorial(n))


# waring builds one c_table per point of its box, prod(cap_i + 1) points, then
# enumerates every partition of each size up to |caps| and takes one truncated
# MPoly product per partition with at most t_max parts.  A box over
# WARING_BOX_MAX, or a |caps| or t_max over WARING_DEGREE_MAX, is rejected
# before any of it.  The largest accepted instances, cold, take 2.7 s: caps
# (15, 15) or (10, 20) at t_max 30; (15, 15) at t_max 4, as the CLI runs it,
# takes 0.5 s.  Over budget, (3,3,3,3,3,3) at t_max 4 took 24 s and (63,) 23 s
# (Python 3.11, 2-core Xeon VM).
WARING_BOX_MAX = 256
WARING_DEGREE_MAX = 30


def _check_waring_budget(caps: Sequence[int], t_max: int) -> None:
    box = math.prod(c + 1 for c in caps)
    if box > WARING_BOX_MAX or sum(caps) > WARING_DEGREE_MAX or t_max > WARING_DEGREE_MAX:
        raise ValueError(
            f"waring: caps {list(caps)} at t_max {t_max} are over the budget: need the box "
            f"prod(cap_i + 1) = {box} <= WARING_BOX_MAX = {WARING_BOX_MAX} and |caps| = {sum(caps)} "
            f"and t_max <= WARING_DEGREE_MAX = {WARING_DEGREE_MAX}")


# linm adds its transversal oracle side up to |r| = TRANSVERSAL_T_MAX, linbin
# and linlas their covering sides up to |r| = COVERING_K_MAX = 6.  The oracle
# memo's reachable keys are therefore the partitions of t <= 6 for each
# covering mode (29 each) and of t <= 7 for linm (44): 102 keys, so its 128
# entries never evict.
TRANSVERSAL_T_MAX = 7


@lru_cache(maxsize=128)
def _oracle_counts(kind: str, parts: Tuple[int, ...]) -> Tuple[int, ...]:
    """The oracle's counts at k = 1..|parts|: transversal partitions if kind is
    "transversal", else covering choices in mode kind, "set" or "multiset"."""
    r, ks = Composition(parts), range(1, sum(parts) + 1)
    if kind == "transversal":
        return tuple(oracle_transversal_partitions(r, k) for k in ks)
    return tuple(oracle_covering_choices(r, k, kind) for k in ks)


Pair = Tuple[object, object]


# ---------------------------------------------------------------------------
# checkers: each returns a list of (lhs, rhs) pairs that must be equal
# ---------------------------------------------------------------------------

def _check_las(n: int, r: Composition) -> List[Pair]:
    c = c_table(r).values
    return [(_las_lhs(n, r), newton_sum(1 - n, 1, [Fraction(c.get(k, 0), r.total) for k in range(n, 0, -1)]))]


def _check_bigeq(n: int, r: Composition) -> List[Pair]:
    check_positive_species(r)
    # F_j = prod_l r_l C(j+r_l-1, r_l): seatings of every species, r_l representatives
    # each, at one j-chair table, so F is prod(r) times the species products
    rprod = math.prod(r.parts)
    F = [rprod * x for x in _species_products(n, r)]
    lhs = UPoly(_partition_sum(n, F))
    # term k is a multiple of rising(X+k, n-k) = (n-k)! binomial(X+n-1, n-k) in the c and S
    # forms, of rising(X, n-k) = (n-k)! binomial(X+n-k-1, n-k) in F; the lists run k = n..1
    nfact, c, S = factorial(n), c_table(r).values, forward_differences(F)  # S_k = Delta^k F(0)
    form_c = [Fraction(c.get(k, 0) * nfact * rprod, r.total) for k in range(n, 0, -1)]
    form_s = [nfact // k * S[k] for k in range(n, 0, -1)]
    form_f = [nfact // k * F[k] for k in range(n, 0, -1)]
    return [(lhs, newton_sum(1 - n, 1, form_c)), (lhs, newton_sum(1 - n, 1, form_s)),
            (lhs, newton_sum(0, -1, form_f))]


def _check_las0p(n: int, r: Composition) -> List[Pair]:
    P = _species_products(n, r)
    return [(_las_lhs(n, r, P=P), newton_sum(0, -1, [Fraction(P[k], k) for k in range(n, 0, -1)]))]


def _check_las0pp(n: int, p: int, r: Composition) -> List[Pair]:
    P = _species_products(n, r)
    # a[p-k], on binomial(X+p-k-1, p-k), is 1/k sum_j C(j-1, k-1) mchoose(p-k, n-p-j+k) P_j
    # over j = k..n-p+k, where mchoose(a, q) = C(a+q-1, q) counts multisets: at k = p
    # only j = n is nonzero, below it the term is C(j-1, k-1) C(n-1-j, p-1-k) P_j
    a = [Fraction(math.comb(n - 1, p - 1) * P[n], p)]
    for k in range(p - 1, 0, -1):
        up = map(math.comb, range(k - 1, n - p + k), repeat(k - 1))  # C(j-1, k-1), j = k..n-p+k
        down = map(math.comb, range(n - 1 - k, p - 2 - k, -1), repeat(p - 1 - k))  # C(n-1-j, p-1-k)
        a.append(Fraction(sum(map(mul, map(mul, up, down), P[k:n - p + k + 1])), k))
    return [(_las_lhs(n, r, p, P), newton_sum(0, -1, a))]


def _check_mac(n: int) -> List[Pair]:
    # sum_j m_j(mu) = l(mu), so g = 1 weights each mu by its length
    nfact = factorial(n)
    deriv = [Fraction(s, nfact) for s in _partition_sum(n, [1] * (n + 1))]
    body = [0] + [d / l for l, d in enumerate(deriv, 1)]
    return [
        (UPoly(body), newton_sum(1 - n, 1, [0] * n + [1])),
        (UPoly(deriv), newton_sum(1 - n, 1, [Fraction((-1) ** (k - 1), k) for k in range(n, 0, -1)])),
    ]


def _check_lemma1(n: int) -> List[Pair]:
    # sum over mu |- n of X^(l(mu)-1) / z_mu * (sum_i y^mu_i - l(mu)) against
    # sum_k binomial(X+n-1, n-k) (y-1)^k / k: one UPoly pair in X per power y^j
    rows = _class_table(n)[1:]
    pairs: List[Pair] = []
    for j in range(n + 1):
        # row l has n+2-l entries, so the rows too short for column j are a suffix
        col = [row[j] if j else -sum(row) for row in rows if j < len(row)]
        a = [Fraction((-1) ** (k + j) * binomial(k, j), k) for k in range(n, 0, -1)]
        pairs.append((UPoly(col).scale(Fraction(1, factorial(n))), newton_sum(1 - n, 1, a)))
    return pairs


def _check_waring(caps: Sequence[int], t_max: int) -> List[Pair]:
    # sum over x^r in the caps box of sum_k c_k(r) t^k against sum over lambda of
    # |lambda| (l-1)! / prod_j m_j! * t^l(lambda) * h_lambda: one MPoly pair per power t^l
    caps = Composition(caps).parts  # the rule sweep's grid applies: no empty box
    _check_waring_budget(caps, t_max)
    tables = [(parts, c_table(Composition(parts)).values)
              for parts in _cartesian(*(range(c + 1) for c in caps)) if any(parts)]
    h = {j: homogeneous_h(j, caps) for j in range(1, sum(caps) + 1)}
    # h_lambda by multiplicity form: lambda less one copy of its smallest part
    # has a smaller size, so it is already here and each h_lambda is one product
    h_lam = {(): MPoly.const(caps, 1)}
    rhs = {l: MPoly.zero(caps) for l in range(1, t_max + 1)}
    for size in h:
        for mults, length, _ in partitions_of(size):
            if length <= t_max:
                part, mult = mults[-1]
                less = mults[:-1] + ((part, mult - 1),) if mult > 1 else mults[:-1]
                h_lam[mults] = h_lam[less] * h[part]
                coef = Fraction(size * factorial(length - 1), math.prod(factorial(m) for _, m in mults))
                rhs[length] = rhs[length] + h_lam[mults].scale(coef)
    return [(MPoly(caps, {parts: c.get(l, 0) for parts, c in tables}), rhs[l]) for l in rhs]


def _check_linm(r: Composition) -> List[Pair]:
    lhs = math.prod((falling_poly(ri) for ri in r.parts), start=UPoly.one())
    pairs: List[Pair] = [(lhs, from_falling_basis(linearization_d(r, "d").values))]
    if r.m == 2:
        r1, r2 = r.parts
        closed = {r1 + r2 - k: binomial(r1, k) * binomial(r2, k) * factorial(k) for k in range(min(r1, r2) + 1)}
        pairs.append((lhs, from_falling_basis(closed)))
    if r.total <= TRANSVERSAL_T_MAX:
        oracle = dict(enumerate(_oracle_counts("transversal", r.species), 1))
        pairs.append((lhs, from_falling_basis(oracle)))
    return pairs


def _two_factor(r1: int, r2: int, sign: int) -> List[int]:
    # a[i] = sign^l multinomial(i, (l, i-r2, i-r1)) = sign^l C(i, l) C(2i-r1-r2, i-r2)
    # at l = r1+r2-i <= min(r1, r2), else 0: two runs over i = max(r1, r2)..r1+r2
    s, top = r1 + r2, max(r1, r2)
    ls = range(s - top, -1, -1)
    c_il = map(math.comb, range(top, s + 1), ls)  # C(i, l)
    c_rest = map(math.comb, range(2 * top - s, s + 1, 2), range(top - r2, r1 + 1))  # C(2i-r1-r2, i-r2)
    return [0] * top + [sign ** l * x * y for l, x, y in zip(ls, c_il, c_rest)]


def _check_linbin(r: Composition) -> List[Pair]:
    lhs = math.prod((binom_poly(ri) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "d_tilde").values  # every right side on binomial(X, k), k = 0..|r|
    sides = [[table.get(k, 0) for k in range(r.total + 1)]]
    if r.m == 2:
        sides.append(_two_factor(*r.parts, 1))
    if r.total <= COVERING_K_MAX:  # k runs up to |r|
        sides.append([0, *_oracle_counts("set", r.species)])
    return [(lhs, newton_sum(0, 1, a)) for a in sides]


def _check_linlas(r: Composition) -> List[Pair]:
    lhs = math.prod((rising_poly(ri).scale(Fraction(1, factorial(ri))) for ri in r.parts), start=UPoly.one())
    table = linearization_d(r, "c_tilde").values
    sides = [[table.get(k, 0) for k in range(r.total + 1)]]
    if r.total <= COVERING_K_MAX:
        sides.append([0, *_oracle_counts("multiset", r.species)])
    return [(lhs, newton_sum(0, 1, a)) for a in sides]


def _check_binom2(r1: int, r2: int) -> List[Pair]:
    r1, r2 = Composition((r1, r2)).parts  # the rule sweep's grid applies: no empty pair
    lhs = rising_poly(r1).scale(Fraction(1, factorial(r1))) * rising_poly(r2).scale(Fraction(1, factorial(r2)))
    # rising(X, i)/i! = binomial(X+i-1, i)
    return [(lhs, newton_sum(0, -1, _two_factor(r1, r2, -1)))]


def _check_injections(n: int, k: int) -> List[Pair]:
    return [(oracle_injection_cycle_poly(n, k), rising_poly(n - k, shift=k))]


def _check_n_p(n: int | None, p: int | None) -> None:
    """The rule on the shared parameters: n >= 1 and 1 <= p <= n."""
    if (n is not None and n < 1) or (p is not None and p < 1):
        raise ValueError(f"n and p must be positive, got n={n}, p={p}")
    if n is not None and p is not None and p > n:
        raise ValueError(f"need p <= n, got p={p}, n={n}")


def verify(identity: str, **params) -> IdentityReport:
    """Check one identity instance; exact equality decides the verdict.  An
    ``r`` that is not a composition, or an instance with no pair to compare,
    raises ValueError."""
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    _check_n_p(params.get("n"), params.get("p"))
    if "r" in params:  # any sequence, checked as waring's caps are
        params["r"] = as_composition(params["r"])
    shown = {k: list(v.parts) if isinstance(v, Composition) else v for k, v in params.items()}
    pairs = _IDENTITIES[identity][0](**params)
    if not pairs:  # comparing nothing verifies nothing
        raise ValueError(f"{identity}: no pair to compare at {shown}")
    for lhs, rhs in pairs:
        if lhs != rhs:
            return IdentityReport(identity, shown, "failed", lhs=str(lhs), rhs=str(rhs))
    return IdentityReport(identity, shown, "verified")


def extract_c_from_las(n: int, r: Composition) -> CoeffTable:
    """Recover the c_k(r) from the degree-(n-1) partition sum alone.

    The basis {binomial(X+n-1, n-k)}, k = 1..n, is the Newton basis at the
    nodes 1-n, 2-n, ..., so one `newton_coeffs` pass solves the expansion
    uniquely.
    Entries come out as |r| times the expansion coefficients; zero entries
    are dropped.
    """
    _check_n_p(n, None)
    r = as_composition(r)
    a = newton_coeffs(_las_lhs(n, r), 1 - n, 1) + [0] * n  # a[n-k] on binomial(X+n-1, n-k)
    if any(a[n:]):
        raise AssertionError("the partition sum has a term outside binomial(X+n-1, n-k), k = 1..n")
    return CoeffTable("c", r, {k: r.total * a[n - k] for k in range(1, n + 1) if a[n - k]})


# ---------------------------------------------------------------------------
# parameter grids: each turns the sweep bounds into the checker's kwargs
# ---------------------------------------------------------------------------

def _partition_ns(ns):
    """The n values of a partition-sum grid, its top n checked against the
    budget before any table is built."""
    if ns:
        _check_partition_budget(ns[-1])  # ns rises
    return ns


def _grid_n(ns, **_) -> List[dict]:
    return [dict(n=n) for n in _partition_ns(ns)]


def _grid_r(comps, **_) -> List[dict]:
    return [dict(r=r) for r in comps()]


def _grid_n_r(ns, comps, **_) -> List[dict]:
    ns, rs = _partition_ns(ns), comps()
    return [dict(n=n, r=r) for n in ns for r in rs]


def _grid_bigeq(ns, comps, r, **_) -> List[dict]:
    if r is not None:  # a fixed r is rejected, not dropped from the grid
        check_positive_species(r)
    ns, rs = _partition_ns(ns), [q for q in comps() if 0 not in q.parts]
    return [dict(n=n, r=q) for n in ns for q in rs]


def _grid_las0pp(ns, comps, p, **_) -> List[dict]:
    ns, rs = _partition_ns(ns), comps()
    return [dict(n=n, p=q, r=r) for n in ns for q in ([p] if p else range(1, n + 1)) if q <= n for r in rs]


def _grid_waring(r, m_max, r_max, t_max, **_) -> List[dict]:
    if t_max < 1:
        raise ValueError(f"waring: t_max must be positive, got {t_max}")
    # caps go through Composition, so negative or all-zero caps are rejected
    caps = [r] if r is not None else [Composition((r_max,) * m) for m in range(1, m_max + 1)]
    for c in caps:
        _check_waring_budget(c.parts, t_max)
    return [dict(caps=c.parts, t_max=t_max) for c in caps]


def _grid_binom2(r, r_max, **_) -> List[dict]:
    if r is None:
        return [dict(r1=a, r2=b) for a in range(r_max + 1) for b in range(r_max + 1) if a + b]
    if r.m != 2:
        raise ValueError("binom2 needs a two-entry composition")
    return [dict(r1=r.parts[0], r2=r.parts[1])]


def _grid_injections(ns, **_) -> List[dict]:
    if ns and ns[-1] > INJECTION_N_MAX:  # ns rises
        raise ValueError(f"injections: n = {ns[-1]} is over the oracle budget {INJECTION_N_MAX}")
    return [dict(n=n, k=k) for n in ns for k in range(n + 1)]


# grid-function parameter -> the fixed sweep() parameter it consumes
_FIXES = {"ns": "n", "comps": "r", "r": "r", "p": "p"}

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

# id -> the fixed sweep() parameters it takes: those its grid function reads,
# the named parameters of its code object (the catch-all **_ is not among them)
_TAKES = {
    ident: {_FIXES[a] for a in grid_fn.__code__.co_varnames[:grid_fn.__code__.co_argcount] if a in _FIXES}
    for ident, (_, grid_fn) in _IDENTITIES.items()
}


def sweep(
    identity: str,
    *,
    n_max: int = 6,
    m_max: int = 2,
    r_max: int = 3,
    t_max: int = 4,
    n: int | None = None,
    p: int | None = None,
    r: Composition | Sequence[int] | None = None,
) -> Iterator[IdentityReport]:
    """Verify an identity over its bounded parameter grid, in deterministic
    order.  Which bounds apply depends on the identity; fixing ``n``, ``p``
    or ``r`` narrows the corresponding range to that single value.  An
    identity takes the fixed parameters its grid function reads.

    The grid is built before any instance runs, so an unknown id, a fixed
    parameter the identity does not take, ``n``, ``p`` or ``t_max`` below
    1, ``p > n``, an ``r`` that is not a composition, an oracle or
    partition-sum budget overrun or an empty grid raises ValueError here,
    not midway through the returned iterator."""
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}; known: {', '.join(IDENTITY_IDS)}")
    grid_fn = _IDENTITIES[identity][1]
    fixed = (("n", n), ("p", p), ("r", r))
    ignored = [name for name, v in fixed if v is not None and name not in _TAKES[identity]]
    if ignored:
        raise ValueError(f"{identity} takes no fixed {' or '.join(ignored)}")
    _check_n_p(n, p)
    r = None if r is None else as_composition(r)
    # a range, not a list: a large n_max costs nothing for an id that reads no n
    ns = range(n, n + 1) if n is not None else range(1, n_max + 1)

    def comps() -> List[Composition]:  # built only for the ids that take r, each calling it once
        return [r] if r is not None else list(iter_compositions(m_max, r_max))

    grid = grid_fn(ns=ns, comps=comps, p=p, r=r, m_max=m_max, r_max=r_max, t_max=t_max)
    if not grid:
        raise ValueError(f"{identity}: no instance within the given bounds")
    return (verify(identity, **params) for params in grid)
