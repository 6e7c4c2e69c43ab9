"""Exact verification of the package's polynomial identities.

Every check compares pairs of explicitly constructed sides coefficient
by coefficient; "verified" means exact equality.  A univariate pair is two
lists on a basis index j, each held as a canonical UPoly sum_j a_j T^j, so
equal rationals have equal (coeffs, den).  An identity p(X) = sum_j
(nums_j / den) B_j on a Newton basis B_j = prod_{t<j} (X - s_t) / j!, s_t =
start + t*step, is the pair (p's `newton_coeffs` at those nodes, nums / den):
binomial(X, j) at (0, 1), binomial(X+j-1, j) at (0, -1) and binomial(X+n-1,
j) at (1-n, 1).  An integer pair, two integer lists on k, has denominator 1.
Two ids compare other pairs: injections two UPoly in X, and waring one MPoly
pair in the x variables (truncated to the caps) per power of t.  A failed
report names the first unequal pair, by its index in the checker's list, and
the lowest index where its two sides differ, with the two exact values
there: the basis index j of a Newton pair, the k of an integer pair, an
X-degree for injections, or the smallest exponent vector for waring.  Each
id's pairs, in order, with their basis (integer pairs marked *):

  las         c_k / |r| on binomial(X+n-1, j), j = n-k
  bigeq       the c form, n! prod(r) c_k / |r| on binomial(X+n-1, j), j = n-k;
              k prod(r) c_k against |r| S_k*; the F form, n! F_k / k on
              binomial(X+j-1, j), j = n-k
  las0p       P_k / k on binomial(X+j-1, j), j = n-k
  las0pp      the marked-cells sums on binomial(X+j-1, j), j = p-k
  mac         1 at j = n on binomial(X+n-1, j), then its alternating
              companion, (-1)^(k-1) / k at j = n-k
  lemma1      one pair per power y^i, i = 0..n: pair i, (-1)^(k+i) C(k, i) / k
              on binomial(X+n-1, j), j = n-k
  linm        k! d_k on binomial(X, k) against the product, then the d table
              against the merge chain* and the transversal oracle*
  linbin      d~_k on binomial(X, k) against the product, then the table
              against the chain* and the covering oracle*
  linlas      c~_k on binomial(X, k), then as linbin
  binom2      the multichoose chain's weights on binomial(X+j-1, j)
  waring      one pair per power t^l, l = 1..t_max: pair l-1

A pair the instance lacks (the merge chain over RECURRENCE_STEPS_MAX merge
steps, an oracle over its budget) is left out, so the later ones move down.
The merge chain is ``coefficients._merge_chain``, the two-factor rule
b(x, a) b(x, b) = sum_l t_l b(x, a+b-l) folded over the species: at sign +1
its weights are the d~ table itself (linm's d_k = prod r_i! d~_k / k!, one
checked division), at sign -1 the multichoose weights, which one Horner pass
moves onto binomial(X, k) for linlas and which binom2's right side reads
directly.  It takes the sorted nonzero species, so it applies whatever the
zero padding or order of r, at every shape within the budget
(``coefficients._within_merge_budget``, recurrence's rule).  Supported
identity ids:

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

Each Newton pair takes one `newton_coeffs` pass, synthetic division of its
left side at the nodes, and no expansion into monomials: its right side is
the list itself, integer numerators over one denominator (|r| for las and
bigeq's c form, lcm(1..n) for las0p, mac and lemma1, lcm(1..p) for las0pp),
so no side builds a Fraction and the module imports no `fractions`.  bigeq's
S form is the c form over |r|, k prod(r) c_k = |r| S_k.  The lin ids' table
and chain sides come from two kernels that share no code.  linlas's and
binom2's product side, prod_i binomial(X+r_i-1, r_i), is one rising loop
over every factor's shifts 0..r_i-1, `_multichoose_product`, and linm's,
prod_i falling(X, r_i), the same loop `_linear_product` over the shifts 0,
-1, ..., 1-r_i, so none of the three takes a UPoly product; linbin's alone
is one `math.prod` of `binom_poly`, which keeps its own loop.  No two sides
share code.  The other checker inputs (species products,
partition sums, the las0pp coefficient lists) are whole integer runs,
`math.comb` mapped over ranges and multiplied entrywise, built in this
module: they share no code with the c_k routes they check.  las, las0p and
las0pp read one species sequence P_j per instance, and bigeq one F_j list,
prod(r) times that sequence, whose one difference table gives its S_j.
waring's caps and t_max have a budget, WARING_BOX_MAX and WARING_DEGREE_MAX,
checked by its grid and its checker.  binom2's r1 + r2 is held to
TABLE_SIZE_MAX by its grid (2 r_max when swept) and its checker; the ids
whose instances build a table of length |r| (las, bigeq, linm, linbin,
linlas) hold their grid's largest |r|, a fixed r's own or a swept grid's
m_max * r_max, to it in their grids; las and bigeq hold |r| to it in their
checkers too, before they list the partitions of n.  The species products
take one run of length n per nonzero species, so `_species_products` holds
r to TABLE_SIZE_MAX species before any run, and the las0p and las0pp grids
hold a fixed r to it (|r| bounds the species count, so las and bigeq imply
it).

waring takes one `c_table` per species multiset of its box (19 for caps
(3,3,3), not one per point).  lambda runs over the conjugates of
`partitions_of(size, t_max)`, so no partition with more than t_max parts is
visited; each h_lambda, keyed by its multiplicity form, is one product from h
of lambda less one copy of its smallest part, and its weight
|lambda| (l-1)! / prod m_j! is one checked integer division, raising
ArithmeticError naming lambda on a remainder.

`extract_c_from_las` reads c_1..c_n off the partition sum by one
`newton_coeffs` pass at the nodes 1-n, 2-n, ...: each c_k = |r| nums[n-k] /
den is one checked division (ArithmeticError names k), and a term outside
binomial(X+n-1, n-k), k = 1..n, raises AssertionError.  A report's JSON line
reuses one encoder.

The six partition-sum left sides (las, las0p, las0pp, bigeq, mac, lemma1)
read one integer table of S_n class sizes n!/z_mu, `_class_table`.  It is
built by enumerating partitions, not from sum_mu X^l(mu) t^|mu| / z_mu =
(1-t)^(-X): that is las0p's right side, so las0p would then check nothing.
The tables come from `_class_tables(n, weighted)`, one bounded `lru_cache`
(64 entries) keyed by (n, weighted): a single pass over
`partitions.partitions_of` fills the unweighted table, or every p's
table of las0pp's Ferrers weight at once.  After one `identity_sweep`
benchmark list it holds 43 entries (163 tables), about 0.46 MiB.  An n
over PARTITION_N_MAX is rejected there, by the grid of each partition-sum
id before `sweep` runs any instance, and by `_species_products` before it
builds a run of length n; so a direct `verify` or `extract_c_from_las` call
raises before any work of size n (mac takes its partition sum before n!).

The brute-force oracle sides of linm, linbin and linlas (transversal
partitions, covering choices by sets and by multisets) come from
`_oracle_counts(kind, parts)`, one bounded `lru_cache` (128 entries, for
the 102 keys the oracle budgets allow) keyed by the oracle and
`Composition.species`, the sorted nonzero species sizes: an oracle count
depends only on that multiset, so each permutation or zero padding of a
composition reads one enumeration.  Each instance still builds
its own table, chain and product polynomial and compares them with the
counts; none is inferred from another.  The oracles keep no memo: they are
the ground truth, enumerating every object, and reusing a count is this
checker's choice.  The memo calls them through this module's globals, so a
hook or monkeypatch on them sees each enumeration it makes.  After one
`identity_sweep` benchmark list it holds 71 entries (22 for each covering
mode, 27 for linm), read by 537 instances.

Each id has one entry in a table holding its checker and its parameter
grid; `verify` takes exactly the checker's named parameters, and `sweep`
the fixed parameters (n, p, r) its grid function reads, each read once
from the code object (``__code__.co_varnames[:co_argcount]``).  Each (id,
params) verification is independent, so sweeps can be fanned out; `verify`
raises ValueError on an instance with no pair to compare; `sweep`
makes every grid check before checking any instance, then streams the
grid, drawing compositions and pairs as it yields reports in a fixed
deterministic parameter order.
"""

from __future__ import annotations

import json
import math
from functools import lru_cache
from itertools import accumulate, chain, count, product as _cartesian, repeat
from operator import mul
from typing import Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .coefficients import (
    CoeffTable,
    Composition,
    _check_table_size,
    _exact,
    _merge_chain,
    _on_binomials,
    _within_merge_budget,
    as_composition,
    c_table,
    check_positive_species,
    iter_compositions,
    linearization_d,
)
from .exactnum import as_int, binomial, factorial, forward_differences
from .oracles import (
    COVERING_K_MAX,
    INJECTION_N_MAX,
    oracle_covering_choices,
    oracle_injection_cycle_poly,
    oracle_transversal_partitions,
)
from .partitions import ferrers_poly, partitions_of
from .polybasis import UPoly, _linear_product, binom_poly, newton_coeffs, rising_poly
from .series import MPoly, homogeneous_h


# json.dumps with non-default separators builds a new encoder on every call
_encode = json.JSONEncoder(separators=(",", ":")).encode


class IdentityReport(NamedTuple):
    id: str
    params: dict
    status: str
    pair: int | None = None
    first_diff: dict | None = None

    @property
    def verified(self) -> bool:
        return self.status == "verified"

    def to_json_line(self) -> str:
        line = {"id": self.id, "params": self.params, "status": self.status}
        if self.pair is not None:
            line.update(pair=self.pair, first_diff=self.first_diff)
        return _encode(line)


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


def _partition_sum(n: int, g: Iterable[int], p: int | None = None) -> List[int]:
    """n! times the X^(l-1) coefficients, l = 1..n, of the sum over mu |- n of
    w(mu) * X^(l(mu)-1) / z_mu * sum_i g[mu_i]; w as in `_class_table`.  g is
    read from its start once per row: a list, or an endless ``repeat``."""
    return [sum(map(mul, g, row)) for row in _class_table(n, p)[1:]]


def _check_species_count(r: Composition | None) -> None:
    """Hold a fixed r to TABLE_SIZE_MAX nonzero species, the bound of `_species_products`,
    which builds one run per species (|r| bounds the count, so las and bigeq imply it)."""
    if r is not None:
        _check_table_size(len(r.species), "the species count of r")


def _species_products(n: int, r: Composition) -> List[int]:
    """[0, P_1, ..., P_n], P_j = prod_k C(j+r_k-1, r_k) = prod_k rising(j, r_k)/r_k!:
    one run of C(j+r_k-1, r_k), j = 1..n, per nonzero species (a zero part's run is
    all ones), multiplied entrywise.  An n over PARTITION_N_MAX, then more than
    TABLE_SIZE_MAX species, raises ValueError first: every caller sums over the
    partitions of n, and each species costs n ever-larger products."""
    _check_partition_budget(n)
    _check_species_count(r)
    P = [1] * n
    for rk in r.species:
        P = list(map(mul, P, map(math.comb, range(rk, n + rk), repeat(rk))))
    return [0, *P]


def _las_lhs(n: int, r: Composition, p: int | None = None, P: Sequence[int] | None = None) -> UPoly:
    """`_partition_sum` / n! at g = P, the `_species_products` of r unless given."""
    g = _species_products(n, r) if P is None else P
    return UPoly._of(_partition_sum(n, g, p), factorial(n))


# waring builds one c_table per species multiset of its box, prod(cap_i + 1)
# points, then enumerates the partitions of each size up to |caps| with at most
# t_max parts, as conjugates of those with parts <= t_max, and takes one
# truncated MPoly product per partition.  A box over WARING_BOX_MAX, or a |caps|
# or t_max over WARING_DEGREE_MAX, is rejected before any of it.  The largest accepted
# instances, cold, take 1.8 s: caps (15, 15) or (10, 20) at t_max 30; (15, 15)
# at t_max 4, as the CLI runs it, takes 0.3 s.  Over budget, (3,3,3,3,3,3) at
# t_max 4 took 24 s and (63,) 23 s (Python 3.11, 2-core Xeon VM).
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


def _integer_pairs(a: List[int], *sides: List[int] | None) -> List[Pair]:
    """(sum_k a_k T^k, sum_k b_k T^k) for each side b that is not None: integer
    lists on k compared as coefficient polynomials, so a failed pair's first_diff
    names k and the two integers there."""
    poly = UPoly._of(list(a))
    return [(poly, UPoly._of(b)) for b in sides if b is not None]


def _newton_pair(p: UPoly, start: int, step: int, nums: Iterable[int], den: int = 1) -> Pair:
    """p's coefficients on the Newton basis prod_{t<j} (X - s_t) / j!, s_t = start +
    t*step, against nums / den: both lists on j as UPolys in T, so a failed pair's
    first_diff names j and the two fractions there."""
    return UPoly._of(*newton_coeffs(p, start, step)), UPoly._of(list(nums), den)


# ---------------------------------------------------------------------------
# checkers: each returns a list of (lhs, rhs) pairs that must be equal
# ---------------------------------------------------------------------------

def _check_las(n: int, r: Composition) -> List[Pair]:
    # |r|'s budget, then n's (`_species_products`), before the partitions of n or the table
    _check_table_size(r.total, "|r|")
    lhs, c = _las_lhs(n, r), c_table(r).values
    return [_newton_pair(lhs, 1 - n, 1, [c.get(k, 0) for k in range(n, 0, -1)], r.total)]


def _check_bigeq(n: int, r: Composition) -> List[Pair]:
    check_positive_species(r)
    _check_table_size(r.total, "|r|")  # as las does
    # F_j = prod_l r_l C(j+r_l-1, r_l): seatings of every species, r_l representatives
    # each, at one j-chair table, so F is prod(r) times the species products
    rprod = math.prod(r.parts)
    F = [rprod * x for x in _species_products(n, r)]
    lhs = UPoly._of(_partition_sum(n, F))
    # term k is a multiple of rising(X+k, n-k) = (n-k)! binomial(X+n-1, n-k) in the c form,
    # of rising(X, n-k) = (n-k)! binomial(X+n-k-1, n-k) in F; the lists run k = n..1
    nfact, c, S = factorial(n), c_table(r).values, forward_differences(F)  # S_k = Delta^k F(0)
    form_c = [c.get(k, 0) * nfact * rprod for k in range(n, 0, -1)]
    form_f = [nfact // k * F[k] for k in range(n, 0, -1)]
    # the S form is the c form over |r|: k prod(r) c_k = |r| S_k, compared at k = 0..n
    form_s = _integer_pairs([k * rprod * c.get(k, 0) for k in range(n + 1)], [r.total * s for s in S])
    return [_newton_pair(lhs, 1 - n, 1, form_c, r.total), *form_s, _newton_pair(lhs, 0, -1, form_f)]


def _check_las0p(n: int, r: Composition) -> List[Pair]:
    P, L = _species_products(n, r), math.lcm(*range(1, n + 1))
    return [_newton_pair(_las_lhs(n, r, P=P), 0, -1, [P[k] * (L // k) for k in range(n, 0, -1)], L)]


def _check_las0pp(n: int, p: int, r: Composition) -> List[Pair]:
    P, L = _species_products(n, r), math.lcm(*range(1, p + 1))
    # a[p-k] over L, on binomial(X+p-k-1, p-k), is L/k sum_j C(j-1, k-1) mchoose(p-k, n-p-j+k) P_j
    # over j = k..n-p+k, where mchoose(a, q) = C(a+q-1, q) counts multisets: at k = p
    # only j = n is nonzero, below it the term is C(j-1, k-1) C(n-1-j, p-1-k) P_j
    a = [math.comb(n - 1, p - 1) * P[n] * (L // p)]
    for k in range(p - 1, 0, -1):
        up = map(math.comb, range(k - 1, n - p + k), repeat(k - 1))  # C(j-1, k-1), j = k..n-p+k
        down = map(math.comb, range(n - 1 - k, p - 2 - k, -1), repeat(p - 1 - k))  # C(n-1-j, p-1-k)
        a.append(sum(map(mul, map(mul, up, down), P[k:n - p + k + 1])) * (L // k))
    return [_newton_pair(_las_lhs(n, r, p, P), 0, -1, a, L)]


def _check_mac(n: int) -> List[Pair]:
    # sum_j m_j(mu) = l(mu), so g = 1 weights each mu by its length
    # the derivative's X^(l-1) numerators over n!, first: n's budget before n! and the lcm
    sums = _partition_sum(n, repeat(1))
    nfact, L = factorial(n), math.lcm(*range(1, n + 1))
    body = UPoly._of([0] + [s * (L // l) for l, s in enumerate(sums, 1)], nfact * L)  # X^l / l, over n! L
    return [
        _newton_pair(body, 1 - n, 1, [0] * n + [1]),
        _newton_pair(UPoly._of(sums, nfact), 1 - n, 1, [(-1) ** (k - 1) * L // k for k in range(n, 0, -1)], L),
    ]


def _check_lemma1(n: int) -> List[Pair]:
    # sum over mu |- n of X^(l(mu)-1) / z_mu * (sum_i y^mu_i - l(mu)) against
    # sum_k binomial(X+n-1, n-k) (y-1)^k / k: one Newton pair per power y^j
    rows, nfact, L = _class_table(n)[1:], factorial(n), math.lcm(*range(1, n + 1))
    pairs: List[Pair] = []
    for j in range(n + 1):
        # row l has n+2-l entries, so the rows too short for column j are a suffix
        col = [row[j] if j else -sum(row) for row in rows if j < len(row)]
        a = [(-1) ** (k + j) * binomial(k, j) * (L // k) for k in range(n, 0, -1)]
        pairs.append(_newton_pair(UPoly._of(col, nfact), 1 - n, 1, a, L))
    return pairs


def _check_waring(caps: Sequence[int], t_max: int) -> List[Pair]:
    # sum over x^r in the caps box of sum_k c_k(r) t^k against sum over lambda of
    # |lambda| (l-1)! / prod_j m_j! * t^l(lambda) * h_lambda: one MPoly pair per power t^l
    caps = Composition(caps).parts  # the rule sweep's grid applies: no empty box
    _check_waring_budget(caps, t_max)
    # c_k(r) reads only r's species: one c_table per species multiset, (3,3,3) 19, not 63
    points = {parts: Composition(parts).species for parts in _cartesian(*(range(c + 1) for c in caps)) if any(parts)}
    tables = {s: c_table(Composition(s)).values for s in dict.fromkeys(points.values())}
    h = {j: homogeneous_h(j, caps) for j in range(1, sum(caps) + 1)}
    # h_lambda by multiplicity form: lambda less one copy of its smallest part
    # has a smaller size, so it is already here and each h_lambda is one product
    h_lam = {(): MPoly.const(caps, 1)}
    rhs = {l: MPoly.zero(caps) for l in range(1, t_max + 1)}
    for size in h:
        # lambda = mu', at most t_max parts: its parts are the running counts of mu's, their
        # multiplicities the gaps between mu's parts, and l(lambda) is mu's largest part
        for mu, _, _ in partitions_of(size, t_max):
            gaps = [a - b for (a, _), (b, _) in zip(mu, mu[1:] + ((0, 0),))]
            mults, length = tuple(zip(accumulate(m for _, m in mu), gaps))[::-1], mu[0][0]
            part, mult = mults[-1]
            less = mults[:-1] + ((part, mult - 1),) if mult > 1 else mults[:-1]
            h_lam[mults] = h_lam[less] * h[part]
            coef, rem = divmod(size * factorial(length - 1), math.prod(map(factorial, gaps)))
            if rem:
                raise ArithmeticError(f"waring: |lambda| (l-1)!/prod m_j! is not an integer at lambda = {mults}")
            rhs[length] = rhs[length] + h_lam[mults].scale(coef)
    return [(MPoly(caps, {parts: tables[s].get(l, 0) for parts, s in points.items()}), rhs[l]) for l in rhs]


# linm, linbin and linlas take any |r| up to TABLE_SIZE_MAX; at (1000, 1000), cold
# through the CLI, linm and linlas, whose products are binom2's loop over every factor's
# shifts, take 3.3-4.1 s and 4.8-5.5 s (three runs each, binom2 2.7-3.7 s meanwhile;
# Python 3.11, 2-core Xeon VM whose speed drifts), and CI runs both; linbin, whose
# product is a math.prod of binom_poly, takes 27 s (one run) and is left out
def _check_linm(r: Composition) -> List[Pair]:
    # the table comes first in linm, linbin and linlas: its TABLE_SIZE_MAX check
    # rejects a huge |r| before the product is built
    table = linearization_d(r, "d").values  # falling(k) coefficients, k = 0..|r|
    # falling(X, r_i) = prod_(a=1-r_i)^0 (X + a): one loop over every factor's shifts 0, -1, ..., 1-r_i
    lhs = UPoly._of(_linear_product(chain.from_iterable(range(0, -ri, -1) for ri in r.parts)))
    d = [table.get(k, 0) for k in range(r.total + 1)]
    facts = list(accumulate(range(1, r.total + 1), mul, initial=1))  # k!, k = 0..|r|
    merged = None
    if _within_merge_budget(r.species):  # d_k = prod r_i! d~_k / k!
        scale = math.prod(map(factorial, r.species))
        merged = _exact(map(scale.__mul__, _merge_chain(r.species, 1)), facts, 0)
    oracle = [0, *_oracle_counts("transversal", r.species)] if r.total <= TRANSVERSAL_T_MAX else None
    # falling(k) = k! binomial(X, k)
    return [_newton_pair(lhs, 0, 1, map(mul, d, facts)), *_integer_pairs(d, merged, oracle)]


def _check_linbin(r: Composition) -> List[Pair]:
    table = linearization_d(r, "d_tilde").values  # coefficients on binomial(X, k), k = 0..|r|
    # the last UPoly product and Fraction among bench/selftest.py's cheap requests: until the
    # committed performance record of ROADMAP item 1, it alone keeps that test's
    # polybasis.upoly_mul.coeff_pairs and exactnum.fraction_new counts above 0, so it stays
    lhs = math.prod((binom_poly(ri) for ri in r.parts), start=UPoly.one())
    dt = [table.get(k, 0) for k in range(r.total + 1)]
    merged = _merge_chain(r.species, 1) if _within_merge_budget(r.species) else None
    oracle = [0, *_oracle_counts("set", r.species)] if r.total <= COVERING_K_MAX else None  # k up to |r|
    return [_newton_pair(lhs, 0, 1, dt), *_integer_pairs(dt, merged, oracle)]


def _multichoose_product(parts: Sequence[int]) -> UPoly:
    """prod_i binomial(X+r_i-1, r_i) = prod_i rising(X, r_i) / r_i!: one rising loop
    over every factor's shifts 0..r_i-1, over prod_i r_i!."""
    return UPoly._of(_linear_product(chain.from_iterable(map(range, parts))), math.prod(map(factorial, parts)))


def _check_linlas(r: Composition) -> List[Pair]:
    table = linearization_d(r, "c_tilde").values
    lhs = _multichoose_product(r.parts)
    ct = [table.get(k, 0) for k in range(r.total + 1)]
    # the multichoose chain's weights, moved onto binomial(X, k)
    merged = [0, *_on_binomials(_merge_chain(r.species, -1))] if _within_merge_budget(r.species) else None
    oracle = [0, *_oracle_counts("multiset", r.species)] if r.total <= COVERING_K_MAX else None
    return [_newton_pair(lhs, 0, 1, ct), *_integer_pairs(ct, merged, oracle)]


def _check_binom2(r1: int, r2: int) -> List[Pair]:
    pair = Composition((r1, r2))  # the rule sweep's grid applies: no empty pair
    # the product and its Newton pass have degree r1 + r2, held to TABLE_SIZE_MAX before
    # either; the largest accepted pair, (1000, 1000), takes 3.0-4.7 s cold through the CLI
    # (six runs); in process the left side's rising loop takes 1.2-1.6 s, the Newton pass
    # 1.4-1.8 s and the merge chain 1 ms (Python 3.11, 2-core Xeon VM); CI runs it
    _check_table_size(pair.total, "r1 + r2")
    return [_newton_pair(_multichoose_product(pair.parts), 0, -1, _merge_chain(pair.species, -1))]


def _check_injections(n: int, k: int) -> List[Pair]:
    return [(oracle_injection_cycle_poly(n, k), rising_poly(n - k, shift=k))]


def _check_n_p(n: int | None, p: int | None) -> None:
    """The rule on the shared parameters: n >= 1 and 1 <= p <= n."""
    if (n is not None and n < 1) or (p is not None and p < 1):
        raise ValueError(f"n and p must be positive, got n={n}, p={p}")
    if n is not None and p is not None and p > n:
        raise ValueError(f"need p <= n, got p={p}, n={n}")


def verify(identity: str, **params) -> IdentityReport:
    """Check one identity instance; exact equality decides the verdict.  The
    params are exactly the named parameters of the id's checker: n and r for
    las, caps and t_max for waring, r1 and r2 for binom2, and so on.  An
    unknown id, a missing or extra parameter (checked before the checker
    runs), an ``r`` that is not a composition, or an instance with no pair
    to compare raises ValueError."""
    if identity not in _IDENTITIES:
        raise ValueError(f"unknown identity {identity!r}")
    takes = _PARAMS[identity]
    if params.keys() != set(takes):
        raise ValueError(f"{identity} takes the parameters {', '.join(takes)}; got {', '.join(params) or 'none'}")
    # every parameter but a composition (r, waring's caps) is an integer
    params = {name: v if name in ("r", "caps") else as_int(v) for name, v in params.items()}
    _check_n_p(params.get("n"), params.get("p"))
    if "r" in params:  # any sequence, checked as waring's caps are
        params["r"] = as_composition(params["r"])
    shown = {k: list(v.parts) if isinstance(v, Composition) else v for k, v in params.items()}
    pairs = _IDENTITIES[identity][0](**params)
    if not pairs:  # comparing nothing verifies nothing
        raise ValueError(f"{identity}: no pair to compare at {shown}")
    for i, (lhs, rhs) in enumerate(pairs):
        if lhs != rhs:
            return IdentityReport(identity, shown, "failed", i, _first_diff(lhs, rhs))
    return IdentityReport(identity, shown, "verified")


def _first_diff(lhs, rhs) -> dict:
    """A failed report's `first_diff`: "at" the lowest index where an unequal
    UPoly pair differs (a basis index j or k, or injections' X-degree), or an
    MPoly pair's smallest differing exponent vector (a list), and the two
    coefficients there as exact strings."""
    if isinstance(lhs, MPoly):
        at = min(e for e in lhs.terms.keys() | rhs.terms.keys() if lhs.coeff(e) != rhs.coeff(e))
    else:
        at = next(d for d in count() if lhs.coeff(d) != rhs.coeff(d))
    return {"at": list(at) if isinstance(at, tuple) else at, "lhs": str(lhs.coeff(at)), "rhs": str(rhs.coeff(at))}


def extract_c_from_las(n: int, r: Composition) -> CoeffTable:
    """Recover the c_k(r) from the degree-(n-1) partition sum alone.

    The basis {binomial(X+n-1, n-k)}, k = 1..n, is the Newton basis at the
    nodes 1-n, 2-n, ..., so one `newton_coeffs` pass solves the expansion
    uniquely.
    Entries are |r| times the expansion coefficients, each by one checked
    exact division (ArithmeticError names k); zero entries are dropped.
    The degree-(n-1) sum fixes only c_1..c_n, so n >= |r| gives the whole
    table and a smaller n its prefix: ``extract_c_from_las(2, (2, 1))``
    holds {1: 3, 2: 6}, and its ``value(3)`` reads 0 where c_3 = 3.
    """
    n, r = as_int(n), as_composition(r)
    _check_n_p(n, None)
    nums, den = newton_coeffs(_las_lhs(n, r), 1 - n, 1)
    nums += [0] * n  # nums[n-k] / den on binomial(X+n-1, n-k)
    if any(nums[n:]):
        raise AssertionError("the partition sum has a term outside binomial(X+n-1, n-k), k = 1..n")
    c = _exact([r.total * nums[n - k] for k in range(1, n + 1)], repeat(den))
    return CoeffTable("c", r, {k: ck for k, ck in enumerate(c, 1) if ck})


# ---------------------------------------------------------------------------
# parameter grids: each turns the sweep bounds into the checker's kwargs
# ---------------------------------------------------------------------------

def _partition_ns(ns):
    """The n values of a partition-sum grid, its top n checked against the
    budget before any table is built."""
    if ns:
        _check_partition_budget(ns[-1])  # ns rises
    return ns


# a grid over compositions or pairs is a generator expression: its checks and
# its outermost range run when the grid function is called, the inner ranges,
# a fresh comps() per n (and per p) among them, only as instances are drawn

def _grid_n(ns, **_) -> List[dict]:
    return [dict(n=n) for n in _partition_ns(ns)]


def _check_swept_total(r, m_max, r_max) -> None:
    """The grid rule of the ids whose instances build a table of length |r| (las,
    bigeq, linm, linbin, linlas): the grid's largest |r|, a fixed r's own or a
    swept grid's m_max * r_max, is within TABLE_SIZE_MAX, checked when the grid is made."""
    total, name = (m_max * r_max, "m_max * r_max") if r is None else (r.total, "|r|")
    _check_table_size(total, name)


def _grid_r(comps, r, m_max, r_max, **_) -> Iterator[dict]:
    _check_swept_total(r, m_max, r_max)
    return (dict(r=q) for q in comps())


def _grid_n_r(ns, comps, r=None, **_) -> Iterator[dict]:
    _check_species_count(r)  # las0p's; las passes no r, its |r| bound implies this one
    return (dict(n=n, r=q) for n in _partition_ns(ns) for q in comps())


def _grid_las(ns, comps, r, m_max, r_max, **_) -> Iterator[dict]:
    _check_swept_total(r, m_max, r_max)
    return _grid_n_r(ns, comps)


def _grid_bigeq(ns, comps, r, m_max, r_max, **_) -> Iterator[dict]:
    if r is not None:  # a fixed r is rejected, not dropped from the grid
        check_positive_species(r)
    _check_swept_total(r, m_max, r_max)
    return (dict(n=n, r=q) for n in _partition_ns(ns) for q in comps() if 0 not in q.parts)


def _grid_las0pp(ns, comps, p, r, **_) -> Iterator[dict]:
    _check_species_count(r)
    return (dict(n=n, p=q, r=c) for n in _partition_ns(ns) for q in ([p] if p else range(1, n + 1)) if q <= n
            for c in comps())


def _grid_waring(r, m_max, r_max, t_max, **_) -> List[dict]:
    if t_max < 1:
        raise ValueError(f"waring: t_max must be positive, got {t_max}")
    # caps go through Composition, so negative or all-zero caps are rejected;
    # each is checked as it is built, so the box budget stops a large m_max by m = 9
    grid = []
    for c in [r] if r is not None else (Composition((r_max,) * m) for m in range(1, m_max + 1)):
        _check_waring_budget(c.parts, t_max)
        grid.append(dict(caps=c.parts, t_max=t_max))
    return grid


def _grid_binom2(r, r_max, **_) -> Iterable[dict]:
    if r is None:
        _check_table_size(2 * r_max, "2 * r_max")  # the largest r1 + r2
        return (dict(r1=a, r2=b) for a in range(r_max + 1) for b in range(r_max + 1) if a + b)
    if r.m != 2:
        raise ValueError("binom2 needs a two-entry composition")
    _check_table_size(r.total, "r1 + r2")
    return [dict(r1=r.parts[0], r2=r.parts[1])]


def _grid_injections(ns, **_) -> List[dict]:
    if ns and ns[-1] > INJECTION_N_MAX:  # ns rises
        raise ValueError(f"injections: n = {ns[-1]} is over the oracle budget {INJECTION_N_MAX}")
    return [dict(n=n, k=k) for n in ns for k in range(n + 1)]


# grid-function parameter -> the fixed sweep() parameter it consumes
_FIXES = {"ns": "n", "comps": "r", "r": "r", "p": "p"}

_IDENTITIES = {
    "las": (_check_las, _grid_las),
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

# id -> the named parameters of its checker, the params verify() takes
_PARAMS = {
    ident: check.__code__.co_varnames[:check.__code__.co_argcount] for ident, (check, _) in _IDENTITIES.items()
}

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

    The grid is streamed, not listed: compositions and pairs are drawn as
    the reports are, a fresh ``iter_compositions`` per n (and per p), so the
    first report of a grid of 10^8 compositions comes at once.  Every grid
    check still runs here, before any instance: an unknown id, a fixed
    parameter the identity does not take, ``n``, ``p`` or ``t_max`` below
    1, ``p > n``, an ``r`` that is not a composition (or, for bigeq, has a
    zero species), an oracle, partition-sum or table budget overrun or an empty
    grid (found by drawing its first instance) raises ValueError here, not
    midway through the returned iterator."""
    n_max, m_max, r_max, t_max, n, p = (v if v is None else as_int(v) for v in (n_max, m_max, r_max, t_max, n, p))
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

    def comps() -> Iterable[Composition]:  # called by the ids that take r, once per n (and p)
        return [r] if r is not None else iter_compositions(m_max, r_max)

    grid = iter(grid_fn(ns=ns, comps=comps, p=p, r=r, m_max=m_max, r_max=r_max, t_max=t_max))
    first = next(grid, None)
    if first is None:
        raise ValueError(f"{identity}: no instance within the given bounds")
    return (verify(identity, **params) for params in chain([first], grid))
