"""Coefficient families attached to a composition r = (r_1, ..., r_m).

The central quantity is the generalized binomial coefficient c_k(r),
computable by several independent routes that must agree exactly.  Each
route is one kernel ``r -> [c_1, ..., c_|r|]`` that computes every entry
in one exact integer pass: ``c_table`` returns its list and
``c_coeff(r, k)`` reads entry k of it.  The kernels work on whole integer
runs over i = 1..|r|: each species contributes one run, built by one
``math.comb`` or ``math.perm`` map, and runs are combined entrywise by
``map`` (no Python-level call per entry).

  explicit             alternating sum over P_i = prod C(r_l+i-1, r_l):
                       differences of the integers lcm(1..|r|) P_i / i, the
                       run lcm // i times every species' C(r_l+i-1, r_l) run
  entiere              integer-valued double sum (one term per species):
                       differences of the integers Q_i, term j species j's
                       C(i+r_j-1, r_j-1) run times the other species' runs
  genfun               (|r|/k) * [x^r] (G - 1)^k, G = 1/((1-x_1)...(1-x_m)),
                       powers kept as dense integer arrays over the box
                       prod (r_i + 1) of ``Composition.species`` (G is
                       symmetric); multiplying by G is a prefix sum, one
                       ``accumulate`` per row of the fastest (largest) axis
                       and one slice sum per step of the others
  inclusion_exclusion  |r| * S_k(r) / (k * prod r_j), S_k the differences
                       of the seating counts F_0..F_|r|, F one product of
                       the species' runs
  finite_diff          Newton expansion of f(x) = prod (x)_{r_i}: integer
                       difference table of f(0..|r|), each rising factorial
                       run (x)_{r_i} = perm(x+r_i-1, r_i) from ``math.perm``
  recurrence           prod mc(x, r_i) = sum_s w_s mc(x, s), mc the multichoose,
                       merged one species at a time, smallest first, by the
                       two-factor linearization (the binom2 identity); then
                       the integers k c_k / |r| = sum_s w_s C(s-1, k-1)
  hyp3f2               terminating 3F2 evaluation (m = 2 only), one per k;
                       the evaluator builds its term-ratio runs whole

The default route, DEFAULT_C_METHOD, is inclusion_exclusion: the cheapest
one.  The others stay as independent cross-checks.  A route's shape rule is
checked before its kernel runs, and breaking it raises ShapeError: hyp3f2
needs m = 2, genfun at most GENFUN_STEPS_MAX box steps |r| * prod (r_i + 1).

Also here: the round-table seating counts F_k/S_k/T_k, the linearization
tables d, d-tilde and c-tilde, and a terminating hypergeometric evaluator
on integer numerator/denominator pairs.  Every family is a count and every
value an ``int``: each division goes through ``_exact``, where a nonzero
remainder raises ArithmeticError naming its k instead of being rounded.

Everything is pure except one internal memo behind ``functools.lru_cache``
(safe for concurrent use), keyed by ``Composition.species`` (the sorted
nonzero sizes), never by k, and bounded:

  _geom_minus_one_powers  genfun: [x^r] (G - 1)^k, k = 1..|r|    1024 entries

genfun keeps it because its powers over the box prod (r_i + 1) are by far
the costliest table to rebuild, and ``c_coeff`` loops over k rerun the
whole kernel for each k.  The other routes recompute their one-dimensional
tables.  The benchmark's ``coefficients.memo.*`` counters read this memo.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, chain, repeat
from itertools import product as _cartesian
from operator import add, floordiv, itemgetter, mul, sub
from typing import Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .exactnum import Rat, as_int, binomial, factorial, forward_differences

DEFAULT_C_METHOD = "inclusion_exclusion"
# genfun's budget on |r| * prod(r_i + 1), its box steps at 0.6 to 1.4 us each (Python 3.11,
# 2-core Xeon VM; largest accepted boxes (4,)*6 0.24 s, (2,)*10 1.2 s, (1,)*16 1.5 s)
GENFUN_STEPS_MAX = 2 * 10**6


class ShapeError(ValueError):
    """A composition of a shape the chosen c_k route does not take."""


class Composition:
    """Tuple of nonnegative species sizes with positive total."""

    __slots__ = ("parts", "m", "total", "species")  # species: the nonzero parts, sorted

    def __init__(self, parts: Sequence[int]):
        parts = tuple(map(as_int, parts))
        if not parts:
            raise ValueError("composition needs at least one entry")
        if any(p < 0 for p in parts):
            raise ValueError(f"composition entries must be nonnegative: {parts}")
        if sum(parts) == 0:
            raise ValueError("composition must have positive total")
        self.parts: Tuple[int, ...] = parts
        self.m: int = len(parts)
        self.total: int = sum(parts)
        self.species: Tuple[int, ...] = tuple(sorted(p for p in parts if p))

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse a comma-separated list like "2,1"."""
        try:
            parts = [int(s) for s in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse composition from {text!r}") from None
        return cls(parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Composition({list(self.parts)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def as_composition(r: Composition | Sequence[int]) -> Composition:
    """r itself if it is a Composition, else r's entries checked as one; the
    public entry points take either."""
    return r if isinstance(r, Composition) else Composition(r)


def iter_compositions(m_max: int, r_max: int) -> Iterator[Composition]:
    """All compositions with 1 <= m <= m_max and 0 <= r_i <= r_max,
    positive total, in deterministic order (length, then lexicographic)."""
    for m in range(1, m_max + 1):
        for parts in _cartesian(range(r_max + 1), repeat=m):
            if sum(parts) > 0:
                yield Composition(parts)


class CoeffTable(NamedTuple):
    """A computed coefficient family, k -> int; absent keys are zero.  Only
    ``extract_c_from_las`` stores Fractions: its reading is checked, not trusted."""

    family: str
    r: Composition
    values: Dict[int, int]

    def value(self, k: int) -> int:
        return self.values.get(k, 0)


def _exact(nums: Iterable[int], dens: Iterable[int], k0: int = 1) -> List[int]:
    """The quotients of the paired integers, entry i standing for k = k0 + i; a
    nonzero remainder raises ArithmeticError naming the first such k."""
    pairs = list(map(divmod, nums, dens))
    if any(map(itemgetter(1), pairs)):
        k = next(i for i, (_, rem) in enumerate(pairs, k0) if rem)
        raise ArithmeticError(f"exact division leaves a remainder at k={k}")
    return list(map(itemgetter(0), pairs))


# ---------------------------------------------------------------------------
# hypergeometric evaluator
# ---------------------------------------------------------------------------

def hypergeom_terminating(numer: Sequence[Rat], denom: Sequence[Rat], z: Rat) -> Fraction:
    """Exact value of pFq(numer; denom; z) for a terminating series.

    Requires a nonpositive-integer numerator parameter (else ValueError).
    A denominator parameter whose Pochhammer factor vanishes within the
    summation range raises ZeroDivisionError.

    Each parameter p/q enters the term ratio as p/q + j = (p + j q)/q, so
    the ratios are integer runs a[j] / b[j] over j = 0..nmax-1, the terms
    share the common denominator b[0] ... b[nmax-1], their numerators come
    from prefix products of a and suffix products of b, and one Fraction
    is built at the end.
    """
    nums = [(a.numerator, a.denominator) for a in numer]
    dens = [(b.numerator, b.denominator) for b in denom]
    stops = [-p for p, q in nums if q == 1 and p <= 0]
    if not stops:
        raise ValueError("series does not terminate: no nonpositive-integer numerator parameter")
    nmax = min(stops)
    for p, q in dens:
        if q == 1 and 0 >= p > -nmax:
            raise ZeroDivisionError(f"denominator parameter {p} hits zero within the summation range")
    zn, zd = z.numerator, z.denominator
    # term j+1 / term j = a[j] / b[j], a and b built as whole runs: each
    # parameter p/q contributes p, p + q, ..., p + (nmax - 1) q
    a = [zn * math.prod(q for _, q in dens)] * nmax
    for p, q in nums:
        a = list(map(mul, a, range(p, p + nmax * q, q)))
    b = list(map(mul, repeat(zd * math.prod(q for _, q in nums)), range(1, nmax + 1)))
    for p, q in dens:
        b = list(map(mul, b, range(p, p + nmax * q, q)))
    # over den = b[0] ... b[nmax-1], term j is a[0] ... a[j-1] b[j] ... b[nmax-1]
    heads = accumulate(a, mul, initial=1)
    tails = list(accumulate(reversed(b), mul, initial=1))
    return Fraction(sum(map(mul, heads, reversed(tails))), tails[-1])


# ---------------------------------------------------------------------------
# seating counts around a k-chair table
# ---------------------------------------------------------------------------

def check_positive_species(r: Composition) -> None:
    """Raise ValueError if some species of r has zero representatives."""
    if any(p == 0 for p in r.parts):
        raise ValueError("a species with zero representatives cannot send a delegation")


def _seating_f(parts: Sequence[int], k: int) -> int:
    """F_k: per species with r_l representatives, r_l * C(k+r_l-1, r_l)
    seatings, multiplied over the species (F_0 = 0)."""
    return math.prod(rl * binomial(k + rl - 1, rl) for rl in parts)


def _seating_s(parts: Sequence[int], k_max: int) -> List[int]:
    """S_0 .. S_k_max: S_k = sum_i (-1)^(k-i) C(k, i) F_i = Delta^k F(0), the
    binomial inverse of F, from one integer difference table.  F_1..F_k_max
    is prod r_l times the product of the species' C(i+r_l-1, r_l) runs, and
    F_0 = 0 (every species here is nonempty)."""
    f = [math.prod(parts)] * k_max
    for rl in parts:
        f = list(map(mul, f, _multichoose_run(rl, k_max)))
    return forward_differences([0] + f)


def seating_counts(r: Composition, k: int, which: str) -> int:
    """F_k(r) or S_k(r): tuples of delegations seated around k chairs.

    Per species with r_l representatives there are r_l * C(k+r_l-1, r_l)
    seatings; F multiplies these, S additionally requires every chair to
    be occupied and is the binomial-inverse alternating sum of F.
    """
    if k < 1:
        raise ValueError(f"seating_counts: k must be positive, got {k}")
    r = as_composition(r)
    check_positive_species(r)
    if which == "F":
        return _seating_f(r.parts, k)
    if which == "S":
        return _seating_s(r.parts, k)[k]
    raise ValueError(f"seating_counts: unknown kind {which!r}")


def t_coeff(r: Composition, k: int, j: int) -> int:
    """Surjective seatings with species j's delegation elder on chair k and
    every other species' eldest member seated, on its largest chair:
    S_k(r) * r_j / (k * r_1 ... r_m)."""
    r = as_composition(r)
    if not 1 <= j <= r.m:
        raise ValueError(f"t_coeff: species index {j} out of range 1..{r.m}")
    return _exact([seating_counts(r, k, "S") * r.parts[j - 1]], [k * math.prod(r.parts)], k)[0]


# ---------------------------------------------------------------------------
# c_k(r) by each route: one kernel per route returns [c_1, ..., c_|r|]
# ---------------------------------------------------------------------------

def _multichoose_run(rl: int, n: int) -> Iterator[int]:
    """C(i+rl-1, rl) for i = 1..n, one species' run: multisets of size rl
    from i symbols."""
    return map(math.comb, range(rl, rl + n), repeat(rl))


def _explicit(r: Composition) -> List[int]:
    # c_k = |r| sum_i (-1)^(k-i) C(k-1, i-1) P_i / i, P_i = prod C(r_l+i-1, r_l):
    # over L = lcm(1..|r|) the sum is Delta^(k-1) of the integers L P_i / i,
    # the run L // i times every species' run
    lcm = math.lcm(*range(1, r.total + 1))
    scaled = list(map(floordiv, repeat(lcm), range(1, r.total + 1)))
    for rl in r.parts:
        scaled = list(map(mul, scaled, _multichoose_run(rl, r.total)))
    return _exact(map(r.total.__mul__, forward_differences(scaled)), repeat(lcm))


def _entiere(r: Composition) -> List[int]:
    # c_k = sum_i (-1)^(k-i) C(k-1, i-1) Q_i,
    # Q_i = sum_j C(i+r_j-1, r_j-1) prod_{l != j} C(r_l+i-1, r_l): term j is
    # species j's C(i+r_j-1, r_j-1) run times every other species' run; a zero
    # species' term vanishes and its run is all ones
    runs = [list(_multichoose_run(rl, r.total)) for rl in r.species]
    q = [0] * r.total
    for j, rj in enumerate(r.species):
        term = map(math.comb, range(rj, rj + r.total), repeat(rj - 1))
        for run in runs[:j] + runs[j + 1:]:
            term = map(mul, term, run)
        q = list(map(add, q, term))
    return forward_differences(q)


def _times_geom_minus_one(q: List[int], radices: Sequence[int]) -> List[int]:
    """q * (G - 1) truncated to the box, for q flat over the mixed-radix box
    with the last axis fastest.  Multiplying by the truncated
    G = 1/prod(1 - x_i) is a prefix sum along every axis: one ``accumulate``
    per row of the fastest axis, one slice sum per step of the others."""
    n = radices[-1]
    g = list(chain.from_iterable(accumulate(q[s:s + n]) for s in range(0, len(q), n)))
    size, stride = len(g), n
    for n in reversed(radices[:-1]):
        block = n * stride
        for start in range(0, size, block):
            for j in range(start + stride, start + block, stride):
                g[j:j + stride] = map(add, g[j:j + stride], g[j - stride:j])
        stride = block
    return list(map(sub, g, q))


@lru_cache(maxsize=1024)
def _geom_minus_one_powers(caps: Tuple[int, ...]) -> Tuple[int, ...]:
    """[x^caps] (G - 1)^k for k = 1..sum(caps), from dense integer powers of
    G - 1 over the box prod(caps_i + 1)."""
    radices = [c + 1 for c in caps]
    q = [1] * math.prod(radices)  # G - 1: every coefficient 1 but the constant
    q[0] = 0
    out = []
    for k in range(1, sum(caps) + 1):
        if k > 1:
            q = _times_geom_minus_one(q, radices)
        out.append(q[-1])
    return tuple(out)


def _scaled_by_total(r: Composition, e: Iterable[int], denom: int = 1) -> List[int]:
    """c_k = |r| e_k / (k D), D = denom, k = 1..|r|, from the integers e_k = k D c_k / |r|."""
    return _exact(map(r.total.__mul__, e), range(denom, denom * (r.total + 1), denom))


def _genfun(r: Composition) -> List[int]:
    # G is symmetric and a zero cap drops its variable, so the box is taken
    # over the species: the largest radix is the fastest axis
    return _scaled_by_total(r, _geom_minus_one_powers(r.species))


def _inclusion_exclusion(r: Composition) -> List[int]:
    # c_k = |r| S_k / (k prod r_j) over the nonzero species
    return _scaled_by_total(r, _seating_s(r.species, r.total)[1:], math.prod(r.species))


def _finite_diff(r: Composition) -> List[int]:
    # Newton coefficient A_k = Delta^k f(0) / k! of f(x) = prod (x)_{r_i}, from
    # the difference table of f(0..|r|); c_k = |r| (k-1)! A_k / prod r_i!
    # rising(x, r_i) = perm(x+r_i-1, r_i) for x >= 1; f(0) = 0 as some r_i > 0
    f = [1] * r.total
    for ri in r.parts:
        f = list(map(mul, f, map(math.perm, range(ri, ri + r.total), repeat(ri))))
    return _scaled_by_total(r, forward_differences([0] + f)[1:], math.prod(map(factorial, r.parts)))


def _recurrence(r: Composition) -> List[int]:
    # prod mc(x, r_i) = sum_s w_s mc(x, s), mc(x, n) = C(x+n-1, n), merging one
    # species b into w at a time by mc(x, a) mc(x, b) = sum_l t_l mc(x, a+b-l),
    # t_l = (-1)^l C(a+b-l; l, a-l, b-l); then e_k = sum_s w_s C(s-1, k-1)
    first, *rest = r.species
    w = [0] * (r.total + 1)
    w[first] = 1
    for b in rest:
        merged = [0] * (r.total + 1)
        for a, wa in enumerate(w):
            if wa:
                t = wa * binomial(a + b, a)  # w_a t_0
                for l in range(min(a, b) + 1):
                    merged[a + b - l] += t
                    t = -t * (a - l) * (b - l) // ((l + 1) * (a + b - l))  # exact
        w = merged
    e: List[int] = []  # Horner in (1 + y): e_k = [y^(k-1)] sum_s w_s (1 + y)^(s-1)
    for ws in reversed(w[1:]):
        e = list(map(add, [ws] + e, e + [0]))
    return _scaled_by_total(r, e)


def _hyp3f2(r: Composition) -> List[int]:
    # c_k = (-1)^(k-1) |r| 3F2(1-k, r_1+1, r_2+1; 2, 1; 1)
    r1, r2 = r.parts
    values = [hypergeom_terminating([1 - k, r1 + 1, r2 + 1], [2, 1], 1) for k in range(1, r.total + 1)]
    signed = [(-1) ** i * r.total * v.numerator for i, v in enumerate(values)]  # i = k - 1
    return _exact(signed, [v.denominator for v in values])


_KERNELS = {
    "explicit": _explicit,
    "entiere": _entiere,
    "genfun": _genfun,
    "inclusion_exclusion": _inclusion_exclusion,
    "finite_diff": _finite_diff,
    "recurrence": _recurrence,
    "hyp3f2": _hyp3f2,
}
C_METHODS = tuple(_KERNELS)


def _kernel(r: Composition, method: str):
    """The route's kernel, after checking the method and its shape rule."""
    if method not in _KERNELS:
        raise ValueError(f"unknown c_k method {method!r}; known methods: {', '.join(C_METHODS)}")
    if method == "hyp3f2" and r.m != 2:
        raise ShapeError(f"hyp3f2 method supports m = 2 only, got m = {r.m}")
    if method == "genfun" and r.total * math.prod(p + 1 for p in r.parts) > GENFUN_STEPS_MAX:
        raise ShapeError(f"genfun: |r| * prod(r_i + 1) is over the budget {GENFUN_STEPS_MAX}")
    return _KERNELS[method]


def c_coeff(r: Composition, k: int, method: str = DEFAULT_C_METHOD) -> int:
    """The generalized binomial coefficient c_k(r).

    Defined for 1 <= k <= |r| (a positive integer there); k > |r| gives 0.
    All methods agree.  Each route divides only through ``_exact``, so an
    integrality bug raises ArithmeticError instead of being rounded.  Runs
    the route's whole kernel; a caller needing several k should take
    ``c_table`` once.
    """
    if k < 1:
        raise ValueError(f"c_coeff: k must be positive, got {k}")
    r = as_composition(r)
    kernel = _kernel(r, method)
    if k > r.total:
        return 0
    return kernel(r)[k - 1]


def c_table(r: Composition, method: str = DEFAULT_C_METHOD) -> CoeffTable:
    """All of c_1(r) .. c_|r|(r) by the chosen method, in one kernel pass."""
    r = as_composition(r)
    values = _kernel(r, method)(r)
    return CoeffTable("c", r, dict(enumerate(values, 1)))


# ---------------------------------------------------------------------------
# linearization tables
# ---------------------------------------------------------------------------

def linearization_d(r: Composition, variant: str = "d") -> CoeffTable:
    """Connection coefficients of products of factorial polynomials.

    d:       prod falling(r_i)   = sum_k d_k * falling(k)
    d_tilde: prod binom(x, r_i)  = sum_k dt_k * binom(x, k);  dt_k = k! d_k / prod r_i!
    c_tilde: prod multichoose(x, r_i) = sum_k ct_k * binom(x, k);  ct_k = k c_k / |r|

    Entries not stored are zero.  Zero species sizes are allowed for d and
    d_tilde (an empty species contributes the factor 1).
    """
    r = as_composition(r)
    if variant == "c_tilde":
        c = c_table(r).values
        vals = _exact(map(mul, c, c.values()), repeat(r.total))
    elif variant in ("d", "d_tilde"):
        # Delta^k f(0), k = 1..|r|, of f(x) = prod falling(x, r_i) from one integer
        # difference table of f(0..|r|), falling(x, r) = perm(x, r), f(0) = 0:
        # d_k is Delta^k f(0) / k! (Newton form), dt_k is Delta^k f(0) / prod r_i!
        f = [math.prod(math.perm(x, ri) for ri in r.parts) for x in range(r.total + 1)]
        dens = map(factorial, range(1, r.total + 1)) if variant == "d" else repeat(math.prod(map(factorial, r.parts)))
        vals = _exact(forward_differences(f)[1:], dens)
    else:
        raise ValueError(f"linearization_d: unknown variant {variant!r}")
    return CoeffTable(variant, r, {k: v for k, v in enumerate(vals, 1) if v})
