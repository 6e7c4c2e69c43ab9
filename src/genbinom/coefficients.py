"""Coefficient families attached to a composition r = (r_1, ..., r_m).

The central quantity is the generalized binomial coefficient c_k(r),
computable by several independent routes that must agree exactly.  Each
route is one kernel ``r -> [c_1, ..., c_|r|]`` that computes every entry
in one exact integer pass: ``c_table`` returns its list and
``c_coeff(r, k)`` reads entry k of it.

  explicit             alternating sum over P_i = prod C(r_l+i-1, r_l):
                       differences of the integers lcm(1..|r|) P_i / i
  entiere              integer-valued double sum (one term per species):
                       differences of the integers Q_i
  genfun               (|r|/k) * [x^r] (G - 1)^k, G = 1/((1-x_1)...(1-x_m)),
                       powers kept as dense integer arrays over the box
                       prod (r_i + 1); multiplying by G is a prefix sum
  inclusion_exclusion  |r| * S_k(r) / (k * prod r_j), S_k the differences
                       of the seating counts F_0..F_|r|
  finite_diff          Newton expansion of f(x) = prod (x)_{r_i}: integer
                       difference table of f(0..|r|)
  recurrence           prod mc(x, r_i) = sum_s w_s mc(x, s), mc the multichoose,
                       merged left to right one species at a time by the
                       two-factor linearization (the binom2 identity); then
                       the integers k c_k / |r| = sum_s w_s C(s-1, k-1)
  hyp3f2               terminating 3F2 evaluation (m = 2 only), one per k

The default route, DEFAULT_C_METHOD, is inclusion_exclusion: the cheapest
one.  The others stay as independent cross-checks.

Also here: the round-table seating counts F_k/S_k/T_k, the linearization
tables d, d-tilde and c-tilde, and a terminating hypergeometric evaluator
on integer numerator/denominator pairs.

Everything is pure except one internal memo behind ``functools.lru_cache``
(safe for concurrent use), keyed by one composition, never by k, and
bounded:

  _geom_minus_one_powers  genfun: [x^r] (G - 1)^k, k = 1..|r|    1024 entries

genfun keeps it because its powers over the box prod (r_i + 1) are by far
the costliest table to rebuild, and ``c_coeff`` loops over k rerun the
whole kernel for each k.  The other routes recompute their one-dimensional
tables.  The benchmark's ``coefficients.memo.*`` counters read this memo.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from operator import add, sub
from typing import Dict, Iterator, List, Sequence, Tuple

from .exactnum import Rat, as_int, binomial, factorial, forward_differences, rising

DEFAULT_C_METHOD = "inclusion_exclusion"


class Composition:
    """Tuple of nonnegative species sizes with positive total."""

    __slots__ = ("parts", "m", "total")

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

    @classmethod
    def parse(cls, text: str) -> "Composition":
        """Parse a comma-separated list like "2,1"."""
        try:
            parts = [int(s) for s in text.split(",")]
        except ValueError:
            raise ValueError(f"cannot parse composition from {text!r}") from None
        return cls(parts)

    def __iter__(self):
        return iter(self.parts)

    def __eq__(self, other) -> bool:
        return isinstance(other, Composition) and self.parts == other.parts

    def __hash__(self) -> int:
        return hash(self.parts)

    def __repr__(self) -> str:
        return f"Composition({list(self.parts)})"

    def __str__(self) -> str:
        return ",".join(str(p) for p in self.parts)


def iter_compositions(m_max: int, r_max: int) -> Iterator[Composition]:
    """All compositions with 1 <= m <= m_max and 0 <= r_i <= r_max,
    positive total, in deterministic order (length, then lexicographic)."""
    for m in range(1, m_max + 1):
        for parts in _cartesian(range(r_max + 1), repeat=m):
            if sum(parts) > 0:
                yield Composition(parts)


@dataclass
class CoeffTable:
    """A computed coefficient family: mapping k -> exact rational.

    Absent keys are implicitly zero.
    """

    family: str
    r: Composition
    values: Dict[int, Fraction] = field(default_factory=dict)

    def value(self, k: int) -> Fraction:
        return self.values.get(k, Fraction(0))


# ---------------------------------------------------------------------------
# hypergeometric evaluator
# ---------------------------------------------------------------------------

def hypergeom_terminating(numer: Sequence[Rat], denom: Sequence[Rat], z: Rat) -> Fraction:
    """Exact value of pFq(numer; denom; z) for a terminating series.

    Requires a nonpositive-integer numerator parameter (else ValueError).
    A denominator parameter whose Pochhammer factor vanishes within the
    summation range raises ZeroDivisionError.

    Each parameter p/q enters the term ratio as p/q + j = (p + j q)/q, so
    the terms are integer numerator/denominator pairs, the sum is kept over
    the running common denominator (each term's denominator divides the
    next one's) and one Fraction is built at the end.
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
    num_scale = zn * math.prod(q for _, q in dens)
    den_scale = zd * math.prod(q for _, q in nums)
    term = total = den = 1  # term / den is the current term, total / den the sum
    for j in range(nmax):
        step = den_scale * math.prod(p + j * q for p, q in dens) * (j + 1)
        term = term * num_scale * math.prod(p + j * q for p, q in nums)
        total = total * step + term
        den *= step
    return Fraction(total, den)


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
    binomial inverse of F, from one integer difference table."""
    return forward_differences([_seating_f(parts, i) for i in range(k_max + 1)])


def seating_counts(r: Composition, k: int, which: str) -> int:
    """F_k(r) or S_k(r): tuples of delegations seated around k chairs.

    Per species with r_l representatives there are r_l * C(k+r_l-1, r_l)
    seatings; F multiplies these, S additionally requires every chair to
    be occupied and is the binomial-inverse alternating sum of F.
    """
    if k < 1:
        raise ValueError(f"seating_counts: k must be positive, got {k}")
    check_positive_species(r)
    if which == "F":
        return _seating_f(r.parts, k)
    if which == "S":
        return _seating_s(r.parts, k)[k]
    raise ValueError(f"seating_counts: unknown kind {which!r}")


def t_coeff(r: Composition, k: int, j: int) -> Fraction:
    """Surjective seatings with species j's delegation elder on chair k and
    every other species' eldest member seated, on its largest chair:
    S_k(r) * r_j / (k * r_1 ... r_m)."""
    if not 1 <= j <= r.m:
        raise ValueError(f"t_coeff: species index {j} out of range 1..{r.m}")
    check_positive_species(r)
    s = seating_counts(r, k, "S")
    return Fraction(s * r.parts[j - 1], k * math.prod(r.parts))


# ---------------------------------------------------------------------------
# c_k(r) by each route: one kernel per route returns [c_1, ..., c_|r|]
# ---------------------------------------------------------------------------

def _explicit(r: Composition) -> List[Fraction]:
    # c_k = |r| sum_i (-1)^(k-i) C(k-1, i-1) P_i / i, P_i = prod C(r_l+i-1, r_l):
    # over L = lcm(1..|r|) the sum is Delta^(k-1) of the integers L P_i / i
    lcm = math.lcm(*range(1, r.total + 1))
    scaled = [
        lcm // i * math.prod(binomial(rl + i - 1, rl) for rl in r.parts)
        for i in range(1, r.total + 1)
    ]
    return [Fraction(r.total * d, lcm) for d in forward_differences(scaled)]


def _entiere(r: Composition) -> List[Fraction]:
    # c_k = sum_i (-1)^(k-i) C(k-1, i-1) Q_i,
    # Q_i = sum_j C(i+r_j-1, r_j-1) prod_{l != j} C(r_l+i-1, r_l)
    q = []
    for i in range(1, r.total + 1):
        col = [binomial(rl + i - 1, rl) for rl in r.parts]
        q.append(sum(
            binomial(i + rj - 1, rj - 1) * math.prod(col[:j]) * math.prod(col[j + 1:])
            for j, rj in enumerate(r.parts)
        ))
    return [Fraction(d) for d in forward_differences(q)]


def _times_geom_minus_one(q: List[int], radices: Sequence[int]) -> List[int]:
    """q * (G - 1) truncated to the box, for q flat over the mixed-radix box
    with the last axis fastest.  Multiplying by the truncated
    G = 1/prod(1 - x_i) is a prefix sum along every axis."""
    g = q[:]
    size, stride = len(g), 1
    for n in reversed(radices):
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


def _scaled_by_total(r: Composition, e: Sequence[int]) -> List[Fraction]:
    """c_k = |r| e_k / k for k = 1..|r|, from the integers e_k = k c_k / |r|."""
    return [Fraction(r.total * e[k - 1], k) for k in range(1, r.total + 1)]


def _genfun(r: Composition) -> List[Fraction]:
    return _scaled_by_total(r, _geom_minus_one_powers(r.parts))


def _inclusion_exclusion(r: Composition) -> List[Fraction]:
    # c_k = |r| S_k / (k prod r_j) over the nonzero species
    stripped = [p for p in r.parts if p > 0]
    s = _seating_s(stripped, r.total)
    denom = math.prod(stripped)
    return [Fraction(r.total * s[k], k * denom) for k in range(1, r.total + 1)]


def _finite_diff(r: Composition) -> List[Fraction]:
    # Newton coefficient A_k = Delta^k f(0) / k! of f(x) = prod (x)_{r_i}, from
    # the difference table of f(0..|r|); c_k = |r| (k-1)! A_k / prod r_i!
    d = forward_differences(
        [math.prod(rising(x, ri) for ri in r.parts) for x in range(r.total + 1)]
    )
    denom = math.prod(factorial(ri) for ri in r.parts)
    return [Fraction(r.total * d[k], k * denom) for k in range(1, r.total + 1)]


def _recurrence(r: Composition) -> List[Fraction]:
    # prod mc(x, r_i) = sum_s w_s mc(x, s), mc(x, n) = C(x+n-1, n), merging one
    # species b into w at a time by mc(x, a) mc(x, b) = sum_l t_l mc(x, a+b-l),
    # t_l = (-1)^l C(a+b-l; l, a-l, b-l); then e_k = sum_s w_s C(s-1, k-1)
    first, *rest = (p for p in r.parts if p > 0)
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


def _hyp3f2(r: Composition) -> List[Fraction]:
    # c_k = (-1)^(k-1) |r| 3F2(1-k, r_1+1, r_2+1; 2, 1; 1)
    r1, r2 = r.parts
    return [
        (-1) ** (k - 1) * r.total * hypergeom_terminating([1 - k, r1 + 1, r2 + 1], [2, 1], 1)
        for k in range(1, r.total + 1)
    ]


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
        raise ValueError(f"c_coeff: unknown method {method!r}")
    if method == "hyp3f2" and r.m != 2:
        raise ValueError(f"hyp3f2 method supports m = 2 only, got m = {r.m}")
    return _KERNELS[method]


def c_coeff(r: Composition, k: int, method: str = DEFAULT_C_METHOD) -> Fraction:
    """The generalized binomial coefficient c_k(r).

    Defined for 1 <= k <= |r| (a positive integer there); k > |r| gives 0.
    All methods agree; returning Fraction lets an integrality bug surface
    as a failed downstream check instead of silent rounding.  Runs the
    route's whole kernel; a caller needing several k should take
    ``c_table`` once.
    """
    if k < 1:
        raise ValueError(f"c_coeff: k must be positive, got {k}")
    kernel = _kernel(r, method)
    if k > r.total:
        return Fraction(0)
    return kernel(r)[k - 1]


def c_table(r: Composition, method: str = DEFAULT_C_METHOD) -> CoeffTable:
    """All of c_1(r) .. c_|r|(r) by the chosen method, in one kernel pass."""
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
    if variant == "d":
        # Newton coefficients d_k = Delta^k f(0) / k! of f(x) = prod falling(x, r_i),
        # from one integer difference table of f(0..|r|); falling(x, r) = perm(x, r)
        diffs = forward_differences(
            [math.prod(math.perm(x, ri) for ri in r.parts) for x in range(r.total + 1)]
        )
        vals = {k: Fraction(d, factorial(k)) for k, d in enumerate(diffs) if k and d}
        return CoeffTable("d", r, vals)
    if variant == "d_tilde":
        base = linearization_d(r, "d").values
        denom = math.prod(factorial(ri) for ri in r.parts)
        vals = {k: factorial(k) * a / denom for k, a in base.items()}
        return CoeffTable("d_tilde", r, {k: v for k, v in vals.items() if v})
    if variant == "c_tilde":
        vals = {k: k * c / r.total for k, c in c_table(r).values.items()}
        return CoeffTable("c_tilde", r, {k: v for k, v in vals.items() if v})
    raise ValueError(f"linearization_d: unknown variant {variant!r}")
