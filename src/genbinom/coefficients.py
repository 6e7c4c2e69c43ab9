"""Coefficient families attached to a composition r = (r_1, ..., r_m).

The central quantity is the generalized binomial coefficient c_k(r),
computable by several independent routes that must agree exactly:

  explicit             alternating single sum over inner index i
  entiere              integer-valued double sum (one term per species)
  genfun               (|r|/k) * [x^r] (G - 1)^k, G = 1/((1-x_1)...(1-x_m)),
                       powers kept as dense integer arrays over the box
                       prod (r_i + 1); multiplying by G is a prefix sum
  inclusion_exclusion  |r| * S_k(r) / (k * prod r_j) via seating counts
  finite_diff          Newton expansion of prod (x)_{r_i} in falling basis
  recurrence           merge two species at a time down to m = 1, on the
                       integers e_k(r) = k c_k(r) / |r| = [x^r] (G - 1)^k
  hyp3f2               terminating 3F2 evaluation (m = 2 only)

The default route, DEFAULT_C_METHOD, is inclusion_exclusion: the cheapest
one.  The others stay as independent cross-checks.

Also here: the round-table seating counts F_k/S_k/T_k, the linearization
tables d, d-tilde and c-tilde, and a terminating hypergeometric evaluator.

Everything is pure except three internal memo tables behind
``functools.lru_cache`` (safe for concurrent use).  Each is keyed by one
composition, never by k, holds the values for every k at once, and is
bounded:

  _geom_minus_one_powers  genfun: [x^r] (G - 1)^k, k = 1..|r|    1024 entries
  _rising_product_newton  finite_diff: Newton coefficients A_k    1024 entries
  _merge_recurrence       recurrence: integers k c_k / |r|        4096 entries
                          (one per sorted sub-composition reached)
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from functools import lru_cache
from itertools import product as _cartesian
from operator import add, sub
from typing import Dict, Iterator, List, Sequence, Tuple

from .exactnum import Rat, binomial, factorial, multinomial, value_str
from .polybasis import UPoly, falling_poly, rising_poly, to_falling_basis

C_METHODS = (
    "explicit",
    "entiere",
    "genfun",
    "inclusion_exclusion",
    "finite_diff",
    "recurrence",
    "hyp3f2",
)
DEFAULT_C_METHOD = "inclusion_exclusion"


class Composition:
    """Tuple of nonnegative species sizes with positive total."""

    __slots__ = ("parts", "m", "total")

    def __init__(self, parts: Sequence[int]):
        parts = tuple(int(p) for p in parts)
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


def iter_compositions(m_max: int, r_max: int, min_entry: int = 0) -> Iterator[Composition]:
    """All compositions with 1 <= m <= m_max and min_entry <= r_i <= r_max,
    positive total, in deterministic order (length, then lexicographic)."""
    for m in range(1, m_max + 1):
        for parts in _cartesian(range(min_entry, r_max + 1), repeat=m):
            if sum(parts) > 0:
                yield Composition(parts)


@dataclass
class CoeffTable:
    """A computed coefficient family: mapping k -> exact rational.

    Absent keys are implicitly zero.  ``is_integral`` reports whether an
    entry has denominator 1.
    """

    family: str
    r: Composition
    values: Dict[int, Fraction] = field(default_factory=dict)

    def value(self, k: int) -> Fraction:
        return self.values.get(k, Fraction(0))

    def is_integral(self, k: int) -> bool:
        return self.value(k).denominator == 1

    def to_json_dict(self) -> dict:
        return {
            "family": self.family,
            "r": list(self.r.parts),
            "values": {str(k): value_str(self.values[k]) for k in sorted(self.values)},
        }


# ---------------------------------------------------------------------------
# hypergeometric evaluator
# ---------------------------------------------------------------------------

def hypergeom_terminating(numer: Sequence[Rat], denom: Sequence[Rat], z: Rat) -> Fraction:
    """Exact value of pFq(numer; denom; z) for a terminating series.

    Requires a nonpositive-integer numerator parameter (else ValueError).
    A denominator parameter whose Pochhammer factor vanishes within the
    summation range raises ZeroDivisionError.
    """
    nums = [Fraction(a) for a in numer]
    dens = [Fraction(b) for b in denom]
    z = Fraction(z)
    stops = [-a for a in nums if a.denominator == 1 and a <= 0]
    if not stops:
        raise ValueError("series does not terminate: no nonpositive-integer numerator parameter")
    nmax = int(min(stops))
    for b in dens:
        if b.denominator == 1 and 0 >= b > -nmax:
            raise ZeroDivisionError(f"denominator parameter {b} hits zero within the summation range")
    total = term = Fraction(1)
    for j in range(nmax):
        term = term * math.prod(a + j for a in nums) * z
        term /= math.prod(b + j for b in dens) * (j + 1)
        total += term
    return total


# ---------------------------------------------------------------------------
# seating counts around a k-chair table
# ---------------------------------------------------------------------------

def check_positive_species(r: Composition) -> None:
    """Raise ValueError if some species of r has zero representatives."""
    if any(p == 0 for p in r.parts):
        raise ValueError("a species with zero representatives cannot send a delegation")


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
        out = 1
        for rl in r.parts:
            out *= rl * binomial(k + rl - 1, rl)
        return out
    if which == "S":
        acc = 0
        for i in range(1, k + 1):
            term = binomial(k, i)
            for rl in r.parts:
                term *= rl * binomial(i + rl - 1, rl)
            acc += (-1) ** (k - i) * term
        return acc
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
# c_k(r) by each route
# ---------------------------------------------------------------------------

def _c_explicit(r: Composition, k: int) -> Fraction:
    acc = Fraction(0)
    for i in range(1, k + 1):
        term = Fraction((-1) ** (k - i) * binomial(k - 1, i - 1), i)
        for rl in r.parts:
            term *= binomial(rl + i - 1, rl)
        acc += term
    return r.total * acc


def _c_entiere(r: Composition, k: int) -> Fraction:
    acc = 0
    for j in range(r.m):
        for i in range(1, k + 1):
            term = (-1) ** (k - i) * binomial(k - 1, i - 1)
            term *= binomial(i + r.parts[j] - 1, r.parts[j] - 1)
            for l, rl in enumerate(r.parts):
                if l != j:
                    term *= binomial(rl + i - 1, rl)
            acc += term
    return Fraction(acc)


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


def _c_genfun(r: Composition, k: int) -> Fraction:
    return Fraction(r.total * _geom_minus_one_powers(r.parts)[k - 1], k)


def _c_inclusion_exclusion(r: Composition, k: int) -> Fraction:
    stripped = Composition([p for p in r.parts if p > 0])
    s = seating_counts(stripped, k, "S")
    return Fraction(r.total * s, k * math.prod(stripped.parts))


@lru_cache(maxsize=1024)
def _rising_product_newton(parts: Tuple[int, ...]) -> Tuple[Fraction, ...]:
    """Newton coefficients A_0..A_|r| of prod (x)_{r_i} in the falling basis."""
    p = UPoly.one()
    for ri in parts:
        p = p * rising_poly(ri)
    newton = to_falling_basis(p)
    return tuple(newton.get(k, Fraction(0)) for k in range(sum(parts) + 1))


def _c_finite_diff(r: Composition, k: int) -> Fraction:
    a = _rising_product_newton(r.parts)[k]
    return r.total * factorial(k - 1) * a / math.prod(factorial(ri) for ri in r.parts)


@lru_cache(maxsize=4096)
def _merge_recurrence(parts: Tuple[int, ...]) -> Tuple[int, ...]:
    """e_k(parts) = k c_k / |parts| for k = 1..|parts|, an integer, by merging
    the first two species; parts are sorted descending without zeros."""
    if len(parts) == 1:
        n = parts[0]
        return tuple(binomial(n - 1, k - 1) for k in range(1, n + 1))
    r1, r2, rest = parts[0], parts[1], parts[2:]
    acc = [0] * sum(parts)
    for l in range(min(r1, r2) + 1):
        merged = tuple(sorted((r1 + r2 - l,) + rest, reverse=True))
        coef = (-1) ** l * multinomial(r1 + r2 - l, (l, r1 - l, r2 - l))
        e = _merge_recurrence(merged)
        acc[:len(e)] = map(add, acc, map(coef.__mul__, e))
    return tuple(acc)


def _c_recurrence(r: Composition, k: int) -> Fraction:
    parts = tuple(sorted((p for p in r.parts if p > 0), reverse=True))
    return Fraction(r.total * _merge_recurrence(parts)[k - 1], k)


def _c_hyp3f2(r: Composition, k: int) -> Fraction:
    r1, r2 = r.parts
    val = hypergeom_terminating([1 - k, r1 + 1, r2 + 1], [2, 1], 1)
    return (-1) ** (k - 1) * (r1 + r2) * val


_C_DISPATCH = {
    "explicit": _c_explicit,
    "entiere": _c_entiere,
    "genfun": _c_genfun,
    "inclusion_exclusion": _c_inclusion_exclusion,
    "finite_diff": _c_finite_diff,
    "recurrence": _c_recurrence,
    "hyp3f2": _c_hyp3f2,
}


def c_coeff(r: Composition, k: int, method: str = DEFAULT_C_METHOD) -> Fraction:
    """The generalized binomial coefficient c_k(r).

    Defined for 1 <= k <= |r| (a positive integer there); k > |r| gives 0.
    All methods agree; returning Fraction lets an integrality bug surface
    as a failed downstream check instead of silent rounding.
    """
    if k < 1:
        raise ValueError(f"c_coeff: k must be positive, got {k}")
    if method not in _C_DISPATCH:
        raise ValueError(f"c_coeff: unknown method {method!r}")
    if method == "hyp3f2" and r.m != 2:
        raise ValueError(f"hyp3f2 method supports m = 2 only, got m = {r.m}")
    if k > r.total:
        return Fraction(0)
    return _C_DISPATCH[method](r, k)


def c_table(r: Composition, method: str = DEFAULT_C_METHOD) -> CoeffTable:
    """All of c_1(r) .. c_|r|(r) by the chosen method."""
    return CoeffTable(
        "c", r, {k: c_coeff(r, k, method) for k in range(1, r.total + 1)}
    )


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
        p = UPoly.one()
        for ri in r.parts:
            p = p * falling_poly(ri)
        vals = {k: a for k, a in to_falling_basis(p).items() if k >= 1}
        return CoeffTable("d", r, vals)
    if variant == "d_tilde":
        base = linearization_d(r, "d").values
        denom = math.prod(factorial(ri) for ri in r.parts)
        vals = {k: factorial(k) * a / denom for k, a in base.items()}
        return CoeffTable("d_tilde", r, {k: v for k, v in vals.items() if v})
    if variant == "c_tilde":
        vals = {
            k: Fraction(k) * c_coeff(r, k) / r.total
            for k in range(1, r.total + 1)
        }
        return CoeffTable("c_tilde", r, {k: v for k, v in vals.items() if v})
    raise ValueError(f"linearization_d: unknown variant {variant!r}")
