"""Coefficient families attached to a composition r = (r_1, ..., r_m).

The central quantity is the generalized binomial coefficient c_k(r),
computable by several routes that must agree exactly; two pairs difference
one table up to scale: explicit's L P_i / i is L/|r| times entiere's Q_i, and
finite_diff's Delta^k f(0) is prod r_l! times inclusion_exclusion's c~_k.
Each route is one kernel ``r -> [c_1, ..., c_|r|]`` that computes every entry
in one exact integer pass: ``c_table`` returns its list and ``c_coeff(r, k)``
reads entry k of it.  The kernels work on whole integer runs over i = 1..|r|:
each nonzero species, read from ``Composition.species`` (a zero part's run is
all ones), contributes one run, built by one ``math.comb`` or ``math.perm``
map, and runs are combined entrywise by ``map`` (no Python call per entry).
``_species_product`` reads the sorted species as (size, count) groups: t equal
species are one run raised to the power t by one ``pow`` map, so explicit,
entiere, inclusion_exclusion, finite_diff and the d, d~ and c~ tables make
O(|r|) entrywise products and powers per distinct size.

  explicit             alternating sum over P_i = prod C(r_l+i-1, r_l):
                       differences of the integers lcm(1..|r|) P_i / i, the
                       run lcm // i times every species' C(r_l+i-1, r_l) run
  entiere              integer-valued double sum (one term per species):
                       differences of the integers Q_i = sum_j C(i+r_j-1,
                       r_j-1) prod_(l!=j) C(i+r_l-1, r_l) = |r| P_i / i,
                       P_i explicit's species product, by one checked division
  genfun               (|r|/k) * [x^r] (G - 1)^k, G = 1/((1-x_1)...(1-x_m)),
                       powers kept as dense integer arrays over the box
                       prod (r_i + 1) of ``Composition.species`` (G is
                       symmetric); multiplying by G is a prefix sum, one
                       ``accumulate`` per row of the fastest (largest) axis
                       and one slice sum per step of the others
  inclusion_exclusion  |r| * S_k(r) / (k * prod r_j) = |r| c~_k / k: S_k, the
                       differences of the seating counts F_0..F_|r|, is
                       prod r_j c~_k, c~ the difference table of the
                       species' multichoose runs
  finite_diff          Newton expansion of f(x) = prod (x)_{r_i}: integer
                       difference table of f(0..|r|), each rising factorial
                       run (x)_{r_i} = perm(x+r_i-1, r_i) from ``math.perm``
  recurrence           prod mc(x, r_i) = sum_s w_s mc(x, s), mc the multichoose,
                       from the merge chain at sign -1 (below); then the
                       integers k c_k / |r| = sum_s w_s C(s-1, k-1), one
                       Horner pass
  hyp3f2               c_k = (-1)^(k-1) |r| 3F2(1-k, r_1+1, r_2+1; 2, 1; 1)
                       (at most two nonzero species, (r_1, r_2) the species
                       padded with zeros to a pair): c_1, c_2 from the
                       evaluator, then the three-term relation in k of these
                       continuous dual Hahn polynomials, one exact integer
                       step per k

The default route, DEFAULT_C_METHOD, is inclusion_exclusion: the cheapest
route that takes every shape.  The others stay as cross-checks, though not
all independent ones: each pair above shares one table, so within a pair
only the scaling differs.  inclusion_exclusion, finite_diff, genfun and
recurrence end in one scaling step, ``_scaled_by_total``: c_k = |r| e_k /
(k D) from their integers e_k.
A route's shape rule is checked before its kernel runs, and breaking it
raises ShapeError (a ValueError, not among the package's 17 public names):
hyp3f2 needs at most two nonzero species (``_species_pair``, the one
two-species rule), genfun at most GENFUN_STEPS_MAX box steps
|r| * prod (r_i + 1), recurrence at most RECURRENCE_STEPS_MAX merge steps
(``_within_merge_budget``, which gates the chain pairs of linm, linbin and
linlas too).  Like the kernels, each rule reads only ``Composition.species``.
Before that, every table, c_k, linearization or seating count, is checked
against TABLE_SIZE_MAX on its length (|r| or k), and a longer one raises
ValueError.

Results are ``CoeffTable``s, a NamedTuple of the family, r and its values,
k -> int.  Also here: the round-table seating counts F_k/S_k/T_k (F_k one
product over the species, S_k = prod r_l c~_k read off the c~ table); the
linearization tables d, d-tilde and c-tilde; and the one difference table that
c~, d, d-tilde, inclusion_exclusion, finite_diff and S read,
``_difference_table``: Delta^k g(0) of a species product g of one run kind,
C(i, r_l), C(i+r_l-1, r_l) or finite_diff's perm(i+r_l-1, r_l), which runs no
c_k route and imports nothing from ``polybasis``; the merge chain
``_merge_chain(species, sign)``, the one place of the two-factor rule
b(x, a) b(x, b) = sum_l t_l b(x, a+b-l), merging one species at a time,
smallest first, on b = C(x, .) at sign +1 (its weights are d-tilde) or on the
multichoose at sign -1 (recurrence's weights and binom2's right side), which
shares no code with the difference table; and a terminating hypergeometric
evaluator, one Horner loop from the last term on one integer
numerator/denominator pair, each parameter p/q giving the term ratio one
factor (p + j q)/q.  Every family is a count and every value an ``int``:
each division goes through ``_exact``, where a nonzero remainder raises
ArithmeticError naming its k instead of being rounded, or through one
checked ``divmod``: hyp3f2's three-term step names its k, and the merge
chain's step names a, b and l.

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
from itertools import accumulate, chain, groupby, repeat
from itertools import product as _cartesian
from operator import add, floordiv, itemgetter, mul, sub
from typing import Callable, Dict, Iterable, Iterator, List, NamedTuple, Sequence, Tuple

from .exactnum import Rat, as_int, binomial, factorial, forward_differences

DEFAULT_C_METHOD = "inclusion_exclusion"
# genfun's budget on |r| * prod(r_i + 1), its box steps at 0.6 to 1.4 us each (Python 3.11,
# 2-core Xeon VM; largest accepted boxes (4,)*6 0.24 s, (2,)*10 1.2 s, (1,)*16 1.5 s)
GENFUN_STEPS_MAX = 2 * 10**6
# every table's budget on its length, |r| or a seating count's k.  Largest accepted cases,
# two-species (1000,1000) then many-species (1,)*2000, same machine, medians of 4 runs in
# process: explicit 1.3, 2.9 s; entiere 0.9, 2.7 s; inclusion_exclusion 0.7, 2.1 s;
# finite_diff 2.4, 2.2 s; recurrence 0.4 s, then its own budget rejects (1,)*2000; d 0.5,
# 2.8 s; d~ 0.4, 2.7 s; c~ 0.8, 2.6 s (one difference table, no c route); hyp3f2 (at
# most two species) 0.01 s; genfun's own budget rejects both
TABLE_SIZE_MAX = 2000
# recurrence's budget on its merge steps, counted from the species by `_recurrence_steps`
# before any work; a step is a big-integer product and division, slower the larger |r|.
# Same machine: (1000,1000) 1,001 steps 0.4 s; (50,)*20 437,019 steps 1.0 s; the most
# ones accepted, (1,)*1000, 999,000 steps 2.6 to 3.6 s; (1,)*815+(1185,) 996,745 steps
# 4.6 s.  Over it, (10,)*200 (2.2*10^6 steps) took 12.8 s and (1,)*2000 (4*10^6) 23 s
RECURRENCE_STEPS_MAX = 10**6


def _within_merge_budget(species: Sequence[int]) -> bool:
    """Whether `_merge_chain` on these species takes at most RECURRENCE_STEPS_MAX steps:
    the rule of recurrence and of the chain pairs of linm, linbin and linlas."""
    return _recurrence_steps(species) <= RECURRENCE_STEPS_MAX


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
    """A computed coefficient family, k -> int; absent keys are zero."""

    family: str
    r: Composition
    values: Dict[int, int]

    def value(self, k: int) -> int:
        return self.values.get(k, 0)


def _check_table_size(n: int, name: str) -> None:
    """Raise ValueError if a table of length n is over TABLE_SIZE_MAX, before any work."""
    if n > TABLE_SIZE_MAX:
        raise ValueError(f"{name} = {n} is over the table budget TABLE_SIZE_MAX = {TABLE_SIZE_MAX}")


def _species_pair(r: Composition) -> Tuple[int, int] | None:
    """r's nonzero species padded with zeros to a pair, smallest first, or None
    if r has three or more: the one two-species rule."""
    return (0, *r.species)[-2:] if len(r.species) <= 2 else None


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

    Each parameter p/q enters the term ratio a_j / b_j = term j+1 / term j as
    one factor (p + j q)/q; Horner's rule from the last term keeps the sum as
    one integer pair.
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
    a_scale = z.numerator * math.prod(q for _, q in dens)
    b_scale = z.denominator * math.prod(q for _, q in nums)
    num = den = 1  # num / den = 1 + (a_j / b_j)(1 + (a_(j+1) / b_(j+1))(1 + ...))
    for j in reversed(range(nmax)):
        a_j = a_scale * math.prod(p + j * q for p, q in nums)
        b_j = b_scale * (j + 1) * math.prod(p + j * q for p, q in dens)
        num, den = den * b_j + a_j * num, den * b_j
    return Fraction(num, den)


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
    be occupied and is the binomial-inverse alternating sum of F, Delta^k F(0):
    F is prod r_l times the c~ table's g, so S_k = prod r_l * c~_k.
    """
    k = as_int(k)
    if k < 1:
        raise ValueError(f"seating_counts: k must be positive, got {k}")
    _check_table_size(k, "k")
    r = as_composition(r)
    check_positive_species(r)
    if which == "F":
        return math.prod(rl * math.comb(k + rl - 1, rl) for rl in r.parts)
    if which == "S":
        return math.prod(r.parts) * _difference_table(r.species, k, _multichoose_run)[k]
    raise ValueError(f"seating_counts: unknown kind {which!r}")


def t_coeff(r: Composition, k: int, j: int) -> int:
    """Surjective seatings with species j's delegation elder on chair k and
    every other species' eldest member seated, on its largest chair:
    S_k(r) * r_j / (k * r_1 ... r_m)."""
    k, j, r = as_int(k), as_int(j), as_composition(r)
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


def _species_product(start: Iterable[int], species: Sequence[int], run: Callable[[int], Iterable[int]]) -> List[int]:
    """start times every species' run(s) entrywise, for nonempty ascending species:
    t equal species, one (size, count) group, are one run raised to the power t."""
    for s, group in groupby(species):
        t = len(list(group))
        start = list(map(mul, start, run(s) if t == 1 else map(pow, run(s), repeat(t))))
    return start


def _difference_table(species: Sequence[int], n: int, run: Callable[[int, int], Iterable[int]]) -> List[int]:
    """Delta^k g(0), k = 0..n, g(i) = prod over the nonempty species s of run(s, n)'s
    entry i for i = 1..n, and g(0) = 0: one integer difference table of one species product."""
    return forward_differences([0, *_species_product(repeat(1, n), species, lambda s: run(s, n))])


def _explicit(r: Composition) -> List[int]:
    # c_k = |r| sum_i (-1)^(k-i) C(k-1, i-1) P_i / i, P_i = prod C(r_l+i-1, r_l):
    # over L = lcm(1..|r|) the sum is Delta^(k-1) of the integers L P_i / i,
    # the run L // i times every species' run
    lcm = math.lcm(*range(1, r.total + 1))
    scaled = _species_product(map(floordiv, repeat(lcm), range(1, r.total + 1)), r.species,
                              lambda s: _multichoose_run(s, r.total))
    return _exact(map(r.total.__mul__, forward_differences(scaled)), repeat(lcm))


def _entiere(r: Composition) -> List[int]:
    # c_k = sum_i (-1)^(k-i) C(k-1, i-1) Q_i, Q_i = sum_j B_j prod_{l != j} A_l,
    # A_l = C(i+r_l-1, r_l), B_l = C(i+r_l-1, r_l-1) = r_l A_l / i: so Q_i = |r| P_i / i,
    # P_i = prod_l A_l the species product; the checked division tests the paper's
    # claim that the double sum is an integer at every i
    p = _species_product(repeat(r.total, r.total), r.species, lambda s: _multichoose_run(s, r.total))
    return forward_differences(_exact(p, range(1, r.total + 1)))


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
    # c_k = |r| S_k / (k prod r_j) over the nonzero species, and S_k = prod r_j c~_k
    return _scaled_by_total(r, _difference_table(r.species, r.total, _multichoose_run)[1:])


def _finite_diff(r: Composition) -> List[int]:
    # Newton coefficient A_k = Delta^k f(0) / k! of f(x) = prod (x)_{r_i}, from
    # the difference table of f(0..|r|); c_k = |r| (k-1)! A_k / prod r_i!
    # rising(x, r_i) = perm(x+r_i-1, r_i) for x >= 1; f(0) = 0 as some r_i > 0
    f = _difference_table(r.species, r.total, lambda s, n: map(math.perm, range(s, s + n), repeat(s)))
    return _scaled_by_total(r, f[1:], math.prod(map(factorial, r.species)))


def _merge_chain(species: Sequence[int], sign: int) -> List[int]:
    """w_0..w_S, S the total, with prod b(x, r_i) = sum_s w_s b(x, s) over the nonempty
    ascending species r_i: b(x, n) = C(x, n) at sign +1, so w_s = d~_s, and the
    multichoose C(x+n-1, n) at sign -1.  One species b merges into w at a time by
    b(x, a) b(x, b) = sum_l t_l b(x, a+b-l), t_l = sign^l C(a+b-l; l, a-l, b-l), the
    two-factor linearization (the binom2 identity at sign -1); each t_(l+1) comes
    from t_l by one checked divmod, which names a, b and l on a remainder."""
    first, *rest = species
    w = [0] * (sum(species) + 1)
    w[first] = 1
    for b in rest:
        merged = [0] * len(w)
        for a, wa in enumerate(w):
            if wa:
                top = a + b
                t = wa * binomial(top, a)  # w_a t_0
                for l in range(min(a, b) + 1):
                    merged[top - l] += t
                    t, rem = divmod(t * (sign * (a - l) * (b - l)), (l + 1) * (top - l))
                    if rem:
                        raise ArithmeticError(f"merge chain: merge step leaves a remainder at a={a}, b={b}, l={l}")
        w = merged
    return w


def _on_binomials(w: Sequence[int]) -> List[int]:
    """e_1..e_S with sum_s w_s C(x+s-1, s) = sum_k e_k C(x, k), S = len(w) - 1:
    e_k = sum_s w_s C(s-1, k-1) = [y^(k-1)] sum_s w_s (1 + y)^(s-1), by Horner in (1 + y)."""
    e: List[int] = []
    for ws in reversed(w[1:]):
        e = list(map(add, [ws] + e, e + [0]))
    return e


def _recurrence(r: Composition) -> List[int]:
    # k c_k / |r| = c~_k, the C(x, k) coefficients of prod mc(x, r_i) = sum_s w_s mc(x, s)
    return _scaled_by_total(r, _on_binomials(_merge_chain(r.species, -1)))


def _recurrence_steps(species: Sequence[int]) -> int:
    """An upper bound on recurrence's merge steps, species ascending: once the
    species up to s are merged the weights lie on [s, S], S their sum, and merging
    b takes min(a, b) + 1 steps for each a there (fewer where w_a is zero)."""
    steps, s, total = 0, species[0], species[0]
    for b in species[1:]:
        mid = min(b, total)  # a <= mid takes a + 1 steps, a > mid takes b + 1
        steps += (s + mid + 2) * (mid - s + 1) // 2 + (total - mid) * (b + 1)
        s, total = b, total + b
    return steps


def _hyp3f2(r: Composition) -> List[int]:
    # c_k = (-1)^(k-1) |r| F_(k-1), F_n = 3F2(-n, r_1+1, r_2+1; 2, 1; 1), a continuous
    # dual Hahn polynomial in n (Koekoek-Lesky-Swarttouw (9.3.3) with a + b = 2,
    # a + c = 1, a^2 + x^2 = R): c_1, c_2 from the evaluator, then for n = 1..|r|-2
    # A_n c_(n+2) = (R - A_n - C_n) c_(n+1) - C_n c_n,
    # A_n = (n+1)(n+2), C_n = n(n - |r|), R = (r_1+1)(r_2+1)
    r1, r2 = _species_pair(r)
    values = [hypergeom_terminating([1 - k, r1 + 1, r2 + 1], [2, 1], 1) for k in range(1, min(2, r.total) + 1)]
    c = _exact([(-1) ** i * r.total * v.numerator for i, v in enumerate(values)], [v.denominator for v in values])
    big_r = (r1 + 1) * (r2 + 1)
    for n in range(1, r.total - 1):  # c[n] is c_(n+1)
        a, cn = (n + 1) * (n + 2), n * (n - r.total)
        q, rem = divmod((big_r - a - cn) * c[n] - cn * c[n - 1], a)
        if rem:
            raise ArithmeticError(f"exact division leaves a remainder at k={n + 2}")
        c.append(q)
    return c


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
    """The route's kernel, after checking the method, the table budget and
    the route's shape rule."""
    if method not in _KERNELS:
        raise ValueError(f"unknown c_k method {method!r}; known methods: {', '.join(C_METHODS)}")
    _check_table_size(r.total, "|r|")
    if method == "hyp3f2" and _species_pair(r) is None:
        raise ShapeError(f"hyp3f2 method supports at most two nonzero species, got {len(r.species)}")
    if method == "genfun" and r.total * math.prod(p + 1 for p in r.species) > GENFUN_STEPS_MAX:
        raise ShapeError(f"genfun: |r| * prod(r_i + 1) is over the budget {GENFUN_STEPS_MAX}")
    if method == "recurrence" and not _within_merge_budget(r.species):
        raise ShapeError(f"recurrence: its merge steps are over the budget {RECURRENCE_STEPS_MAX}")
    return _KERNELS[method]


def c_coeff(r: Composition, k: int, method: str = DEFAULT_C_METHOD) -> int:
    """The generalized binomial coefficient c_k(r).

    Defined for 1 <= k <= |r| (a positive integer there); k > |r| gives 0.
    All methods agree.  Each route divides only by a checked exact division, so an
    integrality bug raises ArithmeticError instead of being rounded.  Runs
    the route's whole kernel; a caller needing several k should take
    ``c_table`` once.
    """
    k = as_int(k)
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

    One kernel for all three: the integer difference table of g(0..|r|), g(x) the
    product of the species' binomial runs, C(x, r_i) for d and d_tilde and
    C(x+r_i-1, r_i) for c_tilde, so Delta^k g(0) is dt_k or ct_k with no division,
    and d_k = prod r_i! dt_k / k! is the one checked division.  No c_k route runs.
    Entries not stored are zero.  Zero species sizes are allowed (an empty
    species contributes the factor 1).
    """
    r = as_composition(r)
    _check_table_size(r.total, "|r|")
    if variant not in ("d", "d_tilde", "c_tilde"):
        raise ValueError(f"linearization_d: unknown variant {variant!r}")
    run = _multichoose_run if variant == "c_tilde" else lambda s, n: map(math.comb, range(1, n + 1), repeat(s))
    vals = _difference_table(r.species, r.total, run)[1:]
    if variant == "d":  # prod falling(x, r_i) = prod r_i! g(x); k! as a running product
        vals = _exact(map(math.prod(map(factorial, r.species)).__mul__, vals), accumulate(range(1, r.total + 1), mul))
    return CoeffTable(variant, r, {k: v for k, v in enumerate(vals, 1) if v})
