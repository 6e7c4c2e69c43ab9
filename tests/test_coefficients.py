import itertools
import math
import random
from fractions import Fraction
from functools import lru_cache
from itertools import accumulate, repeat
from operator import add, floordiv, mul, sub
from typing import List, Sequence, Tuple

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from genbinom import coefficients
from genbinom.coefficients import (
    C_METHODS,
    CoeffTable,
    Composition,
    ShapeError,
    as_composition,
    c_coeff,
    c_table,
    hypergeom_terminating,
    iter_compositions,
    linearization_d,
    seating_counts,
    t_coeff,
)
from genbinom.exactnum import Rat, binomial, factorial, forward_differences, multinomial, rising
from genbinom.polybasis import UPoly, rising_poly, to_falling_basis
from genbinom.series import MPoly, geom_inverse_product

AGREEING = [m for m in C_METHODS if m != "hyp3f2"]


def test_composition_validation():
    with pytest.raises(ValueError):
        Composition([])
    with pytest.raises(ValueError):
        Composition([0, 0])
    with pytest.raises(ValueError):
        Composition([1, -1])
    r = Composition([2, 0, 1])
    assert r.parts == (2, 0, 1) and r.total == 3 and r.m == 3


def test_composition_species_is_sorted_nonzero_parts():
    for r in iter_compositions(4, 3):
        assert r.species == tuple(sorted(p for p in r.parts if p)), r


@pytest.mark.parametrize("call", [lambda: c_table((2, 1), "bogus"), lambda: c_coeff((2, 1), 1, "bogus")])
def test_unknown_method_lists_the_known_ones(call):
    with pytest.raises(ValueError) as info:
        call()
    message = str(info.value)
    assert "'bogus'" in message and all(m in message for m in C_METHODS)
    assert "c_coeff" not in message and "c_table" not in message


def test_c_single_species():
    r = Composition([3])
    assert c_coeff(r, 2) == 3
    for method in AGREEING:
        for k in range(1, 4):
            assert c_coeff(r, k, method) == binomial(3, k)


def test_c_examples():
    r = Composition([1, 1])
    assert c_coeff(r, 1) == 2
    assert c_coeff(r, 2) == 2
    assert c_coeff(Composition([2, 1]), 3) == 3  # multinomial(3; 2,1)


def test_c_beyond_range_and_validation():
    r = Composition([2, 1])
    for method in AGREEING:
        assert c_coeff(r, 4, method) == 0
    with pytest.raises(ValueError):
        c_coeff(r, 0)
    with pytest.raises(ValueError):
        c_coeff(r, 1, "nosuch")


def test_hyp3f2_requires_two_species():
    # at most two nonzero species: one species is the pair (0, r_1)
    with pytest.raises(ValueError):
        c_coeff(Composition([1, 1, 1]), 1, "hyp3f2")
    assert c_coeff(Composition([3]), 1, "hyp3f2") == c_coeff(Composition([3]), 1)


def test_shape_errors_are_value_errors():
    # library callers that catch ValueError keep catching the shape rules
    assert issubclass(ShapeError, ValueError)
    with pytest.raises(ShapeError, match="hyp3f2"):
        c_table((1, 1, 1), "hyp3f2")
    with pytest.raises(ShapeError, match="budget"):
        c_coeff((20,) * 6, 1, "genfun")


def test_genfun_budget_edge():
    # k = |r| + 1 runs the shape check but not the kernel: (1,)*16 has
    # 16 * 2^16 = 1,048,576 box steps, (1,)*17 has 17 * 2^17 = 2,228,224
    assert coefficients.GENFUN_STEPS_MAX == 2 * 10**6
    r = Composition((1,) * 16)
    assert c_coeff(r, r.total + 1, "genfun") == 0
    r = Composition((1,) * 17)
    with pytest.raises(ShapeError, match="budget"):
        c_coeff(r, r.total + 1, "genfun")


def _merge_steps(species: Sequence[int]) -> int:
    """Reference: recurrence's merge steps counted on the weights' support sets,
    min(a, b) + 1 for each a in the support when b is merged in."""
    support, steps = {species[0]}, 0
    for b in species[1:]:
        steps += sum(min(a, b) + 1 for a in support)
        support = {a + b - l for a in support for l in range(min(a, b) + 1)}
    return steps


def test_recurrence_budget_edge():
    # the step count is the support-set count, on known figures and seeded shapes
    rng = random.Random(31)
    shapes = [(1000, 1000), (50,) * 20, (1,) * 30, (2, 3, 5)]
    shapes += [tuple(sorted(rng.randint(1, 12) for _ in range(rng.randint(1, 8)))) for _ in range(40)]
    for species in shapes:
        assert coefficients._recurrence_steps(species) == _merge_steps(species), species
    assert coefficients._recurrence_steps((1000, 1000)) == 1001
    assert coefficients._recurrence_steps((50,) * 20) == 437019
    # k = |r| + 1 runs the shape check but not the kernel: (1,)*1000 has
    # 999,000 merge steps, (1,)*1001 has 1,001,000
    assert coefficients.RECURRENCE_STEPS_MAX == 10**6
    r = Composition((1,) * 1000)
    assert c_coeff(r, r.total + 1, "recurrence") == 0
    for parts in ((1,) * 1001, (1,) * 2000, (0,) + (1,) * 1001):
        with pytest.raises(ShapeError, match="budget"):
            c_table(parts, "recurrence")


def test_every_shape_rule_reads_only_the_species():
    # c_k(r), d, d~ and c~ depend on r only through its nonzero species: every
    # permutation and zero padding of r gives one table on each route, and a
    # route that rejects one of them rejects them all
    rng = random.Random(31)
    for _ in range(50):
        parts = tuple(rng.randint(0, 6) for _ in range(rng.randint(1, 5)))
        if not any(parts):
            parts = (*parts[:-1], 1)
        variants = [*set(itertools.permutations(parts)), parts + (0,), (0, 0) + parts]
        for method in C_METHODS:
            outcomes = []
            for v in variants:
                try:
                    outcomes.append(c_table(v, method).values)
                except ShapeError:
                    outcomes.append(None)
            assert all(o == outcomes[0] for o in outcomes), (parts, method)
        for variant in ("d", "d_tilde", "c_tilde"):
            tables = [linearization_d(v, variant).values for v in variants]
            assert all(t == tables[0] for t in tables), (parts, variant)


def test_hyp3f2_takes_at_most_two_species():
    for r in iter_compositions(4, 5):
        if len(r.species) <= 2:
            assert c_table(r, "hyp3f2").values == c_table(r).values, r
        else:
            with pytest.raises(ShapeError, match="hyp3f2"):
                c_table(r, "hyp3f2")


def test_table_budget_edge():
    # a table of TABLE_SIZE_MAX entries is taken; one entry more is a ValueError
    # (not a ShapeError) for every family, raised before any work
    assert coefficients.TABLE_SIZE_MAX == 2000
    assert len(c_table((1000, 1000), "hyp3f2").values) == 2000
    assert seating_counts((1,), 2000, "F") == 2000
    over = (1000, 1001)
    calls = [
        lambda: c_table(over, "hyp3f2"),
        lambda: c_coeff(over, 1),
        lambda: linearization_d(over, "d"),
        lambda: linearization_d(over, "c_tilde"),
        lambda: seating_counts((1,), 2001, "S"),
        lambda: t_coeff((1,), 2001, 1),
    ]
    for call in calls:
        with pytest.raises(ValueError, match="table budget") as info:
            call()
        assert type(info.value) is ValueError


def test_method_agreement_small():
    for r in iter_compositions(3, 3):
        for k in range(1, r.total + 1):
            values = {c_coeff(r, k, m) for m in AGREEING}
            if r.m == 2:
                values.add(c_coeff(r, k, "hyp3f2"))
            assert len(values) == 1, (r, k, values)
            v = values.pop()
            assert v.denominator == 1 and v >= 1


def test_routes_agree_on_large_compositions():
    # beyond the acceptance grid (r_i <= 4): genfun only where its box is small
    cases = [
        ((20,) * 6, [m for m in AGREEING if m != "genfun"]),
        ((12, 9, 7, 5), AGREEING),
        ((17, 13), list(C_METHODS)),
        # hyp3f2's three-term relation in k, with a zero species and past the
        # per-k series' reach
        ((0, 40), ["inclusion_exclusion", "hyp3f2"]),
        ((45, 1), ["inclusion_exclusion", "hyp3f2"]),
        ((200, 150), ["inclusion_exclusion", "hyp3f2"]),
    ]
    for parts, methods in cases:
        r = Composition(parts)
        tables = {m: c_table(r, m).values for m in methods}
        reference = tables[methods[0]]
        assert sorted(reference) == list(range(1, r.total + 1))
        assert all(v.denominator == 1 and v >= 1 for v in reference.values())
        for m, values in tables.items():
            assert values == reference, (parts, m)
    # 120 * 21^6 genfun box steps, over the route's budget: rejected before any work
    with pytest.raises(ValueError, match="budget"):
        c_table(Composition((20,) * 6), "genfun")


def _memos():
    return [f for f in vars(coefficients).values() if callable(getattr(f, "cache_info", None))]


def test_memos_are_bounded():
    memos = _memos()
    assert len(memos) == 1
    assert all(f.cache_info().maxsize is not None for f in memos)


@pytest.mark.parametrize("method", ["genfun"])  # the routes with a memo
def test_route_memos_keyed_by_composition_only(method):
    for f in _memos():
        f.cache_clear()
    r = Composition([4, 1, 3])
    c_coeff(r, 1, method)
    misses = sum(f.cache_info().misses for f in _memos())
    assert misses > 0
    for k in range(2, r.total + 1):
        c_coeff(r, k, method)
    assert sum(f.cache_info().misses for f in _memos()) == misses


def test_dense_genfun_matches_mpoly_powers():
    # reference: truncated MPoly powers of G - 1
    for m in range(1, 4):
        for caps in itertools.product(range(4), repeat=m):
            base = geom_inverse_product(caps) - MPoly.const(caps, 1)
            power, expected = MPoly.const(caps, 1), []
            for _ in range(sum(caps)):
                power = power * base
                expected.append(power.coeff(caps))
            assert coefficients._geom_minus_one_powers(caps) == tuple(expected), caps


def _fraction_recurrence(parts, k):
    """Reference: the merge recurrence on Fractions c_k(parts)."""
    if len(parts) == 1:
        return Fraction(binomial(parts[0], k))
    r1, r2, rest = parts[0], parts[1], parts[2:]
    acc = Fraction(0)
    for l in range(min(r1, r2) + 1):
        merged = tuple(sorted((r1 + r2 - l,) + rest, reverse=True))
        coef = (-1) ** l * multinomial(r1 + r2 - l, (l, r1 - l, r2 - l))
        acc += coef * _fraction_recurrence(merged, k) / sum(merged)
    return sum(parts) * acc


def test_integer_recurrence_matches_fraction_recurrence():
    for r in iter_compositions(3, 3):
        parts = tuple(sorted((p for p in r.parts if p > 0), reverse=True))
        for k in range(1, r.total + 1):
            assert c_coeff(r, k, "recurrence") == _fraction_recurrence(parts, k), (r, k)


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


def _sorted_merge_table(r):
    """Reference: c_1..c_|r| from the sorted, memoized two-species merge."""
    e = _merge_recurrence(tuple(sorted((p for p in r.parts if p > 0), reverse=True)))
    return {k: Fraction(r.total * e[k - 1], k) for k in range(1, r.total + 1)}


def test_merge_chain_matches_sorted_merge_recurrence():
    large = [(20,) * 6, (12, 9, 7, 5), (30, 30, 30), (60,) * 4, (17, 13), (0, 6, 0, 3, 0)]
    for r in [*iter_compositions(3, 4), *map(Composition, large)]:
        values = c_table(r, "recurrence").values
        assert values == _sorted_merge_table(r), r
        assert all(type(v) is int for v in values.values()), r


def test_merge_chain_c_coeff_below_total():
    for parts in [(4, 1, 3), (0, 6, 0, 3, 0), (12, 9, 7, 5)]:
        r = Composition(parts)
        reference = _sorted_merge_table(r)
        for k in range(1, r.total):
            v = c_coeff(r, k, "recurrence")
            assert v == reference[k] and type(v) is int, (parts, k)


# The per-k formulas the route kernels replaced, kept as references.

def _old_hypergeom(numer, denom, z):
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


def _old_explicit(r, k):
    acc = Fraction(0)
    for i in range(1, k + 1):
        term = Fraction((-1) ** (k - i) * binomial(k - 1, i - 1), i)
        for rl in r.parts:
            term *= binomial(rl + i - 1, rl)
        acc += term
    return r.total * acc


def _old_entiere(r, k):
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


def _old_inclusion_exclusion(r, k):
    stripped = [p for p in r.parts if p > 0]
    s = 0
    for i in range(1, k + 1):
        term = binomial(k, i)
        for rl in stripped:
            term *= rl * binomial(i + rl - 1, rl)
        s += (-1) ** (k - i) * term
    return Fraction(r.total * s, k * math.prod(stripped))


def _old_finite_diff(r, k):
    p = UPoly.one()
    for ri in r.parts:
        p = p * rising_poly(ri)
    a = to_falling_basis(p).get(k, Fraction(0))
    return r.total * factorial(k - 1) * a / math.prod(factorial(ri) for ri in r.parts)


def _old_hyp3f2(r, k):
    r1, r2 = (0, *r.species)[-2:]  # the nonzero species padded with zeros to a pair
    val = _old_hypergeom([1 - k, r1 + 1, r2 + 1], [2, 1], 1)
    return (-1) ** (k - 1) * (r1 + r2) * val


# The integer-pair evaluator and the dense genfun step as they stood before
# their runs were built whole, kept verbatim as references.

def _loop_hypergeom(numer, denom, z):
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


# The evaluator as it stood with its term-ratio runs built whole, kept
# verbatim as a reference.

def _runs_hypergeom(numer: Sequence[Rat], denom: Sequence[Rat], z: Rat) -> Fraction:
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


def _loop_times_geom_minus_one(q: List[int], radices: Sequence[int]) -> List[int]:
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


@lru_cache(maxsize=None)
def _loop_genfun_powers(caps):
    """[x^caps] (G - 1)^k, k = 1..sum(caps), by the reference dense step over
    the box in the given species order."""
    radices = [c + 1 for c in caps]
    q = [1] * math.prod(radices)
    q[0] = 0
    out = [q[-1]]
    for _ in range(sum(caps) - 1):
        q = _loop_times_geom_minus_one(q, radices)
        out.append(q[-1])
    return out


def _old_genfun(r, k):
    return Fraction(r.total * _loop_genfun_powers(r.parts)[k - 1], k)


def _old_recurrence(r, k):
    return _sorted_merge_table(r)[k]


_OLD_ROUTES = {
    "explicit": _old_explicit,
    "entiere": _old_entiere,
    "genfun": _old_genfun,
    "inclusion_exclusion": _old_inclusion_exclusion,
    "finite_diff": _old_finite_diff,
    "recurrence": _old_recurrence,
    "hyp3f2": _old_hyp3f2,
}

# route_crosscheck-sized compositions with m = 2, 3 and 5 and a zero species
_KERNEL_CASES = list(iter_compositions(3, 4)) + [
    Composition(p) for p in [(20,) * 6, (12, 9, 7, 5), (17, 13),
                             (25, 0, 20), (44, 1), (9, 9, 9, 9, 9), (30, 15)]
]


@pytest.mark.parametrize("method", C_METHODS)
def test_route_kernels_match_per_k_formulas(method):
    for r in _KERNEL_CASES:
        if method == "hyp3f2" and len(r.species) > 2:
            continue
        # the reference genfun step takes about a microsecond per box step
        if method == "genfun" and r.total * math.prod(p + 1 for p in r.parts) > 10**6:
            continue
        table = c_table(r, method).values
        assert list(table) == list(range(1, r.total + 1))
        for k, value in table.items():
            expected = _OLD_ROUTES[method](r, k)
            assert type(value) is int and value == expected, (r, method, k)
        k = r.total // 2 + 1  # a kernel run short of |r|
        assert c_coeff(r, k, method) == table[k]


def _f3(n, r1, r2):
    """F_n = 3F2(-n, r_1+1, r_2+1; 2, 1; 1), c_(n+1) = (-1)^n |r| F_n."""
    return hypergeom_terminating([-n, r1 + 1, r2 + 1], [2, 1], 1)


def test_hyp3f2_relation_in_k_is_proved():
    # Residual of the relation hyp3f2 runs: A_n F_(n+1) - (A_n + C_n - R) F_n
    # + C_n F_(n-1), A_n = (n+1)(n+2), C_n = n(n - r_1 - r_2), R = (r_1+1)(r_2+1).
    # Term j of F_n carries (r_1+1)_j (r_2+1)_j, j <= n, so F_n has degree at
    # most n in each of r_1 and r_2, and the residual at most n+1 in each.  A
    # polynomial of degree <= n+1 in each variable that vanishes on the tensor
    # grid {0..n+1}^2 is zero (one variable at a time: n+2 roots), so each
    # checked n holds for every r, not only for the sampled ones.
    for n in range(1, 25):
        a = (n + 1) * (n + 2)
        for r1, r2 in itertools.product(range(n + 2), repeat=2):
            cn, big_r = n * (n - r1 - r2), (r1 + 1) * (r2 + 1)
            residual = a * _f3(n + 1, r1, r2) - (a + cn - big_r) * _f3(n, r1, r2) + cn * _f3(n - 1, r1, r2)
            assert residual == 0, (n, r1, r2)
    # n = 0 (C_0 = 0): c_2 = -|r| F_1 = |r| (R - 2) / 2, degree 2 in each r_i
    for r1, r2 in itertools.product(range(3), repeat=2):
        assert -(r1 + r2) * _f3(1, r1, r2) == Fraction((r1 + r2) * ((r1 + 1) * (r2 + 1) - 2), 2)


def test_hyp3f2_matches_per_k_evaluator():
    # every entry the relation gives is the series the route used to sum for it
    for r in iter_compositions(2, 30):
        if r.m == 2:
            table = c_table(r, "hyp3f2").values
            assert list(table) == list(range(1, r.total + 1))
            for k, value in table.items():
                assert value == (-1) ** (k - 1) * r.total * _f3(k - 1, *r.parts), (r, k)


@st.composite
def _boxes(draw):
    """A mixed-radix box of 1 to 5 axes, radix 1 (a cap of 0) included, and
    integers of both signs over it."""
    radices = draw(st.lists(st.integers(1, 5), min_size=1, max_size=5))
    rng = random.Random(draw(st.integers(0, 2**32)))
    q = [rng.randint(-10**30, 10**30) for _ in range(math.prod(radices))]
    return radices, q


@given(_boxes())
@example(([1], [7]))  # one axis, one entry
@example(([5], [3, -1, 4, 1, -5]))  # one axis
@example(([3, 1, 2, 1, 4], list(range(24))))  # m = 5 with radix-1 axes
@example(([4, 4, 4, 4, 4], list(range(4**5))))  # m = 5
def test_dense_genfun_step_matches_slice_loop(box):
    radices, q = box
    assert coefficients._times_geom_minus_one(q, radices) == _loop_times_geom_minus_one(q, radices)


def test_genfun_box_order_matches_species_order():
    # the route takes the box over the sorted nonzero sizes; every other
    # order of the species, zeros included, gives the same powers
    for parts in [(4, 1, 3), (0, 6, 0, 3, 0), (2, 2, 1, 3), (5,)]:
        expected = list(coefficients._geom_minus_one_powers(tuple(sorted(p for p in parts if p))))
        for perm in set(itertools.permutations(parts)):
            assert _loop_genfun_powers(perm) == expected, perm


rational = st.fractions(max_denominator=9, min_value=-6, max_value=6)


@given(
    st.integers(min_value=0, max_value=15),
    st.lists(rational, max_size=3),
    st.lists(rational, max_size=3),
    rational,
)
def test_hypergeom_matches_termwise_fractions(n, numer, denom, z):
    numer = [-n] + numer
    try:
        expected = _old_hypergeom(numer, denom, z)
    except ZeroDivisionError:
        with pytest.raises(ZeroDivisionError):
            hypergeom_terminating(numer, denom, z)
        return
    value = hypergeom_terminating(numer, denom, z)
    assert type(value) is Fraction and value == expected
    assert value == _loop_hypergeom(numer, denom, z)
    assert value == _runs_hypergeom(numer, denom, z)


def test_c_symmetry_and_zero_entries():
    for parts in [(2, 1), (3, 0, 1), (1, 2, 2)]:
        r = Composition(parts)
        for perm in itertools.permutations(parts):
            for k in range(1, r.total + 1):
                assert c_coeff(Composition(perm), k) == c_coeff(r, k)
    for parts in [(2,), (1, 1), (3, 2)]:
        r = Composition(parts)
        padded = Composition(parts + (0,))
        for k in range(1, r.total + 1):
            for method in AGREEING:
                assert c_coeff(padded, k, method) == c_coeff(r, k, method)


def test_c_table_serialization():
    table = c_table(Composition([3]))
    assert table.value(7) == 0


def test_seating_counts():
    for k in range(1, 5):
        assert seating_counts(Composition([1]), k, "F") == k
    assert seating_counts(Composition([1, 1]), 2, "F") == 4
    assert seating_counts(Composition([1, 1]), 2, "S") == 2
    with pytest.raises(ValueError):
        seating_counts(Composition([1, 0]), 2, "F")
    with pytest.raises(ValueError):
        seating_counts(Composition([1]), 0, "F")
    with pytest.raises(ValueError):
        seating_counts(Composition([1]), 1, "Q")


def test_f_equals_binomial_sum_of_s():
    # F_k = sum_i C(k,i) S_i, the inversion behind the alternating formula
    for r in (q for q in iter_compositions(2, 3) if 0 not in q.parts):
        for k in range(1, 6):
            f = seating_counts(r, k, "F")
            assert f == sum(
                binomial(k, i) * seating_counts(r, i, "S") for i in range(1, k + 1)
            )


def test_t_coeff():
    r = Composition([1, 1])
    assert t_coeff(r, 1, 1) == 1
    assert t_coeff(r, 2, 1) == 1
    assert t_coeff(r, 2, 1) == t_coeff(r, 2, 2)  # symmetric species
    with pytest.raises(ValueError):
        t_coeff(r, 1, 3)
    with pytest.raises(ValueError):
        t_coeff(Composition([1, 0]), 1, 1)


def test_turnstile_sums_to_c():
    for r in (q for q in iter_compositions(3, 3) if 0 not in q.parts):
        for k in range(1, r.total + 1):
            total = sum(t_coeff(r, k, j) for j in range(1, r.m + 1))
            assert total == c_coeff(r, k)


def test_linearization_tables():
    assert linearization_d(Composition([1, 1]), "d").values == {1: 1, 2: 1}
    assert linearization_d(Composition([2, 2]), "d").values == {2: 2, 3: 4, 4: 1}
    ct = linearization_d(Composition([3]), "c_tilde")
    assert ct.values == {k: binomial(2, k - 1) for k in (1, 2, 3)}
    with pytest.raises(ValueError):
        linearization_d(Composition([1]), "nosuch")


def test_two_species_d_closed_form():
    for r1 in range(1, 5):
        for r2 in range(1, 5):
            table = linearization_d(Composition([r1, r2]), "d")
            for k in range(min(r1, r2) + 1):
                expected = binomial(r1, k) * binomial(r2, k) * factorial(k)
                assert table.value(r1 + r2 - k) == expected


def test_two_species_d_tilde_closed_form():
    for r1 in range(1, 5):
        for r2 in range(1, 5):
            table = linearization_d(Composition([r1, r2]), "d_tilde")
            for k in range(min(r1, r2) + 1):
                expected = multinomial(r1 + r2 - k, (k, r1 - k, r2 - k))
                assert table.value(r1 + r2 - k) == expected


def test_two_species_c_tilde_closed_form():
    # support-size decomposition: partition [k] into shared / only-first /
    # only-second support, then count surjective multisets on each support
    def direct(r1, r2, k):
        total = 0
        for k1 in range(1, k + 1):
            for k2 in range(1, k + 1):
                shared = k1 + k2 - k
                if shared < 0 or shared > min(k1, k2):
                    continue
                total += (
                    multinomial(k, (shared, k1 - shared, k2 - shared))
                    * binomial(r1 - 1, k1 - 1)
                    * binomial(r2 - 1, k2 - 1)
                )
        return total

    for r1 in range(1, 5):
        for r2 in range(1, 5):
            table = linearization_d(Composition([r1, r2]), "c_tilde")
            for k in range(1, r1 + r2 + 1):
                assert table.value(k) == direct(r1, r2, k)


def test_rescaling_laws():
    for r in iter_compositions(3, 3):
        ct = linearization_d(r, "c_tilde")
        d = linearization_d(r, "d")
        dt = linearization_d(r, "d_tilde")
        rfact = math.prod(factorial(ri) for ri in r.parts)
        for k in range(1, r.total + 1):
            assert k * c_coeff(r, k) == r.total * ct.value(k)
            assert factorial(k) * d.value(k) == dt.value(k) * rfact
        assert all(v.denominator == 1 and v >= 0 for v in d.values.values())
        assert all(v.denominator == 1 and v >= 0 for v in dt.values.values())
        assert all(v.denominator == 1 and v >= 0 for v in ct.values.values())


def test_linearization_with_zero_species():
    # empty species contribute the factor 1
    assert (
        linearization_d(Composition([2, 0, 2]), "d").values
        == linearization_d(Composition([2, 2]), "d").values
    )


def test_hypergeom_values():
    assert hypergeom_terminating([-1, 1], [2], 1) == Fraction(1, 2)
    assert hypergeom_terminating([-1, 2, 2], [2, 1], 1) == -1
    assert c_coeff(Composition([1, 1]), 2, "hyp3f2") == 2
    assert hypergeom_terminating([0, Fraction(5, 3)], [Fraction(1, 7)], 5) == 1


def test_hypergeom_errors():
    with pytest.raises(ValueError):
        hypergeom_terminating([Fraction(1, 2), 1], [2], 1)  # never terminates
    with pytest.raises(ZeroDivisionError):
        hypergeom_terminating([-3, 1], [-2], 1)  # (-2)_3 hits zero
    # pole exactly at the truncation boundary is fine: (-3)_j for j <= 3 is nonzero,
    # and the terms reduce to (1)_j/j! = 1, four of them
    assert hypergeom_terminating([-3, 1], [-3], 1) == 4


def test_chu_vandermonde():
    for n in range(7):
        for a in (Fraction(1, 2), Fraction(5, 3), 2):
            for c in (Fraction(1, 4), Fraction(7, 2), 3):
                lhs = hypergeom_terminating([-n, a], [c], 1)
                assert lhs == Fraction(rising(Fraction(c) - a, n), rising(Fraction(c), n))


# linearization_d as it stood when every table held Fractions, kept verbatim as
# the reference but for its names: the recursion calls the reference itself,
# and c_tilde reads the Fraction table of the sorted merge above
def _old_linearization_d(r: Composition, variant: str = "d") -> CoeffTable:
    r = as_composition(r)
    if variant == "d":
        diffs = forward_differences(
            [math.prod(math.perm(x, ri) for ri in r.parts) for x in range(r.total + 1)]
        )
        vals = {k: Fraction(d, factorial(k)) for k, d in enumerate(diffs) if k and d}
        return CoeffTable("d", r, vals)
    if variant == "d_tilde":
        base = _old_linearization_d(r, "d").values
        denom = math.prod(factorial(ri) for ri in r.parts)
        vals = {k: factorial(k) * a / denom for k, a in base.items()}
        return CoeffTable("d_tilde", r, {k: v for k, v in vals.items() if v})
    if variant == "c_tilde":
        vals = {k: k * c / r.total for k, c in _sorted_merge_table(r).items()}
        return CoeffTable("c_tilde", r, {k: v for k, v in vals.items() if v})
    raise ValueError(f"linearization_d: unknown variant {variant!r}")


def test_linearization_tables_match_fraction_reference():
    for r in iter_compositions(4, 4):  # zero species included
        for variant in ("d", "d_tilde", "c_tilde"):
            got, want = linearization_d(r, variant), _old_linearization_d(r, variant)
            assert got.family == want.family and got.values == want.values, (r, variant)
            assert list(got.values) == list(want.values), (r, variant)
            assert all(type(v) is int for v in got.values.values()), (r, variant)


def _bump(f, index):
    """f with entry ``index`` of its result list raised by 1."""
    def bumped(*args):
        out = list(f(*args))
        out[index] += 1
        return out
    return bumped


# Each case perturbs one intermediate of a division so that entry k = 2 of
# r = (2, 1) leaves a remainder (for hyp3f2 both evaluator seeds, so k = 1 is
# named first).  d's one division, prod r_i! dt_k / k!, is taken at r = (1, 1),
# where prod r_i! = 1: at (2, 1) the bumped 2 (dt_2 + 1) is still divisible by 2!.
# t_coeff's S_k is prod r_l c~_k, so t_k = c~_k r_j / k: it is taken at j = 2, as
# r_1 = 2 would absorb the bumped c~_2 + 1 = 5 (5 * 2 / 2 leaves no remainder).
_R = Composition([2, 1])
_REMAINDER_CASES = {
    "explicit": ("forward_differences", 1, lambda: c_table(_R, "explicit")),
    "entiere": ("_species_product", 1, lambda: c_table(_R, "entiere")),  # 3 P_2 + 1 = 19 over 2
    "genfun": ("_geom_minus_one_powers", 1, lambda: c_table(_R, "genfun")),
    "inclusion_exclusion": ("forward_differences", 2, lambda: c_table(_R, "inclusion_exclusion")),
    "finite_diff": ("forward_differences", 2, lambda: c_table(_R, "finite_diff")),
    "recurrence": ("_scaled_by_total", None, lambda: c_table(_R, "recurrence")),
    "hyp3f2": ("hypergeom_terminating", None, lambda: c_table(_R, "hyp3f2")),
    "d": ("forward_differences", 2, lambda: linearization_d(Composition([1, 1]), "d")),
    "t_coeff": ("forward_differences", 2, lambda: t_coeff(_R, 2, 2)),
}


@pytest.mark.parametrize("case", _REMAINDER_CASES)
def test_remainder_raises_and_is_never_rounded(monkeypatch, case):
    name, index, call = _REMAINDER_CASES[case]
    real = getattr(coefficients, name)
    if name == "_scaled_by_total":  # e_2 + 1: c_2 = 3 (e_2 + 1) / 2
        monkeypatch.setattr(coefficients, name, lambda r, e: real(r, [e[0], e[1] + 1, *e[2:]]))
    elif name == "hypergeom_terminating":  # every 3F2 value + 1/2: c_k = +-3 (F + 1/2)
        monkeypatch.setattr(coefficients, name, lambda *args: real(*args) + Fraction(1, 2))
    else:
        monkeypatch.setattr(coefficients, name, _bump(real, index))
    with pytest.raises(ArithmeticError, match=r"\bk=1\b" if case == "hyp3f2" else r"\bk=2\b"):
        call()


def test_hyp3f2_wrong_seed_trips_the_relation(monkeypatch):
    # only the k = 2 series is off, F_1 - 1/3: c_2 of r = (2, 1) becomes
    # -3 (-2 - 1/3) = 7, not 6, a whole number; the first relation step then
    # divides (R - A_1 - C_1) c_2 - C_1 c_1 = 2 * 7 + 2 * 3 = 20 by A_1 = 6
    real = coefficients.hypergeom_terminating
    monkeypatch.setattr(
        coefficients, "hypergeom_terminating",
        lambda numer, denom, z: real(numer, denom, z) - (Fraction(1, 3) if numer[0] == -1 else 0),
    )
    with pytest.raises(ArithmeticError, match=r"\bk=3\b"):
        c_table(_R, "hyp3f2")


def test_recurrence_merge_step_remainder_raises(monkeypatch):
    # C(n, k) + 2 makes r = (2, 1)'s first merge weight w_1 t_0 = 5, not 3, so
    # the next step divides -5 * 1 * 2 by 3; unchecked it returned {1: 3, 2: 9, 3: 5}
    real = coefficients.binomial
    monkeypatch.setattr(coefficients, "binomial", lambda n, k: real(n, k) + 2)
    with pytest.raises(ArithmeticError, match=r"merge step leaves a remainder at a=1, b=2, l=0"):
        c_table(_R, "recurrence")


# Two pairs of routes difference one table up to scale, so one of a pair
# catches little that the other misses; these tests state the two facts.
def test_explicit_and_entiere_difference_one_table():
    # C(i+r_j-1, r_j-1) = C(i+r_j-1, r_j) r_j / i, so entiere's Q_i is |r| P_i / i,
    # P_i = prod_l C(r_l+i-1, r_l), the table explicit differences (over lcm(1..|r|));
    # this O(m^2) double sum is the reference for entiere's product rule, so it also
    # takes 20 seeded shapes of up to 30 species (|r| <= 60, zeros among them)
    rng = random.Random(30)
    many = [Composition([1] + [rng.randint(0, 59 // m) for _ in range(m)]) for m in rng.choices(range(1, 30), k=20)]
    for r in [*iter_compositions(4, 4), *many, Composition((1,) * 12), Composition((2,) * 8)]:
        q = []
        for i in range(1, r.total + 1):
            runs = [math.comb(rl + i - 1, rl) for rl in r.parts]
            q.append(sum(math.comb(i + rj - 1, rj - 1) * math.prod(runs[:j] + runs[j + 1:])
                          for j, rj in enumerate(r.parts) if rj))
            assert q[-1] * i == r.total * math.prod(runs), (r, i)
        assert coefficients._entiere(r) == forward_differences(q), r


def test_finite_diff_is_scaled_inclusion_exclusion():
    # rising(x, r) = r! C(x+r-1, r), so finite_diff's f(x) = prod_l rising(x, r_l) is
    # prod_l r_l! g(x), g the c~ table's species product, and its Delta^k f(0) is
    # prod_l r_l! c~_k, which is prod_l (r_l-1)! S_k
    for r in iter_compositions(4, 4):
        f = [math.prod(rising(x, rl) for rl in r.parts) for x in range(r.total + 1)]
        ct = coefficients._difference_table(r.species, r.total, coefficients._multichoose_run)
        assert forward_differences(f) == [math.prod(map(factorial, r.species)) * c for c in ct], r
        if 0 not in r.parts:
            scale = math.prod(factorial(rl - 1) for rl in r.species)
            assert forward_differences(f)[1:] == [scale * seating_counts(r, k, "S") for k in range(1, r.total + 1)], r


# The per-species loops as they stood before equal species were taken as one
# pow run, kept verbatim as references but for their names: one entrywise
# product per species, t products for t equal species (entiere's, its product
# rule over the double sum Q, two runs per species)
def _ref_seating_f(parts: Sequence[int], k_max: int) -> List[int]:
    f = [math.prod(parts)] * k_max
    for rl in parts:
        f = list(map(mul, f, coefficients._multichoose_run(rl, k_max)))
    return [0] + f


def _ref_explicit(r: Composition) -> List[int]:
    lcm = math.lcm(*range(1, r.total + 1))
    scaled = list(map(floordiv, repeat(lcm), range(1, r.total + 1)))
    for rl in r.species:
        scaled = list(map(mul, scaled, coefficients._multichoose_run(rl, r.total)))
    return coefficients._exact(map(r.total.__mul__, forward_differences(scaled)), repeat(lcm))


def _ref_finite_diff(r: Composition) -> List[int]:
    f = [1] * r.total
    for ri in r.species:
        f = list(map(mul, f, map(math.perm, range(ri, ri + r.total), repeat(ri))))
    return coefficients._scaled_by_total(r, forward_differences([0] + f)[1:], math.prod(map(factorial, r.species)))


def _ref_entiere(r: Composition) -> List[int]:
    p, q = [1] * r.total, [0] * r.total
    for rl in r.species:
        a, b = list(coefficients._multichoose_run(rl, r.total)), map(math.comb, range(rl, rl + r.total), repeat(rl - 1))
        q = list(map(add, map(mul, q, a), map(mul, p, b)))
        p = list(map(mul, p, a))
    return forward_differences(q)


def _ref_linearization_d(r: Composition, variant: str) -> dict:
    f = [math.prod(math.perm(x, ri) for ri in r.species) for x in range(r.total + 1)]
    dens = map(factorial, range(1, r.total + 1)) if variant == "d" else repeat(math.prod(map(factorial, r.species)))
    vals = coefficients._exact(forward_differences(f)[1:], dens)
    return {k: v for k, v in enumerate(vals, 1) if v}


def _ref_c_tilde(r: Composition) -> dict:
    # ct_k = k c_k / |r|, c_k from explicit's per-species loop
    vals = coefficients._exact(map(mul, itertools.count(1), _ref_explicit(r)), repeat(r.total))
    return {k: v for k, v in enumerate(vals, 1) if v}


def _many_species_shapes(count: int, seed: int) -> List[Composition]:
    """Seeded shapes of up to 2000 parts, |r| at most 442: a run of ones and a run
    of one other size mixed with up to three distinct sizes, padded with zeros
    and shuffled."""
    rng, shapes = random.Random(seed), []
    for _ in range(count):
        parts = [1] * rng.randint(1, 250) + [rng.randint(2, 9)] * rng.randint(0, 12)
        parts += rng.sample(range(10, 30), rng.randint(0, 3))
        parts += [0] * (min(2000, round(2 ** rng.uniform(1, 11))) - len(parts))
        rng.shuffle(parts)
        shapes.append(Composition(parts))
    return shapes


def test_species_runs_match_per_species_loops():
    # equal species taken as one pow run give the per-species loops' tables: the
    # run-product routes, d, d~, c~, and the seating counts F and S
    for r in [*iter_compositions(4, 4), *_many_species_shapes(30, 32), Composition((400, 600)), Composition((100, 150))]:
        assert c_table(r, "explicit").values == dict(enumerate(_ref_explicit(r), 1)), r
        assert c_table(r, "entiere").values == dict(enumerate(_ref_entiere(r), 1)), r
        assert c_table(r, "finite_diff").values == dict(enumerate(_ref_finite_diff(r), 1)), r
        f = _ref_seating_f(r.species, r.total)
        ct = coefficients._difference_table(r.species, r.total, coefficients._multichoose_run)
        assert [math.prod(r.species) * c for c in ct] == forward_differences(f), r
        want = coefficients._scaled_by_total(r, forward_differences(f)[1:], math.prod(r.species))
        assert c_table(r, "inclusion_exclusion").values == dict(enumerate(want, 1)), r
        for variant in ("d", "d_tilde"):
            assert linearization_d(r, variant).values == _ref_linearization_d(r, variant), (r, variant)
        assert linearization_d(r, "c_tilde").values == _ref_c_tilde(r), r
        if 0 not in r.parts:
            k = min(r.total, 9)
            assert seating_counts(r, k, "F") == _ref_seating_f(r.parts, k)[k], r
            assert seating_counts(r, k, "S") == forward_differences(_ref_seating_f(r.parts, k))[k], r


def test_linearization_tables_run_no_c_route(monkeypatch):
    # d, d~ and c~ are one difference table of binomial runs: with every c_k
    # kernel raising, each still equals its reference
    def no_route(r):
        raise AssertionError(f"a c_k route ran on {r}")

    for method in C_METHODS:
        monkeypatch.setitem(coefficients._KERNELS, method, no_route)
    for r in [*iter_compositions(3, 3), Composition((0, 5, 7)), Composition((1,) * 12), Composition((3, 3, 3, 8))]:
        for variant in ("d", "d_tilde"):
            assert linearization_d(r, variant).values == _ref_linearization_d(r, variant), (r, variant)
        assert linearization_d(r, "c_tilde").values == _ref_c_tilde(r), r
