"""Definition-level references for the tests: one function per quantity.

Each value here is computed from the definition the paper or the package
docstring gives for it, in plain integers or Fractions, and nothing is
imported from genbinom, so no reference shares code or a shortcut with the
kernel it checks.  Tests compare the package against these, and a change to
the package does not keep the code it replaces as a test copy.

A composition is given by its parts (zeros allowed, positive total); tables
come back as dicts {k: value} of their nonzero entries, k >= 1, as
``CoeffTable.values`` holds them.
"""

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import product, zip_longest
from operator import mul, sub

# ---------------------------------------------------------------------------
# c_k(r), the linearization tables d, d~, c~ and the seating counts
# ---------------------------------------------------------------------------


def alternating_sums(g):
    """Delta^k g(0) = sum_j (-1)^(k-j) C(k, j) g(j) for k = 0..len(g)-1, each its own
    sum of products: row k of the signed binomials comes from row k-1 by Pascal's rule."""
    out, row = [], []
    for _ in g:
        row = list(map(sub, [0, *row], [*row, 0])) if row else [1]
        out.append(sum(map(mul, row, g)))
    return out


def _species_run(parts, n, term):
    """[0, g(1), ..., g(n)], g(j) the product over the parts r_l of term(j, r_l): a zero
    part is the factor 1, and t equal parts the factor's t-th power."""
    sizes = Counter(p for p in parts if p).items()
    return [0] + [math.prod(term(j, s) ** t for s, t in sizes) for j in range(1, n + 1)]


def species_products(parts, n):
    """[P_0, ..., P_n], P_j = prod_l C(j+r_l-1, r_l), the multisets of size r_l from j
    symbols for every species; P_0 = 0."""
    return _species_run(parts, n, lambda j, s: math.comb(j + s - 1, s))


def _nonzero(values):
    return {k: v for k, v in enumerate(values) if k and v}


@lru_cache(maxsize=128)
def _c_tilde(species):
    return alternating_sums(species_products(species, sum(species)))


@lru_cache(maxsize=128)
def _d_tilde(species):
    return alternating_sums(_species_run(species, sum(species), math.comb))


def _species(parts):
    return tuple(sorted(p for p in parts if p))


def c_tilde(parts):
    """c~_k, the C(x, k) coefficients of prod_l C(x+r_l-1, r_l): Delta^k P(0) of the
    species products."""
    return _nonzero(_c_tilde(_species(parts)))


def c(parts):
    """c_k(r) = |r| sum_i (-1)^(k-i) C(k-1, i-1) P_i / i for k = 1..|r|.  As C(k-1, i-1)/i
    = C(k, i)/k, k c_k / |r| is the alternating sum of the P_i, c~_k: one exact division
    per k, asserted."""
    total, out = sum(parts), {}
    for k, ct in c_tilde(parts).items():
        out[k], rem = divmod(total * ct, k)
        assert not rem, (parts, k)
    return out


def d_tilde(parts):
    """d~_k, the C(x, k) coefficients of prod_l C(x, r_l): Delta^k g(0), g(j) = prod_l C(j, r_l)."""
    return _nonzero(_d_tilde(_species(parts)))


def d(parts):
    """d_k, the falling(x, k) coefficients of prod_l falling(x, r_l): prod_l r_l! d~_k / k!,
    one exact division per k, asserted."""
    scale, out = math.prod(map(math.factorial, parts)), {}
    for k, dt in d_tilde(parts).items():
        out[k], rem = divmod(scale * dt, math.factorial(k))
        assert not rem, (parts, k)
    return out


def seating_f(parts, k):
    """F_k(r) = prod_l r_l C(k+r_l-1, r_l): each species seats a delegation around k chairs."""
    return math.prod(rl * math.comb(k + rl - 1, rl) for rl in parts)


def seating_s(parts, k):
    """S_k(r): the seatings of F_k with no chair empty, by inclusion-exclusion over the
    chairs left empty, sum_i (-1)^(k-i) C(k, i) F_i."""
    return sum((-1) ** (k - i) * math.comb(k, i) * seating_f(parts, i) for i in range(k + 1))


def times_geom_minus_one(q, radices):
    """q (G - 1) truncated to the box, G = prod_i 1/(1 - x_i), for q flat over the box
    prod_i range(radices[i]) with the last axis fastest: entry e is the sum of q over
    the points e' <= e, less q[e], as one running sum along each axis."""
    points = list(product(*map(range, radices)))
    index = {e: i for i, e in enumerate(points)}
    g = list(q)
    for axis in range(len(radices)):
        for i, e in enumerate(points):  # e less one along the axis comes before e
            if e[axis]:
                g[i] += g[index[(*e[:axis], e[axis] - 1, *e[axis + 1:])]]
    return list(map(sub, g, q))


def hypergeom(numer, denom, z):
    """pFq(numer; denom; z) summed term by term in Fractions up to the first nonpositive
    integer numerator parameter -N: term j+1 is term j times prod(a + j) z / (prod(b + j)
    (j + 1)).  A denominator parameter reaching 0 before term N raises ZeroDivisionError."""
    numer, denom, z = [Fraction(a) for a in numer], [Fraction(b) for b in denom], Fraction(z)
    stop = min(-a for a in numer if a.denominator == 1 and a <= 0)
    total = term = Fraction(1)
    for j in range(int(stop)):
        term = term * math.prod(a + j for a in numer) * z / (math.prod(b + j for b in denom) * (j + 1))
        total += term
    return total


# ---------------------------------------------------------------------------
# polynomials as Fraction lists, lowest degree first, and the Newton basis
# ---------------------------------------------------------------------------


def poly(coeffs):
    """coeffs as Fractions with trailing zeros dropped: the zero polynomial is []."""
    out = [Fraction(x) for x in coeffs]
    while out and not out[-1]:
        out.pop()
    return out


def poly_add(a, b):
    return poly(x + y for x, y in zip_longest(a, b, fillvalue=0))


def poly_mul(a, b):
    """The convolution of the coefficient lists."""
    out = [Fraction(0)] * max(len(a) + len(b) - 1, 0)
    for i, x in enumerate(a):
        for j, y in enumerate(b):
            out[i + j] += x * y
    return poly(out)


def poly_value(a, x):
    """a at x, by Horner's rule."""
    out = Fraction(0)
    for coeff in reversed(a):
        out = out * x + coeff
    return out


def linear_product(shifts):
    """prod_a (X + a) over the shifts."""
    out = [Fraction(1)]
    for a in shifts:
        out = poly_mul(out, [a, 1])
    return out


def newton_sum(a, start, step):
    """sum_j a[j] prod_{t<j} (X - s_t) / j!, s_t = start + t*step, each basis polynomial
    a product of its linear factors: binomial(X, j) at (0, 1), binomial(X+j-1, j) at
    (0, -1), binomial(X+n-1, j) at (1-n, 1)."""
    out, basis = [], [Fraction(1)]
    for j, aj in enumerate(a):
        out = poly_add(out, [aj * x for x in basis])
        basis = [x / (j + 1) for x in poly_mul(basis, [-(start + j * step), 1])]
    return out


def newton_coeffs(nums, start, step, den=1):
    """The a_j, one per coefficient, with sum_j nums[j] X^j / den = `newton_sum(a, start,
    step)`: nums divided by X - s_0, the quotient by X - s_1, and so on, by Horner's rule,
    the j-th remainder being a_j den / j!.  Integer nums stay integers up to the one
    division by den."""
    rest, out = list(nums), []
    for j in range(len(rest)):
        s, carry, quotient = start + j * step, 0, []
        for x in reversed(rest):
            carry = carry * s + x
            quotient.append(carry)
        out.append(Fraction(quotient.pop() * math.factorial(j), den))
        rest = quotient[::-1]
    return out


# ---------------------------------------------------------------------------
# partitions and the partition sums
# ---------------------------------------------------------------------------


def partitions(n):
    """The partitions of n as weakly decreasing tuples in reverse-lexicographic order:
    each first part from n down, then the partitions of the rest into parts no larger."""
    def below(rest, top):
        if not rest:
            yield ()
        for part in range(min(rest, top), 0, -1):
            for tail in below(rest - part, part):
                yield (part, *tail)
    return below(n, n)


def z(mu):
    """The centralizer size prod_j j^(m_j) m_j! of the partition mu."""
    return math.prod(j**m * math.factorial(m) for j, m in Counter(mu).items())


@lru_cache(maxsize=None)
def _ferrers_counts(mu):
    ways = [1]  # ways[p]: p-cell choices in the rows so far, each row hit at least once
    for part in mu:
        step = [0] * (len(ways) + part)
        for s, w in enumerate(ways):
            for a in range(1, part + 1):
                step[s + a] += w * math.comb(part, a)
        ways = step
    return ways


def ferrers_choose(mu, p):
    """The p-cell choices in the Ferrers diagram of mu that meet every row: a_i >= 1 of the
    mu_i cells of each row i, the a_i adding up to p."""
    ways = _ferrers_counts(tuple(mu))
    return ways[p] if 0 <= p < len(ways) else 0


@lru_cache(maxsize=None)
def class_table(n, p=None):
    """T[l][j] = sum over mu |- n with l(mu) = l of w(mu) m_j(mu) n!/z_mu, w = 1, or
    `ferrers_choose`(mu, p) given p; row l holds j = 0..n+1-l, the largest part a
    partition of length l can have."""
    table = [[0] * (n + 2 - l) for l in range(n + 1)]
    for mu in partitions(n):
        w = math.factorial(n) // z(mu) * (1 if p is None else ferrers_choose(mu, p))
        for part in mu:
            table[len(mu)][part] += w
    return tuple(map(tuple, table))


def partition_sum(n, g, p=None):
    """n! times the X^(l-1) coefficients, l = 1..n, of the sum over mu |- n of
    w(mu) X^(l(mu)-1) / z_mu sum_i g[mu_i], w as in `class_table`."""
    return [sum(map(mul, g, row)) for row in class_table(n, p)[1:]]


def y_slices(n):
    """For j = 0..n, n! times the X^(l-1) coefficients, l = 1..n, of the y^j coefficient of
    the sum over mu |- n of X^(l(mu)-1) / z_mu (sum_i y^(mu_i) - l(mu))."""
    rows = class_table(n)[1:]
    return [[row[j] if j < len(row) else 0 for row in rows] if j else [-sum(row) for row in rows]
            for j in range(n + 1)]


def mchoose(a, q):
    """Multisets of size q from a >= 0 symbols: C(a+q-1, q); (0, 0) -> 1."""
    return math.comb(a + q - 1, q) if a else int(q == 0)


def marked_cells(n, p, P):
    """The marked-cells sums on binomial(X+p-k-1, p-k), k = p..1: sum_j C(j-1, k-1)
    mchoose(p-k, n-p-j+k) P_j / k over j = k..n-p+k."""
    return [Fraction(sum(math.comb(j - 1, k - 1) * mchoose(p - k, n - p - j + k) * P[j]
                         for j in range(k, n - p + k + 1)), k)
            for k in range(p, 0, -1)]


@lru_cache(maxsize=None)
def _matrices(rows, cols):
    """Nonnegative integer matrices with these row sums and column sums: the coefficient
    of x^cols in h_rows = prod_i h_(rows_i)."""
    if not rows:
        return int(not any(cols))
    return sum(_matrices(rows[1:], tuple(map(sub, cols, take))) for take in _spread(rows[0], cols))


def _spread(n, caps):
    """The tuples a with sum n and 0 <= a_i <= caps_i."""
    if not caps:
        if n == 0:
            yield ()
        return
    for a in range(min(n, caps[0]) + 1):
        for rest in _spread(n - a, caps[1:]):
            yield (a, *rest)


def waring_right(parts):
    """{l: the coefficient of t^l x^parts} in the sum over partitions lambda of |lambda|
    (l-1)! / prod_j m_j! t^l h_lambda, l = l(lambda), for its nonzero entries."""
    out = Counter()
    for lam in partitions(sum(parts)):
        weight = Fraction(sum(lam) * math.factorial(len(lam) - 1), math.prod(map(math.factorial, Counter(lam).values())))
        out[len(lam)] += weight * _matrices(lam, tuple(parts))
    return {l: v for l, v in out.items() if v}


# ---------------------------------------------------------------------------
# the two-factor linearization and its fold over the species
# ---------------------------------------------------------------------------


def two_factor(a, b, sign):
    """The t_i, i = 0..a+b, with b(x, a) b(x, b) = sum_i t_i b(x, i), b(x, n) = C(x, n) at
    sign +1 and C(x+n-1, n) at -1: t_(a+b-l) = sign^l C(a+b-l; l, a-l, b-l), l <= min(a, b)."""
    t = [0] * (a + b + 1)
    for l in range(min(a, b) + 1):
        t[a + b - l] = sign**l * math.factorial(a + b - l) // (
            math.factorial(l) * math.factorial(a - l) * math.factorial(b - l))
    return t


def merge_weights(species, sign):
    """w_0..w_S with prod_i b(x, r_i) = sum_s w_s b(x, s), S = sum r_i: `two_factor` folded
    over the species from b(x, 0) = 1."""
    w = [1]
    for b in species:
        merged = [0] * (len(w) + b)
        for a, wa in enumerate(w):
            for i, t in enumerate(two_factor(a, b, sign) if wa else ()):
                merged[i] += wa * t
        w = merged
    return w


def binomial_move(w):
    """e_1..e_S with sum_s w_s C(x+s-1, s) = sum_k e_k C(x, k), S = len(w) - 1: by
    Vandermonde C(x+s-1, s) = sum_k C(s-1, k-1) C(x, k) for s >= 1, so e_k = sum_s w_s
    C(s-1, k-1); w_0 multiplies C(x-1, 0) = 1 and is left out."""
    return [sum(ws * math.comb(s - 1, k - 1) for s, ws in enumerate(w) if s) for k in range(1, len(w))]
