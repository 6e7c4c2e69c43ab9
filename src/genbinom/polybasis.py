"""Dense univariate polynomials over exact rationals.

A `UPoly` is stored in FLINT's ``fmpq_poly`` layout: a tuple of integer
numerators over one positive common denominator, kept in lowest terms, so
all of its arithmetic is integer work.  The module also provides
`_linear_product`, a product of linear factors X + a built directly on a
Newton basis prod_{t<k} (X - sigma t), one integer loop: on monomials
(sigma = 0) it makes the factorial bases (falling, rising, shifted
binomial), and on the falling (+1) or rising (-1) basis the product sides
of the linearization identities, with no expansion pass.  It also provides
`delta_at_zero`, the forward difference at zero as one alternating sum;
and `newton_coeffs`, the one Newton expansion (synthetic division), which
returns its coefficients in `UPoly`'s layout, integers over one denominator.
The package's other identities compare these coefficients, and
`from_falling_basis` sums the falling basis back by Horner's rule.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import count, zip_longest
from typing import Dict, Iterable, List, Tuple

from .exactnum import Rat, as_int, as_rat, binomial, factorial


class UPoly:
    """Polynomial in one indeterminate: sum_d coeffs[d] X^d / den.

    ``coeffs`` holds integer numerators indexed by degree and ``den`` one
    positive common denominator.  Every instance is canonical: den > 0,
    gcd(den, *coeffs) == 1 and no trailing zero numerator, so the zero
    polynomial is ``((), 1)`` and equal polynomials have equal
    (coeffs, den).  Sums, products, scaling, powers, equality and hashing
    are integer work; `coeff` and evaluation (`__call__`) return a Fraction.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [as_rat(c, "UPoly coefficients") for c in coeffs]
        den = math.lcm(*(c.denominator for c in cs))
        self._set([c.numerator * (den // c.denominator) for c in cs], den)

    def _set(self, nums: List[int], den: int) -> None:
        """Store nums / den (den > 0) in canonical form; nums is consumed."""
        while nums and not nums[-1]:
            nums.pop()
        g = math.gcd(den, *nums)
        if g != 1:
            nums = [c // g for c in nums]
            den //= g
        self.coeffs: tuple[int, ...] = tuple(nums)
        self.den: int = den

    @classmethod
    def _of(cls, nums: List[int], den: int = 1) -> "UPoly":
        """The polynomial sum_d nums[d] X^d / den; nums is consumed."""
        out = cls.__new__(cls)
        out._set(nums, den)
        return out

    @classmethod
    def one(cls) -> "UPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> Fraction:
        """The coefficient of X^d, 0 beyond the degree; d is read by `as_int`."""
        d = as_int(d)
        if 0 <= d < len(self.coeffs):
            return Fraction(self.coeffs[d], self.den)
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.den == other.den and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.coeffs, self.den))

    def __add__(self, other: "UPoly") -> "UPoly":
        den = math.lcm(self.den, other.den)
        sa, sb = den // self.den, den // other.den
        pairs = zip_longest(self.coeffs, other.coeffs, fillvalue=0)
        return UPoly._of([x * sa + y * sb for x, y in pairs], den)

    def __neg__(self) -> "UPoly":
        return UPoly._of([-c for c in self.coeffs], self.den)

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other) -> "UPoly":
        if not isinstance(other, UPoly):
            return self.scale(other)
        a, b = self.coeffs, other.coeffs
        if not a or not b:
            return UPoly()
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        return UPoly._of(out, self.den * other.den)

    def scale(self, value: Rat) -> "UPoly":
        value = as_rat(value, "UPoly.scale: value")
        num, den = value.numerator, value.denominator
        return UPoly._of([c * num for c in self.coeffs], self.den * den)

    def __pow__(self, e: int) -> "UPoly":
        if e < 0:
            raise ValueError(f"negative power: {e}")
        out, base = UPoly.one(), self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    def __call__(self, x: Rat) -> Fraction:
        """Evaluate by Horner's rule in integers: with x = u/v, p(x) is
        sum_d coeffs[d] u^d v^(deg-d) / (den v^deg)."""
        u, v = x.numerator, x.denominator
        acc, vpow = 0, 1
        for c in reversed(self.coeffs):
            acc = acc * u + c * vpow
            vpow *= v
        return Fraction(acc * v, self.den * vpow)

    def __repr__(self) -> str:
        return f"UPoly({[str(self.coeff(d)) for d in range(len(self.coeffs))]})"


def _linear_product(shifts: Iterable[int], sigma: int = 0) -> List[int]:
    """The integer coefficients of prod_a (X + a) over the shifts a on the Newton
    basis N_k = prod_{t<k} (X - sigma t): monomials at sigma = 0, falling(X, k) at
    +1, rising(X, k) at -1; none gives [1].  X N_k = N_(k+1) + sigma k N_k, so one
    factor maps c_k to c_(k-1) + (a + sigma k) c_k."""
    cs = [1]
    for a in shifts:  # cs times (X + a): c_k's multiplier a + sigma k is count(a, sigma)'s k-th
        cs = [s * c + b for s, c, b in zip(count(a, sigma), cs + [0], [0] + cs)]
    return cs


def rising_poly(n: int, shift: int = 0) -> UPoly:
    """(X+shift)(X+shift+1)...(X+shift+n-1); n = 0 gives 1."""
    shift = as_int(shift)  # every type before any bound
    n = as_int(n, 0, "rising_poly: n")
    return UPoly._of(_linear_product(range(shift, shift + n)))


def falling_poly(n: int) -> UPoly:
    """X(X-1)...(X-n+1) = (X-n+1)...(X) as a polynomial; n = 0 gives 1."""
    n = as_int(n, 0, "falling_poly: n")
    return rising_poly(n, shift=1 - n)


def shifted_binom_poly(n: int, k: int) -> UPoly:
    """binomial(X+n-1, n-k) = (X+k)...(X+n-1)/(n-k)! as a polynomial of
    degree n-k, for 0 <= k <= n."""
    n, k = as_int(n), as_int(k)
    if not 0 <= k <= n:
        raise ValueError(f"shifted_binom_poly: need 0 <= k <= n, got n={n}, k={k}")
    return UPoly._of(list(rising_poly(n - k, shift=k).coeffs), factorial(n - k))


def binom_poly(k: int) -> UPoly:
    """binomial(X, k) = falling(k)/k!."""
    return falling_poly(k).scale(Fraction(1, factorial(k)))


def delta_at_zero(p: UPoly, k: int) -> Fraction:
    """k-th forward difference of p, evaluated at 0.

    Uses the alternating binomial sum sum_j (-1)^j C(k,j) p(k-j) in one
    pass instead of repeated shift-and-subtract.
    """
    k = as_int(k, 0, "delta_at_zero: k")
    acc = Fraction(0)
    for j in range(k + 1):
        acc += (-1) ** j * binomial(k, j) * p(k - j)
    return acc


def newton_coeffs(p: UPoly, start: int, step: int) -> Tuple[List[int], int]:
    """(nums, p.den), one int per coefficient of p, with p = sum_j nums[j]/p.den
    prod_{t<j} (X - s_t) / j! at the nodes s_t = start + t*step: binomial(X, j) at
    (0, 1), binomial(X+j-1, j) at (0, -1), binomial(X+n-1, j) at (1-n, 1).  p's
    numerators divided by X - s_0, the quotient by X - s_1, and so on,
    synthetically and in place; nums[j] is the j-th remainder times j!."""
    nums, out, jfact = list(p.coeffs), [], 1
    for j in range(len(nums)):
        jfact *= j or 1
        s = start + j * step
        for i in range(len(nums) - 2, j - 1, -1):  # nums[j:] by X - s: quotient nums[j+1:]
            nums[i] += s * nums[i + 1]
        out.append(nums[j] * jfact)  # the remainder
    return out, p.den


def to_falling_basis(p: UPoly) -> Dict[int, Fraction]:
    """Newton coefficients A_k with p = sum_k A_k * falling(k): the
    binomial(X, k) coefficients over k!.  Only nonzero entries are
    returned, and there are at most deg(p)+1 of them."""
    nums, den = newton_coeffs(p, 0, 1)
    return {k: Fraction(a // factorial(k), den) for k, a in enumerate(nums) if a}


def from_falling_basis(coeffs: Dict[int, Rat]) -> UPoly:
    """Reassemble sum_k A_k * falling(k) by Horner's rule on the monic basis
    falling(k) = prod_{t<k} (X - t), acc <- acc * (X - k) + A_k, on the A_k's
    numerators over their lcm."""
    a = [coeffs.get(k, 0) for k in range(max(coeffs, default=-1) + 1)]
    den, acc = math.lcm(*(x.denominator for x in a)), []
    for k in range(len(a) - 1, -1, -1):
        acc = [x - k * y for x, y in zip([a[k].numerator * (den // a[k].denominator)] + acc, acc + [0])]
    return UPoly._of(acc, den)
