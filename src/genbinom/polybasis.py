"""Dense univariate polynomials over exact rationals.

A `UPoly` is stored in FLINT's ``fmpq_poly`` layout: a tuple of integer
numerators over one positive common denominator, kept in lowest terms, so
all of its arithmetic is integer work.  The module also provides the
factorial bases (falling, rising, shifted binomial), each its own product
loop; `delta_at_zero`, the forward difference at zero as one alternating
sum; and `newton_sum`/`newton_coeffs`, the one Newton-form pair (Horner's
rule, synthetic division) behind every basis expansion, the falling-factorial
conversions included.  Identities elsewhere in the package are decided by
exact coefficientwise comparison of these polynomials in the monomial basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import accumulate, zip_longest
from typing import Dict, Iterable, List, Sequence

from .exactnum import Rat, binomial, factorial


class UPoly:
    """Polynomial in one indeterminate: sum_d coeffs[d] X^d / den.

    ``coeffs`` holds integer numerators indexed by degree and ``den`` one
    positive common denominator.  Every instance is canonical: den > 0,
    gcd(den, *coeffs) == 1 and no trailing zero numerator, so the zero
    polynomial is ``((), 1)`` and equal polynomials have equal
    (coeffs, den).  Sums, products, scaling, powers, equality and hashing
    are integer work; `coeff` is the one method that builds a Fraction.
    Instances are immutable and hashable.
    """

    __slots__ = ("coeffs", "den")

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = list(coeffs)
        for c in cs:  # exact values only: a float or string is not converted
            if not isinstance(c, (int, Fraction)):
                raise ValueError(f"UPoly coefficients must be int or Fraction, got {c!r}")
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
    def zero(cls) -> "UPoly":
        return cls()

    @classmethod
    def one(cls) -> "UPoly":
        return cls((1,))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> Fraction:
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

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for d in range(self.degree, -1, -1):
            c = self.coeff(d)
            if not c:
                continue
            mono = "1" if d == 0 else ("X" if d == 1 else f"X^{d}")
            if d == 0:
                body = str(c) if c > 0 else str(-c)
            elif abs(c) == 1:
                body = mono
            else:
                body = f"{abs(c)}*{mono}"
            chunks.append(("- " if c < 0 else ("+ " if chunks else "")) + body)
        return " ".join(chunks)


def rising_poly(n: int, shift: int = 0) -> UPoly:
    """(X+shift)(X+shift+1)...(X+shift+n-1); n = 0 gives 1."""
    if n < 0:
        raise ValueError(f"rising_poly: n must be nonnegative, got {n}")
    cs = [1]
    for a in range(shift, shift + n):  # cs times (X + a)
        cs = [a * c + b for c, b in zip(cs + [0], [0] + cs)]
    return UPoly._of(cs)


def falling_poly(n: int) -> UPoly:
    """X(X-1)...(X-n+1) = (X-n+1)...(X) as a polynomial; n = 0 gives 1."""
    if n < 0:
        raise ValueError(f"falling_poly: n must be nonnegative, got {n}")
    return rising_poly(n, shift=1 - n)


def shifted_binom_poly(n: int, k: int) -> UPoly:
    """binomial(X+n-1, n-k) = (X+k)...(X+n-1)/(n-k)! as a polynomial of
    degree n-k, for 0 <= k <= n."""
    if not 0 <= k <= n:
        raise ValueError(f"shifted_binom_poly: need 0 <= k <= n, got n={n}, k={k}")
    return rising_poly(n - k, shift=k).scale(Fraction(1, factorial(n - k)))


def binom_poly(k: int) -> UPoly:
    """binomial(X, k) = falling(k)/k!."""
    return falling_poly(k).scale(Fraction(1, factorial(k)))


def delta_at_zero(p: UPoly, k: int) -> Fraction:
    """k-th forward difference of p, evaluated at 0.

    Uses the alternating binomial sum sum_j (-1)^j C(k,j) p(k-j) in one
    pass instead of repeated shift-and-subtract.
    """
    if k < 0:
        raise ValueError(f"delta_at_zero: k must be nonnegative, got {k}")
    acc = Fraction(0)
    for j in range(k + 1):
        acc += (-1) ** j * binomial(k, j) * p(k - j)
    return acc


def newton_sum(start: int, step: int, a: Sequence[Rat]) -> UPoly:
    """sum_j a[j] prod_{t<j} (X - s_t) / j! at the nodes s_t = start + t*step:
    binomial(X, j) at (0, 1), binomial(X+j-1, j) at (0, -1), binomial(X+n-1, j)
    at (1-n, 1).  Horner's rule on the integers b_j = a[j] L d!/j!, with L the
    lcm of a's denominators and d = len(a) - 1, then one division by L d!."""
    den = math.lcm(*(x.denominator for x in a))
    acc: List[int] = []
    ratio = 1  # d!/j!
    for j in range(len(a) - 1, -1, -1):
        b = a[j].numerator * (den // a[j].denominator) * ratio
        s = start + j * step
        acc = [x - s * y for x, y in zip([b] + acc, acc + [0])]  # acc * (X - s) + b
        ratio *= j or 1
    return UPoly._of(acc, den * ratio)


def newton_coeffs(p: UPoly, start: int, step: int) -> List[Fraction]:
    """The a, one entry per coefficient of p, with newton_sum(start, step, a) == p:
    the numerators divided by X - s_0, the quotient by X - s_1, and so on,
    synthetically; the j-th remainder is a[j] den / j!."""
    nums, out, jfact = list(p.coeffs), [], 1
    for j in range(len(nums)):
        jfact *= j or 1
        s = start + j * step
        carries = list(accumulate(reversed(nums), lambda acc, c: acc * s + c))
        out.append(Fraction(carries.pop() * jfact, p.den))
        nums = carries[::-1]
    return out


def to_falling_basis(p: UPoly) -> Dict[int, Fraction]:
    """Newton coefficients A_k with p = sum_k A_k * falling(k): the
    binomial(X, k) coefficients over k!.  Only nonzero entries are
    returned, and there are at most deg(p)+1 of them."""
    return {k: a / factorial(k) for k, a in enumerate(newton_coeffs(p, 0, 1)) if a}


def from_falling_basis(coeffs: Dict[int, Rat]) -> UPoly:
    """Reassemble sum_k A_k * falling(k) = sum_k A_k k! * binomial(X, k)."""
    a = [coeffs.get(k, 0) * factorial(k) for k in range(max(coeffs, default=-1) + 1)]
    return newton_sum(0, 1, a)
