"""Dense univariate polynomials over exact rationals.

Provides the factorial bases (falling, rising, shifted binomial), the
forward-difference operator evaluated at zero, and the Newton expansion
of a polynomial in the falling-factorial basis.  Identities elsewhere in
the package are decided by exact coefficientwise comparison of these
polynomials in the monomial basis.
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Dict, Iterable, List, Tuple

from .exactnum import Rat, binomial, factorial, forward_differences, rat_str


def _integer_coeffs(p: "UPoly") -> Tuple[int, List[int]]:
    """(den, coefficients of den * p), den the lcm of p's denominators."""
    den = math.lcm(*(c.denominator for c in p.coeffs))
    return den, [c.numerator * (den // c.denominator) for c in p.coeffs]


class UPoly:
    """Polynomial in one indeterminate, coefficients indexed by degree.

    Trailing zero coefficients are stripped; the zero polynomial has an
    empty coefficient tuple.  Instances are immutable and hashable.
    Products are convolved in integers over a common denominator.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable[Rat] = ()):
        cs = [c if isinstance(c, Fraction) else Fraction(c) for c in coeffs]
        while cs and cs[-1] == 0:
            cs.pop()
        self.coeffs: Tuple[Fraction, ...] = tuple(cs)

    @classmethod
    def zero(cls) -> "UPoly":
        return cls()

    @classmethod
    def one(cls) -> "UPoly":
        return cls((1,))

    @classmethod
    def x(cls) -> "UPoly":
        return cls((0, 1))

    @property
    def degree(self) -> int:
        """Degree, with the convention deg 0 = -1."""
        return len(self.coeffs) - 1

    def coeff(self, d: int) -> Fraction:
        if 0 <= d < len(self.coeffs):
            return self.coeffs[d]
        return Fraction(0)

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        if not isinstance(other, UPoly):
            return NotImplemented
        return self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash(self.coeffs)

    def __add__(self, other: "UPoly") -> "UPoly":
        n = max(len(self.coeffs), len(other.coeffs))
        return UPoly(
            (self.coeff(d) + other.coeff(d) for d in range(n))
        )

    def __neg__(self) -> "UPoly":
        return UPoly((-c for c in self.coeffs))

    def __sub__(self, other: "UPoly") -> "UPoly":
        return self + (-other)

    def __mul__(self, other) -> "UPoly":
        if not isinstance(other, UPoly):
            return self.scale(other)
        if not self.coeffs or not other.coeffs:
            return UPoly()
        den_a, a = _integer_coeffs(self)
        den_b, b = _integer_coeffs(other)
        out = [0] * (len(a) + len(b) - 1)
        for i, x in enumerate(a):
            if not x:
                continue
            for j, y in enumerate(b):
                out[i + j] += x * y
        den = den_a * den_b
        return UPoly(Fraction(c, den) for c in out)

    def __rmul__(self, other) -> "UPoly":
        return self.scale(other)

    def scale(self, value: Rat) -> "UPoly":
        return UPoly((c * value for c in self.coeffs))

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
        """Evaluate by Horner's rule."""
        acc = Fraction(0)
        for c in reversed(self.coeffs):
            acc = acc * x + c
        return acc

    def to_strs(self) -> list[str]:
        """Serialization: "num/den" strings, lowest degree first."""
        return [rat_str(c) for c in self.coeffs]

    def __repr__(self) -> str:
        return f"UPoly({[str(c) for c in self.coeffs]})"

    def __str__(self) -> str:
        if not self.coeffs:
            return "0"
        chunks = []
        for d in range(self.degree, -1, -1):
            c = self.coeffs[d]
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
    out = UPoly.one()
    for i in range(n):
        out = out * UPoly((shift + i, 1))
    return out


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


def to_falling_basis(p: UPoly) -> Dict[int, Fraction]:
    """Newton coefficients A_k with p = sum_k A_k * falling(k).

    A_k = Delta^k p(0) / k!.  The forward differences are taken in
    integers: p is scaled by the lcm ``den`` of its coefficient
    denominators, evaluated once at 0..deg(p), and differenced in a table,
    so A_k = Delta^k (den p)(0) / (den k!) is the one division.  Only
    nonzero entries are returned, and there are at most deg(p)+1 of them.
    """
    den, scaled = _integer_coeffs(p)
    row = []
    for x in range(len(scaled)):
        acc = 0
        for c in reversed(scaled):
            acc = acc * x + c
        row.append(acc)
    out: Dict[int, Fraction] = {}
    k_factorial = 1
    for k, d in enumerate(forward_differences(row)):
        if k:
            k_factorial *= k
        if d:
            out[k] = Fraction(d, den * k_factorial)
    return out


def from_falling_basis(coeffs: Dict[int, Rat]) -> UPoly:
    """Reassemble sum_k A_k * falling(k)."""
    out = UPoly.zero()
    for k, a in coeffs.items():
        out = out + falling_poly(k).scale(a)
    return out
