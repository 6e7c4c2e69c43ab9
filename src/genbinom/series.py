"""Sparse multivariate polynomials over exact rationals with truncation caps.

Every polynomial carries a per-variable maximum exponent.  Arithmetic is
exact but works in the truncated ring: any term whose exponent vector
exceeds the caps componentwise is discarded.  Because exponents are
nonnegative, truncated multiplication stays commutative, associative and
distributive, so coefficient extraction below the caps is faithful.

Coefficients may be ``int`` or ``Fraction``; mixed arithmetic is exact
either way.  Instances are immutable values.
"""

from __future__ import annotations

from itertools import product
from typing import Dict, Mapping, Sequence, Tuple

from .exactnum import Rat, as_int, as_rat

Expt = Tuple[int, ...]


class MPoly:
    """Multivariate polynomial truncated to per-variable exponent caps."""

    __slots__ = ("caps", "terms")

    def __init__(self, caps: Sequence[int], terms: Mapping[Expt, Rat] | None = None):
        caps = tuple(map(as_int, caps))
        if any(c < 0 for c in caps):
            raise ValueError(f"caps must be nonnegative: {caps}")
        clean: Dict[Expt, Rat] = {}
        for e, c in (terms or {}).items():
            e = tuple(map(as_int, e))
            if len(e) != len(caps):
                raise ValueError(f"exponent {e} has wrong arity for caps {caps}")
            if any(x < 0 for x in e):
                raise ValueError(f"negative exponent: {e}")
            if any(x > cap for x, cap in zip(e, caps)):
                raise ValueError(f"exponent {e} beyond caps {caps}")
            if as_rat(c, "MPoly coefficients"):
                clean[e] = c
        self.caps = caps
        self.terms = clean

    # -- constructors ----------------------------------------------------

    @classmethod
    def _of(cls, caps: Expt, terms: Dict[Expt, Rat]) -> "MPoly":
        """The polynomial with these checked caps and these nonzero terms
        within them, taken unvalidated; terms is consumed."""
        out = cls.__new__(cls)
        out.caps, out.terms = caps, terms
        return out

    @classmethod
    def const(cls, caps: Sequence[int], value: Rat) -> "MPoly":
        return cls(caps, {(0,) * len(tuple(caps)): value})

    # -- basic protocol --------------------------------------------------

    @property
    def nvars(self) -> int:
        return len(self.caps)

    def __bool__(self) -> bool:
        return bool(self.terms)

    def __eq__(self, other) -> bool:
        if not isinstance(other, MPoly):
            return NotImplemented
        return self.caps == other.caps and self.terms == other.terms

    def __repr__(self) -> str:
        return f"MPoly(caps={self.caps}, terms={len(self.terms)})"

    def _check_compatible(self, other: "MPoly") -> None:
        if self.caps != other.caps:
            raise ValueError(f"mismatched caps: {self.caps} vs {other.caps}")

    # -- arithmetic (truncated ring) --------------------------------------

    def __add__(self, other: "MPoly") -> "MPoly":
        self._check_compatible(other)
        terms = dict(self.terms)
        for e, c in other.terms.items():
            s = terms.get(e, 0) + c
            if s:
                terms[e] = s
            else:
                terms.pop(e, None)
        return MPoly._of(self.caps, terms)

    def __neg__(self) -> "MPoly":
        return MPoly._of(self.caps, {e: -c for e, c in self.terms.items()})

    def __sub__(self, other: "MPoly") -> "MPoly":
        return self + (-other)

    def __mul__(self, other) -> "MPoly":
        if not isinstance(other, MPoly):
            return self.scale(other)
        self._check_compatible(other)
        caps = self.caps
        terms: Dict[Expt, Rat] = {}
        for e1, c1 in self.terms.items():
            for e2, c2 in other.terms.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                if any(x > cap for x, cap in zip(e, caps)):
                    continue
                s = terms.get(e, 0) + c1 * c2
                if s:
                    terms[e] = s
                else:
                    terms.pop(e, None)
        return MPoly._of(caps, terms)

    def scale(self, value: Rat) -> "MPoly":
        value = as_rat(value, "MPoly.scale: value")
        return MPoly._of(self.caps, {e: c * value for e, c in self.terms.items()} if value else {})

    def __pow__(self, e: int) -> "MPoly":
        if e < 0:
            raise ValueError(f"negative power: {e}")
        # truncation is a quotient ring, so square-and-multiply is exact
        out, base = MPoly.const(self.caps, 1), self
        while e:
            if e & 1:
                out = out * base
            e >>= 1
            if e:
                base = base * base
        return out

    # -- inspection --------------------------------------------------------

    def coeff(self, e: Sequence[int]) -> Rat:
        """Coefficient of the monomial with exponent vector e.

        Asking beyond the caps is an error: that coefficient was truncated
        away and is unknown.
        """
        e = tuple(map(as_int, e))
        if len(e) != self.nvars:
            raise ValueError(f"exponent {e} has wrong arity")
        if any(x < 0 for x in e) or any(x > cap for x, cap in zip(e, self.caps)):
            raise ValueError(f"exponent {e} outside caps {self.caps}")
        return self.terms.get(e, 0)


def geom_inverse_product(caps: Sequence[int]) -> MPoly:
    """prod_i (1 + x_i + ... + x_i^{cap_i}): the truncation of
    1/((1-x_1)...(1-x_m)).  Every coefficient within the caps is 1."""
    caps = tuple(map(as_int, caps))
    return MPoly(caps, {e: 1 for e in product(*(range(c + 1) for c in caps))})


def homogeneous_h(n: int, caps: Sequence[int]) -> MPoly:
    """Complete homogeneous symmetric polynomial h_n, truncated to caps: the
    degree-n slice of the box, every exponent vector within the caps that
    sums to n, with coefficient 1."""
    n = as_int(n, 0, "homogeneous_h: n")
    caps = tuple(map(as_int, caps))
    return MPoly(caps, {e: 1 for e in product(*(range(c + 1) for c in caps)) if sum(e) == n})
