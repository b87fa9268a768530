"""Exact arithmetic in the dimensional regulator.

Two small types cover everything the structural pipeline needs:

* :class:`EpsExponent` -- an exponent of the form a + b*eps with integer a, b.
* :class:`EpsRat` -- a rational function of eps with Fraction coefficients,
  supporting exact multiplication and Laurent expansion about eps = 0.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction


@dataclass(frozen=True)
class EpsExponent:
    """Exponent a + b*eps; both parts exact integers."""

    a: int
    b: int

    def __add__(self, other: "EpsExponent") -> "EpsExponent":
        return EpsExponent(self.a + other.a, self.b + other.b)

    def __neg__(self) -> "EpsExponent":
        return EpsExponent(-self.a, -self.b)

    def __sub__(self, other: "EpsExponent") -> "EpsExponent":
        return EpsExponent(self.a - other.a, self.b - other.b)

    def scale(self, k: int) -> "EpsExponent":
        return EpsExponent(self.a * k, self.b * k)

    def shift(self, k: int) -> "EpsExponent":
        return EpsExponent(self.a + k, self.b)

    def at(self, eps: float) -> float:
        return self.a + self.b * eps

    def __str__(self) -> str:
        if self.b == 0:
            return str(self.a)
        sign = "+" if self.b >= 0 else "-"
        return f"{self.a}{sign}{abs(self.b)}*eps"


def _trim(c: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    n = len(c)
    while n > 1 and not c[n - 1]:
        n -= 1
    return c[:n]


def _poly_mul(p: tuple[Fraction, ...], q: tuple[Fraction, ...]) -> tuple[Fraction, ...]:
    out = [Fraction(0)] * (len(p) + len(q) - 1)
    for i, a in enumerate(p):
        if not a:
            continue
        for j, b in enumerate(q):
            if b:
                out[i + j] += a * b
    return _trim(tuple(out))


_FRACTION_ONE = Fraction(1)


class EpsRat:
    """Ratio of two polynomials in eps, exact coefficients.

    ``num`` and ``den`` are tuples of Fractions, lowest order first, with no
    trailing zeros beyond the first entry.  The public constructor converts
    and trims its input; the operations build their results through
    :meth:`_of`, which trusts them.
    """

    __slots__ = ("num", "den")

    def __init__(self, num, den=(Fraction(1),)):
        self.num = _trim(tuple(Fraction(c) for c in num))
        self.den = _trim(tuple(Fraction(c) for c in den))
        if self.den == (Fraction(0),):
            raise ZeroDivisionError("zero denominator in EpsRat")

    @classmethod
    def _of(cls, num: tuple, den: tuple) -> "EpsRat":
        """Trusted constructor: trimmed Fraction tuples, ``den`` not zero."""
        r = object.__new__(cls)
        r.num = num
        r.den = den
        return r

    @classmethod
    def constant(cls, c) -> "EpsRat":
        return cls((Fraction(c),))

    @classmethod
    def linear_inverse(cls, a: int, b: int) -> "EpsRat":
        """1 / (a + b*eps)."""
        den = _trim((Fraction(a), Fraction(b)))
        if den == (0,):
            raise ZeroDivisionError("zero denominator in EpsRat")
        return cls._of((_FRACTION_ONE,), den)

    def is_zero(self) -> bool:
        return len(self.num) == 1 and not self.num[0]

    def __eq__(self, other):
        """Equal as rational functions: num1 * den2 == num2 * den1."""
        if not isinstance(other, EpsRat):
            return NotImplemented
        return _poly_mul(self.num, other.den) == _poly_mul(other.num, self.den)

    def __hash__(self):
        # the leading Laurent term is the same for every representation
        if self.is_zero():
            return hash(0)
        low = self.lowest_order()
        return hash((low, self.laurent(low)[low]))

    def __mul__(self, other) -> "EpsRat":
        if isinstance(other, EpsRat):
            return EpsRat._of(_poly_mul(self.num, other.num), _poly_mul(self.den, other.den))
        k = other if type(other) is Fraction else Fraction(other)
        return EpsRat._of(tuple(c * k for c in self.num) if k else (Fraction(0),), self.den)

    __rmul__ = __mul__

    def mul_linear(self, a: int, b: int) -> "EpsRat":
        """Multiply by the polynomial (a + b*eps)."""
        if type(a) is not int or type(b) is not int:
            a, b = Fraction(a), Fraction(b)
        return EpsRat._of(_poly_mul(self.num, (a, b)), self.den)

    def lowest_order(self) -> int:
        """Order in eps of the leading Laurent term (num valuation - den valuation)."""
        if self.is_zero():
            raise ValueError("zero has no Laurent order")
        vn = next(i for i, c in enumerate(self.num) if c)
        vd = next(i for i, c in enumerate(self.den) if c)
        return vn - vd

    def laurent(self, upto: int) -> dict[int, Fraction]:
        """Exact Laurent coefficients from the leading order through eps^upto."""
        if self.is_zero():
            return {}
        vn = next(i for i, c in enumerate(self.num) if c)
        vd = next(i for i, c in enumerate(self.den) if c)
        low = vn - vd
        if upto < low:
            return {}
        nterms = upto - low + 1
        # regular series division of num/eps^vn by den/eps^vd
        a = list(self.num[vn:]) + [Fraction(0)] * nterms
        b = list(self.den[vd:]) + [Fraction(0)] * nterms
        q = [Fraction(0)] * nterms
        for k in range(nterms):
            s = a[k]
            for j in range(k):
                s -= q[j] * b[k - j]
            q[k] = s / b[0]
        # zero coefficients are kept so callers see a contiguous range
        return {low + k: q[k] for k in range(nterms)}

    def at(self, eps: Fraction) -> Fraction:
        num = sum(c * eps ** i for i, c in enumerate(self.num))
        den = sum(c * eps ** i for i, c in enumerate(self.den))
        return num / den

    def __repr__(self) -> str:
        return f"EpsRat(num={self.num}, den={self.den})"
