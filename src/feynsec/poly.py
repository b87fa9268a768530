"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples of fixed length ``nvars``.  A coefficient is
an ``int`` when it is integral and a ``fractions.Fraction`` otherwise, so
polynomials with integer coefficients - the graph polynomials at integer
invariants and masses, and everything the sector substitutions and
derivatives make of them - stay on integer arithmetic.  All structural
stages of the pipeline (graph polynomials, sector substitutions, Taylor
subtractions) run on this type, so nothing is rounded before the Monte Carlo
stage.
"""

from __future__ import annotations

from fractions import Fraction
from operator import add
from typing import Iterable, Mapping

import numpy as np

RationalLike = int | Fraction


def _canonical(c: RationalLike) -> RationalLike:
    """An int or Fraction value as the coefficient type: int if integral."""
    return c.numerator if c.denominator == 1 else c


class Poly:
    """Immutable sparse polynomial over the rationals.

    ``coeffs`` maps exponent tuples (length ``nvars``) to nonzero
    coefficients: ``int`` where integral, ``Fraction`` otherwise.  The
    public constructor validates and canonicalises its input; the internal
    operations build their results through :meth:`_of`, which trusts them.
    """

    __slots__ = ("nvars", "coeffs", "_hash", "_key")

    def __init__(self, nvars: int, coeffs: Mapping[tuple[int, ...], RationalLike] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for exps, c in coeffs.items():
                c = c if type(c) is Fraction else Fraction(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not have {nvars} entries")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                clean[exps] = clean.get(exps, 0) + c
        self.coeffs = {e: _canonical(c) for e, c in clean.items() if c != 0}
        self._hash = None
        self._key = None

    @classmethod
    def _of(cls, nvars: int, coeffs: dict) -> "Poly":
        """Trusted constructor: ``coeffs`` is already canonical (exponent
        tuples of length ``nvars``, nonzero int-or-Fraction coefficients,
        integral ones as int) and is taken over, not copied."""
        p = object.__new__(cls)
        p.nvars = nvars
        p.coeffs = coeffs
        p._hash = None
        p._key = None
        return p

    # -- constructors -------------------------------------------------

    @classmethod
    def constant(cls, nvars: int, c: RationalLike) -> "Poly":
        return cls(nvars, {tuple([0] * nvars): c})

    @classmethod
    def variable(cls, nvars: int, i: int) -> "Poly":
        e = [0] * nvars
        e[i] = 1
        return cls(nvars, {tuple(e): 1})

    @classmethod
    def monomial(cls, nvars: int, exps: Iterable[int], c: RationalLike = 1) -> "Poly":
        return cls(nvars, {tuple(exps): c})

    # -- basic protocol -----------------------------------------------

    def __eq__(self, other) -> bool:
        return isinstance(other, Poly) and self.nvars == other.nvars and self.coeffs == other.coeffs

    def __hash__(self):
        if self._hash is None:
            self._hash = hash((self.nvars, frozenset(self.coeffs.items())))
        return self._hash

    def __lt__(self, other: "Poly") -> bool:
        """A total order, so factor lists and terms sort canonically."""
        return self._sort_key() < other._sort_key()

    def _sort_key(self):
        if self._key is None:
            self._key = (self.nvars, tuple(sorted(self.coeffs.items())))
        return self._key

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __repr__(self) -> str:
        return f"Poly({self.as_string()})"

    def as_string(self, names: list[str] | None = None) -> str:
        """Deterministic human-readable form, monomials in graded-lex order."""
        if not self.coeffs:
            return "0"
        if names is None:
            names = [f"x{i}" for i in range(self.nvars)]
        parts = []
        for exps in sorted(self.coeffs, key=lambda e: (sum(e), e)):
            c = self.coeffs[exps]
            factors = [str(c)] if c != 1 or not any(exps) else []
            for i, e in enumerate(exps):
                if e == 1:
                    factors.append(names[i])
                elif e > 1:
                    factors.append(f"{names[i]}^{e}")
            parts.append("*".join(factors))
        return " + ".join(parts)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = dict(self.coeffs)
        for e, c in other.coeffs.items():
            if e in out:
                s = out[e] + c
                if s:
                    out[e] = _canonical(s)
                else:
                    del out[e]
            else:
                out[e] = c
        return Poly._of(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly._of(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            k = _canonical(Fraction(other))
            out = {}
            if k:
                for e, c in self.coeffs.items():
                    out[e] = _canonical(c * k)
            return Poly._of(self.nvars, out)
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(map(add, e1, e2))
                s = out.get(e, 0) + c1 * c2
                if s:
                    out[e] = s
                else:
                    del out[e]
        return Poly._of(self.nvars, {e: _canonical(c) for e, c in out.items()})

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = None
        base = self
        while k:
            if k & 1:
                result = base if result is None else result * base
            k >>= 1
            if k:
                base = base * base
        return Poly.constant(self.nvars, 1) if result is None else result

    # -- structure -----------------------------------------------------

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.coeffs}
        return len(degs) <= 1

    def constant_term(self) -> Fraction:
        """The constant coefficient, always as a Fraction, so that callers'
        powers of it (negative ones too) stay exact."""
        return Fraction(self.coeffs.get(tuple([0] * self.nvars), 0))

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.coeffs)

    def content_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over the support (zero poly -> zeros)."""
        if not self.coeffs:
            return tuple([0] * self.nvars)
        return tuple(map(min, zip(*self.coeffs)))

    def divide_monomial(self, exps: tuple[int, ...]) -> "Poly":
        out = {}
        for e, c in self.coeffs.items():
            d = tuple(a - b for a, b in zip(e, exps))
            if any(x < 0 for x in d):
                raise ValueError("monomial does not divide polynomial")
            out[d] = c
        return Poly._of(self.nvars, out)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs)

    # -- substitutions ---------------------------------------------------

    def rescale_subset(self, subset: Iterable[int], l: int) -> "Poly":
        """Apply x_i -> x_l * x_i for all i in ``subset`` except ``l`` itself.

        On exponent vectors this sends m_l to the sum of m_j over the subset,
        leaving all other entries alone.  That map is injective (the old m_l
        is the new one minus the others), so no two terms merge.
        """
        sub = set(subset)
        if l not in sub:
            raise ValueError("pivot must belong to the substituted subset")
        out = {}
        for e, c in self.coeffs.items():
            m = list(e)
            m[l] = sum(map(e.__getitem__, sub))
            out[tuple(m)] = c
        return Poly._of(self.nvars, out)

    def set_one_and_drop(self, i: int) -> "Poly":
        """Substitute x_i = 1 and remove the variable slot (nvars shrinks by one)."""
        out = {}
        for e, c in self.coeffs.items():
            key = e[:i] + e[i + 1:]
            if key in out:
                s = out[key] + c
                if s:
                    out[key] = s
                else:
                    del out[key]
            else:
                out[key] = c
        return Poly._of(self.nvars - 1, {e: _canonical(c) for e, c in out.items()})

    def set_zero(self, i: int) -> "Poly":
        """Substitute x_i = 0 (variable slot is kept for index stability)."""
        return Poly._of(self.nvars, {e: c for e, c in self.coeffs.items() if e[i] == 0})

    def derivative(self, i: int) -> "Poly":
        out = {}
        for e, c in self.coeffs.items():
            k = e[i]
            if k:
                m = list(e)
                m[i] = k - 1
                out[tuple(m)] = _canonical(c * k)
        return Poly._of(self.nvars, out)

    # -- evaluation ------------------------------------------------------

    def eval_exact(self, point: list[Fraction]) -> Fraction:
        total = Fraction(0)
        for e, c in self.coeffs.items():
            term = c
            for x, p in zip(point, e):
                if p:
                    term *= x ** p
            total += term
        return total

    def eval_array(self, columns: "np.ndarray") -> "np.ndarray":
        """Evaluate on an (nsamples, nvars) array of floats."""
        n = columns.shape[0]
        total = np.zeros(n)
        for e, c in self.coeffs.items():
            term = np.full(n, float(c))
            for i, p in enumerate(e):
                if p == 1:
                    term = term * columns[:, i]
                elif p > 1:
                    term = term * columns[:, i] ** p
            total += term
        return total
