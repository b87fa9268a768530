"""Sparse multivariate polynomials with exact rational coefficients.

Monomials are exponent tuples of fixed length ``nvars``; coefficients are
``fractions.Fraction``.  All structural stages of the pipeline (graph
polynomials, sector substitutions, Taylor subtractions) run on this type, so
nothing is rounded before the Monte Carlo stage.
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Mapping

import numpy as np

RationalLike = int | Fraction


def _as_fraction(c) -> Fraction:
    if isinstance(c, Fraction):
        return c
    return Fraction(c)


class Poly:
    """Immutable sparse polynomial over the rationals.

    ``coeffs`` maps exponent tuples (length ``nvars``) to nonzero Fractions.
    """

    __slots__ = ("nvars", "coeffs", "_hash", "_key")

    def __init__(self, nvars: int, coeffs: Mapping[tuple[int, ...], RationalLike] | None = None):
        self.nvars = nvars
        clean: dict[tuple[int, ...], Fraction] = {}
        if coeffs:
            for exps, c in coeffs.items():
                c = _as_fraction(c)
                if c == 0:
                    continue
                exps = tuple(int(e) for e in exps)
                if len(exps) != nvars:
                    raise ValueError(f"exponent tuple {exps} does not have {nvars} entries")
                if any(e < 0 for e in exps):
                    raise ValueError(f"negative exponent in {exps}")
                clean[exps] = clean.get(exps, Fraction(0)) + c
        self.coeffs = {e: c for e, c in clean.items() if c != 0}
        self._hash = None
        self._key = None

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
            s = out.get(e, Fraction(0)) + c
            if s == 0:
                out.pop(e, None)
            else:
                out[e] = s
        return Poly(self.nvars, out)

    __radd__ = __add__

    def __neg__(self) -> "Poly":
        return Poly(self.nvars, {e: -c for e, c in self.coeffs.items()})

    def __sub__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            other = Poly.constant(self.nvars, other)
        return self + (-other)

    def __mul__(self, other) -> "Poly":
        if not isinstance(other, Poly):
            return Poly(self.nvars, {e: c * _as_fraction(other) for e, c in self.coeffs.items()})
        if self.nvars != other.nvars:
            raise ValueError("variable count mismatch")
        out: dict[tuple[int, ...], Fraction] = {}
        for e1, c1 in self.coeffs.items():
            for e2, c2 in other.coeffs.items():
                e = tuple(a + b for a, b in zip(e1, e2))
                s = out.get(e, Fraction(0)) + c1 * c2
                if s == 0:
                    out.pop(e, None)
                else:
                    out[e] = s
        return Poly(self.nvars, out)

    __rmul__ = __mul__

    def __pow__(self, k: int) -> "Poly":
        if k < 0:
            raise ValueError("negative power")
        result = Poly.constant(self.nvars, 1)
        base = self
        while k:
            if k & 1:
                result = result * base
            base = base * base
            k >>= 1
        return result

    # -- structure -----------------------------------------------------

    def degree(self) -> int:
        if not self.coeffs:
            return 0
        return max(sum(e) for e in self.coeffs)

    def is_homogeneous(self) -> bool:
        degs = {sum(e) for e in self.coeffs}
        return len(degs) <= 1

    def constant_term(self) -> Fraction:
        return self.coeffs.get(tuple([0] * self.nvars), Fraction(0))

    def is_constant(self) -> bool:
        return all(not any(e) for e in self.coeffs)

    def content_exponents(self) -> tuple[int, ...]:
        """Componentwise minimum exponent over the support (zero poly -> zeros)."""
        if not self.coeffs:
            return tuple([0] * self.nvars)
        mins = [min(e[i] for e in self.coeffs) for i in range(self.nvars)]
        return tuple(mins)

    def divide_monomial(self, exps: tuple[int, ...]) -> "Poly":
        out = {}
        for e, c in self.coeffs.items():
            d = tuple(a - b for a, b in zip(e, exps))
            if any(x < 0 for x in d):
                raise ValueError("monomial does not divide polynomial")
            out[d] = c
        return Poly(self.nvars, out)

    def support(self) -> list[tuple[int, ...]]:
        return sorted(self.coeffs)

    # -- substitutions ---------------------------------------------------

    def rescale_subset(self, subset: Iterable[int], l: int) -> "Poly":
        """Apply x_i -> x_l * x_i for all i in ``subset`` except ``l`` itself.

        On exponent vectors this sends m_l to the sum of m_j over the subset,
        leaving all other entries alone.
        """
        sub = set(subset)
        if l not in sub:
            raise ValueError("pivot must belong to the substituted subset")
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.coeffs.items():
            m = list(e)
            m[l] = sum(e[j] for j in sub)
            key = tuple(m)
            out[key] = out.get(key, Fraction(0)) + c
        return Poly(self.nvars, out)

    def set_one_and_drop(self, i: int) -> "Poly":
        """Substitute x_i = 1 and remove the variable slot (nvars shrinks by one)."""
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.coeffs.items():
            key = e[:i] + e[i + 1:]
            s = out.get(key, Fraction(0)) + c
            if s == 0:
                out.pop(key, None)
            else:
                out[key] = s
        return Poly(self.nvars - 1, out)

    def set_zero(self, i: int) -> "Poly":
        """Substitute x_i = 0 (variable slot is kept for index stability)."""
        out = {e: c for e, c in self.coeffs.items() if e[i] == 0}
        return Poly(self.nvars, out)

    def derivative(self, i: int) -> "Poly":
        out: dict[tuple[int, ...], Fraction] = {}
        for e, c in self.coeffs.items():
            if e[i] == 0:
                continue
            m = list(e)
            m[i] -= 1
            out[tuple(m)] = c * e[i]
        return Poly(self.nvars, out)

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
