"""Exact sector integrands, pole extraction and series expansion.

:class:`SectorIntegrand` is the one exact integrand type: an eps-rational
prefactor times per-variable monomials x_i^(a_i + b_i*eps) and factor
polynomials raised to d_j + f_j*eps, over the unit hypercube.  It serves as
a sector of the decomposition, as a piece of its pole extraction and as a
term of a Taylor coefficient.

A monomialised sector (every factor with positive constant term) is first
split exactly: for every variable with a_i <= -1 each Taylor coefficient of
the factor product in that variable is integrated with 1/(a+p+1+b*eps), and
subtracted again by a counter piece.  A pole piece keeps the integrated
variable with exponent 0, since its value is the exact x_i integral times
the unit integral over x_i.  A piece alone may be singular, but the pieces
of one sector sum to an integrable integrand.  Pieces are then expanded
order by order in eps into sums of terms built from integer powers of the
variables and factor polynomials and nonnegative powers of their
logarithms - the closure class of rational functions and logarithms of
rational functions with rational coefficients.  The terms of one sector and
order are normalised together in :class:`FiniteIntegrand`, where the Taylor
subtractions take effect.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction
from math import factorial
from math import log as _mlog

import numpy as np

from .epsilon import EpsExponent, EpsRat
from .errors import DivergenceError, FeynsecError
from .poly import Poly

_ONE = EpsRat.constant(1)
_INTEGRATED = EpsExponent(0, 0)


def _merge_factors(factors):
    """Canonical factor list; like polynomials merge, zero exponents drop."""
    acc: dict = {}
    for q, exp in factors:
        acc[q] = acc[q] + exp if q in acc else exp
    return tuple((q, exp) for q, exp in sorted(acc.items()) if exp.a or exp.b)


@dataclass(frozen=True)
class SectorIntegrand:
    """pref * prod x_i^monomials[i] * prod Q^exp over the unit hypercube.

    ``monomials`` holds one EpsExponent per variable and ``factors`` the
    (Poly, EpsExponent) pairs.  Factor polynomials of a sector carry no
    monomial content; the content lives in the per-variable exponents.
    """

    monomials: tuple
    factors: tuple
    pref: EpsRat = _ONE

    @property
    def nvars(self) -> int:
        return len(self.monomials)

    def is_monomialised(self) -> bool:
        return all(q.constant_term() != 0 for q, _ in self.factors)

    def first_open_factor(self) -> int | None:
        for k, (q, _) in enumerate(self.factors):
            if q.constant_term() == 0:
                return k
        return None


# ---------------------------------------------------------------------------
# exact pole extraction
# ---------------------------------------------------------------------------

def _dx_factor_terms(terms, i):
    """d/dx_i of a list of product terms."""
    out = []
    for t in terms:
        for k, (q, exp) in enumerate(t.factors):
            dq = q.derivative(i)
            if not dq:
                continue
            new = list(t.factors)
            new[k] = (q, exp + EpsExponent(-1, 0))
            new.append((dq, EpsExponent(1, 0)))
            out.append(SectorIntegrand(t.monomials, _merge_factors(new),
                                       t.pref.mul_linear(exp.a, exp.b)))
    return out


def _set_zero_terms(terms, i):
    """Substitute x_i = 0; dead terms vanish, constant factors fold."""
    out = []
    for t in terms:
        pref = t.pref
        dead = False
        new = []
        for q, exp in t.factors:
            q0 = q.set_zero(i)
            if not q0:
                dead = True
                break
            if q0.is_constant():
                c = q0.constant_term()
                if c == 1:
                    continue
                if exp.a:
                    pref = pref * (c ** exp.a)
                if exp.b:
                    new.append((Poly.constant(q.nvars, c), EpsExponent(0, exp.b)))
                continue
            new.append((q0, exp))
        if not dead:
            out.append(SectorIntegrand(t.monomials, _merge_factors(new), pref))
    return out


def extract_poles(sector: SectorIntegrand) -> list[SectorIntegrand]:
    """Split a monomialised sector into pieces that sum to it.

    Variables are processed in ascending index order.  For a variable x_i
    with monomial exponent a + b*eps and a <= -1, every term c of the order
    p < |a| Taylor coefficient of the factor product at x_i = 0 yields two
    pieces: the pole piece c/(p! (a+p+1+b*eps)), its exact x_i integral
    with x_i at exponent 0, and the counter piece -c/p! x_i^(a+p+b*eps),
    which subtracts it again.  The parent piece passes on unchanged; with
    its counter pieces it is integrable in x_i.  Terms whose Taylor
    coefficient vanishes are dropped before the ``b = 0`` divergence check
    fires.
    """
    pieces = [replace(sector, factors=_merge_factors(sector.factors))]
    for i in range(sector.nvars):
        nxt: list[SectorIntegrand] = []
        for piece in pieces:
            nxt.append(piece)
            exp = piece.monomials[i]
            if exp.a >= 0:
                continue
            a, b = exp.a, exp.b
            depth = -a
            terms = [piece]
            before, after = piece.monomials[:i], piece.monomials[i + 1:]
            integrated = before + (_INTEGRATED,) + after
            for p in range(depth):
                coeff_terms = _set_zero_terms(terms, i)
                if coeff_terms and a + p + 1 == 0 and b == 0:
                    raise DivergenceError(
                        f"variable {i} carries x^{a} with no eps regulator")
                inv_fact = Fraction(1, factorial(p))
                counter = before + (exp.shift(p),) + after
                for t in coeff_terms:
                    nxt.append(SectorIntegrand(
                        integrated, t.factors,
                        t.pref * inv_fact * EpsRat.linear_inverse(a + p + 1, b)))
                    nxt.append(SectorIntegrand(counter, t.factors, t.pref * -inv_fact))
                if p + 1 < depth:
                    terms = _dx_factor_terms(terms, i)
                    if not terms:
                        break
        pieces = nxt
    return pieces


# ---------------------------------------------------------------------------
# expansion terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Term:
    """coeff * prod x_i^xpows * prod log(x_i)^xlogs * prod Q^d * prod log(Q)^c."""

    coeff: Fraction
    xpows: tuple
    xlogs: tuple
    fpows: tuple  # ((Poly, int), ...)
    flogs: tuple  # ((Poly, int), ...)

    def key(self):
        return (self.xpows, self.xlogs, self.fpows, self.flogs)

    def scaled(self, c) -> "Term":
        return replace(self, coeff=self.coeff * c)


def _normalize_terms(terms) -> tuple:
    """Fold constants, expand positive factor powers into monomials, merge
    identical terms, drop exact zeros.

    After normalization only inverse factor powers remain, so denominators
    are explicit and cancellations between subtraction terms happen exactly.
    """
    folded = []
    for t in terms:
        coeff = t.coeff
        fpows, flogs = [], []
        numerator = None
        dead = False
        for q, d in t.fpows:
            if d == 0:
                continue
            if q.is_constant():
                coeff *= q.constant_term() ** d
            elif d > 0:
                power = q ** d
                numerator = power if numerator is None else numerator * power
            else:
                fpows.append((q, d))
        for q, c in t.flogs:
            if c == 0:
                continue
            if q.is_constant():
                if q.constant_term() == 1:
                    dead = True  # log 1 = 0 kills the term exactly
                    break
                flogs.append((q, c))
            else:
                flogs.append((q, c))
        if dead or coeff == 0:
            continue
        fpows.sort()
        flogs.sort()
        base = replace(t, coeff=coeff, fpows=tuple(fpows), flogs=tuple(flogs))
        if numerator is None:
            folded.append(base)
        else:
            for exps, c in numerator.coeffs.items():
                xp = tuple(p + e for p, e in zip(base.xpows, exps))
                folded.append(replace(base, coeff=base.coeff * c, xpows=xp))
    acc: dict = {}
    for t in folded:
        k = t.key()
        if k in acc:
            acc[k] = replace(acc[k], coeff=acc[k].coeff + t.coeff)
        else:
            acc[k] = t
    return tuple(sorted((t for t in acc.values() if t.coeff != 0), key=Term.key))


def expand_piece(piece: SectorIntegrand, target_order: int) -> dict[int, list]:
    """Laurent-expand a piece; returns {order: list of unnormalised Terms}.

    The terms are normalised only once all pieces of the sector have been
    expanded, by :class:`FiniteIntegrand`.
    """
    if piece.pref.is_zero():
        return {}
    low = piece.pref.lowest_order()
    if low > target_order:
        return {}
    depth = target_order - low

    xpows = tuple(m.a for m in piece.monomials)
    zero = tuple(0 for _ in piece.monomials)
    fpows = tuple((q, exp.a) for q, exp in piece.factors if exp.a != 0)
    base = Term(coeff=Fraction(1), xpows=xpows, xlogs=zero, fpows=fpows, flogs=())
    series: dict[int, list[Term]] = {0: [base]}

    # log sources from x_i^{b*eps} factors
    for i, m in enumerate(piece.monomials):
        if m.b == 0:
            continue
        series = _convolve_log(series, depth, m.b,
                               lambda t, k, i=i: replace(
                                   t, xlogs=t.xlogs[:i] + (t.xlogs[i] + k,) + t.xlogs[i + 1:]))
    # log sources from Q^{f*eps} factors
    for q, exp in piece.factors:
        if exp.b == 0:
            continue
        series = _convolve_log(series, depth, exp.b,
                               lambda t, k, q=q: replace(t, flogs=t.flogs + ((q, k),)))

    laurent = piece.pref.laurent(target_order)
    out: dict[int, list[Term]] = {}
    for o, c in laurent.items():
        if c == 0:
            continue
        for k, terms in series.items():
            if o + k > target_order:
                continue
            out.setdefault(o + k, []).extend(t.scaled(c) for t in terms)
    return out


def _convolve_log(series, depth, weight, attach):
    """Multiply a truncated series by exp(weight*eps*L), attaching L-powers."""
    out: dict[int, list[Term]] = {}
    for k0, terms in series.items():
        for k in range(0, depth - k0 + 1):
            c = Fraction(weight) ** k / factorial(k)
            for t in terms:
                nt = attach(t, k) if k else t
                out.setdefault(k0 + k, []).append(nt.scaled(c) if k else nt)
    return out


# ---------------------------------------------------------------------------
# the finite integrand container
# ---------------------------------------------------------------------------

class FiniteIntegrand:
    """Sum of Terms over the closed unit hypercube.

    Structural contract: every inverted or logarithm-taken factor polynomial
    has a strictly positive constant term and nonnegative coefficients, so
    denominators are bounded away from zero and logarithms stay finite in
    the open cube; integrability of the full sum is guaranteed by the
    Taylor-subtraction construction.
    """

    def __init__(self, nvars: int, terms):
        self.nvars = nvars
        self.terms = _normalize_terms(terms)
        self.structural_check()

    def __len__(self):
        return len(self.terms)

    def structural_check(self):
        for t in self.terms:
            for q, d in t.fpows:
                if d < 0:
                    if q.constant_term() <= 0:
                        raise FeynsecError(
                            f"inverted factor without positive constant term: {q.as_string()}")
                    if any(c < 0 for c in q.coeffs.values()):
                        raise FeynsecError(
                            f"inverted factor with mixed-sign coefficients: {q.as_string()}")
            for q, _c in t.flogs:
                if q.is_constant():
                    if q.constant_term() <= 0:
                        raise FeynsecError("logarithm of a nonpositive constant")
                elif q.constant_term() <= 0 or any(c < 0 for c in q.coeffs.values()):
                    raise FeynsecError(
                        f"logarithm factor not bounded inside the cube: {q.as_string()}")

    def exact_value(self) -> Fraction | None:
        """Exact rational value if the integrand is a rational constant."""
        total = Fraction(0)
        for t in self.terms:
            if any(t.xpows) or any(t.xlogs) or t.fpows or t.flogs:
                return None
            total += t.coeff
        return total

    def compile(self):
        """Vectorized evaluator mapping an (n, nvars) array to an (n,) array."""
        polys = {q for t in self.terms for q, _k in t.fpows + t.flogs if not q.is_constant()}
        plan = []
        for t in self.terms:
            coeff = float(t.coeff)
            flogs = []
            for q, c in t.flogs:
                if q.is_constant():
                    coeff *= _mlog(float(q.constant_term())) ** c
                else:
                    flogs.append((q, c))
            plan.append((coeff, t.xpows, t.xlogs, t.fpows, tuple(flogs)))

        def evaluate(x: np.ndarray) -> np.ndarray:
            n = x.shape[0]
            pvals = {q: q.eval_array(x) for q in polys}
            need_logx = any(any(xl) for _c, _xp, xl, _fp, _fl in plan)
            logx = np.log(x) if (need_logx and x.shape[1]) else None
            plogs = {}
            total = np.zeros(n)
            for coeff, xp, xl, fp, fl in plan:
                v = np.full(n, coeff)
                for i, p in enumerate(xp):
                    if p:
                        v = v * x[:, i] ** p
                for i, k in enumerate(xl):
                    if k:
                        v = v * logx[:, i] ** k
                for q, d in fp:
                    v = v * pvals[q] ** d
                for q, c in fl:
                    if q not in plogs:
                        plogs[q] = np.log(pvals[q])
                    v = v * plogs[q] ** c
                total += v
            return total

        return evaluate
