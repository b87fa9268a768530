"""Analytic values the benchmark checks the pipeline against.

Computed with mpmath, apart from the program: nothing here imports
``feynsec``, so a fault in its polylogarithm layer cannot hide a fault in
the pipeline.
"""

from __future__ import annotations

import mpmath

DPS = 30


def kite_eps0() -> float:
    """Massless 2-loop kite, p^2 = -1: eps^0 = 6 zeta(3)."""
    with mpmath.workdps(DPS):
        return float(6 * mpmath.zeta(3))


def ladder3_eps0() -> float:
    """Massless 3-loop ladder propagator, p^2 = -1: eps^0 = 20 zeta(5)."""
    with mpmath.workdps(DPS):
        return float(20 * mpmath.zeta(5))


def bubble(upto: int) -> dict:
    """Massless bubble, p^2 = -1, in the pipeline's normalisation:
    Gamma(1-eps)^2 / Gamma(2-2eps), orders 0..upto."""
    f = lambda e: mpmath.gamma(1 - e) ** 2 / mpmath.gamma(2 - 2 * e)
    with mpmath.workdps(DPS):
        return {k: float(c) for k, c in enumerate(mpmath.taylor(f, 0, upto))}


def double_box(s: int, t: int, upto: int) -> dict:
    """Massless planar double box (Smirnov, hep-ph/9905323), orders -4..upto.

    (-s)^(-2eps) e^(-2 gamma_E eps) / (Gamma(3+2eps) (-s)^2 (-t))
        * [4/eps^4 - 5 ln x/eps^3 + (2 ln^2 x - 5 pi^2/2)/eps^2],  x = t/s,

    with the prefactor expanded as a Taylor series in eps.  Only the three
    pole orders -4..-2 are known in this form, so ``upto`` is at most -2.
    """
    if not -4 <= upto <= -2:
        raise ValueError("the closed form gives orders -4..-2 only")
    with mpmath.workdps(DPS):
        s, t = mpmath.mpf(s), mpmath.mpf(t)
        lx = mpmath.log(t / s)
        pref = lambda e: ((-s) ** (-2 * e) * mpmath.exp(-2 * mpmath.euler * e)
                          / (mpmath.gamma(3 + 2 * e) * s ** 2 * (-t)))
        p = mpmath.taylor(pref, 0, upto + 4)
        bracket = [mpmath.mpf(4), -5 * lx, 2 * lx ** 2 - 5 * mpmath.pi ** 2 / 2]
        return {k - 4: float(sum(bracket[i] * p[k - i] for i in range(k + 1)))
                for k in range(upto + 5)}
