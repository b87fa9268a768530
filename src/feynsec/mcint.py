"""Randomised rank-1 lattice quasi-Monte Carlo over the open unit hypercube,
and the Laurent series container the pipeline assembles its results into.

A call spends ``samples`` evaluations as SHIFTS independent random shifts
of one rank-1 lattice of n = samples // SHIFTS points (fewer shifts when
``samples`` is below SHIFTS).  The lattice is a Korobov lattice whose
generating vector (1, a, a^2, ...) mod n minimises the P_2 criterion with
unit weights; it is found by search at run time and cached per (n, dim).
The Korobov degree-1 transform x = u^2 (3 - 2u), with weight
prod 6u(1-u), periodises the integrand while keeping x of order u^2 near
the faces, where the subtracted sector integrands cancel.  Each shift
estimates the integral as sum(w f) / sum(w), which is exact for a constant
integrand; the estimate is the mean over shifts and its error is their
standard deviation over sqrt(SHIFTS).  With 16 shifts (on x) or with the
tent transform (on log x), the truth fell within three quoted errors in
fewer than 99 percent of 1000 seeded runs of 1000 samples.
Sources: Li, Wang, Yan, Zhao, arXiv:1508.02512; Borowka et al.,
arXiv:1811.11720.

Determinism contract: the shifts are drawn from a substream keyed by
(master seed, stream id) via a counter-based generator, so results are
bit-identical for a fixed configuration regardless of evaluation order or
worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

import numpy as np

from .errors import IntegrandEvaluationError

SHIFTS = 32             # random shifts per integral; their spread is the error
_CHUNK = 1 << 15        # most points handed to the integrand in one call
_CANDIDATES = 256       # most Korobov parameters the P_2 search tries


@dataclass(frozen=True)
class MCConfig:
    samples: int = 100_000
    seed: int = 1

    def __post_init__(self):
        if self.samples < 2:
            raise ValueError("variance estimation needs at least two samples")


@dataclass(frozen=True)
class MCEstimate:
    mean: float
    error: float
    samples: int


def _open_uniform(rng: np.random.Generator, shape) -> np.ndarray:
    """Uniform draws in the open interval (0, 1); exact zeros are redrawn."""
    x = rng.random(shape)
    while True:
        zero = x == 0.0
        if not zero.any():
            return x
        x[zero] = rng.random(int(zero.sum()))


@lru_cache(maxsize=None)
def korobov_vector(n: int, dim: int) -> tuple[int, ...]:
    """Generating vector (1, a, a^2, ...) mod n of a Korobov lattice.

    ``a`` minimises the worst-case error P_2 with unit weights,
    -1 + mean_k prod_j (1 + 2 pi^2 B_2({k z_j / n})), over the parameters
    coprime to n up to n/2, or over an evenly spaced subset of _CANDIDATES
    of them when there are more.
    """
    candidates = [a for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1]
    if dim < 2 or len(candidates) < 2:
        return (1,) * dim
    if len(candidates) > _CANDIDATES:
        candidates = [candidates[i * len(candidates) // _CANDIDATES] for i in range(_CANDIDATES)]
    t = np.arange(n) / n
    kernel = 1.0 + 2.0 * math.pi ** 2 * (t * t - t + 1.0 / 6.0)
    k = np.arange(n, dtype=np.int64)
    best, best_a = math.inf, 1
    for a in candidates:
        idx = k
        prod = kernel.copy()
        for _ in range(dim - 1):
            idx = idx * a % n
            prod *= kernel[idx]
        p2 = float(prod.mean())
        if p2 < best:
            best, best_a = p2, a
    return tuple(pow(best_a, j, n) for j in range(dim))


def _draw_shifts(rng: np.random.Generator, shifts: int, dim: int, n: int) -> np.ndarray:
    """Open-uniform shifts, redrawn where a lattice coordinate j/n plus the
    shift would round onto a face of the cube.

    Every coordinate of the lattice takes the values j/n, j = 0..n-1, and
    j/n + d can round to 1 only for the j nearest to n (1 - d).
    """
    delta = _open_uniform(rng, (shifts, dim))
    while True:
        on_face = np.rint(n * (1.0 - delta)) / n + delta == 1.0
        if not on_face.any():
            return delta
        delta[on_face] = _open_uniform(rng, int(on_face.sum()))


def integrate(f, dim: int, cfg: MCConfig, stream_id: int) -> MCEstimate:
    """Randomised rank-1 lattice estimate of the integral of ``f`` over the
    unit hypercube.

    ``f`` maps an (n, dim) array to an (n,) array.  ``samples`` on the
    returned estimate is the number of points evaluated: shifts times
    lattice points, which is ``cfg.samples`` for every power of two from
    SHIFTS up.  Deterministic given (cfg, stream_id).
    """
    rng = np.random.Generator(np.random.Philox(
        key=np.array([cfg.seed % (1 << 64), stream_id % (1 << 64)], dtype=np.uint64)))
    shifts = min(SHIFTS, cfg.samples)
    n = cfg.samples // shifts
    delta = _draw_shifts(rng, shifts, dim, n)
    z = np.array(korobov_vector(n, dim), dtype=np.int64)
    lattice = (z[:, None] * np.arange(n, dtype=np.int64) % n) / n     # (dim, n)
    per_call = max(1, _CHUNK // n)      # whole shifts per call of f
    span = min(n, _CHUNK)               # lattice points per call of f
    estimates = np.empty(shifts)
    for s in range(0, shifts, per_call):
        group = delta[s:s + per_call].T
        num = np.zeros(group.shape[1])
        den = np.zeros(group.shape[1])
        for p in range(0, n, span):
            # shifted points, (dim, shifts, points): each sum lies in [0, 2),
            # so subtracting 1 where it reaches 1 leaves its fractional part
            u = lattice[:, None, p:p + span] + group[:, :, None]
            u -= u >= 1.0
            w = np.prod(6.0 * u * (1.0 - u), axis=0)
            x = (u * u * (3.0 - 2.0 * u)).reshape(dim, w.size).T
            values = np.asarray(f(x), dtype=float)
            if not np.isfinite(values).all():
                bad = int(np.flatnonzero(~np.isfinite(values))[0])
                raise IntegrandEvaluationError(
                    f"non-finite integrand value at sample point {x[bad].tolist()}")
            num += (w * values.reshape(w.shape)).sum(axis=1)
            den += w.sum(axis=1)
        estimates[s:s + group.shape[1]] = num / den
    return MCEstimate(mean=float(estimates.mean()),
                      error=float(estimates.std(ddof=1)) / math.sqrt(shifts),
                      samples=shifts * n)


class EpsSeries:
    """Truncated Laurent series; coefficients are exact rationals or
    (estimate, statistical error) pairs."""

    def __init__(self):
        self._coeffs: dict[int, tuple] = {}

    @classmethod
    def from_contributions(cls, contributions, lowest: int | None = None,
                           highest: int | None = None) -> "EpsSeries":
        """Sum (order, MCEstimate | Fraction) contributions per order.

        Statistical errors combine in quadrature; exact contributions carry
        zero error.  Orders between ``lowest`` and ``highest`` are filled in
        with exact zeros.
        """
        series = cls()
        exact: dict[int, Fraction] = {}
        approx: dict[int, tuple[float, float]] = {}
        for order, value in contributions:
            if isinstance(value, MCEstimate):
                mean, err2 = approx.get(order, (0.0, 0.0))
                approx[order] = (mean + value.mean, err2 + value.error ** 2)
            else:
                exact[order] = exact.get(order, Fraction(0)) + Fraction(value)
        orders = set(exact) | set(approx)
        if lowest is not None and highest is not None:
            orders |= set(range(lowest, highest + 1))
        for order in sorted(orders):
            if order in approx:
                mean, err2 = approx[order]
                mean += float(exact.get(order, 0))
                series._coeffs[order] = (mean, math.sqrt(err2), False)
            else:
                series._coeffs[order] = (exact.get(order, Fraction(0)), 0.0, True)
        return series

    @classmethod
    def from_json(cls, text: str) -> "EpsSeries":
        """Read the ``series`` object of ``feynsec evaluate --format json``.

        Values come back as floats; a coefficient with zero error counts as
        exact.
        """
        series = cls()
        for key, (value, err) in json.loads(text)["series"].items():
            series._coeffs[int(key)] = (value, err, err == 0.0)
        return series

    def orders(self) -> list[int]:
        return sorted(self._coeffs)

    def coefficient(self, order: int):
        """(value, error, is_exact); value is Fraction when exact."""
        return self._coeffs.get(order, (Fraction(0), 0.0, True))

    def value(self, order: int) -> float:
        return float(self._coeffs.get(order, (0.0,))[0])

    def error(self, order: int) -> float:
        return float(self._coeffs.get(order, (0.0, 0.0))[1])

    def __eq__(self, other):
        if not isinstance(other, EpsSeries):
            return NotImplemented
        if self.orders() != other.orders():
            return False
        for o in self.orders():
            a, b = self._coeffs[o], other._coeffs[o]
            if float(a[0]) != float(b[0]) or a[1] != b[1] or a[2] != b[2]:
                return False
        return True

    def as_rows(self) -> list[tuple[int, float, float]]:
        return [(o, float(v), e) for o, (v, e, _x) in sorted(self._coeffs.items())]

    def __repr__(self):
        rows = ", ".join(f"eps^{o}: {float(v):.6g} +- {e:.2g}" for o, (v, e, _x) in sorted(self._coeffs.items()))
        return f"EpsSeries({rows})"

