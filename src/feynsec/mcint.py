"""Seeded plain Monte Carlo over the open unit hypercube, and the Laurent
series container the pipeline assembles its results into.

Determinism contract: a substream is keyed by (master seed, stream id) via a
counter-based generator, so results are bit-identical for a fixed
configuration regardless of evaluation order or worker count.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from .errors import IntegrandEvaluationError

_BATCH = 1 << 17


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


def integrate(f, dim: int, cfg: MCConfig, stream_id: int) -> MCEstimate:
    """Plain MC estimate of the integral of ``f`` over the unit hypercube.

    ``f`` maps an (n, dim) array to an (n,) array.  Deterministic given
    (cfg, stream_id).
    """
    rng = np.random.Generator(np.random.Philox(key=[cfg.seed % (1 << 64), stream_id % (1 << 64)]))
    n = cfg.samples
    total = 0.0
    total_sq = 0.0
    done = 0
    while done < n:
        batch = min(_BATCH, n - done)
        x = _open_uniform(rng, (batch, dim)) if dim else np.zeros((batch, 0))
        values = np.asarray(f(x), dtype=float)
        if not np.isfinite(values).all():
            bad = int(np.flatnonzero(~np.isfinite(values))[0])
            raise IntegrandEvaluationError(
                f"non-finite integrand value at sample point {x[bad].tolist()}")
        total += float(values.sum())
        total_sq += float((values * values).sum())
        done += batch
    mean = total / n
    var = max(total_sq / n - mean * mean, 0.0) * n / (n - 1)
    return MCEstimate(mean=mean, error=math.sqrt(var / n), samples=n)


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

