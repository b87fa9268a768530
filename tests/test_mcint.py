"""Monte Carlo sampler suite: examples, determinism, assembly, error honesty."""

import math
from fractions import Fraction

import numpy as np
import pytest

from feynsec.errors import IntegrandEvaluationError
from feynsec.mcint import EpsSeries, MCConfig, MCEstimate, integrate


def test_constant_integrand_exact():
    est = integrate(lambda x: np.ones(x.shape[0]), 2, MCConfig(samples=1000, seed=1), 0)
    assert est.mean == 1.0
    assert est.error == 0.0


def test_linear_integrand_within_five_sigma():
    est = integrate(lambda x: x[:, 0], 1, MCConfig(samples=1_000_000, seed=2), 0)
    assert abs(est.mean - 0.5) < 5 * est.error
    assert est.error < 1e-3


def test_log_integrand_within_five_sigma():
    est = integrate(lambda x: np.log(x[:, 0]), 1, MCConfig(samples=1_000_000, seed=3), 0)
    assert abs(est.mean + 1.0) < 5 * est.error


def test_open_cube_sampling_keeps_logs_finite():
    # would raise on any exact-zero coordinate
    integrate(lambda x: np.log(x).sum(axis=1), 3, MCConfig(samples=200_000, seed=4), 7)


def test_nonfinite_sample_detected():
    def bad(x):
        v = np.ones(x.shape[0])
        v[x[:, 0] > 0.5] = np.inf
        return v

    with pytest.raises(IntegrandEvaluationError):
        integrate(bad, 1, MCConfig(samples=1000, seed=5), 0)


def test_determinism_bit_identical():
    cfg = MCConfig(samples=50_000, seed=99)
    a = integrate(lambda x: np.sin(x[:, 0]) * x[:, 1], 2, cfg, 11)
    b = integrate(lambda x: np.sin(x[:, 0]) * x[:, 1], 2, cfg, 11)
    assert a == b
    c = integrate(lambda x: np.sin(x[:, 0]) * x[:, 1], 2, cfg, 12)
    assert c != a  # distinct substreams


def test_config_validation():
    with pytest.raises(ValueError):
        MCConfig(samples=1)


def test_assemble_exact_cancellation():
    series = EpsSeries.from_contributions([(-1, Fraction(1)), (-1, Fraction(-1))])
    assert series.coefficient(-1) == (Fraction(0), 0.0, True)


def test_assemble_quadrature_errors():
    series = EpsSeries.from_contributions([(0, MCEstimate(0.5, 0.001, 10)), (0, MCEstimate(0.5, 0.001, 10))])
    value, err, exact = series.coefficient(0)
    assert value == pytest.approx(1.0)
    assert err == pytest.approx(math.sqrt(2) * 0.001)
    assert not exact


def test_assemble_empty():
    series = EpsSeries.from_contributions([])
    assert series.orders() == []


def test_assemble_fills_contiguous_orders():
    series = EpsSeries.from_contributions([(0, Fraction(1))], lowest=0, highest=2)
    assert series.orders() == [0, 1, 2]
    assert series.coefficient(1) == (Fraction(0), 0.0, True)


def test_assemble_mixed_exact_and_mc():
    series = EpsSeries.from_contributions([(0, Fraction(1, 2)), (0, MCEstimate(0.25, 0.01, 100))])
    value, err, exact = series.coefficient(0)
    assert value == pytest.approx(0.75)
    assert err == pytest.approx(0.01)
    assert not exact


def test_error_honesty_coverage():
    """On analytic integrands the truth lies within three standard errors in
    at least 99 percent of seeded repetitions."""
    cases = [
        (lambda x: x[:, 0], 0.5),
        (lambda x: np.log(x[:, 0]), -1.0),
    ]
    for f, truth in cases:
        hits = 0
        reps = 1000
        for rep in range(reps):
            est = integrate(f, 1, MCConfig(samples=1000, seed=rep + 1), 17)
            if abs(est.mean - truth) <= 3 * est.error:
                hits += 1
        assert hits >= int(0.99 * reps), (truth, hits)
