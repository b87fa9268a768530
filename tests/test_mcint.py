"""Monte Carlo sampler suite: examples, determinism, assembly, error honesty."""

import math
from fractions import Fraction

import numpy as np
import pytest

from feynsec.errors import IntegrandEvaluationError
from feynsec.mcint import EpsSeries, MCConfig, MCEstimate, _draw_shifts, integrate, korobov_vector


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
    # every seed is a distinct 64-bit key, also negative ones and ones above 2^63
    for s1, s2 in ((-1, 0), (1 << 63, (1 << 63) + 5)):
        d1 = integrate(lambda x: np.sin(x[:, 0]) * x[:, 1], 2, MCConfig(50_000, s1), 11)
        d2 = integrate(lambda x: np.sin(x[:, 0]) * x[:, 1], 2, MCConfig(50_000, s2), 11)
        assert d1 != d2, (s1, s2)


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


def test_lattice_error_on_smooth_integrand():
    """A log of a polynomial positive on the cube, as sector integrands
    carry: the quoted error at 2^16 points is below 1e-6 relative."""
    truth = 3 * (2 * math.log(2) - 1)
    est = integrate(lambda x: np.log(np.prod(1 + x, axis=1)), 3,
                    MCConfig(samples=1 << 16, seed=1), 0)
    assert est.error < 1e-6 * truth
    assert abs(est.mean - truth) < 5 * est.error


def test_samples_counts_every_evaluation():
    seen = []

    def f(x):
        seen.append(x.shape[0])
        return x[:, 0]

    for k in range(5, 17):
        seen.clear()
        cfg = MCConfig(samples=1 << k, seed=1)
        est = integrate(f, 2, cfg, 0)
        assert est.samples == cfg.samples == sum(seen)


def test_generating_vector_is_reproducible():
    first = {(n, dim): korobov_vector(n, dim) for n in (64, 1000, 4096) for dim in (1, 3, 6)}
    korobov_vector.cache_clear()
    for (n, dim), z in first.items():
        assert korobov_vector(n, dim) == z
        assert len(z) == dim and z[0] == 1
        a = z[1] if dim > 1 else 1
        assert all(zj == pow(a, j, n) for j, zj in enumerate(z))
        assert all(math.gcd(zj, n) == 1 for zj in z)


def test_generating_vector_minimises_p2():
    """Against P_2 summed point by point, over every candidate parameter."""
    n, dim = 64, 3

    def p2(a):
        total = 0.0
        for k in range(n):
            term = 1.0
            for j in range(dim):
                t = (k * pow(a, j, n) % n) / n
                term *= 1 + 2 * math.pi ** 2 * (t * t - t + 1 / 6)
            total += term
        return total / n - 1

    scores = {a: p2(a) for a in range(1, n // 2 + 1) if math.gcd(a, n) == 1}
    chosen = korobov_vector(n, dim)[1]
    assert scores[chosen] <= min(scores.values()) * (1 + 1e-12)


def test_no_sample_on_a_face():
    lowest = []

    def f(x):
        lowest.append(x.min())
        return np.ones(x.shape[0])

    for seed in range(1, 21):
        integrate(f, 4, MCConfig(samples=1 << 12, seed=seed), 3)
    assert min(lowest) > 0.0


class _Scripted:
    """Stands in for a generator: returns the given draws in turn."""

    def __init__(self, *draws):
        self.draws = list(draws)

    def random(self, shape):
        return np.array(self.draws.pop(0), dtype=float).reshape(shape)


def test_shift_onto_a_face_is_redrawn():
    # 5/128 + (1 - 5/128) is 1; 5/128 + (1 - 5/128 + 2^-53) rounds to 1
    exact, tie = 1 - 5 / 128, 1 - 5 / 128 + 2.0 ** -53
    shifts = _draw_shifts(_Scripted([[exact, 0.3], [0.7, tie]], [0.2, 0.6]), 2, 2, 128)
    assert shifts.tolist() == [[0.2, 0.3], [0.7, 0.6]]
