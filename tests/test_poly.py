import random
from fractions import Fraction

import pytest

from feynsec.poly import Poly


def test_basic_arithmetic():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    p = (x + y) * (x - y)
    assert p == x * x - y * y
    assert (x + y) ** 2 == x * x + 2 * x * y + y * y
    assert (p - p) == Poly(2, {})
    assert not (p - p)


def test_zero_coefficients_not_stored():
    x = Poly.variable(1, 0)
    p = x - x
    assert p.coeffs == {}
    q = Poly(1, {(1,): Fraction(1, 2), (0,): 0})
    assert (0,) not in q.coeffs


def test_rescale_subset_exponent_map():
    # x0 -> x0, x1 -> x0*x1 on x0^2 + x1^2
    p = Poly(2, {(2, 0): 1, (0, 2): 1})
    q = p.rescale_subset([0, 1], 0)
    assert q == Poly(2, {(2, 0): 1, (2, 2): 1})


def test_rescale_is_injective_no_collisions():
    rng = random.Random(0)
    for _ in range(50):
        n = rng.randint(2, 4)
        exps = {tuple(rng.randint(0, 3) for _ in range(n)) for _ in range(6)}
        p = Poly(n, {e: rng.randint(1, 5) for e in exps})
        subset = sorted(rng.sample(range(n), rng.randint(2, n)))
        l = rng.choice(subset)
        q = p.rescale_subset(subset, l)
        assert len(q.coeffs) == len(p.coeffs)
        assert sum(q.coeffs.values()) == sum(p.coeffs.values())


def test_content_and_division():
    p = Poly(2, {(2, 1): 2, (3, 2): 5})
    assert p.content_exponents() == (2, 1)
    q = p.divide_monomial((2, 1))
    assert q == Poly(2, {(0, 0): 2, (1, 1): 5})
    with pytest.raises(ValueError):
        q.divide_monomial((1, 0))


def test_set_one_and_drop_merges():
    p = Poly(2, {(1, 0): 1, (2, 0): 1, (0, 1): 3})
    q = p.set_one_and_drop(0)
    assert q == Poly(1, {(0,): 2, (1,): 3})


def test_derivative_and_eval():
    p = Poly(2, {(2, 1): Fraction(3, 2)})
    assert p.derivative(0) == Poly(2, {(1, 1): 3})
    assert p.derivative(1) == Poly(2, {(2, 0): Fraction(3, 2)})
    assert p.eval_exact([Fraction(2), Fraction(3)]) == Fraction(3, 2) * 4 * 3


def test_eval_array_matches_exact():
    import numpy as np
    rng = random.Random(1)
    p = Poly(3, {(1, 0, 2): Fraction(1, 3), (0, 2, 0): -2, (0, 0, 0): 5})
    pts = np.array([[rng.random() for _ in range(3)] for _ in range(10)])
    vals = p.eval_array(pts)
    for row, v in zip(pts, vals):
        exact = float(p.eval_exact([Fraction(x).limit_denominator(10 ** 12) for x in row]))
        assert abs(exact - v) < 1e-9


def test_order_is_total_and_independent_of_construction():
    x = Poly.variable(2, 0)
    y = Poly.variable(2, 1)
    polys = [1 + x, 1 + y, x * y + Fraction(1, 2), 2 + x, 1 + x + y]
    rebuilt = [Poly(2, dict(reversed(list(q.coeffs.items())))) for q in polys]
    assert sorted(polys) == sorted(rebuilt)
    assert sorted(polys) == sorted(reversed(polys))
    for a in polys:
        for b in polys:
            assert (a < b) + (b < a) + (a == b) == 1
    assert len({q: None for q in polys + rebuilt}) == len(polys)


def _random_poly(rng, n):
    """Small exponents and coefficients, half of them Fractions (some of
    them integral), so that sums and products cancel and merge often."""
    coeffs = {}
    for _ in range(rng.randint(0, 6)):
        exps = tuple(rng.randint(0, 2) for _ in range(n))
        c = rng.choice([rng.randint(-2, 2), Fraction(rng.randint(-4, 4), rng.choice([1, 2, 3]))])
        coeffs[exps] = c
    return Poly(n, coeffs)


def _assert_canonical(p):
    assert p == Poly(p.nvars, dict(p.coeffs))
    for c in p.coeffs.values():
        assert c != 0
        assert type(c) is int or (type(c) is Fraction and c.denominator != 1), repr(c)
    assert type(p.constant_term()) is Fraction


def test_internal_operations_give_canonical_coefficients():
    """Every operation's result is what the validating constructor makes of
    its coefficients: no zeros, integral values as int (never a bool or an
    integral Fraction), the rest as Fraction."""
    rng = random.Random(7)
    for _ in range(300):
        n = rng.randint(1, 4)
        p, q = _random_poly(rng, n), _random_poly(rng, n)
        i = rng.randrange(n)
        subset = sorted(rng.sample(range(n), rng.randint(1, n)))
        scalar = rng.choice([0, 3, -1, True, Fraction(2, 1), Fraction(1, 2), Fraction(-4, 3)])
        results = [p + q, p - q, p - p, p + 1, 1 + -p, -p, p * q, p * scalar, scalar * p,
                   p ** rng.randint(0, 3), p.rescale_subset(subset, rng.choice(subset)),
                   p.set_one_and_drop(i) if n > 1 else p, p.set_zero(i), p.derivative(i),
                   p.divide_monomial(p.content_exponents())]
        for r in results:
            _assert_canonical(r)
        assert p * q == q * p and (p + q) - q == p
        assert p * scalar == p * Poly.constant(n, scalar)


def test_integral_fraction_and_int_coefficients_are_one_value():
    a = Poly(1, {(0,): Fraction(2)})
    b = Poly(1, {(0,): 2})
    assert a == b and hash(a) == hash(b)
    assert type(a.coeffs[(0,)]) is int
    assert type(Poly(1, {(1,): True}).coeffs[(1,)]) is int
    assert Poly(1, {(0,): Fraction(1, 2), (1,): 1}) * 2 == Poly(1, {(0,): 1, (1,): 2})
    c = Poly.constant(2, 3).constant_term()
    assert type(c) is Fraction and type(c ** -2) is Fraction and c ** -2 == Fraction(1, 9)
