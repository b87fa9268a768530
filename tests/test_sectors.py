"""Sector decomposition suite.

Numeric oracles are independent quadratures (scipy) of the integrands at
fixed rational values of the regulator, with power substitutions removing
integrable endpoint singularities.
"""

import hashlib
import math
from fractions import Fraction

import numpy as np
import pytest
from scipy import integrate as sci
from scipy.special import roots_legendre

from feynsec.epsilon import EpsExponent, EpsRat
from feynsec.expansion import FiniteIntegrand, expand_piece, extract_poles
from feynsec.graphs import bubble, one_mass_triangle, tadpole, feynman_parametrize
from feynsec.mcint import MCConfig
from feynsec.poly import Poly
from feynsec.errors import DivergenceError, DomainError
from feynsec.sectors import (SectorIntegrand, decompose_graph, iterate_decomposition,
                             decompose_step, pipeline, primary_sectors)

Z2 = math.pi ** 2 / 6


# -- quadrature oracle ---------------------------------------------------------

def sector_quadrature(sector, eps, tol=1e-9):
    """Integrate a sector numerically at a fixed regulator value.

    Each variable is substituted t = u^k with k large enough to absorb the
    endpoint singularity of its monomial exponent.
    """
    exps = [m.at(eps) for m in sector.monomials]
    for a in exps:
        assert a > -1, "not integrable at this regulator value"
    ks = [max(1, math.ceil(1.5 / (a + 1))) for a in exps]
    factors = [(q, e.at(eps)) for q, e in sector.factors]

    def integrand(*us):
        ts = [u ** k for u, k in zip(us, ks)]
        value = float(sector.pref.at(eps))
        for u, k, a in zip(us, ks, exps):
            value *= k * u ** (k - 1 + k * a)
        point = np.array([ts])
        for q, e in factors:
            value *= float(q.eval_array(point)[0]) ** e
        return value

    if sector.nvars == 0:
        value = float(sector.pref.at(eps))
        point = np.zeros((1, 0))
        for q, e in factors:
            value *= float(q.eval_array(point)[0]) ** e
        return value
    result, _err = sci.nquad(integrand, [(0, 1)] * sector.nvars,
                             opts={"epsabs": tol, "epsrel": tol})
    return result


def cube_quadrature(f, dim, n=200):
    """Gauss-Legendre product rule for a vectorised integrand on the unit
    cube, after t = u^3 in every variable to tame logarithmic endpoints."""
    u, w = roots_legendre(n)
    u, w = (u + 1) / 2, w / 2
    grid = np.stack([g.ravel() for g in np.meshgrid(*[u] * dim, indexing="ij")], axis=1)
    weight = np.ones(len(grid))
    for wk in np.meshgrid(*[w * 3 * u ** 2] * dim, indexing="ij"):
        weight *= wk.ravel()
    return float((f(grid ** 3) * weight).sum())


def merged_integrands(pieces, nvars, order):
    """{order: FiniteIntegrand} over the given pieces, merged per order as
    ``pipeline`` merges the pieces of one sector."""
    merged = {}
    for piece in pieces:
        for o, terms in expand_piece(piece, order).items():
            merged.setdefault(o, []).extend(terms)
    return {o: FiniteIntegrand(nvars, terms) for o, terms in sorted(merged.items())}


def series_coefficients(sector, order):
    """{order: float} for the sector's truncated Laurent series; exact where
    the integrand is a rational constant, by quadrature otherwise."""
    out = {}
    for o, fi in merged_integrands(extract_poles(sector), sector.nvars, order).items():
        exact = fi.exact_value()
        out[o] = float(exact) if exact is not None else cube_quadrature(fi.compile(), sector.nvars)
    return out


# -- primary sectors --------------------------------------------------------------

def test_primary_sectors_bubble_structure():
    g, kin = bubble()
    j = feynman_parametrize(g, kin)
    sectors = primary_sectors(j)
    assert len(sectors) == 2
    for s in sectors:
        assert s.nvars == 1
        assert s.monomials == (EpsExponent(0, -1),)
        assert s.factors == ((Poly(1, {(0,): 1, (1,): 1}), EpsExponent(-2, 2)),)


def test_primary_sectors_bubble_numeric_at_eps0():
    g, kin = bubble()
    j = feynman_parametrize(g, kin)
    values = [sector_quadrature(s, 0.0) for s in primary_sectors(j)]
    assert values[0] == pytest.approx(0.5, rel=1e-8)
    assert sum(values) == pytest.approx(1.0, rel=1e-8)


def test_primary_sectors_tadpole_trivial():
    g, kin = tadpole()
    j = feynman_parametrize(g, kin)
    sectors = primary_sectors(j)
    assert len(sectors) == 1
    assert sectors[0].nvars == 0
    assert sectors[0].factors == ()  # (m^2)^(1-eps) with m^2 = 1 folds away


def test_primary_sectors_triangle_structure_and_sum():
    g, kin = one_mass_triangle()
    j = feynman_parametrize(g, kin)
    sectors = primary_sectors(j)
    assert len(sectors) == 3
    # the sector pivoting on the third edge shows the double singularity
    s2 = sectors[2]
    assert s2.monomials == (EpsExponent(-1, -1), EpsExponent(-1, -1))
    assert s2.factors == ((Poly(2, {(0, 0): 1, (1, 0): 1, (0, 1): 1}), EpsExponent(-1, 2)),)
    # full sector sum against the 1D simplex quadrature at eps = -1/4:
    # integral over the simplex of (x0 x1)^(-1-eps) collapses to
    # int x^(-1-eps) (1-x)^(-eps) / (-eps)
    eps = -0.25

    def simplex_1d(u):
        x = u ** 4
        return 4 * u ** 3 * x ** (-1 - eps) * (1 - x) ** (-eps) / (-eps)

    expected, _ = sci.quad(simplex_1d, 0, 1, epsabs=1e-11, epsrel=1e-11)
    total = sum(sector_quadrature(s, eps) for s in sectors)
    assert total == pytest.approx(expected, rel=1e-6)


def test_primary_sectors_requires_homogeneous():
    """Only a projective integrand splits; anything else raises DomainError."""
    flat = (EpsExponent(0, 0),) * 2
    inhomogeneous = SectorIntegrand(flat, ((Poly(2, {(0, 0): 1, (1, 0): 1}), EpsExponent(1, 0)),))
    with pytest.raises(DomainError):
        primary_sectors(inhomogeneous)
    # homogeneous factor, but the integrand has degree 1, not -2
    not_projective = SectorIntegrand(flat, ((Poly(2, {(1, 0): 1, (0, 1): 1}), EpsExponent(1, 0)),))
    with pytest.raises(DomainError):
        primary_sectors(not_projective)


# -- decompose_step ---------------------------------------------------------------

def _plain_sector(poly, exponent, nvars):
    return SectorIntegrand(monomials=tuple(EpsExponent(0, 0) for _ in range(nvars)),
                           factors=((poly, exponent),))


def test_decompose_step_extracts_full_content():
    s = _plain_sector(Poly(2, {(2, 0): 1, (0, 2): 1}), EpsExponent(-1, 1), 2)
    child = decompose_step(s, {0, 1}, 0)
    assert child.factors[0][0] == Poly(2, {(0, 0): 1, (0, 2): 1})  # 1 + x1^2
    # monomial gains the Jacobian plus the extracted content times the exponent
    assert child.monomials[0] == EpsExponent(0, 0) + EpsExponent(1, 0) + EpsExponent(-1, 1).scale(2)
    assert child.monomials[1] == EpsExponent(0, 0)


def test_decompose_step_singleton_is_identity():
    s = _plain_sector(Poly(1, {(1,): 1, (2,): 1}), EpsExponent(1, 0), 1)
    child = decompose_step(s, {0}, 0)
    assert child.factors[0][0] == Poly(1, {(0,): 1, (1,): 1})  # content x0 extracted
    assert child.monomials[0] == EpsExponent(1, 0)


def test_decompose_step_partial_subset():
    s = _plain_sector(Poly(3, {(1, 1, 0): 1, (0, 0, 3): 1}), EpsExponent(1, 0), 3)
    child = decompose_step(s, {0, 2}, 2)
    assert child.factors[0][0] == Poly(3, {(1, 1, 0): 1, (0, 0, 2): 1})
    assert child.monomials[2] == EpsExponent(1, 0) + EpsExponent(1, 0)  # jacobian + content


# -- iterate_decomposition ----------------------------------------------------------

def test_iterate_monomialised_unchanged():
    g, kin = bubble()
    j = feynman_parametrize(g, kin)
    s = primary_sectors(j)[0]
    out = iterate_decomposition(s)
    assert out == [s]


def test_iterate_square_sum_two_sectors():
    s = _plain_sector(Poly(2, {(2, 0): 1, (1, 1): 2, (0, 2): 1}), EpsExponent(-1, 1), 2)
    out = iterate_decomposition(s)
    assert len(out) == 2
    expected = {Poly(2, {(0, 0): 1, (0, 1): 2, (0, 2): 1}),
                Poly(2, {(0, 0): 1, (1, 0): 2, (2, 0): 1})}
    assert {child.factors[0][0] for child in out} == expected


def test_iterate_cusp_terminates_and_partitions():
    poly = Poly(2, {(1, 1): 1, (3, 0): 1, (0, 3): 1})
    s = _plain_sector(poly, EpsExponent(-1, 1), 2)
    out = iterate_decomposition(s)
    assert all(child.is_monomialised() for child in out)
    # regression constant from the first verified run (partition checked below)
    assert len(out) == 4
    # partition of the integral at a regulator value where all pieces converge
    eps = 0.5
    parent = sector_quadrature(s, eps)
    total = sum(sector_quadrature(child, eps) for child in out)
    assert total == pytest.approx(parent, rel=1e-6)


def test_iterate_partition_three_variables():
    poly = Poly(3, {(2, 0, 0): 1, (0, 2, 0): 1, (0, 0, 2): 1})
    s = _plain_sector(poly, EpsExponent(-1, 1), 3)
    out = iterate_decomposition(s)
    assert all(child.is_monomialised() for child in out)
    eps = 0.75
    parent = sector_quadrature(s, eps)
    total = sum(sector_quadrature(child, eps) for child in out)
    assert total == pytest.approx(parent, rel=1e-6)


def test_iteration_cap(monkeypatch):
    from feynsec import sectors
    from feynsec.errors import StrategyError
    s = _plain_sector(Poly(2, {(2, 0): 1, (0, 2): 1}), EpsExponent(-1, 1), 2)
    monkeypatch.setattr(sectors, "ITERATION_CAP", 0)
    with pytest.raises(StrategyError):
        iterate_decomposition(s)


def test_eps_rat_equality_is_rational_function_equality():
    assert EpsRat((1, 1), (1, 1)) == EpsRat.constant(1)
    assert EpsRat.linear_inverse(0, 1) != EpsRat.constant(1)
    a = SectorIntegrand((), (), EpsRat.constant(2))
    b = SectorIntegrand((), (), EpsRat.constant(2))
    assert a == b and hash(a) == hash(b)


def test_decompose_graph_sector_counts():
    """The strategy plays the smallest certified subsets, which fixes the
    number of monomialised sectors of the massless kite and double box."""
    from feynsec.graphs import FeynmanGraph, Kinematics
    g, kin = _kite()
    assert len(decompose_graph(g, kin)) == 48
    g = FeynmanGraph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
                     externals=[(0, "p1"), (2, "p2"), (3, "p3"), (5, "p4")])
    invariants = {"p1": 0, "p2": 0, "p3": 0, "p4": 0, "p1,p4": -2, "p1,p2": -3}
    kin = Kinematics({k: Fraction(v) for k, v in invariants.items()}, labels=g.external_labels())
    assert len(decompose_graph(g, kin)) == 268


def _decompose_text(g, kin):
    """The sectors as ``feynsec decompose`` prints them."""
    lines = []
    for s in decompose_graph(g, kin):
        monos = ", ".join(str(m) for m in s.monomials)
        factors = " ".join(f"({q.as_string()})^({exp})" for q, exp in s.factors)
        lines.append(f"[{monos}] {factors}".rstrip())
    return "\n".join(lines)


def _terms_text(g, kin, order):
    """Every normalised term of every (sector, order) FiniteIntegrand."""
    lines = []
    for si, s in enumerate(decompose_graph(g, kin)):
        for o, fi in merged_integrands(extract_poles(s), s.nvars, order).items():
            for t in fi.terms:
                fp = " ".join(f"({q.as_string()})^{d}" for q, d in t.fpows)
                fl = " ".join(f"log({q.as_string()})^{c}" for q, c in t.flogs)
                lines.append(f"{si} {o} {t.coeff} {t.xpows} {t.xlogs} {fp} | {fl}")
    return "\n".join(lines)


def test_exact_stage_fingerprint():
    """The exact stage is pinned to the text it produced when Poly
    coefficients were all Fractions: the kite and double-box sectors, the
    kite's terms at eps^0 and the double box's through eps^-2.  str() prints
    an integral coefficient the same whether it is an int or a Fraction."""
    from feynsec.graphs import FeynmanGraph, Kinematics

    def sha(text):
        return hashlib.sha256(text.encode()).hexdigest()

    kite = _kite()
    g = FeynmanGraph([(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4)],
                     externals=[(0, "p1"), (2, "p2"), (3, "p3"), (5, "p4")])
    invariants = {"p1": 0, "p2": 0, "p3": 0, "p4": 0, "p1,p4": -2, "p1,p2": -3}
    dbox = (g, Kinematics({k: Fraction(v) for k, v in invariants.items()},
                          labels=g.external_labels()))
    assert sha(_decompose_text(*kite)) == \
        "d865ab4c4d766648d4b0f47567b7ccbc0c09106037eb5c8586b2fb50c57e02ee"
    assert sha(_decompose_text(*dbox)) == \
        "9579253fc53c11aeb0fc07d1f315b63691e35509558633e97d1116e48588767b"
    assert sha(_terms_text(*kite, 0)) == \
        "3c907e7cd8a063d3cdf9b394f57b18c3ad47b5c8e026ecdc409bbe495e0dba50"
    assert sha(_terms_text(*dbox, -2)) == \
        "b72b2430ffae4579c7a7f19c2a4891ee2a0f74dce7fbcadc687f5dd95deaadf6"


# -- extract_poles -------------------------------------------------------------------

def test_extract_single_pole_exact():
    # int_0^1 x^(-1+eps) dx -> 1/eps with empty remainder
    s = SectorIntegrand(monomials=(EpsExponent(-1, 1),), factors=())
    pieces = extract_poles(s)
    pole = [p for p in pieces if p.monomials[0] == EpsExponent(0, 0)]
    rem = [p for p in pieces if p.monomials[0] != EpsExponent(0, 0)]
    assert len(pole) == 1 and len(rem) == 2
    assert pole[0].pref.laurent(2) == {-1: 1, 0: 0, 1: 0, 2: 0}
    # the remainder pieces cancel: f - f(0) = 0 for f = 1
    assert all(not len(fi) for fi in merged_integrands(rem, 1, 3).values())


def test_extract_single_subtraction_structure():
    # x^(-1-eps) f(x) with f = 1 + x
    s = SectorIntegrand(monomials=(EpsExponent(-1, -1),),
                        factors=((Poly(1, {(0,): 1, (1,): 1}), EpsExponent(1, 0)),))
    pieces = extract_poles(s)
    (pole,) = [p for p in pieces if p.monomials[0] == EpsExponent(0, 0)]
    assert pole.pref.laurent(0) == {-1: -1, 0: 0}  # f(0)/(-eps) with f(0) = 1
    rem = [p for p in pieces if p.monomials[0] != EpsExponent(0, 0)]
    # the parent piece and the depth-1 counter piece -f(0) x^(-1-eps)
    assert sorted(len(p.factors) for p in rem) == [0, 1]
    (counter,) = [p for p in rem if not p.factors]
    assert counter.monomials == (EpsExponent(-1, -1),)
    assert counter.pref.laurent(0) == {0: -1}
    # remainder at order 0: x^(-1) * (f(x) - f(0)) = x^(-1) * x = 1; integral 1
    assert merged_integrands(rem, 1, 0)[0].exact_value() == 1


def test_extract_divergence_unregulated():
    s = SectorIntegrand(monomials=(EpsExponent(-1, 0),), factors=())
    with pytest.raises(DivergenceError):
        extract_poles(s)


def test_extract_zero_coefficient_dropped_before_divergence():
    # factor is exactly x, so f(0) = 0 kills the would-be divergent term
    s = SectorIntegrand(monomials=(EpsExponent(-1, 0),),
                        factors=((Poly(1, {(1,): 1}), EpsExponent(1, 0)),))
    pieces = extract_poles(s)
    assert len(pieces) == 1 and pieces[0].monomials[0] != EpsExponent(0, 0)


def test_extract_depth_two_subtraction():
    # int_0^1 x^(-2+eps) (1+x)^2 dx = 1/(eps-1) + 2/eps + 1/(1+eps)
    #                               = 2/eps + 0 - 2 eps + O(eps^2)
    s = SectorIntegrand(monomials=(EpsExponent(-2, 1),),
                        factors=((Poly(1, {(0,): 1, (1,): 1}), EpsExponent(2, 0)),))
    fis = merged_integrands(extract_poles(s), 1, 1)
    assert fis[-1].exact_value() == 2
    assert fis[0].exact_value() == 0
    f = fis[1].compile()
    val, _ = sci.quad(lambda t: f(np.array([[t]]))[0], 0, 1)
    assert val == pytest.approx(-2, rel=1e-8)


def test_extract_nested_subtractions_match_quadrature():
    # x^(-1+eps) y^(-1+eps) (2 + x + y + xy)^(-1-2eps): both variables are
    # subtracted, and the counter pieces of x are subtracted again in y
    s = SectorIntegrand(
        monomials=(EpsExponent(-1, 1), EpsExponent(-1, 1)),
        factors=((Poly(2, {(0, 0): 2, (1, 0): 1, (0, 1): 1, (1, 1): 1}), EpsExponent(-1, -2)),))
    coeffs = series_coefficients(s, 2)
    assert coeffs[-2] == 0.5
    for eps in (0.02, 0.1, 0.2):
        truncated = sum(c * eps ** o for o, c in coeffs.items())
        # the first omitted coefficient is about 2
        assert abs(sector_quadrature(s, eps) - truncated) < 3 * eps ** 3


def test_extract_nested_depth_two_subtractions():
    # int int x^(-2+eps) y^(-2+eps) (1+xy)^2 = 1/(eps-1)^2 + 2/eps^2 + 1/(eps+1)^2
    #                                         = 2/eps^2 + 2 + 0 eps + O(eps^2).
    # The y-derivative of the factor product, 2x(1+xy), vanishes at x = 0,
    # but its x-derivative does not and must still be subtracted in x.
    s = SectorIntegrand(monomials=(EpsExponent(-2, 1), EpsExponent(-2, 1)),
                        factors=((Poly(2, {(0, 0): 1, (1, 1): 1}), EpsExponent(2, 0)),))
    coeffs = series_coefficients(s, 1)
    assert [coeffs.get(o, 0) for o in (-2, -1, 0)] == [2, 0, 2]
    assert coeffs[1] == pytest.approx(0, abs=1e-8)


def test_extract_triangle_double_pole():
    g, kin = one_mass_triangle()
    sectors = decompose_graph(g, kin)
    deepest = []
    for s in sectors:
        for piece in extract_poles(s):
            deepest.append((piece.pref.lowest_order(), piece))
    low = min(o for o, _ in deepest)
    assert low == -2
    coeff = Fraction(0)
    for o, piece in deepest:
        lau = piece.pref.laurent(-2)
        if lau.get(-2):
            # the eps^-2 piece has no variables left and no factors
            assert all(m == EpsExponent(0, 0) for m in piece.monomials)
            assert piece.factors == ()
            coeff += lau[-2]
    assert coeff == 1


# -- expand_eps ------------------------------------------------------------------------

def test_expand_pole_times_x_to_eps():
    piece = SectorIntegrand(monomials=(EpsExponent(0, 1),), factors=(),
                            pref=EpsRat.linear_inverse(0, 1))
    out = expand_piece(piece, 0)
    assert set(out) == {-1, 0}
    (t_m1,) = out[-1]
    assert t_m1.coeff == 1 and not any(t_m1.xlogs)
    (t_0,) = out[0]
    assert t_0.coeff == 1 and t_0.xlogs == (1,)


def test_expand_factor_log():
    one_plus_t = Poly(1, {(0,): 1, (1,): 1})
    piece = SectorIntegrand(monomials=(EpsExponent(0, 0),),
                            factors=((one_plus_t, EpsExponent(0, 2)),), pref=EpsRat.constant(1))
    out = expand_piece(piece, 1)
    (t0,) = out[0]
    assert t0.coeff == 1 and not t0.fpows and not t0.flogs
    (t1,) = out[1]
    assert t1.coeff == 2 and t1.flogs == ((one_plus_t, 1),)


def test_expand_bubble_orders():
    g, kin = bubble()
    sector = decompose_graph(g, kin)[0]
    (piece,) = extract_poles(sector)
    out = expand_piece(piece, 1)
    one_plus_t = Poly(1, {(0,): 1, (1,): 1})
    (t0,) = out[0]
    assert t0.fpows == ((one_plus_t, -2),) and not t0.flogs and not any(t0.xlogs)
    # order 1: (1+t)^-2 (2 log(1+t) - log t)
    by_sig = {(t.xlogs, t.flogs): t.coeff for t in out[1]}
    assert by_sig[((1,), ())] == -1
    assert by_sig[((0,), ((one_plus_t, 1),))] == 2
    # integral of the order-0 term is 1/2
    fi = FiniteIntegrand(1, out[0])
    val, _ = sci.quad(lambda t: fi.compile()(np.array([[t]]))[0], 0, 1)
    assert val == pytest.approx(0.5, rel=1e-8)


# -- invariants on the full pipeline ------------------------------------------------

def _all_pipeline_integrands(graph, kin, order):
    sectors = decompose_graph(graph, kin)
    for s in sectors:
        assert s.is_monomialised()
        for q, _e in s.factors:
            assert q.constant_term() > 0
        for piece in extract_poles(s):
            for o, terms in expand_piece(piece, order).items():
                yield s, o, FiniteIntegrand(s.nvars, terms)


def test_monomialised_and_class_m_on_acceptance_graphs():
    for builder, order in ((bubble, 1), (tadpole, 2), (one_mass_triangle, 0)):
        g, kin = builder()
        count = 0
        for _s, _o, fi in _all_pipeline_integrands(g, kin, order):
            count += 1  # FiniteIntegrand construction runs the structural check
            for t in fi.terms:
                for q, d in t.fpows:
                    if d < 0:
                        assert q.constant_term() > 0
                for q, _c in t.flogs:
                    assert q.is_constant() or q.constant_term() > 0
        assert count > 0


def test_order_floor():
    for builder in (bubble, tadpole, one_mass_triangle):
        g, kin = builder()
        floor = -2 * g.loops
        for s in decompose_graph(g, kin):
            for piece in extract_poles(s):
                assert piece.pref.lowest_order() >= floor


def test_exactness_of_structural_stages():
    g, kin = one_mass_triangle()
    for s in decompose_graph(g, kin):
        assert all(isinstance(c, Fraction) for c in s.pref.num + s.pref.den)
        for m in s.monomials:
            assert isinstance(m.a, int) and isinstance(m.b, int)
        for q, _exp in s.factors:
            assert all(type(c) in (int, Fraction) for c in q.coeffs.values())
        for piece in extract_poles(s):
            for c in piece.pref.num + piece.pref.den:
                assert isinstance(c, Fraction)


# -- pipeline ---------------------------------------------------------------------------

def test_pipeline_bubble_small():
    g, kin = bubble()
    series, diag = pipeline(g, kin, target_order=1, cfg=MCConfig(samples=50_000, seed=11))
    assert abs(series.value(0) - 1.0) < 5 * series.error(0)
    assert abs(series.value(1) - 2.0) < 5 * series.error(1)
    assert diag["final_sectors"] == 2


def test_pipeline_tadpole_exact():
    g, kin = tadpole()
    series, _diag = pipeline(g, kin, target_order=2, cfg=MCConfig(samples=100, seed=1))
    assert series.coefficient(0) == (Fraction(1), 0.0, True)
    assert series.coefficient(1) == (Fraction(0), 0.0, True)
    assert series.coefficient(2) == (Fraction(0), 0.0, True)


@pytest.mark.parametrize("mass2", [Fraction(2), Fraction(1, 3)])
def test_pipeline_tadpole_mass_folds_into_constants(mass2):
    # the parametric integral is (m^2)^(1-eps) = m^2 (1 - eps ln m^2 + eps^2 ln^2 m^2 / 2 - ...);
    # F = m^2 is a constant factor, so every order is a constant with zero error
    g, kin = tadpole(mass2)
    series, _diag = pipeline(g, kin, target_order=2, cfg=MCConfig(samples=100, seed=1))
    assert series.coefficient(0) == (mass2, 0.0, True)
    log_m2 = math.log(mass2)
    for order, truth in ((1, -mass2 * log_m2), (2, mass2 * log_m2 ** 2 / 2)):
        value, err, _exact = series.coefficient(order)
        assert err == 0.0
        assert float(value) == pytest.approx(float(truth), rel=1e-14, abs=0)


def test_pipeline_triangle_small():
    g, kin = one_mass_triangle()
    series, _diag = pipeline(g, kin, target_order=0, cfg=MCConfig(samples=50_000, seed=11))
    assert series.coefficient(-2)[0] == 1
    assert abs(series.value(-1)) < 5 * max(series.error(-1), 1e-12)
    assert abs(series.value(0) + Z2) < 5 * series.error(0)


def test_pipeline_determinism_and_threads():
    g, kin = bubble()
    cfg = MCConfig(samples=20_000, seed=123)
    s1, _ = pipeline(g, kin, target_order=1, cfg=cfg, threads=1)
    s2, _ = pipeline(g, kin, target_order=1, cfg=cfg, threads=4)
    assert s1 == s2
    assert s1.as_rows() == s2.as_rows()


def test_pipeline_rejects_too_deep_order():
    from feynsec.errors import DomainError
    g, kin = bubble()
    with pytest.raises(DomainError):
        pipeline(g, kin, target_order=-3)


def test_pipeline_rejects_unknown_strategy():
    # rejected up front, even where no blow-up would consult the strategy
    from feynsec.errors import DomainError
    g, kin = bubble()
    with pytest.raises(DomainError):
        pipeline(g, kin, strategy="nope")


def test_pipeline_two_loop_figure_eight():
    """Two unit-mass self-loops on one vertex factorize into two vacuum
    one-loop graphs; the value is 4(1-2e)/(e(1-e)) Gamma(1+e)^2/Gamma(1+2e),
    expanded here through order two."""
    from feynsec.graphs import FeynmanGraph, Kinematics
    z2, z3 = math.pi ** 2 / 6, 1.2020569031595943
    g = FeynmanGraph([(0, 0, 1, 1), (0, 0, 1, 1)], externals=[])
    kin = Kinematics({}, labels=())
    series, diag = pipeline(g, kin, target_order=2, cfg=MCConfig(samples=200_000, seed=9))
    assert series.coefficient(-2) == (Fraction(0), 0.0, True)
    assert series.coefficient(-1) == (Fraction(4), 0.0, True)
    assert series.coefficient(0) == (Fraction(-4), 0.0, True)
    for order, truth in ((1, -4 * (1 + z2)), (2, 4 * (-1 + z2 + 2 * z3))):
        value, err, _ = series.coefficient(order)
        assert abs(float(value) - truth) < 5 * err, (order, value, truth)


def test_pipeline_two_loop_massless_sunset():
    """Three massless lines between two vertices at s = -1: the value is
    Gamma(1-e)^3 / Gamma(3-3e); the decomposition needs genuine blow-ups."""
    from feynsec.graphs import FeynmanGraph, Kinematics
    from feynsec.polylog import log_gamma_one_plus_coeffs
    g = FeynmanGraph([(0, 1), (0, 1), (0, 1)], externals=[(0, "p1"), (1, "p2")])
    kin = Kinematics({"p1": -1}, labels=g.external_labels())
    lg = log_gamma_one_plus_coeffs(4)
    t = [0.0] * 3
    for k in (1, 2):
        t[k] = 3 * lg[k] * (-1) ** k - lg[k] * (-3) ** k + (1.5 ** k) / k + (3.0 ** k) / k
    oracle = [0.5, 0.5 * t[1], 0.5 * (t[2] + t[1] ** 2 / 2)]
    assert oracle[1] == pytest.approx(2.25, abs=1e-12)
    series, diag = pipeline(g, kin, target_order=2, cfg=MCConfig(samples=200_000, seed=17))
    assert diag["final_sectors"] == 6
    for order in range(3):
        value, err, _ = series.coefficient(order)
        assert abs(float(value) - oracle[order]) < 5 * err, (order, value, oracle[order])


# -- oracles beyond one loop ---------------------------------------------------

def _kite():
    from feynsec.graphs import FeynmanGraph, Kinematics
    g = FeynmanGraph([(0, 1), (0, 2), (1, 2), (1, 3), (2, 3)], externals=[(0, "p1"), (3, "p2")])
    return g, Kinematics({"p1": Fraction(-1)}, labels=g.external_labels())


def _kite_eps0_pull(samples, seed):
    from feynsec.polylog import zeta_value
    g, kin = _kite()
    series, _diag = pipeline(g, kin, target_order=0, cfg=MCConfig(samples=samples, seed=seed))
    value, err, _ = series.coefficient(0)
    truth = 6 * zeta_value(3)
    return (float(value) - truth) / err, err / truth


def test_pipeline_two_loop_kite():
    """The massless kite at p^2 = -1 is finite, with eps^0 = 6 zeta(3)."""
    pull, rel_err = _kite_eps0_pull(1 << 13, seed=1)
    assert abs(pull) <= 5
    assert rel_err <= 1e-4


def test_pipeline_kite_error_calibration():
    """Over 40 seeds the quoted eps^0 errors of the kite are calibrated:
    between half and 85 percent of the pulls lie within one sigma (68
    percent expected) and none beyond five."""
    pulls = [abs(_kite_eps0_pull(1 << 12, seed)[0]) for seed in range(1, 41)]
    within = sum(p < 1 for p in pulls) / len(pulls)
    assert 0.5 <= within <= 0.85, pulls
    assert max(pulls) <= 5, pulls


def test_pipeline_one_loop_massless_box():
    """Massless box at s = -3, t = -2 (Ellis-Zanderighi, arXiv:0712.1851):
    eps^0 = [4 - 4 zeta2 + 2 ln 6 + 2 ln 2 ln 3 - pi^2] / 6."""
    from feynsec.graphs import FeynmanGraph, Kinematics
    from feynsec.polylog import zeta_value
    g = FeynmanGraph([(0, 1), (1, 2), (2, 3), (3, 0)],
                     externals=[(0, "p1"), (1, "p2"), (2, "p3"), (3, "p4")])
    invariants = {"p1": 0, "p2": 0, "p3": 0, "p4": 0, "p1,p2": -3, "p1,p4": -2}
    kin = Kinematics({k: Fraction(v) for k, v in invariants.items()}, labels=g.external_labels())
    z2 = zeta_value(2)
    truth = (4 - 10 * z2 + 2 * math.log(6) + 2 * math.log(2) * math.log(3)) / 6
    series, _diag = pipeline(g, kin, target_order=0, cfg=MCConfig(samples=1 << 14, seed=1))
    value, err, _ = series.coefficient(0)
    assert abs(float(value) - truth) < 5 * err, (value, err, truth)


def test_pipeline_kite_identical_across_threads():
    g, kin = _kite()
    cfg = MCConfig(samples=1 << 12, seed=5)
    s1, _ = pipeline(g, kin, target_order=0, cfg=cfg, threads=1)
    s2, _ = pipeline(g, kin, target_order=0, cfg=cfg, threads=2)
    assert s1.as_rows() == s2.as_rows()
