"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here and nowhere else:
  1. bubble      3 sigma and 1 percent, 1e6 samples/sector, under 60 s
  2. triangle    3 sigma and 1 percent; the eps^-1 coefficient vanishes
                 within its quoted Monte Carlo error
  3. tadpole     exact rationals, zero error
  4. game        500 seeded instances x 3 adversarial policies, measure
                 strictly decreasing every move, under 10 s
  5. Hopf        exact rational identities, all words of length <= 4 over
                 three letters, both algebras
  6. polylog     Hoelder 1e-10, dilog equations 1e-12 on 100 points,
                 G-derivative 1e-6, Li/G round trip 1e-8, Z-sum products
                 exact for n <= 20
  7. class M     structural check on 100 percent of emitted terms
  8. determinism byte-identical output across thread counts
"""

import itertools
import json
import math
import os
import random
import subprocess
import sys
import time
from fractions import Fraction

import pytest

from feynsec.expansion import FiniteIntegrand, expand_piece, extract_poles
from feynsec.graphs import bubble, one_mass_triangle, tadpole
from feynsec.hironaka import B_POLICIES, PointSet, play
from feynsec.mcint import MCConfig
from feynsec.polylog import (g_func, gamma_expansion, hoelder_sides, li2_numeric,
                             li_series, li_to_g_args, log_gamma_one_plus_coeffs,
                             zsum, zsum_product, zsum_word, eval_zsum_lincomb,
                             zeta_value)
from feynsec.sectors import decompose_graph, pipeline
from feynsec.words import (LinComb, antipode_quasi, antipode_shuffle, convolution_check,
                           coproduct, min_pairing_alphabet, quasi_shuffle_lincomb,
                           shuffle_lincomb)

SAMPLES = 1_000_000
SEED = 20


def _report(num, ok, detail):
    status = "PASS" if ok else "FAIL"
    print(f"ACCEPTANCE {num} {status}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _series_exp(linear_coeffs, upto):
    """exp of a power series with vanishing constant term."""
    out = [1.0] + [0.0] * upto
    for n in range(1, upto + 1):
        acc = 0.0
        for k in range(1, n + 1):
            if k < len(linear_coeffs):
                acc += k * linear_coeffs[k] * out[n - k]
        out[n] = acc / n
    return out


def _log_gamma_series(scale, upto):
    """Coefficients of log Gamma(1 + scale*eps) in eps."""
    base = log_gamma_one_plus_coeffs(upto)
    return [c * scale ** k for k, c in enumerate(base)]


def bubble_oracle(upto):
    """Gamma(1-eps)^2 / Gamma(2-2eps) assembled from the log-Gamma series.

    Gamma(2-2eps) = (1-2eps) Gamma(1-2eps), and -log(1-2eps) has the plain
    geometric coefficients 2^k/k.
    """
    two_lg_minus = [2 * c for c in _log_gamma_series(-1.0, upto)]
    lg_minus2 = _log_gamma_series(-2.0, upto)
    log_one_minus = [0.0] + [-(2.0 ** k) / k for k in range(1, upto + 1)]
    total = [a - b - c for a, b, c in
             itertools.zip_longest(two_lg_minus, lg_minus2, log_one_minus, fillvalue=0.0)]
    return _series_exp(total, upto)


def triangle_oracle(upto_orders):
    """eps^-2 Gamma(1-eps)^2 / Gamma(1-2eps) as {order: coefficient}."""
    depth = upto_orders + 2
    two_lg_minus = [2 * c for c in _log_gamma_series(-1.0, depth)]
    lg_minus2 = _log_gamma_series(-2.0, depth)
    total = [a - b for a, b in itertools.zip_longest(two_lg_minus, lg_minus2, fillvalue=0.0)]
    series = _series_exp(total, depth)
    return {k - 2: series[k] for k in range(depth + 1)}


def _pull_ok(value, err, truth, label):
    if err == 0.0:
        assert value == truth, label
        return f"{label}={value} exact"
    pull = abs(value - truth) / err
    rel = abs(value - truth) / abs(truth) if truth else 0.0
    assert pull <= 3.0, f"{label}: pull {pull:.2f} exceeds 3 sigma"
    assert rel <= 0.01, f"{label}: relative deviation {rel:.4f} exceeds 1 percent"
    return f"{label}={value:.6f}+-{err:.6f} (pull {pull:.2f})"


def test_acceptance_1_bubble():
    # the oracle rests on gamma_expansion: check it against the exact
    # product expansion of (1+eps)(2+eps)/2 first
    assert gamma_expansion(3, 2) == [1, Fraction(3, 2), Fraction(1, 2)]
    oracle = bubble_oracle(3)
    z2, z3 = zeta_value(2), zeta_value(3)
    assert oracle[0] == pytest.approx(1.0, abs=1e-12)
    assert oracle[1] == pytest.approx(2.0, abs=1e-12)
    assert oracle[2] == pytest.approx(4 - z2, abs=1e-12)
    assert oracle[3] == pytest.approx(8 - 2 * z2 - 2 * z3, abs=1e-12)
    assert oracle[2] == pytest.approx(2.3550659, abs=1e-6)
    assert oracle[3] == pytest.approx(2.3060182, abs=1e-6)

    g, kin = bubble()
    start = time.time()
    series, _diag = pipeline(g, kin, m=2, target_order=3,
                             cfg=MCConfig(samples=SAMPLES, seed=SEED))
    elapsed = time.time() - start
    details = []
    for order in range(4):
        value, err, _exact = series.coefficient(order)
        details.append(_pull_ok(float(value), err, oracle[order], f"c{order}"))
    assert elapsed < 60.0, f"runtime {elapsed:.1f}s exceeds 60s"
    _report(1, True, "; ".join(details) + f"; runtime {elapsed:.1f}s")


def test_acceptance_2_triangle():
    oracle = triangle_oracle(1)
    z2, z3 = zeta_value(2), zeta_value(3)
    assert oracle[-2] == pytest.approx(1.0, abs=1e-12)
    assert oracle[-1] == pytest.approx(0.0, abs=1e-12)
    assert oracle[0] == pytest.approx(-z2, abs=1e-12)
    assert oracle[1] == pytest.approx(-2 * z3, abs=1e-12)
    assert oracle[0] == pytest.approx(-1.6449341, abs=1e-6)
    assert oracle[1] == pytest.approx(-2.4041138, abs=1e-6)

    g, kin = one_mass_triangle()
    series, _diag = pipeline(g, kin, m=2, target_order=1,
                             cfg=MCConfig(samples=SAMPLES, seed=SEED))
    details = []
    for order in (-2, 0, 1):
        value, err, _exact = series.coefficient(order)
        details.append(_pull_ok(float(value), err, oracle[order], f"c{order}"))
    # the 1/eps cancellation must hold within the quoted error
    value, err, _exact = series.coefficient(-1)
    assert abs(float(value)) <= 3 * err, f"c-1 = {value} not zero within 3 sigma"
    details.append(f"c-1={float(value):.6f}+-{err:.6f} compatible with 0")
    _report(2, True, "; ".join(details))


def test_acceptance_3_tadpole():
    g, kin = tadpole()
    series, _diag = pipeline(g, kin, m=2, target_order=2,
                             cfg=MCConfig(samples=100, seed=SEED))
    for order, expected in ((0, Fraction(1)), (1, Fraction(0)), (2, Fraction(0))):
        value, err, exact = series.coefficient(order)
        assert exact and err == 0.0 and value == expected, order
    _report(3, True, "c0 = 1, c1 = c2 = 0, all exact with zero error")


def test_acceptance_4_hironaka_termination():
    rng = random.Random(2024)
    start = time.time()
    total_moves = 0
    for trial in range(500):
        n = rng.randint(2, 4)
        npts = rng.randint(2, 6)
        pts = PointSet([tuple(rng.randint(0, 5) for _ in range(n)) for _ in range(npts)])
        for policy in B_POLICIES:
            # play() raises StrategyError if the measure ever fails to drop
            moves, _tr = play(pts, policy, seed=trial)
            total_moves += moves
    elapsed = time.time() - start
    assert elapsed < 10.0, f"runtime {elapsed:.1f}s exceeds 10s"
    _report(4, True, f"1500 games, {total_moves} moves, all measure-decreasing, "
                     f"runtime {elapsed:.1f}s")


def _words_up_to(letters, max_len):
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(itertools.product(letters, repeat=length))
    return out


def test_acceptance_5_hopf_suite():
    letters = "abc"
    alpha = min_pairing_alphabet(letters)
    words = _words_up_to(letters, 4)
    lc = lambda w: LinComb.of(tuple(w))
    products = {
        "shuffle": shuffle_lincomb,
        "quasi-shuffle": lambda x, y: quasi_shuffle_lincomb(x, y, alpha),
    }
    antipodes = {
        "shuffle": antipode_shuffle,
        "quasi-shuffle": lambda x: sum((antipode_quasi(w, alpha).scale(c)
                                        for w, c in x.terms.items()), LinComb.zero()),
    }
    pairs = [(u, v) for u in words for v in words if len(u) + len(v) <= 4]
    triples = [(u, v, w) for u in words for v in words for w in words
               if len(u) + len(v) + len(w) <= 4]
    for name, prod in products.items():
        for u, v in pairs:
            assert prod(lc(u), lc(v)) == prod(lc(v), lc(u)), ("comm", name, u, v)
        for u, v, w in triples:
            assert prod(prod(lc(u), lc(v)), lc(w)) == prod(lc(u), prod(lc(v), lc(w))), \
                ("assoc", name, u, v, w)
        # bialgebra compatibility with the deconcatenation coproduct
        for u, v in pairs:
            lhs = {}
            for w, c in prod(lc(u), lc(v)).terms.items():
                for key, c2 in coproduct(w).terms.items():
                    lhs[key] = lhs.get(key, Fraction(0)) + c * c2
            rhs = {}
            for (su, pu), cu in coproduct(u).terms.items():
                for (sv, pv), cv in coproduct(v).terms.items():
                    for w1, c1 in prod(lc(su), lc(sv)).terms.items():
                        for w2, c2 in prod(lc(pu), lc(pv)).terms.items():
                            key = (w1, w2)
                            rhs[key] = rhs.get(key, Fraction(0)) + cu * cv * c1 * c2
            assert {k: v for k, v in lhs.items() if v} == {k: v for k, v in rhs.items() if v}, \
                ("bialg", name, u, v)
        # antipode convolution: m o (S x id) o Delta = unit o counit
        for w in words:
            expected = lc(()) if not w else LinComb.zero()
            assert convolution_check(w, antipodes[name], prod) == expected, \
                ("antipode", name, w)
    # coassociativity (product-independent)
    for w in words:
        left, right = {}, {}
        for (suf, pre), c in coproduct(w).terms.items():
            for key, c2 in coproduct(suf).terms.items():
                left[key + (pre,)] = left.get(key + (pre,), 0) + c * c2
            for key, c2 in coproduct(pre).terms.items():
                right[(suf,) + key] = right.get((suf,) + key, 0) + c * c2
        assert {k: v for k, v in left.items() if v} == {k: v for k, v in right.items() if v}, w
    # closed antipode formula for the shuffle algebra
    for w in words:
        assert antipode_shuffle(lc(w)) == LinComb.of(tuple(reversed(w)), Fraction(-1) ** len(w))
    _report(5, True, f"{len(words)} words, {len(pairs)} pairs, {len(triples)} triples, "
                     "both algebras exact")


def test_acceptance_6_polylog_identities():
    rng = random.Random(61)
    # Hoelder convolution at p = 2, weight up to three, 1e-10
    checked = 0
    while checked < 30:
        w = rng.randint(1, 3)
        zs = tuple(rng.uniform(1.6, 4.0) * rng.choice([-1, 1]) for _ in range(w))
        lhs, rhs = hoelder_sides(zs, 2)
        assert abs(lhs - rhs) <= 1e-10 * max(1.0, abs(lhs)), zs
        checked += 1
    # dilogarithm functional equations on 100 sampled points, 1e-12
    z2 = math.pi ** 2 / 6
    count = 0
    while count < 100:
        x = rng.uniform(-0.98, 0.98)
        if abs(x) < 1e-3 or abs(1 - x) < 1e-3:
            continue
        count += 1
        if 0 < x < 1:
            lhs = li2_numeric(x)
            rhs = -li2_numeric(1 - x) + z2 - math.log(x) * math.log(1 - x)
            assert abs(lhs - rhs) < 1e-12, ("reflection", x)
        else:
            lhs = li2_numeric(x)
            rhs = -li2_numeric(1 / x) - z2 - 0.5 * math.log(-x) ** 2
            assert abs(lhs - rhs) < 1e-12, ("inversion", x)
    # G derivative against central finite differences, 1e-6
    for _ in range(10):
        z1 = rng.uniform(1.5, 3.0) * rng.choice([-1, 1])
        z2v = rng.uniform(1.5, 3.0) * rng.choice([-1, 1])
        y = rng.uniform(0.4, 1.2)
        h = 1e-5
        num = (g_func((z1, z2v), y + h) - g_func((z1, z2v), y - h)) / (2 * h)
        ana = g_func((z2v,), y) / (y - z1)
        assert abs(num - ana) <= 1e-6 * max(1.0, abs(ana)), (z1, z2v, y)
    # Li <-> G round trip on a fixed admissible corpus, 1e-8
    corpus = [((2,), (0.7,)), ((1, 1), (0.5, 0.5)), ((2, 1), (0.6, 0.4)),
              ((3,), (0.9,)), ((1, 2), (0.3, 0.8)), ((1, 1, 1), (0.4, 0.5, 0.6))]
    for m, x in corpus:
        zs, y = li_to_g_args(m, x)
        direct = li_series(m, x, rel_tol=1e-12)
        via_g = (-1) ** len(x) * g_func(zs, y, rel_tol=1e-12)
        assert abs(direct - via_g) <= 1e-8 * max(1.0, abs(direct)), (m, x)
    # Z-sum quasi-shuffle products against brute force, exact, n <= 20
    def brute(n, m, x):
        def rec(depth, upper):
            if depth == len(m):
                return Fraction(1)
            return sum((Fraction(x[depth]) ** i / Fraction(i ** m[depth]) * rec(depth + 1, i - 1)
                        for i in range(1, upper + 1)), Fraction(0))
        return rec(0, n)

    for _ in range(6):
        m1 = tuple(rng.randint(1, 2) for _ in range(rng.randint(1, 2)))
        x1 = tuple(Fraction(rng.randint(1, 3), rng.randint(2, 4)) for _ in m1)
        m2 = (rng.randint(1, 2),)
        x2 = (Fraction(rng.randint(1, 3), rng.randint(2, 4)),)
        comb = zsum_product(zsum_word(m1, x1), zsum_word(m2, x2))
        for n in (5, 12, 20):
            assert brute(n, m1, x1) * brute(n, m2, x2) == eval_zsum_lincomb(n, comb)
    _report(6, True, "Hoelder 1e-10, dilog equations 1e-12 x100, G-derivative 1e-6, "
                     "round trip 1e-8, Z-sum products exact to n = 20")


def test_acceptance_7_class_m_closure():
    total = 0
    for builder, order in ((bubble, 3), (tadpole, 2), (one_mass_triangle, 1)):
        g, kin = builder()
        for sector in decompose_graph(g, kin):
            assert sector.is_monomialised()
            for q, _e in sector.factors:
                assert q.constant_term() > 0
            for piece in extract_poles(sector):
                for _order, terms in expand_piece(piece, order).items():
                    fi = FiniteIntegrand(sector.nvars, terms)  # structural check inside
                    for t in fi.terms:
                        total += 1
                        for q, d in t.fpows:
                            assert d < 0 and q.constant_term() > 0
                        for q, _c in t.flogs:
                            assert q.is_constant() or q.constant_term() > 0
    _report(7, True, f"{total} emitted terms type-check as class-M with positive "
                     "factor constants")


def test_acceptance_8_determinism_across_threads(tmp_path):
    job = {
        "edges": [{"from": 0, "to": 1, "mass2": "0", "power": 1},
                  {"from": 0, "to": 1, "mass2": "0", "power": 1}],
        "external": [{"vertex": 0, "label": "p1"}, {"vertex": 1, "label": "p2"}],
        "invariants": {"p1": "-1"},
        "dim_anchor": 2,
        "order": 3,
    }
    path = tmp_path / "bubble.json"
    path.write_text(json.dumps(job))
    args = [sys.executable, "-m", "feynsec.cli", "evaluate", str(path),
            "--samples", str(SAMPLES), "--seed", str(SEED), "--format", "json"]
    outputs = []
    for threads in ("1", "3"):
        env = dict(os.environ)
        env["FEYNSEC_THREADS"] = threads
        proc = subprocess.run(args, capture_output=True, text=True, env=env)
        assert proc.returncode == 0, proc.stderr
        outputs.append(proc.stdout)
    assert outputs[0] == outputs[1]
    _report(8, True, "byte-identical series for FEYNSEC_THREADS = 1 and 3")
