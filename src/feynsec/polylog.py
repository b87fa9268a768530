"""Multiple polylogarithms, nested Z-sums, and gamma-function expansions.

Three layers:

* exact layer - finite nested sums with rational arguments (Z-sums,
  Euler-Zagier sums, the gamma ratio expansion) in Fraction arithmetic;
* numeric layer - the nested series for multiple polylogarithms, the
  accelerated dilogarithm, and the iterated-integral G-functions with
  trailing-zero reduction and Hoelder-convolution acceleration;
* algebra layer - the quasi-shuffle product of Z-sums, realized through the
  word algebra with the pointwise letter pairing (m, x)(m', x') = (m+m', xx').

Branch convention: principal logarithms everywhere; arguments sitting on a
cut are rejected rather than silently side-assigned.  G-functions with an
empty argument list count as one (empty product).
"""

from __future__ import annotations

import cmath
import math
from fractions import Fraction

from .errors import DomainError
from .words import Alphabet, LinComb, quasi_shuffle, shuffle

EULER_GAMMA = 0.5772156649015328606


# ---------------------------------------------------------------------------
# zeta values and Bernoulli numbers
# ---------------------------------------------------------------------------

def zeta_value(k: int, n_direct: int = 120) -> float:
    """Riemann zeta at integer k >= 2 by direct sum plus Euler-Maclaurin tail."""
    if k < 2:
        raise DomainError("zeta is needed only for integer arguments >= 2 here")
    s = sum(1.0 / i ** k for i in range(1, n_direct))
    n = float(n_direct)
    # integral + boundary + three correction terms
    tail = n ** (1 - k) / (k - 1) + 0.5 * n ** (-k) + k / 12.0 * n ** (-k - 1) \
        - k * (k + 1) * (k + 2) / 720.0 * n ** (-k - 3) \
        + k * (k + 1) * (k + 2) * (k + 3) * (k + 4) / 30240.0 * n ** (-k - 5)
    return s + tail


def bernoulli_numbers(count: int) -> list[Fraction]:
    """B_0 .. B_{count-1} with B_1 = -1/2."""
    out = [Fraction(1)]
    for m in range(1, count):
        acc = Fraction(0)
        binom = 1  # C(m+1, 0)
        for j in range(m):
            acc += binom * out[j]
            binom = binom * (m + 1 - j) // (j + 1)
        out.append(-acc / (m + 1))
    return out


_BERNOULLI = bernoulli_numbers(64)


# ---------------------------------------------------------------------------
# exact nested sums
# ---------------------------------------------------------------------------

def zsum(n, m, x=None, rel_tol: float = 1e-12):
    """Nested sum over n >= i_1 > ... > i_k >= 1 of prod x_j^{i_j} / i_j^{m_j}.

    Finite n with rational scales gives an exact Fraction; n = None means
    the infinite sum and delegates to the series evaluator (Euler-Zagier
    sums for unit scales, multiple zeta values for unit scales at infinity).
    """
    m = tuple(m)
    k = len(m)
    if x is None:
        x = (1,) * k
    x = tuple(x)
    if len(x) != k:
        raise DomainError("scale vector length must match the depth")
    if n is None or n == math.inf:
        return li_series(m, x, rel_tol)
    n = int(n)
    if n < k:
        return Fraction(0)
    xf = [Fraction(v) for v in x]
    # partial[j] = Z(i; m_j..; x_j..) after step i; the tail factor at depth
    # j+1 must be taken at i-1, hence the snapshot
    partial = [Fraction(0)] * k + [Fraction(1)]
    for i in range(1, n + 1):
        older = list(partial)
        for j in range(k):
            partial[j] = older[j] + xf[j] ** i / Fraction(i ** m[j]) * older[j + 1]
    return partial[0]


def euler_zagier(n: int, m) -> Fraction:
    """Z_{m_1..m_k}(n): the unit-scale nested sum."""
    return zsum(n, m)


def gamma_expansion(n: int, order: int) -> list[Fraction]:
    """Exact coefficients of Gamma(n+eps) / (Gamma(1+eps) Gamma(n)).

    Equals the finite product of (1 + eps/j) for j < n, i.e. the Euler-Zagier
    generating series 1 + eps Z_1(n-1) + eps^2 Z_11(n-1) + ...; coefficients
    beyond eps^{n-1} vanish.
    """
    if n < 1:
        raise DomainError("gamma ratio expansion needs a positive integer")
    out = [Fraction(1)]
    for k in range(1, order + 1):
        if k > n - 1:
            out.append(Fraction(0))
        else:
            out.append(euler_zagier(n - 1, (1,) * k))
    return out


def log_gamma_one_plus_coeffs(order: int) -> list[float]:
    """Numeric Taylor coefficients of log Gamma(1+x): [0, -gamma, zeta2/2, -zeta3/3, ...]."""
    out = [0.0, -EULER_GAMMA]
    for k in range(2, order + 1):
        out.append((-1) ** k * zeta_value(k) / k)
    return out


# ---------------------------------------------------------------------------
# multiple polylogarithm series
# ---------------------------------------------------------------------------

def _check_convergence(m, x):
    prod = 1.0
    for j, xj in enumerate(x):
        prod *= abs(complex(xj))
        if prod > 1.0 + 1e-12:
            raise DomainError(f"series diverges: |x_1...x_{j+1}| = {prod} > 1")
    if m[0] == 1 and abs(complex(x[0]) - 1.0) < 1e-15:
        raise DomainError("divergent boundary case m_1 = 1 with x_1 = 1")


def li_series(m, x, rel_tol: float = 1e-12, max_terms: int = 4_000_000):
    """Nested-series value of the multiple polylogarithm.

    Truncates once the ratio-extrapolated tail estimate and the last added
    terms drop below rel_tol times the running sum (three consecutive
    times).  Arguments may be real or complex inside the convergence region.
    """
    m = tuple(int(v) for v in m)
    x = tuple(complex(v) for v in x)
    if len(m) != len(x):
        raise DomainError("index and argument lengths differ")
    _check_convergence(m, x)
    k = len(m)
    partial = [0j] * (k + 1)
    partial[k] = 1.0 + 0j
    total = 0j
    small_streak = 0
    prev_delta = 0j
    xpow = [1.0 + 0j] * k
    for i in range(1, max_terms + 1):
        older = list(partial)
        for j in range(k):
            xpow[j] *= x[j]
        # the outermost increment is formed directly, not by subtracting
        # partial sums, so its magnitude keeps full float precision
        delta = xpow[0] / (i ** m[0]) * older[1]
        partial[0] = older[0] + delta
        for j in range(1, k):
            partial[j] = older[j] + xpow[j] / (i ** m[j]) * older[j + 1]
        total = partial[0]
        mag = abs(delta)
        ref = max(abs(total), 1e-300)
        # ratio-extrapolated tail for same-phase decreasing deltas; for
        # alternating or rotating deltas the next term bounds the tail
        same_phase = (delta * prev_delta.conjugate()).real > 0
        pmag = abs(prev_delta)
        if same_phase and 0 < mag < pmag:
            ratio = mag / pmag
            tail = mag * ratio / (1 - ratio)
        else:
            tail = mag
        if mag <= rel_tol * ref and 2 * tail <= rel_tol * ref:
            small_streak += 1
            if small_streak >= 3 and i > k + 3:
                break
        else:
            small_streak = 0
        prev_delta = delta
    else:
        raise DomainError("series did not converge within the term cap")
    if all(abs(complex(v).imag) < 1e-300 for v in x):
        return total.real
    return total


def nielsen(n: int, p: int, x, rel_tol: float = 1e-12):
    """Nielsen polylogarithm S_{n,p}: depth p with leading weight n+1 at x."""
    if n < 1 or p < 1:
        raise DomainError("Nielsen indices must be positive")
    return li_series((n + 1,) + (1,) * (p - 1), (x,) + (1,) * (p - 1), rel_tol)


def hpl(m, x, rel_tol: float = 1e-12):
    """Harmonic polylogarithm with positive indices: all trailing scales one."""
    m = tuple(m)
    return li_series(m, (x,) + (1,) * (len(m) - 1), rel_tol)


# ---------------------------------------------------------------------------
# dilogarithm with functional equations and Bernoulli acceleration
# ---------------------------------------------------------------------------

def li2_numeric(x):
    """Dilogarithm to ~1e-14 relative accuracy.

    Real x on the cut [1, inf) is rejected (x = 1 itself returns pi^2/6);
    complex arguments use principal branches.
    """
    if isinstance(x, complex) and x.imag == 0:
        x = x.real
    if not isinstance(x, complex):
        x = float(x)
        if x == 1.0:
            return math.pi ** 2 / 6
        if x > 1.0:
            raise DomainError("real dilogarithm argument on the cut [1, oo); supply a side")
        return _li2_real(x)
    return _li2_complex(x)


def _li2_real(x: float) -> float:
    if x < -1.0:
        # inversion first maps into the unit disk
        return -_li2_real(1.0 / x) - math.pi ** 2 / 6 - 0.5 * math.log(-x) ** 2
    if x > 0.5:
        return -_li2_real(1.0 - x) + math.pi ** 2 / 6 - math.log(x) * math.log(1.0 - x)
    return _li2_bernoulli(-math.log1p(-x))


def _li2_complex(x: complex) -> complex:
    if abs(x) > 1.0:
        return -_li2_complex(1.0 / x) - math.pi ** 2 / 6 - 0.5 * cmath.log(-x) ** 2
    if x.real > 0.5:
        return -_li2_complex(1.0 - x) + math.pi ** 2 / 6 - cmath.log(x) * cmath.log(1.0 - x)
    return _li2_bernoulli(-cmath.log(1.0 - x))


def _li2_bernoulli(u):
    total = 0.0 if not isinstance(u, complex) else 0j
    upow = u
    fact = 1.0
    for i, b in enumerate(_BERNOULLI):
        fact *= i + 1
        if b:
            term = float(b) * upow / fact
            total += term
            if abs(term) < 1e-17 * max(abs(total), 1e-30) and i > 4:
                break
        upow = upow * u
    return total


# ---------------------------------------------------------------------------
# G-functions (iterated integrals)
# ---------------------------------------------------------------------------

def _split_trailing_zero(zs, y, rel_tol):
    """Shuffle one zero out of the tail: G(w 0^m) in terms of fewer-zero words."""
    trailing = 0
    for z in reversed(zs):
        if z == 0:
            trailing += 1
        else:
            break
    sh = shuffle((0,), zs[:-1])
    total = _log_any(y) * g_func(zs[:-1], y, rel_tol)
    for word, coeff in sh.terms.items():
        if word == zs:
            continue
        total -= coeff * g_func(word, y, rel_tol)
    return total / trailing


def _log_any(y):
    y = complex(y)
    if y.imag == 0:
        if y.real <= 0:
            raise DomainError("log of a nonpositive real scale")
        return math.log(y.real)
    return cmath.log(y)


def g_func(zs, y, rel_tol: float = 1e-12, accelerate: bool = True):
    """Iterated-integral function G(z_1, ..., z_k; y).

    Empty argument list counts as one.  All-zero arguments use the closed
    form log(y)^k / k!; trailing zeros are shuffled away; the generic case
    converts to a multiple-polylogarithm series, Hoelder-split at p = 2
    when an argument ratio sits too close to the convergence boundary.
    """
    zs = tuple(complex(z) if isinstance(z, complex) else float(z) if not isinstance(z, (int, Fraction)) else z
               for z in zs)
    k = len(zs)
    if k == 0:
        return 1.0
    if y == 0:
        if all(z == 0 for z in zs):
            raise DomainError("G(0,...,0; 0) is not defined")
        return 0.0
    if all(z == 0 for z in zs):
        return _log_any(y) ** k / math.factorial(k)
    if zs[0] == y:
        raise DomainError("leading argument equal to the endpoint diverges")
    if zs[-1] == 0:
        return _split_trailing_zero(zs, y, rel_tol)

    # split the word 0^{m_1-1} z_1 ... 0^{m_k-1} z_k
    ms, znon = [], []
    zero_run = 0
    for z in zs:
        if z == 0:
            zero_run += 1
        else:
            ms.append(zero_run + 1)
            znon.append(z)
            zero_run = 0
    ratios = []
    prev = y
    for z in znon:
        ratios.append(prev / z)
        prev = z
    products = []
    acc = 1.0
    for r in ratios:
        acc = acc * complex(r)
        products.append(abs(acc))
    near_boundary = any(p > 0.99 for p in products)
    if not near_boundary or not accelerate:
        value = li_series(tuple(ms), tuple(ratios), rel_tol)
        return value * (-1) ** len(znon)
    # Hoelder convolution at p = 2 after scaling the endpoint to one
    yc = complex(y)
    if not (abs(yc.imag) < 1e-300 and yc.real > 0):
        raise DomainError("acceleration path needs a positive real endpoint")
    scaled = tuple(z / yc.real for z in zs)
    if scaled[0] == 1:
        raise DomainError("Hoelder split needs z_1 != y")
    total = _hoelder_sum(scaled, 2, rel_tol)
    if abs(complex(total).imag) < 1e-10 * max(1.0, abs(total)):
        return complex(total).real
    return total


def hoelder_sides(zs, p=2, rel_tol: float = 1e-12):
    """Both sides of the Hoelder convolution for G(z_1..z_w; 1).

    Preconditions z_1 != 1 and z_w != 0.  Returns (direct value, convolution
    value); both sides are evaluated without internal acceleration so the
    identity is a genuine cross-check.
    """
    zs = tuple(zs)
    if not zs or zs[0] == 1 or zs[-1] == 0:
        raise DomainError("Hoelder convolution needs z_1 != 1 and z_w != 0")
    return g_func(zs, 1.0, rel_tol, accelerate=False), _hoelder_sum(zs, p, rel_tol)


def _hoelder_sum(zs, p, rel_tol):
    """Hoelder convolution side of G(z_1..z_w; 1):
    sum_j (-1)^j G(1-z_j..1-z_1; 1-1/p) G(z_{j+1}..z_w; 1/p), every G
    evaluated without acceleration."""
    q = 1.0 - 1.0 / p
    total = 0.0
    for j in range(len(zs) + 1):
        left = tuple(1 - z for z in reversed(zs[:j]))
        right = zs[j:]
        lval = g_func(left, q, rel_tol, accelerate=False) if left else 1.0
        rval = g_func(right, 1.0 / p, rel_tol, accelerate=False) if right else 1.0
        total += (-1) ** j * lval * rval
    return total


def li_to_g_args(m, x):
    """The G-function word and endpoint equivalent to Li_m(x): inverse of the
    series representation, with arguments 1/x_1, 1/(x_1 x_2), ..."""
    m = tuple(m)
    zs = []
    acc = 1
    for mj, xj in zip(m, x):
        acc = acc * xj
        zs.extend([0] * (mj - 1))
        zs.append(1 / acc)
    return tuple(zs), 1


# ---------------------------------------------------------------------------
# quasi-shuffle algebra of Z-sums
# ---------------------------------------------------------------------------

def zsum_alphabet() -> Alphabet:
    """Letters (m, x); pairing is the pointwise product of the summand
    functions: (m, x)(m', x') -> (m + m', x x')."""
    return Alphabet(pairing=lambda a, b: (a[0] + b[0], a[1] * b[1]))


def zsum_word(m, x) -> tuple:
    m = tuple(m)
    return tuple(zip(m, tuple(x)))


def zsum_product(u, v) -> LinComb:
    """Quasi-shuffle expansion of a product of two Z-sum words (same upper
    limit on both factors)."""
    return quasi_shuffle(u, v, zsum_alphabet())


def eval_zsum_word(n, word):
    if not word:
        return Fraction(1) if n is not None else 1.0
    m = tuple(l[0] for l in word)
    x = tuple(l[1] for l in word)
    return zsum(n, m, x)


def eval_zsum_lincomb(n, comb: LinComb):
    total = Fraction(0)
    numeric = 0.0
    any_numeric = False
    for word, coeff in comb.terms.items():
        value = eval_zsum_word(n, word)
        if isinstance(value, Fraction):
            total += coeff * value
        else:
            any_numeric = True
            numeric += float(coeff) * value
    if any_numeric:
        return float(total) + numeric
    return total
