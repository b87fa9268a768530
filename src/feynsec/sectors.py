"""Iterated sector decomposition: primary sectors, blow-ups, and the full
numerical pipeline from a Feynman graph to its Laurent coefficients.

Sectors are :class:`~feynsec.expansion.SectorIntegrand` values, the exact
integrand type that pole extraction and series expansion in
:mod:`feynsec.expansion` also use; it is re-exported here.  The strategy
steering the blow-ups lives in :mod:`feynsec.hironaka`.
"""

from __future__ import annotations

from concurrent.futures import ThreadPoolExecutor
from dataclasses import replace

from . import hironaka
from .epsilon import EpsExponent
from .errors import DomainError, FeynsecError, StrategyError
from .expansion import FiniteIntegrand, SectorIntegrand, extract_poles, expand_piece
from .graphs import FeynmanGraph, GeneralIntegral, Kinematics, feynman_parametrize
from .mcint import MCConfig, EpsSeries, integrate
from .poly import Poly

DEFAULT_ITERATION_CAP = 10_000


def homogenize(j: GeneralIntegral) -> GeneralIntegral:
    """Pad every factor to homogeneity with powers of the variable sum;
    an identity on graph-derived input."""
    factors = [(q.homogenize_on_simplex(), exp) for q, exp in j.factors]
    return GeneralIntegral(nvars=j.nvars, monomials=list(j.monomials), factors=factors)


def _extract_content(nvars: int, monomials: list, q: Poly, exp: EpsExponent):
    """Move the full monomial content of q into the per-variable exponents."""
    content = q.content_exponents()
    if any(content):
        q = q.divide_monomial(content)
        for i, g in enumerate(content):
            if g:
                monomials[i] = monomials[i] + exp.scale(g)
    return q


def primary_sectors(j: GeneralIntegral) -> list[SectorIntegrand]:
    """Split the simplex integral into one hypercube sector per variable.

    In sector l the variables x_i (i != l) are rescaled by x_l, the delta
    constraint fixes the x_l integral exactly by homogeneity, and any
    residual scaling weight is kept as a factor (1 + sum of the remaining
    variables) with the exact exponent; for graph integrands that exponent
    vanishes identically.
    """
    for q, _exp in j.factors:
        if not q.is_homogeneous():
            raise FeynsecError("primary sectors need homogeneous factors (run homogenize)")
    n = j.nvars
    residual = EpsExponent(n, 0)
    for m in j.monomials:
        residual = residual + m
    for q, exp in j.factors:
        residual = residual + exp.scale(q.degree())
    sectors = []
    for l in range(n):
        live = [i for i in range(n) if i != l]
        monomials = [j.monomials[i] for i in live]
        factors = []
        for q, exp in j.factors:
            q_l = q.set_one_and_drop(l)
            if not q_l:
                raise DomainError("factor vanishes identically in a primary sector")
            q_l = _extract_content(n - 1, monomials, q_l, exp)
            if q_l.is_constant() and q_l.constant_term() == 1:
                continue
            factors.append((q_l, exp))
        if residual.a or residual.b:
            one_plus_sum = Poly.constant(n - 1, 1)
            for i in range(n - 1):
                one_plus_sum = one_plus_sum + Poly.variable(n - 1, i)
            factors.append((one_plus_sum, -residual))
        sectors.append(SectorIntegrand(monomials=tuple(monomials), factors=tuple(factors)))
    return sectors


def decompose_step(sector: SectorIntegrand, subset, l: int) -> SectorIntegrand:
    """One blow-up: x_i -> x_l * x_i for i in subset - {l}.

    The Jacobian and each factor's extracted content go into the monomial
    exponents; factors carry no content, so only x_l can gain any.
    Already-monomialised factors stay monomialised (asserted).
    """
    s = sorted(set(subset))
    if l not in s:
        raise DomainError("pivot index must belong to the subset")
    monomials = list(sector.monomials)
    new_l = EpsExponent(len(s) - 1, 0)
    for jdx in s:
        new_l = new_l + monomials[jdx]
    monomials[l] = new_l
    factors = []
    for q, exp in sector.factors:
        had_constant = q.constant_term() != 0
        q2 = _extract_content(sector.nvars, monomials, q.rescale_subset(s, l), exp)
        if had_constant:
            assert q2.constant_term() != 0, "substitution destroyed monomialised form"
        factors.append((q2, exp))
    return replace(sector, monomials=tuple(monomials), factors=tuple(factors))


def iterate_decomposition(sector: SectorIntegrand,
                          iteration_cap: int = DEFAULT_ITERATION_CAP) -> list[SectorIntegrand]:
    """Blow up until every factor has a nonzero constant term.

    Children are produced for every pivot in the strategy's subset, so
    termination must hold against any pivot choice; the strategy certifies
    its measure decrease per move.  Exceeding the iteration cap raises
    StrategyError with the offending sector's Newton point sets.
    """
    done: list[SectorIntegrand] = []
    stack = [sector]
    steps = 0
    while stack:
        current = stack.pop()
        k = current.first_open_factor()
        if k is None:
            done.append(current)
            continue
        steps += 1
        if steps > iteration_cap:
            newtons = [sorted(q.support()) for q, _ in current.factors]
            monos = ", ".join(str(m) for m in current.monomials)
            raise StrategyError(
                f"iteration cap {iteration_cap} exceeded; sector monomials [{monos}]; "
                f"Newton point sets {newtons}")
        poly = current.factors[k][0]
        subset = hironaka.strategy_for_polynomial(poly)
        stack.extend(decompose_step(current, subset, l) for l in sorted(subset, reverse=True))
    return done


# ---------------------------------------------------------------------------
# full pipeline
# ---------------------------------------------------------------------------

def decompose_graph(graph: FeynmanGraph, kin: Kinematics, m: int = 2) -> list[SectorIntegrand]:
    """Parametrize, split into primary sectors, and monomialise everything."""
    final = []
    for prim in primary_sectors(feynman_parametrize(graph, kin, m)):
        final.extend(iterate_decomposition(prim))
    return final


def pipeline(graph: FeynmanGraph, kin: Kinematics, m: int = 2, target_order: int = 0,
             strategy: str = "pairdiff", cfg: MCConfig | None = None,
             threads: int = 1) -> tuple[EpsSeries, dict]:
    """Full evaluation: returns the Laurent series and run diagnostics.

    Everything up to the Monte Carlo stage is exact; each (sector, order)
    integrand gets its own deterministic random substream, and results are
    merged in sector-index order, so fixed inputs give bit-identical output
    for any thread count.  ``strategy`` names the blow-up strategy; "pairdiff"
    is the only one, and any other name raises DomainError.
    """
    if strategy != "pairdiff":
        raise DomainError(f"unknown strategy {strategy!r}; the only strategy is 'pairdiff'")
    cfg = cfg or MCConfig()
    floor = -2 * graph.loops
    if target_order < floor:
        raise DomainError(f"target order {target_order} below the pole floor {floor}")
    final = decompose_graph(graph, kin, m)

    contributions = []
    jobs = []
    order_width = target_order - floor + 1
    terms_per_order: dict[int, int] = {}
    for si, sector in enumerate(final):
        assert sector.is_monomialised()
        merged: dict[int, list] = {}
        for piece in extract_poles(sector):
            if piece.pref.lowest_order() < floor:
                raise FeynsecError("pole deeper than the loop-number floor; internal error")
            for order, terms in expand_piece(piece, target_order).items():
                merged.setdefault(order, []).extend(terms)
        for order, terms in sorted(merged.items()):
            fi = FiniteIntegrand(sector.nvars, terms)
            if not len(fi):
                continue
            terms_per_order[order] = terms_per_order.get(order, 0) + len(fi)
            exact = fi.exact_value()
            if exact is not None:
                contributions.append((order, exact))
            else:
                stream_id = si * order_width + (order - floor)
                jobs.append((stream_id, order, sector.nvars, fi))

    def run(job):
        stream_id, _order, dim, fi = job
        return integrate(fi.compile(), dim, cfg, stream_id)

    if threads > 1 and len(jobs) > 1:
        with ThreadPoolExecutor(max_workers=threads) as pool:
            estimates = list(pool.map(run, jobs))
    else:
        estimates = list(map(run, jobs))
    for (_stream_id, order, _dim, _fi), est in zip(jobs, estimates):
        contributions.append((order, est))

    lowest = min((o for o, _v in contributions), default=0)
    series = EpsSeries.from_contributions(contributions, lowest=lowest, highest=target_order)
    diagnostics = {
        "primary_sectors": graph.n_edges,
        "final_sectors": len(final),
        "mc_integrals": len(jobs),
        "terms_per_order": {str(k): v for k, v in sorted(terms_per_order.items())},
    }
    return series, diagnostics
