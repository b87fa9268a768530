"""Scalar Feynman graphs, their spanning-tree polynomials, and the
parametric integral they define.

Conventions: the renormalisation scale is fixed to one, so every mass
squared and every kinematic invariant is an exact rational in those units.
Invariants are attached to subsets of external momentum labels; a subset and
its complement carry the same invariant by momentum conservation, and keys
are canonicalised to the lexicographically smaller side.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .epsilon import EpsExponent
from .errors import EuclideanRegionError, KinematicsError, ScalelessError, TopologyError
from .expansion import SectorIntegrand
from .poly import Poly


@dataclass(frozen=True)
class Edge:
    tail: int
    head: int
    mass2: Fraction = Fraction(0)
    power: int = 1

    def __post_init__(self):
        if self.power < 1:
            raise ValueError("propagator power must be a positive integer")
        if self.mass2 < 0:
            raise ValueError("squared mass must be nonnegative")


class FeynmanGraph:
    """Connected multigraph with massive powered propagators and external legs.

    ``externals`` is a list of (vertex, momentum label) pairs; several legs
    may attach to the same vertex.
    """

    def __init__(self, edges, externals=()):
        self.edges = [e if isinstance(e, Edge) else Edge(e[0], e[1],
                                                         Fraction(e[2]) if len(e) > 2 else Fraction(0),
                                                         e[3] if len(e) > 3 else 1)
                      for e in edges]
        if not self.edges:
            raise TopologyError("graph needs at least one internal edge")
        self.vertices = sorted({v for e in self.edges for v in (e.tail, e.head)})
        self.externals = [(int(v), str(label)) for v, label in externals]
        for v, _ in self.externals:
            if v not in self.vertices:
                raise TopologyError(f"external leg attached to unknown vertex {v}")
        if not self._connected():
            raise TopologyError("graph is not connected")
        self.n_edges = len(self.edges)
        self.loops = self.n_edges - len(self.vertices) + 1
        if self.loops < 1:
            raise TopologyError("graph has no loops; nothing to integrate")

    def _connected(self) -> bool:
        seen = {self.vertices[0]}
        frontier = [self.vertices[0]]
        while frontier:
            v = frontier.pop()
            for e in self.edges:
                for a, b in ((e.tail, e.head), (e.head, e.tail)):
                    if a == v and b not in seen:
                        seen.add(b)
                        frontier.append(b)
        return len(seen) == len(self.vertices)

    @property
    def nu_total(self) -> int:
        return sum(e.power for e in self.edges)

    def external_labels(self) -> tuple[str, ...]:
        return tuple(sorted(label for _, label in self.externals))


def _components(graph: FeynmanGraph, edge_idx):
    """Vertex partition of a set of edges, or None if the edges close a cycle."""
    parent = {v: v for v in graph.vertices}

    def find(v):
        while parent[v] != v:
            parent[v] = parent[parent[v]]
            v = parent[v]
        return v

    for i in edge_idx:
        e = graph.edges[i]
        a, b = find(e.tail), find(e.head)
        if a == b:
            return None  # includes self-loops
        parent[a] = b
    roots = {}
    for v in graph.vertices:
        roots.setdefault(find(v), set()).add(v)
    return tuple(frozenset(s) for s in sorted(roots.values(), key=lambda s: min(s)))


def _forest_subsets(graph: FeynmanGraph, size: int, parts: int):
    """All acyclic edge subsets of the given size with the given component count.

    A recursion over edges in index order that drops every branch as soon
    as its chosen edges close a cycle.
    """
    out = []

    def rec(i, chosen):
        if len(chosen) == size:
            partition = _components(graph, chosen)
            if len(partition) == parts:
                out.append((frozenset(chosen), partition))
            return
        if graph.n_edges - i < size - len(chosen):
            return
        chosen.append(i)
        if _components(graph, chosen) is not None:
            rec(i + 1, chosen)
        chosen.pop()
        rec(i + 1, chosen)

    rec(0, [])
    return out


def spanning_trees(graph: FeynmanGraph) -> list[frozenset]:
    """All spanning trees, as frozensets of edge indices."""
    n_tree = len(graph.vertices) - 1
    return sorted((idx for idx, _ in _forest_subsets(graph, n_tree, 1)), key=sorted)


def spanning_two_forests(graph: FeynmanGraph) -> list[tuple[frozenset, tuple]]:
    """All spanning 2-forests as (edge index set, two-component vertex partition)."""
    size = len(graph.vertices) - 2
    if size < 0:
        # single vertex: the empty forest leaves one component, never two
        return []
    return sorted(_forest_subsets(graph, size, 2), key=lambda t: sorted(t[0]))


def chord(graph: FeynmanGraph, edge_subset: frozenset) -> frozenset:
    """Edges outside the given subset; their parameters form the monomial."""
    return frozenset(range(graph.n_edges)) - edge_subset


class Kinematics:
    """Exact rational invariants keyed by external-label subsets.

    All invariants must be <= 0 (Euclidean region).  A subset and its
    complement are the same cut; supplying both with different values is an
    error.
    """

    def __init__(self, invariants: dict, labels: tuple[str, ...] = ()):
        self.labels = tuple(sorted(labels))
        self._table: dict[tuple[str, ...], Fraction] = {}
        for key, value in invariants.items():
            subset = tuple(sorted(key.split(","))) if isinstance(key, str) else tuple(sorted(key))
            value = Fraction(value)
            if value > 0:
                raise EuclideanRegionError(
                    f"invariant for {subset} is positive; only the Euclidean region is supported")
            canon = self._canonical(subset)
            if canon in self._table and self._table[canon] != value:
                raise KinematicsError(
                    f"invariant for {subset} conflicts with its complement value")
            self._table[canon] = value

    def _canonical(self, subset: tuple[str, ...]) -> tuple[str, ...]:
        if not self.labels:
            return tuple(sorted(subset))
        comp = tuple(sorted(set(self.labels) - set(subset)))
        subset = tuple(sorted(subset))
        return min(subset, comp)

    def invariant(self, subset) -> Fraction:
        subset = tuple(sorted(subset))
        if not subset or (self.labels and len(subset) == len(self.labels)):
            return Fraction(0)  # total momentum squared vanishes by conservation
        canon = self._canonical(subset)
        if canon == ():
            return Fraction(0)
        if canon not in self._table:
            raise KinematicsError(f"missing invariant for momentum subset {subset}")
        return self._table[canon]


def u_polynomial(graph: FeynmanGraph) -> Poly:
    """First graph polynomial: sum over spanning trees of the chord monomials.

    Homogeneous of degree equal to the loop number, all coefficients one.
    """
    n = graph.n_edges
    coeffs = {}
    for tree in spanning_trees(graph):
        exps = tuple(1 if i in chord(graph, tree) else 0 for i in range(n))
        coeffs[exps] = 1
    poly = Poly(n, coeffs)
    if not poly:
        raise TopologyError("graph has no spanning tree")
    assert poly.is_homogeneous() and poly.degree() == graph.loops
    return poly


def f_polynomial(graph: FeynmanGraph, kin: Kinematics) -> Poly:
    """Second graph polynomial: 2-forest cut terms plus the mass part."""
    n = graph.n_edges
    f0 = Poly(n, {})
    for forest, (part1, _part2) in spanning_two_forests(graph):
        cut_labels = [label for v, label in graph.externals if v in part1]
        s = kin.invariant(cut_labels)
        if s == 0:
            continue
        exps = tuple(1 if i in chord(graph, forest) else 0 for i in range(n))
        f0 = f0 + Poly.monomial(n, exps, -s)
    mass_sum = Poly(n, {})
    for i, e in enumerate(graph.edges):
        if e.mass2:
            mass_sum = mass_sum + Poly.variable(n, i) * e.mass2
    f = f0 + u_polynomial(graph) * mass_sum
    if f:
        assert f.is_homogeneous() and f.degree() == graph.loops + 1
        assert all(c > 0 for c in f.coeffs.values())
    return f


def feynman_parametrize(graph: FeynmanGraph, kin: Kinematics, m: int = 2) -> SectorIntegrand:
    """Build the parametric integral for D = 2m - 2*eps dimensions.

    The result is the integrand over the standard simplex: monomial
    exponents nu_j - 1 and the factors U and F with the exponents
    nu - (l+1)m + (l+1)eps and -(nu - l m) - l eps.  Both factors are
    homogeneous, so the integrand has degree -n in the n Feynman parameters
    (it is projective), which is all that ``sectors.primary_sectors`` needs.
    """
    if m < 1:
        raise ValueError("dimension anchor must be a positive integer")
    u = u_polynomial(graph)
    f = f_polynomial(graph, kin)
    if not f:
        raise ScalelessError("second graph polynomial vanishes identically (scaleless integral)")
    l, nu = graph.loops, graph.nu_total
    exp_u = EpsExponent(nu - (l + 1) * m, l + 1)
    exp_f = EpsExponent(l * m - nu, -l)
    monomials = tuple(EpsExponent(e.power - 1, 0) for e in graph.edges)
    return SectorIntegrand(monomials=monomials, factors=((u, exp_u), (f, exp_f)))


# -- convenience builders used by tests and the CLI ------------------------

def bubble(s=Fraction(-1)) -> tuple[FeynmanGraph, Kinematics]:
    """Massless one-loop two-point graph with invariant s for the leg pair."""
    g = FeynmanGraph([(0, 1, 0, 1), (0, 1, 0, 1)], externals=[(0, "p1"), (1, "p2")])
    kin = Kinematics({"p1": s}, labels=g.external_labels())
    return g, kin


def tadpole(mass2=Fraction(1)) -> tuple[FeynmanGraph, Kinematics]:
    g = FeynmanGraph([(0, 0, mass2, 1)], externals=[])
    return g, Kinematics({}, labels=())


def one_mass_triangle(p3sq=Fraction(-1)) -> tuple[FeynmanGraph, Kinematics]:
    """Massless triangle with one off-shell leg; edges ordered so that the
    second polynomial is x0*x1."""
    g = FeynmanGraph([(2, 0, 0, 1), (1, 2, 0, 1), (0, 1, 0, 1)],
                     externals=[(0, "p1"), (1, "p2"), (2, "p3")])
    kin = Kinematics({"p1": 0, "p2": 0, "p3": p3sq}, labels=g.external_labels())
    return g, kin
