"""Graph-polynomial suite.

Independent oracles: spanning trees / 2-forests by brute-force subset
enumeration with a local union-find, spanning-tree counts by the matrix-tree
determinant over exact rationals.
"""

from fractions import Fraction
from itertools import combinations

import pytest

from feynsec.epsilon import EpsExponent
from feynsec.errors import (EuclideanRegionError, KinematicsError, ScalelessError,
                            TopologyError)
from feynsec.graphs import (Edge, FeynmanGraph, Kinematics, bubble, chord,
                            f_polynomial, feynman_parametrize, one_mass_triangle,
                            spanning_trees, spanning_two_forests, tadpole,
                            u_polynomial)
from feynsec.poly import Poly


# -- independent oracles ------------------------------------------------------

def brute_forests(graph, size, parts):
    """All acyclic edge subsets with |subset| = size and `parts` components."""
    out = []
    if size < 0:
        return out
    vertices = graph.vertices
    for subset in combinations(range(graph.n_edges), size):
        parent = {v: v for v in vertices}

        def find(v):
            while parent[v] != v:
                v = parent[v]
            return v

        ok = True
        for i in subset:
            e = graph.edges[i]
            a, b = find(e.tail), find(e.head)
            if a == b:
                ok = False
                break
            parent[a] = b
        if not ok:
            continue
        comps = len({find(v) for v in vertices})
        if comps == parts:
            out.append(frozenset(subset))
    return sorted(out, key=sorted)


def kirchhoff_count(graph) -> Fraction:
    """Spanning-tree count via the reduced Laplacian determinant."""
    verts = graph.vertices
    idx = {v: i for i, v in enumerate(verts)}
    n = len(verts)
    lap = [[Fraction(0)] * n for _ in range(n)]
    for e in graph.edges:
        if e.tail == e.head:
            continue
        a, b = idx[e.tail], idx[e.head]
        lap[a][a] += 1
        lap[b][b] += 1
        lap[a][b] -= 1
        lap[b][a] -= 1
    # delete the last row and column, Gaussian determinant
    m = [row[:-1] for row in lap[:-1]]
    det = Fraction(1)
    size = n - 1
    for col in range(size):
        pivot = next((r for r in range(col, size) if m[r][col] != 0), None)
        if pivot is None:
            return Fraction(0)
        if pivot != col:
            m[col], m[pivot] = m[pivot], m[col]
            det = -det
        det *= m[col][col]
        inv = Fraction(1) / m[col][col]
        for r in range(col + 1, size):
            f = m[r][col] * inv
            if f:
                m[r] = [a - f * b for a, b in zip(m[r], m[col])]
    return det


GRAPH_ZOO = {
    "bubble": FeynmanGraph([(0, 1), (0, 1)], externals=[(0, "p1"), (1, "p2")]),
    "tadpole": FeynmanGraph([(0, 0, 1, 1)], externals=[]),
    "triangle": FeynmanGraph([(0, 1), (1, 2), (2, 0)],
                             externals=[(0, "p1"), (1, "p2"), (2, "p3")]),
    "sunset": FeynmanGraph([(0, 1), (0, 1), (0, 1)], externals=[(0, "p1"), (1, "p2")]),
    "double-bubble": FeynmanGraph([(0, 1), (0, 1), (1, 2), (1, 2)],
                                  externals=[(0, "p1"), (2, "p2")]),
    "box": FeynmanGraph([(0, 1), (1, 2), (2, 3), (3, 0)],
                        externals=[(0, "p1"), (1, "p2"), (2, "p3"), (3, "p4")]),
    "bubble-with-selfloop": FeynmanGraph([(0, 1), (0, 1), (1, 1, 1, 1)],
                                         externals=[(0, "p1"), (1, "p2")]),
}


# -- tree and forest enumeration ----------------------------------------------

def test_spanning_trees_bubble():
    g = GRAPH_ZOO["bubble"]
    trees = spanning_trees(g)
    assert trees == [frozenset({0}), frozenset({1})]
    assert [chord(g, t) for t in trees] == [frozenset({1}), frozenset({0})]


def test_spanning_trees_tadpole():
    g = GRAPH_ZOO["tadpole"]
    assert spanning_trees(g) == [frozenset()]
    assert chord(g, frozenset()) == frozenset({0})


def test_spanning_trees_triangle():
    g = GRAPH_ZOO["triangle"]
    trees = spanning_trees(g)
    assert len(trees) == 3
    assert all(len(chord(g, t)) == g.loops for t in trees)


def test_trees_match_bruteforce_and_kirchhoff():
    for name, g in GRAPH_ZOO.items():
        trees = spanning_trees(g)
        assert trees == brute_forests(g, len(g.vertices) - 1, 1), name
        assert len(trees) == kirchhoff_count(g), name


def test_two_forests_match_bruteforce():
    for name, g in GRAPH_ZOO.items():
        got = [fs for fs, _part in spanning_two_forests(g)]
        expected = brute_forests(g, len(g.vertices) - 2, 2)
        assert got == expected, name
        for fs, _part in spanning_two_forests(g):
            assert len(chord(g, fs)) == g.loops + 1, name


def test_two_forest_examples():
    g = GRAPH_ZOO["bubble"]
    forests = spanning_two_forests(g)
    assert forests == [(frozenset(), (frozenset({0}), frozenset({1})))]
    assert spanning_two_forests(GRAPH_ZOO["tadpole"]) == []


def test_disconnected_graph_rejected():
    with pytest.raises(TopologyError):
        FeynmanGraph([(0, 1), (2, 3), (0, 1), (2, 3)])


def test_enumeration_above_bruteforce_cutoff():
    """On 13 edges the count still has to match the determinant oracle."""
    edges = [(i, i + 1) for i in range(6)] + [(6, 0)] + \
            [(0, 3), (1, 4), (2, 5), (0, 2), (3, 5), (1, 6)]
    g = FeynmanGraph(edges, externals=[(0, "p1"), (3, "p2")])
    assert g.n_edges == 13
    trees = spanning_trees(g)
    assert len(trees) == kirchhoff_count(g)
    assert all(len(t) == len(g.vertices) - 1 for t in trees)


# -- graph polynomials ---------------------------------------------------------

def test_u_polynomial_examples():
    assert u_polynomial(GRAPH_ZOO["bubble"]) == Poly(2, {(1, 0): 1, (0, 1): 1})
    assert u_polynomial(GRAPH_ZOO["tadpole"]) == Poly(1, {(1,): 1})
    assert u_polynomial(GRAPH_ZOO["triangle"]) == Poly(3, {(1, 0, 0): 1, (0, 1, 0): 1, (0, 0, 1): 1})


def test_u_polynomial_invariants():
    for name, g in GRAPH_ZOO.items():
        u = u_polynomial(g)
        assert u.is_homogeneous() and u.degree() == g.loops, name
        assert all(c == 1 for c in u.coeffs.values()), name
        assert all(all(e <= 1 for e in exps) for exps in u.coeffs), name
        ones = [Fraction(1)] * g.n_edges
        assert u.eval_exact(ones) == len(spanning_trees(g)), name


def test_f_polynomial_examples():
    g, kin = bubble(Fraction(-1))
    assert f_polynomial(g, kin) == Poly(2, {(1, 1): 1})
    g, kin = tadpole(Fraction(1))
    assert f_polynomial(g, kin) == Poly(1, {(2,): 1})
    g, kin = one_mass_triangle(Fraction(-1))
    assert f_polynomial(g, kin) == Poly(3, {(1, 1, 0): 1})


def test_f_polynomial_nonnegative_and_homogeneous():
    g, kin = one_mass_triangle(Fraction(-3, 2))
    f = f_polynomial(g, kin)
    assert f.is_homogeneous() and f.degree() == g.loops + 1
    assert all(c > 0 for c in f.coeffs.values())


def test_kinematics_canonicalization_and_errors():
    labels = ("p1", "p2", "p3")
    kin = Kinematics({"p3": Fraction(-1)}, labels=labels)
    # complement subsets agree by momentum conservation
    assert kin.invariant(("p3",)) == -1
    assert kin.invariant(("p1", "p2")) == -1
    with pytest.raises(EuclideanRegionError):
        Kinematics({"p1": Fraction(1)}, labels=labels)
    with pytest.raises(KinematicsError):
        Kinematics({"p3": Fraction(-1), "p1,p2": Fraction(-2)}, labels=labels)
    with pytest.raises(KinematicsError):
        kin.invariant(("p1",))


def test_missing_invariant_is_error_not_zero():
    g = GRAPH_ZOO["triangle"]
    kin = Kinematics({"p3": Fraction(-1)}, labels=g.external_labels())
    with pytest.raises(KinematicsError):
        f_polynomial(g, kin)


def test_scaleless_rejected():
    g = FeynmanGraph([(0, 1), (0, 1)], externals=[])  # no legs, massless
    with pytest.raises(ScalelessError):
        feynman_parametrize(g, Kinematics({}, labels=()))


# -- parametric integral ---------------------------------------------------------

def test_parametrize_exponents_bubble():
    g, kin = bubble()
    p = feynman_parametrize(g, kin, m=2)
    (u, exp_u), (f, exp_f) = p.factors
    assert exp_u == EpsExponent(-2, 2)
    assert exp_f == EpsExponent(0, -1)
    assert p.monomials == (EpsExponent(0, 0), EpsExponent(0, 0))


def test_parametrize_exponents_tadpole():
    g, kin = tadpole()
    p = feynman_parametrize(g, kin, m=2)
    (_, exp_u), (_, exp_f) = p.factors
    assert exp_u == EpsExponent(-3, 2)
    assert exp_f == EpsExponent(1, -1)


def test_parametrize_exponents_triangle():
    g, kin = one_mass_triangle()
    p = feynman_parametrize(g, kin, m=2)
    (_, exp_u), (_, exp_f) = p.factors
    assert exp_u == EpsExponent(-1, 2)
    assert exp_f == EpsExponent(-1, -1)


def test_powered_propagator_changes_exponents():
    g = FeynmanGraph([(0, 1, 0, 2), (0, 1, 0, 1)], externals=[(0, "p1"), (1, "p2")])
    kin = Kinematics({"p1": Fraction(-1)}, labels=g.external_labels())
    p = feynman_parametrize(g, kin, m=2)
    assert p.monomials == (EpsExponent(1, 0), EpsExponent(0, 0))
    (_, exp_u), (_, exp_f) = p.factors
    assert exp_u == EpsExponent(3 - 4, 2)
    assert exp_f == EpsExponent(2 - 3, -1)


def test_parametrize_rejects_bad_anchor():
    g, kin = bubble()
    with pytest.raises(ValueError):
        feynman_parametrize(g, kin, m=0)


def test_edge_validation():
    with pytest.raises(ValueError):
        Edge(0, 1, Fraction(-1), 1)
    with pytest.raises(ValueError):
        Edge(0, 1, Fraction(0), 0)
