"""feynsec: numerical Laurent expansion of scalar multi-loop Feynman integrals.

The pipeline builds the graph polynomials of a Feynman graph, splits the
parametric integral into sectors, resolves the singularities by iterated
blow-ups steered by a polyhedra-game strategy, extracts the poles in the
dimensional regulator exactly, and integrates the finite coefficient
integrands by a seeded randomised rank-1 lattice rule.  Word-algebra and
polylogarithm modules supply the independent analytic oracles used in the
test suite.
"""

__version__ = "0.1.0"
