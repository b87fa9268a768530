"""The benchmark's workloads: graphs, kinematics, tolerances and oracles."""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from feynsec.graphs import FeynmanGraph, Kinematics

import oracles


@dataclass(frozen=True)
class Job:
    name: str
    edges: tuple
    externals: tuple
    invariants: dict
    order: int
    tol: float          # largest quoted relative error accepted on every oracle coefficient
    start_log2: int     # the search starts at 2**start_log2 samples
    threads: int
    oracle: dict        # {order: analytic value}; orders not named are checked against 0

    def build(self):
        """The job's FeynmanGraph and Kinematics, as a user would build them."""
        graph = FeynmanGraph(list(self.edges), externals=list(self.externals))
        kin = Kinematics({k: Fraction(v) for k, v in self.invariants.items()},
                         labels=graph.external_labels())
        return graph, kin


DIM_ANCHOR = 2          # D = 2m - 2 eps with m = 2 for every job
STRATEGY = "pairdiff"

KITE_EDGES = ((0, 1), (0, 2), (1, 2), (1, 3), (2, 3))
DBOX_EDGES = ((0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (5, 0), (1, 4))
LADDER_EDGES = ((0, 1), (1, 2), (2, 3), (0, 4), (4, 5), (5, 3), (1, 4), (2, 5))

JOBS = {
    "kite2l": Job(
        name="kite2l", edges=KITE_EDGES, externals=((0, "p1"), (3, "p2")),
        invariants={"p1": "-1"}, order=0, tol=1.6e-4, start_log2=19, threads=1,
        oracle={0: oracles.kite_eps0()}),
    "dbox2l": Job(
        name="dbox2l", edges=DBOX_EDGES,
        externals=((0, "p1"), (2, "p2"), (3, "p3"), (5, "p4")),
        invariants={"p1": "0", "p2": "0", "p3": "0", "p4": "0",
                    "p1,p4": "-2", "p1,p2": "-3"},
        order=-2, tol=4e-3, start_log2=13, threads=1,
        oracle=oracles.double_box(s=-2, t=-3, upto=-2)),
    "ladder3l": Job(
        name="ladder3l", edges=LADDER_EDGES, externals=((0, "p1"), (3, "p2")),
        invariants={"p1": "-1"}, order=0, tol=1e-3, start_log2=11, threads=1,
        oracle={0: oracles.ladder3_eps0()}),
}
