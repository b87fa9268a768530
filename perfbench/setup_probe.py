"""Time what a user pays before ``pipeline()`` starts, in a fresh interpreter.

    python3 perfbench/setup_probe.py '{"edges": [[0, 1], [0, 1]],
        "externals": [[0, "p1"], [1, "p2"]], "invariants": {"p1": "-1"}}'

prints the seconds from just before ``import numpy`` and the ``feynsec``
imports to the job's FeynmanGraph and Kinematics being built.  The
interpreter's own start-up is not included.  Only the standard library is
imported before the clock starts.
"""

import json
import sys
import time
from fractions import Fraction
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))


def main() -> None:
    spec = json.loads(sys.argv[1])
    start = time.perf_counter()
    import numpy  # noqa: F401
    import feynsec.sectors  # noqa: F401
    from feynsec.graphs import FeynmanGraph, Kinematics
    graph = FeynmanGraph([tuple(e) for e in spec["edges"]],
                         externals=[tuple(x) for x in spec["externals"]])
    Kinematics({k: Fraction(v) for k, v in spec["invariants"].items()},
               labels=graph.external_labels())
    print(repr(time.perf_counter() - start))


if __name__ == "__main__":
    main()
