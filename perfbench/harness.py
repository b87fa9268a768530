"""One operation (a ``pipeline()`` call plus its oracle check) and the
doubling-ladder search for the first sample count that meets a tolerance.
"""

from __future__ import annotations

import sys
import time
import traceback
from contextlib import nullcontext
from dataclasses import dataclass

from feynsec.mcint import MCConfig
from feynsec.sectors import pipeline

from jobs import DIM_ANCHOR, STRATEGY, Job
from spans import Tracer, traced_pipeline

MAX_PULL = 5.0          # an oracle coefficient further than this many quoted sigma fails
MIN_LOG2, MAX_LOG2 = 1, 24


@dataclass
class Outcome:
    samples: int
    wall_s: float = 0.0
    cpu_s: float = 0.0          # process CPU time of the call, all threads
    rows: tuple = ()            # series.as_rows(): (order, value, error)
    diagnostics: dict | None = None
    rel_err: float = float("inf")   # largest quoted relative error over the oracle orders
    error: str | None = None    # why the operation failed, or None

    @property
    def failed(self) -> bool:
        return self.error is not None

    def meets(self, tol: float) -> bool:
        return not self.failed and self.rel_err <= tol


def check(job: Job, series) -> tuple[float, str | None]:
    """Largest quoted relative error on the job's oracle orders, and the
    first oracle disagreement (None when every order agrees within
    MAX_PULL sigma; exact coefficients must agree to rounding)."""
    floor = min(series.orders(), default=job.order)
    rel_err = 0.0
    for order in range(floor, job.order + 1):
        truth = job.oracle.get(order, 0.0)
        value, err, exact = series.coefficient(order)
        value = float(value)
        if exact or err == 0.0:
            if abs(value - truth) > 1e-12 * max(1.0, abs(truth)):
                return rel_err, f"eps^{order}: exact {value!r} != oracle {truth!r}"
        elif abs(value - truth) > MAX_PULL * err:
            return rel_err, (f"eps^{order}: {value!r} +- {err!r} is "
                             f"{abs(value - truth) / err:.1f} sigma from {truth!r}")
        if order in job.oracle:
            rel_err = max(rel_err, err / abs(value) if value else float("inf"))
    return rel_err, None


def run_call(job: Job, samples: int, seed: int, tracer: Tracer | None = None) -> Outcome:
    """One operation: build the job, call pipeline() once, check the result.

    With a tracer, the call runs instrumented under a root span.  Any
    exception is caught here and recorded as the operation's failure, so
    one bad call cannot end the run.
    """
    out = Outcome(samples=samples)
    try:
        graph, kin = job.build()
        cfg = MCConfig(samples=samples, seed=seed)
        start, cpu = time.perf_counter(), time.process_time()
        with traced_pipeline(tracer) if tracer else nullcontext():
            series, diagnostics = pipeline(graph, kin, m=DIM_ANCHOR, target_order=job.order,
                                           strategy=STRATEGY, cfg=cfg, threads=job.threads)
        out.wall_s = time.perf_counter() - start
        out.cpu_s = time.process_time() - cpu
    except Exception as exc:  # the boundary of one operation
        traceback.print_exc(file=sys.stderr)
        out.error = "".join(traceback.format_exception_only(type(exc), exc)).strip()
        return out
    out.rows = tuple(series.as_rows())
    out.diagnostics = diagnostics
    out.rel_err, out.error = check(job, series)
    return out


@dataclass
class Search:
    calls: list             # every Outcome, in call order
    passing: Outcome | None = None
    below: Outcome | None = None

    @property
    def failed(self) -> Outcome | None:
        return next((c for c in self.calls if c.failed), None)


def ladder_search(job: Job, seed: int, call=run_call) -> Search:
    """Find the first count 2**k whose call meets ``job.tol`` while 2**(k-1)
    misses it, starting at 2**job.start_log2 and stepping towards the
    boundary.  Stops at the first failed operation."""
    search = Search(calls=[])

    def at(log2: int) -> Outcome:
        out = call(job, 1 << log2, seed)
        search.calls.append(out)
        return out

    k = job.start_log2
    here = at(k)
    step = -1 if here.meets(job.tol) else 1
    while not here.failed:
        if not MIN_LOG2 < k + step <= MAX_LOG2:
            break
        k += step
        there = at(k)
        if there.failed:
            break
        if step < 0 and not there.meets(job.tol):
            search.passing, search.below = here, there
            break
        if step > 0 and there.meets(job.tol):
            search.passing, search.below = there, here
            break
        here = there
    return search
