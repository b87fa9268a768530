"""Spans and counts around the layers ``sectors.pipeline`` calls into.

The program is not edited: ``instrument`` replaces, for the duration of a
``with`` block, the module attributes that ``pipeline`` looks up at call
time with timing wrappers, and restores the originals on exit.  Spans are
kept in memory; ``Tracer.to_json`` writes them out afterwards.
"""

from __future__ import annotations

import functools
import itertools
import threading
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import asdict, dataclass


@dataclass(frozen=True)
class Span:
    id: int
    name: str
    start: float
    end: float
    parent: int | None
    thread: int


class Tracer:
    """Collects spans; a span's parent is the innermost open span on its
    thread, or the root span for work started on a pool thread."""

    def __init__(self):
        self.spans: list[Span] = []
        self.counts: Counter = Counter()
        self._ids = itertools.count()
        self._local = threading.local()
        self._lock = threading.Lock()
        self.root: int | None = None

    @contextmanager
    def span(self, name: str):
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        sid = next(self._ids)
        parent = stack[-1] if stack else self.root
        if self.root is None:
            self.root = sid
        stack.append(sid)
        start = time.perf_counter()
        try:
            yield
        finally:
            end = time.perf_counter()
            stack.pop()
            with self._lock:
                self.spans.append(Span(sid, name, start, end, parent,
                                       threading.get_ident()))

    def count(self, name: str, n: int = 1):
        with self._lock:
            self.counts[name] += n

    def wrap(self, fn, name: str, counted=None):
        """``fn`` inside a span; ``counted(result)`` adds to a count."""
        @functools.wraps(fn)
        def traced(*args, **kwargs):
            with self.span(name):
                result = fn(*args, **kwargs)
            self.count(name + ".calls")
            if counted is not None:
                counted(result)
            return result
        return traced

    def self_times(self) -> dict[int, float]:
        """Each span's duration minus the union of its children's intervals
        (clipped to the span), so children running in parallel on pool
        threads are not subtracted twice."""
        children: dict[int, list[Span]] = {}
        for s in self.spans:
            if s.parent is not None:
                children.setdefault(s.parent, []).append(s)
        out = {}
        for s in self.spans:
            covered, reach = 0.0, s.start
            for c in sorted(children.get(s.id, ()), key=lambda c: c.start):
                lo, hi = max(c.start, reach), min(c.end, s.end)
                if hi > lo:
                    covered += hi - lo
                    reach = hi
            out[s.id] = (s.end - s.start) - covered
        return out

    def self_time_by_name(self) -> dict[str, float]:
        totals: dict[str, float] = {}
        by_id = {s.id: s for s in self.spans}
        for sid, t in self.self_times().items():
            name = by_id[sid].name
            totals[name] = totals.get(name, 0.0) + t
        return totals

    def to_json(self) -> dict:
        return {"spans": [asdict(s) for s in sorted(self.spans, key=lambda s: s.id)],
                "counts": dict(self.counts)}


@contextmanager
def instrument(tracer: Tracer):
    """Wrap the layers ``sectors.pipeline`` reaches, then restore them.

    ``FiniteIntegrand`` is replaced by a factory that times construction
    and wraps each instance's ``compile`` and the evaluator it returns.
    """
    from feynsec import hironaka, sectors

    real_fi = sectors.FiniteIntegrand

    def traced_evaluator(f):
        def evaluate(x):
            tracer.count("mcint.evals", x.shape[0])
            return f(x)
        return tracer.wrap(evaluate, "expansion.evaluate")

    def finite_integrand(*args, **kwargs):
        with tracer.span("expansion.finite_integrand"):
            fi = real_fi(*args, **kwargs)
        tracer.count("expansion.terms", len(fi))
        compile_ = tracer.wrap(fi.compile, "expansion.compile")
        fi.compile = lambda: traced_evaluator(compile_())
        return fi

    patches = [
        (sectors, "feynman_parametrize", tracer.wrap(sectors.feynman_parametrize,
                                                     "graphs.parametrize")),
        (sectors, "primary_sectors", tracer.wrap(sectors.primary_sectors, "sectors.primary")),
        (sectors, "iterate_decomposition", tracer.wrap(sectors.iterate_decomposition,
                                                       "sectors.blowup")),
        (sectors, "decompose_step", tracer.wrap(sectors.decompose_step,
                                                "sectors.decompose_step")),
        (hironaka, "strategy_for_polynomial", tracer.wrap(hironaka.strategy_for_polynomial,
                                                          "hironaka.strategy")),
        (sectors, "extract_poles", tracer.wrap(
            sectors.extract_poles, "expansion.extract_poles",
            counted=lambda pieces: tracer.count("expansion.pieces", len(pieces)))),
        (sectors, "expand_piece", tracer.wrap(sectors.expand_piece, "expansion.expand_piece")),
        (sectors, "FiniteIntegrand", finite_integrand),
        (sectors, "integrate", tracer.wrap(sectors.integrate, "mcint.integrate")),
    ]
    originals = [(mod, attr, getattr(mod, attr)) for mod, attr, _ in patches]
    try:
        for mod, attr, fn in patches:
            setattr(mod, attr, fn)
        yield tracer
    finally:
        for mod, attr, fn in originals:
            setattr(mod, attr, fn)


SPAN_METRICS = {            # per-layer metric -> span whose self time it sums
    "graphs.parametrize_s": "graphs.parametrize",
    "sectors.primary_s": "sectors.primary",
    "sectors.blowup_s": "sectors.blowup",
    "sectors.decompose_step_s": "sectors.decompose_step",
    "sectors.pipeline_self_s": "sectors.pipeline",
    "hironaka.strategy_s": "hironaka.strategy",
    "expansion.extract_poles_s": "expansion.extract_poles",
    "expansion.expand_piece_s": "expansion.expand_piece",
    "expansion.finite_integrand_s": "expansion.finite_integrand",
    "expansion.compile_s": "expansion.compile",
    "expansion.evaluate_s": "expansion.evaluate",
    "mcint.integrate_s": "mcint.integrate",
}
COUNT_METRICS = {           # per-layer metric -> tracer count
    "sectors.decompose_steps": "sectors.decompose_step.calls",
    "hironaka.strategy_calls": "hironaka.strategy.calls",
    "expansion.pieces": "expansion.pieces",
    "expansion.terms": "expansion.terms",
    "mcint.integrals": "mcint.integrate.calls",
    "mcint.evals": "mcint.evals",
}


@contextmanager
def traced_pipeline(tracer: Tracer):
    """Instrument the layers and open the root span around one call."""
    with instrument(tracer), tracer.span("sectors.pipeline"):
        yield


def layer_metrics(tracer: Tracer, diagnostics: dict) -> dict[str, tuple[float, str]]:
    """Every per-layer metric as {name: (value, unit)}."""
    self_s = tracer.self_time_by_name()
    out = {name: (self_s.get(span, 0.0), "s") for name, span in SPAN_METRICS.items()}
    out.update({name: (tracer.counts.get(key, 0), "count")
                for name, key in COUNT_METRICS.items()})
    out["sectors.final_sectors"] = (diagnostics["final_sectors"], "count")
    mc_s = out["mcint.integrate_s"][0] + out["expansion.evaluate_s"][0]
    out["mcint.evals_per_s"] = (out["mcint.evals"][0] / mc_s if mc_s else 0.0, "1/s")
    return out
