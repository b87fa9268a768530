"""Time-to-tolerance benchmark for ``feynsec.sectors.pipeline``.

    python3 perfbench/run.py --workload kite2l --seed 1 --seconds 24 --trace 0

Builds the program from ``src/`` of the checkout it runs in.  One run:

1. times the set-up a user pays (imports plus building the graph) in a
   fresh interpreter before every pipeline call, so the probes sample the
   whole run, and keeps their median;
2. searches the doubling ladder of sample counts for the first count whose
   quoted relative error meets the workload's tolerance on every oracle
   coefficient, with the count below it missing (these calls are not timed);
3. with ``--trace 0``, repeats the passing call, untraced, until
   ``--seconds`` of calls (and at least MIN_TIMED) are timed, and reports
   their mean wall time.  The machine's speed changes from call to call;
   over ten runs of each workload the mean of a run's calls spread less
   than their median.  With ``--trace 1``, makes one traced passing call,
   writes its spans and counts to
   perfbench/out/trace_<workload>_<seed>.json and reports the per-layer
   metrics.

Every call is one operation, checked against the workload's oracle.  The
last line of standard output is one JSON object: correct, attempted,
failed and metrics.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import subprocess
import sys
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
MIN_TIMED = 3


def import_program():
    """Import feynsec from this checkout's src/, and nowhere else."""
    sys.path.insert(0, str(SRC))
    try:
        import feynsec
    except ImportError as exc:
        sys.exit(f"run.py: cannot import feynsec from {SRC}: {exc}")
    if SRC not in Path(feynsec.__file__).resolve().parents:
        sys.exit(f"run.py: feynsec was imported from {feynsec.__file__}, not from {SRC}")


def setup_seconds(job) -> float | None:
    """The probe's set-up time in one fresh interpreter; None if the job
    cannot be built (the operation that follows records that failure)."""
    spec = {"edges": job.edges, "externals": job.externals, "invariants": job.invariants}
    done = subprocess.run([sys.executable, str(HERE / "setup_probe.py"), json.dumps(spec)],
                          cwd=ROOT, capture_output=True, text=True, timeout=60)
    return float(done.stdout.strip().splitlines()[-1]) if done.returncode == 0 else None


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0  # KiB on Linux


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=24.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--threads", type=int,
                        help="override the workload's pipeline thread count")
    args = parser.parse_args(argv)

    import_program()
    from harness import ladder_search, run_call
    from jobs import JOBS
    from spans import Tracer, layer_metrics

    if args.workload not in JOBS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(JOBS)}")
    job = JOBS[args.workload]
    if args.threads is not None:
        job = replace(job, threads=args.threads)

    setup_times = []

    def call(job, samples, seed, **kwargs):
        t = setup_seconds(job)
        if t is not None:
            setup_times.append(t)
        return run_call(job, samples, seed, **kwargs)

    search = ladder_search(job, args.seed, call=call)
    calls = list(search.calls)
    for c in calls:
        print(f"search  2^{c.samples.bit_length() - 1:<2} rel_err {c.rel_err:.3e} "
              f"{'meets' if c.meets(job.tol) else 'misses'} tol {job.tol:g}"
              + (f"  FAILED: {c.error}" if c.failed else ""), file=sys.stderr)
    passing = search.passing
    problems = []
    if passing is None:
        problems.append("the search found no passing count"
                        + (f": {search.failed.error}" if search.failed else ""))
    metrics = {}
    if passing is not None and args.trace == 0:
        timed = []
        while len(timed) < MIN_TIMED or sum(c.wall_s for c in timed) < args.seconds:
            timed.append(call(job, passing.samples, args.seed))
            if timed[-1].failed:
                break
        calls += timed
        problems += [f"timed call differs from the search's passing call: {c.error or c.rows}"
                     for c in timed if c.failed or c.rows != passing.rows]
        walls = [c.wall_s for c in timed]
        print(f"timed   2^{passing.samples.bit_length() - 1} x{len(walls)}: "
              + " ".join(f"{c.wall_s:.3f}" for c in timed) + " s wall, "
              + " ".join(f"{c.cpu_s:.3f}" for c in timed) + " s cpu", file=sys.stderr)
        metrics = {
            "time_to_tol_s": (statistics.fmean(walls), "s"),
            "evals_to_tol": (passing.samples * passing.diagnostics["mc_integrals"], "count"),
            "setup_s": (statistics.median(setup_times), "s"),
            "peak_rss_mb": (peak_rss_mb(), "MB"),
        }
    elif passing is not None:
        tracer = Tracer()
        traced = call(job, passing.samples, args.seed, tracer=tracer)
        calls.append(traced)
        if traced.failed or traced.rows != passing.rows:
            problems.append(f"traced call differs from the untraced one: "
                            f"{traced.error or traced.rows}")
        else:
            metrics = layer_metrics(tracer, traced.diagnostics)
            out = HERE / "out" / f"trace_{job.name}_{args.seed}.json"
            out.parent.mkdir(parents=True, exist_ok=True)
            doc = {"workload": job.name, "seed": args.seed, "samples": passing.samples,
                   "untraced_wall_s": passing.wall_s, "traced_wall_s": traced.wall_s,
                   "overhead_s": traced.wall_s - passing.wall_s,
                   "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
                   **tracer.to_json()}
            out.write_text(json.dumps(doc))
            print(f"trace   {out}: traced {traced.wall_s:.3f} s, untraced "
                  f"{passing.wall_s:.3f} s, {len(tracer.spans)} spans", file=sys.stderr)

    for p in problems:
        print(f"run.py: {p}", file=sys.stderr)
    result = {
        "correct": not problems,
        "attempted": len(calls),
        "failed": sum(c.failed for c in calls),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    print(json.dumps(result))
    return 0 if not problems else 1


if __name__ == "__main__":
    sys.exit(main())
