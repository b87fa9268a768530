"""Tests of the benchmark's own logic: oracles, ladder search, failure
counting, thread independence and the tracer.

    python3 -m pytest perfbench/tests -q
"""

import json
import math
from dataclasses import replace
from pathlib import Path

import pytest

import harness
import oracles
import run
import spans
from harness import ladder_search, run_call
from jobs import JOBS, Job

BENCHMARK = json.loads((Path(__file__).resolve().parents[2] / "BENCHMARK.json").read_text())

ZETA3 = 1.2020569031595942
ZETA5 = 1.0369277551433699

BUBBLE = Job(name="bubble", edges=((0, 1), (0, 1)), externals=((0, "p1"), (1, "p2")),
             invariants={"p1": "-1"}, order=1, tol=1.2e-2, start_log2=12, threads=1,
             oracle=oracles.bubble(1))


def test_oracles_against_independent_digits():
    assert oracles.kite_eps0() == pytest.approx(6 * ZETA3, rel=1e-15)
    assert oracles.ladder3_eps0() == pytest.approx(20 * ZETA5, rel=1e-15)
    dbox = oracles.double_box(s=-2, t=-3, upto=-2)
    assert dbox[-4] == 1 / 6
    assert dbox[-3] == pytest.approx(-0.8155210, abs=5e-8)
    assert dbox[-2] == pytest.approx(0.8277885, abs=5e-8)
    assert oracles.bubble(2) == pytest.approx({0: 1.0, 1: 2.0, 2: 4 - math.pi ** 2 / 6})
    with pytest.raises(ValueError):
        oracles.double_box(s=-2, t=-3, upto=-1)


@pytest.mark.parametrize("start_log2", [14, 6])
def test_search_returns_first_passing_count_from_either_side(start_log2):
    job = replace(BUBBLE, start_log2=start_log2)
    search = ladder_search(job, seed=5)
    assert search.failed is None and search.passing is not None
    k = search.passing.samples.bit_length() - 1
    assert search.passing.meets(job.tol)
    assert search.below.samples == search.passing.samples // 2
    assert not search.below.meets(job.tol)
    assert search.below in search.calls and search.passing in search.calls
    # every call the search made lies between the start and the boundary
    logs = [c.samples.bit_length() - 1 for c in search.calls]
    assert logs == sorted(logs, reverse=start_log2 > k)
    # an independent scan up the ladder finds the same first passing count
    scan = next(j for j in range(2, 20) if run_call(job, 1 << j, 5).meets(job.tol))
    assert scan == k


def test_search_boundary_on_a_scripted_error_curve():
    # rel_err halves every two steps; tol sits between 2**9 and 2**10
    def call(job, samples, seed):
        out = harness.Outcome(samples=samples)
        out.rel_err = 1.0 / math.sqrt(samples)
        return out

    job = replace(BUBBLE, tol=0.04, start_log2=15)
    search = ladder_search(job, seed=0, call=call)
    assert search.passing.samples == 1024 and search.below.samples == 512
    assert [c.samples for c in search.calls] == [1 << k for k in range(15, 8, -1)]


def test_failing_job_is_counted_not_raised(monkeypatch, capsys):
    bad = replace(BUBBLE, name="bad", invariants={"p1": "1"})   # outside the Euclidean region
    out = run_call(bad, 64, seed=1)
    assert out.failed and "EuclideanRegionError" in out.error
    search = ladder_search(bad, seed=1)
    assert search.passing is None and search.calls == [search.failed]
    assert search.failed.error == out.error

    monkeypatch.setitem(JOBS, "bad", bad)
    code = run.main(["--workload", "bad", "--seed", "1", "--seconds", "1", "--trace", "0"])
    result = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert code == 1
    assert result == {"correct": False, "attempted": 1, "failed": 1, "metrics": {}}


def test_oracle_disagreement_fails_the_operation():
    wrong = replace(BUBBLE, oracle={0: 1.0, 1: 2.5})
    out = run_call(wrong, 1 << 12, seed=1)
    assert out.failed and "sigma from" in out.error


def test_thread_count_does_not_change_the_series():
    job = JOBS["ladder3l"]
    one = run_call(replace(job, threads=1), 256, seed=3)
    two = run_call(replace(job, threads=2), 256, seed=3)
    assert not one.failed and not two.failed
    assert one.rows == two.rows
    assert one.diagnostics == two.diagnostics


def test_self_times_add_up_and_wrappers_are_restored():
    from feynsec import hironaka, sectors
    names = ["feynman_parametrize", "primary_sectors", "iterate_decomposition",
             "decompose_step", "extract_poles", "expand_piece", "FiniteIntegrand",
             "integrate"]
    before = {name: getattr(sectors, name) for name in names}
    before_strategy = hironaka.strategy_for_polynomial

    tracer = spans.Tracer()
    out = run_call(BUBBLE, 1 << 12, seed=2, tracer=tracer)
    assert not out.failed
    root = next(s for s in tracer.spans if s.id == tracer.root)
    assert root.name == "sectors.pipeline" and root.parent is None
    total_self = sum(tracer.self_times().values())
    assert total_self == pytest.approx(root.end - root.start, rel=1e-9, abs=1e-9)
    assert all(getattr(sectors, name) is fn for name, fn in before.items())
    assert hironaka.strategy_for_polynomial is before_strategy

    metrics = spans.layer_metrics(tracer, out.diagnostics)
    assert sorted(metrics) == sorted(m["name"] for m in BENCHMARK["per_layer"])
    assert metrics["mcint.evals"][0] == (1 << 12) * out.diagnostics["mc_integrals"]
    assert metrics["mcint.integrals"][0] == out.diagnostics["mc_integrals"]
    assert metrics["sectors.final_sectors"][0] == out.diagnostics["final_sectors"]


def test_wrappers_are_restored_after_an_exception():
    from feynsec import sectors
    original = sectors.integrate
    with pytest.raises(RuntimeError):
        with spans.instrument(spans.Tracer()):
            assert sectors.integrate is not original
            raise RuntimeError("inside the traced block")
    assert sectors.integrate is original


def test_benchmark_json_names_the_printed_metrics():
    assert {w["name"] for w in BENCHMARK["workloads"]} <= set(JOBS)
    assert {m["name"] for m in BENCHMARK["end_to_end"]} == {
        "time_to_tol_s", "evals_to_tol", "setup_s", "peak_rss_mb"}
