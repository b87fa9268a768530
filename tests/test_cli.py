"""CLI suite: schema, outputs, exit codes, determinism across thread counts."""

import json
import os
import subprocess
import sys

import pytest

from feynsec.cli import main, parse_rational
from feynsec.mcint import EpsSeries
from fractions import Fraction

BUBBLE_JOB = {
    "edges": [{"from": 0, "to": 1, "mass2": "0", "power": 1},
              {"from": 0, "to": 1, "mass2": "0", "power": 1}],
    "external": [{"vertex": 0, "label": "p1"}, {"vertex": 1, "label": "p2"}],
    "invariants": {"p1": "-1"},
    "dim_anchor": 2,
    "order": 1,
}

TADPOLE_JOB = {
    "edges": [{"from": 0, "to": 0, "mass2": "1", "power": 1}],
    "external": [],
    "invariants": {},
    "dim_anchor": 2,
    "order": 2,
}


@pytest.fixture
def jobfile(tmp_path):
    def write(doc, name="job.json"):
        path = tmp_path / name
        path.write_text(json.dumps(doc))
        return str(path)

    return write


def test_parse_rational():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("-2") == Fraction(-2)
    from feynsec.errors import InputError
    with pytest.raises(InputError):
        parse_rational("x")


def test_evaluate_tadpole_exact(jobfile, capsys):
    rc = main(["evaluate", jobfile(TADPOLE_JOB), "--samples", "100"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert out == ["0 1.0 0.0", "1 0.0 0.0", "2 0.0 0.0"]


def test_evaluate_bubble_text(jobfile, capsys):
    rc = main(["evaluate", jobfile(BUBBLE_JOB), "--samples", "20000", "--seed", "3"])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    rows = [line.split() for line in out]
    assert [r[0] for r in rows] == ["0", "1"]
    assert abs(float(rows[0][1]) - 1.0) < 0.05
    assert abs(float(rows[1][1]) - 2.0) < 0.15


def test_evaluate_json_roundtrip(jobfile, capsys):
    rc = main(["evaluate", jobfile(BUBBLE_JOB), "--samples", "5000", "--format", "json"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert "series" in doc and "diagnostics" in doc
    series = EpsSeries.from_json(out)
    assert series.orders() == [0, 1]
    assert [series.value(o) for o in (0, 1)] == [doc["series"]["0"][0], doc["series"]["1"][0]]
    # the parsed series equals the in-memory one from an identical run
    from feynsec.graphs import bubble
    from feynsec.mcint import MCConfig
    from feynsec.sectors import pipeline
    g, kin = bubble(Fraction(-1))
    direct, _diag = pipeline(g, kin, m=2, target_order=1,
                             cfg=MCConfig(samples=5000, seed=1))
    assert series.as_rows() == direct.as_rows()


def test_malformed_file_exit_2(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text('{"edges": [')
    rc = main(["evaluate", str(bad)])
    err = capsys.readouterr().err
    assert rc == 2
    assert "line" in err and "column" in err


def test_positive_invariant_exit_3(jobfile, capsys):
    doc = dict(BUBBLE_JOB)
    doc["invariants"] = {"p1": "1"}
    rc = main(["evaluate", jobfile(doc)])
    assert rc == 3


def test_order_below_floor_exit_2(jobfile):
    rc = main(["evaluate", jobfile(BUBBLE_JOB), "--order", "-5"])
    assert rc == 2


@pytest.mark.parametrize("value", ["abc", "0"])
def test_malformed_thread_count_exit_2(jobfile, capsys, monkeypatch, value):
    monkeypatch.setenv("FEYNSEC_THREADS", value)
    rc = main(["evaluate", jobfile(BUBBLE_JOB), "--samples", "64"])
    captured = capsys.readouterr()
    assert rc == 2
    assert captured.out == ""
    assert "FEYNSEC_THREADS" in captured.err


def test_strategy_flag_is_gone(jobfile, capsys):
    for args in (["evaluate", jobfile(BUBBLE_JOB)], ["decompose", jobfile(BUBBLE_JOB)],
                 ["game", "--points", "2,0;0,2"]):
        with pytest.raises(SystemExit) as exc:
            main(args + ["--strategy", "pairdiff"])
        assert exc.value.code == 2
        assert "--strategy" in capsys.readouterr().err


def test_decompose_bubble(jobfile, capsys):
    rc = main(["decompose", jobfile(BUBBLE_JOB)])
    out = capsys.readouterr().out.strip().splitlines()
    assert rc == 0
    assert len(out) == 2
    assert all("(1 + x0)^(-2+2*eps)" in line for line in out)


def test_game_subcommand(capsys):
    rc = main(["game", "--points", "2,0;0,2", "--b-policy", "max-coordinate"])
    out = capsys.readouterr().out
    assert rc == 0
    doc = json.loads(out)
    assert doc["moves"] == 1
    assert doc["transcript"][0]["subset"] == [0, 1]


def test_game_bad_points(capsys):
    rc = main(["game", "--points", "nope"])
    assert rc == 2


def test_words_subcommands(capsys):
    assert main(["words", "shuffle", "ab", "c"]) == 0
    assert capsys.readouterr().out.strip() == "abc + acb + cab"
    assert main(["words", "antipode", "abc"]) == 0
    assert capsys.readouterr().out.strip() == "-cba"
    assert main(["words", "lyndon", "ab", "3"]) == 0
    assert capsys.readouterr().out.strip() == "a b ab aab abb"


def test_polylog_subcommand(capsys):
    assert main(["polylog", "Li 2 0.5"]) == 0
    out = capsys.readouterr().out
    assert out.startswith("0.58224052646")
    assert main(["polylog", "Z 3 1 1"]) == 0
    assert capsys.readouterr().out.strip() == "11/6 (exact)"
    assert main(["polylog", "G 2,3 1"]) == 0
    capsys.readouterr()
    assert main(["polylog", "bogus"]) == 2


def test_polylog_li2_prints_requested_tolerance(capsys):
    assert main(["polylog", "Li2 0.5", "--rel-tol", "1e-3"]) == 0
    assert capsys.readouterr().out.strip() == "0.5822405264650126 (rel_tol 0.001)"


def test_polylog_li2_rejects_tolerance_below_its_accuracy(capsys):
    assert main(["polylog", "Li2 0.5", "--rel-tol", "1e-15"]) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "1e-14" in captured.err


def _run_cli(args, env_extra):
    env = dict(os.environ)
    env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "feynsec.cli", *args],
                          capture_output=True, text=True, env=env)


def test_byte_identical_across_thread_counts(jobfile):
    path = jobfile(BUBBLE_JOB)
    args = ["evaluate", path, "--samples", "20000", "--seed", "7", "--format", "json"]
    r1 = _run_cli(args, {"FEYNSEC_THREADS": "1"})
    r4 = _run_cli(args, {"FEYNSEC_THREADS": "4"})
    assert r1.returncode == r4.returncode == 0
    assert r1.stdout == r4.stdout


def test_identical_jobspec_byte_identical(jobfile):
    path = jobfile(BUBBLE_JOB)
    args = ["evaluate", path, "--samples", "5000", "--seed", "9"]
    r1 = _run_cli(args, {})
    r2 = _run_cli(args, {})
    assert r1.stdout == r2.stdout
