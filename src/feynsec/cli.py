"""Batch front end: evaluate graph files, dump sector decompositions, and
expose the game, word-algebra, and polylogarithm utilities.

Graph job files are UTF-8 JSON documents:

    {
      "edges":      [{"from": 0, "to": 1, "mass2": "0", "power": 1}, ...],
      "external":   [{"vertex": 0, "label": "p1"}, ...],
      "invariants": {"p1": "-1", "p1,p2": "-3/2", ...},
      "dim_anchor": 2,
      "order":      1
    }

Rational values are strings "p/q" or integer strings with an optional
leading minus.  Vertices, powers, "dim_anchor" and "order" are integers
(a JSON integer, an integral number or an integer string); "power" and
"dim_anchor" are at least 1.  Invariant keys are comma-joined sorted label
lists.  Exit codes: 0 success, 2 malformed input, 3 kinematics/domain
error, 4 strategy failure.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from fractions import Fraction

from .errors import (DomainError, DivergenceError, EuclideanRegionError, FeynsecError,
                     InputError, IllegalMoveError, IntegrandEvaluationError,
                     KinematicsError, ScalelessError, StrategyError, TopologyError)
from .graphs import FeynmanGraph, Kinematics
from .hironaka import B_POLICIES, PointSet, play
from .mcint import SHIFTS, MCConfig
from .sectors import decompose_graph, pipeline
from .words import (LinComb, antipode_quasi, antipode_shuffle, coproduct,
                    lyndon_words, min_pairing_alphabet, quasi_shuffle, shuffle)
from . import polylog as pl

EXIT_PARSE, EXIT_DOMAIN, EXIT_STRATEGY = 2, 3, 4
LI2_REL_TOL = 1e-14     # the relative accuracy li2_numeric meets


def parse_rational(text) -> Fraction:
    if isinstance(text, int):
        return Fraction(text)
    text = str(text).strip()
    try:
        if "/" in text:
            num, den = text.split("/")
            return Fraction(int(num), int(den))
        return Fraction(int(text))
    except (ValueError, ZeroDivisionError) as exc:
        raise InputError(f"not a rational value: {text!r}") from exc


def _job_int(value, field: str, least: int | None = None) -> int:
    """An integer field of a job file; a bool, a non-integral number or a
    non-numeric string raises InputError."""
    result = None
    if isinstance(value, int) and not isinstance(value, bool):
        result = value
    elif isinstance(value, float) and value.is_integer():
        result = int(value)
    elif isinstance(value, str):
        try:
            result = int(value)
        except ValueError:
            pass
    if result is None:
        raise InputError(f"{field} must be an integer, not {value!r}")
    if least is not None and result < least:
        raise InputError(f"{field} must be at least {least}, not {result}")
    return result


def load_job(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            raw = fh.read()
        doc = json.loads(raw)
    except OSError as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise InputError(f"{path}: line {exc.lineno}, column {exc.colno}: {exc.msg}") from exc
    if not isinstance(doc, dict) or "edges" not in doc:
        raise InputError(f"{path}: expected an object with an 'edges' array")
    try:
        edges = [(_job_int(e["from"], "edge 'from'"), _job_int(e["to"], "edge 'to'"),
                  parse_rational(e.get("mass2", "0")),
                  _job_int(e.get("power", 1), "edge 'power'", least=1)) for e in doc["edges"]]
        externals = [(_job_int(x["vertex"], "external 'vertex'"), str(x["label"]))
                     for x in doc.get("external", [])]
        invariants = {str(k): parse_rational(v) for k, v in doc.get("invariants", {}).items()}
        dim_anchor = _job_int(doc.get("dim_anchor", 2), "dim_anchor", least=1)
        order = _job_int(doc.get("order", 0), "order")
    except InputError as exc:
        raise InputError(f"{path}: {exc}") from exc
    except (KeyError, TypeError, ValueError) as exc:
        raise InputError(f"{path}: malformed field: {exc}") from exc
    return {
        "edges": edges,
        "externals": externals,
        "invariants": invariants,
        "dim_anchor": dim_anchor,
        "order": order,
    }


def build_graph(job: dict) -> tuple[FeynmanGraph, Kinematics]:
    graph = FeynmanGraph(job["edges"], externals=job["externals"])
    kin = Kinematics(job["invariants"], labels=graph.external_labels())
    return graph, kin


def _threads() -> int:
    raw = os.environ.get("FEYNSEC_THREADS", "1")
    try:
        threads = int(raw)
    except ValueError:
        threads = 0
    if threads < 1:
        raise InputError(f"FEYNSEC_THREADS must be a positive integer, not {raw!r}")
    return threads


def cmd_evaluate(args) -> int:
    job = load_job(args.jobfile)
    graph, kin = build_graph(job)
    order = args.order if args.order is not None else job["order"]
    if order < -2 * graph.loops:
        raise InputError(f"order {order} below the pole floor {-2 * graph.loops}")
    try:
        cfg = MCConfig(samples=args.samples, seed=args.seed)
    except ValueError as exc:
        raise InputError(f"--samples {args.samples}: {exc}") from exc
    series, diagnostics = pipeline(graph, kin, m=job["dim_anchor"], target_order=order,
                                   cfg=cfg, threads=_threads())
    if args.format == "json":
        doc = {
            "series": {str(o): [float(v), e] for o, v, e in series.as_rows()},
            "diagnostics": diagnostics,
        }
        print(json.dumps(doc, sort_keys=True))
    else:
        for o, v, e in series.as_rows():
            print(f"{o} {v!r} {e!r}")
    return 0


def cmd_decompose(args) -> int:
    job = load_job(args.jobfile)
    graph, kin = build_graph(job)
    sectors = decompose_graph(graph, kin, m=job["dim_anchor"])
    for sector in sectors:
        monos = ", ".join(str(m) for m in sector.monomials)
        factors = " ".join(f"({q.as_string()})^({exp})" for q, exp in sector.factors)
        print(f"[{monos}] {factors}".rstrip())
    return 0


def _parse_points(text: str) -> PointSet:
    try:
        pts = [tuple(int(c) for c in chunk.split(",")) for chunk in text.split(";") if chunk.strip()]
        return PointSet(pts)
    except (ValueError, TypeError) as exc:
        raise InputError(f"bad point list {text!r}; expected like '2,0;0,2'") from exc


def cmd_game(args) -> int:
    points = _parse_points(args.points)
    moves, transcript = play(points, b_policy=args.b_policy, seed=args.seed)
    doc = {"moves": moves, "transcript": transcript}
    if args.format == "json":
        print(json.dumps(doc, sort_keys=True))
    else:
        print(f"moves {moves}")
        for step in transcript:
            print(f"S={step['subset']} i={step['index']} points={step['points']}")
    return 0


def _word(text: str) -> tuple:
    return tuple(text) if text not in ("e", "") else ()


def cmd_words(args) -> int:
    op = args.operation
    if op == "shuffle":
        print(shuffle(_word(args.u), _word(args.v)).format())
    elif op == "quasishuffle":
        letters = sorted(set(args.u + args.v))
        print(quasi_shuffle(_word(args.u), _word(args.v), min_pairing_alphabet(letters)).format())
    elif op == "coproduct":
        print(repr(coproduct(_word(args.u))))
    elif op == "antipode":
        if args.quasi:
            letters = sorted(set(args.u))
            print(antipode_quasi(_word(args.u), min_pairing_alphabet(letters)).format())
        else:
            print(antipode_shuffle(LinComb.of(_word(args.u))).format())
    elif op == "lyndon":
        letters = sorted(set(args.u))
        words = lyndon_words(letters, _parse_int(args.v))
        print(" ".join("".join(w) for w in words))
    else:
        raise InputError(f"unknown word operation {op!r}")
    return 0


def _parse_scalar(text: str) -> float:
    try:
        if "/" in text:
            return float(parse_rational(text))
        return float(text)
    except (ValueError, InputError) as exc:
        raise InputError(f"not a number: {text!r}") from exc


def _parse_int(text: str) -> int:
    try:
        return int(text)
    except ValueError as exc:
        raise InputError(f"not an integer: {text!r}") from exc


def _parse_intlist(text: str) -> tuple:
    return tuple(_parse_int(v) for v in text.split(","))


def _parse_floatlist(text: str) -> tuple:
    return tuple(_parse_scalar(v) for v in text.split(","))


def cmd_polylog(args) -> int:
    tokens = args.expression.split()
    if not tokens:
        raise InputError("empty expression")
    head, rest = tokens[0], tokens[1:]
    rel_tol = args.rel_tol
    if head == "Li" and len(rest) == 2:
        value = pl.li_series(_parse_intlist(rest[0]), _parse_floatlist(rest[1]), rel_tol)
    elif head == "Li2" and len(rest) == 1:
        if rel_tol < LI2_REL_TOL:
            raise InputError(f"Li2 is computed to a relative tolerance of {LI2_REL_TOL:g}, "
                             f"not the requested {rel_tol:g}")
        value = pl.li2_numeric(_parse_scalar(rest[0]))
    elif head == "G" and len(rest) == 2:
        value = pl.g_func(_parse_floatlist(rest[0]), _parse_scalar(rest[1]), rel_tol)
    elif head == "Z" and len(rest) == 3:
        n = None if rest[0] in ("inf", "oo") else _parse_int(rest[0])
        value = pl.zsum(n, _parse_intlist(rest[1]),
                        tuple(parse_rational(v) if "/" in v or v.lstrip("-").isdigit() else _parse_scalar(v)
                              for v in rest[2].split(",")))
        if isinstance(value, Fraction):
            print(f"{value} (exact)")
            return 0
    elif head == "H" and len(rest) == 2:
        value = pl.hpl(_parse_intlist(rest[0]), _parse_scalar(rest[1]), rel_tol)
    elif head == "S" and len(rest) == 3:
        value = pl.nielsen(_parse_int(rest[0]), _parse_int(rest[1]), _parse_scalar(rest[2]),
                           rel_tol)
    else:
        raise InputError(f"cannot parse expression {args.expression!r}")
    print(f"{value!r} (rel_tol {rel_tol:g})")
    return 0


def _tolerance(text: str) -> float:
    """argparse type of --rel-tol: a finite number above 0."""
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not (math.isfinite(value) and value > 0):
        raise argparse.ArgumentTypeError(f"must be a finite number above 0, not {text!r}")
    return value


def make_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="feynsec",
                                     description="sector-decomposition evaluation of Feynman integrals")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("evaluate", help="run the full pipeline on a graph file")
    p.add_argument("jobfile")
    p.add_argument("--order", type=int, default=None)
    p.add_argument("--samples", type=int, default=100_000,
                   help=f"integrand evaluations per sector integral: {SHIFTS} random "
                        f"shifts of a lattice of samples // {SHIFTS} points")
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("decompose", help="print the monomialised sectors of a graph file")
    p.add_argument("jobfile")
    p.set_defaults(func=cmd_decompose)

    p = sub.add_parser("game", help="play the polyhedra game from a point list")
    p.add_argument("--points", required=True, help="semicolon-separated points, e.g. '2,0;0,2'")
    p.add_argument("--b-policy", choices=B_POLICIES, default="random", dest="b_policy")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--format", choices=("text", "json"), default="json")
    p.set_defaults(func=cmd_game)

    p = sub.add_parser("words", help="word-algebra products, coproducts, antipodes")
    p.add_argument("operation", choices=("shuffle", "quasishuffle", "coproduct", "antipode", "lyndon"))
    p.add_argument("u")
    p.add_argument("v", nargs="?", default="")
    p.add_argument("--quasi", action="store_true")
    p.set_defaults(func=cmd_words)

    p = sub.add_parser("polylog", help="evaluate Li/G/Z/H/S expressions")
    p.add_argument("expression", help="prefix syntax, e.g. 'Li 2 0.5' or 'G 2,3 1'")
    p.add_argument("--rel-tol", type=_tolerance, default=1e-10, dest="rel_tol")
    p.set_defaults(func=cmd_polylog)
    return parser


def main(argv=None) -> int:
    parser = make_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except StrategyError as exc:
        print(f"strategy failure: {exc}", file=sys.stderr)
        return EXIT_STRATEGY
    except (KinematicsError, EuclideanRegionError, DomainError, ScalelessError,
            TopologyError, DivergenceError, IllegalMoveError,
            IntegrandEvaluationError, FeynsecError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN


if __name__ == "__main__":
    sys.exit(main())
