"""Command-line front end.

Subcommands wrap the library: evaluate an objective to CSV bands, check
candidate subgradients, scan one-variable subdifferential regions,
report grid efficiency, run the scalarized descent heuristic, and replay
the canned examples as a self-test.

Problem files are plain text, one key per line, '#' starts a comment:

    arity=1
    domain=[-2,6]            # one line per axis, in axis order
    objective=abs(x1)*[1,3]
    base_point=0             # optional, repeatable
    candidate=([0,0])        # optional, repeatable

Exit codes: 0 success, 1 negative verdict, 2 input error.
"""

from __future__ import annotations

import argparse
import math
import re
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import GhcalcError, ParseError
from .interval import Interval
from .ivector import IVector, WMapConfig
from .ivf import Ivf
from .subgrad import (
    SubgradientCandidate,
    is_subgradient,
    is_subgradient_strict_variant,
    subdiff_scan_1d,
)


@dataclass(frozen=True)
class ProblemFile:
    """Parsed problem description."""

    ivf: Ivf
    base_points: Tuple[Tuple[float, ...], ...]
    candidates: Tuple[IVector, ...]


def _coordinates(text: str, line: Optional[int] = None) -> Tuple[float, ...]:
    """Comma-separated coordinates of a point, each of them finite."""
    vals = tuple(float(v) for v in text.split(","))
    for v in vals:
        if not math.isfinite(v):
            raise ParseError(f"non-finite coordinate {v!r} in point {text!r}", line, 1)
    return vals


def _parse_candidate(text: str) -> IVector:
    """An interval vector "([a,b],...)" or a single interval "[a,b]"."""
    return IVector.parse(text) if text.startswith("(") else IVector.of(Interval.parse(text))


def parse_problem_file(path: str) -> ProblemFile:
    with open(path, "r") as fh:
        text = fh.read()
    return parse_problem_text(text)


def parse_problem_text(text: str) -> ProblemFile:
    arity: Optional[int] = None
    domain: List[Tuple[float, float]] = []
    objective: Optional[str] = None
    base_points: List[Tuple[float, ...]] = []
    candidates: List[IVector] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ParseError("expected key=value", lineno, 1)
        key, _, value = line.partition("=")
        key = key.strip()
        value = value.strip()
        try:
            if key == "arity":
                arity = int(value)
            elif key == "domain":
                iv = Interval.parse(value)
                domain.append((iv.lo, iv.hi))
            elif key == "objective":
                objective = value
            elif key == "base_point":
                base_points.append(_coordinates(value, lineno))
            elif key == "candidate":
                candidates.append(_parse_candidate(value))
            else:
                raise ParseError(f"unknown key {key!r}", lineno, 1)
        except ParseError:
            raise
        except (GhcalcError, ValueError) as exc:
            raise ParseError(f"bad value for {key!r}: {exc}", lineno, 1) from exc
    if arity is None:
        raise ParseError("missing arity")
    if objective is None:
        raise ParseError("missing objective")
    if len(domain) != arity:
        raise ParseError(f"need {arity} domain line(s), got {len(domain)}")
    try:
        ivf = Ivf.from_text(arity, objective, domain)
    except GhcalcError as exc:
        raise ParseError(f"bad objective: {exc}") from exc
    for bp in base_points:
        if len(bp) != arity or not ivf.contains(bp):
            raise ParseError(f"base point {bp} outside the domain box")
    for cand in candidates:
        if len(cand) != arity:
            raise ParseError(f"candidate {cand} has wrong length")
    return ProblemFile(ivf, tuple(base_points), tuple(candidates))


# --------------------------------------------------------------------------
# Subcommands
# --------------------------------------------------------------------------


def _emit(text: str, out_path: Optional[str]) -> None:
    if out_path:
        with open(out_path, "w", newline="\n") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _parse_point(text: str, arity: int) -> Tuple[float, ...]:
    vals = _coordinates(text)
    if len(vals) != arity:
        raise ParseError(f"point {text!r} has {len(vals)} coordinates, "
                         f"expected {arity}")
    return vals


def cmd_eval(args) -> int:
    prob = parse_problem_file(args.file)
    f = prob.ivf
    if args.points:
        pts = np.array([_parse_point(p, f.arity) for p in args.points])
    elif args.on_grid:
        pts = f.grid(args.grid).points()
    else:
        pts = np.empty((0, f.arity))
    cols = [f"x{i + 1}" for i in range(f.arity)]
    lines = [",".join(cols) + ",f_lo,f_hi"]
    lo, hi = f.eval_many(pts)
    for p, v_lo, v_hi in zip(pts.tolist(), lo.tolist(), hi.tolist()):
        xs = ",".join(f"{v!r}" for v in p)
        lines.append(f"{xs},{v_lo!r},{v_hi!r}")
    _emit("\n".join(lines) + "\n", args.out)
    return 0


def _base_point(prob: ProblemFile, text: Optional[str], flag: str) -> Tuple[float, ...]:
    """The point passed as `flag`, else the file's first base_point."""
    if text is not None:
        return _parse_point(text, prob.ivf.arity)
    if prob.base_points:
        return prob.base_points[0]
    raise ParseError(f"no base point: pass {flag} or add base_point=")


def cmd_subgrad_check(args) -> int:
    prob = parse_problem_file(args.file)
    x_bar = _base_point(prob, args.at, "--at")
    if args.g is not None:
        g = _parse_candidate(args.g)
    elif prob.candidates:
        g = prob.candidates[0]
    else:
        raise ParseError("no candidate: pass --g or add candidate=")
    cand = SubgradientCandidate(g, x_bar)
    grid = prob.ivf.grid(args.grid)
    check = is_subgradient_strict_variant if args.strict else is_subgradient
    ok, witness = check(prob.ivf, cand, grid, tol=args.tol)
    if ok:
        print("YES")
        return 0
    wtxt = ",".join(f"{v!r}" for v in witness)
    print(f"NO witness={wtxt}")
    return 1


def cmd_subdiff_scan(args) -> int:
    prob = parse_problem_file(args.file)
    f = prob.ivf
    x_bar = _base_point(prob, args.at, "--at")
    bounds = None
    if args.bounds is not None:
        vals = [float(v) for v in args.bounds.split(",")]
        if len(vals) != 4:
            raise ParseError("--bounds needs p_min,p_max,q_min,q_max")
        bounds = ((vals[0], vals[1]), (vals[2], vals[3]))
    region = subdiff_scan_1d(f, x_bar[0], bounds, steps=args.steps,
                             grid=f.grid(args.grid), tol=args.tol)
    _emit(region.to_csv(), args.out)
    return 0 if not region.is_empty else 1


def cmd_efficient(args) -> int:
    from .iop import Iop, efficient_on_grid

    prob = parse_problem_file(args.file)
    p = Iop(prob.ivf)
    report = efficient_on_grid(p, prob.ivf.grid(args.grid))
    _emit(report.to_csv(), args.out)
    return 0


def cmd_descent(args) -> int:
    from .iop import Iop, scalarized_descent

    prob = parse_problem_file(args.file)
    p = Iop(prob.ivf)
    x0 = _base_point(prob, args.x0, "--x0")
    cfg = WMapConfig(args.w, 1.0 - args.w)
    result = scalarized_descent(p, x0, cfg, iters=args.iters,
                                grid=prob.ivf.grid(args.grid))
    if args.out:
        _emit(result.trace_to_csv(), args.out)
    xs = ",".join(f"{v!r}" for v in result.x_best)
    print(f"x_best={xs} f={result.value_best} efficient={int(result.efficient)}")
    return 0


def cmd_examples(args) -> int:
    from .examples_runner import run_examples

    failures = run_examples(grid=args.grid, tol=args.tol)
    for name, ok, detail in failures:
        print(f"{'PASS' if ok else 'FAIL'} {name}: {detail}")
    return 0 if all(ok for _, ok, _ in failures) else 1


# --------------------------------------------------------------------------
# Argument parsing
# --------------------------------------------------------------------------


# argparse takes a word that starts with '-' for an option unless it is a
# plain negative decimal; a point such as -0.5,0.5 or -1e-3 is a value too
_NEGATIVE_VALUE = re.compile(r"-\.?\d[\w.,+-]*$")


def build_parser() -> argparse.ArgumentParser:
    # shared options, each given only to the subcommands that read it
    def grid(note=""):
        parent = argparse.ArgumentParser(add_help=False)
        parent.add_argument("--grid", type=int, default=201,
                            help=f"samples per axis (default 201){note}")
        return parent
    # a scan, and a check that accepts, read an objective that expr.convexity
    # proves convex and expr.separable separable from exact slopes, sampling no grid
    exact = "; not read for an objective the tree proves convex and separable"
    tol = argparse.ArgumentParser(add_help=False)
    tol.add_argument("--tol", type=float, default=1e-10,
                     help="dominance slack (default 1e-10)")
    out = argparse.ArgumentParser(add_help=False)
    out.add_argument("--out", default=None, help="write CSV here, not stdout")

    parser = argparse.ArgumentParser(
        prog="ghcalc",
        description="Interval calculus: evaluation, subgradients, efficiency.")
    sub = parser.add_subparsers(dest="command", required=True)

    sp = sub.add_parser("eval", parents=[grid(), out],
                        help="evaluate the objective to CSV")
    sp.add_argument("file")
    sp.add_argument("points", nargs="*",
                    help="points, comma-separated coordinates each")
    sp.add_argument("--on-grid", action="store_true",
                    help="evaluate at every grid node instead")
    sp.set_defaults(func=cmd_eval)

    sp = sub.add_parser("subgrad-check", help="test a candidate subgradient", parents=[
        grid(f"{exact}, given a candidate in its exact subdifferential and no --strict"), tol])
    sp.add_argument("file")
    sp.add_argument("--at", default=None, help="base point")
    sp.add_argument("--g", default=None, help="candidate, e.g. ([2,4])")
    sp.add_argument("--strict", action="store_true",
                    help="use the restrictive additive variant")
    sp.set_defaults(func=cmd_subgrad_check)

    sp = sub.add_parser("subdiff-scan", parents=[grid(exact), tol, out],
                        help="scan a 1-d subdifferential")
    sp.add_argument("file")
    sp.add_argument("--at", default=None, help="base point")
    sp.add_argument("--bounds", default=None,
                    help="scan rectangle p_min,p_max,q_min,q_max")
    sp.add_argument("--steps", type=int, default=121,
                    help="scan cells per parameter axis")
    sp.set_defaults(func=cmd_subdiff_scan)

    sp = sub.add_parser("efficient", parents=[grid(), out],
                        help="flag efficient grid points")
    sp.add_argument("file")
    sp.set_defaults(func=cmd_efficient)

    sp = sub.add_parser("descent", parents=[grid(), out],
                        help="run the scalarized descent heuristic")
    sp.add_argument("file")
    sp.add_argument("--x0", default=None, help="start point")
    sp.add_argument("--iters", type=int, default=600)
    sp.add_argument("--w", type=float, default=0.5,
                    help="lower-endpoint scalarization weight")
    sp.set_defaults(func=cmd_descent)

    sp = sub.add_parser("examples", parents=[grid()], help="replay the canned examples")
    sp.add_argument("--tol", type=float, default=1e-10,
                    help="dominance slack of the kinked-slab and parabolic-band "
                         "scans (default 1e-10)")
    sp.set_defaults(func=cmd_examples)

    for p in (parser, *sub.choices.values()):
        p._negative_number_matcher = _NEGATIVE_VALUE
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (GhcalcError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
