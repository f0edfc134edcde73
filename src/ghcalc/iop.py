"""Interval optimization over a box: efficiency on grids, subgradient
optimality conditions, and a scalarized descent heuristic.

An `Iop` holds a convex objective.  Its convexity is proved from the
expression tree when the composition rules of `expr.convexity` settle
it; only an objective they cannot settle is sampled with
`ivf.is_convex_sampled`, whose acceptance is evidence, not a proof.

A point is efficient when no feasible point has a strictly dominating
objective value.  Efficiency here is always decided relative to a grid
and reported with the grid step, so every claim is resolution-qualified.

The descent driver is a heuristic: a projected iteration on the
scalarization phi_w = w*f_lo + w'*f_hi, in any number of variables, with
exact slopes from one walk of the tree per iteration and Polyak steps
to a level, first the grid's least phi_w, then just below the best value
found.  The optimality conditions and the grid efficiency flag are the
principled part; the driver only produces candidate points for them to
certify, and the grid it is given serves both the first level and the flag.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import CandidateNotSubgradient, GhcalcError, NonConvexObjective
from .interval import Interval
from .ivector import IVector, WMapConfig
from .ivf import Grid, Ivf, _point, _walk_sides, is_convex_sampled
from .subgrad import (
    _DOM_SLACK,
    SubgradientCandidate,
    _GridValues,
    _endpoints,
    _evaluate,
    _exact_sets,
    _grid_values,
    _in_exact,
)


@dataclass(frozen=True)
class Iop:
    """Minimization of a convex interval objective over its domain box.

    Construction first tries to prove F convex from its expression tree
    (`expr.convexity`); that proof needs no samples.  Only an objective the
    proof cannot settle goes to the sampled convexity check on
    `convexity_samples` nodes per axis, which is evidence, not a proof, and
    refuses objectives that fail it; the violating triple is included in
    the error.  `convexity_method` says which of the two answered.
    """

    objective: Ivf
    convexity_samples: int = 21

    def __post_init__(self):
        f = self.objective
        method = "certificate"
        if not f._proved_convex:
            ok, witness = is_convex_sampled(f, f.grid(self.convexity_samples))
            if not ok:
                raise NonConvexObjective(
                    f"objective failed the sampled convexity check at {witness}")
            method = "sampled"
        # not a field, so ==, hash and repr ignore it
        object.__setattr__(self, "_convexity_method", method)

    @property
    def convexity_method(self) -> str:
        """"certificate" if the tree proved F convex, "sampled" if the
        sampled check accepted it."""
        return self._convexity_method

    @property
    def domain(self):
        return self.objective.domain


@dataclass(frozen=True)
class EfficiencyReport:
    """Grid points with objective values and per-point efficiency flags."""

    points: np.ndarray
    f_lo: np.ndarray
    f_hi: np.ndarray
    efficient: np.ndarray
    grid_step: Tuple[float, ...]

    def efficient_points(self) -> np.ndarray:
        return self.points[self.efficient]

    def is_flagged_near(self, x) -> bool:
        """Whether the grid point nearest to x is flagged efficient."""
        x = np.asarray(x, dtype=float).ravel()
        dist = np.linalg.norm(self.points - x[None, :], axis=1)
        return bool(self.efficient[int(np.argmin(dist))])

    def to_csv(self) -> str:
        n = self.points.shape[1]
        out = io.StringIO()
        cols = [f"x{i + 1}" for i in range(n)]
        out.write(",".join(cols) + ",f_lo,f_hi,efficient\n")
        for row, lo, hi, eff in zip(self.points, self.f_lo, self.f_hi,
                                    self.efficient):
            xs = ",".join(f"{float(v)!r}" for v in row)
            out.write(f"{xs},{float(lo)!r},{float(hi)!r},{int(eff)}\n")
        return out.getvalue()


def efficient_on_grid(p: Iop, grid: Optional[Grid] = None) -> EfficiencyReport:
    """Flag each grid point no other grid point strictly dominates."""
    if grid is None:
        grid = p.objective.grid()
    return _efficiency(_grid_values(p.objective, grid), grid)


def _efficiency(values: _GridValues, grid: Grid) -> EfficiencyReport:
    return EfficiencyReport(grid.points(), values.lo, values.hi,
                            _pareto_flags(values.lo, values.hi), grid.step)


def _pareto_flags(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Flag each value [lo_j, hi_j] that no other value strictly dominates.

    [lo_i, hi_i] strictly dominates [lo_j, hi_j] when lo_i <= lo_j and
    hi_i <= hi_j with one inequality strict.  So j is dominated exactly
    when the least hi among the values with a smaller lo is <= hi_j, or the
    least hi among those with lo equal to lo_j is < hi_j (Kung, Luccio &
    Preparata 1975).  One sort by lo, in any order among ties, groups the
    equal lo and puts the smaller before them.  O(N log N) time, O(N)
    memory.  A NaN endpoint never dominates and is never dominated.
    """
    nan = np.isnan(lo) | np.isnan(hi)
    if nan.any():
        flags = np.ones(lo.shape, dtype=bool)
        flags[~nan] = _pareto_flags(lo[~nan], hi[~nan])
        return flags
    if not lo.size:
        return np.ones(0, dtype=bool)
    order = np.argsort(lo)
    lo_s, hi_s = lo[order], hi[order]
    new_group = np.ones(lo.size, dtype=bool)
    new_group[1:] = lo_s[1:] != lo_s[:-1]
    starts = np.flatnonzero(new_group)
    group = np.cumsum(new_group) - 1
    least = np.minimum.reduceat(hi_s, starts)  # per group of equal lo
    before = np.full(starts.size, np.inf)  # over the groups of smaller lo; the first has none
    np.minimum.accumulate(least[:-1], out=before[1:])
    flags = np.empty(lo.size, dtype=bool)
    flags[order] = ((group == 0) | (before[group] > hi_s)) & (least[group] >= hi_s)
    return flags


def optimality_zero_condition(p: Iop, x_bar, grid: Optional[Grid] = None) -> bool:
    """Sufficient condition: the zero vector is a subgradient at x_bar.

    For an F that `subgrad._exact_sets` reads, in any number of variables,
    zero in its exact subdifferential holds without sampling; otherwise
    the grid samples decide.  When it holds, the grid point nearest x_bar
    is cross-checked against the efficiency report; the condition is
    sufficient but not necessary, so False verdicts say nothing about
    efficiency.
    """
    f = p.objective
    x = np.asarray(x_bar, dtype=float).ravel()
    cand = SubgradientCandidate(IVector.zero(f.arity), tuple(x))
    values, _, cons = _evaluate(f, cand, grid)
    ok = (_in_exact(_exact_sets(f, cand.base_point, grid), cand.g, _DOM_SLACK)
          or cons.check(cand.g, _DOM_SLACK)[0])
    if ok and not _efficiency(values, grid or f.grid()).is_flagged_near(x):
        raise GhcalcError(
            "zero-subgradient point was not flagged efficient; "
            "sufficiency violated at grid resolution")
    return ok


def optimality_nprec_condition(p: Iop, x_bar, cand: SubgradientCandidate,
                               grid: Optional[Grid] = None) -> bool:
    """Sufficient condition: (x - x_bar)^T (.) G never strictly precedes 0.

    The candidate must itself pass the subgradient test first, and be
    anchored at x_bar.  When the condition holds the point is
    cross-checked as efficient.
    """
    f = p.objective
    x = _point(f, x_bar)
    if tuple(x) != cand.base_point:
        raise ValueError(f"x_bar {x} differs from the candidate's "
                         f"base point {list(cand.base_point)}")
    values, _, cons = _evaluate(f, cand, grid)
    ok, witness = cons.check(cand.g, _DOM_SLACK)
    if not ok:
        raise CandidateNotSubgradient(
            f"candidate fails the subgradient test, witness {witness}")
    lhs_lo, lhs_hi = cons.pairing(*_endpoints(cand.g))
    precedes_zero = (lhs_lo <= 0.0) & (lhs_hi <= 0.0) & ((lhs_lo < 0.0) | (lhs_hi < 0.0))
    holds = not bool(precedes_zero.any())
    if holds and not _efficiency(values, grid or f.grid()).is_flagged_near(x):
        raise GhcalcError(
            "nonpreceding-product point was not flagged efficient; "
            "sufficiency violated at grid resolution")
    return holds


# --------------------------------------------------------------------------
# Scalarized descent
# --------------------------------------------------------------------------


@dataclass(frozen=True)
class TraceRecord:
    iteration: int
    x: Tuple[float, ...]
    value: Interval
    scalarized: float
    step: float


@dataclass(frozen=True)
class DescentResult:
    x_best: Tuple[float, ...]
    value_best: Interval
    efficient: bool
    trace: Tuple[TraceRecord, ...]

    def trace_to_csv(self) -> str:
        n = len(self.trace[0].x)
        out = io.StringIO()
        cols = [f"x{i + 1}" for i in range(n)]
        out.write("iter," + ",".join(cols) + ",f_lo,f_hi,scalarized_value,step\n")
        for rec in self.trace:
            xs = ",".join(f"{v!r}" for v in rec.x)
            out.write(f"{rec.iteration},{xs},{rec.value.lo!r},{rec.value.hi!r},"
                      f"{rec.scalarized!r},{rec.step!r}\n")
        return out.getvalue()


def _clip(v: float, lo: float, hi: float) -> float:
    """np.clip(v, lo, hi) on floats, bit for bit: a NaN passes through, and
    a tie, signed zeros included, takes the bound."""
    v = v if v != v or v > lo else lo
    return v if v != v or v < hi else hi


def scalarized_descent(p: Iop, x0, cfg: WMapConfig = WMapConfig(),
                       iters: int = 600, grid: Optional[Grid] = None) -> DescentResult:
    """Projected iteration on the scalarization phi_w = w*f_lo + w'*f_hi.

    phi_w is convex when F is, as `Iop` requires, and for w, w' > 0
    each of its minimizers is efficient (Wu 2007).  F is evaluated on the
    grid once, before the iteration: the least phi_w there is the first
    level phi*, and the same values give the efficiency flag at the end.
    An iteration walks the compiled tree once at x (`ivf._walk_sides`) for
    F(x) and the one-sided derivatives of phi_w along the e_i and -e_i that
    point into the box.  The slope g_i is (phi_w'(x; e_i) -
    phi_w'(x; -e_i))/2, the limit of a central difference, inside the box,
    the slope into it at a bound, and 0 on an axis of zero width.  The
    iterate moves by -s*g, projected onto the box (np.clip's bit for bit),
    with the Polyak step s = (phi_w(x) - level)/|g|^2 (Polyak 1969), or
    the floor 0.1/sqrt(k+1) where larger, so an axis with a small slope
    still moves when a kinked axis dominates |g|^2.  Once an iterate
    reaches phi*, the level is the record (the least phi_w so far)
    less delta (Goffin & Kiwiel 1999): delta starts at 1e-3*(1 + |record|)
    and halves whenever an iterate fails to lower the record by delta/2.
    The descent stops when every slope vanishes or delta falls to
    1e-9*(1 + |record|), or after `iters` iterations.  F(x) is eval_many's
    up to the sign of a zero; where the walk refuses, eval_many's error at
    x is raised, or else NonFiniteDerivative.  The trace's `step` is the s
    taken, 0 on the row where the descent stops.  Returns the
    dominance-minimal trace iterate (scalarized value breaks ties among
    mutually incomparable candidates), the full trace, and the efficiency
    flag of the grid node nearest to that iterate, which certifies it.
    """
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    f = p.objective
    if grid is None:
        grid = f.grid()
    x = tuple(_point(f, x0))
    n = f.arity
    w, w_prime = float(cfg.w), float(cfg.w_prime)  # a float32 weight widens, as in arrays
    grid_values = _grid_values(f, grid)
    level = float(np.min(w * grid_values.lo + w_prime * grid_values.hi))
    record = delta = None  # set once an iterate reaches the grid's least phi_w
    trace: List[TraceRecord] = []
    moving = [i for i, (l, u) in enumerate(f.domain) if l < u]
    for k in range(iters):
        sides, (lo, hi, dlo, dhi) = _walk_sides(f, list(x), moving)
        phi = w * lo + w_prime * hi
        # half the difference of phi_w'(x; +-e_i), or the one into the box;
        # `_walk_sides` walks +e_i before -e_i, so `up` holds phi_w'(x; e_i)
        slopes = [0.0] * n
        for (i, s), a, b in zip(sides, dlo, dhi):
            d = w * a + w_prime * b
            if s > 0.0:
                slopes[i] = up = d
            elif x[i] < f.domain[i][1]:
                slopes[i] = (up - d) / 2.0
            else:
                slopes[i] = 0.0 - d
        if delta is None:
            if phi <= level:
                record, delta = phi, 1e-3 * (1.0 + abs(phi))
        elif phi <= record - delta / 2.0:
            record = phi
        else:
            record, delta = min(record, phi), delta / 2.0
        stop = (all(abs(d) <= 1e-12 for d in slopes)
                or (delta is not None and delta <= 1e-9 * (1.0 + abs(record))))
        if delta is not None:
            level = record - delta
        step = 0.0
        if not stop:
            step = max(0.1 / math.sqrt(k + 1), (phi - level) / sum(d * d for d in slopes))
        value = Interval(lo, hi)
        trace.append(TraceRecord(k, x, value,
                                 cfg.w * value.lo + cfg.w_prime * value.hi, step))
        if stop:
            break
        x = tuple(_clip(v - step * d, *b) for v, d, b in zip(x, slopes, f.domain))
    best = _dominance_minimal(trace)
    flagged = _efficiency(grid_values, grid).is_flagged_near(best.x)
    return DescentResult(best.x, best.value, flagged, tuple(trace))


def _dominance_minimal(trace: Sequence[TraceRecord]) -> TraceRecord:
    # keep iterates whose value no other iterate strictly dominates,
    # then pick the smallest scalarized value for determinism
    lo = np.array([r.value.lo for r in trace])
    hi = np.array([r.value.hi for r in trace])
    candidates = [r for r, keep in zip(trace, _pareto_flags(lo, hi)) if keep]
    return min(candidates, key=lambda r: (r.scalarized, r.iteration))
