"""Interval optimization over a box: efficiency on grids, subgradient
optimality conditions, and a scalarized descent heuristic.

A point is efficient when no feasible point has a strictly dominating
objective value.  Efficiency here is always decided relative to a grid
and reported with the grid step, so every claim is resolution-qualified.

The descent driver is a heuristic: it scalarizes subgradients through
the convex endpoint weights and runs a projected subgradient iteration.
The optimality conditions are the principled part; the driver only
produces candidate points for them to certify.
"""

from __future__ import annotations

import io
import math
import warnings
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    CandidateNotSubgradient,
    GhcalcError,
    NonConvexObjective,
    NonFiniteDerivative,
    NoSubgradientFound,
    OutOfDomain,
)
from .interval import Interval
from .ivector import IVector, WMapConfig, w_map
from .ivf import (
    Grid,
    Ivf,
    OneSidedDifferenceWarning,
    _value_and_gradient,
    is_convex_sampled,
)
from .subgrad import (
    _DOM_SLACK,
    _MAX_ROWS,
    SubgradientCandidate,
    _Constraints,
    _GridValues,
    _cut_box_empty,
    _endpoints,
    _evaluate,
    _grid_values,
)


@dataclass(frozen=True)
class Iop:
    """Minimization of a convex interval objective over its domain box.

    Construction runs the sampled convexity check and refuses objectives
    that fail it; the certificate triple is included in the error.
    """

    objective: Ivf
    convexity_samples: int = 21

    def __post_init__(self):
        grid = self.objective.grid(self.convexity_samples)
        ok, witness = is_convex_sampled(self.objective, grid)
        if not ok:
            raise NonConvexObjective(
                f"objective failed the sampled convexity check at {witness}")

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

    def is_flagged_near(self, x, radius: Optional[float] = None) -> bool:
        """Whether the grid point nearest to x is flagged efficient."""
        x = np.asarray(x, dtype=float).ravel()
        dist = np.linalg.norm(self.points - x[None, :], axis=1)
        k = int(np.argmin(dist))
        if radius is not None and dist[k] > radius:
            return False
        return bool(self.efficient[k])

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
    return EfficiencyReport(values.pts, values.lo, values.hi,
                            _pareto_flags(values.lo, values.hi), grid.step)


def _pareto_flags(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Flag each value [lo_j, hi_j] that no other value strictly dominates.

    [lo_i, hi_i] strictly dominates [lo_j, hi_j] when lo_i <= lo_j and
    hi_i <= hi_j with one inequality strict.  Sorting by (lo, hi) puts
    every value that could dominate j before j's group of equal values, so
    j is dominated exactly when the running minimum of hi before that group
    is <= hi_j (Kung, Luccio & Preparata 1975).  O(N log N) time, O(N)
    memory.  A NaN endpoint never dominates and is never dominated.
    """
    nan = np.isnan(lo) | np.isnan(hi)
    if nan.any():
        flags = np.ones(lo.shape, dtype=bool)
        flags[~nan] = _pareto_flags(lo[~nan], hi[~nan])
        return flags
    n = lo.size
    order = np.lexsort((hi, lo))
    lo_s, hi_s = lo[order], hi[order]
    new_group = np.ones(n, dtype=bool)
    new_group[1:] = (lo_s[1:] != lo_s[:-1]) | (hi_s[1:] != hi_s[:-1])
    group_start = np.maximum.accumulate(np.where(new_group, np.arange(n), 0))
    min_before = np.empty(n)
    min_before[:1] = np.inf
    min_before[1:] = np.minimum.accumulate(hi_s[:-1])
    flags = np.empty(n, dtype=bool)
    flags[order] = min_before[group_start] > hi_s
    return flags


def optimality_zero_condition(p: Iop, x_bar, grid: Optional[Grid] = None) -> bool:
    """Sufficient condition: the zero vector is a subgradient at x_bar.

    When it holds, the grid point nearest x_bar is cross-checked against
    the efficiency report; the condition is sufficient but not necessary,
    so False verdicts say nothing about efficiency.
    """
    f = p.objective
    x = np.asarray(x_bar, dtype=float).ravel()
    cand = SubgradientCandidate(IVector.zero(f.arity), tuple(x))
    values, _, cons = _evaluate(f, cand, grid)
    ok, _ = cons.check(cand.g, _DOM_SLACK)
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
    x = np.asarray(x_bar, dtype=float).ravel()
    if tuple(x.tolist()) != cand.base_point:
        raise ValueError(f"x_bar {x.tolist()} differs from the candidate's "
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


def _default_schedule(k: int) -> float:
    return 0.1 / math.sqrt(k + 1)


def _stencil_value_and_gradient(f: Ivf, x: Tuple[float, ...]
                                ) -> Tuple[Interval, Optional[IVector]]:
    """F(x), read from the gradient stencil, and the gH-gradient, or None at
    a kink."""
    try:
        fx, grad = _value_and_gradient(f, x)
    except NonFiniteDerivative as exc:  # a kink; the stencil may hold F(x)
        fx, grad = exc.sampled, None
    # the stencils sample x + 0.0, which is not x where x holds a -0.0
    if fx is None or any(v == 0.0 and math.copysign(1.0, v) < 0.0 for v in x):
        fx = f.boundary(x)
    return Interval(*fx), grad


def _clip(v: float, lo: float, hi: float) -> float:
    """np.clip(v, lo, hi) on floats, bit for bit: a NaN passes through, and
    a tie, signed zeros included, takes the bound."""
    v = v if v != v or v > lo else lo
    return v if v != v or v < hi else hi


def _kink_subgradient(f: Ivf, x: np.ndarray, value: Interval,
                      values: _GridValues) -> IVector:
    """A subgradient at x where the gH-gradient is missing or fails the
    sampled check, verified against F on the grid (`values`).

    The feasible (g_lo, g_hi) box is derived analytically from the grid
    constraints and the feasible candidate closest to the zero vector is
    returned, so the iteration stalls exactly when the zero vector is
    itself a subgradient.
    """
    if f.arity != 1:
        raise NoSubgradientFound(
            "multivariate descent is unsupported where the gH-gradient fails "
            "the sampled subgradient check")
    cons = _Constraints(values, x, (value.lo, value.hi))
    x0 = float(x[0])
    box = cons.box(_DOM_SLACK)
    if _cut_box_empty(box):
        raise NoSubgradientFound(f"empty feasible region at {x0}")
    p_lb, p_ub, q_lb, q_ub = box
    # feasible candidate closest to the zero vector: clip per endpoint,
    # fall back to the diagonal when the clipped pair is out of order
    p = min(max(0.0, p_lb), p_ub)
    q = min(max(0.0, q_lb), q_ub)
    if p > q:
        t = min(max(0.0, max(p_lb, q_lb)), min(p_ub, q_ub))
        p = q = t
    g = IVector.of(Interval(p, q))
    ok, witness = cons.check(g, 2e-10)
    if not ok:
        raise NoSubgradientFound(
            f"kink candidate failed verification at {witness}")
    return g


def _first_failure(values: _GridValues, pending) -> Optional[int]:
    """Position of the first pending (k, x, F(x), gradient) whose gradient is
    missing (a kink, always the last one) or fails the sampled subgradient
    check, or None.  The checks run in one pass over the pending base
    points."""
    checked = [item for item in pending if item[3] is not None]
    if checked:
        _, xs, fx, grads = zip(*checked)
        cons = _Constraints(values, np.array(xs), (np.array([v.lo for v in fx]),
                                                   np.array([v.hi for v in fx])))
        bad = cons.violations(np.array([[c.lo for c in g] for g in grads]),
                              np.array([[c.hi for c in g] for g in grads]),
                              _DOM_SLACK).any(axis=1)
        if bad.any():
            return int(np.argmax(bad))
    return len(checked) if len(checked) < len(pending) else None


def scalarized_descent(p: Iop, x0, cfg: WMapConfig = WMapConfig(),
                       step_schedule=None, iters: int = 600,
                       grid: Optional[Grid] = None) -> DescentResult:
    """Projected subgradient iteration on the scalarized objective.

    Moves along the negated scalarization of a verified subgradient with
    the given step schedule (default 0.1/sqrt(k+1)), projecting onto the
    domain box.  Stops early when the scalarized subgradient vanishes.
    Returns the dominance-minimal trace iterate (scalarized value breaks
    ties among mutually incomparable candidates) plus its efficiency
    flag and the full trace.  F is evaluated on the grid once per call.
    An iteration is one stencil evaluation per axis, whose stencil holds
    the iterate, plus bookkeeping on floats: the stop test, and the
    projection, which clips as np.clip does, bit for bit.

    The gradient steps run ahead of their checks, which run in batches.
    On the first gradient that is missing (a kink) or fails its check, the
    trace is cut back to that iterate, which keeps the F(x) its stencil
    gave and takes the kink box's subgradient instead: the trace is the one
    checking every step at once would give.  An error raised while steps
    run ahead is raised once the checks before it pass.
    """
    if iters < 1:
        raise ValueError(f"iters must be at least 1, got {iters}")
    f = p.objective
    if step_schedule is None:
        step_schedule = _default_schedule
    if grid is None:
        grid = f.grid()
    x = np.asarray(x0, dtype=float).ravel()
    if not f.contains(x):
        raise OutOfDomain(f"{x.tolist()} is outside the domain")
    x = tuple(x.tolist())
    values = _grid_values(f, grid)
    trace: List[TraceRecord] = []
    pending: list = []  # (k, x, F(x), gradient) of the iterates not yet checked
    # a batch of pending checks starts at 1, doubles after each clean check
    # up to _MAX_ROWS, and starts again at 1 after a failed one
    batch, rolled_back = 1, None
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", OneSidedDifferenceWarning)
        while True:
            stopped = False
            try:
                while len(trace) < iters and len(pending) < batch:
                    k = len(trace)
                    if rolled_back is None:
                        value, g = _stencil_value_and_gradient(f, x)
                        pending.append((k, x, value, g))
                        if g is None:
                            break
                    else:
                        value, rolled_back = rolled_back, None
                        g = _kink_subgradient(f, np.array(x), value, values)
                    direction = w_map(g, cfg)
                    step = step_schedule(k)
                    trace.append(TraceRecord(k, x, value,
                                             cfg.w * value.lo + cfg.w_prime * value.hi,
                                             step))
                    if all(abs(d) <= 1e-12 for d in direction):
                        stopped = True
                        break
                    s = float(step)  # a float32 step is widened, as by float64 arrays
                    x = tuple(_clip(v - s * d, *b) for v, d, b in zip(x, direction, f.domain))
            except Exception:
                failed = _first_failure(values, pending)
                if failed is None:
                    raise
            else:
                failed = _first_failure(values, pending)
            if failed is None:
                pending.clear()
                batch = min(2 * batch, _MAX_ROWS)
                if stopped or len(trace) == iters:
                    break
            else:
                # back to the failing iterate: its F(x) stays, and its
                # subgradient comes from the kink box
                k, x, rolled_back, _ = pending[failed]
                del trace[k:]
                pending.clear()
                batch = 1
    best = _dominance_minimal(trace)
    flagged = _efficiency(values, grid).is_flagged_near(best.x)
    return DescentResult(best.x, best.value, flagged, tuple(trace))


def _dominance_minimal(trace: Sequence[TraceRecord]) -> TraceRecord:
    # keep iterates whose value no other iterate strictly dominates,
    # then pick the smallest scalarized value for determinism
    lo = np.array([r.value.lo for r in trace])
    hi = np.array([r.value.hi for r in trace])
    candidates = [r for r, keep in zip(trace, _pareto_flags(lo, hi)) if keep]
    return min(candidates, key=lambda r: (r.scalarized, r.iteration))
