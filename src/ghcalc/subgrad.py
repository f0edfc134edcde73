"""gH-subgradients and sampled subdifferential regions.

A candidate interval vector G is a gH-subgradient of F at x_bar when

    (x - x_bar)^T (.) G  precedes  F(x) gh- F(x_bar)   for all x,

checked here at grid samples with a small dominance slack.  One-variable
subdifferentials are scanned over a rectangular (g_lo, g_hi) parameter
grid; the feasible set is, for fixed samples, an axis-aligned box
intersected with the half-plane g_lo <= g_hi, so the scan first derives
that box analytically from the sample quotients and then rasterizes it.
The module also provides the operator norm of linear interval-valued
maps, the directional-derivative maximum characterization, chain and sum
rules for transporting subgradients, and boundedness/Lipschitz probes
over the union of subdifferentials.
"""

from __future__ import annotations

import io
import math
from dataclasses import dataclass
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySubdifferentialEncountered,
    LengthMismatch,
    MalformedNormIvf,
    MaxNotAttained,
    OutOfDomain,
)
from .expr import BinOp, Const, Norm
from .interval import Interval
from .ivector import IVector, dot
from .ivf import (
    Grid,
    Ivf,
    _lipschitz_max,
    directional_gh_derivative,
    gh_gradient,
    lipschitz_estimate,  # noqa: F401  (callers import it from this module too)
)

_DOM_SLACK = 1e-10
_SCAN_BLOCK = 1 << 16  # 2-D scan chunk, in candidate-sample entries: fits in cache
_MAX_ROWS = 64  # base points per K-row constraint set, so its (K, S) arrays stay small


@dataclass(frozen=True)
class SubgradientCandidate:
    """A candidate subgradient G anchored at a base point."""

    g: IVector
    base_point: Tuple[float, ...]

    def __post_init__(self):
        base = tuple(float(v) for v in self.base_point)
        if len(self.g) != len(base):
            raise LengthMismatch("candidate length must equal the point dimension")
        object.__setattr__(self, "base_point", base)


@dataclass(frozen=True)
class LinearIvf:
    """Linear interval-valued map x -> sum_i x_i (.) coeffs_i."""

    coeffs: IVector

    def __call__(self, x: Sequence[float]) -> Interval:
        return dot(x, self.coeffs)


@dataclass(frozen=True)
class SubdiffRegion1D:
    """Sampled one-variable subdifferential over a (g_lo, g_hi) rectangle.

    `bitmap[i, j]` marks feasibility of (g_lo_values[i], g_hi_values[j]).
    `box` is the analytic feasible rectangle (p_lb, p_ub, q_lb, q_ub)
    derived from the sample constraints; the true region is its
    intersection with {g_lo <= g_hi}.
    """

    x_bar: float
    g_lo_values: np.ndarray
    g_hi_values: np.ndarray
    bitmap: np.ndarray
    box: Tuple[float, float, float, float]

    @property
    def is_empty(self) -> bool:
        return not bool(self.bitmap.any())

    @property
    def step(self) -> Tuple[float, float]:
        p, q = self.g_lo_values, self.g_hi_values
        return (float(p[1] - p[0]), float(q[1] - q[0]))

    def marked(self) -> np.ndarray:
        """Marked candidates as an (M, 2) array of (g_lo, g_hi) pairs."""
        ii, jj = np.nonzero(self.bitmap)
        return np.stack([self.g_lo_values[ii], self.g_hi_values[jj]], axis=1)

    def to_csv(self) -> str:
        out = io.StringIO()
        out.write("g_lo,g_hi,feasible\n")
        for i, p in enumerate(self.g_lo_values):
            for j, q in enumerate(self.g_hi_values):
                out.write(f"{float(p)!r},{float(q)!r},{int(self.bitmap[i, j])}\n")
        return out.getvalue()


@dataclass(frozen=True)
class _GridValues:
    """F evaluated once at the grid samples, shared by every base point."""

    pts: np.ndarray
    lo: np.ndarray
    hi: np.ndarray


def _grid_values(f: Ivf, grid: Optional[Grid]) -> _GridValues:
    pts = (f.grid() if grid is None else grid).points()
    return _GridValues(pts, *f.eval_many(pts))


def _endpoints(g: IVector) -> Tuple[np.ndarray, np.ndarray]:
    """G as one candidate: (1, n) arrays of lower and upper endpoints."""
    return (np.array([[c.lo for c in g]]), np.array([[c.hi for c in g]]))


class _Constraints:
    """The sampled subgradient inequality at one base point x_bar, or at K.

    At a sample x, (x - x_bar)^T (.) G  precedes  F(x) gh- F(x_bar) is
    linear in the endpoints (p, q) = (G_lo, G_hi):

        sum_i p_i dpos_i + q_i dneg_i <= lo
        sum_i q_i dpos_i + p_i dneg_i <= hi

    with dpos = max(x - x_bar, 0), dneg = min(x - x_bar, 0) as (S, n)
    arrays and [lo, hi] = F(x) gh- F(x_bar).  Every sampled check, box,
    scan and probe reads the inequality from here; each check adds its
    slack tol to the right side.  f0 is F(x_bar) as (lo, hi).

    x_bar of shape (K, n), with f0 as two (K,) arrays, holds K base points
    at once: dpos and dneg are then (K, S, n), lo and hi (K, S), and
    candidate row k is paired with base point k.  Each row's floats are
    those of a build at that base point alone.
    """

    def __init__(self, values: _GridValues, x_bar: np.ndarray, f0):
        f0_lo, f0_hi = f0
        if x_bar.ndim == 2:
            f0_lo, f0_hi = f0_lo[:, None], f0_hi[:, None]
        dx = values.pts - x_bar[..., None, :]
        d_lo = values.lo - f0_lo
        d_hi = values.hi - f0_hi
        self.pts = values.pts
        self.dpos, self.dneg = np.maximum(dx, 0.0), np.minimum(dx, 0.0)
        self.lo, self.hi = np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)

    def pairing(self, p: np.ndarray, q: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoints of (x - x_bar)^T (.) G at every sample for M candidates
        given as (M, n) endpoint arrays: two (M, S) arrays, accumulated
        axis by axis in axis order.  With K base points M is K."""
        lo = hi = 0.0
        for i in range(p.shape[1]):
            dpos, dneg = self.dpos[..., i], self.dneg[..., i]
            p_i, q_i = p[:, i, None], q[:, i, None]
            lo = lo + (p_i * dpos + q_i * dneg)
            hi = hi + (q_i * dpos + p_i * dneg)
        return lo, hi

    def violations(self, p: np.ndarray, q: np.ndarray, tol: float) -> np.ndarray:
        """(M, S) mask of the samples where each candidate breaks the
        inequality by more than tol."""
        lhs_lo, lhs_hi = self.pairing(p, q)
        return (lhs_lo > self.lo + tol) | (lhs_hi > self.hi + tol)

    def check(self, g: IVector, tol: float):
        """(True, None), or (False, witness) with the first violating
        sample in grid order."""
        return _verdict(self.pts, self.violations(*_endpoints(g), tol))

    def box(self, tol: float):
        """For one variable, the analytic (p_lb, p_ub, q_lb, q_ub) bounds on
        feasible (g_lo, g_hi): the projection of the constraints.  Floats,
        or (K,) arrays for K base points.

        With n = 1 a sample reads p*dpos + q*dneg <= lo + tol and
        q*dpos + p*dneg <= hi + tol.  Dividing by the nonzero displacement
        gives upper bounds from the samples with x > x_bar and lower bounds
        from those with x < x_bar; the sample at x_bar is void.
        """
        rhs_lo, rhs_hi = self.lo + tol, self.hi + tol
        dpos, dneg = self.dpos[..., 0], self.dneg[..., 0]
        pos = dpos > 0.0
        neg = dneg < 0.0
        box = (_masked_quotient(np.maximum, rhs_hi, dneg, neg, -math.inf),
               _masked_quotient(np.minimum, rhs_lo, dpos, pos, math.inf),
               _masked_quotient(np.maximum, rhs_lo, dneg, neg, -math.inf),
               _masked_quotient(np.minimum, rhs_hi, dpos, pos, math.inf))
        return box if self.lo.ndim == 2 else tuple(float(b) for b in box)


def _masked_quotient(extreme: np.ufunc, num: np.ndarray, den: np.ndarray,
                     mask: np.ndarray, empty: float):
    """extreme (np.minimum or np.maximum) of num / den over the samples where
    mask holds, per base point; `empty` where it holds at none.  Quotients
    outside the mask are neither taken nor read."""
    quotients = np.divide(num, den, out=None, where=mask)
    return extreme.reduce(quotients, axis=-1, initial=empty, where=mask)


def _cut_box_empty(box):
    """Whether the box (p_lb, p_ub, q_lb, q_ub) misses {p <= q}: a bool, or
    a (K,) mask for the boxes of K base points."""
    p_lb, p_ub, q_lb, q_ub = box
    return (p_lb > p_ub) | (q_lb > q_ub) | (p_lb > q_ub)


def _evaluate(f: Ivf, cand: SubgradientCandidate, grid: Optional[Grid]):
    """F on the grid, F(x_bar) and the constraints at the candidate's base point."""
    x_bar = np.asarray(cand.base_point, dtype=float)
    if not f.contains(x_bar):
        raise OutOfDomain(f"{cand.base_point} is outside the domain")
    values = _grid_values(f, grid)
    f0 = f.boundary(x_bar)
    return values, f0, _Constraints(values, x_bar, f0)


def _verdict(pts: np.ndarray, bad: np.ndarray):
    """(True, None), or (False, witness): the first violating sample of the
    first failing candidate, for an (M, S) mask over M candidates."""
    if bad.any():
        return False, pts[int(np.argmax(bad)) % pts.shape[0]].tolist()
    return True, None


def is_subgradient(f: Ivf, cand: SubgradientCandidate,
                   grid: Optional[Grid] = None,
                   tol: float = _DOM_SLACK):
    """Check the subgradient dominance at every grid sample.

    F is evaluated on the grid once per call.  Returns (True, None) or
    (False, witness) with the first violating sample in grid order.
    """
    return _evaluate(f, cand, grid)[2].check(cand.g, tol)


def is_subgradient_strict_variant(f: Ivf, cand: SubgradientCandidate,
                                  grid: Optional[Grid] = None,
                                  tol: float = _DOM_SLACK):
    """Check the stronger variant (x - x_bar)^T (.) G + F(x_bar) <= F(x).

    Far more restrictive than the gh-difference form; returns (bool,
    witness) the same way as is_subgradient.
    """
    values, (f0_lo, f0_hi), cons = _evaluate(f, cand, grid)
    lhs_lo, lhs_hi = cons.pairing(*_endpoints(cand.g))
    return _verdict(values.pts, (lhs_lo + f0_lo > values.lo + tol)
                    | (lhs_hi + f0_hi > values.hi + tol))


# --------------------------------------------------------------------------
# One-variable region scanning
# --------------------------------------------------------------------------


def subdiff_scan_1d(f: Ivf, x_bar: float,
                    g_bounds: Optional[Tuple[Tuple[float, float],
                                             Tuple[float, float]]] = None,
                    steps=(121, 121),
                    grid: Optional[Grid] = None,
                    tol: float = _DOM_SLACK) -> SubdiffRegion1D:
    """Scan the subdifferential of a one-variable function at x_bar.

    Marks each sampled candidate (g_lo, g_hi) with g_lo <= g_hi that
    satisfies the subgradient dominance at all grid samples.  Default
    bounds are the gH-derivative plus/minus 3 units per endpoint.
    """
    if f.arity != 1:
        raise ValueError("subdiff_scan_1d needs a one-variable function")
    if not f.contains([x_bar]):
        raise OutOfDomain(f"{x_bar} is outside the domain")
    if isinstance(steps, int):
        steps = (steps, steps)
    if g_bounds is None:
        from .ivf import gh_derivative_1d
        deriv = gh_derivative_1d(f, x_bar)
        g_bounds = ((deriv.lo - 3.0, deriv.lo + 3.0),
                    (deriv.hi - 3.0, deriv.hi + 3.0))
    p_vals = np.linspace(g_bounds[0][0], g_bounds[0][1], steps[0])
    q_vals = np.linspace(g_bounds[1][0], g_bounds[1][1], steps[1])
    x = np.array([float(x_bar)])
    box = _Constraints(_grid_values(f, grid), x, f.boundary(x)).box(tol)
    p_lb, p_ub, q_lb, q_ub = box
    p_ok = (p_vals >= p_lb) & (p_vals <= p_ub)
    q_ok = (q_vals >= q_lb) & (q_vals <= q_ub)
    # the two parameter axes come from different linspaces, so cells on
    # the mathematical diagonal can differ by one ulp; tolerate that
    bitmap = (p_ok[:, None] & q_ok[None, :]
              & (p_vals[:, None] <= q_vals[None, :] + 1e-12))
    return SubdiffRegion1D(float(x_bar), p_vals, q_vals, bitmap, box)


def _scan_candidates_2d(f: Ivf, x_bar: np.ndarray, bounds, steps,
                        grid: Optional[Grid], tol: float) -> np.ndarray:
    """Brute-force feasible (p1, q1, p2, q2) tuples for a two-variable f, checked
    in chunks of at most _SCAN_BLOCK candidate-sample entries to bound memory."""
    cons = _Constraints(_grid_values(f, grid), x_bar, f.boundary(x_bar))
    axes = [np.linspace(b[0], b[1], s) for b, s in zip(bounds, steps)]
    mesh = np.meshgrid(*axes, indexing="ij")
    cands = np.stack([m.ravel() for m in mesh], axis=1)
    cands = cands[(cands[:, 0] <= cands[:, 1]) & (cands[:, 2] <= cands[:, 3])]
    keep = np.zeros(cands.shape[0], dtype=bool)
    chunk = max(1, _SCAN_BLOCK // cons.pts.shape[0])
    for start in range(0, cands.shape[0], chunk):
        c = cands[start:start + chunk]
        keep[start:start + chunk] = ~cons.violations(c[:, 0::2], c[:, 1::2], tol).any(axis=1)
    return cands[keep]


def check_singleton_at_differentiable(f: Ivf, x_bar, grid: Optional[Grid] = None,
                                      scan_bounds=None, steps: int = 121,
                                      tol: float = _DOM_SLACK) -> bool:
    """Verify the scanned region collapses onto the gH-gradient.

    At a gH-differentiable point the subdifferential is the singleton
    gradient; this checks every marked cell lies within one scan step of
    it (per endpoint).  Supports one and two variables.
    """
    x_arr = np.asarray(x_bar, dtype=float).ravel()
    grad = gh_gradient(f, x_arr)
    if f.arity == 1:
        g = grad[0]
        bounds = scan_bounds or ((g.lo - 3.0, g.lo + 3.0), (g.hi - 3.0, g.hi + 3.0))
        region = subdiff_scan_1d(f, float(x_arr[0]), bounds, steps, grid, tol)
        if region.is_empty:
            return False
        marked = region.marked()
        step = max(region.step)
        return bool(np.all(np.abs(marked[:, 0] - g.lo) <= step + 1e-12)
                    and np.all(np.abs(marked[:, 1] - g.hi) <= step + 1e-12))
    if f.arity == 2:
        bounds = scan_bounds or tuple(
            b for comp in grad for b in ((comp.lo - 3.0, comp.lo + 3.0),
                                         (comp.hi - 3.0, comp.hi + 3.0)))
        per_axis = min(steps, 17)
        marked = _scan_candidates_2d(f, x_arr, bounds, (per_axis,) * 4, grid, tol)
        if marked.shape[0] == 0:
            return False
        target = np.array([grad[0].lo, grad[0].hi, grad[1].lo, grad[1].hi])
        step = max((b[1] - b[0]) / (per_axis - 1) for b in bounds)
        return bool(np.all(np.abs(marked - target[None, :]) <= step + 1e-12))
    raise ValueError("region scans support one or two variables only")


def directional_max_check(f: Ivf, x_bar: float, h: float,
                          region: SubdiffRegion1D,
                          tol: float = 1e-5):
    """Dominance-maximum of {h (.) G} over the region vs the directional
    derivative.

    Returns (M, match) where M is the componentwise least upper bound of
    the sampled products, verified attained within one scan step; raises
    MaxNotAttained otherwise.
    """
    if region.is_empty:
        raise EmptySubdifferentialEncountered("region holds no candidates")
    marked = region.marked()
    h = float(h)
    if h >= 0.0:
        prod_lo, prod_hi = h * marked[:, 0], h * marked[:, 1]
    else:
        prod_lo, prod_hi = h * marked[:, 1], h * marked[:, 0]
    m_lo = float(prod_lo.max())
    m_hi = float(prod_hi.max())
    slack = abs(h) * max(region.step) + 1e-12
    attained = np.any((prod_lo >= m_lo - slack) & (prod_hi >= m_hi - slack))
    if not attained:
        raise MaxNotAttained(
            "no sampled candidate dominates all others in this direction")
    maximum = Interval(m_lo, m_hi)
    deriv = directional_gh_derivative(f, [x_bar], [h])
    match = (abs(maximum.lo - deriv.lo) <= tol
             and abs(maximum.hi - deriv.hi) <= tol)
    return maximum, match


# --------------------------------------------------------------------------
# Linear maps and the norm-ball characterization at the origin
# --------------------------------------------------------------------------


def operator_norm(l: LinearIvf, sphere_samples: int = 512) -> float:
    """sup of ||L(x)|| over the unit sphere, sampled.

    Exact for one variable (the sphere is {-1, +1}).  In higher
    dimensions the estimate uses the coordinate directions plus a fixed
    pseudorandom stream, so it is monotone nondecreasing in the sample
    count and deterministic.
    """
    if sphere_samples < 1:
        raise ValueError("need at least one sphere sample")
    n = len(l.coeffs)
    if n == 1:
        return max(l((1.0,)).norm, l((-1.0,)).norm)
    dirs = [np.eye(n)[i] * s for i in range(n) for s in (1.0, -1.0)]
    rng = np.random.default_rng(0)
    raw = rng.normal(size=(sphere_samples, n))
    dirs.extend(raw / np.linalg.norm(raw, axis=1, keepdims=True))
    return max(l(tuple(d)).norm for d in dirs)


def _norm_shape_constant(f: Ivf) -> Interval:
    body = f.body
    if isinstance(body, BinOp) and body.op == "*":
        left, right = body.left, body.right
        if isinstance(left, Const) and isinstance(right, Norm):
            c = left.value
        elif isinstance(right, Const) and isinstance(left, Norm):
            c = right.value
        else:
            raise MalformedNormIvf("expected a constant times a norm node")
        if c.lo < 0.0:
            raise MalformedNormIvf("norm coefficient must be nonnegative")
        return c
    raise MalformedNormIvf("expected a constant times a norm node")


def norm_ball_membership_check(f: Ivf, l: LinearIvf,
                               grid: Optional[Grid] = None,
                               tol: float = 1e-8) -> bool:
    """For F = C (.) ||x|| with C >= 0, check the norm-ball implication.

    If L is a subgradient of F at the origin on the grid then its
    operator norm must not exceed ||C||; returns the truth of that
    implication (vacuously true when L fails the membership test).
    """
    c = _norm_shape_constant(f)
    origin = tuple(0.0 for _ in range(f.arity))
    ok, _ = is_subgradient(f, SubgradientCandidate(l.coeffs, origin), grid)
    if not ok:
        return True
    return operator_norm(l) <= c.norm + tol


# --------------------------------------------------------------------------
# Transport rules
# --------------------------------------------------------------------------


def chain_rule_transport(a_matrix: Sequence[Sequence[float]],
                         g_m: IVector) -> IVector:
    """Pull a subgradient of H back through x -> Ax: component j is the
    Moore sum over i of a[i][j] (.) g_m[i]."""
    a = np.asarray(a_matrix, dtype=float)
    if a.ndim != 2:
        raise DimensionMismatch("matrix must be two-dimensional")
    m, n = a.shape
    if m != len(g_m):
        raise DimensionMismatch(f"matrix has {m} rows but g has {len(g_m)}")
    comps = []
    for j in range(n):
        acc = Interval(0.0, 0.0)
        for i in range(m):
            acc = acc + g_m[i].scale(a[i, j])
        comps.append(acc)
    return IVector(tuple(comps))


def sum_rule(g_parts: Sequence[IVector]) -> IVector:
    """Componentwise Moore sum of per-summand subgradients."""
    parts = list(g_parts)
    if not parts:
        raise LengthMismatch("need at least one summand")
    n = len(parts[0])
    if any(len(p) != n for p in parts):
        raise LengthMismatch("summands must have equal lengths")
    comps = []
    for j in range(n):
        acc = Interval(0.0, 0.0)
        for p in parts:
            acc = acc + p[j]
        comps.append(acc)
    return IVector(tuple(comps))


# --------------------------------------------------------------------------
# Union boundedness and the Lipschitz bound
# --------------------------------------------------------------------------


def union_boundedness_probe(f: Ivf, grid: Optional[Grid] = None,
                            scan_bounds=None, tol: float = _DOM_SLACK,
                            on_empty: str = "skip") -> float:
    """Sup of the candidate norm over subdifferentials at interior grid
    points.

    Base points are the interior grid nodes: at the two domain endpoints
    the dominance constraint is one-sided and the feasible set is a
    half-infinite strip, so endpoint subdifferentials are excluded from
    the boundedness probe.  Every extreme candidate contributing to the
    sup is re-verified against the full sample set, which also exercises
    closedness: the feasible region is cut out by non-strict
    inequalities, so its frontier points must themselves pass.  F is
    evaluated once, on the grid, and F(x_bar) is read from those values.
    `on_empty` is "skip" (ignore base points with no feasible candidate)
    or "raise" (raise EmptySubdifferentialEncountered).
    """
    return _boundedness_probe(f, grid, scan_bounds, tol, on_empty)[0]


def _boundedness_probe(f: Ivf, grid: Optional[Grid], scan_bounds, tol: float,
                       on_empty: str) -> Tuple[float, _GridValues]:
    """union_boundedness_probe's sup, and the grid values it was read from.

    The interior base points are handled in array passes over blocks of
    _MAX_ROWS, and errors are raised for the first base point, in grid
    order, that would raise one on its own.
    """
    if on_empty not in ("skip", "raise"):
        raise ValueError(f"on_empty must be 'skip' or 'raise', got {on_empty!r}")
    if f.arity != 1:
        raise ValueError("the boundedness probe supports one variable only")
    if grid is None:
        grid = f.grid()
    values = _grid_values(f, grid)
    x_bar = grid.axes()[0][1:-1, None]
    f0_lo, f0_hi = values.lo[1:-1], values.hi[1:-1]
    # base points before the first whose F(x_bar) is no interval; that one
    # raises below as f.eval would
    finite = np.isfinite(f0_lo) & np.isfinite(f0_hi) & (f0_lo <= f0_hi)
    rows = x_bar.shape[0] if finite.all() else int(np.argmin(finite))
    sup = 0.0
    for start in range(0, rows, _MAX_ROWS):
        block = slice(start, min(start + _MAX_ROWS, rows))
        sup = max(sup, _probe_block(values, x_bar[block], (f0_lo[block], f0_hi[block]),
                                    scan_bounds, tol, on_empty))
    if rows < x_bar.shape[0]:
        Interval(f0_lo[rows], f0_hi[rows])
    return sup, values


def _probe_block(values: _GridValues, x_bar: np.ndarray, f0, scan_bounds, tol: float,
                 on_empty: str) -> float:
    """The probe's sup over K base points in one array pass: K-row
    constraints, their boxes cut by the scan bounds and {p <= q}, the six
    candidate vertices of each box (the four corners kept when p <= q, then
    the ends of the diagonal segment) and one re-verification of them all."""
    cons = _Constraints(values, x_bar, f0)
    p_lb, p_ub, q_lb, q_ub = box = cons.box(tol)
    if scan_bounds is not None:
        # max(a, b) and min(a, b) as Python takes them
        (p_min, p_max), (q_min, q_max) = scan_bounds
        box = (np.where(p_min > p_lb, p_min, p_lb), np.where(p_max < p_ub, p_max, p_ub),
               np.where(q_min > q_lb, q_min, q_lb), np.where(q_max < q_ub, q_max, q_ub))
        p_lb, p_ub, q_lb, q_ub = box
    diag_lo = np.where(q_lb > p_lb, q_lb, p_lb)
    diag_hi = np.where(q_ub < p_ub, q_ub, p_ub)
    vp = np.stack([p_lb, p_lb, p_ub, p_ub, diag_lo, diag_hi], axis=1)
    vq = np.stack([q_lb, q_ub, q_lb, q_ub, diag_lo, diag_hi], axis=1)
    on_diag = (diag_lo <= diag_hi)[:, None]
    keep = np.concatenate([vp[:, :4] <= vq[:, :4], on_diag, on_diag], axis=1)
    keep &= ~_cut_box_empty(box)[:, None]
    # frontier points must pass too: the region is closed
    bad = np.stack([cons.violations(vp[:, v, None], vq[:, v, None], tol + 1e-12).any(axis=1)
                    for v in range(vp.shape[1])], axis=1)
    failing = (bad & keep).any(axis=1)
    if on_empty == "raise":
        failing |= ~keep.any(axis=1)
    if failing.any():
        j = int(np.argmax(failing))
        if keep[j].any():  # a vertex the rounding of its box left outside
            row = _Constraints(values, x_bar[j], (f0[0][j], f0[1][j]))
            _, witness = _verdict(values.pts, row.violations(
                vp[j, keep[j], None], vq[j, keep[j], None], tol + 1e-12))
            raise EmptySubdifferentialEncountered(
                f"frontier candidate failed re-verification at {witness}")
        raise EmptySubdifferentialEncountered(
            f"no feasible candidate at base point {x_bar[j, 0]}")
    norms = np.where(keep, np.maximum(np.abs(vp), np.abs(vq)), -math.inf)
    return float(np.max(norms, initial=0.0))


def lipschitz_from_subgradients_check(f: Ivf, grid: Optional[Grid] = None,
                                      scan_bounds=None,
                                      tol: float = 1e-6) -> bool:
    """Check the sampled Lipschitz quotient against the subgradient sup.

    The probe and the Lipschitz quotient share one evaluation of F on the
    grid.
    """
    sup, values = _boundedness_probe(f, grid, scan_bounds, _DOM_SLACK, "raise")
    return _lipschitz_max(values.pts, values.lo, values.hi) <= sup + tol
