"""gH-subgradients and subdifferential regions.

A candidate interval vector G is a gH-subgradient of F at x_bar when

    (x - x_bar)^T (.) G  precedes  F(x) gh- F(x_bar)   for all x,

checked here at grid samples with a small dominance slack.  One-variable
subdifferentials are scanned over a rectangular (g_lo, g_hi) parameter
grid; the feasible set is an axis-aligned box intersected with the
half-plane g_lo <= g_hi, so the scan first derives that box and then
rasterizes it.  For an F that `expr.convexity` proves convex and
`expr.separable` separable, in any arity, one walk of the tree gives the
exact subdifferential (`_exact_sets`), and membership, the singleton check,
the region scan, the probe and the Lipschitz bound read it without sampling
F.  Every other F takes the sampled path, whose box comes from the
quotients at the grid samples.  The module also provides the operator norm
of linear interval-valued maps, the directional-derivative maximum
characterization, chain and sum rules for transporting subgradients, and
boundedness/Lipschitz probes over the union of subdifferentials.
"""

from __future__ import annotations

import io
import itertools
import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Optional, Sequence, Tuple

import numpy as np

from .errors import (
    DimensionMismatch,
    EmptySubdifferentialEncountered,
    LengthMismatch,
    MalformedNormIvf,
    NonFiniteDerivative,
    UnresolvedScan,
)
from .expr import BinOp, Const, Norm
from .interval import Interval
from .ivector import IVector, dot
from .ivf import (
    Grid,
    Ivf,
    _lipschitz_max,
    _node,
    _point,
    _run_slices,
    _runs,
    _walk_sides,
    directional_gh_derivative,
    gh_derivative_1d,
    gh_gradient,
    lipschitz_estimate,  # noqa: F401  (callers import it from this module too)
)

_DOM_SLACK = 1e-10
_CHECK_RUN = 1 << 14  # samples per run of the sampled check, which stops at the first failing run
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
    """One-variable subdifferential rasterized over a (g_lo, g_hi) rectangle.

    `bitmap[i, j]` marks feasibility of (g_lo_values[i], g_hi_values[j]).
    `box` is the feasible rectangle (p_lb, p_ub, q_lb, q_ub); the region is
    its intersection with {g_lo <= g_hi}.  For a one-variable F that
    `expr.convexity` proves convex it is min and max of the exact sets A
    and B, and the scan marks cells up to its tol beyond it; otherwise it is
    the box the grid samples cut out, with the scan's tol as slack on F.
    `method` says which: "exact" or "sampled".  It takes no part in == or
    repr.
    """

    x_bar: float
    g_lo_values: np.ndarray
    g_hi_values: np.ndarray
    bitmap: np.ndarray
    box: Tuple[float, float, float, float]
    method: str = field(default="sampled", compare=False, repr=False)

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


class _GridValues:
    """F at the nodes of a grid, given by its axes, in row-major order,
    shared by every base point.  F is evaluated once: run by run as `runs`
    reaches each run, keeping the values once every run has come, or on the
    whole grid when lo or hi is read first.  The grid is checked here, as
    eval_many checks it.  An F that `expr.convexity` does not prove convex
    is evaluated on the whole grid here, so an error anywhere on it raises
    before any verdict; a proved F raises nowhere in its box (`_exact_sets`
    relies on that too)."""

    def __init__(self, f: Ivf, grid: Optional[Grid]):
        self._f, self.axes = f, tuple(f._grid_axes(f.grid() if grid is None else grid))
        if not f._proved_convex:
            self._lo_hi

    @cached_property
    def _lo_hi(self) -> Tuple[np.ndarray, np.ndarray]:
        return self._f._eval_run(self.axes, ())

    lo = property(lambda self: self._lo_hi[0])
    hi = property(lambda self: self._lo_hi[1])

    def runs(self, budget: int):
        """(index, start, f_lo, f_hi) for each run of at most `budget` nodes
        of the grid (`ivf._runs`), in grid order."""
        shape = tuple(len(a) for a in self.axes)
        if "_lo_hi" in self.__dict__:
            lo, hi = (v.reshape(shape) for v in self._lo_hi)
            for index, start in _runs(shape, budget):
                yield index, start, lo[index].reshape(-1), hi[index].reshape(-1)
            return
        seen = []
        for index, start in _runs(shape, budget):
            seen.append(self._f._eval_run(self.axes, index))
            yield (index, start) + seen[-1]
        self._lo_hi = tuple(np.concatenate(v) for v in zip(*seen))


def _endpoints(g: IVector) -> Tuple[np.ndarray, np.ndarray]:
    """G as one candidate: (1, n) arrays of lower and upper endpoints."""
    return (np.array([[c.lo for c in g]]), np.array([[c.hi for c in g]]))


class _Constraints:
    """The sampled subgradient inequality at one base point x_bar, or at K.

    At a sample x, (x - x_bar)^T (.) G  precedes  F(x) gh- F(x_bar) is
    linear in the endpoints (p, q) = (G_lo, G_hi):

        sum_i p_i dpos_i + q_i dneg_i <= lo
        sum_i q_i dpos_i + p_i dneg_i <= hi

    with dpos_i = max(x_i - x_bar_i, 0), dneg_i = min(x_i - x_bar_i, 0)
    and [lo, hi] = F(x) gh- F(x_bar), as (S,) arrays over the grid's S
    nodes (`lo_hi`, built on first use).  dpos_i and dneg_i depend on the
    node's i-th coordinate only, so they are kept per axis, along their own
    dimension of the grid's shape, and the sums broadcast.  Every sampled
    check, box, scan and probe reads the inequality from here; each check
    adds its slack tol to the right side.  f0 is F(x_bar) as (lo, hi).

    x_bar of shape (K, n), with f0 as two (K,) arrays, holds K base points
    at once: dpos_i and dneg_i then have a leading axis of K, lo and hi
    are (K, S), and candidate row k is paired with base point k.  Each
    row's floats are those of a build at that base point alone.
    """

    def __init__(self, values: _GridValues, x_bar: np.ndarray, f0):
        f0_lo, f0_hi = f0
        if x_bar.ndim == 2:
            f0_lo, f0_hi = f0_lo[:, None], f0_hi[:, None]
        self.values, self.f0 = values, (f0_lo, f0_hi)
        self.dpos, self.dneg = [], []
        n = len(values.axes)
        for i, axis in enumerate(values.axes):
            dx = axis - x_bar[..., i, None]
            shape = dx.shape[:-1] + tuple(-1 if j == i else 1 for j in range(n))
            self.dpos.append(np.maximum(dx, 0.0).reshape(shape))
            self.dneg.append(np.minimum(dx, 0.0).reshape(shape))

    def _gap(self, f_lo: np.ndarray, f_hi: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
        """F(x) gh- F(x_bar) as (lo, hi), from F at some samples."""
        d_lo, d_hi = f_lo - self.f0[0], f_hi - self.f0[1]
        return np.minimum(d_lo, d_hi), np.maximum(d_lo, d_hi)

    @cached_property
    def lo_hi(self) -> Tuple[np.ndarray, np.ndarray]:
        """F(x) gh- F(x_bar) at every sample."""
        return self._gap(self.values.lo, self.values.hi)

    def pairing(self, p: np.ndarray, q: np.ndarray, index=()) -> Tuple[np.ndarray, np.ndarray]:
        """Endpoints of (x - x_bar)^T (.) G at every sample, or at those of
        one run of the grid (an index of `ivf._runs`), for M candidates
        given as (M, n) endpoint arrays: two (M, S) arrays, accumulated
        axis by axis in axis order.  With K base points M is K."""
        lo = hi = 0.0
        n = len(self.dpos)
        lead = (-1,) + (1,) * n
        runs = _run_slices(index, n)
        for i, (dpos, dneg) in enumerate(zip(self.dpos, self.dneg)):
            along = (Ellipsis, runs[i]) + (slice(None),) * (n - 1 - i)
            p_i, q_i = p[:, i].reshape(lead), q[:, i].reshape(lead)
            lo = lo + (p_i * dpos[along] + q_i * dneg[along])
            hi = hi + (q_i * dpos[along] + p_i * dneg[along])
        return lo.reshape(p.shape[0], -1), hi.reshape(p.shape[0], -1)

    def check(self, g: IVector, tol: float):
        """(True, None), or (False, witness) with the first violating
        sample in grid order.  The samples go in runs of axis 0 of at most
        _CHECK_RUN nodes, in grid order, and the check returns at the first
        run that has a violation."""
        p, q = _endpoints(g)
        for index, start, f_lo, f_hi in self.values.runs(_CHECK_RUN):
            bad = _breaks(self.pairing(p, q, index), self._gap(f_lo, f_hi), tol)
            if bad.any():
                return False, _node(self.values.axes, start + int(np.argmax(bad)))
        return True, None

    def box(self, tol: float):
        """For one variable, the analytic (p_lb, p_ub, q_lb, q_ub) bounds on
        feasible (g_lo, g_hi): the projection of the constraints.  Floats,
        or (K,) arrays for K base points.

        With n = 1 a sample reads p*dpos + q*dneg <= lo + tol and
        q*dpos + p*dneg <= hi + tol.  Dividing by the nonzero displacement
        gives upper bounds from the samples with x > x_bar and lower bounds
        from those with x < x_bar; the sample at x_bar is void.
        """
        rhs_lo, rhs_hi = (v + tol for v in self.lo_hi)
        (dpos,), (dneg,) = self.dpos, self.dneg
        pos = dpos > 0.0
        neg = dneg < 0.0
        box = (_masked_quotient(np.maximum, rhs_hi, dneg, neg, -math.inf),
               _masked_quotient(np.minimum, rhs_lo, dpos, pos, math.inf),
               _masked_quotient(np.maximum, rhs_lo, dneg, neg, -math.inf),
               _masked_quotient(np.minimum, rhs_hi, dpos, pos, math.inf))
        return box if rhs_lo.ndim == 2 else tuple(float(b) for b in box)


def _breaks(lhs, gap, tol: float) -> np.ndarray:
    """Where (x - x_bar)^T (.) G, as (lo, hi), exceeds F(x) gh- F(x_bar) by
    more than tol at either end."""
    return (lhs[0] > gap[0] + tol) | (lhs[1] > gap[1] + tol)


def _masked_quotient(extreme: np.ufunc, num: np.ndarray, den: np.ndarray,
                     mask: np.ndarray, empty: float):
    """extreme (np.minimum or np.maximum) of num / den over the samples where
    mask holds, per base point; `empty` where it holds at none.  Quotients
    outside the mask are neither taken nor read."""
    quotients = np.divide(num, den, out=None, where=mask)
    return extreme.reduce(quotients, axis=-1, initial=empty, where=mask)


def _exact_sets(f: Ivf, x_bar: Sequence[float], grid: Optional[Grid] = None):
    """The subdifferentials A of f_lo and B of f_hi at x_bar, over the box, of
    an F that `expr.convexity` proves convex and `expr.separable` separable
    (`Ivf._exact_slopes`), from one walk (`ivf._walk_sides`): per axis A_i =
    [-f_lo'(x_bar; -e_i), f_lo'(x_bar; e_i)] and B_i the same for f_hi,
    unbounded outward at a domain bound.  x_bar is checked as every verdict
    at a point checks it (`ivf._point`), and read clamped to the box.  None
    if F is not proved both, eval_many would refuse the grid (the sampled
    path then raises), or the walk refuses."""
    if not f._exact_slopes:
        return None
    x = [min(max(v, l), u) for v, (l, u) in zip(_point(f, x_bar), f.domain)]
    if grid is not None and (grid.dim != f.arity or not f._holds(grid)):
        return None
    try:
        sides, (_, _, dlo, dhi) = _walk_sides(f, x, range(f.arity))
    except NonFiniteDerivative:  # eval_many raises nowhere in the box for a proved F
        return None
    a, b = [[-math.inf, math.inf] for _ in x], [[-math.inf, math.inf] for _ in x]
    for (i, s), d_lo, d_hi in zip(sides, dlo, dhi):
        k = int(s > 0.0)  # -D(-e_i) bounds from below, as 0.0 - d: no -0.0
        a[i][k], b[i][k] = (d_lo, d_hi) if k else (0.0 - d_lo, 0.0 - d_hi)
    return a, b


def _in_exact(sets, g: IVector, tol: float) -> bool:
    """Whether G = ([p_i, q_i])_i is a subgradient by the sets A and B of
    `_exact_sets`, each widened by tol; False if there are none.  Convex
    quotients are nondecreasing along rays (Rockafellar 1970, Thm 23.1), so
    the inequality of `_Constraints` binds as x -> x_bar: for every h into
    the box, min over G of g.h <= sigma_A(h), sigma_B(h) and sigma_G(h) <=
    max(sigma_A(h), sigma_B(h)), sigma the support functions.  So G meets A
    and B and lies in the closure of conv(A u B) (Thm 23.4): each vertex v of
    G has one lam in [0, 1] with v_i in lam*A_i + (1 - lam)*B_i for every i."""
    if sets is None:
        return False

    def lam(x, y, w):  # lam*x + (1 - lam)*y <= w, as (lo, hi); x = y = -inf, no bound
        if y <= w:  # it holds at lam = 0
            return 0.0, (w - y) / (x - y) if x > w else 1.0
        return (1.0, 0.0) if x > w else ((w - y) / (x - y), 1.0)
    # per axis, the lam that p_i and that q_i allow: once G_i meets A_i and B_i,
    # p_i can only fall below the hull and q_i only rise above it
    lams = []
    for (a_lo, a_hi), (b_lo, b_hi), c in zip(*sets, g):
        a_lo, b_lo, a_hi, b_hi = a_lo - tol, b_lo - tol, a_hi + tol, b_hi + tol
        if not (c.lo <= min(a_hi, b_hi) and max(a_lo, b_lo) <= c.hi):
            return False
        lams.append([lam(a_lo, b_lo, c.lo), lam(-a_hi, -b_hi, -c.hi)])
    return all(max(lo for lo, _ in vertex) <= min(hi for _, hi in vertex)
               for vertex in itertools.product(*lams))


def _evaluate(f: Ivf, cand: SubgradientCandidate, grid: Optional[Grid]) -> _Constraints:
    """The constraints at the candidate's base point, over F on the grid
    (`_GridValues`).  For a proved-convex F the grid is evaluated as it is
    read, so a check that stops early evaluates less of it."""
    x_bar = np.array(_point(f, cand.base_point))
    return _Constraints(_GridValues(f, grid), x_bar, f.boundary(x_bar))


def is_subgradient(f: Ivf, cand: SubgradientCandidate,
                   grid: Optional[Grid] = None,
                   tol: float = _DOM_SLACK):
    """Check the subgradient dominance at every grid sample.

    A G inside the exact subdifferential (`_in_exact`, widened by tol) is
    accepted without sampling, in any number of variables.  Otherwise F is
    evaluated on the grid once per call.  Returns (True, None) or (False,
    witness) with the first violating sample in grid order.
    """
    if _in_exact(_exact_sets(f, cand.base_point, grid), cand.g, tol):
        return True, None
    return _evaluate(f, cand, grid).check(cand.g, tol)


def is_subgradient_strict_variant(f: Ivf, cand: SubgradientCandidate,
                                  grid: Optional[Grid] = None,
                                  tol: float = _DOM_SLACK):
    """Check the stronger variant (x - x_bar)^T (.) G + F(x_bar) <= F(x).

    Far more restrictive than the gh-difference form; returns (bool,
    witness) the same way as is_subgradient.
    """
    cons = _evaluate(f, cand, grid)
    (lhs_lo,), (lhs_hi,) = cons.pairing(*_endpoints(cand.g))
    bad = ((lhs_lo + cons.f0[0] > cons.values.lo + tol)
           | (lhs_hi + cons.f0[1] > cons.values.hi + tol))
    if bad.any():
        return False, _node(cons.values.axes, int(np.argmax(bad)))
    return True, None


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

    Marks each sampled candidate (g_lo, g_hi) with g_lo <= g_hi inside the
    feasible box.  For an F that `expr.convexity` proves convex that is the
    exact box, min and max of the sets A and B of `_exact_sets`, and the
    grid is not sampled; its marks reach tol beyond it.  Otherwise it is the
    box of the subgradient dominance, with slack tol, at all grid samples.
    Default bounds are the gH-derivative plus/minus 3 units per endpoint, or
    at a kink, where there is none, the box widened by 3 per endpoint.
    """
    if f.arity != 1:
        raise ValueError("subdiff_scan_1d needs a one-variable function")
    x = np.array(_point(f, [x_bar]))
    steps = _scan_steps(steps, g_bounds)
    sets = _exact_sets(f, x, grid)
    if sets is None:
        box, widen = _Constraints(_GridValues(f, grid), x, f.boundary(x)).box(tol), 0.0
    else:
        # tol widens the raster only: the box, and the maximum read from it, stay exact
        (a,), (b,) = sets
        box, widen = (min(a[0], b[0]), min(a[1], b[1]), max(a[0], b[0]), max(a[1], b[1])), tol
    p_lb, p_ub, q_lb, q_ub = box
    if g_bounds is None:
        try:
            deriv = gh_derivative_1d(f, x_bar)
        except NonFiniteDerivative:
            if not all(map(math.isfinite, box)):
                raise
            g_bounds = ((p_lb - 3.0, p_ub + 3.0), (q_lb - 3.0, q_ub + 3.0))
        else:
            g_bounds = ((deriv.lo - 3.0, deriv.lo + 3.0),
                        (deriv.hi - 3.0, deriv.hi + 3.0))
    p_vals = np.linspace(g_bounds[0][0], g_bounds[0][1], steps[0])
    q_vals = np.linspace(g_bounds[1][0], g_bounds[1][1], steps[1])
    p_ok = (p_vals >= p_lb - widen) & (p_vals <= p_ub + widen)
    q_ok = (q_vals >= q_lb - widen) & (q_vals <= q_ub + widen)
    # the two parameter axes come from different linspaces, so cells on
    # the mathematical diagonal can differ by one ulp; tolerate that
    bitmap = (p_ok[:, None] & q_ok[None, :]
              & (p_vals[:, None] <= q_vals[None, :] + 1e-12))
    return SubdiffRegion1D(float(x_bar), p_vals, q_vals, bitmap, box,
                           "sampled" if sets is None else "exact")


def _scan_steps(steps, g_bounds) -> Tuple[int, int]:
    """The (g_lo, g_hi) counts of a scan, each >= 2, once any bounds are finite, lo <= hi."""
    pair = (steps, steps) if isinstance(steps, int) else tuple(steps)
    if len(pair) != 2 or min(pair) < 2:
        raise ValueError(f"need at least 2 scan steps per axis, got {pair}")
    if g_bounds is not None and not all(-math.inf < lo <= hi < math.inf for lo, hi in g_bounds):
        raise ValueError(f"scan bounds must be finite, each lo <= hi, got {g_bounds}")
    return pair


def check_singleton_at_differentiable(f: Ivf, x_bar, grid: Optional[Grid] = None) -> bool:
    """Verify the subdifferential collapses onto the gH-gradient.

    Where `_exact_sets` gives A and B, in any number of variables, it does
    exactly when the gradient is in it (slack _DOM_SLACK) and every A_i and
    B_i is one point.  Otherwise a one-variable F is scanned over the
    gradient's endpoints plus/minus 3 (121 steps, slack _DOM_SLACK), and
    every marked cell must lie within one scan step of it; more variables
    raise ValueError.  An endpoint so large that plus/minus 3 rounds back
    onto it (|endpoint| from about 1e16) leaves the scan no width to
    resolve, and raises UnresolvedScan.
    """
    x_arr = np.asarray(x_bar, dtype=float).ravel()
    grad = gh_gradient(f, x_arr)
    sets = _exact_sets(f, x_arr, grid)
    if sets is not None:
        return _in_exact(sets, grad, _DOM_SLACK) and all(lo == hi for s in sets for lo, hi in s)
    if f.arity != 1:
        raise ValueError("the singleton check in two or more variables needs a convex, separable F")
    ends = [grad[0].lo, grad[0].hi]
    if any(v - 3.0 == v or v + 3.0 == v for v in ends):
        raise UnresolvedScan(f"no width to scan at the gradient {grad[0]}: "
                             "plus/minus 3 rounds back onto it")
    region = subdiff_scan_1d(f, float(x_arr[0]), [(v - 3.0, v + 3.0) for v in ends], 121, grid)
    # an empty region is no singleton
    return not region.is_empty and bool(np.all(
        np.abs(region.marked() - ends) <= max(region.step) + 1e-12))


def directional_max_check(f: Ivf, x_bar: float, h: float,
                          region: SubdiffRegion1D,
                          tol: float = 1e-5):
    """Dominance-maximum of {h (.) G} over the region vs the directional
    derivative.

    For an exact region (`region.method`) the region is `region.box` cut by
    the scan rectangle and {g_lo <= g_hi}.  Over it the maximum M has a
    closed form and is attained: by G = [min(p_ub, q_ub), q_ub] for h >= 0,
    and by G = [p_lb, max(q_lb, p_lb)] for h < 0.  For a sampled region M is
    read from the marked cells: their largest (h >= 0) or least (h < 0)
    g_lo and g_hi, which one marked cell attains.  Returns (M, match);
    raises EmptySubdifferentialEncountered if the scan marked no candidate.
    """
    if region.is_empty:
        raise EmptySubdifferentialEncountered("region holds no candidates")
    p, q = region.g_lo_values, region.g_hi_values
    h = float(h)
    if region.method == "exact":
        p_lb, p_ub = max(region.box[0], float(p.min())), min(region.box[1], float(p.max()))
        q_lb, q_ub = max(region.box[2], float(q.min())), min(region.box[3], float(q.max()))
        g = Interval(min(p_ub, q_ub), q_ub) if h >= 0.0 else Interval(p_lb, max(q_lb, p_lb))
    else:
        p, q = p[region.bitmap.any(axis=1)], q[region.bitmap.any(axis=0)]
        g = (Interval(float(p.max()), float(q.max())) if h >= 0.0
             else Interval(float(p.min()), float(q.min())))
    maximum = g.scale(h)
    deriv = directional_gh_derivative(f, [x_bar], [h])
    match = (abs(maximum.lo - deriv.lo) <= tol
             and abs(maximum.hi - deriv.hi) <= tol)
    return maximum, match


# --------------------------------------------------------------------------
# Linear maps and the norm-ball characterization at the origin
# --------------------------------------------------------------------------


def operator_norm(l: LinearIvf) -> float:
    """sup of ||L(x)|| over the unit sphere, sqrt(sum_i max(a_i^2, b_i^2))
    for L(x) = sum_i x_i (.) [a_i, b_i].

    hi(x) = sum_i max(a_i x_i, b_i x_i) is the largest v.x over the vertices
    v of prod_i {a_i, b_i}, and -lo(x) the largest -v.x, so the sup is the
    largest |v|, attained at v*/|v*| where v* takes each endpoint of larger
    magnitude.
    """
    return math.hypot(*(c.norm for c in l.coeffs))


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


def norm_ball_membership_check(f: Ivf, l: LinearIvf) -> bool:
    """For F = C (.) ||x|| with C >= 0, check the norm-ball implication.

    If L is a subgradient of F at the origin on F's default grid then its
    operator norm must not exceed ||C|| + 1e-8; returns the truth of that
    implication (vacuously true when L fails the membership test).
    """
    c = _norm_shape_constant(f)
    origin = tuple(0.0 for _ in range(f.arity))
    ok, _ = is_subgradient(f, SubgradientCandidate(l.coeffs, origin))
    if not ok:
        return True
    return operator_norm(l) <= c.norm + 1e-8


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
    return IVector(tuple(dot(a[:, j], g_m) for j in range(n)))


def sum_rule(g_parts: Sequence[IVector]) -> IVector:
    """Componentwise Moore sum of per-summand subgradients."""
    parts = list(g_parts)
    if not parts:
        raise LengthMismatch("need at least one summand")
    n = len(parts[0])
    if any(len(p) != n for p in parts):
        raise LengthMismatch("summands must have equal lengths")
    return IVector(tuple(sum((p[j] for p in parts), Interval(0.0, 0.0)) for j in range(n)))


# --------------------------------------------------------------------------
# Union boundedness and the Lipschitz bound
# --------------------------------------------------------------------------


def union_boundedness_probe(f: Ivf, grid: Optional[Grid] = None) -> float:
    """Sup of the candidate norm over subdifferentials at interior grid
    points.

    Base points are the interior grid nodes: at the two domain endpoints
    the dominance constraint is one-sided and the feasible set is a
    half-infinite strip, so endpoint subdifferentials are excluded from
    the boundedness probe.  The sup is over the union, so a base point
    with no feasible candidate adds nothing to it.

    For an F that `expr.convexity` proves convex the subdifferentials are
    the exact boxes of `_exact_sets`, none empty.  Each of their bounds is
    nondecreasing in x, and the cut by {g_lo <= g_hi} keeps a candidate at
    each bound, so the sup is the largest |bound| at the two extreme
    interior nodes: two walks, and F is not evaluated.  Otherwise F is
    evaluated once, on the grid, and the sampled boxes are read at every
    interior node (`_sampled_sup`).
    """
    grid = _probe_grid(f, grid)
    interior = grid.axes()[0][1:-1]
    if interior.size:
        sup = _slope_sup(f, grid, {interior[0], interior[-1]})
        if sup is not None:
            return sup
    return _sampled_sup(_GridValues(f, grid))


def _probe_grid(f: Ivf, grid: Optional[Grid]) -> Grid:
    """The grid of a probe, f's default one if None, once f is checked."""
    if f.arity != 1:
        raise ValueError("the boundedness probe supports one variable only")
    return f.grid() if grid is None else grid


def _slope_sup(f: Ivf, grid: Grid, xs) -> Optional[float]:
    """The largest |bound| of the exact sets at the points xs, over their
    finite bounds; None if `_exact_sets` gives none at one of them."""
    sup = 0.0
    for x in xs:
        sets = _exact_sets(f, [x], grid)
        if sets is None:
            return None
        sup = max([sup] + [abs(b) for (bounds,) in sets for b in bounds if abs(b) != math.inf])
    return sup


def _sampled_sup(values: _GridValues, raise_empty: bool = False) -> float:
    """The probe's sampled sup, from F at the nodes of a one-variable grid.

    At each interior base point the sampled box (p_lb, p_ub, q_lb, q_ub),
    slack _DOM_SLACK, is cut by {p <= q}.  Each sample bounds p alone or q
    alone, so the region's p spans [p_lb, min(p_ub, q_ub)] and its q
    [max(q_lb, p_lb), q_ub], and the sup is the largest |end|.  A base point
    with no candidate adds nothing, or raises EmptySubdifferentialEncountered
    if `raise_empty`.  The region is closed, so each end is re-verified
    (slack _DOM_SLACK + 1e-12) against the samples that bound it: p*dx,
    dx = x - x_bar, against the lo end of F(x) gh- F(x_bar) where dx > 0 and
    its hi end where dx < 0, q*dx the other way round.  Rounded products are
    monotone, so a candidate fails only if an end does.  Base points go in
    array passes over blocks of _MAX_ROWS, and the first one in grid order
    that would raise on its own raises.
    """
    axis, tol = values.axes[0], _DOM_SLACK + 1e-12
    x_bar = axis[1:-1, None]
    f0_lo, f0_hi = values.lo[1:-1], values.hi[1:-1]
    # base points before the first whose F(x_bar) is no interval; that one
    # raises below as f.eval would
    finite = np.isfinite(f0_lo) & np.isfinite(f0_hi) & (f0_lo <= f0_hi)
    rows = x_bar.shape[0] if finite.all() else int(np.argmin(finite))
    sup = 0.0
    for start in range(0, rows, _MAX_ROWS):
        block = slice(start, min(start + _MAX_ROWS, rows))
        cons = _Constraints(values, x_bar[block], (f0_lo[block], f0_hi[block]))
        p_lb, p_ub, q_lb, q_ub = cons.box(_DOM_SLACK)
        # a NaN sample makes both bounds of its side NaN, which no candidate
        # meets: the region shrinks onto the other side's corner
        p_lb, q_lb = np.where(np.isnan(p_lb), p_ub, p_lb), np.where(np.isnan(q_lb), q_ub, q_lb)
        p_ub, q_ub = np.where(np.isnan(p_ub), p_lb, p_ub), np.where(np.isnan(q_ub), q_lb, q_ub)
        ends = p_lb, np.minimum(p_ub, q_ub), np.maximum(q_lb, p_lb), q_ub
        found = (ends[0] <= ends[1]) & (ends[2] <= ends[3])
        dx = axis - x_bar[block]
        gap_lo, gap_hi = (g + tol for g in cons.lo_hi)
        p_gap, q_gap = np.where(dx > 0.0, gap_lo, gap_hi), np.where(dx > 0.0, gap_hi, gap_lo)
        over = [e[:, None] * dx > gap for e, gap in zip(ends, (p_gap, p_gap, q_gap, q_gap))]
        failing = (found & np.any(over, axis=(0, 2))) | (~found & raise_empty)
        for j in np.flatnonzero(failing):
            if not found[j]:
                raise EmptySubdifferentialEncountered(
                    f"no feasible candidate at base point {x_bar[start + j, 0]}")
            # the candidates, the corners kept where p <= q, then the ends of
            # the diagonal, re-verified as `_Constraints` pairs them; there an
            # end paired with an infinite one meets a zero displacement, which
            # gives NaN, so a failing end may fail no candidate
            a, b, c, d = (v[j] for v in (p_lb, p_ub, q_lb, q_ub))
            lo, hi = ends[2][j], ends[1][j]
            for p, q, kept in ((a, c, a <= c), (a, d, True), (b, c, b <= c), (b, d, b <= d),
                               (lo, lo, lo <= hi), (hi, hi, lo <= hi)):
                bad = ((p * dx[j] > p_gap[j]) & math.isfinite(q)
                       | (q * dx[j] > q_gap[j]) & math.isfinite(p))
                if kept and bad.any():
                    witness = _node(values.axes, int(np.argmax(bad)))
                    raise EmptySubdifferentialEncountered(
                        f"frontier candidate failed re-verification at {witness}")
        sup = max(sup, float(np.max(np.abs(ends), where=found, initial=0.0)))
    if rows < x_bar.shape[0]:
        Interval(f0_lo[rows], f0_hi[rows])
    return sup


def lipschitz_from_subgradients_check(f: Ivf, grid: Optional[Grid] = None) -> bool:
    """Check the sampled Lipschitz quotient against the subgradient sup,
    within 1e-6.

    For an F that `expr.convexity` proves convex the sup is over the open
    domain: the largest |slope| into the domain at its two bounds, from
    two walks, which bounds the quotient of every pair of samples.
    Otherwise it is the sampled probe's, which here raises
    EmptySubdifferentialEncountered at a base point with no feasible
    candidate.  F is evaluated once, on the grid, which the sampled probe
    shares.
    """
    grid = _probe_grid(f, grid)
    values = _GridValues(f, grid)
    sup = _slope_sup(f, grid, f.domain[0])
    if sup is None:
        sup = _sampled_sup(values, raise_empty=True)
    return _lipschitz_max(values.axes, values.lo, values.hi) <= sup + 1e-6
