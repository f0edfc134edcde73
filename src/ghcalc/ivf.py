"""Interval-valued functions on compact box domains.

Wraps an expression tree with an arity and a domain box, and provides the
numeric calculus used throughout: boundary extraction, gH-derivatives
(one-dimensional, partial, gradient, directional) and sampled diagnostics
for convexity, continuity and Lipschitz behaviour.

All derivative verdicts are numeric.  Boundary functions are differenced
separately and recombined as [min, max] of the two slopes; a function whose
boundary slopes disagree between the two sides of a point is reported as
non-differentiable rather than silently averaged.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, List, Optional, Sequence, Tuple

import numpy as np

from .errors import NoConvergence, NonFiniteDerivative, OutOfDomain
from .expr import Expr, compile_lo_hi, compile_row, parse_expr
from .interval import Interval
from .ivector import IVector

_DOMAIN_TOL = 1e-9

# numeric differentiation defaults: relative initial step, two Richardson
# refinements; kink threshold is relative to the derivative scale
_FD_STEP_SCALE = 1e-4
_KINK_REL_TOL = 1e-4

# directional-derivative refinement schedule
_DIR_LAMBDA0 = 1e-2
_DIR_RATIO = 0.5
_DIR_TOL = 1e-7
_DIR_MAX_REFINES = 40

# central stencil offsets, in units of the step h0
_CENTRAL_OFFSETS = np.array([-1.0, -0.5, -0.25, 0.0, 0.25, 0.5, 1.0])


class OneSidedDifferenceWarning(UserWarning):
    """Derivative was taken at a domain boundary with a one-sided stencil."""


@dataclass(frozen=True)
class Grid:
    """Rectangular sampling of a box: per-axis bounds and sample counts.
    An axis of zero width, a fixed variable, has one node."""

    lower: Tuple[float, ...]
    upper: Tuple[float, ...]
    counts: Tuple[int, ...]

    def __post_init__(self):
        if not (len(self.lower) == len(self.upper) == len(self.counts)):
            raise ValueError("axis arrays must have equal lengths")
        if any(l > u for l, u in zip(self.lower, self.upper)):
            raise ValueError("each axis needs lower <= upper")
        counts = tuple(1 if l == u else c for l, u, c in zip(self.lower, self.upper, self.counts))
        if any(c < 2 for l, u, c in zip(self.lower, self.upper, counts) if l != u):
            raise ValueError("need at least 2 samples per axis")
        object.__setattr__(self, "counts", counts)

    @property
    def dim(self) -> int:
        return len(self.lower)

    @property
    def step(self) -> Tuple[float, ...]:
        return tuple((u - l) / (c - 1) if c > 1 else 0.0
                     for l, u, c in zip(self.lower, self.upper, self.counts))

    def axes(self) -> List[np.ndarray]:
        return [np.linspace(l, u, c)
                for l, u, c in zip(self.lower, self.upper, self.counts)]

    def points(self) -> np.ndarray:
        """All grid nodes as an (N, dim) array in row-major axis order."""
        axes = self.axes()
        mesh = np.meshgrid(*axes, indexing="ij")
        return np.stack([m.ravel() for m in mesh], axis=1)

    @classmethod
    def on_domain(cls, domain: Sequence[Tuple[float, float]],
                  counts_per_axis) -> "Grid":
        if isinstance(counts_per_axis, int):
            counts = tuple(counts_per_axis for _ in domain)
        else:
            counts = tuple(counts_per_axis)
        lower = tuple(float(l) for l, _ in domain)
        upper = tuple(float(u) for _, u in domain)
        return cls(lower, upper, counts)


@dataclass(frozen=True)
class Ivf:
    """Interval-valued function: arity, expression body, compact box domain."""

    arity: int
    body: Expr
    domain: Tuple[Tuple[float, float], ...]

    def __post_init__(self):
        domain = tuple((float(l), float(u)) for l, u in self.domain)
        if len(domain) != self.arity:
            raise ValueError("domain box must have one (lo, hi) pair per axis")
        if any(l > u for l, u in domain):
            raise ValueError("domain bounds must satisfy lo <= hi")
        if self.body.arity_floor() > self.arity:
            raise ValueError("expression references a variable beyond the arity")
        object.__setattr__(self, "domain", domain)
        # built once per function; not fields, so == and hash ignore them
        tol = [_DOMAIN_TOL * (1.0 + abs(l) + abs(u)) for l, u in domain]
        box = [(l - t, u + t) for (l, u), t in zip(domain, tol)]
        object.__setattr__(self, "_edges", tuple(box))
        object.__setattr__(self, "_box", np.array(box, ndmin=2).T)
        object.__setattr__(self, "_units", np.eye(self.arity))
        object.__setattr__(self, "_lo_hi", compile_lo_hi(self.body))

    def __reduce__(self):
        return type(self), (self.arity, self.body, self.domain)

    @classmethod
    def from_text(cls, arity: int, text: str,
                  domain: Sequence[Tuple[float, float]]) -> "Ivf":
        return cls(arity, parse_expr(text), tuple(domain))

    def _as_points(self, x) -> np.ndarray:
        arr = np.asarray(x, dtype=float)
        if arr.ndim < 2:
            arr = arr.reshape(1, -1)
        if arr.shape[1] != self.arity:
            raise ValueError(f"expected points of dimension {self.arity}")
        return arr

    def contains(self, x) -> bool:
        return self._inside(self._as_points(x))

    def _inside(self, arr: np.ndarray) -> bool:
        # a NaN coordinate fails neither comparison, so it counts as inside
        if arr.shape[0] == 1:
            return not any(v < l or v > u for v, (l, u) in zip(arr[0].tolist(), self._edges))
        return not ((arr < self._box[0]).any() or (arr > self._box[1]).any())

    def eval_many(self, xs: np.ndarray,
                  check_domain: bool = True) -> Tuple[np.ndarray, np.ndarray]:
        xs = self._as_points(xs)
        if check_domain and not self._inside(xs):
            raise OutOfDomain("evaluation point outside the domain box")
        return self._lo_hi(xs)

    def _eval_rows(self, rows: Sequence[Tuple[float, ...]]) -> List[Tuple[float, float]]:
        """(lo, hi) at a few points, tuples of floats, unchecked, from the row
        kernel (`expr.compile_row`); if it refuses one, eval_many's for all."""
        if "_row" not in vars(self):  # generated on first use; not a field
            object.__setattr__(self, "_row", compile_row(self.body, self.arity))
        values = [self._row(x) for x in rows]
        if None in values:
            lo, hi = self.eval_many(np.array(rows), check_domain=False)
            return list(zip(lo.tolist(), hi.tolist()))
        return values

    def eval(self, x) -> Interval:
        lo, hi = self.eval_many(x)
        return Interval(float(lo[0]), float(hi[0]))

    def boundary(self, x) -> Tuple[float, float]:
        """Endpoints (f_lo, f_hi) of the interval value at x."""
        value = self.eval(x)
        return value.lo, value.hi

    def grid(self, counts_per_axis=201) -> Grid:
        return Grid.on_domain(self.domain, counts_per_axis)


# --------------------------------------------------------------------------
# gH-derivatives
# --------------------------------------------------------------------------


def _line_sampler(f: Ivf, x: np.ndarray, axis: int) -> Callable:
    """Sampler t -> boundary values of f along x + t*e_axis, unchecked:
    callers check x, and `_deriv_1d_from_sampler` keeps t in the span."""
    def sample(ts: np.ndarray):
        return f.eval_many(x + ts[:, None] * f._units[axis], check_domain=False)
    return sample


def _deriv_1d_from_sampler(sample, t: float, span: Tuple[float, float],
                           scale: float) -> Interval:
    """Differentiate both boundary functions of a 1-d sampler at t.

    Central differences with two Richardson refinements in the interior;
    second-order one-sided stencils (with a warning) at span boundaries.
    Raises when the two one-sided slopes disagree, which signals a kink.
    """
    h0 = _FD_STEP_SCALE * (1.0 + abs(t)) * max(scale, 1.0)
    lo_edge = t - h0 * 1.001 < span[0]
    hi_edge = t + h0 * 1.001 > span[1]
    if lo_edge or hi_edge:
        sgn = 1.0 if lo_edge else -1.0
        # the one-sided stencil reaches t + 2*sgn*h0, past span[1] if both edges are near
        if not span[0] <= t + 2.0 * sgn * h0 <= span[1]:
            raise NonFiniteDerivative("domain too small for the difference stencil")
        warnings.warn("one-sided difference used at a domain boundary",
                      OneSidedDifferenceWarning, stacklevel=3)
        # steps h0 and h0/2 share t and t + sgn*h0, since 2*sgn*(h0/2) == sgn*h0
        h = h0 / 2.0
        lo, hi = sample(np.array([t, t + sgn * h, t + sgn * h0, t + 2.0 * sgn * h0]))
        lo, hi = lo.tolist(), hi.tolist()
        d_lo = _one_sided_richardson(lo, sgn, h0)
        d_hi = _one_sided_richardson(hi, sgn, h0)
    else:
        lo, hi = sample(t + _CENTRAL_OFFSETS * h0)
        lo, hi = lo.tolist(), hi.tolist()
        d_lo = _central_richardson(lo, h0)
        d_hi = _central_richardson(hi, h0)
        _check_no_kink(lo, h0, d_lo, "lower boundary")
        _check_no_kink(hi, h0, d_hi, "upper boundary")
    if not (math.isfinite(d_lo) and math.isfinite(d_hi)):
        raise NonFiniteDerivative("difference quotients diverged")
    return Interval(min(d_lo, d_hi), max(d_lo, d_hi))


def _one_sided_richardson(vals: List[float], sgn: float, h0: float) -> float:
    # vals sampled at offsets (0, sgn*h0/2, sgn*h0, 2*sgn*h0): second-order
    # one-sided quotients at steps h0 and h0/2, then one Richardson step
    h = h0 / 2.0
    d_h0 = sgn * (-3.0 * vals[0] + 4.0 * vals[2] - vals[3]) / (2.0 * h0)
    d_h = sgn * (-3.0 * vals[0] + 4.0 * vals[1] - vals[2]) / (2.0 * h)
    return (4.0 * d_h - d_h0) / 3.0


def _central_richardson(vals: List[float], h: float) -> float:
    # vals sampled at offsets (-h, -h/2, -h/4, 0, h/4, h/2, h)
    d_h = (vals[6] - vals[0]) / (2.0 * h)
    d_h2 = (vals[5] - vals[1]) / h
    d_h4 = (vals[4] - vals[2]) / (0.5 * h)
    r1 = (4.0 * d_h2 - d_h) / 3.0
    r2 = (4.0 * d_h4 - d_h2) / 3.0
    return (16.0 * r2 - r1) / 15.0


def _check_no_kink(vals: List[float], h: float, deriv: float, label: str) -> None:
    # forward minus backward quotient extrapolated to step 0: nonzero limit
    # means the one-sided derivatives differ.
    center = vals[3]
    delta_h = ((vals[6] - center) / h) - ((center - vals[0]) / h)
    delta_h2 = ((vals[5] - center) / (0.5 * h)) - ((center - vals[1]) / (0.5 * h))
    jump = 2.0 * delta_h2 - delta_h
    if abs(jump) > _KINK_REL_TOL * (1.0 + abs(deriv)):
        raise NonFiniteDerivative(
            f"{label} has mismatched one-sided slopes (jump ~ {jump:.3g})")


def gh_derivative_1d(f: Ivf, x: float) -> Interval:
    """gH-derivative of a one-variable function at x."""
    if f.arity != 1:
        raise ValueError("gh_derivative_1d needs a one-variable function")
    if not f.contains([x]):
        raise OutOfDomain(f"{x} is outside the domain")
    sample = _line_sampler(f, np.array([float(x)]), 0)
    return _deriv_1d_from_sampler(lambda ts: sample(ts - x),
                                  float(x), f.domain[0], 1.0)


def partial_gh_derivative(f: Ivf, x, i: int) -> Interval:
    """i-th partial gH-derivative (0-based axis index) at x."""
    x = np.asarray(x, dtype=float).ravel()
    if not f.contains(x):
        raise OutOfDomain(f"{x.tolist()} is outside the domain")
    xi = float(x[i])
    span = (f.domain[i][0] - xi, f.domain[i][1] - xi)
    return _deriv_1d_from_sampler(_line_sampler(f, x, i), 0.0, span, 1.0 + abs(xi))


def gh_gradient(f: Ivf, x) -> IVector:
    """Vector of partial gH-derivatives over all axes: one stencil call
    per axis."""
    return IVector(tuple(partial_gh_derivative(f, x, i) for i in range(f.arity)))


def directional_gh_derivative(f: Ivf, x, h) -> Interval:
    """One-sided directional gH-derivative at x in direction h.

    Estimated with a geometric step refinement plus endpoint-wise linear
    extrapolation; stops when successive extrapolants differ by less than
    the tolerance in the interval norm.
    """
    x = np.asarray(x, dtype=float).ravel()
    h = np.asarray(h, dtype=float).ravel()
    if not f.contains(x):
        raise OutOfDomain(f"{x.tolist()} is outside the domain")
    lam_max = _max_feasible_step(f, x, h)
    if lam_max <= 1e-14:
        raise OutOfDomain("direction leaves the domain immediately")
    f0_lo, f0_hi = f.eval_many(x[None, :])
    lam = min(_DIR_LAMBDA0, 0.5 * lam_max)
    prev_quot = None
    prev_extrap = None
    for _ in range(_DIR_MAX_REFINES):
        lo, hi = f.eval_many(x[None, :] + lam * h[None, :])
        d_lo = lo[0] - f0_lo[0]
        d_hi = hi[0] - f0_hi[0]
        quot = (min(d_lo, d_hi) / lam, max(d_lo, d_hi) / lam)
        if prev_quot is not None:
            extrap = (2.0 * quot[0] - prev_quot[0], 2.0 * quot[1] - prev_quot[1])
            extrap = (min(extrap), max(extrap))
            if prev_extrap is not None:
                drift = max(abs(extrap[0] - prev_extrap[0]),
                            abs(extrap[1] - prev_extrap[1]))
                if drift < _DIR_TOL:
                    return Interval(extrap[0], extrap[1])
            prev_extrap = extrap
        prev_quot = quot
        lam *= _DIR_RATIO
    raise NoConvergence("directional derivative estimate did not settle")


def _max_feasible_step(f: Ivf, x: np.ndarray, h: np.ndarray) -> float:
    lam = math.inf
    for i in range(f.arity):
        if h[i] > 0:
            lam = min(lam, (f.domain[i][1] - x[i]) / h[i])
        elif h[i] < 0:
            lam = min(lam, (f.domain[i][0] - x[i]) / h[i])
    return lam if math.isfinite(lam) else 1.0


# --------------------------------------------------------------------------
# Sampled diagnostics
# --------------------------------------------------------------------------


# Mixture weights of the convexity check, in quarters: the mixture of two
# nodes of a grid is then a node of the grid refined 4x per axis.
_MIX_QUARTERS = (1, 2, 3)

# Pair enumerations walk the upper triangle in blocks of whole rows of at
# most this many entries, so their memory does not grow with the grid.
_PAIR_BLOCK = 1 << 18

# The convexity check's blocks hold at most this many pairs, or the pairs of
# one node; fewer than _PAIR_BLOCK, as it makes more passes over each block.
_MIX_BLOCK = 1 << 16


def _row_blocks(n: int):
    """Cover the pairs i < j of n nodes with row blocks, in np.triu_indices
    order.  Yields slices (rows, cols) of i and j; the block's pairs are
    the entries of the rows x cols rectangle kept by np.triu."""
    rows_per_block = max(1, _PAIR_BLOCK // n)
    for r0 in range(0, n - 1, rows_per_block):
        yield slice(r0, min(r0 + rows_per_block, n - 1)), slice(r0 + 1, n)


def _runs(counts: Tuple[int, ...], budget: int):
    """Split the row-major nodes of a box into consecutive runs of at most
    `budget` nodes, or of one node.  Yields (index, start): the run's index
    into the box (ints, then slices), and the flat index of its first node."""
    unit = math.prod(counts[1:])
    if unit > budget:
        for i in range(counts[0]):
            for index, start in _runs(counts[1:], budget):
                yield (i,) + index, i * unit + start
    else:
        step = budget // unit
        for i in range(0, counts[0], step):
            yield (slice(i, i + step),) + (slice(None),) * (len(counts) - 1), i * unit


def is_convex_sampled(f: Ivf, grid: Grid, tol: float = 1e-10):
    """Sampled convexity check of F(lam*x1 + lam'*x2) against the mixture.

    Every pair of grid nodes is tested at the fixed weights lam = 1/4, 1/2
    and 3/4.  Those mixtures are nodes of the grid refined 4x per axis, so
    F is evaluated once on that lattice.  The mixture of nodes a and b at
    lam = k/4 sits at refined index k*a + (4 - k)*b, so for each k the
    mixture values of all pairs form one strided view of the lattice.
    Returns (True, None) or (False, (x1, x2, lam)) with the first violating
    triple, taking lam in increasing order and pairs in np.triu_indices
    order.  Sampled evidence only, not a proof.
    """
    n, counts = grid.dim, grid.counts
    fine = Grid(grid.lower, grid.upper, tuple(4 * (c - 1) + 1 for c in counts))
    fine_lo, fine_hi = (np.ascontiguousarray(v).reshape(fine.counts)
                        for v in f.eval_many(fine.points()))
    fine_lo.flags.writeable = fine_hi.flags.writeable = False
    lo, hi = (v[(slice(None, None, 4),) * n] for v in (fine_lo, fine_hi))
    # entry (a, b) of the k-th view is the refined value at k*a + (4 - k)*b
    strides = [[k * s for s in fine_lo.strides] + [(4 - k) * s for s in fine_lo.strides]
               for k in _MIX_QUARTERS]
    mixes = [(np.ndarray(counts + counts, float, fine_lo, 0, st),
              np.ndarray(counts + counts, float, fine_hi, 0, st)) for st in strides]
    slab = math.prod(counts[1:])
    witness = [None] * len(_MIX_QUARTERS)
    # a block pairs a run of first nodes with the second nodes from the
    # run's first-axis index i0 on: the upper triangle and a few pairs more
    for first, start in _runs(counts, max(1, _MIX_BLOCK // math.prod(counts))):
        i0 = start // slab
        rows, pairs = first + (None,) * n, first + (slice(i0, None),)
        for m, k in enumerate(_MIX_QUARTERS):
            if witness[m] is not None:
                continue
            lam, lam_p = k / 4, 1.0 - k / 4
            mix_lo, mix_hi = mixes[m]
            bad = ((mix_lo[pairs] > lam * lo[rows] + lam_p * lo[i0:] + tol)
                   | (mix_hi[pairs] > lam * hi[rows] + lam_p * hi[i0:] + tol))
            if bad.any():
                # drop the block's pairs B <= A before picking a witness
                bad = np.triu(bad.reshape(-1, (counts[0] - i0) * slab), 1 + start - i0 * slab)
                if bad.any():
                    a, b = divmod(int(np.argmax(bad)), bad.shape[1])
                    witness[m] = (start + a, i0 * slab + b)
        if witness[0] is not None:
            break
    for k, pair in zip(_MIX_QUARTERS, witness):
        if pair is not None:
            pts = grid.points()
            return False, (pts[pair[0]].tolist(), pts[pair[1]].tolist(), k / 4)
    return True, None


def is_gh_continuous_at(f: Ivf, x, tol: float = 1e-6,
                        radii: Optional[Sequence[float]] = None,
                        n_directions: int = 16) -> bool:
    """Check that the gH-difference norm vanishes along shrinking radii."""
    x = np.asarray(x, dtype=float).ravel()
    if not f.contains(x):
        raise OutOfDomain(f"{x.tolist()} is outside the domain")
    if radii is None:
        radii = [0.1 * 0.5 ** k for k in range(22)]
    if f.arity == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        rng = np.random.default_rng(0)
        raw = rng.normal(size=(n_directions, f.arity))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    f0_lo, f0_hi = f.eval_many(x[None, :])
    tail = []
    for r in radii:
        pts = x[None, :] + r * dirs
        keep = np.ones(pts.shape[0], dtype=bool)
        for i, (l, u) in enumerate(f.domain):
            keep &= (pts[:, i] >= l) & (pts[:, i] <= u)
        if not keep.any():
            continue
        lo, hi = f.eval_many(pts[keep])
        dev = np.maximum(np.abs(lo - f0_lo[0]), np.abs(hi - f0_hi[0]))
        tail.append(float(dev.max()))
    return len(tail) >= 2 and max(tail[-2:]) < tol


def lipschitz_estimate(f: Ivf, grid: Grid) -> float:
    """Max over grid pairs of the gH-difference norm over the point distance.

    A lower bound on the true Lipschitz constant.
    """
    pts = grid.points()
    return _lipschitz_max(pts, *f.eval_many(pts))


def _lipschitz_max(pts: np.ndarray, lo: np.ndarray, hi: np.ndarray) -> float:
    """Max over pairs of samples of the gH-difference norm over the distance."""
    block_max = []
    for i, j in _row_blocks(pts.shape[0]):
        # in-place arithmetic keeps few block-sized arrays alive at once
        num = np.abs(lo[i, None] - lo[None, j])
        np.maximum(num, np.abs(hi[i, None] - hi[None, j]), out=num)
        den = np.zeros(num.shape)
        for d in range(pts.shape[1]):
            diff = pts[i, None, d] - pts[None, j, d]
            den += diff * diff
        np.sqrt(den, out=den)
        # below np.triu the block repeats pairs (j, i) with j < i, whose
        # quotient is the same; only the entries with j == i are no pair
        k = np.arange(1, den.shape[0])
        den[k, k - 1] = 1.0
        block_max.append(np.max(np.divide(num, den, out=num)))
    return float(np.max(block_max))
