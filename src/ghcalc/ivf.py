"""Interval-valued functions on compact box domains.

Wraps an expression tree with an arity and a domain box, and provides the
calculus used throughout: boundary extraction, gH-derivatives
(one-dimensional, partial, gradient, directional) and sampled diagnostics
for convexity, continuity and Lipschitz behaviour.

The derivatives are exact up to rounding: one forward walk of the tree,
compiled once per function (`expr.compile_tangents`), gives the one-sided
derivatives of both boundary functions, and [min, max] of the two is the
gH-directional derivative.
Where the slopes along e_i and -e_i disagree, there is no gH-derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property
from typing import List, Sequence, Tuple

import numpy as np

from .errors import LengthMismatch, NonFiniteDerivative, OutOfDomain
from .expr import Expr, compile_lo_hi, compile_tangents, convexity, parse_expr, separable
from .interval import Interval
from .ivector import IVector

_DOMAIN_TOL = 1e-9


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
    def on_domain(cls, domain: Sequence[Tuple[float, float]], count: int) -> "Grid":
        lower = tuple(float(l) for l, _ in domain)
        upper = tuple(float(u) for _, u in domain)
        return cls(lower, upper, (count,) * len(domain))


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

    def eval_many(self, xs) -> Tuple[np.ndarray, np.ndarray]:
        """(f_lo, f_hi) at the points, rows of an array, or at the nodes of a
        Grid in row-major order, the floats of its `points()` but read from
        its axes, each along its own dimension, without building that
        array; OutOfDomain if one leaves an axis [l, u] of the box by more
        than _DOMAIN_TOL*(1 + |l| + |u|)."""
        if isinstance(xs, Grid):
            if xs.dim != self.arity:
                raise ValueError(f"expected points of dimension {self.arity}")
            axes = xs.axes()
            if any((a < l).any() or (a > u).any() for a, (l, u) in zip(axes, self._edges)):
                raise OutOfDomain("evaluation point outside the domain box")
            cols = [a.reshape([-1 if j == i else 1 for j in range(xs.dim)])
                    for i, a in enumerate(axes)]
            return tuple(v.reshape(-1) for v in self._lo_hi(cols, xs.counts))
        xs = self._as_points(xs)
        if not self._inside(xs):
            raise OutOfDomain("evaluation point outside the domain box")
        return self._lo_hi([xs[:, i] for i in range(self.arity)], xs.shape[:1])

    # Each of these is built on first use and kept, not as a field.
    @cached_property
    def _lo_hi(self):
        """The array closures of `expr.compile_lo_hi`."""
        return compile_lo_hi(self.body)

    @cached_property
    def _tangents(self):
        """The walker of `expr.compile_tangents`."""
        return compile_tangents(self.body)

    @cached_property
    def _proved_convex(self) -> bool:
        """Whether `expr.convexity` proves both endpoint functions convex over
        the domain."""
        return convexity(self.body, self.domain).convex

    @cached_property
    def _exact_slopes(self) -> bool:
        """Whether one walk's slopes give F's exact subdifferential: F is
        proved convex, and of one variable or separable (`expr.reads`)."""
        return self._proved_convex and (self.arity == 1 or separable(self.body))

    def eval(self, x) -> Interval:
        lo, hi = self.eval_many(x)
        return Interval(float(lo[0]), float(hi[0]))

    def boundary(self, x) -> Tuple[float, float]:
        """Endpoints (f_lo, f_hi) of the interval value at x."""
        value = self.eval(x)
        return value.lo, value.hi

    def grid(self, count: int = 201) -> Grid:
        return Grid.on_domain(self.domain, count)


# --------------------------------------------------------------------------
# gH-derivatives
# --------------------------------------------------------------------------


def _point(f: Ivf, x) -> List[float]:
    """x as floats; OutOfDomain unless it is finite and in f's domain up to
    _DOMAIN_TOL (ValueError for a finite x of another length).  Every
    derivative and verdict at a point checks it here."""
    x = np.asarray(x, dtype=float).ravel()
    if not (np.isfinite(x).all() and f.contains(x)):
        raise OutOfDomain(f"{x.tolist()} is outside the domain")
    return x.tolist()


def _walk(f: Ivf, x: List[float], dirs: List[List[float]]):
    """(lo, hi, dlo, dhi) at x from one walk of the compiled tree, all finite.
    Where it refuses, eval_many at x raises, or else NonFiniteDerivative."""
    walk = f._tangents(x, dirs)
    if walk is None or not all(map(math.isfinite, [*walk[:2], *walk[2], *walk[3]])):
        f.eval_many([x])
        raise NonFiniteDerivative(f"no finite one-sided derivative at {x}")
    return walk


def _walk_sides(f: Ivf, x: List[float], axes: Sequence[int]):
    """One walk along each e_i and -e_i of the axes that points into the box:
    the sides (i, s) walked, +e_i before -e_i, and `_walk`'s (lo, hi, dlo, dhi)."""
    sides = [(i, s) for i in axes for s in (1.0, -1.0)
             if (x[i] < f.domain[i][1] if s > 0.0 else x[i] > f.domain[i][0])]
    return sides, _walk(f, x, [[s if j == i else 0.0 for j in range(f.arity)] for i, s in sides])


def _partials(f: Ivf, x: List[float], axes: Sequence[int]) -> List[Interval]:
    """Partial gH-derivatives at x along the axes, from one walk.  Inside
    the box the one along e_i exists iff D(e_i) == -D(-e_i), compared
    exactly: away from ties every tangent rule is odd in h, bit for bit.  At
    a bound, the one-sided slope into the box is the derivative."""
    if any(f.domain[i][0] == f.domain[i][1] for i in axes):
        raise NonFiniteDerivative("no gH-derivative along an axis of zero width")
    sides, (_, _, dlo, dhi) = _walk_sides(f, x, axes)
    grad = {}  # per axis, the first slope: from the right unless x is at the upper bound
    for (i, s), a, b in zip(sides, dlo, dhi):
        lo, hi = min(a, b), max(a, b)
        d = Interval(lo, hi) if s > 0.0 else Interval(0.0 - hi, 0.0 - lo)  # -D(-e_i), without -0.0
        if grad.setdefault(i, d) != d:
            raise NonFiniteDerivative(f"mismatched one-sided slopes along x{i + 1}: "
                                      f"{d} from the left, {grad[i]} from the right")
    return [grad[i] for i in axes]


def gh_derivative_1d(f: Ivf, x: float) -> Interval:
    """gH-derivative of a one-variable function at x."""
    if f.arity != 1:
        raise ValueError("gh_derivative_1d needs a one-variable function")
    return _partials(f, _point(f, [x]), [0])[0]


def partial_gh_derivative(f: Ivf, x, i: int) -> Interval:
    """i-th partial gH-derivative (0-based axis index) at x."""
    if i not in range(f.arity):
        raise ValueError(f"axis {i} is not one of the {f.arity} axes")
    return _partials(f, _point(f, x), [i])[0]


def gh_gradient(f: Ivf, x) -> IVector:
    """Partial gH-derivatives over all axes, from one walk along the +-e_i."""
    return IVector(tuple(_partials(f, _point(f, x), range(f.arity))))


def directional_gh_derivative(f: Ivf, x, h) -> Interval:
    """One-sided directional gH-derivative at x in direction h, which must
    point into the box: D(h) from one walk of the tree."""
    x = _point(f, x)
    h = np.asarray(h, dtype=float).ravel().tolist()
    if len(h) != f.arity:
        raise LengthMismatch(f"expected a direction of length {f.arity}, got {len(h)}")
    if not all(map(math.isfinite, h)):
        raise ValueError(f"direction must be finite, got {h}")
    if any(t > 0.0 and v >= u or t < 0.0 and v <= l for v, t, (l, u) in zip(x, h, f.domain)):
        raise OutOfDomain("direction leaves the domain immediately")
    _, _, (a,), (b,) = _walk(f, x, [h])
    return Interval(min(a, b), max(a, b))


# --------------------------------------------------------------------------
# Sampled diagnostics
# --------------------------------------------------------------------------


# Mixture weights of the convexity check, in quarters: the mixture of two
# nodes of a grid is then a node of the grid refined 4x per axis.
_MIX_QUARTERS = (1, 2, 3)

# The Lipschitz quotient's blocks hold at most this many pairs, or the
# pairs of one node, so its memory does not grow with the grid.
_PAIR_BLOCK = 1 << 18

# The convexity check's blocks hold at most this many pairs, or the pairs of
# one node; fewer than _PAIR_BLOCK, as it makes more passes over each block.
_MIX_BLOCK = 1 << 16


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


def is_convex_sampled(f: Ivf, grid: Grid):
    """Sampled convexity check of F(lam*x1 + lam'*x2) against the mixture.

    Every pair of grid nodes is tested at the fixed weights lam = 1/4, 1/2
    and 3/4.  Those mixtures are nodes of the grid refined 4x per axis, so
    F is evaluated once on that lattice.  The mixture of nodes a and b at
    lam = k/4 sits at refined index k*a + (4 - k)*b, so for each k the
    mixture values of all pairs form one strided view of the lattice.
    Returns (True, None) or (False, (x1, x2, lam)) with the first triple
    whose F exceeds the mixture by more than 1e-10, taking lam in increasing
    order and pairs in np.triu_indices order.  Sampled evidence only.
    """
    n, counts = grid.dim, grid.counts
    fine = Grid(grid.lower, grid.upper, tuple(4 * (c - 1) + 1 for c in counts))
    fine_lo, fine_hi = (np.ascontiguousarray(v).reshape(fine.counts)
                        for v in f.eval_many(fine))
    fine_lo.flags.writeable = fine_hi.flags.writeable = False
    lo, hi = (v[(slice(None, None, 4),) * n] for v in (fine_lo, fine_hi))
    slab = math.prod(counts[1:])
    for k in _MIX_QUARTERS:
        lam, lam_p = k / 4, 1.0 - k / 4
        # entry (a, b) of the view is the refined value at k*a + (4 - k)*b
        strides = [k * s for s in fine_lo.strides] + [(4 - k) * s for s in fine_lo.strides]
        mix_lo, mix_hi = (np.ndarray(counts + counts, float, v, 0, strides)
                          for v in (fine_lo, fine_hi))
        # a block pairs a run of first nodes with the second nodes from the
        # run's first-axis index i0 on: the upper triangle and a few pairs more
        for first, start in _runs(counts, max(1, _MIX_BLOCK // math.prod(counts))):
            i0 = start // slab
            rows, pairs = first + (None,) * n, first + (slice(i0, None),)
            bad = ((mix_lo[pairs] > lam * lo[rows] + lam_p * lo[i0:] + 1e-10)
                   | (mix_hi[pairs] > lam * hi[rows] + lam_p * hi[i0:] + 1e-10))
            # drop the block's pairs B <= A before picking a witness
            if bad.any() and (bad := np.triu(bad.reshape(-1, (counts[0] - i0) * slab),
                                             1 + start - i0 * slab)).any():
                a, b = divmod(int(np.argmax(bad)), bad.shape[1])
                x1, x2 = (_node(grid.axes(), i) for i in (start + a, i0 * slab + b))
                return False, (x1, x2, lam)
    return True, None


def _node(axes: Sequence[np.ndarray], k: int) -> List[float]:
    """Node k, in row-major order, of the grid with these axes: row k of
    its point array, as floats."""
    index = np.unravel_index(k, tuple(len(a) for a in axes))
    return [float(a[i]) for a, i in zip(axes, index)]


def is_gh_continuous_at(f: Ivf, x) -> bool:
    """Check that the gH-difference norm to F(x) vanishes near x.

    F is sampled at x + r*d for r = 0.1*0.5**k, k < 22, and d = +-1 in one
    variable or 16 fixed pseudorandom unit vectors, dropping samples off
    the domain.  The largest norm must be below 1e-6 at the two least r
    that keep a sample."""
    x = np.array(_point(f, x))
    if f.arity == 1:
        dirs = np.array([[1.0], [-1.0]])
    else:
        raw = np.random.default_rng(0).normal(size=(16, f.arity))
        dirs = raw / np.linalg.norm(raw, axis=1, keepdims=True)
    f0_lo, f0_hi = f.eval_many(x[None, :])
    tail = []
    for k in range(22):
        pts = x[None, :] + 0.1 * 0.5 ** k * dirs
        keep = np.ones(pts.shape[0], dtype=bool)
        for i, (l, u) in enumerate(f.domain):
            keep &= (pts[:, i] >= l) & (pts[:, i] <= u)
        if not keep.any():
            continue
        lo, hi = f.eval_many(pts[keep])
        dev = np.maximum(np.abs(lo - f0_lo[0]), np.abs(hi - f0_hi[0]))
        tail.append(float(dev.max()))
    return len(tail) >= 2 and max(tail[-2:]) < 1e-6


def lipschitz_estimate(f: Ivf, grid: Grid) -> float:
    """Max over grid pairs of the gH-difference norm over the point distance.

    A lower bound on the true Lipschitz constant.
    """
    return _lipschitz_max(grid.axes(), *f.eval_many(grid))


def _lipschitz_max(axes: Sequence[np.ndarray], lo: np.ndarray, hi: np.ndarray) -> float:
    """Max over pairs of nodes of the grid with these axes of the
    gH-difference norm over the distance (0 if no pairs); lo and hi are F
    at the nodes in row-major order.  A squared distance sums, in axis
    order, entries of per-axis tables of squared coordinate differences.
    The pairs go in blocks that pair a run of nodes with every node from
    the run's index on axis 0 on, so a block's distances are sums of table
    slices, broadcast; a block also pairs some nodes both ways, which gives
    the same quotient, and each node with itself, which is no pair."""
    counts = tuple(len(a) for a in axes)
    size, n, slab = math.prod(counts), len(counts), math.prod(counts[1:])
    if size < 2:
        return 0.0
    tables = [(d := a[:, None] - a[None, :]) * d for a in axes]
    # every block writes into the same three buffers
    num_buf, diff_buf, den_buf = np.empty((3, min(size * size, max(_PAIR_BLOCK, size))))
    block_max = []
    for first, start in _runs(counts, max(1, _PAIR_BLOCK // size)):
        i0 = start // slab
        parts = []  # axis d's table slice, along dimension d for the run, n + d for the rest
        for d, (table, run) in enumerate(zip(tables, first)):
            run = slice(run, run + 1) if isinstance(run, int) else run
            part = table[run, (i0 if d == 0 else 0):]
            dims = [1] * (2 * n)
            dims[d], dims[n + d] = part.shape
            parts.append(part.reshape(dims))
        shape = np.broadcast_shapes(*(part.shape for part in parts))
        block = math.prod(shape)
        den = den_buf[:block].reshape(shape)
        np.copyto(den, parts[0])
        for part in parts[1:]:
            np.add(den, part, out=den)
        den = den.reshape(-1, (counts[0] - i0) * slab)
        rows, cols = slice(start, start + den.shape[0]), slice(i0 * slab, None)
        num, diff = num_buf[:block].reshape(den.shape), diff_buf[:block].reshape(den.shape)
        np.abs(np.subtract(lo[rows, None], lo[None, cols], out=num), out=num)
        np.abs(np.subtract(hi[rows, None], hi[None, cols], out=diff), out=diff)
        np.maximum(num, diff, out=num)
        np.sqrt(den, out=den)
        k = np.arange(den.shape[0])
        den[k, start - i0 * slab + k] = 1.0  # each node with itself
        block_max.append(np.max(np.divide(num, den, out=num)))
    return float(np.max(block_max))
