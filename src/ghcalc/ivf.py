"""Interval-valued functions on compact box domains.

Wraps an expression tree with an arity and a domain box, and provides the
calculus used throughout: boundary extraction, gH-derivatives
(one-dimensional, partial, gradient, directional) and sampled diagnostics
for convexity, continuity and Lipschitz behaviour.

The derivatives are exact up to rounding: one forward walk of the tree
(`expr.tangents`) gives the one-sided derivatives of both boundary
functions, and [min, max] of the two is the gH-directional derivative.
Where the slopes along e_i and -e_i disagree, there is no gH-derivative.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Optional, Sequence, Tuple

import numpy as np

from .errors import LengthMismatch, NonFiniteDerivative, OutOfDomain
from .expr import Expr, compile_lo_hi, compile_row, parse_expr, tangents
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


def _point(f: Ivf, x) -> List[float]:
    """x as floats; OutOfDomain unless it is finite and in f's domain."""
    x = np.asarray(x, dtype=float).ravel()
    if not (np.isfinite(x).all() and f.contains(x)):
        raise OutOfDomain(f"{x.tolist()} is outside the domain")
    return x.tolist()


def _slopes(f: Ivf, x: List[float], dirs: List[List[float]]) -> List[Interval]:
    """D(h) = [min(dlo, dhi), max(dlo, dhi)] for each h in dirs, from one walk.
    Where it refuses, eval_many at x raises, or else NonFiniteDerivative."""
    walk = tangents(f.body, x, dirs)
    if walk is None or not all(map(math.isfinite, [*walk[:2], *walk[2], *walk[3]])):
        f.eval_many([x])
        raise NonFiniteDerivative(f"no finite one-sided derivative at {x}")
    return [Interval(min(a, b), max(a, b)) for a, b in zip(walk[2], walk[3])]


def _partials(f: Ivf, x: List[float], axes: Sequence[int]) -> List[Interval]:
    """Partial gH-derivatives at x along the axes, from one walk.  Inside
    the box the one along e_i exists iff D(e_i) == -D(-e_i), compared
    exactly: away from ties every tangent rule is odd in h, bit for bit.  At
    a bound, the one-sided slope into the box is the derivative."""
    if any(f.domain[i][0] == f.domain[i][1] for i in axes):
        raise NonFiniteDerivative("no gH-derivative along an axis of zero width")
    # +e_i unless x is at the upper bound, -e_i unless it is at the lower one
    sides = [(i, s) for i in axes for s in (1.0, -1.0)
             if (x[i] < f.domain[i][1] if s > 0.0 else x[i] > f.domain[i][0])]
    units = [[s if j == i else 0.0 for j in range(f.arity)] for i, s in sides]
    grad = {}  # per axis, the first slope: from the right unless x is at the upper bound
    for (i, s), d in zip(sides, _slopes(f, x, units)):
        d = d if s > 0.0 else Interval(0.0 - d.hi, 0.0 - d.lo)  # -D(-e_i), without -0.0
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
    return _slopes(f, x, [h])[0]


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
    x = np.array(_point(f, x))
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
