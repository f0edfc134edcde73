"""Seeded inputs, the queries made from them, and the oracles that check them.

Every seeded objective is a separable sum

    sum_i [a_i,b_i]*abs(x_i - c_i) + [al_i,be_i]*pow2(x_i - e_i) + [u,v]

with 0 <= a_i <= b_i and 0 <= al_i <= be_i.  Both boundary functions are
then convex sums of closed forms, so every objective is LU-convex and
`Iop()` accepts it.  ghcalc only ever receives the generated text, domains,
points and candidates; the oracles compare its answers with the closed
forms and with the benchmark's own algorithms, never with ghcalc itself.

A workload is a deck of queries.  One pass runs every query of the deck
once, in order, and the measuring loop runs whole passes, so every run sees
the same mix of query kinds.  The decks hold only queries that succeed
today, so that every end-to-end metric measures work that was done; the
known failures are kept as `defects`, attempted and reported on every run.
"""

from __future__ import annotations

import io
import math
import os
import re
import resource
import subprocess
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Dict, List, Optional, Sequence, Tuple

import numpy as np

ROOT = Path(__file__).resolve().parent.parent
PROBLEMS = ROOT / "problems"

GRID_1D = 201            # samples per axis of every 1-D verdict
SCAN_STEPS = 121         # cells per parameter axis of a 1-D region scan
N_KINK = 4               # seeded 1-D objectives per verdicts_1d pass
WARMUP_SEED = 0          # warm-up inputs are the same for every --seed
MARGIN = 0.1             # distance of a drawn candidate from the region boundary
DESCENT_TOL = 0.05       # radius the canned vee self-test also uses
EFFICIENT_2D = 81        # samples per axis of the in-process 2-D efficiency grid
LIPSCHITZ_2D = 31        # samples per axis of the all-pairs Lipschitz estimate
SUBGRAD_2D = 101         # samples per axis of the 2-D subgradient checks
SUBGRAD_3D = 41          # samples per axis of the 3-D subgradient checks
CONVEXITY_3D = 11        # Iop(convexity_samples=...) for the 3-D objective
DESCENT_ND = {2: 41, 3: 11}   # grids of the n-D descent defect probes
CLI_EFFICIENT_2D = 61    # --grid of the measured 2-D `efficient` call
CLI_TIMEOUT_S = 60.0
# Address-space cap of every CLI child.  A ghcalc child idles at ~140 MB of
# address space; the N x N efficiency matrices at the CLI default grid of
# 201^2 would need ~8 GB.
CLI_AS_LIMIT = 1 << 30


@dataclass
class Query:
    """One timed call into ghcalc and the oracle for its result."""

    kind: str
    run: Callable[[], object]
    check: Callable[[object], bool]


@dataclass
class Workload:
    deck: List[Query]
    warmup: List[Query]
    defects: List[Query]


# --------------------------------------------------------------------------
# Objectives with closed forms
# --------------------------------------------------------------------------


def _r(x: float) -> float:
    return round(float(x), 4)


def _affine(var: str, c: float) -> str:
    return f"{var} - {c!r}" if c >= 0 else f"{var} + {-c!r}"


@dataclass(frozen=True)
class Separable:
    """sum_i [a_i,b_i]*abs(x_i - c_i) + [al_i,be_i]*pow2(x_i - e_i) + [u,v]."""

    a: Tuple[float, ...]
    b: Tuple[float, ...]
    al: Tuple[float, ...]
    be: Tuple[float, ...]
    c: Tuple[float, ...]
    e: Tuple[float, ...]
    u: float
    v: float
    domain: Tuple[Tuple[float, float], ...]

    @property
    def arity(self) -> int:
        return len(self.a)

    def text(self) -> str:
        terms = []
        for i in range(self.arity):
            x = f"x{i + 1}"
            terms.append(f"[{self.a[i]!r},{self.b[i]!r}]*abs({_affine(x, self.c[i])})")
            terms.append(f"[{self.al[i]!r},{self.be[i]!r}]*pow2({_affine(x, self.e[i])})")
        terms.append(f"[{self.u!r},{self.v!r}]")
        return " + ".join(terms)

    def lo_hi(self, pts) -> Tuple[np.ndarray, np.ndarray]:
        pts = np.atleast_2d(np.asarray(pts, dtype=float))
        lo = np.full(pts.shape[0], self.u)
        hi = np.full(pts.shape[0], self.v)
        for i in range(self.arity):
            kink = np.abs(pts[:, i] - self.c[i])
            square = (pts[:, i] - self.e[i]) ** 2
            lo += self.a[i] * kink + self.al[i] * square
            hi += self.b[i] * kink + self.be[i] * square
        return lo, hi

    def prob_text(self, base_point: Sequence[float] = ()) -> str:
        lines = [f"arity={self.arity}"]
        lines += [f"domain=[{lo!r},{hi!r}]" for lo, hi in self.domain]
        lines.append(f"objective={self.text()}")
        if base_point:
            lines.append("base_point=" + ",".join(repr(float(x)) for x in base_point))
        return "\n".join(lines) + "\n"


ABS_SLAB = Separable((1.0,), (3.0,), (0.0,), (0.0,), (0.0,), (0.0,), 0.0, 0.0,
                     ((-2.0, 2.0),))


def kink_1d(rng) -> Separable:
    """[a,b]*abs(x1 - c) + [al,be]*pow2(x1 - c) + [u,v], domain around c.

    Its subdifferential at c is the box -b <= g_lo <= a, -a <= g_hi <= b
    cut by g_lo <= g_hi; sampling on a grid of step h widens each bound by
    at most be*h.
    """
    a = _r(rng.uniform(0.5, 1.5))
    b = _r(a + rng.uniform(0.0, 2.0))
    al = _r(rng.uniform(0.0, 0.5))
    be = _r(al + rng.uniform(0.0, 0.5))
    u = _r(rng.uniform(-3.0, 3.0))
    v = _r(u + rng.uniform(0.0, 2.0))
    c = _r(rng.uniform(-1.0, 1.0))
    domain = ((_r(c - rng.uniform(1.5, 2.5)), _r(c + rng.uniform(1.5, 2.5))),)
    return Separable((a,), (b,), (al,), (be,), (c,), (c,), u, v, domain)


def valley_1d(rng) -> Tuple[Separable, float]:
    """A kink at c and a stronger quadratic centred at e, |e - c| >= 0.8.

    (f_lo + f_hi)/2 = A|x - c| + B(x - e)^2 with A = (a+b)/2 <= 0.9 and
    B = (al+be)/2 >= 1, so its minimizer x* = e - sign(e - c) A/(2B) is
    smooth and at least 0.35 from the kink.  The scalarized descent
    (w = 1/2) heads for x* and never lands on the kink, so it always runs
    its 600 iterations.  Returns the objective and x*.
    """
    a = _r(rng.uniform(0.2, 0.6))
    b = _r(a + rng.uniform(0.0, 0.6))
    al = _r(rng.uniform(1.0, 2.0))
    be = _r(al + rng.uniform(0.0, 1.0))
    u = _r(rng.uniform(-3.0, 3.0))
    v = _r(u + rng.uniform(0.0, 2.0))
    c = _r(rng.uniform(-1.0, 1.0))
    e = _r(c + rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.2))
    domain = ((_r(min(c, e) - 1.5), _r(max(c, e) + 1.5)),)
    minimizer = e - math.copysign((a + b) / (al + be) / 2.0, e - c)
    return Separable((a,), (b,), (al,), (be,), (c,), (e,), u, v, domain), minimizer


def separable_nd(rng, n: int, node_grid: Optional[int] = None) -> Separable:
    """n-variable objective on [-1,1]^n.

    With `node_grid`, every kink centre c_i is a node of that grid and the
    quadratic terms share the centre, so the subdifferential at c is the
    product of the 1-D boxes of kink_1d.  Without it the quadratic centres
    are offset, so lower and upper boundary minimizers differ and the
    efficient set is a curve rather than a point.
    """
    a, b, al, be, c, e = [], [], [], [], [], []
    for _ in range(n):
        a.append(_r(rng.uniform(0.3, 1.0)))
        b.append(_r(a[-1] + rng.uniform(0.0, 1.0)))
        al.append(_r(rng.uniform(0.2, 1.0)))
        be.append(_r(al[-1] + rng.uniform(0.0, 1.0)))
        if node_grid is not None:
            nodes = np.linspace(-1.0, 1.0, node_grid)
            c.append(float(nodes[rng.integers(node_grid // 4, 3 * node_grid // 4)]))
            e.append(c[-1])
        else:
            c.append(_r(rng.uniform(-0.6, 0.6)))
            e.append(_r(np.clip(c[-1] + rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 0.8),
                                -1.0, 1.0)))
    u = _r(rng.uniform(-3.0, 3.0))
    v = _r(u + rng.uniform(0.0, 2.0))
    return Separable(tuple(a), tuple(b), tuple(al), tuple(be), tuple(c), tuple(e),
                     u, v, ((-1.0, 1.0),) * n)


def _inside_candidate(rng, obj: Separable) -> List[Tuple[float, float]]:
    """(g_lo, g_hi) per axis, MARGIN inside the subdifferential at c."""
    comps = []
    for i in range(obj.arity):
        p = rng.uniform(-obj.b[i] + MARGIN, obj.a[i] - MARGIN)
        q = rng.uniform(max(p, -obj.a[i] + MARGIN), obj.b[i] - MARGIN)
        comps.append((p, q))
    return comps


def _outside_candidate(rng, obj: Separable, h: Sequence[float]) -> List[Tuple[float, float]]:
    """Like _inside_candidate, but one axis breaks one bound of its box by
    more than the sampling slack be*h, so the verdict is NO on any grid."""
    comps = _inside_candidate(rng, obj)
    i = int(rng.integers(obj.arity))
    a, b, miss = obj.a[i], obj.b[i], obj.be[i] * h[i] + MARGIN
    p, q = comps[i]
    side = int(rng.integers(4))
    if side == 0:
        p = a + miss
        q = max(q, p)
    elif side == 1:
        q = b + miss
    elif side == 2:
        p = -b - miss
    else:
        q = -a - miss
        p = min(p, q)
    comps[i] = (p, q)
    return comps


# --------------------------------------------------------------------------
# Oracles
# --------------------------------------------------------------------------


def pareto_flags(lo: np.ndarray, hi: np.ndarray) -> np.ndarray:
    """Points no other point strictly dominates, by sort and sweep.

    j strictly dominates i when lo_j <= lo_i and hi_j <= hi_i with one of
    them strict.  After sorting by (lo, hi), i is dominated exactly when a
    point with smaller lo has hi <= hi_i, or a point with equal lo has a
    smaller hi.
    """
    order = np.lexsort((hi, lo))
    slo, shi = lo[order], hi[order]
    starts = np.r_[True, slo[1:] != slo[:-1]]
    group = np.cumsum(starts) - 1
    group_min = shi[starts][group]
    prefix_min = np.minimum.accumulate(shi)
    before = np.r_[np.inf, prefix_min[:-1]][starts][group]
    dominated = (before <= shi) | (group_min < shi)
    flags = np.empty(lo.shape[0], dtype=bool)
    flags[order] = ~dominated
    return flags


def _close(x, y, tol: float = 1e-9) -> bool:
    return bool(np.allclose(x, y, rtol=tol, atol=tol))


def check_efficiency(points, f_lo, f_hi, flags, closed_form) -> bool:
    """Values match the closed form; flags match the benchmark's own filter."""
    lo, hi = closed_form(points)
    return (_close(f_lo, lo) and _close(f_hi, hi)
            and np.array_equal(np.asarray(flags, dtype=bool), pareto_flags(f_lo, f_hi)))


def check_region(p_vals, q_vals, bitmap, obj: Separable, h: float) -> bool:
    """A 1-D region scan at the kink c against the box of kink_1d.

    Cells inside the exact box must be marked; cells farther outside than
    the sampling slack must not be; cells in between may go either way.
    """
    a, b, slack = obj.a[0], obj.b[0], obj.be[0] * h + 1e-6
    p = np.asarray(p_vals)[:, None]
    q = np.asarray(q_vals)[None, :]
    eps = 1e-9
    inside = ((p >= -b + eps) & (p <= a - eps) & (q >= -a + eps) & (q <= b - eps)
              & (p <= q - eps))
    outside = ((p < -b - slack) | (p > a + slack) | (q < -a - slack) | (q > b + slack)
               | (p > q + eps))
    return bool(bitmap[inside].all() and not bitmap[outside].any())


def lipschitz_exact(obj: Separable, pts: np.ndarray) -> float:
    """max over point pairs of max(|d lo|, |d hi|) / |d x|, row by row."""
    lo, hi = obj.lo_hi(pts)
    best = 0.0
    for i in range(len(pts) - 1):
        num = np.maximum(np.abs(lo[i + 1:] - lo[i]), np.abs(hi[i + 1:] - hi[i]))
        den = np.linalg.norm(pts[i + 1:] - pts[i], axis=1)
        best = max(best, float(np.max(num / den)))
    return best


def descent_ok(x, flagged, closed_form, pts: np.ndarray, step: float,
               target: Optional[Sequence[float]] = None) -> bool:
    """Check a descent's end point and its efficiency flag.

    The flag must be the benchmark's own verdict for the grid node nearest
    to x.  The point must lie within DESCENT_TOL of `target`, the known
    minimizer, or, without one, within two grid steps of a node the
    benchmark's filter keeps.
    """
    x = np.asarray(x, dtype=float)
    lo, hi = closed_form(pts)
    keep = pareto_flags(lo, hi)
    dist = np.linalg.norm(pts - x[None, :], axis=1)
    if bool(flagged) != bool(keep[int(np.argmin(dist))]):
        return False
    if target is not None:
        return float(np.max(np.abs(x - np.asarray(target)))) <= DESCENT_TOL
    return bool(dist[keep].min() <= 2.0 * step + 1e-9)


def vee_lo_hi(pts):
    """The canned flat-bottom vee: [|x-2| - 2, max(5, 3 + 2|x-2|)]."""
    d = np.abs(np.asarray(pts)[:, 0] - 2.0)
    return d - 2.0, np.maximum(5.0, 3.0 + 2.0 * d)


def grid_points(domain, samples: int) -> np.ndarray:
    """Grid nodes in the row-major order ghcalc's Grid.points uses."""
    axes = [np.linspace(lo, hi, samples) for lo, hi in domain]
    return np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)


# --------------------------------------------------------------------------
# verdicts_1d: many small calls on 1-D grids of 201 points
# --------------------------------------------------------------------------


def _on_fresh(text: str, domain, samples: int, arity: int, call):
    """A timed call that parses the objective text first, as a user would."""
    from ghcalc.ivf import Ivf

    def run():
        f = Ivf.from_text(arity, text, domain)
        return call(f, f.grid(samples))
    return run


def _kink_queries(rng, obj: Separable, gh) -> List[Query]:
    c = obj.c[0]
    lo_dom, hi_dom = obj.domain[0]
    h = (hi_dom - lo_dom) / (GRID_1D - 1)
    a, b, be = obj.a[0], obj.b[0], obj.be[0]

    def on_f(call):
        return _on_fresh(obj.text(), obj.domain, GRID_1D, 1, call)

    def cand(comps):
        return gh.SubgradientCandidate(gh.IVector.of(*(gh.Interval(p, q) for p, q in comps)), (c,))

    yes = cand(_inside_candidate(rng, obj))
    no = cand(_outside_candidate(rng, obj, (h,)))
    bounds = ((-b - 1.0, a + 1.0), (-a - 1.0, b + 1.0))
    cell = max(hi - lo for lo, hi in bounds) / (SCAN_STEPS - 1)
    max_tol = cell + be * h + 1e-6
    off = _r(c + rng.choice((-1.0, 1.0)) * rng.uniform(0.3, 1.0))
    # Every sampled bound is a difference quotient of f_lo or f_hi, so the
    # probe's sup lies between the largest interior slope and the largest
    # slope on the whole domain.
    xs = np.linspace(lo_dom, hi_dom, GRID_1D)[1:-1]
    slope_interior = b + 2.0 * be * float(np.max(np.abs(xs - c)))
    slope_domain = b + 2.0 * be * max(c - lo_dom, hi_dom - c)

    def scan(f, grid):
        return gh.subgrad.subdiff_scan_1d(f, c, bounds, SCAN_STEPS, grid)

    def directional(sign):
        def check(res):
            maximum, match = res
            return (bool(match) and abs(maximum.lo - a) <= max_tol
                    and abs(maximum.hi - b) <= max_tol)
        return Query("directional_max_check",
                     on_f(lambda f, g: gh.subgrad.directional_max_check(
                         f, c, sign, scan(f, g), tol=max_tol)),
                     check)

    def optimality(x, expected):
        return Query("optimality_zero_condition",
                     on_f(lambda f, g: gh.iop.optimality_zero_condition(gh.iop.Iop(f), [x], g)),
                     lambda ok: ok is expected)

    return [
        Query("is_subgradient", on_f(lambda f, g: gh.subgrad.is_subgradient(f, yes, g)),
              lambda r: r[0] is True),
        Query("is_subgradient", on_f(lambda f, g: gh.subgrad.is_subgradient(f, no, g)),
              lambda r: r[0] is False),
        Query("subdiff_scan_1d", on_f(scan),
              lambda reg: check_region(reg.g_lo_values, reg.g_hi_values, reg.bitmap, obj, h)),
        directional(1.0),
        directional(-1.0),
        optimality(c, True),
        optimality(off, False),
        Query("union_boundedness_probe", on_f(gh.subgrad.union_boundedness_probe),
              lambda sup: slope_interior - 1e-9 <= sup <= slope_domain + 1e-6),
    ]


def _valley_descents(rng, gh) -> List[Query]:
    """Scalarized descent on a valley_1d objective, from either side."""
    obj, minimizer = valley_1d(rng)
    pts = grid_points(obj.domain, GRID_1D)
    h = (obj.domain[0][1] - obj.domain[0][0]) / (GRID_1D - 1)
    starts = (_r(minimizer - rng.uniform(0.5, 1.2)), _r(minimizer + rng.uniform(0.5, 1.2)))

    def descent(x0):
        return Query("scalarized_descent",
                     _on_fresh(obj.text(), obj.domain, GRID_1D, 1,
                               lambda f, g: gh.iop.scalarized_descent(
                                   gh.iop.Iop(f), [x0], grid=g)),
                     lambda r: descent_ok(r.x_best, r.efficient, obj.lo_hi, pts, h,
                                          (minimizer,)))

    return [descent(x0) for x0 in starts]


def _vee_queries(gh) -> List[Query]:
    problems = gh.problems

    def on_f(call):
        return _on_fresh(problems.PIECEWISE_VEE_TEXT, problems.PIECEWISE_VEE_DOMAIN,
                         GRID_1D, 1, call)

    pts = grid_points(problems.PIECEWISE_VEE_DOMAIN, GRID_1D)
    h = (pts[-1, 0] - pts[0, 0]) / (GRID_1D - 1)

    def descent(x0):
        return Query("scalarized_descent",
                     on_f(lambda f, g: gh.iop.scalarized_descent(gh.iop.Iop(f), [x0], grid=g)),
                     lambda r: descent_ok(r.x_best, r.efficient, vee_lo_hi, pts, h, (2.0,)))

    return [
        Query("optimality_zero_condition",
              on_f(lambda f, g: gh.iop.optimality_zero_condition(gh.iop.Iop(f), [2.0], g)),
              lambda ok: ok is True),
        descent(-2.0),
        descent(6.0),
        # the vee's boundary slopes are 1 and 2, so the subgradient sup is 2
        # and bounds the sampled Lipschitz quotient
        Query("lipschitz_from_subgradients_check",
              on_f(gh.subgrad.lipschitz_from_subgradients_check), lambda ok: ok is True),
    ]


def _ghcalc() -> SimpleNamespace:
    """The ghcalc modules the in-process queries call.

    Queries look functions up on the modules at call time, so the traced
    run sees the wrappers it installs.  The cli workload never imports
    ghcalc in the benchmark's own process.
    """
    from ghcalc import interval, ivector, iop, problems, subgrad
    return SimpleNamespace(iop=iop, subgrad=subgrad, problems=problems,
                           Interval=interval.Interval, IVector=ivector.IVector,
                           SubgradientCandidate=subgrad.SubgradientCandidate)


def verdicts_1d(seed: int, work: Path, runner) -> Workload:
    gh = _ghcalc()
    rng = np.random.default_rng([seed, 1])
    deck: List[Query] = []
    for _ in range(N_KINK):
        deck += _kink_queries(rng, kink_1d(rng), gh) + _valley_descents(rng, gh)
    deck += _vee_queries(gh)
    # warm-up inputs do not depend on the seed, so neither does set-up work
    warm = np.random.default_rng(WARMUP_SEED)
    warmup = _kink_queries(warm, kink_1d(warm), gh) + _valley_descents(warm, gh)
    return Workload(deck, warmup, [])


# --------------------------------------------------------------------------
# grid_nd: few calls on 10^3 - 10^6 points in 2 and 3 variables
# --------------------------------------------------------------------------


def _nd_subgradient(rng, obj: Separable, samples: int, gh) -> List[Query]:
    h = [2.0 / (samples - 1)] * obj.arity

    def query(comps, expected):
        g = gh.IVector.of(*(gh.Interval(p, q) for p, q in comps))
        cand = gh.SubgradientCandidate(g, obj.c)
        return Query(f"is_subgradient_{obj.arity}d",
                     _on_fresh(obj.text(), obj.domain, samples, obj.arity,
                               lambda f, grid: gh.subgrad.is_subgradient(f, cand, grid)),
                     lambda r: r[0] is expected)

    return [query(_inside_candidate(rng, obj), True),
            query(_outside_candidate(rng, obj, h), False)]


def _iop_2d(obj: Separable, gh) -> Query:
    return Query("Iop_2d", _on_fresh(obj.text(), obj.domain, 2, 2, lambda f, g: gh.iop.Iop(f)),
                 lambda p: isinstance(p, gh.iop.Iop))


def _efficient_2d(obj: Separable, gh) -> Query:
    pts = grid_points(obj.domain, EFFICIENT_2D)

    def check(r):
        return (np.array_equal(r.points, pts)
                and check_efficiency(r.points, r.f_lo, r.f_hi, r.efficient, obj.lo_hi))

    return Query("efficient_on_grid",
                 _on_fresh(obj.text(), obj.domain, EFFICIENT_2D, 2,
                           lambda f, g: gh.iop.efficient_on_grid(gh.iop.Iop(f), g)),
                 check)


def _lipschitz_2d(obj: Separable, gh) -> Query:
    lip = lipschitz_exact(obj, grid_points(obj.domain, LIPSCHITZ_2D))
    return Query("lipschitz_estimate",
                 _on_fresh(obj.text(), obj.domain, LIPSCHITZ_2D, 2, gh.subgrad.lipschitz_estimate),
                 lambda est: abs(est - lip) <= 1e-9 * (1.0 + lip))


def _smooth_2d(pts):
    """[1,2]*pow2(x1) + [0,1]*pow2(x2) + pow2(x2 - 0.5), the ROADMAP's
    smooth objective on which n-D descent raises."""
    x1, x2 = pts[:, 0], pts[:, 1]
    return x1 ** 2 + (x2 - 0.5) ** 2, 2.0 * x1 ** 2 + x2 ** 2 + (x2 - 0.5) ** 2


SMOOTH_2D_TEXT = "[1,2]*pow2(x1) + [0,1]*pow2(x2) + pow2(x2 - 0.5)"


def _nd_descent(text: str, closed_form, n: int, x0, gh) -> Query:
    """Descent from x0 must end on a grid-efficient point."""
    samples = DESCENT_ND[n]
    domain = ((-1.0, 1.0),) * n
    pts = grid_points(domain, samples)
    convexity = 21 if n == 2 else CONVEXITY_3D

    def descent(f, grid):
        return gh.iop.scalarized_descent(gh.iop.Iop(f, convexity_samples=convexity), x0, grid=grid)

    return Query(f"scalarized_descent_{n}d", _on_fresh(text, domain, samples, n, descent),
                 lambda r: descent_ok(r.x_best, r.efficient, closed_form, pts,
                                      2.0 / (samples - 1)))


def grid_nd(seed: int, work: Path, runner) -> Workload:
    """Per pass: four efficiency filters at 81^2, one each of the other kinds.

    The efficiency queries sit in the middle of the latency order, so the
    median is an efficiency query and the 3-D construction is the tail.
    """
    gh = _ghcalc()
    rng = np.random.default_rng([seed, 1])
    two = [separable_nd(rng, 2) for _ in range(4)]
    three = separable_nd(rng, 3)
    sub_2d = separable_nd(rng, 2, SUBGRAD_2D)
    sub_3d = separable_nd(rng, 3, SUBGRAD_3D)
    deck = [
        _iop_2d(two[0], gh),
        *(_efficient_2d(obj, gh) for obj in two),
        _lipschitz_2d(two[0], gh),
        Query("Iop_3d", _on_fresh(three.text(), three.domain, 2, 3,
                                  lambda f, g: gh.iop.Iop(f, convexity_samples=CONVEXITY_3D)),
              lambda p: isinstance(p, gh.iop.Iop)),
        _nd_subgradient(rng, sub_2d, SUBGRAD_2D, gh)[0],
        _nd_subgradient(rng, sub_3d, SUBGRAD_3D, gh)[1],
    ]
    wrng = np.random.default_rng(WARMUP_SEED)
    warm = separable_nd(wrng, 2)
    warmup = [_iop_2d(warm, gh), _efficient_2d(warm, gh), _lipschitz_2d(warm, gh),
              *_nd_subgradient(wrng, separable_nd(wrng, 2, SUBGRAD_2D), SUBGRAD_2D, gh)]

    def start(n):
        return [float(x) for x in rng.uniform(-0.9, 0.9, n)]

    defects = [_nd_descent(SMOOTH_2D_TEXT, _smooth_2d, 2, [0.5, 0.5], gh),
               _nd_descent(two[0].text(), two[0].lo_hi, 2, start(2), gh),
               _nd_descent(three.text(), three.lo_hi, 3, start(3), gh)]
    return Workload(deck, warmup, defects)


# --------------------------------------------------------------------------
# cli: one child process per query, the path users type
# --------------------------------------------------------------------------


def _cap_memory() -> None:
    resource.setrlimit(resource.RLIMIT_AS, (CLI_AS_LIMIT, CLI_AS_LIMIT))


@dataclass
class CliResult:
    rc: int
    out: str
    err: str

    def failure(self) -> str:
        """How a result that failed its oracle went wrong."""
        last = self.err.strip().splitlines()[-1] if self.err.strip() else ""
        if "Traceback" in self.err:
            return f"crashed, exit {self.rc}: {last}"
        if self.rc == 2:
            return f"refused, exit 2: {last}"
        return f"wrong result, exit {self.rc}"


class CliRunner:
    """Starts `python -m ghcalc.cli` children with `src` on the path.

    With a span directory the children run under the tracer instead
    (perfbench/traced_cli.py); each writes its spans to a new file there,
    listed in `span_files`.
    """

    def __init__(self, span_dir: Optional[Path] = None):
        self.env = dict(os.environ)
        src = str(ROOT / "src")
        path = self.env.get("PYTHONPATH")
        self.env["PYTHONPATH"] = src + os.pathsep + path if path else src
        self.span_dir = span_dir
        self.span_files: List[Path] = []
        self._started = 0

    def __call__(self, *args: str) -> CliResult:
        env = self.env
        cmd = [sys.executable, "-m", "ghcalc.cli", *args]
        if self.span_dir is not None:
            self._started += 1
            path = self.span_dir / f"spans-{self._started}.npz"
            self.span_files.append(path)
            env = dict(env, PERFBENCH_SPANS=str(path))
            cmd = [sys.executable, str(Path(__file__).with_name("traced_cli.py")), *args]
        proc = subprocess.run(cmd, cwd=ROOT, env=env, capture_output=True, text=True,
                              timeout=CLI_TIMEOUT_S, preexec_fn=_cap_memory)
        return CliResult(proc.returncode, proc.stdout, proc.stderr)


def _clean(r: CliResult, rc: int = 0) -> bool:
    """Exit code as expected and no uncaught exception.

    ghcalc exits 1 both for a negative verdict and for an uncaught Python
    exception, so a traceback on stderr marks a crash whatever the code.
    """
    return r.rc == rc and "Traceback" not in r.err


def _csv(text: str) -> np.ndarray:
    return np.loadtxt(io.StringIO(text), delimiter=",", skiprows=1, ndmin=2)


def _check_eval(r: CliResult, obj: Separable, samples: int) -> bool:
    if not _clean(r):
        return False
    rows = _csv(r.out)
    n = obj.arity
    pts = grid_points(obj.domain, samples)
    lo, hi = obj.lo_hi(pts)
    return (rows.shape == (len(pts), n + 2) and _close(rows[:, :n], pts, 1e-12)
            and _close(rows[:, n], lo) and _close(rows[:, n + 1], hi))


def _check_scan(r: CliResult, obj: Separable, h: float) -> bool:
    if not _clean(r):
        return False
    rows = _csv(r.out)
    p_vals = np.unique(rows[:, 0])
    q_vals = np.unique(rows[:, 1])
    if rows.shape[0] != len(p_vals) * len(q_vals):
        return False
    return check_region(p_vals, q_vals, rows[:, 2].reshape(len(p_vals), len(q_vals)) > 0.5,
                        obj, h)


def _check_efficient(r: CliResult, closed_form, domain, samples: int,
                     efficient_x: Optional[Tuple[float, float]] = None) -> bool:
    if not _clean(r):
        return False
    rows = _csv(r.out)
    n = len(domain)
    pts = grid_points(domain, samples)
    ok = (rows.shape == (len(pts), n + 3) and _close(rows[:, :n], pts, 1e-12)
          and check_efficiency(rows[:, :n], rows[:, n], rows[:, n + 1], rows[:, n + 2] > 0.5,
                               closed_form))
    if ok and efficient_x is not None:
        x, flagged = rows[:, 0], rows[:, n + 2] > 0.5
        step = (domain[0][1] - domain[0][0]) / (samples - 1)
        inside = (x >= efficient_x[0] - 1e-9) & (x <= efficient_x[1] + 1e-9)
        near = (x >= efficient_x[0] - step - 1e-9) & (x <= efficient_x[1] + step + 1e-9)
        ok = not np.any(inside & ~flagged) and not np.any(flagged & ~near)
    return ok


_DESCENT_RE = re.compile(r"x_best=(\S+) f=\S+ efficient=(\d)")


def _check_descent(r: CliResult, closed_form, domain, target=None) -> bool:
    """The printed x_best and efficient flag pass descent_ok on the CLI's
    default grid."""
    m = _DESCENT_RE.search(r.out) if _clean(r) else None
    if m is None:
        return False
    x = [float(v) for v in m.group(1).split(",")]
    step = max(hi - lo for lo, hi in domain) / (GRID_1D - 1)
    return descent_ok(x, m.group(2) == "1", closed_form, grid_points(domain, GRID_1D), step,
                      target)


def _parabolic_band(pts):
    x = np.asarray(pts)[:, 0]
    return x * x - 2.0 * x + 2.0, 2.0 * x * x + 6.0


def cli(seed: int, work: Path, runner: CliRunner) -> Workload:
    rng = np.random.default_rng([seed, 1])
    kink = kink_1d(rng)
    c = kink.c[0]
    lo_dom, hi_dom = kink.domain[0]
    h = (hi_dom - lo_dom) / (GRID_1D - 1)
    two = separable_nd(rng, 2)
    valley, minimizer = valley_1d(rng)
    paths = {}
    for name, obj, base in (("kink", kink, (c,)), ("two", two, ()), ("valley", valley, ())):
        paths[name] = work / f"{name}.prob"
        paths[name].write_text(obj.prob_text(base))
    kink_path, two_path, valley_path = (str(paths[n]) for n in ("kink", "two", "valley"))

    def cand(comps) -> str:
        return "(" + ",".join(f"[{p!r},{q!r}]" for p, q in comps) + ")"

    yes = cand(_inside_candidate(rng, kink))
    no = cand(_outside_candidate(rng, kink, (h,)))
    a, b = kink.a[0], kink.b[0]
    bounds = f"--bounds={-b - 1.0!r},{a + 1.0!r},{-a - 1.0!r},{b + 1.0!r}"
    x0 = repr(_r(minimizer + rng.choice((-1.0, 1.0)) * rng.uniform(0.5, 1.2)))
    slab, quartic = str(PROBLEMS / "abs_slab.prob"), str(PROBLEMS / "quartic.prob")
    band, vee = str(PROBLEMS / "parabolic_band.prob"), str(PROBLEMS / "piecewise_vee.prob")
    slab_h = 4.0 / (GRID_1D - 1)

    def q(kind, args, check):
        return Query(kind, lambda: runner(*args), check)

    deck = [
        q("examples", ["examples"],
          lambda r: _clean(r) and [ln.split()[0] for ln in r.out.splitlines()] == ["PASS"] * 3),
        q("eval", ["eval", slab, "--on-grid"], lambda r: _check_eval(r, ABS_SLAB, GRID_1D)),
        q("eval", ["eval", two_path, "--on-grid"], lambda r: _check_eval(r, two, GRID_1D)),
        # the quartic's gH-gradient at 1 is [2,4], its own candidate
        q("subgrad-check", ["subgrad-check", quartic],
          lambda r: _clean(r) and r.out.strip() == "YES"),
        q("subgrad-check", ["subgrad-check", kink_path, "--at", repr(c), "--g", yes],
          lambda r: _clean(r) and r.out.strip() == "YES"),
        q("subgrad-check", ["subgrad-check", kink_path, "--at", repr(c), "--g", no],
          lambda r: _clean(r, 1) and r.out.startswith("NO witness=")),
        q("subdiff-scan", ["subdiff-scan", slab, "--bounds=-4,2,-2,4"],
          lambda r: _check_scan(r, ABS_SLAB, slab_h)),
        q("subdiff-scan", ["subdiff-scan", kink_path, "--at", repr(c), bounds],
          lambda r: _check_scan(r, kink, h)),
        q("efficient", ["efficient", band],
          lambda r: _check_efficient(r, _parabolic_band, ((-1.0, 2.0),), GRID_1D, (0.0, 1.0))),
        q("efficient", ["efficient", two_path, "--grid", str(CLI_EFFICIENT_2D)],
          lambda r: _check_efficient(r, two.lo_hi, two.domain, CLI_EFFICIENT_2D)),
        q("descent", ["descent", vee, "--x0", "-2"],
          lambda r: _check_descent(r, vee_lo_hi, ((-2.0, 6.0),), (2.0,))),
        q("descent", ["descent", valley_path, "--x0", x0],
          lambda r: _check_descent(r, valley.lo_hi, valley.domain, (minimizer,))),
    ]
    warmup = [q("subgrad-check", ["subgrad-check", quartic],
                lambda r: _clean(r) and r.out.strip() == "YES")]
    defects = [
        q("efficient_default_grid_2d", ["efficient", two_path],
          lambda r: _check_efficient(r, two.lo_hi, two.domain, GRID_1D)),
        q("descent_2d", ["descent", two_path, "--x0", "0.5,0.5"],
          lambda r: _check_descent(r, two.lo_hi, two.domain)),
    ]
    return Workload(deck, warmup, defects)


BUILDERS: Dict[str, Callable[..., Workload]] = {
    "verdicts_1d": verdicts_1d,
    "grid_nd": grid_nd,
    "cli": cli,
}
