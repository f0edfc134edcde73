"""The fast grid kernels against the plain definitions they replace.

The references below enumerate every pair of grid nodes (convexity,
Lipschitz quotient) or build the N x N strict-dominance matrix
(efficiency).  They are quadratic in time and memory, so the grids here
stay small, but some are large enough to span several row blocks of the
blocked pair walk.  The subgradient references evaluate F on the whole
grid at every check, where the library evaluates it once per verdict and
shares the values between checks.  The pairing and the box-norm sup
are kept here as written before the constraint set replaced them, so they
are independent of the code under test.  The descent reference reads F at
each iterate from eval_many and its slopes from the recursive walker, one
walk per axis and side, and clips with np.clip, where the library makes
one walk of the compiled tree per iteration.  Two recursive tree walkers
are kept as written before compiled closures replaced them: the array
evaluator, the reference of `compile_lo_hi`, and the forward-mode tangent
walker, the reference of `compile_tangents`.  What the convexity proof
claims of random trees is checked at the samples of the sampled
convexity check and against evaluation.  The exact one-variable box and
its membership test are kept as written before the exact sets of
separable objectives, in any number of variables, replaced them; those
sets are checked against the sampled check both ways, in two and three
variables.
"""

import itertools
import math
import re
import warnings
from pathlib import Path
from typing import NamedTuple, Tuple

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from ghcalc import Grid, Interval, IVector, Ivf, WMapConfig
from ghcalc import ivf as ivf_module
from ghcalc.cli import parse_problem_file
from ghcalc.errors import (
    EmptySubdifferentialEncountered,
    NonDegenerateRealNode,
    NonFiniteDerivative,
    OverlappingPieces,
    PiecewiseCoverageError,
    ZeroInDenominator,
)
from ghcalc.expr import (
    CONCAVE,
    CONVEX,
    Abs,
    BinOp,
    Comparison,
    Const,
    Guard,
    Norm,
    Piecewise,
    Pow,
    Var,
    _power,
    compile_lo_hi,
    compile_tangents,
    convexity,
    eval_lo_hi,
)
from ghcalc.iop import (
    DescentResult,
    Iop,
    TraceRecord,
    _dominance_minimal,
    _pareto_flags,
    efficient_on_grid,
    scalarized_descent,
)
from ghcalc.ivf import (
    _row_blocks,
    _runs,
    is_convex_sampled,
    lipschitz_estimate,
)
from ghcalc.problems import (
    abs_slab_ivf,
    piecewise_vee_ivf,
    quartic_ivf,
    smooth_parabolic_ivf,
)
from ghcalc.subgrad import (
    SubgradientCandidate,
    _Constraints,
    _GridValues,
    _exact_sets,
    _grid_values,
    _in_exact,
    _sampled_sup,
    is_subgradient,
    is_subgradient_strict_variant,
    lipschitz_from_subgradients_check,
    subdiff_scan_1d,
    union_boundedness_probe,
)

PROBLEMS = Path(__file__).resolve().parent.parent / "problems"
DATA = Path(__file__).resolve().parent / "data"


def convexity_reference(f, grid, tol=1e-10):
    """Every pair i < j, at lam = 1/4, 1/2, 3/4, mixtures evaluated directly."""
    pts = grid.points()
    lo, hi = f.eval_many(pts)
    ii, jj = np.triu_indices(pts.shape[0], k=1)
    for lam in (0.25, 0.5, 0.75):
        lam_p = 1.0 - lam
        mix_lo, mix_hi = f.eval_many(lam * pts[ii] + lam_p * pts[jj])
        bad = ((mix_lo > lam * lo[ii] + lam_p * lo[jj] + tol)
               | (mix_hi > lam * hi[ii] + lam_p * hi[jj] + tol))
        if bad.any():
            k = int(np.argmax(bad))
            return False, (pts[ii[k]].tolist(), pts[jj[k]].tolist(), lam)
    return True, None


def pareto_reference(lo, hi):
    """Efficiency flags from the N x N strict-dominance matrix."""
    strict = ((lo[:, None] <= lo[None, :]) & (hi[:, None] <= hi[None, :])
              & ((lo[:, None] < lo[None, :]) | (hi[:, None] < hi[None, :])))
    return ~strict.any(axis=0)


def lipschitz_reference(f, grid):
    pts = grid.points()
    lo, hi = f.eval_many(pts)
    ii, jj = np.triu_indices(pts.shape[0], k=1)
    num = np.maximum(np.abs(lo[ii] - lo[jj]), np.abs(hi[ii] - hi[jj]))
    return float(np.max(num / np.linalg.norm(pts[ii] - pts[jj], axis=1)))


def seeded_objective(seed, n, low=0.0):
    """Separable sum of abs and pow2 terms with interval coefficients drawn
    from [low, 2]: convex when low >= 0, often not when low < 0."""
    rng = np.random.default_rng(seed)
    terms = []
    for i in range(n):
        c = round(float(rng.uniform(-0.5, 0.5)), 3)
        for kind in (f"abs(x{i + 1} - {c!r})" if c >= 0 else f"abs(x{i + 1} + {-c!r})",
                     f"pow2(x{i + 1})"):
            a, b = sorted(round(float(v), 3) for v in rng.uniform(low, 2.0, 2))
            terms.append(f"[{a!r},{b!r}]*{kind}")
    return Ivf.from_text(n, " + ".join(terms) + " + [1,2]", ((-1.0, 1.0),) * n)


# Convex only for x1 < 0.95; the first violating pair lies past the first
# row block of a 25 x 25 grid.
LATE_WITNESS_TEXT = (
    "piecewise{ x1 <= 0.95 => 1000*pow2(x1) + pow2(x2);"
    " x1 >= 0.95 => 1000*pow2(x1) + pow2(x2) - 100*(x1 - 0.95)*pow2(x2); }")

CONVEXITY_CASES = {
    "quartic": (quartic_ivf(), 21),
    "abs_slab": (abs_slab_ivf(), 21),
    "piecewise_vee": (piecewise_vee_ivf(), 21),
    "smooth_parabolic": (smooth_parabolic_ivf(), 21),
    "concave_band": (Ivf.from_text(1, "0 - pow2(x1) + [0,1]", ((-1.0, 1.0),)), 21),
    "saddle_2d": (Ivf.from_text(2, "[1,2]*pow2(x1) - pow2(x2) + [0,1]",
                                ((-1.0, 1.0), (-1.0, 1.0))), 9),
    "convex_2d": (Ivf.from_text(2, "[1,2]*pow2(x1) + [0,1]*abs(x2 - 0.25) + [3,4]",
                                ((-1.0, 1.0), (-0.5, 2.0))), 11),
    "late_witness_2d": (Ivf.from_text(2, LATE_WITNESS_TEXT, ((-1.0, 1.0),) * 2), 25),
    **{f"seeded_3d_{seed}": (seeded_objective(seed, 3, low), 6)
       for seed, low in enumerate((0.0, 0.0, -0.4, -0.4))},
    "seeded_3d_blocks": (seeded_objective(11, 3), 9),
}


@pytest.mark.parametrize("name", sorted(CONVEXITY_CASES))
def test_convexity_verdict_and_witness_match_the_pair_enumeration(name):
    f, samples = CONVEXITY_CASES[name]
    grid = f.grid(samples)
    assert is_convex_sampled(f, grid) == convexity_reference(f, grid)


def test_convexity_cases_cover_both_verdicts_and_late_blocks():
    verdicts = {name: convexity_reference(f, f.grid(c))[0]
                for name, (f, c) in CONVEXITY_CASES.items()}
    assert all(verdicts[n] for n in ("quartic", "abs_slab", "piecewise_vee",
                                     "smooth_parabolic", "convex_2d"))
    assert not any(verdicts[n] for n in ("concave_band", "saddle_2d", "late_witness_2d"))
    seeded = [verdicts[n] for n in verdicts if n.startswith("seeded_3d")]
    assert True in seeded and False in seeded
    f, samples = CONVEXITY_CASES["late_witness_2d"]
    pts = f.grid(samples).points()
    x1 = convexity_reference(f, f.grid(samples))[1][0]
    first_block_rows = next(_row_blocks(len(pts)))[0]
    assert int(np.flatnonzero((pts == x1).all(axis=1))[0]) >= first_block_rows.stop


def on_grid(f, counts):
    return f, Grid(tuple(l for l, _ in f.domain), tuple(u for _, u in f.domain), counts)


def tent(c):
    """Height 0.5 at x1 = c, zero where |x1 - c| >= 0.1."""
    return f"5*(0.1 - abs(x1 - {c}) + abs(0.1 - abs(x1 - {c})))"


# Grids with unequal axes; the Iop default saddle, whose witness pair shares
# its first-axis index; seeded objectives whose first violation is at
# lam = 1/2 or 3/4, so that no lam = 1/4 block hides them.  Of the mixtures
# of integer nodes, the tent at 0.5 holds only those of nodes 0 and 1 at
# lam = 1/2 and of 0 and 2 at 3/4; lam = 1/4 first meets the tent at 10.25
# with nodes 2 and 13, a later first node.
KERNEL_CASES = {
    "late_quarter_1d": on_grid(Ivf.from_text(1, f"[1,2] + {tent(0.5)} + {tent(10.25)}",
                                             ((0.0, 20.0),)), (21,)),
    "saddle_21x21": on_grid(Ivf.from_text(2, "[1,2]*pow2(x1) - pow2(x2)",
                                          ((-1.0, 1.0),) * 2), (21, 21)),
    "convex_5x7x3": on_grid(seeded_objective(11, 3), (5, 7, 3)),
    "nonconvex_5x7x3": on_grid(seeded_objective(3, 3, -0.4), (5, 7, 3)),
    "convex_9x4": on_grid(CONVEXITY_CASES["convex_2d"][0], (9, 4)),
    "nonconvex_9x4": on_grid(seeded_objective(2, 2, -0.4), (9, 4)),
    "half_1d": on_grid(seeded_objective(41, 1, -0.4), (21,)),
    "half_3d": on_grid(seeded_objective(12, 3, -0.4), (5, 5, 5)),
    "three_quarters_2d": on_grid(seeded_objective(46, 2, -0.4), (7, 7)),
    "three_quarters_3d": on_grid(seeded_objective(38, 3, -0.4), (5, 5, 5)),
}


def test_kernel_cases_pin_the_triu_offset_and_late_weights():
    verdicts = {name: convexity_reference(f, grid) for name, (f, grid) in KERNEL_CASES.items()}
    assert verdicts["saddle_21x21"] == (False, ([-1.0, -1.0], [-1.0, -0.9], 0.25))
    assert verdicts["late_quarter_1d"] == (False, ([2.0], [13.0], 0.25))
    assert verdicts["convex_5x7x3"][0] and verdicts["convex_9x4"][0]
    assert not verdicts["nonconvex_5x7x3"][0] and not verdicts["nonconvex_9x4"][0]
    assert [verdicts[name][1][2] for name in ("half_1d", "half_3d", "three_quarters_2d",
                                              "three_quarters_3d")] == [0.5, 0.5, 0.75, 0.75]


# 1000 pairs cut each first-axis slab of a 21 x 21 grid into runs of two
# nodes, and of a 5 x 7 x 3 grid into runs of three rows of its second axis.
# The default budget on CONVEXITY_CASES is the test above.
@pytest.mark.parametrize("name,budget", [(name, budget) for name in sorted(KERNEL_CASES)
                                         for budget in (None, 1, 1000)]
                         + [(name, budget) for name in sorted(CONVEXITY_CASES)
                            for budget in (1, 1000)])
def test_convexity_matches_the_pair_enumeration_at_any_block_size(name, budget, monkeypatch):
    if name in KERNEL_CASES:
        f, grid = KERNEL_CASES[name]
    else:
        f, samples = CONVEXITY_CASES[name]
        grid = f.grid(samples)
    if budget is not None:
        monkeypatch.setattr(ivf_module, "_MIX_BLOCK", budget)
    assert is_convex_sampled(f, grid) == convexity_reference(f, grid)


@pytest.mark.parametrize("counts", [(2,), (21,), (9, 4), (21, 21), (5, 7, 3), (3, 4, 2, 3)])
@pytest.mark.parametrize("budget", [1, 7, 64, 1000])
def test_runs_cover_the_nodes_in_order_within_the_budget(counts, budget):
    nodes = np.arange(math.prod(counts)).reshape(counts)
    covered = []
    for index, start in _runs(counts, budget):
        run = nodes[index].ravel()
        assert np.array_equal(run, np.arange(start, start + run.size))
        assert run.size <= budget or run.size == 1
        covered.append(run)
    assert np.array_equal(np.concatenate(covered), nodes.ravel())


def test_convexity_check_leaves_the_refined_values_unchanged(monkeypatch):
    f, grid = KERNEL_CASES["nonconvex_5x7x3"]
    returned = []
    eval_many = Ivf.eval_many

    def keep(self, xs):
        values = eval_many(self, xs)
        returned.append((values, [v.copy() for v in values]))
        return values

    monkeypatch.setattr(Ivf, "eval_many", keep)
    assert is_convex_sampled(f, grid) == convexity_reference(f, grid)
    assert returned
    for values, copies in returned:
        assert all(np.array_equal(v, c) for v, c in zip(values, copies))


@pytest.mark.parametrize("n", [2, 3, 7, 100, 513, 1000])
def test_row_blocks_cover_the_upper_triangle_in_order(n):
    ii, jj = [], []
    for rows, cols in _row_blocks(n):
        r, c = np.nonzero(np.triu(np.ones((rows.stop - rows.start,
                                            cols.stop - cols.start), dtype=bool)))
        ii.append(rows.start + r)
        jj.append(cols.start + c)
    ref_i, ref_j = np.triu_indices(n, k=1)
    assert np.array_equal(np.concatenate(ii), ref_i)
    assert np.array_equal(np.concatenate(jj), ref_j)


def test_lipschitz_estimate_matches_all_pairs_across_blocks():
    f = seeded_objective(5, 2)
    grid = f.grid(31)
    assert len(list(_row_blocks(len(grid.points())))) > 1
    assert lipschitz_estimate(f, grid) == lipschitz_reference(f, grid)


EFFICIENCY_CASES = {
    "constant": (Ivf.from_text(1, "[1,2]", ((-1.0, 1.0),)), 21),
    "abs_slab_symmetric_ties": (abs_slab_ivf(), 41),
    "parabolic_band": (smooth_parabolic_ivf(), 201),
    "piecewise_vee": (piecewise_vee_ivf(), 201),
    "constant_2d": (Ivf.from_text(2, "[0,3]", ((-1.0, 1.0),) * 2), 9),
    "symmetric_2d_ties": (Ivf.from_text(2, "[1,2]*abs(x1) + [0,1]*pow2(x2)",
                                        ((-1.0, 1.0),) * 2), 21),
    "seeded_2d": (seeded_objective(3, 2), 41),
}


@pytest.mark.parametrize("name", sorted(EFFICIENCY_CASES))
def test_efficiency_flags_match_the_dominance_matrix(name):
    f, samples = EFFICIENCY_CASES[name]
    report = efficient_on_grid(Iop(f), f.grid(samples))
    assert np.array_equal(report.efficient, pareto_reference(report.f_lo, report.f_hi))


def test_pareto_flags_with_duplicated_values_and_nan():
    rng = np.random.default_rng(7)
    for trial in range(300):
        n = int(rng.integers(1, 40))
        lo = rng.integers(0, 4, n).astype(float)
        hi = lo + rng.integers(0, 4, n)
        if trial % 5 == 0:
            lo[rng.integers(0, n)] = np.nan
        if trial % 7 == 0:
            lo[lo == 0.0] = -0.0
        assert np.array_equal(_pareto_flags(lo, hi), pareto_reference(lo, hi))


def test_pareto_flags_on_all_equal_values():
    lo = np.full(6, 2.0)
    hi = np.full(6, 5.0)
    assert _pareto_flags(lo, hi).all()


def test_dominance_minimal_keeps_the_scalarized_then_iteration_tie_break():
    values = [(3, 4), (1, 5), (1, 5), (2, 3), (2, 3), (0, 9), (2, 4)]
    # (1,5), (2,3) and (0,9) are mutually incomparable; scalarized ties
    # are broken by the earlier iteration
    trace = [TraceRecord(k, (float(k),), Interval(lo, hi), scal, 0.1)
             for k, ((lo, hi), scal) in enumerate(zip(values, [1, 2, 2, 2, 2, 5, 0]))]
    best = _dominance_minimal(trace)
    assert best.iteration == 1


# --------------------------------------------------------------------------
# Subgradient checks with F evaluated on the whole grid at every call
# --------------------------------------------------------------------------


def pairing_reference(dx, g):
    """Endpoints of (x - x_bar)^T (.) G for rows dx of displacements."""
    lo = np.zeros(dx.shape[0])
    hi = np.zeros(dx.shape[0])
    for i, comp in enumerate(g):
        d = dx[:, i]
        lo += np.where(d >= 0.0, comp.lo * d, comp.hi * d)
        hi += np.where(d >= 0.0, comp.hi * d, comp.lo * d)
    return lo, hi


def box_norm_sup_reference(box):
    """Sup of max(|p|, |q|) over the feasible box cut by {p <= q}, and the
    vertices it was evaluated at."""
    p_lb, p_ub, q_lb, q_ub = box
    if p_lb > p_ub or q_lb > q_ub or p_lb > q_ub:
        return -math.inf, []
    verts = [(p, q)
             for p in (p_lb, p_ub) for q in (q_lb, q_ub) if p <= q]
    diag_lo = max(p_lb, q_lb)
    diag_hi = min(p_ub, q_ub)
    if diag_lo <= diag_hi:
        verts.extend([(diag_lo, diag_lo), (diag_hi, diag_hi)])
    # clamp corners cut off by the half-plane onto its edge
    if p_ub > q_ub >= p_lb:
        verts.append((q_ub, q_ub))
    if q_lb < p_lb <= q_ub:
        verts.append((p_lb, p_lb))
    sup = max(max(abs(p), abs(q)) for p, q in verts)
    return sup, verts


def subgradient_reference(f, cand, grid, tol=1e-10, strict=False):
    """(ok, witness) of is_subgradient, or of the strict variant."""
    x_bar = np.asarray(cand.base_point, dtype=float)
    pts = grid.points()
    lo, hi = f.eval_many(pts)
    f0_lo, f0_hi = f.eval_many(x_bar[None, :])
    lhs_lo, lhs_hi = pairing_reference(pts - x_bar[None, :], cand.g)
    if strict:
        bad = (lhs_lo + f0_lo[0] > lo + tol) | (lhs_hi + f0_hi[0] > hi + tol)
    else:
        d_lo = lo - f0_lo[0]
        d_hi = hi - f0_hi[0]
        bad = ((lhs_lo > np.minimum(d_lo, d_hi) + tol)
               | (lhs_hi > np.maximum(d_lo, d_hi) + tol))
    if bad.any():
        return False, pts[int(np.argmax(bad))].tolist()
    return True, None


def feasible_box_reference(f, x_bar, grid, tol):
    pts = grid.points()
    lo, hi = f.eval_many(pts)
    f0 = f.eval([x_bar])
    d_lo = lo - f0.lo
    d_hi = hi - f0.hi
    rhs_lo = np.minimum(d_lo, d_hi) + tol
    rhs_hi = np.maximum(d_lo, d_hi) + tol
    d = pts[:, 0] - x_bar
    pos = d > 0.0
    neg = d < 0.0
    p_ub = float(np.min(rhs_lo[pos] / d[pos])) if pos.any() else math.inf
    q_ub = float(np.min(rhs_hi[pos] / d[pos])) if pos.any() else math.inf
    q_lb = float(np.max(rhs_lo[neg] / d[neg])) if neg.any() else -math.inf
    p_lb = float(np.max(rhs_hi[neg] / d[neg])) if neg.any() else -math.inf
    return p_lb, p_ub, q_lb, q_ub


def descent_reference(p, x0, grid, cfg=WMapConfig(), iters=600):
    """The projected iteration on phi_w = w*f_lo + w'*f_hi, one axis at a
    time: F(x) from eval_many, and the slope on axis i from the recursive
    walker's one-sided derivatives of phi_w, walked along +e_i and along
    -e_i on their own: their half difference inside the box, the one into
    the box at a bound, 0 on an axis of zero width.  The step is the larger
    of 0.1/sqrt(k+1) and the Polyak step to the level: the grid's least
    phi_w until an iterate reaches it, then the record less delta, where
    delta halves after every iterate that lowers the record by less than
    delta/2.  The best iterate is picked from the strict-dominance matrix
    of the trace, and its flag from that of the grid, which is evaluated
    before the first iterate."""
    f = p.objective
    x = np.asarray(x0, dtype=float).ravel()
    lower = np.array([l for l, _ in f.domain])
    upper = np.array([u for _, u in f.domain])

    def phi(lo, hi):
        return cfg.w * lo + cfg.w_prime * hi

    def rate(point, i, s):
        """phi_w'(x; s*e_i), or NonFiniteDerivative where the walk refuses."""
        h = [s if j == i else 0.0 for j in range(len(point))]
        walk = tangents_reference(f.body, point, [h])
        if walk is None or not all(map(math.isfinite, [*walk[:2], *walk[2], *walk[3]])):
            raise NonFiniteDerivative(f"no finite one-sided derivative at {point}")
        return phi(walk[2][0], walk[3][0])

    pts = grid.points()
    grid_lo, grid_hi = f.eval_many(pts)
    least = float(np.min(phi(grid_lo, grid_hi)))
    record = delta = None
    trace = []
    for k in range(iters):
        value = f.eval(x)
        point = x.tolist()
        slope = np.zeros(len(x))
        for i in range(len(x)):
            if lower[i] == upper[i]:
                continue
            if x[i] <= lower[i]:
                slope[i] = rate(point, i, 1.0)
            elif x[i] >= upper[i]:
                slope[i] = 0.0 - rate(point, i, -1.0)
            else:
                slope[i] = (rate(point, i, 1.0) - rate(point, i, -1.0)) / 2.0
        phi_x = phi(value.lo, value.hi)
        if record is None:
            if phi_x <= least:
                record, delta = phi_x, 1e-3 * (1.0 + abs(phi_x))
        elif phi_x <= record - delta / 2.0:
            record = phi_x
        else:
            record, delta = min(record, phi_x), delta / 2.0
        level = least if record is None else record - delta
        done = (float(np.max(np.abs(slope))) <= 1e-12
                or (record is not None and delta <= 1e-9 * (1.0 + abs(record))))
        step = 0.0
        if not done:
            step = max(0.1 / math.sqrt(k + 1),
                       (phi_x - level) / sum(float(d) * float(d) for d in slope))
        trace.append(TraceRecord(k, tuple(float(v) for v in x), value, phi_x, step))
        if done:
            break
        x = np.clip(x - step * slope, lower, upper)
    keep = pareto_reference(np.array([r.value.lo for r in trace]),
                            np.array([r.value.hi for r in trace]))
    best = min((r for r, kept in zip(trace, keep) if kept),
               key=lambda r: (r.scalarized, r.iteration))
    nearest = int(np.argmin(np.linalg.norm(pts - np.array(best.x), axis=1)))
    flagged = bool(pareto_reference(grid_lo, grid_hi)[nearest])
    return DescentResult(best.x, best.value, flagged, tuple(trace))


def probe_reference(f, grid, tol=1e-10, on_empty="skip"):
    """Sup of the candidate norm, re-evaluating the grid for every base
    point's box and every vertex re-check."""
    sup = 0.0
    for x_bar in grid.axes()[0][1:-1]:
        local, verts = box_norm_sup_reference(
            feasible_box_reference(f, float(x_bar), grid, tol))
        if not verts:
            if on_empty == "raise":
                raise EmptySubdifferentialEncountered(
                    f"no feasible candidate at base point {x_bar}")
            continue
        for p, q in verts:
            cand = SubgradientCandidate(IVector.of(Interval(p, q)), (float(x_bar),))
            ok, witness = subgradient_reference(f, cand, grid, tol=tol + 1e-12)
            if not ok:
                raise EmptySubdifferentialEncountered(
                    f"frontier candidate failed re-verification at {witness}")
        sup = max(sup, local)
    return sup


# Kinked at 0.3, where the zero vector is a subgradient.
KINKED_1D = Ivf.from_text(1, "[0.5,2]*abs(x1 - 0.3) + [0.2,1]*pow2(x1) + [1,2]",
                          ((-1.0, 2.0),))

# (objective, start, grid samples); grids off the default 201 show that
# the descent verifies against the grid it was given
DESCENT_CASES = {
    "vee_from_left": (piecewise_vee_ivf(), -2.0, 201),
    "vee_from_right": (piecewise_vee_ivf(), 6.0, 201),
    "kinked_from_left": (KINKED_1D, -1.0, 151),
    "kinked_from_right": (KINKED_1D, 2.0, 151),
    "quartic_prob": (parse_problem_file(str(PROBLEMS / "quartic.prob")).ivf, 1.0, 121),
}


@pytest.mark.parametrize("name", sorted(DESCENT_CASES))
def test_descent_matches_the_full_grid_per_iteration_loop(name):
    f, x0, samples = DESCENT_CASES[name]
    p, grid = Iop(f), f.grid(samples)
    result = scalarized_descent(p, [x0], grid=grid)
    expected = descent_reference(p, [x0], grid)
    assert result == expected
    assert result.trace_to_csv() == expected.trace_to_csv()
    assert len(result.trace) > 1


@pytest.mark.parametrize("x0", [-2.0, 6.0])
def test_the_saved_vee_traces_are_the_reference_loop_s_bytes(x0):
    # the CLI writes these traces, and a CLI test compares them byte for byte
    p = Iop(piecewise_vee_ivf())
    csv = descent_reference(p, [x0], p.objective.grid(201)).trace_to_csv()
    assert (DATA / f"vee_descent_from_{x0:g}.csv").read_bytes() == csv.encode()


def seeded_1d_objective(seed, kinked):
    """[a,b]*abs(x1 - c) + [al,be]*pow2(x1 - e) + [1,2] on a box around c
    and e.  A valley has |e - c| ~ 1, so its minimizer is smooth; a kinked
    one has e = c, so its minimizer is the kink."""
    rng = np.random.default_rng(seed)
    a, al = (round(float(rng.uniform(lo, hi)), 3) for lo, hi in ((0.2, 0.6), (1.0, 2.0)))
    b, be = round(a + float(rng.uniform(0.0, 0.6)), 3), round(al + float(rng.uniform(0.0, 1.0)), 3)
    c = round(float(rng.uniform(-0.5, 0.5)), 3)
    e = c if kinked else round(c + float(rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.2)), 3)
    text = f"[{a},{b}]*abs(x1 - ({c})) + [{al},{be}]*pow2(x1 - ({e})) + [1,2]"
    return Ivf.from_text(1, text, ((min(c, e) - 1.5, max(c, e) + 1.5),))


# (objective, start, weights): seeded valleys and kinked objectives, from
# both domain edges, an interior point and -0.0, at w = 1/2 and w = 0.3
DESCENT_BATTERY = {
    f"{kind}_{seed}_{start}_w{cfg.w}": (f, x0, cfg)
    for kind, seeds in (("valley", (301, 302)), ("kinked", (401, 402)))
    for seed in seeds
    for f in [seeded_1d_objective(seed, kind == "kinked")]
    for start, x0 in (("lower", f.domain[0][0]), ("upper", f.domain[0][1]),
                      ("interior", 0.25), ("negative_zero", -0.0))
    for cfg in (WMapConfig(), WMapConfig(0.3, 0.7))
}
# a ramp whose minimizer is its lower bound, so the projection clips each step
RAMP = Ivf.from_text(1, "[1,2]*x1 + [0,1]", ((0.0, 1.0),))
DESCENT_BATTERY.update({f"ramp_{x0!r}": (RAMP, x0, WMapConfig(0.3, 0.7))
                        for x0 in (1.0, 0.0, -0.0)})


@pytest.mark.parametrize("name", sorted(DESCENT_BATTERY))
def test_descent_matches_the_reference_on_a_seeded_battery(name):
    f, x0, cfg = DESCENT_BATTERY[name]
    p, grid = Iop(f), f.grid(101)
    result = scalarized_descent(p, [x0], cfg, iters=300, grid=grid)
    expected = descent_reference(p, [x0], grid, cfg, iters=300)
    assert result == expected
    # == takes -0.0 for 0.0; the CSV tells them apart
    assert result.trace_to_csv() == expected.trace_to_csv()
    assert repr(result.x_best) == repr(expected.x_best)


PROBE_CASES = {
    "vee": piecewise_vee_ivf(),
    "kinked": KINKED_1D,
    "slab": abs_slab_ivf(),
    "quartic": quartic_ivf(),
}


def outcome(call):
    try:
        return call()
    except EmptySubdifferentialEncountered as exc:
        return f"raised: {exc}"


@pytest.mark.parametrize("name", sorted(PROBE_CASES))
def test_probe_and_lipschitz_check_match_the_per_vertex_probe(name):
    # the sampled kernel on every case; the public calls take it where F is
    # not proved convex.  The kinked objective and the slab are proved
    # convex, so there they read exact boxes, which
    # test_the_exact_probe_and_lipschitz_bound_read_the_closed_form_slopes checks
    f = PROBE_CASES[name]
    grid = f.grid(101)
    values = _grid_values(f, grid)
    assert _sampled_sup(values) == probe_reference(f, grid)
    expected = outcome(lambda: lipschitz_estimate(f, grid)
                       <= probe_reference(f, grid, on_empty="raise") + 1e-6)
    assert outcome(lambda: lipschitz_estimate(f, grid)
                   <= _sampled_sup(values, raise_empty=True) + 1e-6) == expected
    assert f._proved_convex == (name in ("kinked", "slab"))
    if name not in ("kinked", "slab"):
        assert union_boundedness_probe(f, grid) == probe_reference(f, grid)
        assert outcome(lambda: lipschitz_from_subgradients_check(f, grid)) == expected


def test_probe_names_the_frontier_point_the_per_vertex_probe_names():
    # at this scale the slack is far below the rounding of the box
    # quotients, so a box vertex fails its re-verification; here the
    # vertices of the seventh base point fail at different samples.  The
    # objective is proved convex, so only the sampled kernel reads them
    f = Ivf.from_text(1, "[7e299,5e300]*pow4(x1)", ((-1.0, 1.0),))
    grid = f.grid(31)
    expected = outcome(lambda: probe_reference(f, grid))
    assert expected.startswith("raised: frontier candidate failed re-verification")
    assert outcome(lambda: _sampled_sup(_grid_values(f, grid))) == expected


class Family(NamedTuple):
    """[a,b]*abs(x1 - c) + [al,be]*pow2(x1 - e) + [u,v] on a domain, the
    benchmark's separable objectives in one variable, with 0 <= a <= b and
    0 <= al <= be, and its one-sided slopes in closed form."""

    a: float
    b: float
    al: float
    be: float
    c: float
    e: float
    u: float
    v: float
    domain: Tuple[float, float]

    def ivf(self, shift: float = 0.0) -> Ivf:
        text = self.text()
        if shift:
            text += f" + [{shift!r},{shift!r}]"
        return Ivf.from_text(1, text, (self.domain,))

    def text(self, var: str = "x1") -> str:
        return (f"[{self.a!r},{self.b!r}]*abs({var} - ({self.c!r}))"
                f" + [{self.al!r},{self.be!r}]*pow2({var} - ({self.e!r})) + [{self.u!r},{self.v!r}]")

    def box(self, x: float):
        """(p_lb, p_ub, q_lb, q_ub) from the slopes of f_lo and f_hi to the
        left and to the right of x: min and max of the two, each side."""
        l, r = self.domain

        def slopes(side):
            sign = 1.0 if x > self.c or x == self.c and side > 0.0 else -1.0
            return [k * sign + 2.0 * w * (x - self.e) for k, w in ((self.a, self.al), (self.b, self.be))]

        left, right = slopes(-1.0) if x > l else [], slopes(1.0) if x < r else []
        return (min(left, default=-math.inf), min(right, default=math.inf),
                max(left, default=-math.inf), max(right, default=math.inf))

    def slope_sup(self, xs) -> float:
        return max(abs(b) for x in xs for b in self.box(x) if abs(b) != math.inf)


# the closed forms of the two proved-convex PROBE_CASES
PROBE_FAMILIES = {
    "kinked": Family(0.5, 2.0, 0.2, 1.0, 0.3, 0.0, 1.0, 2.0, (-1.0, 2.0)),
    "slab": Family(1.0, 3.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, (-2.0, 2.0)),
}


@st.composite
def families(draw):
    """Objectives as the benchmark draws them: kinked at c with e = c, or a
    valley with |e - c| ~ 1, on a box 1.5-2.5 wider than both."""
    def r(lo, hi):
        return round(draw(st.floats(lo, hi)), 4)

    a, al = r(0.5, 1.5), draw(st.sampled_from([r(0.0, 0.5), r(1.0, 2.0)]))
    b, be = round(a + r(0.0, 2.0), 4), round(al + r(0.0, 1.0), 4)
    u = r(-3.0, 3.0)
    c = r(-1.0, 1.0)
    e = round(c + draw(st.sampled_from([0.0, -1.0, 1.0])) * r(0.8, 1.2), 4)
    domain = (round(min(c, e) - r(1.5, 2.5), 4), round(max(c, e) + r(1.5, 2.5), 4))
    return Family(a, b, al, be, c, e, u, round(u + r(0.0, 2.0), 4), domain)


def exact_box(f, x: float):
    """The exact box that the scan reads at x."""
    region = subdiff_scan_1d(f, x, ((0.0, 0.0), (0.0, 0.0)), steps=2)
    assert region.method == "exact"
    return region.box


def exact_box_reference(f: Ivf, x_bar: float, grid=None):
    """The box (p_lb, p_ub, q_lb, q_ub) whose cut by {g_lo <= g_hi} is the
    subdifferential at x_bar of a one-variable F that `expr.convexity`
    proves convex.  None if F is not proved convex, x_bar or the grid's
    nodes leave the domain (the sampled path then raises), the walk
    refuses, or a slope it needs is not finite.

    For convex f_lo the quotient (f_lo(x) - f_lo(x_bar))/(x - x_bar) is
    nondecreasing in x (Rockafellar 1970, Thm 24.1), and so is f_hi's.  So
    every constraint of `_Constraints` binds as x -> x_bar from either side,
    and with the one-sided slopes lo'-, lo'+, hi'-, hi'+ of one
    walk of the compiled tree (`expr.compile_tangents`) along +-1 the box is

        min(lo'-, hi'-) <= g_lo <= min(lo'+, hi'+)
        max(lo'-, hi'-) <= g_hi <= max(lo'+, hi'+),

    unbounded on the outer side at a domain bound.  The samples of any grid
    inside the domain cut out a box that holds it.
    """
    if f.arity != 1:
        return None
    (l, u), = f.domain
    x_bar = float(x_bar)
    if not l <= x_bar <= u or l == u or grid is not None and (
            grid.dim != 1 or grid.lower[0] < l or grid.upper[0] > u):
        return None
    if not f._proved_convex:
        return None
    walk = f._tangents([x_bar], [[1.0], [-1.0]])
    if walk is None:
        return None
    (lo_right, lo_left), (hi_right, hi_left) = walk[2], walk[3]
    left = [0.0 - lo_left, 0.0 - hi_left] if x_bar > l else []
    right = [lo_right, hi_right] if x_bar < u else []
    if not all(map(math.isfinite, left + right)):
        return None
    return (min(left, default=-math.inf), min(right, default=math.inf),
            max(left, default=-math.inf), max(right, default=math.inf))


def in_exact_box_reference(f: Ivf, cand: SubgradientCandidate, grid, tol: float) -> bool:
    """Whether a one-variable candidate lies in the exact box at its base
    point, widened by tol; False wherever `_exact_box` gives none."""
    box = exact_box_reference(f, cand.base_point[0], grid) if len(cand.g) == 1 else None
    if box is None:
        return False
    g = cand.g[0]
    return box[0] - tol <= g.lo <= box[1] + tol and box[2] - tol <= g.hi <= box[3] + tol


@pytest.mark.parametrize("name", sorted(PROBE_FAMILIES))
def test_the_exact_probe_and_lipschitz_bound_read_the_closed_form_slopes(name):
    f, fam = PROBE_CASES[name], PROBE_FAMILIES[name]
    grid = f.grid(101)
    pts = grid.points()
    assert np.allclose(f.eval_many(pts), fam.ivf().eval_many(pts), rtol=0.0, atol=1e-12)
    # the sup over every interior node, and over the open domain
    assert union_boundedness_probe(f, grid) == pytest.approx(
        fam.slope_sup(grid.axes()[0][1:-1]), rel=1e-15)
    domain_sup = fam.slope_sup(fam.domain)
    assert lipschitz_estimate(f, grid) <= domain_sup + 1e-12
    assert lipschitz_from_subgradients_check(f, grid) is True


@settings(max_examples=150, deadline=None)
@given(families(), st.integers(0, 40), st.booleans())
# a kink with no curvature, whose sampled bounds at k = 1 sit exactly the
# box's tol/step away from the exact ones
@example(Family(1.0, 1.0, 0.0, 0.0, 0.0, 0.0, 0.0, 0.0, (-2.0, 1.5)), 1, False)
def test_the_exact_box_lies_in_the_sampled_box_within_the_sampling_slack(fam, k, at_kink):
    f = fam.ivf()
    grid = f.grid(41)
    step = grid.step[0]
    x = fam.c if at_kink else float(grid.axes()[0][k])
    # a kink strictly between x and its neighbours puts a jump in the
    # nearest quotient, which no step-sized slack bounds
    assume(at_kink or abs(x - fam.c) >= step)
    exact = exact_box(f, x)
    assert exact == pytest.approx(fam.box(x), rel=1e-15, abs=1e-15)
    xs = np.array([x])
    sampled = _Constraints(_grid_values(f, grid), xs, f.boundary(xs)).box(1e-10)
    # the curvature over one step, the box's own tol over the nearest
    # displacement, and rounding
    slack = 2.0 * max(fam.al, fam.be) * step + 1e-10 / step + 1e-9
    for s_bound, e_bound, lower in zip(sampled, exact, (True, False, True, False)):
        if math.isinf(e_bound):
            assert s_bound == e_bound
            continue
        # fewer constraints cut the sampled box, so it holds the exact one
        assert s_bound <= e_bound if lower else s_bound >= e_bound
        assert abs(s_bound - e_bound) <= slack


@settings(max_examples=100, deadline=None)
@given(families(), st.floats(-1e17, 1e17), st.integers(0, 200))
def test_the_exact_box_and_probe_do_not_move_under_a_constant_shift(fam, u, k):
    f, g = fam.ivf(), fam.ivf(u)
    x = float(f.grid().axes()[0][k])
    assert g._proved_convex
    assert repr(exact_box(g, x)) == repr(exact_box(f, x))
    assert repr(union_boundedness_probe(g)) == repr(union_boundedness_probe(f))
    # the sup over the open domain bounds every sampled quotient, which
    # a shift would round
    assert lipschitz_from_subgradients_check(f) is True


@settings(max_examples=150, deadline=None)
@given(families(), st.integers(0, 40), st.booleans(), st.sampled_from([1e-10, 0.0, 1e-3]))
def test_the_exact_membership_in_one_variable_is_the_box_test_it_replaces(fam, k, at_kink, tol):
    f = fam.ivf()
    grid = f.grid(41)
    x = fam.c if at_kink else float(grid.axes()[0][k])
    box = exact_box_reference(f, x, grid)
    assert repr(exact_box(f, x)) == repr(box)
    sets = _exact_sets(f, [x], grid)
    # endpoints on each finite bound, and on either side of it by tol or
    # by less, where the widening decides, and far outside the box
    ends = sorted({b + d for b in box if math.isfinite(b)
                   for d in (-2.0 * tol, -tol, -tol / 2.0, 0.0, tol / 2.0, tol, 2.0 * tol)}
                  | {-50.0, 50.0})
    for p, q in itertools.combinations_with_replacement(ends, 2):
        cand = SubgradientCandidate(IVector.of(Interval(p, q)), (x,))
        assert _in_exact(sets, cand.g, tol) == in_exact_box_reference(f, cand, grid, tol)


def separable_ivf(fams) -> Ivf:
    """The objectives of `families()` on the axes x1, x2, ..., summed."""
    text = " + ".join(fam.text(f"x{i + 1}") for i, fam in enumerate(fams))
    return Ivf.from_text(len(fams), text, tuple(fam.domain for fam in fams))


def local_values(f: Ivf, x, radius: float, count: int):
    """F at the nodes of a grid of `count` nodes per axis around x, with
    x_i +- radius at its ends, less the nodes outside the domain."""
    axes = [np.unique(np.clip(v + radius * np.linspace(-1.0, 1.0, count), l, u))
            for v, (l, u) in zip(x, f.domain)]
    pts = np.stack([m.ravel() for m in np.meshgrid(*axes, indexing="ij")], axis=1)
    return _GridValues(pts, *f.eval_many(pts))


@settings(max_examples=150, deadline=None)
@given(st.sampled_from([2, 3]), st.data())
def test_the_exact_subdifferential_law_holds_both_ways_in_two_and_three_variables(n, data):
    """An exact YES is a sampled YES on the default-spaced grid; an exact NO
    is a sampled NO, with no slack, on a grid of radius 1e-4 around x_bar,
    where the curvature of f_lo and f_hi is far below the slopes' gap."""
    fams = [data.draw(families()) for _ in range(n)]
    f = separable_ivf(fams)
    # each axis at its kink, its quadratic's centre, a domain bound or inside
    x = [data.draw(st.just(fam.c) | st.sampled_from([fam.e, *fam.domain]) | st.floats(*fam.domain))
         for fam in fams]
    # off a kink or a bound, the local grid must not reach it
    assume(all(v in (fam.c, *fam.domain) or min(abs(v - fam.c), *(abs(v - b) for b in fam.domain))
               >= 1e-3 for v, fam in zip(x, fams)))
    sets = _exact_sets(f, x)
    assert sets is not None
    comps = []
    for fam, v in zip(fams, x):
        # ends on the bounds of A_i and B_i, between them, or anywhere
        bounds = [b for b in fam.box(v) if math.isfinite(b)]
        end = st.sampled_from(bounds) | st.floats(min(bounds), max(bounds)) | st.floats(-6.0, 6.0)
        comps.append(Interval(*sorted((data.draw(end), data.draw(end)))))
    g = IVector.of(*comps)
    xs = np.array(x)
    if _in_exact(sets, g, 1e-10):
        values = _grid_values(f, f.grid(41 if n == 2 else 17))
        assert _Constraints(values, xs, f.boundary(xs)).check(g, 1e-10) == (True, None)
    elif not _in_exact(sets, g, 1e-3):
        # a NO that stands with the slopes 1e-3 apart, which the local
        # grid resolves; a closer one needs a finer grid closer to x_bar
        values = local_values(f, x, 1e-4, 41 if n == 2 else 21)
        assert not _Constraints(values, xs, f.boundary(xs)).check(g, 0.0)[0]


@pytest.mark.parametrize("f", [piecewise_vee_ivf(), KINKED_1D, quartic_ivf()])
def test_feasible_box_matches_at_every_interior_node(f):
    grid = f.grid(101)
    values = _grid_values(f, grid)
    for x_bar in grid.axes()[0][1:-1]:
        x = np.array([float(x_bar)])
        assert (_Constraints(values, x, f.boundary(x)).box(1e-10)
                == feasible_box_reference(f, float(x_bar), grid, 1e-10))


@pytest.mark.parametrize("f", [piecewise_vee_ivf(), KINKED_1D, quartic_ivf()])
def test_k_row_constraints_match_single_point_builds(f):
    grid = f.grid(101)
    values = _grid_values(f, grid)
    x_bar = grid.axes()[0][1:-1, None]
    f0_lo, f0_hi = values.lo[1:-1], values.hi[1:-1]
    many = _Constraints(values, x_bar, (f0_lo, f0_hi))
    box = many.box(1e-10)
    # the centre of each feasible box, shifted out of it at every other
    # base point, so rows pass and fail
    shift = np.where(np.arange(len(x_bar)) % 2 == 0, 0.0, 0.5)[:, None]
    p = (box[0] + box[1])[:, None] / 2.0 + shift
    q = np.maximum(p, (box[2] + box[3])[:, None] / 2.0 + shift)
    bad = many.violations(p, q, 1e-10)
    lhs = many.pairing(p, q)
    assert bad.any(axis=1).any() and not bad.any(axis=1).all()
    for k, x in enumerate(x_bar):
        one = _Constraints(values, x, (f0_lo[k], f0_hi[k]))
        assert (np.array(one.box(1e-10)).tobytes()
                == np.array([b[k] for b in box]).tobytes())
        assert np.array_equal(one.violations(p[k:k + 1], q[k:k + 1], 1e-10), bad[k:k + 1])
        for a, b in zip(one.pairing(p[k:k + 1], q[k:k + 1]), lhs):
            assert a.tobytes() == b[k:k + 1].tobytes()


def test_an_error_of_f_at_a_trace_iterate_propagates_unchanged(monkeypatch):
    f = piecewise_vee_ivf()
    grid = f.grid(201)
    trace = scalarized_descent(Iop(f), [-2.0], grid=grid).trace
    # an iterate after the start and off the grid, so only its walk meets it
    point = trace[len(trace) // 2].x
    assert len(trace) > 2 and not (grid.points() == point).all(axis=-1).any()
    eval_many, compile_tangents = Ivf.eval_many, ivf_module.compile_tangents

    def refusing(self, xs):
        if (np.asarray(xs) == point).all(axis=-1).any():
            raise ZeroDivisionError(f"F refused at {point}")
        return eval_many(self, xs)

    def refusing_walker(node):
        # the walk refuses the iterate, so the descent asks eval_many there
        walk = compile_tangents(node)
        return lambda x, dirs: None if tuple(x) == point else walk(x, dirs)

    monkeypatch.setattr(Ivf, "eval_many", refusing)
    monkeypatch.setattr(ivf_module, "compile_tangents", refusing_walker)
    # a fresh objective, whose walker is compiled under the patch
    p = Iop(piecewise_vee_ivf())
    for descent in (scalarized_descent, descent_reference):
        with pytest.raises(ZeroDivisionError, match=f"^{re.escape(f'F refused at {point}')}$"):
            descent(p, [-2.0], grid=grid)


# (objective, grid samples, candidate)
WITNESS_CASES = {
    "2d": (Ivf.from_text(2, "[1,2]*pow2(x1) + [0,1]*abs(x2 - 0.25) + [3,4]",
                         ((-1.0, 1.0), (-0.5, 2.0))), 41,
           SubgradientCandidate(IVector.of(Interval(0.5, 1.5), Interval(-1.0, 2.0)),
                                (0.2, 0.25))),
    # mixed-sign endpoints on every axis, so each displacement sign picks a
    # different endpoint and the axis order of the accumulation shows
    "3d": (Ivf.from_text(3, "[1,2]*pow2(x1) + [0,1]*abs(x2 - 0.25)"
                            " + [0.5,3]*pow2(x3 + 0.1) + [3,4]",
                         ((-1.0, 1.0), (-0.5, 2.0), (-1.0, 0.5))), 13,
           SubgradientCandidate(IVector.of(Interval(-0.3, 0.7), Interval(-1.0, 2.0),
                                           Interval(-0.9, 0.1)), (0.2, 0.25, -0.1))),
}


def test_witnesses_match_on_a_2d_no_case():
    for f, samples, cand in WITNESS_CASES.values():
        grid = f.grid(samples)
        x_bar = np.asarray(cand.base_point)
        cons = _Constraints(_grid_values(f, grid), x_bar, f.boundary(x_bar))
        lhs = cons.pairing(np.array([[c.lo for c in cand.g]]),
                           np.array([[c.hi for c in cand.g]]))
        reference = pairing_reference(grid.points() - x_bar[None, :], cand.g)
        assert all(np.array_equal(a[0], b) for a, b in zip(lhs, reference))
        expected = subgradient_reference(f, cand, grid)
        assert expected[0] is False
        assert is_subgradient(f, cand, grid) == expected
        strict = subgradient_reference(f, cand, grid, strict=True)
        assert strict[0] is False
        assert is_subgradient_strict_variant(f, cand, grid) == strict


# --------------------------------------------------------------------------
# The compiled evaluator against the recursive tree walker
# --------------------------------------------------------------------------

_PIECE_AGREEMENT_TOL = 1e-12


def walk_lo_hi(node, xs):
    """Evaluate an expression at every row of xs, returning (lo, hi) arrays."""
    n_pts = xs.shape[0]
    if isinstance(node, Const):
        return (np.full(n_pts, node.value.lo), np.full(n_pts, node.value.hi))
    if isinstance(node, Var):
        col = np.asarray(xs[:, node.index], dtype=float)
        return col.copy(), col.copy()
    if isinstance(node, BinOp):
        llo, lhi = walk_lo_hi(node.left, xs)
        rlo, rhi = walk_lo_hi(node.right, xs)
        if node.op == "+":
            return llo + rlo, lhi + rhi
        if node.op == "-":
            return llo - rhi, lhi - rlo
        if node.op == "ghsub":
            dlo = llo - rlo
            dhi = lhi - rhi
            return np.minimum(dlo, dhi), np.maximum(dlo, dhi)
        if node.op == "*":
            prods = np.stack([llo * rlo, llo * rhi, lhi * rlo, lhi * rhi])
            return prods.min(axis=0), prods.max(axis=0)
        if node.op == "/":
            if np.any((rlo <= 0.0) & (rhi >= 0.0)):
                bad = int(np.argmax((rlo <= 0.0) & (rhi >= 0.0)))
                raise ZeroInDenominator(
                    f"denominator contains 0 at point {xs[bad].tolist()}"
                )
            quots = np.stack([llo / rlo, llo / rhi, lhi / rlo, lhi / rhi])
            return quots.min(axis=0), quots.max(axis=0)
        raise ValueError(f"unknown operator {node.op!r}")  # pragma: no cover
    if isinstance(node, Abs):
        lo, hi = _degenerate_child(node.child, xs, "abs")
        v = np.abs(lo)
        return v, v.copy()
    if isinstance(node, Pow):
        lo, hi = _degenerate_child(node.child, xs, f"pow{node.exponent}")
        v = lo ** node.exponent
        return v, v.copy()
    if isinstance(node, Norm):
        v = np.sqrt(np.sum(xs * xs, axis=1))
        return v, v.copy()
    if isinstance(node, Piecewise):
        return _walk_piecewise(node, xs)
    raise TypeError(f"not an expression node: {node!r}")  # pragma: no cover


def _degenerate_child(child, xs, op_name):
    lo, hi = walk_lo_hi(child, xs)
    if np.any(lo != hi):
        bad = int(np.argmax(lo != hi))
        raise NonDegenerateRealNode(
            f"{op_name} needs a real-valued argument, got "
            f"[{lo[bad]}, {hi[bad]}] at point {xs[bad].tolist()}"
        )
    return lo, hi


def _walk_piecewise(node, xs):
    n_pts = xs.shape[0]
    out_lo = np.full(n_pts, np.nan)
    out_hi = np.full(n_pts, np.nan)
    covered = np.zeros(n_pts, dtype=bool)
    for guard, body in node.pieces:
        mask = guard.holds(xs)
        if not mask.any():
            continue
        lo, hi = walk_lo_hi(body, xs[mask])
        overlap = covered[mask]
        if overlap.any():
            # Closed guards meet at shared boundaries; that is only legal
            # when both pieces agree there, otherwise the pieces fail to
            # partition the domain.
            if (np.max(np.abs(lo[overlap] - out_lo[mask][overlap])) > _PIECE_AGREEMENT_TOL
                    or np.max(np.abs(hi[overlap] - out_hi[mask][overlap])) > _PIECE_AGREEMENT_TOL):
                where = xs[mask][overlap][0]
                raise OverlappingPieces(
                    f"guards overlap with different values at {where.tolist()}"
                )
        tmp_lo = out_lo[mask]
        tmp_hi = out_hi[mask]
        fresh = ~overlap
        tmp_lo[fresh] = lo[fresh]
        tmp_hi[fresh] = hi[fresh]
        out_lo[mask] = tmp_lo
        out_hi[mask] = tmp_hi
        covered |= mask
    if not covered.all():
        where = xs[~covered][0]
        raise PiecewiseCoverageError(f"no guard covers point {where.tolist()}")
    return out_lo, out_hi


def same_floats(a, b):
    """Equal bit for bit, except that any NaN equals any NaN (numpy does not
    promise which NaN payload min, max or arithmetic return)."""
    a, b = np.asarray(a, dtype=float), np.asarray(b, dtype=float)
    nan = np.isnan(a)
    return (a.shape == b.shape and np.array_equal(nan, np.isnan(b))
            and np.array_equal(a[~nan].view(np.int64), b[~nan].view(np.int64)))


# signed zeros, ties and magnitudes whose products overflow or underflow
EDGE_FLOATS = st.sampled_from([0.0, -0.0, 1.0, -1.0, 2.0, 0.5, -3.0, 1e-300, 1e300])
CONST_FLOATS = st.one_of(EDGE_FLOATS, st.floats(-5, 5, allow_nan=False, width=16))
POINT_FLOATS = st.one_of(EDGE_FLOATS, st.floats(-5, 5, width=16),
                         st.sampled_from([math.nan, math.inf, -math.inf]))


@st.composite
def constants(draw):
    a, b = draw(CONST_FLOATS), draw(CONST_FLOATS)
    if draw(st.booleans()):
        b = a
    return Const(Interval(min(a, b), max(a, b)))


def trees(arity=2):
    leaves = st.one_of(constants(), st.builds(Var, st.integers(0, arity - 1)),
                       st.just(Norm()))

    def extend(children):
        guards = st.builds(
            lambda i, le, bound: Guard((Comparison(i, "<=" if le else ">=", bound),)),
            st.integers(0, arity - 1), st.booleans(), CONST_FLOATS)
        # two pieces cut at one bound, sometimes with one body, plus extras
        cut = st.tuples(st.integers(0, arity - 1), CONST_FLOATS, children, children,
                        st.booleans()).map(lambda t: (
                            (Guard((Comparison(t[0], "<=", t[1]),)), t[2]),
                            (Guard((Comparison(t[0], ">=", t[1]),)), t[2] if t[4] else t[3])))
        return st.one_of(
            st.builds(BinOp, st.sampled_from(["+", "-", "ghsub", "*", "/"]),
                      children, children),
            st.builds(Abs, children),
            st.builds(Pow, st.integers(1, 6), children),
            st.builds(lambda pieces, extra: Piecewise(pieces + tuple(extra)),
                      cut, st.lists(st.tuples(guards, children), max_size=1)),
        )
    return st.recursive(leaves, extend, max_leaves=8)


def outcome_of(evaluate, node, xs):
    try:
        with np.errstate(all="ignore"):
            return evaluate(node, xs)
    except (ZeroInDenominator, NonDegenerateRealNode, OverlappingPieces,
            PiecewiseCoverageError) as exc:
        return type(exc), str(exc)


@settings(max_examples=500, deadline=None)
@given(trees(), st.lists(st.tuples(POINT_FLOATS, POINT_FLOATS), max_size=6))
def test_compiled_evaluator_matches_the_tree_walker(node, rows):
    xs = np.array(rows, dtype=float).reshape(len(rows), 2)
    compiled = compile_lo_hi(node)
    # one compiled function, called on two point sets
    for pts in (xs, xs[1:]):
        got = outcome_of(lambda _, p: compiled(p), node, pts)
        expected = outcome_of(walk_lo_hi, node, pts)
        if isinstance(expected[0], type):
            assert got == expected
        else:
            assert not isinstance(got[0], type), got
            assert same_floats(got[0], expected[0]) and same_floats(got[1], expected[1])
            # fresh arrays: neither endpoint aliases the other or the points
            assert not np.shares_memory(got[0], got[1])
            assert not np.shares_memory(got[0], pts) and not np.shares_memory(got[1], pts)


# signed zeros show through: [-0,0] is no real constant, a zero times or
# over [-1,2] ties -0.0 with 0.0, and at a shared guard boundary the
# earlier piece's value stays, down to the sign of zero and below the
# agreement tolerance
@pytest.mark.parametrize("text", [
    "[1,2]", "3", "x1", "x1 - 0.5", "[1,2]*x1", "x1*[1,2]", "[-1,2]/x1", "x1/[1,2]",
    "[1,2]*[3,4]", "2*3 + x1", "[1,2] ghsub x1", "abs(x1)*[1,3]", "pow3(x1 - 1)",
    "norm()*[0,1]", "x1/0", "abs([1,2])", "pow2([-0,0]*x1)", "[-0,0]", "-0",
    "[-0,0]*x1", "[-1,2]*x1", "x1*[-1,2]", "[-1,2]*[-0,0]",
    "piecewise{ x1 <= 0 => x1; x1 >= 0 => 0 - x1; }",
    "piecewise{ x1 <= 0.5 => x1; x1 >= 0.5 => x1 + 1e-13; }",
    "piecewise{ x1 <= 0.5 => x1; x1 >= 0.5 => x1 + 1e-3; }"])
def test_compiled_evaluator_matches_on_the_grammar(text):
    from ghcalc.expr import parse_expr
    node = parse_expr(text)
    xs = np.array([[-2.0], [-0.0], [0.0], [0.5], [1.0], [math.nan], [math.inf]])
    for rows in (xs, xs[:0], xs[3:4]):
        got, expected = outcome_of(eval_lo_hi, node, rows), outcome_of(walk_lo_hi, node, rows)
        if isinstance(expected[0], type):
            assert got == expected
        else:
            assert same_floats(got[0], expected[0]) and same_floats(got[1], expected[1])


# --------------------------------------------------------------------------
# The convexity proof against the sampled check
# --------------------------------------------------------------------------

CONVEXITY_BOX = ((-1.0, 1.0), (-0.5, 2.0))


def subtrees(node):
    yield node
    for child in ((node.left, node.right) if isinstance(node, BinOp)
                  else (node.child,) if isinstance(node, (Abs, Pow)) else ()):
        yield from subtrees(child)


def composed_trees(arity=2):
    """Trees of the shapes the proof's rules take apart: constants times,
    sums, differences, ghsub, abs and pow of subtrees, and quotients by
    constants, with coefficients of either sign."""
    def extend(children):
        return st.one_of(
            st.builds(BinOp, st.sampled_from(["+", "-", "ghsub"]), children, children),
            st.builds(lambda k, g, left: BinOp("*", k, g) if left else BinOp("*", g, k),
                      constants(), children, st.booleans()),
            st.builds(lambda g, k: BinOp("/", g, k), children, constants()),
            st.builds(Abs, children),
            st.builds(Pow, st.integers(1, 4), children),
        )
    return st.recursive(st.one_of(constants(), st.builds(Var, st.integers(0, arity - 1))),
                        extend, max_leaves=8)


@settings(max_examples=400, deadline=None)
@given(st.one_of(trees(), composed_trees()))
def test_what_the_proof_claims_holds_at_the_samples(node):
    # with every value up to 1e3 the rounding of F stays far below the
    # 1e-10 slack; the proof is about exact arithmetic
    assume(all(max(-c.lo, c.hi) <= 1e3 for c in (convexity(t, CONVEXITY_BOX)
                                                 for t in subtrees(node))))
    claim, f = convexity(node, CONVEXITY_BOX), Ivf(2, node, CONVEXITY_BOX)
    grid = f.grid(9)
    if claim.convex:
        assert is_convex_sampled(f, grid) == (True, None)
    # each endpoint's claimed curvature, on its own, at the same mixtures
    pts = grid.points()
    ii, jj = np.triu_indices(pts.shape[0], k=1)
    ends = f.eval_many(pts)
    for lam in (0.25, 0.5, 0.75):
        mixed = f.eval_many(lam * pts[ii] + (1.0 - lam) * pts[jj])
        for curv, v, mix in zip((claim.lo_curv, claim.hi_curv), ends, mixed):
            gap = mix - (lam * v[ii] + (1.0 - lam) * v[jj])
            assert not curv & CONVEX or gap.max() <= 1e-10
            assert not curv & CONCAVE or gap.min() >= -1e-10


@settings(max_examples=300, deadline=None)
@given(st.one_of(trees(), composed_trees()),
       st.lists(st.tuples(st.floats(-1.0, 1.0), st.floats(-0.5, 2.0)), min_size=1, max_size=6))
def test_the_enclosure_holds_the_values_over_the_box(node, rows):
    c = convexity(node, CONVEXITY_BOX)
    assume(math.isfinite(c.lo))
    # a node with a finite enclosure evaluates without an error or a warning
    lo, hi = eval_lo_hi(node, np.array(rows))
    # it bounds exact values, and the floats may round past a tight bound
    slack = 1e-12 * max(1.0, -c.lo, c.hi)
    assert c.lo - slack <= lo.min() and hi.max() <= c.hi + slack
    assert not c.real or np.array_equal(lo, hi)


# --------------------------------------------------------------------------
# The compiled tangent walker against the recursive one
# --------------------------------------------------------------------------


def tangents_reference(node, x, dirs):
    """(lo, hi, dlo, dhi): F's endpoints at the point x and their one-sided
    derivatives along each h in dirs, as lists, by one recursive forward
    walk of the tree, kept as written before the compiled walker replaced
    it.  None at a value that is not finite where ghsub, * or / take it, at
    a non-degenerate abs/pow argument, a denominator holding 0 or not
    finite, an uncovered point, and where an abs/pow argument or the pieces
    fail along some h."""
    if isinstance(node, BinOp):
        left = tangents_reference(node.left, x, dirs)
        right = tangents_reference(node.right, x, dirs)
        if left is None or right is None:
            return None
        (llo, lhi, dllo, dlhi), (rlo, rhi, drlo, drhi) = left, right
        if node.op == "+":
            return (llo + rlo, lhi + rhi, [s + t for s, t in zip(dllo, drlo)],
                    [s + t for s, t in zip(dlhi, drhi)])
        if node.op == "-":
            return (llo - rhi, lhi - rlo, [s - t for s, t in zip(dllo, drhi)],
                    [s - t for s, t in zip(dlhi, drlo)])
        # an end of ghsub, * or / is the min or max of corners (a op b); where
        # corners tie at it, its tangent is the min or max of theirs.  A real
        # operand has one end, so * and / take two corners
        ends = [(llo, dllo), (lhi, dlhi)], [(rlo, drlo), (rhi, drhi)]
        if node.op == "ghsub":
            corners = [(a - b, [s - t for s, t in zip(da, db)]) for (a, da), (b, db) in zip(*ends)]
        else:
            lends, rends = (e[:1] if e[0] == e[1] else e for e in ends)
            if node.op == "*":
                corners = [(a * b, [s * b + a * t for s, t in zip(da, db)])
                           for a, da in lends for b, db in rends]
            elif 0.0 < rlo and rhi < math.inf or -math.inf < rlo and rhi < 0.0:
                corners = [(a / b, [(s - a / b * t) / b for s, t in zip(da, db)])
                           for a, da in lends for b, db in rends]
            else:
                return None
        if not all(math.isfinite(c) for c, _ in corners):
            return None
        lo, hi = min(c for c, _ in corners), max(c for c, _ in corners)
        return (lo, hi, [min(ts) for ts in zip(*(d for c, d in corners if c == lo))],
                [max(ts) for ts in zip(*(d for c, d in corners if c == hi))])
    if isinstance(node, Const):
        zero = [0.0] * len(dirs)
        return node.value.lo, node.value.hi, zero, zero
    if isinstance(node, Var):
        d = [h[node.index] for h in dirs]
        return x[node.index], x[node.index], d, d
    if isinstance(node, Norm):  # the squares summed in numpy's order
        r = math.sqrt(float(np.sum([v * v for v in x])))
        d = [math.sqrt(sum(t * t for t in h)) if r == 0.0
             else sum(v * t for v, t in zip(x, h)) / r for h in dirs]
        return r, r, d, d
    if isinstance(node, (Abs, Pow)):
        arg = tangents_reference(node.child, x, dirs)
        if arg is None or not (arg[0] == arg[1] and arg[2] == arg[3]):
            return None
        v, _, d, _ = arg
        if isinstance(node, Abs):
            value, d = abs(v), [abs(t) if v == 0.0 else t if v > 0.0 else -t for t in d]
        else:
            e = node.exponent
            value = v if e == 1 else v * v if e == 2 else _power(v, e)
            if not math.isfinite(value):
                return None
            d = [e * v ** (e - 1) * t for t in d]  # |v|**(e-1) <= max(1, |value|): finite
        return value, value, d, d
    # a piecewise node: the first piece that holds at x gives the value, and every
    # later one must agree; along h, the first that holds ahead gives the tangent,
    # so each piece is walked with the directions it is picked for
    held = [(guard, body) for guard, body in node.pieces if guard.ahead(x)]
    picks = [next((k for k, (guard, _) in enumerate(held) if guard.ahead(x, h)), None) for h in dirs]
    walks = [tangents_reference(body, x, [h for h, k in zip(dirs, picks) if k == j])
             for j, (_, body) in enumerate(held)]
    tol = _PIECE_AGREEMENT_TOL
    if not walks or None in picks + walks or not all(
            abs(w[0] - walks[0][0]) <= tol and abs(w[1] - walks[0][1]) <= tol for w in walks):
        return None
    ends = [iter(zip(w[2], w[3])) for w in walks]
    ds = [next(ends[k]) for k in picks]
    return walks[0][0], walks[0][1], [a for a, _ in ds], [b for _, b in ds]


# per arity, built once: hypothesis is slow to draw from a strategy built anew
ROW_CASES = {n: (trees(n), st.lists(st.tuples(*[POINT_FLOATS] * n), min_size=1, max_size=4))
             for n in range(1, 10)}


@st.composite
def trees_and_rows(draw):
    tree, rows = ROW_CASES[draw(st.integers(1, 9))]
    return draw(tree), np.array(draw(rows), dtype=float)


# The compiled walker gives the recursive one's floats, refusals included,
# for any number of directions.  Where it takes a point with finite
# endpoints, compile_lo_hi neither raises nor warns there and gives the same
# endpoints (== here: a tie may pick the other signed zero), and a
# direction can only add refusals.
@settings(max_examples=400, deadline=None)
@given(trees_and_rows(), st.lists(st.lists(POINT_FLOATS, min_size=9, max_size=9), max_size=3))
# corners that tie at 0 with different tangents, in * and in ghsub
@example((BinOp("ghsub", BinOp("*", Var(0), Const(Interval(1.0, 2.0))), Var(0)), np.zeros((1, 1))),
         [[1.0] * 9, [-1.0] * 9])
@example((BinOp("*", Const(Interval(-1.0, 1.0)), Var(0)), np.zeros((1, 1))), [[1.0] * 9])
def test_the_compiled_walker_matches_the_recursive_one(case, hs):
    node, xs = case
    walk = compile_tangents(node)
    dirs = [h[:xs.shape[1]] for h in hs]
    for x in xs.tolist():
        for some in (dirs, dirs[:1], []):
            assert repr(walk(x, some)) == repr(tangents_reference(node, x, some))
        at, along = walk(x, []), walk(x, dirs)
        assert along is None or at is not None and repr(along[:2]) == repr(at[:2])
        if at is not None and math.isfinite(at[0]) and math.isfinite(at[1]):
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                lo, hi = compile_lo_hi(node)(np.array([x]))
            assert at[:2] == (lo[0], hi[0])


# at these points compile_lo_hi warns: an overflowed denominator divides to
# 0, a later piece's NaN at an overlap is dropped, and a NaN meets a finite
# value in np.minimum and np.maximum, which let it through
@pytest.mark.parametrize("text, x", [
    ("1 / (x1*1e300)", 1e300),
    ("[1,2] / (x1*[1e300,1e301])", 1e300),
    ("piecewise{ x1 <= 1 => x1; x1 >= 1 => x1*1e300*1e300 - x1*1e300*1e300; }", 1.0),
    ("x1*[-1e300,1] ghsub x1*[-1e300,2]", 1e300),
])
def test_a_point_where_the_compiled_evaluator_warns_is_one_the_walk_refuses(text, x):
    f = Ivf.from_text(1, text, ((0.0, x),))
    walk = f._tangents([x], [])
    assert walk is None or not (math.isfinite(walk[0]) and math.isfinite(walk[1]))
    # so a derivative or a descent asks eval_many there, which warns
    with warnings.catch_warnings(record=True) as caught, pytest.raises(NonFiniteDerivative):
        warnings.simplefilter("always")
        ivf_module._walk(f, [x], [[1.0]])
    assert any(issubclass(w.category, RuntimeWarning) for w in caught)


def test_the_walker_takes_the_benchmarked_objectives():
    # no refusal on the descent's objectives, and eval_many's endpoints
    for f in (piecewise_vee_ivf(), seeded_1d_objective(301, False), seeded_1d_objective(401, True),
              quartic_ivf()):
        pts = f.grid(401).points()
        lo, hi = f.eval_many(pts)
        assert [f._tangents(x, [])[:2] for x in pts.tolist()] == list(zip(lo.tolist(), hi.tolist()))


# Facts about numpy's floats that the walker reproduces, each measured on
# this numpy: if one stops holding, the walker must follow it.
DRAWS = np.random.default_rng(1501).uniform(-5.0, 5.0, 200_000)


def test_numpy_squares_as_x_times_x_where_python_s_power_does_not():
    assert np.array_equal((DRAWS ** 2).view(np.int64), (DRAWS * DRAWS).view(np.int64))
    assert sum(v ** 2 != v * v for v in DRAWS.tolist()) > 50


@pytest.mark.parametrize("e", [3, 4, 5, 6])
def test_numpy_s_power_of_three_or_more_is_not_python_s(e):
    draws = DRAWS[:20_000]
    array = (draws ** e).tolist()
    assert sum(a != v ** e for a, v in zip(array, draws.tolist())) > 100
    assert [_power(v, e) for v in draws.tolist()] == array


def test_numpy_sums_a_row_sequentially_below_8_and_pairwise_from_8():
    rng = np.random.default_rng(1502)
    for n in list(range(1, 20)) + [130, 200]:
        xs = rng.uniform(-5, 5, (2000, n)) * 10.0 ** rng.integers(-8, 8, (2000, n))
        squares = xs * xs
        sequential = [sum_in_order(r) for r in squares.tolist()]
        differs = np.count_nonzero(np.sum(squares, axis=1) != sequential)
        assert (differs == 0) if n < 8 else (differs > 0), n
        walk, (norm, _) = compile_tangents(Norm()), compile_lo_hi(Norm())(xs)
        assert [walk(x, [])[0] for x in xs.tolist()] == norm.tolist(), n


def sum_in_order(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_where_corners_tie_the_walker_keeps_the_first_signed_zero_and_numpy_the_second():
    for n in (1, 3, 17):
        zero, negzero = np.zeros(n), -np.zeros(n)
        for fn in (np.minimum, np.maximum):
            assert np.signbit(fn(zero, negzero)).all() and not np.signbit(fn(negzero, zero)).any()
    # the corners of [-1,2]*x1 at 0 are -0.0 and 0.0: Python's min and max
    # keep the first, numpy's the second, so the ends are equal but for sign
    node = BinOp("*", Const(Interval(-1.0, 2.0)), Var(0))
    lo, hi = compile_lo_hi(node)(np.array([[0.0]]))
    walk = compile_tangents(node)([0.0], [])
    assert repr(walk[:2]) == "(-0.0, -0.0)" and repr((lo[0].item(), hi[0].item())) == "(0.0, 0.0)"
