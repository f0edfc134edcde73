"""The fast grid kernels against the plain definitions they replace.

The references below enumerate every pair of grid nodes (convexity,
Lipschitz quotient) or build the N x N strict-dominance matrix
(efficiency).  They are quadratic in time and memory, so the grids here
stay small, but some are large enough to span several row blocks of the
blocked pair walk.  The subgradient references evaluate F on the whole
grid at every check, where the library evaluates it once per verdict and
shares the values between checks.  The pairing and the box-norm sup
are kept here as written before the constraint set replaced them, so they
are independent of the code under test.  The descent reference evaluates
F one axis at a time and clips with np.clip, where the library evaluates
one stencil of 2n + 1 rows per iteration.  The recursive tree walker is
kept as written before the compiled evaluator replaced it, and the
compiled evaluator is the reference of the generated row kernel.  What the
convexity proof claims of random trees is checked at the samples of the
sampled convexity check and against evaluation.
"""

import math
import re
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghcalc import Grid, Interval, IVector, Ivf, WMapConfig
from ghcalc import ivf as ivf_module
from ghcalc.cli import parse_problem_file
from ghcalc.errors import (
    EmptySubdifferentialEncountered,
    NonDegenerateRealNode,
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
    compile_row,
    convexity,
    eval_lo_hi,
    tangents,
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
    _grid_values,
    is_subgradient,
    is_subgradient_strict_variant,
    lipschitz_from_subgradients_check,
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
        mix_lo, mix_hi = f.eval_many(lam * pts[ii] + lam_p * pts[jj], check_domain=False)
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

    def keep(self, xs, check_domain=True):
        values = eval_many(self, xs, check_domain)
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


def box_norm_sup_reference(box, scan_bounds=None):
    """Sup of max(|p|, |q|) over the feasible box cut by {p <= q}, and the
    vertices it was evaluated at."""
    p_lb, p_ub, q_lb, q_ub = box
    if scan_bounds is not None:
        p_lb = max(p_lb, scan_bounds[0][0])
        p_ub = min(p_ub, scan_bounds[0][1])
        q_lb = max(q_lb, scan_bounds[1][0])
        q_ub = min(q_ub, scan_bounds[1][1])
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
    time: the slope on axis i is the difference quotient of phi_w between
    x -+ 1e-4*(1 + |x_i|)*e_i, each clipped to the box.  The step is the
    larger of 0.1/sqrt(k+1) and the Polyak step to the level: the grid's
    least phi_w until an iterate reaches it, then the record less delta,
    where delta halves after every iterate that lowers the record by less
    than delta/2.  The best iterate is picked from the strict-dominance
    matrix of the trace, and its flag from that of the grid, which is
    evaluated before the first iterate."""
    f = p.objective
    x = np.asarray(x0, dtype=float).ravel()
    lower = np.array([l for l, _ in f.domain])
    upper = np.array([u for _, u in f.domain])

    def phi(lo, hi):
        return cfg.w * lo + cfg.w_prime * hi

    pts = grid.points()
    grid_lo, grid_hi = f.eval_many(pts)
    least = float(np.min(phi(grid_lo, grid_hi)))
    record = delta = None
    trace = []
    for k in range(iters):
        value = f.eval(x)
        slope = np.zeros(len(x))
        for i in range(len(x)):
            h = 1e-4 * (1.0 + abs(x[i]))
            down, up = x.copy(), x.copy()
            down[i] = np.clip(x[i] - h, lower[i], upper[i])
            up[i] = np.clip(x[i] + h, lower[i], upper[i])
            if up[i] > down[i]:
                lo, hi = f.eval_many(np.stack([down, up]))
                slope[i] = (phi(lo[1], hi[1]) - phi(lo[0], hi[0])) / (up[i] - down[i])
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


def probe_reference(f, grid, scan_bounds=None, tol=1e-10, on_empty="skip"):
    """Sup of the candidate norm, re-evaluating the grid for every base
    point's box and every vertex re-check."""
    sup = 0.0
    for x_bar in grid.axes()[0][1:-1]:
        local, verts = box_norm_sup_reference(
            feasible_box_reference(f, float(x_bar), grid, tol), scan_bounds)
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
    "vee": (piecewise_vee_ivf(), None),
    "kinked": (KINKED_1D, None),
    "kinked_scan_bounds": (KINKED_1D, ((-1.0, 0.5), (-0.5, 1.0))),
    "slab": (abs_slab_ivf(), None),
    "quartic": (quartic_ivf(), None),
}


def outcome(call):
    try:
        return call()
    except EmptySubdifferentialEncountered as exc:
        return f"raised: {exc}"


@pytest.mark.parametrize("name", sorted(PROBE_CASES))
def test_probe_and_lipschitz_check_match_the_per_vertex_probe(name):
    f, bounds = PROBE_CASES[name]
    grid = f.grid(101)
    assert union_boundedness_probe(f, grid, bounds) == probe_reference(f, grid, bounds)
    expected = outcome(lambda: lipschitz_estimate(f, grid)
                       <= probe_reference(f, grid, bounds, on_empty="raise") + 1e-6)
    assert outcome(lambda: lipschitz_from_subgradients_check(f, grid, bounds)) == expected


def test_probe_names_the_frontier_point_the_per_vertex_probe_names():
    # at this scale the slack is far below the rounding of the box
    # quotients, so a box vertex fails its re-verification; here the
    # vertices of the seventh base point fail at different samples
    f = Ivf.from_text(1, "[7e299,5e300]*pow4(x1)", ((-1.0, 1.0),))
    grid = f.grid(31)
    expected = outcome(lambda: probe_reference(f, grid))
    assert expected.startswith("raised: frontier candidate failed re-verification")
    assert outcome(lambda: union_boundedness_probe(f, grid)) == expected


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
    # an iterate after the start and off the grid, so only a stencil meets it
    point = trace[len(trace) // 2].x
    assert len(trace) > 2 and not (grid.points() == point).all(axis=-1).any()
    eval_many, compile_row = Ivf.eval_many, ivf_module.compile_row

    def refusing(self, xs, check_domain=True):
        if (np.asarray(xs) == point).all(axis=-1).any():
            raise ZeroDivisionError(f"F refused at {point}")
        return eval_many(self, xs, check_domain)

    def refusing_row(node, arity):
        # the row kernel refuses the iterate, so its stencil goes to eval_many
        row = compile_row(node, arity)
        return lambda x: None if tuple(x) == point else row(x)

    monkeypatch.setattr(Ivf, "eval_many", refusing)
    monkeypatch.setattr(ivf_module, "compile_row", refusing_row)
    # a fresh objective, whose row kernel is generated under the patch
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
# The row kernel against the compiled evaluator
# --------------------------------------------------------------------------


def row_path(node, xs):
    """The rows of xs through Ivf._eval_rows: the generated row kernel, and
    eval_many on every row when the kernel refuses one."""
    f = Ivf(xs.shape[1], node, ((0.0, 1.0),) * xs.shape[1])
    values = f._eval_rows([tuple(x) for x in xs.tolist()])
    return tuple(np.array([v[i] for v in values]) for i in (0, 1))


# per arity, built once: hypothesis is slow to draw from a strategy built anew
ROW_CASES = {n: (trees(n), st.lists(st.tuples(*[POINT_FLOATS] * n), min_size=1, max_size=4))
             for n in range(1, 10)}


@st.composite
def trees_and_rows(draw):
    tree, rows = ROW_CASES[draw(st.integers(1, 9))]
    return draw(tree), np.array(draw(rows), dtype=float)


@settings(max_examples=800, deadline=None)
@given(trees_and_rows())
def test_the_row_path_matches_the_compiled_evaluator(case):
    node, xs = case
    got = outcome_of(lambda _, p: row_path(_, p), node, xs)
    expected = outcome_of(lambda _, p: compile_lo_hi(_)(p), node, xs)
    if isinstance(expected[0], type):
        assert got == expected
    else:
        assert not isinstance(got[0], type), got
        assert same_floats(got[0], expected[0]) and same_floats(got[1], expected[1])
    # a row the kernel takes is one where the compiled evaluator neither
    # raises nor warns, and its value is finite
    row = compile_row(node, xs.shape[1])
    for x in xs:
        value = row(tuple(x.tolist()))
        if value is not None:
            with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
                lo, hi = compile_lo_hi(node)(x[None, :])
            assert value == (lo[0], hi[0]) and math.isfinite(value[0]) and math.isfinite(value[1])


# The tangent walker takes a point where the row kernel does, with the same
# endpoints (== here: a tie may pick the other signed zero), and refuses or
# gives a non-finite endpoint elsewhere.  A direction can only add refusals.
@settings(max_examples=300, deadline=None)
@given(trees_and_rows(), st.lists(POINT_FLOATS, min_size=9, max_size=9))
def test_the_tangent_walker_refuses_where_the_row_kernel_does(case, h):
    node, xs = case
    row = compile_row(node, xs.shape[1])
    for x in xs.tolist():
        value, walk = row(tuple(x)), tangents(node, x, [])
        assert (value is not None) == (walk is not None and math.isfinite(walk[0])
                                       and math.isfinite(walk[1]))
        along = tangents(node, x, [h[:len(x)]])
        if value is not None:
            assert walk[:2] == value and (along is None or along[:2] == value)


# at these rows compile_lo_hi warns: an overflowed denominator divides to
# 0, a later piece's NaN at an overlap is dropped, and a NaN meets a finite
# value in np.minimum and np.maximum, which let it through
@pytest.mark.parametrize("text, x", [
    ("1 / (x1*1e300)", 1e300),
    ("[1,2] / (x1*[1e300,1e301])", 1e300),
    ("piecewise{ x1 <= 1 => x1; x1 >= 1 => x1*1e300*1e300 - x1*1e300*1e300; }", 1.0),
    ("x1*[-1e300,1] ghsub x1*[-1e300,2]", 1e300),
])
def test_a_row_where_the_compiled_evaluator_warns_goes_to_eval_many(text, x):
    f = Ivf.from_text(1, text, ((0.0, 1.0),))
    assert compile_row(f.body, 1)((x,)) is None
    with pytest.warns(RuntimeWarning):
        values = f._eval_rows([(x,)])
    with np.errstate(all="ignore"):
        expected = f.eval_many(np.array([[x]]), check_domain=False)
    assert all(same_floats([v[i] for v in values], expected[i]) for i in (0, 1))


def test_the_row_kernel_takes_the_benchmarked_objectives():
    # no refusal on the descent's objectives, so the fallback stays rare
    for f in (piecewise_vee_ivf(), seeded_1d_objective(301, False), seeded_1d_objective(401, True),
              quartic_ivf()):
        pts = f.grid(401).points()
        row = compile_row(f.body, f.arity)
        lo, hi = f.eval_many(pts)
        assert [row(tuple(x)) for x in pts.tolist()] == list(zip(lo.tolist(), hi.tolist()))


# Facts about numpy's floats that the row kernel reproduces, each measured
# on this numpy: if one stops holding, the kernel must follow it.
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
        row, (norm, _) = compile_row(Norm(), n), compile_lo_hi(Norm())(xs)
        assert [row(tuple(x))[0] for x in xs.tolist()] == norm.tolist(), n


def sum_in_order(values):
    total = 0.0
    for v in values:
        total += v
    return total


def test_numpy_min_and_max_take_the_second_operand_on_a_tie_and_pass_nan():
    for n in (1, 3, 17):
        zero, negzero = np.zeros(n), -np.zeros(n)
        for fn in (np.minimum, np.maximum):
            assert np.signbit(fn(zero, negzero)).all() and not np.signbit(fn(negzero, zero)).any()
            assert np.isnan(fn(np.full(n, np.nan), zero)).all()
            assert np.isnan(fn(zero, np.full(n, np.nan))).all()
    # the kernel's corners of [-0,0] * [-0,0] follow the same ties
    node = BinOp("*", Const(Interval(-0.0, 0.0)), BinOp("*", Var(0), Const(Interval(-0.0, 0.0))))
    for x in (1.0, -1.0, 0.0, -0.0):
        lo, hi = compile_lo_hi(node)(np.array([[x]]))
        assert repr(compile_row(node, 1)((x,))) == repr((lo[0].item(), hi[0].item()))
