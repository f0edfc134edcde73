"""The fast grid kernels against the plain definitions they replace.

The references below enumerate every pair of grid nodes (convexity,
Lipschitz quotient) or build the N x N strict-dominance matrix
(efficiency).  They are quadratic in time and memory, so the grids here
stay small, but some are large enough to span several row blocks of the
blocked pair walk.  The subgradient references evaluate F on the whole
grid at every check, where the library evaluates it once per verdict and
shares the values between checks.  The pairing and the box-norm sup
are kept here as written before the constraint set replaced them, so they
are independent of the code under test.  The recursive tree walker is kept
as written before the compiled evaluator replaced it.
"""

import math
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcalc import Interval, IVector, Ivf, WMapConfig, w_map
from ghcalc.cli import parse_problem_file
from ghcalc.errors import (
    EmptySubdifferentialEncountered,
    NonDegenerateRealNode,
    NonFiniteDerivative,
    NoSubgradientFound,
    OverlappingPieces,
    PiecewiseCoverageError,
    ZeroInDenominator,
)
from ghcalc.expr import (
    Abs,
    BinOp,
    Comparison,
    Const,
    Guard,
    Norm,
    Piecewise,
    Pow,
    Var,
    compile_lo_hi,
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
    OneSidedDifferenceWarning,
    _row_blocks,
    gh_gradient,
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


def subgradient_at_reference(f, x, grid):
    try:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore", OneSidedDifferenceWarning)
            grad = gh_gradient(f, x)
        if subgradient_reference(f, SubgradientCandidate(grad, tuple(x)), grid)[0]:
            return grad
    except NonFiniteDerivative:
        pass
    if f.arity != 1:
        raise NoSubgradientFound("multivariate descent is unsupported where the "
                                 "gH-gradient fails the sampled subgradient check")
    x0 = float(x[0])
    p_lb, p_ub, q_lb, q_ub = feasible_box_reference(f, x0, grid, 1e-10)
    if p_lb > p_ub or q_lb > q_ub or p_lb > q_ub:
        raise NoSubgradientFound(f"empty feasible region at {x0}")
    p = min(max(0.0, p_lb), p_ub)
    q = min(max(0.0, q_lb), q_ub)
    if p > q:
        t = min(max(0.0, max(p_lb, q_lb)), min(p_ub, q_ub))
        p = q = t
    cand = SubgradientCandidate(IVector.of(Interval(p, q)), (x0,))
    ok, witness = subgradient_reference(f, cand, grid, tol=2e-10)
    if not ok:
        raise NoSubgradientFound(f"kink candidate failed verification at {witness}")
    return cand.g


def descent_reference(p, x0, grid, cfg=WMapConfig(), iters=600):
    f = p.objective
    x = np.asarray(x0, dtype=float).ravel()
    lower = np.array([l for l, _ in f.domain])
    upper = np.array([u for _, u in f.domain])
    trace = []
    for k in range(iters):
        value = f.eval(x)
        g = subgradient_at_reference(f, x, grid)
        direction = np.array(w_map(g, cfg))
        step = 0.1 / math.sqrt(k + 1)
        trace.append(TraceRecord(k, tuple(float(v) for v in x), value,
                                 cfg.w * value.lo + cfg.w_prime * value.hi, step))
        if float(np.max(np.abs(direction))) <= 1e-12:
            break
        x = np.clip(x - step * direction, lower, upper)
    best = _dominance_minimal(trace)
    flagged = efficient_on_grid(p, grid).is_flagged_near(best.x)
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
    assert result == descent_reference(p, [x0], grid)
    assert len(result.trace) > 1


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


class Stencil:
    """The gradient stencil, for the library's descent and for the reference
    alike, returning its gradient plus 1.0 at the points in `nudge` and
    raising at the points in `fail`; `seen` lists the points it ran at."""

    def __init__(self, monkeypatch):
        import ghcalc.iop
        import ghcalc.ivf

        self.nudge, self.fail, self.seen = set(), set(), []
        self.original = ghcalc.ivf._value_and_gradient
        monkeypatch.setattr(ghcalc.ivf, "_value_and_gradient", self)
        monkeypatch.setattr(ghcalc.iop, "_value_and_gradient", self)

    def __call__(self, f, x):
        key = tuple(np.asarray(x, dtype=float).tolist())
        self.seen.append(key)
        if key in self.fail:
            raise ZeroDivisionError(f"stencil refused at {key}")
        fx, grad = self.original(f, x)
        if key in self.nudge:
            grad = IVector(tuple(Interval(c.lo + 1.0, c.hi + 1.0) for c in grad))
        return fx, grad


def record_batches(monkeypatch):
    """The iterate indices of every batch of pending checks, and the
    position of the first failure in each (None when it passed)."""
    import ghcalc.iop

    batches = []
    first_failure = ghcalc.iop._first_failure

    def recorded(values, pending):
        failed = first_failure(values, pending)
        batches.append(([k for k, _, _, _ in pending], failed))
        return failed

    monkeypatch.setattr(ghcalc.iop, "_first_failure", recorded)
    return batches


def place_nudges(monkeypatch, stencil, p, grid, rules):
    """Add to stencil.nudge, one at a time, the iterates of the vee descent
    from -2 that `rules` name, and return their indices.  A nudge moves only
    the iterates after it, so each is chosen from the descent with the
    earlier ones in place.  "next" is the iterate after the last one
    nudged; ("end", m) and ("start", m) are the last and the first iterate
    of the first batch of at least m pending checks after it."""
    nudged = []
    for rule in rules:
        with monkeypatch.context() as m:
            batches = record_batches(m)
            trace = scalarized_descent(p, [-2.0], grid=grid).trace
        last = nudged[-1] if nudged else -1
        if rule == "next":
            k = last + 1
        else:
            where, size = rule
            ks = next(ks for ks, _ in batches if len(ks) >= size and ks[0] > last)
            k = ks[-1] if where == "end" else ks[0]
        nudged.append(k)
        stencil.nudge.add(trace[k].x)
    return nudged


# A failure at the end of a batch wastes no stencil, since the next
# iterate was not evaluated yet; one at its start wastes the rest.
ROLLBACK_CASES = {
    "batch_ends": [("end", 1), "next", "next", ("end", 2), "next", ("end", 8),
                   ("end", 32), ("end", 64), "next"],
    "batch_starts": [("start", 2), ("start", 8), "next", ("start", 64)],
}


@pytest.mark.parametrize("name", sorted(ROLLBACK_CASES))
def test_descent_rolls_back_to_the_first_failed_gradient_check(monkeypatch, name):
    f = piecewise_vee_ivf()
    p, grid = Iop(f), f.grid(201)
    stencil = Stencil(monkeypatch)
    nudged = place_nudges(monkeypatch, stencil, p, grid, ROLLBACK_CASES[name])
    sizes = []
    eval_many = Ivf.eval_many

    def counted(self, xs, check_domain=True):
        sizes.append(len(xs))
        return eval_many(self, xs, check_domain)

    with monkeypatch.context() as m:
        batches = record_batches(m)
        m.setattr(Ivf, "eval_many", counted)
        result = scalarized_descent(p, [-2.0], grid=grid)
    # every nudge failed its check and was rolled back to, in order
    failed = [ks[i] for ks, i in batches if i is not None and ks[i] in nudged]
    assert failed == nudged
    assert result == descent_reference(p, [-2.0], grid)
    stencils = [len(grid.points()), 4] + [7] * (len(result.trace) - 1)
    if name == "batch_ends":
        # as many stencil calls as checking every step at once makes
        assert sizes == stencils
    else:
        # a failure ahead of pending iterates discards their stencils only
        wasted = sum(len(ks) - 1 - i for ks, i in batches if i is not None)
        assert wasted > 0
        assert sizes == stencils + [7] * wasted


def test_descent_raises_an_error_from_a_discarded_step_only_if_reached(monkeypatch):
    f = piecewise_vee_ivf()
    p, grid = Iop(f), f.grid(201)
    stencil = Stencil(monkeypatch)
    place_nudges(monkeypatch, stencil, p, grid, [("start", 8)])
    stencil.seen.clear()
    expected = scalarized_descent(p, [-2.0], grid=grid)
    kept = {r.x for r in expected.trace}
    discarded = [x for x in stencil.seen if x not in kept]
    assert discarded
    # a step run ahead of a failed check raises, and the descent goes on
    stencil.fail.add(discarded[-1])
    assert scalarized_descent(p, [-2.0], grid=grid) == expected
    # an iterate of the trace raises as it would checking every step at once
    stencil.fail.add(expected.trace[300].x)
    with pytest.raises(ZeroDivisionError, match="stencil refused"):
        scalarized_descent(p, [-2.0], grid=grid)
    with pytest.raises(ZeroDivisionError, match="stencil refused"):
        descent_reference(p, [-2.0], grid)


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
            st.builds(Pow, st.integers(1, 4), children),
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
