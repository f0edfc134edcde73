import math
import pickle
import re

import numpy as np
import pytest

from ghcalc import Interval, IVector, Ivf, WMapConfig, iop, subgrad
from ghcalc.errors import (
    CandidateNotSubgradient,
    NonConvexObjective,
    OutOfDomain,
    PiecewiseCoverageError,
)
from ghcalc.iop import (
    Iop,
    efficient_on_grid,
    optimality_nprec_condition,
    optimality_zero_condition,
    scalarized_descent,
)
from ghcalc.problems import (
    abs_slab_ivf,
    piecewise_vee_ivf,
    quartic_ivf,
    smooth_parabolic_ivf,
)
from ghcalc.subgrad import SubgradientCandidate, union_boundedness_probe


def test_iop_rejects_nonconvex_objectives():
    f = Ivf.from_text(1, "0 - pow2(x1) + [0,1]", ((-1.0, 1.0),))
    with pytest.raises(NonConvexObjective):
        Iop(f)


def test_constant_objective_is_efficient_everywhere():
    p = Iop(Ivf.from_text(1, "[1,2]", ((-1.0, 1.0),)))
    report = efficient_on_grid(p, p.objective.grid(21))
    assert report.efficient.all()
    assert report.efficient_points().shape == (21, 1)


def test_efficiency_report_csv():
    p = Iop(Ivf.from_text(1, "[1,2]", ((0.0, 1.0),)))
    report = efficient_on_grid(p, p.objective.grid(3))
    lines = report.to_csv().splitlines()
    assert lines[0] == "x1,f_lo,f_hi,efficient"
    assert lines[1] == "0.0,1.0,2.0,1"
    assert len(lines) == 4


def test_efficient_set_of_the_slab_is_the_origin():
    p = Iop(abs_slab_ivf())
    report = efficient_on_grid(p, p.objective.grid(41))
    eff = report.efficient_points()[:, 0]
    assert eff.shape == (1,) and eff[0] == 0.0
    assert report.is_flagged_near([0.0])
    assert not report.is_flagged_near([1.0])
    assert not report.is_flagged_near([10.0], radius=0.5)


def test_zero_condition_on_the_slab():
    p = Iop(abs_slab_ivf())
    assert optimality_zero_condition(p, [0.0])
    assert not optimality_zero_condition(p, [1.0])
    with pytest.raises(OutOfDomain):
        optimality_zero_condition(p, [5.0])


def test_nprec_condition_requires_a_subgradient():
    p = Iop(abs_slab_ivf())
    bad = SubgradientCandidate(IVector.of(Interval(2, 3)), (0.0,))
    with pytest.raises(CandidateNotSubgradient):
        optimality_nprec_condition(p, [0.0], bad)


def test_nprec_condition_is_sufficient_but_not_necessary():
    # the product (x - 0) (.) [0,1] strictly precedes 0 for x < 0, so the
    # condition fails at an efficient point: only sufficiency is claimed
    p = Iop(abs_slab_ivf())
    g = SubgradientCandidate(IVector.of(Interval(0, 1)), (0.0,))
    assert not optimality_nprec_condition(p, [0.0], g)
    q = Iop(smooth_parabolic_ivf())
    g2 = SubgradientCandidate(IVector.of(Interval(-2, 0)), (0.0,))
    assert not optimality_nprec_condition(q, [0.0], g2)
    report = efficient_on_grid(q, q.objective.grid(201))
    assert report.is_flagged_near([0.0])


def test_nprec_condition_holds_at_the_vee_floor():
    p = Iop(piecewise_vee_ivf())
    g = SubgradientCandidate(IVector.of(Interval(0, 0)), (2.0,))
    assert optimality_nprec_condition(p, [2.0], g, p.objective.grid(201))


@pytest.mark.parametrize("x_bar", [[5.0], [0.0]])
def test_nprec_condition_refuses_a_candidate_anchored_elsewhere(x_bar):
    # the membership test reads the candidate's base point, so the
    # condition and the efficiency cross-check must be read there too
    p = Iop(piecewise_vee_ivf())
    g = SubgradientCandidate(IVector.of(Interval(0, 0)), (2.0,))
    with pytest.raises(ValueError, match="base point"):
        optimality_nprec_condition(p, x_bar, g, p.objective.grid(201))


def test_descent_stops_immediately_at_a_zero_subgradient():
    p = Iop(piecewise_vee_ivf())
    result = scalarized_descent(p, [2.0], grid=p.objective.grid(201))
    assert len(result.trace) == 1
    assert result.x_best == (2.0,)
    assert result.efficient


def test_descent_finds_the_quartic_minimizer():
    p = Iop(quartic_ivf())
    result = scalarized_descent(p, [2.5], iters=300,
                                grid=p.objective.grid(201))
    # midpoint scalarization of [x^4+1, x^2+40] is minimized at 0
    assert result.x_best[0] == pytest.approx(0.0, abs=0.05)
    assert result.efficient


def test_descent_checks_the_start_point():
    p = Iop(quartic_ivf())
    with pytest.raises(OutOfDomain):
        scalarized_descent(p, [-1.0])


@pytest.mark.parametrize("iters", [0, -3])
def test_descent_refuses_fewer_than_one_iteration(iters):
    p = Iop(quartic_ivf())
    with pytest.raises(ValueError, match=f"iters must be at least 1, got {iters}"):
        scalarized_descent(p, [1.0], iters=iters, grid=p.objective.grid(51))


def test_descent_trace_csv():
    p = Iop(quartic_ivf())
    result = scalarized_descent(p, [1.0], iters=5,
                                grid=p.objective.grid(51))
    csv = result.trace_to_csv()
    lines = csv.splitlines()
    assert lines[0] == "iter,x1,f_lo,f_hi,scalarized_value,step"
    assert len(lines) == len(result.trace) + 1
    assert lines[1].startswith("0,1.0,2.0,41.0,")
    # byte-stable output
    assert csv == result.trace_to_csv()


def test_descent_respects_the_weight_config():
    p = Iop(abs_slab_ivf())
    r = scalarized_descent(p, [1.5], WMapConfig(1.0, 0.0), iters=200,
                           grid=p.objective.grid(201))
    assert abs(r.x_best[0]) < 0.1


def test_a_float32_step_moves_the_iterate_as_its_float64_value():
    # the projection works on floats, where float32 * float stays float32
    p = Iop(piecewise_vee_ivf())
    grid = p.objective.grid(51)
    narrow = scalarized_descent(p, [-2.0], iters=50, grid=grid,
                                step_schedule=lambda k: np.float32(0.1) / np.float32(k + 1))
    wide = scalarized_descent(p, [-2.0], iters=50, grid=grid,
                              step_schedule=lambda k: float(np.float32(0.1) / np.float32(k + 1)))
    assert narrow == wide
    assert [repr(r.x) for r in narrow.trace] == [repr(r.x) for r in wide.trace]
    assert -2.0 < narrow.trace[-1].x[0] < -1.0


@pytest.mark.parametrize("call", ["descent", "probe"])
def test_one_full_grid_evaluation_per_call(monkeypatch, call):
    f = piecewise_vee_ivf()
    p, grid = Iop(f), f.grid(201)
    sizes = []
    eval_many = Ivf.eval_many

    def counted(self, xs, check_domain=True):
        sizes.append(len(xs))
        return eval_many(self, xs, check_domain)

    monkeypatch.setattr(Ivf, "eval_many", counted)
    if call == "descent":
        built, stencils = [], []
        for module in (subgrad, iop):
            monkeypatch.setattr(module, "_Constraints", lambda *args: built.append(args),
                                raising=False)
        eval_rows = Ivf._eval_rows

        def rows_counted(self, rows):
            stencils.append(len(rows))
            return eval_rows(self, rows)

        monkeypatch.setattr(Ivf, "_eval_rows", rows_counted)
        trace = scalarized_descent(p, [-2.0], grid=grid).trace
        # one stencil of 2n + 1 rows per iteration, the iterate and a step
        # to each side, kinks and the domain edge included, which the row
        # kernel evaluates without eval_many; then the grid once, for the
        # efficiency flag
        assert len(trace) == 600
        assert stencils == [3] * len(trace)
        assert sizes == [len(grid.points())]
        assert built == []
    else:
        # F(x_bar) at every base point is read from the grid values
        union_boundedness_probe(f, grid)
        assert sizes == [len(grid.points())]


def test_descent_keeps_the_sign_of_a_zero_start():
    # the stencil's offset-0 row is x + 0.0, so F(-0.0) is taken on its own
    f = Ivf.from_text(1, "x1*[1,1]", ((-1.0, 1.0),))
    first = scalarized_descent(Iop(f), [-0.0], iters=1, grid=f.grid(21)).trace[0]
    assert first.x == (-0.0,) and first.value == f.eval([-0.0])
    assert math.copysign(1.0, first.value.lo) == -1.0
    assert math.copysign(1.0, first.scalarized) == -1.0


def test_descent_off_the_midpoint_weights_does_not_climb_phi_w():
    # F = [3x, 10 - x] on [0, 2]: phi_w = 0.2*3x + 0.8*(10 - x) falls to 7.6 at
    # x = 2, where w_map of the gH-gradient [min(3, -1), max(3, -1)] is +2.2
    # and would walk to x = 0, where phi_w is 8.0.  x_best is the trace's
    # least phi_w, which never exceeds phi_w(x0), so the last iterate is asked.
    f = Ivf.from_text(1, "[0,10] ghsub x1*[-3,1]", ((0.0, 2.0),))
    cfg = WMapConfig(0.2, 0.8)

    def phi_w(x):
        value = f.eval(x)
        return cfg.w * value.lo + cfg.w_prime * value.hi

    trace = scalarized_descent(Iop(f), [1.0], cfg, grid=f.grid(201)).trace
    assert phi_w(trace[-1].x) <= phi_w([1.0])


# (objective, domain, start, the minimizer of phi_w at w = 0.5 and at 0.2)
ND_DESCENTS = {
    "smooth_2d": ("[1,2]*pow2(x1) + [0,1]*pow2(x2) + pow2(x2 - 0.5)", ((-1.0, 1.0),) * 2,
                  (0.5, 0.5), {0.5: (0.0, 1 / 3), 0.2: (0.0, 1 / 3.6)}),
    "kinked_2d": ("abs(x1)*[1,2] + abs(x2 - 0.3)*[0.5,1]", ((-1.0, 1.0),) * 2,
                  (0.5, 0.5), {0.5: (0.0, 0.3), 0.2: (0.0, 0.3)}),
    "separable_3d": ("[1,2]*pow2(x1 - 0.2) + abs(x2 + 0.4)*[0.5,1] + [0,1]*pow2(x3)",
                     ((-1.0, 1.0), (-1.0, 1.0), (-0.5, 1.5)), (0.5, 0.5, 1.0),
                     {0.5: (0.2, -0.4, 0.0), 0.2: (0.2, -0.4, 0.0)}),
}


@pytest.mark.parametrize("w", [0.5, 0.2])
@pytest.mark.parametrize("name", sorted(ND_DESCENTS))
def test_descent_in_several_variables_ends_at_a_certified_point(name, w):
    text, domain, x0, minimizers = ND_DESCENTS[name]
    f = Ivf.from_text(len(domain), text, domain)
    grid = f.grid(41 if f.arity == 2 else 21)
    result = scalarized_descent(Iop(f), x0, WMapConfig(w, 1.0 - w), grid=grid)
    assert result.efficient
    assert np.max(np.abs(np.array(result.x_best) - minimizers[w])) < 0.01


# domain=[0.3,0.3] fixes a variable: the grid samples its axis at one node
FIXED = {
    1: Ivf.from_text(1, "[1,2]*pow2(x1 - 0.25) + [3,4]", ((0.3, 0.3),)),
    2: Ivf.from_text(2, "[1,2]*pow2(x1) + [0,1]*abs(x2 - 0.25) + [3,4]",
                     ((-1.0, 1.0), (0.3, 0.3))),
}


@pytest.mark.parametrize("arity", sorted(FIXED))
def test_a_problem_with_a_fixed_variable_runs(arity):
    f = FIXED[arity]
    p, grid = Iop(f), f.grid(61)
    assert grid.counts == (61, 1)[-arity:] and grid.step[-1] == 0.0
    report = efficient_on_grid(p, grid)
    assert report.points.shape == (len(grid.points()), arity)
    assert (report.points[:, -1] == 0.3).all()
    result = scalarized_descent(p, [-0.5, 0.3][-arity:], grid=grid)
    # the fixed axis has no stencil step, so its slope is 0
    assert all(r.x[-1] == 0.3 for r in result.trace)
    assert result.efficient
    if arity == 1:
        # every slope is 0 at the start, which stops the descent
        assert len(result.trace) == 1 and report.efficient.all()
    else:
        assert abs(result.x_best[0]) < 1e-3
        assert report.efficient_points().tolist() == [[0.0, 0.3]]


def test_descent_compiles_a_row_kernel_that_is_no_field():
    f, g = piecewise_vee_ivf(), piecewise_vee_ivf()
    p = Iop(f)
    grid = f.grid(201)
    efficient_on_grid(p, grid)
    optimality_zero_condition(p, [2.0], grid)
    union_boundedness_probe(f, grid)
    # the grid paths never generate the kernel
    assert "_row" not in vars(f)
    pickled = pickle.dumps(f)
    scalarized_descent(p, [-2.0], iters=5, grid=grid)
    assert "_row" in vars(f)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert pickle.dumps(f) == pickled == pickle.dumps(g)
    h = pickle.loads(pickled)
    assert h == f and "_row" not in vars(h)


def test_a_stencil_the_kernel_refuses_raises_eval_many_s_error():
    # no guard covers (0.501, 0.505), which the grids of Iop() and of the
    # efficiency flag miss; the first stencil's lower row falls in it
    f = Ivf.from_text(1, "piecewise{ x1 <= 0.501 => [1,2]*x1; x1 >= 0.505 => [1,2]*x1; }",
                      ((0.0, 1.0),))
    p, x0 = Iop(f), 0.50505
    h = 1e-4 * (1.0 + x0)
    with pytest.raises(PiecewiseCoverageError) as expected:
        f.eval_many(np.array([[x0], [x0 - h], [x0 + h]]))
    assert str(expected.value).startswith("no guard covers point [0.504")
    with pytest.raises(PiecewiseCoverageError, match=f"^{re.escape(str(expected.value))}$"):
        scalarized_descent(p, [x0], grid=f.grid(201))
