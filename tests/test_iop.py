import math

import numpy as np
import pytest

from ghcalc import Interval, IVector, Ivf, WMapConfig
from ghcalc.errors import (
    CandidateNotSubgradient,
    NonConvexObjective,
    OutOfDomain,
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
        trace = scalarized_descent(p, [-2.0], grid=grid).trace
        # the grid once, then one gradient stencil per iteration, which holds
        # the iterate, kinks included; at the domain edge -2 the one-sided
        # stencil takes one call of four points
        assert len(trace) == 600
        assert sizes == [len(grid.points()), 4] + [7] * (len(trace) - 1)
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
