import math
import pickle
import re

import numpy as np
import pytest

from ghcalc import Interval, IVector, Ivf, WMapConfig, iop, subgrad
from ghcalc import ivf as ivf_module
from ghcalc.errors import (
    CandidateNotSubgradient,
    NonConvexObjective,
    OutOfDomain,
    PiecewiseCoverageError,
)
from ghcalc.expr import convexity
from ghcalc.iop import (
    Iop,
    efficient_on_grid,
    optimality_nprec_condition,
    optimality_zero_condition,
    scalarized_descent,
)
from ghcalc.ivf import is_convex_sampled, lipschitz_estimate
from ghcalc.problems import (
    abs_slab_ivf,
    piecewise_vee_ivf,
    quartic_ivf,
    smooth_parabolic_ivf,
)
from ghcalc.subgrad import (
    SubgradientCandidate,
    lipschitz_from_subgradients_check,
    union_boundedness_probe,
)


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
    calls, walks = [], []
    eval_many, compile_tangents = Ivf.eval_many, ivf_module.compile_tangents

    def counted(self, xs):
        lo_hi = eval_many(self, xs)
        calls.append(len(lo_hi[0]))
        return lo_hi

    def counted_walker(node):
        walk = compile_tangents(node)
        return lambda x, dirs: walks.append(len(dirs)) or walk(x, dirs)

    monkeypatch.setattr(Ivf, "eval_many", counted)
    monkeypatch.setattr(ivf_module, "compile_tangents", counted_walker)
    f = piecewise_vee_ivf()
    p, grid = Iop(f), f.grid(201)
    calls.clear()
    if call == "descent":
        built = []
        for module in (subgrad, iop):
            monkeypatch.setattr(module, "_Constraints", lambda *args: built.append(args),
                                raising=False)
        trace = scalarized_descent(p, [-2.0], grid=grid).trace
        # the grid once, before the first iterate, for the level and the
        # efficiency flag; then one walk per iteration, along +e_1 only at
        # the lower bound -2 and along both sides inside the box, kinks
        # included, without eval_many
        assert len(trace) > 1
        assert calls == [len(grid.points())]
        assert walks == [1] + [2] * (len(trace) - 1)
        assert built == []
    else:
        # F(x_bar) at every base point is read from the grid values, and
        # the vee, which the tree does not prove convex, is not walked
        union_boundedness_probe(f, grid)
        assert calls == [len(grid.points())] and walks == []


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


@pytest.mark.parametrize("x0", [-2.0, 6.0])
@pytest.mark.parametrize("w", [0.2, 0.5, 0.8])
def test_the_vee_descent_ends_at_its_minimizer_at_any_weight(w, x0):
    # phi_w of the vee is w*|x - 2| plus a constant near 2
    p = Iop(piecewise_vee_ivf())
    result = scalarized_descent(p, [x0], WMapConfig(w, 1.0 - w), grid=p.objective.grid(201))
    assert abs(result.x_best[0] - 2.0) <= 1e-9
    assert result.efficient
    assert len(result.trace) <= 25


def seeded_valley(seed):
    """[a,b]*abs(x1 - c) + [al,be]*pow2(x1 - e) + [1,2] with |e - c| >= 0.8,
    a weight w and a start, and the minimizer of phi_w in closed form:
    phi_w = A|x - c| + B(x - e)^2 + const with A = w*a + w'*b <= 1.2 and
    B = w*al + w'*be >= 1, so x* = e - sign(e - c)*A/(2B) is off the kink."""
    rng = np.random.default_rng(seed)
    a, al = (round(float(rng.uniform(lo, hi)), 3) for lo, hi in ((0.2, 0.6), (1.0, 2.0)))
    b, be = round(a + float(rng.uniform(0.0, 0.6)), 3), round(al + float(rng.uniform(0.0, 1.0)), 3)
    c = round(float(rng.uniform(-0.5, 0.5)), 3)
    e = round(c + float(rng.choice((-1.0, 1.0)) * rng.uniform(0.8, 1.2)), 3)
    w = round(float(rng.uniform(0.2, 0.8)), 3)
    domain = (min(c, e) - 1.5, max(c, e) + 1.5)
    f = Ivf.from_text(1, f"[{a},{b}]*abs(x1 - ({c})) + [{al},{be}]*pow2(x1 - ({e})) + [1,2]",
                      (domain,))
    A, B = w * a + (1.0 - w) * b, w * al + (1.0 - w) * be
    return f, float(rng.uniform(*domain)), w, e - math.copysign(A / (2.0 * B), e - c)


@pytest.mark.parametrize("seed", range(20))
def test_a_valley_descent_stops_near_the_minimizer_of_phi_w(seed):
    f, x0, w, minimizer = seeded_valley(seed)
    result = scalarized_descent(Iop(f), [x0], WMapConfig(w, 1.0 - w), grid=f.grid(201))
    assert abs(result.x_best[0] - minimizer) <= 1e-3
    assert result.efficient
    assert len(result.trace) <= 100


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
    # the fixed axis is walked along neither side, so its slope is 0
    assert all(r.x[-1] == 0.3 for r in result.trace)
    assert result.efficient
    if arity == 1:
        # every slope is 0 at the start, which stops the descent
        assert len(result.trace) == 1 and report.efficient.all()
    else:
        assert abs(result.x_best[0]) < 1e-3
        assert report.efficient_points().tolist() == [[0.0, 0.3]]


def test_a_one_node_grid_has_lipschitz_bound_zero():
    # the sup over no pairs of nodes
    f = FIXED[1]
    assert lipschitz_estimate(f, f.grid(61)) == 0.0
    assert lipschitz_from_subgradients_check(f)


def test_the_compiled_walker_is_no_field():
    f, g = piecewise_vee_ivf(), piecewise_vee_ivf()
    p = Iop(f)
    grid = f.grid(201)
    efficient_on_grid(p, grid)
    optimality_zero_condition(p, [2.0], grid)
    union_boundedness_probe(f, grid)
    # the grid paths never compile the walker
    assert "_tangents" not in vars(f)
    pickled = pickle.dumps(f)
    scalarized_descent(p, [-2.0], iters=5, grid=grid)
    assert "_tangents" in vars(f)
    assert f == g and hash(f) == hash(g) and repr(f) == repr(g)
    assert pickle.dumps(f) == pickled == pickle.dumps(g)
    h = pickle.loads(pickled)
    assert h == f and "_tangents" not in vars(h)


def test_a_start_in_an_uncovered_gap_raises_eval_many_s_error():
    # no guard covers (0.501, 0.505), which the grids of Iop() and of the
    # efficiency flag miss; the walk refuses a start there
    f = Ivf.from_text(1, "piecewise{ x1 <= 0.501 => [1,2]*x1; x1 >= 0.505 => [1,2]*x1; }",
                      ((0.0, 1.0),))
    p, x0 = Iop(f), 0.503
    with pytest.raises(PiecewiseCoverageError) as expected:
        f.eval_many(np.array([[x0]]))
    assert str(expected.value) == "no guard covers point [0.503]"
    with pytest.raises(PiecewiseCoverageError, match=f"^{re.escape(str(expected.value))}$"):
        scalarized_descent(p, [x0], grid=f.grid(201))


def separable(seed, n):
    """The benchmark's seeded family: sum_i [a_i,b_i]*abs(x_i - c_i) +
    [al_i,be_i]*pow2(x_i - e_i) + [u,v] with 0 <= a_i <= b_i and
    0 <= al_i <= be_i, on a box around the centres."""
    rng = np.random.default_rng(seed)
    terms, domain = [], []
    for i in range(n):
        a, al = (round(float(rng.uniform(0.0, 1.5)), 4) for _ in range(2))
        b, be = (round(v + float(rng.uniform(0.0, 2.0)), 4) for v in (a, al))
        c, e = (round(float(rng.uniform(-1.0, 1.0)), 4) for _ in range(2))
        terms += [f"[{a!r},{b!r}]*abs(x{i + 1} - ({c!r}))",
                  f"[{al!r},{be!r}]*pow2(x{i + 1} - ({e!r}))"]
        domain.append((round(min(c, e) - float(rng.uniform(0.5, 2.5)), 4),
                       round(max(c, e) + float(rng.uniform(0.5, 2.5)), 4)))
    u = round(float(rng.uniform(-3.0, 3.0)), 4)
    terms.append(f"[{u!r},{round(u + float(rng.uniform(0.0, 2.0)), 4)!r}]")
    return Ivf.from_text(n, " + ".join(terms), tuple(domain))


@pytest.fixture
def no_evaluation(monkeypatch):
    """Fail at the first Ivf.eval_many call, so a test that uses it asserts
    0 calls.  It fails at once, not after counting: the sampled check of a
    4-D objective at 21 samples per axis would test 1.9e10 pairs."""
    def refuse(self, xs):
        raise AssertionError(f"eval_many called on {len(xs)} points")
    monkeypatch.setattr(Ivf, "eval_many", refuse)


@pytest.mark.parametrize("text", ["abs(x1)*[1,3] + [1e9,1e9]", "[1e9,1e9] + abs(x1)",
                                  "[1e300,2e300]*pow2(x1)", "[1,2]*pow2(x1) + [1e17,1e17]"])
def test_shifted_and_scaled_convex_objectives_are_proved_convex(text, no_evaluation):
    # the sampled check's absolute 1e-10 slack is below the rounding at 1e9,
    # so it called the first two non-convex at ([-1.0], [-0.8], 0.25)
    p = Iop(Ivf.from_text(1, text, ((-1.0, 1.0),)))
    assert p.convexity_method == "certificate"


@pytest.mark.parametrize("n", [1, 2, 3, 4])
@pytest.mark.parametrize("seed", range(5))
def test_the_benchmark_family_is_proved_convex_without_evaluation(n, seed, no_evaluation):
    # at the default convexity_samples=21, 4-D would test 1.9e10 pairs
    p = Iop(separable(100 * n + seed, n))
    assert p.convexity_samples == 21
    assert p.convexity_method == "certificate"


@pytest.mark.parametrize("f", [abs_slab_ivf(), smooth_parabolic_ivf()])
def test_canned_convex_objectives_are_proved_convex(f, no_evaluation):
    assert Iop(f).convexity_method == "certificate"


UNCERTIFIED = {
    # (objective, domain, whether the sampled check accepts it)
    "mixed_sign_coefficient": ("[-1,1]*abs(x1)", ((-1.0, 1.0),), False),
    "concave": ("0 - pow2(x1)", ((-1.0, 1.0),), False),
    "factor_changes_sign": ("[0,2]*(x1 + 1)", ((-2.0, 1.0),), False),
    "saddle_2d": ("[1,2]*pow2(x1) - pow2(x2)", ((-1.0, 1.0), (-1.0, 1.0)), False),
    "not_finite": ("[1,2]*pow2(1e200*x1)", ((-1.0, 1.0),), True),
    # fl(fl(0.1 + 0.2) - 0.30000000000000004) is 0, but the exact value of
    # x1 + 0.2 - 0.30000000000000004 at x1 = 0.1 is -2.8e-17: the factor
    # changes sign, so f_lo = min(0, 2*(...)) is not convex
    "sign_within_an_ulp": ("[0,2]*(x1 + 0.2 - 0.30000000000000004)", ((0.1, 1.0),), True),
}


@pytest.mark.parametrize("name", sorted(UNCERTIFIED))
def test_objectives_the_proof_refuses_get_the_sampled_verdict(name, monkeypatch):
    text, domain, accepted = UNCERTIFIED[name]
    f = Ivf.from_text(len(domain), text, domain)
    assert not convexity(f.body, f.domain).convex
    sampled = []
    monkeypatch.setattr(iop, "is_convex_sampled",
                        lambda *args: sampled.append(args) or is_convex_sampled(*args))
    with np.errstate(over="ignore"):  # pow2(1e200*x1) overflows
        ok, witness = is_convex_sampled(f, f.grid(21))
        assert ok == accepted
        if accepted:
            assert Iop(f).convexity_method == "sampled"
        else:
            with pytest.raises(NonConvexObjective) as refused:
                Iop(f)
            assert str(refused.value) == f"objective failed the sampled convexity check at {witness}"
    assert len(sampled) == 1


@pytest.mark.parametrize("f", [piecewise_vee_ivf(), quartic_ivf()])
def test_the_vee_and_the_quartic_are_accepted_by_the_sampled_check(f):
    # the vee is piecewise with a ghsub of two intervals; the quartic's
    # upper end is convex only once x^4 - x^4 cancels
    assert Iop(f).convexity_method == "sampled"


def test_the_convexity_method_is_no_field():
    p, q = Iop(abs_slab_ivf()), Iop(abs_slab_ivf(), convexity_samples=21)
    r = Iop(piecewise_vee_ivf())
    assert p == q and hash(p) == hash(q)
    assert repr(p) == f"Iop(objective={abs_slab_ivf()!r}, convexity_samples=21)"
    assert "convexity_method" not in repr(r)
    with pytest.raises(AttributeError):
        p.convexity_method = "sampled"
    assert pickle.loads(pickle.dumps(r)).convexity_method == "sampled"


def test_an_uncertified_iop_evaluates_the_refined_lattice_once(monkeypatch):
    f, calls = piecewise_vee_ivf(), []
    eval_many = Ivf.eval_many

    def counted(self, xs):
        lo_hi = eval_many(self, xs)
        calls.append(len(lo_hi[0]))
        return lo_hi

    monkeypatch.setattr(Ivf, "eval_many", counted)
    assert Iop(f).convexity_method == "sampled"
    assert calls == [4 * (21 - 1) + 1]


NON_FINITE_ENTRY_POINTS = {
    "is_subgradient": lambda f, x: subgrad.is_subgradient(f, SubgradientCandidate(
        IVector.of(Interval(1.0, 2.0)), (x,))),
    "strict_variant": lambda f, x: subgrad.is_subgradient_strict_variant(
        f, SubgradientCandidate(IVector.of(Interval(1.0, 2.0)), (x,))),
    "subdiff_scan_1d": lambda f, x: subgrad.subdiff_scan_1d(f, x),
    "zero_condition": lambda f, x: optimality_zero_condition(Iop(f), [x]),
    "nprec_condition": lambda f, x: optimality_nprec_condition(
        Iop(f), [x], SubgradientCandidate(IVector.zero(1), (x,))),
    "scalarized_descent": lambda f, x: scalarized_descent(Iop(f), [x]),
}


@pytest.mark.parametrize("x", [math.nan, math.inf, -math.inf])
@pytest.mark.parametrize("entry", sorted(NON_FINITE_ENTRY_POINTS))
def test_a_non_finite_point_is_out_of_the_domain_at_every_entry_point(entry, x):
    # f.contains counts a NaN coordinate as inside, so finiteness is checked apart
    with pytest.raises(OutOfDomain, match=r"^\[(nan|inf|-inf)\] is outside the domain$"):
        NON_FINITE_ENTRY_POINTS[entry](abs_slab_ivf(), x)
