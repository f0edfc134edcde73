import dataclasses
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from ghcalc import Interval, IVector, Ivf, subgrad
from ghcalc import ivf as ivf_module
from ghcalc.errors import (
    DimensionMismatch,
    EmptySubdifferentialEncountered,
    LengthMismatch,
    MalformedNormIvf,
    NonFiniteDerivative,
    OutOfDomain,
    UnresolvedScan,
    ZeroInDenominator,
)
from ghcalc.ivf import Grid, gh_derivative_1d, gh_gradient
from ghcalc.iop import Iop, optimality_zero_condition
from ghcalc.problems import abs_slab_ivf, piecewise_vee_ivf, quartic_ivf, smooth_parabolic_ivf
from ghcalc.subgrad import (
    LinearIvf,
    SubgradientCandidate,
    _Constraints,
    _GridValues,
    _exact_sets,
    _in_exact,
    chain_rule_transport,
    check_singleton_at_differentiable,
    directional_max_check,
    is_subgradient,
    is_subgradient_strict_variant,
    lipschitz_from_subgradients_check,
    norm_ball_membership_check,
    operator_norm,
    subdiff_scan_1d,
    sum_rule,
    union_boundedness_probe,
)


def cand(g, x_bar):
    return SubgradientCandidate(IVector.of(g), x_bar)


def test_candidate_length_must_match_point():
    with pytest.raises(LengthMismatch):
        SubgradientCandidate(IVector.of(Interval(0, 0)), (1.0, 2.0))


def test_is_subgradient_accepts_and_rejects():
    q = quartic_ivf()
    ok, witness = is_subgradient(q, cand(Interval(2, 4), (1.0,)))
    assert ok and witness is None
    slab = abs_slab_ivf()
    ok, witness = is_subgradient(slab, cand(Interval(2, 3), (0.0,)))
    assert not ok
    assert witness[0] > 0.0  # 2x exceeds the lower slope |x| for x > 0


def test_is_subgradient_checks_domain():
    with pytest.raises(OutOfDomain):
        is_subgradient(quartic_ivf(), cand(Interval(0, 0), (5.0,)))


def test_strict_variant_holds_for_the_identity():
    f = Ivf.from_text(1, "x1 * [1,1]", ((-1.0, 1.0),))
    ok, _ = is_subgradient_strict_variant(f, cand(Interval(1, 1), (0.0,)))
    assert ok


def test_strict_variant_is_more_restrictive():
    q = quartic_ivf()
    assert is_subgradient(q, cand(Interval(2, 4), (1.0,)))[0]
    ok, witness = is_subgradient_strict_variant(q, cand(Interval(2, 4), (1.0,)))
    assert not ok and witness[0] > 1.0


def test_scan_region_shape_and_accessors():
    f = abs_slab_ivf()
    region = subdiff_scan_1d(f, 0.0, ((-4.0, 2.0), (-2.0, 4.0)), steps=61)
    assert region.bitmap.shape == (61, 61)
    assert not region.is_empty
    assert region.step == pytest.approx((0.1, 0.1))
    marked = region.marked()
    assert marked.shape[1] == 2
    assert np.all(marked[:, 0] <= marked[:, 1] + 1e-12)
    csv = region.to_csv()
    assert csv.startswith("g_lo,g_hi,feasible\n")
    assert csv.count("\n") == 61 * 61 + 1


def test_scan_of_a_constant_collapses_to_zero():
    f = Ivf.from_text(1, "[1,2]", ((-1.0, 1.0),))
    region = subdiff_scan_1d(f, 0.0, ((-1.0, 1.0), (-1.0, 1.0)), steps=41)
    marked = region.marked()
    assert marked.shape[0] == 1
    assert marked[0, 0] == 0.0 and marked[0, 1] == 0.0


def test_default_scan_bounds_at_a_kink_come_from_the_analytic_box():
    # the slab has no gH-derivative at 0; its subdifferential there is the
    # box -3 <= g_lo <= 1, -1 <= g_hi <= 3, cut by g_lo <= g_hi
    region = subdiff_scan_1d(abs_slab_ivf(), 0.0)
    p_lb, p_ub, q_lb, q_ub = region.box
    assert region.g_lo_values[[0, -1]].tolist() == [p_lb - 3.0, p_ub + 3.0]
    assert region.g_hi_values[[0, -1]].tolist() == [q_lb - 3.0, q_ub + 3.0]
    marked, step = region.marked(), max(region.step)
    assert np.all((marked >= np.array([-3.0, -1.0]) - step)
                  & (marked <= np.array([1.0, 3.0]) + step))
    assert np.all(np.abs(marked.min(axis=0) - [-3.0, -1.0]) <= step)
    assert np.all(np.abs(marked.max(axis=0) - [1.0, 3.0]) <= step)


def test_default_scan_bounds_at_a_smooth_point_are_the_derivative_plus_minus_3():
    f = quartic_ivf()
    d = gh_derivative_1d(f, 1.0)
    explicit = subdiff_scan_1d(f, 1.0, ((d.lo - 3.0, d.lo + 3.0), (d.hi - 3.0, d.hi + 3.0)))
    region = subdiff_scan_1d(f, 1.0)
    assert region.to_csv() == explicit.to_csv()


def test_default_scan_bounds_raise_without_a_derivative_or_a_finite_box():
    # a domain of zero width has no derivative, and no sample off x_bar bounds the box
    with pytest.raises(NonFiniteDerivative, match="zero width"):
        subdiff_scan_1d(Ivf.from_text(1, "x1", ((0.0, 0.0),)), 0.0)


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        subdiff_scan_1d(Ivf.from_text(2, "x1 + x2", ((-1, 1), (-1, 1))), 0.0)
    with pytest.raises(OutOfDomain):
        subdiff_scan_1d(abs_slab_ivf(), 5.0)


@pytest.mark.parametrize("steps", [0, 1, (5, 1), (1, 5), (5,), (5, 5, 5)])
def test_scan_needs_two_steps_per_axis(steps):
    # one step has no step width, and none marks nothing: a false "empty";
    # (5,) indexed past its end, and (5, 5, 5) dropped its third count
    with pytest.raises(ValueError, match=r"^need at least 2 scan steps per axis, got \("):
        subdiff_scan_1d(abs_slab_ivf(), 0.0, ((-4.0, 2.0), (-2.0, 4.0)), steps=steps)


@pytest.mark.parametrize("bounds", [
    ((float("nan"), 1.0), (-1.0, 1.0)),
    ((-1.0, 1.0), (-1.0, float("inf"))),
    ((2.0, -4.0), (-2.0, 4.0)),
    ((-4.0, 2.0), (4.0, -2.0)),
])
def test_scan_refuses_bounds_that_are_not_finite_or_are_reversed(bounds):
    # a NaN bound marked NaN rows with numpy warnings; reversed bounds
    # rasterized backwards, with a negative step
    with pytest.raises(ValueError, match=r"^scan bounds must be finite, each lo <= hi, got \("):
        subdiff_scan_1d(abs_slab_ivf(), 0.0, bounds, steps=3)


def test_the_singleton_check_takes_no_scan_arguments():
    # no scan bounds in the fourth place, and no steps: one variable always scans 121
    with pytest.raises(TypeError):
        check_singleton_at_differentiable(quartic_ivf(), (1.0,), None, 121)
    with pytest.raises(TypeError):
        check_singleton_at_differentiable(quartic_ivf(), (1.0,), steps=121)


def test_singleton_check_at_smooth_points():
    assert check_singleton_at_differentiable(quartic_ivf(), (1.0,))
    assert check_singleton_at_differentiable(smooth_parabolic_ivf(), (1.0,))


def test_the_singleton_scan_refuses_a_gradient_too_large_to_resolve():
    # a piecewise F is not proved, so it is scanned over the gradient
    # [1e17, 3e17] plus/minus 3, which rounds back onto it: the scan would
    # have no width, and the check says so rather than answer False
    f = Ivf.from_text(1, "piecewise{ x1 <= 0 => [1e17,3e17]*x1; x1 >= 0 => [1e17,3e17]*x1; }",
                      ((-1.0, 1.0),))
    message = r"^no width to scan at the gradient \[1e\+17,3e\+17\]"
    with pytest.raises(UnresolvedScan, match=message):
        check_singleton_at_differentiable(f, (0.5,))
    # the same piece at a scale the scan resolves
    f = Ivf.from_text(1, "piecewise{ x1 <= 0 => [1,3]*x1; x1 >= 0 => [1,3]*x1; }", ((0.0, 1.0),))
    assert check_singleton_at_differentiable(f, (0.5,))


def test_singleton_check_fails_when_the_region_is_empty_in_2d(monkeypatch):
    # mixed-sign displacements can exclude even the gH-gradient in 2-D: here
    # the gradients of f_lo and f_hi differ on both axes, so the exact
    # subdifferential is empty, which is reported as False, not an error
    f = Ivf.from_text(2, "[1,2]*(pow2(x1) + pow2(x2))", ((-1, 1), (-1, 1)))
    grad = gh_gradient(f, (0.5, 0.3))
    ok, _ = is_subgradient(f, SubgradientCandidate(grad, (0.5, 0.3)), f.grid(21))
    assert not ok
    calls = counted_calls(monkeypatch)
    assert not check_singleton_at_differentiable(f, (0.5, 0.3), f.grid(21))
    assert calls["eval_many"] == calls["grid"] == 0


def test_2d_singleton_check_reads_the_exact_sets_without_the_grid(monkeypatch):
    # the gradients of f_lo and f_hi differ on one axis only
    calls = counted_calls(monkeypatch)
    f = Ivf.from_text(2, "[1,2]*pow2(x1) + pow2(x2) + [0,1]", ((-1, 1), (-1, 1)))
    assert check_singleton_at_differentiable(f, (0.5, 0.5), f.grid(81))
    assert calls == {"eval_many": 0, "grid": 0, "walks": 2}


def test_the_singleton_check_decides_in_three_variables_and_refuses_uncertified_2d():
    f = Ivf.from_text(3, "[1,2]*pow2(x1) + pow2(x2 - 0.1) + [0.5,0.5]*pow2(x3)",
                      ((-1, 1),) * 3)
    assert check_singleton_at_differentiable(f, (0.5, 0.5, -0.5))
    # at a domain bound the subdifferential is unbounded on the outer side
    assert not check_singleton_at_differentiable(f, (1.0, 0.5, -0.5))
    # norm() reads both variables, so the exact sets are not proved
    g = Ivf.from_text(2, "pow2(norm())", ((-1, 1), (-1, 1)))
    with pytest.raises(ValueError, match="needs a convex, separable F"):
        check_singleton_at_differentiable(g, (0.5, 0.5))


def test_2d_exact_test_accepts_exactly_the_candidates_the_sampled_check_accepts():
    f = Ivf.from_text(2, "abs(x1)*[1,3] + abs(x2 - 0.2)*[1,2] + [0,1]",
                      ((-1, 1), (-1, 1)))
    grid, x_bar = f.grid(11), (0.0, 0.2)
    sets = _exact_sets(f, x_bar, grid)
    x = np.array(x_bar)
    cons = _Constraints(_GridValues(f, grid), x, f.boundary(x))
    # lattice nodes fall on the edges of the region, where a slack decides
    bounds = ((-5.0, 3.0), (-3.0, 5.0), (-3.0, 1.0), (-1.0, 3.0))
    axes = [np.linspace(lo, hi, 5) for lo, hi in bounds]
    exact, sampled = [], []
    for p1 in axes[0]:
        for q1 in axes[1]:
            for p2 in axes[2]:
                for q2 in axes[3]:
                    if p1 <= q1 and p2 <= q2:
                        g = IVector.of(Interval(p1, q1), Interval(p2, q2))
                        if _in_exact(sets, g, 1e-10):
                            exact.append((p1, q1, p2, q2))
                        if cons.check(g, 1e-10)[0]:
                            sampled.append((p1, q1, p2, q2))
    assert 0 < len(exact) < 5 ** 4
    assert exact == sampled


def test_a_constant_shift_leaves_a_2d_verdict_unchanged(monkeypatch):
    # the sampled check said NO at witness [0, 0.05] with the shift: the
    # differences of values near 1e9 keep too few digits for its slack
    calls = counted_calls(monkeypatch)
    g = IVector.of(Interval(1, 1), Interval(1, 1))
    for shift in ("", " + [1e9,1e9]"):
        f = Ivf.from_text(2, "abs(x1)*[1,3] + abs(x2)*[1,2]" + shift, ((-1, 1), (-1, 1)))
        assert is_subgradient(f, SubgradientCandidate(g, (0.0, 0.0)), f.grid(41)) == (True, None)
    assert calls["eval_many"] == calls["grid"] == 0


def test_an_exact_3d_yes_evaluates_nothing_and_a_no_keeps_its_sampled_witness(monkeypatch):
    calls = counted_calls(monkeypatch)
    f = Ivf.from_text(3, "[1,2]*abs(x1) + [0.5,1]*abs(x2 - 0.5) + [1,1]*pow2(x3) + [2,3]",
                      ((-1, 1),) * 3)
    yes = IVector.of(Interval(-1, 2), Interval(-0.5, 0.5), Interval(0, 0))
    assert is_subgradient(f, SubgradientCandidate(yes, (0.0, 0.5, 0.0)), f.grid(17)) == (True, None)
    assert calls == {"eval_many": 0, "grid": 0, "walks": 1}
    no = IVector.of(Interval(-1, 2), Interval(-0.5, 0.5), Interval(0.5, 0.5))
    ok, witness = is_subgradient(f, SubgradientCandidate(no, (0.0, 0.5, 0.0)), f.grid(17))
    assert not ok and witness[2] > 0.0


def test_directional_max_check_on_the_slab():
    f = abs_slab_ivf()
    region = subdiff_scan_1d(f, 0.0, ((-4.0, 2.0), (-2.0, 4.0)), steps=121)
    for h in (1.0, -1.0):
        maximum, match = directional_max_check(f, 0.0, h, region, tol=1e-6)
        assert match
        assert maximum.lo == pytest.approx(1.0, abs=1e-9)
        assert maximum.hi == pytest.approx(3.0, abs=1e-9)


def test_directional_max_check_requires_a_nonempty_region():
    f = abs_slab_ivf()
    region = subdiff_scan_1d(f, 0.0, ((1.5, 2.0), (-2.0, -1.5)), steps=11)
    assert region.is_empty
    with pytest.raises(EmptySubdifferentialEncountered):
        directional_max_check(f, 0.0, 1.0, region)


def test_operator_norm():
    assert operator_norm(LinearIvf(IVector.of(Interval(1, 3)))) == 3.0
    assert operator_norm(LinearIvf(IVector.of(Interval(0, 0)))) == 0.0
    l2 = LinearIvf(IVector.of(Interval(1, 1), Interval(1, 1)))
    assert operator_norm(l2) == math.sqrt(2.0)


ENDPOINT = st.floats(-1e3, 1e3, allow_subnormal=False)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.tuples(ENDPOINT, ENDPOINT).map(sorted), min_size=1, max_size=4),
       st.lists(st.lists(st.floats(-1.0, 1.0, allow_subnormal=False), min_size=4, max_size=4),
                max_size=20))
def test_the_operator_norm_is_attained_and_no_direction_exceeds_it(ends, directions):
    l = LinearIvf(IVector.of(*(Interval(a, b) for a, b in ends)))
    norm = operator_norm(l)
    # v* takes each endpoint of larger magnitude; |v*| is the closed form
    v = [b if abs(b) >= abs(a) else a for a, b in ends]
    if norm > 0.0:
        assert l([c / norm for c in v]).norm == pytest.approx(norm, rel=1e-12, abs=0.0)
    for d in directions:
        d = d[:len(ends)]
        if math.hypot(*d) > 0.0:
            # a sampled direction, within the rounding of the two sides
            assert l([c / math.hypot(*d) for c in d]).norm <= norm * (1.0 + 1e-12)


def test_norm_ball_membership():
    f = Ivf.from_text(1, "[0,2] * norm()", ((-1.0, 1.0),))
    # member of the subdifferential at 0, operator norm within the ball
    assert norm_ball_membership_check(f, LinearIvf(IVector.of(Interval(0, 2))))
    # non-member: the implication is vacuously true
    assert norm_ball_membership_check(f, LinearIvf(IVector.of(Interval(0, 3))))
    with pytest.raises(MalformedNormIvf):
        norm_ball_membership_check(abs_slab_ivf(),
                                   LinearIvf(IVector.of(Interval(0, 1))))
    with pytest.raises(MalformedNormIvf):
        norm_ball_membership_check(
            Ivf.from_text(1, "[-1,2] * norm()", ((-1.0, 1.0),)),
            LinearIvf(IVector.of(Interval(0, 1))))


def test_chain_rule_transport():
    g = IVector.of(Interval(1, 2), Interval(0, 1))
    assert chain_rule_transport([[1.0], [1.0]], g) == IVector.of(Interval(1, 3))
    assert chain_rule_transport([[2.0]], IVector.of(Interval(1, 3))) \
        == IVector.of(Interval(2, 6))
    with pytest.raises(DimensionMismatch):
        chain_rule_transport([[1.0]], g)
    with pytest.raises(DimensionMismatch):
        chain_rule_transport([1.0, 2.0], g)


def test_sum_rule():
    parts = [IVector.of(Interval(1, 2)), IVector.of(Interval(-1, 0)),
             IVector.of(Interval(0, 1))]
    assert sum_rule(parts) == IVector.of(Interval(0, 3))
    with pytest.raises(LengthMismatch):
        sum_rule([])
    with pytest.raises(LengthMismatch):
        sum_rule([IVector.of(Interval(0, 1)),
                  IVector.of(Interval(0, 1), Interval(0, 1))])


def test_sum_of_part_subgradients_can_fail_on_the_sum():
    # widths of the two summands move in opposite directions near 1, so
    # the componentwise Moore sum of valid part subgradients is not a
    # subgradient of the summed function: the rule is an inclusion only
    # under width alignment, not in general
    q = quartic_ivf()
    p = smooth_parabolic_ivf()
    assert is_subgradient(q, cand(Interval(2, 4), (1.0,)))[0]
    assert is_subgradient(p, cand(Interval(0, 4), (1.0,)))[0]
    combined = Ivf.from_text(
        1,
        "[1,1]*pow4(x1) + [0,1]*(pow2(x1) - pow4(x1) + 34) + [1,6]"
        " + [1,2]*pow2(x1) - [0,2]*(x1 + 1) + [4,6]",
        ((0.0, 2.0),))
    summed = sum_rule([IVector.of(Interval(2, 4)), IVector.of(Interval(0, 4))])
    ok, witness = is_subgradient(combined, SubgradientCandidate(summed, (1.0,)))
    assert not ok
    assert 0.0 < witness[0] < 1.0


def test_union_boundedness_probe_on_the_slab():
    sup = union_boundedness_probe(abs_slab_ivf())
    assert sup == pytest.approx(3.0, abs=1e-6)
    with pytest.raises(ValueError):
        union_boundedness_probe(Ivf.from_text(2, "x1 + x2", ((-1, 1), (-1, 1))))


def test_lipschitz_bound_from_subgradients():
    assert lipschitz_from_subgradients_check(abs_slab_ivf())


def test_a_grid_eval_many_accepts_keeps_the_exact_verdicts():
    # past the domain by less than 1e-9*(1 + |l| + |u|), which eval_many
    # accepts, the grid took the sampled path, whose shifted differences
    # lose their digits: NO at 0.010000000000504938, a sampled scan box,
    # and a probe of 3.000000121707788
    f = Ivf.from_text(1, "abs(x1)*[1,3] + [1e9,1e9]", ((-1.0, 1.0),))
    g = cand(Interval(1, 1), (0.0,))
    f2 = Ivf.from_text(2, "abs(x1)*[1,3] + [1e9,1e9] + abs(x2)*[1,2] + [1e9,1e9]",
                       ((-1.0, 1.0), (-1.0, 1.0)))
    g2 = SubgradientCandidate(IVector.of(Interval(1, 1), Interval(1, 1)), (0.0, 0.0))
    for upper in (1.0, 1.0 + 1e-12):
        grid = Grid((-1.0,), (upper,), (201,))
        assert is_subgradient(f, g, grid) == (True, None)
        assert subdiff_scan_1d(f, 0.0, grid=grid).method == "exact"
        assert union_boundedness_probe(f, grid) == 3.0
        # in two variables, past the domain on one axis or on both
        for lower in ((-1.0, -1.0), (-1.0 - 1e-12, -1.0)):
            for uppers in ((upper, 1.0), (1.0, upper)):
                assert is_subgradient(f2, g2, Grid(lower, uppers, (41, 41))) == (True, None)
    # further out the sampled path refuses the grid, as eval_many does
    with pytest.raises(OutOfDomain, match="evaluation point outside the domain box"):
        is_subgradient(f, g, Grid((-1.0,), (1.0 + 1e-6,), (201,)))


def test_grid_values_evaluate_a_proved_f_as_read_and_any_other_f_at_once(monkeypatch):
    runs, eval_run = [], Ivf._eval_run
    monkeypatch.setattr(Ivf, "_eval_run", lambda self, axes, index: runs.append(
        len(axes[0][index[0]]) if index else "grid") or eval_run(self, axes, index))
    monkeypatch.setattr(subgrad, "_CHECK_RUN", 5)
    grid, g = Grid((-1.0,), (1.0,), (21,)), cand(Interval(5, 5), (0.0,))
    # proved convex: the runs of 5 nodes up to the witness's, at node 11
    f = Ivf.from_text(1, "abs(x1)*[1,3]", ((-1.0, 1.0),))
    assert is_subgradient(f, g, grid) == (False, [0.10000000000000009])
    assert runs == [5, 5, 5]
    # not proved: the whole grid when the values are built, so a pole at
    # node 19 raises before the check reads its first run
    runs.clear()
    pole = float(grid.axes()[0][19])
    f = Ivf.from_text(1, f"abs(x1)*[1,3] + [0,0]/(x1 - {pole!r})", ((-1.0, 1.0),))
    with pytest.raises(ZeroInDenominator):
        is_subgradient(f, g, grid)
    assert runs == ["grid"]


def test_a_constant_shift_keeps_a_subgradient_of_a_proved_convex_objective():
    # sampled, the shifted differences lose their digits and G = [1,1]
    # fails at 0.01; the exact box of the slopes does not see the shift
    f = Ivf.from_text(1, "abs(x1)*[1,3] + [1e9,1e9]", ((-1.0, 1.0),))
    assert is_subgradient(f, cand(Interval(1, 1), (0.0,))) == (True, None)
    sampled = subgrad._evaluate(f, cand(Interval(1, 1), (0.0,)), None)
    assert sampled.check(IVector.of(Interval(1, 1)), 1e-10) == (False, [0.010000000000000009])
    # outside the box the samples decide, and name their witness
    ok, witness = is_subgradient(f, cand(Interval(2, 2), (0.0,)))
    assert not ok and witness == [0.010000000000000009]


def test_the_probe_reads_scaled_and_shifted_parabolas_exactly():
    # at grid 21 the extreme interior nodes are -0.9 and 0.9, where the
    # upper slope 4x is 3.6 in size; sampled, the shift drowns the
    # quotients and the scale fails the re-verification
    grid = Grid.on_domain(((-1.0, 1.0),), 21)
    shifted = Ivf.from_text(1, "[1,2]*pow2(x1) + [1e17,1e17]", ((-1.0, 1.0),))
    scaled = Ivf.from_text(1, "[1e300,2e300]*pow2(x1)", ((-1.0, 1.0),))
    assert union_boundedness_probe(shifted, grid) == pytest.approx(3.6, rel=1e-15)
    assert union_boundedness_probe(scaled, grid) == pytest.approx(3.6e300, rel=1e-15)


def test_the_region_says_how_its_box_was_found():
    exact = subdiff_scan_1d(abs_slab_ivf(), 0.0, ((-4.0, 2.0), (-2.0, 4.0)), steps=11)
    sampled = subdiff_scan_1d(quartic_ivf(), 1.0, steps=11)
    assert (exact.method, sampled.method) == ("exact", "sampled")
    assert exact.box == (-3.0, 1.0, -1.0, 3.0)
    # repr and == ignore it, a copy keeps it, and it cannot be set
    assert "method" not in repr(exact)
    assert exact == dataclasses.replace(exact, method="sampled")
    assert dataclasses.replace(exact, bitmap=exact.bitmap).method == "exact"
    with pytest.raises(AttributeError):
        exact.method = "sampled"


def test_an_exact_scan_widens_its_marks_by_tol_and_keeps_its_box():
    f = abs_slab_ivf()
    bounds = ((-4.0, 2.0), (-2.0, 4.0))
    narrow = subdiff_scan_1d(f, 0.0, bounds, steps=61)
    wide = subdiff_scan_1d(f, 0.0, bounds, steps=61, tol=0.15)
    assert wide.box == narrow.box == (-3.0, 1.0, -1.0, 3.0)
    # so the maximum read from the box does not move with tol
    for h in (1.0, -1.0):
        assert directional_max_check(f, 0.0, h, wide) == (Interval(1.0, 3.0), True)
    # one more cell of 0.1 beyond each bound of the box
    for values, axis, cells in ((wide.g_lo_values, 0, (-3.1, 1.1)),
                                (wide.g_hi_values, 1, (-1.1, 3.1))):
        for cell in cells:
            at = np.isclose(values, cell)
            assert not narrow.bitmap.compress(at, axis).any()
            assert wide.bitmap.compress(at, axis).any()


def test_exact_scans_at_the_domain_bounds_take_the_slopes_into_the_domain():
    # the outer side is unbounded there, and the default bounds centre on
    # the one-sided derivative, as gh_derivative_1d gives it
    f = smooth_parabolic_ivf()
    for x in f.domain[0]:
        region = subdiff_scan_1d(f, x, steps=61)
        d = gh_derivative_1d(f, x)
        assert region.method == "exact"
        assert region.g_lo_values[[0, -1]].tolist() == [d.lo - 3.0, d.lo + 3.0]
        assert region.g_hi_values[[0, -1]].tolist() == [d.hi - 3.0, d.hi + 3.0]
        if x == f.domain[0][0]:
            assert (region.box[0], region.box[2]) == (-np.inf, -np.inf)
        else:
            assert (region.box[1], region.box[3]) == (np.inf, np.inf)


@pytest.mark.parametrize("f, x_bar, bounds", [
    (abs_slab_ivf(), 0.0, ((-4.0, 2.0), (-2.0, 4.0))),
    (abs_slab_ivf(), 0.0, ((-2.0, 0.5), (-0.5, 2.0))),
    (Ivf.from_text(1, "[0.5,2]*abs(x1 - 0.3) + [0.2,1]*pow2(x1) + [1,2]", ((-1.0, 2.0),)),
     0.3, ((-3.0, 1.0), (-1.0, 3.0))),
    (quartic_ivf(), 1.0, None),
    (piecewise_vee_ivf(), 0.0, None),
])
@pytest.mark.parametrize("h", [2.0, 0.5, 0.0, -1.0, -3.0])
def test_the_maximum_bounds_the_marked_cells_within_a_cell(f, x_bar, bounds, h):
    # the scan rectangle cuts the box; a sampled region's maximum is the
    # marked cells' own
    region = subdiff_scan_1d(f, x_bar, bounds, steps=81)
    maximum, _ = directional_max_check(f, x_bar, h, region)
    marked = region.marked()
    ends = (marked[:, 0], marked[:, 1]) if h >= 0.0 else (marked[:, 1], marked[:, 0])
    cell = abs(h) * max(region.step) + 1e-12 if region.method == "exact" else 0.0
    for bound, products in zip((maximum.lo, maximum.hi), ends):
        assert 0.0 <= bound - float(np.max(h * products)) <= cell
    if h != 0.0:
        # a candidate of the region attains it
        lo, hi = sorted((maximum.lo / h, maximum.hi / h))
        p_lb, p_ub, q_lb, q_ub = region.box
        assert p_lb - 1e-12 <= lo <= p_ub + 1e-12 and q_lb - 1e-12 <= hi <= q_ub + 1e-12


def test_a_sampled_region_keeps_the_marked_cells_maximum():
    # the quartic is not proved convex; its sampled box reaches most of a
    # scan cell past the last marked one, which the maximum does not read
    f = quartic_ivf()
    region = subdiff_scan_1d(f, 1.0)
    assert region.method == "sampled"
    maximum, match = directional_max_check(f, 1.0, 1.0, region, tol=0.06)
    assert (maximum.lo, maximum.hi, match) == (2.0, 4.050000000000001, True)


def test_a_base_point_within_the_domain_tolerance_reads_the_exact_sets_of_the_bound():
    # every point check accepts 2 + 1e-12 on [-2, 2]; the exact path reads it as 2
    f = Ivf.from_text(1, "abs(x1 - 2)*[1,3]", ((-2.0, 2.0),))
    for x in (2.0 + 1e-12, 2.0):
        region = subdiff_scan_1d(f, x)
        assert (region.method, region.box) == ("exact", (-3.0, np.inf, -1.0, np.inf))
    assert _exact_sets(f, [-2.0 - 1e-12]) == _exact_sets(f, [-2.0])
    g = Ivf.from_text(2, "abs(x1)*[1,3] + pow2(x2)", ((-1.0, 1.0), (0.0, 1.0)))
    assert _exact_sets(g, (0.0, -1e-12)) == _exact_sets(g, (0.0, 0.0))
    with pytest.raises(OutOfDomain):
        _exact_sets(f, [2.1])


def test_a_zero_in_the_exact_box_needs_no_sampled_check(monkeypatch):
    p = Iop(Ivf.from_text(1, "abs(x1)*[1,3] + [1e9,1e9]", ((-1.0, 1.0),)))

    def refuse(*args):
        raise AssertionError("sampled check")

    monkeypatch.setattr(subgrad._Constraints, "check", refuse)
    assert optimality_zero_condition(p, [0.0])
    # outside the box the grid samples decide
    with pytest.raises(AssertionError, match="sampled check"):
        optimality_zero_condition(p, [0.5])


def counted_calls(monkeypatch):
    """Count Ivf.eval_many calls, grid evaluations (Ivf._eval_run, which
    eval_many of a Grid also goes through, on the whole grid or one run of
    it) and the walks of the trees of Ivfs built from here on."""
    calls = {"eval_many": 0, "grid": 0, "walks": 0}
    eval_many, eval_run = Ivf.eval_many, Ivf._eval_run
    compile_tangents = ivf_module.compile_tangents

    def counted_eval(self, xs):
        calls["eval_many"] += 1
        return eval_many(self, xs)

    def counted_run(self, axes, index):
        calls["grid"] += 1
        return eval_run(self, axes, index)

    def counted_walker(node):
        walk = compile_tangents(node)

        def counted_walk(*args):
            calls["walks"] += 1
            return walk(*args)
        return counted_walk

    monkeypatch.setattr(Ivf, "eval_many", counted_eval)
    monkeypatch.setattr(Ivf, "_eval_run", counted_run)
    monkeypatch.setattr(ivf_module, "compile_tangents", counted_walker)
    return calls


@pytest.mark.parametrize("call, evaluations, walks", [
    (union_boundedness_probe, 0, 2),
    (lipschitz_from_subgradients_check, 1, 2),
])
def test_a_proved_convex_probe_walks_twice(monkeypatch, call, evaluations, walks):
    calls = counted_calls(monkeypatch)
    f = Ivf.from_text(1, "[0.5,2]*abs(x1 - 0.3) + [0.2,1]*pow2(x1) + [1,2]", ((-1.0, 2.0),))
    call(f)
    assert calls == {"eval_many": 0, "grid": evaluations, "walks": walks}


def test_the_vee_s_probe_evaluates_the_grid_once_and_walks_nothing(monkeypatch):
    calls = counted_calls(monkeypatch)
    union_boundedness_probe(piecewise_vee_ivf())
    assert calls == {"eval_many": 0, "grid": 1, "walks": 0}


def test_an_exact_verdict_compiles_no_array_closures(monkeypatch):
    compiled, compile_lo_hi = [], ivf_module.compile_lo_hi
    monkeypatch.setattr(ivf_module, "compile_lo_hi",
                        lambda node: compiled.append(node) or compile_lo_hi(node))
    f = abs_slab_ivf()
    g = IVector.of(Interval(0.0, 0.5))
    assert is_subgradient(f, SubgradientCandidate(g, (0.0,))) == (True, None)
    region = subdiff_scan_1d(f, 0.0)
    assert region.method == "exact" and region.box == (-3.0, 1.0, -1.0, 3.0)
    assert directional_max_check(f, 0.0, 1.0, region) == (Interval(1.0, 3.0), True)
    assert union_boundedness_probe(f) == 3.0
    assert compiled == []
    # a sampled verdict compiles them, once per function
    assert not is_subgradient(f, SubgradientCandidate(IVector.of(Interval(2.0, 3.0)), (0.0,)))[0]
    f.eval((1.0,))
    assert compiled == [f.body]
