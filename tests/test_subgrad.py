import tracemalloc

import numpy as np
import pytest

from ghcalc import Interval, IVector, Ivf
from ghcalc.errors import (
    DimensionMismatch,
    EmptySubdifferentialEncountered,
    LengthMismatch,
    MalformedNormIvf,
    NonFiniteDerivative,
    OutOfDomain,
)
from ghcalc.ivf import gh_derivative_1d, gh_gradient
from ghcalc.problems import abs_slab_ivf, quartic_ivf, smooth_parabolic_ivf
from ghcalc.subgrad import (
    LinearIvf,
    SubgradientCandidate,
    _scan_candidates_2d,
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
    # at the end of a domain too narrow for the stencil the box is one-sided
    with pytest.raises(NonFiniteDerivative, match="domain too small"):
        subdiff_scan_1d(Ivf.from_text(1, "x1", ((0.0, 1e-6),)), 0.0)


def test_scan_rejects_bad_inputs():
    with pytest.raises(ValueError):
        subdiff_scan_1d(Ivf.from_text(2, "x1 + x2", ((-1, 1), (-1, 1))), 0.0)
    with pytest.raises(OutOfDomain):
        subdiff_scan_1d(abs_slab_ivf(), 5.0)


@pytest.mark.parametrize("steps", [0, 1, (5, 1), (1, 5)])
def test_scan_needs_two_steps_per_axis(steps):
    # one step has no step width, and none marks nothing: a false "empty"
    with pytest.raises(ValueError, match=r"^need at least 2 scan steps per axis, got \("):
        subdiff_scan_1d(abs_slab_ivf(), 0.0, ((-4.0, 2.0), (-2.0, 4.0)), steps=steps)


def test_singleton_check_at_smooth_points():
    assert check_singleton_at_differentiable(quartic_ivf(), (1.0,))
    assert check_singleton_at_differentiable(smooth_parabolic_ivf(), (1.0,))


def test_singleton_check_fails_when_the_region_is_empty_in_2d():
    # mixed-sign displacements can exclude even the gH-gradient in 2-D;
    # an empty sampled region is reported as False rather than an error
    f = Ivf.from_text(2, "[1,2]*(pow2(x1) + pow2(x2))", ((-1, 1), (-1, 1)))
    grad = gh_gradient(f, (0.5, 0.3))
    ok, _ = is_subgradient(f, SubgradientCandidate(grad, (0.5, 0.3)), f.grid(21))
    assert not ok
    assert not check_singleton_at_differentiable(f, (0.5, 0.3), f.grid(21), steps=9)


def test_2d_scan_memory_does_not_grow_with_the_candidate_count():
    f = Ivf.from_text(2, "[1,2]*pow2(x1) + pow2(x2) + [0,1]", ((-1, 1), (-1, 1)))
    tracemalloc.start()
    try:
        assert check_singleton_at_differentiable(f, (0.5, 0.5), f.grid(81), steps=9)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 64 * 2**20


def test_2d_scan_marks_exactly_the_candidates_is_subgradient_accepts():
    f = Ivf.from_text(2, "abs(x1)*[1,3] + abs(x2 - 0.2)*[1,2] + [0,1]",
                      ((-1, 1), (-1, 1)))
    grid, x_bar = f.grid(11), (0.0, 0.2)
    # lattice nodes fall on the edges of the region, where a slack decides
    bounds = ((-5.0, 3.0), (-3.0, 5.0), (-3.0, 1.0), (-1.0, 3.0))
    marked = _scan_candidates_2d(f, np.array(x_bar), bounds, (5,) * 4, grid, 1e-10)
    axes = [np.linspace(lo, hi, 5) for lo, hi in bounds]
    accepted = [
        (p1, q1, p2, q2)
        for p1 in axes[0] for q1 in axes[1] for p2 in axes[2] for q2 in axes[3]
        if p1 <= q1 and p2 <= q2 and is_subgradient(f, SubgradientCandidate(
            IVector.of(Interval(p1, q1), Interval(p2, q2)), x_bar), grid)[0]]
    assert 0 < len(accepted) < 5 ** 4
    assert sorted(map(tuple, marked.tolist())) == sorted(accepted)


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
    assert operator_norm(l2) == pytest.approx(np.sqrt(2.0), abs=1e-3)
    with pytest.raises(ValueError):
        operator_norm(l2, sphere_samples=0)


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


def test_union_boundedness_probe_rejects_an_unknown_on_empty():
    for on_empty in ("ignore", "Raise", ""):
        with pytest.raises(ValueError, match="on_empty"):
            union_boundedness_probe(abs_slab_ivf(), on_empty=on_empty)


def test_lipschitz_bound_from_subgradients():
    assert lipschitz_from_subgradients_check(abs_slab_ivf())
