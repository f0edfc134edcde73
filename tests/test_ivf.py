import pickle
import warnings

import numpy as np
import pytest

from ghcalc import Grid, Interval, IVector, Ivf
from ghcalc.errors import LengthMismatch, NonFiniteDerivative, OutOfDomain
from ghcalc.expr import Comparison, Guard, Piecewise, Var
from ghcalc.ivf import (
    directional_gh_derivative,
    gh_derivative_1d,
    gh_gradient,
    is_convex_sampled,
    is_gh_continuous_at,
    lipschitz_estimate,
    partial_gh_derivative,
)
from ghcalc.problems import (
    abs_slab_ivf,
    piecewise_vee_ivf,
    quartic_ivf,
    smooth_parabolic_ivf,
)


# ---------------------------------------------------------------------------
# Grid
# ---------------------------------------------------------------------------


def test_grid_validation():
    with pytest.raises(ValueError):
        Grid((0.0,), (1.0,), (1,))
    with pytest.raises(ValueError):
        Grid((1.0,), (0.0,), (5,))
    with pytest.raises(ValueError):
        Grid((0.0, 0.0), (1.0,), (5, 5))


def test_grid_step_axes_points():
    g = Grid((0.0, -1.0), (1.0, 1.0), (3, 5))
    assert g.dim == 2
    assert g.step == (0.5, 0.5)
    axes = g.axes()
    assert np.allclose(axes[0], [0.0, 0.5, 1.0])
    pts = g.points()
    assert pts.shape == (15, 2)
    # row-major in axis order: the second coordinate varies fastest
    assert np.allclose(pts[0], [0.0, -1.0])
    assert np.allclose(pts[1], [0.0, -0.5])
    assert np.allclose(pts[5], [0.5, -1.0])


def test_grid_on_domain_scalar_count():
    g = Grid.on_domain(((0.0, 2.0), (-1.0, 1.0)), 11)
    assert g.counts == (11, 11)


def test_a_zero_width_axis_is_sampled_at_one_node():
    g = Grid.on_domain(((0.0, 2.0), (0.3, 0.3)), 11)
    assert g == Grid((0.0, 0.3), (2.0, 0.3), (11, 1))
    assert g.counts == (11, 1) and g.step == (0.2, 0.0)
    assert g.points().shape == (11, 2) and (g.points()[:, 1] == 0.3).all()


# ---------------------------------------------------------------------------
# Ivf basics
# ---------------------------------------------------------------------------


def test_ivf_construction_checks():
    with pytest.raises(ValueError):
        Ivf.from_text(1, "x1 + x2", ((0.0, 1.0),))
    with pytest.raises(ValueError):
        Ivf.from_text(2, "x1", ((0.0, 1.0),))
    with pytest.raises(ValueError):
        Ivf.from_text(1, "x1", ((1.0, 0.0),))


def test_eval_known_values():
    q = quartic_ivf()
    assert q.eval((1.0,)) == Interval(2.0, 41.0)
    assert q.eval((2.0,)) == Interval(17.0, 44.0)
    p = smooth_parabolic_ivf()
    assert p.eval((0.0,)) == Interval(2.0, 6.0)
    assert p.eval((1.0,)) == Interval(1.0, 8.0)
    assert p.boundary((0.0,)) == (2.0, 6.0)


def test_eval_rejects_points_outside_domain():
    q = quartic_ivf()
    assert q.contains((2.5,))
    assert not q.contains((2.6,))
    with pytest.raises(OutOfDomain):
        q.eval((3.0,))
    with pytest.raises(ValueError):
        q.eval((1.0, 1.0))


def test_contains_keeps_the_per_axis_tolerance():
    f = Ivf.from_text(2, "x1 + x2", ((-2.0, 6.0), (0.0, 1e3)))
    for i, (l, u) in enumerate(f.domain):
        tol = 1e-9 * (1.0 + abs(l) + abs(u))
        for edge, sign in ((l - tol, -1.0), (u + tol, 1.0)):
            inside, outside = [0.5, 0.5], [0.5, 0.5]
            inside[i] = edge
            outside[i] = np.nextafter(edge, sign * np.inf)
            assert f.contains(inside) and not f.contains(outside)
    assert f.contains([np.nan, 0.5])
    assert not f.contains([[0.5, 0.5], [7.0, 0.5]])


def test_a_single_point_is_checked_as_the_array_path_checks_it():
    f = Ivf.from_text(2, "x1 + x2", ((-2.0, 6.0), (0.0, 1e3)))
    coords = [np.nan, -np.nan, np.inf, -np.inf, 0.5, -0.0]
    for l, u in f.domain:
        tol = 1e-9 * (1.0 + abs(l) + abs(u))
        coords += [l - tol, u + tol, np.nextafter(l - tol, -np.inf), np.nextafter(u + tol, np.inf)]
    for a in coords:
        for b in coords:
            row = np.array([[a, b]])
            # two copies of the row take the array path
            assert f._inside(row) == f._inside(np.repeat(row, 2, axis=0))
    assert f._inside(np.array([[np.nan, np.nan]]))
    assert not f._inside(np.array([[np.nan, np.inf]]))


def test_compiled_body_is_no_field():
    f, g = quartic_ivf(), quartic_ivf()
    assert f == g and hash(f) == hash(g)
    assert "_lo_hi" not in repr(f)
    h = pickle.loads(pickle.dumps(f))
    assert h == f and h.eval((1.0,)) == f.eval((1.0,))


def test_eval_many_is_vectorized():
    f = abs_slab_ivf()
    xs = np.linspace(-2.0, 2.0, 9)[:, None]
    lo, hi = f.eval_many(xs)
    assert np.allclose(lo, np.abs(xs[:, 0]))
    assert np.allclose(hi, 3.0 * np.abs(xs[:, 0]))


# ---------------------------------------------------------------------------
# Derivatives
# ---------------------------------------------------------------------------


def test_gh_derivative_quartic():
    d = gh_derivative_1d(quartic_ivf(), 1.0)
    assert abs(d.lo - 2.0) < 1e-6
    assert abs(d.hi - 4.0) < 1e-6


def test_gh_derivative_constant_is_zero():
    f = Ivf.from_text(1, "[1,2]", ((-1.0, 1.0),))
    d = gh_derivative_1d(f, 0.3)
    assert abs(d.lo) < 1e-9 and abs(d.hi) < 1e-9


def test_gh_derivative_detects_kinks():
    with pytest.raises(NonFiniteDerivative):
        gh_derivative_1d(abs_slab_ivf(), 0.0)
    with pytest.raises(NonFiniteDerivative):
        gh_derivative_1d(piecewise_vee_ivf(), 2.0)


@pytest.mark.parametrize("text, slope", [("[-1,1]*x1", Interval(-1.0, 1.0)),
                                         ("[-1,2]*x1", Interval(-1.0, 2.0))])
def test_a_point_where_lo_and_hi_swap_their_one_sided_slopes_is_differentiable(text, slope):
    # lo and hi both kink at 0, but (F(t) gh- F(0))/t = [-1, 1] or [-1, 2]
    # from either side
    f = Ivf.from_text(1, text, ((-1.0, 1.0),))
    assert gh_derivative_1d(f, 0.0) == slope
    assert partial_gh_derivative(f, [0.0], 0) == slope
    assert gh_gradient(f, [0.0]) == IVector.of(slope)


def test_a_gradient_at_a_kink_raises_and_a_tiny_domain_does_not():
    with pytest.raises(NonFiniteDerivative, match="mismatched one-sided slopes"):
        gh_gradient(piecewise_vee_ivf(), (2.0,))
    tiny = Ivf.from_text(1, "x1", ((0.0, 1e-6),))
    assert gh_gradient(tiny, (5e-7,)) == IVector.of(Interval(1.0, 1.0))


def test_a_narrow_domain_gives_the_exact_derivative():
    # no stencil has to fit: 0 is inside, and the derivative there is 0
    for domain in ((-5e-5, 1.5e-4), (-1.5e-4, 5e-5)):
        f = Ivf.from_text(1, "[1,2]*pow2(x1)", (domain,))
        assert gh_gradient(f, [0.0]) == IVector.of(Interval(0.0, 0.0))
        assert gh_derivative_1d(f, 0.0) == Interval(0.0, 0.0)


def test_derivatives_check_the_domain_once_per_call(monkeypatch):
    f = Ivf.from_text(2, "[1,2]*pow2(x1) + x2", ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(OutOfDomain, match=r"^\[1\.5, 0\.0\] is outside the domain$"):
        partial_gh_derivative(f, [1.5, 0.0], 1)
    with pytest.raises(OutOfDomain, match=r"^\[0\.0, -2\.0\] is outside the domain$"):
        gh_gradient(f, (0.0, -2.0))
    checks = []
    inside = Ivf._inside
    monkeypatch.setattr(Ivf, "_inside", lambda self, arr: checks.append(arr.shape) or inside(self, arr))
    assert gh_gradient(f, (0.5, 0.25)) == IVector.of(Interval(1.0, 2.0), Interval(1.0, 1.0))
    assert checks == [(1, 2)]
    checks.clear()
    assert gh_gradient(f, (1.0, -1.0)) == IVector.of(Interval(2.0, 4.0), Interval(1.0, 1.0))
    assert checks == [(1, 2)]


def test_a_derivative_at_a_bound_is_one_sided_and_exact():
    q = quartic_ivf()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert gh_derivative_1d(q, 0.0) == Interval(0.0, 0.0)
        # lo = x^4 + 1 and hi = x^2 + 40, from the left at 2.5
        assert gh_derivative_1d(q, 2.5) == Interval(5.0, 62.5)


def test_derivatives_are_exact_at_the_canned_points():
    assert gh_derivative_1d(quartic_ivf(), 1.0) == Interval(2.0, 4.0)
    assert gh_derivative_1d(smooth_parabolic_ivf(), 0.5) == Interval(-1.0, 2.0)
    vee = piecewise_vee_ivf()
    # each side of a join takes the slope of the piece on that side
    assert directional_gh_derivative(vee, [1.0], [1.0]) == Interval(-1.0, 0.0)
    assert directional_gh_derivative(vee, [1.0], [-1.0]) == Interval(1.0, 2.0)
    assert directional_gh_derivative(vee, [3.0], [1.0]) == Interval(1.0, 2.0)
    assert directional_gh_derivative(vee, [3.0], [-1.0]) == Interval(-1.0, 0.0)


def test_a_join_whose_slopes_differ_by_rounding_reads_as_a_kink():
    # both pieces are 0.3*x1, but 0.1*3 rounds to 0.30000000000000004; the
    # two one-sided slopes come from different pieces and are compared exactly
    f = Ivf.from_text(1, "piecewise{ x1 <= 1 => x1*0.1*3; x1 >= 1 => x1*0.3; }", ((0.0, 2.0),))
    assert directional_gh_derivative(f, [1.0], [-1.0]) == Interval(-0.30000000000000004,
                                                                     -0.30000000000000004)
    assert directional_gh_derivative(f, [1.0], [1.0]) == Interval(0.3, 0.3)
    with pytest.raises(NonFiniteDerivative, match="mismatched one-sided slopes"):
        gh_derivative_1d(f, 1.0)


def test_a_piece_that_holds_at_a_join_gives_only_the_slopes_it_is_picked_for():
    # the inner piecewise covers nothing beyond 1, but along +1 the outer one
    # takes its slope from its second piece
    x1 = Var(0)
    below, above = Guard((Comparison(0, "<=", 1.0),)), Guard((Comparison(0, ">=", 1.0),))
    f = Ivf(1, Piecewise(((below, Piecewise(((below, x1),))), (above, x1))), ((0.0, 2.0),))
    assert gh_derivative_1d(f, 1.0) == Interval(1.0, 1.0)
    assert directional_gh_derivative(f, [1.0], [-1.0]) == Interval(-1.0, -1.0)


def test_partials_and_gradient_of_linear():
    f = Ivf.from_text(2, "[1,2]*x1 + [0,1]*x2", ((-1.0, 1.0), (-1.0, 1.0)))
    d1 = partial_gh_derivative(f, (0.5, 0.25), 0)
    d2 = partial_gh_derivative(f, (0.5, 0.25), 1)
    assert abs(d1.lo - 1.0) < 1e-9 and abs(d1.hi - 2.0) < 1e-9
    assert abs(d2.lo) < 1e-9 and abs(d2.hi - 1.0) < 1e-9
    grad = gh_gradient(f, (0.5, 0.25))
    assert len(grad) == 2 and grad[0] == d1 and grad[1] == d2


def test_directional_derivative_at_a_kink():
    f = abs_slab_ivf()
    for h in (1.0, -1.0):
        d = directional_gh_derivative(f, [0.0], [h])
        assert abs(d.lo - 1.0) < 1e-9 and abs(d.hi - 3.0) < 1e-9


def test_directional_derivative_matches_gradient_when_smooth():
    q = quartic_ivf()
    d = directional_gh_derivative(q, [1.0], [1.0])
    assert abs(d.lo - 2.0) < 1e-5 and abs(d.hi - 4.0) < 1e-5


def test_a_steep_directional_derivative_is_exact():
    f = Ivf.from_text(1, "1e20*pow3(x1)", ((-1.0, 1.0),))
    assert directional_gh_derivative(f, [0.0], [1.0]) == Interval(0.0, 0.0)


def test_directional_derivative_follows_the_scale_of_h():
    d = directional_gh_derivative(abs_slab_ivf(), [1.0], [1e-300])
    assert d == Interval(1e-300, 3e-300)


def test_directional_derivative_needs_room():
    with pytest.raises(OutOfDomain):
        directional_gh_derivative(abs_slab_ivf(), [2.0], [1.0])


@pytest.mark.parametrize("i", [-1, 2])
def test_a_partial_derivative_refuses_an_axis_out_of_range(i):
    f = Ivf.from_text(2, "[1,2]*x1 + x2", ((-1.0, 1.0), (-1.0, 1.0)))
    with pytest.raises(ValueError, match=f"^axis {i} is not one of the 2 axes$"):
        partial_gh_derivative(f, [0.5, 0.5], i)


def test_a_direction_of_the_wrong_length_is_refused():
    f = Ivf.from_text(2, "x1 + x2", ((-1.0, 1.0),) * 2)
    for h in ([1.0], [1.0, 0.0, 0.0]):
        with pytest.raises(LengthMismatch, match="^expected a direction of length 2, got"):
            directional_gh_derivative(f, [0.0, 0.0], h)


def test_a_non_finite_point_is_out_of_the_domain():
    f = Ivf.from_text(2, "abs(x1)*[1,2] + x2", ((-1.0, 1.0), (-1.0, 1.0)))
    for x in ([np.nan, 0.5], [0.5, -np.nan], [np.inf, 0.5]):
        for derivative in (lambda: gh_gradient(f, x), lambda: partial_gh_derivative(f, x, 1),
                           lambda: directional_gh_derivative(f, x, [1.0, 0.0]),
                           lambda: is_gh_continuous_at(f, x)):
            with pytest.raises(OutOfDomain, match="is outside the domain$"):
                derivative()
    with pytest.raises(OutOfDomain):
        gh_derivative_1d(abs_slab_ivf(), np.nan)


def test_a_non_finite_direction_is_refused():
    for h in ([np.nan], [np.inf], [-np.inf]):
        with pytest.raises(ValueError, match="^direction must be finite"):
            directional_gh_derivative(abs_slab_ivf(), [0.5], h)


# ---------------------------------------------------------------------------
# Sampled diagnostics
# ---------------------------------------------------------------------------


def test_convexity_check_accepts_the_examples():
    for f in (quartic_ivf(), abs_slab_ivf(), piecewise_vee_ivf(),
              smooth_parabolic_ivf()):
        ok, witness = is_convex_sampled(f, f.grid(21))
        assert ok and witness is None


def test_convexity_check_rejects_a_concave_band():
    f = Ivf.from_text(1, "0 - pow2(x1) + [0,1]", ((-1.0, 1.0),))
    ok, witness = is_convex_sampled(f, f.grid(21))
    assert not ok
    x1, x2, lam = witness
    assert len(x1) == 1 and len(x2) == 1 and 0.0 < lam < 1.0


def test_gh_continuity_at_a_kink_and_across_a_jump():
    assert is_gh_continuous_at(abs_slab_ivf(), (0.0,))
    # jump of height 2 hidden in an unsampled sliver right of the origin
    step = Ivf.from_text(
        1, "piecewise{ x1 <= 0 => [0,1]; x1 >= 1e-21 => [2,3]; }",
        ((-1.0, 1.0),))
    assert not is_gh_continuous_at(step, (0.0,))


def test_lipschitz_estimate():
    f = Ivf.from_text(1, "[1,2]", ((-1.0, 1.0),))
    assert lipschitz_estimate(f, f.grid(11)) == 0.0
    slab = abs_slab_ivf()
    est = lipschitz_estimate(slab, slab.grid(41))
    assert 2.9 < est <= 3.0 + 1e-12
