"""Acceptance gate: twelve end-to-end checks with frozen expected values.

Each test prints one PASS/FAIL line (bypassing capture) and then asserts,
so the checklist is visible in a plain pytest run.
"""

import numpy as np
import pytest

from ghcalc import (
    Dominance,
    Interval,
    IVector,
    Ivf,
    compare,
)
from ghcalc.iop import (
    Iop,
    efficient_on_grid,
    optimality_zero_condition,
    scalarized_descent,
)
from ghcalc.ivector import dot
from ghcalc.ivf import (
    directional_gh_derivative,
    gh_derivative_1d,
    gh_gradient,
)
from ghcalc.problems import (
    QUARTIC_TEXT,
    SMOOTH_PARABOLIC_TEXT,
    abs_slab_ivf,
    piecewise_vee_ivf,
    quartic_ivf,
    smooth_parabolic_ivf,
)
from ghcalc.subgrad import (
    LinearIvf,
    SubgradientCandidate,
    chain_rule_transport,
    directional_max_check,
    is_subgradient,
    is_subgradient_strict_variant,
    lipschitz_from_subgradients_check,
    operator_norm,
    subdiff_scan_1d,
    sum_rule,
    union_boundedness_probe,
)


def _report(capsys, number, ok, detail):
    with capsys.disabled():
        print(f"[criterion {number:2d}] {'PASS' if ok else 'FAIL'}: {detail}")
    assert ok, detail


def test_criterion_01_quartic_closed_form(capsys):
    f = quartic_ivf()
    xs = np.linspace(0.0, 2.5, 101)
    lo, hi = f.eval_many(xs[:, None])
    err = max(float(np.max(np.abs(lo - (xs ** 4 + 1.0)))),
              float(np.max(np.abs(hi - (xs ** 2 + 40.0)))))
    _report(capsys, 1, err <= 1e-12,
            f"quartic band equals [x^4+1, x^2+40] at 101 points, err {err:.2e}")


def test_criterion_02_gradient_and_dominance(capsys):
    f = quartic_ivf()
    g = gh_gradient(f, (1.0,))[0]
    diff = f.eval((2.0,)).gh_sub(f.eval((1.0,)))
    ok = (abs(g.lo - 2.0) <= 1e-6 and abs(g.hi - 4.0) <= 1e-6
          and abs(diff.lo - 3.0) <= 1e-12 and abs(diff.hi - 15.0) <= 1e-12
          and compare(Interval(2, 4), Interval(3, 15))
          is Dominance.STRICTLY_DOMINATES
          and compare(Interval(4, 45), Interval(17, 44))
          is Dominance.INCOMPARABLE)
    _report(capsys, 2, ok,
            f"gradient {g} ~ [2,4]; F(2) gh- F(1) = {diff} = [3,15]; "
            "dominance kinds as expected")


def test_criterion_03_subgradient_but_not_strict(capsys):
    f = quartic_ivf()
    cand = SubgradientCandidate(IVector.of(Interval(2, 4)), (1.0,))
    plain_ok, _ = is_subgradient(f, cand)
    strict_ok, _ = is_subgradient_strict_variant(f, cand)
    # direct violation at x = 2: (2-1) (.) [2,4] + F(1) = [4,45] while
    # F(2) = [17,44], and 45 > 44 breaks the componentwise comparison
    lhs = Interval(2, 4) + f.eval((1.0,))
    at_two_violates = lhs.hi > f.eval((2.0,)).hi
    ok = plain_ok and not strict_ok and at_two_violates
    _report(capsys, 3, ok,
            "[2,4] passes the gh-difference test but the additive variant "
            f"fails ({lhs} vs {f.eval((2.0,))} at x=2)")


def test_criterion_04_slab_region_is_the_exact_box(capsys):
    f = abs_slab_ivf()
    region = subdiff_scan_1d(f, 0.0, ((-4.0, 2.0), (-2.0, 4.0)),
                             steps=121, grid=f.grid(201))
    p = region.g_lo_values[:, None]
    q = region.g_hi_values[None, :]
    expected = ((p >= -3.0 - 1e-9) & (p <= 1.0 + 1e-9)
                & (q >= -1.0 - 1e-9) & (q <= 3.0 + 1e-9)
                & (p <= q + 1e-12))
    exact = bool(np.array_equal(region.bitmap, expected))
    count = int(region.bitmap.sum())
    _report(capsys, 4, exact and count == 5741,
            f"scanned region matches -3<=g_lo<=1, -1<=g_hi<=3, g_lo<=g_hi "
            f"cell-for-cell ({count} cells)")


def test_criterion_05_vee_floor_is_certified_efficient(capsys):
    p = Iop(piecewise_vee_ivf())
    grid = p.objective.grid(321)
    zero_ok = optimality_zero_condition(p, [2.0], grid)
    flagged = efficient_on_grid(p, grid).is_flagged_near([2.0])
    _report(capsys, 5, zero_ok and flagged,
            "zero vector is a subgradient at 2 and 2 is flagged efficient "
            "on the 321-point grid")


def test_criterion_06_parabolic_band_singletons_and_efficient_set(capsys):
    f = smooth_parabolic_ivf()
    p = Iop(f)
    grid = f.grid(201)
    ok = True
    details = []
    for x in (0.0, 0.5, 1.0):
        region = subdiff_scan_1d(f, x, grid=grid)
        marked = region.marked()
        step = max(region.step)
        target = (2.0 * x - 2.0, 4.0 * x)
        ok &= (marked.shape[0] > 0
               and bool(np.all(np.abs(marked[:, 0] - target[0]) <= step + 1e-9))
               and bool(np.all(np.abs(marked[:, 1] - target[1]) <= step + 1e-9)))
        details.append(f"x={x}: [{target[0]},{target[1]}]")
    report = efficient_on_grid(p, grid)
    xs = report.points[:, 0]
    h = max(report.grid_step)
    inside = (xs >= -1e-9) & (xs <= 1.0 + 1e-9)
    near = (xs >= -h - 1e-9) & (xs <= 1.0 + h + 1e-9)
    ok &= not bool(np.any(inside & ~report.efficient))
    ok &= not bool(np.any(report.efficient & ~near))
    converse_fails = not optimality_zero_condition(p, [0.5], grid)
    ok &= converse_fails
    _report(capsys, 6, ok,
            "singleton regions " + "; ".join(details)
            + "; efficient set is [0,1]; zero condition false at 0.5 "
            "(sufficient only)")


def test_criterion_07_randomized_algebraic_laws(capsys):
    rng = np.random.default_rng(42)
    failures = []

    def rand_interval(scale=10.0):
        a, b = rng.uniform(-scale, scale, size=2)
        return Interval(min(a, b), max(a, b))

    def rand_vector():
        return IVector(tuple(rand_interval()
                             for _ in range(int(rng.integers(1, 6)))))

    for trial in range(1000):
        a, b = rand_interval(), rand_interval()
        if a.gh_sub(a) != Interval(0, 0):
            failures.append(("gh-cancel", trial))
        if (a - b) != (a + b.scale(-1.0)):
            failures.append(("sub-as-add", trial))
        # interval norm axioms
        lam = float(rng.uniform(-5, 5))
        if abs(a.scale(lam).norm - abs(lam) * a.norm) > 1e-12 * (1 + a.norm):
            failures.append(("norm-homogeneity", trial))
        if (a + b).norm > a.norm + b.norm + 1e-12 * (1 + a.norm + b.norm):
            failures.append(("norm-triangle", trial))
        # vector norm axioms
        v = rand_vector()
        w = IVector(tuple(rand_interval() for _ in range(len(v))))
        from ghcalc.ivector import Star, vec_norm, vec_op, w_map
        if vec_norm(v) < 0:
            failures.append(("vec-norm-nonneg", trial))
        s = vec_op(v, w, Star.ADD)
        if vec_norm(s) > vec_norm(v) + vec_norm(w) + 1e-10:
            failures.append(("vec-norm-triangle", trial))
        # dominance partial-order laws
        from ghcalc.interval import dominates
        shift = Interval(*sorted(rng.uniform(0, 3, size=2)))
        widen = a + shift
        if not (dominates(a, a) and dominates(a, widen)):
            failures.append(("dominance-laws", trial))
        # scalarization bound: dot(d, v) preceding [c,c] with c >= 0 caps
        # the scalarized product by 2c (the bound reverses for c < 0)
        d = rng.uniform(-5, 5, size=len(v)).tolist()
        product = dot(d, v)
        c = max(product.hi, 0.0) + float(rng.uniform(0, 5))
        scalarized = sum(di * wi for di, wi in zip(d, w_map(v)))
        if scalarized > 2.0 * c + 1e-9 * (1 + abs(c)):
            failures.append(("scalarization-bound", trial))
        # dot-product norm bound
        bound = float(np.linalg.norm(d)) * vec_norm(v)
        if max(product.lo, product.hi) > bound + 1e-9 * (1 + bound):
            failures.append(("dot-norm-bound", trial))
    _report(capsys, 7, not failures,
            f"1000 randomized trials per law, {len(failures)} failures")


def test_criterion_08_gradient_inequality_and_directional_crosscheck(capsys):
    worst = np.inf
    for f in (quartic_ivf(), smooth_parabolic_ivf()):
        grid = f.grid(41)
        xs = grid.axes()[0]
        lo, hi = f.eval_many(xs[:, None])
        grads = [gh_derivative_1d(f, float(x)) for x in xs]
        for i, x in enumerate(xs):
            d = xs - x
            lhs_lo = np.where(d >= 0, grads[i].lo * d, grads[i].hi * d)
            lhs_hi = np.where(d >= 0, grads[i].hi * d, grads[i].lo * d)
            d_lo, d_hi = lo - lo[i], hi - hi[i]
            rhs_lo = np.minimum(d_lo, d_hi)
            rhs_hi = np.maximum(d_lo, d_hi)
            worst = min(worst, float(np.min(rhs_lo - lhs_lo)),
                        float(np.min(rhs_hi - lhs_hi)))
    rng = np.random.default_rng(7)
    max_err = 0.0
    for f in (quartic_ivf(), smooth_parabolic_ivf()):
        l, u = f.domain[0]
        for _ in range(10):
            x = float(rng.uniform(l + 0.15 * (u - l), u - 0.15 * (u - l)))
            h = float(rng.choice([-1.0, 1.0]) * rng.uniform(0.5, 2.0))
            dd = directional_gh_derivative(f, [x], [h])
            expect = dot([h], IVector.of(gh_derivative_1d(f, x)))
            max_err = max(max_err, abs(dd.lo - expect.lo),
                          abs(dd.hi - expect.hi))
    ok = worst >= -1e-8 and max_err <= 1e-5
    _report(capsys, 8, ok,
            f"gradient dominance slack >= {worst:.2e} over all grid pairs; "
            f"directional vs dot(h, gradient) max err {max_err:.2e} "
            "at 20 random points")


def test_criterion_09_directional_maximum_over_the_region(capsys):
    f = abs_slab_ivf()
    region = subdiff_scan_1d(f, 0.0, ((-4.0, 2.0), (-2.0, 4.0)), steps=121,
                             grid=f.grid(201))
    ok = True
    for h in (1.0, -1.0):
        maximum, match = directional_max_check(f, 0.0, h, region, tol=1e-6)
        ok &= match and abs(maximum.lo - 1.0) <= 1e-9 \
            and abs(maximum.hi - 3.0) <= 1e-9
    _report(capsys, 9, ok,
            "max of h (.) G over the slab region is [1,3] for h = +/-1 and "
            "matches the directional derivative within 1e-6")


def test_criterion_10_boundedness_lipschitz_operator_norm(capsys):
    f = smooth_parabolic_ivf()
    sup = union_boundedness_probe(f, f.grid(201))
    lip_ok = (lipschitz_from_subgradients_check(f)
              and lipschitz_from_subgradients_check(abs_slab_ivf()))
    op = operator_norm(LinearIvf(IVector.of(Interval(1, 3))))
    ok = 7.9 <= sup <= 8.1 and lip_ok and abs(op - 3.0) <= 1e-9
    _report(capsys, 10, ok,
            f"subgradient norm sup {sup:.4f} in [7.9, 8.1]; Lipschitz bound "
            f"holds for both examples; operator norm {op} = 3")


def test_criterion_11_chain_and_sum_rule_constructions(capsys):
    checks = []

    def chain(a_matrix, g_h, composite, x_bar):
        g = chain_rule_transport(a_matrix, g_h)
        ok, witness = is_subgradient(
            composite, SubgradientCandidate(g, x_bar), composite.grid(201))
        checks.append(ok)

    # five (A, H) pairs; the composite text is H with Ax substituted
    chain([[1.0]], IVector.of(Interval(2, 4)), quartic_ivf(), (1.0,))
    chain([[2.0]], IVector.of(Interval(1, 3)),
          Ivf.from_text(1, "abs(2*x1)*[1,3]", ((-1.0, 1.0),)), (0.0,))
    chain([[-1.5]], IVector.of(Interval(2 * 0.375 - 2.0, 4 * 0.375)),
          Ivf.from_text(1, "[1,2]*pow2(0 - 1.5*x1) - [0,2]*((0 - 1.5*x1) + 1)"
                           " + [4,6]", ((-4.0 / 3.0, 2.0 / 3.0),)), (-0.25,))
    chain([[0.5]], IVector.of(Interval(1, 3)),
          Ivf.from_text(1, "abs(0.5*x1)*[1,3]", ((-4.0, 4.0),)), (0.0,))
    h_sep = Ivf.from_text(2, "[1,2]*pow2(x1) + pow2(x2)",
                          ((-1.0, 1.0), (-1.0, 1.0)))
    g_h = gh_gradient(h_sep, (0.5, 0.5))
    chain([[1.0], [1.0]], g_h,
          Ivf.from_text(1, "[1,2]*pow2(x1) + pow2(x1)", ((-1.0, 1.0),)),
          (0.5,))

    def summed(parts, composite, x_bar):
        g = sum_rule(parts)
        ok, witness = is_subgradient(
            composite, SubgradientCandidate(g, x_bar), composite.grid(201))
        checks.append(ok)

    # five width-aligned decompositions
    summed([IVector.of(Interval(2, 4)), IVector.of(Interval(0, 2))],
           Ivf.from_text(1, "[1,2]*pow2(x1) + [0,1]*pow2(x1) + [1,3]",
                         ((-1.0, 2.0),)), (1.0,))
    summed([IVector.of(Interval(0, 0)), IVector.of(Interval(0, 2))],
           abs_slab_ivf(), (0.0,))
    summed([IVector.of(Interval(-1, 2)), IVector.of(Interval(1, 1))],
           Ivf.from_text(1, SMOOTH_PARABOLIC_TEXT + " + pow2(x1)", ((-1.0, 2.0),)),
           (0.5,))
    summed([IVector.of(Interval(2, 4)), IVector.of(Interval(0, 0))],
           Ivf.from_text(1, QUARTIC_TEXT + " + [0,5]", ((0.0, 2.5),)), (1.0,))
    summed([IVector.of(Interval(0.5, 1)), IVector.of(Interval(1, 2))],
           Ivf.from_text(1, "abs(x1)*[3,9]", ((-2.0, 2.0),)), (0.0,))

    _report(capsys, 11, all(checks) and len(checks) == 10,
            f"{sum(checks)}/10 transported or summed candidates pass the "
            "subgradient test on their composites")


def test_criterion_12_descent_reaches_the_efficient_sets(capsys):
    p1 = Iop(smooth_parabolic_ivf())
    r1 = scalarized_descent(p1, [2.0], grid=p1.objective.grid(201))
    p2 = Iop(piecewise_vee_ivf())
    r2 = scalarized_descent(p2, [-2.0], grid=p2.objective.grid(201))
    ok = (-0.05 <= r1.x_best[0] <= 1.05) and (1.95 <= r2.x_best[0] <= 2.05)
    # block means of the scalarized trace over windows of 10 iterations
    # must be nonincreasing up to subgradient-step noise
    for r in (r1, r2):
        vals = np.array([t.scalarized for t in r.trace])
        n = (len(vals) // 10) * 10
        if n >= 20:
            blocks = vals[:n].reshape(-1, 10).mean(axis=1)
            ok &= bool(np.all(np.diff(blocks) <= 1e-3))
    _report(capsys, 12, ok,
            f"descent ends at {r1.x_best[0]:.4f} (target [-0.05, 1.05]) and "
            f"{r2.x_best[0]:.4f} (target [1.95, 2.05]); 10-block smoothed "
            "scalarized values nonincreasing")
