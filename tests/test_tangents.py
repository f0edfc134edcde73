"""Laws of the exact one-sided gH-derivatives on the separable family

    sum_i [a_i,b_i]*abs(x_i - c_i) + [al_i,be_i]*pow2(x_i - e_i) + [u,v],

the objectives that the benchmark seeds, with coefficients in its ranges
and rounded, as there, to 4 decimals.
"""

import math

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from ghcalc import Interval, Ivf
from ghcalc.expr import tangents
from ghcalc.ivf import directional_gh_derivative
from ghcalc.subgrad import _DOM_SLACK, _Constraints, _grid_values

DOMAIN = (-3.0, 3.0)


def rounded(lo, hi):
    return st.floats(lo, hi).map(lambda v: round(v, 4))


@st.composite
def family(draw, n, on_kinks=True):
    """(Ivf on DOMAIN^n, kinks c, a point x in [-2.5, 2.5]^n)."""
    terms, kinks = [], []
    for i in range(1, n + 1):
        a = draw(rounded(0.5, 1.5))
        b = round(a + draw(rounded(0.0, 2.0)), 4)
        al = draw(rounded(0.0, 0.5))
        be = round(al + draw(rounded(0.0, 0.5)), 4)
        c, e = draw(rounded(-1.0, 1.0)), draw(rounded(-1.0, 1.0))
        terms += [f"[{a!r},{b!r}]*abs(x{i} - {c!r})", f"[{al!r},{be!r}]*pow2(x{i} - {e!r})"]
        kinks.append(c)
    u = draw(rounded(-3.0, 3.0))
    terms.append(f"[{u!r},{round(u + draw(rounded(0.0, 2.0)), 4)!r}]")
    f = Ivf.from_text(n, " + ".join(terms), (DOMAIN,) * n)
    # with on_kinks, a point on a kink now and then, where the one-sided rules act
    x = [draw(st.one_of(st.just(c), rounded(-2.5, 2.5)) if on_kinks else rounded(-2.5, 2.5))
         for c in kinks]
    return f, kinks, x


def directions(n):
    """h with 0.1 <= |h| <= 2."""
    size = st.floats(0.1, 2.0)
    if n == 1:
        return st.tuples(size, st.sampled_from([-1.0, 1.0])).map(lambda t: [t[0] * t[1]])
    return st.tuples(size, st.floats(0.0, 2.0 * math.pi)).map(
        lambda t: [t[0] * math.cos(t[1]), t[0] * math.sin(t[1])])


@settings(max_examples=200, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(family(n), directions(n))),
       st.integers(-60, 60))
def test_the_directional_derivative_is_positively_homogeneous(case, k):
    (f, _, x), h = case
    d = directional_gh_derivative(f, x, h)
    scaled = directional_gh_derivative(f, x, [math.ldexp(t, k) for t in h])
    assert scaled == Interval(math.ldexp(d.lo, k), math.ldexp(d.hi, k))


@settings(max_examples=300, deadline=None)
@given(st.integers(1, 2).flatmap(lambda n: st.tuples(family(n, False), directions(n))))
def test_the_directional_derivative_is_the_limit_of_the_secant(case):
    (f, kinks, x), h = case
    assume(all(abs(v - c) >= 1e-3 for v, c in zip(x, kinks)))
    t = 1e-7
    step = f.eval([v + t * s for v, s in zip(x, h)]).gh_sub(f.eval(x))
    secant = Interval(step.lo / t, step.hi / t)
    d = directional_gh_derivative(f, x, h)
    tol = 1e-5 * (1.0 + d.norm)
    assert abs(d.lo - secant.lo) <= tol and abs(d.hi - secant.hi) <= tol


def test_the_box_from_four_one_sided_slopes_is_the_sampled_box_at_a_kink():
    # e = c as in the benchmark's kink objectives: the subdifferential at c
    # is min(lo'-, hi'-) <= p <= min(lo'+, hi'+), max(lo'-, hi'-) <= q <=
    # max(lo'+, hi'+), and a grid of step s moves each bound by <= be*s
    rng = np.random.default_rng(1701)
    for _ in range(200):
        a = round(rng.uniform(0.5, 1.5), 4)
        b = round(a + rng.uniform(0.0, 2.0), 4)
        al = round(rng.uniform(0.0, 0.5), 4)
        be = round(al + rng.uniform(0.0, 0.5), 4)
        u = round(rng.uniform(-3.0, 3.0), 4)
        v = round(u + rng.uniform(0.0, 2.0), 4)
        c = round(rng.uniform(-1.0, 1.0), 4)
        domain = (round(c - rng.uniform(1.5, 2.5), 4), round(c + rng.uniform(1.5, 2.5), 4))
        f = Ivf.from_text(1, f"[{a!r},{b!r}]*abs(x1 - {c!r}) + [{al!r},{be!r}]*pow2(x1 - {c!r})"
                             f" + [{u!r},{v!r}]", (domain,))
        _, _, dlo, dhi = tangents(f.body, [c], [[1.0], [-1.0]])
        right, left = (dlo[0], dhi[0]), (-dlo[1], -dhi[1])
        box = (min(left), min(right), max(left), max(right))
        grid = f.grid(201)
        x = np.array([c])
        sampled = _Constraints(_grid_values(f, grid), x, f.boundary(x)).box(_DOM_SLACK)
        bound = 2.0 * max(al, be) * grid.step[0] + 1e-9
        assert max(abs(p - q) for p, q in zip(box, sampled)) <= bound, (f.body, box, sampled)
