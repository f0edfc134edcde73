import math
import struct

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ghcalc import Interval, IVector, ZERO, compare, Dominance, dominates, strictly_dominates
from ghcalc.interval import gh_diff
from ghcalc.iop import _clip
from ghcalc.ivector import Star, dot, gh_distance, vec_norm, vec_op, w_map
from ghcalc.ivf import Grid
from ghcalc.problems import abs_slab_ivf
from ghcalc.subgrad import (
    SubgradientCandidate,
    is_subgradient,
    is_subgradient_strict_variant,
)

finite = st.floats(min_value=-100.0, max_value=100.0,
                   allow_nan=False, allow_infinity=False)
small_nonneg = st.floats(min_value=0.0, max_value=50.0,
                         allow_nan=False, allow_infinity=False)


@st.composite
def intervals(draw):
    a = draw(finite)
    b = draw(finite)
    return Interval(min(a, b), max(a, b))


@st.composite
def ivectors(draw, max_len=5):
    n = draw(st.integers(min_value=1, max_value=max_len))
    return IVector(tuple(draw(intervals()) for _ in range(n)))


@given(intervals())
def test_gh_difference_cancels_exactly(a):
    assert gh_diff(a, a) == ZERO


@given(intervals(), intervals())
def test_moore_subtraction_is_addition_of_the_negation(a, b):
    assert a - b == a + b.scale(-1.0)


@given(intervals())
def test_parse_str_roundtrip(a):
    assert Interval.parse(str(a)) == a


@given(intervals(), intervals())
def test_interval_norm_axioms(a, b):
    assert a.norm >= 0.0
    assert (a.norm == 0.0) == (a == ZERO)
    slack = 1e-12 * (1.0 + a.norm + b.norm)
    assert (a + b).norm <= a.norm + b.norm + slack


@given(intervals(), finite)
def test_interval_norm_homogeneity(a, lam):
    got = a.scale(lam).norm
    want = abs(lam) * a.norm
    assert abs(got - want) <= 1e-12 * (1.0 + want)


@given(intervals(), small_nonneg, small_nonneg)
def test_dominance_reflexive_and_monotone(a, s, t):
    assert dominates(a, a)
    assert not strictly_dominates(a, a)
    s, t = min(s, t), max(s, t)
    b = a + Interval(s, t)
    assert dominates(a, b)
    if b != a:  # tiny shifts can round away entirely
        assert strictly_dominates(a, b)


@given(intervals(), intervals())
def test_dominance_antisymmetry(a, b):
    if dominates(a, b) and dominates(b, a):
        assert a == b
        assert compare(a, b) is Dominance.EQUAL


@given(intervals(), small_nonneg, small_nonneg, small_nonneg, small_nonneg)
def test_dominance_transitivity(a, s1, t1, s2, t2):
    b = a + Interval(min(s1, t1), max(s1, t1))
    c = b + Interval(min(s2, t2), max(s2, t2))
    assert dominates(a, b) and dominates(b, c) and dominates(a, c)


@given(intervals(), intervals())
def test_compare_is_consistent_with_the_predicates(a, b):
    kind = compare(a, b)
    if kind is Dominance.STRICTLY_DOMINATES:
        assert strictly_dominates(a, b)
    elif kind is Dominance.STRICTLY_DOMINATED:
        assert strictly_dominates(b, a)
    elif kind is Dominance.EQUAL:
        assert a == b
    else:
        assert kind is Dominance.INCOMPARABLE
        assert not dominates(a, b) and not dominates(b, a)


@given(ivectors(), ivectors())
def test_vector_norm_axioms(a, b):
    assert vec_norm(a) >= 0.0
    if all(c == ZERO for c in a):
        assert vec_norm(a) == 0.0
    if vec_norm(a) == 0.0:
        # squaring can underflow, so only near-zero components survive
        assert max(c.norm for c in a) < 1e-150
    if len(a) == len(b):
        s = vec_op(a, b, Star.ADD)
        slack = 1e-12 * (1.0 + vec_norm(a) + vec_norm(b))
        assert vec_norm(s) <= vec_norm(a) + vec_norm(b) + slack


@given(ivectors())
def test_gh_distance_separates_points(a):
    assert gh_distance(a, a) == 0.0
    shifted = IVector(tuple(c + Interval(1.0, 1.0) for c in a))
    assert gh_distance(a, shifted) > 0.0


@given(st.data())
def test_dot_is_permutation_invariant(data):
    a = data.draw(ivectors())
    n = len(a)
    coeffs = [data.draw(finite) for _ in range(n)]
    perm = data.draw(st.permutations(range(n)))
    base = dot(coeffs, a)
    shuffled = dot([coeffs[i] for i in perm],
                   IVector(tuple(a[i] for i in perm)))
    scale = 1.0 + base.norm
    tol = 4 * n * math.ulp(scale)
    assert abs(base.lo - shuffled.lo) <= tol
    assert abs(base.hi - shuffled.hi) <= tol


@given(st.data())
def test_scalarization_bound(data):
    # if d^T (.) A precedes [c, c] with c >= 0 then the scalarized
    # product is <= 2c; the bound needs the sign condition on c
    a = data.draw(ivectors())
    n = len(a)
    d = [data.draw(finite) for _ in range(n)]
    product = dot(d, a)
    c = max(product.hi, 0.0) + data.draw(small_nonneg)
    scalarized = sum(di * wi for di, wi in zip(d, w_map(a)))
    assert scalarized <= 2.0 * c + 1e-9 * (1.0 + abs(c))


@given(st.data())
def test_dot_product_norm_bound(data):
    # ||d^T (.) A|| is bounded by ||d|| * ||A|| (Cauchy-Schwarz form)
    a = data.draw(ivectors())
    n = len(a)
    d = [data.draw(finite) for _ in range(n)]
    product = dot(d, a)
    bound = math.sqrt(sum(v * v for v in d)) * vec_norm(a)
    assert product.hi <= bound + 1e-9 * (1.0 + bound)
    assert product.lo <= bound + 1e-9 * (1.0 + bound)


_SLAB = abs_slab_ivf()
_SLAB_GRID = Grid.on_domain(_SLAB.domain, 21)


@settings(max_examples=50, deadline=None)
@given(finite, small_nonneg)
def test_strict_variant_implies_the_subgradient_condition(lo, width):
    g = Interval(max(-5.0, min(5.0, lo)), max(-5.0, min(5.0, lo)) + width)
    cand = SubgradientCandidate(IVector.of(g), (0.0,))
    strict_ok, _ = is_subgradient_strict_variant(_SLAB, cand, _SLAB_GRID)
    if strict_ok:
        ok, _ = is_subgradient(_SLAB, cand, _SLAB_GRID)
        assert ok


# every float, with signed zeros, both infinities and NaNs of either sign
# drawn often, so that ties at a bound come up
any_float = st.one_of(st.floats(), st.sampled_from(
    [0.0, -0.0, math.inf, -math.inf, math.nan, -math.nan, 1.0, -1.0, 5e-324]))


@given(st.lists(st.tuples(any_float, any_float, any_float), min_size=1, max_size=4),
       st.data())
@example([(0.0, -0.0, 1.0), (-0.0, 0.0, 1.0), (0.0, -1.0, -0.0), (-0.0, -1.0, 0.0)], None)
@example([(math.nan, 0.0, 1.0), (0.5, math.nan, 1.0), (0.5, 0.0, -math.nan)], None)
@example([(math.inf, 0.0, math.inf), (-math.inf, -math.inf, 0.0), (2.0, 2.0, 2.0)], None)
@settings(max_examples=300, deadline=None)
def test_float_clip_equals_np_clip_bit_for_bit(rows, data):
    # np.clip as the descent called it, with one array of bounds per side
    if data is not None:
        # ties: a bound drawn equal to the value, or to its negation
        rows = [(v, *(data.draw(st.sampled_from([bound, v, -v])) for bound in (lo, hi)))
                for v, lo, hi in rows]
    v, lo, hi = (np.array(col) for col in zip(*rows))
    expected = np.clip(v, lo, hi).tolist()
    got = [_clip(*row) for row in rows]
    assert [struct.pack("<d", x) for x in got] == [struct.pack("<d", x) for x in expected]
