import math

import pytest

from ghcalc import Dominance, Interval, ZERO, compare, dominates, strictly_dominates
from ghcalc.errors import InvalidInterval, ZeroInDenominator
from ghcalc.interval import gh_diff


def test_construction_orders_endpoints_strictly():
    iv = Interval(1.0, 2.0)
    assert iv.lo == 1.0 and iv.hi == 2.0
    with pytest.raises(InvalidInterval):
        Interval(2.0, 1.0)
    with pytest.raises(InvalidInterval):
        Interval(0.0, math.inf)
    with pytest.raises(InvalidInterval):
        Interval(math.nan, 0.0)


def test_point_embedding():
    p = Interval.point(3)
    assert p.lo == p.hi == 3.0
    assert p.is_degenerate
    assert not Interval(0.0, 1.0).is_degenerate


def test_moore_addition():
    assert Interval(1, 2) + Interval(3, 5) == Interval(4, 7)


def test_moore_subtraction_is_not_cancellative():
    assert Interval(1, 2) - Interval(1, 2) == Interval(-1, 1)
    assert Interval(1, 2) - Interval(1, 2) != ZERO


def test_multiplication_covers_sign_cases():
    assert Interval(1, 2) * Interval(-1, 3) == Interval(-2, 6)
    assert Interval(-2, -1) * Interval(-3, -1) == Interval(1, 6)
    assert Interval(-1, 1) * Interval(-1, 1) == Interval(-1, 1)


def test_division():
    assert Interval(2, 4) / Interval(1, 2) == Interval(1, 4)
    with pytest.raises(ZeroInDenominator):
        Interval(1, 2) / Interval(-1, 1)
    with pytest.raises(ZeroInDenominator):
        Interval(1, 2) / ZERO


def test_gh_difference():
    assert Interval(5, 9).gh_sub(Interval(1, 2)) == Interval(4, 7)
    # endpoint differences in reversed order still give a valid interval
    assert gh_diff(Interval(0, 1), Interval(-2, 3)) == Interval(-2, 2)
    a = Interval(-1.5, 2.25)
    assert a.gh_sub(a) == ZERO


def test_scalar_multiplication_swaps_for_negative_factors():
    assert Interval(1, 3).scale(-1.0) == Interval(-3, -1)
    assert Interval(1, 3).scale(2.0) == Interval(2, 6)
    assert 2 * Interval(1, 3) == Interval(2, 6)
    assert Interval(1, 3) * -1 == Interval(-3, -1)


def test_norm_is_max_endpoint_magnitude():
    assert Interval(-3, 2).norm == 3.0
    assert Interval(1, 2).norm == 2.0
    assert ZERO.norm == 0.0


def test_str_parse_roundtrip():
    for iv in (Interval(1, 2), Interval(-0.125, 3.5), Interval.point(0.1)):
        assert Interval.parse(str(iv)) == iv
    assert Interval.parse(" [ -1 , 2.5e-1 ] ") == Interval(-1.0, 0.25)
    with pytest.raises(InvalidInterval):
        Interval.parse("1,2")
    with pytest.raises(InvalidInterval):
        Interval.parse("[1;2]")
    with pytest.raises(InvalidInterval):
        Interval.parse("[2,1]")


def test_dominance_predicates():
    assert dominates(Interval(2, 4), Interval(3, 15))
    assert strictly_dominates(Interval(2, 4), Interval(3, 15))
    assert dominates(Interval(1, 2), Interval(1, 2))
    assert not strictly_dominates(Interval(1, 2), Interval(1, 2))
    assert not dominates(Interval(4, 45), Interval(17, 44))


def test_compare_kinds():
    assert compare(Interval(2, 4), Interval(3, 15)) is Dominance.STRICTLY_DOMINATES
    assert compare(Interval(3, 15), Interval(2, 4)) is Dominance.STRICTLY_DOMINATED
    assert compare(Interval(1, 2), Interval(1, 2)) is Dominance.EQUAL
    assert compare(Interval(4, 45), Interval(17, 44)) is Dominance.INCOMPARABLE
    # non-strict dominance of unequal intervals forces a strict endpoint
    assert compare(Interval(1, 3), Interval(1, 4)) is Dominance.STRICTLY_DOMINATES


def test_functional_aliases_match_operators():
    a, b = Interval(-1, 2), Interval(0.5, 3)
    assert gh_diff(a, b) == a.gh_sub(b)
