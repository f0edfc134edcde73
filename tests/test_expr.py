from fractions import Fraction

import numpy as np
import pytest

from ghcalc.errors import (
    NonDegenerateRealNode,
    OverlappingPieces,
    ParseError,
    PiecewiseCoverageError,
    ZeroInDenominator,
)
from ghcalc.expr import (
    AFFINE,
    CONCAVE,
    CONVEX,
    UNKNOWN,
    Abs,
    BinOp,
    Const,
    Norm,
    Pow,
    Var,
    convexity,
    eval_lo_hi,
    parse_expr,
)
from ghcalc.interval import Interval


def ev(text, *points):
    node = parse_expr(text)
    xs = np.atleast_2d(np.asarray(points, dtype=float))
    lo, hi = eval_lo_hi(node, xs)
    return list(zip(lo.tolist(), hi.tolist()))


def test_interval_literal_and_bare_number():
    assert ev("[1,2]", [0.0]) == [(1.0, 2.0)]
    assert ev("3", [0.0]) == [(3.0, 3.0)]
    assert ev("-2.5", [0.0]) == [(-2.5, -2.5)]
    assert ev("[-1,2.5e-1]", [0.0]) == [(-1.0, 0.25)]


def test_variables_are_one_based():
    assert isinstance(parse_expr("x1"), Var)
    assert parse_expr("x2") == Var(1)
    with pytest.raises(ParseError):
        parse_expr("x0")


def test_precedence_and_grouping():
    # term binds tighter than expr
    assert ev("1 + 2 * 3", [0.0]) == [(7.0, 7.0)]
    assert ev("(1 + 2) * 3", [0.0]) == [(9.0, 9.0)]
    assert ev("[1,2] * x1 + [0,1]", [2.0]) == [(2.0, 5.0)]


def test_moore_minus_vs_ghsub():
    assert ev("[1,2] - [1,2]", [0.0]) == [(-1.0, 1.0)]
    assert ev("[1,2] ghsub [1,2]", [0.0]) == [(0.0, 0.0)]
    assert ev("[5,9] ghsub [1,2]", [0.0]) == [(4.0, 7.0)]


def test_division_and_zero_denominator():
    assert ev("[2,4] / [1,2]", [0.0]) == [(1.0, 4.0)]
    assert ev("[1,2] / x1", [0.5]) == [(2.0, 4.0)]
    with pytest.raises(ZeroInDenominator):
        ev("[1,2] / x1", [0.0])
    with pytest.raises(ZeroInDenominator):
        ev("1 / [-1,1]", [0.0])


def test_abs_and_pow_require_degenerate_arguments():
    assert ev("abs(x1)", [-3.0], [2.0]) == [(3.0, 3.0), (2.0, 2.0)]
    assert ev("pow3(x1)", [-2.0]) == [(-8.0, -8.0)]
    with pytest.raises(NonDegenerateRealNode):
        ev("abs([1,2] * x1)", [1.0])
    with pytest.raises(NonDegenerateRealNode):
        ev("pow2([0,1] + x1)", [1.0])


def test_pow_exponent_must_be_positive():
    with pytest.raises(ParseError):
        parse_expr("pow0(x1)")
    with pytest.raises(ValueError):
        Pow(0, Var(0))


def test_norm_node():
    assert ev("norm()", [3.0, 4.0]) == [(5.0, 5.0)]
    assert ev("[0,2] * norm()", [1.0]) == [(0.0, 2.0)]
    assert isinstance(parse_expr("norm()"), Norm)


def test_arity_floor():
    assert parse_expr("[1,2]").arity_floor() == 0
    assert parse_expr("x1 + x3").arity_floor() == 3
    assert parse_expr("abs(x2)").arity_floor() == 2
    pw = parse_expr("piecewise{ x2 <= 0 => 1; x2 >= 0 => 1; }")
    assert pw.arity_floor() == 2


def test_piecewise_selects_by_guard():
    text = "piecewise{ x1 <= 0 => [0,1]; x1 >= 0 => x1 + [0,1]; }"
    assert ev(text, [-1.0], [2.0]) == [(0.0, 1.0), (2.0, 3.0)]


def test_piecewise_boundary_overlap_requires_agreement():
    agreeing = "piecewise{ x1 <= 0 => abs(x1); x1 >= 0 => x1; }"
    assert ev(agreeing, [0.0]) == [(0.0, 0.0)]
    clashing = "piecewise{ x1 <= 0 => [0,1]; x1 >= 0 => [2,3]; }"
    with pytest.raises(OverlappingPieces):
        ev(clashing, [0.0])


def test_piecewise_coverage_error():
    text = "piecewise{ x1 <= 0 => 1; }"
    with pytest.raises(PiecewiseCoverageError):
        ev(text, [1.0])


def test_guards_support_conjunction_and_signed_bounds():
    text = "piecewise{ x1 >= -1 and x1 <= 1 => 0; x1 >= 1 => 1; }"
    assert ev(text, [-0.5], [2.0]) == [(0.0, 0.0), (1.0, 1.0)]


def test_parse_errors_carry_position():
    with pytest.raises(ParseError):
        parse_expr("[1,2] +")
    with pytest.raises(ParseError) as exc:
        parse_expr("[1,2] ?")
    assert exc.value.line == 1 and exc.value.col is not None
    with pytest.raises(ParseError):
        parse_expr("[1,2] [3,4]")  # trailing input
    with pytest.raises(ParseError):
        parse_expr("piecewise{ 1 <= 0 => 1; }")  # guard must start with a var
    with pytest.raises(ParseError):
        parse_expr("piecewise{ }")
    with pytest.raises(ParseError):
        parse_expr("1 + piecewise{ x1 <= 0 => 1; }")  # piecewise is top-level only


def test_tree_nodes_are_frozen_dataclasses():
    node = parse_expr("[1,1] * x1")
    assert node == BinOp("*", Const(Interval(1, 1)), Var(0))
    assert parse_expr("abs(x1)") == Abs(Var(0))


# (text, domain, curvature of f_lo, of f_hi)
CURVATURE_RULES = [
    ("x1 - 2*x2 + [1,3]", [(-1, 1), (-1, 1)], AFFINE, AFFINE),
    ("abs(x1 - 0.5)", [(-1, 1)], CONVEX, CONVEX),
    ("pow2(x1 + x2)", [(-1, 1), (-1, 1)], CONVEX, CONVEX),
    ("pow3(x1)", [(0, 1)], CONVEX, CONVEX),
    ("pow3(x1)", [(-1, 0)], CONCAVE, CONCAVE),
    ("pow3(x1)", [(-1, 1)], UNKNOWN, UNKNOWN),
    ("pow3(pow2(x1) + 1)", [(-1, 1)], CONVEX, CONVEX),  # rises on a convex argument >= 0
    ("pow2(0 - pow2(x1) - 1)", [(-1, 1)], CONVEX, CONVEX),  # falls on a concave one <= 0
    ("pow2(pow2(x1) - 0.5)", [(-1, 1)], UNKNOWN, UNKNOWN),
    ("abs(0 - abs(x1) - 1)", [(-1, 1)], CONVEX, CONVEX),
    ("norm()*[0,2]", [(-1, 1), (-3, 2)], AFFINE, CONVEX),
    ("[-3,-1]*abs(x1)", [(-1, 1)], CONCAVE, CONCAVE),
    ("[-1,2]*abs(x1)", [(-1, 1)], CONCAVE, CONVEX),
    ("[1,2]*(0 - abs(x1) - 1)", [(-1, 1)], CONCAVE, CONCAVE),
    ("[-2,-1]*(0 - abs(x1) - 1)", [(-1, 1)], CONVEX, CONVEX),
    ("[0,2]*(x1 + 1)", [(-1, 2)], AFFINE, AFFINE),  # x1 + 1 >= 0 exactly
    ("[0,2]*(x1 + 1)", [(-2, 1)], UNKNOWN, UNKNOWN),
    ("(x1 + [0,1])*[2,3]", [(0, 1)], AFFINE, AFFINE),
    ("abs(x1)*(2 + 1)", [(-1, 1)], CONVEX, CONVEX),  # 2 + 1 sums exactly to one value
    ("abs(x1)*x1", [(-1, 1)], UNKNOWN, UNKNOWN),
    ("abs(x1)/[1,2]", [(-1, 1)], UNKNOWN, UNKNOWN),
    ("abs(x1)/-4", [(-1, 1)], CONCAVE, CONCAVE),
    ("2/abs(x1 + 2)", [(-1, 1)], UNKNOWN, UNKNOWN),
    ("[1,2]*pow2(x1) - [0,1]*abs(x1)", [(-1, 1)], UNKNOWN, CONVEX),
    ("abs(x1)*[1,3] ghsub x1", [(-1, 1)], CONVEX, CONVEX),
    ("x1 ghsub abs(x1)*[1,3]", [(-1, 1)], CONCAVE, CONCAVE),
    ("abs(x1)*[1,3] ghsub [0,1]", [(-1, 1)], UNKNOWN, UNKNOWN),
    ("abs(x1 + [0,1])", [(-1, 1)], UNKNOWN, UNKNOWN),
    ("0*abs([0,1])", [(-1, 1)], UNKNOWN, UNKNOWN),  # evaluating it raises
    ("piecewise{ x1 <= 0 => x1; x1 >= 0 => x1; }", [(-1, 1)], UNKNOWN, UNKNOWN),
]


@pytest.mark.parametrize("text,domain,lo_curv,hi_curv", CURVATURE_RULES)
def test_convexity_applies_the_composition_rules(text, domain, lo_curv, hi_curv):
    c = convexity(parse_expr(text), domain)
    assert (c.lo_curv, c.hi_curv) == (lo_curv, hi_curv)
    assert c.convex == bool(lo_curv & hi_curv & CONVEX)


def test_convexity_encloses_the_values_and_rounds_outward():
    c = convexity(parse_expr("[1,2]*pow2(x1 - 0.1) + [3,4]"), [(-1, 1)])
    values = ev("[1,2]*pow2(x1 - 0.1) + [3,4]", *np.linspace(-1, 1, 201)[:, None])
    assert c.lo <= min(v[0] for v in values) and max(v[1] for v in values) <= c.hi
    assert not c.real and c.lo == 3.0  # 0 * ... and 3 are exact
    # 0.1 + 0.2 rounds up, so its lower bound steps one ulp down; exact sums stay
    assert convexity(parse_expr("x1 + 0.2"), [(0.1, 1)]).lo == 0.3
    assert convexity(parse_expr("x1 + 1"), [(-1, 2)])[:3] == (0.0, 3.0, True)
    # rounded to nearest, 0.1 + 0.2 - 0.30000000000000004 is 0; exactly, it is
    # below 0, and so is the enclosure's lower end
    assert (0.1 + 0.2) - 0.30000000000000004 == 0.0
    assert Fraction(0.1) + Fraction(0.2) - Fraction(0.30000000000000004) < 0
    assert convexity(parse_expr("x1 + 0.2 - 0.30000000000000004"), [(0.1, 1)]).lo < 0.0
