"""Expression trees denoting interval-valued functions of real variables.

Nodes cover interval constants, real variables, the Moore operators, the
gH-difference, abs/pow on real-valued subexpressions, the Euclidean norm of
the argument vector, and guarded piecewise definitions.  Evaluation is
vectorized: every node maps an (N, n) array of points to a pair of (N,)
endpoint arrays.

Text grammar (whitespace insignificant)::

    expr   := term (("+" | "-" | "ghsub") term)*
    term   := factor (("*" | "/") factor)*
    factor := interval | number | var | "abs" "(" expr ")"
            | "pow" INT "(" expr ")" | "(" expr ")"
    interval := "[" number "," number "]"
    var      := "x" INT                      (1-based)
    piecewise := "piecewise" "{" (guard "=>" expr ";")+ "}"
    guard     := comparison ("and" comparison)*
    comparison := var ("<=" | ">=") number

Bare numbers parse as degenerate intervals.
"""

from __future__ import annotations

import math
import operator
import re
from dataclasses import dataclass
from typing import Callable, List, NamedTuple, Optional, Sequence, Tuple

import numpy as np

from .errors import (
    NonDegenerateRealNode,
    OverlappingPieces,
    ParseError,
    PiecewiseCoverageError,
    ZeroInDenominator,
)
from .interval import Interval

# --------------------------------------------------------------------------
# Node types
# --------------------------------------------------------------------------


class Expr:
    """Base class for expression-tree nodes."""

    def arity_floor(self) -> int:
        """Smallest arity this expression is compatible with."""
        raise NotImplementedError


@dataclass(frozen=True)
class Const(Expr):
    value: Interval

    def arity_floor(self) -> int:
        return 0


@dataclass(frozen=True)
class Var(Expr):
    index: int  # 0-based

    def arity_floor(self) -> int:
        return self.index + 1


@dataclass(frozen=True)
class BinOp(Expr):
    op: str  # one of "+", "-", "ghsub", "*", "/"
    left: Expr
    right: Expr

    def arity_floor(self) -> int:
        return max(self.left.arity_floor(), self.right.arity_floor())


@dataclass(frozen=True)
class Abs(Expr):
    child: Expr

    def arity_floor(self) -> int:
        return self.child.arity_floor()


@dataclass(frozen=True)
class Pow(Expr):
    exponent: int
    child: Expr

    def __post_init__(self):
        if self.exponent < 1:
            raise ValueError("pow exponent must be a positive integer")

    def arity_floor(self) -> int:
        return self.child.arity_floor()


@dataclass(frozen=True)
class Norm(Expr):
    """Euclidean norm of the full argument vector (a degenerate value)."""

    def arity_floor(self) -> int:
        return 0


@dataclass(frozen=True)
class Comparison:
    var_index: int  # 0-based
    op: str  # "<=" or ">="
    bound: float

    def holds(self, xs: np.ndarray) -> np.ndarray:
        col = xs[:, self.var_index]
        return col <= self.bound if self.op == "<=" else col >= self.bound


@dataclass(frozen=True)
class Guard:
    comparisons: Tuple[Comparison, ...]

    def holds(self, xs: np.ndarray) -> np.ndarray:
        mask = np.ones(xs.shape[0], dtype=bool)
        for comp in self.comparisons:
            mask &= comp.holds(xs)
        return mask

    def ahead(self, x: Sequence[float], h: Optional[Sequence[float]] = None) -> bool:
        """Holds at x and, given h, at x + t*h for small t > 0; on a bound, h_i's sign decides."""
        for c in self.comparisons:
            s, v = (1.0 if c.op == "<=" else -1.0), x[c.var_index]
            if not (s * v < s * c.bound or v == c.bound and (h is None or s * h[c.var_index] <= 0.0)):
                return False
        return True


@dataclass(frozen=True)
class Piecewise(Expr):
    pieces: Tuple[Tuple[Guard, Expr], ...]

    def arity_floor(self) -> int:
        floor = 0
        for guard, body in self.pieces:
            floor = max(floor, body.arity_floor())
            for comp in guard.comparisons:
                floor = max(floor, comp.var_index + 1)
        return floor


# --------------------------------------------------------------------------
# Vectorized evaluation
# --------------------------------------------------------------------------

_PIECE_AGREEMENT_TOL = 1e-12


def eval_lo_hi(node: Expr, xs: np.ndarray) -> Tuple[np.ndarray, np.ndarray]:
    """Evaluate an expression at every row of xs, returning (lo, hi) arrays."""
    return compile_lo_hi(node)(xs)


def compile_lo_hi(node: Expr) -> Callable[[np.ndarray], Tuple[np.ndarray, np.ndarray]]:
    """Compile a tree once into closures xs -> (lo, hi) that give the floats
    of Moore arithmetic on full (lo, hi) arrays.  A real-valued node carries
    one array as both endpoints; a constant beside a non-constant is a float."""
    fn, real = _compile(node)
    return (lambda xs: tuple(v.copy() for v in fn(xs))) if real else fn


def _compile(node: Expr, scalar: bool = False):
    """(fn, real): fn(xs) returns (lo, hi), one array twice if the node is
    real-valued: a variable, abs, pow, norm, a degenerate constant, or
    +, -, ghsub, *, / of those.  With scalar, a constant returns floats."""
    if isinstance(node, Const):
        lo, hi = node.value.lo, node.value.hi
        full = (lambda v, xs: v) if scalar else (lambda v, xs: np.full(xs.shape[0], v))
        if lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi):
            return (lambda xs: (v := full(lo, xs), v)), True
        return (lambda xs: (full(lo, xs), full(hi, xs))), False
    if isinstance(node, Var):
        i = node.index
        return (lambda xs: (v := np.asarray(xs[:, i], dtype=float), v)), True
    if isinstance(node, Norm):
        return (lambda xs: (v := np.sqrt(np.sum(xs * xs, axis=1)), v)), True
    if isinstance(node, (Abs, Pow)):
        name = "abs" if isinstance(node, Abs) else f"pow{node.exponent}"
        arg = _checked(node.child, lambda lo, hi: lo != hi, NonDegenerateRealNode,
                       f"{name} needs a real-valued argument, got [{{}}, {{}}]")[0]
        real_op = np.abs if isinstance(node, Abs) else (lambda v, e=node.exponent: v ** e)
        return (lambda xs: (v := real_op(arg(xs)[0]), v)), True
    if isinstance(node, BinOp):
        consts = isinstance(node.left, Const) and isinstance(node.right, Const)
        lf, lreal = _compile(node.left, not consts)
        if node.op == "/":  # a denominator stays an array: a zero is found at a point
            rf, rreal = _checked(node.right, lambda lo, hi: (lo <= 0.0) & (hi >= 0.0),
                                 ZeroInDenominator, "denominator contains 0")
        else:
            rf, rreal = _compile(node.right, not consts)
        op = _REAL_OPS[node.op]
        if lreal and rreal:
            return (lambda xs: (v := op(lf(xs)[0], rf(xs)[0]), v)), True
        pair_op = _PAIR_OPS[node.op]
        if node.op in ("*", "/") and (lreal or rreal):
            # one real operand: of the four corners, two pairs are equal
            pair_op = lambda llo, lhi, rlo, rhi: _span(op(llo, rlo), op(lhi, rhi))
        return (lambda xs: pair_op(*lf(xs), *rf(xs))), False
    if isinstance(node, Piecewise):
        return _compile_piecewise(node), False
    raise TypeError(f"not an expression node: {node!r}")  # pragma: no cover


def _checked(child: Expr, bad, error, what: str):
    """(fn, real) of the child; fn raises error at the first point where
    bad(lo, hi) holds, its message what.format(lo, hi) plus the point."""
    fn, real = _compile(child)

    def checked(xs):
        lo, hi = fn(xs)
        mask = bad(lo, hi)
        if np.count_nonzero(mask):
            k = int(np.argmax(mask))
            raise error(f"{what.format(lo[k], hi[k])} at point {xs[k].tolist()}")
        return lo, hi
    return checked, real


def _span(a, b):
    return np.minimum(a, b), np.maximum(a, b)


def _corners(*values):
    stacked = np.stack(values)
    return stacked.min(axis=0), stacked.max(axis=0)


# ghsub of two reals is their difference
_REAL_OPS = {"+": operator.add, "-": operator.sub, "ghsub": operator.sub,
             "*": operator.mul, "/": operator.truediv}
_PAIR_OPS = {
    "+": lambda llo, lhi, rlo, rhi: (llo + rlo, lhi + rhi),
    "-": lambda llo, lhi, rlo, rhi: (llo - rhi, lhi - rlo),
    "ghsub": lambda llo, lhi, rlo, rhi: _span(llo - rlo, lhi - rhi),
    "*": lambda llo, lhi, rlo, rhi: _corners(llo * rlo, llo * rhi, lhi * rlo, lhi * rhi),
    "/": lambda llo, lhi, rlo, rhi: _corners(llo / rlo, llo / rhi, lhi / rlo, lhi / rhi),
}


def _compile_piecewise(node: Piecewise):
    pieces = [(guard.holds, _compile(body)[0]) for guard, body in node.pieces]

    def fn(xs):
        out_lo, out_hi = np.full((2, xs.shape[0]), np.nan)
        covered = np.zeros(xs.shape[0], dtype=bool)
        for holds, body in pieces:
            mask = holds(xs)
            if not np.count_nonzero(mask):
                continue
            lo, hi = body(xs[mask])
            overlap = covered[mask]
            if np.count_nonzero(overlap):
                # closed guards may meet where the pieces agree; a point
                # covered already keeps the earlier piece's value
                old_lo, old_hi = out_lo[mask], out_hi[mask]
                if (np.max(np.abs(lo[overlap] - old_lo[overlap])) > _PIECE_AGREEMENT_TOL
                        or np.max(np.abs(hi[overlap] - old_hi[overlap])) > _PIECE_AGREEMENT_TOL):
                    raise OverlappingPieces(f"guards overlap with different values "
                                            f"at {xs[mask][overlap][0].tolist()}")
                lo = np.where(overlap, old_lo, lo)
                hi = np.where(overlap, old_hi, hi)
            out_lo[mask] = lo
            out_hi[mask] = hi
            covered |= mask
        if np.count_nonzero(covered) < covered.size:
            raise PiecewiseCoverageError(f"no guard covers point {xs[~covered][0].tolist()}")
        return out_lo, out_hi
    return fn


def _power(v: float, e: int) -> float:
    # numpy's power of an array, which differs from Python's ** in the last bit
    with np.errstate(all="ignore"):
        return (np.array([v]) ** e)[0].item()


def compile_tangents(node: Expr):
    """Compile a tree once into closures walk(x, dirs) -> (lo, hi, dlo, dhi):
    F's endpoints at the point x, compile_lo_hi's up to the sign of a zero
    where corners tie, and their one-sided derivatives along each h in dirs,
    as lists, by forward mode on floats (Griewank & Walther 2008; one-sided
    rules of Griewank 2013).  None where compile_lo_hi raises, at a pow or a
    corner of ghsub, * or / that is not finite, a denominator that is not,
    and where an abs/pow argument or the pieces fail along some h; sums go unchecked."""
    if isinstance(node, BinOp):
        return _tangent_binop(node.op, compile_tangents(node.left), compile_tangents(node.right))
    if isinstance(node, Const):
        lo, hi = node.value.lo, node.value.hi

        def const(x, dirs):
            zero = [0.0] * len(dirs)
            return lo, hi, zero, zero
        return const
    if isinstance(node, Var):
        i = node.index

        def var(x, dirs):
            d = [h[i] for h in dirs]
            return x[i], x[i], d, d
        return var
    if isinstance(node, Norm):
        def norm(x, dirs):  # the squares summed in numpy's order, as compile_lo_hi does
            r = math.sqrt(float(np.sum([v * v for v in x])))
            d = [math.sqrt(sum(t * t for t in h)) if r == 0.0
                 else sum(v * t for v, t in zip(x, h)) / r for h in dirs]
            return r, r, d, d
        return norm
    if isinstance(node, (Abs, Pow)):
        arg, e = compile_tangents(node.child), node.exponent if isinstance(node, Pow) else 0

        def real(x, dirs):
            a = arg(x, dirs)
            if a is None or not (a[0] == a[1] and a[2] == a[3]):
                return None
            v, _, d, _ = a
            if e == 0:  # abs
                value = abs(v)
                if not v > 0.0:
                    d = list(map(abs if v == 0.0 else operator.neg, d))
            else:
                value = v if e == 1 else v * v if e == 2 else _power(v, e)
                if not -math.inf < value < math.inf:
                    return None
                d = list(map((e * v ** (e - 1)).__mul__, d))  # |v|**(e-1) <= 1 + |value|: finite
            return value, value, d, d
        return real
    return _tangent_piecewise([(g.ahead, compile_tangents(body)) for g, body in node.pieces])


def _tangent_binop(op: str, left, right):
    if op in ("+", "-"):  # Moore's - pairs each end with the other end of the right
        fn, (i, j) = _REAL_OPS[op], (1, 0) if op == "-" else (0, 1)

        def moore(x, dirs):
            a, b = left(x, dirs), right(x, dirs)
            if a is None or b is None:
                return None
            return (fn(a[0], b[i]), fn(a[1], b[j]), list(map(fn, a[2], b[i + 2])),
                    list(map(fn, a[3], b[j + 2])))
        return moore

    # an end of ghsub, * or / is the min or max of corners (a op b).  A real
    # operand has one end, so * and / take two corners, as compile_lo_hi does
    def corners(x, dirs):
        a, b = left(x, dirs), right(x, dirs)
        if a is None or b is None:
            return None
        llo, lhi, dllo, dlhi = a
        rlo, rhi, drlo, drhi = b
        if op == "ghsub":
            return _ends([(llo - rlo, list(map(operator.sub, dllo, drlo))),
                          (lhi - rhi, list(map(operator.sub, dlhi, drhi)))])
        lends = [(llo, dllo)] if llo == lhi and dllo == dlhi else [(llo, dllo), (lhi, dlhi)]
        rends = [(rlo, drlo)] if rlo == rhi and drlo == drhi else [(rlo, drlo), (rhi, drhi)]
        if op == "*":
            return _ends([(u * v, [s * v + u * t for s, t in zip(du, dv)])
                          for u, du in lends for v, dv in rends])
        if not (0.0 < rlo and rhi < math.inf or -math.inf < rlo and rhi < 0.0):
            return None
        return _ends([(u / v, [(s - u / v * t) / v for s, t in zip(du, dv)])
                      for u, du in lends for v, dv in rends])
    return corners


def _ends(corners):
    """(lo, hi, dlo, dhi) of finite corners (c, dc), else None: the least and
    the largest c, each with the min or max of the dc of the corners tied at it."""
    for c, _ in corners:
        if not -math.inf < c < math.inf:
            return None
    lo, dlo = hi, dhi = corners[0]
    for c, d in corners[1:]:  # a tie keeps the first c, as min and max do
        if c < lo:
            lo, dlo = c, d
        elif c == lo:
            dlo = list(map(min, dlo, d))
        if c > hi:
            hi, dhi = c, d
        elif c == hi:
            dhi = list(map(max, dhi, d))
    return lo, hi, dlo, dhi


def _tangent_piecewise(pieces):
    # the first piece that holds at x gives the value, and every later one
    # must agree; along h, the first that holds ahead gives the tangent, so
    # each piece is walked with the directions it is picked for
    def piecewise(x, dirs):
        tol = _PIECE_AGREEMENT_TOL
        held = [(ahead, body) for ahead, body in pieces if ahead(x)]
        picks = [next((k for k, (ahead, _) in enumerate(held) if ahead(x, h)), None) for h in dirs]
        walks = [body(x, [h for h, k in zip(dirs, picks) if k == j])
                 for j, (_, body) in enumerate(held)]
        if not walks or None in picks + walks or not all(
                abs(w[0] - walks[0][0]) <= tol and abs(w[1] - walks[0][1]) <= tol for w in walks):
            return None
        ends = [iter(zip(w[2], w[3])) for w in walks]
        ds = [next(ends[k]) for k in picks]
        return walks[0][0], walks[0][1], [a for a, _ in ds], [b for _, b in ds]
    return piecewise


# --------------------------------------------------------------------------
# Convexity certificate
# --------------------------------------------------------------------------

# The curvature of an endpoint function as bits: affine is convex and concave.
UNKNOWN, CONVEX, CONCAVE, AFFINE = 0, 1, 2, 3


class Convexity(NamedTuple):
    """What `convexity` proves of a node over a box: lo <= f_lo(x) and
    f_hi(x) <= hi at every x of the box, whether f_lo == f_hi, and the
    curvature of f_lo and of f_hi."""

    lo: float
    hi: float
    real: bool
    lo_curv: int
    hi_curv: int

    @property
    def convex(self) -> bool:
        """Both endpoint functions are convex: F is convex under the LU order."""
        return bool(self.lo_curv & self.hi_curv & CONVEX)


_UNKNOWN = Convexity(-math.inf, math.inf, False, UNKNOWN, UNKNOWN)


def convexity(node: Expr, domain: Sequence[Tuple[float, float]]) -> Convexity:
    """Prove the curvature of F's endpoint functions over the domain box from
    the tree, by disciplined convex programming's composition rules (Grant,
    Boyd & Ye 2006) on natural interval enclosures (Moore, Kearfott & Cloud
    2009).  Every enclosure is rounded outward, so its sign tests are sound
    in exact arithmetic: a sum is stepped by one ulp with `math.nextafter`
    unless its TwoSum error is 0, a product, quotient or power always is, and
    never past 0 where the exact sign is known.  The rules:

    - abs and an even pow are convex of an affine argument, and keep a
      convex one that is >= 0 over the box (or flip a concave one <= 0); an
      odd pow keeps a convex argument >= 0 and a concave one <= 0; norm()
      is convex;
    - `+` adds curvatures, `-` pairs lo - hi and hi - lo (Moore), and ghsub
      with a real operand is that difference;
    - a constant times G, or G divided by a nonzero real constant, scales
      G's ends by the constant's ends; if the constant is not real, G must
      not change sign over the box.

    Everything else is unknown: a piecewise node, ghsub of two non-real
    operands, a product of two non-constants, a non-real abs or pow
    argument, and any node whose enclosure is not finite.  Unknown is no
    verdict.  Under the LU order, F(lam*x + lam'*y) <= lam*F(x) + lam'*F(y)
    (Minkowski) holds iff both endpoints are convex (`Convexity.convex`)."""
    return _convexity(node, [(float(l), float(u)) for l, u in domain])


def _flip(curv: int) -> int:
    """The curvature of -g."""
    return (curv & CONVEX) << 1 | (curv & CONCAVE) >> 1


def _sum(a: float, b: float, side: float) -> float:
    """a + b, moved one ulp toward side (-inf or inf) unless that rounding
    already bounds the exact sum, as TwoSum's error term (Knuth) tells."""
    s = a + b
    t = s - a
    err = (a - (s - t)) + (b - t)  # a + b == s + err exactly, if finite
    if (err <= 0.0) if side > 0.0 else (err >= 0.0):
        return s
    return math.nextafter(s, side)


def _product(v: float, a: float, b: float, side: float) -> float:
    """v = a*b or a/b rounded to nearest, moved one ulp toward side so that it
    bounds the exact value.  That is 0 if a or b is, and otherwise has the
    sign of a*b, so the bound does not cross 0."""
    if a == 0.0 or b == 0.0:
        return 0.0
    r = math.nextafter(v, side)
    return max(r, 0.0) if (a > 0.0) == (b > 0.0) else min(r, 0.0)


def _power_bound(v: float, e: int, side: float) -> float:
    """A bound on v**e toward side, by e - 1 rounded products of |v|."""
    if v < 0.0:  # only odd powers take a negative v
        return -_power_bound(-v, e, -side)
    r = v
    for _ in range(e - 1):
        r = _product(r * v, r, v, side)
    return r


def _scale(k: float, curv: int) -> int:
    """The curvature of k*g."""
    return AFFINE if k == 0.0 else curv if k > 0.0 else _flip(curv)


def _convexity(node: Expr, box: List[Tuple[float, float]]) -> Convexity:
    if isinstance(node, Const):
        lo, hi = node.value.lo, node.value.hi
        c = Convexity(lo, hi, lo == hi, AFFINE, AFFINE)
    elif isinstance(node, Var):
        c = Convexity(*box[node.index], True, AFFINE, AFFINE)
    elif isinstance(node, Norm):
        sq = 0.0
        for l, u in box:
            m = max(-l, u)
            sq = _sum(sq, _product(m * m, m, m, math.inf), math.inf)
        c = Convexity(0.0, math.nextafter(math.sqrt(sq), math.inf), True, CONVEX, CONVEX)
    elif isinstance(node, (Abs, Pow)):
        g = _convexity(node.child, box)
        e = node.exponent if isinstance(node, Pow) else 0  # abs counts as even
        if not g.real:
            return _UNKNOWN
        if e == 1:
            return g
        even = e % 2 == 0
        # the outer function is convex and rises where its argument is >= 0;
        # where it is <= 0, abs and an even pow fall, and an odd pow is concave
        if g.lo >= 0.0:
            curv = CONVEX if g.lo_curv & CONVEX else UNKNOWN
            m, big = g.lo, g.hi
        elif g.hi <= 0.0:
            curv = (CONVEX if even else CONCAVE) if g.lo_curv & CONCAVE else UNKNOWN
            m, big = -g.hi, -g.lo
        else:
            curv = CONVEX if even and g.lo_curv == AFFINE else UNKNOWN
            m, big = 0.0, max(-g.lo, g.hi)
        if e == 0:
            lo, hi = m, big
        elif even:
            lo, hi = _power_bound(m, e, -math.inf), _power_bound(big, e, math.inf)
        else:
            lo, hi = _power_bound(g.lo, e, -math.inf), _power_bound(g.hi, e, math.inf)
        c = Convexity(lo, hi, True, curv, curv)
    elif isinstance(node, BinOp):
        left, right = _convexity(node.left, box), _convexity(node.right, box)
        if left is _UNKNOWN or right is _UNKNOWN:  # even 0 times it may not evaluate
            return _UNKNOWN
        c = _convexity_binop(node, left, right)
    else:  # a piecewise node
        return _UNKNOWN
    return c if math.isfinite(c.lo) and math.isfinite(c.hi) else _UNKNOWN


def _convexity_binop(node: BinOp, left: Convexity, right: Convexity) -> Convexity:
    op, real = node.op, left.real and right.real
    if op == "ghsub" and (left.real or right.real):
        op = "-"  # a real operand has lo == hi, so the gH-difference is Moore's
    if op == "+":
        return Convexity(_sum(left.lo, right.lo, -math.inf), _sum(left.hi, right.hi, math.inf),
                         real, left.lo_curv & right.lo_curv, left.hi_curv & right.hi_curv)
    if op == "-":
        return Convexity(_sum(left.lo, -right.hi, -math.inf), _sum(left.hi, -right.lo, math.inf),
                         real, left.lo_curv & _flip(right.hi_curv),
                         left.hi_curv & _flip(right.lo_curv))
    # g times a constant [a,b] (a Const node, or a real node whose enclosure
    # is one value), or g over a nonzero real constant [a,a]
    if op == "/" and right.real and right.lo == right.hi != 0.0:
        k, g = right, left
    elif op == "*" and (isinstance(node.left, Const) or left.real and left.lo == left.hi):
        k, g = left, right
    elif op == "*" and (isinstance(node.right, Const) or right.real and right.lo == right.hi):
        k, g = right, left
    else:
        return _UNKNOWN
    a, b = k.lo, k.hi
    if a == b or g.lo >= 0.0:
        k_lo, k_hi = a, b
    elif g.hi <= 0.0:
        k_lo, k_hi = b, a
    else:  # [a,b]*g picks its ends by g's sign, which changes over the box
        return _UNKNOWN
    # f_lo = k_lo*g_lo if k_lo >= 0 else k_lo*g_hi, and f_hi = k_hi*g_hi or k_hi*g_lo
    lo_curv = _scale(k_lo, g.lo_curv if k_lo >= 0.0 else g.hi_curv)
    hi_curv = _scale(k_hi, g.hi_curv if k_hi >= 0.0 else g.lo_curv)
    fn = _REAL_OPS[op]
    ends = [(fn(v, w), v, w) for v in (g.lo, g.hi) for w in {a, b}]
    return Convexity(min(_product(*e, -math.inf) for e in ends),
                     max(_product(*e, math.inf) for e in ends), real, lo_curv, hi_curv)


def separable(node: Expr) -> bool:
    """Whether no abs, pow or norm node reads two variables (a norm reads
    all).  Of a tree that `convexity` proves convex this proves each endpoint
    a sum of one-variable functions: its rules admit only sums, differences
    and scalings whose ends pair one way, so an endpoint sums leaf ends."""
    def axes(n: Expr) -> Optional[set]:  # None past a node that breaks the rule, or a piecewise one
        if isinstance(n, (Var, Const)):
            return {n.index} if isinstance(n, Var) else set()
        if isinstance(n, (Abs, Pow)):
            child = axes(n.child)
            return child if child is not None and len(child) < 2 else None
        if isinstance(n, BinOp):
            left, right = axes(n.left), axes(n.right)
            return None if left is None or right is None else left | right
        return None  # a norm or a piecewise node
    return axes(node) is not None


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    |(?P<ident>[A-Za-z_]+\d*)
    |(?P<symbol><=|>=|=>|[+\-*/()\[\]{},;])
    |(?P<ws>\s+)
    |(?P<bad>.)
    """,
    re.VERBOSE,
)


class Token(NamedTuple):
    kind: str  # "number", "ident", "symbol", "end"
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    line, col = 1, 1
    for m in _TOKEN_RE.finditer(text):
        kind = m.lastgroup
        chunk = m.group()
        if kind == "bad":  # a character no token starts with
            raise ParseError(f"unexpected character {chunk!r}", line, col)
        if kind != "ws":
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
    tokens.append(Token("end", "", line, col))
    return tokens


_VAR_RE = re.compile(r"x(\d+)$")
_POW_RE = re.compile(r"pow(\d+)$")


def _var_index(tok: Token) -> Optional[int]:
    """The 0-based axis of a variable token x<INT>, None for any other."""
    m = _VAR_RE.fullmatch(tok.text) if tok.kind == "ident" else None
    if m is None:
        return None
    if int(m.group(1)) < 1:
        raise ParseError("variables are 1-based", tok.line, tok.col)
    return int(m.group(1)) - 1


class _Parser:
    def __init__(self, tokens: List[Token]):
        self.tokens = tokens
        self.i = 0

    def peek(self) -> Token:
        return self.tokens[self.i]

    def next(self) -> Token:
        tok = self.tokens[self.i]
        self.i += 1
        return tok

    def expect(self, text: str) -> Token:
        tok = self.next()
        if tok.text != text:
            raise ParseError(f"expected {text!r}, got {tok.text!r}", tok.line, tok.col)
        return tok

    def fail(self, message: str):
        tok = self.peek()
        raise ParseError(message, tok.line, tok.col)

    # grammar entry: piecewise or plain expression
    def parse_top(self) -> Expr:
        if self.peek().text == "piecewise":
            node = self.parse_piecewise()
        else:
            node = self.parse_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise ParseError(f"trailing input {tok.text!r}", tok.line, tok.col)
        return node

    def parse_piecewise(self) -> Piecewise:
        self.expect("piecewise")
        self.expect("{")
        pieces = []
        while self.peek().text != "}":
            guard = self.parse_guard()
            self.expect("=>")
            body = self.parse_expr()
            self.expect(";")
            pieces.append((guard, body))
        self.expect("}")
        if not pieces:
            self.fail("piecewise needs at least one piece")
        return Piecewise(tuple(pieces))

    def parse_guard(self) -> Guard:
        comps = [self.parse_comparison()]
        while self.peek().text == "and":
            self.next()
            comps.append(self.parse_comparison())
        return Guard(tuple(comps))

    def parse_comparison(self) -> Comparison:
        tok = self.next()
        idx = _var_index(tok)
        if idx is None:
            raise ParseError(f"guard must start with a variable, got {tok.text!r}",
                             tok.line, tok.col)
        op = self.next()
        if op.text not in ("<=", ">="):
            raise ParseError(f"expected <= or >=, got {op.text!r}", op.line, op.col)
        return Comparison(idx, op.text, self.parse_signed_number())

    def parse_signed_number(self) -> float:
        sign = 1.0
        if self.peek().text == "-":
            self.next()
            sign = -1.0
        tok = self.next()
        if tok.kind != "number":
            raise ParseError(f"expected a number, got {tok.text!r}", tok.line, tok.col)
        return sign * float(tok.text)

    def parse_expr(self) -> Expr:
        node = self.parse_term()
        while self.peek().text in ("+", "-", "ghsub"):
            op = self.next().text
            node = BinOp(op, node, self.parse_term())
        return node

    def parse_term(self) -> Expr:
        node = self.parse_factor()
        while self.peek().text in ("*", "/"):
            op = self.next().text
            node = BinOp(op, node, self.parse_factor())
        return node

    def parse_factor(self) -> Expr:
        tok = self.peek()
        if tok.text == "[":
            return self.parse_interval()
        if tok.text == "(":
            return self.parse_group()
        if tok.text == "-" or tok.kind == "number":
            return Const(Interval.point(self.parse_signed_number()))
        if tok.kind == "ident":
            idx = _var_index(tok)
            if idx is not None:
                self.next()
                return Var(idx)
            if tok.text == "abs":
                self.next()
                return Abs(self.parse_group())
            m = _POW_RE.fullmatch(tok.text)
            if m is not None:
                self.next()
                node = self.parse_group()
                exponent = int(m.group(1))
                if exponent < 1:
                    raise ParseError("pow exponent must be >= 1", tok.line, tok.col)
                return Pow(exponent, node)
            if tok.text == "norm":
                # extension beyond the published grammar, used for
                # constant-times-norm functions
                self.next()
                self.expect("(")
                self.expect(")")
                return Norm()
        raise ParseError(f"unexpected token {tok.text!r}", tok.line, tok.col)

    def parse_group(self) -> Expr:
        self.expect("(")
        node = self.parse_expr()
        self.expect(")")
        return node

    def parse_interval(self) -> Const:
        self.expect("[")
        lo = self.parse_signed_number()
        self.expect(",")
        hi = self.parse_signed_number()
        self.expect("]")
        return Const(Interval(lo, hi))


def parse_expr(text: str) -> Expr:
    """Parse expression text (optionally a piecewise block) into a tree."""
    return _Parser(tokenize(text)).parse_top()
