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


def compile_row(node: Expr, arity: int) -> Callable[[Sequence[float]], Optional[Tuple[float, float]]]:
    """Generate once a function of a point's floats that returns compile_lo_hi's
    finite (lo, hi) there, bit for bit, or None: at a non-degenerate or NaN
    abs/pow argument, a denominator holding 0 or not finite, an uncovered
    point, pieces that overlap beyond the tolerance, or a non-finite end.  A
    non-finite operand reaches the value but through these checks, so None
    covers every point where compile_lo_hi raises, warns or is not finite."""
    writer = _RowWriter(arity)
    lo, hi = writer.emit(node)
    writer.lines.append(f"    if -inf < {lo} <= {hi} < inf: return {lo}, {hi}")
    namespace = dict(writer.consts, inf=math.inf, tol=_PIECE_AGREEMENT_TOL,
                     sqrt=math.sqrt, power=_power)
    exec(compile("\n".join(writer.lines), "<row kernel>", "exec"), namespace)
    return namespace["row"]


def _power(v: float, e: int) -> float:
    # numpy's power of an array, which differs from Python's ** in the last bit
    with np.errstate(all="ignore"):
        return (np.array([v]) ** e)[0].item()


def _pairwise(terms: List[str]) -> str:
    """The sum of terms in the order of numpy's pairwise row reduction."""
    n = len(terms)
    if n < 8:
        return "(" + " + ".join(terms or ["0.0"]) + ")"
    if n > 128:
        half = n // 2 - n // 2 % 8
        return f"({_pairwise(terms[:half])} + {_pairwise(terms[half:])})"
    r = terms[:8]
    for i in range(8, n - n % 8):
        r[i % 8] = f"({r[i % 8]} + {terms[i]})"
    return "(" + " + ".join([f"(({r[0]} + {r[1]}) + ({r[2]} + {r[3]}))"
                             f" + (({r[4]} + {r[5]}) + ({r[6]} + {r[7]}))"]
                            + terms[n - n % 8:]) + ")"


class _RowWriter:
    """Writes compile_row's function, one operation per line.  emit returns
    the names of a node's (lo, hi), one name twice if it is real-valued."""

    def __init__(self, arity: int):
        self.arity, self.consts, self.pad = arity, {}, "    "
        self.lines = ["def row(x):", f"    ({''.join(f'x{i}, ' for i in range(arity))}) = x"]

    def let(self, expr: str) -> str:
        name = f"t{len(self.lines)}"
        self.lines.append(f"{self.pad}{name} = {expr}")
        return name

    def refuse(self, cond: str) -> None:
        self.lines.append(f"{self.pad}if {cond}: return None")

    def const(self, value: float) -> str:
        self.consts[f"c{len(self.consts)}"] = value
        return f"c{len(self.consts) - 1}"

    def pick(self, a: str, b: str, cmp: str) -> str:
        # np.minimum (cmp "<") and np.maximum (">"): NaN passes, a tie takes b
        return self.let(f"{a} if {a} {cmp} {b} or {a} != {a} else {b}")

    def emit(self, node: Expr):
        if isinstance(node, Const):
            lo, hi = node.value.lo, node.value.hi
            if lo == hi and math.copysign(1.0, lo) == math.copysign(1.0, hi):
                return (self.const(lo),) * 2
            return self.const(lo), self.const(hi)
        if isinstance(node, Var):
            return (f"x{node.index}",) * 2
        if isinstance(node, Norm):
            return (self.let(f"sqrt{_pairwise([f'x{i}*x{i}' for i in range(self.arity)])}"),) * 2
        if isinstance(node, (Abs, Pow)):
            v, w = self.emit(node.child)
            self.refuse(f"not {v} == {w}")
            e = node.exponent if isinstance(node, Pow) else 0
            return (self.let({0: f"abs({v})", 1: v, 2: f"{v}*{v}"}.get(e, f"power({v}, {e})")),) * 2
        if isinstance(node, BinOp):
            (llo, lhi), (rlo, rhi) = self.emit(node.left), self.emit(node.right)
            sym = "-" if node.op == "ghsub" else node.op
            if node.op == "/":
                self.refuse(f"not (0.0 < {rlo} and {rhi} < inf or -inf < {rlo} and {rhi} < 0.0)")
            if llo == lhi and rlo == rhi:
                return (self.let(f"{llo} {sym} {rlo}"),) * 2
            if node.op in ("+", "-"):
                a, b = (rlo, rhi) if node.op == "+" else (rhi, rlo)
                return self.let(f"{llo} {sym} {a}"), self.let(f"{lhi} {sym} {b}")
            if node.op == "ghsub" or llo == lhi or rlo == rhi:
                ends = self.let(f"{llo} {sym} {rlo}"), self.let(f"{lhi} {sym} {rhi}")
                return self.pick(*ends, "<"), self.pick(*ends, ">")
            # the four corners, reduced in order as np.stack(...).min(axis=0) does
            lo = hi = self.let(f"{llo} {sym} {rlo}")
            for c in (self.let(f"{a} {sym} {b}") for a, b in ((llo, rhi), (lhi, rlo), (lhi, rhi))):
                lo, hi = self.pick(lo, c, "<"), self.pick(hi, c, ">")
            return lo, hi
        # a piecewise node: the first piece whose guard holds gives the value,
        # and every later one must agree with it within the tolerance
        lo, hi, covered = self.let("None"), self.let("None"), self.let("False")
        outer = self.pad
        for guard, body in node.pieces:
            self.lines.append(outer + "if " + " and ".join(
                f"x{c.var_index} {c.op} {self.const(c.bound)}" for c in guard.comparisons) + ":")
            self.pad = outer + "    "
            blo, bhi = self.emit(body)
            self.lines += [f"{self.pad}if not {covered}: {lo}, {hi}, {covered} = {blo}, {bhi}, True",
                           f"{self.pad}elif not (abs({blo} - {lo}) <= tol and "
                           f"abs({bhi} - {hi}) <= tol): return None"]
            self.pad = outer
        self.refuse(f"not {covered}")
        return lo, hi


def tangents(node: Expr, x: Sequence[float], dirs: Sequence[Sequence[float]]):
    """(lo, hi, dlo, dhi): F's endpoints at the point x and their one-sided
    derivatives along each h in dirs, as lists, by forward mode on floats
    (Griewank & Walther 2008; one-sided rules of Griewank 2013).  None
    wherever compile_row refuses, at a value that is not finite, and where
    an abs/pow argument or the pieces fail along some h."""
    if isinstance(node, BinOp):
        left, right = tangents(node.left, x, dirs), tangents(node.right, x, dirs)
        if left is None or right is None:
            return None
        (llo, lhi, dllo, dlhi), (rlo, rhi, drlo, drhi) = left, right
        if node.op == "+":
            return (llo + rlo, lhi + rhi, [s + t for s, t in zip(dllo, drlo)],
                    [s + t for s, t in zip(dlhi, drhi)])
        if node.op == "-":
            return (llo - rhi, lhi - rlo, [s - t for s, t in zip(dllo, drhi)],
                    [s - t for s, t in zip(dlhi, drlo)])
        # an end of ghsub, * or / is the min or max of corners (a op b); where
        # corners tie at it, its tangent is the min or max of theirs.  A real
        # operand has one end, so * and / take two corners, as compile_row does
        ends = [(llo, dllo), (lhi, dlhi)], [(rlo, drlo), (rhi, drhi)]
        if node.op == "ghsub":
            corners = [(a - b, [s - t for s, t in zip(da, db)]) for (a, da), (b, db) in zip(*ends)]
        else:
            lends, rends = (e[:1] if e[0] == e[1] else e for e in ends)
            if node.op == "*":
                corners = [(a * b, [s * b + a * t for s, t in zip(da, db)])
                           for a, da in lends for b, db in rends]
            elif 0.0 < rlo and rhi < math.inf or -math.inf < rlo and rhi < 0.0:
                corners = [(a / b, [(s - a / b * t) / b for s, t in zip(da, db)])
                           for a, da in lends for b, db in rends]
            else:
                return None
        if not all(math.isfinite(c) for c, _ in corners):
            return None
        lo, hi = min(c for c, _ in corners), max(c for c, _ in corners)
        return (lo, hi, [min(ts) for ts in zip(*(d for c, d in corners if c == lo))],
                [max(ts) for ts in zip(*(d for c, d in corners if c == hi))])
    if isinstance(node, Const):
        zero = [0.0] * len(dirs)
        return node.value.lo, node.value.hi, zero, zero
    if isinstance(node, Var):
        d = [h[node.index] for h in dirs]
        return x[node.index], x[node.index], d, d
    if isinstance(node, Norm):  # the squares summed in numpy's order, as compile_row does
        r = math.sqrt(float(np.sum([v * v for v in x])))
        d = [math.sqrt(sum(t * t for t in h)) if r == 0.0
             else sum(v * t for v, t in zip(x, h)) / r for h in dirs]
        return r, r, d, d
    if isinstance(node, (Abs, Pow)):
        arg = tangents(node.child, x, dirs)
        if arg is None or not (arg[0] == arg[1] and arg[2] == arg[3]):
            return None
        v, _, d, _ = arg
        if isinstance(node, Abs):
            value, d = abs(v), [abs(t) if v == 0.0 else t if v > 0.0 else -t for t in d]
        else:
            e = node.exponent
            value = v if e == 1 else v * v if e == 2 else _power(v, e)
            if not math.isfinite(value):
                return None
            d = [e * v ** (e - 1) * t for t in d]  # |v|**(e-1) <= max(1, |value|): finite
        return value, value, d, d
    # a piecewise node: the first piece that holds at x gives the value, and every
    # later one must agree; along h, the first that holds ahead gives the tangent,
    # so each piece is walked with the directions it is picked for
    held = [(guard, body) for guard, body in node.pieces if guard.ahead(x)]
    picks = [next((k for k, (guard, _) in enumerate(held) if guard.ahead(x, h)), None) for h in dirs]
    walks = [tangents(body, x, [h for h, k in zip(dirs, picks) if k == j])
             for j, (_, body) in enumerate(held)]
    tol = _PIECE_AGREEMENT_TOL
    if not walks or None in picks + walks or not all(
            abs(w[0] - walks[0][0]) <= tol and abs(w[1] - walks[0][1]) <= tol for w in walks):
        return None
    ends = [iter(zip(w[2], w[3])) for w in walks]
    ds = [next(ends[k]) for k in picks]
    return walks[0][0], walks[0][1], [a for a, _ in ds], [b for _, b in ds]


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


# --------------------------------------------------------------------------
# Tokenizer / parser
# --------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"""
    (?P<number>\d+\.\d*(?:[eE][+-]?\d+)?|\.\d+(?:[eE][+-]?\d+)?|\d+(?:[eE][+-]?\d+)?)
    |(?P<ident>[A-Za-z_]+\d*)
    |(?P<symbol><=|>=|=>|[+\-*/()\[\]{},;])
    |(?P<ws>\s+)
    """,
    re.VERBOSE,
)


@dataclass(frozen=True)
class Token:
    kind: str  # "number", "ident", "symbol", "end"
    text: str
    line: int
    col: int


def tokenize(text: str) -> List[Token]:
    tokens: List[Token] = []
    pos = 0
    line, col = 1, 1
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            raise ParseError(f"unexpected character {text[pos]!r}", line, col)
        kind = m.lastgroup
        chunk = m.group()
        if kind != "ws":
            tokens.append(Token(kind, chunk, line, col))
        newlines = chunk.count("\n")
        if newlines:
            line += newlines
            col = len(chunk) - chunk.rfind("\n")
        else:
            col += len(chunk)
        pos = m.end()
    tokens.append(Token("end", "", line, col))
    return tokens


_VAR_RE = re.compile(r"x(\d+)$")
_POW_RE = re.compile(r"pow(\d+)$")


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
        m = _VAR_RE.fullmatch(tok.text) if tok.kind == "ident" else None
        if m is None:
            raise ParseError(f"guard must start with a variable, got {tok.text!r}",
                             tok.line, tok.col)
        idx = int(m.group(1)) - 1
        if idx < 0:
            raise ParseError("variables are 1-based", tok.line, tok.col)
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
            self.next()
            node = self.parse_expr()
            self.expect(")")
            return node
        if tok.text == "-" or tok.kind == "number":
            return Const(Interval.point(self.parse_signed_number()))
        if tok.kind == "ident":
            m = _VAR_RE.fullmatch(tok.text)
            if m is not None:
                self.next()
                idx = int(m.group(1)) - 1
                if idx < 0:
                    raise ParseError("variables are 1-based", tok.line, tok.col)
                return Var(idx)
            if tok.text == "abs":
                self.next()
                self.expect("(")
                node = self.parse_expr()
                self.expect(")")
                return Abs(node)
            m = _POW_RE.fullmatch(tok.text)
            if m is not None:
                self.next()
                self.expect("(")
                node = self.parse_expr()
                self.expect(")")
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
