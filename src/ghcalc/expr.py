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
from typing import Callable, List, Tuple

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
