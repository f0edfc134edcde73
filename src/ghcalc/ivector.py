"""The product space of interval n-tuples: componentwise algebra, the
Euclidean-of-norms vector norm, the interval dot product, the endpoint
scalarization map, and componentwise dominance."""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from typing import Sequence, Tuple

from .errors import InvalidInterval, LengthMismatch
from .interval import Interval, dominates


class Star(Enum):
    """Componentwise operations available on interval vectors."""

    ADD = "add"
    SUB = "sub"
    GH_SUB = "gh_sub"


@dataclass(frozen=True)
class IVector:
    """Fixed-length tuple of intervals, the element of I(R)^n."""

    components: Tuple[Interval, ...]

    def __post_init__(self):
        comps = tuple(self.components)
        if len(comps) == 0:
            raise LengthMismatch("interval vector needs at least one component")
        object.__setattr__(self, "components", comps)

    @classmethod
    def of(cls, *intervals: Interval) -> "IVector":
        return cls(tuple(intervals))

    @classmethod
    def zero(cls, n: int) -> "IVector":
        return cls(tuple(Interval(0.0, 0.0) for _ in range(n)))

    def __len__(self) -> int:
        return len(self.components)

    def __getitem__(self, i: int) -> Interval:
        return self.components[i]

    def __iter__(self):
        return iter(self.components)

    def __str__(self) -> str:
        return "(" + ",".join(str(c) for c in self.components) + ")"

    @classmethod
    def parse(cls, text: str) -> "IVector":
        """Parse the textual form "([a,b],[c,d],...)"."""
        body = text.strip()
        if not (body.startswith("(") and body.endswith(")")):
            raise InvalidInterval(f"cannot parse interval vector from {text!r}")
        parts = re.findall(r"\[[^\[\]]*\]", body[1:-1])
        if not parts:
            raise InvalidInterval(f"no intervals found in {text!r}")
        return cls(tuple(Interval.parse(p) for p in parts))

    def to_csv_row(self) -> str:
        """Flat CSV row form lo1,hi1,lo2,hi2,..."""
        return ",".join(f"{v!r}" for c in self.components for v in (c.lo, c.hi))

    @classmethod
    def from_csv_row(cls, row: str) -> "IVector":
        vals = [float(v) for v in row.split(",")]
        if len(vals) % 2 != 0:
            raise InvalidInterval("CSV row must hold an even number of values")
        pairs = zip(vals[0::2], vals[1::2])
        return cls(tuple(Interval(lo, hi) for lo, hi in pairs))


@dataclass(frozen=True)
class WMapConfig:
    """Convex endpoint weights for the scalarization map; w + w_prime = 1."""

    w: float = 0.5
    w_prime: float = 0.5

    def __post_init__(self):
        if not (0.0 <= self.w <= 1.0 and 0.0 <= self.w_prime <= 1.0):
            raise ValueError("weights must lie in [0, 1]")
        if abs(self.w + self.w_prime - 1.0) > 1e-12:
            raise ValueError("weights must sum to 1")


def _check_lengths(a: Sequence, b: Sequence) -> None:
    if len(a) != len(b):
        raise LengthMismatch(f"lengths differ: {len(a)} vs {len(b)}")


def vec_op(a: IVector, b: IVector, star: Star) -> IVector:
    """Componentwise interval operation between equal-length vectors."""
    _check_lengths(a, b)
    if star is Star.ADD:
        comps = tuple(x + y for x, y in zip(a, b))
    elif star is Star.SUB:
        comps = tuple(x - y for x, y in zip(a, b))
    elif star is Star.GH_SUB:
        comps = tuple(x.gh_sub(y) for x, y in zip(a, b))
    else:  # pragma: no cover - enum is closed
        raise ValueError(f"unknown operation {star}")
    return IVector(comps)


def vec_norm(a: IVector) -> float:
    """Euclidean norm of the per-component interval norms."""
    return math.sqrt(sum(c.norm ** 2 for c in a))


def dot(d: Sequence[float], a: IVector) -> Interval:
    """Interval dot product: the Moore sum of d_i-scaled components.

    Left-to-right accumulation; the result is order-independent because
    interval addition just adds the two endpoint sums.
    """
    _check_lengths(d, a)
    acc = Interval(0.0, 0.0)
    for coeff, comp in zip(d, a):
        acc = acc + comp.scale(coeff)
    return acc


def w_map(a: IVector, cfg: WMapConfig = WMapConfig()) -> Tuple[float, ...]:
    """Scalarize each component to w*lo + w'*hi."""
    return tuple(cfg.w * c.lo + cfg.w_prime * c.hi for c in a)


def vec_leq(a: IVector, b: IVector) -> bool:
    """Componentwise dominance: every component pair satisfies lo/hi <=."""
    _check_lengths(a, b)
    return all(dominates(x, y) for x, y in zip(a, b))


def gh_distance(a: IVector, b: IVector) -> float:
    """Norm of the componentwise gH-difference; zero iff a == b."""
    return vec_norm(vec_op(a, b, Star.GH_SUB))
