"""Compact intervals with Moore arithmetic, the gH-difference, the
max-endpoint norm, and the endpoint-wise dominance partial order.

An interval is a pair of finite endpoints lo <= hi.  Degenerate intervals
(lo == hi) embed the reals, so every operation accepts them without special
casing.  All values are immutable and all operations are pure functions.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from enum import Enum
from numbers import Real

from .errors import InvalidInterval, ZeroInDenominator


@dataclass(frozen=True)
class Interval:
    """Compact interval [lo, hi] with finite endpoints, lo <= hi."""

    lo: float
    hi: float

    def __post_init__(self):
        lo, hi = float(self.lo), float(self.hi)
        if not (math.isfinite(lo) and math.isfinite(hi)):
            raise InvalidInterval(f"endpoints must be finite, got [{lo}, {hi}]")
        if lo > hi:
            # Deliberately no silent swap, even for tiny inversions: a caller
            # that produced lo > hi has a bug that swapping would mask.
            raise InvalidInterval(f"lower endpoint exceeds upper: [{lo}, {hi}]")
        object.__setattr__(self, "lo", lo)
        object.__setattr__(self, "hi", hi)

    @classmethod
    def point(cls, value: Real) -> "Interval":
        """Embed a real number as a degenerate interval."""
        return cls(value, value)

    @property
    def is_degenerate(self) -> bool:
        return self.lo == self.hi

    def __add__(self, other: "Interval") -> "Interval":
        return Interval(self.lo + other.lo, self.hi + other.hi)

    def __sub__(self, other: "Interval") -> "Interval":
        """Moore subtraction; note A - A != 0 for nondegenerate A."""
        return Interval(self.lo - other.hi, self.hi - other.lo)

    def __mul__(self, other):
        if isinstance(other, Real):
            return self.scale(other)
        p = (self.lo * other.lo, self.lo * other.hi,
             self.hi * other.lo, self.hi * other.hi)
        return Interval(min(p), max(p))

    __rmul__ = __mul__

    def __truediv__(self, other: "Interval") -> "Interval":
        if other.lo <= 0.0 <= other.hi:
            raise ZeroInDenominator(f"denominator {other} contains 0")
        q = (self.lo / other.lo, self.lo / other.hi,
             self.hi / other.lo, self.hi / other.hi)
        return Interval(min(q), max(q))

    def gh_sub(self, other: "Interval") -> "Interval":
        """Generalized Hukuhara difference; satisfies A.gh_sub(A) == [0, 0]."""
        d_lo = self.lo - other.lo
        d_hi = self.hi - other.hi
        return Interval(min(d_lo, d_hi), max(d_lo, d_hi))

    def scale(self, lam: Real) -> "Interval":
        """Scalar multiple; the endpoints swap for negative factors."""
        lam = float(lam)
        if lam >= 0.0:
            return Interval(lam * self.lo, lam * self.hi)
        return Interval(lam * self.hi, lam * self.lo)

    @property
    def norm(self) -> float:
        """max(|lo|, |hi|), the norm on the space of compact intervals."""
        return max(abs(self.lo), abs(self.hi))

    def __str__(self) -> str:
        return f"[{self.lo!r},{self.hi!r}]"

    @classmethod
    def parse(cls, text: str) -> "Interval":
        """Parse the textual form "[lo,hi]"; round-trips with str()."""
        m = re.fullmatch(r"\s*\[\s*([^,\[\]]+)\s*,\s*([^,\[\]]+)\s*\]\s*", text)
        if m is None:
            raise InvalidInterval(f"cannot parse interval from {text!r}")
        try:
            return cls(float(m.group(1)), float(m.group(2)))
        except ValueError as exc:
            raise InvalidInterval(f"bad interval endpoint in {text!r}") from exc


ZERO = Interval(0.0, 0.0)


class Dominance(Enum):
    """Outcome of comparing two intervals under the endpoint-wise order."""

    STRICTLY_DOMINATES = "strictly_dominates"
    STRICTLY_DOMINATED = "strictly_dominated"
    EQUAL = "equal"
    INCOMPARABLE = "incomparable"


def dominates(a: Interval, b: Interval) -> bool:
    """a precedes b: both endpoints of a are <= those of b."""
    return a.lo <= b.lo and a.hi <= b.hi


def strictly_dominates(a: Interval, b: Interval) -> bool:
    """a strictly precedes b: dominance with at least one strict endpoint."""
    return (a.lo <= b.lo and a.hi < b.hi) or (a.lo < b.lo and a.hi <= b.hi)


def compare(a: Interval, b: Interval) -> Dominance:
    """Classify the order relation between a and b.

    Exactly one kind is returned.  Non-strict dominance plus inequality
    already forces a strict endpoint, so dominance of unequal intervals is
    always strict.
    """
    ab = dominates(a, b)
    ba = dominates(b, a)
    if ab and ba:
        return Dominance.EQUAL
    if ab:
        return Dominance.STRICTLY_DOMINATES
    if ba:
        return Dominance.STRICTLY_DOMINATED
    return Dominance.INCOMPARABLE


def gh_diff(a: Interval, b: Interval) -> Interval:
    return a.gh_sub(b)
