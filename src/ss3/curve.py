"""Curves over GF(3^d): canonical-form reduction, group law, naive counting.

The canonical shape for supersingular curves in characteristic 3 is
y^2 = x^3 + a4*x + a6 with a4 != 0 (discriminant -a4^3). General
five-coefficient Weierstrass models are reduced to it by completing the
square; a nonzero x^2 coefficient after reduction means the curve is
ordinary (j != 0) and outside this library's counting scope.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    ContextMismatch,
    InvalidCurve,
    PointNotOnCurve,
    SingularCurve,
)
from .field import FieldContext, FieldElement, chi_sum_cubic, cubic, sqrt


def _common_ctx(*elements: FieldElement) -> FieldContext:
    ctx = elements[0].ctx
    for e in elements[1:]:
        if e.ctx.key != ctx.key:
            raise ContextMismatch("curve coefficients from different contexts")
    return ctx


@dataclass(frozen=True, slots=True)
class ShortCurve:
    """y^2 = x^3 + a4*x + a6 over GF(3^d), with a4 != 0.

    An immutable value, compared and hashed by (a4, a6).
    """

    a4: FieldElement
    a6: FieldElement

    def __post_init__(self):
        if self.a6.ctx is not self.a4.ctx:
            _common_ctx(self.a4, self.a6)
        if self.a4.is_zero():
            raise InvalidCurve("a4 = 0 makes the discriminant -a4^3 vanish")

    def __reduce__(self):
        # pickled through the constructor, on every supported Python
        return ShortCurve, (self.a4, self.a6)

    @property
    def ctx(self) -> FieldContext:
        return self.a4.ctx

    def rhs(self, x: FieldElement) -> FieldElement:
        return cubic(x, self.a4, self.a6)

    def point(self, x: FieldElement, y: FieldElement) -> "Point":
        p = Point(self, x, y)
        if p.y * p.y != self.rhs(p.x):
            raise PointNotOnCurve(f"({x}, {y}) does not satisfy {self}")
        return p

    def infinity(self) -> "Point":
        return Point(self, None, None)

    def __str__(self) -> str:
        return f"a4={self.a4};a6={self.a6}"


@dataclass(frozen=True)
class GeneralCurve:
    """Full Weierstrass model y^2 + a1*xy + a3*y = x^3 + a2*x^2 + a4*x + a6.

    Nonsingularity is checked at construction.
    """

    a1: FieldElement
    a2: FieldElement
    a3: FieldElement
    a4: FieldElement
    a6: FieldElement

    def __post_init__(self):
        _common_ctx(self.a1, self.a2, self.a3, self.a4, self.a6)
        if self._invariants()[3].is_zero():
            raise SingularCurve("discriminant is zero")

    @property
    def ctx(self) -> FieldContext:
        return self.a1.ctx

    def _invariants(self) -> tuple[FieldElement, FieldElement, FieldElement, FieldElement]:
        # b2 = a1^2 + 4a2, b4 = 2a4 + a1a3, b6 = a3^2 + 4a6  (char 3: 4 = 1)
        b2 = self.a1 * self.a1 + self.a2
        b4 = -self.a4 + self.a1 * self.a3
        b6 = self.a3 * self.a3 + self.a6
        delta = -(b2 * b2) * (b2 * b6 - b4 * b4) + b4 * b4 * b4
        return b2, b4, b6, delta


@dataclass(frozen=True)
class ReductionResult:
    """Outcome of completing the square on a general model.

    short is the canonical curve when b2 = 0 and None otherwise; j is the
    j-invariant b2^6 / delta (zero exactly in the supersingular case).
    """

    b2: FieldElement
    b4: FieldElement
    b6: FieldElement
    short: Optional[ShortCurve]
    j: FieldElement


def reduce_curve(g: GeneralCurve) -> ReductionResult:
    """Complete the square: y^2 = x^3 + b2*x^2 - b4*x + b6 in characteristic 3.

    With b2 = 0 the model is the canonical y^2 = x^3 - b4*x + b6; the
    substitution has u^12 = 1 so point counts and the discriminant carry
    over unchanged. The discriminant is nonzero, as GeneralCurve checked it.
    """
    b2, b4, b6, delta = g._invariants()
    j = (b2 ** 6) / delta
    short = ShortCurve(-b4, b6) if b2.is_zero() else None
    return ReductionResult(b2=b2, b4=b4, b6=b6, short=short, j=j)


# ----------------------------------------------------------------------
# Group law
# ----------------------------------------------------------------------


class Point:
    """Affine point or the point at infinity on a ShortCurve."""

    __slots__ = ("curve", "x", "y")

    def __init__(self, curve: ShortCurve, x: Optional[FieldElement], y: Optional[FieldElement]):
        self.curve = curve
        self.x = x
        self.y = y

    @property
    def is_infinity(self) -> bool:
        return self.x is None

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, Point):
            return NotImplemented
        return self.curve == other.curve and self.x == other.x and self.y == other.y

    def __hash__(self) -> int:
        return hash((self.curve, self.x, self.y))

    def __repr__(self) -> str:
        if self.is_infinity:
            return "Point(infinity)"
        return f"Point({self.x}, {self.y})"


def negate(p: Point) -> Point:
    if p.is_infinity:
        return p
    return Point(p.curve, p.x, -p.y)


def double(p: Point) -> Point:
    """Tangent step. In characteristic 3 the slope is a4 / (2*y1)."""
    if p.is_infinity or p.y.is_zero():
        return p.curve.infinity()
    lam = p.curve.a4 / (p.y + p.y)
    x3 = lam * lam - p.x - p.x
    y3 = lam * (p.x - x3) - p.y
    return Point(p.curve, x3, y3)


def add(p: Point, q: Point) -> Point:
    if p.curve != q.curve:
        raise ContextMismatch("points on different curves")
    if p.is_infinity:
        return q
    if q.is_infinity:
        return p
    if p.x == q.x:
        if p.y == -q.y:
            return p.curve.infinity()
        return double(p)
    lam = (q.y - p.y) / (q.x - p.x)
    x3 = lam * lam - p.x - q.x
    y3 = lam * (p.x - x3) - p.y
    return Point(p.curve, x3, y3)


def scalar_mul(n: int, p: Point) -> Point:
    if n < 0:
        return scalar_mul(-n, negate(p))
    acc = p.curve.infinity()
    base = p
    while n:
        if n & 1:
            acc = add(acc, base)
        n >>= 1
        if n:
            base = double(base)
    return acc


# ----------------------------------------------------------------------
# Brute-force counting oracle
# ----------------------------------------------------------------------


def all_short_curves(ctx: FieldContext) -> Iterator[ShortCurve]:
    """Every canonical-form curve (a4 != 0) over ctx, a4 then a6 in encoding order."""
    elements = list(ctx.elements())
    for a4 in elements[1:]:
        for a6 in elements:
            yield ShortCurve(a4, a6)


def naive_count(e: ShortCurve) -> int:
    """Exact order of E(GF(3^d)) by the quadratic-character sum.

    Returns q + 1 + sum over x of chi(x^3 + a4*x + a6), which counts the
    projective points directly. Partial sums over any partition of the
    x-range add up to the same integer, so this parallelizes trivially.
    """
    return chi_sum_cubic(e.ctx, e.ctx.zero, e.a4, e.a6)


def random_point(e: ShortCurve, rng) -> Point:
    """Uniformly-flavored affine point: random x until the rhs is a square.

    Over GF(3) a curve may have no affine points at all (the order-1
    twist); infinity is returned then, decided by the oracle, as #E = 1 +
    the number of affine points. Fields with q >= 9 always have affine
    points by the Hasse bound.
    """
    ctx = e.ctx
    if ctx.d == 1 and naive_count(e) == 1:
        return e.infinity()
    while True:
        x = ctx.random_element(rng)
        y = sqrt(e.rhs(x))  # None for a non-square, zero at 0
        if y is not None:
            break
    if y and rng.randrange(2):  # y = 0 takes no sign draw from the rng stream
        y = -y
    return Point(e, x, y)


def random_supersingular_curve(ctx: FieldContext, rng) -> ShortCurve:
    """Random canonical-form curve: a4 uniform nonzero, a6 uniform."""
    return ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))
