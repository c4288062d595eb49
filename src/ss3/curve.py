"""Curves over GF(3^d): canonical-form reduction, group law, naive counting.

The canonical shape for supersingular curves in characteristic 3 is
y^2 = x^3 + a4*x + a6 with a4 != 0 (discriminant -a4^3). General
five-coefficient Weierstrass models are reduced to it by completing the
square; a nonzero x^2 coefficient after reduction means the curve is
ordinary (j != 0) and outside this library's counting scope.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from typing import Iterator, Optional

from .errors import (
    ContextMismatch,
    InvalidCurve,
    ParseError,
    PointNotOnCurve,
    SingularCurve,
)
from .field import CHI_TABLE_LIMIT, FieldContext, FieldElement, check_oracle_cap, chi, sqrt


def _common_ctx(*elements: FieldElement) -> FieldContext:
    ctx = elements[0].ctx
    for e in elements[1:]:
        if e.ctx.key != ctx.key:
            raise ContextMismatch("curve coefficients from different contexts")
    return ctx


@dataclass(frozen=True)
class ShortCurve:
    """y^2 = x^3 + a4*x + a6 over GF(3^d), with a4 != 0."""

    a4: FieldElement
    a6: FieldElement

    def __post_init__(self):
        _common_ctx(self.a4, self.a6)
        if self.a4.is_zero():
            raise InvalidCurve("a4 = 0 makes the discriminant -a4^3 vanish")

    @property
    def ctx(self) -> FieldContext:
        return self.a4.ctx

    def rhs(self, x: FieldElement) -> FieldElement:
        return x * x * x + self.a4 * x + self.a6

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

    def count_points_directly(self) -> int:
        """Literal (x, y) enumeration on this model, plus infinity."""
        ctx = self.ctx
        check_oracle_cap(ctx.q)
        total = 1
        for x in ctx.elements():
            rhs = x * x * x + self.a2 * x * x + self.a4 * x + self.a6
            lhs_lin = self.a1 * x + self.a3
            for y in ctx.elements():
                if y * y + lhs_lin * y == rhs:
                    total += 1
        return total


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

    @property
    def supersingular(self) -> bool:
        return self.short is not None


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


def is_supersingular(g: GeneralCurve) -> bool:
    """True iff completing the square kills the x^2 term (j = 0)."""
    return reduce_curve(g).supersingular


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
    for a4e in range(1, ctx.q):
        a4 = ctx.from_int(a4e)
        for a6e in range(ctx.q):
            yield ShortCurve(a4, ctx.from_int(a6e))


def _chi_sum_cubic(
    ctx: FieldContext,
    c2: FieldElement,
    c1: FieldElement,
    c0: FieldElement,
) -> int:
    """q + 1 + sum of chi(x^3 + c2 x^2 + c1 x + c0) over the field."""
    check_oracle_cap(ctx.q)
    if ctx.q <= CHI_TABLE_LIMIT:
        ctx.chi_table()  # _chi reads it once built
    mul, char = ctx._mul, ctx._chi
    c2, c1, c0 = c2.coeffs, c1.coeffs, c0.coeffs
    total = 0
    for x in ctx.elements():
        x = x.coeffs
        # Horner on packed ints; each sum stays unreduced (slots <= 4),
        # which _mul and _chi accept
        total += char(mul(mul(x + c2, x) + c1, x) + c0)
    return ctx.q + 1 + total


def naive_count(e: ShortCurve) -> int:
    """Exact order of E(GF(3^d)) by the quadratic-character sum.

    Returns q + 1 + sum over x of chi(x^3 + a4*x + a6), which counts the
    projective points directly. Partial sums over any partition of the
    x-range add up to the same integer, so this parallelizes trivially.
    """
    return _chi_sum_cubic(e.ctx, e.ctx.zero, e.a4, e.a6)


def count_points_by_enumeration(e: ShortCurve) -> int:
    """Cross-check: count solutions (x, y) of the curve equation directly."""
    ctx = e.ctx
    check_oracle_cap(ctx.q)
    squares = Counter(y * y for y in ctx.elements())
    return 1 + sum(squares[e.rhs(x)] for x in ctx.elements())  # 1 for infinity


def random_point(e: ShortCurve, rng) -> Point:
    """Uniformly-flavored affine point: random x until the rhs is a square.

    Over GF(3) a curve may have no affine points at all (the order-1
    twist); infinity is returned then. Fields with q >= 9 always have
    affine points by the Hasse bound.
    """
    ctx = e.ctx
    if ctx.d == 1 and all(chi(e.rhs(x)) == -1 for x in ctx.elements()):
        return e.infinity()
    while True:
        x = ctx.random_element(rng)
        f = e.rhs(x)
        c = chi(f)
        if c == -1:
            continue
        if c == 0:
            return Point(e, x, ctx.zero)
        y = sqrt(f)
        return Point(e, x, y if rng.randrange(2) == 0 else -y)


def random_supersingular_curve(ctx: FieldContext, rng) -> ShortCurve:
    """Random canonical-form curve: a4 uniform nonzero, a6 uniform."""
    return ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))


# ----------------------------------------------------------------------
# Text forms
# ----------------------------------------------------------------------


def parse_short_curve(ctx: FieldContext, text: str) -> ShortCurve:
    """Parse the "a4=<elem>;a6=<elem>" text form."""
    parts = text.strip().split(";")
    values = {}
    for part in parts:
        if "=" not in part:
            raise ParseError(f"bad curve component {part!r}")
        key, _, val = part.partition("=")
        values[key.strip()] = val.strip()
    if set(values) != {"a4", "a6"}:
        raise ParseError(f"curve text needs exactly a4 and a6, got {sorted(values)}")
    return ShortCurve(ctx.element(values["a4"]), ctx.element(values["a6"]))


def parse_general_curve(ctx: FieldContext, obj: dict) -> GeneralCurve:
    """Parse the JSON object form; absent coefficients default to 0."""
    known = {"a1", "a2", "a3", "a4", "a6"}
    extra = set(obj) - known
    if extra:
        raise ParseError(f"unknown curve coefficients {sorted(extra)}")
    coeffs = {k: ctx.element(obj.get(k, 0)) for k in known}
    return GeneralCurve(
        a1=coeffs["a1"], a2=coeffs["a2"], a3=coeffs["a3"],
        a4=coeffs["a4"], a6=coeffs["a6"],
    )
