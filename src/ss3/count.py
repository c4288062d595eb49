"""Closed-form point counts for canonical supersingular curves.

The engine is the character sum over a trace fiber,

    S_d(a) = sum of chi(x) over x with Tr(x) = a,

whose value is an explicit signed power of 3 depending only on d mod 4
and a. Orders follow as q + 1 + 3*S_d(t) for type I, q + 1 - 3*S_d(t) for
its twist type II, and q + 1 for the bijective-map types, with t the
class's trace invariant; everything is exact integer arithmetic.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from types import MappingProxyType
from typing import Mapping, Optional

from .classify import (
    CurveClass, CurveType, INV_ZERO, _census, _check_class, _dispatch, class_representative
)
from .curve import GeneralCurve, ReductionResult, ShortCurve, reduce_curve
from .errors import NotSupersingularError
from .field import FieldContext, FieldElement, chi_sum_cubic, chi_sum_fiber


@dataclass(frozen=True)
class CountResult:
    """Group order plus the trace of Frobenius t = q + 1 - order."""

    q: int
    order: int
    frobenius_trace: int
    class_used: Optional[CurveClass]

    def to_json(self, beta: FieldElement) -> dict:
        cls = None if self.class_used is None else self.class_used.to_json(beta)
        return {
            "q": str(self.q),
            "order": str(self.order),
            "trace": str(self.frobenius_trace),
            "class": cls,
        }


def _result(q: int, order: int, cls: Optional[CurveClass]) -> CountResult:
    return CountResult(q=q, order=order, frobenius_trace=q + 1 - order, class_used=cls)


def s_closed(d: int, a: int) -> int:
    """Closed form of the fiber character sum S_d(a), a in {0, 1, -1}."""
    if d < 1:
        raise ValueError("d must be at least 1")
    if a not in (0, 1, -1):
        raise ValueError(f"a must be 0, 1 or -1, got {a}")
    if d % 2 == 1:
        if a == 0:
            return 0
        half = 3 ** ((d - 1) // 2)
        sign = -1 if ((d - 1) // 2) % 2 else 1  # (-1)^((d-1)/2)
        return sign * half if a == 1 else -sign * half
    half = 3 ** ((d - 2) // 2)
    sign = -1 if (d // 2) % 2 else 1  # (-1)^(d/2)
    if a == 0:
        return -2 * sign * half
    return sign * half


def s_brute(ctx: FieldContext, a: int) -> int:
    """Literal sum of chi(x) over the fiber Tr(x) = a (field.chi_sum_fiber).

    Raises:
        ValueError: for a outside {0, 1, -1}, checked before the oracle cap.
        OracleTooLarge: for q above the oracle cap.
    """
    if a not in (0, 1, -1):
        raise ValueError(f"a must be 0, 1 or -1, got {a}")
    return chi_sum_fiber(ctx, a)


@functools.lru_cache(maxsize=64)
def _class_orders(d: int) -> Mapping[CurveClass, CountResult]:
    """The CountResult of every isomorphism class over GF(3^d), in census order.

    Type I has order q + 1 + 3*S_d(t) for its trace invariant t, its
    quadratic twist type II has q + 1 - 3*S_d(t), and the bijective types
    have q + 1. Even d keys on t = 0 or not, as S_d(1) = S_d(-1) there.
    The mapping is read-only and its results frozen because every caller
    shares them.
    """
    q = 3**d
    results = {}
    for cls in _census(d):
        if cls.invariant is None:  # I+, IIIa, IIIb
            order = q + 1
        else:
            t = int(cls.invariant) if d % 2 else int(cls.invariant != INV_ZERO)
            sign = -1 if cls.ctype == CurveType.II else 1
            order = q + 1 + sign * 3 * s_closed(d, t)
        results[cls] = _result(q, order, cls)
    return MappingProxyType(results)


def count_class(d: int, cls: CurveClass) -> CountResult:
    """Order shared by every curve of the class cls over GF(3^d).

    Every call for one (d, class) returns the one shared result.

    Raises DParityError for a type that does not exist at d's parity, and
    ValueError for d < 1 or an invariant the type does not take.
    """
    result = _class_orders(d).get(cls)
    if result is None:
        _check_class(d, cls)  # raises: the table holds every class of the census
    return result


@dataclass(frozen=True)
class ClassEntry:
    """One isomorphism class: representative, label, closed-form count."""

    rep: ShortCurve
    cls: CurveClass
    result: CountResult


def list_classes(ctx: FieldContext) -> list[ClassEntry]:
    """Complete census: 4 classes for odd d, 6 for even d.

    Order is fixed: type I (invariant 0, then 1/nonzero, then -1), I+,
    II (0 then nonzero), IIIa, IIIb.
    """
    return [
        ClassEntry(rep=class_representative(ctx, cls), cls=cls, result=count_class(ctx.d, cls))
        for cls in _class_orders(ctx.d)
    ]


def count_supersingular(e: ShortCurve) -> CountResult:
    """Closed-form order of a canonical supersingular curve.

    The classification dispatch names the class, and the class names the
    order; no witness is computed.
    """
    return count_class(e.ctx.d, _dispatch(e)[0])


def count_general(g: GeneralCurve) -> CountResult:
    """Reduce to canonical form and count in closed form.

    Ordinary inputs raise NotSupersingularError carrying the j-invariant;
    char_sum_order is the oracle order of any reduced model.
    """
    red = reduce_curve(g)
    if red.short is not None:
        return count_supersingular(red.short)
    raise NotSupersingularError(j=red.j)


def char_sum_order(red: ReductionResult) -> CountResult:
    """Oracle order of a reduced model y^2 = x^3 + b2*x^2 - b4*x + b6.

    Supersingular or ordinary alike; with b2 = 0 this is naive_count of
    red.short. No class is attached.
    """
    ctx = red.b2.ctx
    order = chi_sum_cubic(ctx, red.b2, -red.b4, red.b6)
    return _result(ctx.q, order, None)
