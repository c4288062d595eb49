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

from .classify import CurveClass, CurveType, INV_NONZERO, INV_ZERO, _dispatch
from .curve import GeneralCurve, ReductionResult, ShortCurve, _chi_sum_cubic, reduce_curve
from .errors import DParityError, NotSupersingularError
from .field import (
    CHI_TABLE_LIMIT,
    FieldContext,
    FieldElement,
    check_oracle_cap,
    chi,
    trace,
)


@dataclass(frozen=True)
class CountResult:
    """Group order plus the trace of Frobenius t = q + 1 - order."""

    q: int
    order: int
    frobenius_trace: int
    class_used: Optional[CurveClass]

    def to_json(self, beta: Optional[FieldElement] = None) -> dict:
        cls = None
        if self.class_used is not None and beta is not None:
            cls = self.class_used.to_json(beta)
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
    """Literal sum of chi(x) over the fiber Tr(x) = a."""
    check_oracle_cap(ctx.q)
    if a not in (0, 1, -1):
        raise ValueError(f"a must be 0, 1 or -1, got {a}")
    if ctx.q <= CHI_TABLE_LIMIT:
        ctx.chi_table()  # chi reads it once built
    return sum(chi(x) for x in ctx.elements() if trace(x) == a)


@functools.lru_cache(maxsize=64)
def _class_orders(d: int) -> Mapping[CurveClass, int]:
    """Order of every isomorphism class over GF(3^d), in census order.

    Type I has order q + 1 + 3*S_d(t) for its trace invariant t, its
    quadratic twist type II has q + 1 - 3*S_d(t), and the bijective types
    have q + 1. Even d keys on t = 0 or not, as S_d(1) = S_d(-1) there.
    The mapping is read-only because every caller shares it.
    """
    q = 3**d
    orders = {}
    if d % 2 == 1:
        for t in (0, 1, -1):
            orders[CurveClass(CurveType.I, str(t))] = q + 1 + 3 * s_closed(d, t)
        orders[CurveClass(CurveType.I_PLUS, None)] = q + 1
    else:
        for ctype, sign in ((CurveType.I, 1), (CurveType.II, -1)):
            for invariant, t in ((INV_ZERO, 0), (INV_NONZERO, 1)):
                orders[CurveClass(ctype, invariant)] = q + 1 + sign * 3 * s_closed(d, t)
        orders[CurveClass(CurveType.IIIA, None)] = q + 1
        orders[CurveClass(CurveType.IIIB, None)] = q + 1
    return MappingProxyType(orders)


def count_class(d: int, cls: CurveClass) -> CountResult:
    """Order shared by every curve of the class cls over GF(3^d).

    Raises DParityError for a type that does not exist at d's parity, and
    ValueError for d < 1 or an invariant the type does not take.
    """
    orders = _class_orders(d)
    if cls not in orders:
        if cls.ctype != CurveType.I and (cls.ctype == CurveType.I_PLUS) != (d % 2 == 1):
            raise DParityError(f"type {cls.ctype.value} curves do not exist for d = {d}")
        raise ValueError(f"invariant {cls.invariant!r} is not valid for type {cls.ctype.value}")
    return _result(3**d, orders[cls], cls)


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
    order = _chi_sum_cubic(ctx, red.b2, -red.b4, red.b6)
    return _result(ctx.q, order, None)
