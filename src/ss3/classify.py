"""Isomorphism classification of canonical-form curves over GF(3^d).

Curves y^2 = x^3 + a4*x + a6 (a4 != 0) are split by the fourth-power coset
of -a4 in the unit group, then within each type by a trace invariant. The
admissible change of variables between two such curves is
(x, y) = (u^2*x' + r, u^3*y') subject to

    u^4 * a4' = a4
    u^6 * a6' = a6 + r*a4 + r^3

and a witness is that pair (u, r). Types II, IIIa, IIIb only exist for
even d and their labels depend on the context's fixed primitive root.

The census is two constant tuples of CurveClass, one per parity of d
(_census), and every class this module or count returns is one of their
members. The dispatch that names a curve's class runs on packed ints
(PowerChain.trace_invariant) and picks the member by index, so it builds
no class and no element; curves and witnesses are slotted immutable
values.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from operator import attrgetter
from typing import Callable, Optional

from .curve import Point, ShortCurve
from .errors import DParityError, NotANonSquare
from .field import (
    FieldContext,
    FieldElement,
    LinearizedMap,
    PowerChain,
    chi,
    from_packed,
)


class CurveType(str, enum.Enum):
    I = "I"
    I_PLUS = "I+"
    II = "II"
    IIIA = "IIIa"
    IIIB = "IIIb"

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.value


INV_ZERO = "0"
INV_NONZERO = "nonzero"


@dataclass(frozen=True)
class CurveClass:
    """Type tag plus the trace invariant pinning the isomorphism class.

    invariant is "0", "1" or "-1" for odd-d type I, "0" or "nonzero" for
    even-d types I and II, and None for the single-class types.
    """

    ctype: CurveType
    invariant: Optional[str]

    def to_json(self, beta: FieldElement) -> dict:
        return {
            "type": self.ctype.value,
            "invariant": self.invariant,
            "beta": str(beta),
        }


@dataclass(frozen=True, slots=True)
class IsomorphismWitness:
    """Parameters (u, r) of the change of variables between two curves.

    The induced point map sends target-model points to source-model
    points: (x', y') -> (u^2*x' + r, u^3*y'). An immutable value, compared
    and hashed by (u, r).
    """

    u: FieldElement
    r: FieldElement

    def __reduce__(self):
        # pickled through the constructor, on every supported Python
        return IsomorphismWitness, (self.u, self.r)

    def holds_between(self, source: ShortCurve, target: ShortCurve) -> bool:
        """Check both coefficient relations exactly."""
        u4 = self.u ** 4
        u6 = u4 * self.u * self.u
        lhs4 = u4 * target.a4 == source.a4
        lhs6 = u6 * target.a6 == source.a6 + self.r * source.a4 + self.r ** 3
        return lhs4 and lhs6

    def map_point(self, p: Point, source: ShortCurve) -> Point:
        """Carry a point of the target model onto the source model."""
        if p.is_infinity:
            return source.infinity()
        u2 = self.u * self.u
        x = u2 * p.x + self.r
        y = u2 * self.u * p.y
        return source.point(x, y)

    def to_json(self) -> dict:
        return {"u": str(self.u), "r": str(self.r)}


# The even-d type of each fourth-power coset k of x = -a4 relative to beta
_COSET_TYPES = (CurveType.I, CurveType.IIIA, CurveType.II, CurveType.IIIB)


# The census of each parity, in census order: type I by invariant, then
# I+ at odd d; I then II by invariant, IIIa and IIIb at even d. These
# objects are the only census classes: _dispatch returns them and
# count._class_orders keys on them.
_ODD_CENSUS = (
    CurveClass(CurveType.I, "0"),
    CurveClass(CurveType.I, "1"),
    CurveClass(CurveType.I, "-1"),
    CurveClass(CurveType.I_PLUS, None),
)
_EVEN_CENSUS = (
    CurveClass(CurveType.I, INV_ZERO),
    CurveClass(CurveType.I, INV_NONZERO),
    CurveClass(CurveType.II, INV_ZERO),
    CurveClass(CurveType.II, INV_NONZERO),
    CurveClass(CurveType.IIIA, None),
    CurveClass(CurveType.IIIB, None),
)


def _census(d: int) -> tuple[CurveClass, ...]:
    """Every class over GF(3^d), in census order: 4 at odd d, 6 at even d."""
    return _ODD_CENSUS if d % 2 else _EVEN_CENSUS


def _check_class(d: int, cls: CurveClass) -> None:
    """DParityError when cls's type has no class at d's parity, ValueError for its invariant."""
    classes = _census(d)
    if cls not in classes:
        if all(key.ctype != cls.ctype for key in classes):
            raise DParityError(f"type {cls.ctype.value} curves do not exist for d = {d}")
        raise ValueError(f"invariant {cls.invariant!r} is not valid for type {cls.ctype.value}")


def _dispatch(
    e: ShortCurve,
) -> tuple[CurveClass, Callable[[], tuple[list[FieldElement], FieldElement]]]:
    """Class of e, plus the deferred data of the witness to its representative.

    One PowerChain on x = -a4 and one trace decide the class: with x =
    beta^k, the chain's j has j mod 4 = k mod 4, the coset of x modulo the
    fourth powers (j is chi at odd d), and at even j the trace t =
    Tr(a6 * gamma * x^-2), gamma = coset_root(0), is the invariant, the
    chain's inverse giving x^-2. The chain's trace_invariant gives gamma,
    x^-1 and t on packed ints, and the class is a member of _census(d) by
    index, from k and t: no class and no element is built. The second
    result gives the u with u^4 = a4/a4' that admit an r, in encoding
    order, and x^-1 from the same chain; only canonicalize calls it, and
    only it makes elements of gamma and x^-1. At odd d the u are the
    chain's quartic_roots, one product. At even d, u^4 = x * beta^-k for
    the representative's a4' = -beta^k, so u^2 = +-coset_root(k): one
    more chain, on it, for every type.
    """
    ctx = e.ctx
    chain = PowerChain(ctx, (-e.a4).coeffs)
    k = chain.j % 4
    odd_d = ctx.d % 2
    if k % 2:  # I+, IIIa and IIIb: one class each
        t, gamma, inv = 0, None, None
        cls = _ODD_CENSUS[3] if odd_d else _EVEN_CENSUS[4 + k // 2]
    else:
        # u^2 = +-coset_root(k), and coset_root(2) = gamma * beta^-1, so
        # Tr(a6*u^-6), the trace the representative must match, is +-t, and
        # a nonzero t fixes the sign of u^2
        gamma, inv, t = chain.trace_invariant(e.a6.coeffs)
        # the odd-d invariant is t itself (index t mod 3), the even-d one
        # whether t is 0
        cls = _ODD_CENSUS[t % 3] if odd_d else _EVEN_CENSUS[k + (t != 0)]

    def witness_data() -> tuple[list[FieldElement], FieldElement]:
        if odd_d:  # u^4 = a4/a4' = chi(x) * x for a4' = -chi(x)
            roots = chain.quartic_roots()
        else:
            square = gamma if k == 0 else chain.coset_root(k).coeffs
            roots = PowerChain(ctx, square).roots(t)
        return roots, chain.inverse() if inv is None else from_packed(ctx, inv)

    return cls, witness_data


def class_representative(ctx: FieldContext, cls: CurveClass) -> ShortCurve:
    """The canonical curve for a class, exactly as the census lists them.

    I+ is y^2 = x^3 + x. The type of coset k in _COSET_TYPES has a4' =
    -beta^k and a6' = t*alpha*beta^(3k/2), t = 0 for the invariant "0" or
    None, -1 for "-1" and 1 otherwise. Each is built once per context
    (_representative).

    Raises DParityError for a type that does not exist at d's parity, and
    ValueError for an invariant the type does not take, as count_class does.
    """
    return _representative(ctx, cls)[0]


def _representative(ctx: FieldContext, cls: CurveClass) -> tuple[ShortCurve, LinearizedMap]:
    """The representative of cls and the LinearizedMap of its a4, built once per context.

    The context's slot keeps both by class, and only the classes of the
    census (_check_class), 4 at odd d and 6 at even d; classes whose
    representatives share an a4 (2 values at odd d, 4 at even d) share its
    map.
    """
    slot = ctx._representatives
    entry = slot.get(cls)
    if entry is None:
        _check_class(ctx.d, cls)
        if cls.ctype == CurveType.I_PLUS:
            rep = ShortCurve(ctx.one, ctx.zero)
        else:
            k = _COSET_TYPES.index(cls.ctype)
            beta_k, a6 = ctx.beta ** k, ctx.zero
            if cls.invariant not in (None, INV_ZERO):  # so k is 0 or 2
                a6 = ctx.alpha * beta_k * ctx.beta if k else ctx.alpha
            rep = ShortCurve(-beta_k, -a6 if cls.invariant == "-1" else a6)
        lmap = _kept_map(ctx, rep.a4) or LinearizedMap(rep.a4)
        entry = slot[cls] = (rep, lmap)
    return entry


def _kept_map(ctx: FieldContext, a4: FieldElement) -> Optional[LinearizedMap]:
    """The map ctx keeps for a4 when a4 is a kept representative's, else None."""
    kept = ctx._representatives.values()
    return next((lmap for rep, lmap in kept if rep.a4.coeffs == a4.coeffs), None)


def _first_witness(
    e1: ShortCurve,
    e2: ShortCurve,
    roots: list[FieldElement],
    inv4: FieldElement,
    lmap: LinearizedMap,
) -> Optional[IsomorphismWitness]:
    """The first u in roots that admits an r, with the smallest-encoding r.

    Every u in roots has u^4 * a4' = a4, inv4 is a4'/a4 = u^-4, and lmap
    is the LinearizedMap of a4'. With r = u^2*x the witness equation
    u^6*a6' = a6 + r*a4 + r^3 becomes x^3 + a4'*x = a6' - a6*u^-6, where
    u^-6 = u^2 * inv4^2: each u tried costs one back-substitution, and r
    is the smallest by encoding of u^2*x over every preimage x. With a
    kernel {0, k, 2k} the preimages are x0 + {0, k, 2k}, so the r are
    u^2*x0 + {0, u^2*k, -u^2*k}: two products for all three.
    """
    ctx, inv8 = e1.ctx, inv4 * inv4
    for u in roots:
        u2 = u * u
        xs = lmap.preimages((e2.a6 - e1.a6 * (u2 * inv8)).coeffs)
        if xs:
            rs = [u2 * from_packed(ctx, xs[0])]
            for k in lmap.kernel:
                uk = u2 * from_packed(ctx, k)
                rs += [rs[0] + uk, rs[0] - uk]
            # reduced elements: packed order is encoding order
            return IsomorphismWitness(u, min(rs, key=attrgetter("coeffs")))
    return None


def isomorphic(e1: ShortCurve, e2: ShortCurve) -> Optional[IsomorphismWitness]:
    """Explicit witness e1 -> e2, or None when no isomorphism exists.

    Scans the at most four fourth roots u of a4/a4' in encoding order; the
    first solvable u wins, so results are deterministic. The chain that
    finds the roots gives u^-4. The map of a4' is the one the context keeps
    when a4' is a representative's (read, never stored), else built here.
    """
    if e1.ctx.key != e2.ctx.key:
        return None
    chain = PowerChain(e1.ctx, (e1.a4 / e2.a4).coeffs)
    roots = chain.fourth_roots()
    if not roots:
        return None
    lmap = _kept_map(e2.ctx, e2.a4) or LinearizedMap(e2.a4)
    return _first_witness(e1, e2, roots, chain.inverse(), lmap)


def canonicalize(e: ShortCurve) -> tuple[ShortCurve, CurveClass, IsomorphismWitness]:
    """Class representative, class label, and a witness from e to it.

    The witness is the one isomorphic(e, rep) returns: the smallest-encoding
    u that admits some r, and the smallest-encoding r for that u. With
    r = u^2*x the witness equation becomes x^3 + a4'*x = a6' - a6*u^-6, so
    whether u admits an r depends only on u^2, which _dispatch fixes; for
    I+, IIIa and IIIb the map x -> x^3 + a4'*x is a bijection, so every u
    with u^4 = a4/a4' admits one. Every u _dispatch lists admits an r, so
    the scan back-substitutes once, through the representative's map,
    which the context keeps. u^-4 = a4'/a4 = -a4' * x^-1 comes from the
    dispatch chain on x = -a4, so no inversion is added.
    """
    cls, witness_data = _dispatch(e)
    rep, lmap = _representative(e.ctx, cls)
    roots, x_inv = witness_data()
    return rep, cls, _first_witness(e, rep, roots, -(rep.a4 * x_inv), lmap)


def quadratic_twist(e: ShortCurve, g: FieldElement) -> ShortCurve:
    """Twist by a non-square g: (a4, a6) -> (a4*g^2, a6*g^3).

    chi(g) is Euler's criterion, one repunit power and no PowerChain.
    """
    if chi(g) != -1:
        raise NotANonSquare(f"{g} is a square (or zero); twists need chi(g) = -1")
    g2 = g * g
    return ShortCurve(e.a4 * g2, e.a6 * g2 * g)

