"""Closed-form character sums and point counts against the oracles."""

import random
import re

import pytest

from conftest import count_muls, literal_chi, literal_general_count, literal_trace, sample_curves
from ss3 import (
    CurveClass,
    CurveType,
    DParityError,
    GeneralCurve,
    NotSupersingularError,
    OracleTooLarge,
    ShortCurve,
    chi,
    count_class,
    count_general,
    count_supersingular,
    make_context,
    naive_count,
    random_point,
    reduce_curve,
    s_brute,
    s_closed,
    scalar_mul,
    sqrt,
    trace,
)
from ss3 import field
from ss3.count import char_sum_order
from ss3.curve import all_short_curves


# ----------------------------------------------------------------------
# Fiber character sums
# ----------------------------------------------------------------------


def test_s_closed_vectors():
    assert s_closed(1, 0) == 0
    assert s_closed(1, 1) == 1
    assert s_closed(1, -1) == -1
    assert s_closed(2, 0) == 2
    assert s_closed(2, 1) == -1 and s_closed(2, -1) == -1
    assert s_closed(3, 1) == -3  # (-1)^1 * 3^1


def test_s_closed_structural_identities():
    for d in range(1, 65):
        values = [s_closed(d, a) for a in (0, 1, -1)]
        assert sum(values) == 0
        if d % 2 == 1:
            assert values[0] == 0
            assert values[1] == -values[2]
            assert abs(values[1]) == 3 ** ((d - 1) // 2)
        else:
            assert abs(values[0]) == 2 * 3 ** ((d - 2) // 2)
            assert values[1] == values[2]


def test_s_closed_rejects_bad_arguments():
    with pytest.raises(ValueError):
        s_closed(0, 0)
    with pytest.raises(ValueError):
        s_closed(3, 2)


def test_s_brute_rejects_a_outside_f3():
    with pytest.raises(ValueError):
        s_brute(make_context(2), 2)


def test_s_brute_small_fibers():
    c1 = make_context(1)
    assert s_brute(c1, 0) == 0  # fiber {0}
    assert s_brute(c1, 1) == 1  # fiber {1}
    assert s_brute(c1, -1) == -1  # fiber {2}
    c2 = make_context(2)
    # fiber of trace 0 in GF(9) is {0, t, 2t}; chi(t) = chi(2t) = 1
    fiber = [x for x in c2.elements() if trace(x) == 0]
    assert sorted(x.encoding() for x in fiber) == [0, 3, 6]
    assert s_brute(c2, 0) == sum(chi(x) for x in fiber) == 2


@pytest.mark.parametrize("d", range(1, 7))
def test_s_closed_matches_s_brute(d):
    ctx = make_context(d)
    for a in (0, 1, -1):
        assert s_closed(d, a) == s_brute(ctx, a)


@pytest.mark.parametrize("d", range(1, 7))
def test_s_brute_matches_literal_reference(d):
    # both parities of the digit split; the reference visits every element,
    # takes its trace as a sum of Frobenius powers and chi from the squares
    ctx = make_context(d)
    chi_ref = literal_chi(ctx)
    traced = [(x, literal_trace(x)) for x in ctx.elements()]
    for a, t in ((0, ctx.zero), (1, ctx.one), (-1, ctx.minus_one)):
        assert s_brute(ctx, a) == sum(chi_ref(x) for x, tx in traced if tx == t)


def test_s_brute_makes_no_products_on_a_built_table():
    ctx = make_context(8)
    ctx.chi_table()
    with count_muls(ctx) as calls:
        for a in (0, 1, -1):
            s_brute(ctx, a)
    assert calls[0] == 0


def test_s_brute_cap(monkeypatch):
    monkeypatch.setattr(field, "ORACLE_CAP", 100)
    with pytest.raises(OracleTooLarge):
        s_brute(make_context(5), 0)


# ----------------------------------------------------------------------
# Per-class closed forms
# ----------------------------------------------------------------------


def _count(d, ctype, t=None):
    """count_class for the class of type ctype whose trace value is t.

    The invariant is t itself for odd d and only "zero or not" for even d.
    """
    if t is None:
        return count_class(d, CurveClass(ctype, None))
    invariant = str(t) if d % 2 else ("0" if t == 0 else "nonzero")
    return count_class(d, CurveClass(ctype, invariant))


def test_count_type_I_vectors():
    assert _count(1, CurveType.I, 1).order == 7
    assert _count(1, CurveType.I, -1).order == 1
    assert _count(1, CurveType.I, 0).order == 4
    assert _count(2, CurveType.I, 0).order == 16
    assert _count(2, CurveType.I, 1).order == 7


@pytest.mark.parametrize("d", range(1, 11))
def test_count_type_I_equals_char_sum_formula(d):
    q = 3**d
    for t in (0, 1, -1):
        assert _count(d, CurveType.I, t).order == q + 1 + 3 * s_closed(d, t)


def test_count_type_II_vectors_and_twist_pairing():
    assert _count(2, CurveType.II, 0).order == 4
    assert _count(2, CurveType.II, 1).order == 13
    for d in (2, 4, 6, 8, 10, 12):
        q = 3**d
        for t in (0, 1, -1):
            pair = _count(d, CurveType.I, t).order + _count(d, CurveType.II, t).order
            assert pair == 2 * q + 2
    with pytest.raises(DParityError):
        _count(3, CurveType.II, 0)


# the classes that exist at each parity of d, as (type, invariant) pairs
_CLASSES_BY_PARITY = {
    1: {(CurveType.I, "0"), (CurveType.I, "1"), (CurveType.I, "-1"), (CurveType.I_PLUS, None)},
    0: {
        (CurveType.I, "0"),
        (CurveType.I, "nonzero"),
        (CurveType.II, "0"),
        (CurveType.II, "nonzero"),
        (CurveType.IIIA, None),
        (CurveType.IIIB, None),
    },
}


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_count_class_error_split(d):
    # every (type, invariant) pair gives an order, a DParityError when the
    # type has no class at d's parity, or a ValueError for a foreign invariant
    classes = _CLASSES_BY_PARITY[d % 2]
    for ctype in CurveType:
        for invariant in (None, "0", "1", "-1", "nonzero"):
            cls = CurveClass(ctype, invariant)
            if (ctype, invariant) in classes:
                result = count_class(d, cls)
                assert (result.q, result.class_used) == (3**d, cls)
            elif all(ctype != c for c, _ in classes):
                message = f"type {ctype.value} curves do not exist for d = {d}"
                with pytest.raises(DParityError, match=f"^{re.escape(message)}$"):
                    count_class(d, cls)
            else:
                message = f"invariant {invariant!r} is not valid for type {ctype.value}"
                with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
                    count_class(d, cls)


def test_count_trivial():
    assert _count(1, CurveType.I_PLUS).order == 4
    assert _count(2, CurveType.IIIA).order == 10
    assert _count(2, CurveType.IIIB).order == 10
    assert _count(2, CurveType.IIIA).frobenius_trace == 0
    with pytest.raises(ValueError):
        _count(2, CurveType.I)


def test_trivial_type_orders_match_oracle():
    ctx = make_context(2)
    assert naive_count(ShortCurve(-ctx.beta, ctx.zero)) == 10
    assert naive_count(ShortCurve(-ctx.beta**3, ctx.zero)) == 10
    c1 = make_context(1)
    assert naive_count(ShortCurve(c1.one, c1.zero)) == 4


# ----------------------------------------------------------------------
# Dispatch
# ----------------------------------------------------------------------


def test_count_supersingular_vectors():
    c1 = make_context(1)
    assert count_supersingular(ShortCurve(c1.element(2), c1.element(1))).order == 7
    assert count_supersingular(ShortCurve(c1.element(1), c1.element(0))).order == 4
    assert count_supersingular(ShortCurve(c1.element(1), c1.element(2))).order == 4
    c2 = make_context(2)
    assert count_supersingular(ShortCurve(c2.element(2), c2.zero)).order == 16


@pytest.mark.parametrize("d", [1, 2, 3])
def test_dispatch_matches_oracle_exhaustive(d):
    ctx = make_context(d)
    for e in all_short_curves(ctx):
        assert count_supersingular(e).order == naive_count(e)


@pytest.mark.parametrize("d", [4, 5])
def test_dispatch_matches_oracle_sampled(d):
    for e in sample_curves(d, 60, seed=d):
        assert count_supersingular(e).order == naive_count(e)


@pytest.mark.parametrize("d", [2, 4])
def test_gamma_sign_independence(d):
    ctx = make_context(d)
    rng = random.Random(d)
    checked = 0
    while checked < 40:
        e = ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))
        gamma = sqrt(-e.a4)
        if gamma is None:
            continue
        t_pos = trace(e.a6 * gamma**-3)
        t_neg = trace(e.a6 * (-gamma) ** -3)
        assert t_pos == -t_neg  # trace is odd under negation
        ctype = CurveType.I if chi(gamma) == 1 else CurveType.II
        assert _count(d, ctype, t_pos).order == _count(d, ctype, t_neg).order
        checked += 1


@pytest.mark.parametrize("d", [1, 2, 3])
def test_count_invariant_under_isomorphism_exhaustive(d):
    ctx = make_context(d)
    orders = {}
    from ss3 import canonicalize

    for e in all_short_curves(ctx):
        _, cls, _ = canonicalize(e)
        r = count_supersingular(e)
        orders.setdefault(cls, set()).add(r.order)
        assert r.class_used == cls
    assert all(len(v) == 1 for v in orders.values())


def test_trace_spectrum_exhaustive_small():
    for d in (1, 2, 3, 4):
        ctx = make_context(d)
        odd_vals = {0, 3 ** ((d + 1) // 2), -(3 ** ((d + 1) // 2))}
        even_root = 3 ** (d // 2)
        even_vals = {0, even_root, -even_root, 2 * even_root, -2 * even_root}
        allowed = odd_vals if d % 2 else even_vals
        for e in all_short_curves(ctx):
            t = count_supersingular(e).frobenius_trace
            assert t in allowed
            assert t % 3 == 0


def test_annihilation_beyond_oracle_range():
    for d in (6, 9, 12):
        ctx = make_context(d)
        rng = random.Random(d)
        for _ in range(5):
            e = ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))
            order = count_supersingular(e).order
            for _ in range(5):
                assert scalar_mul(order, random_point(e, rng)).is_infinity


# ----------------------------------------------------------------------
# General-curve surface
# ----------------------------------------------------------------------


def test_count_general_composes_with_reduction():
    ctx = make_context(1)
    g = GeneralCurve(
        a1=ctx.zero, a2=ctx.zero, a3=ctx.one, a4=ctx.one, a6=ctx.zero
    )
    r = count_general(g)
    assert r.order == 4  # reduces to y^2 = x^3 + x + 1, -a4 non-square
    assert r.frobenius_trace == 0
    assert literal_general_count(g) == 4


def test_count_general_identity_reduction():
    ctx = make_context(2)
    e = ShortCurve(ctx.element("1,1"), ctx.element("0,2"))
    g = GeneralCurve(a1=ctx.zero, a2=ctx.zero, a3=ctx.zero, a4=e.a4, a6=e.a6)
    assert count_general(g).order == count_supersingular(e).order


def test_count_general_rejects_ordinary_with_j():
    ctx = make_context(1)
    g = GeneralCurve(a1=ctx.zero, a2=ctx.one, a3=ctx.zero, a4=ctx.zero, a6=ctx.one)
    with pytest.raises(NotSupersingularError) as err:
        count_general(g)
    assert not err.value.j.is_zero()


def test_char_sum_order_matches_enumeration():
    # from d = 2 on, the oracle splits each x into digit halves h + l, and a
    # model with b2 != 0 exercises its cross term 2*b2*h*l
    rng = random.Random(3)
    from ss3 import SingularCurve

    for d, n in ((1, 30), (2, 25), (3, 25), (4, 25)):
        ctx = make_context(d)
        done = cross = 0
        while done < n:
            try:
                g = GeneralCurve(*[ctx.random_element(rng) for _ in range(5)])
            except SingularCurve:
                continue
            red = reduce_curve(g)
            direct = literal_general_count(g)
            assert char_sum_order(red).order == direct
            if red.short is not None:
                assert count_general(g).order == direct
            done += 1
            cross += not red.b2.is_zero()
        assert cross >= n // 2


def test_char_sum_order_multiplication_count_pinned():
    # the split sweep at d = 8, k = 4 with b2 != 0: 2 products per low half
    # (2 * 3^4), k products 2*b2*t^j once, and per high half 2 for f(h) plus
    # k for 2*b2*h*t^j (6 * 3^4)
    ctx = make_context(8)
    ctx.chi_table()
    a = [ctx.zero, ctx.one, ctx.zero, ctx.zero, ctx.one]  # y^2 = x^3 + x^2 + 1
    red = reduce_curve(GeneralCurve(*a))
    assert red.b2 == ctx.one
    with count_muls(ctx) as calls:
        char_sum_order(red)
    assert calls[0] == 652


def test_count_result_json():
    ctx = make_context(2)
    r = count_supersingular(ShortCurve(ctx.element(2), ctx.zero))
    obj = r.to_json(ctx.beta)
    assert obj == {
        "q": "9",
        "order": "16",
        "trace": "-6",
        "class": {"type": "I", "invariant": "0", "beta": "1,1"},
    }
