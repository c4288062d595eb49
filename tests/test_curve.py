"""Reduction to canonical form, the group law, and the counting oracle."""

import contextlib
import io
import random

import pytest

from ss3 import (
    GeneralCurve,
    InvalidCurve,
    OracleTooLarge,
    ParseError,
    PointNotOnCurve,
    ShortCurve,
    SingularCurve,
    add,
    count_points_by_enumeration,
    double,
    is_supersingular,
    make_context,
    naive_count,
    negate,
    parse_general_curve,
    parse_short_curve,
    random_point,
    reduce_curve,
    scalar_mul,
)
from ss3.cli import main
from ss3.count import char_sum_order, s_brute
from ss3.curve import all_short_curves
from ss3.verify import run_verification


def _general(ctx, a1=0, a2=0, a3=0, a4=0, a6=0):
    return GeneralCurve(
        a1=ctx.element(a1),
        a2=ctx.element(a2),
        a3=ctx.element(a3),
        a4=ctx.element(a4),
        a6=ctx.element(a6),
    )


# ----------------------------------------------------------------------
# Reduction
# ----------------------------------------------------------------------


def test_reduce_identity_on_canonical_input():
    ctx = make_context(2)
    g = _general(ctx, a4="1,1", a6="0,2")
    red = reduce_curve(g)
    assert red.short == ShortCurve(ctx.element("1,1"), ctx.element("0,2"))
    assert red.b2.is_zero() and red.j.is_zero()


def test_reduce_detects_ordinary_curve():
    ctx = make_context(1)
    g = _general(ctx, a1=1, a3=1)  # b2 = a1^2 + a2 = 1
    red = reduce_curve(g)
    assert red.b2 == ctx.one
    assert red.short is None
    assert not red.j.is_zero()
    assert not is_supersingular(g)


def test_reduce_b_values_vector():
    ctx = make_context(1)
    g = _general(ctx, a3=1, a4=1)
    red = reduce_curve(g)
    assert red.b4 == ctx.element(2)  # 2 * a4
    assert red.b6 == ctx.one  # a3^2
    assert red.short == ShortCurve(ctx.one, ctx.one)  # y^2 = x^3 + x + 1
    # the substitution is invertible: point counts agree
    assert g.count_points_directly() == naive_count(red.short) == 4


def test_reduce_preserves_counts_exhaustive_d1():
    ctx = make_context(1)
    checked = 0
    for enc in range(3**5):
        vals = []
        e = enc
        for _ in range(5):
            vals.append(e % 3)
            e //= 3
        try:
            g = _general(ctx, *vals)
        except SingularCurve:
            continue
        red = reduce_curve(g)
        direct = g.count_points_directly()
        if red.short is not None:
            assert naive_count(red.short) == direct
        checked += 1
    assert checked > 150  # most models over F3 are nonsingular


@pytest.mark.parametrize("d", [2, 3])
def test_reduce_preserves_counts_sampled(d):
    ctx = make_context(d)
    rng = random.Random(d)
    done = 0
    while done < 40:
        try:
            g = _general(ctx, *[ctx.random_element(rng) for _ in range(5)])
        except SingularCurve:
            continue
        red = reduce_curve(g)
        if red.short is not None:
            assert naive_count(red.short) == g.count_points_directly()
        done += 1


def test_supersingularity_examples():
    ctx = make_context(1)
    assert is_supersingular(_general(ctx, a4=2))  # y^2 = x^3 - x
    assert not is_supersingular(_general(ctx, a2=1, a6=1))  # y^2 = x^3 + x^2 + 1
    with pytest.raises(SingularCurve):
        _general(ctx, a6=1)  # y^2 = x^3 + 1 has a4 = 0, delta = 0


def test_short_curve_requires_nonzero_a4():
    ctx = make_context(1)
    with pytest.raises(InvalidCurve):
        ShortCurve(ctx.zero, ctx.one)


# ----------------------------------------------------------------------
# Group law
# ----------------------------------------------------------------------


def _seven_point_group_table(e):
    """Brute-force oracle: all points of y^2 = x^3 - x + 1 over F3."""
    ctx = e.ctx
    pts = [e.infinity()]
    for x in ctx.elements():
        for y in ctx.elements():
            if y * y == e.rhs(x):
                pts.append(e.point(x, y))
    return pts


def test_double_vector_on_seven_point_curve():
    ctx = make_context(1)
    e = ShortCurve(ctx.element(2), ctx.element(1))
    pts = _seven_point_group_table(e)
    assert len(pts) == 7
    p = e.point(ctx.element(0), ctx.element(1))
    d = double(p)
    assert (d.x, d.y) == (ctx.element(1), ctx.element(1))
    # the whole table is closed and abelian
    for a in pts:
        for b in pts:
            s = add(a, b)
            assert s in pts
            assert s == add(b, a)
    # Lagrange: 7 * P = infinity for every point
    for a in pts:
        assert scalar_mul(7, a).is_infinity
        assert scalar_mul(naive_count(e), a).is_infinity


def test_identity_and_inverse_laws():
    ctx = make_context(2)
    e = ShortCurve(ctx.element(2), ctx.element("0,1"))
    rng = random.Random(1)
    inf = e.infinity()
    for _ in range(20):
        p = random_point(e, rng)
        assert add(p, inf) == p
        assert add(inf, p) == p
        assert add(p, negate(p)).is_infinity
        assert scalar_mul(-1, p) == negate(p)


@pytest.mark.parametrize("d", range(1, 7))
def test_addition_closure_fuzz(d):
    ctx = make_context(d)
    rng = random.Random(d)
    for _ in range(30):
        e = ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))
        p, q = random_point(e, rng), random_point(e, rng)
        for pt in (add(p, q), double(p)):
            if not pt.is_infinity:
                assert pt.y * pt.y == e.rhs(pt.x)


def test_associativity_spot_check():
    total = 0
    for d in range(1, 7):
        ctx = make_context(d)
        rng = random.Random(100 + d)
        for _ in range(200):
            e = ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))
            p, q, r = (random_point(e, rng) for _ in range(3))
            assert add(add(p, q), r) == add(p, add(q, r))
            total += 1
    assert total >= 1000


def test_point_validation():
    ctx = make_context(1)
    e = ShortCurve(ctx.element(2), ctx.element(1))
    with pytest.raises(PointNotOnCurve):
        e.point(ctx.element(0), ctx.element(0))


def test_random_point_on_empty_curve_returns_infinity():
    ctx = make_context(1)
    e = ShortCurve(ctx.element(2), ctx.element(2))  # order 1, no affine points
    assert naive_count(e) == 1
    assert random_point(e, random.Random(0)).is_infinity


# ----------------------------------------------------------------------
# Counting oracle
# ----------------------------------------------------------------------


def test_naive_count_f3_vectors():
    ctx = make_context(1)
    assert naive_count(ShortCurve(ctx.element(2), ctx.element(1))) == 7
    assert naive_count(ShortCurve(ctx.element(2), ctx.element(2))) == 1
    assert naive_count(ShortCurve(ctx.element(1), ctx.element(0))) == 4


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_charsum_equals_xy_enumeration(d):
    ctx = make_context(d)
    for e in all_short_curves(ctx):
        assert naive_count(e) == count_points_by_enumeration(e)


@pytest.mark.parametrize("d", [1, 2, 3, 4, 5])
def test_hasse_bound(d):
    ctx = make_context(d)
    rng = random.Random(d)
    curves = all_short_curves(ctx) if d <= 3 else (
        ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))
        for _ in range(100)
    )
    for e in curves:
        t = ctx.q + 1 - naive_count(e)
        assert t * t <= 4 * ctx.q


def test_oracle_cap_enforced(monkeypatch):
    ctx = make_context(5)
    e = ShortCurve(ctx.one, ctx.one)
    expected = naive_count(e)
    monkeypatch.setenv("SS3_ORACLE_CAP", str(3**5))
    assert naive_count(e) == expected
    monkeypatch.setenv("SS3_ORACLE_CAP", "100")
    with pytest.raises(OracleTooLarge):
        naive_count(e)
    monkeypatch.setenv("SS3_ORACLE_CAP", "1000000")
    assert naive_count(e) == count_points_by_enumeration(e)


def _cli_count_naive(ctx):
    """ss3 count --naive, with its exit-2 error line raised as the exception it names."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = main(["count", "--d", str(ctx.d), "--a4", "1", "--a6", "1", "--naive"])
    prefix = "error: OracleTooLarge: "
    if rc == 2 and err.getvalue().startswith(prefix):
        raise OracleTooLarge(err.getvalue()[len(prefix):].rstrip("\n"))
    assert rc == 0 and err.getvalue() == "", err.getvalue()
    return out.getvalue()


# every brute-force entry point, each run over GF(9)
_ORACLE_ENTRY_POINTS = {
    "naive_count": lambda ctx: naive_count(ShortCurve(ctx.one, ctx.one)),
    "count_points_by_enumeration": lambda ctx: count_points_by_enumeration(
        ShortCurve(ctx.one, ctx.one)
    ),
    "count_points_directly": lambda ctx: _general(ctx, a2=1, a6=1).count_points_directly(),
    "s_brute": lambda ctx: s_brute(ctx, 0),
    "char_sum_order": lambda ctx: char_sum_order(reduce_curve(_general(ctx, a2=1, a6=1))),
    "run_verification": lambda ctx: run_verification(ctx.d, samples=1),
    "ss3 count --naive": _cli_count_naive,
}


@pytest.mark.parametrize("entry", sorted(_ORACLE_ENTRY_POINTS))
def test_every_oracle_honours_the_cap(entry, monkeypatch):
    call, ctx = _ORACLE_ENTRY_POINTS[entry], make_context(2)
    monkeypatch.setenv("SS3_ORACLE_CAP", str(ctx.q - 1))
    with pytest.raises(OracleTooLarge) as err:
        call(ctx)
    assert str(err.value) == f"q = {ctx.q} exceeds the enumeration cap {ctx.q - 1}"
    monkeypatch.setenv("SS3_ORACLE_CAP", str(ctx.q))
    call(ctx)


def test_partition_contract_for_partial_sums():
    # partial character sums over any split of the x-range add exactly
    from ss3 import chi

    ctx = make_context(3)
    e = ShortCurve(ctx.element(5), ctx.element(11))
    encs = list(range(ctx.q))
    half = len(encs) // 2
    full = sum(chi(e.rhs(ctx.from_int(i))) for i in encs)
    split = sum(chi(e.rhs(ctx.from_int(i))) for i in encs[:half]) + sum(
        chi(e.rhs(ctx.from_int(i))) for i in encs[half:]
    )
    assert full == split
    assert naive_count(e) == ctx.q + 1 + full


# ----------------------------------------------------------------------
# Text forms
# ----------------------------------------------------------------------


def test_short_curve_text_roundtrip():
    ctx = make_context(2)
    e = ShortCurve(ctx.element("1,1"), ctx.element("0,2"))
    assert str(e) == "a4=1,1;a6=0,2"
    assert parse_short_curve(ctx, str(e)) == e
    assert parse_short_curve(ctx, "a4=4;a6=6") == e  # integer encodings
    with pytest.raises(ParseError):
        parse_short_curve(ctx, "a4=1,1")
    with pytest.raises(ParseError):
        parse_short_curve(ctx, "a4=1,1;a5=0,0")


def test_parse_general_curve_defaults():
    ctx = make_context(1)
    g = parse_general_curve(ctx, {"a4": "2", "a6": "1"})
    assert g.a1.is_zero() and g.a2.is_zero() and g.a3.is_zero()
    assert g.a4 == ctx.element(2)
    with pytest.raises(ParseError):
        parse_general_curve(ctx, {"a4": "2", "a6": "1", "a7": "1"})
