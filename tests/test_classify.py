"""Type assignment, canonical representatives, witnesses, and the census."""

import random

import pytest

from ss3 import (
    CurveClass,
    CurveType,
    NotANonSquare,
    ShortCurve,
    canonicalize,
    count_supersingular,
    curve_type,
    fourth_roots,
    isomorphic,
    list_classes,
    make_context,
    naive_count,
    quadratic_twist,
    random_point,
    smallest_nonsquare,
    trace,
)
from ss3.curve import all_short_curves


def _random_curve(ctx, rng):
    return ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))


def _transform(e, u, r):
    """Curve isomorphic to e via the change of variables with data (u, r)."""
    a4 = e.a4 * u**-4
    a6 = (e.a6 + r * e.a4 + r**3) * u**-6
    return ShortCurve(a4, a6)


# ----------------------------------------------------------------------
# Types
# ----------------------------------------------------------------------


def test_curve_type_f3():
    ctx = make_context(1)
    assert curve_type(ShortCurve(ctx.element(2), ctx.zero)) == CurveType.I
    assert curve_type(ShortCurve(ctx.element(1), ctx.zero)) == CurveType.I_PLUS


def test_curve_type_gf9_coset_table():
    ctx = make_context(2)
    # independent oracle: discrete logs along powers of beta
    logs = {}
    cur = ctx.one
    for k in range(8):
        logs[cur.coeffs] = k
        cur = cur * ctx.beta
    expected_by_log = {0: CurveType.I, 1: CurveType.IIIA, 2: CurveType.II, 3: CurveType.IIIB}
    for enc in range(1, 9):
        a4 = ctx.from_int(enc)
        k = logs[(-a4).coeffs] % 4
        assert curve_type(ShortCurve(a4, ctx.zero)) == expected_by_log[k]
    # the vector from the coset table: -t = 2t... a4 = t gives -a4 = 2t = beta^2
    assert curve_type(ShortCurve(ctx.element("0,1"), ctx.zero)) == CurveType.II


@pytest.mark.parametrize("d", [2, 4])
def test_even_d_type_sizes(d):
    ctx = make_context(d)
    counts = {t: 0 for t in CurveType}
    for enc in range(1, ctx.q):
        counts[curve_type(ShortCurve(ctx.from_int(enc), ctx.zero))] += 1
    quarter = (ctx.q - 1) // 4
    assert counts[CurveType.I] == counts[CurveType.II] == quarter
    assert counts[CurveType.IIIA] == counts[CurveType.IIIB] == quarter
    assert counts[CurveType.I_PLUS] == 0


# ----------------------------------------------------------------------
# Canonicalization
# ----------------------------------------------------------------------


def test_canonicalize_f3_vectors():
    ctx = make_context(1)
    rep, cls, w = canonicalize(ShortCurve(ctx.element(2), ctx.element(1)))
    assert cls == CurveClass(CurveType.I, "1")
    assert rep == ShortCurve(ctx.element(2), ctx.element(1))
    assert (w.u, w.r) == (ctx.one, ctx.zero)

    rep, cls, w = canonicalize(ShortCurve(ctx.element(1), ctx.element(2)))
    assert cls == CurveClass(CurveType.I_PLUS, None)
    assert rep == ShortCurve(ctx.one, ctx.zero)
    assert (w.u, w.r) == (ctx.one, ctx.element(2))  # 2^3 + 2 + 2 = 0 in F3


def test_canonicalize_gf9_vector():
    ctx = make_context(2)
    rep, cls, w = canonicalize(ShortCurve(ctx.element(2), ctx.element("0,1")))
    assert cls == CurveClass(CurveType.I, "0")  # trace(t) = 0
    assert rep == ShortCurve(ctx.element(2), ctx.zero)
    assert w.holds_between(ShortCurve(ctx.element(2), ctx.element("0,1")), rep)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_canonicalize_witness_sound_exhaustive(d):
    ctx = make_context(d)
    rng = random.Random(d)
    for e in all_short_curves(ctx):
        rep, cls, w = canonicalize(e)
        assert w.holds_between(e, rep)
        # the point map carries min(10, all) points of the rep onto e
        n_affine = naive_count(rep) - 1
        for _ in range(min(10, n_affine)):
            p = random_point(rep, rng)
            q = w.map_point(p, e)  # constructor validates membership
            assert q.curve == e
        assert w.map_point(rep.infinity(), e).is_infinity


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_invariant_independent_of_fourth_root_choice(d):
    # recompute the type-I label from every valid fourth root
    ctx = make_context(d)
    for e in all_short_curves(ctx):
        roots = fourth_roots(-e.a4)
        if not roots:
            continue  # not type I
        labels = set()
        for v in roots:
            t = trace(e.a6 * v**-6)
            labels.add(str(t) if d % 2 else ("0" if t == 0 else "nonzero"))
        assert len(labels) == 1
        if d <= 3:
            _, cls, _ = canonicalize(e)
            assert labels == {cls.invariant}


def _witness_cases(d):
    """Every curve for d <= 3; above that, seeded curves from every class."""
    ctx = make_context(d)
    if d <= 3:
        return list(all_short_curves(ctx))
    rng = random.Random(d)
    cases = []
    for entry in list_classes(ctx):
        for _ in range(3):
            u, r = ctx.random_nonzero(rng), ctx.random_element(rng)
            cases.append(_transform(entry.rep, u, r))
    return cases


@pytest.mark.parametrize("d", range(1, 32))
def test_canonicalize_witness_equals_isomorphic(d):
    # canonicalize derives (u, r) from the classification dispatch;
    # isomorphic scans every fourth root and is the reference
    for e in _witness_cases(d):
        rep, cls, w = canonicalize(e)
        ref = isomorphic(e, rep)
        assert ref is not None and (w.u, w.r) == (ref.u, ref.r)
        assert count_supersingular(e).class_used == cls


# ----------------------------------------------------------------------
# Isomorphism testing
# ----------------------------------------------------------------------


def test_isomorphic_reflexive_identity_witness():
    ctx = make_context(3)
    e = ShortCurve(ctx.element(7), ctx.element(19))
    w = isomorphic(e, e)
    assert (w.u, w.r) == (ctx.one, ctx.zero)


def test_distinct_f3_classes_not_isomorphic():
    ctx = make_context(1)
    e1 = ShortCurve(ctx.element(2), ctx.element(1))
    e2 = ShortCurve(ctx.element(2), ctx.element(2))
    assert isomorphic(e1, e2) is None


def test_gf9_negated_b_isomorphic_via_tau():
    ctx = make_context(2)
    b = ctx.alpha  # nonzero trace forces u = tau
    e1 = ShortCurve(ctx.element(2), b)
    e2 = ShortCurve(ctx.element(2), -b)
    w = isomorphic(e1, e2)
    assert w is not None and w.u == ctx.tau
    assert w.holds_between(e1, e2)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_witness_inversion_and_composition(d):
    ctx = make_context(d)
    rng = random.Random(d)
    for _ in range(50):
        e1 = _random_curve(ctx, rng)
        e2 = _transform(e1, ctx.random_nonzero(rng), ctx.random_element(rng))
        e3 = _transform(e2, ctx.random_nonzero(rng), ctx.random_element(rng))
        w12 = isomorphic(e1, e2)
        w23 = isomorphic(e2, e3)
        assert w12 is not None and w23 is not None
        assert w12.inverted().holds_between(e2, e1)  # symmetry
        assert w12.compose(w23).holds_between(e1, e3)  # transitivity


@pytest.mark.parametrize("d", [1, 2, 3])
def test_isomorphic_iff_same_class_exhaustive(d):
    ctx = make_context(d)
    entries = list_classes(ctx)
    reps = {entry.cls: entry.rep for entry in entries}
    for e in all_short_curves(ctx):
        _, cls, _ = canonicalize(e)
        for other_cls, rep in reps.items():
            w = isomorphic(e, rep)
            if other_cls == cls:
                assert w is not None and w.holds_between(e, rep)
            else:
                assert w is None


def test_isomorphic_iff_same_class_sampled_d4():
    ctx = make_context(4)
    rng = random.Random(4)
    for _ in range(100):
        e1, e2 = _random_curve(ctx, rng), _random_curve(ctx, rng)
        same = canonicalize(e1)[1] == canonicalize(e2)[1]
        assert (isomorphic(e1, e2) is not None) == same


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_type_stable_under_isomorphism(d):
    ctx = make_context(d)
    rng = random.Random(d)
    for _ in range(60):
        e1 = _random_curve(ctx, rng)
        e2 = _transform(e1, ctx.random_nonzero(rng), ctx.random_element(rng))
        assert curve_type(e1) == curve_type(e2)


# ----------------------------------------------------------------------
# Twists
# ----------------------------------------------------------------------


def test_twist_f3_vector():
    ctx = make_context(1)
    e = ShortCurve(ctx.element(2), ctx.element(1))
    tw = quadratic_twist(e, ctx.element(2))
    assert tw == ShortCurve(ctx.element(2), ctx.element(2))
    assert naive_count(e) + naive_count(tw) == 2 * 3 + 2


def test_twist_of_type_I_is_type_II():
    ctx = make_context(2)
    e0 = ShortCurve(ctx.element(2), ctx.zero)
    tw = quadratic_twist(e0, ctx.beta)
    assert tw.a4 == -ctx.beta * ctx.beta  # the type II representative shape
    assert curve_type(tw) == CurveType.II


def test_twist_requires_nonsquare():
    ctx = make_context(2)
    e = ShortCurve(ctx.element(2), ctx.zero)
    with pytest.raises(NotANonSquare):
        quadratic_twist(e, ctx.one)
    with pytest.raises(NotANonSquare):
        quadratic_twist(e, ctx.zero)


@pytest.mark.parametrize("d", [1, 2, 3])
def test_double_twist_restores_class(d):
    ctx = make_context(d)
    g = smallest_nonsquare(ctx)
    for e in all_short_curves(ctx):
        back = quadratic_twist(quadratic_twist(e, g), g)
        assert isomorphic(back, e) is not None


# ----------------------------------------------------------------------
# Census
# ----------------------------------------------------------------------


def test_census_counts_match_naive_oracle():
    expected = {
        1: [4, 7, 1, 4],
        2: [16, 7, 4, 13, 10, 10],
        3: [28, 19, 37, 28],
    }
    for d, orders in expected.items():
        entries = list_classes(make_context(d))
        assert [e.result.order for e in entries] == orders
        for entry in entries:
            assert naive_count(entry.rep) == entry.result.order


@pytest.mark.parametrize("d,n", [(1, 4), (2, 6), (3, 4), (4, 6), (5, 4)])
def test_census_size_and_distinctness(d, n):
    entries = list_classes(make_context(d))
    assert len(entries) == n
    for i, left in enumerate(entries):
        for right in entries[i + 1 :]:
            assert isomorphic(left.rep, right.rep) is None


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_partition_every_curve_hits_exactly_one_class(d):
    ctx = make_context(d)
    entries = list_classes(ctx)
    census = {entry.cls: entry.rep for entry in entries}
    sizes = {entry.cls: 0 for entry in entries}
    for e in all_short_curves(ctx):
        rep, cls, w = canonicalize(e)
        assert census[cls] == rep
        assert w.holds_between(e, rep)
        sizes[cls] += 1
    assert sum(sizes.values()) == (ctx.q - 1) * ctx.q
    assert all(v > 0 for v in sizes.values())


def test_class_label_serialization():
    ctx = make_context(2)
    _, cls, _ = canonicalize(ShortCurve(ctx.element("0,1"), ctx.zero))
    assert cls.to_json(ctx.beta) == {"type": "II", "invariant": "0", "beta": "1,1"}
    _, cls, _ = canonicalize(ShortCurve(-ctx.beta, ctx.zero))
    assert cls.to_json(ctx.beta) == {"type": "IIIa", "invariant": None, "beta": "1,1"}
