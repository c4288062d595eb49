"""Type assignment, canonical representatives, witnesses, and the census."""

import dataclasses
import pickle
import random
import re

import pytest

from conftest import count_chains, count_muls, sample_curves
from ss3 import (
    ContextMismatch,
    CurveClass,
    CurveType,
    DParityError,
    InvalidCurve,
    IsomorphismWitness,
    NotANonSquare,
    NotSupersingularError,
    ShortCurve,
    canonicalize,
    chi,
    class_representative,
    count_supersingular,
    fourth_roots,
    isomorphic,
    list_classes,
    make_context,
    naive_count,
    quadratic_twist,
    random_point,
    smallest_nonsquare,
    solve_linearized,
    trace,
)
from ss3 import field
from ss3.classify import _COSET_TYPES, _census, _dispatch
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
    assert canonicalize(ShortCurve(ctx.element(2), ctx.zero))[1].ctype == CurveType.I
    assert canonicalize(ShortCurve(ctx.element(1), ctx.zero))[1].ctype == CurveType.I_PLUS


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
        assert canonicalize(ShortCurve(a4, ctx.zero))[1].ctype == expected_by_log[k]
    # the vector from the coset table: -t = 2t... a4 = t gives -a4 = 2t = beta^2
    assert canonicalize(ShortCurve(ctx.element("0,1"), ctx.zero))[1].ctype == CurveType.II


@pytest.mark.parametrize("d", [2, 4])
def test_even_d_type_sizes(d):
    ctx = make_context(d)
    counts = {t: 0 for t in CurveType}
    for enc in range(1, ctx.q):
        counts[canonicalize(ShortCurve(ctx.from_int(enc), ctx.zero))[1].ctype] += 1
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


def _reference_witness(e1, e2):
    """The witness e1 -> e2 by the original r-equation, or None.

    The first u among the fourth roots of a4/a4', in encoding order, for
    which r^3 + a4*r + (a6 - u^6*a6') = 0 has a root, with its smallest
    root: solved in e1's coordinates, on the map of e1's a4.
    """
    for u in fourth_roots(e1.a4 / e2.a4):
        r = solve_linearized(e1.a4, e1.a6 - u**6 * e2.a6)
        if r is not None:
            return u, r
    return None


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
    # canonicalize derives (u, r) from the classification dispatch and
    # isomorphic scans every fourth root; both solve in the representative's
    # coordinates, so the r-equation in e's own coordinates is the reference
    for e in _witness_cases(d):
        rep, cls, w = canonicalize(e)
        ref = isomorphic(e, rep)
        assert ref is not None and (w.u, w.r) == (ref.u, ref.r)
        assert (w.u, w.r) == _reference_witness(e, rep)
        assert count_supersingular(e).class_used == cls


# Mean (products, Frobenius maps) per call over sample_curves(d, 200,
# seed=0), for count_supersingular, canonicalize, fourth_roots(a4) and
# isomorphic(e, rep). A change in the cost of the classification shows up as
# a diff here.
MUL_COUNTS = {
    12: ((12.045, 3.0), (31.24, 6.0), (11.87, 3.75), (36.495, 12.0)),
    16: ((17.025, 3.0), (41.5, 6.0), (18.435, 3.795), (47.99, 13.0)),
    20: ((12.695, 4.0), (33.13, 8.0), (12.855, 4.9), (39.29, 15.0)),
    21: ((9.06, 5.0), (17.06, 5.0), (7.485, 5.0), (22.515, 11.0)),
    24: ((18.155, 5.0), (43.625, 10.0), (19.25, 6.2), (50.87, 18.0)),
    30: ((10.625, 6.0), (28.525, 12.0), (10.37, 7.44), (35.205, 20.0)),
    31: ((10.84, 7.0), (18.84, 7.0), (9.54, 7.0), (26.46, 15.0)),
}


@pytest.mark.parametrize("d", sorted(MUL_COUNTS))
def test_multiplication_counts_pinned(d):
    curves = sample_curves(d, 200, seed=0)
    pairs = [(e, canonicalize(e)[0]) for e in curves]
    calls_of = (
        lambda e, rep: count_supersingular(e),
        lambda e, rep: canonicalize(e),
        lambda e, rep: fourth_roots(e.a4),
        lambda e, rep: isomorphic(e, rep),
    )
    means = []
    for fn in calls_of:
        with count_muls(curves[0].ctx) as calls:
            for e, rep in pairs:
                fn(e, rep)
        means.append(tuple(count / len(curves) for count in calls))
    assert tuple(means) == MUL_COUNTS[d]


# (products, maps) of canonicalize over every curve of a fresh context: at
# d <= 4 the element-level products read their result from the element
# memo, but each still calls the context's product slot, which the counter
# wraps
SMALL_FIELD_CANONICALIZE_COUNTS = {2: [930, 8], 3: [7104, 32], 4: [85042, 16]}


@pytest.mark.parametrize("d", sorted(SMALL_FIELD_CANONICALIZE_COUNTS))
def test_small_field_canonicalize_counts_pinned(d):
    ctx = field.FieldContext(d, field._default_modulus(d))
    curves = list(all_short_curves(ctx))
    with count_muls(ctx) as calls:
        for e in curves:
            canonicalize(e)
    assert calls == SMALL_FIELD_CANONICALIZE_COUNTS[d]


@pytest.mark.parametrize("d", [1, 2, 3, 4, 20, 31])
def test_chains_per_call_pinned(d):
    # canonicalize runs one PowerChain at odd d, where its u are the
    # dispatch chain's quartic roots, and two at even d for every type;
    # fourth_roots runs one at odd d and two on an even-d fourth power; chi
    # and inverse take the Euler power and run none
    ctx = make_context(d)
    for e in _witness_cases(d):
        with count_chains() as chains:
            cls = canonicalize(e)[1]
        assert chains == [1 if d % 2 else 2], cls
        with count_chains() as chains:
            fourth_roots(e.a4)
        fourth_power = d % 2 == 0 and e.a4 ** ((ctx.q - 1) // 4) == ctx.one
        assert chains == [2 if fourth_power else 1]
        with count_chains() as chains:
            chi(e.a4)
            e.a4.inverse()
        assert chains == [0]


@pytest.mark.parametrize("d", [2, 4, 6])
def test_coset_roots_exhaustive(d):
    # for every x = -a4, in the coset k of beta^k modulo the fourth powers,
    # the coset root squares to y = x * beta^-k, the type is
    # _COSET_TYPES[k], whose representative has a4' = -beta^k, and every
    # dispatched u has u^4 = y: all of fourth_roots(y), found on y's own
    # chains, unless a nonzero trace fixes the sign of u^2
    ctx = make_context(d)
    quarter = (ctx.q - 1) // 4
    seen = set()
    for enc in range(1, ctx.q):
        x = ctx.from_int(enc)
        k = next(k for k in range(4) if (x * ctx.beta**-k) ** quarter == ctx.one)
        y = x * ctx.beta**-k
        assert field.PowerChain(ctx, x.coeffs).coset_root(k) ** 2 == y
        for a6 in (ctx.zero, ctx.one):
            cls, witness_data = _dispatch(ShortCurve(-x, a6))
            assert cls.ctype == _COSET_TYPES[k]
            assert -class_representative(ctx, cls).a4 == ctx.beta**k
            roots = witness_data()[0]
            assert all(u**4 == y for u in roots)
            if cls.invariant == "nonzero":
                assert len(roots) == 2 and roots[0] == -roots[1]
            else:
                assert roots == fourth_roots(y)
        seen.add(k)
    assert seen == {0, 1, 2, 3}


def _check_map_slot(ctx, rng):
    """Canonicalize random curves on ctx, whose slot is empty, until every class is kept.

    The first canonicalize of a class keeps its representative on ctx beside
    the map of its a4, which costs d maps x -> x^3 (and d products) unless
    a class with that a4 came first; canonicalizing the same curve again
    pays for neither. Building any kept a4's map costs exactly d products
    and d maps. list_classes then reads the kept representatives and builds
    nothing.
    """
    slot = ctx._representatives
    assert slot == {}
    while len(slot) < (4 if ctx.d % 2 else 6):
        e = _random_curve(ctx, rng)
        a4s = {rep.a4 for rep, _ in slot.values()}
        with count_muls(ctx) as first:
            rep, cls, _ = canonicalize(e)
        with count_muls(ctx) as again:
            canonicalize(e)
        assert first[1] - again[1] == (0 if rep.a4 in a4s else ctx.d)
        assert slot[cls][0] is rep
    maps = {rep.a4.coeffs: lmap for rep, lmap in slot.values()}
    assert len(maps) == (2 if ctx.d % 2 else 4)
    assert all(maps[rep.a4.coeffs] is lmap for rep, lmap in slot.values())
    for rep, _ in slot.values():
        with count_muls(ctx) as build:
            field.LinearizedMap(rep.a4)
        assert build == [ctx.d, ctx.d]
    with count_muls(ctx) as listing:
        entries = list_classes(ctx)
    assert listing == [0, 0]
    assert [entry.rep for entry in entries] == [slot[entry.cls][0] for entry in entries]


@pytest.mark.parametrize("d", [12, 20, 31])
def test_representative_maps_fill_once_per_context(d):
    # a context built directly, outside the cache, starts with no map
    rng = random.Random(d)
    _check_map_slot(field.FieldContext(d, field._default_modulus(d)), rng)
    # a cleared context cache hands out a new context, cold again
    warm = make_context(d)
    canonicalize(_random_curve(warm, rng))
    assert warm._representatives
    field._build_context.cache_clear()
    cold = make_context(d)
    assert cold is not warm
    _check_map_slot(cold, rng)


@pytest.mark.parametrize("d", [3, 4])
def test_class_representative_rejects_classes_outside_the_census(d):
    # a class of the other parity or a foreign invariant raises as count_class
    # does, and the context keeps nothing for it
    ctx = field.FieldContext(d, field._default_modulus(d))
    absent = CurveType.IIIA if d % 2 else CurveType.I_PLUS
    with pytest.raises(DParityError, match=re.escape(f"type {absent.value} curves do not exist for d = {d}")):
        class_representative(ctx, CurveClass(absent, None))
    with pytest.raises(ValueError, match="^invariant 'x' is not valid for type I$"):
        class_representative(ctx, CurveClass(CurveType.I, "x"))
    assert ctx._representatives == {}
    list_classes(ctx)
    assert len(ctx._representatives) == (4 if d % 2 else 6)


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


def test_isomorphic_across_contexts_is_none():
    e = ShortCurve(make_context(2).one, make_context(2).zero)
    for ctx in (make_context(3), make_context(2, [2, 1, 1])):
        assert isomorphic(e, ShortCurve(ctx.one, ctx.zero)) is None


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
        # the chain's own links, then symmetry and transitivity
        for source, target in ((e1, e2), (e2, e3), (e2, e1), (e1, e3)):
            w = isomorphic(source, target)
            assert w is not None and w.holds_between(source, target)
            assert (w.u, w.r) == _reference_witness(source, target)


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
        assert canonicalize(e1)[1].ctype == canonicalize(e2)[1].ctype


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
    assert canonicalize(tw)[1].ctype == CurveType.II


def test_twist_requires_nonsquare():
    ctx = make_context(2)
    e = ShortCurve(ctx.element(2), ctx.zero)
    with pytest.raises(NotANonSquare):
        quadratic_twist(e, ctx.one)
    with pytest.raises(NotANonSquare):
        quadratic_twist(e, ctx.zero)


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_twist_by_smallest_nonsquare_runs_no_chain(d, monkeypatch):
    # chi is Euler's criterion, so no twist runs a chain: every non-square
    # g, the smallest one among them
    ctx = make_context(d)
    e = ShortCurve(ctx.one, ctx.one)
    squares = {x * x for x in ctx.elements()}
    nonsquares = [g for g in ctx.elements() if g not in squares]
    assert smallest_nonsquare(ctx) in nonsquares and len(nonsquares) == (ctx.q - 1) // 2

    def no_chain(*args):
        raise AssertionError("quadratic_twist ran a PowerChain")

    monkeypatch.setattr(field, "PowerChain", no_chain)
    for g in nonsquares:
        assert quadratic_twist(e, g) == ShortCurve(g * g, g * g * g)


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


# ----------------------------------------------------------------------
# Census constants and slotted values
# ----------------------------------------------------------------------


def test_census_is_one_tuple_per_parity():
    for d in range(1, 30):
        assert _census(d) is _census(d + 2) is not _census(d + 1)


def _census_curves(d):
    """Every curve at d <= 4, else sample_curves(d, 50)."""
    if d <= 4:
        return list(all_short_curves(make_context(d)))
    return sample_curves(d, 50)


@pytest.mark.parametrize("d", range(1, 32))
def test_classes_are_census_members(d):
    # canonicalize and count_supersingular return the census's own objects,
    # built once per parity, never a class built per call
    census = _census(d)
    for e in _census_curves(d):
        cls = canonicalize(e)[1]
        assert any(cls is member for member in census)
        assert count_supersingular(e).class_used is cls


def test_short_curve_value_contract():
    ctx, other = make_context(2), make_context(3)
    e = ShortCurve(-ctx.beta, ctx.one)
    same = ShortCurve(ctx.from_int(e.a4.encoding()), ctx.from_int(e.a6.encoding()))
    assert e == same and not e != same and hash(e) == hash(same) == hash((e.a4, e.a6))
    assert e != ShortCurve(e.a4, ctx.zero) and e != (e.a4, e.a6)
    assert repr(e) == "ShortCurve(a4=GF(3^2)[2,2], a6=GF(3^2)[1,0])"
    assert str(e) == "a4=2,2;a6=1,0"
    assert not hasattr(e, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'a4'$"):
        e.a4 = ctx.one
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'a6'$"):
        del e.a6
    assert e.a4 == -ctx.beta
    message = "a4 = 0 makes the discriminant -a4^3 vanish"
    with pytest.raises(InvalidCurve, match=f"^{re.escape(message)}$"):
        ShortCurve(ctx.zero, ctx.one)
    with pytest.raises(ContextMismatch, match="^curve coefficients from different contexts$"):
        ShortCurve(ctx.one, other.one)


def test_isomorphism_witness_value_contract():
    ctx = make_context(2)
    e = ShortCurve(-ctx.beta, ctx.one)
    w = canonicalize(e)[2]
    same = IsomorphismWitness(ctx.from_int(w.u.encoding()), ctx.from_int(w.r.encoding()))
    assert w == same and not w != same and hash(w) == hash(same) == hash((w.u, w.r))
    assert w != IsomorphismWitness(w.u, ctx.zero) and w != (w.u, w.r)
    assert repr(w) == str(w) == "IsomorphismWitness(u=GF(3^2)[1,0], r=GF(3^2)[2,2])"
    assert not hasattr(w, "__dict__")
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot assign to field 'u'$"):
        w.u = ctx.one
    with pytest.raises(dataclasses.FrozenInstanceError, match="^cannot delete field 'r'$"):
        del w.r
    assert w.holds_between(e, canonicalize(e)[0])


@pytest.mark.parametrize("d", [2, 5, 31])
def test_values_pickle(d):
    # a context pickles as its key and comes back as make_context's cached
    # context; elements, curves, witnesses and errors come back equal
    ctx = make_context(d)
    assert pickle.loads(pickle.dumps(ctx)) is ctx
    e = sample_curves(d, 1, seed=d)[0]
    x = ctx.from_int(7)
    w = canonicalize(e)[2]
    for value in (x, e, w, e.infinity(), random_point(e, random.Random(d))):
        back = pickle.loads(pickle.dumps(value))
        assert back == value and type(back) is type(value)
    assert pickle.loads(pickle.dumps(x)).ctx is ctx
    if d <= 4:  # the one element of its value
        assert pickle.loads(pickle.dumps(x)) is x
    error = NotSupersingularError(j=ctx.beta)
    back = pickle.loads(pickle.dumps(error))
    assert type(back) is NotSupersingularError
    assert (str(back), back.j) == (str(error), error.j)
    other = make_context(2, [2, 2, 1])  # not the default modulus
    assert pickle.loads(pickle.dumps(other)) is other is not make_context(2)
