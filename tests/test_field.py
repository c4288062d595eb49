"""GF(3^d) arithmetic, characters, roots, and the linearized solver."""

import random

import pytest
from hypothesis import given, strategies as st

from ss3 import (
    ContextMismatch,
    DegreeOutOfRange,
    DivisionByZero,
    ModulusReducible,
    ParseError,
    ZeroArgument,
    chi,
    context_to_json,
    decode_element,
    fourth_roots,
    is_fourth_power,
    is_irreducible,
    make_context,
    smallest_nonsquare,
    solve_linearized,
    sqrt,
    trace,
)
from ss3.factor import is_probable_prime
from ss3.field import _barrett_mul, _default_modulus, _pmulmod


# ----------------------------------------------------------------------
# Context construction
# ----------------------------------------------------------------------


def test_context_d1_is_prime_field():
    ctx = make_context(1)
    assert list(ctx.modulus) == [0, 1]  # modulus t, i.e. plain F3
    assert str(ctx.beta) == "2"
    assert str(ctx.alpha) == "1"
    assert ctx.tau is None


def test_context_d2_constants():
    # independent scan: the first irreducible monic quadratic by encoding
    quadratics = [(c0, c1, 1) for c1 in range(3) for c0 in range(3)]
    first = next(
        m
        for m in sorted(quadratics, key=lambda m: m[0] + 3 * m[1])
        if is_irreducible(m)
    )
    assert first == (1, 0, 1)  # t^2 + 1

    ctx = make_context(2)
    assert ctx.modulus == (1, 0, 1)
    # independent generator scan: smallest element of multiplicative order 8
    for enc in range(1, 9):
        x = ctx.from_int(enc)
        order = next(n for n in range(1, 9) if x**n == ctx.one)
        if order == 8:
            assert x == ctx.beta
            break
    assert ctx.beta.encoding() == 4  # 1 + t
    assert str(ctx.alpha) == "2,0"
    assert str(ctx.tau) == "0,1" and ctx.tau * ctx.tau == ctx.minus_one


def test_reducible_override_rejected():
    with pytest.raises(ModulusReducible):
        make_context(2, [0, 1, 1])  # t^2 + t = t(t + 1)


def test_override_must_be_monic_of_right_degree():
    with pytest.raises(ParseError):
        make_context(2, [1, 0, 2])
    with pytest.raises(ParseError):
        make_context(2, [1, 0, 0, 1])


def test_degree_out_of_range():
    for d in (0, -3, 32):
        with pytest.raises(DegreeOutOfRange):
            make_context(d)


@pytest.mark.parametrize("d", range(1, 9))
def test_context_invariants(d):
    ctx = make_context(d)
    q = 3**d
    assert ctx.q == q
    prod = 1
    for p in ctx.q_minus_1_factors:
        assert is_probable_prime(p)
        prod *= p
    assert prod == q - 1
    # beta has full multiplicative order
    for p in set(ctx.q_minus_1_factors):
        assert ctx.beta ** ((q - 1) // p) != ctx.one
    assert ctx.beta ** (q - 1) == ctx.one
    assert trace(ctx.alpha) == 1
    if d % 2 == 0:
        assert ctx.tau * ctx.tau == ctx.minus_one
    else:
        assert ctx.tau is None


@pytest.mark.parametrize("d", range(1, 9))
def test_alpha_is_smallest_trace_one_element(d):
    # the constructed alpha must equal what a raw encoding scan finds
    ctx = make_context(d)
    scanned = next(
        ctx.from_int(e) for e in range(ctx.q) if trace(ctx.from_int(e)) == 1
    )
    assert ctx.alpha == scanned


def test_every_supported_degree_builds_quickly():
    # sparse default moduli make trace vanish on long basis prefixes;
    # construction must not scan the field for alpha
    import time

    start = time.perf_counter()
    for d in (20, 24, 27, 30, 31):
        ctx = make_context(d)
        assert trace(ctx.alpha) == 1
        if d % 2 == 0:
            assert ctx.tau * ctx.tau == ctx.minus_one
    assert time.perf_counter() - start < 5.0


def test_context_caching_and_json():
    assert make_context(3) is make_context(3)
    info = context_to_json(make_context(2))
    assert info == {
        "d": 2,
        "modulus": [1, 0, 1],
        "beta": "1,1",
        "alpha": "2,0",
        "tau": "0,1",
    }


# ----------------------------------------------------------------------
# Arithmetic
# ----------------------------------------------------------------------


def test_gf9_multiplication_vectors():
    ctx = make_context(2)
    t = ctx.element("0,1")
    assert t * t == ctx.element(2)  # t^2 = -1
    b = ctx.element("1,1")
    assert b**4 == ctx.element(2)  # (1+t)^2 = 2t, (2t)^2 = 2


def _packed(coeffs):
    return int.from_bytes(bytes(coeffs), "little")


def _dense_modulus(d):
    # a seeded irreducible whose d low coefficients are all nonzero; one
    # exists for every d <= 31 within a few dozen draws
    rng = random.Random(f"dense-{d}")
    for _ in range(300):
        low = [rng.choice((1, 2)) for _ in range(d)]
        if is_irreducible(low + [1]):
            return tuple(low) + (1,)
    return None


@pytest.mark.parametrize("d", range(1, 32))
def test_mul_matches_polynomial_reference(d):
    # the packed Barrett product against schoolbook multiply-and-divide on
    # coefficient lists, for the default and a dense modulus
    rng = random.Random(d)
    dense = _dense_modulus(d)
    assert dense is not None
    for modulus in (_default_modulus(d), dense):
        mul = _barrett_mul(d, modulus)
        twos, fours = [2] * d, [4] * d
        # the byte bound's worst cases: all-2 operands, and an unreduced
        # all-4 operand as the oracle's Horner loop passes it
        pairs = [(twos, twos), (fours, twos)]
        for _ in range(240):
            a = [rng.randrange(3) for _ in range(d)]
            b = [rng.randrange(3) for _ in range(d)]
            unreduced = [rng.choice((c, c + 3)) if c < 2 else c for c in a]  # slots <= 4
            pairs += [(a, b), (unreduced, b)]
        for a, b in pairs:
            want = _pmulmod([c % 3 for c in a], b, list(modulus))
            assert mul(_packed(a), _packed(b)) == _packed(want + [0] * (d - len(want)))


@given(st.integers(1, 6), st.data())
def test_pow_zero_is_one(d, data):
    ctx = make_context(d)
    x = ctx.from_int(data.draw(st.integers(1, ctx.q - 1)))
    assert x**0 == ctx.one


@given(st.integers(1, 6), st.data())
def test_field_axioms(d, data):
    ctx = make_context(d)
    draw = lambda: ctx.from_int(data.draw(st.integers(0, ctx.q - 1)))
    x, y, z = draw(), draw(), draw()
    assert x + y == y + x
    assert x * y == y * x
    assert (x + y) + z == x + (y + z)
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + (-x) == ctx.zero
    if not x.is_zero():
        assert x * x.inverse() == ctx.one
        assert x ** (ctx.q - 1) == ctx.one
        assert x**-1 == x.inverse()


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fermat_exhaustive(d):
    ctx = make_context(d)
    for enc in range(1, ctx.q):
        assert ctx.from_int(enc) ** (ctx.q - 1) == ctx.one


def test_division_by_zero():
    ctx = make_context(2)
    with pytest.raises(DivisionByZero):
        ctx.zero.inverse()
    with pytest.raises(DivisionByZero):
        ctx.zero**-2


def test_context_mismatch():
    a = make_context(2).one
    b = make_context(3).one
    with pytest.raises(ContextMismatch):
        a + b
    # same degree, different modulus
    c = make_context(2, [2, 1, 1]).one
    with pytest.raises(ContextMismatch):
        a * c


# ----------------------------------------------------------------------
# Trace
# ----------------------------------------------------------------------


def test_trace_examples():
    c1 = make_context(1)
    assert trace(c1.element(2)) == -1  # identity on the prime field
    c2 = make_context(2)
    assert trace(c2.element("0,1")) == 0  # t + t^3 = 0
    assert trace(c2.element(2)) == 1  # 2 + 2^3 = 4 = 1


@pytest.mark.parametrize("d", range(1, 7))
def test_trace_linearity_and_fibers(d):
    ctx = make_context(d)
    fibers = {0: 0, 1: 0, -1: 0}
    rng = random.Random(d)
    for enc in range(ctx.q):
        x = ctx.from_int(enc)
        fibers[trace(x)] += 1
        # Frobenius invariance
        assert trace(x * x * x) == trace(x)
        y = ctx.random_element(rng)
        assert (trace(x) + trace(y) - trace(x + y)) % 3 == 0
        assert (trace(x + x) - 2 * trace(x)) % 3 == 0
    assert fibers == {0: ctx.q // 3, 1: ctx.q // 3, -1: ctx.q // 3}


def test_trace_matches_frobenius_sum_definition():
    # x + x^3 + ... + x^{3^{d-1}}, computed independently by repeated cubing
    for d in (3, 5, 6):
        ctx = make_context(d)
        rng = random.Random(d)
        for _ in range(25):
            x = ctx.random_element(rng)
            acc, y = x, x
            for _ in range(d - 1):
                y = y * y * y
                acc = acc + y
            expected = {ctx.zero: 0, ctx.one: 1, ctx.minus_one: -1}[acc]
            assert trace(x) == expected


# ----------------------------------------------------------------------
# Quadratic character and fourth powers
# ----------------------------------------------------------------------


def test_chi_basic_values():
    for d in (1, 3, 5):
        ctx = make_context(d)
        assert chi(ctx.minus_one) == -1  # -1 is not a square for odd d
    for d in (2, 4, 6):
        ctx = make_context(d)
        assert chi(ctx.minus_one) == 1  # -1 is a fourth power for even d
    ctx = make_context(2)
    assert chi(ctx.element("1,1")) == -1  # the primitive root
    assert chi(ctx.zero) == 0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_chi_multiplicative_exhaustive(d):
    ctx = make_context(d)
    units = [ctx.from_int(e) for e in range(1, ctx.q)]
    squares = {(x * x).coeffs for x in units}
    for x in units:
        assert chi(x) == (1 if x.coeffs in squares else -1)
        assert chi(x * x) == 1
        for y in units:
            assert chi(x * y) == chi(x) * chi(y)


@pytest.mark.parametrize("d", range(4, 9))
def test_chi_multiplicative_random(d):
    ctx = make_context(d)
    rng = random.Random(d)
    for _ in range(50):
        x, y = ctx.random_nonzero(rng), ctx.random_nonzero(rng)
        assert chi(x * y) == chi(x) * chi(y)
        assert chi(x * x) == 1


@pytest.mark.parametrize("d", range(1, 7))
def test_is_fourth_power_matches_table(d):
    ctx = make_context(d)
    table = {(x**4).coeffs for x in (ctx.from_int(e) for e in range(1, ctx.q))}
    for enc in range(1, ctx.q):
        x = ctx.from_int(enc)
        assert is_fourth_power(x) == (x.coeffs in table)
        if d % 2 == 1 and chi(x) == 1:
            assert is_fourth_power(x)  # squares are fourth powers for odd d


def test_is_fourth_power_gf9_vectors():
    ctx = make_context(2)
    assert is_fourth_power(ctx.element(2))  # 2 = (1+t)^4
    assert not is_fourth_power(ctx.element("0,2"))  # 2t = beta^2
    with pytest.raises(ZeroArgument):
        is_fourth_power(ctx.zero)


# ----------------------------------------------------------------------
# Square roots
# ----------------------------------------------------------------------


def test_sqrt_zero_and_nonsquare():
    ctx = make_context(3)
    assert sqrt(ctx.zero) == ctx.zero
    assert sqrt(ctx.minus_one) is None  # -1 is not a square, d odd


def test_sqrt_gf9_by_exhaustive_squaring():
    ctx = make_context(2)
    two = ctx.element(2)
    roots = [x for x in ctx.elements() if x * x == two]
    assert sorted(r.encoding() for r in roots) == [3, 6]  # t and 2t
    assert sqrt(two) == ctx.element("0,1")  # smaller encoding wins


@pytest.mark.parametrize("d", [1, 2, 3, 4, 6])
def test_sqrt_roundtrip_exhaustive(d):
    ctx = make_context(d)
    square_to_roots = {}
    for x in ctx.elements():
        square_to_roots.setdefault((x * x).coeffs, []).append(x)
    for enc in range(ctx.q):
        x = ctx.from_int(enc)
        r = sqrt(x)
        if x.coeffs in square_to_roots:
            expected = min(square_to_roots[x.coeffs], key=lambda e: e.encoding())
            assert r == expected
        else:
            assert r is None


def test_sqrt_large_even_degree():
    ctx = make_context(12)
    rng = random.Random(7)
    for _ in range(20):
        x = ctx.random_nonzero(rng)
        r = sqrt(x * x)
        assert r is not None and r * r == x * x


def test_smallest_nonsquare():
    assert smallest_nonsquare(make_context(1)).encoding() == 2
    for d in (2, 3, 4):
        ctx = make_context(d)
        g = smallest_nonsquare(ctx)
        assert chi(g) == -1
        for enc in range(1, g.encoding()):
            assert chi(ctx.from_int(enc)) == 1


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_fourth_roots_exhaustive(d):
    ctx = make_context(d)
    by_fourth = {}
    for x in ctx.elements():
        by_fourth.setdefault((x**4).coeffs, []).append(x)
    for enc in range(1, ctx.q):
        x = ctx.from_int(enc)
        got = fourth_roots(x)
        expected = sorted(by_fourth.get(x.coeffs, []), key=lambda e: e.encoding())
        assert got == expected
        assert len(got) in ((0, 2) if d % 2 else (0, 4))


# ----------------------------------------------------------------------
# Linearized solver
# ----------------------------------------------------------------------


def test_solver_kernel_and_spec_vectors():
    c1 = make_context(1)
    assert solve_linearized(c1.minus_one, c1.zero) == c1.zero  # kernel is F3
    assert solve_linearized(c1.minus_one, c1.one) is None  # trace(1) = 1
    c2 = make_context(2)
    t = c2.element("0,1")
    r = solve_linearized(c2.minus_one, t)
    assert r == c2.element("0,2")
    roots = [x for x in c2.elements() if x * x * x + c2.minus_one * x + t == c2.zero]
    assert sorted(x.encoding() for x in roots) == [6, 7, 8]


@pytest.mark.parametrize("d", range(1, 7))
def test_solver_agrees_with_hilbert90(d):
    ctx = make_context(d)
    for enc in range(ctx.q):
        k = ctx.from_int(enc)
        r = solve_linearized(ctx.minus_one, k)
        if trace(k) == 0:
            assert r is not None
            assert r * r * r - r + k == ctx.zero
        else:
            assert r is None


@pytest.mark.parametrize("d", [1, 3, 5])
def test_solver_bijective_maps_odd_d(d):
    # x -> x^3 + x and x -> x^3 - beta*x have trivial kernel for odd d
    ctx = make_context(d)
    for c in (ctx.one, -ctx.beta):
        for enc in range(ctx.q):
            k = ctx.from_int(enc)
            r = solve_linearized(c, k)
            assert r is not None
            assert r * r * r + c * r + k == ctx.zero


@pytest.mark.parametrize("d", [2, 3, 4, 5, 6])
def test_solver_random_instances_exact(d):
    ctx = make_context(d)
    rng = random.Random(d)
    for _ in range(60):
        c = ctx.random_element(rng)
        k = ctx.random_element(rng)
        r = solve_linearized(c, k)
        if r is not None:
            assert r * r * r + c * r + k == ctx.zero


@pytest.mark.parametrize("d", [1, 2, 3])
def test_solver_returns_smallest_encoding(d):
    ctx = make_context(d)
    rng = random.Random(d)
    for _ in range(40):
        c = ctx.random_element(rng)
        k = ctx.random_element(rng)
        roots = [
            x for x in ctx.elements() if x * x * x + c * x + k == ctx.zero
        ]
        r = solve_linearized(c, k)
        if roots:
            assert r == min(roots, key=lambda e: e.encoding())
        else:
            assert r is None


# ----------------------------------------------------------------------
# Text encoding
# ----------------------------------------------------------------------


def test_encode_decode_vectors():
    ctx = make_context(2)
    assert decode_element(ctx, "4") == ctx.element("1,1")
    assert str(ctx.from_int(4)) == "1,1"
    assert decode_element(ctx, "0,2") == ctx.from_int(6)
    with pytest.raises(ParseError):
        decode_element(ctx, "1,1,1")  # wrong length
    with pytest.raises(ParseError):
        decode_element(ctx, "3,0")  # bad digit
    with pytest.raises(ParseError):
        decode_element(ctx, "9")  # >= q
    with pytest.raises(ParseError):
        decode_element(ctx, "-1")
    with pytest.raises(ParseError):
        decode_element(ctx, "zebra")


@given(st.integers(1, 8), st.data())
def test_encode_decode_roundtrip(d, data):
    ctx = make_context(d)
    x = ctx.from_int(data.draw(st.integers(0, ctx.q - 1)))
    assert decode_element(ctx, str(x)) == x
    assert decode_element(ctx, str(x.encoding())) == x


@pytest.mark.parametrize("d", [1, 2, 3, 4])
def test_elements_iterate_in_encoding_order(d):
    # elements() decodes through itertools.product, from_int by divmod and
    # decode_element from the text; all three must agree
    ctx = make_context(d)
    elements = list(ctx.elements())
    assert [x.encoding() for x in elements] == list(range(ctx.q))
    for x in elements:
        assert ctx.from_int(x.encoding()) == x
        assert decode_element(ctx, str(x)) == x
