"""GF(3^d) arithmetic, characters, roots, and the linearized solver."""

import inspect
import itertools
import operator
import pickle
import random
import struct
import sys
import threading
import tracemalloc
from math import isqrt, prod

import pytest
from hypothesis import given, strategies as st

from conftest import count_muls
from ss3 import (
    ContextMismatch,
    DegreeOutOfRange,
    DivisionByZero,
    FieldContext,
    FieldElement,
    GeneralCurve,
    ModulusReducible,
    ParseError,
    ShortCurve,
    chi,
    context_to_json,
    decode_element,
    fourth_roots,
    is_irreducible,
    make_context,
    naive_count,
    reduce_curve,
    smallest_nonsquare,
    solve_linearized,
    sqrt,
    trace,
)
from ss3 import field
from ss3.count import char_sum_order
from ss3 import factor
from ss3.factor import factorize, factorize_q_minus_1
from ss3.field import (
    DEGREE_CAP,
    ORACLE_CAP,
    _CHUNK,
    PowerChain,
    _FrobeniusMap,
    _barrett_mul,
    _default_modulus,
    _encode_row,
    _lane_widths,
    _packed_mul,
    _row_layout,
)

# Base-3 encodings c0 + 3*c1 + ... of the default moduli's low coefficients
# for d = 1..31. Every field-info, class label and export depends on them.
DEFAULT_MODULUS_ENCODINGS = [
    0, 1, 7, 5, 7, 5, 11, 11, 64, 19, 11, 11, 7, 5, 11, 37,
    7, 34, 11, 34, 31, 37, 31, 83, 55, 19, 287, 11, 83, 5, 31,
]


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
    for _ in range(2):  # a rejection is never cached as a context
        with pytest.raises(ModulusReducible):
            make_context(2, [0, 1, 1])  # t^2 + t = t(t + 1)


def test_irreducibility_reads_coefficients_mod_3():
    # coefficients outside {0, 1, 2} are read mod 3: the packed product and
    # gcd need reduced slots, and a negative one does not fit a byte
    for c in ([3, 0, 1], [4, 0, 1], [-1, 0, 1]):
        assert is_irreducible(c) == is_irreducible([x % 3 for x in c])


def test_irreducibility_rejects_non_monic_and_constant_polynomials():
    assert not is_irreducible([1, 0, 2])  # 2t^2 + 1: leading coefficient 2
    assert not is_irreducible([1, 2])  # 2t + 1
    for constant in ([1], [2], [0]):
        assert not is_irreducible(constant)


def test_factorize_rejects_non_positive_integers():
    assert factorize(1) == [] and factorize(80) == [2, 2, 2, 2, 5]
    for n in (0, -8):
        with pytest.raises(ValueError):
            factorize(n)
    for d in (0, -1):
        with pytest.raises(ValueError):
            factorize_q_minus_1(d)


def _is_prime(n):
    return n > 1 and all(n % f for f in range(2, isqrt(n) + 1))


@pytest.mark.parametrize("d", range(1, 32))
def test_factorize_q_minus_1_matches_trial_division(d):
    # the cyclotomic split gives factorize's answer, and every factor is
    # prime by literal trial division
    factors = factorize_q_minus_1(d)
    assert factors == factorize(3**d - 1)
    assert prod(factors) == 3**d - 1
    for p in factors:
        assert _is_prime(p), p


@pytest.mark.parametrize("d", range(1, 32))
def test_cyclotomic_primes_are_one_mod_k(d):
    # Phi_k(3) = (3^k - 1) / prod of Phi_j(3) over j | k, j < k: each of its
    # primes divides 2k or is 1 mod k, the fact the split's divisors rest on
    phi = {}
    for k in (k for k in range(1, d + 1) if d % k == 0):
        phi[k] = (3**k - 1) // prod(phi[j] for j in phi if k % j == 0)
        for p in set(factorize(phi[k])):
            assert (2 * k) % p == 0 or p % k == 1, (k, p)


def test_irreducible_counts_match_gauss_formula():
    # every monic polynomial of degree n = 1..8. Gauss: sum_{k|n} k * I(k)
    # = 3^n, whose Mobius inversion gives I(n) = 3, 3, 8, 18, 48, 116, 312, 810
    counts = {}
    for n in range(1, 9):
        lows = itertools.product(range(3), repeat=n)
        counts[n] = sum(is_irreducible(low + (1,)) for low in lows)
        assert sum(k * counts[k] for k in counts if n % k == 0) == 3**n
    assert list(counts.values()) == [3, 3, 8, 18, 48, 116, 312, 810]


def test_default_moduli_pinned():
    for d, enc in enumerate(DEFAULT_MODULUS_ENCODINGS, start=1):
        low = tuple(enc // 3**i % 3 for i in range(d))
        assert make_context(d).modulus == low + (1,)


def _ben_or_reference(m):
    # Ben-Or's test with one gcd per k: m of degree d is reducible iff
    # gcd(m, t^(3^k) - t) != 1 for some k <= d/2. field._ben_or takes one
    # gcd of the product over k instead
    d = len(m) - 1
    mul, packed = _packed_mul(d, m), _packed(m)
    u = 1 << 8  # t
    for _ in range(d // 2):
        u = mul(mul(u, u), u)  # u -> u^3
        a, b = packed, field._mod3(u + (2 << 8), d)  # m and u - t
        while b:
            a, b = b, field._pdivmod(a, b)[1]
        if a >> 8:  # the gcd has degree >= 1
            return False
    return True


def test_default_moduli_match_a_ben_or_scan():
    # is_irreducible rejects a root 0, 1 or -1 before Ben-Or's test runs;
    # the same scan on the one-gcd-per-k reference alone finds the same
    # modulus at every d
    for d in range(1, DEGREE_CAP + 1):
        lows = (high_first[::-1] for high_first in itertools.product(range(3), repeat=d))
        scanned = next(low + (1,) for low in lows if _ben_or_reference(list(low) + [1]))
        assert _default_modulus(d) == scanned, d


@pytest.mark.parametrize("d", range(1, 9))
def test_ben_or_matches_the_reference_on_every_monic(d):
    for high_first in itertools.product(range(3), repeat=d):
        m = list(high_first[::-1]) + [1]
        want = _ben_or_reference(m)
        assert field._ben_or(m) == want and is_irreducible(m) == want, m


@pytest.mark.parametrize("d", range(9, 32))
def test_ben_or_matches_the_reference_on_random_candidates(d):
    # 200 seeded monic candidates: half with uniform coefficients, half
    # dense (every low coefficient nonzero, so Barrett reduces them)
    rng = random.Random(f"ben-or-{d}")
    for i in range(200):
        digits = (0, 1, 2) if i % 2 else (1, 2)
        m = [rng.choice(digits) for _ in range(d)] + [1]
        want = _ben_or_reference(m)
        assert field._ben_or(m) == want and is_irreducible(m) == want, m


def test_override_must_be_monic_of_right_degree():
    with pytest.raises(ParseError):
        make_context(2, [1, 0, 2])
    with pytest.raises(ParseError):
        make_context(2, [1, 0, 0, 1])


def test_degree_out_of_range():
    for d in (0, -3, 32, True):
        with pytest.raises(DegreeOutOfRange):
            make_context(d)
    # above the cap a packed product's slots would carry into each other
    with pytest.raises(DegreeOutOfRange):
        is_irreducible([1] + [0] * 31 + [1])


@pytest.mark.parametrize("d", range(1, 32))
def test_context_invariants(d):
    ctx = make_context(d)
    q = 3**d
    assert ctx.q == q
    prod = 1
    for p in ctx.q_minus_1_factors:
        assert _is_prime(p), p
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


def test_modulus_search_runs_once_per_cold_build(monkeypatch):
    calls = []
    search = field._default_modulus
    monkeypatch.setattr(field, "_default_modulus", lambda d: calls.append(d) or search(d))
    field._build_context.cache_clear()
    make_context(31)
    assert calls == [31]
    make_context(31)  # warm: no search
    assert calls == [31]
    field._build_context.cache_clear()
    make_context(31)
    assert calls == [31, 31]


@pytest.mark.parametrize("d", [1, 2, 4, 5, 16, 31])
def test_irreducibility_is_tested_once_per_modulus(d, monkeypatch):
    # a cold default build tests irreducibility inside the modulus search
    # only, an override on its cold call only, and a warm call not at all;
    # cache_clear() makes the next call cold again
    dense, test, tested = _dense_modulus(d), field.is_irreducible, []
    monkeypatch.setattr(field, "is_irreducible", lambda m: tested.append(tuple(m)) or test(m))
    field._default_modulus(d)
    searched = tested[:]  # the candidates the search tests, the default modulus last
    field._build_context.cache_clear()
    tested.clear()
    ctx = make_context(d)
    assert tested == searched and searched[-1] == ctx.modulus
    assert make_context(d) is ctx and make_context(d, ctx.modulus) is ctx
    assert make_context(d, list(ctx.modulus)) is ctx and tested == searched
    tested.clear()
    other = make_context(d, dense)
    assert tested == [dense] and other is not ctx
    assert make_context(d, dense) is other and tested == [dense]
    field._build_context.cache_clear()
    tested.clear()
    assert make_context(d) is not ctx and tested == searched


@pytest.mark.parametrize("d", range(1, 32))
def test_default_modulus_named_or_not_is_one_context(d):
    # make_context caches the context of the default modulus under that
    # modulus, so naming it, in either order after a cold cache, or
    # unpickling a context finds the same one
    field._build_context.cache_clear()
    named = make_context(d, _default_modulus(d))
    assert make_context(d) is named
    assert make_context(d, list(named.modulus)) is named
    field._build_context.cache_clear()
    ctx = make_context(d)
    assert make_context(d, ctx.modulus) is ctx
    assert pickle.loads(pickle.dumps(ctx)) is ctx


@pytest.mark.parametrize("d", range(1, 32))
def test_direct_construction_is_complete(d):
    # FieldContext builds every constant itself; make_context only caches
    ctx = make_context(d)
    direct = FieldContext(d, ctx.modulus)
    assert context_to_json(direct) == context_to_json(ctx)
    assert direct.q_minus_1_factors == ctx.q_minus_1_factors
    assert smallest_nonsquare(direct) == smallest_nonsquare(ctx)
    # the chain constants: the 2-Sylow table of g = beta^odd and
    # e_k = beta^(-k(odd+1)/2) for the cosets k = 0..3 (k = 0 at odd d);
    # tau is one of +-g^(2^(s-2)) = +-beta^((q-1)/4)
    q1 = ctx.q - 1
    odd = q1 // (q1 & -q1)
    even = d % 2 == 0
    cosets = tuple((ctx.beta ** (-k * (odd + 1) // 2)).coeffs for k in range(4 if even else 1))
    for c in (direct, ctx):
        assert c._sylow == ctx._sylow and c._dlog == ctx._dlog
        assert c._sylow[1] == (ctx.beta ** odd).coeffs
        assert c._coset_r_inv == cosets
        assert c.tau == (sqrt(ctx.minus_one) if even else None)
        if even:
            quartic = ctx.beta ** (q1 // 4)
            assert c.tau in (quartic, -quartic)


def test_context_equality_hash_and_repr():
    # equal by (d, modulus), whichever object holds it
    ctx = make_context(2)
    direct = FieldContext(2, ctx.modulus)
    assert direct is not ctx and direct == ctx and hash(direct) == hash(ctx)
    assert ctx != make_context(2, [2, 1, 1]) and ctx != make_context(3)
    assert ctx != "GF(9)"
    assert repr(ctx) == "FieldContext(d=2, modulus=[1,0,1])"


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


def _sparse_modulus(d, e, w):
    # a seeded irreducible whose t^d mod m has degree e and w nonzero terms
    # (the constant one among them), or None when 2,000 draws find none
    rng = random.Random(f"sparse-{d}-{e}-{w}")
    for _ in range(2000):
        low = [0] * d
        for i in {0, e} | set(rng.sample(range(1, e), w - len({0, e}))):
            low[i] = rng.choice((1, 2))
        if is_irreducible(low + [1]):
            return tuple(low) + (1,)
    return None


def _fold_moduli(d):
    # (name, modulus) at the edges of the sparse fold's test 2(e - 1) < d
    # and w <= 5 on t^d mod m of degree e and weight w: the largest e that
    # passes, with w = 5 where e allows it, the fold's worst slot case; one
    # degree more; and one term more
    edge = min((d + 1) // 2, d - 1)
    cases = [("fold edge", _sparse_modulus(d, edge, min(5, edge + 1)))]
    if edge + 1 < d:
        cases.append(("degree too high", _sparse_modulus(d, edge + 1, min(5, edge + 2))))
    if edge >= 5:
        cases.append(("weight too high", _sparse_modulus(d, edge, 6)))
    return cases


def _pmulmod(a, b, m):
    # schoolbook product and long division on coefficient lists: shares no
    # code with the packed products it checks, the sparse fold and Barrett;
    # m is monic of degree d
    d = len(m) - 1
    prod = [0] * (len(a) + len(b) - 1)
    for i, ai in enumerate(a):
        for j, bj in enumerate(b):
            prod[i + j] = (prod[i + j] + ai * bj) % 3
    for top in range(len(prod) - 1, d - 1, -1):
        f = prod[top]
        for i, c in enumerate(m):
            prod[top - d + i] = (prod[top - d + i] - f * c) % 3
    return prod[:d]


@pytest.mark.parametrize("d", range(1, 32))
def test_mul_matches_polynomial_reference(d):
    # the kernel _packed_mul picks and the Barrett product against
    # schoolbook multiply-and-divide on coefficient lists, for the default
    # modulus (the fold at every d), a dense one (Barrett from d = 4 on)
    # and the moduli at the edges of the fold's test
    rng = random.Random(d)
    moduli = [_default_modulus(d), _dense_modulus(d)] + [m for _, m in _fold_moduli(d)]
    assert None not in moduli
    for modulus in moduli:
        kernels = (_packed_mul(d, modulus), _barrett_mul(d, modulus))
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
            want = _packed(_pmulmod([c % 3 for c in a], b, modulus))
            assert [mul(_packed(a), _packed(b)) for mul in kernels] == [want, want]


def test_packed_mul_folds_exactly_where_its_test_holds(monkeypatch):
    # every default modulus takes the sparse fold, d = 27's with w = 5
    # among them; a modulus failing 2(e - 1) < d or w <= 5 takes Barrett
    def kernel(modulus):
        picked = []
        with monkeypatch.context() as patch:
            patch.setattr(field, "_fold_mul", lambda *args: picked.append("fold"))
            patch.setattr(field, "_barrett_mul", lambda *args: picked.append("barrett"))
            _packed_mul(len(modulus) - 1, modulus)
        return picked

    assert _default_modulus(27)[:6] == (2, 2, 1, 1, 0, 1)  # t^27 mod m: 1 + t + 2t^2 + 2t^3 + 2t^5
    for d in range(1, 32):
        assert kernel(_default_modulus(d)) == ["fold"], d
        assert kernel(_dense_modulus(d)) == ["fold" if d <= 3 else "barrett"], d
        for name, modulus in _fold_moduli(d):
            assert kernel(modulus) == ["fold" if name == "fold edge" else "barrett"], (d, name)


@given(st.integers(1, 6), st.data())
def test_pow_zero_is_one(d, data):
    ctx = make_context(d)
    x = ctx.from_int(data.draw(st.integers(1, ctx.q - 1)))
    assert x**0 == ctx.one


@pytest.mark.parametrize("d", [1, 2, 5, 31])
def test_pow_matches_repeated_multiplication(d):
    ctx = make_context(d)
    rng = random.Random(d)
    for _ in range(5):
        x, acc = ctx.random_nonzero(rng), ctx.one
        for n in range(40):
            assert x**n == acc
            acc *= x


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
    # the default modulus named or not: one cached context; a context built
    # directly has the same key, and its elements combine with the cached one's
    assert make_context(2, _default_modulus(2)) is a.ctx
    twin = FieldContext(2, _default_modulus(2))
    assert twin is not a.ctx and twin.key == a.ctx.key
    b = make_context(2).beta
    for apply in (operator.add, operator.sub, operator.mul, operator.truediv):
        # another degree, and the same degree with another modulus
        for other in (make_context(3).one, make_context(2, [2, 1, 1]).one):
            with pytest.raises(ContextMismatch):
                apply(a, other)
        with pytest.raises(TypeError):
            apply(a, 1)
        assert apply(b, twin.beta) == apply(b, a.ctx.beta)
        assert apply(twin.beta, b) == apply(a.ctx.beta, b)


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
    # x + x^3 + ... + x^{3^{d-1}}, computed independently by repeated cubing;
    # the dense moduli exercise every cross term of the weights' recurrence
    for d in (3, 5, 6, 16, 31):
        for ctx in (make_context(d), make_context(d, _dense_modulus(d))):
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


@pytest.mark.parametrize("d", range(1, 7))
def test_chi_table_matches_squares(d):
    ctx = make_context(d)
    squares = {(x * x).coeffs for x in ctx.elements()}
    table = ctx.chi_table()
    assert len(table) == ctx.q and table[0] - 1 == 0
    for x in ctx.elements():
        if x:
            assert table[x.encoding()] - 1 == (1 if x.coeffs in squares else -1)


@pytest.mark.parametrize("d", range(5, 14))
def test_chi_table_matches_squares_on_wide_lanes(d):
    # the square sweep on lanes of one, two and three chunks, in passes of
    # up to 3^7 lanes, for the default modulus and, up to the first degree
    # of three chunks, a dense one
    moduli = [None, _dense_modulus(d)] if d <= 11 else [None]
    for ctx in (make_context(d, modulus) for modulus in moduli):
        assert ctx.chi_table() == _squares_table(ctx)


def _squares_table(ctx):
    """chi + 1 by encoding, from the even powers of beta on packed ints."""
    table, mul, beta = bytearray(ctx.q), ctx._mul, ctx.beta.coeffs
    step, x = mul(beta, beta), 1
    for _ in range((ctx.q - 1) // 2):
        table[ctx._encode(x)] = 2
        x = mul(x, step)
    table[0] = 1
    return table


@pytest.mark.parametrize("d", [9, 13])
def test_oracle_sweeps_hold_a_few_passes(d):
    # a cold chi table and a naive_count hold, beside the table's q bytes,
    # at most 16 passes' bytes at their peak (0.35 MB at d = 9, 0.52 MB at
    # d = 13): the sweep keeps one pass at a time, whatever q is. The
    # layout and the halves are cached per degree, so they are built first.
    ctx = FieldContext(d, _default_modulus(d))
    curve = ShortCurve(ctx.one, ctx.beta)
    pass_bytes = _row_layout(d)[3]
    field._digit_halves(d)
    tracemalloc.start()
    try:
        ctx.chi_table()
        naive_count(curve)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= ctx.q + 16 * pass_bytes


@pytest.mark.parametrize("d, products", [(4, 36), (8, 486), (9, 1296)])
def test_chi_table_multiplication_count_pinned(d, products):
    # 3^k low squares, then per high half h^2 and the k cross terms 2*h*t^j
    ctx = FieldContext(d, _default_modulus(d))
    with count_muls(ctx) as calls:
        ctx.chi_table()
    assert calls[0] == products


@pytest.mark.parametrize("d", [*range(1, 14), 17])
def test_encode_row_matches_encode(d):
    # one whole pass of random slots up to the bound 6 + 4k, each lane
    # holding the bound at least once, on 5-byte lanes (one chunk of five
    # digits) at d <= 5, 10-byte lanes at d <= 10 and 15-byte lanes up to
    # the oracle cap: the whole field at d <= 7 and 3^7 lanes up to d = 13.
    # Above the cap, d = 17 reads 20-byte lanes into 4-byte items on a
    # pass of one row of 3^8 lanes.
    k, rng = d // 2, random.Random(d)
    top = 6 + 4 * k
    width = _lane_widths(d)[0]
    assert width == 5 * -(-d // 5)
    size = _row_layout(d)[2] * 3**k  # lanes of one pass
    assert size == max(3**k, min(3**d, 3**7))
    lanes = [
        bytes(top if j == i % d else rng.randrange(top + 1) for j in range(d))
        for i in range(size)
    ]
    packed = int.from_bytes(b"".join(lane.ljust(width, b"\0") for lane in lanes), "little")
    expected = [make_context(d)._encode(int.from_bytes(lane, "little")) for lane in lanes]
    assert list(_encode_row(d, packed)) == expected


@pytest.mark.parametrize("d", range(1, 10))
def test_encoder_passes_pinned(d, monkeypatch):
    # one encoder pass for the whole field at d <= 7 and one per 3^7 lanes
    # at d = 8..9, in a cold chi table, a naive_count and a char_sum_order
    # with b2 != 0 (cross terms in every row): a count the machine does not
    # move, which a sweep of one pass per row fails
    encode, calls = field._encode_row, []

    def counting(d, packed):
        calls.append(d)
        return encode(d, packed)

    monkeypatch.setattr(field, "_encode_row", counting)
    passes = 1 if d <= 7 else 3 ** (d - 7)
    ctx = FieldContext(d, _default_modulus(d))
    ctx.chi_table()
    assert len(calls) == passes
    naive_count(ShortCurve(ctx.one, ctx.one))
    assert len(calls) == 2 * passes
    red = reduce_curve(GeneralCurve(ctx.zero, ctx.one, ctx.zero, ctx.zero, ctx.one))
    assert red.b2 == ctx.one
    char_sum_order(red)
    assert calls == [d] * 3 * passes


@pytest.mark.parametrize("d", range(1, 5))
def test_logs_store_unreduced_keys(d):
    # the log table holds the q reduced keys after the build; an unreduced
    # key (slots <= 4) reads its reduction's log, and is stored on that read
    ctx = FieldContext(d, _default_modulus(d))
    log = inspect.getclosurevars(ctx._mul).nonlocals["log"]
    assert len(log) == ctx.q
    for a in map(_packed, itertools.product(range(5), repeat=d)):
        reduced = field._mod3(a, d)
        assert log[a] == log[reduced]
        assert a in log
    assert len(log) == 5**d


_SLOTS = ("_reduce", "_chain", "_cubic_pass", "_element", "_decode")


@pytest.mark.parametrize("d", range(1, 7))
def test_sum_and_chain_memos_equal_their_functions(d):
    # each of the five slots returns what its function returns, at every d:
    # the sum slot on packed sums with slots <= 6, the chain slot on every
    # nonzero x, the cubic slot's passes on (c2, c1), the element slot on
    # every reduced packed int and the decode slot on every encoding. At
    # d <= 4 each slot reads a memo of its function, empty after the build
    # and holding each key read once; above, the slots are the functions
    ctx = FieldContext(d, _default_modulus(d))
    memos = [getattr(ctx, slot).__self__ for slot in _SLOTS] if d <= 4 else []
    assert [type(memo) for memo in memos] == [field._Memo] * len(memos)
    assert [len(memo) for memo in memos] == [0] * len(memos)
    if d > 4:
        assert (ctx._reduce, ctx._chain) == (field._reducer(d), ctx._power_chain)
    rng = random.Random(d)
    digits = list(itertools.product(range(3), repeat=d))
    sums = itertools.product(range(7), repeat=d)
    if d > 4:
        sums = (rng.choices(range(7), k=d) for _ in range(500))
    for a in map(_packed, sums):
        assert ctx._reduce(a) == field._mod3(a, d)
    reduced = list(map(_packed, digits))
    for a in reduced[1:]:
        assert ctx._chain(a) == ctx._power_chain(a)
    keys = [(0, 0), (0, reduced[-1])] + [tuple(rng.sample(reduced, 2)) for _ in range(8)]
    for key in keys:
        assert tuple(ctx._cubic_pass(key)) == tuple(field._cubic_passes(ctx, *key))
    for a in reduced:
        assert ctx._element(a) == FieldElement(ctx, a) and ctx._element(a).coeffs == a
    for enc in range(ctx.q):
        packed = _packed(enc // 3**i % 3 for i in range(d))
        assert ctx._decode(enc) == FieldElement(ctx, packed)
    if memos:
        assert [len(memo) for memo in memos] == [7**d, ctx.q - 1, len(set(keys)), ctx.q, ctx.q]


@pytest.mark.parametrize("d", range(1, 5))
def test_cubic_memo_reads_equal_a_fresh_context(d):
    # at d <= 4 the a6-free pass of x^3 + c2 x^2 + c1 x over every x is
    # kept in a memo under (c2, c1), empty after the build; once filled,
    # every chi_sum_cubic equals the character sum over the elements of a
    # fresh context, for every c0: all (c2, c1) at d <= 2, 9 x 9 of them
    # (0 among them) above
    ctx, fresh = (FieldContext(d, _default_modulus(d)) for _ in range(2))
    memo = ctx._cubic_pass.__self__
    assert type(memo) is field._Memo and len(memo) == 0
    elements = list(ctx.elements())
    coeffs = elements if d <= 2 else [ctx.zero] + random.Random(d).sample(elements[1:], 8)
    keys = [(c2, c1) for c2 in coeffs for c1 in coeffs]
    for c2, c1 in keys:
        field.chi_sum_cubic(ctx, c2, c1, ctx.zero)  # the first read fills the memo
    assert len(memo) == len(keys) and all(len(passes) == 1 for passes in memo.values())
    table, mul = fresh.chi_table(), fresh._mul
    for c2, c1 in keys:
        g = [mul(mul(x + c2.coeffs, x) + c1.coeffs, x) for x in (y.coeffs for y in elements)]
        for c0 in elements:
            want = fresh.q + 1 + sum(table[fresh._encode(v + c0.coeffs)] - 1 for v in g)
            assert field.chi_sum_cubic(ctx, c2, c1, c0) == want
    assert len(memo) == len(keys) and len(fresh._cubic_pass.__self__) == 0


def test_memos_fill_consistently_across_threads():
    # threads racing on one fresh context's memos each store what the key
    # alone determines, so every read equals the slot's function
    ctx = FieldContext(4, _default_modulus(4))
    nonzero = [x.coeffs for x in ctx.elements() if x]
    sums = list(map(_packed, itertools.product(range(7), repeat=4)))
    expected_sums = [field._mod3(a, 4) for a in sums]
    expected_chains = [ctx._power_chain(x) for x in nonzero]
    cubics = [(c2, c1) for c2 in nonzero[:3] + [0] for c1 in nonzero + [0]]
    expected_cubics = [tuple(field._cubic_passes(ctx, c2, c1)) for c2, c1 in cubics]
    packed = [0] + nonzero  # the reduced keys, in encoding order
    memos = [getattr(ctx, slot).__self__ for slot in _SLOTS]
    for memo in memos:
        memo.clear()  # elements() filled the element memo
    wrong = []

    def read(offset):
        for i in range(len(sums)):
            a = sums[(i + offset) % len(sums)]
            if ctx._reduce(a) != expected_sums[(i + offset) % len(sums)]:
                wrong.append(a)
        for i, x in enumerate(nonzero):
            if ctx._chain(x) != expected_chains[i]:
                wrong.append(x)
        for i in range(len(cubics)):
            key = cubics[(i + offset) % len(cubics)]
            if ctx._cubic_pass(key) != expected_cubics[(i + offset) % len(cubics)]:
                wrong.append(key)
        # a race may build two objects for one value: equal values, not identity
        for i in range(ctx.q):
            enc = (i + offset) % ctx.q
            if ctx._element(packed[enc]).coeffs != packed[enc]:
                wrong.append(packed[enc])
            if ctx._decode(enc) != FieldElement(ctx, packed[enc]):
                wrong.append(enc)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        threads = [threading.Thread(target=read, args=(97 * k,)) for k in range(8)]
        for thread in threads:
            thread.start()
        for thread in threads:
            thread.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(thread.is_alive() for thread in threads)
    assert wrong == []
    assert [len(memo) for memo in memos] == [7**4, ctx.q - 1, len(cubics), ctx.q, ctx.q]


# ----------------------------------------------------------------------
# One object per element at q <= 81
# ----------------------------------------------------------------------


def _element_results(ctx, x, y):
    """What the element-level operations return for x and y, by operation name."""
    results = {"+": x + y, "-": x - y, "*": x * y, "neg": -x, "**": x**7, "**0": x**0}
    results["from_int"] = ctx.from_int(x.encoding())
    results["element"] = ctx.element(list(x.coeffs.to_bytes(ctx.d, "little")))
    results["decode"] = field.decode_element(ctx, str(x))
    if y:
        results["/"] = x / y
    if x:
        chain = PowerChain(ctx, x.coeffs)
        results.update({"inverse": x.inverse(), "**-1": x**-1, "chain.inverse": chain.inverse()})
        for sign in (1, -1, 0):
            results.update((f"roots{sign}.{i}", u) for i, u in enumerate(chain.roots(sign)))
        if ctx.d % 2:
            results.update((f"quartic.{i}", u) for i, u in enumerate(chain.quartic_roots()))
        if chain.j % 2 == 0:
            results["coset_root"] = chain.coset_root(0)
    results["sqrt"] = sqrt(x)
    results.update((f"fourth.{i}", u) for i, u in enumerate(fourth_roots(x)))
    return results


@pytest.mark.parametrize("d", range(1, 7))
def test_results_are_the_element_memos_objects(d):
    # every element-level result equals the packed reference. At d <= 4 it
    # is the one object the element memo keeps for its value, zero, one and
    # minus_one among them, and a single thread never builds a second one;
    # above 81 elements nothing is interned and each result is a new object
    ctx = FieldContext(d, _default_modulus(d))
    interned, rng = d <= 4, random.Random(d)
    if interned:
        memo = ctx._element.__self__
        elements = list(ctx.elements())
        assert all(x is memo[x.coeffs] for x in elements)
        assert ctx.zero is memo[0] and ctx.one is memo[1] and ctx.minus_one is memo[2]
        ys = elements if d <= 2 else [ctx.zero, ctx.one] + rng.sample(elements, 6)
        pairs = [(x, y) for x in elements for y in ys]
    else:
        pairs = [(ctx.random_element(rng), ctx.random_nonzero(rng)) for _ in range(200)]
    drawn = [ctx.random_element(rng) for _ in range(50)] + [ctx.random_nonzero(rng) for _ in range(50)]
    assert all((x is ctx._element(x.coeffs)) == interned for x in drawn)
    for x, y in pairs:
        a, b = x.coeffs, y.coeffs
        assert (x + y).coeffs == field._mod3(a + b, d)
        assert (x - y).coeffs == field._mod3(a + 2 * b, d)
        assert (-x).coeffs == field._mod3(2 * a, d)
        assert (x * y).coeffs == ctx._mul(a, b)
        assert (x**7).coeffs == ctx._pow(a, 7)
        assert (ctx.from_int(x.encoding()) is x) == interned
        assert (field.from_packed(ctx, a) is field.from_packed(ctx, a)) == interned
        for name, result in _element_results(ctx, x, y).items():
            if result is not None:
                assert result == FieldElement(ctx, result.coeffs), name
                assert (result is ctx._element(result.coeffs)) == interned, (name, x, y)
    if interned:
        assert len(memo) == len(ctx._decode.__self__) == ctx.q


@pytest.mark.parametrize("d", range(1, 5))
def test_a_fresh_context_holds_its_element_memos_empty(d):
    # the element and decode memos fill lazily, like the sum, chain and
    # cubic memos: nothing is built with the context
    ctx = FieldContext(d, _default_modulus(d))
    element, decode = ctx._element.__self__, ctx._decode.__self__
    assert type(element) is type(decode) is field._Memo
    assert (len(element), len(decode)) == (0, 0)
    x = ctx.from_int(ctx.q - 1)
    assert (len(element), len(decode)) == (1, 1)
    assert decode[ctx.q - 1] is x is element[x.coeffs]


@pytest.mark.parametrize("d", range(1, 7))
def test_packed_order_is_encoding_order(d):
    # byte i of a reduced packed int and base-3 digit i of its encoding both
    # hold c_i, with c_{d-1} the most significant: the two orders agree, so
    # roots and witnesses sort by the packed int
    elements = list(make_context(d).elements())
    shuffled = random.Random(d).sample(elements, len(elements))
    assert sorted(shuffled, key=lambda x: x.coeffs) == sorted(shuffled, key=FieldElement.encoding)
    assert sorted(shuffled, key=lambda x: x.coeffs) == elements


def test_packed_order_is_encoding_order_at_the_degree_cap():
    ctx, rng = make_context(31), random.Random(31)
    elements = [ctx.random_element(rng) for _ in range(1000)]
    assert sorted(elements, key=lambda x: x.coeffs) == sorted(elements, key=FieldElement.encoding)
    assert [x.encoding() for x in sorted(elements, key=lambda x: x.coeffs)] == sorted(
        x.encoding() for x in elements
    )


def test_row_slots_and_lane_reads_fit_every_degree():
    # from the constants alone: no row layout is built above the oracle cap.
    # A lane holds its d digits in chunks of five, the chunk product sums
    # at most 242 into a byte, and a read item holds every encoding.
    weights = _CHUNK.to_bytes(5, "little")
    assert weights == bytes([81, 27, 9, 3, 1]) and 2 * sum(weights) == 242
    for d in range(1, DEGREE_CAP + 1):
        width, item = _lane_widths(d)
        assert width % 5 == 0 and d <= width < d + 5
        assert item & (item - 1) == 0 and width // 5 <= item <= 8
        assert 6 + 4 * (d // 2) < 256
        assert 3**d <= 256**item
    for d in range(1, 14):
        assert 3**d <= ORACLE_CAP
        fmt = _row_layout(d)[6]
        assert struct.calcsize(fmt) == _lane_widths(d)[1]  # native sizes, as the casts read


@pytest.mark.parametrize("d", range(1, 5))
def test_chi_ignores_a_planted_table(d):
    # chi is Euler's criterion on the Euler power: a wrong table on the
    # context must not reach it
    ctx = FieldContext(d, _default_modulus(d))
    ctx._chi_table = bytearray([2]) * ctx.q  # claims every element is a square
    squares = {(x * x).coeffs for x in ctx.elements()}
    for x in ctx.elements():
        if x:
            assert chi(x) == (1 if x.coeffs in squares else -1)


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
    # fourth-power membership as the library decides it: fourth_roots, and
    # the coset test of the classification dispatch, j mod 4, on the
    # PowerChain (at odd d, j is 0 or 1 and squares are fourth powers)
    ctx = make_context(d)
    table = {(x**4).coeffs for x in (ctx.from_int(e) for e in range(1, ctx.q))}
    for enc in range(1, ctx.q):
        x = ctx.from_int(enc)
        member = x.coeffs in table
        assert bool(fourth_roots(x)) == member
        assert (PowerChain(ctx, x.coeffs).j % 4 == 0) == member


def test_is_fourth_power_gf9_vectors():
    ctx = make_context(2)
    assert ctx.element("1,1") in fourth_roots(ctx.element(2))  # 2 = (1+t)^4
    assert fourth_roots(ctx.element("0,2")) == []  # 2t = beta^2
    assert fourth_roots(ctx.zero) == [ctx.zero]


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


@pytest.mark.parametrize("d", range(1, 32))
def test_power_chain_matches_direct_powers(d):
    # every nonzero x for d <= 6, else 200 seeded ones; default and dense modulus
    for modulus in (_default_modulus(d), _dense_modulus(d)):
        ctx = make_context(d, modulus)
        q1 = ctx.q - 1
        if d <= 6:
            xs = [ctx.from_int(enc) for enc in range(1, ctx.q)]
        else:
            rng = random.Random(d)
            xs = [ctx.random_nonzero(rng) for _ in range(200)]
        size = q1 & -q1  # 2^s
        odd = q1 // size
        for x in xs:
            chain = PowerChain(ctx, x.coeffs)
            assert chain.inverse() == x.inverse()
            assert (-1) ** chain.j == chi(x)
            # t = x^odd = g^j, and r^2 = x * t; for odd d t = chi(x)
            r, t = FieldElement(ctx, chain.r), FieldElement(ctx, chain.t)
            assert t == x**odd and chain.t == ctx._sylow[chain.j]
            assert r * r == x * t
            # x^((q-1)/4) = t^(2^(s-2)), read through j
            if d % 2 == 0:
                assert ctx._sylow[chain.j * (size // 4) % size] == (x ** (q1 // 4)).coeffs
            roots = chain.roots(1)
            assert len(roots) == (2 if chain.j % 2 == 0 else 0)
            assert all(root * root == x for root in roots)


def _frobenius_cases(ctx):
    """1, -1, the smallest non-square and 12 seeded nonzero elements, packed."""
    rng = random.Random(ctx.d)
    seeded = [ctx.random_nonzero(rng).coeffs for _ in range(12)]
    return [1, 2, smallest_nonsquare(ctx).coeffs] + seeded


@pytest.mark.parametrize("d", range(1, 32))
def test_frobenius_maps_match_pow(d):
    # every map the context builds is x -> x^(3^k), on the default and a
    # dense modulus; 0 maps to 0. Lookups at d <= 4, packed matrices above
    for modulus in (_default_modulus(d), _dense_modulus(d)):
        ctx = make_context(d, modulus)
        assert sorted(ctx._frobenius) == [1] + [2**j for j in range(1, d) if 2**j < d - 1]
        assert all(isinstance(f, _FrobeniusMap) for f in ctx._frobenius.values()) == (d > 4)
        for k, frobenius in ctx._frobenius.items():
            assert frobenius(0) == 0
            for x in _frobenius_cases(ctx):
                assert frobenius(x) == ctx._pow(x, 3**k)


@pytest.mark.parametrize("d", range(1, 5))
def test_table_kernels_match_barrett_and_matrix_maps(d):
    # at d <= 4 the context multiplies and maps by lookup, and _pow runs on
    # the same tables, so these are checked against the packed kernels:
    # the product equals a fresh Barrett product on every element times
    # every operand with slots <= 4 (every element among them), and each
    # map equals the _FrobeniusMap of t^(3^k) on every element
    for modulus in (_default_modulus(d), _dense_modulus(d)):
        ctx = make_context(d, modulus)
        barrett = _barrett_mul(d, modulus)
        elements = [x.coeffs for x in ctx.elements()]
        for a in map(_packed, itertools.product(range(5), repeat=d)):
            for b in elements:
                want = barrett(a, b)
                assert ctx._mul(a, b) == want and ctx._mul(b, a) == want, (a, b)
        for k, frobenius in ctx._frobenius.items():
            g = barrett(1, 1 << 8)  # t, reduced
            for _ in range(k):
                g = barrett(barrett(g, g), g)
            matrix = _FrobeniusMap(d, g, barrett)
            assert [frobenius(x) for x in elements] == [matrix(x) for x in elements], k


def test_frobenius_map_set_pinned():
    # k = 1 and every power of two below d - 1: the maps _repunit_pow reads
    # for the Euler power's (k, n) = (1, d - 1) and PowerChain's (2p, n)
    # and (1, p), and the chain's map of p, p = d & -d
    pins = {
        1: [1], 2: [1], 4: [1, 2], 17: [1, 2, 4, 8], 18: [1, 2, 4, 8, 16], 31: [1, 2, 4, 8, 16]
    }
    for d, keys in pins.items():
        assert sorted(make_context(d)._frobenius) == keys


@pytest.mark.parametrize("d", range(1, 32))
def test_repunit_powers_match_pow(d):
    # the repunit identities, and the powers they give equal _pow with the
    # original exponents: the Euler power's (q - 3) / 2, q - 2 and
    # PowerChain's (odd - 1) / 2 at every d, and its one-path identity
    # v = x^(c * 3^p * sum_{j<n} 9^(p*j)), w = h * v^((3^p + 1) / 2) when
    # n > 0, with v = x^((q - 3) / 8) at odd d; on the default and a dense
    # modulus
    q, m = 3**d, (d - 1) // 2
    s = ((q - 1) & (1 - q)).bit_length() - 1
    odd = (q - 1) >> s
    p = d & -d
    c, n = (3**p - 1) >> s, (d // p - 1) // 2
    assert (q - 3) // 2 * 2 == q - 3 == 6 * sum(3**i for i in range(d - 1))
    assert (odd - 1) // 2 == (c - 1) // 2 + c * 3**p * ((3**p + 1) // 2) * sum(
        9 ** (p * j) for j in range(n)
    )
    if d % 2:
        assert (q - 3) % 8 == 0 and (q - 3) // 8 == 3 * sum(9**j for j in range(m))
    for modulus in (_default_modulus(d), _dense_modulus(d)):
        ctx = make_context(d, modulus)
        for x in _frobenius_cases(ctx):
            assert ctx._euler_power(x) == ctx._pow(x, (q - 3) // 2)
            assert FieldElement(ctx, x).inverse().coeffs == ctx._pow(x, q - 2)
            chain = PowerChain(ctx, x)
            assert chain.w == ctx._pow(x, (odd - 1) // 2)
            if n:
                h = ctx._pow(x, (c - 1) // 2)
                v_exponent = c * 3**p * sum(9 ** (p * j) for j in range(n))
                assert chain.v == ctx._pow(x, v_exponent)
                assert chain.w == ctx._mul(h, ctx._pow(chain.v, (3**p + 1) // 2))
            if d % 2:
                assert chain.v == ctx._pow(x, (q - 3) // 8)


# (products, Frobenius maps) of one PowerChain for d = 16..31: the power
# w, then r and t; the same for every nonzero x.
POWER_CHAIN_COUNTS = {
    16: (14, 3), 17: (6, 4), 18: (6, 4), 19: (7, 5), 20: (10, 4), 21: (7, 5),
    22: (7, 5), 23: (8, 6), 24: (15, 5), 25: (7, 5), 26: (7, 5), 27: (8, 6),
    28: (11, 5), 29: (8, 6), 30: (8, 6), 31: (9, 7),
}


def test_power_chain_cost_pinned():
    for d, pin in POWER_CHAIN_COUNTS.items():
        ctx = make_context(d)
        with count_muls(ctx) as calls:
            PowerChain(ctx, ctx.alpha.coeffs)
        assert (d, tuple(calls)) == (d, pin)


def _trace_invariant_pairs(d):
    """Every (x, a6) with x nonzero at d <= 3, else 200 pairs drawn with Random(d)."""
    ctx = make_context(d)
    if d <= 3:
        return [(x, a6) for x in list(ctx.elements())[1:] for a6 in ctx.elements()]
    rng = random.Random(d)
    return [(ctx.random_nonzero(rng), ctx.random_element(rng)) for _ in range(200)]


@pytest.mark.parametrize("d", [1, 2, 3, 12, 20, 31])
def test_trace_invariant_matches_the_element_products(d):
    # gamma, x^-1 and the trace agree with the element-level
    # trace(a6 * coset_root(0) * inverse() * inverse()), for every x,
    # whatever the parity of its exponent j
    for x, a6 in _trace_invariant_pairs(d):
        chain = PowerChain(x.ctx, x.coeffs)
        gamma, inv = chain.coset_root(0), chain.inverse()
        assert chain.trace_invariant(a6.coeffs) == (
            gamma.coeffs, inv.coeffs, trace(a6 * gamma * inv * inv)
        )


# (products, Frobenius maps) of trace_invariant over the 200 seeded pairs
# of _trace_invariant_pairs, their chains built outside the count: at d = 31
# g = -1, so coset_root(0) and the g-power of the inverse are negations at
# most, and each call makes w * w and the three products of the trace
TRACE_INVARIANT_COUNTS = {20: [1156, 0], 31: [800, 0]}


@pytest.mark.parametrize("d", sorted(TRACE_INVARIANT_COUNTS))
def test_trace_invariant_cost_pinned(d):
    pairs = _trace_invariant_pairs(d)
    ctx = pairs[0][0].ctx
    chains = [PowerChain(ctx, x.coeffs) for x, _ in pairs]
    with count_muls(ctx) as calls:
        for chain, (_, a6) in zip(chains, pairs):
            chain.trace_invariant(a6.coeffs)
    assert calls == TRACE_INVARIANT_COUNTS[d]


# (products, Frobenius maps) of one public chi for d = 16..31: Euler's
# criterion, x^3, the repunit power of length d - 1 and the product by x,
# (steps + 1, steps + 1) with steps = bitlen(d - 1) - 1 + popcount(d - 1) - 1.
CHI_COUNTS = {
    16: (7, 7), 17: (5, 5), 18: (6, 6), 19: (6, 6), 20: (7, 7), 21: (6, 6),
    22: (7, 7), 23: (7, 7), 24: (8, 8), 25: (6, 6), 26: (7, 7), 27: (7, 7),
    28: (8, 8), 29: (7, 7), 30: (8, 8), 31: (8, 8),
}


def test_chi_cost_pinned():
    assert CHI_COUNTS == {
        d: (steps + 1, steps + 1)
        for d in range(16, 32)
        for steps in [(d - 1).bit_length() - 1 + bin(d - 1).count("1") - 1]
    }
    for d, pin in CHI_COUNTS.items():
        ctx = make_context(d)
        with count_muls(ctx) as calls:
            chi(ctx.alpha)
        assert (d, tuple(calls)) == (d, pin)


@pytest.mark.parametrize("d", range(1, 32))
def test_sylow_table_holds_the_powers_of_beta_odd(d):
    # 2^s distinct g^j for g = beta^odd, read literally with **, and _dlog
    # their inverse
    ctx = make_context(d)
    q1 = ctx.q - 1
    size = q1 & -q1
    g = ctx.beta ** (q1 // size)
    assert len(ctx._sylow) == len(set(ctx._sylow)) == size <= 64
    for j, g_j in enumerate(ctx._sylow):
        assert g_j == (g**j).coeffs
        assert ctx._dlog[g_j] == j
    assert len(ctx._dlog) == size


def test_chain_exponent_is_relative_to_beta():
    # at d = 8 the smallest non-square n = 3 is not beta = 38, so a table
    # built from n^odd would give other exponents: j is k mod 2^s for beta^k
    ctx = make_context(8)
    assert (smallest_nonsquare(ctx).encoding(), ctx.beta.encoding()) == (3, 38)
    x = ctx.one
    for k in range(ctx.q - 1):
        assert PowerChain(ctx, x.coeffs).j == k % 32
        x *= ctx.beta


@pytest.mark.parametrize(
    "k, n", [(1, 0), (1, 1), (1, 3), (1, 7), (1, 16), (1, 30), (2, 3), (2, 8), (2, 15)]
)
def test_repunit_pow_cost(k, n):
    # one product and one map per binary digit after the first, and one more
    # of each per 1 among them (none at n = 0); the (k, n) of d = 31's chains,
    # their prefixes, and powers of two, whose one 1 is the top digit
    ctx = make_context(31)
    steps = max(0, n.bit_length() - 1 + bin(n).count("1") - 1)
    with count_muls(ctx) as calls:
        ctx._repunit_pow(ctx.beta.coeffs, k, n)
    assert calls == [steps, steps]


def test_frobenius_maps_stay_small():
    # the maps are built with every context, so the bulk degrees' maps must
    # stay within 0.1 MB
    ctxs = [make_context(d) for d in range(16, 32)]
    tracemalloc.start()
    try:
        maps = [ctx._build_frobenius() for ctx in ctxs]
        held = tracemalloc.get_traced_memory()[0]
    finally:
        tracemalloc.stop()
    assert len(maps) == 16 and held <= 100_000


# Total (products, Frobenius maps) of a cold FieldContext(d, modulus) over
# d = 16..31: the maps' build, the constants' scan (Euler's criterion per
# candidate), the beta chain, its 2-Sylow table, and the even-d coset
# constants e_1, e_2, e_3.
COLD_BUILD_COUNTS = (7_053, 1_065)


def _count_products(monkeypatch, calls):
    """Make every product kernel _packed_mul picks add 1 to calls[0]."""
    packed_mul = field._packed_mul

    def counting_packed_mul(d, modulus):
        mul = packed_mul(d, modulus)

        def counting(a, b):
            calls[0] += 1
            return mul(a, b)

        return counting

    monkeypatch.setattr(field, "_packed_mul", counting_packed_mul)


def test_cold_build_counts_pinned(monkeypatch):
    moduli = {d: _default_modulus(d) for d in range(16, 32)}
    calls, apply = [0, 0], field._FrobeniusMap.__call__

    def counting_apply(self, x):
        calls[1] += 1
        return apply(self, x)

    _count_products(monkeypatch, calls)
    monkeypatch.setattr(field._FrobeniusMap, "__call__", counting_apply)
    for d, modulus in moduli.items():
        FieldContext(d, modulus)
    assert tuple(calls) == COLD_BUILD_COUNTS


# Total (products, _pdivmod calls) of the default modulus search over
# d = 16..31: the products of each Ben-Or candidate's t^(3^k) and running
# product, and the long divisions of its one gcd and of Barrett's mu.
SEARCH_COUNTS = (8_796, 1_816)
# Total trial divisors factorize_q_minus_1 tries over d = 1..31: the
# primes of 2k and the f = 1 mod lcm(2, k) of each piece Phi_k(3).
TRIAL_DIVISOR_COUNT = 3_439


def test_search_counts_pinned(monkeypatch):
    calls, pdivmod = [0, 0], field._pdivmod

    def counting_pdivmod(a, m):
        calls[1] += 1
        return pdivmod(a, m)

    _count_products(monkeypatch, calls)
    monkeypatch.setattr(field, "_pdivmod", counting_pdivmod)
    for d in range(16, 32):
        _default_modulus(d)
    assert tuple(calls) == SEARCH_COUNTS


def test_trial_divisor_count_pinned(monkeypatch):
    tried, divide_out = [], factor._divide_out
    monkeypatch.setattr(
        factor, "_divide_out", lambda n, f, factors: tried.append(f) or divide_out(n, f, factors)
    )
    for d in range(1, 32):
        factorize_q_minus_1(d)
    assert len(tried) == TRIAL_DIVISOR_COUNT


@pytest.mark.parametrize("d", range(1, 32))
def test_constants_are_the_smallest(d):
    # read literally with **: the smallest non-square n, and beta is the
    # smallest element that no prime p of q - 1 sends to 1 under x^((q-1)/p)
    ctx = make_context(d)
    q, one = ctx.q, ctx.one
    n = smallest_nonsquare(ctx).encoding()
    for enc in range(1, n):
        assert ctx.from_int(enc) ** ((q - 1) // 2) == one
    assert ctx.from_int(n) ** ((q - 1) // 2) != one
    primes = set(ctx.q_minus_1_factors)
    for enc in range(2, ctx.beta.encoding()):
        assert any(ctx.from_int(enc) ** ((q - 1) // p) == one for p in primes)


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
    # the +-w step under fourth_roots, against squaring every element
    by_square = {}
    for x in ctx.elements():
        by_square.setdefault((x * x).coeffs, []).append(x)
    for enc in range(1, ctx.q):
        w = ctx.from_int(enc)
        for sign, targets in ((1, [w]), (-1, [-w]), (0, [w, -w])):
            expected = [x for t in targets for x in by_square.get(t.coeffs, [])]
            got = PowerChain(ctx, w.coeffs).roots(sign)
            assert got == sorted(expected, key=lambda e: e.encoding())


@pytest.mark.parametrize("d", [1, 3, 5])
def test_quartic_roots_exhaustive(d):
    # at odd d, +-r*v of x's chain are the fourth roots of whichever of +-x
    # is a square, and the other has none; against every element's u^4
    ctx = make_context(d)
    by_fourth = {}
    for u in ctx.elements():
        by_fourth.setdefault((u**4).coeffs, []).append(u)
    for enc in range(1, ctx.q):
        x = ctx.from_int(enc)
        plus, minus = by_fourth.get(x.coeffs, []), by_fourth.get((-x).coeffs, [])
        assert len(plus + minus) == 2 and not (plus and minus)
        got = PowerChain(ctx, x.coeffs).quartic_roots()
        assert got == sorted(plus + minus, key=FieldElement.encoding)


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


def test_solver_rejects_mixed_contexts():
    with pytest.raises(ContextMismatch):
        solve_linearized(make_context(2).one, make_context(3).one)
    with pytest.raises(ContextMismatch):
        solve_linearized(make_context(2).one, make_context(2, [2, 1, 1]).one)


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
    assert decode_element(ctx, " 1 , 0 ") == ctx.from_int(1)
    # ASCII decimal digits only: no underscore, other script's digits or sign
    for text in ("1_0", "0_1", "\u0661", "+1", "-0", "", "1,", "0x1", "1.0"):
        with pytest.raises(ParseError):
            decode_element(ctx, text)


def test_element_from_a_coefficient_sequence():
    ctx = make_context(2)
    assert ctx.element([1, 2]) == ctx.from_int(7) == ctx.element((1, 2))
    assert ctx.element(ctx.one) is ctx.one
    for bad in ([1], [1, 2, 0], [3, 0], [0, -1]):
        with pytest.raises(ParseError):
            ctx.element(bad)
    with pytest.raises(ContextMismatch):
        ctx.element(make_context(3).one)


def test_coefficients_must_be_integers():
    # each coefficient is read by operator.index: a float is not truncated
    # (1.7 used to become 1) and text or None is a ParseError, not a bare
    # ValueError or TypeError; a modulus is still read mod 3
    ctx = make_context(2)
    with pytest.raises(ParseError):
        ctx.element([1.7, 0.2])
    with pytest.raises(ParseError):
        ctx.element([None, 0])
    with pytest.raises(ParseError):
        make_context(2, [1.7, 0, 1])
    with pytest.raises(ParseError):
        make_context(2, ["x", 0, 1])
    assert make_context(2, [4, 0, 1]) is make_context(2, [1, 0, 1])


def test_from_int_checks_the_range():
    ctx = make_context(2)
    assert ctx.from_int(0) == ctx.zero and ctx.from_int(8) == ctx.element("2,2")
    for enc in (-1, 9, 3**5):
        with pytest.raises(ParseError):
            ctx.from_int(enc)


@pytest.mark.parametrize("d", range(1, 7))
def test_from_int_refuses_a_non_integer_at_every_degree(d):
    # the encoding is read by operator.index before the range check, as
    # element and the modulus override read theirs: a float, which would
    # pass the range check, or a string is a ParseError at every degree
    ctx = make_context(d)
    for value in (2.0, "3"):
        with pytest.raises(ParseError, match="^encoding must be an integer, got "):
            ctx.from_int(value)


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
