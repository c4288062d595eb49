"""Exact arithmetic in GF(3^d).

An element is one Kronecker-packed int: byte i holds the coefficient
c_i in {0, 1, 2} of t^i in the power basis of a monic irreducible modulus.
Sums and differences are plain integer additions whose bytes are reduced
mod 3 by one bytes.translate; a product is one big-integer multiply
reduced mod the modulus by one of two kernels, chosen once per modulus
(_packed_mul): two folds of the high part times t^d mod m when that
polynomial is short and sparse, as in every default modulus, and
polynomial Barrett reduction otherwise. A product may take one operand
unreduced (slots <= 4); its slots then hold at most 8d <= 248, which is
why d is capped at 31 (DEGREE_CAP). Callers reach every kernel through
the context's slots, which at q <= 81 read memos of the same kernels.

A FieldContext fixes the modulus together with the constants the
classification machinery needs: a primitive root beta, a trace-one element
alpha, (for even d) a square root tau of -1, and for PowerChain the table
of the 2-Sylow subgroup of the units, q - 1 = 2^s * odd (the powers of
g = beta^odd by exponent and back, 2^s <= 64 of them) and one constant
per fourth-power coset k of beta^k, k = 0..3 (k = 0 alone at odd d). The
smallest non-square n and beta are found by one scan of the
elements in encoding order, where the encoding of (c0, ..., c_{d-1}) is
the base-3 integer c0 + 3*c1 + ... + 3^{d-1}*c_{d-1}. FieldContext(d,
modulus) computes all of them when constructed; make_context adds
validation and the one cache.

The brute-force oracles live here too, each bounded by ORACLE_CAP
(check_oracle_cap) on the elements it visits. They sweep the field in
passes: each x is h + l over two digit halves, the low one on
t^0..t^(k-1) and the high one on t^k..t^(d-1), k = d // 2
(_digit_halves). The halves share no digit, so x encodes as enc(h) +
enc(l). A row, the elements of one h over every l, is built from a few
products, and one packed big int holds a pass of consecutive rows,
min(q, max(3^7, 3^k)) lanes of 5, 10 and 20 bytes at d <= 5, 10 and 20
(_lane_widths; _sweep_rows): the whole field at d <= 7 and q / 3^7
passes at d = 8..13. One _encode_row call reads the chunk codes of a
pass, each lane's base-243 digits read in base 256 (_chunk_code), by one
product, which sums each chunk of five digits of a lane into one byte,
one slice and, above d = 5, one memoryview cast. The chi table holds chi + 1 by chunk
code and is built from the squares by the same sweep over h = 0 and one
of each pair +-h. The cubic sum (chi_sum_cubic) reads it one pass at a
time, each half taking x^3 from the context's kept cubes of the halves,
so a short curve costs one product per half element; the trace-fiber
sum (chi_sum_fiber) reads it one row at a time, from code(h) at the
codes of the lows (_half_codes, _picker).

The long exponents are made of base-3 repunits at every d. One Euler
power z = x^((q-3)/2) gives chi, as Euler's criterion z*x, x^-1 = z^2*x
and the scan's quadratic test; PowerChain takes its powers by one
identity at every d, among them v = x^((q-3)/8) at odd d, whose r*v are
fourth roots. Each context keeps the F3-linear Frobenius maps
x -> x^(3^k) for k = 1 and every power of two below d - 1, one packed
d x d matrix each, applied by one big-int product (_FrobeniusMap), and
_repunit_pow raises to sum_{i<n} 3^(k*i) on them by Itoh-Tsujii, with
about log2(n) + popcount(n) products and as many maps.

Five slots of a context are one-argument functions at every q: the
reduction of a packed sum (_reduce), the powers (v, w, r, t) of a
PowerChain (_chain), the passes of x^3 + c2 x^2 + c1 x over the field,
to which chi_sum_cubic adds c0 (_cubic_pass, keyed by (c2, c1)), the
FieldElement of a reduced packed int (_element) and that of an
encoding (_decode). Every element-level result is built by the element
slot: +, - and negation on the sum slot's reduction, * on the product,
and powers, inverses, from_int, elements(), the PowerChain roots and the
class witnesses (from_packed) alike. Fields of at most 81 elements have
one rule: the product, each Frobenius map and each of the five slots
reads a memo of its function (_Memo), empty when the context is built
and filled one key at a time on first read. Its keys are bounded by
what callers pass: at most 2 * 5^d * q operand pairs (a, b) for the
product, kept in rows by a, one operand reduced and the other with
slots <= 4, q reduced elements per map, 7^d sums (the slots of a + 2*b
are at most 6), q - 1 chains, q^2 cubic keys, whose one pass covers the
field, and q elements and encodings. So such a field builds each element once; above 81
elements each result is a new FieldElement.

Contexts are safe to share across threads. Nothing changes after
construction but structures that fill lazily, each idempotently: the
character table; the cubes of the digit halves; the representatives'
slot, which holds each class representative beside the LinearizedMap of
its a4 (classify fills it); and, at d <= 4, the memos of the product,
of each Frobenius map and of the five slots. Each stores a value that
its key alone determines, so threads that race on any of them store
equal values, and whichever one is stored is correct; two racing
threads may each build an element for one value, equal but not the
same object.

A context pickles as its key (d, modulus) and unpickles to the cached
context of make_context, and an element as its context and packed int,
so at q <= 81 it unpickles to the one element of its value.
"""

from __future__ import annotations

import collections
import functools
import itertools
import sys
from operator import attrgetter, index, itemgetter
from typing import Callable, Iterable, Iterator, Optional, Sequence, Union

from .errors import (
    ContextMismatch,
    DegreeOutOfRange,
    DivisionByZero,
    ModulusReducible,
    OracleTooLarge,
    ParseError,
)
from .factor import factorize_q_minus_1

# A product slot sums at most d byte products. With one operand unreduced
# (slots <= 4, as the oracles' Horner steps pass it) and the other reduced,
# a slot holds at most 8d <= 248, so for d <= 31 no slot carries into the
# next one. The sparse fold then reduces the product mod 3 and adds
# products by t^d mod m of weight w <= 5: its slots hold at most
# 2 + 4w + 8w^2 <= 222 (_fold_mul), whatever d is.
DEGREE_CAP = 31
# Fields of at most this many elements (d <= 4) read the product, the
# Frobenius maps and the five one-argument slots through memos (_Memo).
_MEMO_LIMIT = 3**4
# The most elements a brute-force oracle enumerates.
ORACLE_CAP = 3**13
_CUBE_TABLE_LIMIT = 3**8

# slot value -> slot value mod 3, and -> its ASCII digit mod 3
_MOD3 = bytes(v % 3 for v in range(256))
_DIGITS = bytes(ord("0") + v % 3 for v in range(256))


def _mod3(x: int, width: int) -> int:
    """Reduce every byte of a packed int mod 3; width is its length in bytes."""
    return int.from_bytes(x.to_bytes(width, "little").translate(_MOD3), "little")


@functools.lru_cache(maxsize=None)
def _reducer(d: int) -> Callable[[int], int]:
    """_mod3 at width d as a one-argument kernel: a context's general _reduce."""

    def reduce(x: int) -> int:
        return int.from_bytes(x.to_bytes(d, "little").translate(_MOD3), "little")

    return reduce


def check_oracle_cap(q: int) -> None:
    """Raise OracleTooLarge when a sweep over the q elements exceeds ORACLE_CAP."""
    if q > ORACLE_CAP:
        raise OracleTooLarge(f"q = {q} exceeds the enumeration cap {ORACLE_CAP}")


# ----------------------------------------------------------------------
# Polynomials over F3, packed like elements: byte i is the coefficient of
# t^i. Modulus selection, the irreducibility test and the Barrett constant
# run on these; element arithmetic lives on the context.
# ----------------------------------------------------------------------


def _pdivmod(a: int, m: int) -> tuple[int, int]:
    """Quotient and remainder of packed polynomials with slots in {0, 1, 2}.

    m must be nonzero. Each step cancels the leading term of a; the leading
    coefficient of m is 1 or 2, its own inverse mod 3.
    """
    dm = (m.bit_length() - 1) >> 3
    lead = m >> 8 * dm
    quo = 0
    while (da := (a.bit_length() - 1) >> 3) >= dm:  # -1 once a is 0
        f = (a >> 8 * da) * lead % 3
        shift = 8 * (da - dm)
        quo |= f << shift
        a = _mod3(a + (2 * f * m << shift), da + 1)  # a - f * m * t^(da - dm)
    return quo, a


def is_irreducible(coeffs: Sequence[int]) -> bool:
    """Irreducibility of a monic polynomial over F3 (Ben-Or's test).

    A degree-d polynomial m is reducible iff it shares a factor with
    t^{3^k} - t for some k <= d/2, since any irreducible factor of degree
    k divides that polynomial; so iff gcd(m, prod_{k <= d/2} (t^{3^k} - t)
    mod m) != 1: one gcd covers every k (Gao and Panario, 1997). _ben_or
    builds that product with m's own packed product (_packed_mul) and runs
    the gcd on packed remainders (_pdivmod). Coefficients are read mod 3.
    From degree 2 on, a root 0, 1 or -1 rejects m before any of that is
    built (_ben_or runs the test alone).

    Raises:
        DegreeOutOfRange: for degree above DEGREE_CAP, the packed
            product's slot bound.
    """
    m = [int(c) % 3 for c in coeffs]
    d = len(m) - 1
    if d > DEGREE_CAP:
        raise DegreeOutOfRange(f"degree {d} exceeds {DEGREE_CAP}")
    if d < 1 or m[-1] != 1:
        return False
    # m(0) = c0, m(1) = sum c_i and m(-1) = sum (-1)^i c_i, mod 3
    if d >= 2 and 0 in (m[0], sum(m) % 3, (sum(m[::2]) - sum(m[1::2])) % 3):
        return False
    return _ben_or(m)


def _ben_or(m: list[int]) -> bool:
    """Ben-Or's test of a monic m, coefficients in {0, 1, 2}, of degree 1..DEGREE_CAP.

    m is irreducible iff gcd(m, P) = 1 for P = prod_{k <= d/2} (t^{3^k} - t)
    mod m: m shares a factor with the product iff it shares one with some
    t^{3^k} - t. Each k costs three products and the test one gcd; at
    d = 1 the product is empty, P = 1.
    """
    d = len(m) - 1
    mul, a, b = _packed_mul(d, m), int.from_bytes(bytes(m), "little"), 1
    u = 1 << 8  # t, reduced for every d >= 2, the only degrees the loop runs at
    for _ in range(d // 2):
        u = mul(mul(u, u), u)  # Frobenius: u -> u^3
        b = mul(b, u + (2 << 8))  # times u - t, its slots <= 4 unreduced
    while b:  # gcd(m, P)
        a, b = b, _pdivmod(a, b)[1]
    return not a >> 8  # the gcd has degree 0


def _packed_mul(d: int, modulus: Sequence[int]) -> Callable[[int, int], int]:
    """Packed product mod the modulus: the sparse fold where it is exact, else Barrett.

    The fold (_fold_mul) is exact when R = t^d mod m = -(c_0 + ... +
    c_{d-1} t^{d-1}), of degree e with w nonzero terms, has 2(e - 1) < d
    and w <= 5. Every default modulus passes. Dense moduli, where a fold
    lowers the degree by only d - e, and some Ben-Or candidates keep Barrett.
    """
    low = bytes(-c % 3 for c in modulus[:d])
    e, w = len(low.rstrip(b"\0")) - 1, d - low.count(0)
    if 2 * (e - 1) < d and 2 + 4 * w + 8 * w * w <= 255:
        return _fold_mul(d, int.from_bytes(low, "little"))
    return _barrett_mul(d, modulus)


def _fold_mul(d: int, r: int) -> Callable[[int, int], int]:
    """Packed product mod t^d - r by two folds p -> (p mod t^d) + (p // t^d) * r.

    r is R = t^d mod m, packed, of degree e with 2(e - 1) < d and w <= 5
    nonzero terms (_packed_mul checks both). One operand may be unreduced
    (slots <= 4). After one translate the product p has degree <= 2d - 2
    and slots <= 2. Its high part H has degree <= d - 2, so the first fold
    leaves a high part H' of degree <= e - 2 and slots <= 4w, and the
    second a sum of degree <= 2e - 2 < d with slots <= 2 + 4w + 8w^2 <=
    222; one more translate reduces them.
    """
    mask, width, shift, from_bytes = (1 << 8 * d) - 1, 2 * d, 8 * d, int.from_bytes

    def mul(a: int, b: int) -> int:
        p = from_bytes((a * b).to_bytes(width, "little").translate(_MOD3), "little")
        p = (p & mask) + (p >> shift) * r
        p = (p & mask) + (p >> shift) * r
        return from_bytes(p.to_bytes(d, "little").translate(_MOD3), "little")

    return mul


def _barrett_mul(d: int, modulus: Sequence[int]) -> Callable[[int, int], int]:
    """Packed product mod the modulus, by polynomial Barrett reduction.

    One operand may be unreduced (slots <= 4); see DEGREE_CAP. For a product
    p of degree <= 2d - 1 the quotient by the modulus is exactly
    (p // t^d) * mu // t^d with mu = t^(2d) // modulus, the packed quotient
    of _pdivmod: unlike integer Barrett reduction, no correction step is
    needed. It serves any monic modulus, dense or sparse, so _packed_mul
    gives it every modulus the sparse fold cannot reduce exactly.
    """
    m = int.from_bytes(bytes(modulus), "little")
    mu = _pdivmod(1 << 16 * d, m)[0]
    neg_m = _mod3(2 * m, d + 1)
    width, shift, from_bytes = 2 * d, 8 * d, int.from_bytes

    def mul(a: int, b: int) -> int:
        p = from_bytes((a * b).to_bytes(width, "little").translate(_MOD3), "little")
        quo = (p >> shift) * mu >> shift
        quo = from_bytes(quo.to_bytes(d, "little").translate(_MOD3), "little")
        rem = (p + quo * neg_m).to_bytes(width, "little").translate(_MOD3)
        return from_bytes(rem[:d], "little")

    return mul


# ----------------------------------------------------------------------
# Field elements
# ----------------------------------------------------------------------


CoeffsLike = Union[int, str, Sequence[int], "FieldElement"]


class FieldElement:
    """An element of GF(3^d), tied to one FieldContext.

    Supports +, -, *, /, ** and unary negation. Construct through
    FieldContext.element(); instances are immutable and hashable. The
    coeffs slot holds the packed int, byte i being the coefficient of t^i.
    At q <= 81 the operations return the one instance the context keeps
    per value (from_packed); compare elements with ==, never with is.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "FieldContext", coeffs: int):
        self.ctx = ctx
        self.coeffs = coeffs

    # -- helpers -------------------------------------------------------

    def _peer(self, other: "FieldElement") -> "FieldElement":
        if not isinstance(other, FieldElement):
            raise TypeError(f"expected FieldElement, got {type(other).__name__}")
        if other.ctx is not self.ctx and other.ctx.key != self.ctx.key:
            raise ContextMismatch(
                f"elements from GF(3^{self.ctx.d}) and GF(3^{other.ctx.d}) "
                "with different moduli cannot be combined"
            )
        return other

    def encoding(self) -> int:
        """Base-3 integer whose digits are the coefficients."""
        return self.ctx._encode(self.coeffs)

    def is_zero(self) -> bool:
        return not self.coeffs

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if other.__class__ is not FieldElement or other.ctx is not ctx:
            other = self._peer(other)
        return ctx._element(ctx._reduce(self.coeffs + other.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if other.__class__ is not FieldElement or other.ctx is not ctx:
            other = self._peer(other)
        return ctx._element(ctx._reduce(self.coeffs + 2 * other.coeffs))

    def __neg__(self) -> "FieldElement":
        ctx = self.ctx
        return ctx._element(ctx._reduce(2 * self.coeffs))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        ctx = self.ctx
        if other.__class__ is not FieldElement or other.ctx is not ctx:
            other = self._peer(other)
        return ctx._element(ctx._mul(self.coeffs, other.coeffs))

    def __truediv__(self, other: "FieldElement") -> "FieldElement":
        other = self._peer(other)
        return self * other.inverse()

    def __pow__(self, n: int) -> "FieldElement":
        if not isinstance(n, int):
            return NotImplemented
        if n < 0:
            if self.is_zero():
                raise DivisionByZero("cannot raise 0 to a negative power")
            n %= self.ctx.q - 1  # x^(q-1) = 1 for x != 0
        return from_packed(self.ctx, self.ctx._pow(self.coeffs, n))

    def inverse(self) -> "FieldElement":
        """x^(q-2) = z^2 * x for z = x^((q-3)/2), the context's Euler power."""
        if self.is_zero():
            raise DivisionByZero("cannot invert 0")
        ctx, x = self.ctx, self.coeffs
        z = ctx._euler_power(x)
        return from_packed(ctx, ctx._mul(ctx._mul(z, z), x))

    # -- comparisons ---------------------------------------------------

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldElement):
            return NotImplemented
        return self.ctx.key == other.ctx.key and self.coeffs == other.coeffs

    def __hash__(self) -> int:
        return hash((self.ctx.key, self.coeffs))

    def __bool__(self) -> bool:
        return not self.is_zero()

    def __str__(self) -> str:
        return ",".join(self.coeffs.to_bytes(self.ctx.d, "little").translate(_DIGITS).decode())

    def __repr__(self) -> str:
        return f"GF(3^{self.ctx.d})[{self}]"

    def __reduce__(self):
        # unpickles to the one element of its value at q <= 81
        return from_packed, (self.ctx, self.coeffs)


class FieldContext:
    """A realization of GF(3^d): modulus plus constants, all computed here.

    The Frobenius slot _frobenius maps k = 1 and every power of two below
    d - 1 to the packed map x -> x^(3^k) (_FrobeniusMap); it is built with
    the context, before the scan that finds its constants, and _repunit_pow
    reads it. The product slot _mul holds the kernel _packed_mul picks for
    the modulus, the sparse fold or Barrett. With q - 1 = 2^s * odd,
    _sylow holds g^j for j < 2^s, packed, where g = beta^odd generates the
    2-Sylow subgroup, and _dlog maps each back to its j; every PowerChain
    reads its exponent there. _coset_r_inv holds e_k = beta^(-k(odd+1)/2),
    the inverse of r for beta^k, for the cosets k = 0..3 (k = 0 at odd d),
    which PowerChain.coset_root reads. Five slots hold one-argument
    functions at every q, which the build itself runs on: the sum slot
    _reduce reduces a packed sum with slots <= 6 mod 3 (_reducer(d)), the
    chain slot _chain maps a nonzero packed x to the (v, w, r, t) of its
    PowerChain (_power_chain), the cubic slot _cubic_pass maps packed
    (c2, c1) to the passes of x^3 + c2 x^2 + c1 x over the field
    (_cubic_passes) that chi_sum_cubic reads, the element slot _element
    maps a reduced packed int to a FieldElement of that value, which every
    element-level operation returns, and the decode slot _decode maps an
    encoding to the element slot's element. For q <= _MEMO_LIMIT the
    whole build runs on these kernels and functions, and then one block
    at its end swaps each for a memo of it, empty until first read
    (_Memo): the product reads its memo by the operand pair, one row per
    first operand (_Memo.pair), and each Frobenius map and each of the five
    slots by its one argument. The
    cubic memo keeps its one pass in a tuple, and the element memo keeps
    zero, one and minus_one for 0, 1 and 2. Three more slots fill later:
    the chi table and the cubes of the digit halves (_half_cubes) on first
    use, and each class representative with the LinearizedMap of its a4
    (4 classes on 2 maps at odd d, 6 on 4 at even d) when classify first
    needs it.

    Attributes:
        d: extension degree.
        q: 3**d.
        modulus: full coefficient tuple (c0, ..., c_{d-1}, 1), monic.
        q_minus_1_factors: prime factors of q - 1 with multiplicity.
        beta: deterministic primitive root of the unit group.
        alpha: smallest-encoding element of trace 1.
        tau: smaller-encoding square root of -1 (even d only, else None).
    """

    __slots__ = (
        "d",
        "q",
        "modulus",
        "key",
        "q_minus_1_factors",
        "beta",
        "alpha",
        "tau",
        "zero",
        "one",
        "minus_one",
        "_mul",
        "_reduce",
        "_chain",
        "_cubic_pass",
        "_element",
        "_decode",
        "_frobenius",
        "_trace_weights",
        "_chi_table",
        "_cubes",
        "_representatives",
        "_nonsquare",
        "_coset_r_inv",
        "_sylow",
        "_dlog",
    )

    def __init__(self, d: int, modulus: tuple[int, ...]):
        self.d = d
        self.q = q = 3**d
        self.modulus = modulus
        self.key = (d, modulus)
        self._mul = _packed_mul(d, modulus)  # packed product mod the modulus
        self._reduce = _reducer(d)  # packed sum mod 3
        self._chain = self._power_chain  # x -> (v, w, r, t) of its PowerChain
        self._cubic_pass = lambda key: _cubic_passes(self, *key)  # (c2, c1) -> the passes
        self._element = functools.partial(FieldElement, self)  # packed -> its FieldElement
        self._decode = lambda enc: self._element(self._packed(enc))  # encoding -> that element
        self._frobenius = self._build_frobenius()  # k -> x -> x^(3^k), packed
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self.minus_one = FieldElement(self, 2)
        self._chi_table: Optional[bytearray] = None
        self._cubes: Optional[tuple[list[int], list[int]]] = None  # (low cubes, high cubes)
        self._representatives: dict = {}  # class -> (its curve, the map of its a4)
        self._trace_weights = self._build_trace_weights()
        self.q_minus_1_factors = tuple(factorize_q_minus_1(d))
        # One scan from 2 (1 is a square). Its p = 2 test is Euler's
        # criterion x^((q-1)/2) = x * _euler_power(x). The first non-square
        # is n, and the first one that passes the odd primes of q - 1 is the
        # primitive root beta.
        exps = [(q - 1) // p for p in sorted(set(self.q_minus_1_factors)) if p > 2]
        mul = self._mul
        self._nonsquare = None
        for x in map(self._decode, range(2, q)):
            if mul(x.coeffs, self._euler_power(x.coeffs)) == 1:
                continue
            if self._nonsquare is None:
                self._nonsquare = x
            if all(self._pow(x.coeffs, e) != 1 for e in exps):
                break
        self.beta = x
        # The chain of beta has t = beta^odd = g and j = 1. The labels II,
        # IIIa and IIIb are cosets relative to beta, which j mod 4 reads
        # only because g is a power of beta.
        chain, size = PowerChain(self, x.coeffs), (q - 1) & (1 - q)  # 2^s
        sylow = [1, chain.t]
        for _ in range(size - 2):
            sylow.append(mul(sylow[-1], chain.t))
        self._sylow = tuple(sylow)
        self._dlog = {g_j: j for j, g_j in enumerate(sylow)}
        # Smallest-encoding trace-1 element, constructed rather than scanned:
        # every digit below the first basis index with nonzero trace contributes
        # nothing, so the minimum is a single digit at that index (the trace
        # basis can be zero on a long prefix, making a raw scan infeasible).
        weights = self._trace_weights.to_bytes(d, "big")  # weight of t^i at index i
        i0 = next(i for i, w in enumerate(weights) if w)
        # w * w = 1 mod 3, so w is its own inverse
        self.alpha = FieldElement(self, weights[i0] << 8 * i0)
        # For even d, the only degrees with types II, IIIa and IIIb, the
        # chain of beta gives e_k = beta^(-k(odd+1)/2) = e_1^k, the inverse
        # of r for beta^k (e_1 = w * g^-1), and g^(2^(s-2)) =
        # beta^((q-1)/4) squares to -1: it is one of +-tau.
        self._coset_r_inv, self.tau = (1,), None
        if d % 2 == 0:
            e1 = mul(chain.w, sylow[-1])
            e2 = mul(e1, e1)
            self._coset_r_inv = (1, e1, e2, mul(e2, e1))
            quartic = FieldElement(self, sylow[size // 4])
            self.tau = min(quartic, -quartic, key=attrgetter("coeffs"))
        if q <= _MEMO_LIMIT:  # after the build, so the memos start empty
            named = (self.zero, self.one, self.minus_one)
            element, passes = self._element, self._cubic_pass
            self._element = lambda a: named[a] if a < 3 else element(a)  # packed 0, 1 and 2
            self._cubic_pass = lambda key: tuple(passes(key))  # a stored generator reads once
            for slot in ("_reduce", "_chain", "_cubic_pass", "_element", "_decode"):
                setattr(self, slot, _Memo(getattr(self, slot)).__getitem__)
            self._mul = _Memo(lambda a: _Memo(functools.partial(mul, a))).pair
            self._frobenius = {k: _Memo(f).__getitem__ for k, f in self._frobenius.items()}

    def _build_frobenius(self) -> dict[int, "_FrobeniusMap"]:
        # g_k = t^(3^k) is the image of t under x -> x^(3^k), and
        # g_(2k) = g_k^(3^k) is the map of k applied to g_k.
        d, mul = self.d, self._mul
        t = mul(1, 1 << 8)  # t reduced by the modulus (not t itself at d = 1)
        g, k, maps = mul(mul(t, t), t), 1, {}
        while True:
            maps[k] = _FrobeniusMap(d, g, mul)
            if 2 * k >= d - 1:
                return maps
            g, k = maps[k](g), 2 * k

    def _build_trace_weights(self) -> int:
        # Tr(t^i) is the power sum p_i of the modulus's roots, which Newton's
        # identities give from its coefficients a_j = modulus[d - j]:
        # p_0 = d and p_k = -(k * a_k + sum_{0<j<k} a_j * p_{k-j}).
        # Packed with t^i's weight at byte d-1-i: byte d-1 of x * weights is
        # then the trace of x.
        a = self.modulus[::-1]
        p = [self.d % 3]
        for k in range(1, self.d):
            p.append(-(k * a[k] + sum(a[j] * p[k - j] for j in range(1, k))) % 3)
        return int.from_bytes(bytes(p), "big")

    # -- packed arithmetic ---------------------------------------------

    def _pow(self, a: int, n: int) -> int:
        # left to right from a: no multiplication by 1
        if not n:
            return 1
        mul, result = self._mul, a
        for bit in bin(n)[3:]:
            result = mul(result, result)
            if bit == "1":
                result = mul(result, a)
        return result

    def _repunit_pow(self, y: int, k: int, n: int) -> int:
        """y^(R_n), packed, by Itoh-Tsujii, where R_m = sum_{i<m} 3^(k*i).

        R_(a+b) = R_a + 3^(k*a) * R_b. Reading n from its low bit j = 0, 1,
        .., z = y^(R_(2^j)) doubles as z <- z^(3^(k*2^j)) * z, and a 1 at bit
        j turns acc = y^(R_m), m the bits below j, into acc^(3^(k*2^j)) * z.
        Each bit below the top costs one product and one map, and each 1
        above the lowest one more of both. Every map is x -> x^(3^(k*2^j))
        with k*2^j below k*n, a power of two for k = 1 and 2.
        """
        mul, frobenius = self._mul, self._frobenius
        acc, z, step = None, y, k
        while True:
            if n & 1:
                acc = z if acc is None else mul(frobenius[step](acc), z)
            n >>= 1
            if not n:
                return 1 if acc is None else acc
            z, step = mul(frobenius[step](z), z), 2 * step

    def _power_chain(self, x: int) -> tuple[int, int, int, int]:
        """(v, w, r, t) of the PowerChain of a nonzero packed x, by its identity."""
        mul, q1, d = self._mul, self.q - 1, self.d
        s = (q1 & -q1).bit_length() - 1
        p = d & -d
        c, n = (3**p - 1) >> s, (d // p - 1) // 2
        h, k = 1, 2  # h = x^((a-1)/2) for a the product of the b_i with 2^i < k
        while k < p:
            xa = mul(mul(h, h), x) if k > 2 else x
            y = self._repunit_pow(mul(xa, xa), 2, k // 2)  # x^(a * (b-1)/2)
            h, k = mul(y, h) if k > 2 else y, 2 * k
        v, w = 1, h
        if n:
            xc = mul(mul(h, h), x) if c > 1 else x
            v = self._frobenius[p](self._repunit_pow(xc, 2 * p, n))
            y = mul(v, self._repunit_pow(v, 1, p))  # v^((3^p + 1) / 2)
            w = mul(h, y) if c > 1 else y
        r = mul(x, w)
        return v, w, r, mul(r, w)

    def _euler_power(self, a: int) -> int:
        # a^((q-3)/2) = (a^3)^(sum_{i<d-1} 3^i), one repunit power: Euler's
        # criterion a^((q-1)/2) is a times it, and a^-1 its square times a
        return self._repunit_pow(self._frobenius[1](a), 1, self.d - 1)

    def _encode(self, a: int) -> int:
        # slots may be unreduced: the digit table reads each one mod 3
        return int(a.to_bytes(self.d, "big").translate(_DIGITS), 3)

    def _packed(self, enc: int) -> int:
        # the inverse of _encode on 0 <= enc < q
        packed = 0
        for i in range(self.d):
            enc, c = divmod(enc, 3)
            packed |= c << 8 * i
        return packed

    # -- public element construction ------------------------------------

    def element(self, value: CoeffsLike) -> FieldElement:
        """Coerce an int encoding, text, coefficient sequence, or element."""
        if isinstance(value, FieldElement):
            if value.ctx.key != self.key:
                raise ContextMismatch("element belongs to a different context")
            return value
        if isinstance(value, str):
            return decode_element(self, value)
        if isinstance(value, int):
            return self.from_int(value)
        coeffs = _integers(value, "coefficients")
        if len(coeffs) != self.d or any(c not in (0, 1, 2) for c in coeffs):
            raise ParseError(f"need {self.d} coefficients in {{0,1,2}}, got {value!r}")
        return from_packed(self, int.from_bytes(bytes(coeffs), "little"))

    def from_int(self, enc: int) -> FieldElement:
        """The element of an encoding, read by operator.index: ParseError for a non-integer."""
        try:
            enc = index(enc)
        except TypeError:
            raise ParseError(f"encoding must be an integer, got {enc!r}") from None
        if not 0 <= enc < self.q:
            raise ParseError(f"encoding {enc} out of range [0, {self.q})")
        return self._decode(enc)

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in encoding order."""
        # product varies its last slot fastest; big-endian puts it at t^0
        element = self._element
        for digits in itertools.product(b"\x00\x01\x02", repeat=self.d):
            yield element(int.from_bytes(bytes(digits), "big"))

    def random_element(self, rng) -> FieldElement:
        return self.from_int(rng.randrange(self.q))

    def random_nonzero(self, rng) -> FieldElement:
        return self.from_int(rng.randrange(1, self.q))

    # -- cached tables ---------------------------------------------------

    def chi_table(self) -> bytearray:
        """Table of chi(x) + 1 indexed by chunk code, for the brute-force oracles.

        x sits at _chunk_code(encoding of x), so the table has
        _chunk_code(q - 1) + 1 entries: q at d <= 5, up to 5% more at
        d = 6..10 and up to 11% more at d = 11..13. An entry that is no
        element's code stays 0 and is never read. Built on first use by
        marking the squares x^2 over the split sweep (_sweep_rows) of
        h = 0 and one of each pair +-h of nonzero high halves, the one
        whose top nonzero digit is 1: (-x)^2 = x^2, so the rows of -h
        would mark nothing new. With x = h + l, x^2 = h^2 + l^2 +
        sum_j l_j * 2h*t^j, so it costs 3^k + (k + 1) * (3^(d-k) + 1) / 2
        multiplications, k = d // 2. Every call checks the oracle cap.

        Raises:
            OracleTooLarge: for q above the oracle cap.
        """
        check_oracle_cap(self.q)
        table = self._chi_table
        if table is None:
            d, mul = self.d, self._mul
            table = bytearray(_chunk_code(self.q - 1) + 1)  # chi + 1 = 0 until marked
            mark, two = table.__setitem__, itertools.repeat(2)
            lows, highs = _digit_halves(d)
            # encodings j * 3^k with 3^i <= j < 2 * 3^i: top nonzero digit 1
            half = highs[:1] + [h for i in range(d - d // 2) for h in highs[3**i:2 * 3**i]]
            heads, low_parts = [mul(h, h) for h in half], [mul(x, x) for x in lows]
            cross = [2 << 8 * j for j in range(d // 2)]
            for packed in _sweep_rows(self, half, heads, low_parts, cross):
                collections.deque(map(mark, _encode_row(d, packed), two), maxlen=0)
            table[0] = 1  # 0, which the lanes past a short last pass also mark
            self._chi_table = table
        return table

    def _half_cubes(self) -> tuple[list[int], list[int]]:
        """The packed cubes of the low and high digit halves, as _digit_halves orders them.

        Built on first use with the context's product, two per half
        element, 2 * (3^k + 3^(d-k)) in all; the cubic passes read them.
        """
        cubes = self._cubes
        if cubes is None:
            mul = self._mul
            cubes = tuple([mul(mul(x, x), x) for x in half] for half in _digit_halves(self.d))
            self._cubes = cubes
        return cubes

    def cube_table(self) -> Optional[list[int]]:
        """Encoding-indexed list of packed x^3, for q <= 3^8 only (else None).

        Cubing is additive in characteristic 3, so (h + l)^3 = h^3 + l^3
        over the kept cubes of the digit halves (_half_cubes): one sum per
        element and no product of its own. The library no longer reads it;
        perfbench still calls it.
        """
        if self.q > _CUBE_TABLE_LIMIT:
            return None
        reduce, (low, high) = self._reduce, self._half_cubes()
        return [reduce(h3 + l3) for h3 in high for l3 in low]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"FieldContext(d={self.d}, modulus=[{mod}])"

    def __reduce__(self):
        # a context pickles as its key, to the cached context of make_context;
        # its kernels are closures
        return make_context, self.key


def from_packed(ctx: FieldContext, a: int) -> FieldElement:
    """The element of ctx whose packed int is a, which must be reduced.

    At q <= 81 this is the one object the context keeps for the value (its
    element memo); above, a new FieldElement.
    """
    return ctx._element(a)


class _FrobeniusMap:
    """The F3-linear map x -> x(g) of GF(3^d), packed; x -> x^(3^k) for g = t^(3^k).

    Column i is g^i, the image of t^i, and its coefficient of t^j sits at
    byte j*d + d - 1 - i of one packed d x d matrix (d - 2 products build
    it). For x = sum c_i t^i, byte j*d + d - 1 of x * matrix then collects
    c_i times coefficient j of g^i over every i and nothing else, and no
    byte sums more than d products of slots <= 2 (<= 4d <= 124, no carry),
    so one big-int product, one strided slice and one translate apply the
    map. g must be reduced.
    """

    __slots__ = ("d", "matrix")

    def __init__(self, d: int, g: int, mul: Callable[[int, int], int]):
        cols = [1, g]  # g^i; only the first at d = 1
        while len(cols) < d:
            cols.append(mul(cols[-1], g))
        buf = bytearray(d * d)
        for i, col in enumerate(cols[:d]):
            buf[d - 1 - i::d] = col.to_bytes(d, "little")
        self.d, self.matrix = d, int.from_bytes(buf, "little")

    def __call__(self, x: int) -> int:
        d = self.d
        column = (x * self.matrix).to_bytes(d * d + d - 1, "little")[d - 1::d]
        return int.from_bytes(column.translate(_MOD3), "little")


class _Memo(dict):
    """The values of a function, each computed and stored on its first read.

    A context reads a one-argument function's memo through its
    __getitem__, which calls the function for a missing key only. The
    product's memo holds one row per first operand a, itself the memo of
    b -> a * b, and is read through pair: two int-keyed reads, no tuple
    per call.
    """

    __slots__ = ("fn",)

    def __init__(self, fn: Callable):
        self.fn = fn

    def __missing__(self, key):
        value = self[key] = self.fn(key)
        return value

    def pair(self, a: int, b: int) -> int:
        return self[a][b]


@functools.lru_cache(maxsize=None)
def _digit_halves(d: int) -> tuple[list[int], list[int]]:
    """The low and high digit halves of degree d, each in encoding order.

    lows[i] + highs[j] encodes as i + j * 3^k. The lists depend on d alone.
    """
    k, digits = d // 2, b"\x00\x01\x02"
    lows = [int.from_bytes(bytes(c), "big") for c in itertools.product(digits, repeat=k)]
    highs = [
        int.from_bytes(bytes(c), "big") << 8 * k for c in itertools.product(digits, repeat=d - k)
    ]
    return lows, highs


# A row packs the elements h + l of one high half h over the 3^k lows l
# (k = d // 2), the one of low index i in lane i, L bytes from byte i * L
# (_lane_widths), and a pass packs consecutive rows, row r from lane
# r * 3^k. _sweep_rows sums into a lane a head and a low part with slots
# <= 2 and k cross terms with slots <= 4, so with c0 (chi_sum_cubic) a
# slot holds at most 6 + 4k <= 66 < 256 for d <= 31 and no lane carries
# into the next.
# The fewest lanes of a pass, short of the whole field: one pass at d <= 7.
_PASS_LANES = 3**7
# x * _CHUNK, for x with slots in {0, 1, 2}, holds in byte 5m + 4 the
# base-243 value sum_{i<5} 3^i * x_(5m+i) of bytes 5m..5m+4 of x: a byte
# sums at most 2 * (1 + 3 + 9 + 27 + 81) = 242, so nothing carries.
_CHUNK = sum(3**i << 8 * (4 - i) for i in range(5))
_LITTLE_ENDIAN = sys.byteorder == "little"


def _lane_widths(d: int) -> tuple[int, int]:
    """Bytes per lane and bytes per chunk code.

    A lane's d digits fall in c = ceil(d / 5) chunks of five, and its code
    (_chunk_code) holds one byte per chunk in c bytes rounded up to a
    power of two: one at d <= 5, two at d <= 10, four at d <= 20 and eight
    above. A lane has five bytes per code byte, so the chunk bytes of a
    pass, every fifth one, hold one code per lane.
    """
    item = 1 << (-(-d // 5) - 1).bit_length()
    return 5 * item, item


def _chunk_code(enc: int) -> int:
    """The chunk code of an encoding: its base-243 digits read in base 256.

    Base-243 digit m of an encoding is chunk m, the base-3 value of digits
    5m..5m+4. _encode_row reads a lane's code as one item holding chunk m
    in its byte m, and the chi table is indexed by code. Halves that share
    no digit share no chunk sum above 242, so the code of h + l is
    code(h) + code(l) (_half_codes). At d <= 5 the code is the encoding.
    """
    code, shift = 0, 0
    while enc:
        enc, chunk = divmod(enc, 243)
        code, shift = code | chunk << shift, shift + 8
    return code


@functools.lru_cache(maxsize=None)
def _half_codes(d: int) -> tuple[list[int], list[int]]:
    """The chunk codes of the low and high digit halves, as _digit_halves orders them."""
    n = 3 ** (d // 2)
    return [_chunk_code(i) for i in range(n)], [_chunk_code(j * n) for j in range(3**d // n)]


@functools.lru_cache(maxsize=None)
def _row_layout(d: int) -> tuple:
    """The constants of a degree-d row and pass, which depend on d alone.

    A pass holds ROWS rows, enough for _PASS_LANES lanes and at most the
    whole field: every row at d <= 7, then 27, 9 and 3 rows at d = 8..9,
    10..11 and 12..13. ONES holds 1 in every lane of one pass and DIGIT_j,
    for j < k, digit j of i in lane i of one row. SIZE is the bytes of one
    pass, LANE those of one lane, and FORMAT casts the codes of
    _encode_row: an unsigned int of one code's bytes.
    """
    lane, item = _lane_widths(d)
    n = 3 ** (d // 2)
    rows = min(3 ** (d - d // 2), max(1, _PASS_LANES // n))
    size, pad = rows * n * lane, bytes(lane - 1)

    def lanes(values: Iterable[int]) -> int:
        return int.from_bytes(b"".join(bytes([v]) + pad for v in values), "little")

    ones = lanes([1] * (rows * n))
    digits = tuple(lanes(i // 3**j % 3 for i in range(n)) for j in range(d // 2))
    return ones, digits, rows, size, lane, "BHIQ"[item.bit_length() - 1]


def _encode_row(d: int, packed: int) -> Sequence[int]:
    """The chunk codes of a packed degree-d pass's lanes, in lane order.

    Slots may be unreduced (up to 6 + 4k): one translate reduces them mod 3.
    One product by _CHUNK then puts chunk m of each lane in byte 5m + 4 of
    the lane, so every fifth byte of the product holds each lane's chunks,
    lowest first, in one item of its code's width (_lane_widths): one
    slice and, above d = 5, one memoryview cast read the codes. At d <= 5
    the slice's bytes are the codes: a cast there made a warm d = 4
    naive_count 6.7-7.2 us against 6.1-6.6. The product's bytes are
    taken in native order, so the cast reads chunk m at 256^m on either
    byte order; on a big-endian host that reverses the lanes, and the view
    is reversed back. Three encoders were measured and lost on a shared
    2-CPU machine: power-of-two lanes encoded by log2 of their width mask
    rounds, on passes of 81 lanes, made a d = 9 naive_count 4.2 ms
    against 2.3; one slice and translate per digit, summed by Horner, took
    48-50 ms against 36 for naive_count over every d = 4 curve, and 4-10%
    more at d = 9; and the encodings themselves, one slice per chunk
    summed by Horner, took 119 us per d = 9 pass against 111 for these
    codes.
    """
    _, _, _, size, _, fmt = _row_layout(d)
    x = int.from_bytes(packed.to_bytes(size, "little").translate(_MOD3), "little")
    codes = (x * _CHUNK).to_bytes(size + 4, sys.byteorder)[4::5]
    if fmt != "B":  # one-byte codes are read from the bytes themselves
        codes = memoryview(codes).cast(fmt)
    return codes if _LITTLE_ENDIAN else codes[::-1]


def _picker(indices: Sequence[int]) -> Callable[[Sequence[int]], Sequence[int]]:
    """A reader of the items at indices, as a sequence, in one C-level call.

    The oracles read chi table entries through it. itemgetter returns a
    bare item for one index and needs at least one, so one index or none
    is read as a slice (a d = 1 row has one lane).
    """
    if len(indices) > 1:
        return itemgetter(*indices)
    return itemgetter(slice(indices[0], indices[0] + 1) if indices else slice(0))


def _sweep_rows(
    ctx: FieldContext,
    highs: Sequence[int],
    heads: Sequence[int],
    low_parts: Sequence[int],
    cross: Sequence[int],
) -> Iterator[int]:
    """Packed passes of heads[r] + low_parts[i] + sum_j l_j * cross[j] * highs[r].

    Row r holds highs[r] + l over the lows l (digits l_j, encoding i) in
    lane order, and each pass packs ROWS consecutive rows (_row_layout),
    the last one fewer when ROWS does not divide len(highs); over every
    high half in encoding order, the lanes of the passes run in encoding
    order of h + l. cross has at most k terms. The heads and low parts may
    leave slots <= 4: one translate of their joined lanes reduces each
    list. The cross terms must be reduced. Each row costs len(cross)
    products, and the caller encodes each pass with one _encode_row. A
    pass is built from bytes: each head repeated over its row's lanes, and
    each row's cross terms, the sum of mul(cross[j], h) * DIGIT_j, joined
    in row order, so its cost is linear in its rows. Two variants were
    measured and lost on passes of 3^7 lanes, timing a cold d = 8
    chi_table on a shared 2-CPU machine: summing every row's term j
    shifted to the row's first lane, which is quadratic in the rows, took
    2.2 ms against 1.5, and joining the rows of each term j apart took
    1.6-1.75 ms.
    """
    d, mul, from_bytes = ctx.d, ctx._mul, int.from_bytes
    _, digits, rows, _, lane, _ = _row_layout(d)
    low_row = b"".join([v.to_bytes(lane, "little") for v in low_parts]).translate(_MOD3)
    head_lanes = b"".join([v.to_bytes(lane, "little") for v in heads]).translate(_MOD3)
    n, row_size = len(low_parts), len(low_row)
    low, terms = from_bytes(low_row * rows, "little"), list(zip(cross, digits))
    for start in range(0, len(highs), rows):
        group = highs[start:start + rows]
        lanes = range(start * lane, (start + len(group)) * lane, lane)
        packed = from_bytes(b"".join([head_lanes[i:i + lane] * n for i in lanes]), "little")
        packed += low if len(group) == rows else from_bytes(low_row * len(group), "little")
        if terms:
            crossed = [sum([mul(b, h) * digit for b, digit in terms]) for h in group]
            packed += from_bytes(b"".join([c.to_bytes(row_size, "little") for c in crossed]), "little")
        yield packed


def _cubic_passes(ctx: FieldContext, c2: int, c1: int) -> Iterator[int]:
    """The packed passes of g(x) = x^3 + c2 x^2 + c1 x over the field (_sweep_rows).

    Cubing is additive in characteristic 3, so g(h + l) = g(h) + g(l) +
    2*c2*h*l: products run per half, not per element, and the cross term
    is the sum over the low digits l_j of l_j times 2*c2*h*t^j. Each half
    takes g(x) = x^3 + x * (c2 x + c1) with x^3 from the context's kept
    cubes (_half_cubes): one product, c1 * x, when c2 = 0, as for every
    short curve, and two otherwise. The coefficients are packed and
    reduced.
    """
    mul, halves = ctx._mul, _digit_halves(ctx.d)
    # c2 * x + c1 stays unreduced (slots <= 4), which _mul accepts
    low_parts, heads = (
        [x3 + mul(mul(c2, x) + c1 if c2 else c1, x) for x, x3 in zip(half, cubes)]
        for half, cubes in zip(halves, ctx._half_cubes())
    )
    cross = [mul(c2 + c2, 1 << 8 * j) for j in range(ctx.d // 2)] if c2 else []
    return _sweep_rows(ctx, halves[1], heads, low_parts, cross)


def chi_sum_cubic(ctx: FieldContext, c2: FieldElement, c1: FieldElement, c0: FieldElement) -> int:
    """q + 1 + sum of chi(f(x)) over the field, f(x) = x^3 + c2 x^2 + c1 x + c0.

    The passes of f(x) - c0 come from the context's cubic slot under (c2,
    c1) (_cubic_passes; a memo at q <= 81, where one pass covers the
    field). Each takes c0 * ONES with no product, its slots then <= 6 + 4k,
    and is encoded by one _encode_row and read from the chi table through
    one _picker.

    Raises:
        OracleTooLarge: for q above ORACLE_CAP.
    """
    d, c0 = ctx.d, c0.coeffs
    table = ctx.chi_table()  # checks the oracle cap
    shift = c0 * _row_layout(d)[0]
    # the table holds chi + 1, so its q reads sum to q + the sum of chi
    return 1 + sum(
        sum(_picker(_encode_row(d, packed + shift))(table))
        for packed in ctx._cubic_pass((c2.coeffs, c1.coeffs))
    )


def chi_sum_fiber(ctx: FieldContext, a: int) -> int:
    """Sum of chi(x) over the trace fiber Tr(x) = a, a in {0, 1, -1}.

    The trace is F3-linear, so h + l is in the fiber iff Tr(l) = a -
    Tr(h), and the chunk code of h + l is code(h) + code(l): the row of h
    is the slice of the chi table from code(h), and the fiber picks one
    trace class of its lows by their codes (_half_codes). No product is
    made: each half's trace is read from the packed int as trace does.

    Raises:
        OracleTooLarge: for q above ORACLE_CAP.
    """
    table = ctx.chi_table()  # checks the oracle cap
    lows, highs = _digit_halves(ctx.d)
    low_codes, high_codes = _half_codes(ctx.d)
    weights, shift = ctx._trace_weights, 8 * (ctx.d - 1)
    span, by_trace = low_codes[-1] + 1, ([], [], [])  # low codes, by trace mod 3
    for code, x in zip(low_codes, lows):
        by_trace[(x * weights >> shift & 255) % 3].append(code)
    picks = [_picker(codes) for codes in by_trace]
    total = 0
    for code, h in zip(high_codes, highs):
        values = picks[(a - (h * weights >> shift & 255)) % 3](table[code:code + span])
        total += sum(values) - len(values)  # the table holds chi + 1
    return total


# ----------------------------------------------------------------------
# Context construction
# ----------------------------------------------------------------------


def _integers(values: Iterable, what: str) -> tuple[int, ...]:
    """values read by operator.index, which truncates no float; ParseError for a non-integer."""
    try:
        return tuple(map(index, values))
    except TypeError:
        raise ParseError(f"{what} must be integers, got {values!r}") from None


def _default_modulus(d: int) -> tuple[int, ...]:
    # monic irreducible whose low-coefficient vector has the smallest
    # base-3 encoding; deterministic across runs
    for high_first in itertools.product(range(3), repeat=d):
        coeffs = high_first[::-1] + (1,)
        if is_irreducible(coeffs):
            return coeffs
    raise DegreeOutOfRange(f"no irreducible polynomial of degree {d} found")


_contexts: dict[tuple[int, Optional[tuple[int, ...]]], FieldContext] = {}


def _build_context(d: int, modulus: Optional[tuple[int, ...]]) -> FieldContext:
    # the only context cache: a warm call repeats neither the modulus search
    # nor the irreducibility test, and cache_clear() makes the next one cold.
    # None resolves to the default modulus, which its search has tested, and
    # the context is stored under that key too, so the default modulus named
    # or not gives one context; an override is tested on its cold call only.
    if (d, modulus) not in _contexts:
        if modulus is None:
            found = _default_modulus(d)
        elif is_irreducible(modulus):
            found = modulus
        else:
            raise ModulusReducible(f"modulus {list(modulus)} is reducible over F3")
        if (d, found) not in _contexts:
            _contexts[d, found] = FieldContext(d, found)
        _contexts[d, modulus] = _contexts[d, found]
    return _contexts[d, modulus]


_build_context.cache_clear = _contexts.clear


def make_context(
    d: int, modulus_override: Optional[Sequence[int]] = None
) -> FieldContext:
    """Build (or fetch the cached) GF(3^d) context.

    Args:
        d: extension degree, 1 <= d <= DEGREE_CAP.
        modulus_override: full monic coefficient list (c0, ..., cd) to use
            instead of the deterministic smallest-encoding irreducible.

    Raises:
        DegreeOutOfRange, ParseError, ModulusReducible.
    """
    if isinstance(d, bool) or not isinstance(d, int) or not 1 <= d <= DEGREE_CAP:
        raise DegreeOutOfRange(f"d must satisfy 1 <= d <= {DEGREE_CAP}, got {d}")
    coeffs = None
    if modulus_override is not None:
        coeffs = tuple(c % 3 for c in _integers(modulus_override, "modulus coefficients"))
        if len(coeffs) != d + 1 or coeffs[-1] != 1:
            raise ParseError(
                f"modulus must be monic of degree {d}: expected {d + 1} "
                f"coefficients ending in 1"
            )
    return _build_context(d, coeffs)


def context_to_json(ctx: FieldContext) -> dict:
    """JSON-serializable description of a context."""
    return {
        "d": ctx.d,
        "modulus": list(ctx.modulus),
        "beta": str(ctx.beta),
        "alpha": str(ctx.alpha),
        "tau": str(ctx.tau) if ctx.tau is not None else None,
    }


# ----------------------------------------------------------------------
# Characters, trace, roots
# ----------------------------------------------------------------------


def cubic(x: FieldElement, c1: FieldElement, c0: FieldElement) -> FieldElement:
    """x^3 + c1*x + c0, with c1 and c0 of one context.

    The products are those of x * x * x + c1 * x, in that order, and one
    reduction takes the sum (slots <= 6); no other element is built.
    Raises ContextMismatch, as c1 * x does, for x of another field.
    """
    ctx = c1.ctx
    if x.__class__ is not FieldElement or x.ctx is not ctx:
        x = c1._peer(x)
    mul, a = ctx._mul, x.coeffs
    return from_packed(ctx, ctx._reduce(mul(mul(a, a), a) + mul(c1.coeffs, a) + c0.coeffs))


def trace(x: FieldElement) -> int:
    """Absolute trace GF(3^d) -> F3, reported as 0, 1 or -1."""
    return _packed_trace(x.ctx, x.coeffs)


def _packed_trace(ctx: FieldContext, a: int) -> int:
    """trace of the element whose reduced packed int is a."""
    total = (a * ctx._trace_weights >> 8 * (ctx.d - 1) & 255) % 3
    return -1 if total == 2 else total


def chi(x: FieldElement) -> int:
    """Quadratic character: +1 on nonzero squares, -1 on non-squares, 0 at 0.

    Euler's criterion x^((q-1)/2) = x * x^((q-3)/2), on the context's Euler
    power and no PowerChain; the brute-force oracles read the chi table.
    """
    if x.is_zero():
        return 0
    ctx, a = x.ctx, x.coeffs
    return 1 if ctx._mul(a, ctx._euler_power(a)) == 1 else -1


def smallest_nonsquare(ctx: FieldContext) -> FieldElement:
    """The non-square with the smallest encoding, found when ctx was built."""
    return ctx._nonsquare


class PowerChain:
    """The power x^odd of a nonzero packed x and its exponent j, q - 1 = 2^s * odd.

    w = x^((odd-1)/2), r = x*w and t = r*w = x^odd, all by repunit powers
    (FieldContext._repunit_pow) on maps the context keeps, which the
    context's _chain slot takes (FieldContext._power_chain, in a memo at
    q <= 81). With p = d & -d (1 at odd d), c = (3^p - 1) / 2^s and
    n = (d/p - 1) / 2, one identity holds at every d:

        (odd-1)/2 = (c-1)/2 + c * 3^p * (3^p + 1)/2 * sum_{j<n} 9^(p*j),

    because d/p is odd: q - 1 = (3^p - 1) * R(2n + 1) with R(m) =
    sum_{i<m} 3^(p*i) odd, so odd = c * R(2n + 1), and R(2n + 1) =
    1 + 3^p * (1 + 3^p) * sum_{j<n} 9^(p*j). So with h = x^((c-1)/2) and
    v = phi_p((x^c)^(sum_j 9^(p*j))) = x^(c * 3^p * sum_j 9^(p*j)),
    w = h * v^((3^p + 1)/2) = h * v * v^(sum_{i<p} 3^i); at n = 0 (d = 1,
    2, 4, 8, 16) v = 1 and w = h. c = 1 at odd d and at d = 2 mod 4, where
    h = 1 is never multiplied in, and for p = 2^a, c = prod_{0<i<a} b_i
    with b_i = (3^(2^i) + 1)/2 (5, 41, 3281), whose (b_i - 1)/2 =
    2 * sum_{j<2^(i-1)} 9^j: h takes one factor at a time by
    (ab - 1)/2 = a * (b-1)/2 + (a-1)/2.

    At odd d, s = 1 and p = c = 1, so v = x^(3 * sum_{j<m} 9^j) =
    x^((q-3)/8) with m = (d-1)/2, and w = v^2. u = r*v has u^2 = t*r and
    u^4 = t*x, and -1 is a non-square: +-u are the fourth roots of the
    square one of +-x, and no root of the other.

    t lies in the 2-Sylow subgroup, cyclic of order 2^s <= 64 and
    generated by g = beta^odd, and j = ctx._dlog[t] has t = g^j. For
    x = beta^k, t = g^k, so j = k mod 2^s, and j answers by lookup: x is a
    square iff j is even, j mod 4 is the coset of x modulo the fourth
    powers relative to beta (at even d, where s >= 3), x^-1 = w^2 * g^-j,
    and for j - k even, coset_root(k) squares to x * beta^-k.
    """

    __slots__ = ("ctx", "v", "w", "r", "t")

    def __init__(self, ctx: FieldContext, x: int):
        self.ctx = ctx
        self.v, self.w, self.r, self.t = ctx._chain(x)

    @property
    def j(self) -> int:
        """The exponent of t = g^j, read from the context's table."""
        return self.ctx._dlog[self.t]

    def _times_g(self, a: int, k: int) -> int:
        """a * g^k, packed: a negation when g^k = -1, and a itself when g^k = 1."""
        ctx, size = self.ctx, len(self.ctx._sylow)
        k %= size
        if not k:
            return a
        if 2 * k == size:
            return ctx._reduce(2 * a)
        return ctx._mul(a, ctx._sylow[k])

    def inverse(self) -> FieldElement:
        """x^-1 = w^2 * g^-j."""
        return from_packed(self.ctx, self._times_g(self.ctx._mul(self.w, self.w), -self.j))

    def roots(self, sign: int) -> list[FieldElement]:
        """Every u with u^2 = sign*x, or u^2 = +-x when sign is 0, sorted by encoding.

        As -1 = g^(2^(s-1)), y = +-x has y^odd = g^i with i = j for x and
        i = j + 2^(s-1) for -x, and y * y^((odd-1)/2) = +-r. So y is a square
        iff i is even, and then its roots are +-r * g^(-i/2). At odd d, where
        g = -1, these are +-r for the square one of +-x, with no product.
        """
        j, half = self.j, len(self.ctx._sylow) // 2
        exponents = (j,) if sign == 1 else (j + half,) if sign == -1 else (j, j + half)
        roots = []
        for i in exponents:
            if i % 2 == 0:
                v = from_packed(self.ctx, self._times_g(self.r, -i // 2))
                roots += [v, -v]
        return sorted(roots, key=attrgetter("coeffs"))  # reduced: packed order is encoding order

    def quartic_roots(self) -> list[FieldElement]:
        """At odd d, every u with u^4 = +-x, sorted by encoding: +-r*v, one product."""
        u = from_packed(self.ctx, self.ctx._mul(self.r, self.v))
        return sorted([u, -u], key=attrgetter("coeffs"))

    def fourth_roots(self) -> list[FieldElement]:
        """Every u with u^4 = x, sorted by encoding (possibly empty).

        x is a fourth power iff j = 0 mod 4. At odd d its roots are the
        quartic_roots, one product. At even d, u^4 = x iff u^2 = +-s for
        the square root s = coset_root(0) of x: one more chain, on s.
        """
        if self.j % 4:
            return []
        if self.ctx.d % 2:
            return self.quartic_roots()
        return PowerChain(self.ctx, self.coset_root(0).coeffs).roots(0)

    def trace_invariant(self, a6: int) -> tuple[int, int, int]:
        """Packed gamma = coset_root(0) and x^-1, and t = Tr(a6 * gamma * x^-2).

        a6 is packed and reduced, and t is 0, 1 or -1, as trace gives. The
        products are those of coset_root(0), inverse() and the element
        product a6 * gamma * x^-1 * x^-1, in that order; no element is built.
        """
        ctx, j = self.ctx, self.j
        mul = ctx._mul
        gamma = self._times_g(self.r, -j // 2)
        inv = self._times_g(mul(self.w, self.w), -j)
        return gamma, inv, _packed_trace(ctx, mul(mul(mul(a6, gamma), inv), inv))

    def coset_root(self, k: int) -> FieldElement:
        """A square root of x * beta^-k, for k = 0..3 with j - k even (k = 0 at odd d).

        y = x * beta^-k has y^odd = g^(j-k) and y^((odd+1)/2) = r * e_k, e_k =
        beta^(-k*(odd+1)/2) from the context (e_0 = 1), so r * e_k *
        g^((k-j)/2) squares to y: at most two products, one for k = 0.
        """
        ctx, r = self.ctx, self.r
        if k:
            r = ctx._mul(r, ctx._coset_r_inv[k])
        return from_packed(ctx, self._times_g(r, (k - self.j) // 2))


def sqrt(x: FieldElement) -> Optional[FieldElement]:
    """Square root with the smaller encoding, or None for non-squares.

    The first of the roots(1) of one PowerChain, which are sorted by encoding.
    """
    if x.is_zero():
        return x.ctx.zero
    roots = PowerChain(x.ctx, x.coeffs).roots(1)
    return roots[0] if roots else None


def fourth_roots(x: FieldElement) -> list[FieldElement]:
    """All v with v^4 = x, sorted by encoding (possibly empty).

    The chain of x gives them (PowerChain.fourth_roots): one chain at odd
    d, and at even d a second one, on a square root of x, only when x is a
    fourth power.
    """
    if x.is_zero():
        return [x.ctx.zero]
    return PowerChain(x.ctx, x.coeffs).fourth_roots()


class LinearizedMap:
    """The F3-linear map L(x) = x^3 + c*x of GF(3^d), column-reduced once.

    Building it costs d products, d maps x -> x^3 and one column
    elimination over F3 in the power basis; preimages(y) then
    back-substitutes y through the pivots with no product. Instances are
    immutable.
    """

    __slots__ = ("d", "pivots", "kernel")

    def __init__(self, c: FieldElement):
        ctx = c.ctx
        self.d = d = ctx.d
        mul, cube = ctx._mul, ctx._frobenius[1]
        # Column j packs L(t^j) in its low d bytes and t^j in its high d
        # bytes, so one integer operation updates the image and the preimage
        # together. t^j = 1 << 8j is reduced for every j < d.
        cols = [
            _mod3(cube(1 << 8 * j) + mul(c.coeffs, 1 << 8 * j), d) | 1 << 8 * (d + j)
            for j in range(d)
        ]
        # Column echelon form: the pivot for byte i is eliminated from every
        # column left, so later pivots are zero at every earlier pivot byte.
        # Column operations skip the mod-3 reduction: each adds at most 4 to
        # a slot and a column takes at most d of them, so its slots stay at
        # most 2 + 4d <= 126, and 252 when a pivot is scaled by 2. A column
        # is reduced once, when it becomes a pivot.
        pivots = []
        for shift in range(0, 8 * d, 8):
            sel = next((col for col in cols if (col >> shift & 255) % 3), None)
            if sel is None:
                continue
            cols.remove(sel)
            sel = _mod3((sel >> shift & 255) % 3 * sel, 2 * d)  # pivot 1, as 2 * 2 = 1
            cols = [
                col + (3 - f) * sel if (f := (col >> shift & 255) % 3) else col for col in cols
            ]
            pivots.append((shift, sel))
        self.pivots = tuple(pivots)
        # the columns left have L = 0 and span the kernel: L(x) = 0 means
        # x = 0 or x^2 = -c, so it has at most 3 elements
        self.kernel = tuple(_mod3(col >> 8 * d, d) for col in cols)

    def preimages(self, y: int) -> list[int]:
        """Every packed x with L(x) = y: none, one, or (with a kernel) three.

        y is packed with slots <= 4. Reducing it by the pivots ends with
        slots <= 4 + 4d and collects -x in the high bytes.
        """
        d, v = self.d, y
        for shift, col in self.pivots:
            f = (v >> shift & 255) % 3
            if f:
                v += (3 - f) * col
        v = _mod3(v, 2 * d)
        if v % (1 << 8 * d):  # y is not in the image
            return []
        xs = [_mod3(2 * (v >> 8 * d), d)]
        for ker in self.kernel:
            xs += [_mod3(x + f * ker, d) for f in (1, 2) for x in xs]
        return xs


def solve_linearized(c: FieldElement, k: FieldElement) -> Optional[FieldElement]:
    """Solve r^3 + c*r + k = 0 for r, or return None when no root exists.

    Builds the LinearizedMap of c and back-substitutes -k through it. When
    several roots exist (the kernel is at most one-dimensional), the one
    with the smallest encoding is returned.
    """
    ctx = c.ctx
    if k.ctx.key != ctx.key:
        raise ContextMismatch("c and k live in different contexts")
    roots = LinearizedMap(c).preimages(2 * k.coeffs)  # -k, slots <= 4
    if not roots:
        return None
    return from_packed(ctx, min(roots))  # reduced: packed order is encoding order


# ----------------------------------------------------------------------
# Text encoding
# ----------------------------------------------------------------------


def _digit_list(text: str) -> Optional[list[int]]:
    """The comma-separated parts of text as ints, or None unless each is digits.

    Every part, spaces around it aside, must be ASCII decimal digits: no
    sign, underscore or other script's digits. Elements and the modulus
    text share this grammar.
    """
    parts = [p.strip() for p in text.split(",")]
    if not all(p.isascii() and p.isdigit() for p in parts):
        return None
    return [int(p) for p in parts]


def decode_element(ctx: FieldContext, text: str) -> FieldElement:
    """Parse either a coefficient list "c0,c1,..." or a base-3 integer.

    The text follows _digit_list's grammar. A list goes to
    FieldContext.element, which checks its length and digits, and one
    integer to from_int, which checks its range.
    """
    values = _digit_list(text)
    if values is None:
        raise ParseError(f"cannot parse element {text!r}: expected ASCII decimal digits")
    if len(values) == 1:
        return ctx.from_int(values[0])
    return ctx.element(values)
