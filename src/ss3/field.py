"""Exact arithmetic in GF(3^d).

An element is one Kronecker-packed int: byte i holds the coefficient
c_i in {0, 1, 2} of t^i in the power basis of a monic irreducible modulus.
Sums and differences are plain integer additions whose bytes are reduced
mod 3 by one bytes.translate; a product is one big-integer multiply
followed by polynomial Barrett reduction, the same path for every modulus.
A product may take one operand unreduced (slots <= 4); its slots then
hold at most 8d <= 248, which is why d is capped at 31 (DEGREE_CAP).

A FieldContext fixes the modulus together with the constants the
classification machinery needs: a primitive root beta, a trace-one element
alpha, and (for even d) a square root tau of -1. All constants are chosen
deterministically by scanning elements in encoding order, where the
encoding of (c0, ..., c_{d-1}) is the base-3 integer
c0 + 3*c1 + ... + 3^{d-1}*c_{d-1}.

Contexts are immutable after construction and safe to share across
threads; the lazily built character table is filled idempotently.
"""

from __future__ import annotations

import functools
import itertools
import os
from typing import Callable, Iterator, Optional, Sequence, Union

from .errors import (
    ContextMismatch,
    DegreeOutOfRange,
    DivisionByZero,
    ModulusReducible,
    OracleTooLarge,
    ParseError,
    ZeroArgument,
)
from .factor import factorize

# A product slot sums at most d byte products. With one operand unreduced
# (slots <= 4, as the oracle's Horner loop passes it) and the other reduced,
# a slot holds at most 8d <= 248, so for d <= 31 no slot carries into the
# next one.
DEGREE_CAP = 31
DEFAULT_ORACLE_CAP = 3**13
ORACLE_CAP_ENV = "SS3_ORACLE_CAP"

# chi tables are cheap to build and worth it only where full sweeps happen
CHI_TABLE_LIMIT = 3**13
_CUBE_TABLE_LIMIT = 3**8

# slot value -> slot value mod 3, and -> its ASCII digit mod 3
_MOD3 = bytes(v % 3 for v in range(256))
_DIGITS = bytes(ord("0") + v % 3 for v in range(256))


def _mod3(x: int, width: int) -> int:
    """Reduce every byte of a packed int mod 3; width is its length in bytes."""
    return int.from_bytes(x.to_bytes(width, "little").translate(_MOD3), "little")


def oracle_cap() -> int:
    """Brute-force enumeration cap: SS3_ORACLE_CAP env override or 3^13."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}")


def check_oracle_cap(q: int) -> None:
    """Raise OracleTooLarge when a brute-force sweep over q elements exceeds the cap."""
    cap = oracle_cap()
    if q > cap:
        raise OracleTooLarge(f"q = {q} exceeds the enumeration cap {cap}")


# ----------------------------------------------------------------------
# Raw polynomial helpers over F3 (little-endian coefficient lists).
# Used only for modulus selection and the Barrett constant; element
# arithmetic lives on the context.
# ----------------------------------------------------------------------


def _ptrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pdivmod(a: list[int], m: list[int]) -> tuple[list[int], list[int]]:
    a = a[:]
    dm = len(m) - 1
    inv_lead = 1 if m[-1] == 1 else 2
    quo = [0] * max(len(a) - dm, 0)
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % 3
        quo[shift] = factor
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * c) % 3
        _ptrim(a)
    return quo, a


def _pgcd(a: list[int], b: list[int]) -> list[int]:
    a, b = _ptrim(a[:]), _ptrim(b[:])
    while b:
        a, b = b, _pdivmod(a, b)[1]
    return a


def _pmulmod(a: list[int], b: list[int], m: list[int]) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % 3
    return _pdivmod(prod, m)[1]


def is_irreducible(coeffs: Sequence[int]) -> bool:
    """Irreducibility of a monic polynomial over F3.

    A degree-d polynomial is reducible iff it shares a factor with
    t^{3^k} - t for some k <= d/2, since any irreducible factor of degree
    k divides that polynomial.
    """
    m = list(coeffs)
    d = len(m) - 1
    if d < 1 or m[-1] != 1:
        return False
    if d == 1:
        return True
    if m[0] == 0:  # divisible by t
        return False
    u = [0, 1]  # t
    for _ in range(d // 2):
        u = _pmulmod(_pmulmod(u, u, m), u, m)  # Frobenius: u -> u^3
        diff = u[:]
        while len(diff) < 2:
            diff.append(0)
        diff[1] = (diff[1] - 1) % 3
        if len(_pgcd(m, diff)) > 1:
            return False
    return True


def _barrett_mul(d: int, modulus: Sequence[int]) -> Callable[[int, int], int]:
    """Packed product mod the modulus, by polynomial Barrett reduction.

    One operand may be unreduced (slots <= 4); see DEGREE_CAP. For a product
    p of degree <= 2d - 1 the quotient by the modulus is exactly
    (p // t^d) * mu // t^d with mu = t^(2d) // modulus: unlike integer
    Barrett reduction, no correction step is needed. The same code serves
    sparse and dense moduli.
    """
    mu = int.from_bytes(bytes(_pdivmod([0] * 2 * d + [1], list(modulus))[0]), "little")
    neg_m = int.from_bytes(bytes((-c) % 3 for c in modulus), "little")
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
        other = self._peer(other)
        return FieldElement(self.ctx, _mod3(self.coeffs + other.coeffs, self.ctx.d))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        other = self._peer(other)
        return FieldElement(self.ctx, _mod3(self.coeffs + 2 * other.coeffs, self.ctx.d))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, _mod3(2 * self.coeffs, self.ctx.d))

    def __mul__(self, other: "FieldElement") -> "FieldElement":
        other = self._peer(other)
        return FieldElement(self.ctx, self.ctx._mul(self.coeffs, other.coeffs))

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
        return FieldElement(self.ctx, self.ctx._pow(self.coeffs, n))

    def inverse(self) -> "FieldElement":
        if self.is_zero():
            raise DivisionByZero("cannot invert 0")
        return FieldElement(self.ctx, self.ctx._pow(self.coeffs, self.ctx.q - 2))

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


class FieldContext:
    """A realization of GF(3^d): modulus plus cached constants.

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
        "_trace_weights",
        "_chi_table",
        "_nonsquare",
    )

    def __init__(self, d: int, modulus: tuple[int, ...]):
        self.d = d
        self.q = 3**d
        self.modulus = modulus
        self.key = (d, modulus)
        self._mul = _barrett_mul(d, modulus)  # packed product mod the modulus
        self.zero = FieldElement(self, 0)
        self.one = FieldElement(self, 1)
        self.minus_one = FieldElement(self, 2)
        self._trace_weights = self._build_trace_weights()
        self._chi_table: Optional[bytearray] = None
        self._nonsquare: Optional[FieldElement] = None
        # filled in by make_context once arithmetic is available
        self.q_minus_1_factors: tuple[int, ...] = ()
        self.beta: FieldElement = self.one
        self.alpha: FieldElement = self.one
        self.tau: Optional[FieldElement] = None

    def _build_trace_weights(self) -> int:
        # Trace of each power-basis monomial t^i, packed with t^i's weight at
        # byte d-1-i: byte d-1 of x * weights is then the trace of x. The sum
        # of the d conjugates lies in F3, so it is their constant byte.
        weights = []
        for i in range(self.d):
            y = acc = 1 << 8 * i
            for _ in range(self.d - 1):
                y = self._mul(self._mul(y, y), y)
                acc += y  # slots stay <= 2d
            weights.append(acc % 256 % 3)
        return int.from_bytes(bytes(weights), "big")

    # -- packed arithmetic ---------------------------------------------

    def _pow(self, a: int, n: int) -> int:
        mul, result = self._mul, 1
        while n:
            if n & 1:
                result = mul(result, a)
            n >>= 1
            if n:
                a = mul(a, a)
        return result

    def _encode(self, a: int) -> int:
        # slots may be unreduced: the digit table reads each one mod 3
        return int(a.to_bytes(self.d, "big").translate(_DIGITS), 3)

    def _chi(self, a: int) -> int:
        # quadratic character of a packed value whose slots may be unreduced
        table = self._chi_table
        if table is not None:
            return table[self._encode(a)] - 1
        a = _mod3(a, self.d)
        if not a:
            return 0
        return 1 if self._pow(a, (self.q - 1) // 2) == 1 else -1

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
        coeffs = tuple(int(c) for c in value)
        if len(coeffs) != self.d or any(c not in (0, 1, 2) for c in coeffs):
            raise ParseError(f"need {self.d} coefficients in {{0,1,2}}, got {value!r}")
        return FieldElement(self, int.from_bytes(bytes(coeffs), "little"))

    def from_int(self, enc: int) -> FieldElement:
        if not 0 <= enc < self.q:
            raise ParseError(f"encoding {enc} out of range [0, {self.q})")
        packed = 0
        for i in range(self.d):
            enc, c = divmod(enc, 3)
            packed |= c << 8 * i
        return FieldElement(self, packed)

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in encoding order."""
        # product varies its last slot fastest; big-endian puts it at t^0
        for digits in itertools.product(b"\x00\x01\x02", repeat=self.d):
            yield FieldElement(self, int.from_bytes(bytes(digits), "big"))

    def random_element(self, rng) -> FieldElement:
        return self.from_int(rng.randrange(self.q))

    def random_nonzero(self, rng) -> FieldElement:
        return self.from_int(rng.randrange(1, self.q))

    # -- cached tables ---------------------------------------------------

    def chi_table(self) -> bytearray:
        """Table of chi(x) + 1 indexed by encoding; built on first use.

        Walks the powers of beta, so it costs q - 1 multiplications.
        Only available for q <= 3^13.
        """
        table = self._chi_table
        if table is None:
            if self.q > CHI_TABLE_LIMIT:
                raise OverflowError("chi table limited to q <= 3^13")
            table = bytearray([1]) * self.q
            cur, beta = 1, self.beta.coeffs
            for k in range(self.q - 1):
                table[self._encode(cur)] = 2 if k % 2 == 0 else 0
                cur = self._mul(cur, beta)
            self._chi_table = table
        return table

    def cube_table(self) -> Optional[list[int]]:
        """Encoding-indexed list of packed x^3, for q <= 3^8 only (else None).

        The library no longer reads it; perfbench still calls it.
        """
        if self.q > _CUBE_TABLE_LIMIT:
            return None
        return [self._pow(x.coeffs, 3) for x in self.elements()]

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FieldContext):
            return NotImplemented
        return self.key == other.key

    def __hash__(self) -> int:
        return hash(self.key)

    def __repr__(self) -> str:
        mod = ",".join(str(c) for c in self.modulus)
        return f"FieldContext(d={self.d}, modulus=[{mod}])"


# ----------------------------------------------------------------------
# Context construction
# ----------------------------------------------------------------------


def _default_modulus(d: int) -> tuple[int, ...]:
    # monic irreducible whose low-coefficient vector has the smallest
    # base-3 encoding; deterministic across runs
    for high_first in itertools.product(range(3), repeat=d):
        coeffs = high_first[::-1] + (1,)
        if is_irreducible(coeffs):
            return coeffs
    raise DegreeOutOfRange(f"no irreducible polynomial of degree {d} found")


@functools.lru_cache(maxsize=None)
def _build_context(d: int, modulus: tuple[int, ...]) -> FieldContext:
    ctx = FieldContext(d, modulus)
    ctx.q_minus_1_factors = tuple(factorize(ctx.q - 1))
    primes = sorted(set(ctx.q_minus_1_factors))
    exps = [(ctx.q - 1) // p for p in primes]
    for enc in range(1, ctx.q):
        cand = ctx.from_int(enc)
        if all(ctx._pow(cand.coeffs, e) != 1 for e in exps):
            ctx.beta = cand
            break
    # Smallest-encoding trace-1 element, constructed rather than scanned:
    # every digit below the first basis index with nonzero trace contributes
    # nothing, so the minimum is a single digit at that index (the trace
    # basis can be zero on a long prefix, making a raw scan infeasible).
    weights = ctx._trace_weights.to_bytes(d, "big")  # weight of t^i at index i
    i0 = next(i for i, w in enumerate(weights) if w)
    # w * w = 1 mod 3, so w is its own inverse
    ctx.alpha = FieldElement(ctx, weights[i0] << 8 * i0)
    if d % 2 == 0:
        ctx.tau = sqrt(ctx.minus_one)
    return ctx


def make_context(
    d: int, modulus_override: Optional[Sequence[int]] = None
) -> FieldContext:
    """Build (or fetch the cached) GF(3^d) context.

    Args:
        d: extension degree, 1 <= d <= DEGREE_CAP.
        modulus_override: full monic coefficient list (c0, ..., cd) to use
            instead of the deterministic smallest-encoding irreducible.

    Raises:
        DegreeOutOfRange, ModulusReducible, FactorizationFailure.
    """
    if not isinstance(d, int) or not 1 <= d <= DEGREE_CAP:
        raise DegreeOutOfRange(f"d must satisfy 1 <= d <= {DEGREE_CAP}, got {d}")
    if modulus_override is not None:
        coeffs = tuple(int(c) % 3 for c in modulus_override)
        if len(coeffs) != d + 1 or coeffs[-1] != 1:
            raise ParseError(
                f"modulus must be monic of degree {d}: expected {d + 1} "
                f"coefficients ending in 1"
            )
        if not is_irreducible(coeffs):
            raise ModulusReducible(f"modulus {list(coeffs)} is reducible over F3")
        return _build_context(d, coeffs)
    return _build_context(d, _default_modulus(d))


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


def trace(x: FieldElement) -> int:
    """Absolute trace GF(3^d) -> F3, reported as 0, 1 or -1."""
    ctx = x.ctx
    total = (x.coeffs * ctx._trace_weights >> 8 * (ctx.d - 1) & 255) % 3
    return -1 if total == 2 else total


def chi(x: FieldElement) -> int:
    """Quadratic character: +1 on nonzero squares, -1 on non-squares, 0 at 0."""
    return x.ctx._chi(x.coeffs)


def is_fourth_power(x: FieldElement) -> bool:
    """Membership of x in the subgroup of fourth powers of the unit group."""
    if x.is_zero():
        raise ZeroArgument("0 is not in the unit group")
    ctx = x.ctx
    if ctx.d % 2 == 1:
        # squares and fourth powers coincide when gcd(q-1, 4) = 2
        return chi(x) == 1
    return ctx._pow(x.coeffs, (ctx.q - 1) // 4) == 1


def smallest_nonsquare(ctx: FieldContext) -> FieldElement:
    """The non-square with the smallest encoding; cached on the context."""
    cached = ctx._nonsquare
    if cached is None:
        for enc in range(1, ctx.q):
            cand = ctx.from_int(enc)
            if chi(cand) == -1:
                cached = cand
                break
        else:  # pragma: no cover - every field has non-squares
            raise RuntimeError("no non-square found")
        ctx._nonsquare = cached
    return cached


def sqrt(x: FieldElement) -> Optional[FieldElement]:
    """Square root with the smaller encoding, or None for non-squares.

    Tonelli-Shanks on q - 1 = 2^s * odd, seeded with the smallest-encoding
    non-square; the first 2-power probe doubles as the square test. For
    odd d, s = 1 and the root is the single exponentiation x^((q+1)/4).
    """
    ctx = x.ctx
    if x.is_zero():
        return ctx.zero
    mul, q1 = ctx._mul, ctx.q - 1
    m = (q1 & -q1).bit_length() - 1  # s
    odd = q1 >> m
    w = ctx._pow(x.coeffs, (odd - 1) // 2)
    r = mul(x.coeffs, w)  # x^((odd+1)/2)
    t = mul(r, w)  # x^odd, of order dividing 2^m
    c = None
    while t != 1:
        i, probe = 0, t
        while probe != 1:
            probe, i = mul(probe, probe), i + 1
            if i == m:  # only while m = s: x^((q-1)/2) = -1, a non-square
                return None
        if c is None:
            c = ctx._pow(smallest_nonsquare(ctx).coeffs, odd)
        b = ctx._pow(c, 1 << (m - i - 1))
        m, c = i, mul(b, b)
        t, r = mul(t, c), mul(r, b)
    root = FieldElement(ctx, r)
    return min(root, -root, key=FieldElement.encoding)


def fourth_roots(x: FieldElement) -> list[FieldElement]:
    """All v with v^4 = x, sorted by encoding (possibly empty)."""
    ctx = x.ctx
    if x.is_zero():
        return [ctx.zero]
    s = sqrt(x)
    if s is None:
        return []
    roots = set()
    for cand in (s, -s):
        v = sqrt(cand)
        if v is not None:
            roots.add(v)
            roots.add(-v)
    return sorted(roots, key=FieldElement.encoding)


def solve_linearized(c: FieldElement, k: FieldElement) -> Optional[FieldElement]:
    """Solve r^3 + c*r + k = 0 for r, or return None when no root exists.

    The map L(r) = r^3 + c*r is F3-linear, so this reduces to a d x d linear
    system over F3 in the power basis. When several roots exist (the kernel
    is at most one-dimensional), the one with the smallest encoding is
    returned.
    """
    ctx = c.ctx
    if k.ctx.key != ctx.key:
        raise ContextMismatch("c and k live in different contexts")
    d, mul = ctx.d, ctx._mul
    # Column j packs L(t^j) in its low d bytes and t^j in its high d bytes,
    # so one integer operation updates the image and the preimage together.
    t = mul(1, 1 << 8)  # t reduced by the modulus (not t itself at d = 1)
    t3 = mul(mul(t, t), t)
    cube, ct = 1, c.coeffs  # t^(3j) and c * t^j
    cols = []
    for j in range(d):
        cols.append(_mod3(cube + ct, d) | 1 << 8 * (d + j))
        cube, ct = mul(cube, t3), mul(ct, t)
    # Column echelon form: the pivot for byte i is eliminated from every
    # column left, so later pivots are zero at every earlier pivot byte.
    # Column operations skip the mod-3 reduction: each adds at most 4 to a
    # slot and a column takes at most d of them, so its slots stay at most
    # 2 + 4d <= 126, and 252 when a pivot is scaled by 2. A column is
    # reduced once, when it becomes a pivot; -k below also ends <= 4 + 4d.
    pivots = []
    for shift in range(0, 8 * d, 8):
        sel = next((col for col in cols if (col >> shift & 255) % 3), None)
        if sel is None:
            continue
        cols.remove(sel)
        sel = _mod3((sel >> shift & 255) % 3 * sel, 2 * d)  # pivot 1, as 2 * 2 = 1
        cols = [col + (3 - f) * sel if (f := (col >> shift & 255) % 3) else col for col in cols]
        pivots.append((shift, sel))
    # Reduce -k by the pivots; the high bytes collect -r with L(r) = -k.
    v = 2 * k.coeffs
    for shift, col in pivots:
        f = (v >> shift & 255) % 3
        if f:
            v += (3 - f) * col
    v = _mod3(v, 2 * d)
    if v % (1 << 8 * d):  # -k is not in the image
        return None
    roots = [_mod3(2 * (v >> 8 * d), d)]
    # the columns left have L = 0 and span the kernel (at most 3 elements)
    for col in cols:
        ker = _mod3(col >> 8 * d, d)
        roots += [_mod3(r + f * ker, d) for f in (1, 2) for r in roots]
    return min((FieldElement(ctx, r) for r in roots), key=FieldElement.encoding)


# ----------------------------------------------------------------------
# Text encoding
# ----------------------------------------------------------------------


def decode_element(ctx: FieldContext, text: str) -> FieldElement:
    """Parse either a coefficient list "c0,c1,..." or a base-3 integer."""
    text = text.strip()
    if "," in text:
        parts = [p.strip() for p in text.split(",")]
        if len(parts) != ctx.d:
            raise ParseError(f"expected {ctx.d} coefficients, got {len(parts)}")
        coeffs = []
        for p in parts:
            if p not in ("0", "1", "2"):
                raise ParseError(f"bad coefficient {p!r}, must be 0, 1 or 2")
            coeffs.append(int(p))
        return FieldElement(ctx, int.from_bytes(bytes(coeffs), "little"))
    try:
        enc = int(text)
    except ValueError:
        raise ParseError(f"cannot parse element {text!r}")
    if not 0 <= enc < ctx.q:
        raise ParseError(f"value {enc} out of range [0, {ctx.q})")
    return ctx.from_int(enc)
