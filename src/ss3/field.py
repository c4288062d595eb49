"""Exact arithmetic in GF(3^d).

Elements are coefficient vectors over F3 in the power basis of a monic
irreducible modulus. A FieldContext fixes the modulus together with the
constants the classification machinery needs: a primitive root beta, a
trace-one element alpha, and (for even d) a square root tau of -1. All
constants are chosen deterministically by scanning elements in encoding
order, where the encoding of (c0, ..., c_{d-1}) is the base-3 integer
c0 + 3*c1 + ... + 3^{d-1}*c_{d-1}.

Contexts are immutable after construction and safe to share across
threads; the lazily built character table is filled idempotently.
"""

from __future__ import annotations

import functools
import os
from typing import Iterator, Optional, Sequence, Union

from .errors import (
    ContextMismatch,
    DegreeOutOfRange,
    DivisionByZero,
    ModulusReducible,
    ParseError,
    ZeroArgument,
)
from .factor import factorize

DEGREE_CAP = 31
DEFAULT_ORACLE_CAP = 3**13
ORACLE_CAP_ENV = "SS3_ORACLE_CAP"

# chi tables are cheap to build and worth it only where full sweeps happen
CHI_TABLE_LIMIT = 3**13
_CUBE_TABLE_LIMIT = 3**8


def oracle_cap() -> int:
    """Brute-force enumeration cap: SS3_ORACLE_CAP env override or 3^13."""
    raw = os.environ.get(ORACLE_CAP_ENV)
    if raw is None:
        return DEFAULT_ORACLE_CAP
    try:
        return int(raw)
    except ValueError:
        raise ParseError(f"{ORACLE_CAP_ENV} must be an integer, got {raw!r}")


# ----------------------------------------------------------------------
# Raw polynomial helpers over F3 (little-endian coefficient lists).
# Used only for modulus selection; element arithmetic lives on the context.
# ----------------------------------------------------------------------


def _ptrim(p: list[int]) -> list[int]:
    while p and p[-1] == 0:
        p.pop()
    return p


def _pmod(a: list[int], m: list[int]) -> list[int]:
    a = a[:]
    dm = len(m) - 1
    inv_lead = 1 if m[-1] == 1 else 2
    while len(a) - 1 >= dm and a:
        shift = len(a) - 1 - dm
        factor = (a[-1] * inv_lead) % 3
        for i, c in enumerate(m):
            a[shift + i] = (a[shift + i] - factor * c) % 3
        _ptrim(a)
    return a


def _pgcd(a: list[int], b: list[int]) -> list[int]:
    a, b = _ptrim(a[:]), _ptrim(b[:])
    while b:
        a, b = b, _pmod(a, b)
    return a


def _pmulmod(a: list[int], b: list[int], m: list[int]) -> list[int]:
    prod = [0] * (len(a) + len(b) - 1) if a and b else []
    for i, ai in enumerate(a):
        if ai:
            for j, bj in enumerate(b):
                prod[i + j] = (prod[i + j] + ai * bj) % 3
    return _pmod(prod, m)


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


# ----------------------------------------------------------------------
# Field elements
# ----------------------------------------------------------------------


CoeffsLike = Union[int, str, Sequence[int], "FieldElement"]


class FieldElement:
    """An element of GF(3^d), tied to one FieldContext.

    Supports +, -, *, /, ** and unary negation. Construct through
    FieldContext.element(); instances are immutable and hashable.
    """

    __slots__ = ("ctx", "coeffs")

    def __init__(self, ctx: "FieldContext", coeffs: tuple[int, ...]):
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
        enc = 0
        for c in reversed(self.coeffs):
            enc = enc * 3 + c
        return enc

    def is_zero(self) -> bool:
        return not any(self.coeffs)

    # -- arithmetic ----------------------------------------------------

    def __add__(self, other: "FieldElement") -> "FieldElement":
        other = self._peer(other)
        return FieldElement(self.ctx, self.ctx._add(self.coeffs, other.coeffs))

    def __sub__(self, other: "FieldElement") -> "FieldElement":
        other = self._peer(other)
        return FieldElement(self.ctx, self.ctx._sub(self.coeffs, other.coeffs))

    def __neg__(self) -> "FieldElement":
        return FieldElement(self.ctx, self.ctx._neg(self.coeffs))

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
        return FieldElement(self.ctx, self.ctx._inv(self.coeffs))

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
        return ",".join(str(c) for c in self.coeffs)

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
        "_rows",
        "_rows_packed",
        "_trace_coeffs",
        "_cube_basis",
        "_chi_table",
        "_cube_table",
        "_nonsquare",
    )

    def __init__(self, d: int, modulus: tuple[int, ...]):
        self.d = d
        self.q = 3**d
        self.modulus = modulus
        self.key = (d, modulus)
        low = modulus[:-1]
        self._rows = self._build_rows(low)
        self._rows_packed = tuple(
            int.from_bytes(bytes(row), "little") for row in self._rows
        )
        self.zero = FieldElement(self, (0,) * d)
        self.one = FieldElement(self, (1,) + (0,) * (d - 1))
        self.minus_one = FieldElement(self, (2,) + (0,) * (d - 1))
        self._trace_coeffs = self._build_trace_coeffs()
        self._cube_basis = self._build_cube_basis()
        self._chi_table: Optional[bytearray] = None
        self._cube_table: Optional[list[tuple[int, ...]]] = None
        self._nonsquare: Optional[FieldElement] = None
        # filled in by make_context once arithmetic is available
        self.q_minus_1_factors: tuple[int, ...] = ()
        self.beta: FieldElement = self.one
        self.alpha: FieldElement = self.one
        self.tau: Optional[FieldElement] = None

    # -- construction helpers -----------------------------------------

    def _build_rows(self, low: tuple[int, ...]) -> tuple[tuple[int, ...], ...]:
        # rows[k - d] = coefficients of t^k reduced mod modulus, k = d..2d-2
        d = self.d
        if d == 1:
            return ()
        base = tuple((-c) % 3 for c in low)
        rows = [base]
        cur = base
        for _ in range(d - 2):
            top = cur[-1]
            shifted = (0,) + cur[:-1]
            if top:
                cur = tuple((s + top * b) % 3 for s, b in zip(shifted, base))
            else:
                cur = shifted
            rows.append(cur)
        return tuple(rows)

    def _build_trace_coeffs(self) -> tuple[int, ...]:
        # trace of each power-basis monomial; trace(x) is then a dot product
        out = []
        for i in range(self.d):
            mono = tuple(1 if j == i else 0 for j in range(self.d))
            acc = mono
            y = mono
            for _ in range(self.d - 1):
                y = self._mul(self._mul(y, y), y)
                acc = self._add(acc, y)
            out.append(acc[0])
        return tuple(out)

    def _build_cube_basis(self) -> tuple[tuple[int, ...], ...]:
        # (t^i)^3 reduced mod modulus, for the linearized-equation matrix
        powers = [self.one.coeffs]
        cur = self.one.coeffs
        for _ in range(3 * (self.d - 1)):
            cur = self._mul_t(cur)
            powers.append(cur)
        return tuple(powers[3 * i] for i in range(self.d))

    # -- raw coefficient arithmetic ------------------------------------

    def _add(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x + y) % 3 for x, y in zip(a, b))

    def _sub(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((x - y) % 3 for x, y in zip(a, b))

    def _neg(self, a: tuple[int, ...]) -> tuple[int, ...]:
        return tuple((-x) % 3 for x in a)

    def _mul(self, a: tuple[int, ...], b: tuple[int, ...]) -> tuple[int, ...]:
        # Kronecker substitution: one big-integer multiply with a byte per
        # coefficient. Slot values stay below 256 for every d <= 31
        # (product coefficients <= 4d, plus at most 4(d-1) from reduction).
        d = self.d
        if d == 1:
            return ((a[0] * b[0]) % 3,)
        prod = int.from_bytes(bytes(a), "little") * int.from_bytes(bytes(b), "little")
        buf = prod.to_bytes(2 * d, "little")
        acc = int.from_bytes(buf[:d], "little")
        rows = self._rows_packed
        for k in range(d, 2 * d - 1):
            c = buf[k] % 3
            if c:
                acc += c * rows[k - d]
        out = acc.to_bytes(d + 1, "little")
        return tuple(out[i] % 3 for i in range(d))

    def _mul_t(self, a: tuple[int, ...]) -> tuple[int, ...]:
        # multiply by the generator t, reducing the single overflow term
        top = a[-1]
        shifted = (0,) + a[:-1]
        if not top:
            return shifted
        if self.d == 1:
            row = ((-self.modulus[0]) % 3,)
        else:
            row = self._rows[0]
        return tuple((s + top * r) % 3 for s, r in zip(shifted, row))

    def _pow(self, a: tuple[int, ...], n: int) -> tuple[int, ...]:
        if n == 0:
            return self.one.coeffs
        result = self.one.coeffs
        base = a
        while n:
            if n & 1:
                result = self._mul(result, base)
            n >>= 1
            if n:
                base = self._mul(base, base)
        return result

    def _inv(self, a: tuple[int, ...]) -> tuple[int, ...]:
        if not any(a):
            raise DivisionByZero("cannot invert 0")
        return self._pow(a, self.q - 2)

    def _decode(self, enc: int) -> tuple[int, ...]:
        out = []
        for _ in range(self.d):
            out.append(enc % 3)
            enc //= 3
        return tuple(out)

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
        return FieldElement(self, coeffs)

    def from_int(self, enc: int) -> FieldElement:
        if not 0 <= enc < self.q:
            raise ParseError(f"encoding {enc} out of range [0, {self.q})")
        return FieldElement(self, self._decode(enc))

    def elements(self) -> Iterator[FieldElement]:
        """All field elements in encoding order."""
        for enc in range(self.q):
            yield FieldElement(self, self._decode(enc))

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
            cur = self.one.coeffs
            beta = self.beta.coeffs
            for k in range(self.q - 1):
                enc = 0
                for c in reversed(cur):
                    enc = enc * 3 + c
                table[enc] = 2 if k % 2 == 0 else 0
                cur = self._mul(cur, beta)
            table[0] = 1
            self._chi_table = table
        return table

    def cube_table(self) -> Optional[list[tuple[int, ...]]]:
        """Encoding-indexed table of x^3, for small fields only."""
        if self.q > _CUBE_TABLE_LIMIT:
            return None
        table = self._cube_table
        if table is None:
            table = []
            for enc in range(self.q):
                x = self._decode(enc)
                table.append(self._mul(self._mul(x, x), x))
            self._cube_table = table
        return table

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
    for enc in range(3**d):
        low = []
        e = enc
        for _ in range(d):
            low.append(e % 3)
            e //= 3
        coeffs = tuple(low) + (1,)
        if is_irreducible(coeffs):
            return coeffs
    raise DegreeOutOfRange(f"no irreducible polynomial of degree {d} found")


@functools.lru_cache(maxsize=None)
def _build_context(d: int, modulus: tuple[int, ...]) -> FieldContext:
    ctx = FieldContext(d, modulus)
    ctx.q_minus_1_factors = tuple(factorize(ctx.q - 1))
    primes = sorted(set(ctx.q_minus_1_factors))
    exps = [(ctx.q - 1) // p for p in primes]
    one = ctx.one.coeffs
    for enc in range(1, ctx.q):
        cand = ctx._decode(enc)
        if all(ctx._pow(cand, e) != one for e in exps):
            ctx.beta = FieldElement(ctx, cand)
            break
    # Smallest-encoding trace-1 element, constructed rather than scanned:
    # every digit below the first basis index with nonzero trace contributes
    # nothing, so the minimum is a single digit at that index (the trace
    # basis can be zero on a long prefix, making a raw scan infeasible).
    i0 = next(i for i, w in enumerate(ctx._trace_coeffs) if w)
    w = ctx._trace_coeffs[i0]  # w * w = 1 mod 3, so w is its own inverse
    ctx.alpha = FieldElement(
        ctx, tuple(w if i == i0 else 0 for i in range(d))
    )
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
    total = 0
    for c, t in zip(x.coeffs, ctx._trace_coeffs):
        total += c * t
    total %= 3
    return -1 if total == 2 else total


def chi(x: FieldElement) -> int:
    """Quadratic character: +1 on nonzero squares, -1 on non-squares, 0 at 0."""
    if x.is_zero():
        return 0
    ctx = x.ctx
    table = ctx._chi_table
    if table is not None:
        return table[x.encoding()] - 1
    return 1 if ctx._pow(x.coeffs, (ctx.q - 1) // 2) == ctx.one.coeffs else -1


def is_fourth_power(x: FieldElement) -> bool:
    """Membership of x in the subgroup of fourth powers of the unit group."""
    if x.is_zero():
        raise ZeroArgument("0 is not in the unit group")
    ctx = x.ctx
    if ctx.d % 2 == 1:
        # squares and fourth powers coincide when gcd(q-1, 4) = 2
        return chi(x) == 1
    return ctx._pow(x.coeffs, (ctx.q - 1) // 4) == ctx.one.coeffs


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

    For q = 3 mod 4 (odd d) this is the single exponentiation x^((q+1)/4);
    for q = 1 mod 4 the generic cyclic-group procedure seeded with the
    smallest-encoding non-square.
    """
    ctx = x.ctx
    if x.is_zero():
        return ctx.zero
    if ctx.q % 4 == 3:
        r = x ** ((ctx.q + 1) // 4)
        if r * r != x:
            return None
        neg = -r
        return r if r.encoding() <= neg.encoding() else neg
    if chi(x) != 1:
        return None
    # Tonelli-Shanks in the cyclic unit group
    q1 = ctx.q - 1
    s = 0
    while q1 % 2 == 0:
        q1 //= 2
        s += 1
    z = smallest_nonsquare(ctx)
    m = s
    c = z**q1
    t = x**q1
    r = x ** ((q1 + 1) // 2)
    one = ctx.one
    while t != one:
        i = 0
        probe = t
        while probe != one:
            probe = probe * probe
            i += 1
        b = c ** (1 << (m - i - 1))
        m = i
        c = b * b
        t = t * c
        r = r * b
    neg = -r
    return r if r.encoding() <= neg.encoding() else neg


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

    The map r -> r^3 + c*r is F3-linear, so this reduces to a d x d linear
    system over F3 in the power basis. When several roots exist (the kernel
    is at most one-dimensional), the one with the smallest encoding is
    returned.
    """
    ctx = c.ctx
    if k.ctx.key != ctx.key:
        raise ContextMismatch("c and k live in different contexts")
    d = ctx.d
    # column j is the image of the basis monomial t^j
    cols = []
    w = c.coeffs  # c * t^j, updated incrementally
    for j in range(d):
        cols.append(ctx._add(ctx._cube_basis[j], w))
        w = ctx._mul_t(w)
    rhs = ctx._neg(k.coeffs)
    aug = [[cols[j][i] for j in range(d)] + [rhs[i]] for i in range(d)]
    pivots: list[int] = []
    row = 0
    for col in range(d):
        sel = next((i for i in range(row, d) if aug[i][col]), None)
        if sel is None:
            continue
        aug[row], aug[sel] = aug[sel], aug[row]
        if aug[row][col] == 2:
            aug[row] = [(2 * v) % 3 for v in aug[row]]
        for i in range(d):
            if i != row and aug[i][col]:
                f = aug[i][col]
                aug[i] = [(vi - f * vr) % 3 for vi, vr in zip(aug[i], aug[row])]
        pivots.append(col)
        row += 1
    for i in range(row, d):
        if aug[i][d]:
            return None
    particular = [0] * d
    for r_idx, col in enumerate(pivots):
        particular[col] = aug[r_idx][d]
    free = [j for j in range(d) if j not in pivots]
    # kernel of r -> r^3 + c*r has at most 3 elements
    candidates = [tuple(particular)]
    for fc in free:
        vec = [0] * d
        vec[fc] = 1
        for r_idx, col in enumerate(pivots):
            vec[col] = (-aug[r_idx][fc]) % 3
        extended = []
        for base in candidates:
            for lam in (1, 2):
                extended.append(tuple((b + lam * v) % 3 for b, v in zip(base, vec)))
        candidates.extend(extended)
    best = min(candidates, key=lambda cs: FieldElement(ctx, cs).encoding())
    return FieldElement(ctx, best)


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
        return FieldElement(ctx, tuple(coeffs))
    try:
        enc = int(text)
    except ValueError:
        raise ParseError(f"cannot parse element {text!r}")
    if not 0 <= enc < ctx.q:
        raise ParseError(f"value {enc} out of range [0, {ctx.q})")
    return ctx.from_int(enc)
