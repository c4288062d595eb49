import contextlib
import functools
import random
from collections import Counter

from hypothesis import HealthCheck, settings

from ss3 import ShortCurve, field, make_context

settings.register_profile(
    "ci",
    derandomize=True,
    deadline=None,
    suppress_health_check=[HealthCheck.too_slow],
)
settings.load_profile("ci")


def sample_curves(d, n, seed=0):
    ctx = make_context(d)
    rng = random.Random(seed)
    return [
        ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng)) for _ in range(n)
    ]


@contextlib.contextmanager
def count_muls(ctx):
    """Count ctx's packed multiplications and Frobenius maps inside a with-block.

    Yields the running counts as a list [products, maps]; ctx._mul and
    ctx._frobenius are restored on exit. Element-level products count too:
    at q <= 81 each one's result is read from the context's element memo,
    under the packed product the _mul slot returns, so none bypasses it.
    """
    mul, frobenius, calls = ctx._mul, ctx._frobenius, [0, 0]

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    def counting_map(apply):
        def counted(x):
            calls[1] += 1
            return apply(x)

        return counted

    ctx._mul = counting
    ctx._frobenius = {k: counting_map(apply) for k, apply in frobenius.items()}
    try:
        yield calls
    finally:
        ctx._mul, ctx._frobenius = mul, frobenius


@contextlib.contextmanager
def count_chains():
    """Count PowerChain constructions inside a with-block, in every module.

    Yields the running count as a list [chains]; PowerChain.__init__ is
    restored on exit.
    """
    init, calls = field.PowerChain.__init__, [0]

    def counting(self, ctx, x):
        calls[0] += 1
        init(self, ctx, x)

    field.PowerChain.__init__ = counting
    try:
        yield calls
    finally:
        field.PowerChain.__init__ = init


@functools.cache
def _literal_tables(ctx):
    """#{y : y^2 = v} for every square v of ctx, and the pairs (x, x^3), built once."""
    squares = Counter(y * y for y in ctx.elements())
    return squares, [(x, x * x * x) for x in ctx.elements()]


def literal_chi(ctx):
    """chi over ctx read from the set of squares: no chi table, no PowerChain."""
    squares = _literal_tables(ctx)[0]
    return lambda v: 0 if v.is_zero() else 1 if v in squares else -1


def literal_count(e):
    """#E = 1 + sum over x of #{y : y^2 = x^3 + a4*x + a6}, the 1 for infinity."""
    squares, cubes = _literal_tables(e.ctx)
    return 1 + sum(squares[x3 + e.a4 * x + e.a6] for x, x3 in cubes)


def literal_general_count(g):
    """1 + #{(x, y) : y^2 + a1*x*y + a3*y = x^3 + a2*x^2 + a4*x + a6}, q^2 pairs."""
    ctx = g.ctx
    total = 1
    for x in ctx.elements():
        rhs = x * x * x + g.a2 * x * x + g.a4 * x + g.a6
        lhs_lin = g.a1 * x + g.a3
        for y in ctx.elements():
            if y * y + lhs_lin * y == rhs:
                total += 1
    return total


def literal_trace(x):
    """Tr(x) = x + x^3 + ... + x^(3^(d-1)) by repeated cubing, an element of F3."""
    total, power = x.ctx.zero, x
    for _ in range(x.ctx.d):
        total, power = total + power, power * power * power
    return total
