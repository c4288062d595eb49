import contextlib
import random

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
    ctx._frobenius are restored on exit.
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


def literal_chi(ctx):
    """chi over ctx read from the set of squares: no chi table, no PowerChain."""
    squares = {y * y for y in ctx.elements()}
    return lambda v: 0 if v.is_zero() else 1 if v in squares else -1


def literal_trace(x):
    """Tr(x) = x + x^3 + ... + x^(3^(d-1)) by repeated cubing, an element of F3."""
    total, power = x.ctx.zero, x
    for _ in range(x.ctx.d):
        total, power = total + power, power * power * power
    return total
