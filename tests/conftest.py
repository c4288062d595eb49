import contextlib
import random

from hypothesis import HealthCheck, settings

from ss3 import ShortCurve, make_context

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
    """Count ctx's packed multiplications inside a with-block.

    Yields a one-item list holding the running count; ctx._mul is restored
    on exit.
    """
    mul, calls = ctx._mul, [0]

    def counting(a, b):
        calls[0] += 1
        return mul(a, b)

    ctx._mul = counting
    try:
        yield calls
    finally:
        ctx._mul = mul


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
