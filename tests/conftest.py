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
