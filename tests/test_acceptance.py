"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS/FAIL line (visible with pytest -s or -v). All
numeric comparisons are exact integer equalities; the only tolerances are
the stated wall-clock budgets.
"""

import random
import time
from contextlib import contextmanager
from pathlib import Path

import pytest

from ss3 import (
    ShortCurve,
    canonicalize,
    count_supersingular,
    isomorphic,
    list_classes,
    make_context,
    naive_count,
    quadratic_twist,
    random_point,
    random_supersingular_curve,
    s_brute,
    s_closed,
    scalar_mul,
    smallest_nonsquare,
)
from ss3.curve import all_short_curves
from ss3.export import export_csv_text, export_json_text
from ss3.field import _build_context
from ss3.verify import run_verification

GOLDEN = Path(__file__).parent / "golden"


@contextmanager
def criterion(n: int, summary: str):
    try:
        yield
    except BaseException:
        print(f"FAIL criterion {n}: {summary}")
        raise
    print(f"PASS criterion {n}: {summary}")


# Shared sweeps: criteria 2, 3 and 7 all consume the same curve runs.


@pytest.fixture(scope="module")
def exhaustive_sweep():
    results = []
    start = time.perf_counter()
    for d in (1, 2, 3, 4):
        ctx = make_context(d)
        for e in all_short_curves(ctx):
            results.append((d, e, count_supersingular(e), naive_count(e)))
    return results, time.perf_counter() - start


@pytest.fixture(scope="module")
def sampled_sweep():
    results = []
    rng = random.Random(20260809)
    start = time.perf_counter()
    for d in (5, 6, 7):
        ctx = make_context(d)
        for _ in range(200):
            e = random_supersingular_curve(ctx, rng)
            results.append((d, e, count_supersingular(e), naive_count(e)))
    return results, time.perf_counter() - start


def test_criterion_1_fiber_sum_closed_forms():
    summary = "closed fiber sums match brute force, d=1..8, 24 equalities"
    with criterion(1, summary):
        start = time.perf_counter()
        checks = 0
        for d in range(1, 9):
            ctx = make_context(d)
            for a in (0, 1, -1):
                assert s_closed(d, a) == s_brute(ctx, a), (d, a)
                checks += 1
        assert checks == 24
        assert time.perf_counter() - start < 5.0


def test_criterion_2_exhaustive_oracle_equivalence(exhaustive_sweep):
    summary = "closed form equals character-sum oracle for all 7260 curves, d<=4"
    with criterion(2, summary):
        results, elapsed = exhaustive_sweep
        per_degree = {d: 0 for d in (1, 2, 3, 4)}
        for d, e, closed, oracle in results:
            assert closed.order == oracle, (d, str(e))
            per_degree[d] += 1
        assert per_degree == {1: 6, 2: 72, 3: 702, 4: 6480}
        assert elapsed < 30.0


def test_criterion_3_sampled_oracle_equivalence(sampled_sweep):
    summary = "closed form equals oracle on 200 random curves each, d=5..7"
    with criterion(3, summary):
        results, elapsed = sampled_sweep
        per_degree = {d: 0 for d in (5, 6, 7)}
        for d, e, closed, oracle in results:
            assert closed.order == oracle, (d, str(e))
            per_degree[d] += 1
        assert per_degree == {5: 200, 6: 200, 7: 200}
        assert elapsed < 60.0


def test_criterion_4_class_census_and_partition():
    summary = "census sizes 4/6, distinct representatives, exhaustive partition d<=4"
    with criterion(4, summary):
        for d, expected in [(1, 4), (2, 6), (3, 4), (4, 6), (5, 4)]:
            entries = list_classes(make_context(d))
            assert len(entries) == expected, d
            for i, left in enumerate(entries):
                for right in entries[i + 1 :]:
                    assert isomorphic(left.rep, right.rep) is None
        for d in (1, 2, 3, 4):
            ctx = make_context(d)
            reps = {entry.cls: entry.rep for entry in list_classes(ctx)}
            for e in all_short_curves(ctx):
                rep, cls, w = canonicalize(e)
                assert cls in reps and reps[cls] == rep  # exactly one class
                assert w.holds_between(e, rep)  # membership is witnessed


def test_criterion_5_witness_soundness():
    summary = "1000 random isomorphic pairs: witness relations and point maps hold"
    with criterion(5, summary):
        rng = random.Random(5)
        pairs = 0
        for d in (1, 2, 3, 4):
            ctx = make_context(d)
            for _ in range(250):
                e1 = random_supersingular_curve(ctx, rng)
                u = ctx.random_nonzero(rng)
                r = ctx.random_element(rng)
                e2 = ShortCurve(
                    e1.a4 * u**-4, (e1.a6 + r * e1.a4 + r**3) * u**-6
                )
                w = isomorphic(e1, e2)
                assert w is not None, (d, str(e1), str(e2))
                assert w.holds_between(e1, e2)
                for _ in range(10):
                    p = random_point(e2, rng)
                    # map_point validates curve membership on construction
                    q = w.map_point(p, e1)
                    assert q.curve == e1
                assert w.map_point(e2.infinity(), e1).is_infinity
                pairs += 1
        assert pairs == 1000


def test_criterion_6_twist_sum_identity():
    summary = "order(E) + order(twist(E)) = 2q + 2, exhaustive d<=4"
    with criterion(6, summary):
        for d in (1, 2, 3, 4):
            ctx = make_context(d)
            g = smallest_nonsquare(ctx)
            target = 2 * ctx.q + 2
            for e in all_short_curves(ctx):
                total = (
                    count_supersingular(e).order
                    + count_supersingular(quadratic_twist(e, g)).order
                )
                assert total == target, (d, str(e))


def test_criterion_7_trace_spectrum(exhaustive_sweep, sampled_sweep):
    summary = "every Frobenius trace is in the supersingular spectrum, 3 | t"
    with criterion(7, summary):
        for results in (exhaustive_sweep[0], sampled_sweep[0]):
            for d, e, closed, oracle in results:
                t = closed.frobenius_trace
                assert t == 3**d + 1 - oracle  # oracle agrees on the trace
                assert t % 3 == 0
                if d % 2 == 1:
                    root = 3 ** ((d + 1) // 2)
                    assert t in (0, root, -root)
                else:
                    root = 3 ** (d // 2)
                    assert t in (0, root, -root, 2 * root, -2 * root)


def test_criterion_8_beyond_oracle_consistency_and_speed():
    summary = "group-order annihilation at d=12 and d=20; d=20 count < 10 ms"
    with criterion(8, summary):
        rng = random.Random(8)
        for d in (12, 20):
            ctx = make_context(d)
            if d == 12:
                assert ctx.q == 531441
            for _ in range(50):
                e = random_supersingular_curve(ctx, rng)
                order = count_supersingular(e).order
                for _ in range(10):
                    assert scalar_mul(order, random_point(e, rng)).is_infinity

        # performance: context setup under 1 s, a single count under 10 ms
        _build_context.cache_clear()
        start = time.perf_counter()
        ctx20 = make_context(20)
        setup = time.perf_counter() - start
        assert setup < 1.0, f"context setup took {setup:.3f}s"

        e = ShortCurve(ctx20.from_int(987654321), ctx20.from_int(123456789))
        count_supersingular(e)  # warm the per-context caches
        timings = []
        for _ in range(7):
            start = time.perf_counter()
            count_supersingular(e)
            timings.append(time.perf_counter() - start)
        median = sorted(timings)[len(timings) // 2]
        assert median < 0.010, f"count took {median * 1000:.2f} ms"


def test_criterion_9_determinism_and_golden_vectors():
    summary = "verify reports byte-identical and match a golden file; d<=2 exports too"
    with criterion(9, summary):
        first = run_verification(4, samples=200, seed=7)
        second = run_verification(4, samples=200, seed=7)
        assert first.passed and second.passed
        assert first.text() == second.text()
        assert first.text() == (GOLDEN / "verify_d4_seed7.txt").read_text()
        for d in (1, 2):
            ctx = make_context(d)
            assert export_csv_text(ctx) == (GOLDEN / f"export_d{d}.csv").read_text()
            assert export_json_text(ctx) == (GOLDEN / f"export_d{d}.json").read_text()
