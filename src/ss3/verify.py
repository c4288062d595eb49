"""Self-checking suites: closed forms against brute-force oracles.

Each suite emits one PASS/FAIL line per degree; a FAIL line names the
first offending input so failures are reproducible from the report alone.
Reports are byte-identical across runs for a fixed (d_max, samples, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Iterator, Optional

from .classify import canonicalize, isomorphic, quadratic_twist
from .count import count_supersingular, list_classes, s_brute, s_closed
from .curve import (
    ShortCurve,
    all_short_curves,
    naive_count,
    random_point,
    random_supersingular_curve,
)
from .errors import DegreeOutOfRange, InvalidArgument, PointNotOnCurve
from .field import DEGREE_CAP, FieldContext, check_oracle_cap, make_context, smallest_nonsquare

EXHAUSTIVE_MAX_D = 4
FIBER_SUM_MAX_D = 8


@dataclass
class VerifyReport:
    """Accumulated suite lines plus the overall verdict."""

    d_max: int
    samples: int
    seed: int
    lines: list[str] = dataclass_field(default_factory=list)
    failures: int = 0

    @property
    def passed(self) -> bool:
        return self.failures == 0

    def ok(self, line: str) -> None:
        self.lines.append("PASS " + line)

    def fail(self, line: str) -> None:
        self.lines.append("FAIL " + line)
        self.failures += 1

    def text(self) -> str:
        header = f"verify d-max={self.d_max} samples={self.samples} seed={self.seed}"
        verdict = "PASS" if self.passed else "FAIL"
        result = f"RESULT {verdict} suites={len(self.lines)} failures={self.failures}"
        return "\n".join([header, *self.lines, result]) + "\n"


def _trace_in_spectrum(d: int, trace: int) -> bool:
    if trace % 3 != 0:
        return False
    if d % 2 == 1:
        return trace in (0, 3 ** ((d + 1) // 2), -(3 ** ((d + 1) // 2)))
    root = 3 ** (d // 2)
    return trace in (0, root, -root, 2 * root, -2 * root)


def _run_suite(
    rep: VerifyReport,
    suite: str,
    degrees: range,
    checks: Callable[[FieldContext], Iterator[Optional[str]]],
    passed: Callable[[int, int], str],
) -> None:
    """One PASS or FAIL line per degree.

    checks(ctx) yields None per passing check, or the text naming the first
    offending input; the suite stops drawing from it there. passed(d, n)
    words the PASS line after n passing checks.
    """
    for d in degrees:
        n = 0
        for failure in checks(make_context(d)):
            if failure is not None:
                rep.fail(f"{suite} d={d} {failure}")
                break
            n += 1
        else:
            rep.ok(f"{suite} d={d} {passed(d, n)}")


def _check_curve(e: ShortCurve) -> Optional[str]:
    got = count_supersingular(e)
    want = naive_count(e)
    if got.order != want:
        return f"curve={e} expected={want} got={got.order}"
    if not _trace_in_spectrum(e.ctx.d, got.frobenius_trace):
        return f"curve={e} trace={got.frobenius_trace} outside spectrum"
    return None


def _fiber_sums(ctx: FieldContext) -> Iterator[Optional[str]]:
    for a in (0, 1, -1):
        closed, brute = s_closed(ctx.d, a), s_brute(ctx, a)
        yield None if closed == brute else f"a={a} closed={closed} brute={brute}"


def _census_size(d: int) -> int:
    return 4 if d % 2 else 6


def _class_census(ctx: FieldContext) -> Iterator[Optional[str]]:
    entries = list_classes(ctx)
    if len(entries) != _census_size(ctx.d):
        yield f"classes={len(entries)} expected={_census_size(ctx.d)}"
    for i, left in enumerate(entries):
        for right in entries[i + 1 :]:
            if isomorphic(left.rep, right.rep) is not None:
                yield f"representatives {left.rep} and {right.rep} are isomorphic"
    if ctx.d > EXHAUSTIVE_MAX_D:
        return
    reps = {entry.cls: entry.rep for entry in entries}
    for e in all_short_curves(ctx):
        representative, cls, witness = canonicalize(e)
        if reps.get(cls) != representative:
            yield f"curve={e} maps outside the census"
        elif not witness.holds_between(e, representative):
            yield f"curve={e} witness invalid"
        else:
            yield None


def _census_passed(d: int, n: int) -> str:
    return f"classes={_census_size(d)} partition={n if d <= EXHAUSTIVE_MAX_D else 'skipped'}"


def _twist_sums(ctx: FieldContext) -> Iterator[Optional[str]]:
    g = smallest_nonsquare(ctx)
    target = 2 * ctx.q + 2
    for e in all_short_curves(ctx):
        twisted = quadratic_twist(e, g)
        total = count_supersingular(e).order + count_supersingular(twisted).order
        yield None if total == target else f"curve={e} sum={total} expected={target}"


def _random_isomorphic_pair(
    ctx: FieldContext, rng: random.Random
) -> tuple[ShortCurve, ShortCurve]:
    e = random_supersingular_curve(ctx, rng)
    u = ctx.random_nonzero(rng)
    r = ctx.random_element(rng)
    u_inv2 = u.inverse() ** 2
    u_inv4 = u_inv2 * u_inv2
    a4p = e.a4 * u_inv4
    a6p = (e.a6 + r * e.a4 + r ** 3) * u_inv4 * u_inv2
    return e, ShortCurve(a4p, a6p)


def _witness_soundness(
    ctx: FieldContext, rng: random.Random, samples: int
) -> Iterator[Optional[str]]:
    for _ in range(samples):
        e1, e2 = _random_isomorphic_pair(ctx, rng)
        w = isomorphic(e1, e2)
        if w is None:
            yield f"pair {e1} ~ {e2} not recognized"
        elif not w.holds_between(e1, e2):
            yield f"pair {e1} ~ {e2} relations violated"
        else:
            try:
                for _ in range(10):
                    w.map_point(random_point(e2, rng), e1)
            except PointNotOnCurve:
                yield f"point map left the curve {e1}"
            else:
                yield None


def run_verification(d_max: int, samples: int = 200, seed: int = 0) -> VerifyReport:
    """Run every suite up to d_max and collect a deterministic report.

    Arguments that would let a suite pass without checking anything, or
    fail only after others ran, are rejected before any suite runs.
    """
    if isinstance(d_max, bool) or not isinstance(d_max, int) or not 1 <= d_max <= DEGREE_CAP:
        raise DegreeOutOfRange(f"d-max must satisfy 1 <= d-max <= {DEGREE_CAP}, got {d_max}")
    check_oracle_cap(3**d_max)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise InvalidArgument(f"samples must be at least 1, got {samples}")
    rep = VerifyReport(d_max=d_max, samples=samples, seed=seed)
    rng = random.Random(seed)
    small = range(1, min(d_max, EXHAUSTIVE_MAX_D) + 1)
    _run_suite(
        rep, "fiber-sums", range(1, min(d_max, FIBER_SUM_MAX_D) + 1), _fiber_sums,
        lambda d, n: f"checks={n}",
    )
    _run_suite(
        rep, "oracle-exhaustive", small,
        lambda ctx: (_check_curve(e) for e in all_short_curves(ctx)),
        lambda d, n: f"curves={n}",
    )
    _run_suite(
        rep, "oracle-sampled", range(EXHAUSTIVE_MAX_D + 1, d_max + 1),
        lambda ctx: (_check_curve(random_supersingular_curve(ctx, rng)) for _ in range(samples)),
        lambda d, n: f"curves={n}",
    )
    _run_suite(rep, "class-census", range(1, d_max + 1), _class_census, _census_passed)
    _run_suite(rep, "twist-sums", small, _twist_sums, lambda d, n: f"checks={n}")
    _run_suite(
        rep, "witness-soundness", small, lambda ctx: _witness_soundness(ctx, rng, samples),
        lambda d, n: f"pairs={n}",
    )
    return rep
