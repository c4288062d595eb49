"""Self-checking suites: closed forms against brute-force oracles.

Each suite emits one PASS/FAIL line per degree; a FAIL line names the
first offending input so failures are reproducible from the report alone.
Reports are byte-identical across runs for a fixed (d_max, samples, seed).
"""

from __future__ import annotations

import random
from dataclasses import dataclass, field as dataclass_field
from typing import Callable, Optional

from .classify import canonicalize, isomorphic, list_classes, quadratic_twist
from .count import CountResult, count_supersingular, s_brute, s_closed
from .curve import ShortCurve, naive_count, random_point, random_supersingular_curve
from .errors import DegreeOutOfRange, InvalidArgument, OracleTooLarge, PointNotOnCurve
from .field import DEGREE_CAP, FieldContext, make_context, oracle_cap, smallest_nonsquare

EXHAUSTIVE_MAX_D = 4
FIBER_SUM_MAX_D = 8

CountFn = Callable[[ShortCurve], CountResult]


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


def _check_curve(rep: VerifyReport, suite: str, e: ShortCurve, count_fn: CountFn) -> bool:
    got = count_fn(e)
    want = naive_count(e)
    if got.order != want:
        rep.fail(f"{suite} d={e.ctx.d} curve={e} expected={want} got={got.order}")
        return False
    if not _trace_in_spectrum(e.ctx.d, got.frobenius_trace):
        rep.fail(f"{suite} d={e.ctx.d} curve={e} trace={got.frobenius_trace} outside spectrum")
        return False
    return True


def _suite_fiber_sums(rep: VerifyReport) -> None:
    for d in range(1, min(rep.d_max, FIBER_SUM_MAX_D) + 1):
        ctx = make_context(d)
        for a in (0, 1, -1):
            closed, brute = s_closed(d, a), s_brute(ctx, a)
            if closed != brute:
                rep.fail(f"fiber-sums d={d} a={a} closed={closed} brute={brute}")
                break
        else:
            rep.ok(f"fiber-sums d={d} checks=3")


def _all_curves(ctx: FieldContext):
    for a4e in range(1, ctx.q):
        a4 = ctx.from_int(a4e)
        for a6e in range(ctx.q):
            yield ShortCurve(a4, ctx.from_int(a6e))


def _suite_oracle_exhaustive(rep: VerifyReport, count_fn: CountFn) -> None:
    for d in range(1, min(rep.d_max, EXHAUSTIVE_MAX_D) + 1):
        ctx = make_context(d)
        n = 0
        for e in _all_curves(ctx):
            if not _check_curve(rep, "oracle-exhaustive", e, count_fn):
                break
            n += 1
        else:
            rep.ok(f"oracle-exhaustive d={d} curves={n}")


def _suite_oracle_sampled(rep: VerifyReport, rng: random.Random, count_fn: CountFn) -> None:
    for d in range(EXHAUSTIVE_MAX_D + 1, rep.d_max + 1):
        ctx = make_context(d)
        for i in range(rep.samples):
            e = random_supersingular_curve(ctx, rng)
            if not _check_curve(rep, "oracle-sampled", e, count_fn):
                break
        else:
            rep.ok(f"oracle-sampled d={d} curves={rep.samples}")


def _suite_class_census(rep: VerifyReport) -> None:
    for d in range(1, rep.d_max + 1):
        ctx = make_context(d)
        entries = list_classes(ctx)
        expected = 4 if d % 2 else 6
        if len(entries) != expected:
            rep.fail(f"class-census d={d} classes={len(entries)} expected={expected}")
            continue
        bad = None
        for i, left in enumerate(entries):
            for right in entries[i + 1 :]:
                if isomorphic(left.rep, right.rep) is not None:
                    bad = (left, right)
                    break
            if bad:
                break
        if bad:
            rep.fail(
                f"class-census d={d} representatives {bad[0].rep} and "
                f"{bad[1].rep} are isomorphic"
            )
            continue
        if d > EXHAUSTIVE_MAX_D:
            rep.ok(f"class-census d={d} classes={len(entries)} partition=skipped")
            continue
        census = {entry.cls for entry in entries}
        reps = {entry.cls: entry.rep for entry in entries}
        n = 0
        failed = False
        for e in _all_curves(ctx):
            representative, cls, witness = canonicalize(e)
            if cls not in census or representative != reps[cls]:
                rep.fail(f"class-census d={d} curve={e} maps outside the census")
                failed = True
                break
            if not witness.holds_between(e, representative):
                rep.fail(f"class-census d={d} curve={e} witness invalid")
                failed = True
                break
            n += 1
        if not failed:
            rep.ok(f"class-census d={d} classes={len(entries)} partition={n}")


def _suite_twist_sums(rep: VerifyReport, count_fn: CountFn) -> None:
    for d in range(1, min(rep.d_max, EXHAUSTIVE_MAX_D) + 1):
        ctx = make_context(d)
        g = smallest_nonsquare(ctx)
        target = 2 * ctx.q + 2
        n = 0
        failed = False
        for e in _all_curves(ctx):
            twisted = quadratic_twist(e, g)
            total = count_fn(e).order + count_fn(twisted).order
            if total != target:
                rep.fail(f"twist-sums d={d} curve={e} sum={total} expected={target}")
                failed = True
                break
            n += 1
        if not failed:
            rep.ok(f"twist-sums d={d} checks={n}")


def _random_isomorphic_pair(
    ctx: FieldContext, rng: random.Random
) -> tuple[ShortCurve, ShortCurve]:
    e = random_supersingular_curve(ctx, rng)
    u = ctx.random_nonzero(rng)
    r = ctx.random_element(rng)
    a4p = e.a4 * u ** -4
    a6p = (e.a6 + r * e.a4 + r ** 3) * u ** -6
    return e, ShortCurve(a4p, a6p)


def _suite_witness_soundness(rep: VerifyReport, rng: random.Random) -> None:
    for d in range(1, min(rep.d_max, EXHAUSTIVE_MAX_D) + 1):
        ctx = make_context(d)
        failed = False
        for _ in range(rep.samples):
            e1, e2 = _random_isomorphic_pair(ctx, rng)
            w = isomorphic(e1, e2)
            if w is None:
                rep.fail(f"witness-soundness d={d} pair {e1} ~ {e2} not recognized")
                failed = True
                break
            if not w.holds_between(e1, e2):
                rep.fail(f"witness-soundness d={d} pair {e1} ~ {e2} relations violated")
                failed = True
                break
            try:
                for _ in range(10):
                    w.map_point(random_point(e2, rng), e1)
            except PointNotOnCurve:
                rep.fail(f"witness-soundness d={d} point map left the curve {e1}")
                failed = True
                break
        if not failed:
            rep.ok(f"witness-soundness d={d} pairs={rep.samples}")


def run_verification(
    d_max: int,
    samples: int = 200,
    seed: int = 0,
    count_fn: Optional[CountFn] = None,
) -> VerifyReport:
    """Run every suite up to d_max and collect a deterministic report.

    count_fn exists as a harness hook so tests can inject a corrupted
    counting formula and watch the oracle suites catch it. Arguments that
    would let a suite pass without checking anything, or fail only after
    others ran, are rejected before any suite runs.
    """
    if not 1 <= d_max <= DEGREE_CAP:
        raise DegreeOutOfRange(f"d-max must satisfy 1 <= d-max <= {DEGREE_CAP}, got {d_max}")
    if 3**d_max > oracle_cap():
        raise OracleTooLarge(f"q = 3^{d_max} exceeds the enumeration cap {oracle_cap()}")
    if samples < 1:
        raise InvalidArgument(f"samples must be at least 1, got {samples}")
    if count_fn is None:
        count_fn = count_supersingular
    rep = VerifyReport(d_max=d_max, samples=samples, seed=seed)
    rng = random.Random(seed)
    _suite_fiber_sums(rep)
    _suite_oracle_exhaustive(rep, count_fn)
    _suite_oracle_sampled(rep, rng, count_fn)
    _suite_class_census(rep)
    _suite_twist_sums(rep, count_fn)
    _suite_witness_soundness(rep, rng)
    return rep
