"""Self-checking suites: closed forms against brute-force oracles.

Each suite emits one PASS/FAIL line per degree; a FAIL line names the
first offending input so failures are reproducible from the report alone.
Every suite runs at every degree, whatever failed before it.

The work is a fixed list of tasks, one per (suite, degree), except that
oracle-sampled and then witness-soundness draw from one seeded rng and so
form one task. The tasks are spread over the CPUs in the process's affinity
mask: longest first by a fixed cost estimate, each to the share with the
least estimated work so far (Graham's LPT rule). The calling process runs
the first share; each other share runs in a child made by os.fork(), which
pickles its lines back through a pipe. The lines are sorted by suite and
degree, so reports are byte-identical across runs for a fixed (d_max,
samples, seed), whatever the number of CPUs. With one CPU (`taskset -c 0`),
without os.fork, or beside a second thread (a fork beside live threads can
deadlock), every task runs in the calling process. A share whose fork
fails with OSError runs there too.

A task that raises stops there. Once every share is back, the exception of
the earliest (suite, degree) that raised is raised, with the same type and
message for any number of CPUs. One from a child is rebuilt from its type
and args, without attributes or traceback; `taskset -c 0` shows those. A
child that ends without sending its lines raises ChildProcessError. Every
child is reaped before run_verification returns or raises; one still
running when something raised is killed first.
"""

from __future__ import annotations

import os
import random
import threading
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

SUITES = (
    "fiber-sums",
    "oracle-exhaustive",
    "oracle-sampled",
    "class-census",
    "twist-sums",
    "witness-soundness",
)

Checks = Callable[[FieldContext], Iterator[Optional[str]]]
# (index into SUITES, d, checks, passed): the arguments of one _suite_line
Unit = tuple[int, int, Checks, Callable[[int, int], str]]
# (cost estimate, units run in order)
Task = tuple[int, list[Unit]]
Line = tuple[int, int, str]
Error = tuple[int, int, Exception]


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

    def add(self, line: str) -> None:
        """Append one "PASS ..." or "FAIL ..." suite line."""
        self.lines.append(line)
        self.failures += line.startswith("FAIL ")

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


def _suite_line(
    suite: str, d: int, checks: Checks, passed: Callable[[int, int], str]
) -> str:
    """The PASS or FAIL line of one suite at one degree.

    checks(ctx) yields None per passing check, or the text naming the first
    offending input; the suite stops drawing from it there. passed(d, n)
    words the PASS line after n passing checks.
    """
    n = 0
    for failure in checks(make_context(d)):
        if failure is not None:
            return f"FAIL {suite} d={d} {failure}"
        n += 1
    return f"PASS {suite} d={d} {passed(d, n)}"


def _check_curve(e: ShortCurve) -> Optional[str]:
    got = count_supersingular(e)
    want = naive_count(e)
    if got.order != want:
        return f"curve={e} expected={want} got={got.order}"
    if not _trace_in_spectrum(e.ctx.d, got.frobenius_trace):
        return f"curve={e} trace={got.frobenius_trace} outside spectrum"
    return None


def _exhaustive_oracle(ctx: FieldContext) -> Iterator[Optional[str]]:
    return (_check_curve(e) for e in all_short_curves(ctx))


def _sampled_oracle(
    ctx: FieldContext, rng: random.Random, samples: int
) -> Iterator[Optional[str]]:
    return (_check_curve(random_supersingular_curve(ctx, rng)) for _ in range(samples))


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


def _tasks(d_max: int, samples: int, seed: int) -> list[Task]:
    """Every task of a run, with its cost estimate.

    A cost unit is about one curve of an exhaustive suite, which checks
    9^d curves at d; a twist sum costs about half of one, a witness pair
    about 10, a sampled curve 2^d / 8 and a fiber-sum degree 3^d / 64
    (timed at d <= 8). Only the order of the estimates matters.
    """
    rng = random.Random(seed)
    small = range(1, min(d_max, EXHAUSTIVE_MAX_D) + 1)
    sampled = range(EXHAUSTIVE_MAX_D + 1, d_max + 1)
    checks, curves = (lambda d, n: f"checks={n}"), (lambda d, n: f"curves={n}")
    tasks: list[Task] = [
        (1 + 3**d // 64, [(0, d, _fiber_sums, checks)])
        for d in range(1, min(d_max, FIBER_SUM_MAX_D) + 1)
    ]
    tasks += [(9**d, [(1, d, _exhaustive_oracle, curves)]) for d in small]
    # oracle-sampled and then witness-soundness draw from one rng: one task
    tasks.append((
        samples * (sum(2**d // 8 for d in sampled) + 10 * len(small)),
        [(2, d, lambda ctx: _sampled_oracle(ctx, rng, samples), curves) for d in sampled]
        + [
            (5, d, lambda ctx: _witness_soundness(ctx, rng, samples), lambda d, n: f"pairs={n}")
            for d in small
        ],
    ))
    tasks += [
        (9**d if d <= EXHAUSTIVE_MAX_D else 20, [(3, d, _class_census, _census_passed)])
        for d in range(1, d_max + 1)
    ]
    tasks += [(9**d // 2, [(4, d, _twist_sums, checks)]) for d in small]
    return tasks


def _worker_count(n_tasks: int) -> int:
    """One process per CPU in the affinity mask, at most one per task.

    One when os.fork or os.sched_getaffinity is missing, or when a second
    thread runs: a fork beside live threads can deadlock.
    """
    if not hasattr(os, "fork") or not hasattr(os, "sched_getaffinity"):
        return 1
    return 1 if threading.active_count() > 1 else min(len(os.sched_getaffinity(0)), n_tasks)


def _plan(costs: list[int]) -> list[list[int]]:
    """Task indices per share, one share per worker; the calling process
    runs the first.

    Longest first, each task to the share with the least estimated work so
    far, the lower share on a tie. Costs are positive, so no share is empty.
    """
    shares: list[list[int]] = [[] for _ in range(_worker_count(len(costs)))]
    loads = [0] * len(shares)
    for i in sorted(range(len(costs)), key=lambda i: (-costs[i], i)):
        k = loads.index(min(loads))
        shares[k].append(i)
        loads[k] += costs[i]
    return shares


def _run_share(tasks: list[Task]) -> tuple[list[Line], list[Error]]:
    """The lines of a share's tasks, and the exception each task raised.

    A task runs its units in order and stops at the first that raises.
    """
    lines: list[Line] = []
    errors: list[Error] = []
    for _, units in tasks:
        for index, d, checks, passed in units:
            try:
                lines.append((index, d, _suite_line(SUITES[index], d, checks, passed)))
            except Exception as exc:  # raised by _run_tasks once every share is back
                errors.append((index, d, exc))
                break
    return lines, errors


def _fork_share(tasks: list[Task]):
    """Start a child that runs tasks: (its pid, the pipe it pickles
    _run_share's result into, each exception as its type and args)."""
    import pickle  # only a run on several CPUs pays for the import, once before forking

    r, w = os.pipe()
    try:
        pid = os.fork()
    except OSError:
        os.close(r)
        os.close(w)
        raise
    if pid == 0:  # the child never returns from here
        status = 1
        try:
            os.close(r)
            lines, errors = _run_share(tasks)
            # an exception's attributes may not pickle, its type and args do
            sent = [(index, d, type(exc), exc.args) for index, d, exc in errors]
            with open(w, "wb") as out:
                pickle.dump((lines, sent), out)
            status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _run_tasks(tasks: list[Task]) -> list[Line]:
    """Every task's lines in report order; see the module docstring."""
    shares = [[tasks[i] for i in share] for share in _plan([cost for cost, _ in tasks])]
    local, children = shares[0], {}
    try:
        for share in shares[1:]:
            try:
                pid, pipe = _fork_share(share)
            except OSError:  # no process to be had (EAGAIN, ENOMEM): run it here
                local = local + share
            else:
                children[pid] = pipe
        lines, errors = _run_share(local)
        for pid, pipe in list(children.items()):
            import pickle  # loaded already by _fork_share

            with pipe:
                data = pipe.read()
            status = os.waitstatus_to_exitcode(os.waitpid(pid, 0)[1])
            del children[pid]
            if status != 0:
                raise ChildProcessError(f"verify worker {pid} ended with exit code {status}")
            more_lines, more_errors = pickle.loads(data)
            lines += more_lines
            errors += [(index, d, cls.__new__(cls, *args)) for index, d, cls, args in more_errors]
    finally:
        if children:  # something raised: stop the children still running
            import signal

            for pid, pipe in children.items():
                pipe.close()
                os.kill(pid, signal.SIGKILL)
                os.waitpid(pid, 0)
    if errors:
        raise min(errors, key=lambda error: error[:2])[2]
    return sorted(lines)


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
    for _, _, line in _run_tasks(_tasks(d_max, samples, seed)):
        rep.add(line)
    return rep
