"""Self-checking suites: closed forms against brute-force oracles.

Each suite emits one PASS/FAIL line per degree; a FAIL line names the
first offending input so failures are reproducible from the report alone.
Every suite runs at every degree, whatever failed before it.

The work is a fixed list of tasks, one per (suite, degree), each drawing
from its own rng seeded by (seed, suite, degree) alone. The tasks are
spread over the CPUs in the process's affinity mask: longest first by a
fixed cost estimate, each to the share with the least estimated work so
far (Graham's LPT rule). The calling process runs the first share; each
other share runs in a child made by os.fork(), which pickles its lines
back through a pipe. The lines are sorted by suite and degree, so reports
are byte-identical across runs for a fixed (d_max, samples, seed),
whatever the number of CPUs. With one CPU (`taskset -c 0`), without
os.fork, or beside a second thread (a fork beside live threads can
deadlock), every task runs in the calling process.

A task that raises stops there; the other tasks still run. A child sends
its lines only when no task of its share raised; otherwise it exits
non-zero and sends nothing. After its own share, the calling process runs
every share that did not come back: its fork failed, a task raised, or the
child died. That share never ran in the calling process, so it runs there
as on a single CPU. Every exception is thus raised in the calling process,
with its attributes and traceback, and the one of the earliest (suite,
degree) wins, whatever the number of CPUs.
Every child is reaped before run_verification returns or raises; one still
running when the calling process raised is killed first.
"""

from __future__ import annotations

import os
import random
import threading
from dataclasses import dataclass, field as dataclass_field
from typing import BinaryIO, Callable, Iterator, NamedTuple, Optional

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

Checks = Iterator[Optional[str]]
# (cost estimate, (index into SUITES, d, samples, seed)): one (suite,
# degree) unit and the arguments of its _suite_line
Task = tuple[int, tuple[int, int, int, int]]
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


def _check_curve(e: ShortCurve) -> Optional[str]:
    got = count_supersingular(e)
    want = naive_count(e)
    if got.order != want:
        return f"curve={e} expected={want} got={got.order}"
    if not _trace_in_spectrum(e.ctx.d, got.frobenius_trace):
        return f"curve={e} trace={got.frobenius_trace} outside spectrum"
    return None


def _exhaustive_oracle(ctx: FieldContext, rng: random.Random, samples: int) -> Checks:
    return (_check_curve(e) for e in all_short_curves(ctx))


def _sampled_oracle(ctx: FieldContext, rng: random.Random, samples: int) -> Checks:
    return (_check_curve(random_supersingular_curve(ctx, rng)) for _ in range(samples))


def _fiber_sums(ctx: FieldContext, rng: random.Random, samples: int) -> Checks:
    for a in (0, 1, -1):
        closed, brute = s_closed(ctx.d, a), s_brute(ctx, a)
        yield None if closed == brute else f"a={a} closed={closed} brute={brute}"


def _census_size(d: int) -> int:
    return 4 if d % 2 else 6


def _class_census(ctx: FieldContext, rng: random.Random, samples: int) -> Checks:
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


def _twist_sums(ctx: FieldContext, rng: random.Random, samples: int) -> Checks:
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


def _witness_soundness(ctx: FieldContext, rng: random.Random, samples: int) -> Checks:
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


class Suite(NamedTuple):
    """One row of SUITES: the suite runs at each d in first..min(d_max, last).

    check(ctx, rng, samples) yields None per passing check, or the text
    naming the first offending input; the suite stops drawing from it
    there. passed(d, n) words the PASS line after n passing checks, and
    cost(d, samples) estimates the work of one degree.
    """

    name: str
    first: int
    last: int
    check: Callable[[FieldContext, random.Random, int], Checks]
    passed: Callable[[int, int], str]
    cost: Callable[[int, int], int]


# A cost unit is about one curve of oracle-exhaustive, which checks 9^d
# curves at d: about 10 us, 65 ms at d = 4 in one warm process. A census
# curve costs about 2, a twist-sums curve 1, a witness pair 14, a sampled
# curve 8 + 3^d / 64 (timed at d <= 13) and a fiber-sum degree 1 + 3^d / 64.
# Only the order of the estimates matters.
SUITES = (
    Suite("fiber-sums", 1, FIBER_SUM_MAX_D, _fiber_sums,
          lambda d, n: f"checks={n}", lambda d, samples: 1 + 3**d // 64),
    Suite("oracle-exhaustive", 1, EXHAUSTIVE_MAX_D, _exhaustive_oracle,
          lambda d, n: f"curves={n}", lambda d, samples: 9**d),
    Suite("oracle-sampled", EXHAUSTIVE_MAX_D + 1, DEGREE_CAP, _sampled_oracle,
          lambda d, n: f"curves={n}", lambda d, samples: samples * (8 + 3**d // 64)),
    Suite("class-census", 1, DEGREE_CAP, _class_census,
          _census_passed, lambda d, samples: 2 * 9**d if d <= EXHAUSTIVE_MAX_D else 20),
    Suite("twist-sums", 1, EXHAUSTIVE_MAX_D, _twist_sums,
          lambda d, n: f"checks={n}", lambda d, samples: 9**d),
    Suite("witness-soundness", 1, EXHAUSTIVE_MAX_D, _witness_soundness,
          lambda d, n: f"pairs={n}", lambda d, samples: 14 * samples),
)


def _rng(seed: int, suite: str, d: int) -> random.Random:
    """The rng of one (suite, degree) unit. CPython hashes a str seed with
    SHA-512, so its draws are the same in every process and under every
    PYTHONHASHSEED."""
    return random.Random(f"{seed}/{suite}/{d}")


def _suite_line(index: int, d: int, samples: int, seed: int) -> str:
    """The PASS or FAIL line of SUITES[index] at degree d."""
    suite = SUITES[index]
    n = 0
    for failure in suite.check(make_context(d), _rng(seed, suite.name, d), samples):
        if failure is not None:
            return f"FAIL {suite.name} d={d} {failure}"
        n += 1
    return f"PASS {suite.name} d={d} {suite.passed(d, n)}"


def _tasks(d_max: int, samples: int, seed: int) -> list[Task]:
    """Every (suite, degree) unit of a run, with its cost estimate."""
    return [
        (suite.cost(d, samples), (index, d, samples, seed))
        for index, suite in enumerate(SUITES)
        for d in range(suite.first, min(d_max, suite.last) + 1)
    ]


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
    """The lines of a share's tasks, and the exception each task raised."""
    lines: list[Line] = []
    errors: list[Error] = []
    for _, (index, d, samples, seed) in tasks:
        try:
            lines.append((index, d, _suite_line(index, d, samples, seed)))
        except Exception as exc:  # raised by _run_tasks once every share has run
            errors.append((index, d, exc))
    return lines, errors


def _fork_share(tasks: list[Task]) -> tuple[int, BinaryIO]:
    """Start a child that runs tasks: (its pid, the pipe it pickles their
    lines into). It sends nothing and exits non-zero if a task raised."""
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
            if not errors:
                with open(w, "wb") as out:
                    pickle.dump(lines, out)
                status = 0
        finally:
            os._exit(status)
    os.close(w)
    return pid, open(r, "rb")


def _run_tasks(tasks: list[Task]) -> list[Line]:
    """Every task's lines in report order; see the module docstring."""
    shares = [[tasks[i] for i in share] for share in _plan([cost for cost, _ in tasks])]
    children: dict[int, BinaryIO] = {}  # pid -> pipe of each child not yet reaped
    forked: list[tuple[list[Task], Optional[int]]] = []
    try:
        for share in shares[1:]:
            try:
                pid, pipe = _fork_share(share)
            except OSError:  # no process to be had (EAGAIN, ENOMEM)
                pid = None
            else:
                children[pid] = pipe
            forked.append((share, pid))
        lines, errors = _run_share(shares[0])
        for share, pid in forked:
            sent = None
            if pid is not None:
                import pickle  # loaded already by _fork_share

                with children[pid] as pipe:
                    data = pipe.read()
                if os.waitpid(pid, 0)[1] == 0:
                    sent = pickle.loads(data)
                del children[pid]
            if sent is None:  # the fork failed, a task raised or the child died
                sent, more = _run_share(share)
                errors += more
            lines += sent
    finally:
        if children:  # something raised here: stop the children still running
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

    Arguments that would let a suite pass without checking anything, fail
    only after others ran, or leave the report to chance (a seed that is
    not an int) are rejected before any suite runs.
    """
    if isinstance(d_max, bool) or not isinstance(d_max, int) or not 1 <= d_max <= DEGREE_CAP:
        raise DegreeOutOfRange(f"d-max must satisfy 1 <= d-max <= {DEGREE_CAP}, got {d_max}")
    check_oracle_cap(3**d_max)
    if isinstance(samples, bool) or not isinstance(samples, int) or samples < 1:
        raise InvalidArgument(f"samples must be at least 1, got {samples}")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise InvalidArgument(f"seed must be an int, got {seed!r}")
    rep = VerifyReport(d_max=d_max, samples=samples, seed=seed)
    for _, _, line in _run_tasks(_tasks(d_max, samples, seed)):
        rep.add(line)
    return rep
