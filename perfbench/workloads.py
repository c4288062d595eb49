"""The workloads: inputs from the seed, one operation, its checks.

Every workload is a closed loop with one caller: the next operation starts
when the previous one has returned. Child processes run one at a time.
The library only ever sees curves generated from the workload seed.
"""

from __future__ import annotations

import hashlib
import itertools
import json
import os
import random
import subprocess
import sys
from pathlib import Path

from ss3 import (
    ShortCurve,
    canonicalize,
    count_supersingular,
    make_context,
    naive_count,
    s_brute,
)
from ss3 import field

import checks

ROOT = Path(__file__).resolve().parent.parent
DEFAULT_SEED = 0
CHILD_TIMEOUT_S = 150


def run_child(args: list[str]) -> tuple[int, str, str]:
    """Run `python <args>` against the checkout's src/; wait; return (rc, stdout, stderr)."""
    env = dict(os.environ)
    env["PYTHONPATH"] = str(ROOT / "src")
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env,
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S,
    )
    return proc.returncode, proc.stdout, proc.stderr


def forget_contexts() -> None:
    """Drop make_context's cache, so the next build is as cold as in a new process."""
    field._build_context.cache_clear()


def ss3_child(args: list[str], meter) -> tuple[int, str]:
    """One `ss3 <args>` call, the way a user runs the CLI: (rc, stdout).

    The call runs under sampled.py, which adds the machine-speed timings
    it took in the child to the speed meter.
    """
    rc, out, err = run_child([str(Path(__file__).with_name("sampled.py")), *args])
    try:
        sampled = json.loads(err.splitlines()[-1])
        meter.add_child(sampled["samples"], sampled["kernel_s"])
    except (IndexError, ValueError, KeyError, TypeError):
        pass  # the child died early; its exit code fails the check
    return rc, out


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def curve_line(e: ShortCurve, rep, cls, witness, order: int) -> str:
    return (
        f"d={e.ctx.d} a4={e.a4} a6={e.a6} type={cls.ctype.value} "
        f"invariant={cls.invariant} order={order} u={witness.u} r={witness.r}"
    )


class Workload:
    """One set of inputs. Subclasses fill in the hooks below.

    tail_pct is the highest percentile with at least ten samples beyond it
    at the benchmark's run length; in_children says whether the load runs
    in child processes (peak memory is then the children's).
    """

    name = ""
    degrees: tuple[int, ...] = ()
    tail_pct = 50
    in_children = False

    def __init__(self) -> None:
        self.ctxs = {}
        self.meter = None  # the loop's speed meter, for child processes

    def setup(self, tr) -> None:
        """Cold build of everything the loop needs, as a fresh process pays it."""
        for d in self.degrees:
            with tr.span("field", f"make_context d={d}"):
                self.ctxs[d] = make_context(d)

    def inputs(self, seed: int):
        raise NotImplementedError

    def run(self, item, tr):
        raise NotImplementedError

    def work(self, item, out) -> int:
        return 1

    def check(self, i: int, item, out, seed: int, tr) -> list:
        """Failures of operation i, as (layer, message) pairs."""
        raise NotImplementedError

    def gate_lines(self, first, seed: int, tr) -> list[str] | None:
        """Outputs on the default seed that must stay byte-identical.

        first is the (item, output) of the run's first operation. None
        when the per-operation check already compares every output byte
        for byte against a fixed expectation, as on verify-small.
        """
        return None

    def operands(self, items) -> list:
        """Element pairs of the workload's own curves, for mul/add probes."""
        pairs = []
        for item in items:
            for e in self.curves_of(item):
                pairs.append((e.a4, e.a6 if e.a6 else e.a4))
        return pairs[:64]

    def curves_of(self, item) -> list:
        return []

    def random_curve(self, d: int, rng: random.Random) -> ShortCurve:
        ctx = self.ctxs[d]
        return ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))

    def degree_blocks(self, rng: random.Random):
        """Degrees in seed-shuffled blocks that each hold every degree once."""
        while True:
            yield from rng.sample(self.degrees, len(self.degrees))


class BulkLarge(Workload):
    name = "bulk-large"
    degrees = tuple(range(16, 32))
    tail_pct = 99
    annihilation_subset = 16  # the first block: one curve of each degree

    def inputs(self, seed):
        rng = random.Random(seed)
        for d in self.degree_blocks(rng):
            yield self.random_curve(d, rng)

    def run(self, e, tr):
        with tr.span("classify", "canonicalize"):
            rep, cls, witness = canonicalize(e)
        with tr.span("count", "count_supersingular"):
            res = count_supersingular(e)
        return rep, cls, witness, res

    def curves_of(self, item):
        return [item]

    def check(self, i, e, out, seed, tr):
        rep, cls, witness, res = out
        with tr.span("classify", "check witness and representative"):
            bad = checks.check_curve(e, rep, cls, witness, res)
        if i < self.annihilation_subset:
            with tr.span("curve", "scalar_mul(order, P)"):
                bad += checks.check_annihilates(e, res.order, random.Random(f"{seed}-{i}"))
        return bad

    def gate_lines(self, first, seed, tr):
        lines = []
        for e in itertools.islice(self.inputs(DEFAULT_SEED), 32):
            rep, cls, witness = canonicalize(e)
            lines.append(curve_line(e, rep, cls, witness, count_supersingular(e).order))
        return lines


class VerifySmall(Workload):
    name = "verify-small"
    degrees = (1, 2, 3, 4)
    d_max = 4
    in_children = True

    def setup(self, tr):
        super().setup(tr)
        for d in self.degrees:
            with tr.span("field", f"chi_table d={d}"):
                self.ctxs[d].chi_table()

    def inputs(self, seed):
        return itertools.repeat(seed)

    def run(self, seed, tr):
        with tr.span("verify", "ss3 verify"):
            return ss3_child(["verify", "--d-max", str(self.d_max), "--seed", str(seed)], self.meter)

    def work(self, seed, out):
        return checks.verify_checks(out[1])

    def check(self, i, seed_item, out, seed, tr):
        return checks.check_verify(*out, self.d_max, seed)

    def operands(self, items):
        rng = random.Random(f"operands-{items[0]}")
        return [
            (self.ctxs[d].random_nonzero(rng), self.ctxs[d].random_nonzero(rng))
            for d in self.degrees
            for _ in range(16)
        ]


class OracleMid(Workload):
    """One round: naive_count on three d=8 curves and one d=9 curve (equal
    element counts on the cube-table path and the generic path), plus
    s_brute for a in {0, 1, -1} at both degrees."""

    name = "oracle-mid"
    degrees = (8, 9)
    per_round = {8: 3, 9: 1}

    def setup(self, tr):
        super().setup(tr)
        for d, ctx in self.ctxs.items():
            with tr.span("field", f"chi_table d={d}"):
                ctx.chi_table()
            with tr.span("field", f"cube_table d={d}"):
                ctx.cube_table()

    def inputs(self, seed):
        rng = random.Random(seed)
        while True:
            yield [self.random_curve(d, rng) for d, n in self.per_round.items() for _ in range(n)]

    def run(self, curves, tr):
        naive = []
        for e in curves:
            with tr.span("curve", f"naive_count d={e.ctx.d}"):
                naive.append(naive_count(e))
        fibers = []
        for d in self.degrees:
            for a in (0, 1, -1):
                with tr.span("count", f"s_brute d={d}"):
                    fibers.append((d, a, s_brute(self.ctxs[d], a)))
        return naive, fibers

    def work(self, curves, out):
        return sum(e.ctx.q for e in curves) + 3 * sum(self.ctxs[d].q for d in self.degrees)

    def curves_of(self, item):
        return item

    def check(self, i, curves, out, seed, tr):
        naive, fibers = out
        bad = []
        with tr.span("count", "check count_supersingular"):
            for e, n in zip(curves, naive):
                bad += checks.check_oracle(e, n)
        for d, a, brute in fibers:
            bad += checks.check_fiber_sum(d, a, brute)
        return bad

    def gate_lines(self, first, seed, tr):
        # naive_count equals the closed form on every curve (checked above),
        # so the closed form stands in for the d=9 sweep here
        curves = next(self.inputs(DEFAULT_SEED))
        lines = [f"{e} closed={count_supersingular(e).order}" for e in curves]
        lines.append(f"{curves[0]} naive={naive_count(curves[0])}")
        lines += [f"s_brute d={d} a={a} = {v}" for d, a, v in first[1][1]]
        return lines


WORKLOADS = {w.name: w for w in (BulkLarge, VerifySmall, OracleMid)}
