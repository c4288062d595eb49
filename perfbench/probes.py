"""Per-layer probes, run after the traced pass so they do not inflate it.

Each probe times calls into one layer's public functions and records them
as spans of phase "probe". Operands come from the run's seed: the
workload's own curves for mul/add, and curves drawn the way bulk-large
draws them at one even (d=20, Tonelli-Shanks square roots) and one odd
(d=31, a single power) degree for everything measured "at d".
"""

from __future__ import annotations

import random
import statistics
import time

from ss3 import (
    ShortCurve,
    canonicalize,
    chi,
    count_supersingular,
    fourth_roots,
    isomorphic,
    make_context,
    naive_count,
    s_brute,
    solve_linearized,
    sqrt,
    trace,
)
from ss3.factor import factorize
from ss3.verify import run_verification

import checks
from workloads import forget_contexts, run_child

PROBE_DEGREES = (20, 31)
ORACLE_DEGREES = (8, 9)
CURVES_PER_DEGREE = 12
COLD_REPEATS = 3


def per_call_us(tr, layer: str, name: str, fn, arg_lists, reps: int = 1) -> float:
    """Median over operands of the per-call time of fn, in microseconds."""
    times = []
    for args in arg_lists:
        with tr.span(layer, name, calls=reps):
            t0 = time.perf_counter()
            for _ in range(reps):
                fn(*args)
            times.append((time.perf_counter() - t0) / reps)
    return statistics.median(times) * 1e6


def cli_probes(tr) -> dict:
    def child_ms(name, code):
        times = []
        for _ in range(COLD_REPEATS):
            with tr.span("cli", name):
                t0 = time.perf_counter()
                rc, _, _ = run_child(["-c", code])
                times.append(time.perf_counter() - t0)
            if rc != 0:
                tr.fail("cli")
        return statistics.median(times) * 1e3

    interpreter = child_ms("python -c pass", "pass")
    imported = child_ms("python -c 'import ss3.cli'", "import ss3.cli")
    return {"cli.interpreter_ms": interpreter, "cli.import_ms": imported - interpreter}


def build_probes(w, tr) -> dict:
    """Cold factorization over the workload's degrees and cold chi tables."""
    fac = []
    for _ in range(COLD_REPEATS):
        t0 = time.perf_counter()
        for d in w.degrees:
            with tr.span("factor", f"factorize 3^{d}-1"):
                factorize(3**d - 1)
        fac.append(time.perf_counter() - t0)
    chi_fill = []
    for _ in range(COLD_REPEATS):
        forget_contexts()
        ctxs = [make_context(d) for d in ORACLE_DEGREES]
        t0 = time.perf_counter()
        for ctx in ctxs:
            with tr.span("field", f"chi_table d={ctx.d}"):
                ctx.chi_table()
        chi_fill.append(time.perf_counter() - t0)
    return {
        "factor.factorize_ms": statistics.median(fac) * 1e3,
        "field.chi_table_ms": statistics.median(chi_fill) * 1e3,
    }


def oracle_probes(seed: int, tr) -> dict:
    """Per-element naive_count cost per degree, and s_brute per call."""
    rng = random.Random(f"oracle-probe-{seed}")
    out = {}
    for d in ORACLE_DEGREES:
        ctx = make_context(d)
        ctx.chi_table()
        ctx.cube_table()  # lazy set-up, paid before timing as in the workload
        e = ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))
        with tr.span("curve", f"naive_count d={d}"):
            t0 = time.perf_counter()
            naive = naive_count(e)
            elapsed = time.perf_counter() - t0
        for layer, msg in checks.check_oracle(e, naive):
            tr.fail(layer)
        out[f"curve.naive_count_us_per_elem.d{d}"] = elapsed / ctx.q * 1e6
    ctx = make_context(8)
    out["count.s_brute_ms"] = per_call_us(
        tr, "count", "s_brute d=8", lambda a: s_brute(ctx, a), [(0,), (1,), (-1,)]
    ) / 1e3
    return out


def field_probes(w, results, seed: int, tr) -> dict:
    pairs = w.operands(results)
    out = {
        "field.mul_us": per_call_us(tr, "field", "mul", lambda x, y: x * y, pairs, reps=50),
        "field.add_us": per_call_us(tr, "field", "add", lambda x, y: x + y, pairs, reps=50),
    }
    rng = random.Random(f"field-probe-{seed}")
    roots_tried = []
    for d in PROBE_DEGREES:
        ctx = make_context(d)
        curves = [
            ShortCurve(ctx.random_nonzero(rng), ctx.random_element(rng))
            for _ in range(CURVES_PER_DEGREE)
        ]
        canon, reps = [], []
        for e in curves:
            with tr.span("classify", f"canonicalize d={d}"):
                t0 = time.perf_counter()
                rep, cls, witness = canonicalize(e)
                canon.append(time.perf_counter() - t0)
            reps.append(rep)
            roots_tried.append(fourth_roots(e.a4 / rep.a4).index(witness.u) + 1)
        neg = [(-e.a4,) for e in curves]
        tag = f".d{d}"
        out["classify.canonicalize_us" + tag] = statistics.median(canon) * 1e6
        out["classify.isomorphic_us" + tag] = per_call_us(
            tr, "classify", f"isomorphic d={d}", isomorphic, list(zip(curves, reps))
        )
        out["count.count_supersingular_us" + tag] = per_call_us(
            tr, "count", f"count_supersingular d={d}", count_supersingular, [(e,) for e in curves]
        )
        out["field.inverse_us" + tag] = per_call_us(
            tr, "field", f"inverse d={d}", lambda x: x.inverse(), neg
        )
        out["field.chi_us" + tag] = per_call_us(tr, "field", f"chi d={d}", chi, neg)
        out["field.sqrt_us" + tag] = per_call_us(tr, "field", f"sqrt d={d}", sqrt, neg)
        out["field.fourth_roots_us" + tag] = per_call_us(
            tr, "field", f"fourth_roots d={d}", fourth_roots,
            [(e.a4 / r.a4,) for e, r in zip(curves, reps)],
        )
        out["field.solve_linearized_us" + tag] = per_call_us(
            tr, "field", f"solve_linearized d={d}", solve_linearized,
            [(e.a4, e.a6) for e in curves],
        )
        out["field.trace_us" + tag] = per_call_us(
            tr, "field", f"trace d={d}", trace, [(e.a6,) for e in curves], reps=50
        )
    out["classify.roots_tried_per_witness"] = statistics.mean(roots_tried)
    return out


def verify_probe(seed: int, tr) -> tuple[int, float]:
    """A small in-process verify run: (checks on its PASS lines, seconds)."""
    with tr.span("verify", "run_verification d_max=2"):
        t0 = time.perf_counter()
        report = run_verification(2, samples=20, seed=seed)
        elapsed = time.perf_counter() - t0
    if not report.passed:
        tr.fail("verify")
    return checks.verify_checks(report.text()), elapsed
