"""The benchmark run: set-up, closed loop, checks, gate, metrics, output.

run.py checks that the checkout's src/ holds ss3 before importing this.
"""

from __future__ import annotations

import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime, timezone
from pathlib import Path

import checks
import probes
import speed
from spans import Tracer
from workloads import WORKLOADS, digest, forget_contexts

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
OUT = HERE / "out"

SETUP_MIN_REPEATS = 9
SETUP_MIN_TOTAL_S = 0.5  # tiny set-ups repeat until this much has been timed
SETUP_MAX_REPEATS = 50
SEGMENT_S = 0.5  # operations between two machine-speed samples


def percentile(values: list[float], pct: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    k = max(0, -(-len(ordered) * pct // 100) - 1)
    return ordered[int(k)]


def measure_setup(w, tr) -> float:
    """Median of several cold set-ups at reference speed; the last one stays."""
    raw, scaled = [], []
    while len(raw) < SETUP_MIN_REPEATS or (
        sum(raw) < SETUP_MIN_TOTAL_S and len(raw) < SETUP_MAX_REPEATS
    ):
        forget_contexts()
        tr.rid = f"setup-{len(raw)}"
        meter = speed.Meter()
        t0 = time.perf_counter()
        with tr.span("bench", "setup"):
            w.setup(tr)
        raw.append(time.perf_counter() - t0)
        scaled.append(raw[-1] * meter.close())
    tr.rid = None
    return statistics.median(scaled)


def run_op(w, item, tr):
    """One operation: (output or None if it raised, seconds)."""
    t0 = time.perf_counter()
    try:
        with tr.span("bench", "request"):
            out = w.run(item, tr)
    except Exception:
        traceback.print_exc()
        out = None
    return out, time.perf_counter() - t0


@dataclass
class Loop:
    """What one closed loop leaves: times, work, failures, the first output."""

    raw: list = field(default_factory=list)  # seconds per operation
    scaled: list = field(default_factory=list)  # the same at reference speed
    items: list = field(default_factory=list)  # kept only for a traced replay
    first: tuple = ()  # (item, output) of operation 0, for the gate
    work: int = 0
    failed: int = 0
    messages: list = field(default_factory=list)

    @property
    def wall(self) -> float:
        return sum(self.scaled)

    @property
    def raw_wall(self) -> float:
        return sum(self.raw)


def check_op(w, loop: Loop, i: int, item, out, seed: int, tr) -> None:
    """Check one output right away, so outputs need not be kept."""
    phase, tr.phase = tr.phase, "check"
    if out is None:
        bad = [("bench", f"operation {i} raised")]
    else:
        loop.work += w.work(item, out)
        try:
            bad = w.check(i, item, out, seed, tr)
        except Exception:
            traceback.print_exc()
            bad = [("bench", f"checking operation {i} raised")]
    tr.phase = phase
    for layer, msg in bad:
        tr.fail(layer)
        loop.messages.append(msg)
    loop.failed += bool(bad)
    if i == 0:
        loop.first = (item, out)


def closed_loop(w, items, seconds: float, seed: int, tr, keep_items=False,
                max_ops: float = float("inf")) -> Loop:
    """Run operations back to back until the next one would overrun `seconds`.

    At least one operation runs, and each output is checked as soon as it
    arrives. The machine-speed kernel is sampled before the first
    operation, after every SEGMENT_S of operations and while child
    processes run; each segment's times are scaled by the mean of its
    samples. Neither the checks nor the kernel count in the times.
    """
    loop = Loop()
    start = time.perf_counter()
    last = 0.0
    w.meter = speed.Meter()

    def more(done: int) -> bool:
        return done == 0 or (
            done < max_ops and (time.perf_counter() - start) + last <= seconds
        )

    while more(len(loop.raw)):
        segment = []
        seg_start = time.perf_counter()
        while not segment or (
            time.perf_counter() - seg_start < SEGMENT_S and more(len(loop.raw) + len(segment))
        ):
            i = tr.rid = len(loop.raw) + len(segment)
            item = next(items)
            in_child = w.meter.child_kernel_s
            out, last = run_op(w, item, tr)
            last -= w.meter.child_kernel_s - in_child
            segment.append(last)
            check_op(w, loop, i, item, out, seed, tr)
            if keep_items:
                loop.items.append(item)
        f = w.meter.close()
        loop.raw += segment
        loop.scaled += [sec * f for sec in segment]
    tr.rid = None
    w.meter = None
    return loop


def gate(w, first, seed, tr) -> list[str] | None:
    """Byte-identity gate: default-seed outputs must match the stored digest.

    None when the workload has no gate of its own (see Workload.gate_lines).
    """
    try:
        lines = w.gate_lines(first, seed, tr)
    except Exception:
        traceback.print_exc()
        return [f"byte-identity gate: {w.name} outputs could not be computed"]
    if lines is None:
        return None
    got = digest(lines)
    want = json.loads((HERE / "golden.json").read_text()).get(w.name)
    if got != want:
        return [f"byte-identity gate: {w.name} outputs digest {got}, stored {want}"]
    return []


def provenance(args, w, n_ops: int) -> dict:
    try:
        cpu = next(
            line.split(":", 1)[1].strip()
            for line in Path("/proc/cpuinfo").read_text().splitlines()
            if line.startswith("model name")
        )
    except (OSError, StopIteration):
        cpu = platform.processor() or "unknown"
    commit = None
    if (HERE.parent / ".git").exists():  # else git would search parent directories
        try:
            commit = subprocess.run(
                ["git", "rev-parse", "HEAD"], cwd=HERE.parent,
                capture_output=True, text=True, timeout=10,
            ).stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    src_hash = hashlib.sha256()
    for path in sorted((SRC / "ss3").glob("*.py")):
        src_hash.update(path.name.encode() + b"\0" + path.read_bytes())
    return {
        "workload": w.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "operations": n_ops,
        "tail_percentile": w.tail_pct,
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        "commit": commit,
        "src_sha256": src_hash.hexdigest(),
        "utc": datetime.now(timezone.utc).isoformat(timespec="seconds"),
    }


def loop_metrics(w, lat: list[float], work: int) -> dict:
    """Median and tail latency, and work rate, from per-operation times."""
    tail = percentile(lat, w.tail_pct) if w.tail_pct > 50 else statistics.median(lat)
    return {
        "op_p50_ms": (statistics.median(lat) * 1e3, "ms"),
        "op_tail_ms": (tail * 1e3, "ms"),
        "work_per_s": (work / sum(lat), "1/s"),
    }


def end_to_end(w, setup_s, loop: Loop) -> dict:
    who = resource.RUSAGE_CHILDREN if w.in_children else resource.RUSAGE_SELF
    return {
        "setup_s": (setup_s, "s"),
        **loop_metrics(w, loop.scaled, loop.work),
        "peak_rss_mb": (resource.getrusage(who).ru_maxrss / 1024, "MB"),
    }


def unit_of(name: str) -> str:
    for marker, unit in ((".calls", "count"), (".failed", "count"), (".busy_s", "s"),
                         ("_frac", "ratio"), ("_per_s", "1/s"), ("_per_witness", "count"),
                         ("_ms", "ms"), ("_us", "us")):
        if marker in name:
            return unit
    raise KeyError(name)


def per_layer(w, tr, untraced: Loop, traced: Loop, seed: int) -> dict:
    tr.phase = "probe"
    m = {}
    m.update(probes.cli_probes(tr))
    m.update(probes.build_probes(w, tr))
    m.update(probes.oracle_probes(seed, tr))
    m.update(probes.field_probes(w, untraced.items, seed, tr))
    checks_done, seconds = probes.verify_probe(seed, tr)
    if w.name == "verify-small":
        checks_done += untraced.work + traced.work
        seconds += untraced.raw_wall + traced.raw_wall
    m["verify.checks_per_s"] = checks_done / seconds

    builds = {}
    for rec in tr.layer_spans("setup"):
        if rec["name"].startswith("make_context"):
            builds[rec["rid"]] = builds.get(rec["rid"], 0.0) + rec["end"] - rec["start"]
    m["field.make_context_ms"] = statistics.median(builds.values()) * 1e3

    busy = sum(r["end"] - r["start"] for r in tr.layer_spans("pass"))
    m["trace.overhead_frac"] = traced.wall / untraced.wall - 1
    m["trace.pass_busy_frac"] = busy / traced.raw_wall
    m.update(tr.layer_totals())
    return {name: (value, unit_of(name)) for name, value in m.items()}


def run(args) -> int:
    """One benchmark run for parsed arguments; returns the exit code."""
    if args.workload not in WORKLOADS:
        print(f"error: unknown workload {args.workload!r}; one of {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    w = WORKLOADS[args.workload]()
    tr = Tracer(enabled=args.trace == 1)

    problems = checks.self_test()
    setup_s = measure_setup(w, tr)
    items = w.inputs(args.seed)
    if args.trace:
        tr.enabled = False
        loop = closed_loop(w, items, args.seconds / 2, args.seed, tr, keep_items=True)
        tr.enabled, tr.phase = True, "pass"
        replay = closed_loop(w, iter(loop.items), float("inf"), args.seed, tr,
                             max_ops=len(loop.items))
        failed, messages = loop.failed + replay.failed, loop.messages + replay.messages
    else:
        loop = closed_loop(w, items, args.seconds, args.seed, tr)
        failed, messages = loop.failed, loop.messages

    tr.phase = "check"
    gate_msgs = gate(w, loop.first, args.seed, tr)
    gated = gate_msgs is not None
    gate_msgs = gate_msgs or []
    messages += gate_msgs + [f"checker self-test: {p}" for p in problems]
    # the gate, where there is one, and the self-test count as one attempted check each
    failed += len(gate_msgs) + bool(problems)
    attempted = len(loop.raw) * (2 if args.trace else 1) + 1 + gated

    if args.trace:
        metrics = per_layer(w, tr, loop, replay, args.seed)
    else:
        metrics = end_to_end(w, setup_s, loop)
    prov = provenance(args, w, len(loop.raw))
    prov["speed_factor"] = loop.wall / loop.raw_wall
    if not args.trace:
        prov["unscaled"] = {k: v for k, (v, _) in loop_metrics(w, loop.raw, loop.work).items()}
    result = {
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    OUT.mkdir(exist_ok=True)
    stem = f"{w.name}-seed{args.seed}-trace{args.trace}"
    (OUT / f"{stem}.json").write_text(
        json.dumps({"provenance": prov, "failures": messages, **result}, indent=1) + "\n"
    )
    if args.trace:
        tr.write(OUT / f"{stem}-spans.jsonl")
    for msg in messages[:20]:
        print(f"FAIL {msg}", file=sys.stderr)
    print(json.dumps({"provenance": prov}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1

