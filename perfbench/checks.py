"""Output checks for every workload, and a self-test of those checks.

Each check returns a list of (layer, message) pairs, empty when the output
is right. The self-test feeds every check one right and several wrong
outputs, so a run that reports no failures has provably checked something.
"""

from __future__ import annotations

import random

from ss3 import (
    CountResult,
    IsomorphismWitness,
    ShortCurve,
    canonicalize,
    class_representative,
    count_supersingular,
    make_context,
    random_point,
    s_closed,
    scalar_mul,
)

VERIFY_SAMPLES = 200  # the `ss3 verify` default, which the workload keeps


def trace_spectrum(d: int) -> set[int]:
    """Frobenius traces a supersingular curve over GF(3^d) can have."""
    if d % 2:
        root = 3 ** ((d + 1) // 2)
        return {0, root, -root}
    root = 3 ** (d // 2)
    return {0, root, -root, 2 * root, -2 * root}


def check_curve(e: ShortCurve, rep, cls, witness, res: CountResult) -> list:
    """canonicalize and count_supersingular outputs for one curve."""
    bad = []
    q = e.ctx.q
    if not witness.holds_between(e, rep):
        bad.append(("classify", f"witness {witness.to_json()} fails for {e} -> {rep}"))
    if rep != class_representative(e.ctx, cls):
        bad.append(("classify", f"{e}: representative {rep} is not that of {cls}"))
    if res.frobenius_trace != q + 1 - res.order:
        bad.append(("count", f"{e}: trace {res.frobenius_trace} != q + 1 - order"))
    if res.frobenius_trace not in trace_spectrum(e.ctx.d):
        bad.append(("count", f"{e}: trace {res.frobenius_trace} outside the spectrum"))
    if res.class_used != cls:
        bad.append(("count", f"{e}: count dispatch says {res.class_used}, canonicalize {cls}"))
    return bad


def check_annihilates(e: ShortCurve, order: int, rng: random.Random) -> list:
    """The group law, independent of the closed forms: order * P = O."""
    p = random_point(e, rng)
    if not scalar_mul(order, p).is_infinity:
        return [("count", f"{e}: {order} * {p} is not the point at infinity")]
    return []


def check_oracle(e: ShortCurve, naive: int) -> list:
    closed = count_supersingular(e).order
    if naive != closed:
        return [("curve", f"{e}: naive_count {naive} != closed form {closed}")]
    return []


def check_fiber_sum(d: int, a: int, brute: int) -> list:
    closed = s_closed(d, a)
    if brute != closed:
        return [("count", f"s_brute(d={d}, a={a}) = {brute} != s_closed = {closed}")]
    return []


def expected_verify_report(d_max: int, samples: int, seed: int) -> str:
    """The passing `ss3 verify` report, derived from closed-form counts.

    Only the sampled suites depend on the seed, and their lines carry no
    curve, so the whole text is fixed by (d_max, samples, seed).
    """
    lines = []
    for d in range(1, min(d_max, 8) + 1):
        lines.append(f"fiber-sums d={d} checks=3")
    curves = {d: (3**d - 1) * 3**d for d in range(1, min(d_max, 4) + 1)}
    lines += [f"oracle-exhaustive d={d} curves={n}" for d, n in curves.items()]
    lines += [f"oracle-sampled d={d} curves={samples}" for d in range(5, d_max + 1)]
    for d in range(1, d_max + 1):
        classes = 4 if d % 2 else 6
        part = curves[d] if d in curves else "skipped"
        lines.append(f"class-census d={d} classes={classes} partition={part}")
    lines += [f"twist-sums d={d} checks={n}" for d, n in curves.items()]
    lines += [f"witness-soundness d={d} pairs={samples}" for d in curves]
    body = [f"verify d-max={d_max} samples={samples} seed={seed}"]
    body += ["PASS " + line for line in lines]
    body.append(f"RESULT PASS suites={len(lines)} failures=0")
    return "\n".join(body) + "\n"


def verify_checks(report: str) -> int:
    """Sum of the counts on a report's PASS lines (census: the partition)."""
    total = 0
    for line in report.splitlines():
        if line.startswith("PASS "):
            last = line.rsplit("=", 1)[1]
            total += int(last) if last.isdigit() else 0
    return total


def check_verify(rc: int, report: str, d_max: int, seed: int) -> list:
    if rc != 0:
        return [("verify", f"ss3 verify exited {rc}")]
    want = expected_verify_report(d_max, VERIFY_SAMPLES, seed)
    if report == want:
        return []
    got_lines, want_lines = report.splitlines(), want.splitlines()
    for i, want_line in enumerate(want_lines):
        got_line = got_lines[i] if i < len(got_lines) else "<missing>"
        if got_line != want_line:
            return [("verify", f"report line {i + 1}: {got_line!r}, expected {want_line!r}")]
    return [("verify", f"report has {len(got_lines)} lines, expected {len(want_lines)}")]


def self_test() -> list[str]:
    """Run every check on right and wrong outputs; return what misbehaved."""
    problems = []

    def expect(name: str, found: list, want_failure: bool) -> None:
        if bool(found) != want_failure:
            problems.append(f"{name}: {'missed a wrong output' if want_failure else found}")

    ctx = make_context(5)
    e = ShortCurve(ctx.from_int(7), ctx.from_int(11))
    rep, cls, w = canonicalize(e)
    res = count_supersingular(e)
    q = ctx.q
    expect("curve/right", check_curve(e, rep, cls, w, res), False)
    off_by_one = CountResult(q, res.order + 1, res.frobenius_trace - 1, cls)
    expect("curve/wrong order", check_curve(e, rep, cls, w, off_by_one), True)
    bad_w = IsomorphismWitness(w.u, w.r + ctx.one)
    expect("curve/wrong witness", check_curve(e, rep, cls, bad_w, res), True)
    # an order from the spectrum that is not this curve's: only the group
    # law can tell
    in_spectrum = next(q + 1 - t for t in sorted(trace_spectrum(5)) if q + 1 - t != res.order)
    expect("annihilates/right", check_annihilates(e, res.order, random.Random(1)), False)
    expect("annihilates/wrong order", check_annihilates(e, in_spectrum, random.Random(1)), True)
    expect("oracle/right", check_oracle(e, res.order), False)
    expect("oracle/wrong", check_oracle(e, in_spectrum), True)
    expect("fiber/right", check_fiber_sum(5, 1, s_closed(5, 1)), False)
    expect("fiber/wrong", check_fiber_sum(5, 1, s_closed(5, 1) + 1), True)

    report = expected_verify_report(4, VERIFY_SAMPLES, 3)
    expect("verify/right", check_verify(0, report, 4, 3), False)
    expect("verify/exit 1", check_verify(1, report, 4, 3), True)
    expect("verify/FAIL line", check_verify(0, report.replace("PASS twist", "FAIL twist"), 4, 3), True)
    expect("verify/short count", check_verify(0, report.replace("curves=72", "curves=71"), 4, 3), True)
    expect("verify/truncated", check_verify(0, report.rsplit("RESULT", 1)[0], 4, 3), True)
    return problems
