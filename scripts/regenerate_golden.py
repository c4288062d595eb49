#!/usr/bin/env python3
"""Rebuild the golden vectors under tests/golden/.

Writes the export vectors for d = 1, 2, the report of
run_verification(4, 200, 7), classification.sha256, the SHA-256 of one
(curve, rep, class, u, r, order) line for every curve with d <= 4 and 20
seeded curves for each d = 5..31, and operations.sha256, the SHA-256 of
the public operations on seeded curves at every d = 1..31 (see
operations_digest). Run only after an intentional change of output, then
review the diff:

    PYTHONPATH=src python scripts/regenerate_golden.py
"""

import hashlib
import random
from pathlib import Path

from ss3 import (
    GeneralCurve,
    SingularCurve,
    canonicalize,
    chi,
    context_to_json,
    count_supersingular,
    fourth_roots,
    is_irreducible,
    isomorphic,
    make_context,
    naive_count,
    reduce_curve,
    s_brute,
    solve_linearized,
    sqrt,
    trace,
)
from ss3.count import char_sum_order
from ss3.curve import all_short_curves, random_supersingular_curve
from ss3.export import export_csv_text, export_json_text
from ss3.verify import run_verification

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
DIGEST_EXHAUSTIVE_MAX_D = 4
DIGEST_SAMPLES = 20
OPERATION_SAMPLES = 10
ORACLE_MAX_D = 9
DENSE_DEGREES = (5, 12, 31)


def classification_digest() -> str:
    """SHA-256 of the classification lines, as stored in classification.sha256."""
    h = hashlib.sha256()
    for d in range(1, 32):
        ctx = make_context(d)
        if d <= DIGEST_EXHAUSTIVE_MAX_D:
            curves = all_short_curves(ctx)
        else:
            rng = random.Random(d)
            curves = (random_supersingular_curve(ctx, rng) for _ in range(DIGEST_SAMPLES))
        for e in curves:
            rep, cls, w = canonicalize(e)
            order = count_supersingular(e).order
            h.update(
                f"{e} rep={rep} class={cls.ctype.value},{cls.invariant} "
                f"u={w.u} r={w.r} order={order}\n".encode()
            )
    return h.hexdigest()


def _dense_modulus(d: int) -> tuple[int, ...]:
    """A seeded irreducible modulus whose d low coefficients are all nonzero.

    Its t^d mod m is dense, so from d = 4 on its products take Barrett
    reduction rather than the sparse fold of the default moduli.
    """
    rng = random.Random(f"dense-{d}")
    while True:
        coeffs = tuple(rng.choice((1, 2)) for _ in range(d)) + (1,)
        if is_irreducible(coeffs):
            return coeffs


def _general_curve(ctx, rng) -> GeneralCurve:
    """A seeded nonsingular five-coefficient model, b2 = 0 or not."""
    while True:
        try:
            return GeneralCurve(*(ctx.random_element(rng) for _ in range(5)))
        except SingularCurve:
            pass


def _operation_lines(ctx, rng):
    """One line per public operation on OPERATION_SAMPLES seeded curves over ctx."""
    yield f"context {context_to_json(ctx)}"
    curves = [random_supersingular_curve(ctx, rng) for _ in range(OPERATION_SAMPLES + 1)]
    for e, other in zip(curves, curves[1:]):
        rep, cls, w = canonicalize(e)
        yield f"{e} rep={rep} class={cls.ctype.value},{cls.invariant} u={w.u} r={w.r}"
        yield f"order={count_supersingular(e).order}"
        for target in (rep, other):
            w = isomorphic(e, target)
            yield f"isomorphic {target}: " + ("none" if w is None else f"u={w.u} r={w.r}")
        a4, a6 = e.a4, e.a6
        yield f"sqrt={sqrt(a4)};{sqrt(a6)} fourth_roots={[str(u) for u in fourth_roots(a4)]}"
        yield f"chi={chi(a4)},{chi(a6)} trace={trace(a4)},{trace(a6)} inverse={a4.inverse()}"
        yield f"solve_linearized={solve_linearized(a4, a6)}"
        if ctx.d <= ORACLE_MAX_D:
            order = char_sum_order(reduce_curve(_general_curve(ctx, rng))).order
            yield f"naive_count={naive_count(e)} char_sum_order={order}"
    if ctx.d <= ORACLE_MAX_D:
        yield f"s_brute={[s_brute(ctx, a) for a in (0, 1, -1)]}"


def operations_digest() -> str:
    """SHA-256 of the operation lines, as stored in operations.sha256.

    Seeded curves at every d = 1..31 on the default modulus, and at
    DENSE_DEGREES on a dense one, go through canonicalize,
    count_supersingular, isomorphic (to the representative and to the next
    curve), sqrt, fourth_roots, chi, trace, inverse and solve_linearized;
    at d <= ORACLE_MAX_D also naive_count, char_sum_order of a seeded
    general model and s_brute at a = 0, 1, -1.
    """
    h = hashlib.sha256()
    runs = [(d, None) for d in range(1, 32)] + [(d, _dense_modulus(d)) for d in DENSE_DEGREES]
    for d, modulus in runs:
        ctx = make_context(d, modulus)
        for line in _operation_lines(ctx, random.Random(f"operations-{d}-{modulus}")):
            h.update(line.encode() + b"\n")
    return h.hexdigest()


def main() -> None:
    GOLDEN.mkdir(parents=True, exist_ok=True)
    for d in (1, 2):
        ctx = make_context(d)
        (GOLDEN / f"export_d{d}.csv").write_text(export_csv_text(ctx))
        (GOLDEN / f"export_d{d}.json").write_text(export_json_text(ctx))
        print(f"wrote export_d{d}.csv and export_d{d}.json")
    (GOLDEN / "verify_d4_seed7.txt").write_text(run_verification(4, 200, 7).text())
    print("wrote verify_d4_seed7.txt")
    (GOLDEN / "classification.sha256").write_text(classification_digest() + "\n")
    print("wrote classification.sha256")
    (GOLDEN / "operations.sha256").write_text(operations_digest() + "\n")
    print("wrote operations.sha256")


if __name__ == "__main__":
    main()
