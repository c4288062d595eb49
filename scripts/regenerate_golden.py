#!/usr/bin/env python3
"""Rebuild the golden vectors under tests/golden/.

Writes the export vectors for d = 1, 2, the report of
run_verification(4, 200, 7) and classification.sha256, the SHA-256 of one
(curve, rep, class, u, r, order) line for every curve with d <= 4 and 20
seeded curves for each d = 5..31. Run only after an
intentional change of output, then review the diff:

    PYTHONPATH=src python scripts/regenerate_golden.py
"""

import hashlib
import random
from pathlib import Path

from ss3 import canonicalize, count_supersingular, make_context
from ss3.curve import all_short_curves, random_supersingular_curve
from ss3.export import export_csv_text, export_json_text
from ss3.verify import run_verification

GOLDEN = Path(__file__).resolve().parent.parent / "tests" / "golden"
DIGEST_EXHAUSTIVE_MAX_D = 4
DIGEST_SAMPLES = 20


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


if __name__ == "__main__":
    main()
