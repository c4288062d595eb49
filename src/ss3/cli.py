"""Command-line interface.

Commands: field-info, classify, count, enumerate, verify, export.
Exit codes: 0 success, 1 verification failure, 2 usage or input error
(including a file that cannot be written), 141 (128 + SIGPIPE) when the
reader of stdout has gone.
JSON output is compact; tables are plain ASCII. Elements are accepted as
base-3 integer encodings or comma-separated coefficient lists and always
printed in coefficient-list form.
"""

from __future__ import annotations

import argparse
import dataclasses
import json
import os
import sys
from typing import Optional, Sequence

from .classify import canonicalize
from .count import char_sum_order, count_general, count_supersingular, list_classes
from .curve import GeneralCurve, ShortCurve, reduce_curve
from .errors import ParseError, SS3Error
from .export import export_csv_text, export_json_text
from .field import FieldContext, _digit_list, context_to_json, make_context
from .verify import run_verification


def _compact(obj) -> str:
    return json.dumps(obj, separators=(",", ":"))


def _parse_modulus(text: Optional[str]) -> Optional[list[int]]:
    if text is None:
        return None
    # the library reads a modulus mod 3; the text takes only digits 0, 1 and 2
    values = _digit_list(text)
    if values is None or any(c > 2 for c in values):
        raise ParseError(f"modulus must be a comma-separated list of digits 0, 1, 2, got {text!r}")
    return values


def _context(d: int, modulus: Optional[str]) -> FieldContext:
    return make_context(d, _parse_modulus(modulus))


def equation_text(e: ShortCurve) -> str:
    """Human-readable canonical equation, e.g. "y^2 = x^3 - x + 1"."""
    ctx = e.ctx
    if e.a4 == ctx.one:
        s = "y^2 = x^3 + x"
    elif e.a4 == ctx.minus_one:
        s = "y^2 = x^3 - x"
    else:
        s = f"y^2 = x^3 + ({e.a4})*x"
    if not e.a6.is_zero():
        if e.a6 == ctx.one:
            s += " + 1"
        elif e.a6 == ctx.minus_one:
            s += " - 1"
        else:
            s += f" + ({e.a6})"
    return s


# ----------------------------------------------------------------------
# Subcommand handlers
# ----------------------------------------------------------------------


def cmd_field_info(args) -> int:
    ctx = _context(args.d, args.modulus)
    print(_compact(context_to_json(ctx)))
    return 0


def cmd_classify(args) -> int:
    ctx = _context(args.d, args.modulus)
    e = ShortCurve(ctx.element(args.a4), ctx.element(args.a6))
    rep, cls, witness = canonicalize(e)
    out = {
        "d": ctx.d,
        "modulus": list(ctx.modulus),
        "alpha": str(ctx.alpha),
        "curve": {"a4": str(e.a4), "a6": str(e.a6)},
        "class": cls.to_json(ctx.beta),
        "representative": {
            "a4": str(rep.a4),
            "a6": str(rep.a6),
            "equation": equation_text(rep),
        },
        "witness": witness.to_json(),
    }
    print(_compact(out))
    return 0


def cmd_count(args) -> int:
    ctx = _context(args.d, args.modulus)
    g = GeneralCurve(
        a1=ctx.element(args.a1),
        a2=ctx.element(args.a2),
        a3=ctx.element(args.a3),
        a4=ctx.element(args.a4),
        a6=ctx.element(args.a6),
    )
    if args.naive:
        # the order comes from the oracle alone; a supersingular model keeps its class label
        red = reduce_curve(g)
        result = char_sum_order(red)
        if red.short is not None:
            cls = count_supersingular(red.short).class_used
            result = dataclasses.replace(result, class_used=cls)
    else:
        result = count_general(g)
    print(_compact(result.to_json(ctx.beta)))
    return 0


def cmd_enumerate(args) -> int:
    ctx = _context(args.d, args.modulus)
    entries = list_classes(ctx)
    tau = str(ctx.tau) if ctx.tau is not None else "-"
    print(
        f"d={ctx.d} q={ctx.q} modulus={','.join(str(c) for c in ctx.modulus)} "
        f"beta={ctx.beta} alpha={ctx.alpha} tau={tau}"
    )
    rows = [["type", "invariant", "a4", "a6", "order", "trace"]]
    for entry in entries:
        rows.append(
            [
                entry.cls.ctype.value,
                entry.cls.invariant if entry.cls.invariant is not None else "-",
                str(entry.rep.a4),
                str(entry.rep.a6),
                str(entry.result.order),
                str(entry.result.frobenius_trace),
            ]
        )
    widths = [max(len(row[i]) for row in rows) for i in range(len(rows[0]))]
    for row in rows:
        print("  ".join(cell.ljust(w) for cell, w in zip(row, widths)).rstrip())
    return 0


def cmd_verify(args) -> int:
    report = run_verification(args.d_max, samples=args.samples, seed=args.seed)
    sys.stdout.write(report.text())
    return 0 if report.passed else 1


def cmd_export(args) -> int:
    ctx = _context(args.d, args.modulus)
    text = export_json_text(ctx) if args.format == "json" else export_csv_text(ctx)
    if args.out:
        with open(args.out, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)
    return 0


# ----------------------------------------------------------------------
# Parser
# ----------------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="ss3",
        description=(
            "Classify supersingular elliptic curves over GF(3^d) and compute "
            "their group orders in closed form."
        ),
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("field-info", help="print the GF(3^d) context as JSON")
    p.add_argument("d", type=int)
    p.add_argument("--modulus", help="override modulus, full coefficient list c0,...,cd")
    p.set_defaults(func=cmd_field_info)

    p = sub.add_parser("classify", help="isomorphism class of y^2 = x^3 + a4*x + a6")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a4", required=True)
    p.add_argument("--a6", required=True)
    p.add_argument("--modulus")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("count", help="group order of a curve over GF(3^d)")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--a4", required=True)
    p.add_argument("--a6", required=True)
    p.add_argument("--a1", default="0")
    p.add_argument("--a2", default="0")
    p.add_argument("--a3", default="0")
    p.add_argument("--naive", action="store_true",
                   help="use the character-sum oracle instead of the closed form")
    p.add_argument("--modulus")
    p.set_defaults(func=cmd_count)

    p = sub.add_parser("enumerate", help="table of all isomorphism classes with counts")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--modulus")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("verify", help="run the oracle-equivalence suites")
    p.add_argument("--d-max", type=int, default=4, dest="d_max")
    p.add_argument("--samples", type=int, default=200,
                   help="random curves per degree above d=4, and random isomorphic "
                        "pairs per degree up to d=4")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("export", help="write test vectors for one degree")
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--format", choices=("json", "csv"), required=True)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.add_argument("--modulus")
    p.set_defaults(func=cmd_export)

    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        status = args.func(args)
        sys.stdout.flush()  # a closed stdout raises here, not at exit
        return status
    except BrokenPipeError:
        # the interpreter flushes stdout again at exit: let that write go nowhere
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        return 141
    except (SS3Error, OSError) as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
