"""Test-vector export: one record per isomorphism class, plus (for small
fields) one record per canonical-form curve.

Re-running classification and counting on a record's (d, modulus, a4, a6)
reproduces every derived field bit-exactly; that round trip is part of the
test suite.
"""

from __future__ import annotations

import csv
import io
import json

from .classify import canonicalize
from .count import count_class, list_classes
from .curve import ShortCurve, all_short_curves
from .field import FieldContext, context_to_json

CSV_COLUMNS = ["d", "modulus", "a4", "a6", "type", "invariant", "order", "trace", "u", "r"]

# exhaustive per-curve rows stay small: 2 * 3^(2d) field scans
CURVE_ROWS_MAX_D = 3

_ELEMENT_SCHEMA = {"type": "string", "pattern": "^[0-2](,[0-2])*$"}

_RECORD_SCHEMA = {
    "type": "object",
    "required": CSV_COLUMNS,
    "properties": {
        "d": {"type": "integer", "minimum": 1},
        "modulus": {
            "type": "array",
            "items": {"type": "integer", "minimum": 0, "maximum": 2},
            "minItems": 2,
        },
        "a4": _ELEMENT_SCHEMA,
        "a6": _ELEMENT_SCHEMA,
        "type": {"enum": ["I", "I+", "II", "IIIa", "IIIb"]},
        "invariant": {"enum": ["0", "1", "-1", "nonzero", None]},
        "order": {"type": "string", "pattern": "^[0-9]+$"},
        "trace": {"type": "string", "pattern": "^-?[0-9]+$"},
        "u": _ELEMENT_SCHEMA,
        "r": _ELEMENT_SCHEMA,
    },
    "additionalProperties": False,
}

EXPORT_SCHEMA = {
    "$schema": "https://json-schema.org/draft/2020-12/schema",
    "title": "ss3 test vectors",
    "type": "object",
    "required": ["context", "classes", "curves"],
    "properties": {
        "context": {
            "type": "object",
            "required": ["d", "modulus", "beta", "alpha", "tau"],
            "properties": {
                "d": {"type": "integer", "minimum": 1},
                "modulus": {
                    "type": "array",
                    "items": {"type": "integer", "minimum": 0, "maximum": 2},
                },
                "beta": _ELEMENT_SCHEMA,
                "alpha": _ELEMENT_SCHEMA,
                "tau": {"oneOf": [_ELEMENT_SCHEMA, {"type": "null"}]},
            },
            "additionalProperties": False,
        },
        "classes": {"type": "array", "items": _RECORD_SCHEMA},
        "curves": {"type": "array", "items": _RECORD_SCHEMA},
    },
    "additionalProperties": False,
}


def _record_for(ctx: FieldContext, e: ShortCurve) -> dict:
    """One exported curve: inputs, class label, order and witness, keyed in CSV_COLUMNS order."""
    _, cls, witness = canonicalize(e)
    result = count_class(ctx.d, cls)
    return {
        "d": ctx.d,
        "modulus": list(ctx.modulus),
        "a4": str(e.a4),
        "a6": str(e.a6),
        "type": cls.ctype.value,
        "invariant": cls.invariant,
        "order": str(result.order),
        "trace": str(result.frobenius_trace),
        "u": str(witness.u),
        "r": str(witness.r),
    }


def _csv_cell(value) -> str:
    if value is None:
        return ""
    if isinstance(value, list):  # the modulus
        return ",".join(str(c) for c in value)
    return str(value)


def class_records(ctx: FieldContext) -> list[dict]:
    """One record per isomorphism class, in census order."""
    return [_record_for(ctx, entry.rep) for entry in list_classes(ctx)]


def curve_records(ctx: FieldContext) -> list[dict]:
    """One record per canonical-form curve; empty above d = 3."""
    if ctx.d > CURVE_ROWS_MAX_D:
        return []
    return [_record_for(ctx, e) for e in all_short_curves(ctx)]


def export_json_obj(ctx: FieldContext) -> dict:
    return {
        "context": context_to_json(ctx),
        "classes": class_records(ctx),
        "curves": curve_records(ctx),
    }


def export_json_text(ctx: FieldContext) -> str:
    return json.dumps(export_json_obj(ctx), indent=2) + "\n"


def export_csv_text(ctx: FieldContext) -> str:
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(CSV_COLUMNS)
    for record in class_records(ctx) + curve_records(ctx):
        writer.writerow(_csv_cell(record[column]) for column in CSV_COLUMNS)
    return buf.getvalue()
