"""Vector export: golden files, schema, and reproducibility."""

import importlib.util
import json
from pathlib import Path

import jsonschema
import pytest

from ss3 import ShortCurve, canonicalize, count_supersingular, make_context
from ss3.export import (
    CSV_COLUMNS,
    EXPORT_SCHEMA,
    class_records,
    curve_records,
    export_csv_text,
    export_json_obj,
    export_json_text,
)

GOLDEN = Path(__file__).parent / "golden"
REGENERATE = Path(__file__).parent.parent / "scripts" / "regenerate_golden.py"


@pytest.mark.parametrize("d", [1, 2])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_golden_files(d, fmt):
    ctx = make_context(d)
    text = export_csv_text(ctx) if fmt == "csv" else export_json_text(ctx)
    golden = (GOLDEN / f"export_d{d}.{fmt}").read_text()
    assert text == golden


def _regenerate_script():
    spec = importlib.util.spec_from_file_location("regenerate_golden", REGENERATE)
    script = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(script)
    return script


def test_classification_digest():
    # (curve, rep, class, u, r, order) on every curve with d <= 4 and 20
    # seeded curves per d = 5..31, hashed by the script that stores it
    script = _regenerate_script()
    golden = (GOLDEN / "classification.sha256").read_text().strip()
    assert script.classification_digest() == golden


def test_operations_digest():
    # the public field, curve, classify and oracle operations on seeded
    # curves at every d = 1..31 and on dense moduli, hashed by the script
    script = _regenerate_script()
    golden = (GOLDEN / "operations.sha256").read_text().strip()
    assert script.operations_digest() == golden


@pytest.mark.parametrize("d", [1, 2, 3])
def test_schema_validation(d):
    obj = export_json_obj(make_context(d))
    jsonschema.validate(obj, EXPORT_SCHEMA)


def test_row_counts():
    assert len(class_records(make_context(1))) == 4
    assert len(curve_records(make_context(1))) == 6
    assert len(class_records(make_context(2))) == 6
    assert len(curve_records(make_context(2))) == 72
    assert curve_records(make_context(4)) == []  # class rows only above d=3


def test_csv_columns_fixed():
    assert CSV_COLUMNS == [
        "d", "modulus", "a4", "a6", "type", "invariant", "order", "trace", "u", "r",
    ]
    header = export_csv_text(make_context(1)).splitlines()[0]
    assert header == ",".join(CSV_COLUMNS)


@pytest.mark.parametrize("d", [1, 2])
def test_records_reproduce_bit_exactly(d):
    obj = export_json_obj(make_context(d))
    ctx = make_context(obj["context"]["d"], obj["context"]["modulus"])
    for rec in obj["classes"] + obj["curves"]:
        e = ShortCurve(ctx.element(rec["a4"]), ctx.element(rec["a6"]))
        rep, cls, w = canonicalize(e)
        result = count_supersingular(e)
        assert cls.ctype.value == rec["type"]
        assert cls.invariant == rec["invariant"]
        assert str(result.order) == rec["order"]
        assert str(result.frobenius_trace) == rec["trace"]
        assert str(w.u) == rec["u"]
        assert str(w.r) == rec["r"]


def test_class_rows_carry_identity_witness():
    for rec in class_records(make_context(2)):
        assert rec["u"] == "1,0" and rec["r"] == "0,0"
