"""The verify report on injected faults, every FAIL line pinned whole, and
the argument checks that run before any suite.

Each injected fault breaks one ingredient of one suite and compares the
complete report, so the wording of each FAIL line, the suites that keep
passing, and the order in which the suites draw from the shared rng stay
fixed.
"""

import dataclasses

import pytest

import ss3.verify as verify_mod
from ss3 import DegreeOutOfRange, InvalidArgument, IsomorphismWitness
from ss3.curve import Point


def _shift_r(w, e):
    return IsomorphismWitness(u=w.u, r=w.r + e.ctx.one)


def _patch(name, wrap):
    """Replace verify's name with wrap(original)."""

    def apply(monkeypatch):
        monkeypatch.setattr(verify_mod, name, wrap(getattr(verify_mod, name)))

    return apply


def _order_off_by_3(real):
    def count_supersingular(e):
        r = real(e)
        return dataclasses.replace(r, order=r.order + 3, frobenius_trace=r.frobenius_trace - 3)

    return count_supersingular


def _trace_off_by_1(real):
    def count_supersingular(e):
        r = real(e)
        return dataclasses.replace(r, frobenius_trace=r.frobenius_trace + 1)

    return count_supersingular


def _s_closed_off_at_1(real):
    return lambda d, a: real(d, a) + (a == 1)


def _census_short_by_one(real):
    return lambda ctx: real(ctx)[:-1]


def _witness_r_shifted(real):
    def canonicalize(e):
        rep, cls, w = real(e)
        return rep, cls, _shift_r(w, e)

    return canonicalize


def _rep_replaced_by_input(real):
    def canonicalize(e):
        _, cls, w = real(e)
        return e, cls, w

    return canonicalize


def _iso_r_shifted(real):
    def isomorphic(e1, e2):
        w = real(e1, e2)
        return None if w is None else _shift_r(w, e1)

    return isomorphic


def _iso_always(real):
    def isomorphic(e1, e2):
        return real(e1, e2) or IsomorphismWitness(u=e1.ctx.one, r=e1.ctx.zero)

    return isomorphic


def _iso_never(real):
    return lambda e1, e2: None


def _point_off_curve(real):
    def random_point(e, rng):
        p = real(e, rng)
        return p if p.is_infinity else Point(e, p.x, p.y + e.ctx.one)

    return random_point


# name -> (d_max, patch, expected report lines between header and RESULT)
FAULTS = {
    "count-order": (5, _patch("count_supersingular", _order_off_by_3), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
PASS fiber-sums d=4 checks=3
PASS fiber-sums d=5 checks=3
FAIL oracle-exhaustive d=1 curve=a4=1;a6=0 expected=4 got=7
FAIL oracle-exhaustive d=2 curve=a4=1,0;a6=0,0 expected=16 got=19
FAIL oracle-exhaustive d=3 curve=a4=1,0,0;a6=0,0,0 expected=28 got=31
FAIL oracle-exhaustive d=4 curve=a4=1,0,0,0;a6=0,0,0,0 expected=64 got=67
FAIL oracle-sampled d=5 curve=a4=2,2,0,1,0;a6=1,0,1,2,1 expected=217 got=220
PASS class-census d=1 classes=4 partition=6
PASS class-census d=2 classes=6 partition=72
PASS class-census d=3 classes=4 partition=702
PASS class-census d=4 classes=6 partition=6480
PASS class-census d=5 classes=4 partition=skipped
FAIL twist-sums d=1 curve=a4=1;a6=0 sum=14 expected=8
FAIL twist-sums d=2 curve=a4=1,0;a6=0,0 sum=26 expected=20
FAIL twist-sums d=3 curve=a4=1,0,0;a6=0,0,0 sum=62 expected=56
FAIL twist-sums d=4 curve=a4=1,0,0,0;a6=0,0,0,0 sum=170 expected=164
PASS witness-soundness d=1 pairs=3
PASS witness-soundness d=2 pairs=3
PASS witness-soundness d=3 pairs=3
PASS witness-soundness d=4 pairs=3
"""),
    "count-trace": (3, _patch("count_supersingular", _trace_off_by_1), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
FAIL oracle-exhaustive d=1 curve=a4=1;a6=0 trace=1 outside spectrum
FAIL oracle-exhaustive d=2 curve=a4=1,0;a6=0,0 trace=-5 outside spectrum
FAIL oracle-exhaustive d=3 curve=a4=1,0,0;a6=0,0,0 trace=1 outside spectrum
PASS class-census d=1 classes=4 partition=6
PASS class-census d=2 classes=6 partition=72
PASS class-census d=3 classes=4 partition=702
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
PASS witness-soundness d=1 pairs=3
PASS witness-soundness d=2 pairs=3
PASS witness-soundness d=3 pairs=3
"""),
    "fiber-sum": (3, _patch("s_closed", _s_closed_off_at_1), """\
FAIL fiber-sums d=1 a=1 closed=2 brute=1
FAIL fiber-sums d=2 a=1 closed=0 brute=-1
FAIL fiber-sums d=3 a=1 closed=-2 brute=-3
PASS oracle-exhaustive d=1 curves=6
PASS oracle-exhaustive d=2 curves=72
PASS oracle-exhaustive d=3 curves=702
PASS class-census d=1 classes=4 partition=6
PASS class-census d=2 classes=6 partition=72
PASS class-census d=3 classes=4 partition=702
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
PASS witness-soundness d=1 pairs=3
PASS witness-soundness d=2 pairs=3
PASS witness-soundness d=3 pairs=3
"""),
    "census-size": (3, _patch("list_classes", _census_short_by_one), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
PASS oracle-exhaustive d=1 curves=6
PASS oracle-exhaustive d=2 curves=72
PASS oracle-exhaustive d=3 curves=702
FAIL class-census d=1 classes=3 expected=4
FAIL class-census d=2 classes=5 expected=6
FAIL class-census d=3 classes=3 expected=4
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
PASS witness-soundness d=1 pairs=3
PASS witness-soundness d=2 pairs=3
PASS witness-soundness d=3 pairs=3
"""),
    "census-distinct": (3, _patch("isomorphic", _iso_always), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
PASS oracle-exhaustive d=1 curves=6
PASS oracle-exhaustive d=2 curves=72
PASS oracle-exhaustive d=3 curves=702
FAIL class-census d=1 representatives a4=2;a6=0 and a4=2;a6=1 are isomorphic
FAIL class-census d=2 representatives a4=2,0;a6=0,0 and a4=2,0;a6=2,0 are isomorphic
FAIL class-census d=3 representatives a4=2,0,0;a6=0,0,0 and a4=2,0,0;a6=0,0,2 are isomorphic
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
PASS witness-soundness d=1 pairs=3
PASS witness-soundness d=2 pairs=3
PASS witness-soundness d=3 pairs=3
"""),
    "census-representative": (3, _patch("canonicalize", _rep_replaced_by_input), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
PASS oracle-exhaustive d=1 curves=6
PASS oracle-exhaustive d=2 curves=72
PASS oracle-exhaustive d=3 curves=702
FAIL class-census d=1 curve=a4=1;a6=1 maps outside the census
FAIL class-census d=2 curve=a4=1,0;a6=0,0 maps outside the census
FAIL class-census d=3 curve=a4=1,0,0;a6=1,0,0 maps outside the census
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
PASS witness-soundness d=1 pairs=3
PASS witness-soundness d=2 pairs=3
PASS witness-soundness d=3 pairs=3
"""),
    "census-witness": (3, _patch("canonicalize", _witness_r_shifted), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
PASS oracle-exhaustive d=1 curves=6
PASS oracle-exhaustive d=2 curves=72
PASS oracle-exhaustive d=3 curves=702
FAIL class-census d=1 curve=a4=1;a6=0 witness invalid
FAIL class-census d=2 curve=a4=1,0;a6=0,0 witness invalid
FAIL class-census d=3 curve=a4=1,0,0;a6=0,0,0 witness invalid
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
PASS witness-soundness d=1 pairs=3
PASS witness-soundness d=2 pairs=3
PASS witness-soundness d=3 pairs=3
"""),
    "witness-relations": (3, _patch("isomorphic", _iso_r_shifted), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
PASS oracle-exhaustive d=1 curves=6
PASS oracle-exhaustive d=2 curves=72
PASS oracle-exhaustive d=3 curves=702
PASS class-census d=1 classes=4 partition=6
PASS class-census d=2 classes=6 partition=72
PASS class-census d=3 classes=4 partition=702
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
FAIL witness-soundness d=1 pair a4=1;a6=2 ~ a4=1;a6=1 relations violated
FAIL witness-soundness d=2 pair a4=1,2;a6=0,2 ~ a4=1,2;a6=1,0 relations violated
FAIL witness-soundness d=3 pair a4=0,0,2;a6=1,1,2 ~ a4=0,2,2;a6=1,1,0 relations violated
"""),
    "witness-unrecognized": (3, _patch("isomorphic", _iso_never), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
PASS oracle-exhaustive d=1 curves=6
PASS oracle-exhaustive d=2 curves=72
PASS oracle-exhaustive d=3 curves=702
PASS class-census d=1 classes=4 partition=6
PASS class-census d=2 classes=6 partition=72
PASS class-census d=3 classes=4 partition=702
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
FAIL witness-soundness d=1 pair a4=1;a6=2 ~ a4=1;a6=1 not recognized
FAIL witness-soundness d=2 pair a4=2,0;a6=1,2 ~ a4=1,0;a6=1,2 not recognized
FAIL witness-soundness d=3 pair a4=0,1,2;a6=0,1,1 ~ a4=2,2,2;a6=0,1,2 not recognized
"""),
    "witness-point-map": (3, _patch("random_point", _point_off_curve), """\
PASS fiber-sums d=1 checks=3
PASS fiber-sums d=2 checks=3
PASS fiber-sums d=3 checks=3
PASS oracle-exhaustive d=1 curves=6
PASS oracle-exhaustive d=2 curves=72
PASS oracle-exhaustive d=3 curves=702
PASS class-census d=1 classes=4 partition=6
PASS class-census d=2 classes=6 partition=72
PASS class-census d=3 classes=4 partition=702
PASS twist-sums d=1 checks=6
PASS twist-sums d=2 checks=72
PASS twist-sums d=3 checks=702
FAIL witness-soundness d=1 point map left the curve a4=1;a6=2
FAIL witness-soundness d=2 point map left the curve a4=2,2;a6=1,2
FAIL witness-soundness d=3 point map left the curve a4=1,0,0;a6=2,2,2
"""),
}


@pytest.mark.parametrize("fault", sorted(FAULTS))
def test_injected_fault_report(fault, monkeypatch):
    d_max, patch, lines = FAULTS[fault]
    patch(monkeypatch)
    rep = verify_mod.run_verification(d_max, samples=3, seed=1)
    suites, failures = lines.count("\n"), lines.count("FAIL ")
    expected = (
        f"verify d-max={d_max} samples=3 seed=1\n{lines}"
        f"RESULT FAIL suites={suites} failures={failures}\n"
    )
    assert not rep.passed
    assert rep.text() == expected


@pytest.mark.parametrize(
    "d_max, samples, error",
    [
        (4.0, 200, DegreeOutOfRange),
        (True, 200, DegreeOutOfRange),
        (5, 2.5, InvalidArgument),
        (5, True, InvalidArgument),
    ],
)
def test_non_int_arguments_rejected_before_any_suite(d_max, samples, error, monkeypatch):
    # a float or a bool passes the range checks, so the type is checked first
    def no_suite(*args):
        raise AssertionError("a suite ran")

    monkeypatch.setattr(verify_mod, "_run_suite", no_suite)
    with pytest.raises(error):
        verify_mod.run_verification(d_max, samples=samples)
