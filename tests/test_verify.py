"""The verify report on injected faults, every FAIL line pinned whole, the
argument checks that run before any suite, the key spaces of the d <= 4
memos a whole run fills, and the same report and exceptions whatever the
number of CPUs the work is spread over.

Each injected fault breaks one ingredient of one suite and compares the
complete report, so the wording of each FAIL line, the suites that keep
passing, and the draws of each (suite, degree) from its own seeded rng stay
fixed.

The CPU count is set by patching os.sched_getaffinity; a test with n CPUs
forks at most n - 1 children, and the tests that fork check that no child
is left afterwards.
"""

import dataclasses
import errno
import os
import threading
from pathlib import Path

import pytest

import ss3.verify as verify_mod
from ss3 import (
    DegreeOutOfRange,
    InvalidArgument,
    IsomorphismWitness,
    NotSupersingularError,
    make_context,
)
from ss3 import field
from ss3.curve import Point

GOLDEN = Path(__file__).parent / "golden"


def _cpus(monkeypatch, n):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: set(range(n)))


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


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


# name -> (d_max, patch, expected report lines between header and RESULT,
# optionally the seed, 1 if not given)
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
FAIL oracle-sampled d=5 curve=a4=1,1,1,1,2;a6=1,0,2,0,0 expected=244 got=247
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
FAIL witness-soundness d=1 pair a4=1;a6=2 ~ a4=1;a6=2 relations violated
FAIL witness-soundness d=2 pair a4=2,1;a6=1,2 ~ a4=1,2;a6=1,2 relations violated
FAIL witness-soundness d=3 pair a4=2,0,2;a6=0,0,0 ~ a4=1,0,0;a6=1,0,0 relations violated
""", 2),
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
FAIL witness-soundness d=1 pair a4=2;a6=2 ~ a4=2;a6=2 not recognized
FAIL witness-soundness d=2 pair a4=1,1;a6=1,2 ~ a4=2,2;a6=0,0 not recognized
FAIL witness-soundness d=3 pair a4=2,1,1;a6=2,0,0 ~ a4=1,1,0;a6=0,2,2 not recognized
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
FAIL witness-soundness d=1 point map left the curve a4=2;a6=0
FAIL witness-soundness d=2 point map left the curve a4=1,1;a6=1,2
FAIL witness-soundness d=3 point map left the curve a4=2,1,1;a6=2,0,0
"""),
}


def _fault(name):
    """(d_max, patch, lines, seed) of FAULTS[name]."""
    d_max, patch, lines, *seed = FAULTS[name]
    return d_max, patch, lines, seed[0] if seed else 1


# every fault on one CPU, under the fault's own id, and again on two
@pytest.mark.parametrize(
    "fault, cpus",
    [pytest.param(fault, 1, id=fault) for fault in sorted(FAULTS)]
    + [pytest.param(fault, 2, id=f"{fault}-2cpus") for fault in sorted(FAULTS)],
)
def test_injected_fault_report(fault, cpus, monkeypatch):
    d_max, patch, lines, seed = _fault(fault)
    patch(monkeypatch)
    _cpus(monkeypatch, cpus)
    rep = verify_mod.run_verification(d_max, samples=3, seed=seed)
    _no_child_left()
    suites, failures = lines.count("\n"), lines.count("FAIL ")
    expected = (
        f"verify d-max={d_max} samples=3 seed={seed}\n{lines}"
        f"RESULT FAIL suites={suites} failures={failures}\n"
    )
    assert not rep.passed
    assert rep.text() == expected


@pytest.mark.parametrize(
    "d_max, samples, seed, error",
    [
        pytest.param(4.0, 200, 0, DegreeOutOfRange, id="4.0-200-DegreeOutOfRange"),
        pytest.param(True, 200, 0, DegreeOutOfRange, id="True-200-DegreeOutOfRange"),
        pytest.param(5, 2.5, 0, InvalidArgument, id="5-2.5-InvalidArgument"),
        pytest.param(5, True, 0, InvalidArgument, id="5-True-InvalidArgument"),
        pytest.param(5, 200, None, InvalidArgument, id="seed-None"),
        pytest.param(5, 200, True, InvalidArgument, id="seed-True"),
        pytest.param(5, 200, (1, 2), InvalidArgument, id="seed-tuple"),
    ],
)
def test_non_int_arguments_rejected_before_any_suite(d_max, samples, seed, error, monkeypatch):
    # a float or a bool passes the range checks, so the type is checked
    # first; a seed of None would draw from OS entropy, True would print as
    # seed=True
    def no_suite(*args):
        raise AssertionError("a suite ran")

    def no_fork():
        raise AssertionError("a worker was forked")

    monkeypatch.setattr(verify_mod, "_suite_line", no_suite)
    monkeypatch.setattr(os, "fork", no_fork)
    with pytest.raises(error):
        verify_mod.run_verification(d_max, samples=samples, seed=seed)


def test_memos_stay_within_their_key_spaces(monkeypatch):
    # a whole d <= 4 run reads each context's sum memo with packed sums of
    # slots <= 6 only (at most 7^d keys), its chain memo with nonzero
    # reduced elements only (at most q - 1) and its cubic memo with the
    # (0, a4) of naive_count only (at most q - 1), and its element and
    # decode memos with reduced elements and encodings only (at most q
    # each), and its product memo with pairs of reduced elements only (at
    # most q^2, in rows by the first operand); on one CPU every suite runs
    # in this process, so its memos are the ones the whole run filled.
    # Earlier tests fill the cached contexts too (char_sum_order puts
    # c2 != 0 in the cubic memo), so the run starts on fresh ones.
    field._build_context.cache_clear()
    _cpus(monkeypatch, 1)
    assert verify_mod.run_verification(4, samples=200, seed=0).passed
    for d in range(1, 5):
        ctx = make_context(d)
        sums, chains, cubics, elements, decodes = (
            getattr(ctx, slot).__self__
            for slot in ("_reduce", "_chain", "_cubic_pass", "_element", "_decode")
        )
        assert all(type(memo) is field._Memo for memo in (sums, chains, cubics, elements, decodes))
        assert 0 < len(sums) <= 7**d and 0 < len(chains) <= ctx.q - 1, d
        assert 0 < len(cubics) <= ctx.q - 1, d
        assert all(max(a.to_bytes(d, "little")) <= 6 for a in sums), d
        assert all(0 < x < 256**d and max(x.to_bytes(d, "little")) <= 2 for x in chains), d
        assert all(c2 == 0 and 0 < c1 < 256**d for c2, c1 in cubics), d
        assert all(len(passes) == 1 for passes in cubics.values()), d
        assert 0 < len(elements) <= ctx.q and 0 < len(decodes) <= ctx.q, d
        assert all(x.coeffs == a and max(a.to_bytes(d, "little")) <= 2 for a, x in elements.items()), d
        assert all(x.encoding() == enc and x is elements[x.coeffs] for enc, x in decodes.items()), d
        rows = ctx._mul.__self__  # one row per first operand
        products = [(a, b) for a, row in rows.items() for b in row]
        assert type(rows) is field._Memo and 0 < len(products) <= ctx.q**2, d
        assert all(max(x.to_bytes(d, "little")) <= 2 for pair in products for x in pair), d


@pytest.mark.parametrize("seed", [0, 7])
@pytest.mark.parametrize("d_max", range(1, 7))
def test_report_identical_for_any_cpu_count(d_max, seed, monkeypatch):
    texts = []
    for cpus in (1, 2, 3):
        _cpus(monkeypatch, cpus)
        texts.append(verify_mod.run_verification(d_max, samples=2, seed=seed).text())
        _no_child_left()
    assert texts[0] == texts[1] == texts[2]
    assert "\nRESULT PASS " in texts[0]


def test_golden_report_on_two_cpus(monkeypatch):
    _cpus(monkeypatch, 2)
    rep = verify_mod.run_verification(4, samples=200, seed=7)
    assert rep.text() == (GOLDEN / "verify_d4_seed7.txt").read_text()
    _no_child_left()


def _index(suite):
    return [row.name for row in verify_mod.SUITES].index(suite)


def test_unit_rng_draws_the_same_in_every_process():
    # a str seed is hashed with SHA-512, not with hash(), whose randomisation
    # is on by default, so every interpreter draws the pinned value
    assert verify_mod._rng(1, "oracle-sampled", 5).getrandbits(64) == 1417591548973910552


@pytest.mark.parametrize("cpus", [1, 2, 3])
def test_unit_line_depends_only_on_seed_suite_and_degree(cpus, monkeypatch):
    # witness-soundness d = 3 run alone gives its line in the whole report,
    # although on one CPU d = 1 and 2 draw before it in the same process
    d_max, patch, lines, seed = _fault("witness-relations")
    patch(monkeypatch)
    _cpus(monkeypatch, cpus)
    alone = verify_mod._suite_line(_index("witness-soundness"), 3, 3, seed)
    assert alone.startswith("FAIL witness-soundness d=3 ") and alone in lines.splitlines()
    assert alone in verify_mod.run_verification(d_max, samples=3, seed=seed).lines
    _no_child_left()


def _share_of(suite, d, d_max, samples):
    """Which share of _plan runs the unit (suite, d): 0 is the calling process."""
    tasks = verify_mod._tasks(d_max, samples, 0)
    key = (_index(suite), d)
    for k, share in enumerate(verify_mod._plan([cost for cost, _ in tasks])):
        if any(tasks[i][1][:2] == key for i in share):
            return k
    raise AssertionError(f"no task runs {suite} d={d}")


@pytest.mark.parametrize("cpus", [1, 2])
def test_earliest_exception_in_report_order_wins(cpus, monkeypatch):
    # oracle-exhaustive raises at d = 2, in the child on 2 CPUs, and
    # oracle-sampled at d = 5, in the calling process, whose error is
    # recorded first; the child's share runs again in the calling process,
    # so the error keeps its j, which does not pickle, and its traceback
    _cpus(monkeypatch, cpus)
    if cpus == 2:
        assert _share_of("oracle-exhaustive", 2, 5, 3) == 1
        assert _share_of("oracle-sampled", 5, 5, 3) == 0
    real = verify_mod._check_curve

    def check_curve(e):
        if e.ctx.d in (2, 5):
            raise NotSupersingularError(j=e.a4, message=f"refused at d={e.ctx.d}")
        return real(e)

    monkeypatch.setattr(verify_mod, "_check_curve", check_curve)
    with pytest.raises(NotSupersingularError) as caught:
        verify_mod.run_verification(5, samples=3, seed=0)
    assert type(caught.value) is NotSupersingularError
    assert str(caught.value) == "refused at d=2 (j = 1,0)"
    assert caught.value.j == make_context(2).element([1, 0])
    assert caught.traceback[-1].name == "check_curve"
    _no_child_left()


@pytest.mark.parametrize("cpus", [1, 2])
def test_unpicklable_exception_from_a_child_share(cpus, monkeypatch):
    # a ValueError whose args hold a field element does not pickle; on 2
    # CPUs it is raised in the child's share, and reaches the caller whole
    _cpus(monkeypatch, cpus)
    if cpus == 2:
        assert _share_of("oracle-exhaustive", 2, 4, 3) == 1
    real = verify_mod._check_curve

    def check_curve(e):
        if e.ctx.d == 2:
            raise ValueError("refused", e.a4)
        return real(e)

    monkeypatch.setattr(verify_mod, "_check_curve", check_curve)
    with pytest.raises(ValueError) as caught:
        verify_mod.run_verification(4, samples=3, seed=0)
    assert type(caught.value) is ValueError
    assert caught.value.args == ("refused", make_context(2).element([1, 0]))
    assert caught.traceback[-1].name == "check_curve"
    _no_child_left()


class _Interrupt(BaseException):
    """Stands in for KeyboardInterrupt in the calling process."""


def test_exception_in_calling_process_kills_and_reaps_children(monkeypatch):
    _cpus(monkeypatch, 2)
    assert _share_of("oracle-sampled", 5, 5, 3) == 0
    parent, real = os.getpid(), verify_mod._check_curve

    def check_curve(e):
        if os.getpid() == parent and e.ctx.d == 5:
            raise _Interrupt
        return real(e)

    monkeypatch.setattr(verify_mod, "_check_curve", check_curve)
    with pytest.raises(_Interrupt):
        verify_mod.run_verification(5, samples=3, seed=0)
    _no_child_left()


def test_share_of_a_dead_child_runs_in_process(monkeypatch):
    # on 2 CPUs the child runs witness-soundness d = 2 and dies in its
    # share; the calling process runs that share again, the unit from its
    # own rng, so the report, with its sampled FAIL line, is the one of 1 CPU
    d_max, patch, _, seed = _fault("witness-relations")
    patch(monkeypatch)
    _cpus(monkeypatch, 1)
    want = verify_mod.run_verification(d_max, samples=3, seed=seed).text()
    assert "FAIL witness-soundness d=2 pair " in want
    _cpus(monkeypatch, 2)
    assert _share_of("witness-soundness", 2, d_max, 3) == 1
    parent, real = os.getpid(), verify_mod.isomorphic

    def isomorphic(e1, e2):
        if os.getpid() != parent:
            os._exit(3)
        return real(e1, e2)

    monkeypatch.setattr(verify_mod, "isomorphic", isomorphic)
    assert verify_mod.run_verification(d_max, samples=3, seed=seed).text() == want
    _no_child_left()


def test_failed_fork_runs_the_share_in_process(monkeypatch):
    want = verify_mod.run_verification(3, samples=3, seed=1).text()

    def no_fork():
        raise OSError(errno.EAGAIN, os.strerror(errno.EAGAIN))

    _cpus(monkeypatch, 2)
    monkeypatch.setattr(os, "fork", no_fork)
    fds = os.listdir("/proc/self/fd") if os.path.isdir("/proc/self/fd") else None
    assert verify_mod.run_verification(3, samples=3, seed=1).text() == want
    assert fds is None or len(os.listdir("/proc/self/fd")) == len(fds)  # the pipe is closed


@pytest.mark.parametrize("cpus", [1, 2, 3, 17, 64, 4096])
@pytest.mark.parametrize("d_max", [1, 4, 8, 13])
def test_plan_one_share_per_cpu_up_to_one_per_task(d_max, cpus, monkeypatch):
    def no_fork():
        raise AssertionError("planning forked")

    monkeypatch.setattr(os, "fork", no_fork)
    _cpus(monkeypatch, cpus)
    costs = [cost for cost, _ in verify_mod._tasks(d_max, 200, 0)]
    plan = verify_mod._plan(costs)
    assert len(plan) == min(cpus, len(costs))
    assert all(plan)
    assert sorted(i for share in plan for i in share) == list(range(len(costs)))
    assert verify_mod._plan(costs) == plan


def test_plan_one_share_beside_a_live_thread(monkeypatch):
    # a fork beside a running thread can deadlock, so a second thread
    # keeps every task in the calling process
    _cpus(monkeypatch, 4)
    costs = [cost for cost, _ in verify_mod._tasks(4, 200, 0)]
    stop = threading.Event()
    thread = threading.Thread(target=stop.wait)
    thread.start()
    try:
        assert len(verify_mod._plan(costs)) == 1
    finally:
        stop.set()
        thread.join(timeout=10)
    assert not thread.is_alive()
