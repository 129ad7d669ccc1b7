"""Tests of the benchmark's references, checks and tracer.

They show that the independent references agree with each other where
they overlap, and that the output checks flag a perturbed curve,
distance or support edge.  Run with

    PYTHONPATH=src python3 -m pytest perfbench -q
"""

import math
import sys
import time
from pathlib import Path

import numpy as np
import pytest
from scipy import integrate

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import psdfit  # noqa: E402
import reference as ref  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from workloads import Forward, MonteCarlo, Op, Verdict  # noqa: E402

GAMMA = {"kind": "laguerre", "alphas": [1.0]}
CUBIC = {"kind": "laguerre", "alphas": [1 / 9, 1 / 9, 1 / 9]}
IDENTITY = {"kind": "point_mass", "at": 1.0}
TWO_ATOM = {"kind": "discrete", "atoms": [1.0, 2.0], "weights": [0.5, 0.5]}


@pytest.mark.parametrize("spec", [GAMMA, CUBIC,
                                  {"kind": "inverse_cubic", "alpha": 0.3},
                                  {"kind": "inverse_cubic", "alpha": 0.5}])
@pytest.mark.parametrize("s", [0.3 + 0.5j, -0.8 + 0.01j, 1.5 + 2.0j, -0.1 + 0.3j])
def test_closed_form_kernels_match_adaptive_quadrature(spec, s):
    closed = ref.k1(spec, np.array([s]))[0]
    assert abs(closed - ref.k1_quad(spec, s)) <= 1e-11 * abs(closed)


@pytest.mark.parametrize("c", [0.5, 2.0])
def test_identity_references_agree(c):
    x = np.linspace(0.05, 6.0, 60)
    solved = ref.density(IDENTITY, c, x)
    roots = ref.atomic_density(IDENTITY, c, x)
    assert np.max(np.abs(solved - roots)) < 1e-10
    # eps = 1e-6 smooths the edges and, for c > 1, the atom at zero
    assert np.max(np.abs(solved - ref.mp_density(x, c))) < 1e-3


def test_atomic_roots_match_continuation_solve():
    spec = workloads.FAMILIES["split-bulk"]
    x = np.linspace(0.2, 25.0, 50)
    assert np.max(np.abs(ref.atomic_density(spec, 0.5, x)
                         - ref.density(spec, 0.5, x))) < 1e-9


def test_w1_matches_quantile_integral():
    a = {"kind": "inverse_cubic", "alpha": 0.3}
    b = {"kind": "inverse_cubic", "alpha": 0.6}
    q = lambda alpha, p: 2 * alpha - 1 + (1 - alpha) / math.sqrt(1 - p)
    want = integrate.quad(lambda p: abs(q(0.3, p) - q(0.6, p)), 0, 1, limit=200)[0]
    assert abs(ref.w1(a, b) - want) < 1e-8
    shifted = {"kind": "discrete", "atoms": [1.5, 2.5], "weights": [0.5, 0.5]}
    assert abs(ref.w1(TWO_ATOM, shifted) - 0.5) < 1e-12
    assert ref.w1(GAMMA, GAMMA) == 0.0


def test_w1_agrees_with_program_distance():
    fitted = {"kind": "laguerre", "alphas": [0.9]}
    program = psdfit.wasserstein(psdfit.model_from_dict(fitted),
                                 psdfit.model_from_dict(GAMMA))
    assert abs(ref.w1(fitted, GAMMA) - program) < 1e-5


def _forward_item(name, c, lo, hi, points=24):
    spec = workloads.FAMILIES[name]
    return {"name": name, "spec": spec, "c": c,
            "grid": np.linspace(lo, hi, points),
            "model": psdfit.model_from_dict(spec)}


@pytest.mark.parametrize("name,c,lo,hi", [("identity", 0.5, 0.1, 3.0),
                                          ("two-atom", 2.0, 0.3, 9.0),
                                          ("gamma-shape", 2.0, 0.3, 10.0)])
def test_curve_check_passes_program_and_flags_perturbation(name, c, lo, hi):
    it = _forward_item(name, c, lo, hi)
    curve = psdfit.lsd_density_curve(it["model"], c, it["grid"])
    assert Forward.check_curve(curve, it) is None
    bumped = curve.f.copy()
    bumped[len(bumped) // 2] *= 1.01
    assert Forward.check_curve(psdfit.DensityCurve(curve.x, bumped), it) is not None


def test_known_fault_is_flagged():
    name, c, (lo, hi) = workloads.KNOWN_FAULT
    it = _forward_item(name, c, lo, hi, points=40)
    curve = psdfit.lsd_density_curve(it["model"], c, it["grid"])
    assert Forward.check_curve(curve, it) is not None


@pytest.mark.parametrize("name", ["identity", "split-bulk", "inverse-cubic"])
def test_support_check_flags_a_moved_edge(name):
    it = _forward_item(name, 2.0, 0.1, 1.0)
    report = psdfit.support_bounds(it["model"], 2.0)
    assert Forward.check_support(report, it) is None
    (lo, hi), *rest = report.support
    moved = psdfit.SupportReport(((lo * 1.05, hi), *rest), report.branches,
                                 report.complement, report.mass_at_zero)
    assert Forward.check_support(moved, it) is not None


def test_replay_flags_a_wrong_distance():
    case = workloads.Case("small-gamma", GAMMA, "laguerre", 1, 60, 120)
    mc = MonteCarlo((case,))
    state = mc.setup(3, None)
    (label, call), = mc.round_ops(state, 0, 0)
    dist = call().records[0]["distance"]
    good, bad = Verdict(), Verdict()
    mc.replay(state, 0, 0, dist, Op(label), good)
    mc.replay(state, 0, 0, dist * 1.001, Op(label), bad)
    assert good.problems == [] and good.failed == 0
    assert bad.failed == 1 and bad.problems


def test_self_time_subtracts_children():
    tracer = tracing.Tracer()
    outer = tracer.begin("outer")
    time.sleep(0.01)
    inner = tracer.begin("inner")
    time.sleep(0.02)
    tracer.end(inner)
    tracer.end(outer)
    selfs = tracer.self_times()
    assert selfs["inner"] >= 0.02
    assert 0.01 <= selfs["outer"] < selfs["inner"]
    assert tracer.spans[inner["id"]]["parent"] == outer["id"]


def test_install_and_restore_leave_the_package_unchanged():
    from psdfit import estimator, simulate
    before = (simulate.sample_spectrum, estimator.objective, psdfit.support_bounds)
    tracer = tracing.Tracer()
    tracing.install(tracer)
    try:
        psdfit.support_bounds(psdfit.PointMass(1.0), 0.5)
        assert simulate.sample_spectrum is not before[0]
    finally:
        tracer.restore()
    assert (simulate.sample_spectrum, estimator.objective, psdfit.support_bounds) == before
    assert [s["name"] for s in tracer.spans] == ["mptransform.support"]
