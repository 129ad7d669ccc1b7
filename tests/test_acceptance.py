"""Acceptance gate: twelve end-to-end checks, one printed line each.

Every test prints a "[PASS] criterion N: ..." (or FAIL) line carrying the
measured numbers next to their tolerance bands before asserting, so a
plain run documents exactly what was achieved.  Run with ``-s`` to watch
the lines appear live; the Monte Carlo checks dominate the runtime at a
few minutes total on one core.
"""

import time

import numpy as np
from scipy import integrate

import helpers
from helpers import solve_companion_real
from psdfit import (Discrete, ExperimentConfig, InverseCubic, Laguerre,
                    PointMass, ReturnsMatrix, SampleSpectrum,
                    companion_stieltjes, companion_transform,
                    correlated_returns, fit_laguerre, lsd_density_curve,
                    mp_u_map, objective, population_from_model, run_analysis,
                    run_experiment, sample_spectrum, support_bounds,
                    wasserstein)

SEED = 20260823

TWO_ATOM = Discrete([1.0, 2.0], [0.5, 0.5])
THREE_ATOM = Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3])
WIDE_ATOM = Discrete([1.0, 5.0, 15.0], [0.3, 0.4, 0.3])
GAMMA_SHAPE = Laguerre([1.0])
CUBIC_POLY = Laguerre([1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0])
SPLIT_BULK = Discrete([2.0, 7.0, 10.0], [0.3, 0.4, 0.3])


def _check(num, ok, detail):
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num}: {detail}")
    assert ok, f"criterion {num}: {detail}"


def _timed_experiment(**kwargs):
    cfg = ExperimentConfig(**kwargs)
    start = time.perf_counter()
    report = run_experiment(cfg)
    return report, time.perf_counter() - start


def test_criterion_01_companion_transform_hand_value():
    spectrum = SampleSpectrum(np.array([1.0, 2.0]), 2, 4)
    value = companion_stieltjes(spectrum, -1.0)
    err = abs(value - 17.0 / 24.0)
    _check(1, err <= 1e-12,
           f"companion transform at u=-1 is {value:.12f}, off the hand "
           f"value 17/24 by {err:.1e} (tol 1e-12)")


def test_criterion_02_identity_support_interval():
    start = time.perf_counter()
    report = support_bounds(PointMass(1.0), 0.25)
    elapsed = time.perf_counter() - start
    finite = [iv for iv in report.support if np.all(np.isfinite(iv))]
    lo, hi = finite[0] if len(finite) == 1 else (np.nan, np.nan)
    ok = (len(finite) == 1 and abs(lo - 0.25) <= 1e-3
          and abs(hi - 2.25) <= 1e-3 and elapsed < 1.0)
    _check(2, ok,
           f"identity-population support [{lo:.6f}, {hi:.6f}] vs "
           f"[0.25, 2.25] +-1e-3, {elapsed:.2f}s (< 1 s)")


def test_criterion_03_identity_density_curve():
    start = time.perf_counter()
    interior = np.linspace(0.25, 2.25, 52)[1:-1]
    curve = lsd_density_curve(PointMass(1.0), 0.25, interior)
    err = float(np.max(np.abs(curve.f - helpers.identity_density(interior, 0.25))))
    mass = lsd_density_curve(PointMass(1.0), 0.25,
                             np.linspace(0.02, 2.6, 500)).mass()
    elapsed = time.perf_counter() - start
    ok = err <= 1e-3 and abs(mass - 1.0) <= 0.01 and elapsed < 5.0
    _check(3, ok,
           f"closed-form density error {err:.1e} (tol 1e-3) at 50 interior "
           f"points, mass {mass:.4f} (1 +- 0.01), {elapsed:.2f}s (< 5 s)")


def _branch_interior(s_lo, s_hi, n=150):
    """Sample inside an increasing branch, stepping off endpoints that
    are infinite or sit on a pole of the map."""
    if s_lo == 0.0 and np.isinf(s_hi):
        return np.logspace(-3.0, 3.0, n)
    if np.isinf(s_lo):
        return -abs(s_hi) * np.logspace(4.0, np.log10(1.001), n)
    if s_hi == 0.0:
        return s_lo + (0.0 - s_lo) * np.linspace(0.01, 0.999, n)
    return s_lo + (s_hi - s_lo) * np.linspace(0.01, 0.99, n)


def test_criterion_04_real_roots_and_branch_monotonicity():
    c = 0.1
    report = support_bounds(SPLIT_BULK, c)
    worst = 0.0
    for u in (-5.0, -1.0, -0.1):
        root = solve_companion_real(u, SPLIT_BULK, c)
        above = companion_transform(complex(u, 1e-8), SPLIT_BULK, c)
        worst = max(worst, abs(above.real - root))
    rising = True
    for s_lo, s_hi in report.branches:
        u_vals = mp_u_map(_branch_interior(s_lo, s_hi), SPLIT_BULK, c)
        rising = rising and bool(np.all(np.diff(u_vals) > 0.0))
    _check(4, worst <= 1e-6 and rising,
           f"real-root vs complex-solver gap {worst:.1e} (tol 1e-6) at "
           f"u in {{-5, -1, -0.1}}; map strictly increasing on all "
           f"{len(report.branches)} increasing branches: {rising}")


def test_criterion_05_two_atom_error_band():
    report, elapsed = _timed_experiment(
        case="two-atom", model=TWO_ATOM, dims=((100, 500),),
        replications=200, family="discrete", order=2, seed=SEED)
    s = report.summaries[0]
    ok = 0.02 <= s["mean_W"] <= 0.08 and s["failures"] == 0 and elapsed <= 120.0
    _check(5, ok,
           f"mean W {s['mean_W']:.4f} in [0.02, 0.08] over 200 "
           f"replications, {s['failures']} failures, {elapsed:.1f}s "
           f"(<= 120 s)")


def test_criterion_06_gamma_shape_error_band():
    report, elapsed = _timed_experiment(
        case="gamma-shape", model=GAMMA_SHAPE, dims=((1000, 500),),
        replications=200, family="laguerre", order=1, seed=SEED)
    s = report.summaries[0]
    ok = 0.02 <= s["mean_W"] <= 0.04 and s["failures"] == 0 and elapsed <= 600.0
    _check(6, ok,
           f"mean W {s['mean_W']:.4f} in [0.02, 0.04] over 200 "
           f"replications at p > n, {s['failures']} failures, "
           f"{elapsed:.1f}s (<= 600 s)")


def test_criterion_07_cubic_poly_error_band():
    report, elapsed = _timed_experiment(
        case="cubic-poly", model=CUBIC_POLY, dims=((500, 500),),
        replications=200, family="laguerre", order=3, seed=SEED)
    s = report.summaries[0]
    ok = 0.06 <= s["mean_W"] <= 0.13 and s["failures"] == 0 and elapsed <= 600.0
    _check(7, ok,
           f"mean W {s['mean_W']:.4f} in [0.06, 0.13] over 200 "
           f"replications at p = n, {s['failures']} failures, "
           f"{elapsed:.1f}s (<= 600 s)")


def test_criterion_08_net_size_stability():
    means = {}
    for spacing in (10, 30):
        report, _ = _timed_experiment(
            case=f"wide-atom-l{spacing}", model=WIDE_ATOM, dims=((100, 500),),
            replications=100, family="discrete", order=3, spacing=spacing,
            seed=SEED)
        means[spacing] = report.summaries[0]["mean_W"]
    rel = abs(means[10] - means[30]) / max(means[10], means[30])
    _check(8, rel < 0.5,
           f"mean W {means[10]:.4f} with 10 net points per interval vs "
           f"{means[30]:.4f} with 30, relative gap {rel:.1%} (< 50%)")


def test_criterion_09_error_shrinks_with_dimension():
    dims = ((100, 500), (200, 1000), (400, 2000))
    medians = {}
    for name, model, family, order in (
            ("two-atom", TWO_ATOM, "discrete", 2),
            ("gamma-shape", GAMMA_SHAPE, "laguerre", 1)):
        report, _ = _timed_experiment(
            case=name, model=model, dims=dims, replications=50,
            family=family, order=order, seed=77)
        medians[name] = [float(np.median(report.distances(p, n)))
                         for p, n in dims]
    ok = all(m[0] >= m[1] >= m[2] for m in medians.values())
    detail = "; ".join(
        f"{name} median W " + " -> ".join(f"{v:.4f}" for v in vals)
        for name, vals in medians.items())
    _check(9, ok, detail + " (nonincreasing as dimensions double)")


def test_criterion_10_exact_transforms_are_roots():
    u_two_sided = np.concatenate([np.linspace(-9.0, -0.5, 10),
                                  np.linspace(11.0, 25.0, 10)])
    net_atomic = helpers.exact_net(THREE_ATOM, 0.2, u_two_sided)
    phi_atomic = objective(THREE_ATOM, net_atomic)
    net_smooth = helpers.exact_net(CUBIC_POLY, 1.0, np.linspace(-9.5, -0.4, 20))
    phi_smooth = objective(CUBIC_POLY, net_smooth)
    refit = fit_laguerre(net_smooth, 3)
    coeff_err = float(np.max(np.abs(refit.theta - CUBIC_POLY.theta)))
    ok = phi_atomic < 1e-16 and phi_smooth < 1e-16 and coeff_err < 1e-6
    _check(10, ok,
           f"objective at the truth {phi_atomic:.1e} (three-atom) and "
           f"{phi_smooth:.1e} (cubic-poly), both < 1e-16; linear refit "
           f"recovers the coefficients to {coeff_err:.1e} (tol 1e-6)")


def test_criterion_11_returns_pipeline_recovers_tail_parameter():
    truth = InverseCubic(0.5)
    names = tuple(f"a{i}" for i in range(488))
    alphas, wins = [], 0
    for r in range(20):
        x = correlated_returns(truth, 488, 1001, seed=1000 + r)
        res = run_analysis(ReturnsMatrix(x, names), spikes=0, bandwidth=0.05)
        alphas.append(float(res.fit.theta[0]))
        grid = res.empirical.x
        l1_fit = integrate.trapezoid(np.abs(res.fitted.f - res.empirical.f), grid)
        l1_base = integrate.trapezoid(np.abs(res.baseline.f - res.empirical.f), grid)
        wins += l1_fit < l1_base
    med = float(np.median(alphas))
    ok = abs(med - 0.5) <= 0.1 and wins >= 18
    _check(11, ok,
           f"median fitted alpha {med:.4f} over 20 seeds (truth 0.5, "
           f"tol 0.1); fitted curve beats the identity baseline on "
           f"{wins}/20 seeds (need >= 18)")


def test_criterion_12_property_bundle():
    problems = []

    # transport distance: metric axioms on a fixed triple
    third = Discrete([2.0, 4.0], [0.5, 0.5])
    if not (wasserstein(TWO_ATOM, TWO_ATOM) == 0.0
            and wasserstein(CUBIC_POLY, CUBIC_POLY) == 0.0):
        problems.append("identity of indiscernibles")
    if abs(wasserstein(TWO_ATOM, THREE_ATOM)
           - wasserstein(THREE_ATOM, TWO_ATOM)) > 1e-14:
        problems.append("symmetry")
    if (wasserstein(TWO_ATOM, third)
            > wasserstein(TWO_ATOM, THREE_ATOM)
            + wasserstein(THREE_ATOM, third) + 1e-12):
        problems.append("triangle inequality")

    # quantile and cdf invert each other
    ps = np.linspace(0.01, 0.99, 41)
    for model in (Laguerre([0.5, 0.1]), InverseCubic(0.3)):
        gap = float(np.max(np.abs(model.cdf(model.quantile(ps)) - ps)))
        if gap > 1e-8:
            problems.append(f"{model.kind} quantile inversion off by {gap:.1e}")
    atoms_back = THREE_ATOM.quantile(ps)
    if not (np.all(np.isin(atoms_back, THREE_ATOM.atoms))
            and np.all(THREE_ATOM.cdf(atoms_back) >= ps - 1e-15)):
        problems.append("atomic quantile/cdf relation")

    # companion transform is positive left of zero
    pop = population_from_model(TWO_ATOM, 100)
    spectrum = sample_spectrum(pop, 500, seed=1)
    if not np.all(companion_stieltjes(spectrum, -np.logspace(-2.0, 2.0, 25)) > 0.0):
        problems.append("companion positivity for u < 0")

    # analytic derivative of the spectrum point map vs central differences
    for s in (0.5, 2.0, -0.45, -0.12):
        h = 1e-6 * max(1.0, abs(s))
        fd = (mp_u_map(s + h, SPLIT_BULK, 0.1)
              - mp_u_map(s - h, SPLIT_BULK, 0.1)) / (2.0 * h)
        an = 1.0 / s**2 - 0.1 * SPLIT_BULK.kernel(np.array([s]))[1][0]
        if abs(fd - an) > 1e-5 * max(1e-12, abs(an)):
            problems.append(f"derivative mismatch at s={s}")

    # replication harness is deterministic
    cfg = dict(case="tiny", model=TWO_ATOM, dims=((30, 60),),
               replications=2, family="discrete", order=2, seed=11)
    first, _ = _timed_experiment(**cfg)
    second, _ = _timed_experiment(**cfg)
    if not (np.array_equal(first.distances(30, 60), second.distances(30, 60))
            and first.summaries == second.summaries):
        problems.append("replication determinism")

    _check(12, not problems,
           "metric axioms, quantile inversion, transform positivity, "
           "derivative agreement and determinism all hold"
           if not problems else "; ".join(problems))
