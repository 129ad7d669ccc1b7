"""Evaluation nets, the least-squares objective, and the three fitters."""

import json

import numpy as np
import pytest
from scipy import optimize

import helpers
from psdfit import (Discrete, InverseCubic, IterationError, Laguerre,
                    NearPoleError, PointMass, RankError, SampleSpectrum,
                    build_unet, estimator, fit_discrete, fit_inverse_cubic,
                    fit_laguerre, models, objective, population_from_model,
                    sample_spectrum, support_bounds, wasserstein)
from psdfit.estimator import UNet, _variable_projection
from psdfit.mptransform import POLE_GUARD


@pytest.fixture(scope="module")
def case1_spectrum():
    pop = population_from_model(Discrete([1.0, 2.0], [0.5, 0.5]), 100)
    return sample_spectrum(pop, 500, seed=42)


class TestBuildUnet:
    def test_atomic_recipe_three_intervals(self, case1_spectrum):
        net = build_unet(case1_spectrum, "discrete", 20)
        assert net.m == 60
        assert net.segments[:20] == ("negative",) * 20
        assert net.segments[20:40] == ("below_bulk",) * 20
        assert net.segments[40:] == ("above_bulk",) * 20
        # interior spacing formula on the negative interval
        t = np.arange(1, 21)
        assert np.allclose(net.points[:20], -10.0 + 10.0 * t / 21.0)
        lam_min = case1_spectrum.smallest_positive()
        lam_max = case1_spectrum.largest()
        assert np.allclose(net.points[20:40], lam_min / 2.0 * t / 21.0)
        assert np.all(net.points[40:] > 5.0 * lam_max)
        assert np.all(net.points[40:] < 10.0 * lam_max)

    def test_square_case_drops_inner_interval(self):
        pop = population_from_model(Discrete([1.0, 2.0], [0.5, 0.5]), 60)
        spec = sample_spectrum(pop, 60, seed=0)
        net = build_unet(spec, "discrete", 20)
        assert net.m == 40
        assert "below_bulk" not in net.segments

    def test_smooth_recipe_negative_only(self, case1_spectrum):
        net = build_unet(case1_spectrum, "laguerre", 15)
        assert net.m == 15
        assert set(net.segments) == {"negative"}
        assert np.all(net.points < 0.0)
        assert np.all(net.companion_values > 0.0)

    def test_cached_values_match_direct_evaluation(self, case1_spectrum):
        from psdfit import companion_stieltjes
        net = build_unet(case1_spectrum, "inverse_cubic", 5)
        assert np.array_equal(net.companion_values,
                              companion_stieltjes(case1_spectrum, net.points))

    def test_rejects_unknown_family_and_bad_spacing(self, case1_spectrum):
        with pytest.raises(ValueError):
            build_unet(case1_spectrum, "gaussian")
        with pytest.raises(ValueError):
            build_unet(case1_spectrum, "discrete", 0)

    def test_rejects_point_too_close_to_eigenvalue(self):
        spec = SampleSpectrum([2.0, 1e-9], 2, 4)
        with pytest.raises(ValueError):
            build_unet(spec, "discrete")

    def test_rejects_degenerate_spectrum(self):
        spec = SampleSpectrum([0.0, 0.0, 0.0], 3, 2)
        with pytest.raises(ValueError):
            build_unet(spec, "discrete")

    def test_unet_validation(self, case1_spectrum):
        with pytest.raises(ValueError):
            UNet(np.array([-1.0, -1.0]), np.array([0.1, 0.2]),
                 ("negative", "negative"), 1, case1_spectrum)
        with pytest.raises(ValueError):
            UNet(np.array([-1.0, -2.0]), np.array([0.1]),
                 ("negative", "negative"), 1, case1_spectrum)


class TestProjection:
    def test_random_raw_vectors_land_in_family(self, case1_spectrum):
        # raw log gaps give increasing positive atoms, and their projected
        # weights, less the zeros, give a model of the family
        project = _variable_projection(build_unet(case1_spectrum, "discrete"), 4)[0]
        rng = np.random.default_rng(7)
        for raw in rng.normal(scale=5.0, size=(25, 4)):
            atoms, _, weights = project(raw)
            assert np.all(atoms > 0.0)
            assert np.all(np.diff(atoms) > 0.0)
            assert np.all(weights >= 0.0)
            assert weights.sum() == pytest.approx(1.0, abs=1e-12)
            keep = weights > 0.0
            model = Discrete(atoms[keep], weights[keep])
            assert np.all(model.weights > 0.0)


class TestObjective:
    def test_vanishes_on_exact_transforms(self):
        truth = Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3])
        u = np.concatenate([np.linspace(-9.0, -0.5, 10),
                            np.linspace(9.0, 20.0, 10)])
        net = helpers.exact_net(truth, 0.2, u)
        assert objective(truth, net) < 1e-16

    def test_positive_away_from_truth(self):
        truth = Discrete([1.0, 2.0], [0.5, 0.5])
        net = helpers.exact_net(truth, 0.2, np.linspace(-8.0, -0.5, 9))
        off = objective(Discrete([1.0, 2.5], [0.5, 0.5]), net)
        assert off > 1e-4

    def test_near_pole_raises(self, case1_spectrum):
        net = build_unet(case1_spectrum, "discrete")
        s_neg = net.companion_values[net.companion_values < 0.0][0]
        atom_on_pole = -1.0 / s_neg
        with pytest.raises(NearPoleError):
            objective(Discrete([atom_on_pole, atom_on_pole * 2], [0.5, 0.5]), net)

    def test_default_ratio_comes_from_spectrum(self, case1_spectrum):
        from psdfit import mp_u_map
        net = build_unet(case1_spectrum, "discrete")
        model = Discrete([1.0, 2.0], [0.5, 0.5])
        res = net.points - mp_u_map(net.companion_values, model, 0.2)
        assert objective(model, net) == float(res @ res)

    def test_constant_shift_changes_objective_quadratically(self):
        from psdfit import mp_u_map
        truth = Discrete([1.0, 2.0], [0.5, 0.5])
        net = helpers.exact_net(truth, 0.2, np.linspace(-8.0, -0.5, 9))
        model = Discrete([1.0, 2.5], [0.5, 0.5])
        res = net.points - mp_u_map(net.companion_values, model, 0.2)
        phi = objective(model, net)
        eps = 0.37
        assert float(np.sum((res - eps) ** 2)) == pytest.approx(
            phi - 2.0 * eps * res.sum() + net.m * eps**2, rel=1e-12)


class TestFitDiscrete:
    def test_recovers_exact_truth(self):
        truth = Discrete([1.0, 2.0], [0.5, 0.5])
        u = np.concatenate([np.linspace(-9.0, -0.5, 10),
                            np.linspace(11.0, 25.0, 10)])
        net = helpers.exact_net(truth, 0.2, u)
        fit = fit_discrete(net, 2)
        assert fit.objective_value < 1e-10
        assert np.allclose(fit.theta, truth.theta, atol=1e-3)
        assert wasserstein(fit.model, truth) < 1e-3

    def test_sampled_spectrum_close(self, case1_spectrum):
        net = build_unet(case1_spectrum, "discrete")
        fit = fit_discrete(net, 2)
        assert wasserstein(fit.model, Discrete([1.0, 2.0], [0.5, 0.5])) < 0.15
        assert fit.converged

    def test_deterministic(self, case1_spectrum):
        net = build_unet(case1_spectrum, "discrete")
        a = fit_discrete(net, 2)
        b = fit_discrete(net, 2)
        assert np.array_equal(a.theta, b.theta)
        assert a.objective_value == b.objective_value

    def test_draws_no_random_numbers(self, case1_spectrum, monkeypatch):
        net = build_unet(case1_spectrum, "discrete")
        a = fit_discrete(net, 2)

        def no_generator(*args, **kwargs):
            raise AssertionError("the atomic fit asked for a random generator")
        monkeypatch.setattr(np.random, "default_rng", no_generator)
        b = fit_discrete(net, 2)
        assert np.array_equal(a.theta, b.theta)

    def test_preconditions(self, case1_spectrum):
        net = build_unet(case1_spectrum, "discrete")
        with pytest.raises(ValueError):
            fit_discrete(net, 0)
        small = helpers.exact_net(Discrete([1.0, 2.0], [0.5, 0.5]), 0.2,
                                  [-5.0, -1.0])
        with pytest.raises(ValueError):
            fit_discrete(small, 2)   # needs 2k-1 = 3 points

    def test_result_invariants(self, case1_spectrum):
        net = build_unet(case1_spectrum, "discrete")
        fit = fit_discrete(net, 2)
        assert fit.objective_value == pytest.approx(
            float(fit.residuals @ fit.residuals), abs=1e-12)
        assert fit.family == "discrete"
        json.dumps(fit.to_dict())   # serializable as emitted

    def test_single_atom_identity_spectrum(self):
        spec = sample_spectrum(np.ones(100), 500, seed=5)
        fit = fit_discrete(build_unet(spec, "discrete"), 1)
        assert 0.9 < float(fit.theta[0]) < 1.1
        assert fit.model.weights.tolist() == [1.0]


def _pole_raw(net):
    # two atoms, the first on the pole -1/s of a net point with s < 0
    s_neg = net.companion_values[net.companion_values < 0.0][0]
    return np.array([np.log(-1.0 / s_neg), np.log(-1.0 / s_neg)])


def _raw_of(atoms):
    return np.log(np.diff(atoms, prepend=0.0))


@pytest.fixture(scope="module")
def atomic_nets(case1_spectrum):
    wide = population_from_model(Discrete([1.0, 5.0, 15.0], [0.3, 0.4, 0.3]), 200)
    return {0.2: build_unet(case1_spectrum, "discrete"),
            2.0: build_unet(sample_spectrum(wide, 100, seed=4), "discrete")}


# k-atom truths whose exact nets the Jacobian is checked on
_JACOBIAN_TRUTHS = {1: Discrete([2.0], [1.0]),
                    2: Discrete([1.0, 2.0], [0.5, 0.5]),
                    3: Discrete([1.0, 5.0, 15.0], [0.3, 0.4, 0.3])}


class TestAtomicResidual:
    @pytest.mark.parametrize("c", [0.2, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_jacobian_matches_central_differences(self, c, k):
        # Kaufman's Jacobian drops a term that scales with the residual, so
        # it is checked on an exact net near the truth, where that term is
        # small; a chain-rule error would still show at full size
        truth = _JACOBIAN_TRUTHS[k]
        top = support_bounds(truth, c).support[-1][1]
        u = np.concatenate([np.linspace(-9.0, -0.5, 10),
                            np.linspace(5.0 * top, 10.0 * top, 10)])
        net = helpers.exact_net(truth, c, u)
        assert net.ratio() == pytest.approx(c)
        _, residual, jacobian = _variable_projection(net, k)
        rng = np.random.default_rng(10 * k + int(c))
        for _ in range(5):
            raw = _raw_of(truth.atoms) + rng.normal(0.0, 0.01, k)
            jac = jacobian(raw)
            assert jac.shape == (net.m, k)
            fd = np.empty_like(jac)
            for j in range(k):
                step = np.zeros_like(raw)
                step[j] = 1e-6
                fd[:, j] = (residual(raw + step) - residual(raw - step)) / 2e-6
            np.testing.assert_allclose(jac, fd, rtol=1e-2,
                                       atol=1e-2 * np.abs(fd).max())

    @pytest.mark.parametrize("c", [0.2, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_squared_norm_is_the_objective(self, atomic_nets, c, k):
        net = atomic_nets[c]
        project, residual, _ = _variable_projection(net, k)
        rng = np.random.default_rng(20 * k + int(c))
        for raw in rng.normal(0.5, 1.0, size=(10, k)):
            res = residual(raw)
            atoms, _, weights = project(raw)
            keep = weights > 0.0
            model = Discrete(atoms[keep], weights[keep])
            phi = objective(model, net)     # raises inside the guard
            assert float(res @ res) == pytest.approx(phi, rel=1e-12)
        # the search minimizes exactly what the fit reports
        fit = fit_discrete(net, k)
        res = _variable_projection(net, fit.model.atoms.size)[1](_raw_of(fit.model.atoms))
        assert float(res @ res) == pytest.approx(
            objective(fit.model, net), rel=1e-12)

    def test_jacobian_at_the_kept_point_after_later_trials(self, atomic_nets):
        # the Jacobian at a kept point must not read the design buffer,
        # which holds the design of the last point projected, here a later
        # trial
        net = atomic_nets[2.0]
        raw = estimator._quantile_start(net, 3)
        _, residual, jacobian = _variable_projection(net, 3)
        residual(raw)
        jacobian(raw)
        residual(raw + 0.1)
        residual(raw - 0.1)
        assert np.array_equal(jacobian(raw), _variable_projection(net, 3)[2](raw))

    def test_jacobian_vanishes_where_raw_is_clipped(self, atomic_nets):
        raw = np.array([0.0, 45.0, -41.0])
        jac = _variable_projection(atomic_nets[0.2], 3)[2](raw)
        assert np.all(jac[:, 1:] == 0.0)
        assert np.any(jac[:, 0] != 0.0)


class TestPoleGuard:
    def test_residual_is_finite_penalty_on_the_pole(self, case1_spectrum):
        net = build_unet(case1_spectrum, "discrete")
        raw = _pole_raw(net)
        _, residual, jacobian = _variable_projection(net, 2)
        res = residual(raw)
        assert np.all(np.isfinite(res))
        assert float(res @ res) >= 1e12
        assert np.all(np.isfinite(jacobian(raw)))

    def test_start_on_the_pole_raises(self, case1_spectrum, monkeypatch):
        net = build_unet(case1_spectrum, "discrete")
        monkeypatch.setattr(estimator, "_quantile_start", lambda net, k: _pole_raw(net))
        with pytest.raises(IterationError):
            fit_discrete(net, 2)

    def test_start_beside_the_pole_finishes(self, case1_spectrum, monkeypatch):
        # the first atom 1e-5 outside the pole of a net point: the residual
        # is finite but huge, and the search must step away from it
        net = build_unet(case1_spectrum, "discrete")
        raw = _pole_raw(net) + np.array([np.log1p(1e-5), 0.0])
        _, denom, _ = _variable_projection(net, 2)[0](raw)
        assert POLE_GUARD < np.abs(denom).min() < 2e-5
        monkeypatch.setattr(estimator, "_quantile_start", lambda net, k: raw)
        fit = fit_discrete(net, 2)
        assert fit.model.atoms.size == 2
        assert np.all(np.isfinite(fit.residuals))
        assert fit.objective_value < 1e12

    @pytest.mark.parametrize("c", [0.2, 2.0])
    @pytest.mark.parametrize("k", [1, 2, 3])
    def test_nnls_start_clears_the_guard(self, atomic_nets, c, k):
        # the search starts at the quantile atoms with their NNLS weights
        net = atomic_nets[c]
        raw = estimator._quantile_start(net, k)
        project, residual, _ = _variable_projection(net, k)
        _, denom, weights = project(raw)
        assert np.abs(denom).min() > POLE_GUARD
        assert np.all(weights >= 0.0) and weights.sum() == pytest.approx(1.0)
        res = residual(raw)
        assert np.all(np.isfinite(res)) and float(res @ res) < 1e12

    def test_start_is_the_sample_quantiles(self, case1_spectrum):
        net = build_unet(case1_spectrum, "discrete")
        pos = case1_spectrum.eigenvalues[case1_spectrum.eigenvalues > 0.0]
        atoms = _variable_projection(net, 2)[0](estimator._quantile_start(net, 2))[0]
        assert np.allclose(atoms, np.quantile(pos, [0.25, 0.75]), rtol=1e-12)


# truth, k, p and n of the over-specified cases, and their seeds: the
# 100 x 500 panels, and the 100 x 100 and 200 x 100 panels where the fit
# that searched the weights too ended above the (k - 1)-atom fit
_OVER_SPECIFIED = {
    "two_atom": (Discrete([1.0, 2.0], [0.5, 0.5]), 3, 100, 500),
    "wide_three_atom": (Discrete([1.0, 5.0, 15.0], [0.3, 0.4, 0.3]), 4, 100, 500),
    "two_atom_c1": (Discrete([1.0, 2.0], [0.5, 0.5]), 3, 100, 100),
    "wide_three_atom_c2": (Discrete([1.0, 5.0, 15.0], [0.3, 0.4, 0.3]), 3, 200, 100),
}
_OVER_SPECIFIED_SEEDS = {"two_atom": range(60), "wide_three_atom": range(60),
                         "two_atom_c1": range(20, 40),
                         "wide_three_atom_c2": range(20, 40)}


@pytest.mark.parametrize("case, seed", [(case, seed) for case in _OVER_SPECIFIED
                                        for seed in _OVER_SPECIFIED_SEEDS[case]])
def test_over_specified_order(case, seed):
    # k above the true number of atoms: the (k - 1)-atom family lies in the
    # closure of the k-atom one, so the larger fit can be no worse; atoms
    # whose weight vanishes are dropped
    truth, k, p, n = _OVER_SPECIFIED[case]
    spec = sample_spectrum(population_from_model(truth, p), n, seed=seed)
    net = build_unet(spec, "discrete")
    smaller = fit_discrete(net, k - 1)
    fit = fit_discrete(net, k)
    assert fit.model.atoms.size <= k
    assert np.all(np.diff(fit.model.atoms) > 0.0)
    assert np.all(fit.model.weights > 0.0)
    assert fit.objective_value <= smaller.objective_value * (1.0 + 1e-9)


# Objective values reached by the Nelder-Mead fitter that preceded the
# least-squares one (8 adaptive simplex starts, xatol 1e-9, fatol 1e-13;
# commit f89126d), on the nets below; they belong to spectra drawn in
# full, so the panel draws through helpers.full_gram_spectrum.
_NELDER_MEAD_OBJECTIVES = {
    ("two_atom", 101): 1.9451678802045468e-09,
    ("two_atom", 102): 6.08698826630157e-10,
    ("two_atom", 103): 8.093430997376059e-10,
    ("two_atom", 104): 2.9366834919939526e-09,
    ("two_atom", 105): 8.53121202807603e-11,
    ("wide_three_atom", 101): 6.569101381208251e-10,
    ("wide_three_atom", 102): 1.167091000073088e-10,
    ("wide_three_atom", 103): 1.571525624834326e-09,
    ("wide_three_atom", 104): 3.060707466430576e-10,
    ("wide_three_atom", 105): 7.894677555627859e-11,
}
_PANEL_TRUTHS = {"two_atom": Discrete([1.0, 2.0], [0.5, 0.5]),
                 "wide_three_atom": Discrete([1.0, 5.0, 15.0], [0.3, 0.4, 0.3])}


@pytest.mark.parametrize("case, seed", sorted(_NELDER_MEAD_OBJECTIVES))
def test_objective_parity_with_nelder_mead(case, seed):
    truth = _PANEL_TRUTHS[case]
    spec = helpers.full_gram_spectrum(population_from_model(truth, 100), 500, seed=seed)
    net = build_unet(spec, "discrete")
    fit = fit_discrete(net, truth.atoms.size)
    assert fit.objective_value <= _NELDER_MEAD_OBJECTIVES[case, seed] * (1.0 + 1e-9)
    assert fit.objective_value <= objective(truth, net)


@pytest.mark.parametrize("case, k, seed", [("two_atom", 2, 0), ("two_atom", 3, 0),
                                           ("wide_three_atom", 3, 101)])
def test_one_nnls_solve_per_search_point(monkeypatch, case, k, seed):
    # leastsq's shape check takes the residual and the Jacobian at the
    # start before MINPACK takes both there again; those repeats, the
    # Jacobian at the point the residual just took and the fit's final
    # read at the accepted point all reuse a kept projection; MINPACK may
    # take a point twice in a row, which it counts twice
    spec = sample_spectrum(population_from_model(_PANEL_TRUTHS[case], 100), 500, seed=seed)
    net = build_unet(spec, "discrete")
    solves, points = [], set()
    nnls, variable_projection = optimize.nnls, estimator._variable_projection
    monkeypatch.setattr(estimator.optimize, "nnls",
                        lambda *args: solves.append(1) or nnls(*args))

    def recording(net, k):
        project, residual, jacobian = variable_projection(net, k)
        seen = lambda f: lambda raw: points.add(raw.tobytes()) or f(raw)
        return project, seen(residual), seen(jacobian)
    monkeypatch.setattr(estimator, "_variable_projection", recording)
    fit = fit_discrete(net, k)
    assert fit.converged
    assert len(solves) == len(points) <= fit.iterations


def test_search_stopped_at_the_evaluation_cap(case1_spectrum, monkeypatch):
    # MINPACK stops when its evaluation count reaches the cap, with info 5
    # (leastsq's ier == 5), which is not convergence
    net = build_unet(case1_spectrum, "discrete")
    assert fit_discrete(net, 2).iterations > 6
    monkeypatch.setattr(estimator, "_MAX_NFEV", 6)
    fit = fit_discrete(net, 2)
    assert not fit.converged
    assert fit.iterations == 6
    assert np.isfinite(fit.objective_value)


# truth, k, p and n of the cases where fit_discrete is checked against
# least_squares: c < 1 and c = 2, an over-specified k, and (with the cap)
# a search stopped at 6 residual evaluations
_LEAST_SQUARES_CASES = {
    "two_atom": ("two_atom", 2, 100, 500, None),
    "two_atom_c2": ("two_atom", 2, 400, 200, None),
    "wide_three_atom_k4": ("wide_three_atom", 4, 100, 500, None),
    "two_atom_capped": ("two_atom", 2, 100, 500, 6),
}


@pytest.mark.parametrize("case", sorted(_LEAST_SQUARES_CASES))
def test_search_equals_least_squares_lm(monkeypatch, case):
    # least_squares(method="lm") with x_scale="jac" calls the same MINPACK
    # routine as leastsq (factor 100, no diag), through scipy's caching
    # wrapper; the fit must equal it bit for bit
    truth, k, p, n, cap = _LEAST_SQUARES_CASES[case]
    if cap is not None:
        monkeypatch.setattr(estimator, "_MAX_NFEV", cap)
    for seed in range(3):
        spec = sample_spectrum(population_from_model(_PANEL_TRUTHS[truth], p), n, seed=seed)
        net = build_unet(spec, "discrete")
        project, residual, jacobian = _variable_projection(net, k)
        ref = optimize.least_squares(
            residual, estimator._quantile_start(net, k), jac=jacobian, method="lm",
            x_scale="jac", ftol=estimator._LSQ_TOL, xtol=estimator._LSQ_TOL,
            gtol=estimator._LSQ_GTOL, max_nfev=estimator._MAX_NFEV)
        atoms, _, weights = project(ref.x)
        want = Discrete(atoms[weights > 0.0], weights[weights > 0.0])
        fit = fit_discrete(net, k)
        assert np.array_equal(fit.model.atoms, want.atoms)
        assert np.array_equal(fit.model.weights, want.weights)
        assert fit.objective_value == objective(want, net)
        assert fit.iterations == ref.nfev
        assert fit.converged == ref.success
        if cap is not None:
            assert fit.iterations == cap and not fit.converged


class TestFitLaguerre:
    def test_recovers_exact_truth(self):
        truth = Laguerre([1 / 9, 1 / 9, 1 / 9])
        net = helpers.exact_net(truth, 1.0, np.linspace(-9.5, -0.4, 20))
        fit = fit_laguerre(net, 3)
        assert np.max(np.abs(fit.theta - truth.theta)) < 1e-6
        assert fit.objective_value < 1e-16

    def test_sampled_spectrum_close(self):
        truth = Laguerre([1.0])
        pop = population_from_model(truth, 500)
        spec = sample_spectrum(pop, 500, seed=3)
        fit = fit_laguerre(build_unet(spec, "laguerre"), 1)
        assert wasserstein(fit.model, truth) < 0.15

    def test_rank_guard(self, case1_spectrum):
        degenerate = UNet(np.array([-1.0, -2.0, -3.0]),
                          np.array([0.5, 0.5, 0.5]),
                          ("negative",) * 3, 1, case1_spectrum)
        with pytest.raises(RankError):
            fit_laguerre(degenerate, 2)

    def test_rejects_nonpositive_companion_values(self, case1_spectrum):
        bad = UNet(np.array([10.0, 11.0]), np.array([-0.5, -0.4]),
                   ("above_bulk",) * 2, 1, case1_spectrum)
        with pytest.raises(ValueError):
            fit_laguerre(bad, 1)

    def test_negative_density_falls_back_to_constrained(self):
        # a two-atom population far from any polynomial-exponential shape
        # drives the unconstrained coefficients negative; the projected fit
        # must be the constrained minimizer, checked against SLSQP with the
        # same grid constraints 1 + sum_r a_r (t^r - r!) >= 0
        import math
        from scipy import optimize
        from psdfit.models import _laguerre_moments
        grid = np.arange(0.0, 50.0 + 1e-9, 0.01)
        pop = population_from_model(Discrete([1.0, 20.0], [0.5, 0.5]), 100)
        for degree in (3, 4):
            facts = np.array([math.factorial(r) for r in range(1, degree + 1)])
            gmat = np.stack([grid**r for r in range(1, degree + 1)], axis=1) - facts
            for seed in range(4):
                net = build_unet(sample_spectrum(pop, 200, seed=seed), "laguerre")
                fit = fit_laguerre(net, degree)
                assert fit.iterations > 0          # projection engaged
                assert fit.model.density(grid).min() >= -1e-10
                moments = _laguerre_moments(net.companion_values, degree)[0]
                design = (fit.c * (moments[1:] - facts[:, None] * moments[0])).T
                target = (net.points + 1.0 / net.companion_values
                          - fit.c * moments[0])
                ref = optimize.minimize(
                    lambda a: float(np.sum((design @ a - target) ** 2)),
                    np.zeros(degree),
                    jac=lambda a: 2.0 * design.T @ (design @ a - target),
                    method="SLSQP",
                    constraints=[{"type": "ineq", "fun": lambda a: 1.0 + gmat @ a,
                                  "jac": lambda a: gmat}],
                    options={"ftol": 1e-14, "maxiter": 500})
                assert ref.success
                assert fit.objective_value == pytest.approx(ref.fun, rel=1e-9)

    def test_residuals_orthogonal_to_design_columns(self):
        import math
        from psdfit.models import _laguerre_moments
        pop = population_from_model(Laguerre([0.5]), 150)
        spec = sample_spectrum(pop, 300, seed=9)
        net = build_unet(spec, "laguerre")
        fit = fit_laguerre(net, 2)
        assert fit.iterations == 0          # unconstrained solution accepted
        moments = _laguerre_moments(net.companion_values, 2)[0]
        facts = np.array([math.factorial(r) for r in (1, 2)])
        design = (fit.c * (moments[1:] - facts[:, None] * moments[0])).T
        assert np.all(np.abs(design.T @ fit.residuals) < 1e-8)

    def test_preconditions(self, case1_spectrum):
        net = build_unet(case1_spectrum, "laguerre")
        with pytest.raises(ValueError):
            fit_laguerre(net, 0)


class TestFitInverseCubic:
    def test_recovers_exact_truth(self):
        truth = InverseCubic(0.5)
        net = helpers.exact_net(truth, 0.5, np.linspace(-9.0, -0.3, 20))
        fit = fit_inverse_cubic(net)
        assert abs(float(fit.theta[0]) - 0.5) < 1e-5
        assert fit.converged

    def test_interval_endpoint_truth(self):
        truth = InverseCubic(0.0)
        net = helpers.exact_net(truth, 0.5, np.linspace(-6.0, -0.5, 12))
        fit = fit_inverse_cubic(net)
        assert float(fit.theta[0]) < 0.01

    def test_result_invariant(self):
        truth = InverseCubic(0.3)
        net = helpers.exact_net(truth, 0.5, np.linspace(-6.0, -0.5, 12))
        fit = fit_inverse_cubic(net)
        assert fit.objective_value == pytest.approx(
            float(fit.residuals @ fit.residuals), abs=1e-12)

    def test_identity_spectrum_pushes_alpha_high(self):
        spec = sample_spectrum(np.ones(100), 500, seed=5)
        fit = fit_inverse_cubic(build_unet(spec, "inverse_cubic"))
        assert float(fit.theta[0]) > 0.9

    def test_batched_grid_matches_the_objective(self):
        # u -> 0- gives s up to 11, where the kernel sums its series in
        # beta/sigma for the smaller alphas; elsewhere it takes the log form
        net = helpers.exact_net(InverseCubic(0.3), 0.5, np.linspace(-9.0, -0.05, 20))
        s = net.companion_values
        alphas = np.linspace(0.0, 1.0 - 1e-6, estimator._IC_COARSE)
        beta, sigma = 1.0 + (2.0 * alphas[:, None] - 1.0) * s, (1.0 - alphas[:, None]) * s
        series = np.abs(beta) < models._IC_SERIES * np.abs(sigma)
        assert series.any() and not series.all()
        k1 = models._inverse_cubic_kernel(alphas[:, None], s[None, :])[0]
        gaps = net.points - (-1.0 / s + net.ratio() * k1)
        for alpha, got in zip(alphas, np.einsum("ij,ij->i", gaps, gaps)):
            want = objective(InverseCubic(alpha), net)
            assert abs(got - want) <= 1e-13 * want

    @pytest.mark.parametrize("truth, c, seed", [(0.0, 0.5, 1), (0.3, 0.2, 2),
                                                (0.5, 0.5, 3), (0.8, 0.9, 4)])
    def test_matches_the_scalar_grid(self, truth, c, seed):
        # the fitter before the batched grid: one objective call per alpha
        n = 400
        spec = sample_spectrum(population_from_model(InverseCubic(truth), round(c * n)),
                               n, seed=seed)
        net = build_unet(spec, "inverse_cubic")
        f = lambda alpha: objective(InverseCubic(alpha), net)
        alphas = np.linspace(0.0, 1.0 - 1e-6, 200)
        i = int(np.argmin([f(a) for a in alphas]))
        bracket = (alphas[max(i - 1, 0)], alphas[min(i + 1, 199)])
        ref = optimize.minimize_scalar(f, bounds=bracket, method="bounded",
                                       options={"xatol": 1e-7})
        fit = fit_inverse_cubic(net)
        assert abs(float(fit.theta[0]) - ref.x) <= 1e-10
        assert fit.iterations == 200 + ref.nfev

    @pytest.mark.parametrize("fit", [lambda net: fit_laguerre(net, 2), fit_inverse_cubic])
    def test_smooth_fits_reject_nonpositive_companion_values(self, case1_spectrum, fit):
        # an atomic net's below- and above-bulk points have s < 0
        net = build_unet(case1_spectrum, "discrete")
        with pytest.raises(ValueError, match="build it for a smooth family"):
            fit(net)


class TestNetPermutation:
    def test_fits_unchanged_under_point_reordering(self):
        pop = population_from_model(Laguerre([0.0]), 80)
        spec = sample_spectrum(pop, 160, seed=3)
        net = build_unet(spec, "laguerre", 12)
        perm = np.random.default_rng(1).permutation(net.m)
        shuffled = UNet(net.points[perm], net.companion_values[perm],
                        tuple(net.segments[i] for i in perm),
                        net.spacing, spec)
        model = Laguerre([0.1, 0.05])
        assert objective(model, net) == pytest.approx(
            objective(model, shuffled), rel=1e-9)
        a, b = fit_laguerre(net, 2), fit_laguerre(shuffled, 2)
        assert np.allclose(a.theta, b.theta, atol=1e-8)
        x, y = fit_inverse_cubic(net), fit_inverse_cubic(shuffled)
        assert float(x.theta[0]) == pytest.approx(float(y.theta[0]), abs=1e-6)
