"""Population discretization, sampling, and the replication harness."""

import json

import numpy as np
import pytest
from scipy import stats

from psdfit import (Discrete, ExperimentConfig, InverseCubic, Laguerre,
                    PointMass, SampleSpectrum, correlated_returns,
                    population_draw, population_from_model, run_experiment,
                    sample_spectrum)
from psdfit.errors import IterationError
from psdfit.simulate import summarize_records


class TestPopulationFromModel:
    def test_even_split(self):
        pop = population_from_model(Discrete([1.0, 2.0], [0.5, 0.5]), 10)
        assert pop.tolist() == [1.0] * 5 + [2.0] * 5

    def test_three_atom_counts(self):
        pop = population_from_model(Discrete([1, 3, 5], [0.3, 0.4, 0.3]), 10)
        assert pop.tolist() == [1.0] * 3 + [3.0] * 4 + [5.0] * 3

    def test_largest_remainder_breaks_ties_by_position(self):
        pop = population_from_model(Discrete([1, 2, 3], [1 / 3, 1 / 3, 1 / 3]), 10)
        assert pop.tolist() == [1.0] * 4 + [2.0] * 3 + [3.0] * 3

    def test_counts_always_sum_to_p(self):
        model = Discrete([1, 2, 3], [0.299, 0.4, 0.301])
        for p in (1, 7, 97, 1000):
            assert population_from_model(model, p).size == p

    def test_point_mass(self):
        pop = population_from_model(PointMass(2.5), 3)
        assert pop.tolist() == [2.5] * 3

    def test_smooth_families_use_midpoint_quantiles(self):
        pop = population_from_model(InverseCubic(0.5), 4)
        expected = [0.5345224838248488, 0.6324555320336759,
                    0.8164965809277261, 1.4142135623730951]
        assert np.allclose(pop, expected, atol=1e-12)
        gamma_pop = population_from_model(Laguerre([1.0]), 5)
        # middle entry is the median of the shape-2 gamma law
        assert gamma_pop[2] == pytest.approx(1.6783469900166612, abs=1e-8)

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            population_from_model(PointMass(1.0), 0)
        with pytest.raises(ValueError, match="p must be a whole number"):
            population_from_model(PointMass(1.0), 3.7)
        with pytest.raises(ValueError, match="p must be a whole number"):
            population_from_model(PointMass(1.0), True)


def _bisection_quantile(model, p):
    """The 64-step bisection on the clipped CDF that ``Laguerre.quantile``
    used before its Newton solve, kept as the draws' reference."""
    lo, hi = np.zeros_like(p), np.full_like(p, 64.0)
    for _ in range(64):
        mid = 0.5 * (lo + hi)
        below = model.cdf(mid) < p
        lo, hi = np.where(below, mid, lo), np.where(below, hi, mid)
    return 0.5 * (lo + hi)


class TestPopulationDraw:
    @pytest.mark.parametrize("model, p", [(Laguerre([1.0]), 1000),
                                          (Laguerre([1 / 9, 1 / 9, 1 / 9]), 500)])
    @pytest.mark.parametrize("seed", [[0, 1], [1, 1], [2, 1], [3, 1]])
    def test_smooth_draws_match_the_bisection(self, model, p, seed):
        # the draws move by less than the old 1e-10 bracket width
        probs = np.nextafter(np.random.default_rng(seed).random(p), 1.0)
        reference = np.sort(_bisection_quantile(model, probs))
        draws = population_draw(model, p, seed)
        assert np.max(np.abs(draws - reference)) <= 1e-10

    def test_deterministic_and_sorted(self):
        a = population_draw(Laguerre([1.0]), 200, seed=7)
        b = population_draw(Laguerre([1.0]), 200, seed=7)
        assert np.array_equal(a, b)
        assert np.all(np.diff(a) >= 0.0)
        assert np.array_equal(a, np.sort(a))

    def test_seed_changes_draw(self):
        a = population_draw(Laguerre([1.0]), 200, seed=7)
        b = population_draw(Laguerre([1.0]), 200, seed=8)
        assert not np.array_equal(a, b)

    def test_draws_follow_the_model(self):
        model = InverseCubic(0.5)
        draws = population_draw(model, 20000, seed=1)
        assert draws.min() >= 0.5
        assert draws.mean() == pytest.approx(model.mean(), rel=0.05)
        # probability transform of the draws should look uniform
        assert model.cdf(draws).mean() == pytest.approx(0.5, abs=0.02)

    def test_carries_sampling_dispersion(self):
        # quantile placement is a fixed vector; draws fluctuate around it
        means = [population_draw(Laguerre([1.0]), 100, seed=s).mean()
                 for s in range(6)]
        assert np.std(means) > 0.01

    def test_rejects_bad_p(self):
        with pytest.raises(ValueError):
            population_draw(PointMass(1.0), 0, seed=0)
        with pytest.raises(ValueError, match="p must be a whole number"):
            population_draw(PointMass(1.0), 3.7, seed=0)

    def test_zero_uniform_draws_the_smallest_normal_quantile(self):
        class ZeroDraws(np.random.Generator):
            """A generator whose uniforms are all exactly 0."""

            def random(self, size=None, dtype=np.float64, out=None):
                return np.zeros(size)

        # Gamma(2) has F(x) = x^2/2 + O(x^3) near 0, so F(x) = tiny at
        # x = sqrt(2 tiny); at the subnormal p = 5e-324 the CDF underflows,
        # and the draw came out 7.5e-155 where the root is 3.2e-162
        tiny = np.finfo(float).tiny
        draws = population_draw(Laguerre([1.0]), 3, ZeroDraws(np.random.PCG64(0)))
        assert draws == pytest.approx(np.full(3, np.sqrt(2.0 * tiny)), rel=1e-14)


class TestSampleSpectrum:
    def test_tall_case_structural_zeros(self):
        pop = population_from_model(Laguerre([1.0]), 1000)
        spec = sample_spectrum(pop, 500, seed=0)
        assert spec.p == 1000 and spec.n == 500
        # p - n exact zeros, after n positive eigenvalues
        assert np.count_nonzero(spec.eigenvalues == 0.0) == 500
        assert np.all(spec.eigenvalues[:500] > 0.0)
        # the positive part alone rebuilds the same spectrum, bit for bit
        again = SampleSpectrum(spec.eigenvalues[:500], 1000, 500)
        assert again.eigenvalues.tobytes() == spec.eigenvalues.tobytes()

    def test_identity_trace_concentrates(self):
        spec = sample_spectrum(np.ones(100), 500, seed=0)
        assert 0.95 < spec.eigenvalues.mean() < 1.05

    def test_identity_largest_near_upper_edge(self):
        # limiting upper edge (1 + sqrt(0.2))^2 is about 2.09
        spec = sample_spectrum(np.ones(100), 500, seed=0)
        assert 1.9 < spec.largest() < 2.3

    def test_deterministic_and_seed_sensitive(self):
        pop = population_from_model(Discrete([1, 2], [0.5, 0.5]), 50)
        a = sample_spectrum(pop, 100, seed=7)
        b = sample_spectrum(pop, 100, seed=7)
        c = sample_spectrum(pop, 100, seed=8)
        assert np.array_equal(a.eigenvalues, b.eigenvalues)
        assert not np.array_equal(a.eigenvalues, c.eigenvalues)

    @pytest.mark.parametrize("pop, n", [(np.linspace(0.5, 3.0, 30), 60),
                                        (np.linspace(0.5, 3.0, 20), 20),
                                        (np.r_[0.0, 0.0, np.linspace(1.0, 4.0, 8)], 25),
                                        (np.linspace(0.5, 3.0, 30), 20),
                                        (np.r_[0.0, 0.0, np.linspace(1.0, 4.0, 28)], 12),
                                        (np.array([0.5, 1.0, 2.0]), 1)],
                             ids=["30x60", "p=n", "zero-entries", "30x20",
                                  "p>n-zero-entries", "3x1"])
    def test_exact_finite_n_moments(self, pop, n):
        # for S = (1/n) D^{1/2} W D^{1/2} with W ~ Wishart(I_p, n):
        # E tr S = tr D and E tr S^2 = (1 + 1/n) tr D^2 + (tr D)^2 / n;
        # each sample mean is within 4.5 standard errors of its value
        traces = np.array([[e.sum(), (e * e).sum()] for e in
                           (sample_spectrum(pop, n, seed).eigenvalues
                            for seed in range(4000))])
        exact = [pop.sum(), (1.0 + 1.0 / n) * (pop @ pop) + pop.sum() ** 2 / n]
        z = (traces.mean(axis=0) - exact) / (traces.std(axis=0, ddof=1) / np.sqrt(4000))
        assert np.all(np.abs(z) < 4.5), z

    @pytest.mark.parametrize("pop, n", [([2.5], 7), ([2.5] * 7, 1)], ids=["p=1", "n=1"])
    def test_one_dimension_is_a_scaled_chi_square(self, pop, n):
        # p = 1: the one eigenvalue is 2.5 chi^2_n / n; n = 1 with seven
        # entries of 2.5: the one nonzero eigenvalue is 2.5 chi^2_7
        draws = [sample_spectrum(pop, n, seed).eigenvalues[0] * n / 2.5
                 for seed in range(2000)]
        assert stats.kstest(draws, stats.chi2(7).cdf).pvalue > 1e-3

    def test_square_case_has_full_rank(self):
        spec = sample_spectrum(np.linspace(1.0, 2.0, 50), 50, seed=3)
        assert spec.eigenvalues.size == 50 and spec.eigenvalues.min() > 0.0

    def test_zero_population_entries_give_zero_eigenvalues(self):
        pop = np.r_[np.zeros(3), np.linspace(1.0, 3.0, 37)]
        eigs = sample_spectrum(pop, 80, seed=11).eigenvalues
        assert np.all(np.abs(eigs[-3:]) <= 1e-13 * eigs[0])
        assert eigs[-4] > 1e-3 * eigs[0]

    def test_rejects_bad_population(self):
        with pytest.raises(ValueError):
            sample_spectrum([1.0, -0.5], 10, seed=0)
        with pytest.raises(ValueError):
            sample_spectrum([1.0], 0, seed=0)
        with pytest.raises(ValueError, match="n must be a whole number"):
            sample_spectrum(np.ones(10), 20.9, 1)
        with pytest.raises(ValueError, match="n must be a whole number"):
            sample_spectrum(np.ones(3), True, 0)


class TestCorrelatedReturns:
    def test_shape_and_determinism(self):
        x = correlated_returns(InverseCubic(0.5), 30, 100, seed=4)
        y = correlated_returns(InverseCubic(0.5), 30, 100, seed=4)
        assert x.shape == (100, 30)
        assert np.array_equal(x, y)

    def test_trace_matches_population(self):
        model = Discrete([1.0, 3.0], [0.5, 0.5])
        x = correlated_returns(model, 40, 20000, seed=1)
        total = np.mean(np.sum(x * x, axis=1))
        assert total == pytest.approx(40 * 2.0, rel=0.05)

    def test_rotation_mixes_coordinates(self):
        # without the rotation the columns would be independent and the
        # off-diagonal correlations would vanish
        model = Discrete([0.2, 5.0], [0.5, 0.5])
        x = correlated_returns(model, 20, 20000, seed=2)
        corr = np.corrcoef(x.T)
        off = corr[~np.eye(20, dtype=bool)]
        assert np.max(np.abs(off)) > 0.1

    def test_rejects_tiny_dimensions(self):
        with pytest.raises(ValueError):
            correlated_returns(PointMass(1.0), 1, 100, seed=0)
        with pytest.raises(ValueError, match="n_assets must be a whole number"):
            correlated_returns(PointMass(1.0), 20.5, 100, seed=0)
        with pytest.raises(ValueError, match="n_obs must be a whole number"):
            correlated_returns(PointMass(1.0), 20, 100.5, seed=0)


CONFIG = ExperimentConfig(
    case="unit", model=Discrete([1.0, 2.0], [0.5, 0.5]),
    dims=((30, 60),), replications=4, family="discrete", order=2, seed=11)
TALL_CONFIG = ExperimentConfig(
    case="tall", model=Discrete([1.0, 2.0], [0.5, 0.5]),
    dims=((60, 30),), replications=4, family="discrete", order=2, seed=11)


class TestExperimentConfig:
    def test_round_trip(self):
        again = ExperimentConfig.from_dict(CONFIG.to_dict())
        assert again.to_dict() == CONFIG.to_dict()

    def test_missing_settings_take_the_field_defaults(self):
        data = CONFIG.to_dict()
        for key in ("order", "spacing", "seed"):
            del data[key]
        plain = ExperimentConfig(case="unit", model=CONFIG.model,
                                 dims=CONFIG.dims, replications=4,
                                 family="discrete")
        assert ExperimentConfig.from_dict(data).to_dict() == plain.to_dict()

    def test_missing_key(self):
        data = CONFIG.to_dict()
        del data["model"]
        with pytest.raises(ValueError):
            ExperimentConfig.from_dict(data)

    def test_not_a_dict(self):
        for data in ([CONFIG.to_dict()], "config", 5):
            with pytest.raises(ValueError):
                ExperimentConfig.from_dict(data)

    @pytest.mark.parametrize("patch", [
        {"dims": ()}, {"dims": ((0, 5),)}, {"replications": 0},
        {"family": "gaussian"}, {"order": 0}, {"spacing": 0}, {"seed": -1},
        {"dims": 5}, {"dims": [5]}, {"replications": [1]},
        {"model": {"kind": "point_mass", "at": None}},
        {"dims": [[1, 2, 3]]}, {"dims": [[1]]}, {"dims": [["a", "b"]]},
        {"dims": [[float("inf"), 2]]},
        {"replications": 2.7}, {"order": 1.5}, {"seed": 0.5}, {"dims": [[40.9, 80.5]]},
    ])
    def test_validation(self, patch):
        data = {**CONFIG.to_dict(), **patch}
        with pytest.raises(ValueError, match="dims" if "dims" in patch else None):
            ExperimentConfig.from_dict(data)

    def test_constructor_rejects_a_fractional_count(self):
        with pytest.raises(ValueError, match="replications"):
            ExperimentConfig(case="unit", model=CONFIG.model, dims=CONFIG.dims,
                             replications=2.7, family="discrete")

    def test_constructor_rejects_a_bool_count(self):
        # True is an int to Python, but no count of replications
        with pytest.raises(ValueError, match="replications must be a whole number"):
            ExperimentConfig(case="unit", model=CONFIG.model, dims=CONFIG.dims,
                             replications=True, family="discrete")


class TestRunExperiment:
    def test_record_structure_and_seeds(self):
        report = run_experiment(CONFIG)
        assert len(report.records) == 4
        for r, rec in enumerate(report.records):
            assert rec["replication"] == r
            assert rec["seed"] == 11 ^ r
            assert rec["error"] is None
            assert rec["distance"] >= 0.0

    def test_deterministic_reports(self):
        a = run_experiment(CONFIG)
        b = run_experiment(CONFIG)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    @pytest.mark.parametrize("config", [CONFIG, TALL_CONFIG], ids=["30x60", "60x30"])
    def test_parallel_matches_serial(self, config):
        a = run_experiment(config)
        b = run_experiment(config, n_jobs=2)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())

    @pytest.mark.parametrize("n_jobs", [0, -1, 1.5, True])
    def test_rejects_fewer_than_one_job(self, n_jobs):
        with pytest.raises(ValueError, match="n_jobs"):
            run_experiment(CONFIG, n_jobs=n_jobs)

    def test_summary_recomputable_from_records(self):
        report = run_experiment(CONFIG)
        row = report.summaries[0]
        dist = report.distances(30, 60)
        assert row["mean_W"] == pytest.approx(dist.mean(), abs=1e-12)
        assert row["sd_W"] == pytest.approx(dist.std(ddof=1), abs=1e-12)
        assert row["failures"] == 0

    def test_summary_order_independent(self):
        report = run_experiment(CONFIG)
        shuffled = list(report.records)[::-1]
        again = summarize_records(shuffled)[0]
        row = report.summaries[0]
        assert again["mean_W"] == pytest.approx(row["mean_W"], abs=1e-15)
        assert again["sd_W"] == pytest.approx(row["sd_W"], abs=1e-15)

    def test_failures_recorded_not_fatal(self, monkeypatch):
        import psdfit.simulate as sim

        def failing(net, family, order):
            raise IterationError("forced failure", residual=1.0)

        monkeypatch.setattr(sim, "_fit_family", failing)
        report = run_experiment(CONFIG)
        assert report.summaries[0]["failures"] == 4
        assert report.summaries[0]["mean_W"] is None
        assert all("IterationError" in rec["error"] for rec in report.records)

    def test_multiple_dimension_pairs(self):
        cfg = ExperimentConfig(case="multi", model=PointMass(1.0),
                               dims=((20, 40), (30, 60)), replications=2,
                               family="discrete", order=1, seed=0)
        report = run_experiment(cfg)
        assert [(s["p"], s["n"]) for s in report.summaries] == [(20, 40), (30, 60)]
        assert len(report.records) == 4

    def test_report_round_trip(self):
        report = run_experiment(CONFIG)
        data = report.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["summaries"] == summarize_records(report.records)

    def test_population_rule_follows_truth_family(self, monkeypatch):
        import psdfit.simulate as sim
        calls = []
        original = sim.population_draw

        def spy(model, p, seed):
            calls.append(tuple(seed))
            return original(model, p, seed)

        monkeypatch.setattr(sim, "population_draw", spy)
        smooth = ExperimentConfig(case="smooth", model=InverseCubic(0.5),
                                  dims=((30, 60),), replications=3,
                                  family="inverse_cubic", seed=5)
        a = run_experiment(smooth)
        # one draw per replication, on a stream separate from the data seed
        assert calls == [(5 ^ r, 1) for r in range(3)]
        b = run_experiment(smooth)
        assert json.dumps(a.to_dict()) == json.dumps(b.to_dict())
        calls.clear()
        run_experiment(CONFIG)
        assert calls == []      # atomic truths keep exact atom counts
