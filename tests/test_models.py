"""Model families: validation, distribution functions, metric, serialization."""

import math
import pickle
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize, stats

from psdfit import (Discrete, InverseCubic, Laguerre, PointMass,
                    model_from_dict, models, wasserstein)


class TestDiscrete:
    def test_sorts_and_normalizes(self):
        m = Discrete([3.0, 1.0, 2.0], [0.2, 0.5, 0.3])
        assert m.atoms.tolist() == [1.0, 2.0, 3.0]
        assert m.weights.tolist() == [0.5, 0.3, 0.2]

    def test_cdf_steps(self):
        m = Discrete([1.0, 2.0], [0.5, 0.5])
        x = np.array([0.5, 1.0, 1.5, 2.0, 3.0])
        assert m.cdf(x).tolist() == [0.0, 0.5, 0.5, 1.0, 1.0]

    def test_quantile_left_continuous(self):
        m = Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3])
        q = m.quantile(np.array([0.05, 0.3, 0.31, 0.7, 0.71, 0.999]))
        assert q.tolist() == [1.0, 1.0, 3.0, 3.0, 5.0, 5.0]

    def test_mean(self):
        m = Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3])
        assert m.mean() == pytest.approx(3.0, abs=1e-15)

    def test_theta_layout(self):
        m = Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3])
        assert m.theta.tolist() == [1.0, 3.0, 5.0, 0.3, 0.4]

    @pytest.mark.parametrize("atoms,weights", [
        ([1.0, 1.0], [0.5, 0.5]),     # duplicate atoms
        ([0.0, 1.0], [0.5, 0.5]),     # nonpositive atom
        ([1.0, 2.0], [0.6, 0.6]),     # weights exceed 1
        ([1.0, 2.0], [1.0, 0.0]),     # zero weight
        ([1.0], [0.5]),               # mass deficit
    ])
    def test_rejects_invalid(self, atoms, weights):
        with pytest.raises(ValueError):
            Discrete(atoms, weights)


class TestPointMass:
    def test_basic(self):
        m = PointMass(2.0)
        assert m.cdf(np.array([1.0, 2.0, 3.0])).tolist() == [0.0, 1.0, 1.0]
        assert m.quantile(np.array([0.2, 0.9])).tolist() == [2.0, 2.0]
        assert m.mean() == 2.0

    def test_rejects_nonpositive(self):
        for at in (0.0, -1.0, math.inf):
            with pytest.raises(ValueError, match="location must be positive and finite"):
                PointMass(at)

    def test_is_one_atom_discrete(self):
        m = PointMass(2.5)
        assert isinstance(m, Discrete)
        assert m.at == 2.5 and repr(m) == "PointMass(at=2.5)"
        assert m.theta.tolist() == [2.5]
        assert m.atoms.tolist() == [2.5] and m.weights.tolist() == [1.0]

    def test_dict_form_round_trips(self):
        m = PointMass(2.5)
        assert m.to_dict() == {"kind": "point_mass", "at": 2.5}
        again = model_from_dict(m.to_dict())
        assert type(again) is PointMass and again == m

    def test_pickle_round_trip(self):
        m = PointMass(2.5)
        again = pickle.loads(pickle.dumps(m))
        assert type(again) is PointMass and again == m
        assert hash(again) == hash(m)

    def test_companion_root_rejects_non_finite_z(self):
        # the arrowhead eigensolver would raise LinAlgError instead
        for bad in (complex(math.inf, 1.0), complex(math.nan, 1.0)):
            with pytest.raises(ValueError, match="z must be finite"):
                PointMass(1.0).companion_root(np.array([1.0 + 1j, bad]), 0.5)


class TestLaguerre:
    def test_pinned_constant(self):
        # alpha_0 = 1 - sum_j j! alpha_j keeps total mass exactly 1
        m = Laguerre([1.0])
        assert m.full_coeffs.tolist() == [0.0, 1.0]
        m = Laguerre([1 / 9, 1 / 9, 1 / 9])
        assert m.full_coeffs[0] == pytest.approx(0.0, abs=1e-15)

    def test_gamma_shape_two_cdf(self):
        # h(t) = t e^{-t}: cdf oracle from the gamma distribution
        m = Laguerre([1.0])
        assert m.cdf(1.0) == pytest.approx(0.2642411176571153, abs=1e-12)
        assert m.quantile(0.5) == pytest.approx(1.6783469900166612, abs=1e-8)
        assert m.quantile(0.9) == pytest.approx(3.889720169867429, abs=1e-8)
        assert m.mean() == pytest.approx(2.0, abs=1e-12)

    def test_mixed_cubic_cdf(self):
        # h(t) = (t + t^2 + t^3) e^{-t} / 9: quadrature oracle
        m = Laguerre([1 / 9, 1 / 9, 1 / 9])
        assert m.cdf(2.0) == pytest.approx(0.23310006165919472, abs=1e-10)
        assert m.cdf(5.0) == pytest.approx(0.7911236430283506, abs=1e-10)
        assert m.mean() == pytest.approx(32.0 / 9.0, abs=1e-12)

    def test_density_nonnegative_enforced(self):
        # a large negative linear coefficient drives the density deep
        # below zero; a shallow dip is accepted as estimation noise
        with pytest.raises(ValueError):
            Laguerre([-3.0])
        m = Laguerre([-1.0])
        assert m.density(np.linspace(0.0, 10.0, 101)).min() > -0.1

    def test_quantile_inverts_cdf(self):
        m = Laguerre([0.5, 0.1])
        p = np.linspace(0.01, 0.99, 25)
        assert np.max(np.abs(m.cdf(m.quantile(p)) - p)) < 1e-12

    def test_scalar_quantile_is_a_float(self):
        assert type(Laguerre([1.0]).quantile(0.3)) is float

    @pytest.mark.parametrize("coeffs", [[1.0], [1 / 9, 1 / 9, 1 / 9]])
    @pytest.mark.parametrize("p", [1e-12, 1e-6, 0.3, 1 - 1e-6, 1 - 1e-12, 1 - 2**-52])
    def test_quantile_matches_mpmath_in_both_tails(self, coeffs, p):
        m = Laguerre(coeffs)
        assert m.quantile(p) == pytest.approx(_mp_quantile(m, p), rel=1e-13, abs=0.0)

    def test_shallow_dip_quantile(self):
        # density (2 - t) e^-t: the raw CDF 1 + (x - 1) e^-x reaches 1 at
        # x = 1 and stays above it, so the clipped S is 0 beyond x = 1
        # while the density is still positive up to x = 2
        m = Laguerre([-1.0])
        p = 1 - 1e-6
        with mpmath.workdps(40):
            exact = mpmath.findroot(lambda x: (1 - x) * mpmath.exp(-x) - (1 - mpmath.mpf(p)), 1)
        # 0.99999728, where the bisection also landed
        assert m.quantile(p) == pytest.approx(float(exact), rel=1e-13, abs=0.0)
        p = np.linspace(0.0, 1.0, 2003)[1:-1]
        x = m.quantile(p)
        assert np.all(np.diff(x) >= 0.0)
        assert np.max(np.abs(1.0 + (x - 1.0) * np.exp(-x) - p)) <= 1e-12

    # below the smallest normal double scipy's gammainc flushes the CDF
    # to zero, so p that small has no sign change to find
    @settings(max_examples=200, deadline=None)
    @given(st.lists(st.floats(-3.0, 3.0), min_size=1, max_size=3),
           st.floats(np.finfo(float).tiny, 1.0, exclude_max=True))
    # its raw CDF tops out at 1 - 2^-52, so the top probability is out of reach
    @example([0.17127125767052365, -0.4509976191693795], 1 - 2**-53)
    def test_quantile_sits_on_a_sign_change(self, scaled, p):
        try:
            m = Laguerre([u / math.factorial(j + 1) for j, u in enumerate(scaled)])
        except ValueError:
            assume(False)
        # the bracket doubles from 64 while the CDF there stays below p
        if np.max(m.cdf(64.0 * 2.0 ** np.arange(24))) < p:
            with pytest.raises(ValueError, match="bracket failed to close"):
                m.quantile(p)
            return
        x = m.quantile(p)
        assert math.isfinite(x) and x >= 0.0
        # F - p up to p = 1/2 and (1 - p) - S above it change sign across
        # x; both are the clipped functions, which change sign exactly
        # where the raw ones do
        d = 1e-9 * x + 1e-300
        if p <= 0.5:
            assert m.cdf(x - d) <= p <= m.cdf(x + d)
        else:
            side = _reference_survival(m, np.array([x - d, x + d]))
            assert side[0] >= 1.0 - p >= side[1]


class TestInverseCubic:
    def test_quarter_quantiles(self):
        # alpha = 0.5: Q(p) = 0.5 / sqrt(1 - p)
        m = InverseCubic(0.5)
        q = m.quantile(np.array([0.125, 0.375, 0.625, 0.875]))
        expected = [0.5345224838248488, 0.6324555320336759,
                    0.8164965809277261, 1.4142135623730951]
        assert np.allclose(q, expected, atol=1e-12)

    def test_cdf_closed_form(self):
        m = InverseCubic(0.25)
        # support starts at alpha; below it the cdf vanishes
        assert m.cdf(0.2) == 0.0
        x = np.array([0.3, 0.5, 1.0, 4.0])
        shift = 2 * 0.25 - 1.0
        expected = 1.0 - (0.75 / (x - shift)) ** 2
        assert np.allclose(m.cdf(x), expected, atol=1e-14)

    def test_unit_mean_for_any_alpha(self):
        for alpha in (0.0, 0.3, 0.9):
            assert InverseCubic(alpha).mean() == pytest.approx(1.0, abs=1e-12)

    def test_rejects_alpha_out_of_range(self):
        for alpha in (-0.1, 1.0, 1.5):
            with pytest.raises(ValueError):
                InverseCubic(alpha)


@pytest.mark.parametrize("model", [
    Discrete([1.0, 2.0], [0.5, 0.5]), Laguerre([1.0]), InverseCubic(0.5),
], ids=["discrete", "laguerre", "inverse_cubic"])
def test_quantile_of_no_probabilities_is_empty(model):
    out = model.quantile([])
    assert out.dtype == float and out.shape == (0,)


def _random_discrete(draw_atoms, draw_weights):
    atoms = np.cumsum(np.asarray(draw_atoms))
    w = np.asarray(draw_weights)
    return Discrete(atoms, w / w.sum())


_SMOOTH_OR_ATOMIC = (
    st.floats(0.2, 1.15).map(lambda a1: Laguerre([a1])),
    st.lists(st.floats(0.85 / 9, 1.1 / 9), min_size=3, max_size=3).map(Laguerre),
    st.floats(0.0, 0.99).map(InverseCubic),
    st.lists(st.tuples(st.floats(0.1, 3.0), st.floats(0.1, 1.0)),
             min_size=1, max_size=3).map(lambda steps: _random_discrete(*zip(*steps))),
)
# atom gaps over six decades, so that some panels are cut, and weights
_WIDE_STEPS = st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(0.1, 1.0)),
                       min_size=1, max_size=6)


def _reference_survival(model, x):
    """1 - F written out per family, so that far tails keep their digits;
    a Laguerre CDF is clipped to [0, 1] as the model's is."""
    x = np.asarray(x, dtype=float)
    if isinstance(model, Discrete):
        return (model.weights * (model.atoms > x[..., None])).sum(-1)
    if isinstance(model, InverseCubic):
        inside = x >= model.alpha
        gap = np.where(inside, x - model.shift, 1.0)
        return np.where(inside, (1.0 - model.alpha) ** 2 / gap**2, 1.0)
    raw = sum(c * math.factorial(j) * stats.gamma.sf(x, j + 1)
              for j, c in enumerate(model.full_coeffs))
    return np.where(x >= 0.0, np.clip(raw, 0.0, 1.0), 1.0)


def _mp_quantile(model, p):
    """Quantile of a Laguerre model to 40 digits, with its stored
    coefficients taken exactly: the root of F(x) = p up to one half and of
    S(x) = 1 - p above it (the stored coefficients need not give mass
    exactly one), by bisection in log x on [1e-30, 64]."""
    with mpmath.workdps(40):
        weights = [mpmath.mpf(float(a)) * mpmath.factorial(j)
                   for j, a in enumerate(model.full_coeffs)]
        p = mpmath.mpf(float(p))
        if p <= 0.5:
            gap = lambda x: sum(w * mpmath.gammainc(j + 1, 0, x, regularized=True)
                                for j, w in enumerate(weights)) - p
        else:
            gap = lambda x: (1 - p) - sum(w * mpmath.gammainc(j + 1, x, regularized=True)
                                          for j, w in enumerate(weights))
        lo, hi = mpmath.mpf(10) ** -30, mpmath.mpf(64)
        for _ in range(100):
            mid = mpmath.sqrt(lo * hi)
            lo, hi = (mid, hi) if gap(mid) < 0 else (lo, mid)
        return float(mpmath.sqrt(lo * hi))


def _reference_w1(a, b):
    """int |F_a - F_b| dx by adaptive quadrature, split at 0, every atom
    and left edge, every crossing of the CDFs and every point where a
    Laguerre model's unclipped CDF leaves [0, 1], and on panels wider than
    a factor 16 at points even in log x."""
    diff = lambda x: _reference_survival(b, x) - _reference_survival(a, x)
    splits = {0.0}
    signed = [diff]
    grid = [np.linspace(0.0, 80.0, 16001), np.geomspace(1e-6, 1e4, 4001)]
    for m in (a, b):
        if isinstance(m, Discrete):
            splits.update(m.atoms.tolist())
        elif isinstance(m, InverseCubic):
            splits.add(m.alpha)
            grid.append(m.alpha + np.geomspace(1e-8, 1e3, 2001))
        else:
            raw = lambda x, m=m: sum(c * math.factorial(j) * stats.gamma.cdf(x, j + 1)
                                     for j, c in enumerate(m.full_coeffs))
            signed += [raw, lambda x, raw=raw: raw(x) - 1.0]
    grid = np.unique(np.concatenate(grid))
    jumps = np.sort(np.concatenate(
        [[]] + [m.atoms for m in (a, b) if isinstance(m, Discrete)]))
    for f in signed:
        vals = f(grid)
        for k in np.flatnonzero(vals[:-1] * vals[1:] < 0.0):
            if np.ptp(np.searchsorted(jumps, grid[k:k + 2], side="right")):
                continue        # a step at an atom, not a crossing
            splits.add(optimize.brentq(lambda x: float(f(x)), grid[k], grid[k + 1],
                                       xtol=1e-15))
    # a panel spanning more than a factor 16 is cut evenly in log x, and the
    # unbounded last one is integrated in units of its start: one quad call
    # on a panel millions of units wide is off by 1e-6 relative
    splits = sorted(splits)
    edges = splits[:1]
    for lo, hi in zip(splits[:-1], splits[1:]):
        n = math.ceil(math.log(hi / lo, 16)) if lo > 0.0 else 1
        edges += [lo * (hi / lo) ** (k / n) for k in range(1, n)] + [hi]
    unit = max(edges[-1], 1.0)
    quad = lambda f, lo, hi: integrate.quad(f, lo, hi, epsabs=1e-15, epsrel=1e-13,
                                            limit=500)[0]
    body = sum(quad(lambda x: abs(float(diff(x))), lo, hi)
               for lo, hi in zip(edges[:-1], edges[1:]))
    return body + unit * quad(lambda y: abs(float(diff(unit * y))), edges[-1] / unit,
                              math.inf)


_W_FAMILIES = [
    Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3]),
    PointMass(2.5),
    Laguerre([1.0]),
    Laguerre([1 / 9, 1 / 9, 1 / 9]),
    InverseCubic(0.0),
    InverseCubic(0.3),
    InverseCubic(0.99),
]


@pytest.mark.parametrize("a, b", [
    *[(a, b) for i, a in enumerate(_W_FAMILIES) for b in _W_FAMILIES[i + 1:]],
    (Laguerre([0.6, 0.1]), Laguerre([1.0])),      # CDFs cross once near x = 2
    (Laguerre([-1.0]), Laguerre([1.0])),          # raw CDF above 1 for x > 1
    (InverseCubic(0.999), InverseCubic(0.5)),     # six graded breaks against one
    (InverseCubic(0.999), Laguerre([1.0])),
    (Discrete([1e-3, 2e-3], [0.5, 0.5]), InverseCubic(0.3)),
    # an atom far above the law's breaks: the wide panel must be cut
    (Discrete([0.5, 1.0, 1000.0], [0.5, 0.499, 0.001]), InverseCubic(0.9)),
    # W = 499999.259 (test_reference_cuts_wide_panels): the reference's
    # panel from the crossing at 0.59 to the atom at 1e6 must be cut
    (Discrete([0.5, 1e6], [0.5, 0.5]), InverseCubic(0.3)),
], ids=lambda m: f"{m.kind}{np.round(m.theta, 3).tolist()}")
def test_wasserstein_matches_adaptive_quadrature(a, b):
    # 1e-13, the bound of every value below 100; one ulp of 5e5 is 5.8e-11
    want = _reference_w1(a, b)
    assert abs(wasserstein(a, b) - want) <= max(1e-13, 1e-15 * want)


def test_reference_cuts_wide_panels():
    # closed form by 40-digit mpmath, split at the one crossing
    # 0.7 sqrt(2) - 0.4; one quad call from there to 1e6 read 499999.754
    a, b = Discrete([0.5, 1e6], [0.5, 0.5]), InverseCubic(0.3)
    want = 499999.2589908815661638207233246122753367
    assert abs(_reference_w1(a, b) - want) <= 1e-15 * want
    assert abs(wasserstein(a, b) - want) <= 1e-15 * want


def test_wasserstein_splits_at_the_clip_kink():
    # a0 = 1 - a1 < 0, so the raw CDF is negative below x ~ 0.02624 and the
    # model's CDF is clipped there; quad split at that kink gives the value
    a, b = Laguerre([1.01323577]), Laguerre([1.0])
    assert abs(wasserstein(a, b) - 0.0132342642762919) <= 1e-9
    assert abs(_reference_w1(a, b) - 0.0132342642762919) <= 1e-12


class TestWasserstein:
    def test_atomic_oracle(self):
        a = Discrete([1.0, 2.0], [0.5, 0.5])
        b = PointMass(1.0)
        # quantiles differ by 1 on half the unit interval
        assert wasserstein(a, b) == pytest.approx(0.5, abs=1e-14)

    def test_point_mass_pair_is_distance_between_atoms(self):
        assert wasserstein(PointMass(1.5), PointMass(4.0)) == pytest.approx(2.5)

    def test_near_degenerate_smooth_oracle(self):
        # InverseCubic{0.99} concentrates near 1; hand integral gives 0.01
        d = wasserstein(InverseCubic(0.99), PointMass(1.0))
        assert d == pytest.approx(0.01, abs=1e-9)

    def test_inverse_cubic_pair_oracle(self):
        # Q_a - Q_b = (alpha_b - alpha_a)(1/sqrt(1 - p) - 2), whose absolute
        # value integrates to |alpha_b - alpha_a| over (0, 1)
        d = wasserstein(InverseCubic(0.3), InverseCubic(0.5))
        assert d == pytest.approx(0.2, abs=1e-13)

    def test_smooth_vs_atomic_runs(self):
        d = wasserstein(Laguerre([1.0]), Discrete([1.0, 2.0], [0.5, 0.5]))
        assert 0.0 < d < 10.0

    @given(st.lists(st.floats(0.1, 3.0), min_size=2, max_size=4),
           st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4),
           st.lists(st.floats(0.1, 3.0), min_size=2, max_size=4),
           st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4),
           st.lists(st.floats(0.1, 3.0), min_size=2, max_size=4),
           st.lists(st.floats(0.1, 1.0), min_size=2, max_size=4))
    @settings(max_examples=25, deadline=None)
    def test_metric_axioms(self, ga, wa, gb, wb, gc, wc):
        na, nb, nc = len(ga), len(gb), len(gc)
        ka, kb, kc = min(na, len(wa)), min(nb, len(wb)), min(nc, len(wc))
        a = _random_discrete(ga[:ka], wa[:ka])
        b = _random_discrete(gb[:kb], wb[:kb])
        c = _random_discrete(gc[:kc], wc[:kc])
        dab, dba = wasserstein(a, b), wasserstein(b, a)
        dac, dcb = wasserstein(a, c), wasserstein(c, b)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-12)
        assert wasserstein(a, a) == 0.0
        assert dab <= dac + dcb + 1e-9

    @given(st.lists(st.one_of(_SMOOTH_OR_ATOMIC), min_size=3, max_size=3))
    @example(models=[Laguerre([1.0]), Laguerre([1.0]), InverseCubic(5e-324)])
    @settings(max_examples=25, deadline=None)
    def test_metric_axioms_smooth_and_mixed(self, models):
        a, b, c = models
        for m in models:
            assert wasserstein(m, m) == 0.0
        dab, dba = wasserstein(a, b), wasserstein(b, a)
        assert dab >= 0.0
        assert dab == pytest.approx(dba, abs=1e-14)
        assert dab <= wasserstein(a, c) + wasserstein(c, b) + 1e-9

    @given(_WIDE_STEPS, _WIDE_STEPS, st.sampled_from([1e-6, 1.0, 1e6]))
    # atoms one ulp apart: the panel between them has no room for its nodes
    @example([(1e-9, 1.0)], [(np.nextafter(1e-9, 1.0), 1.0)], 1.0)
    @example([(1.0, 1.0)], [(np.nextafter(1.0, 2.0), 1.0)], 1.0)
    @settings(max_examples=50, deadline=None)
    def test_atomic_pair_is_the_step_sum(self, steps_a, steps_b, scale):
        # F_a - F_b is constant between merged atoms, so the panels must
        # add up to the step sum at any scale
        a, b = (_random_discrete(*zip(*steps)) for steps in (steps_a, steps_b))
        a, b = (Discrete(m.atoms * scale, m.weights) for m in (a, b))
        merged = np.union1d(a.atoms, b.atoms)
        exact = np.abs(a.cdf(merged[:-1]) - b.cdf(merged[:-1])) @ np.diff(merged)
        assert abs(wasserstein(a, b) - exact) <= 1e-14 * exact

    def test_identity_iff_equal(self):
        a = Discrete([1.0, 2.0], [0.4, 0.6])
        b = Discrete([1.0, 2.0], [0.4001, 0.5999])
        assert wasserstein(a, a) == 0.0
        assert wasserstein(a, b) > 0.0


class TestSerialization:
    @pytest.mark.parametrize("model", [
        Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3]),
        PointMass(2.5),
        Laguerre([1.0]),
        Laguerre([1 / 9, 1 / 9, 1 / 9]),
        InverseCubic(0.438),
    ])
    def test_round_trip(self, model):
        again = model_from_dict(model.to_dict())
        assert again == model

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "cauchy", "scale": 1.0})

    def test_missing_field_rejected(self):
        with pytest.raises(ValueError):
            model_from_dict({"kind": "discrete", "atoms": [1.0]})

    def test_equality_semantics(self):
        assert Discrete([1, 2], [0.5, 0.5]) == Discrete([2, 1], [0.5, 0.5])
        assert PointMass(1.0) != Discrete([1.0], [1.0])


def _quad_complex(g, a, b):
    parts = [integrate.quad(lambda x: part(g(x)), a, b, epsabs=0.0, epsrel=1e-13,
                            limit=500)[0]
             for part in (np.real, np.imag)]
    return complex(*parts)


def _reference_kernel(model, s):
    """K1 and K2 written out from the definition: a finite sum over the
    atoms, or adaptive quadrature of the density (real and imaginary
    parts separately) for the smooth families.  Where the pole's
    p = Re(-1/s) lies inside the support, the range is split at p -+ d,
    with d half the distance from p to the support's edge, and the stretch
    between is replaced by the half circle below the real line through
    those ends (Cauchy), so the integrand stays smooth however close s
    lies to the real axis."""
    kernels = [lambda t: t / (1.0 + t * s), lambda t: t * t / (1.0 + t * s) ** 2]
    if isinstance(model, Discrete):
        return [sum(w * f(a) for a, w in zip(model.atoms.tolist(), model.weights.tolist()))
                for f in kernels]
    lo = model.support()[0][0]
    p = (-1.0 / s).real
    out = []
    for f in kernels:
        g = lambda t: f(t) * model.density(t)
        if p <= lo:
            value = _quad_complex(g, lo, math.inf)
        else:
            # the inverse-cubic density continued off the real line
            assert isinstance(model, InverseCubic)
            rho = lambda t: 2.0 * (1.0 - model.alpha) ** 2 / (t - model.shift) ** 3
            d = 0.5 * (p - lo)
            arc = lambda th: (lambda t: f(t) * rho(t) * 1j * (t - p))(p + d * np.exp(1j * th))
            value = (_quad_complex(g, lo, p - d) + _quad_complex(arc, -math.pi, 0.0)
                     + _quad_complex(g, p + d, math.inf))
        out.append(value if isinstance(s, complex) else value.real)
    return out


_FIT_RANGE = [0.1, 0.7, 5.0, 1e6]
_UPPER_HALF = [0.3 + 0.4j, 1.0 + 1.0j, 0.5 + 0.1j]
# inverse cubic: by the real axis, with the pole inside the support or not
_IC_HARD = [-0.7 + 1e-6j, 0.02 + 1e-6j, -30.0 + 1e-3j]


# each model with every argument it is checked at
_KERNEL_INPUTS = {
    model: _FIT_RANGE + extra + _UPPER_HALF
    for model, extra in [
        (Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3]), [-0.5]),   # pole at 2
        (PointMass(2.5), [-1.0]),                               # pole at 1
        (Laguerre([1.0]), []),
        (Laguerre([1 / 9, 1 / 9, 1 / 9]), []),
        (InverseCubic(0.0), _IC_HARD),
        # pole at 0.2; 1 + (2 alpha - 1) s vanishes at s = 2.5
        (InverseCubic(0.3), [-5.0, 2.5, 2.5 * (1 + 1e-6), 2.5 * (1 - 1e-6),
                             2.5 * (1 + 1e-3), 2.5 * (1 - 1e-3), 3.0, 2.5 + 1e-6j]
         + _IC_HARD),
        (InverseCubic(0.5), [-3.0] + _IC_HARD),                 # pole at 1/3
    ]
}


@pytest.mark.parametrize("batched", [False, True])
@pytest.mark.parametrize("model, s", [
    (model, s) for model, inputs in _KERNEL_INPUTS.items() for s in inputs
], ids=lambda v: f"{v.kind}{np.round(v.theta, 3).tolist()}" if hasattr(v, "kind") else None)
def test_kernel_matches_reference(model, s, batched):
    # batched: s sits among the model's other arguments of its type, so a
    # kernel that splits its lanes between two rules must put each back
    args = [x for x in _KERNEL_INPUTS[model]
            if isinstance(x, complex) == isinstance(s, complex)] if batched else [s]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        got = model.kernel(np.array(args))
    i = args.index(s)
    for half, want in zip(got, _reference_kernel(model, s)):
        assert half.shape == (len(args),)
        assert abs(half[i] - want) <= 1e-10 * abs(want)


@pytest.mark.parametrize("alpha", [0.0, 0.1, 0.25, 0.4, 0.7])
def test_inverse_cubic_series_matches_mpmath(alpha):
    # points about s0, where 1 + (2 alpha - 1) s vanishes, on the series
    # branch |beta| < 0.5 |sigma|, on the real axis and above it; a scalar
    # alpha and a column of alphas, as in the fit's grid, sum the same series
    s0 = -1.0 / (2.0 * alpha - 1.0)
    points = [s0 * (1.0 + d) + 1j * f * abs(s0) if f else s0 * (1.0 + d)
              for d in (0.0, 0.01, -0.01, 0.1, -0.1, 0.2, -0.2, 0.3, -0.3)
              for f in (0.0, 1e-6, 1e-3, 0.1)]
    points = [s for s in points
              if abs(1.0 + (2.0 * alpha - 1.0) * s) < 0.5 * abs((1.0 - alpha) * s)]
    with mpmath.workdps(40):
        a = mpmath.mpf(alpha)
        density = lambda t: 2 * (1 - a) ** 2 / (t - (2 * a - 1)) ** 3
        want = [[complex(mpmath.quad(lambda t: (t / (1 + t * mpmath.mpmathify(s))) ** j
                                     * density(t), [a, mpmath.inf]))
                 for s in points] for j in (1, 2)]
    for real in (True, False):
        lanes = [i for i, s in enumerate(points) if isinstance(s, float) == real]
        s = np.array([points[i] for i in lanes])
        scalar = InverseCubic(alpha).kernel(s)
        column = models._inverse_cubic_kernel(np.full((2, 1), alpha), s)
        for j in (0, 1):
            ref = np.array([want[j][i] for i in lanes])
            for got in (scalar[j], *column[j]):
                assert np.all(np.abs(got - ref) <= 2e-15 * np.abs(ref))
