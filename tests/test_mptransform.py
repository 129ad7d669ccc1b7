"""Spectrum transforms: companion values, kernels, solvers, support."""

import json
import math
import warnings

import mpmath
import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy import special

import helpers
from psdfit import (DensityCurve, Discrete, InverseCubic, IterationError,
                    Laguerre, NearPoleError, PointMass, PoleError, PSDModel,
                    SampleSpectrum, companion_stieltjes,
                    lsd_density_curve, mp_u_map,
                    solve_companion_fixed_point, solve_companion_real,
                    support_bounds)
from psdfit import mptransform
from psdfit.models import _laguerre_moments


def scalar_recursion(s, degree):
    """I_j(s) and dI_j/ds at one real s > 1 by the upward recursion
    J_{r+1} = (r! - J_r)/s from J_0 = b e^b E1(b), b = 1/s, one lane at a
    time: the loop the batched ``_laguerre_moments`` must reproduce."""
    b = 1.0 / s
    e_scaled = float(np.exp(b) * special.exp1(b))
    J, dJ = b * e_scaled, -b * b * ((1.0 + b) * e_scaled - 1.0)
    vals, ders, fact = [], [], 1.0
    for r in range(degree + 1):
        J = (fact - J) / s
        dJ = -(J + dJ) / s
        vals.append(J)
        ders.append(dJ)
        fact *= r + 1
    return np.array(vals), np.array(ders)


def moments(s, degree):
    """_laguerre_moments at one real s: (I, dI/ds), each of shape (degree + 1,)."""
    vals, ders = _laguerre_moments(np.array([s]), degree)
    return vals[:, 0], ders[:, 0]


class TestSampleSpectrum:
    def test_sorts_descending(self):
        s = SampleSpectrum([1.0, 3.0, 2.0], 3, 10)
        assert s.eigenvalues.tolist() == [3.0, 2.0, 1.0]
        assert s.largest() == 3.0
        assert s.smallest_positive() == 1.0

    def test_clamps_tiny_negatives(self):
        s = SampleSpectrum([2.0, -1e-12], 2, 10)
        assert s.eigenvalues.tolist() == [2.0, 0.0]

    def test_rejects_large_negative(self):
        with pytest.raises(ValueError):
            SampleSpectrum([2.0, -1e-3], 2, 10)

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            SampleSpectrum([1.0, 2.0], 3, 10)

    def test_tall_case_needs_zeros(self):
        with pytest.raises(ValueError):
            SampleSpectrum([1.0, 2.0, 3.0], 3, 2)
        s = SampleSpectrum([1.0, 2.0, 0.0], 3, 2)
        assert s.eigenvalues.tolist() == [2.0, 1.0, 0.0]


class TestCompanionStieltjes:
    def test_hand_oracle(self):
        # 0.5 + 0.25 * (1/2 + 1/3) = 17/24
        s = SampleSpectrum([1.0, 2.0], 2, 4)
        v = companion_stieltjes(s, -1.0)
        assert v == pytest.approx(17.0 / 24.0, abs=1e-15)

    def test_vectorized_matches_scalar(self):
        s = SampleSpectrum([1.0, 2.0, 5.0], 3, 9)
        u = np.array([-3.0, -0.5, 7.0])
        vec = companion_stieltjes(s, u)
        assert vec.tolist() == [companion_stieltjes(s, x) for x in u]

    def test_pole_at_eigenvalue_and_zero(self):
        s = SampleSpectrum([1.0, 2.0], 2, 4)
        with pytest.raises(PoleError):
            companion_stieltjes(s, 2.0)
        with pytest.raises(PoleError):
            companion_stieltjes(s, 0.0)

    @pytest.mark.parametrize("u, where", [([0.5, 1.0], 1.0), ([2.0, 0.5], 2.0)])
    def test_pole_report_names_the_eigenvalue_for_array_u(self, u, where):
        s = SampleSpectrum([3.0, 2.0, 1.0], 3, 10)
        with pytest.raises(PoleError) as info:
            companion_stieltjes(s, np.array(u))
        assert info.value.where == where

    def test_structural_zeros_cancel_ratio_term(self):
        # with p > n the explicit zeros cancel -(1 - p/n)/u exactly,
        # leaving the average over the positive eigenvalues only
        s = SampleSpectrum([5.0, 3.0, 0.0, 0.0], 4, 2)
        for u in (-1.0, 1.7, 8.0):
            expect = 0.5 * (1.0 / (5.0 - u) + 1.0 / (3.0 - u))
            assert companion_stieltjes(s, u) == pytest.approx(expect, abs=1e-13)

    @given(st.lists(st.floats(0.01, 10.0), min_size=1, max_size=8),
           st.integers(0, 5), st.floats(-50.0, -0.01))
    @settings(max_examples=50, deadline=None)
    def test_positive_below_zero(self, pos, zeros, u):
        eigs = list(pos) + [0.0] * zeros
        p = len(eigs)
        n = max(1, p - zeros)
        assert companion_stieltjes(SampleSpectrum(eigs, p, n), u) > 0.0


class TestMomentIntegrals:
    # quadrature oracles for I_j(s) = int t^{j+1} e^-t / (1+ts) dt
    SMALL = [0.48069960844835447, 0.7418577022166362,
             1.7973461396905197, 6.003791229013543]
    LARGE = [0.14026605012271035, 0.17194678997545787,
             0.3656106420049125, 1.1268778715990184]

    def test_small_argument(self):
        vals, _ = moments(0.7, 3)
        assert np.max(np.abs(vals - self.SMALL)) < 1e-10

    def test_large_argument_recursion(self):
        vals, _ = moments(5.0, 3)
        assert np.max(np.abs(vals - self.LARGE)) < 1e-10

    def test_branches_agree_at_switch(self):
        lo, _ = moments(1.0 - 1e-9, 4)
        hi, _ = moments(1.0 + 1e-9, 4)
        assert np.max(np.abs(lo - hi)) < 1e-7

    def test_derivative_matches_finite_difference(self):
        for s in (0.4, 3.0, 40.0):
            _, ders = moments(s, 3)
            h = 1e-6 * max(1.0, s)
            fd = (moments(s + h, 3)[0] - moments(s - h, 3)[0]) / (2.0 * h)
            assert np.max(np.abs(ders - fd) / np.abs(fd)) < 1e-5

    def test_batched_recursion_matches_the_scalar_loop(self):
        # above s = 1 every lane runs the same elementwise arithmetic as
        # the scalar upward recursion, so the values match bit for bit,
        # with quadrature lanes interleaved
        big = np.geomspace(1.0 + 1e-9, 1e4, 200)
        s = np.ravel(np.column_stack([big, 1.0 / big]))
        for degree in (1, 3, 6):
            vals, ders = _laguerre_moments(s, degree)
            for i in np.flatnonzero(s > 1.0):
                ref_vals, ref_ders = scalar_recursion(float(s[i]), degree)
                assert np.array_equal(vals[:, i], ref_vals)
                assert np.array_equal(ders[:, i], ref_ders)

    def test_rejects_nonpositive_real(self):
        with pytest.raises(ValueError):
            moments(-0.5, 2)


class TestUMap:
    def test_identity_model_hand_values(self):
        # u(1) = -1 + 0.25 * 1/(1+1) and u'(1) = 1 - 0.25 * 1/(1+1)^2
        m = PointMass(1.0)
        assert mp_u_map(1.0, m, 0.25) == pytest.approx(-0.875, abs=1e-15)
        slope = 1.0 - 0.25 * m.kernel(np.array([1.0]))[1][0]
        assert slope == pytest.approx(0.9375, abs=1e-15)

    def test_discrete_hand_value(self):
        m = Discrete([2.0, 7.0, 10.0], [0.3, 0.4, 0.3])
        s, c = -0.05, 0.1
        k1 = 0.3 * 2 / 0.9 + 0.4 * 7 / 0.65 + 0.3 * 10 / 0.5
        assert mp_u_map(s, m, c) == pytest.approx(20.0 + c * k1, abs=1e-12)

    def test_laguerre_exponential_value(self):
        # h(t) = e^-t: u(1) = -1 + I_0(1) with I_0(1) = 1 - e*E1(e)... the
        # integral evaluates to 0.40365263767680, quadrature oracle
        u = mp_u_map(1.0, Laguerre([0.0]), 1.0)
        assert u == pytest.approx(-1.0 + 0.40365263767680537, abs=1e-10)

    def test_inverse_cubic_quadrature_oracle(self):
        m = InverseCubic(0.5)
        assert mp_u_map(0.7, m, 1.0) == pytest.approx(
            -1.0 / 0.7 + 0.5275256490678445, abs=1e-10)
        assert mp_u_map(-3.0, m, 1.0) == pytest.approx(
            1.0 / 3.0 - 0.6479184330021646, abs=1e-10)
        assert m.kernel(np.array([-3.0]))[1][0] == pytest.approx(
            0.45069385566594516, abs=1e-9)

    def test_zero_argument_rejected(self):
        with pytest.raises(ValueError):
            mp_u_map(0.0, PointMass(1.0), 0.5)

    # one rule for every family: ``where`` is the support point t nearest
    # the pole -1/s and the margin is |1 + t s| there
    NEAR_POLE = [
        # -1/s just left of the atom at 2: the margin the atoms always had
        (Discrete([1.0, 2.0], [0.5, 0.5]), -0.5000001, 2.0,
         abs(1.0 + 2.0 * -0.5000001)),
        # -1/s inside [0.5, inf): the pole itself, margin zero up to rounding
        (InverseCubic(0.5), -1.9, 1.0 / 1.9, None),
        # -1/s just left of the support edge 0.5
        (InverseCubic(0.5), -2.0000001, 0.5, abs(1.0 + 0.5 * -2.0000001)),
        # any s < 0 puts -1/s inside [0, inf)
        (Laguerre([1.0]), -1.0, 1.0, None),
    ]

    def test_near_pole_guard(self):
        for model, s, where, margin in self.NEAR_POLE:
            with pytest.raises(NearPoleError) as err:
                mp_u_map(np.array([0.3, s]), model, 0.5)
            assert err.value.where == where
            if margin is None:
                assert err.value.margin < 1e-15
            else:
                assert err.value.margin == margin

    def test_guard_reads_the_support_only_for_negative_arguments(self):
        class Unsupported(Discrete):
            def support(self):
                raise AssertionError("support read")

        m = Unsupported([1.0], [1.0])
        assert mp_u_map(0.5, m, 0.5) == mp_u_map(0.5, PointMass(1.0), 0.5)
        with pytest.raises(AssertionError):
            mp_u_map(-0.5, m, 0.5)

    @pytest.mark.parametrize("model,points", [
        (Discrete([1.0, 2.0], [0.5, 0.5]), (0.3, -0.8, 2.0)),
        (PointMass(1.0), (0.5, -3.0)),
        (Laguerre([1.0]), (0.2, 1.5, 10.0)),
        (InverseCubic(0.5), (0.4, -3.0)),
    ])
    def test_derivative_matches_finite_difference(self, model, points):
        for s in points:
            d = 1.0 / s**2 - 0.4 * model.kernel(np.array([s]))[1][0]
            h = 1e-6 * max(1.0, abs(s))
            fd = (mp_u_map(s + h, model, 0.4) - mp_u_map(s - h, model, 0.4)) / (2 * h)
            assert abs(d - fd) / abs(fd) < 1e-5


class TestFixedPointSolver:
    def test_identity_model_closed_form(self):
        c = 0.25
        for z in (1.0 + 0.5j, 0.5 + 1e-3j, 3.0 + 1e-4j, -1.0 + 1e-6j):
            roots = np.roots([z, z + 1.0 - c, 1.0])
            want = roots[np.argmax(roots.imag)]
            got = solve_companion_fixed_point(z, PointMass(1.0), c)
            assert abs(got - want) < 1e-8

    def test_residual_contract(self):
        m = Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3])
        c = 0.2
        for x in (0.5, 1.0, 2.0, 4.5):
            z = complex(x, 1e-6)
            s = solve_companion_fixed_point(z, m, c)
            resid = abs(mp_complex_u(s, m, c) - z)
            assert resid < 1e-10
            assert s.imag > 0.0

    def test_edge_point_converges(self):
        # adjacent to a support edge the plain iteration stalls; the
        # Newton stage must still deliver the full tolerance
        z = complex(0.2501, 1e-6)
        s = solve_companion_fixed_point(z, PointMass(1.0), 0.25)
        assert abs(mp_complex_u(s, PointMass(1.0), 0.25) - z) < 1e-10

    def test_rejects_lower_half_plane(self):
        for z in (1.0 + 0.0j, 1.0 - 1e-3j):
            with pytest.raises(ValueError):
                solve_companion_fixed_point(z, PointMass(1.0), 0.5)

    @pytest.mark.parametrize("z", [complex(math.inf, 1.0), complex(1.0, math.inf),
                                   complex(math.nan, 1.0)])
    def test_rejects_non_finite_argument(self, z):
        with warnings.catch_warnings(), pytest.raises(ValueError, match="z must be finite"):
            warnings.simplefilter("error")
            solve_companion_fixed_point(z, Laguerre([1.0]), 0.5)

    def test_newton_stays_in_the_upper_half_plane(self):
        # at c = 1 near zero the fixed point stalls, and unshortened Newton
        # steps from its last iterate reach the root -1.55 - 30.96i, whose
        # density reads 0; the closed-form-kernel density there is 9.8572
        model, z = Laguerre([1.0]), 0.001 + 1e-6j
        s = solve_companion_fixed_point(z, model, 1.0)
        assert s.imag > 0.0
        assert abs(mp_complex_u(s, model, 1.0) - z) < 1e-10
        assert s.imag / math.pi == pytest.approx(9.8572, rel=1e-3)

    def test_root_below_the_real_axis_is_not_accepted(self):
        class LowerRoot(Discrete):
            """The identity model, handing out its other root, Im s < 0."""

            def companion_root(self, z, c):
                return 1.0 / (z * super().companion_root(z, c))

        # its residual is 0 but its density would read 0: Newton accepts no
        # lane started there, every lane starts there, and the curve fails
        model, grid = LowerRoot([1.0], [1.0]), np.linspace(0.3, 2.5, 5)
        z = grid + 1j * mptransform._DENSITY_EPS
        lower = model.companion_root(z, 0.5)
        assert np.all(lower.imag < 0.0)
        assert not mptransform._iterate(z, lower, model, 0.5)[3].any()
        with pytest.raises(IterationError, match=r"at z=\(0\.3\+1e-06j\)"):
            lsd_density_curve(model, 0.5, grid)

    def test_band_of_lower_roots_is_crossed_by_continuation(self, monkeypatch):
        class LowerRootBand(Discrete):
            """The identity model, handing out its root with Im s < 0 for
            0.8 < Re z < 1.6."""

            def companion_root(self, z, c):
                upper = super().companion_root(z, c)
                band = (z.real > 0.8) & (z.real < 1.6)
                return np.where(band, 1.0 / (z * upper), upper)

        # the seeds in the band fail from the lower root; continuation from
        # the solved seeds on either side reaches every lane of it
        model, grid = LowerRootBand([1.0], [1.0]), np.linspace(0.3, 2.5, 200)
        calls, kernel = [], Discrete.kernel

        def counted(self, s):
            calls.append(s.size)
            return kernel(self, s)

        monkeypatch.setattr(LowerRootBand, "kernel", counted)
        curve = lsd_density_curve(model, 0.5, grid)
        identity = lsd_density_curve(PointMass(1.0), 0.5, grid)
        assert np.max(np.abs(curve.f - identity.f)) < 1e-15
        assert len(calls) <= 2 * 34

    def test_polish_that_fails_the_residual_test_is_dropped(self):
        class WrongSlope(PSDModel):
            """A point mass at 1e-12 whose K2 makes Newton's slope at c = 0.5
            a millionth of the true one."""

            def kernel(self, s):
                return PointMass(1e-12).kernel(s)[0], (1.0 - 1e-6) / (0.5 * s**2)

            def quantile(self, prob):
                return PointMass(1e-12).quantile(prob)

        # the start, the root of the surrogate (its tied quantiles make it
        # the point mass itself), is accepted at once; the polishing step
        # from it lands 5e-7 away, so the solve must return the accepted value
        z = 1.0 + 1e-6j
        assert np.all(WrongSlope().quantile(mptransform._SURROGATE_NODES) == 1e-12)
        start = PointMass(1e-12).companion_root(np.array([z]), 0.5)[0]
        s = solve_companion_fixed_point(z, WrongSlope(), 0.5)
        assert s == start
        assert abs(mp_complex_u(s, WrongSlope(), 0.5) - z) < 1e-10


class SlopelessNearZero(Laguerre):
    """A Laguerre law whose K2 is NaN at |s| > 10, where its roots near
    zero lie at c = 1: Newton cannot step there, only the fixed point runs.
    It evaluates lane by lane, as the last bits of a batched matrix product
    depend on the batch, so that a lane fails alike alone and in a grid."""

    def kernel(self, s):
        lanes = [Laguerre.kernel(self, s[i:i + 1]) for i in range(s.size)]
        k1, k2 = np.array(lanes).reshape(-1, 2).T
        return k1, np.where(np.abs(s) > 10.0, np.nan, k2)


def mp_complex_u(s, model, c):
    return -1.0 / s + c * complex(model.kernel(np.array([s]))[0][0])


class TestDensityCurve:
    def test_identity_model_closed_form(self):
        c = 0.25
        grid = np.linspace(0.3, 2.2, 50)
        curve = lsd_density_curve(PointMass(1.0), c, grid)
        assert np.max(np.abs(curve.f - helpers.identity_density(grid, c))) < 1e-3

    def test_mass_normalization(self):
        lo, hi = helpers.identity_support(0.25)
        grid = np.linspace(lo - 0.05, hi + 0.05, 1500)
        grid = grid[grid > 0]
        curve = lsd_density_curve(PointMass(1.0), 0.25, grid)
        assert curve.mass() == pytest.approx(1.0, abs=0.01)

    def test_tall_case_density_mass_is_reciprocal(self):
        # c = 4: the absolutely continuous part carries 1/c of the mass
        curve = lsd_density_curve(PointMass(1.0), 4.0, np.linspace(0.9, 9.1, 800))
        assert curve.mass() == pytest.approx(0.25, abs=0.01)

    def test_vanishes_outside_support(self):
        curve = lsd_density_curve(PointMass(1.0), 0.25, np.array([0.1, 3.0]))
        assert np.all(curve.f < 1e-3)

    def test_grid_validation(self):
        with pytest.raises(ValueError):
            lsd_density_curve(PointMass(1.0), 0.25, [-1.0, 1.0])
        with pytest.raises(ValueError):
            lsd_density_curve(PointMass(1.0), 0.25, [2.0, 1.0])

    @pytest.mark.parametrize("grid, bad", [([1.0, math.inf], "inf"),
                                           ([math.nan, 1.0], "nan"),
                                           ([0.5, math.nan, 1.0], "nan")])
    @pytest.mark.parametrize("model", [PointMass(1.0), Laguerre([1.0])])
    def test_rejects_non_finite_grid(self, model, grid, bad):
        # NaN passes both the sign and the order test
        with warnings.catch_warnings(), pytest.raises(ValueError) as err:
            warnings.simplefilter("error")
            lsd_density_curve(model, 0.5, grid)
        assert str(err.value) == f"grid must be finite, got {bad}"

    def test_curve_type_validation(self):
        with pytest.raises(ValueError):
            DensityCurve([1.0, 2.0], [0.1, -0.5])
        with pytest.raises(ValueError):
            DensityCurve([2.0, 1.0], [0.1, 0.1])
        tiny = DensityCurve([1.0, 2.0], [0.1, -1e-12])
        assert tiny.f[1] == 0.0


# the benchmark's forward families with grids inside the range where their
# kernels resolve the density
FORWARD_FAMILIES = {
    "identity": PointMass(1.0),
    "two-atom": Discrete([1.0, 2.0], [0.5, 0.5]),
    "split-bulk": Discrete([2.0, 7.0, 10.0], [0.3, 0.4, 0.3]),
    "gamma-shape": Laguerre([1.0]),
    "cubic-poly": Laguerre([1 / 9, 1 / 9, 1 / 9]),
    "inverse-cubic": InverseCubic(0.5),
}
FORWARD_GRIDS = {
    ("identity", 0.5): (0.02, 3.2), ("identity", 2.0): (0.1, 6.4),
    ("two-atom", 0.5): (0.05, 5.4), ("two-atom", 2.0): (0.1, 10.3),
    ("split-bulk", 0.5): (0.1, 24.6), ("split-bulk", 2.0): (0.3, 46.0),
    ("gamma-shape", 0.5): (0.3, 7.0), ("gamma-shape", 2.0): (0.05, 14.0),
    ("cubic-poly", 0.5): (0.45, 12.0), ("cubic-poly", 2.0): (0.3, 18.0),
    ("inverse-cubic", 0.5): (0.03, 4.5), ("inverse-cubic", 2.0): (0.05, 9.5),
}
FORWARD_CASES = [pytest.param(FORWARD_FAMILIES[name], c, np.linspace(lo, hi, 400),
                              id=f"{name}-c={c}")
                 for (name, c), (lo, hi) in FORWARD_GRIDS.items()]
ATOMIC_CASES = [case for case in FORWARD_CASES
                if isinstance(case.values[0], Discrete)]
# kernel calls of the forward families' curves, which are deterministic;
# the solve-work tests allow twice as many
KERNEL_CALLS = {("identity", 0.5): 10, ("identity", 2.0): 10,
                ("two-atom", 0.5): 21, ("two-atom", 2.0): 11,
                ("split-bulk", 0.5): 23, ("split-bulk", 2.0): 11,
                ("gamma-shape", 0.5): 10, ("gamma-shape", 2.0): 16,
                ("cubic-poly", 0.5): 10, ("cubic-poly", 2.0): 16,
                ("inverse-cubic", 0.5): 25, ("inverse-cubic", 2.0): 15}
WORK_CASES = [pytest.param(FORWARD_FAMILIES[name], c,
                           np.linspace(*FORWARD_GRIDS[name, c], 400), calls,
                           id=f"{name}-c={c}")
              for (name, c), calls in KERNEL_CALLS.items()]
SMOOTH_CASES = [case for case in WORK_CASES
                if not isinstance(case.values[0], Discrete)]
ATOMIC_WORK_CASES = [case for case in WORK_CASES
                     if isinstance(case.values[0], Discrete)]


def check_solve_work(model, c, grid, kernel_calls, monkeypatch):
    """A 400-point curve takes at most 5 lane evaluations per point, twice
    its pinned kernel calls, no call on zero lanes, and the O(k^3) atomic
    root on its 51 seeds (every 8th point and the last) only: every seed is
    accepted by its first Newton start, and no lane needs the retry."""
    calls, roots, accepted = [], [], []
    kernel, companion_root = type(model).kernel, Discrete.companion_root
    iterate = mptransform._iterate

    def recorded(z, s, model, c):
        out = iterate(z, s, model, c)
        accepted.append(out[3])
        return out

    def counted(self, s):
        calls.append(s.size)
        return kernel(self, s)

    def rooted(self, z, c):
        roots.append(z.size)
        return companion_root(self, z, c)

    monkeypatch.setattr(type(model), "kernel", counted)
    monkeypatch.setattr(Discrete, "companion_root", rooted)
    monkeypatch.setattr(mptransform, "_iterate", recorded)
    lsd_density_curve(model, c, grid)
    assert sum(calls) <= 5 * grid.size
    assert len(calls) <= 2 * kernel_calls
    assert min(calls) > 0
    assert roots == [51]
    assert accepted[0].size == 51 and accepted[0].all()


class TestBatchedSolve:
    @pytest.mark.parametrize("model, c, grid", FORWARD_CASES)
    def test_each_point_matches_one_point_curve(self, model, c, grid):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = lsd_density_curve(model, c, grid)
        alone = [lsd_density_curve(model, c, [x]).f[0] for x in grid]
        assert np.max(np.abs(curve.f - alone)) < 1e-10

    @pytest.mark.parametrize("model, c, grid", FORWARD_CASES)
    def test_matches_scalar_reference_solver(self, model, c, grid):
        # atomic curves: check every point, against a reference held to
        # 1e-13 (at 1e-10 it can sit 3e-10 off the root)
        atomic = isinstance(model, Discrete)
        step, tol = (1, 1e-13) if atomic else (8, 1e-10)
        curve = lsd_density_curve(model, c, grid)
        for x, f in zip(grid[::step], curve.f[::step]):
            z = complex(x, 1e-6)
            s = helpers.scalar_companion_solve(z, model, c, tol=tol)
            want = max(((s + (1.0 - c) / z) / c).imag, 0.0) / math.pi
            assert abs(f - want) < 1e-10

    @pytest.mark.parametrize("model, c, grid", ATOMIC_CASES)
    def test_atomic_curve_matches_polynomial_root(self, model, c, grid):
        # s itself is only pinned to tol / |du/ds|, which near the lower
        # grid ends (|s| ~ 24) allows 5e-8; the density it gives is sharp
        curve = lsd_density_curve(model, c, grid)
        z = grid + 1e-6j
        s = np.array([helpers.companion_root(model, c, zi) for zi in z])
        want = np.maximum(((s + (1.0 - c) / z) / c).imag, 0.0) / math.pi
        assert np.max(np.abs(curve.f - want)) < 1e-9

    def test_blocks_match_one_block(self, monkeypatch):
        model = Discrete([1.0, 2.0], [0.5, 0.5])
        grid = np.linspace(0.05, 5.4, 50)
        whole = lsd_density_curve(model, 0.5, grid)
        monkeypatch.setattr(mptransform, "_SOLVE_BLOCK", 7)
        blocked = lsd_density_curve(model, 0.5, grid)
        assert np.max(np.abs(blocked.f - whole.f)) < 1e-14

    def test_smooth_blocks_match_one_block(self, monkeypatch):
        # the continuation runs inside each block, from that block's seeds
        model = InverseCubic(0.5)
        grid = np.linspace(0.05, 9.5, 50)
        whole = lsd_density_curve(model, 2.0, grid)
        monkeypatch.setattr(mptransform, "_SOLVE_BLOCK", 7)
        blocked = lsd_density_curve(model, 2.0, grid)
        assert np.max(np.abs(blocked.f - whole.f)) < 1e-10

    @pytest.mark.parametrize("model, c, grid, kernel_calls", SMOOTH_CASES)
    def test_smooth_solve_work(self, model, c, grid, kernel_calls, monkeypatch):
        # the fixed point alone took 27-51 lane evaluations per point, and
        # the continuation from fixed-point seeds 6.5-7.3; from surrogate
        # seeds it takes 4.2-4.7.  Every seed solves from the root of the
        # Gauss-Legendre surrogate at once
        check_solve_work(model, c, grid, kernel_calls, monkeypatch)

    @pytest.mark.parametrize("model, c, grid, kernel_calls", ATOMIC_WORK_CASES)
    def test_atomic_solve_work(self, model, c, grid, kernel_calls, monkeypatch):
        # atomic curves continue from their own exact roots at the seeds,
        # 4.0-4.2 lane evaluations per point, so the O(k^3) arrowhead
        # eigenproblem runs on 51 lanes of the 400
        check_solve_work(model, c, grid, kernel_calls, monkeypatch)

    def test_fitted_inverse_cubic_curve_skips_the_fixed_point(self, monkeypatch):
        # a fitted curve of criterion 11 (seed 1000): its first seed lies
        # below the lower support edge, 0.069, and the 7 points up to the
        # next seed failed from the line through the two and once ran a
        # 600-step fixed point, 621 kernel calls in all; they solve from
        # the surrogate root in at most 12 Newton steps
        model, c = InverseCubic(0.5523979680781911), 0.488
        grid = np.linspace(0.0, 1.1 * 14.625436489818789, 401)[1:]
        calls, kernel = [], InverseCubic.kernel

        def counted(self, s):
            calls.append(s.size)
            return kernel(self, s)

        monkeypatch.setattr(InverseCubic, "kernel", counted)
        lsd_density_curve(model, c, grid)
        assert len(calls) <= 30
        assert sum(calls) <= 5 * grid.size

    def test_signed_law_between_far_seeds(self):
        # the 7 points between the first two seeds failed from the line
        # through them and in the 600 + 60 stage, and the curve raised
        # IterationError; the surrogate root solves them.  The density dips
        # to -0.0071.  The benchmark's reference solver reads 0.1835657 at
        # x = 1.2015
        grid = np.linspace(0.0044058409812435745, 11.496745464189093, 49)
        curve = lsd_density_curve(Laguerre([-0.45994647]), 0.8659944991732879, grid)
        assert grid[5] == pytest.approx(1.2015, abs=1e-4)
        assert curve.f[5] == pytest.approx(0.1835657, abs=1e-6)

    @pytest.mark.parametrize("model, c, grid", FORWARD_CASES)
    def test_roots_lie_in_the_upper_half_plane(self, model, c, grid):
        z = grid + 1e-6j
        s = mptransform._solve_companion(z, model, c)
        assert np.all(s.imag > 0.0)
        assert np.max(np.abs(-1.0 / s + c * model.kernel(s)[0] - z)) < 1e-10

    def test_many_atoms_match_scalar_reference(self):
        # twelve atoms: the seeds' arrowhead roots and the continuation
        # from them must stay as accurate
        model = Discrete(np.geomspace(0.5, 20.0, 12), np.full(12, 1 / 12))
        c = 0.5
        grid = np.linspace(0.05, 40.0, 200)
        curve = lsd_density_curve(model, c, grid)
        for x, f in zip(grid, curve.f):
            z = complex(x, 1e-6)
            s = helpers.scalar_companion_solve(z, model, c, tol=1e-13)
            want = max(((s + (1.0 - c) / z) / c).imag, 0.0) / math.pi
            assert abs(f - want) < 1e-10

    @pytest.mark.parametrize("name", ["identity", "two-atom", "split-bulk"])
    def test_atomic_curve_at_unit_ratio_near_zero(self, name):
        # the fixed point stalls here, and so does the scalar reference at
        # x = 0.001 for the identity and two-atom models, so that point is
        # checked against the polynomial root; at c = 1 the density is Im s/pi
        model = FORWARD_FAMILIES[name]
        grid = np.array([0.001, 0.5, 1.0])
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = lsd_density_curve(model, 1.0, grid)
        z = grid + 1e-6j
        if name == "identity":
            want = helpers.identity_density(grid, 1.0)
            assert curve.f[0] == pytest.approx(10.0646, abs=1e-4)
            assert np.allclose(curve.f, want, rtol=1e-6, atol=0.0)
        s = np.array([helpers.companion_root(model, 1.0, zi) for zi in z[:1]]
                     + [helpers.scalar_companion_solve(zi, model, 1.0, tol=1e-13)
                        for zi in z[1:]])
        want = s.imag / math.pi
        assert np.max(np.abs(curve.f - want)) < 1e-9

    @pytest.mark.parametrize("name", ["gamma-shape", "cubic-poly", "inverse-cubic"])
    @pytest.mark.parametrize("grid", [[0.001, 0.002, 0.5], [0.001, 0.5, 1.0]])
    def test_smooth_curve_at_unit_ratio_near_zero(self, name, grid):
        # at c = 1 the fixed point stalls near zero, and Newton used to
        # leave the upper half plane there (Gamma(2) read 0.0 at 0.001).
        # Closed-form-kernel densities from the benchmark's reference module:
        want = {"gamma-shape": {0.001: 9.85720015, 0.002: 6.91620965, 0.5: 0.3233283,
                                1.0: 0.20089},
                "cubic-poly": {0.001: 6.6536791, 0.002: 4.68926426, 0.5: 0.25465533,
                               1.0: 0.16772},
                "inverse-cubic": {0.001: 11.61992372, 0.002: 8.21433307,
                                  0.5: 0.44962526, 1.0: 0.26775}}[name]
        model = FORWARD_FAMILIES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = lsd_density_curve(model, 1.0, grid)
        z = np.array(grid) + 1e-6j
        s = mptransform._solve_companion(z, model, 1.0)
        assert np.all(s.imag > 0.0)
        assert np.max(np.abs(-1.0 / s + model.kernel(s)[0] - z)) < 1e-10
        assert np.array_equal(curve.f, s.imag / math.pi)
        assert np.allclose(curve.f, [want[x] for x in grid], rtol=1e-3, atol=0.0)

    @pytest.mark.parametrize("name", ["gamma-shape", "cubic-poly", "inverse-cubic"])
    def test_lone_points_at_unit_ratio_near_zero(self, name):
        # the fixed point from -1/z fails 12 of these 15 points alone; the
        # surrogate root is a start that needs no neighbour.  This checks
        # the solver's consistency only, not the kernels this near zero.
        model = FORWARD_FAMILIES[name]
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for x in (1e-5, 1e-4, 2e-4, 1e-3, 2e-3):
                z = complex(x, 1e-6)
                s = solve_companion_fixed_point(z, model, 1.0)
                assert s.imag > 0.0
                assert abs(mp_complex_u(s, model, 1.0) - z) < 1e-10
            for grid in ([1e-4, 0.5, 1.0], [1e-4, 2e-4, 0.5], [0.001, 0.002, 0.5]):
                curve = lsd_density_curve(model, 1.0, grid)
                alone = [lsd_density_curve(model, 1.0, [x]).f[0] for x in grid]
                assert np.max(np.abs(curve.f - alone)) < 1e-10

    @pytest.mark.parametrize("c, lo, hi, want", [
        (0.5, 0.03, 12.0, {166: 0.0059182912736742855, 205: 0.0029029940449897033,
                           244: 0.0016315679956935432, 283: 0.001006512416663266,
                           322: 0.000664190372388842, 361: 0.00046118134364102684}),
        (2.0, 0.05, 20.0, {100: 0.017870151448547412, 150: 0.0036244905362896023,
                           200: 0.0011073588066800144, 250: 0.00046929895770668413,
                           300: 0.00024116100882416738, 350: 0.00014009442164760326}),
    ])
    def test_inverse_cubic_density_tail(self, c, lo, hi, want):
        # beyond x = 5 a 200-node Gauss-Legendre kernel read these 30-100%
        # low; closed-form-kernel densities from the benchmark's reference
        # module, at grid indices
        grid = np.linspace(lo, hi, 400)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            curve = lsd_density_curve(InverseCubic(0.5), c, grid)
        idx = list(want)
        assert np.all(grid[idx] > 5.0)
        assert np.allclose(curve.f[idx], list(want.values()), rtol=1e-8, atol=0.0)

    @pytest.mark.parametrize("name", ["cubic-poly"])
    def test_failure_is_a_typed_whole_curve_error(self, name):
        # without K2 Newton cannot step, and at c = 1 the fixed point
        # stalls this close to zero
        model = SlopelessNearZero(FORWARD_FAMILIES[name].coeffs)
        with warnings.catch_warnings(), pytest.raises(IterationError) as err:
            warnings.simplefilter("error")
            lsd_density_curve(model, 1.0, [1e-4, 0.5, 1.0])
        assert "at z=(0.0001+1e-06j)" in str(err.value)
        assert math.isfinite(err.value.residual)

    def test_failure_names_first_failing_point(self):
        cubic = SlopelessNearZero(FORWARD_FAMILIES["cubic-poly"].coeffs)
        with pytest.raises(IterationError) as err:
            lsd_density_curve(cubic, 1.0, [1e-4, 2e-4, 0.5])
        assert str(err.value) == "no convergence to residual 1e-10 at z=(0.0001+1e-06j)"
        with pytest.raises(IterationError) as one:
            solve_companion_fixed_point(1e-4 + 1e-6j, cubic, 1.0)
        assert str(one.value) == str(err.value)
        # the grid retries 1e-4 from its solved neighbour at 0.5, the lone
        # point from the surrogate root only, so their last residuals differ
        assert math.isfinite(one.value.residual) and math.isfinite(err.value.residual)

    def test_failure_in_a_later_block(self, monkeypatch):
        class IdentityKernel(PSDModel):
            """The identity kernel without its closed-form root: it iterates."""

            def kernel(self, s):
                return PointMass(1.0).kernel(s)

            def quantile(self, prob):
                return PointMass(1.0).quantile(prob)

        class BrokenAbove2(IdentityKernel):
            """The identity kernel, made NaN where -1/s lies right of 2."""

            def kernel(self, s):
                broken = (-1.0 / s).real > 2.0
                return tuple(np.where(broken, np.nan, k) for k in super().kernel(s))

        monkeypatch.setattr(mptransform, "_SOLVE_BLOCK", 2)
        # the second block solves 1.5 and fails at its second point, 3.0,
        # whose root lies in the broken region
        grid = [0.5, 1.0, 1.5, 3.0]
        with pytest.raises(IterationError) as err:
            lsd_density_curve(BrokenAbove2(), 0.5, grid)
        assert str(err.value) == "no convergence to residual 1e-10 at z=(3+1e-06j)"
        ok = lsd_density_curve(BrokenAbove2(), 0.5, grid[:3])
        assert np.array_equal(ok.f, lsd_density_curve(IdentityKernel(), 0.5, grid[:3]).f)
        exact = lsd_density_curve(PointMass(1.0), 0.5, grid[:3])
        assert np.max(np.abs(ok.f - exact.f)) < 1e-9


class TestSupportBounds:
    def test_identity_quarter_ratio(self):
        rep = support_bounds(PointMass(1.0), 0.25)
        assert len(rep.support) == 1
        lo, hi = rep.support[0]
        assert lo == pytest.approx(0.25, abs=1e-9)
        assert hi == pytest.approx(2.25, abs=1e-9)
        assert rep.mass_at_zero == 0.0

    def test_identity_critical_ratio(self):
        rep = support_bounds(PointMass(1.0), 1.0)
        (lo, hi), = rep.support
        assert lo == 0.0
        assert hi == pytest.approx(4.0, abs=1e-9)

    def test_identity_tall_ratio_has_atom_at_zero(self):
        rep = support_bounds(PointMass(1.0), 4.0)
        (lo, hi), = rep.support
        assert lo == pytest.approx(1.0, abs=1e-9)
        assert hi == pytest.approx(9.0, abs=1e-9)
        assert rep.mass_at_zero == pytest.approx(0.75, abs=1e-12)

    def test_three_atom_model_splits(self):
        # frozen from a converged run; atoms 7 and 10 merge at this ratio
        rep = support_bounds(Discrete([2.0, 7.0, 10.0], [0.3, 0.4, 0.3]), 0.1)
        assert len(rep.support) == 2
        flat = [x for iv in rep.support for x in iv]
        frozen = [1.2222787086692333, 2.517772281517411,
                  4.201303296783692, 14.527174028685629]
        assert np.allclose(flat, frozen, atol=1e-6)

    def test_images_tile_the_complement(self):
        rep = support_bounds(Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3]), 0.2)
        # complement intervals plus support intervals cover (0, inf) without
        # overlapping: sort endpoints of both and check alternation
        pieces = sorted(list(rep.support) + [iv for iv in rep.complement
                                             if iv[1] > 0.0 and iv[0] >= 0.0])
        for (a_lo, a_hi), (b_lo, b_hi) in zip(pieces, pieces[1:]):
            assert a_hi == pytest.approx(b_lo, abs=1e-9)

    def test_unbounded_family_has_full_support(self):
        rep = support_bounds(Laguerre([1.0]), 0.5)
        assert rep.support == ((0.0, math.inf),)

    def test_shifted_family_gap_at_origin(self):
        rep = support_bounds(InverseCubic(0.5), 0.5)
        (lo, hi), = rep.support
        assert 0.0 < lo < 0.5
        assert math.isinf(hi)

    def test_density_is_positive_inside_and_tiny_outside(self):
        model = Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3])
        rep = support_bounds(model, 0.2)
        for lo, hi in rep.support:
            mid = 0.5 * (lo + hi)
            inside = lsd_density_curve(model, 0.2, np.array([mid])).f[0]
            assert inside > 1e-3
        gaps = [(rep.support[0][1], rep.support[1][0])]
        for lo, hi in gaps:
            mid = 0.5 * (lo + hi)
            outside = lsd_density_curve(model, 0.2, np.array([mid])).f[0]
            assert outside < 1e-3

    def test_positive_branch_needs_a_positive_mean(self):
        # (2 - t) e^-t has mean 0, so no bound brackets the end of s > 0
        with pytest.raises(ValueError, match="not a nonnegative law"):
            support_bounds(Laguerre([-1.0]), 2.0)

    def test_unconverged_branch_end_is_an_iteration_error(self):
        # at c = 1e300 the positive branch's bracket is [-2e300, 0], which
        # brentq does not close in its 100 steps
        with pytest.raises(IterationError, match=r"bracket y in \[-2e\+300, 0\.0\]"):
            support_bounds(Laguerre([1.0]), 1e300)

    @pytest.mark.parametrize("c", [1e-16, 1e-20, 5e-26, 1e-28, 1e-31, 1e-33, 1e-40, 1e-300])
    @pytest.mark.parametrize("model", [PointMass(1.0), Discrete([1.0, 2.0], [0.5, 0.5]),
                                       InverseCubic(0.5), Laguerre([1.0])],
                             ids=["point-mass", "two-atom", "inverse-cubic", "gamma"])
    def test_tiny_ratio_edges_sit_on_the_support_ends(self, model, c):
        # an atom's edges lie about sqrt(c) from it and the inverse cubic's
        # about c from alpha, so at these ratios a bracket or a root rounds
        # onto a support end, where the kernel overflows
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            rep = support_bounds(model, c)
        ends = [e for iv in model.support() for e in iv]
        edges = [e for iv in rep.support + rep.complement for e in iv]
        edges += [-1.0 / s for iv in rep.branches for s in iv if s != 0.0]
        tol = max(1e-12, 4.0 * math.sqrt(c))
        for e in edges:
            if math.isfinite(e) and e != 0.0:
                assert min(abs(e - t) for t in ends) <= tol * abs(e)
        if isinstance(model, Discrete) and c > 1e-31:
            # down to c = 1e-30 each atom keeps an interval of positive width
            assert len(rep.support) == model.atoms.size

    def test_report_round_trip(self):
        rep = support_bounds(InverseCubic(0.5), 0.5)
        data = rep.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["support"][-1][1] is None      # infinite endpoint


@pytest.mark.parametrize("c", [-0.5, 0.0, math.nan, math.inf])
@pytest.mark.parametrize("call", [
    lambda c: lsd_density_curve(PointMass(1.0), c, np.linspace(0.1, 3.0, 5)),
    lambda c: solve_companion_fixed_point(1.0 + 0.1j, PointMass(1.0), c),
    lambda c: support_bounds(PointMass(1.0), c),
    lambda c: mp_u_map(2.0, PointMass(1.0), c),
    lambda c: solve_companion_real(-1.0, PointMass(1.0), c),
], ids=["lsd_density_curve", "solve_companion_fixed_point", "support_bounds",
        "mp_u_map", "solve_companion_real"])
def test_ratio_must_be_positive(call, c):
    with pytest.raises(ValueError, match="aspect ratio must be positive"):
        call(c)


class TestRealSolver:
    def test_identity_closed_form_below(self):
        c = 0.5
        for u in (-10.0, -1.0, -0.05):
            got = solve_companion_real(u, PointMass(1.0), c)
            assert got == pytest.approx(helpers.identity_companion_root(u, c),
                                        rel=1e-12)

    def test_identity_closed_form_above(self):
        c = 0.25
        for u in (2.3, 3.0, 50.0):
            got = solve_companion_real(u, PointMass(1.0), c)
            assert got == pytest.approx(helpers.identity_companion_root(u, c),
                                        rel=1e-10)

    def test_root_satisfies_equation(self):
        model = Discrete([1.0, 3.0, 5.0], [0.3, 0.4, 0.3])
        for u in (-2.0, 0.2, 10.0):
            s = solve_companion_real(u, model, 0.2)
            assert mp_u_map(s, model, 0.2) == pytest.approx(u, abs=1e-9)

    def test_inside_support_rejected(self):
        with pytest.raises(ValueError):
            solve_companion_real(1.0, PointMass(1.0), 0.25)

    def test_agrees_with_half_plane_limit(self):
        model = Discrete([2.0, 7.0, 10.0], [0.3, 0.4, 0.3])
        for u in (-5.0, -1.0, -0.1):
            real_root = solve_companion_real(u, model, 0.1)
            hp = solve_companion_fixed_point(complex(u, 1e-8), model, 0.1)
            assert abs(real_root - hp.real) < 1e-6


# ---------------------------------------------------------------------------
# support edges against a 40-digit reference: the roots y = -1/s of
# g(y) = c * integral t^2 / (y - t)^2 dH(t) = 1, and u(y) there

NEAR_MERGED = Discrete([1.0, 1.3, 6.0], [0.25, 0.25, 0.5])   # gap 1.957-1.985 at c = 0.5
EDGE_PANEL = [pytest.param(model, c, id=f"{name}-c={c}")
              for name, model in [*FORWARD_FAMILIES.items(), ("near-merged", NEAR_MERGED)]
              for c in (0.05, 0.5, 1.0, 2.0)]


def atomic_edges(model, c):
    """The real roots y != 0 of g(y) = 1 for an atomic model, with u(y) at
    each, or None when the problem is ill-conditioned at 1e-13.

    In x = y / a_k, g(y) = 1 reads sum_i b_i^2 / (x - d_i)^2 = 1 with
    d_i = a_i / a_k and b_i = d_i sqrt(c w_i), whose 2k roots are the
    eigenvalues of [[D, I], [b b', D]] (its characteristic polynomial is
    prod (x - d_i)^2 (1 - sum_i b_i^2 / (x - d_i)^2)).  numpy's eigenvalues
    start 40-digit Newton runs on that equation (``mpmath.findroot``).
    The roots are then checked: each Newton correction is below 1e-25, the
    2k roots are distinct, and the real ones lie as the shape of g
    requires, one below the atoms and one above (g rises from 0 on
    (-inf, a_1) and falls to 0 on (a_k, inf)) and 0 or 2 in each gap (g is
    convex there).  At c = 1 one root sits at y = 0, where s = +-inf,
    moved off it by the rounding of the weights' sum; it is left out.  A
    root where g is nearly tangent to 1 (a near-double real root, or a
    complex pair next to the real axis) moves by about the square root of
    the rounding error, so no double-precision rule can meet 1e-13 there.
    """
    d0 = model.atoms / model.atoms[-1]
    b0 = d0 * np.sqrt(c * model.weights)
    starts = np.linalg.eigvals(np.block([[np.diag(d0), np.eye(d0.size)],
                                         [np.outer(b0, b0), np.diag(d0)]]))
    with mpmath.workdps(40):
        a = [mpmath.mpf(float(x)) for x in model.atoms]
        w = [mpmath.mpf(float(x)) for x in model.weights]
        c = mpmath.mpf(c)
        d = [ai / a[-1] for ai in a]
        bb = [c * wi * di**2 for wi, di in zip(w, d)]
        f = lambda x: 1 - mpmath.fsum(b / (x - di) ** 2 for b, di in zip(bb, d))
        df = lambda x: 2 * mpmath.fsum(b / (x - di) ** 3 for b, di in zip(bb, d))
        # off the real axis, so that a start on it can reach a complex root
        found = [mpmath.findroot(f, mpmath.mpc(x0.real, x0.imag + 1e-9), solver="newton",
                                 df=df, tol=1e-30, maxsteps=30, verify=False)
                 for x0 in starts]
        g_slope = lambda y: -2 * c * sum(wi * ai**2 / (y - ai) ** 3 for ai, wi in zip(a, w))
        u_at = lambda y: y + c * sum(wi * ai * y / (y - ai) for ai, wi in zip(a, w))
        edges, real = [], []
        for r in (a[-1] * x for x in found):
            if abs(r) < 1e-12 * a[-1]:
                real.append(r.real)
                continue
            if abs(r.imag) > mpmath.mpf(10) ** -25 * abs(r):
                if abs(r.imag) < 1e-6 * abs(r):
                    return None
                continue
            y = r.real
            if abs(y * g_slope(y)) < 1e-3:
                return None
            real.append(y)
            edges.append((float(y), float(u_at(y))))
        assert all(abs(f(x) / df(x)) < 1e-25 for x in found)
        assert min(abs(x - z) for i, x in enumerate(found) for z in found[:i]) > 1e-20
        per_gap = [sum(lo < y < hi for y in real)
                   for lo, hi in zip([-mpmath.inf] + a, a + [mpmath.inf])]
        assert per_gap[0] == per_gap[-1] == 1 and set(per_gap[1:-1]) <= {0, 2}
        return sorted(edges)


def _smooth_density(model):
    """The density of a smooth model in mpmath, with its quadrature breaks."""
    if isinstance(model, Laguerre):
        coeffs = [mpmath.mpf(float(x)) for x in model.full_coeffs[::-1]]
        return lambda t: mpmath.polyval(coeffs, t) * mpmath.exp(-t), [0, 1, 10, mpmath.inf]
    alpha = mpmath.mpf(model.alpha)
    return (lambda t: 2 * (1 - alpha) ** 2 / (t - 2 * alpha + 1) ** 3,
            [alpha, 2 * alpha + 1, mpmath.inf])


def smooth_edges(model, c):
    """The root y != 0 of g(y) = 1 for a smooth model, with u(y) there:
    g and u by ``mpmath.quad`` at 40 digits, the root by a bracketed
    ``mpmath.findroot``.  Left of the support g rises from 0 to g(0) = c
    for y < 0, and to infinity at a positive left end lo; no smooth family
    has a right end."""
    with mpmath.workdps(40):
        density, breaks = _smooth_density(model)
        c = mpmath.mpf(c)
        g = lambda y: c * mpmath.quad(lambda t: t * t / (y - t) ** 2 * density(t), breaks)
        lo = mpmath.mpf(model.support()[0][0])
        if c > 1:
            bracket = (-c * model.mean(), mpmath.mpf(0))
        elif c < 1 and lo > 0:
            bracket = (mpmath.mpf(0), lo * (1 - mpmath.mpf(10) ** -12))
        else:
            return []
        y = mpmath.findroot(lambda y: g(y) - 1, bracket, solver="anderson")
        u = y + c * y * mpmath.quad(lambda t: t / (y - t) * density(t), breaks)
        return [(float(y), float(u))]


def assert_edges_match(model, c, want):
    """The report's finite nonzero branch ends, as y = -1/s, and complement
    ends match the reference to 1e-13 relative, and count the same."""
    rep = support_bounds(model, c)
    finite = lambda ends: sorted(x for iv in ends for x in iv
                                 if x != 0.0 and math.isfinite(x))
    got_y = [-1.0 / s for s in finite(rep.branches)]
    assert len(got_y) == len(want)
    assert np.allclose(sorted(got_y), [y for y, _ in want], rtol=1e-13, atol=0.0)
    assert np.allclose(finite(rep.complement), sorted(u for _, u in want),
                       rtol=1e-13, atol=0.0)


@pytest.mark.parametrize("model, c", EDGE_PANEL)
def test_support_edges_match_the_reference(model, c):
    reference = atomic_edges if isinstance(model, Discrete) else smooth_edges
    assert_edges_match(model, c, reference(model, c))


@pytest.mark.parametrize("scale", [1e-15, 1e-6, 1e6])
@pytest.mark.parametrize("c", [0.05, 0.5, 1.0, 2.0])
def test_support_edges_scale_with_the_model(scale, c):
    # g is unchanged when atoms and y scale together, so the edges must too
    scaled = Discrete(scale * NEAR_MERGED.atoms, NEAR_MERGED.weights)
    want = atomic_edges(scaled, c)
    assert len(want) == len(atomic_edges(NEAR_MERGED, c))
    assert_edges_match(scaled, c, want)
    unit = support_bounds(NEAR_MERGED, c).support
    got = support_bounds(scaled, c).support
    assert np.allclose(np.array(got, dtype=float) / scale, np.array(unit, dtype=float),
                       rtol=1e-13, atol=0.0)


@settings(max_examples=25, deadline=None)
@given(steps=st.lists(st.floats(0.05, 3.0), min_size=1, max_size=12),
       mass=st.lists(st.floats(0.01, 1.0), min_size=12, max_size=12),
       c=st.sampled_from([0.05, 0.5, 1.0, 2.0]),
       scale=st.sampled_from([1e-6, 1.0, 1e6]))
def test_atomic_support_edges_match_the_reference(steps, mass, c, scale):
    atoms = scale * (0.1 + np.cumsum(steps))
    weights = np.array(mass[:atoms.size])
    model = Discrete(atoms, weights / weights.sum())
    want = atomic_edges(model, c)
    assume(want is not None)
    assert_edges_match(model, c, want)


def _inside(lo, hi):
    """Points inside an image (lo, hi), next to each end and in between."""
    if math.isinf(lo):
        return [hi - d * max(1.0, abs(hi)) for d in (1e-3, 1.0, 100.0)]
    if math.isinf(hi):
        return [lo + d * max(1.0, abs(lo)) for d in (1e-3, 1.0, 100.0)]
    return [lo + f * (hi - lo) for f in (1e-3, 0.5, 1.0 - 1e-3)]


@pytest.mark.parametrize("model, c", EDGE_PANEL)
def test_real_solve_round_trips_on_every_branch(model, c):
    rep = support_bounds(model, c)
    for (s_lo, s_hi), (u_lo, u_hi) in zip(rep.branches, rep.complement):
        for u in _inside(u_lo, u_hi):
            s = solve_companion_real(u, model, c)
            assert s_lo < s < s_hi
            assert abs(mp_u_map(s, model, c) - u) <= 1e-12 * max(1.0, abs(u))


@pytest.mark.parametrize("coeffs", [[-1.0], [-1.5]])
def test_real_solve_on_a_density_with_negative_parts(coeffs):
    # (2 - t) e^-t has mean 0 and (2.5 - 1.5 t) e^-t mean -0.5, so the
    # positive branch's bracket takes its width from |u|, not c * mean
    model = Laguerre(coeffs)
    for u in (-1e-3, -1.0, -5.0, -100.0):
        s = solve_companion_real(u, model, 0.5)
        assert s > 0.0
        assert abs(mp_u_map(s, model, 0.5) - u) <= 1e-12 * max(1.0, abs(u))


def test_real_solve_widens_the_bracket():
    # u(y) - u at y = u - c * mean is not yet negative for this density
    # with negative parts, so the positive branch's bracket doubles once
    # before brentq can start
    model, c = Laguerre([1.65414712861097, -0.573427911842217]), 5.0
    for u in (-0.001, -0.1, -1.0):
        s = solve_companion_real(u, model, c)
        assert s > 0.0
        assert abs(mp_u_map(s, model, c) - u) <= 1e-12 * max(1.0, abs(u))
