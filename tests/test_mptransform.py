"""Spectrum transforms: companion values, kernels, solvers, support."""

import json
import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
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

    def test_degenerate_ratio_reduces_to_reciprocal(self):
        assert mp_u_map(2.0, PointMass(1.0), 0.0) == pytest.approx(-0.5)

    def test_negative_ratio_rejected(self):
        for c in (-0.5, math.nan):
            with pytest.raises(ValueError):
                mp_u_map(2.0, PointMass(1.0), c)

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
                # the guard can be disabled for diagnostic evaluation near
                # a pole outside the support
                assert math.isfinite(mp_u_map(s, model, 0.5, guard=None))

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

        # its residual is 0 but its density would read 0: the solve fails
        with pytest.raises(IterationError):
            lsd_density_curve(LowerRoot([1.0], [1.0]), 0.5, np.linspace(0.3, 2.5, 5))

    def test_polish_that_fails_the_residual_test_is_dropped(self):
        class WrongSlope(PSDModel):
            """A point mass at 1e-12 whose K2 makes Newton's slope at c = 0.5
            a millionth of the true one."""

            def kernel(self, s):
                return PointMass(1e-12).kernel(s)[0], (1.0 - 1e-6) / (0.5 * s**2)

        # -1/z is accepted at once (residual 5e-13); the polishing step from
        # it lands 5e-7 away, so the solve must return the accepted value
        z = 1.0 + 1e-6j
        s = solve_companion_fixed_point(z, WrongSlope(), 0.5)
        assert s == -1.0 / z
        assert abs(mp_complex_u(s, WrongSlope(), 0.5) - z) < 1e-10


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
# kernel calls of the smooth families' curves when every point ran the
# fixed point from -1/z (600 + 60 steps), with their cases
FIXED_POINT_CALLS = {("gamma-shape", 0.5): 62, ("gamma-shape", 2.0): 607,
                     ("cubic-poly", 0.5): 85, ("cubic-poly", 2.0): 607,
                     ("inverse-cubic", 0.5): 609, ("inverse-cubic", 2.0): 607}
SMOOTH_CASES = [pytest.param(FORWARD_FAMILIES[name], c,
                             np.linspace(*FORWARD_GRIDS[name, c], 400), calls,
                             id=f"{name}-c={c}")
                for (name, c), calls in FIXED_POINT_CALLS.items()]


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
        # atomic curves are exact roots: check every point, against a
        # reference held to 1e-13 (at 1e-10 it can sit 3e-10 off the root)
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

    @pytest.mark.parametrize("model, c, grid, fixed_point_calls", SMOOTH_CASES)
    def test_smooth_solve_work(self, model, c, grid, fixed_point_calls, monkeypatch):
        # the fixed point alone took 27-51 lane evaluations per point
        calls = []
        kernel = type(model).kernel

        def counted(self, s, **kw):
            calls.append(s.size)
            return kernel(self, s, **kw)

        monkeypatch.setattr(type(model), "kernel", counted)
        lsd_density_curve(model, c, grid)
        assert sum(calls) <= 9 * grid.size
        assert len(calls) <= fixed_point_calls

    @pytest.mark.parametrize("model, c, grid", FORWARD_CASES)
    def test_roots_lie_in_the_upper_half_plane(self, model, c, grid):
        z = grid + 1e-6j
        s = mptransform._solve_companion(z, model, c)
        assert np.all(s.imag > 0.0)
        assert np.max(np.abs(-1.0 / s + c * model.kernel(s)[0] - z)) < 1e-10

    def test_atomic_solve_makes_one_kernel_call(self, monkeypatch):
        # the arrowhead roots start Newton, whose residual check accepts them
        calls = []
        kernel = Discrete.kernel

        def counted(self, s, **kw):
            calls.append(s.size)
            return kernel(self, s, **kw)

        monkeypatch.setattr(Discrete, "kernel", counted)
        for model, c, grid in (case.values for case in ATOMIC_CASES):
            calls.clear()
            lsd_density_curve(model, c, grid)
            assert calls == [grid.size]

    def test_many_atoms_match_scalar_reference(self):
        # twelve atoms: past about ten the eigenproblem is slower than the
        # fixed point, but it must stay as accurate
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
        # leave the upper half plane there (Gamma(2) read 0.0 at 0.001);
        # the cubic points at 0.001 and 0.002 and the inverse-cubic point at
        # 0.002 solve only by continuation from their neighbours.  Closed-form-kernel
        # densities from the benchmark's reference module:
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
        # at c = 1 the solve still stalls this close to zero
        with warnings.catch_warnings(), pytest.raises(IterationError) as err:
            warnings.simplefilter("error")
            lsd_density_curve(FORWARD_FAMILIES[name], 1.0, [1e-4, 0.5, 1.0])
        assert "at z=(0.0001+1e-06j)" in str(err.value)
        assert math.isfinite(err.value.residual)

    def test_failure_names_first_failing_point(self):
        cubic = FORWARD_FAMILIES["cubic-poly"]
        with pytest.raises(IterationError) as err:
            lsd_density_curve(cubic, 1.0, [1e-4, 2e-4, 0.5])
        assert str(err.value) == "no convergence to residual 1e-10 at z=(0.0001+1e-06j)"
        with pytest.raises(IterationError) as one:
            solve_companion_fixed_point(1e-4 + 1e-6j, cubic, 1.0)
        assert str(one.value) == str(err.value)
        assert one.value.residual == err.value.residual

    def test_failure_in_a_later_block(self, monkeypatch):
        class IdentityKernel(PSDModel):
            """The identity kernel without its closed-form root: it iterates."""

            def kernel(self, s):
                return PointMass(1.0).kernel(s)

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
        assert str(err.value) == "fixed-point update degenerated at z=(3+1e-06j)"
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
        assert lo == pytest.approx(0.0, abs=1e-6)
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

    def test_report_round_trip(self):
        rep = support_bounds(InverseCubic(0.5), 0.5)
        data = rep.to_dict()
        assert json.loads(json.dumps(data)) == data
        assert data["support"][-1][1] is None      # infinite endpoint


@pytest.mark.parametrize("c", [-0.5, 0.0, math.nan])
@pytest.mark.parametrize("call", [
    lambda c: lsd_density_curve(PointMass(1.0), c, np.linspace(0.1, 3.0, 5)),
    lambda c: solve_companion_fixed_point(1.0 + 0.1j, PointMass(1.0), c),
    lambda c: support_bounds(PointMass(1.0), c),
], ids=["lsd_density_curve", "solve_companion_fixed_point", "support_bounds"])
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
        rep = support_bounds(model, 0.2)
        for u in (-2.0, 0.2, 10.0):
            s = solve_companion_real(u, model, 0.2, report=rep)
            assert mp_u_map(s, model, 0.2, guard=None) == pytest.approx(u, abs=1e-9)

    def test_inside_support_rejected(self):
        with pytest.raises(ValueError):
            solve_companion_real(1.0, PointMass(1.0), 0.25)

    def test_nonpositive_ratio_rejected_with_a_report(self):
        report = support_bounds(PointMass(1.0), 0.5)
        for c in (0.0, -0.5):
            with pytest.raises(ValueError):
                solve_companion_real(-1.0, PointMass(1.0), c, report=report)

    def test_agrees_with_half_plane_limit(self):
        model = Discrete([2.0, 7.0, 10.0], [0.3, 0.4, 0.3])
        for u in (-5.0, -1.0, -0.1):
            real_root = solve_companion_real(u, model, 0.1)
            hp = solve_companion_fixed_point(complex(u, 1e-8), model, 0.1)
            assert abs(real_root - hp.real) < 1e-6
