"""Spectrum transforms: companion values, kernels, solvers, support."""

import math
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import helpers
from psdfit import (DensityCurve, Discrete, InverseCubic, IterationError,
                    Laguerre, NearPoleError, PointMass, PoleError, PSDModel,
                    SampleSpectrum, SupportReport, companion_stieltjes,
                    lsd_density_curve, mp_u_derivative, mp_u_map,
                    solve_companion_fixed_point, solve_companion_real,
                    support_bounds)
from psdfit import mptransform
from psdfit.models import laguerre_moment_integrals


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
    COMPLEX = [0.5618892852475645 - 0.2138695849849332j,
               0.8679241936788153 - 0.44433364162197647j,
               2.069424794180584 - 1.2781209201675232j]

    def test_small_argument(self):
        vals = laguerre_moment_integrals(0.7, 3)
        assert np.max(np.abs(vals - self.SMALL)) < 1e-10

    def test_large_argument_recursion(self):
        vals = laguerre_moment_integrals(5.0, 3)
        assert np.max(np.abs(vals - self.LARGE)) < 1e-10

    def test_complex_argument(self):
        vals = laguerre_moment_integrals(0.3 + 0.4j, 2)
        assert np.max(np.abs(vals - self.COMPLEX)) < 1e-9

    def test_branches_agree_at_switch(self):
        lo = laguerre_moment_integrals(1.0 - 1e-9, 4)
        hi = laguerre_moment_integrals(1.0 + 1e-9, 4)
        assert np.max(np.abs(lo - hi)) < 1e-7

    def test_derivative_matches_finite_difference(self):
        for s in (0.4, 3.0, 40.0):
            _, ders = laguerre_moment_integrals(s, 3, derivative=True)
            h = 1e-6 * max(1.0, s)
            fd = (laguerre_moment_integrals(s + h, 3)
                  - laguerre_moment_integrals(s - h, 3)) / (2.0 * h)
            assert np.max(np.abs(ders - fd) / np.abs(fd)) < 1e-5

    def test_rejects_nonpositive_real(self):
        with pytest.raises(ValueError):
            laguerre_moment_integrals(-0.5, 2)


class TestUMap:
    def test_identity_model_hand_values(self):
        # u(1) = -1 + 0.25 * 1/(1+1) and u'(1) = 1 - 0.25 * 1/(1+1)^2
        m = PointMass(1.0)
        assert mp_u_map(1.0, m, 0.25) == pytest.approx(-0.875, abs=1e-15)
        assert mp_u_derivative(1.0, m, 0.25) == pytest.approx(0.9375, abs=1e-15)

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
        assert mp_u_derivative(-3.0, m, 1.0) == pytest.approx(
            1.0 / 9.0 - 0.45069385566594516, abs=1e-9)

    def test_degenerate_ratio_reduces_to_reciprocal(self):
        assert mp_u_map(2.0, PointMass(1.0), 0.0) == pytest.approx(-0.5)

    def test_zero_argument_rejected(self):
        with pytest.raises(ValueError):
            mp_u_map(0.0, PointMass(1.0), 0.5)

    def test_near_pole_guard(self):
        m = Discrete([1.0, 2.0], [0.5, 0.5])
        with pytest.raises(NearPoleError):
            mp_u_map(-0.5, m, 0.5)          # -1/s hits the atom at 2
        with pytest.raises(NearPoleError):
            mp_u_map(-1.0, InverseCubic(0.5), 0.5)   # -1/s inside [0.5, inf)
        with pytest.raises(NearPoleError):
            mp_u_map(-1.0, Laguerre([1.0]), 0.5)     # any s < 0 is inside
        # the guard can be disabled for diagnostic evaluation near a pole
        assert math.isfinite(mp_u_map(-0.4999999, m, 0.5, guard=None))

    @pytest.mark.parametrize("model,points", [
        (Discrete([1.0, 2.0], [0.5, 0.5]), (0.3, -0.8, 2.0)),
        (PointMass(1.0), (0.5, -3.0)),
        (Laguerre([1.0]), (0.2, 1.5, 10.0)),
        (InverseCubic(0.5), (0.4, -3.0)),
    ])
    def test_derivative_matches_finite_difference(self, model, points):
        for s in points:
            d = mp_u_derivative(s, model, 0.4)
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


def mp_complex_u(s, model, c):
    from psdfit.mptransform import _eval_kernels
    return -1.0 / s + c * _eval_kernels(model, complex(s), None, squared=False)


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
        curve = lsd_density_curve(model, c, grid)
        for x, f in zip(grid[::8], curve.f[::8]):
            z = complex(x, 1e-6)
            s = helpers.scalar_companion_solve(z, model, c)
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

    @pytest.mark.parametrize("name", ["identity", "two-atom", "cubic-poly"])
    def test_failure_is_a_typed_whole_curve_error(self, name):
        # at c = 1 the fixed point and Newton both stall near zero
        with warnings.catch_warnings(), pytest.raises(IterationError) as err:
            warnings.simplefilter("error")
            lsd_density_curve(FORWARD_FAMILIES[name], 1.0, [0.001, 0.5, 1.0])
        assert "at z=(0.001+1e-06j)" in str(err.value)
        assert math.isfinite(err.value.residual)

    def test_failure_names_first_failing_point(self):
        with pytest.raises(IterationError) as err:
            lsd_density_curve(PointMass(1.0), 1.0, [0.001, 0.002, 0.5])
        assert str(err.value) == "no convergence to residual 1e-10 at z=(0.001+1e-06j)"
        with pytest.raises(IterationError) as one:
            solve_companion_fixed_point(0.001 + 1e-6j, PointMass(1.0), 1.0)
        assert str(one.value) == str(err.value)
        assert one.value.residual == err.value.residual

    def test_failure_in_a_later_block(self, monkeypatch):
        class BrokenAbove2(PSDModel):
            """The identity kernel, made NaN where -1/s lies right of 2."""

            def kernel(self, s, *, squared=False, guard=None):
                k = PointMass(1.0).kernel(s, squared=squared)
                return np.where((-1.0 / s).real > 2.0, np.nan, k)

        monkeypatch.setattr(mptransform, "_SOLVE_BLOCK", 2)
        grid = [0.5, 1.0, 1.5, 2.5, 3.0]
        with pytest.raises(IterationError) as err:
            lsd_density_curve(BrokenAbove2(), 0.5, grid)
        assert str(err.value) == "fixed-point update degenerated at z=(2.5+1e-06j)"
        ok = lsd_density_curve(BrokenAbove2(), 0.5, grid[:3])
        assert np.array_equal(ok.f, lsd_density_curve(PointMass(1.0), 0.5, grid[:3]).f)

    def test_rejects_zero_ratio(self):
        with pytest.raises(ValueError):
            lsd_density_curve(PointMass(1.0), 0.0, [1.0])


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

    def test_rejects_nonpositive_ratio(self):
        with pytest.raises(ValueError):
            support_bounds(PointMass(1.0), 0.0)

    def test_report_round_trip(self):
        rep = support_bounds(InverseCubic(0.5), 0.5)
        again = SupportReport.from_dict(rep.to_dict())
        assert again == rep


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

    def test_agrees_with_half_plane_limit(self):
        model = Discrete([2.0, 7.0, 10.0], [0.3, 0.4, 0.3])
        for u in (-5.0, -1.0, -0.1):
            real_root = solve_companion_real(u, model, 0.1)
            hp = solve_companion_fixed_point(complex(u, 1e-8), model, 0.1)
            assert abs(real_root - hp.real) < 1e-6
