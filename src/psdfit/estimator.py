"""Least-squares recovery of a population spectrum from sample eigenvalues.

The estimation recipe: pick spectrum points u_j outside the sample bulk,
cache the companion Stieltjes transform there, and choose the model
parameters that make the model-side spectrum point map reproduce the
u_j best in the least-squares sense.  Atomic models go through one
Levenberg–Marquardt (MINPACK, ``scipy.optimize.leastsq``) least-squares
search over the atoms alone, started from the sample quantiles, with the
weights of any atoms given by one nonnegative least-squares solve
(variable projection), so no random numbers are drawn; the
polynomial-exponential family is linear in its coefficients and solves
in one orthogonal factorization, plus one nonnegative least-squares
solve when its density has to be projected back onto the positive cone;
the inverse-cubic family is a coarse grid followed by a bounded
one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
import scipy

from .errors import IterationError, RankError, _whole
from .models import (_POSITIVITY_GRID, Discrete, InverseCubic, Laguerre, PSDModel,
                     _gl_laguerre, _inverse_cubic_kernel, _laguerre_kernel)
from .mptransform import POLE_GUARD, SampleSpectrum, companion_stieltjes, mp_u_map

__all__ = [
    "UNet",
    "FitResult",
    "build_unet",
    "objective",
    "fit_discrete",
    "fit_laguerre",
    "fit_inverse_cubic",
]

FAMILIES = ("discrete", "laguerre", "inverse_cubic")

# squared norm of the atomic search's residual inside the pole guard
_PENALTY = 1e12
# stopping tolerances of the atomic least-squares search: the relative
# change of the cost and the relative step, and the scaled gradient
_LSQ_TOL = 1e-12
_LSQ_GTOL = 1e-15
_MAX_NFEV = 2000     # residual evaluations allowed for the search
_MASS_ROW = 1e3      # scale of the total-mass row of the weight fit
_MIN_EIG_GAP = 1e-9
# Dips this deep on the density scale mean the unconstrained solution left
# the family; shallower ones are estimation noise around a density that
# touches zero, and projecting those would snap the fit onto the boundary.
# Must sit strictly inside the construction tolerance so every returned
# coefficient vector builds a valid model.
_PROJECTION_TRIGGER = -0.15
# the inverse-cubic fit scans alpha on this many grid points, then refines
# the bracketing grid cell to this absolute tolerance
_IC_COARSE = 200
_IC_XATOL = 1e-7


@dataclass(frozen=True, eq=False)
class UNet:
    """Evaluation net: spectrum points with cached companion transforms.

    ``segments`` tags each point with the interval recipe it came from
    ("negative", "below_bulk" or "above_bulk"); ``spacing`` is the number
    of interior points drawn from each interval.
    """

    points: NDArray
    companion_values: NDArray
    segments: tuple
    spacing: int
    spectrum: SampleSpectrum

    def __post_init__(self):
        pts = np.asarray(self.points, dtype=float)
        sv = np.asarray(self.companion_values, dtype=float)
        if pts.ndim != 1 or pts.shape != sv.shape or pts.size == 0:
            raise ValueError("points and companion_values must match and be nonempty")
        if len(self.segments) != pts.size:
            raise ValueError("one segment tag per point required")
        if np.unique(pts).size != pts.size:
            raise ValueError("net points must be distinct")
        pts, sv = pts.copy(), sv.copy()
        pts.flags.writeable = False
        sv.flags.writeable = False
        object.__setattr__(self, "points", pts)
        object.__setattr__(self, "companion_values", sv)
        object.__setattr__(self, "segments", tuple(self.segments))

    @property
    def m(self) -> int:
        return self.points.size

    def ratio(self) -> float:
        return self.spectrum.p / self.spectrum.n

    def to_dict(self) -> dict:
        return {
            "points": self.points.tolist(),
            "companion_values": self.companion_values.tolist(),
            "segments": list(self.segments),
            "spacing": self.spacing,
        }


def build_unet(spectrum: SampleSpectrum, family: str, spacing: int = 20) -> UNet:
    """Build the evaluation net for a sample spectrum and model family.

    Each admissible interval (a, b) contributes its ``spacing`` interior
    points a + (b - a) * t / (spacing + 1).  All families use (-10, 0);
    atomic families add (0, lambda_min/2) when p != n and always
    (5 lambda_max, 10 lambda_max), with lambda_min/lambda_max the extreme
    positive sample eigenvalues.  Net points must clear every eigenvalue
    by 1e-9.
    """
    if family not in FAMILIES:
        raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")
    spacing = _whole(spacing, "spacing")
    if spacing < 1:
        raise ValueError("spacing must be at least 1")
    intervals = [(-10.0, 0.0, "negative")]
    # an atomic spectrum gets net points on both sides of the sample bulk
    if family == "discrete":
        if spectrum.largest() <= 0.0:
            raise ValueError("spectrum is degenerate: no positive eigenvalues")
        lam_min = spectrum.smallest_positive()
        lam_max = spectrum.largest()
        if spectrum.p != spectrum.n:
            intervals.append((0.0, lam_min / 2.0, "below_bulk"))
        intervals.append((5.0 * lam_max, 10.0 * lam_max, "above_bulk"))
    t = np.arange(1, spacing + 1)
    points, segments = [], []
    for a, b, tag in intervals:
        points.append(a + (b - a) * t / (spacing + 1))
        segments += [tag] * spacing
    points = np.concatenate(points)
    gap = np.abs(spectrum.eigenvalues[:, None] - points[None, :]).min()
    if gap < _MIN_EIG_GAP:
        raise ValueError(f"net point within {gap:.2e} of a sample eigenvalue")
    values = companion_stieltjes(spectrum, points)
    return UNet(points, values, tuple(segments), spacing, spectrum)


def objective(model: PSDModel, net: UNet) -> float:
    """Sum of squared gaps between net points and their model-side images.

    The ratio c is the net's p/n.  A net point whose pole -1/s comes
    within the evaluation guard of the model's support raises
    NearPoleError (see ``mp_u_map``).
    """
    diff = net.points - mp_u_map(net.companion_values, model, net.ratio())
    return float(diff @ diff)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a family fit against an evaluation net.

    ``iterations`` is, for the atomic family, MINPACK's count ``nfev`` of
    residual evaluations in the Levenberg–Marquardt search over the atoms.
    It counts a point again when MINPACK repeats it, which the kept
    projection answers without a new solve, so it can exceed the
    nonnegative least-squares solves (one per distinct point) by 1-3.
    For the polynomial-exponential family it counts the active grid
    constraints of the positivity projection (0 when the unconstrained
    fit is kept) and, for the inverse-cubic family, the 200 coarse-grid
    objective values, all from one batched kernel evaluation, plus the
    objective evaluations of the bounded search.
    """

    model: PSDModel
    theta: NDArray
    objective_value: float
    residuals: NDArray
    iterations: int
    converged: bool
    family: str
    c: float
    net: UNet

    def to_dict(self) -> dict:
        return {
            "family": self.family,
            "theta": np.asarray(self.theta).tolist(),
            "model": self.model.to_dict(),
            "objective": self.objective_value,
            "residuals": np.asarray(self.residuals).tolist(),
            "iterations": self.iterations,
            "converged": self.converged,
            "c": self.c,
            "net": self.net.to_dict(),
        }


def _finish(model, net, iterations, converged) -> FitResult:
    c = net.ratio()
    residuals = net.points - mp_u_map(net.companion_values, model, c)
    return FitResult(
        model=model,
        theta=model.theta,
        objective_value=float(residuals @ residuals),
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        family=model.kind,
        c=c,
        net=net,
    )


def _variable_projection(net: UNet, k: int):
    """Projection, residual and Kaufman Jacobian of one k-atom fit.

    ``project(raw)`` gives the atoms (cumulative sums of exp(raw), so
    positive and increasing for any raw vector), the table 1 + a_i s_j and
    the weights.  For fixed atoms, u_j + 1/s_j = c sum_i w_i a_i /
    (1 + a_i s_j) is linear in the weights, so one ``scipy.optimize.nnls``
    solve, with total mass one as an extra row scaled by 1e3, gives them;
    they are then rescaled to sum to one.  Inside the pole guard, where some
    |1 + a_i s_j| < POLE_GUARD (``mp_u_map``'s rule at the atoms), the
    weights are None.  The NNLS target is built once and the design written
    into one buffer.  Each distinct raw vector gets one NNLS solve: the last
    points taken and differentiated keep theirs, for the Jacobian where the
    residual just was, for the repeats at the start that ``leastsq``'s
    shape check adds, and for the final read at the accepted point.
    """
    s, c = net.companion_values, net.ratio()
    target = np.append(net.points + 1.0 / s, _MASS_ROW)
    design = np.full((net.m + 1, k), _MASS_ROW)
    kept = {}     # slot -> (raw bytes, projection)
    gaps = lambda raw: np.exp(np.minimum(np.maximum(raw, -40.0), 40.0))   # between atoms

    def project(raw, slot="taken"):
        key = raw.tobytes()
        proj = next((proj for old, proj in kept.values() if old == key), None)
        if proj is None:
            atoms = np.cumsum(gaps(raw))
            denom = 1.0 + atoms[:, None] * s
            weights = None
            if np.abs(denom).min() >= POLE_GUARD:
                np.divide(c * atoms, denom.T, out=design[:-1])
                weights = scipy.optimize.nnls(design, target)[0]
                weights = weights / weights.sum()
            proj = atoms, denom, weights
        kept[slot] = key, proj
        return proj

    def residual(raw):
        """net.points - u_hat for the atoms of ``raw`` and their weights;
        inside the pole guard, a finite penalty vector whose squared norm
        is 1e12 plus the depth of the breach, so the search rejects it."""
        atoms, denom, weights = project(raw)
        if weights is None:
            out = np.zeros(net.m)
            out[0] = math.sqrt(_PENALTY + (POLE_GUARD - np.abs(denom).min()))
            return out
        # mp_u_map's order of operations, so that the search minimizes the
        # objective the fit reports, rounding included
        return net.points - (-1.0 / s + c * ((weights * atoms) @ (1.0 / denom)))

    def jacobian(raw):
        """J = -(I - QQ')D on the data rows, D_ji = c w_i / (1 + a_i s_j)^2
        (zero in the mass row), Q an orthonormal basis of the design
        columns of positive weight; it drops the term of the exact
        variable-projection Jacobian that scales with the residual."""
        atoms, denom, weights = project(raw, "differentiated")
        if weights is None:
            return np.zeros((net.m, raw.size))
        # the buffer holds the design of the last point projected, maybe not raw
        np.divide(c * atoms, denom.T, out=design[:-1])
        d_atom = np.zeros(design.shape)
        d_atom[:-1] = c * weights / denom.T**2
        q, _ = np.linalg.qr(design[:, weights > 0.0])
        jac = -(d_atom - q @ (q.T @ d_atom))[:-1]
        # a_i sums exp(raw_l) over l <= i
        jac = np.cumsum(jac[:, ::-1], axis=1)[:, ::-1] * gaps(raw)
        jac[:, np.abs(raw) > 40.0] = 0.0
        return jac

    return project, residual, jacobian


def _quantile_start(net: UNet, k: int) -> NDArray:
    """Raw start of the atomic search: the (i + 1/2)/k quantiles of the
    positive sample eigenvalues, i = 0..k-1."""
    pos = net.spectrum.eigenvalues[net.spectrum.eigenvalues > 0.0]
    atoms0 = np.quantile(pos, (np.arange(k) + 0.5) / k)
    return np.log(np.maximum(np.diff(atoms0, prepend=0.0), 1e-4 * atoms0[-1] / k))


def fit_discrete(net: UNet, k: int) -> FitResult:
    """Fit a spectrum of at most k atoms by variable projection.

    The ratio c is the net's p/n.  One Levenberg–Marquardt run of MINPACK
    (``scipy.optimize.leastsq``, scaled by the Jacobian's column norms)
    searches over the k atoms only, from the sample quantiles (see
    ``_quantile_start``), with Kaufman's Jacobian; it stops unconverged
    after 2000 residual evaluations.  The weights are the nonnegative
    least-squares solution for the atoms (see ``_variable_projection``).
    The start is deterministic.  Atoms whose weight ends exactly 0 are
    dropped, so the model may have fewer than k atoms.  A search that ends
    inside the pole guard raises IterationError.
    """
    k = _whole(k, "k")
    if k < 1:
        raise ValueError("k must be at least 1")
    if net.m < 2 * k - 1:
        raise ValueError(f"net has {net.m} points but {2 * k - 1} are required")
    project, residual, jacobian = _variable_projection(net, k)
    raw, _, info, _, ier = scipy.optimize.leastsq(
        residual, _quantile_start(net, k), Dfun=jacobian, full_output=True,
        ftol=_LSQ_TOL, xtol=_LSQ_TOL, gtol=_LSQ_GTOL, maxfev=_MAX_NFEV)
    atoms, _, weights = project(raw)
    if weights is None:
        raise IterationError("the least-squares search ended inside the pole guard")
    keep = weights > 0.0
    model = Discrete(atoms[keep], weights[keep])
    return _finish(model, net, int(info["nfev"]), ier in (1, 2, 3, 4))


def _project_nonneg_density(design, target, degree):
    """Least squares over the positive cone, as one nonnegative least squares.

    Feasible set: 1 + G a >= 0 with G_ir = t_i^r - r! on the validation
    grid, which is the density positivity constraint with the pinned
    constant eliminated.  With design = QR, a_ls = R^-1 Q' target and
    y = R (a - a_ls), the problem is the least-distance program
    min |y| subject to E y >= h, E = G R^-1, h = -1 - G a_ls, which one
    ``scipy.optimize.nnls`` solve of [E'; h'] u ~ e_{q+1} settles
    (Lawson and Hanson 1974, ch. 23): y = -r[:q] / r[q] with r the
    residual.  The all-zero coefficients are strictly feasible, so the
    residual never vanishes.  Returns the coefficients and the number of
    active grid constraints.
    """
    gmat = np.stack([_POSITIVITY_GRID**r - math.factorial(r)
                     for r in range(1, degree + 1)], axis=1)
    q, r = np.linalg.qr(design)
    a_ls = scipy.linalg.solve_triangular(r, q.T @ target)
    system = np.vstack([scipy.linalg.solve_triangular(r, gmat.T, trans="T"),
                        -1.0 - gmat @ a_ls])
    unit = np.eye(degree + 1)[-1]
    u, _ = scipy.optimize.nnls(system, unit)
    resid = system @ u - unit
    y = -resid[:degree] / resid[degree]
    return a_ls + scipy.linalg.solve_triangular(r, y), int(np.count_nonzero(u))


def _smooth_values(net: UNet) -> NDArray:
    """The net's companion values; ValueError unless all are positive, as
    on a net built for a smooth family."""
    s = net.companion_values
    if np.any(s <= 0.0):
        raise ValueError("net contains nonpositive companion values; "
                         "build it for a smooth family")
    return s


def fit_laguerre(net: UNet, degree: int) -> FitResult:
    """Fit a polynomial-exponential spectrum by linear least squares.

    The ratio c is the net's p/n.  The free coefficients enter the
    spectrum point map linearly once the pinned constant is substituted
    out, so the fit is a single orthogonal factorization.  Solutions whose
    density dips below -0.15 on the validation grid ([0, 50] at step
    0.01) are replaced by the exact least-squares minimizer whose density
    is nonnegative on that grid (see ``_project_nonneg_density``);
    shallower dips pass through untouched so that spectra touching zero
    are not pinned to the boundary.
    """
    degree = _whole(degree, "degree")
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if net.m < degree:
        raise ValueError(f"net has {net.m} points but {degree} are required")
    c = net.ratio()
    s = _smooth_values(net)
    x, w = _gl_laguerre()       # rows t^j e^-t, folded to w x^(j+1)
    moments = _laguerre_kernel(w * x ** np.arange(1, degree + 2)[:, None],
                               np.eye(degree + 1), s)[0]
    facts = np.array([math.factorial(r) for r in range(1, degree + 1)])
    design = (c * (moments[1:] - facts[:, None] * moments[0])).T
    target = net.points + 1.0 / s - c * moments[0]
    coeffs, _, rank, _ = np.linalg.lstsq(design, target, rcond=None)
    if rank < degree:
        raise RankError(f"design matrix has rank {rank} < {degree}; "
                        f"enlarge the evaluation net")
    iterations = 0
    poly = np.polynomial.polynomial.polyval(
        _POSITIVITY_GRID, np.concatenate([[1.0 - facts @ coeffs], coeffs]))
    if (poly * np.exp(-_POSITIVITY_GRID)).min() < _PROJECTION_TRIGGER:
        coeffs, iterations = _project_nonneg_density(design, target, degree)
    return _finish(Laguerre(coeffs), net, iterations, True)


def fit_inverse_cubic(net: UNet) -> FitResult:
    """Fit the inverse-cubic family by coarse grid plus bounded search.

    The ratio c is the net's p/n, and every companion value of the net
    must be positive (``build_unet`` gives that for a smooth family), else
    ValueError.  The single parameter ranges over [0, 1); the objective
    at all 200 points of a grid comes from one batched kernel evaluation,
    which brackets the minimum, and ``scipy.optimize.minimize_scalar``
    (bounded Brent method, absolute tolerance 1e-7) pins it down inside
    that bracket.  ``iterations`` counts the 200 grid values plus Brent's
    objective evaluations.
    """
    s = _smooth_values(net)
    f = lambda alpha: objective(InverseCubic(alpha), net)
    alphas = np.linspace(0.0, 1.0 - 1e-6, _IC_COARSE)
    # f at every grid alpha; with s > 0 no pole -1/s comes near the support
    gaps = net.points - (-1.0 / s + net.ratio() * _inverse_cubic_kernel(alphas[:, None], s)[0])
    i = int(np.argmin(np.einsum("ij,ij->i", gaps, gaps)))
    lo = alphas[max(i - 1, 0)]
    hi = alphas[min(i + 1, _IC_COARSE - 1)]
    res = scipy.optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                         options={"xatol": _IC_XATOL})
    return _finish(InverseCubic(float(res.x)), net,
                   _IC_COARSE + int(res.nfev), bool(res.success))
