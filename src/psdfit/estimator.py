"""Least-squares recovery of a population spectrum from sample eigenvalues.

The estimation recipe: pick spectrum points u_j outside the sample bulk,
cache the companion Stieltjes transform there, and choose the model
parameters that make the model-side spectrum point map reproduce the
u_j best in the least-squares sense.  Atomic models go through a
multi-start trust-region least-squares search with an analytic Jacobian
over an unconstrained reparameterization; the polynomial-exponential
family is linear in its coefficients and solves in one orthogonal
factorization; the inverse-cubic family is a coarse grid followed by a
bounded one-dimensional search.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from numpy.typing import NDArray
from scipy import optimize

from .errors import IterationError, NearPoleError, RankError
from .models import (_POSITIVITY_GRID, Discrete, InverseCubic, Laguerre,
                     PSDModel, laguerre_moment_integrals)
from .mptransform import POLE_GUARD, SampleSpectrum, companion_stieltjes, mp_u_map

__all__ = [
    "UNet",
    "FitResult",
    "build_unet",
    "params_to_model",
    "objective",
    "fit_discrete",
    "fit_laguerre",
    "fit_inverse_cubic",
]

FAMILIES = ("discrete", "laguerre", "inverse_cubic")

# families whose population spectrum is purely atomic get net points on
# both sides of the sample bulk; smooth families only need negative points
_ATOMIC_FAMILIES = ("discrete",)

_PENALTY = 1e12
# stopping tolerance of the atomic least-squares search, used for the
# relative change of the cost, the relative step and the scaled gradient
_LSQ_TOL = 1e-12
_STARTS = 8          # starts of the atomic search; those past the third
_SEED = 0            # are jittered by a generator seeded with this
_MAX_NFEV = 2000     # residual evaluations allowed per start
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
    spacing = int(spacing)
    if spacing < 1:
        raise ValueError("spacing must be at least 1")
    intervals = [(-10.0, 0.0, "negative")]
    if family in _ATOMIC_FAMILIES:
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


def params_to_model(family: str, theta) -> PSDModel:
    """Materialize a family's parameter vector as a model.

    Atomic: (a_1..a_k, m_1..m_{k-1}) with the last weight implied.
    Polynomial-exponential: the free coefficients.  Inverse cubic: the
    left support endpoint.  Invalid vectors raise ValueError.
    """
    theta = np.asarray(theta, dtype=float).ravel()
    if family == "discrete":
        if theta.size % 2 == 0 or theta.size < 1:
            raise ValueError("atomic parameter vector must have odd length 2k-1")
        k = (theta.size + 1) // 2
        weights = np.append(theta[k:], 1.0 - theta[k:].sum())
        return Discrete(theta[:k], weights)
    if family == "laguerre":
        return Laguerre(theta)
    if family == "inverse_cubic":
        if theta.size != 1:
            raise ValueError("inverse-cubic family has a single parameter")
        return InverseCubic(float(theta[0]))
    raise ValueError(f"unknown family {family!r}; expected one of {FAMILIES}")


def objective(theta, family: str, net: UNet) -> float:
    """Sum of squared gaps between net points and their model-side images.

    The ratio c is the net's p/n.  Parameter vectors whose poles violate
    the evaluation guard do not get a finite map value; they score a
    penalty of 1e12 plus the margin by which the guard was missed, so a
    search step into the guard is never preferred over one outside it.
    """
    model = params_to_model(family, theta)
    try:
        uhat = mp_u_map(net.companion_values, model, net.ratio())
    except NearPoleError as err:
        short = 0.0 if err.margin is None else max(0.0, POLE_GUARD - err.margin)
        return _PENALTY + short
    diff = net.points - uhat
    return float(diff @ diff)


@dataclass(frozen=True, eq=False)
class FitResult:
    """Outcome of a family fit against an evaluation net.

    ``iterations`` counts residual evaluations over all starts for the
    atomic family, constrained-projection steps for the
    polynomial-exponential family and objective evaluations for the
    inverse-cubic family.
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


def _finish(model, family, net, c, iterations, converged) -> FitResult:
    uhat = mp_u_map(net.companion_values, model, c)
    residuals = net.points - uhat
    return FitResult(
        model=model,
        theta=model.theta,
        objective_value=float(residuals @ residuals),
        residuals=residuals,
        iterations=iterations,
        converged=converged,
        family=family,
        c=c,
        net=net,
    )


def _raw_to_theta(raw: NDArray, k: int) -> NDArray:
    # atoms as cumulative sums of exponentials, weights as a softmax with
    # the last logit pinned to zero; any raw vector maps inside the family
    gaps = np.exp(np.clip(raw[:k], -40.0, 40.0))
    atoms = np.cumsum(gaps)
    logits = np.append(np.clip(raw[k:], -40.0, 40.0), 0.0)
    w = np.exp(logits - logits.max())
    w /= w.sum()
    return np.concatenate([atoms, w[:-1]])


def _atomic_terms(raw: NDArray, k: int, s: NDArray):
    # atoms, weights and the table 1 + a_i s_j of a raw vector, with the
    # last weight closed the way params_to_model closes it
    theta = _raw_to_theta(raw, k)
    atoms = theta[:k]
    weights = np.append(theta[k:], 1.0 - theta[k:].sum())
    return atoms, weights, 1.0 + np.outer(atoms, s)


def _discrete_residual(raw: NDArray, k: int, net: UNet, c: float) -> NDArray:
    """Residual net.points - u_hat of the k-atom model a raw vector encodes.

    Inside the pole guard it is a finite penalty vector whose squared norm
    is the objective's penalty, so a step into the guard is rejected.
    """
    s = net.companion_values
    atoms, weights, denom = _atomic_terms(raw, k, s)
    closeness = np.abs(denom).min()
    if closeness < POLE_GUARD:
        out = np.zeros(net.m)
        out[0] = math.sqrt(_PENALTY + (POLE_GUARD - closeness))
        return out
    uhat = -1.0 / s + c * ((weights * atoms) @ (1.0 / denom))
    return net.points - uhat


def _discrete_jacobian(raw: NDArray, k: int, net: UNet, c: float) -> NDArray:
    """Jacobian of ``_discrete_residual`` in the raw parameters (m by 2k-1)."""
    atoms, weights, denom = _atomic_terms(raw, k, net.companion_values)
    if np.abs(denom).min() < POLE_GUARD:
        return np.zeros((net.m, raw.size))
    # u_hat = -1/s + c sum_i w_i a_i / (1 + a_i s): one row per atom
    d_atom = c * weights[:, None] / denom**2
    d_weight = c * atoms[:, None] / denom
    # a_i sums exp(raw_l) over l <= i
    gaps = np.exp(np.clip(raw[:k], -40.0, 40.0))
    d_gaps = gaps[:, None] * np.cumsum(d_atom[::-1], axis=0)[::-1]
    # softmax with the last logit pinned: dw_i/dz_l = w_i (delta_il - w_l)
    d_logits = weights[:-1, None] * (d_weight[:-1] - weights @ d_weight)
    jac = -np.concatenate([d_gaps, d_logits]).T
    jac[:, np.abs(raw) > 40.0] = 0.0
    return jac


def _start_points(net: UNet, k: int) -> list:
    pos = net.spectrum.eigenvalues[net.spectrum.eigenvalues > 0.0]
    if pos.size == 0:
        raise ValueError("spectrum is degenerate: no positive eigenvalues")
    base = np.quantile(pos, (np.arange(k) + 0.5) / k)
    rng = np.random.default_rng(_SEED)
    scales = (1.0, 0.5, 2.0)
    starts = []
    for i in range(_STARTS):
        atoms0 = np.sort(base * scales[i % 3])
        if i >= 3:
            atoms0 = np.sort(atoms0 * np.exp(0.25 * rng.standard_normal(k)))
        gaps0 = np.maximum(np.diff(np.concatenate([[0.0], atoms0])),
                           1e-4 * atoms0[-1] / k)
        logits0 = 0.2 * rng.standard_normal(k - 1) if i >= 3 else np.zeros(k - 1)
        starts.append(np.concatenate([np.log(gaps0), logits0]))
    return starts


def fit_discrete(net: UNet, k: int) -> FitResult:
    """Fit a k-atom spectrum by multi-start trust-region least squares.

    The ratio c is the net's p/n.  Each of 8 starts runs
    ``scipy.optimize.least_squares`` on the residual vector with its
    analytic Jacobian, for at most 2000 residual evaluations.  Starts
    place atoms at sample-spectrum quantiles scaled by {1, 1/2, 2}, with
    multiplicative jitter (from a generator seeded with 0) beyond the
    first three, and equal weights.  The best start wins; exact objective
    ties break toward the lexicographically smallest parameter vector.
    """
    k = int(k)
    if k < 1:
        raise ValueError("k must be at least 1")
    if net.m < 2 * k - 1:
        raise ValueError(f"net has {net.m} points but {2 * k - 1} are required")
    c = net.ratio()

    candidates = []
    iterations = 0
    for raw0 in _start_points(net, k):
        res = optimize.least_squares(
            _discrete_residual, raw0, jac=_discrete_jacobian, args=(k, net, c),
            method="trf", ftol=_LSQ_TOL, xtol=_LSQ_TOL, gtol=_LSQ_TOL,
            max_nfev=_MAX_NFEV)
        iterations += int(res.nfev)
        candidates.append((float(res.fun @ res.fun), _raw_to_theta(res.x, k),
                           bool(res.success)))

    best_val = min(fun for fun, _, _ in candidates)
    if best_val >= _PENALTY:
        raise IterationError("every least-squares start ended inside the pole guard")
    near = [cand for cand in candidates
            if cand[0] <= best_val * (1.0 + 1e-12) + 1e-300]
    _, theta, converged = min(near, key=lambda cand: tuple(cand[1]))
    model = params_to_model("discrete", theta)
    return _finish(model, "discrete", net, c, iterations, converged)


def _project_nonneg_density(design, target, degree, grid=_POSITIVITY_GRID):
    """Constrained least squares by a primal active-set iteration.

    Feasible set: 1 + sum_r a_r (t^r - r!) >= 0 on the grid, which is the
    density positivity constraint with the pinned constant eliminated.
    Starts from the strictly feasible all-zero (exponential density)
    point; at most ``degree`` constraints can be active at once, so every
    step reduces to a small KKT solve.  Coordinatewise schemes stall on
    this problem: a binding constraint couples all coefficients.
    """
    gmat = np.stack([grid**r - math.factorial(r)
                     for r in range(1, degree + 1)], axis=1)
    hess = design.T @ design
    lin = design.T @ target
    a = np.zeros(degree)
    work: list[int] = []
    stuck = 0
    iteration = 0
    for iteration in range(1, 201):
        if work:
            gw = gmat[work]
            kkt = np.block([[hess, gw.T],
                            [gw, np.zeros((len(work), len(work)))]])
            sol = np.linalg.solve(kkt, np.concatenate([lin, -np.ones(len(work))]))
            a_eq, mult = sol[:degree], sol[degree:]
        else:
            a_eq, mult = np.linalg.solve(hess, lin), np.zeros(0)
        step = a_eq - a
        if np.max(np.abs(step)) <= 1e-12:
            # inequality multipliers are the negated KKT ones; a positive
            # entry means the constraint should be released
            if mult.size and mult.max() > 1e-12:
                work.pop(int(np.argmax(mult)))
                continue
            break
        slack = 1.0 + gmat @ a
        descent = gmat @ step
        blocking = descent < -1e-14
        if np.any(blocking):
            ratios = np.maximum(slack[blocking] / -descent[blocking], 0.0)
            t_max = min(1.0, float(ratios.min()))
        else:
            t_max = 1.0
        a = a + t_max * step
        if t_max < 1.0:
            cand = int(np.flatnonzero(blocking)[int(np.argmin(ratios))])
            trial = work + [cand] if cand not in work else work
            if len(trial) > len(work) and np.linalg.matrix_rank(gmat[trial]) == len(trial):
                work = trial
                stuck = 0
            else:
                stuck += 1
                if stuck >= 3:
                    break
    return a, iteration


def fit_laguerre(net: UNet, degree: int) -> FitResult:
    """Fit a polynomial-exponential spectrum by linear least squares.

    The ratio c is the net's p/n.  The free coefficients enter the
    spectrum point map linearly once the pinned constant is substituted
    out, so the fit is a single orthogonal factorization.  Solutions whose
    density goes materially negative on the validation grid are replaced
    by the constrained minimizer over the positive cone; shallow dips pass
    through untouched so that spectra touching zero are not pinned to the
    boundary.
    """
    degree = int(degree)
    if degree < 1:
        raise ValueError("degree must be at least 1")
    if net.m < degree:
        raise ValueError(f"net has {net.m} points but {degree} are required")
    c = net.ratio()
    s = net.companion_values
    if np.any(s <= 0.0):
        raise ValueError("net contains nonpositive companion values; "
                         "build it for a smooth family")
    moments = laguerre_moment_integrals(s, degree)
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
    model = Laguerre(coeffs)
    return _finish(model, "laguerre", net, c, iterations, True)


def fit_inverse_cubic(net: UNet) -> FitResult:
    """Fit the inverse-cubic family by coarse grid plus bounded search.

    The ratio c is the net's p/n.  The single parameter ranges over
    [0, 1); a 200-point grid brackets the minimum and
    ``scipy.optimize.minimize_scalar`` (bounded Brent method, absolute
    tolerance 1e-7) pins it down inside that bracket.
    """
    f = lambda alpha: objective(np.array([alpha]), "inverse_cubic", net)
    alphas = np.linspace(0.0, 1.0 - 1e-6, _IC_COARSE)
    i = int(np.argmin([f(a) for a in alphas]))
    lo = alphas[max(i - 1, 0)]
    hi = alphas[min(i + 1, _IC_COARSE - 1)]
    res = optimize.minimize_scalar(f, bounds=(lo, hi), method="bounded",
                                   options={"xatol": _IC_XATOL})
    model = InverseCubic(float(res.x))
    return _finish(model, "inverse_cubic", net, net.ratio(),
                   _IC_COARSE + int(res.nfev), bool(res.success))
