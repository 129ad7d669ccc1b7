"""Population spectrum models.

A model describes the limiting distribution of population covariance
eigenvalues on the positive half line.  Three families are supported: a
finite mixture of point masses (with a single point mass as its one-atom
case), polynomial-times-exponential densities, and a shifted
inverse-cubic tail law.  Each model exposes the distribution calculus
the estimation pipeline needs (CDF, quantile function, density where one
exists), the kernel integrals K1(s) = int t/(1+ts) dH and
K2(s) = int t^2/(1+ts)^2 dH of the spectrum point map, and JSON
serialization; the module provides a first-order transport distance
between models.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import special

from .errors import NearPoleError

__all__ = [
    "PSDModel",
    "Discrete",
    "PointMass",
    "Laguerre",
    "InverseCubic",
    "laguerre_moment_integrals",
    "wasserstein",
    "model_from_dict",
]

_WEIGHT_TOL = 1e-12
# Fitted polynomial densities carry sampling noise, and shapes whose true
# density touches zero get estimated with small undershoots; rejecting
# those would pin every such fit to the boundary.  Construction therefore
# tolerates shallow dips and only refuses clearly broken shapes.
_DENSITY_TOL = -0.2
_POSITIVITY_GRID = np.arange(0.0, 50.0 + 1e-9, 0.01)
_QUANTILE_TOL = 1e-10   # Laguerre quantile bisection stops at this width
_W_GRID = 10_000        # midpoint-rule probabilities of a smooth distance


def _as_prob_array(prob):
    p = np.asarray(prob, dtype=float)
    if p.size and (np.any(p <= 0.0) or np.any(p >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return p


# ---------------------------------------------------------------------------
# kernel integrals K1(s) = int t/(1+ts) dH, K2(s) = int t^2/(1+ts)^2 dH

_GL_LAGUERRE = special.roots_laguerre(128)

_leg_x, _leg_w = np.polynomial.legendre.leggauss(200)
_UNIT_NODES = 0.5 * (_leg_x + 1.0)        # Gauss-Legendre on (0, 1)
_UNIT_WEIGHTS = 0.5 * _leg_w


def _laguerre_I_recursion(s: float, degree: int, derivative: bool = False):
    """I_j(s) and optionally I_j'(s) for j = 0..degree at real s >= 1.

    Uses J_0 = b e^b E1(b) with b = 1/s and the upward recursion
    J_{r+1} = (r! - J_r)/s for the moments J_r = int t^r e^-t/(1+ts) dt;
    I_j = J_{j+1}.  Upward differences stay order one for s >= 1, so no
    cancellation builds up.
    """
    b = 1.0 / s
    e_scaled = float(np.exp(b) * special.exp1(b))
    J = b * e_scaled
    dJ = -b * b * ((1.0 + b) * e_scaled - 1.0)
    vals = np.empty(degree + 1)
    ders = np.empty(degree + 1)
    fact = 1.0
    for r in range(degree + 1):
        J_next = (fact - J) / s
        dJ_next = -(J_next + dJ) / s
        vals[r], ders[r] = J_next, dJ_next
        J, dJ = J_next, dJ_next
        fact *= r + 1
    return (vals, ders) if derivative else vals


def laguerre_moment_integrals(s, degree: int, derivative: bool = False):
    """Moment integrals I_j(s) = int t^{j+1} e^-t / (1 + t s) dt, j = 0..degree.

    Real arguments must be positive (for s <= 0 the integrand has a pole
    inside the integration range); complex arguments with nonzero
    imaginary part are evaluated by Gauss-Laguerre quadrature.  Returns
    an array of shape (degree + 1,) + shape(s); with ``derivative`` a
    pair (I, dI/ds) is returned.
    """
    s_arr = np.asarray(s)
    scalar = s_arr.ndim == 0
    s_arr = np.atleast_1d(s_arr)
    x, w = _GL_LAGUERRE
    if np.iscomplexobj(s_arr):
        vals = np.empty((degree + 1, s_arr.size), dtype=complex)
        ders = np.empty_like(vals)
        denom = 1.0 + np.outer(x, s_arr)
        for j in range(degree + 1):
            wj = w * x ** (j + 1)
            vals[j] = wj @ (1.0 / denom)
            ders[j] = -(wj * x) @ (1.0 / denom**2)
    else:
        s_arr = s_arr.astype(float)
        if np.any(s_arr <= 0.0):
            raise ValueError("real arguments must be positive")
        vals = np.empty((degree + 1, s_arr.size))
        ders = np.empty_like(vals)
        small = s_arr <= 1.0
        if small.any():
            denom = 1.0 + np.outer(x, s_arr[small])
            for j in range(degree + 1):
                wj = w * x ** (j + 1)
                vals[j, small] = wj @ (1.0 / denom)
                if derivative:
                    ders[j, small] = -(wj * x) @ (1.0 / denom**2)
        for i in np.flatnonzero(~small):
            vals[:, i], ders[:, i] = _laguerre_I_recursion(float(s_arr[i]), degree,
                                                           derivative=True)
    if scalar:
        vals, ders = vals[:, 0], ders[:, 0]
    return (vals, ders) if derivative else vals


def _guard_atoms(atoms, s_arr, guard):
    denom = 1.0 + np.outer(atoms, s_arr)
    if guard is not None and not np.iscomplexobj(s_arr):
        closeness = np.abs(denom)
        if closeness.min() < guard:
            i, j = np.unravel_index(np.argmin(closeness), closeness.shape)
            raise NearPoleError(
                f"companion value {s_arr[j]!r} puts -1/s within the guard of "
                f"atom {atoms[i]!r}",
                where=float(atoms[i]),
                margin=float(closeness.min()),
            )
    return denom


def _ic_nodes(model: InverseCubic):
    # quantile substitution w = (1-alpha)/(t - shift): dH becomes 2 w dw on (0, 1)
    t = model.shift + (1.0 - model.alpha) / _UNIT_NODES
    w = 2.0 * _UNIT_NODES * _UNIT_WEIGHTS
    return t, w


class PSDModel:
    """Base class for population spectrum models."""

    kind: str = ""

    def cdf(self, x):
        raise NotImplementedError

    def quantile(self, prob):
        raise NotImplementedError

    def support(self):
        """Closed intervals (lo, hi) carrying the distribution's mass."""
        raise NotImplementedError

    def kernel(self, s, *, squared=False, guard=None):
        """Kernel integral K1(s) = int t/(1+ts) dH, or K2 when ``squared``.

        K2(s) = int t^2/(1+ts)^2 dH.  ``s`` is a 1-d array of real or
        complex arguments and the result has its shape.  For real s whose
        pole -1/s comes within ``guard`` of the support, NearPoleError is
        raised with the offending support point and margin; None disables
        the check.
        """
        raise NotImplementedError

    @property
    def theta(self) -> NDArray:
        """Free parameter vector of the family."""
        raise NotImplementedError

    def to_dict(self) -> dict:
        raise NotImplementedError

    def __eq__(self, other):
        return type(other) is type(self) and self.to_dict() == other.to_dict()

    def __hash__(self):
        return hash((self.kind, tuple(np.asarray(self.theta).tolist())))


@dataclass(frozen=True, eq=False)
class Discrete(PSDModel):
    """Finite mixture of point masses at positive locations.

    Parameters
    ----------
    atoms : array_like
        Distinct positive mass locations.  Stored sorted ascending.
    weights : array_like
        Positive masses summing to one (tolerance 1e-12).
    """

    atoms: NDArray
    weights: NDArray
    kind = "discrete"

    def __post_init__(self):
        atoms = np.asarray(self.atoms, dtype=float)
        weights = np.asarray(self.weights, dtype=float)
        if atoms.ndim != 1 or atoms.shape != weights.shape or atoms.size == 0:
            raise ValueError("atoms and weights must be matching 1-d sequences")
        if not (np.all(np.isfinite(atoms)) and np.all(np.isfinite(weights))):
            raise ValueError("atoms and weights must be finite")
        if np.any(atoms <= 0.0):
            raise ValueError("atoms must be positive")
        if np.any(weights <= 0.0):
            raise ValueError("weights must be positive")
        total = weights.sum()
        if abs(total - 1.0) > _WEIGHT_TOL:
            raise ValueError(f"weights must sum to 1, got {total!r}")
        order = np.argsort(atoms, kind="stable")
        atoms = atoms[order]
        weights = weights[order] / total
        if np.any(np.diff(atoms) == 0.0):
            raise ValueError("atoms must be distinct")
        atoms.flags.writeable = False
        weights.flags.writeable = False
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "weights", weights)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        cum = np.concatenate([[0.0], np.cumsum(self.weights)])
        out = cum[np.searchsorted(self.atoms, x, side="right")]
        return out if out.ndim else float(out)

    def quantile(self, prob):
        p = _as_prob_array(prob)
        cum = np.cumsum(self.weights)
        idx = np.minimum(np.searchsorted(cum, p, side="left"), self.atoms.size - 1)
        out = self.atoms[idx]
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return float(self.atoms @ self.weights)

    def support(self):
        return tuple((a, a) for a in self.atoms)

    def kernel(self, s, *, squared=False, guard=None):
        denom = _guard_atoms(self.atoms, s, guard)
        if squared:
            return (self.weights * self.atoms**2) @ (1.0 / denom**2)
        return (self.weights * self.atoms) @ (1.0 / denom)

    @property
    def theta(self) -> NDArray:
        return np.concatenate([self.atoms, self.weights[:-1]])

    def to_dict(self) -> dict:
        return {
            "kind": self.kind,
            "atoms": self.atoms.tolist(),
            "weights": self.weights.tolist(),
        }


class PointMass(Discrete):
    """All mass at one positive location: a one-atom ``Discrete``."""

    kind = "point_mass"

    def __init__(self, at: float):
        at = float(at)
        if not math.isfinite(at) or at <= 0.0:
            raise ValueError("location must be positive and finite")
        super().__init__(np.array([at]), np.array([1.0]))

    @property
    def at(self) -> float:
        return float(self.atoms[0])

    def __repr__(self):
        return f"PointMass(at={self.at!r})"

    def to_dict(self) -> dict:
        return {"kind": self.kind, "at": self.at}


@dataclass(frozen=True, eq=False)
class Laguerre(PSDModel):
    """Density (a0 + a1 t + ... + aq t^q) exp(-t) on the positive half line.

    Only the coefficients of t^1 .. t^q are free; the constant term is
    pinned by total mass one, a0 = 1 - sum_j j! * a_j.  The density is
    checked on a fixed validation grid over [0, 50]: shallow dips below
    zero are tolerated (fitted coefficients carry estimation noise), but
    shapes that go clearly negative are rejected.

    Parameters
    ----------
    coeffs : array_like
        Free coefficients (a_1, ..., a_q), q >= 1.
    """

    coeffs: NDArray
    kind = "laguerre"

    def __post_init__(self):
        coeffs = np.asarray(self.coeffs, dtype=float)
        if coeffs.ndim != 1 or coeffs.size == 0:
            raise ValueError("coeffs must be a nonempty 1-d sequence")
        if not np.all(np.isfinite(coeffs)):
            raise ValueError("coeffs must be finite")
        coeffs = coeffs.copy()
        coeffs.flags.writeable = False
        object.__setattr__(self, "coeffs", coeffs)
        low = self.density(_POSITIVITY_GRID).min()
        if low < _DENSITY_TOL:
            raise ValueError(f"density dips to {low:.3e} on the validation grid")

    @property
    def degree(self) -> int:
        return self.coeffs.size

    @property
    def full_coeffs(self) -> NDArray:
        """Polynomial coefficients (a0, a1, ..., aq) including the pinned a0."""
        facts = np.array([math.factorial(j) for j in range(1, self.degree + 1)])
        a0 = 1.0 - float(facts @ self.coeffs)
        return np.concatenate([[a0], self.coeffs])

    def density(self, t):
        t = np.asarray(t, dtype=float)
        poly = np.polynomial.polynomial.polyval(t, self.full_coeffs)
        out = np.where(t >= 0.0, poly * np.exp(-np.clip(t, 0.0, None)), 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        xp = np.clip(x, 0.0, None)
        out = np.zeros_like(xp)
        for j, a in enumerate(self.full_coeffs):
            # integral of t^j e^-t from 0 to x is j! times the regularized
            # lower incomplete gamma function of order j+1
            out += a * math.factorial(j) * special.gammainc(j + 1, xp)
        out = np.clip(np.where(x < 0.0, 0.0, out), 0.0, 1.0)
        return out if out.ndim else float(out)

    def quantile(self, prob):
        p = _as_prob_array(prob)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        lo = np.zeros_like(p)
        hi = np.full_like(p, 64.0)
        while np.any(self.cdf(hi) < p.max()):
            hi *= 2.0
            if hi[0] > 1e9:
                raise ValueError("quantile bracket failed to close")
        for _ in range(64):
            mid = 0.5 * (lo + hi)
            below = self.cdf(mid) < p
            lo = np.where(below, mid, lo)
            hi = np.where(below, hi, mid)
            if np.max(hi - lo) < _QUANTILE_TOL:
                break
        out = 0.5 * (lo + hi)
        return float(out[0]) if scalar else out

    def mean(self) -> float:
        return float(sum(a * math.factorial(j + 1)
                         for j, a in enumerate(self.full_coeffs)))

    def support(self):
        return ((0.0, math.inf),)

    def kernel(self, s, *, squared=False, guard=None):
        if np.iscomplexobj(s):
            # fold the polynomial into the Gauss-Laguerre weights: one
            # matrix-vector product instead of one per moment
            x, w = _GL_LAGUERRE
            wp = w * x * np.polynomial.polynomial.polyval(x, self.full_coeffs)
            denom = 1.0 + np.outer(x, s)
            if squared:
                return (wp * x) @ (1.0 / denom**2)
            return wp @ (1.0 / denom)
        if np.any(s < 0.0):
            bad = float(s[s < 0.0][0])
            if guard is not None:
                raise NearPoleError(
                    f"companion value {bad!r} puts -1/s inside the model support",
                    where=-1.0 / bad, margin=0.0)
        moments = laguerre_moment_integrals(s, self.degree, derivative=squared)
        if squared:
            return -(self.full_coeffs @ moments[1])
        return self.full_coeffs @ moments

    @property
    def theta(self) -> NDArray:
        return self.coeffs

    def to_dict(self) -> dict:
        return {"kind": self.kind, "alphas": self.coeffs.tolist()}


@dataclass(frozen=True, eq=False)
class InverseCubic(PSDModel):
    """Shifted inverse-cubic tail law with unit mean.

    Density 2(1-alpha)^2 / (t - a)^3 for t >= alpha with a = 2*alpha - 1,
    so the left support endpoint is ``alpha`` and the mean is exactly one.
    """

    alpha: float
    kind = "inverse_cubic"

    def __post_init__(self):
        alpha = float(self.alpha)
        if not math.isfinite(alpha) or not 0.0 <= alpha < 1.0:
            raise ValueError("alpha must lie in [0, 1)")
        object.__setattr__(self, "alpha", alpha)

    @property
    def shift(self) -> float:
        return 2.0 * self.alpha - 1.0

    def density(self, t):
        t = np.asarray(t, dtype=float)
        scale = 2.0 * (1.0 - self.alpha) ** 2
        with np.errstate(divide="ignore", invalid="ignore"):
            out = np.where(t >= self.alpha, scale / (t - self.shift) ** 3, 0.0)
        return out if out.ndim else float(out)

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = np.where(
            x >= self.alpha,
            1.0 - (1.0 - self.alpha) ** 2 / np.where(x >= self.alpha,
                                                     x - self.shift, 1.0) ** 2,
            0.0,
        )
        return out if out.ndim else float(out)

    def quantile(self, prob):
        p = _as_prob_array(prob)
        out = self.shift + (1.0 - self.alpha) / np.sqrt(1.0 - p)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return 1.0

    def support(self):
        return ((self.alpha, math.inf),)

    def kernel(self, s, *, squared=False, guard=None):
        if not np.iscomplexobj(s) and guard is not None:
            neg = s < 0.0
            if np.any(neg):
                pole = -1.0 / s[neg]
                margin = self.alpha - pole.max()
                if margin < guard:
                    raise NearPoleError(
                        f"companion value puts -1/s within the guard of the "
                        f"support edge {self.alpha!r}",
                        where=self.alpha, margin=float(margin))
        t, w = _ic_nodes(self)
        denom = 1.0 + np.outer(t, s)
        if squared:
            return (w * t**2) @ (1.0 / denom**2)
        return (w * t) @ (1.0 / denom)

    @property
    def theta(self) -> NDArray:
        return np.array([self.alpha])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha}


def wasserstein(a: PSDModel, b: PSDModel) -> float:
    """First-order transport distance between two models.

    Equals the integral over (0, 1) of the absolute difference of the two
    quantile functions.  Pairs of purely atomic models are integrated
    exactly over the merged probability breakpoints; any other pair uses a
    midpoint rule on 10,000 probabilities.
    """
    if isinstance(a, Discrete) and isinstance(b, Discrete):
        atoms_a, w_a = a.atoms, a.weights
        atoms_b, w_b = b.atoms, b.weights
        edges = np.unique(np.concatenate([
            [0.0, 1.0], np.cumsum(w_a)[:-1], np.cumsum(w_b)[:-1]]))
        mids = 0.5 * (edges[:-1] + edges[1:])
        cum_a, cum_b = np.cumsum(w_a), np.cumsum(w_b)
        qa = atoms_a[np.minimum(np.searchsorted(cum_a, mids), atoms_a.size - 1)]
        qb = atoms_b[np.minimum(np.searchsorted(cum_b, mids), atoms_b.size - 1)]
        return float(np.abs(qa - qb) @ np.diff(edges))
    probs = (np.arange(_W_GRID) + 0.5) / _W_GRID
    return float(np.mean(np.abs(a.quantile(probs) - b.quantile(probs))))


_KINDS = {
    "discrete": lambda d: Discrete(np.asarray(d["atoms"]), np.asarray(d["weights"])),
    "point_mass": lambda d: PointMass(float(d["at"])),
    "laguerre": lambda d: Laguerre(np.asarray(d["alphas"])),
    "inverse_cubic": lambda d: InverseCubic(float(d["alpha"])),
}


def model_from_dict(data: dict) -> PSDModel:
    """Rebuild a model from its dict form."""
    try:
        kind = data["kind"]
    except (TypeError, KeyError):
        raise ValueError("model dict needs a 'kind' entry") from None
    try:
        builder = _KINDS[kind]
    except KeyError:
        raise ValueError(f"unknown model kind {kind!r}") from None
    try:
        return builder(data)
    except KeyError as missing:
        raise ValueError(f"model dict for {kind!r} is missing {missing}") from None
