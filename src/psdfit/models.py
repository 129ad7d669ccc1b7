"""Population spectrum models.

A model describes the limiting distribution of population covariance
eigenvalues on the positive half line.  Three families are supported: a
finite mixture of point masses (with a single point mass as its one-atom
case), polynomial-times-exponential densities, and a shifted
inverse-cubic tail law.  Each model exposes the distribution calculus
the estimation pipeline needs (CDF, quantile function for population
draws, density where one exists; the polynomial-exponential quantile is
a safeguarded Newton solve from a gamma-law start), the kernel integrals
K1(s) = int t/(1+ts) dH and K2(s) = int t^2/(1+ts)^2 dH of the spectrum
point map (atomic models also solve its forward equation in closed
form), and JSON serialization.  ``kernel`` returns K1 and K2 from one
call, each family by its own rule: finite sums over the atoms, the
moment recursion or Gauss-Laguerre quadrature for the
polynomial-exponential densities, and a closed form for the inverse
cubic.  A kernel only integrates, at whatever s it is given: one rule in
``mptransform.mp_u_map``, the same for every family, keeps the pole
-1/s of a real s off the support.  The module provides the first-order
transport distance between models, integrated from their CDFs.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cached_property

import numpy as np
from numpy.typing import NDArray
from scipy import optimize, special

__all__ = [
    "PSDModel",
    "Discrete",
    "PointMass",
    "Laguerre",
    "InverseCubic",
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
# Distance rule: Gauss-Legendre panels, see ``wasserstein``.
_W_NODES = 64           # nodes per panel
_W_SPLIT = 10.0         # Laguerre panels are [0, 10], [10, _W_CUT] and the
_W_CUT = 80.0           # tail, where e^-x times the polynomial is negligible
_W_GRADE = 4.0          # an inverse-cubic law's breaks step by this factor in
                        # distance from its pole 2 alpha - 1
_W_SPAN = 16.0          # a panel [lo, hi] with lo > 0 is cut to hi / lo <= this
_W_CROSS_FLOOR = 1e-13  # a smaller |F_a - F_b| is rounding, not a crossing
_W_T, _W_WEIGHTS = np.polynomial.legendre.leggauss(_W_NODES)
# tail panel [X, inf) in v = X / x: nodes falling to 0, weights of dx / X
_W_V = 0.5 * (1.0 - _W_T)
_W_V_WEIGHTS = 0.5 * _W_WEIGHTS / _W_V**2


def _as_prob_array(prob):
    p = np.asarray(prob, dtype=float)
    if p.size and (np.any(p <= 0.0) or np.any(p >= 1.0)):
        raise ValueError("probabilities must lie strictly inside (0, 1)")
    return p


# ---------------------------------------------------------------------------
# kernel integrals K1(s) = int t/(1+ts) dH, K2(s) = int t^2/(1+ts)^2 dH

_GL_LAGUERRE = special.roots_laguerre(128)
_IC_SERIES = 0.5        # inverse cubic: below this |beta/sigma| the series
_IC_TERMS = 60          # in beta/sigma replaces the log form, with this many
                        # terms (0.5**60 is below rounding)
# series coefficients: with a w + b = (1 - alpha)(1 - w) + alpha w, K1 takes
# int w^(k+1) (1 - w) dw and int w^(k+2) dw, K2 (k + 1) times int w^(k+1) (1 - w)^2,
# w^(k+2) (1 - w) and w^(k+3) dw; int w^p (1 - w)^q dw = B(p + 1, q + 1)
_IC_TABLE = special.beta(np.arange(_IC_TERMS)[:, None] + [2, 3, 2, 3, 4], [2, 1, 3, 2, 1])
_IC_TABLE[:, 2:] *= np.arange(1.0, _IC_TERMS + 1)[:, None]


def _laguerre_moments(s, degree: int):
    """Moments I_j(s) = int t^{j+1} e^-t / (1 + t s) dt, j = 0..degree, and
    their derivatives in s, at a 1-d array of real s > 0.

    Returns (I, dI/ds), each of shape (degree + 1, s.size).  Up to s = 1
    they are 128-node Gauss-Laguerre sums.  Above it, all lanes at once
    run J_0 = b e^b E1(b) with b = 1/s and the upward recursion
    J_{r+1} = (r! - J_r)/s for J_r = int t^r e^-t/(1+ts) dt, and
    I_j = J_{j+1}; upward differences stay order one for s >= 1, so no
    cancellation builds up.
    """
    if np.any(s <= 0.0):
        raise ValueError("real arguments must be positive")
    x, w = _GL_LAGUERRE
    vals = np.empty((degree + 1, s.size))
    ders = np.empty_like(vals)
    small = s <= 1.0
    inv = 1.0 / (1.0 + np.outer(x, s[small]))
    for j in range(degree + 1):
        wj = w * x ** (j + 1)
        vals[j, small] = wj @ inv
        ders[j, small] = -(wj * x) @ (inv * inv)
    big = s[~small]
    b = 1.0 / big
    e_scaled = np.exp(b) * special.exp1(b)
    J = b * e_scaled
    dJ = -b * b * ((1.0 + b) * e_scaled - 1.0)
    fact = 1.0
    for r in range(degree + 1):
        J = (fact - J) / big
        dJ = -(J + dJ) / big
        vals[r, ~small], ders[r, ~small] = J, dJ
        fact *= r + 1
    return vals, ders


def _inverse_cubic_kernel(alpha, s):
    """K1 and K2 of the inverse-cubic law with parameter alpha, in closed
    form, with alpha broadcasting against the real or complex s.

    In w = (1-alpha)/(t - a), with a = 2 alpha - 1, dH becomes 2 w dw
    on (0, 1); with b = 1 - alpha, beta = 1 + a s and sigma = b s,
    K1 = 2 int w (a w + b)/(beta w + sigma) dw and
    K2 = 2 int w (a w + b)^2/(beta w + sigma)^2 dw.  As
    a w + b = (a (beta w + sigma) + b)/beta, K1 = (a + 2 b m_1)/beta and
    K2 = (a^2 + 4 a b m_1 + 2 b^2 n_1)/beta^2, where
    m_j = int w^j/(beta w + sigma) dw and n_j = int w^j/(beta w + sigma)^2 dw:
    m_0 = log((1 + alpha s)/sigma)/beta, n_0 = 1/(sigma (1 + alpha s)),
    m_1 = (1 - sigma m_0)/beta and n_1 = (m_0 - sigma n_0)/beta.  These
    cancel as r = beta/sigma -> 0, so where |r| < 0.5 the geometric
    series of 1/(beta w + sigma) in r is summed instead:
    K1 = (2/sigma) sum_k (-r)^k int w^(k+1) (a w + b) dw, and K2 alike.
    Every lane, whatever the shape of alpha, sums it as its powers of -r
    times the table _IC_TABLE, weighted by 1 - alpha and alpha, which
    keeps every term nonnegative so that the sum cannot cancel.
    """
    alpha = alpha + np.zeros(np.shape(s))          # each lane's own alpha
    a, b = 2.0 * alpha - 1.0, 1.0 - alpha
    beta, sigma = 1.0 + a * s, b * s
    k1, k2 = np.empty_like(sigma), np.empty_like(sigma)
    near = np.abs(beta) < _IC_SERIES * np.abs(sigma)
    if near.any():
        sg, al, bn = sigma[near], alpha[near], b[near]
        sums = np.vander(-beta[near] / sg, _IC_TERMS, increasing=True) @ _IC_TABLE
        k1[near] = 2.0 * (bn * sums[:, 0] + al * sums[:, 1]) / sg
        k2[near] = 2.0 * (bn * bn * sums[:, 2] + 2.0 * al * bn * sums[:, 3]
                          + al * al * sums[:, 4]) / sg / sg
    far = ~near
    be, sg, edge = beta[far], sigma[far], (1.0 + alpha * s)[far]
    a, b = a[far], b[far]
    m0, n0 = np.log(edge / sg) / be, 1.0 / sg / edge
    m1, n1 = (1.0 - sg * m0) / be, (m0 - sg * n0) / be
    k1[far] = (a + 2.0 * b * m1) / be
    k2[far] = (a * a + 4.0 * a * b * m1 + 2.0 * b * b * n1) / be / be
    return k1, k2


class PSDModel:
    """Base class for population spectrum models."""

    kind: str = ""

    def cdf(self, x):
        raise NotImplementedError

    def _sf(self, x):
        """Survival function 1 - F at an array x, without the cancellation
        of forming it from the CDF in the upper tail."""
        raise NotImplementedError

    def quantile(self, prob):
        raise NotImplementedError

    def mean(self) -> float:
        raise NotImplementedError

    def support(self):
        """Closed intervals (lo, hi) carrying the distribution's mass."""
        raise NotImplementedError

    @cached_property
    def _support_ends(self):
        return np.array(self.support()).T     # starts and ends, built once

    def _distance_breaks(self):
        """Every panel edge ``wasserstein`` needs for this model: the kinks
        and jumps of the CDF and the family's own panel ends, up to one
        beyond which the CDF is smooth in 1/x."""
        raise NotImplementedError

    def kernel(self, s):
        """Kernel integrals (K1(s), K2(s)) from one evaluation.

        K1(s) = int t/(1+ts) dH and K2(s) = int t^2/(1+ts)^2 dH, so that
        the spectrum point map is u = -1/s + c K1 and its slope
        du/ds = 1/s^2 - c K2.  ``s`` is a 1-d array of real or complex
        arguments and each half has its shape.  The kernel only
        integrates; whether the pole -1/s of a real s sits far enough from
        the support is decided by the caller, ``mp_u_map``.
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

    def _sf(self, x):
        above = np.append(np.cumsum(self.weights[::-1])[::-1], 0.0)
        return above[np.searchsorted(self.atoms, x, side="right")]

    def quantile(self, prob):
        p = _as_prob_array(prob)
        cum = np.cumsum(self.weights)
        idx = np.minimum(np.searchsorted(cum, p, side="left"), self.atoms.size - 1)
        out = self.atoms[idx]
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return float(self.atoms @ self.weights)

    def _distance_breaks(self):
        return self.atoms

    def support(self):
        return tuple((a, a) for a in self.atoms)

    def kernel(self, s):
        inv = 1.0 / (1.0 + np.outer(self.atoms, s))
        wa = self.weights * self.atoms
        return wa @ inv, (wa * self.atoms) @ (inv * inv)

    def companion_root(self, z, c):
        """Upper-half-plane roots by one batched arrowhead eigenproblem.

        With y = 1/s the equation is the secular equation
        y + (z - c sum w a) + sum c w a^2 / (y + a) = 0, whose k + 1 roots
        are the eigenvalues of the complex-symmetric arrowhead matrix with
        diagonal -a_1 .. -a_k, c sum w a - z and border i sqrt(c w) a.  The
        root kept is the one with the largest Im s.  The cost grows as k^3;
        the forward solve pays it on its seed and retry lanes only.
        """
        k = self.atoms.size
        diag = np.arange(k)
        border = 1j * np.sqrt(c * self.weights) * self.atoms
        m = np.zeros((z.size, k + 1, k + 1), dtype=complex)
        m[:, diag, diag] = -self.atoms
        m[:, diag, k] = m[:, k, diag] = border
        m[:, k, k] = c * self.mean() - z
        s = 1.0 / np.linalg.eigvals(m)
        return s[np.arange(z.size), np.argmax(s.imag, axis=1)]

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

    def _raw_cdf(self, x, upper=False):
        """Unclipped CDF at x >= 0, or one minus it when ``upper``."""
        gamma = special.gammaincc if upper else special.gammainc
        out = np.zeros_like(x)
        for j, a in enumerate(self.full_coeffs):
            # integral of t^j e^-t from 0 to x is j! times the regularized
            # lower incomplete gamma function of order j+1
            out += a * math.factorial(j) * gamma(j + 1, x)
        return out

    def cdf(self, x):
        x = np.asarray(x, dtype=float)
        out = self._raw_cdf(np.clip(x, 0.0, None))
        out = np.clip(np.where(x < 0.0, 0.0, out), 0.0, 1.0)
        return out if out.ndim else float(out)

    def _sf(self, x):
        out = self._raw_cdf(np.clip(x, 0.0, None), upper=True)
        return np.clip(np.where(x < 0.0, 1.0, out), 0.0, 1.0)

    def quantile(self, prob):
        """Safeguarded Newton from the quantile of the gamma law whose shape
        is the model's mean.  It solves the raw F(x) = p up to p = 1/2, in
        log x, and the raw S(x) = 1 - p above, in x, each on the log of the
        function, where the power-law lower tail and the exponential upper
        tail are near straight lines; the raw functions change sign where
        the clipped ones do.  Each evaluation shrinks the lane's bracket; a
        step that leaves it or meets a value or density <= 0 is replaced by
        bisection, in log x for F.  A lane retires once its step or bracket
        is at rounding level, within the bisection's 64 steps."""
        p = _as_prob_array(prob)
        scalar = p.ndim == 0
        p = np.atleast_1d(p)
        top = 64.0
        while self.cdf(top) < p.max(initial=0.0):
            top *= 2.0
            if top > 1e9:
                raise ValueError("quantile bracket failed to close")
        rounding, normal = 4.0 * np.finfo(float).eps, np.finfo(float).tiny
        shape = max(self.mean(), 0.5)   # a dipping density can have mean <= 0
        out = np.empty_like(p)
        for upper in (False, True):
            lanes = np.flatnonzero((p > 0.5) == upper)
            want = 1.0 - p[lanes] if upper else p[lanes]   # exact above 1/2
            x = (special.gammainccinv if upper else special.gammaincinv)(shape, want)
            x = np.where((x > 0.0) & (x < top), x, 0.5 * top)   # also catches nan
            lo, hi = np.zeros_like(x), np.full_like(x, top)
            live = np.arange(x.size)
            for _ in range(64):
                if not live.size:
                    break
                xs, value = x[live], self._raw_cdf(x[live], upper)
                below = value > want[live] if upper else value < want[live]
                lo[live] = l = np.where(below, xs, lo[live])
                hi[live] = h = np.where(below, hi[live], xs)
                slope = self.density(xs)
                with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
                    step = np.log(value / want[live]) * value / slope
                    newton = xs + step if upper else xs * np.exp(-step / xs)
                settled = (slope > 0.0) & (np.abs(newton - xs) <= rounding * xs)
                inside = (slope > 0.0) & (newton > l) & (newton < h)
                split = (0.5 * (l + h) if upper else
                         np.clip(np.sqrt(np.maximum(l, normal)) * np.sqrt(h), l, h))
                x[live] = np.where(settled, np.clip(newton, l, h),
                                   np.where(inside, newton, split))
                live = live[~(settled | (h - l <= rounding * h))]
            out[lanes] = x
        return float(out[0]) if scalar else out

    def mean(self) -> float:
        return float(sum(a * math.factorial(j + 1)
                         for j, a in enumerate(self.full_coeffs)))

    def _distance_breaks(self):
        # Besides the fixed panels, split where the raw CDF leaves [0, 1]:
        # cdf clips it there, which puts a kink in the integrand.  The raw
        # CDF is monotone between the density's sign changes, so each such
        # stretch holds at most one exit through 0 and one through 1.
        poly = np.polynomial.polynomial
        turns = poly.polyroots(poly.polytrim(self.full_coeffs))
        turns = np.sort(turns[np.isreal(turns)].real)
        ends = np.concatenate([[0.0], turns[(turns > 0.0) & (turns < _W_CUT)],
                               [_W_CUT]])
        breaks = [0.0, _W_SPLIT, _W_CUT]
        for upper in (False, True):
            raw = self._raw_cdf(ends, upper)
            for k in np.flatnonzero(raw[:-1] * raw[1:] < 0.0):
                breaks.append(optimize.brentq(
                    lambda x: float(self._raw_cdf(x, upper)),
                    ends[k], ends[k + 1]))
        return np.array(breaks)

    def support(self):
        return ((0.0, math.inf),)

    @cached_property
    def _folded_weights(self):
        """Gauss-Laguerre weights of K1 and K2 at complex s, with the
        polynomial folded in: one matrix-vector product per kernel instead
        of one per moment."""
        x, w = _GL_LAGUERRE
        wp = w * x * np.polynomial.polynomial.polyval(x, self.full_coeffs)
        return wp, wp * x

    def kernel(self, s):
        if np.iscomplexobj(s):
            w1, w2 = self._folded_weights
            # one (nodes x lanes) buffer, worked in place: temporaries of
            # this size cost more to allocate than to fill
            inv = np.multiply.outer(_GL_LAGUERRE[0], s)
            inv += 1.0
            np.divide(1.0, inv, out=inv)
            k1 = w1 @ inv
            inv *= inv
            return k1, w2 @ inv
        vals, ders = _laguerre_moments(s, self.degree)
        return self.full_coeffs @ vals, -(self.full_coeffs @ ders)

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
        out = 1.0 - self._sf(np.asarray(x, dtype=float))
        return out if out.ndim else float(out)

    def _sf(self, x):
        inside = x >= self.alpha
        tail = (1.0 - self.alpha) ** 2 / np.where(inside, x - self.shift, 1.0) ** 2
        return np.where(inside, tail, 1.0)

    def quantile(self, prob):
        p = _as_prob_array(prob)
        out = self.shift + (1.0 - self.alpha) / np.sqrt(1.0 - p)
        return out if out.ndim else float(out)

    def mean(self) -> float:
        return 1.0

    def _distance_breaks(self):
        # alpha, then points 4, 16, ... times as far from the pole, up to
        # one at least 2 above it; the tail beyond is smooth in 1/x
        scale = 1.0 - self.alpha
        n = max(1, math.ceil(0.5 * math.log2(2.0 / scale)))
        return np.append(self.alpha, self.shift + scale * _W_GRADE ** np.arange(1, n + 1))

    def support(self):
        return ((self.alpha, math.inf),)

    def kernel(self, s):
        return _inverse_cubic_kernel(self.alpha, s)

    @property
    def theta(self) -> NDArray:
        return np.array([self.alpha])

    def to_dict(self) -> dict:
        return {"kind": self.kind, "alpha": self.alpha}


# ---------------------------------------------------------------------------
# first-order transport distance W1 = int |F_a - F_b| dx


def wasserstein(a: PSDModel, b: PSDModel) -> float:
    """First-order transport distance W1 = int |F_a - F_b| dx.

    One rule for every pair: 64-node Gauss-Legendre panels between 0,
    both models' ``_distance_breaks`` and every crossing of F_a - F_b, and
    one last panel from the last break X to infinity, taken in v = X / x
    on (0, 1] from the survival functions 1 - F.  A panel [lo, hi] with
    lo > 0 is cut geometrically to hi / lo <= 16, lest a far atom leave an
    inverse-cubic tail on one wide panel.  A step CDF is constant between
    breaks, so an atomic pair gives the step sum to rounding.  The panels
    depend only on the unordered pair, and W(a, a) is exactly 0.
    """
    edges = np.unique(np.concatenate([[0.0], a._distance_breaks(),
                                      b._distance_breaks()]))
    x, weights, diff = _w_panels(a, b, edges)
    crossings = _w_crossings(a, b, x, diff)
    if crossings:
        x, weights, diff = _w_panels(a, b, np.union1d(edges, crossings))
    return float(np.sum(np.abs(diff[:, 1:-1]) * weights))


def _w_panels(a, b, edges):
    """Rule for W1 on the panels between ``edges`` (rising, from 0) and
    from the last of them to infinity.

    Returns the sample points x, one row per panel holding the panel's
    start, its nodes in increasing order and the left limit at its end;
    the node weights; and F_a - F_b at x.
    """
    # cut wide panels, from the top down so that the lower indices hold
    for k in np.flatnonzero(edges[2:] > _W_SPAN * edges[1:-1])[::-1] + 1:
        lo, hi = np.log(edges[k:k + 2])
        m = math.ceil((hi - lo) / math.log(_W_SPAN))
        edges = np.insert(edges, k + 1, np.exp(lo + (hi - lo) * np.arange(1, m) / m))
    half = 0.5 * np.diff(edges)
    x = np.empty((edges.size, _W_NODES + 2))
    x[:, 0] = edges
    x[:-1, 1:-1] = (edges[:-1] + half)[:, None] + np.outer(half, _W_T)
    x[-1, 1:-1] = edges[-1] / _W_V
    # just below each panel's end, where a step CDF has not yet jumped at an
    # atom there; the tail ends at inf itself (below it, a square overflows)
    x[:-1, -1] = np.nextafter(edges[1:], -np.inf)
    x[-1, -1] = np.inf
    # on a panel a few ulps wide the nodes round onto its ends, or below it
    np.clip(x[:-1, 1:-1], edges[:-1, None], x[:-1, -1:], out=x[:-1, 1:-1])
    weights = np.vstack([np.outer(half, _W_WEIGHTS), edges[-1] * _W_V_WEIGHTS])
    diff = np.empty_like(x)
    diff[:-1] = a.cdf(x[:-1]) - b.cdf(x[:-1])
    # both CDFs are near one in the tail; their survival functions are not
    diff[-1] = b._sf(x[-1]) - a._sf(x[-1])
    return x, weights, diff


def _w_crossings(a, b, x, diff):
    """Roots of F_a - F_b between sign changes inside each panel's row."""
    sign = np.where(np.abs(diff) > _W_CROSS_FLOOR, np.sign(diff), 0.0).ravel()
    k = np.flatnonzero(sign)
    i, j = k[:-1], k[1:]
    flips = (i // x.shape[1] == j // x.shape[1]) & (sign[i] != sign[j])
    x = x.ravel()
    return [optimize.brentq(lambda t: float(a.cdf(t) - b.cdf(t)), x[p], x[q])
            for p, q in zip(i[flips], j[flips])]


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
    except (TypeError, KeyError):
        raise ValueError(f"unknown model kind {kind!r}") from None
    try:
        return builder(data)
    except KeyError as missing:
        raise ValueError(f"model dict for {kind!r} is missing {missing}") from None
    except TypeError as err:
        raise ValueError(f"model dict for {kind!r} has a wrongly typed value: {err}") from None
