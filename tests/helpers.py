"""Shared closed forms and fixtures for the test suite.

The identity-covariance limit has explicit formulas; tests use them as
an independent check on the numerical transforms.  The exact-net helper
builds evaluation nets whose (u, s) pairs sit on a model's own curve, so
the least-squares objective at the true parameters vanishes to rounding.
"""

import numpy as np
from scipy import optimize

from psdfit import (Discrete, PSDModel, SampleSpectrum, mp_u_map,
                    support_bounds)
from psdfit.estimator import UNet
from psdfit.models import _gl_laguerre, _laguerre_kernel
from psdfit.mptransform import _positive_ratio, _u_map

# Case models from the simulation study
CASE1 = {"kind": "discrete", "atoms": [1.0, 2.0], "weights": [0.5, 0.5]}
CASE2 = {"kind": "discrete", "atoms": [1.0, 3.0, 5.0], "weights": [0.3, 0.4, 0.3]}
CASE3 = {"kind": "discrete", "atoms": [1.0, 5.0, 15.0], "weights": [0.3, 0.4, 0.3]}
CASE4 = {"kind": "laguerre", "alphas": [1.0]}
CASE5 = {"kind": "laguerre", "alphas": [1.0 / 9.0, 1.0 / 9.0, 1.0 / 9.0]}
FIGURE1 = {"kind": "discrete", "atoms": [2.0, 7.0, 10.0], "weights": [0.3, 0.4, 0.3]}


def identity_support(c):
    """Support interval ((1 - sqrt(c))^2, (1 + sqrt(c))^2) of the bulk."""
    r = np.sqrt(c)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


def identity_density(x, c):
    """Closed-form limiting density for an identity population covariance."""
    x = np.asarray(x, dtype=float)
    lo, hi = identity_support(c)
    inside = (x > lo) & (x < hi)
    f = np.zeros_like(x)
    xi = x[inside]
    f[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * np.pi * c * xi)
    return f


def identity_companion_root(u, c):
    """Real companion-transform root for the identity population model.

    From u*s^2 + (u + 1 - c)*s + 1 = 0, taking the branch that matches
    -1/u as c -> 0 (the one on the monotone piece below the support).
    """
    b = u + 1.0 - c
    disc = np.sqrt(b * b - 4.0 * u)
    r1 = (-b + disc) / (2.0 * u)
    r2 = (-b - disc) / (2.0 * u)
    return r2 if u < 0 else r1


def laguerre_moments(s, degree):
    """I_j(s) = int t^{j+1} e^-t / (1 + t s) dt, j = 0..degree, and dI_j/ds
    at a 1-d array of real s > 0, each of shape (degree + 1, s.size): K1
    and -K2 of ``_laguerre_kernel`` for the monomial rows t^j with
    identity coefficients, as ``fit_laguerre`` passes them."""
    x, w = _gl_laguerre()
    vals, k2 = _laguerre_kernel(w * x ** np.arange(1, degree + 2)[:, None],
                                np.eye(degree + 1), s)
    return vals, -k2


def dummy_spectrum(p, n):
    """A syntactically valid spectrum carrying only its (p, n) ratio."""
    eigs = np.linspace(1.0, 2.0, min(p, n))
    if p > n:
        eigs = np.concatenate([eigs, np.zeros(p - n)])
    return SampleSpectrum(eigs, p, n)


def full_gram_spectrum(population, n, seed):
    """Spectrum of (1/n) X X' with X drawn in full.

    Row i of X is sqrt(population[i]) times n standard normals, as one
    p-by-n draw.  ``sample_spectrum`` draws the same law through the
    Bartlett decomposition, from another random stream; the frozen
    Nelder-Mead objectives in ``test_estimator.py`` were reached on nets
    drawn this way, so that panel draws its nets here.
    """
    pop = np.asarray(population, dtype=float)
    x = np.sqrt(pop)[:, None] * np.random.default_rng(seed).standard_normal((pop.size, n))
    return SampleSpectrum(np.linalg.eigvalsh(x @ x.T / n)[::-1], pop.size, n)


def solve_companion_real(u: float, model: PSDModel, c) -> float:
    """Real companion-transform value at a point u outside the support.

    Runs ``support_bounds(model, c)``, finds the increasing branch whose
    image contains u and solves u(y) = u there by ``brentq`` in y = -1/s,
    in which the map rises with slope at most 1.  The bracket is the
    branch (-1/s_lo, -1/s_hi), and only an end at s = 0, where y is
    infinite, needs u to close it: y < u right of the support, and
    y > u - c * mean on the positive branch (y < 0; a density with
    negative parts can break this, and then the end is pushed out until
    it brackets the root).  Points inside the support (or at zero) have
    no real solution and raise ValueError.
    """
    u = float(u)
    c = _positive_ratio(c)
    rep = support_bounds(model, c)
    # u(y) - u, with u(0) = 0 (s = +-inf) taken by value
    f = lambda y: (_u_map(-1.0 / y, model, c) if y else 0.0) - u
    for (s_lo, s_hi), (u_lo, u_hi) in zip(rep.branches, rep.complement):
        if not (u_lo < u < u_hi):
            continue
        y_hi = -1.0 / s_hi if s_hi else u     # gap right of the support
        if s_lo:
            y_lo = -1.0 / s_lo
        else:                                 # positive branch
            width = max(c * model.mean(), abs(u)) or 1.0
            while not f(u - width) < 0.0 and width < 1e300:   # negative parts
                width *= 2.0
            y_lo = u - width
        y = optimize.brentq(f, y_lo, y_hi, xtol=1e-300, rtol=8.9e-16)
        return -1.0 / y
    raise ValueError(f"u={u!r} lies inside the limiting spectrum support")


def exact_net(model, c, u_targets, p=100):
    """Evaluation net lying exactly on a model's spectrum-point curve.

    Each target u is replaced by the model's own image of the solved
    root, so the pair satisfies the defining equation bitwise.  The net's
    spectrum has p / n equal to c, the ratio the fitters read from it.
    """
    n = max(1, round(p / c))
    assert p / n == c, f"no n gives p / n == {c} for p = {p}"
    roots = np.array([solve_companion_real(u, model, c) for u in u_targets])
    points = np.array([mp_u_map(s, model, c) for s in roots])
    return UNet(points, roots, ("exact",) * len(roots), len(roots),
                dummy_spectrum(p, n))


def scalar_companion_solve(z, model, c, damping=0.5, tol=1e-10, max_iter=2000):
    """One-point damped fixed point plus Newton, one complex scalar at a time.

    The solver the batched ``lsd_density_curve`` replaced, kept as the
    reference for its per-point iteration.  Raises AssertionError when it
    does not converge, when a Newton slope vanishes, or when the root it
    reaches lies off the upper half plane, where the companion transform
    cannot be.
    """
    s = -1.0 / z
    kernel_at = lambda s: [complex(k[0]) for k in model.kernel(np.array([s]))]

    def accept(s):
        assert s.imag > 0.0, f"reference root {s!r} at z={z!r} has Im s <= 0"
        return s

    for k in range(min(600, max_iter)):
        k1, _ = kernel_at(s)
        residual = abs(-1.0 / s + c * k1 - z)
        if residual < tol:
            return accept(s)
        if residual < max(tol, 1e-6) and k >= 5:
            break
        s = (1.0 - damping) * s + damping * (-1.0 / (z - c * k1))
    for _ in range(60):
        k1, k2 = kernel_at(s)
        r = -1.0 / s + c * k1 - z
        if abs(r) < tol:
            return accept(s)
        slope = 1.0 / s**2 - c * k2
        assert slope != 0.0, f"reference Newton slope vanished at z={z!r}"
        s = s - r / slope
    raise AssertionError(f"reference solve failed at z={z!r}")


def companion_root(model, c, z):
    """Upper-half-plane root s of z s P(s) + P(s) - c s Q(s) for an atomic model.

    P(s) = prod (1 + a_i s) and Q(s) = sum_i w_i a_i prod_{j != i} (1 + a_j s),
    so the polynomial's roots solve z = -1/s + c K1(s) exactly.
    """
    poly = np.polynomial.polynomial
    p = np.array([1.0])
    for a in model.atoms:
        p = poly.polymul(p, [1.0, a])
    q = np.zeros(1)
    for i, (a, w) in enumerate(zip(model.atoms, model.weights)):
        term = np.array([w * a])
        for j, b in enumerate(model.atoms):
            if j != i:
                term = poly.polymul(term, [1.0, b])
        q = poly.polyadd(q, term)
    roots = poly.polyroots(poly.polysub(poly.polyadd(z * poly.polymulx(p), p),
                                        c * poly.polymulx(q)))
    return roots[np.argmax(roots.imag)]
