"""Reference computations made apart from psdfit.

Everything here uses numpy and scipy directly and never calls into the
package under test, so the benchmark can check the program's outputs
against it:

- closed-form population CDFs and a first-order transport distance,
- companion-transform kernels K1(s) = int t / (1 + t s) dH(t) for each
  family (finite sums, the exponential integral, a logarithm),
- a continuation solver for the companion equation z = -1/s + c K1(s)
  and the limiting sample density it gives,
- polynomial roots of that equation for atomic populations,
- the Marchenko-Pastur closed form for the identity population,
- the least-squares objective of the evaluation net.

Models are described by plain dicts in the package's JSON form
({"kind": "discrete", "atoms": [...], "weights": [...]}, ...), so that
nothing here depends on the package's model classes.
"""

from __future__ import annotations

import math

import numpy as np
from scipy import integrate, special


# ---------------------------------------------------------------------------
# population distributions

def atoms_of(spec):
    """(atoms, weights) of an atomic model dict, else None."""
    if spec["kind"] == "point_mass":
        return np.array([float(spec["at"])]), np.array([1.0])
    if spec["kind"] == "discrete":
        return np.asarray(spec["atoms"], float), np.asarray(spec["weights"], float)
    return None


def laguerre_coeffs(spec):
    """Full coefficients (a0, a1, ..., aq) of a Laguerre model dict."""
    free = np.asarray(spec["alphas"], float)
    facts = np.array([math.factorial(j) for j in range(1, free.size + 1)])
    return np.concatenate([[1.0 - facts @ free], free])


def cdf(spec, x):
    """Closed-form population CDF of a model dict at x."""
    x = np.asarray(x, float)
    at = atoms_of(spec)
    if at is not None:
        atoms, weights = at
        return (weights * (x[..., None] >= atoms)).sum(-1)
    if spec["kind"] == "laguerre":
        xp = np.clip(x, 0.0, None)
        out = sum(a * math.factorial(j) * special.gammainc(j + 1, xp)
                  for j, a in enumerate(laguerre_coeffs(spec)))
        return np.clip(out, 0.0, 1.0)
    if spec["kind"] == "inverse_cubic":
        alpha = float(spec["alpha"])
        u = np.where(x >= alpha, x - (2.0 * alpha - 1.0), 1.0)
        return np.where(x >= alpha, 1.0 - (1.0 - alpha) ** 2 / u**2, 0.0)
    raise ValueError(f"unknown kind {spec['kind']!r}")


def _upper_tail(spec):
    """A point beyond which both CDFs differ from one by < 1e-13."""
    at = atoms_of(spec)
    if at is not None:
        return float(at[0].max())
    if spec["kind"] == "laguerre":
        return 60.0
    # inverse cubic: 1 - F(x) = (1 - alpha)^2 / (x - a)^2
    return None


def w1(spec_a, spec_b):
    """W1 = int |F_a - F_b| dx from the closed-form CDFs.

    Atomic and Laguerre pairs integrate piecewise on (0, tail) with
    adaptive quadrature split at every atom.  Pairs with an inverse
    cubic integrate on the variable w = 1/(1 + x), which maps the
    heavy tail onto a finite interval.
    """
    tails = [_upper_tail(s) for s in (spec_a, spec_b)]
    breaks = {0.0}
    for spec in (spec_a, spec_b):
        if atoms_of(spec) is not None:
            breaks.update(atoms_of(spec)[0].tolist())
    breaks = sorted(breaks)
    f = lambda x: abs(float(cdf(spec_a, x) - cdf(spec_b, x)))
    if all(t is not None for t in tails):
        hi = max(tails)
        edges = [b for b in breaks if b < hi] + [hi]
        return float(sum(integrate.quad(f, lo, up, limit=200, epsabs=1e-13)[0]
                         for lo, up in zip(edges[:-1], edges[1:]) if up > lo))
    # x = 1/w - 1, dx = dw / w^2
    g = lambda w: f(1.0 / w - 1.0) / (w * w)
    pts = sorted({1.0 / (1.0 + b) for b in breaks if b > 0.0})
    for s in (spec_a, spec_b):
        if s["kind"] == "inverse_cubic":
            pts.append(1.0 / (1.0 + float(s["alpha"])))
    pts = sorted(p for p in set(pts) if 0.0 < p < 1.0)
    return float(integrate.quad(g, 0.0, 1.0, points=pts or None, limit=400,
                                epsabs=1e-12)[0])


# ---------------------------------------------------------------------------
# kernels K1(s) = int t / (1 + t s) dH(t) at complex s in the upper half plane

def _laguerre_k1(coeffs, s):
    # J_r = int t^r e^-t / (1 + t s) dt: J_0 = b e^b E1(b) with b = 1/s,
    # then J_{r+1} = (r! - J_r) / s; K1 = sum_j a_j J_{j+1}
    b = 1.0 / s
    j_r = b * np.exp(b) * special.exp1(b)
    out = np.zeros_like(s)
    fact = 1.0
    for r in range(coeffs.size):
        j_r = (fact - j_r) / s
        out = out + coeffs[r] * j_r
        fact *= r + 1
    return out


def _inverse_cubic_k1(alpha, s):
    # partial fractions of (u + a) / (u^3 (beta + u s)) with u = t - a,
    # beta = 1 + a s, integrated over u >= 1 - alpha
    a = 2.0 * alpha - 1.0
    u0 = 1.0 - alpha
    beta = 1.0 + a * s
    big_a = a / beta
    big_b = (1.0 - big_a * s) / beta
    big_c = -big_b * s / beta
    log_part = np.log(1.0 + alpha * s) - np.log(s) - math.log(u0)
    return 2.0 * u0**2 * (big_a / (2.0 * u0**2) + big_b / u0 + big_c * log_part)


def k1(spec, s):
    """K1(s) for a model dict, vectorized over complex s with Im s > 0."""
    s = np.asarray(s, complex)
    at = atoms_of(spec)
    if at is not None:
        atoms, weights = at
        return (weights * atoms) @ (1.0 / (1.0 + np.outer(atoms, s)))
    if spec["kind"] == "laguerre":
        return _laguerre_k1(laguerre_coeffs(spec), s)
    if spec["kind"] == "inverse_cubic":
        return _inverse_cubic_k1(float(spec["alpha"]), s)
    raise ValueError(f"unknown kind {spec['kind']!r}")


def k1_quad(spec, s):
    """K1 at one complex s by adaptive quadrature over the density."""
    s = complex(s)
    if spec["kind"] == "laguerre":
        coeffs = laguerre_coeffs(spec)
        dens = lambda t: np.polynomial.polynomial.polyval(t, coeffs) * math.exp(-t)
        lo, hi = 0.0, math.inf
    elif spec["kind"] == "inverse_cubic":
        alpha = float(spec["alpha"])
        dens = lambda t: 2.0 * (1.0 - alpha) ** 2 / (t - 2.0 * alpha + 1.0) ** 3
        lo, hi = alpha, math.inf
    else:
        raise ValueError("adaptive quadrature is only needed for densities")
    part = lambda fn: integrate.quad(lambda t: fn(t / (1.0 + t * s)) * dens(t),
                                     lo, hi, limit=400, epsabs=1e-14,
                                     epsrel=1e-12)[0]
    return complex(part(lambda v: v.real), part(lambda v: v.imag))


# ---------------------------------------------------------------------------
# companion equation and limiting density

def solve_companion(spec, c, z):
    """s(z) in the upper half plane with z = -1/s + c K1(s), vectorized.

    Starts far from the real axis, where s = -1/z is close, and walks
    the imaginary part of z down to its target in decades, with a few
    Newton steps (derivative by central differences) at each stage.
    """
    z = np.asarray(z, complex)
    target = z.imag
    s = -1.0 / (z.real + 10.0j)
    levels = [10.0 ** e for e in range(0, -20, -1)]
    for level in [lv for lv in levels if lv > target.min()] + [None]:
        zz = z.real + 1j * (target if level is None else np.maximum(target, level))
        for _ in range(60):
            g = -1.0 / s + c * k1(spec, s) - zz
            h = 1e-7 * np.abs(s)
            dg = ((-1.0 / (s + h) + c * k1(spec, s + h))
                  - (-1.0 / (s - h) + c * k1(spec, s - h))) / (2.0 * h)
            step = g / dg
            s_new = s - step
            # stay in the upper half plane
            s_new = np.where(s_new.imag > 0.0, s_new, s_new.real + 0.5j * s.imag)
            done = np.abs(g) < 1e-13 * np.maximum(1.0, np.abs(zz))
            s = np.where(done, s, s_new)
            if np.all(done):
                break
    return s


def density_from_s(s, z, c):
    """Limiting sample density Im((s + (1 - c)/z) / c) / pi."""
    return np.maximum(((s + (1.0 - c) / z) / c).imag, 0.0) / math.pi


def density(spec, c, x, eps=1e-6):
    """Reference limiting sample density at x + i eps."""
    z = np.asarray(x, float) + 1j * eps
    return density_from_s(solve_companion(spec, c, z), z, c)


def atomic_density(spec, c, x, eps=1e-6):
    """Density of an atomic population from the companion polynomial.

    With P(s) = prod (1 + a_i s) and Q(s) = sum_i w_i a_i prod_{j != i}
    (1 + a_j s), the equation z = -1/s + c Q/P becomes
    z s P + P - c s Q = 0; the root in the upper half plane is s(z).
    """
    atoms, weights = atoms_of(spec)
    poly = np.polynomial.polynomial
    p_s = np.array([1.0])
    for a in atoms:
        p_s = poly.polymul(p_s, [1.0, a])
    q_s = np.zeros(1)
    for i, (a, w) in enumerate(zip(atoms, weights)):
        term = np.array([w * a])
        for j, b in enumerate(atoms):
            if j != i:
                term = poly.polymul(term, [1.0, b])
        q_s = poly.polyadd(q_s, term)
    s_p = poly.polymulx(p_s)
    s_q = poly.polymulx(q_s)
    out = np.empty(len(x))
    for i, xi in enumerate(np.asarray(x, float)):
        z = complex(xi, eps)
        coef = poly.polysub(poly.polyadd(z * s_p, p_s), c * s_q)
        roots = poly.polyroots(coef)
        s = roots[np.argmax(roots.imag)]
        out[i] = density_from_s(s, z, c)
    return out


def mp_density(x, c):
    """Marchenko-Pastur density of the identity population at ratio c."""
    x = np.asarray(x, float)
    lo, hi = mp_edges(c)
    inside = (x > lo) & (x < hi)
    f = np.zeros_like(x)
    xi = x[inside]
    f[inside] = np.sqrt((hi - xi) * (xi - lo)) / (2.0 * math.pi * c * xi)
    return f


def mp_edges(c):
    r = math.sqrt(c)
    return (1.0 - r) ** 2, (1.0 + r) ** 2


# ---------------------------------------------------------------------------
# least-squares objective of the estimator

def companion_values(eigenvalues, p, n, u):
    """Companion Stieltjes transform of a sample spectrum at real u."""
    lam = np.asarray(eigenvalues, float)
    u = np.asarray(u, float)
    return -(1.0 - p / n) / u + (1.0 / (lam[:, None] - u[None, :])).sum(0) / n


def real_k1(spec, s):
    """K1 at real s off the poles, for the least-squares objective."""
    s = np.asarray(s, float)
    at = atoms_of(spec)
    if at is not None:
        atoms, weights = at
        return (weights * atoms) @ (1.0 / (1.0 + np.outer(atoms, s)))
    if spec["kind"] == "laguerre":
        coeffs = laguerre_coeffs(spec)
        out = np.empty(s.size)
        for i, si in enumerate(s):
            f = lambda t: (t / (1.0 + t * si)
                           * np.polynomial.polynomial.polyval(t, coeffs) * math.exp(-t))
            out[i] = integrate.quad(f, 0.0, math.inf, epsabs=1e-14, epsrel=1e-12,
                                    limit=200)[0]
        return out
    if spec["kind"] == "inverse_cubic":
        return _inverse_cubic_k1(float(spec["alpha"]), s.astype(complex)).real
    raise ValueError(f"unknown kind {spec['kind']!r}")


def objective(spec, points, svals, c):
    """Sum of squared gaps between net points and u(s) = -1/s + c K1(s)."""
    gap = np.asarray(points, float) - (-1.0 / np.asarray(svals, float)
                                       + c * real_k1(spec, svals))
    return float(gap @ gap)
