"""Transforms linking a population spectrum model to its limiting sample spectrum.

The central objects are the companion Stieltjes transform of a sample
spectrum and the model-side map that sends a candidate transform value s
to the spectrum point

    u(s) = -1/s + c * integral t / (1 + t s) dH(t),

where H is the population model, whose ``kernel`` method supplies the
integral together with the K2(s) = integral t^2 / (1 + t s)^2 dH(t) of
the slope du/ds = 1/s^2 - c * K2(s), and c the dimension-to-sample
aspect ratio.  Restricted to the set where du/ds > 0 (and -1/s avoids the
model support), this map is a monotone bijection onto the complement of
the limiting sample spectrum support, which is what the whole estimation
strategy rests on.  This module evaluates the map, solves the defining
equation in the upper half plane, recovers the limiting spectral
density, and locates the support: in y = -1/s the map
rises where g(y) = c * integral t^2 / (y - t)^2 dH(t) < 1, and g is convex
on every gap of the model support, so the support edges are the images
of the roots of g = 1, at most two per gap.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from functools import cache

import numpy as np
from numpy.typing import NDArray
import scipy

from .errors import IterationError, NearPoleError, PoleError, _whole
from .models import Discrete, PSDModel

__all__ = [
    "SampleSpectrum",
    "DensityCurve",
    "SupportReport",
    "companion_stieltjes",
    "mp_u_map",
    "companion_transform",
    "lsd_density_curve",
    "support_bounds",
]

# mp_u_map rejects a real s < 0 when |1 + t s| at the support point t
# nearest the pole p = -1/s is below this; |1 + t s| = |t - p| / p is the
# pole's distance from the support relative to p, not the distance itself
POLE_GUARD = 1e-6

_EIG_TOL = 1e-12      # how close a transform argument may sit to an eigenvalue
_CLAMP_TOL = 1e-10    # sample eigenvalues below -this are rejected, above clamped


@dataclass(frozen=True, eq=False)
class SampleSpectrum:
    """Eigenvalues of a sample covariance matrix, stored descending.

    For p > n the spectrum carries its p - n structural zeros explicitly,
    as several transform identities rely on them; of the p values, those
    past the first min(p, n) may be left out and are filled in as zeros.
    """

    eigenvalues: NDArray
    p: int
    n: int

    def __post_init__(self):
        p, n = _whole(self.p, "p"), _whole(self.n, "n")
        if p <= 0 or n <= 0:
            raise ValueError("p and n must be positive")
        eig = np.asarray(self.eigenvalues, dtype=float).ravel()
        if not min(p, n) <= eig.size <= p:
            raise ValueError(f"expected {p} eigenvalues, got {eig.size}")
        if not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalues must be finite")
        if eig.min(initial=0.0) < -_CLAMP_TOL:
            raise ValueError(f"eigenvalue {eig.min():.3e} is negative beyond tolerance")
        eig = np.concatenate([np.where(eig < 0.0, 0.0, eig), np.zeros(p - eig.size)])
        eig = np.sort(eig)[::-1].copy()
        if p > n and np.count_nonzero(eig == 0.0) < p - n:
            raise ValueError(f"spectrum with p > n needs at least {p - n} exact zeros")
        eig.flags.writeable = False
        object.__setattr__(self, "eigenvalues", eig)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "n", n)

    def largest(self) -> float:
        return float(self.eigenvalues[0])

    def smallest_positive(self) -> float:
        pos = self.eigenvalues[self.eigenvalues > 0.0]
        if pos.size == 0:
            raise ValueError("spectrum has no positive eigenvalues")
        return float(pos[-1])


@dataclass(frozen=True, eq=False)
class DensityCurve:
    """A density sampled on a strictly increasing grid."""

    x: NDArray
    f: NDArray

    def __post_init__(self):
        x = np.asarray(self.x, dtype=float).ravel()
        f = np.asarray(self.f, dtype=float).ravel()
        if x.size != f.size or x.size == 0:
            raise ValueError("x and f must be matching nonempty arrays")
        if not (np.all(np.isfinite(x)) and np.all(np.isfinite(f))):
            raise ValueError("curve values must be finite")
        if np.any(np.diff(x) <= 0.0):
            raise ValueError("x must be strictly increasing")
        if f.min(initial=0.0) < -1e-9:
            raise ValueError(f"density value {f.min():.3e} is negative beyond tolerance")
        f = np.where(f < 0.0, 0.0, f)
        x = x.copy()
        x.flags.writeable = False
        f.flags.writeable = False
        object.__setattr__(self, "x", x)
        object.__setattr__(self, "f", f)

    def mass(self) -> float:
        """Trapezoid integral of the curve."""
        return float(np.sum(np.diff(self.x) * (self.f[1:] + self.f[:-1]) / 2.0))


def companion_stieltjes(spectrum: SampleSpectrum, u):
    """Companion Stieltjes transform of a sample spectrum at real u.

    Evaluates -(1 - p/n)/u + (1/n) * sum_l 1/(lambda_l - u).  Arguments
    within 1e-12 of an eigenvalue (or of zero) raise PoleError.
    """
    u_arr = np.asarray(u, dtype=float)
    eig = spectrum.eigenvalues
    diffs = np.subtract.outer(eig, u_arr)
    gap = np.min(np.abs(diffs), axis=0)
    if np.any(gap < _EIG_TOL) or np.any(np.abs(u_arr) < _EIG_TOL):
        bad = np.abs(u_arr) < _EIG_TOL
        nearest = np.unravel_index(np.argmin(np.abs(diffs)), diffs.shape)[0]
        where = 0.0 if np.any(bad) else float(eig[nearest])
        raise PoleError(f"u={u!r} sits on a pole of the transform", where=where)
    ratio = spectrum.p / spectrum.n
    out = -(1.0 - ratio) / u_arr + np.sum(1.0 / diffs, axis=0) / spectrum.n
    return out if out.ndim else float(out)


def _positive_ratio(c) -> float:
    """The aspect ratio as a float; ValueError unless it is positive and finite."""
    c = float(c)
    if not 0.0 < c < math.inf:
        raise ValueError("aspect ratio must be positive and finite")
    return c


def mp_u_map(s, model: PSDModel, c):
    """Spectrum point u(s) = -1/s + c * K1(s) for real companion values s.

    One pole guard applies to every model: an s < 0 whose pole -1/s has
    |1 + t s| < POLE_GUARD at the support point t nearest it raises
    NearPoleError with that t and margin.  A c outside (0, inf) is a ValueError.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr == 0.0):
        raise ValueError("companion value must be nonzero")
    c = _positive_ratio(c)
    # for s > 0 the pole is negative, so |1 + t s| > 1 at every t >= 0
    neg = s_arr[s_arr < 0.0]
    if neg.size:
        lo, hi = model._support_ends
        nearest = np.minimum(np.maximum((-1.0 / neg)[:, None], lo), hi)
        margin = np.abs(1.0 + nearest * neg[:, None])
        if margin.min() < POLE_GUARD:
            i, j = np.unravel_index(np.argmin(margin), margin.shape)
            raise NearPoleError(
                f"companion value {float(neg[i])!r} puts -1/s within the "
                f"guard of the support point {float(nearest[i, j])!r}",
                where=float(nearest[i, j]), margin=float(margin[i, j]))
    return _u_map(s_arr, model, c)


def _u_map(s, model, c):
    """u(s) at real s with no pole guard.  The support edges need it: for
    small c a branch end can lie within 1e-6 relative of a smooth model's
    support edge."""
    s = np.asarray(s, dtype=float)
    out = -1.0 / s + c * model.kernel(np.atleast_1d(s))[0].reshape(s.shape)
    return out if out.ndim else float(out)


# Grid points solved together: bounds the (quadrature nodes x points)
# kernel matrices on large grids.
_SOLVE_BLOCK = 2048
_SOLVE_TOL = 1e-10        # every point must reach |u(s) - z| below this
_SEED_STRIDE = 8          # every 8th point (and the last) is a seed
# A non-atomic model's surrogate takes its quantiles Q(p) at the 4
# Gauss-Legendre nodes p of (0, 1), with their weights: its K1 is the Gauss
# rule for integral_0^1 Q(p) / (1 + Q(p) s) dp
_surrogate_rule = cache(lambda: scipy.special.roots_sh_legendre(4))
_CONTINUE_STEPS = 12      # Newton budget of every start
_KEEP_IM = 0.1            # share of Im s a shortened Newton step keeps
_DENSITY_EPS = 1e-6       # curves read the transform at x + i*_DENSITY_EPS


def _newton_step(s, r, k2, c):
    """One Newton step on u(s) - z = r at every lane of s, where K2 = k2.

    A step that would leave the upper half plane is shortened so that the
    lane keeps the share _KEEP_IM of its Im s.  Far from the root the
    slope or the step can overflow; such lanes come back non-finite.
    """
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        slope = 1.0 / s**2 - c * k2
        step = -r / slope
        inside = s.imag + step.imag > 0.0
        scale = np.where(inside, 1.0, (1.0 - _KEEP_IM) * s.imag / -step.imag)
        return s + scale * step


def _iterate(z, s, model, c):
    """Newton from start values s at every lane of a 1-d block of z.

    At most _CONTINUE_STEPS steps; the kernel is evaluated once per step,
    only at the lanes still iterating, and its K2 serves the Newton step.
    This is the one place where a lane of the solve is accepted: when
    |u(s) - z| < _SOLVE_TOL with Im s > 0.  Returns s, the complex
    residual u(s) - z and K2 there, and the accepted lanes.
    """
    s = s.copy()
    r = np.full(z.size, np.inf, dtype=complex)
    k2 = np.zeros(z.size, dtype=complex)
    done = np.zeros(z.size, dtype=bool)
    live = np.arange(z.size)
    for _ in range(_CONTINUE_STEPS):
        if live.size == 0:
            break
        s_l = s[live]
        k1, k2[live] = model.kernel(s_l)
        r_l = -1.0 / s_l + c * k1 - z[live]
        r[live] = r_l
        converged = (np.abs(r_l) < _SOLVE_TOL) & (s_l.imag > 0.0)
        done[live[converged]] = True
        live, s_l, r_l = live[~converged], s_l[~converged], r_l[~converged]
        # only the residual test accepts a lane; one whose step overflows
        # ends here as a failure
        s_new = _newton_step(s_l, r_l, k2[live], c)
        ok = np.isfinite(s_new) & (s_new != 0.0)
        live = live[ok]
        s[live] = s_new[ok]
    return s, r, k2, done


def _continuation_starts(x, s, done, fresh):
    """Unsolved lanes with a freshly solved anchor, and their start values.

    A lane whose nearest solved lanes lie at most _SEED_STRIDE apart
    starts on the line through them.  Any other lane with a solved lane
    within _SEED_STRIDE (an edge stretch) starts on the line through it
    and the lane one further out, or at its value when that lane is
    unsolved.  Only lanes whose anchor is ``fresh`` are returned, so no
    lane repeats a start it has already failed from.
    """
    n = x.size
    idx = np.arange(n)
    left = np.maximum.accumulate(np.where(done, idx, -1))
    right = np.minimum.accumulate(np.where(done, idx, n)[::-1])[::-1]
    fresh = np.append(fresh, False)       # read at left = -1 and right = n
    gap = (left >= 0) & (right < n) & (right - left <= _SEED_STRIDE)
    by_l = (idx - left <= _SEED_STRIDE) & fresh[left]
    by_r = (right - idx <= _SEED_STRIDE) & fresh[right]
    lanes = np.flatnonzero(~done & np.where(gap, fresh[left] | fresh[right], by_l | by_r))
    by_l, gap, i = by_l[lanes], gap[lanes], lanes
    near = np.where(gap | by_l, left[i], right[i])
    far = np.where(gap, right[i], np.where(by_l, near - 1, near + 1))
    far = np.where((far >= 0) & (far < n), far, near)
    far = np.where(done[far], far, near)
    weight = (x[i] - x[near]) / np.where(far == near, np.inf, x[far] - x[near])
    start = s[near] + weight * (s[far] - s[near])
    # a start the line puts on or below the real axis keeps Re and takes
    # Im from the anchor
    return lanes, np.where(start.imag > 0.0, start, start.real + 1j * s[near].imag)


def _solve_block(z, model, c):
    """Companion values for a 1-d block of z, with each lane's residual.

    Every model takes the same path, Newton only: the solve continues
    along the grid from its seeds, every _SEED_STRIDE-th point and the
    last.  A seed starts Newton at the exact root
    (``Discrete.companion_root``) of an atomic law: the model itself when
    it is ``Discrete``, else its surrogate, its quantiles at the 4
    Gauss-Legendre nodes of (0, 1) with their weights.  A seed that fails
    from there is an unsolved point like any other.  The points between
    two solved seeds start Newton from the line through them, all in one
    batch; then, wave by wave, the same is done for unsolved points between
    newly solved ones, and the other unsolved points with a newly solved
    one within _SEED_STRIDE start from the line through it and the point
    one further out, which carries the solve into the stretches near the
    support edges and across failed seeds.  Points still unsolved, other
    than seeds, start Newton once more at the atomic law's root; a point
    unsolved after that fails.  Every Newton start takes at most
    _CONTINUE_STEPS steps.  The equation has one root with Im s > 0
    (Silverstein and Bai 1995), so every path that is accepted found the
    same root; one more Newton step, from the K2 of the call that accepted
    it, polishes it so that the value does not depend on the path either.
    Converged lanes return s with residual < _SOLVE_TOL and Im s > 0.
    """
    s = np.empty(z.size, dtype=complex)
    r = np.full(z.size, np.inf, dtype=complex)
    k2 = np.zeros(z.size, dtype=complex)
    done = np.zeros(z.size, dtype=bool)

    def run(lanes, start):
        s[lanes], r[lanes], k2[lanes], done[lanes] = _iterate(z[lanes], start, model, c)

    if isinstance(model, Discrete):
        law = model
    else:   # tied quantiles, as of a law with atoms, merge into one heavier atom
        nodes, weights = _surrogate_rule()
        atoms, tied = np.unique(model.quantile(nodes), return_inverse=True)
        law = Discrete(atoms, np.bincount(tied, weights))
    seeds = np.unique(np.append(np.arange(0, z.size, _SEED_STRIDE), z.size - 1))
    run(seeds, law.companion_root(z[seeds], c))
    lanes, start = _continuation_starts(z.real, s, done, done)
    while lanes.size:
        solved = done.copy()
        run(lanes, start)
        lanes, start = _continuation_starts(z.real, s, done, done & ~solved)
    retry = ~done
    retry[seeds] = False        # the seeds started at the atomic root
    lanes = np.flatnonzero(retry)
    if lanes.size:
        run(lanes, law.companion_root(z[lanes], c))
    # a polished value is kept where it still passes the acceptance test
    lanes = np.flatnonzero(done)
    if lanes.size:
        polished = _newton_step(s[lanes], r[lanes], k2[lanes], c)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_p = -1.0 / polished + c * model.kernel(polished)[0] - z[lanes]
        keep = (np.abs(r_p) < _SOLVE_TOL) & (polished.imag > 0.0)
        s[lanes[keep]], r[lanes[keep]] = polished[keep], r_p[keep]
    return s, np.abs(r), done


def companion_transform(z, model: PSDModel, c):
    """Companion transform s(z): the root of z = -1/s + c*K1(s) with Im s > 0.

    ``z`` is a complex scalar or an array of any shape, and every element
    must be finite with Im z > 0, else ValueError.  The root with
    Im s > 0 is unique (Silverstein and Bai 1995); ``_solve_block`` says
    how it is reached.  The points are solved in blocks of
    ``_SOLVE_BLOCK``, within a block all together.  Returns s in the
    shape of z, or a complex for a scalar z, with |u(s) - z| < 1e-10 and
    Im s > 0 at every point, else raises IterationError ("no convergence
    to residual 1e-10 at z=...") for the first point that failed.
    """
    z_arr = np.asarray(z, dtype=complex)
    flat = z_arr.ravel()
    if not np.all(np.isfinite(flat)):
        raise ValueError(f"z must be finite, got {complex(flat[~np.isfinite(flat)][0])!r}")
    if not np.all(flat.imag > 0.0):
        raise ValueError("z must have positive imaginary part")
    c = _positive_ratio(c)
    out = np.empty(flat.size, dtype=complex)
    for start in range(0, flat.size, _SOLVE_BLOCK):
        block = slice(start, start + _SOLVE_BLOCK)
        s, residual, done = _solve_block(flat[block], model, c)
        if not done.all():
            i = int(np.argmin(done))
            raise IterationError(f"no convergence to residual {_SOLVE_TOL:g} "
                                 f"at z={complex(flat[start + i])!r}",
                                 residual=float(residual[i]))
        out[block] = s
    return out.reshape(z_arr.shape) if z_arr.ndim else complex(out[0])


def lsd_density_curve(model: PSDModel, c, grid) -> DensityCurve:
    """Limiting sample spectral density on a positive grid.

    Solves for the companion transform at x + 1e-6 i at every grid point
    in one ``companion_transform`` call, so a point that fails raises its
    IterationError.  The companion transform is converted back to the
    spectrum's Stieltjes transform, whose imaginary part over pi is the
    density.  The curve integrates to min(1, 1/c); for c > 1 the
    remaining 1 - 1/c sits in a point mass at zero that a density grid
    cannot show.  A grid that is not finite is a ValueError.
    """
    x = np.asarray(grid, dtype=float).ravel()
    if not np.all(np.isfinite(x)):
        raise ValueError(f"grid must be finite, got {float(x[~np.isfinite(x)][0])!r}")
    if x.size == 0 or np.any(x <= 0.0):
        raise ValueError("grid must be nonempty with positive entries")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    c = _positive_ratio(c)
    z = x + 1j * _DENSITY_EPS
    s = companion_transform(z, model, c)
    stieltjes = (s + (1.0 - c) / z) / c
    return DensityCurve(x, np.maximum(stieltjes.imag, 0.0) / math.pi)


# ---------------------------------------------------------------------------
# support location


def _encode_endpoint(v):
    return None if math.isinf(v) else float(v)


@dataclass(frozen=True)
class SupportReport:
    """Where the limiting sample spectrum lives.

    ``branches`` are the maximal open s-intervals on which the spectrum
    point map increases (with -1/s off the model support); ``complement``
    holds their u-images, which tile the outside of the support; and
    ``support`` is what remains on the positive half line.  ``branches``
    and ``complement`` are aligned index by index.  For c > 1 an extra
    point mass of 1 - 1/c sits at zero.
    """

    support: tuple
    branches: tuple
    complement: tuple
    mass_at_zero: float

    def to_dict(self) -> dict:
        pack = lambda ivs: [[_encode_endpoint(a), _encode_endpoint(b)] for a, b in ivs]
        return {
            "support": pack(self.support),
            "branches": pack(self.branches),
            "complement": pack(self.complement),
            "mass_at_zero": self.mass_at_zero,
        }


def _support_gaps(model: PSDModel):
    """Components of the complement of the model support in (0, inf)."""
    gaps = []
    prev = 0.0
    for lo, hi in sorted(model.support()):
        if lo > prev:
            gaps.append((prev, lo))
        prev = max(prev, hi)
    if prev < math.inf:
        gaps.append((prev, math.inf))
    return gaps


@np.errstate(divide="ignore", invalid="ignore")    # see the docstring's last lines
def support_bounds(model: PSDModel, c) -> SupportReport:
    """Locate the limiting sample spectrum support for a model at ratio c.

    In y = -1/s the spectrum point map has slope du/dy = 1 - g(y), with
    g(y) = c s^2 K2(s) = c * integral t^2 / (y - t)^2 dH(t), so the
    increasing branches are where g < 1 (Silverstein and Choi 1995).  On
    each gap of the model support g is convex: it rises from 0 on the gap
    left of the support, falls to 0 on the gap right of it, and is
    infinite at every finite end of the support.  So each gap holds at
    most one branch, and the branch ends are roots of g = 1, found by
    ``brentq`` on 1 - 1/g, which is 1 at an end of the support:

    - left gap, split at y = 0 (s = +-inf), where g = c: for c <= 1 the
      positive branch is all of s > 0; for c > 1 it ends at the root in
      [-c * mean, 0], as g(y) <= c * mean / (4 |y|) for y < 0; for c < 1
      the branch in (0, lo) ends at the root in [max(0, lo (1 - 2 sqrt c)), lo],
      as g(y) <= c lo^2 / (lo - y)^2 there;
    - right gap (hi, inf): the root in [hi, hi (1 + 2 sqrt c)], as
      g(y) <= c hi^2 / (y - hi)^2 there;
    - bounded gaps (atomic models only): where the minimum of g, from one
      bounded scalar search on the gap scaled to (0, 1), is below 1, the
      roots on either side of it.

    Branch images are complement intervals of the support; the support is
    what they leave uncovered on (0, inf).  These bounds hold for a
    nonnegative law; a Laguerre density whose negative parts break the
    one at c > 1 (a mean <= 0, say) raises ValueError.  At a tiny c, an
    edge that rounds onto its support end, where the kernel overflows, is
    that end, and so is its image.
    """
    c = _positive_ratio(c)
    ends = {e for iv in model.support() for e in iv}

    def excess(y):
        # 1 - 1/g(y), with g(0) = c and g infinite at an end of the support
        if y == 0.0:
            return 1.0 - 1.0 / c
        if y in ends:
            return 1.0
        s = -1.0 / y
        return 1.0 - 1.0 / (c * s * s * float(model.kernel(np.array([s]))[1][0]))

    def root(a, b):
        y, result = scipy.optimize.brentq(excess, a, b, xtol=1e-300, rtol=8.9e-16,
                                          full_output=True, disp=False)
        if not result.converged:
            raise IterationError(f"no branch end found in the bracket y in [{a!r}, {b!r}]")
        return y

    def u_at(y):
        u = _u_map(-1.0 / y, model, c)
        return u if math.isfinite(u) else y

    # negative branches, one per gap of the model support, left to right
    branches, images = [], []
    for g_lo, g_hi in _support_gaps(model):
        if g_lo == 0.0:
            if c < 1.0:               # s -> -inf sends u to zero
                far = max(0.0, g_hi * (1.0 - 2.0 * math.sqrt(c)))
                y = root(far, g_hi) if excess(far) < 0.0 else float(g_hi)
                branches.append((-math.inf, -1.0 / y))
                images.append((0.0, u_at(y)))
        elif math.isinf(g_hi):        # s -> 0- sends u to +inf
            far = g_lo * (1.0 + 2.0 * math.sqrt(c))
            y = root(g_lo, far) if excess(far) < 0.0 else float(g_lo)
            branches.append((-1.0 / y, 0.0))
            images.append((u_at(y), math.inf))
        else:                         # searched in the gap's own unit, scale-free
            at = lambda t: g_lo + t * (g_hi - g_lo)
            low = scipy.optimize.minimize_scalar(lambda t: excess(at(t)), bounds=(0.0, 1.0),
                                                 method="bounded", options={"xatol": 1e-10})
            if low.fun < 0.0:
                y_lo, y_hi = root(g_lo, at(low.x)), root(at(low.x), g_hi)
                branches.append((-1.0 / y_lo, -1.0 / y_hi))
                images.append((u_at(y_lo), u_at(y_hi)))

    # positive branch, y < 0; for c <= 1 its image is all of (-inf, 0)
    if c <= 1.0:
        branches.append((0.0, math.inf))
        images.append((-math.inf, 0.0))
    else:
        far = -c * model.mean()
        if not excess(far) < 0.0:             # a density with negative parts
            raise ValueError(f"g(y) >= 1 at y = -c * mean = {far!r}: the model "
                             "is not a nonnegative law of positive mean")
        y = root(far, 0.0)
        branches.append((0.0, -1.0 / y))
        images.append((-math.inf, u_at(y)))

    # the support is what the images, which are disjoint, leave uncovered
    # on (0, inf): the stretches of positive width between neighbouring images
    by_u = sorted(images)
    starts = [max(hi, 0.0) for _, hi in by_u]
    stops = [lo for lo, _ in by_u[1:]] + [math.inf]
    return SupportReport(
        support=tuple((a, b) for a, b in zip(starts, stops) if b > a),
        branches=tuple(branches),
        complement=tuple(images),
        mass_at_zero=max(0.0, 1.0 - 1.0 / c) if c > 1.0 else 0.0,
    )
