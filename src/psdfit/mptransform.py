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
equation in the upper half plane and on the real line, recovers the
limiting spectral density, and locates the support.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
from numpy.typing import NDArray
from scipy import integrate, optimize

from .errors import IterationError, NearPoleError, PoleError, ScanResolutionError
from .models import PSDModel

__all__ = [
    "SampleSpectrum",
    "DensityCurve",
    "SupportReport",
    "companion_stieltjes",
    "mp_u_map",
    "solve_companion_fixed_point",
    "solve_companion_real",
    "lsd_density_curve",
    "support_bounds",
]

# mp_u_map rejects a real s < 0 when |1 + t s| at the support point t
# nearest the pole p = -1/s is below this; |1 + t s| = |t - p| / p is the
# pole's distance from the support relative to p, not the distance itself
POLE_GUARD = 1e-6

_EIG_TOL = 1e-12      # how close a transform argument may sit to an eigenvalue
_CLAMP_TOL = 1e-10    # sample eigenvalues below -this are rejected, above clamped
_SCAN_GRID = 4000     # support-scan grid points, doubled at most
_SCAN_REFINE = 3      # this many times until the count of runs is stable


@dataclass(frozen=True, eq=False)
class SampleSpectrum:
    """Eigenvalues of a sample covariance matrix, stored descending.

    When the dimension p exceeds the sample count n the spectrum must
    carry its p - n structural zeros explicitly; several transform
    identities rely on them.
    """

    eigenvalues: NDArray
    p: int
    n: int

    def __post_init__(self):
        p, n = int(self.p), int(self.n)
        if p <= 0 or n <= 0:
            raise ValueError("p and n must be positive")
        eig = np.asarray(self.eigenvalues, dtype=float).ravel()
        if eig.size != p:
            raise ValueError(f"expected {p} eigenvalues, got {eig.size}")
        if not np.all(np.isfinite(eig)):
            raise ValueError("eigenvalues must be finite")
        if eig.min(initial=0.0) < -_CLAMP_TOL:
            raise ValueError(f"eigenvalue {eig.min():.3e} is negative beyond tolerance")
        eig = np.where(eig < 0.0, 0.0, eig)
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
        return float(integrate.trapezoid(self.f, self.x))


def companion_stieltjes(spectrum: SampleSpectrum, u):
    """Companion Stieltjes transform of a sample spectrum at real u.

    Evaluates -(1 - p/n)/u + (1/n) * sum_l 1/(lambda_l - u).  Arguments
    within 1e-12 of an eigenvalue (or of zero) raise PoleError.
    """
    u_arr = np.asarray(u, dtype=float)
    eig = spectrum.eigenvalues
    diffs = eig[..., None] - u_arr[None, ...] if u_arr.ndim else eig - u_arr
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
    """The aspect ratio as a float; ValueError unless it is positive."""
    c = float(c)
    if not c > 0.0:
        raise ValueError("aspect ratio must be positive")
    return c


def mp_u_map(s, model: PSDModel, c, *, guard=POLE_GUARD):
    """Spectrum point u(s) = -1/s + c * K1(s) for real companion values s.

    ``guard`` applies one rule to every model: an s < 0 whose pole -1/s
    has |1 + t s| < guard at the support point t nearest it raises
    NearPoleError with that t and margin; pass None to disable.  The
    degenerate c = 0 reduces the map to -1/s; c < 0 is a ValueError.
    """
    s_arr = np.asarray(s, dtype=float)
    if np.any(s_arr == 0.0):
        raise ValueError("companion value must be nonzero")
    c = float(c)
    if not c >= 0.0:
        raise ValueError("aspect ratio must be nonnegative")
    k1 = 0.0
    if c != 0.0:
        flat = np.atleast_1d(s_arr)
        # for s > 0 the pole is negative, so |1 + t s| > 1 at every t >= 0
        neg = flat[flat < 0.0]
        if guard is not None and neg.size:
            lo, hi = np.array(model.support()).T
            nearest = np.clip((-1.0 / neg)[:, None], lo, hi)
            margin = np.abs(1.0 + nearest * neg[:, None])
            i, j = np.unravel_index(np.argmin(margin), margin.shape)
            if margin[i, j] < guard:
                raise NearPoleError(
                    f"companion value {float(neg[i])!r} puts -1/s within the "
                    f"guard of the support point {float(nearest[i, j])!r}",
                    where=float(nearest[i, j]), margin=float(margin[i, j]))
        k1 = model.kernel(flat)[0].reshape(s_arr.shape)
    out = -1.0 / s_arr + c * k1
    return out if out.ndim else float(out)


# Grid points solved together: bounds the (quadrature nodes x points)
# kernel matrices on large grids.
_SOLVE_BLOCK = 2048
_FIXED_POINT_STEPS = 600
_NEWTON_STEPS = 60
_SOLVE_TOL = 1e-10        # every point must reach |u(s) - z| below this
_NEWTON_HANDOVER = 1e-6   # fixed-point residual that hands a lane to Newton
_DAMPING = 0.5
_SEED_STRIDE = 8          # smooth models: every 8th point (and the last) is a seed
_SEED_STEPS = 30          # fixed-point budget of a seed
_CONTINUE_STEPS = 12      # Newton budget of a seed and of a continued point
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


def _iterate(z, s, model, c, fp_steps, newton_steps):
    """Run every lane of a 1-d block of z from its start value s.

    At most ``fp_steps`` damped fixed-point steps, which cannot leave the
    upper half plane, bring the residual down to _NEWTON_HANDOVER (a lane
    takes at least 5); at most ``newton_steps`` Newton steps finish the
    remaining digits.  The kernel is evaluated once per step, only at the
    lanes still iterating, and its K2 serves the Newton step.  A lane is
    accepted when |u(s) - z| < _SOLVE_TOL with Im s > 0.  Returns s, the
    complex residual u(s) - z and K2 there, the accepted lanes and the
    ``degenerate`` lanes, whose fixed-point update broke down.
    """
    s = s.copy()
    r = np.full(z.size, np.inf, dtype=complex)
    k2 = np.zeros(z.size, dtype=complex)
    done = np.zeros(z.size, dtype=bool)
    degenerate = np.zeros(z.size, dtype=bool)
    live = np.arange(z.size)
    for k in range(fp_steps):
        if live.size == 0:
            break
        s_l, z_l = s[live], z[live]
        k1, k2[live] = model.kernel(s_l)
        r_l = -1.0 / s_l + c * k1 - z_l
        r[live] = r_l
        res = np.abs(r_l)
        converged = (res < _SOLVE_TOL) & (s_l.imag > 0.0)
        done[live[converged]] = True
        # lanes under the hand-over residual (after 5 steps) go to Newton
        stay = ~converged & ~((res < _NEWTON_HANDOVER) & (k >= 5))
        live, s_l = live[stay], s_l[stay]
        step_to = z_l[stay] - c * k1[stay]
        bad = (step_to == 0.0) | ~np.isfinite(step_to)
        degenerate[live[bad]] = True
        live, s_l, step_to = live[~bad], s_l[~bad], step_to[~bad]
        s[live] = (1.0 - _DAMPING) * s_l + _DAMPING * (-1.0 / step_to)
    live = np.flatnonzero(~done & ~degenerate)
    for _ in range(newton_steps):
        if live.size == 0:
            break
        s_l = s[live]
        k1, k2[live] = model.kernel(s_l)
        r_l = -1.0 / s_l + c * k1 - z[live]
        r[live] = r_l
        converged = (np.abs(r_l) < _SOLVE_TOL) & (s_l.imag > 0.0)
        done[live[converged]] = True
        live, s_l, r_l = live[~converged], s_l[~converged], r_l[~converged]
        if live.size == 0:
            break
        # only the residual test accepts a lane; one whose step overflows
        # ends here as a failure
        s_new = _newton_step(s_l, r_l, k2[live], c)
        ok = np.isfinite(s_new) & (s_new != 0.0)
        live = live[ok]
        s[live] = s_new[ok]
    return s, r, k2, done, degenerate


def _continuation_starts(x, s, done, fresh):
    """Unsolved lanes with a freshly solved anchor, and their start values.

    A lane whose nearest solved lanes lie at most _SEED_STRIDE apart
    starts on the line through them.  Any other lane beside a solved lane
    (an edge stretch) starts on the line through it and the next solved
    lane out, or at its value when that lane is unsolved.  Only lanes
    whose anchor is ``fresh`` are returned, so no lane repeats a start it
    has already failed from.
    """
    n = x.size
    idx = np.arange(n)
    left = np.maximum.accumulate(np.where(done, idx, -1))
    right = np.minimum.accumulate(np.where(done, idx, n)[::-1])[::-1]
    fresh = np.append(fresh, False)       # read at left = -1 and right = n
    by_l, by_r = np.append(False, done[:-1]), np.append(done[1:], False)
    gap = (left >= 0) & (right < n) & (right - left <= _SEED_STRIDE)
    lanes = np.flatnonzero(~done & np.where(gap, fresh[left] | fresh[right],
                                            by_l & fresh[left] | by_r & fresh[right]))
    by_l, gap, i = by_l[lanes], gap[lanes], lanes
    near = np.where(gap | by_l, left[i], right[i])
    far = np.where(gap, right[i], np.where(by_l, i - 2, i + 2))
    far = np.where((far >= 0) & (far < n), far, near)
    far = np.where(done[far], far, near)
    weight = (x[i] - x[near]) / np.where(far == near, np.inf, x[far] - x[near])
    start = s[near] + weight * (s[far] - s[near])
    # a start the line puts on or below the real axis keeps Re and takes
    # Im from the anchor
    return lanes, np.where(start.imag > 0.0, start, start.real + 1j * s[near].imag)


def _solve_block(z, model, c):
    """Companion values for a 1-d block of z, with each lane's residual.

    A model with a closed-form root (``companion_root``) starts every lane
    at it, and Newton checks the residual.  Otherwise the solve continues
    along the grid.  Every _SEED_STRIDE-th point and the last (the seeds)
    run _SEED_STEPS damped fixed-point steps from -1/z and then Newton.
    The points between two solved seeds start Newton from the line
    through them, all in one batch; then, wave by wave, the same is done
    for unsolved points between newly solved ones, and unsolved points
    beside a newly solved one with no solved point within _SEED_STRIDE
    on their other side start from the line through it and the next
    solved point out, which carries the solve into the stretches near the
    support edges where the fixed point is slow.  Points still unsolved
    run the fixed point from -1/z with the full 600 + 60 step budget.  The
    equation has one root with Im s > 0 (Silverstein and Bai 1995), so
    every path that is accepted found the same root; one more Newton step
    polishes it, from the K2 of the call that accepted it, so the value
    does not depend on the path either, and is kept where it still passes
    the acceptance test.  Converged lanes return s with residual
    < _SOLVE_TOL and Im s > 0; ``degenerate`` marks the lanes whose last
    fixed-point update broke down.
    """
    s = model.companion_root(z, c)
    if s is not None:
        s, r, _, done, degenerate = _iterate(z, s, model, c, 0, _NEWTON_STEPS)
        return s, np.abs(r), done, degenerate
    s = -1.0 / z
    r = np.full(z.size, np.inf, dtype=complex)
    k2 = np.zeros(z.size, dtype=complex)
    done = np.zeros(z.size, dtype=bool)
    lanes = np.unique(np.append(np.arange(0, z.size, _SEED_STRIDE), z.size - 1))
    fp_steps = _SEED_STEPS
    while lanes.size:
        s[lanes], r[lanes], k2[lanes], done[lanes], _ = _iterate(
            z[lanes], s[lanes], model, c, fp_steps, _CONTINUE_STEPS)
        fresh = np.zeros(z.size, dtype=bool)
        fresh[lanes] = done[lanes]
        lanes, s_start = _continuation_starts(z.real, s, done, fresh)
        s[lanes] = s_start
        fp_steps = 0
    degenerate = np.zeros(z.size, dtype=bool)
    lanes = np.flatnonzero(~done)
    s[lanes], r[lanes], k2[lanes], done[lanes], degenerate[lanes] = _iterate(
        z[lanes], -1.0 / z[lanes], model, c, _FIXED_POINT_STEPS, _NEWTON_STEPS)
    # a polished value is kept where it still passes the acceptance test
    lanes = np.flatnonzero(done)
    if lanes.size:
        polished = _newton_step(s[lanes], r[lanes], k2[lanes], c)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            r_p = -1.0 / polished + c * model.kernel(polished)[0] - z[lanes]
        keep = (np.abs(r_p) < _SOLVE_TOL) & (polished.imag > 0.0)
        s[lanes[keep]], r[lanes[keep]] = polished[keep], r_p[keep]
    return s, np.abs(r), done, degenerate


def _solve_companion(z, model, c):
    """Solve z = -1/s + c*K1(s) at every point of a 1-d complex array.

    Works through the points in blocks of ``_SOLVE_BLOCK``; within a block
    all points iterate together.  Returns s with |u(s) - z| < _SOLVE_TOL at
    every point, else raises IterationError for the first point that failed.
    """
    out = np.empty(z.size, dtype=complex)
    for start in range(0, z.size, _SOLVE_BLOCK):
        block = slice(start, start + _SOLVE_BLOCK)
        s, residual, done, degenerate = _solve_block(z[block], model, c)
        if not done.all():
            i = int(np.argmin(done))
            where = complex(z[start + i])
            why = ("fixed-point update degenerated" if degenerate[i]
                   else f"no convergence to residual {_SOLVE_TOL:g}")
            raise IterationError(f"{why} at z={where!r}",
                                 residual=float(residual[i]))
        out[block] = s
    return out


def solve_companion_fixed_point(z: complex, model: PSDModel, c) -> complex:
    """Solve z = -1/s + c*K1(s) for the companion transform value at z.

    ``z`` must lie in the open upper half plane.  An atomic model gives
    the root exactly, as an eigenvalue of its arrowhead matrix
    (``Discrete.companion_root``).  For other models a fixed-point
    iteration damped by 1/2 (which cannot leave the upper half plane)
    brings the residual down to 1e-6; close to the support edges its
    linear rate degrades, so Newton steps, shortened where they would
    leave the upper half plane, finish the remaining digits: first 30
    fixed-point and 12 Newton steps, then, if those fail, 600 and 60
    from the start again.  One more Newton step polishes the root.  The
    returned value satisfies |u(s) - z| < 1e-10 and Im s > 0, else
    IterationError.  This is the one-point case of the solve
    ``lsd_density_curve`` runs on a whole grid at once, where most
    points start Newton from their solved neighbours instead.
    """
    z = complex(z)
    if not (z.imag > 0.0):
        raise ValueError("z must have positive imaginary part")
    s = _solve_companion(np.array([z]), model, _positive_ratio(c))
    return complex(s[0])


def lsd_density_curve(model: PSDModel, c, grid) -> DensityCurve:
    """Limiting sample spectral density on a positive grid.

    Solves the companion equation at x + 1e-6 i for every grid point in
    one batched solve, as ``solve_companion_fixed_point`` does for one
    point: atomic models by one eigenvalue call on a stack of arrowhead
    matrices; other models by the fixed point and then Newton at every
    8th point, and by Newton from the line through solved neighbours at
    the others (continuation along the grid), with the one-point solve
    as the fallback.  Each point must reach |u(s) - z| < 1e-10 with
    Im s > 0, else IterationError names the first failing point.  The
    companion transform is converted back to the spectrum's Stieltjes
    transform, whose imaginary part over pi is the density.  The curve
    integrates to min(1, 1/c); for c > 1 the remaining 1 - 1/c sits in a
    point mass at zero that a density grid cannot show.
    """
    x = np.asarray(grid, dtype=float).ravel()
    if x.size == 0 or np.any(x <= 0.0):
        raise ValueError("grid must be nonempty with positive entries")
    if np.any(np.diff(x) <= 0.0):
        raise ValueError("grid must be strictly increasing")
    c = _positive_ratio(c)
    z = x + 1j * _DENSITY_EPS
    s = _solve_companion(z, model, c)
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


def _cluster_grid(a: float, b: float, n: int) -> NDArray:
    # log-clustered toward both endpoints; the derivative diverges at poles
    span = b - a
    half = np.geomspace(span * 1e-9, span * 0.5, n // 2)
    return np.unique(np.concatenate([a + half, b - half]))


def _positive_runs(values: NDArray):
    """Index ranges [i0, i1] of maximal runs with values > 0."""
    pos = values > 0.0
    if not pos.any():
        return []
    edges = np.flatnonzero(np.diff(pos.astype(int)))
    starts = [0] if pos[0] else []
    starts += [int(e) + 1 for e in edges if pos[e + 1]]
    ends = [int(e) for e in edges if pos[e]]
    ends += [pos.size - 1] if pos[-1] else []
    return list(zip(starts, ends))


def _scan_region(deriv, xs: NDArray):
    """Runs of deriv > 0 over the grid, with boundaries refined by brentq."""
    vals = deriv(xs)
    runs = []
    for i0, i1 in _positive_runs(vals):
        left = xs[i0] if i0 == 0 else optimize.brentq(
            lambda t: deriv(np.array([t]))[0], xs[i0 - 1], xs[i0], xtol=1e-13)
        right = xs[i1] if i1 == vals.size - 1 else optimize.brentq(
            lambda t: deriv(np.array([t]))[0], xs[i1], xs[i1 + 1], xtol=1e-13)
        runs.append((left, right, i0 == 0, i1 == vals.size - 1))
    return runs


def _scan_with_refinement(deriv, a, b):
    count = None
    for level in range(_SCAN_REFINE + 1):
        n = _SCAN_GRID * 2**level
        runs = _scan_region(deriv, _cluster_grid(a, b, n))
        check = _scan_region(deriv, _cluster_grid(a, b, 2 * n + 1))
        if len(runs) == len(check):
            return check
        count = (len(runs), len(check))
    raise ScanResolutionError(
        f"sign-change count did not stabilize ({count[0]} vs {count[1]} runs); "
        f"the scan grid is too coarse for this model")


def support_bounds(model: PSDModel, c) -> SupportReport:
    """Locate the limiting sample spectrum support for a model at ratio c.

    Scans the increasing branches of the spectrum point map: the positive
    branch analytically (its derivative has a single monotone sign change)
    and one scan per gap of the model support for the negative branches,
    on a 4000-point grid clustered toward the gap ends and doubled up to
    three times until the count of increasing runs is stable.
    Branch images are complement intervals of the support; the support is
    what they leave uncovered on (0, inf).
    """
    c = _positive_ratio(c)
    u_at = lambda s: float(mp_u_map(s, model, c, guard=None))
    k2 = lambda s_arr: model.kernel(s_arr)[1]

    branches, images = [], []

    # positive branch: du/ds > 0 on (0, s*) where c*s^2*K2(s) crosses 1;
    # for c <= 1 the crossing never happens and the image is all of (-inf, 0)
    if c <= 1.0:
        branches.append((0.0, math.inf))
        images.append((-math.inf, 0.0))
    else:
        crossing = lambda s: c * s * s * float(k2(np.array([s]))[0]) - 1.0
        hi = 1.0
        while crossing(hi) < 0.0:
            hi *= 2.0
            if hi > 1e12:
                raise ScanResolutionError("positive-branch crossing not bracketed")
        lo = hi / 2.0
        while crossing(lo) > 0.0:
            lo /= 2.0
            if lo < 1e-12:
                raise ScanResolutionError("positive-branch crossing not bracketed")
        s_star = optimize.brentq(crossing, lo, hi, xtol=1e-13)
        branches.append((0.0, s_star))
        images.append((-math.inf, u_at(s_star)))

    # negative branches, one per gap of the model support; coordinates are
    # chosen so the scan interval is bounded (v = -1/s for gaps touching 0)
    for g_lo, g_hi in _support_gaps(model):
        if math.isinf(g_hi):
            deriv = lambda s_arr: 1.0 / s_arr**2 - c * k2(s_arr)
            runs = _scan_with_refinement(deriv, -1.0 / g_lo, 0.0)
            for left, right, at_lo, at_hi in runs:
                if at_lo:
                    raise ScanResolutionError("increasing run reached a pole")
                s_lo, s_hi = left, (0.0 if at_hi else right)
                branches.append((s_lo, s_hi))
                images.append((u_at(s_lo), math.inf if at_hi else u_at(s_hi)))
        else:
            def deriv(v_arr):
                s_arr = -1.0 / v_arr
                return 1.0 / s_arr**2 - c * k2(s_arr)
            runs = _scan_with_refinement(deriv, g_lo, g_hi)
            for left, right, at_lo, at_hi in runs:
                if at_hi:
                    raise ScanResolutionError("increasing run reached a pole")
                if at_lo and g_lo > 0.0:
                    raise ScanResolutionError("increasing run reached a pole")
                s_lo = -math.inf if at_lo else -1.0 / left
                s_hi = -1.0 / right
                branches.append((s_lo, s_hi))
                # s -> -inf sends u to zero
                images.append((0.0 if at_lo else u_at(s_lo), u_at(s_hi)))

    # support = (0, inf) minus the union of the branch images
    clipped = sorted((max(lo, 0.0), hi) for lo, hi in images if hi > 0.0)
    merged = []
    for lo, hi in clipped:
        if merged and lo <= merged[-1][1] + 1e-12:
            merged[-1] = (merged[-1][0], max(merged[-1][1], hi))
        else:
            merged.append((lo, hi))
    support = []
    cursor = 0.0
    for lo, hi in merged:
        if lo > cursor + 1e-12:
            support.append((cursor, lo))
        cursor = max(cursor, hi)
    if not math.isinf(cursor):
        support.append((cursor, math.inf))

    order = np.argsort([b[0] for b in branches], kind="stable")
    return SupportReport(
        support=tuple(support),
        branches=tuple(branches[i] for i in order),
        complement=tuple(images[i] for i in order),
        mass_at_zero=max(0.0, 1.0 - 1.0 / c) if c > 1.0 else 0.0,
    )


def solve_companion_real(u: float, model: PSDModel, c, *,
                         report: SupportReport | None = None) -> float:
    """Real companion-transform value at a point u outside the support.

    Finds the increasing branch whose image contains u and bisects the
    monotone spectrum point map there.  Points inside the support (or at
    zero) have no real solution and raise ValueError.
    """
    u = float(u)
    c = _positive_ratio(c)
    rep = report if report is not None else support_bounds(model, c)
    for (s_lo, s_hi), (u_lo, u_hi) in zip(rep.branches, rep.complement):
        if not (u_lo < u < u_hi):
            continue
        f = lambda s: mp_u_map(float(s), model, c, guard=None) - u
        # close off unbounded or map-singular endpoints with sign probes
        if s_lo == 0.0:                       # positive branch, u -> -inf
            a = min(1.0, s_hi / 2.0 if math.isfinite(s_hi) else 1.0)
            while f(a) >= 0.0:
                a /= 4.0
                if a < 1e-300:
                    raise IterationError("bracketing failed approaching s=0+")
        elif math.isinf(s_lo):                # u -> 0 as s -> -inf
            a = 2.0 * s_hi if s_hi < 0.0 else -1.0
            while f(a) >= 0.0:
                a *= 4.0
                if a < -1e300:
                    raise IterationError("bracketing failed approaching s=-inf")
        else:
            a = s_lo
        if s_hi == 0.0:                       # u -> +inf as s -> 0-
            b = -1e-8
            while f(b) <= 0.0:
                b /= 4.0
                if b > -1e-300:
                    raise IterationError("bracketing failed approaching s=0-")
        elif math.isinf(s_hi):                # u -> 0- as s -> +inf
            b = max(1.0, 2.0 * a)
            while f(b) <= 0.0:
                b *= 4.0
                if b > 1e300:
                    raise IterationError("bracketing failed approaching s=+inf")
        else:
            b = s_hi
        return float(optimize.brentq(f, a, b, xtol=1e-14, rtol=8.9e-16,
                                     maxiter=200))
    raise ValueError(f"u={u!r} lies inside the limiting spectrum support")
