"""Shared numerical kernel: special functions, quadrature, cubic roots and
Lorentzian spectral fitting.

Everything here is a pure function of its inputs; no module state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np
from numpy.linalg import _umath_linalg

from .errors import ConvergenceError, FitDegenerateError

_EPS = np.finfo(float).eps

# the LAPACK gesv gufunc behind np.linalg.solve(a, b) for a vector b, called
# without that wrapper's checks and casts (about a quarter of its cost on a
# 3x3): a singular system comes back as NaN instead of raising LinAlgError
_solve = _umath_linalg.solve1


@dataclass(frozen=True)
class Tolerance:
    """Absolute/relative tolerance pair plus an iteration budget."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-8
    max_iter: int = 60

    def __post_init__(self):
        if not (self.abs_tol > 0.0):
            raise ValueError("abs_tol must be positive")
        if not (self.rel_tol > 0.0):
            raise ValueError("rel_tol must be positive")
        if self.max_iter < 1:
            raise ValueError("max_iter must be >= 1")


def _increasing_grid(points) -> np.ndarray:
    """``points`` as a float array, checked to be a nonempty, strictly
    increasing 1D grid."""
    grid = np.asarray(points, dtype=float)
    if grid.ndim != 1 or grid.size == 0:
        raise ValueError("grid must be a nonempty 1D array")
    if not np.all(np.diff(grid) > 0.0):
        raise ValueError("grid must be strictly increasing")
    return grid


def jacobi_dn(u, m: float):
    """Jacobi elliptic dn(u|m) for modulus parameter m in [0,1], elementwise
    in u.

    Descending-Landen arithmetic-geometric-mean recursion (Abramowitz &
    Stegun 16.4): the AGM ladder depends on m only; its phases give
    sn(u|m), then dn follows from the identity dn^2 = 1 - m*sn^2 (dn > 0
    throughout for m < 1). Convergence is quadratic; the recursion depth is
    capped at 32.
    """
    if not (0.0 <= m <= 1.0):
        raise ValueError(f"modulus parameter m={m} outside [0,1]")
    u = np.asarray(u, dtype=float)
    if m == 0.0:
        return np.ones_like(u)[()]  # [()] unwraps a 0-d result to a scalar
    if m == 1.0:
        return 1.0 / np.cosh(u)

    a = [1.0]
    c = [math.sqrt(m)]
    b = math.sqrt(1.0 - m)
    n = 0
    while abs(c[n]) > _EPS * abs(a[n]):
        if n >= 32:
            raise ConvergenceError("AGM recursion failed to converge in 32 steps")
        a.append(0.5 * (a[n] + b))
        c.append(0.5 * (a[n] - b))
        b = math.sqrt(a[n] * b)
        n += 1

    # backward phase recursion: phi_{k-1} = (phi_k + asin(c_k/a_k sin phi_k))/2
    phi = (2.0 ** n) * a[n] * u
    for k in range(n, 0, -1):
        arg = (c[k] / a[k]) * np.sin(phi)
        phi = 0.5 * (phi + np.arcsin(np.clip(arg, -1.0, 1.0)))
    sn = np.sin(phi)
    return np.sqrt(np.maximum(1.0 - m * sn * sn, 0.0))


# unconverged panels one refinement level may hold before the integral is
# given up: a level this wide means the integrand is not resolvable (NaN
# everywhere, say), and each further level doubles the memory held
_MAX_PANELS = 1 << 18


def _sample(f, nodes, k):
    values = np.asarray(f(nodes, k))
    if values.shape != nodes.shape:
        raise ValueError(f"integrand returned shape {values.shape} for nodes of "
                         f"shape {nodes.shape}; it must map an array elementwise")
    return values


def _simpson_pass(f, index, lo, hi, flo, fmid, fhi, whole, eps, depth_cap):
    """One adaptive Simpson pass over the panels [lo, hi], refined a level
    at a time. Returns (sums, failed) per panel.

    Each level splits every panel whose Richardson error exceeds its eps
    (halved per level) and samples all new nodes in one call, passing each
    node's interval number ``index[panel]``. The tree is then summed
    bottom-up, children pairwise, exactly as the depth-first recursion
    would add them.
    """
    failed = np.zeros(lo.size, dtype=bool)
    owner = np.arange(lo.size)
    levels = []
    for depth in range(depth_cap + 1):
        mid = 0.5 * (lo + hi)
        lm, rm = 0.5 * (lo + mid), 0.5 * (mid + hi)
        flm, frm = np.split(_sample(f, np.concatenate([lm, rm]),
                                    index[np.concatenate([owner, owner])]), 2)
        s_left = (mid - lo) / 6.0 * (flo + 4.0 * flm + fmid)
        s_right = (hi - mid) / 6.0 * (fmid + 4.0 * frm + fhi)
        err = (s_left + s_right - whole) / 15.0
        split = ~(np.abs(err) <= eps)
        if depth == depth_cap:
            failed[owner[np.abs(err) > eps]] = True
            split[:] = False
        levels.append((s_left + s_right + err, split))
        if not split.any():
            break
        if 2 * np.count_nonzero(split) > _MAX_PANELS:
            raise ConvergenceError(
                f"adaptive Simpson needs over {_MAX_PANELS} panels at depth {depth + 1}")
        # children of the split panels: all left halves, then all right halves
        children = ((lo, mid), (mid, hi), (flo, fmid), (flm, frm), (fmid, fhi),
                    (s_left, s_right), (eps / 2.0, eps / 2.0), (owner, owner))
        lo, hi, flo, fmid, fhi, whole, eps, owner = (
            np.concatenate([left[split], right[split]]) for left, right in children)

    sums = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        half = sums.size // 2
        value[split] = sums[:half] + sums[half:]
        sums = value
    return sums, failed


def integrate_adaptive(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                       tol: Tolerance = Tolerance()):
    """Adaptive Simpson quadrature of f over [a, b].

    ``f(x, k)`` maps a 1D array of nodes x to an array of the same shape
    (any other shape is a ValueError); k[j] is the index into the flattened
    intervals of the one node x[j] belongs to, so one call can integrate a
    different integrand on each interval. Each refinement level samples all
    of its new nodes in one call. ``a`` and ``b`` may be arrays (broadcast
    together): every interval [a_k, b_k] is then integrated on its own and
    an array comes back, each entry bit-identical to the scalar call on
    that interval with the integrand x -> f(x, k). Scalar ends return a
    float. Every a_k < b_k is required.

    Subdivision stops once the Richardson error estimate satisfies
    err <= max(abs_tol, rel_tol*|result|); exhausting the depth budget
    (tol.max_iter, at most 48) raises ConvergenceError carrying the best
    estimate. An interval whose first pass met the coarse target
    max(abs_tol, rel_tol*|coarse estimate|) does not raise when only the
    sharpened target is out of reach: that target lies below round-off
    (a result that cancels between a peak and its background), and the
    sharpened pass, which refines every panel the first pass refined,
    gives the estimate.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    if not np.all(lo < hi):
        raise ValueError("integration requires a < b")

    index = np.arange(lo.size)
    fa, fm, fb = np.split(_sample(f, np.concatenate([lo, 0.5 * (lo + hi), hi]),
                                  np.concatenate([index, index, index])), 3)
    whole = (hi - lo) / 6.0 * (fa + 4.0 * fm + fb)
    depth_cap = min(tol.max_iter, 48)

    eps0 = np.fmax(tol.abs_tol, tol.rel_tol * np.abs(whole))
    result, failed = _simpson_pass(f, index, lo, hi, fa, fm, fb, whole, eps0, depth_cap)
    # refine once if the converged magnitude sharpened the relative target,
    # or loosened it where the coarse estimate missed a peak and the first
    # pass chased a budget below round-off into the depth cap; an interval
    # fails only if both passes hit the cap
    eps1 = np.fmax(tol.abs_tol, tol.rel_tol * np.abs(result))
    redo = (eps1 < eps0 / 4.0) | (failed & (eps1 > eps0))
    if redo.any():
        result[redo], again_failed = _simpson_pass(
            f, index[redo], lo[redo], hi[redo], fa[redo], fm[redo], fb[redo],
            whole[redo], eps1[redo], depth_cap)
        failed[redo] &= again_failed

    result = float(result[0]) if shape == () else result.reshape(shape)
    if failed.any():
        raise ConvergenceError(
            f"adaptive Simpson hit the depth cap ({depth_cap}) before converging",
            best_estimate=result,
        )
    return result


def solve_cubic_real(c2: float, c1: float, c0: float) -> list[float]:
    """All distinct real roots of E^3 + c2 E^2 + c1 E + c0 = 0, ascending.

    Closed-form (trigonometric/Cardano) seeds, Newton-polished against the
    original cubic; near-equal roots are merged (multiplicity-aware).
    """
    for c in (c2, c1, c0):
        if not math.isfinite(c):
            raise ValueError("cubic coefficients must be finite")

    orig = (c2, c1, c0)
    # rescale E = lam*X so the working coefficients are O(1); keeps the
    # discriminant arithmetic conditioned across coefficient magnitudes
    lam = max(abs(c2), abs(c1) ** 0.5, abs(c0) ** (1.0 / 3.0))
    if lam == 0.0:
        return [0.0]
    c2 = c2 / lam
    c1 = (c1 / lam) / lam
    c0 = ((c0 / lam) / lam) / lam

    # depressed cubic t^3 + p t + q with E = t - c2/3
    p = c1 - c2 * c2 / 3.0
    q = 2.0 * c2 ** 3 / 27.0 - c2 * c1 / 3.0 + c0
    disc = -4.0 * p ** 3 - 27.0 * q ** 2
    shift = c2 / 3.0
    scale6 = max(abs(p), abs(q) ** (2.0 / 3.0), 1e-300) ** 3

    double = None
    if p == 0.0 and q == 0.0:
        roots = [-shift]
    elif disc > 1e-12 * scale6:
        r = 2.0 * math.sqrt(-p / 3.0)
        arg = max(-1.0, min(1.0, 3.0 * q / (p * r)))
        theta = math.acos(arg)
        roots = [r * math.cos((theta - 2.0 * math.pi * k) / 3.0) - shift for k in range(3)]
    elif disc < -1e-12 * scale6:
        half_q = q / 2.0
        rad = math.sqrt(half_q * half_q + (p / 3.0) ** 3)
        u1 = -half_q + rad
        u2 = -half_q - rad
        roots = [math.copysign(abs(u1) ** (1.0 / 3.0), u1)
                 + math.copysign(abs(u2) ** (1.0 / 3.0), u2) - shift]
    else:
        # borderline discriminant: a simple root and a near-double one, which
        # may be a true double root, two close real roots or a complex pair
        if p != 0.0:
            roots = [3.0 * q / p - shift]
            double = -3.0 * q / (2.0 * p) - shift
        else:
            roots = [-shift]

    # polish against the original (unscaled) cubic so exactly representable
    # roots stay exact
    oc2, oc1, oc0 = orig

    def poly(x):
        return ((x + oc2) * x + oc1) * x + oc0

    def dpoly(x):
        return (3.0 * x + 2.0 * oc2) * x + oc1

    def newton(x):
        for _ in range(14):
            fx, dfx = poly(x), dpoly(x)
            if dfx == 0.0 or not math.isfinite(fx):
                break
            step = fx / dfx
            if not math.isfinite(step):
                break
            x_new = x - step
            if abs(poly(x_new)) > abs(fx):
                break  # Newton step made the residual worse: stop at x
            x = x_new
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        return x

    polished = [newton(x * lam) for x in roots]

    if double is not None:
        # the near-double seed sits at a local extremum of the cubic: find
        # that extremum on the original cubic, then read off whether the
        # cubic touches zero there, crosses it on both sides, or misses it
        x = double * lam
        for _ in range(14):
            half_curv = 3.0 * x + oc2
            if half_curv == 0.0:
                break
            step = dpoly(x) / (2.0 * half_curv)
            if not math.isfinite(step):
                break
            x -= step
            if abs(step) <= 1e-15 * max(1.0, abs(x)):
                break
        fx, half_curv = poly(x), 3.0 * x + oc2
        roundoff = 8.0 * _EPS * (abs(x) ** 3 + abs(oc2) * x * x
                                 + abs(oc1) * abs(x) + abs(oc0))
        if abs(fx) <= roundoff:
            polished.append(x)
        elif fx * half_curv < 0.0:
            h = math.sqrt(-fx / half_curv)
            polished += [newton(x - h), newton(x + h)]
        # otherwise the extremum misses zero: a complex pair, no real root

    polished.sort()
    out: list[float] = []
    root_scale = max(1.0, max(abs(x) for x in polished))
    for x in polished:
        if not out or abs(x - out[-1]) > 1e-8 * root_scale:
            out.append(x)
    return out


def fit_lorentzian(omega, spectrum):
    """Least-squares Lorentzian fit S(w) ~ A*2g / ((w - w0)^2 + g^2).

    Returns (center w0, half-width g, amplitude A, residual), with residual
    the normalized RMS misfit ||S - fit|| / ||S||; downstream code uses it
    as the validity gate on the Lorentzian spectral approximation.

    Seeded from the peak sample and an FWHM scan, then refined with
    Levenberg-style damped Gauss-Newton steps (robust on noisy wings).
    """
    w = np.asarray(omega, dtype=float)
    s = np.asarray(spectrum, dtype=float)
    if w.size != s.size or w.size < 5:
        raise ValueError("need >= 5 (omega, S) samples spanning the peak")
    if np.any(s < 0.0):
        raise ValueError("spectrum samples must be positive")

    smax, smin = float(s.max()), float(s.min())
    if smax - smin <= 1e-12 * max(abs(smax), 1e-300):
        raise FitDegenerateError("spectrum has no peak: fit is degenerate")

    ipk = int(np.argmax(s))
    w0 = w[ipk]
    idx = np.where(s >= 0.5 * smax)[0]
    if idx.size >= 2 and w[idx[-1]] > w[idx[0]]:
        gamma = 0.5 * (w[idx[-1]] - w[idx[0]])
    else:
        gamma = 0.25 * (w[-1] - w[0])
    gamma = max(gamma, float(np.min(np.diff(w))))
    amp = smax * gamma / 2.0

    theta = np.array([w0, gamma, amp])
    lam = 1e-3
    prev_cost = None
    # the accepted theta's offsets, denominator and residual, and a trial's
    # in the second set: an accepted trial's are swapped in, so a rejected
    # step keeps theta's, and with them the normal equations
    c, g, A = theta.tolist()
    dc = w - c
    denom = dc ** 2 + g ** 2
    r = s - 2.0 * A * g / denom
    dc2, denom2, r2, sq, col = (np.empty_like(w) for _ in range(5))
    J = np.empty((w.size, 3))
    j0, j1, j2 = J.T
    damped = np.empty((3, 3))
    damped_diag = damped.reshape(9)[::4]
    # pairwise costs of the accepted theta and of the trials rejected since:
    # cost only moves on acceptance, so a trial met again gets its old verdict
    known_costs = {}
    fresh = True
    for _ in range(200):
        if fresh:
            cost = float(r @ r)
            np.square(denom, out=sq)
            # writes into J's columns are strided and slow: each column is
            # built in the contiguous ``col`` and written to J once
            np.divide(np.multiply(4.0 * A * g, dc, out=col), sq, out=j0)
            np.subtract(denom, 2.0 * g ** 2, out=col)
            np.divide(np.multiply(2.0 * A, col, out=col), sq, out=j1)
            np.divide(2.0 * g, denom, out=j2)
            JTJ = J.T @ J
            entries = JTJ.ravel().tolist()
            if not (min(entries[::4]) > 0.0 and all(map(math.isfinite, entries))):
                raise FitDegenerateError("singular normal equations in Lorentzian fit")
            diag = JTJ.diagonal()
            grad = J.T @ r
            np.copyto(damped, JTJ)
        # JTJ + lam * diag(JTJ), only the diagonal rewritten per step (the
        # solve reads its inputs without writing them): positive definite
        # while that diagonal is positive and finite, so a non-finite step
        # means overflow
        np.add(diag, diag * lam, out=damped_diag)
        step = _solve(damped, grad)
        if not all(map(math.isfinite, step.tolist())):
            raise FitDegenerateError("singular normal equations in Lorentzian fit")
        trial = theta + step
        trial[1] = abs(trial[1])
        key = trial.tobytes()
        known = key in known_costs
        if known:
            cost2 = known_costs[key]
        else:
            c2, g2, A2 = trial.tolist()
            np.subtract(w, c2, out=dc2)
            np.add(np.square(dc2, out=denom2), g2 ** 2, out=denom2)
            np.subtract(s, np.divide(2.0 * A2 * g2, denom2, out=r2), out=r2)
            cost2 = float(np.square(r2, out=sq).sum())
        fresh = cost2 <= cost
        if fresh:
            if not known:  # a known accepted trial is theta itself
                theta = trial
                c, g, A = c2, g2, A2
                dc, dc2, denom, denom2, r, r2 = dc2, dc, denom2, denom, r2, r
            known_costs = {key: cost2}
            lam = max(lam / 3.0, 1e-12)
            if prev_cost is not None and abs(prev_cost - cost2) <= 1e-14 * max(cost2, 1e-300):
                break
            prev_cost = cost2
        else:
            known_costs[key] = cost2
            lam *= 4.0
            if lam > 1e10:
                break

    if not (np.isfinite(theta).all() and theta[1] > 0.0):
        raise FitDegenerateError("Lorentzian fit diverged")
    residual = float(np.sqrt(r @ r) / np.sqrt(s @ s))
    c, g, A = (float(v) for v in theta)
    return c, g, A, residual
