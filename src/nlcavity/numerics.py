"""Shared numerical kernel: special functions, quadrature, ODE stepping,
root finding, and Lorentzian spectral fitting.

Everything here is a pure function of its inputs; no module state.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Sequence

import numpy as np

from .errors import (
    BracketError,
    ConvergenceError,
    FitDegenerateError,
    StiffnessError,
)

_EPS = np.finfo(float).eps


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
    estimate.
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
    # pass chased a budget below round-off into the depth cap
    eps1 = np.fmax(tol.abs_tol, tol.rel_tol * np.abs(result))
    redo = (eps1 < eps0 / 4.0) | (failed & (eps1 > eps0))
    if redo.any():
        result[redo], failed[redo] = _simpson_pass(
            f, index[redo], lo[redo], hi[redo], fa[redo], fm[redo], fb[redo],
            whole[redo], eps1[redo], depth_cap)

    result = float(result[0]) if shape == () else result.reshape(shape)
    if failed.any():
        raise ConvergenceError(
            f"adaptive Simpson hit the depth cap ({depth_cap}) before converging",
            best_estimate=result,
        )
    return result


# Dormand-Prince 5(4) tableau. Row i of _DP_A weighs (y, k_1..k_i+1) into
# stage i + 2, the k weights times the step. Its last row is b5, so stage 7
# is evaluated at y5 (first-same-as-last); _DP_E = b5 - b4 gives the error.
_DP_C = (0.0, 1 / 5, 3 / 10, 4 / 5, 8 / 9, 1.0, 1.0)
_DP_A = np.array([
    [1.0, 1 / 5, 0.0, 0.0, 0.0, 0.0, 0.0],
    [1.0, 3 / 40, 9 / 40, 0.0, 0.0, 0.0, 0.0],
    [1.0, 44 / 45, -56 / 15, 32 / 9, 0.0, 0.0, 0.0],
    [1.0, 19372 / 6561, -25360 / 2187, 64448 / 6561, -212 / 729, 0.0, 0.0],
    [1.0, 9017 / 3168, -355 / 33, 46732 / 5247, 49 / 176, -5103 / 18656, 0.0],
    [1.0, 35 / 384, 0.0, 500 / 1113, 125 / 192, -2187 / 6784, 11 / 84],
])
_DP_E = np.append(_DP_A[-1, 1:], 0.0) - np.array(
    [5179 / 57600, 0.0, 7571 / 16695, 393 / 640, -92097 / 339200, 187 / 2100, 1 / 40])


def evolve_ode(
    rhs: Callable[[float, np.ndarray], np.ndarray],
    y0: Sequence[complex],
    t_grid,
    tol: Tolerance = Tolerance(abs_tol=1e-10, rel_tol=1e-8),
) -> np.ndarray:
    """Integrate dy/dt = rhs(t, y) with the Dormand-Prince embedded RK 4(5) pair.

    Returns the solution sampled exactly at the points of ``t_grid`` (whose
    first point is the initial time), one row per point. Step-size underflow
    raises StiffnessError. y and the seven stages live in one stack K, so a
    stage input is one product of a (real) tableau row with K's real view.
    """
    grid = _increasing_grid(t_grid)
    y = np.asarray(y0, dtype=complex)
    out = np.tile(y, (grid.size, 1))
    t = float(grid[0])
    span = float(grid[-1] - grid[0])
    if span == 0.0:
        return out

    K = np.empty((8, y.size), dtype=complex)
    K[0], K[1], Kr = y, rhs(t, y), K.view(float)
    h = max(span / 100.0, np.finfo(float).tiny)  # a subnormal span is one step
    for j, target in enumerate(grid[1:], 1):
        while t < target:
            clamped = h >= target - t
            h_step = target - t if clamped else h
            if h_step <= 1e-14 * max(abs(t), span):
                raise StiffnessError(f"step size underflow at t={t}")
            a = h_step * _DP_A
            a[:, 0] = 1.0
            for i in range(6):  # the last stage input is y5
                y5 = (a[i, : i + 2] @ Kr[: i + 2]).view(complex)
                K[i + 2] = rhs(t + _DP_C[i + 1] * h_step, y5)
            delta = ((h_step * _DP_E) @ Kr[1:]).view(complex)
            scale = tol.abs_tol + tol.rel_tol * np.maximum(np.abs(K[0]), np.abs(y5))
            err = float(np.max(np.abs(delta) / scale)) if y.size else 0.0
            if err <= 1.0:
                t = target if clamped else t + h_step
                K[0] = y5
                K[1] = K[7]  # first-same-as-last
                grow = 5.0 if err == 0.0 else min(5.0, max(0.2, 0.9 * err ** -0.2))
                h = h_step * grow
            else:
                h = h_step * max(0.1, 0.9 * err ** -0.25)
        out[j] = K[0]
    return out


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
        # borderline discriminant: double-root structure
        if p != 0.0:
            roots = [3.0 * q / p - shift, -3.0 * q / (2.0 * p) - shift]
        else:
            roots = [-shift]

    # polish against the original (unscaled) cubic so exactly representable
    # roots stay exact
    oc2, oc1, oc0 = orig

    def poly(x):
        return ((x + oc2) * x + oc1) * x + oc0

    def dpoly(x):
        return (3.0 * x + 2.0 * oc2) * x + oc1

    polished = []
    for x in roots:
        x *= lam
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
        polished.append(x)

    polished.sort()
    out: list[float] = []
    root_scale = max(1.0, max(abs(x) for x in polished))
    for x in polished:
        if not out or abs(x - out[-1]) > 1e-8 * root_scale:
            out.append(x)
    return out


def find_root_bracketed(
    f: Callable[[float], float],
    lo: float,
    hi: float,
    tol: Tolerance = Tolerance(abs_tol=1e-14, rel_tol=1e-14, max_iter=120),
) -> float:
    """Brent's method on a sign-changing bracket [lo, hi]."""
    a, b = float(lo), float(hi)
    fa, fb = f(a), f(b)
    if fa == 0.0:
        return a
    if fb == 0.0:
        return b
    if fa * fb > 0.0:
        raise BracketError(f"f({a})={fa} and f({b})={fb} do not bracket a root")

    c, fc = a, fa
    d = e = b - a
    for _ in range(tol.max_iter):
        if fb * fc > 0.0:
            c, fc = a, fa
            d = e = b - a
        if abs(fc) < abs(fb):
            a, b, c = b, c, b
            fa, fb, fc = fb, fc, fb
        tol1 = 2.0 * _EPS * abs(b) + 0.5 * max(tol.abs_tol, tol.rel_tol * abs(b))
        xm = 0.5 * (c - b)
        if abs(xm) <= tol1 or fb == 0.0:
            return b
        if abs(e) >= tol1 and abs(fa) > abs(fb):
            s = fb / fa
            if a == c:
                p_, q_ = 2.0 * xm * s, 1.0 - s
            else:
                q_, r_ = fa / fc, fb / fc
                p_ = s * (2.0 * xm * q_ * (q_ - r_) - (b - a) * (r_ - 1.0))
                q_ = (q_ - 1.0) * (r_ - 1.0) * (s - 1.0)
            if p_ > 0.0:
                q_ = -q_
            p_ = abs(p_)
            if 2.0 * p_ < min(3.0 * xm * q_ - abs(tol1 * q_), abs(e * q_)):
                e, d = d, p_ / q_
            else:
                d = e = xm
        else:
            d = e = xm
        a, fa = b, fb
        b += d if abs(d) > tol1 else math.copysign(tol1, xm)
        fb = f(b)
    raise ConvergenceError("Brent iteration budget exhausted", best_estimate=b)


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
    # offsets, denominator and model of the accepted theta; a rejected step
    # keeps them, and with them the normal equations
    c, g, A = theta
    dc = w - c
    denom = dc ** 2 + g ** 2
    model = 2.0 * A * g / denom
    fresh = True
    for _ in range(200):
        if fresh:
            r = s - model
            cost = float(r @ r)
            denom_sq = denom ** 2
            J = np.column_stack([4.0 * A * g * dc / denom_sq,
                                 2.0 * A * (denom - 2.0 * g ** 2) / denom_sq,
                                 2.0 * g / denom])
            JTJ = J.T @ J
            diag = np.diag(JTJ).copy()
            if np.any(diag <= 0.0) or not np.all(np.isfinite(JTJ)):
                raise FitDegenerateError("singular normal equations in Lorentzian fit")
            grad = J.T @ r
        try:
            step = np.linalg.solve(JTJ + lam * np.diag(diag), grad)
        except np.linalg.LinAlgError as exc:
            raise FitDegenerateError("singular normal equations in Lorentzian fit") from exc
        trial = theta + step
        trial[1] = abs(trial[1])
        c2, g2, A2 = trial
        dc2 = w - c2
        denom2 = dc2 ** 2 + g2 ** 2
        model2 = 2.0 * A2 * g2 / denom2
        cost2 = float(np.sum((s - model2) ** 2))
        fresh = cost2 <= cost
        if fresh:
            theta = trial
            c, g, A, dc, denom, model = c2, g2, A2, dc2, denom2, model2
            lam = max(lam / 3.0, 1e-12)
            if prev_cost is not None and abs(prev_cost - cost2) <= 1e-14 * max(cost2, 1e-300):
                break
            prev_cost = cost2
        else:
            lam *= 4.0
            if lam > 1e10:
                break

    if not (np.isfinite(theta).all() and theta[1] > 0.0):
        raise FitDegenerateError("Lorentzian fit diverged")
    residual = float(np.linalg.norm(s - model) / np.linalg.norm(s))
    c, g, A = (float(v) for v in theta)
    return c, g, A, residual
