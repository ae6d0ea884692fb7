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


# 21-point Gauss-Kronrod rule on [-1, 1] (QUADPACK qk21, Piessens et al.
# 1983), built by symmetry: its positive nodes from 1 down with their
# Kronrod weights (then the weight of node 0), and the 10-point Gauss
# weights of the nodes at odd positions, which are the Gauss nodes
_XGK = (
    0.995657163025808080735527280689003, 0.973906528517171720077964012084452,
    0.930157491355708226001207180059508, 0.865063366688984510732096688423493,
    0.780817726586416897063717578345042, 0.679409568299024406234327365114874,
    0.562757134668604683339000099272694, 0.433395394129247190799265943165784,
    0.294392862701460198131126603103866, 0.148874338981631210884826001129720)
_WGK = (
    0.011694638867371874278064396062192, 0.032558162307964727478818972459390,
    0.054755896574351996031381300244580, 0.075039674810919952767043140916190,
    0.093125454583697605535065465083366, 0.109387158802297641899210590325805,
    0.123491976262065851077208564211510, 0.134709217311473325928054001771707,
    0.142775938577060080797094273138717, 0.147739104901338491374841515972068)
_WG = (
    0.066671344308688137593568809893332, 0.149451349150580593145776339657697,
    0.219086362515982043995534934228163, 0.269266719309996355091226921569469,
    0.295524224714752870173892994651338)
# columns, to broadcast against a row of panels
_GK_NODES = np.array([*(-x for x in _XGK), 0.0, *_XGK[::-1]]).reshape(-1, 1)
_KRONROD_WEIGHTS = np.array(
    [*_WGK, 0.149445554002916905664936468389821, *_WGK[::-1]]).reshape(-1, 1)
_GAUSS_WEIGHTS = np.array([*_WG, *_WG[::-1]]).reshape(-1, 1)

# unconverged panels one refinement level may hold before the integral is
# given up: a level this wide means the integrand is not resolvable (NaN
# everywhere, say), and each further level doubles the memory held
_MAX_PANELS = 1 << 15


def _sample(f, nodes, k):
    values = np.asarray(f(nodes, k))
    if values.shape != nodes.shape:
        raise ValueError(f"integrand returned shape {values.shape} for nodes of "
                         f"shape {nodes.shape}; it must map an array elementwise")
    return values


def _weighted_sum(weights, rows):
    """sum_j weights[j] * rows[j] over the first axis, accumulated in row
    order (a cumulative sum is never pairwise): each column's sum depends
    only on its own entries, whatever the number of columns."""
    return np.cumsum(weights * rows, axis=0)[-1]


def _gauss_kronrod(f, lo, hi, k):
    """(Kronrod estimate, error estimate, round-off floor) of each panel
    [lo, hi], all sampled in one call, the nodes of panel p owned by
    interval k[p].

    The error is QUADPACK's: the Kronrod-Gauss difference scaled against
    the panel's spread s = K21 of |f - mean f| as s*min(1, (200*diff/s)^1.5).
    The floor is the round-off of the samples: 50*eps*(K21 of |f|) for
    their sum, plus eps*max|x| times their variation for the nodes, each
    rounded by up to an ulp of x (a band far narrower than |x| is limited
    by the second)."""
    centre, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
    nodes = centre + half * _GK_NODES
    fx = _sample(f, nodes.ravel(), np.tile(k, _GK_NODES.size)).reshape(nodes.shape)
    total = _weighted_sum(_KRONROD_WEIGHTS, fx)
    kronrod = half * total
    diff = np.abs(kronrod - half * _weighted_sum(_GAUSS_WEIGHTS, fx[1::2]))
    spread = half * _weighted_sum(_KRONROD_WEIGHTS, np.abs(fx - total / 2.0))
    with np.errstate(divide="ignore", invalid="ignore"):
        err = np.where(spread > 0.0,
                       spread * np.fmin(1.0, (200.0 * diff / spread) ** 1.5), diff)
    variation = np.cumsum(np.abs(np.diff(fx, axis=0)), axis=0)[-1]
    floor = (50.0 * _EPS * half * _weighted_sum(_KRONROD_WEIGHTS, np.abs(fx))
             + _EPS * np.fmax(np.abs(lo), np.abs(hi)) * variation)
    return kronrod, err, floor


def integrate_adaptive(f: Callable[[np.ndarray, np.ndarray], np.ndarray], a, b,
                       tol: Tolerance = Tolerance()):
    """Adaptive 21-point Gauss-Kronrod quadrature of f over [a, b].

    ``f(x, k)`` maps a 1D array of nodes x to an array of the same shape
    (any other shape is a ValueError); k[j] is the index into the flattened
    intervals of the one node x[j] belongs to, so one call can integrate a
    different integrand on each interval. Each refinement level samples all
    of its new nodes in one call. ``a`` and ``b`` may be arrays (broadcast
    together): every interval [a_k, b_k] is then integrated on its own and
    an array comes back, each entry bit-identical to the scalar call on
    that interval with the integrand x -> f(x, k). Scalar ends return a
    float. Every a_k < b_k is required.

    Each panel carries its 21-point Kronrod estimate and QUADPACK's qk21
    error estimate (``_gauss_kronrod``). At every level an interval's
    target is max(abs_tol, rel_tol*|estimate|), its estimate being the sum
    over its panels so far. The interval is done once its panels' errors
    sum to at most that target. Until then an open panel is bisected
    unless its error is within its width's share of the target, or within
    the round-off floor of its own samples, where refining only resamples
    noise. So the panel at a square-root kink, whose error falls as h^1.5
    against a share that halves per level, is ended by the interval's sum,
    not by its share.
    Levels are refined breadth first, one integrand call each, and the
    tree is summed bottom-up, children pairwise. A panel still open at the
    depth budget (tol.max_iter, at most 48) raises ConvergenceError, and
    so does a level that would hold over _MAX_PANELS panels (an integrand
    that is NaN everywhere, say).

    Like any rule that samples points, it can miss a line much narrower
    than its node spacing whose samples stay below the target; give such a
    line a breakpoint by splitting the interval at it.
    """
    lo, hi = np.broadcast_arrays(np.asarray(a, dtype=float), np.asarray(b, dtype=float))
    shape = lo.shape
    lo, hi = lo.ravel(), hi.ravel()
    if not np.all(lo < hi):
        raise ValueError("integration requires a < b")

    n = lo.size
    width = hi - lo
    owner = np.arange(n)
    done_sum, done_err = np.zeros(n), np.zeros(n)
    depth_cap = min(tol.max_iter, 48)
    levels = []
    for depth in range(depth_cap + 1):
        kronrod, err, floor = _gauss_kronrod(f, lo, hi, owner)
        # per interval sums run in panel order, which a batch keeps
        estimate = done_sum + np.bincount(owner, kronrod, n)
        target = np.fmax(tol.abs_tol, tol.rel_tol * np.abs(estimate))
        open_ = ~(done_err + np.bincount(owner, err, n) <= target)
        share = target[owner] * ((hi - lo) / width[owner])
        split = open_[owner] & ~(err <= np.fmax(share, floor))
        levels.append((kronrod, split))
        if not split.any():
            break
        if depth == depth_cap:
            raise ConvergenceError(
                f"adaptive quadrature hit the depth cap ({depth_cap}) before converging")
        if 2 * np.count_nonzero(split) > _MAX_PANELS:
            raise ConvergenceError(
                f"adaptive quadrature needs over {_MAX_PANELS} panels at depth {depth + 1}")
        kept = ~split
        done_sum += np.bincount(owner[kept], kronrod[kept], n)
        done_err += np.bincount(owner[kept], err[kept], n)
        mid = 0.5 * (lo + hi)
        # children of the split panels: all left halves, then all right halves
        lo, hi, owner = (np.concatenate([left[split], right[split]])
                         for left, right in ((lo, mid), (mid, hi), (owner, owner)))

    sums = levels[-1][0]
    for value, split in reversed(levels[:-1]):
        half = sums.size // 2
        value[split] = sums[:half] + sums[half:]
        sums = value
    return float(sums[0]) if shape == () else sums.reshape(shape)


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
