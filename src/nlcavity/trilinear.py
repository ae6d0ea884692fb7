"""Pump-signal-idler dynamics of the three-mode parametric interaction
H = hw_a N_a + hw_b N_b + hw_c N_c + i*h*chi*(a b+ c+ - a+ b c),
with the frequency-matching condition w_a = w_b + w_c.

Four evolution tiers are provided:

* parametric  -- pump frozen at a classical amplitude A (two-mode squeezing),
* semiclassical -- classical pump with back-reaction (elliptic-dn pump decay),
* short-time  -- quantized pump, BCH-truncated propagator extrapolated in tau,
* full        -- exact evolution on a truncated grid: one half-size SVD per
                 conserved block n = p + i, one phase per distinct tau step.

The semiclassical phase theta = int sqrt(N_a) dtau is integrated in the
pump's Jacobi amplitude phi = am(rate tau | m): its integrand g/rate,
g = sqrt(max(0, N_a0 - beta+ m sin^2 phi))/(1 - m sin^2 phi), is pi-periodic,
even about pi/2 and zero from phi_z = asin(sqrt(N_a0/(beta+ m))) to
pi - phi_z, so theta is whole half periods I = 2 int_0^phi_z g plus a
partial integral G, read off fixed breakpoints of one quadrature call.

H_I conserves N_a + N_b and N_b - N_c, so a pump-only initial state never
leaves the Manley-Rowe pair span {|p>_a |i>_b |i>_c} (Walls & Barakat,
Phys. Rev. A 1, 446 (1970)): the state is an amplitude matrix C[p, i], and
H_I also conserves n = p + i, so each anti-diagonal of C evolves on its own.
The two quantized-pump tiers therefore return the state as a stream of its
conserved blocks (n, C_n), C_n[..., k] at (p, i) = (n - k, k), and hold one
block at a time. ``pair_state`` folds a stream into the pump and pair number
distributions, ``PairState``, from which every occupation, the pump
variance, the norm and the truncation leak follow in O(tau * dim) memory;
``written_into`` also writes each block into a trajectory C[tau, p, i] for
the diagnostics that need the amplitudes (the Schmidt spectrum, the
squeezing).

All dynamics are expressed in the interaction frame and in dimensionless
time tau = chi*t, which scales out the coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import TruncationError
from .numerics import Tolerance, _increasing_grid, integrate_adaptive, jacobi_am


@dataclass(frozen=True)
class PumpInitialState:
    """Pure initial pump state |psi> = sum_s a_s |s>, signal/idler in vacuum.

    The coefficients keep a real dtype when the amplitudes are real (a Fock
    state, a coherent pump with real alpha) and are complex otherwise; the
    quantized-pump tiers' blocks of C[p, i] take the same dtype.
    """

    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients)
        coeff = np.asarray(coeff, dtype=np.result_type(coeff, float)).ravel()
        total = float(np.sum(np.abs(coeff) ** 2))
        if not abs(total - 1.0) <= 1e-10:
            raise ValueError(f"pump coefficients not normalized: sum |a_s|^2 = {total}")
        object.__setattr__(self, "coefficients", coeff)

    @property
    def probabilities(self):
        return np.abs(self.coefficients) ** 2

    @classmethod
    def coherent(cls, mean_occupation, dim):
        """Coherent pump with <N_a(0)> = mean_occupation, truncation-gated."""
        return cls(fock.coherent_state(math.sqrt(mean_occupation), dim))


@dataclass(frozen=True)
class SemiclassicalCurve:
    """Classical pump trajectory N_a(tau) and accumulated phase theta(tau)
    on the tau grid it was computed on."""

    N_a: np.ndarray
    theta: np.ndarray
    beta_plus: float
    beta_minus: float
    modulus: float


def parametric_occupation(A: float, tau):
    """Signal/idler quanta sinh^2(A*tau) at a fixed classical pump A; float or array tau."""
    if not (0.0 <= A < math.inf and 0.0 <= np.min(tau) and np.max(tau) < math.inf):
        raise ValueError(f"pump amplitude A = {A} and tau = {tau} must be finite "
                         f"and nonnegative")
    with np.errstate(over="ignore"):
        n = np.sinh(A * np.asarray(tau)) ** 2
    if not np.isfinite(n).all():
        raise OverflowError(f"sinh(A tau)^2 leaves the float range at A = {A}")
    return float(n) if n.ndim == 0 else n


def pump_betas(N_a0: float):
    """Turning-point parameters beta+- of the classical pump evolution, the
    roots of 2 beta^2 - (1 + 2 N_a0) beta - N_a0; beta- = -N_a0/(2 beta+),
    from their product, cancels nothing."""
    bp = 0.25 * (1.0 + 2.0 * N_a0 + math.sqrt(1.0 + 12.0 * N_a0 + 4.0 * N_a0 ** 2))
    return bp, -N_a0 / (2.0 * bp)


_BREAKS = 16  # semiclassical_pump's fixed breakpoints i/_BREAKS of the quadrature in t


def semiclassical_pump(N_a0: float, tau_grid) -> SemiclassicalCurve:
    """Classical pump trajectory with back-reaction, signal/idler from vacuum.

    N_a(tau) = beta+ + (N_a0 - beta+)/dn^2(rate tau | m) with
    m = (N_a0 - beta-)/(beta+ - beta-) and rate = sqrt(beta+ - beta-), which
    is (N_a0 - beta+ m sin^2 phi)/(1 - m sin^2 phi) in the amplitude phi.
    Since beta- < 0 it dips just below zero around the turning points; the
    exposed curve (and sqrt(N_a) in theta) clamps at zero.

    rate theta = int_0^phi g (dtau = dphi/(rate dn); g, phi_z and I as in
    the module docstring): with G(x) = int_0^x g, rate theta = k I + H(psi)
    at phi = k pi + psi, 0 <= psi < pi, where H = G(psi) up to phi_z, I/2 on
    the clamped zone and I - G(pi - psi) beyond. x = phi_z t (2 - t) makes
    the square-root edge at phi_z a smooth end at t = 1. One batched
    Gauss-Kronrod call (abs_tol 1e-13, rel_tol 1e-14 per interval) takes
    the pieces between the fixed breakpoints b_i = i/B, i = 0..B with
    B = _BREAKS = 16, and each grid point's remainder [b_i, t_j] from
    i = floor(B t_j) (none when t_j is a breakpoint): G(t_j) is the
    cumulative sum of the pieces up to b_i plus the remainder, and I/2 the
    sum of all pieces. The bucket i comes from t_j itself, with no sort.
    """
    if not 0.0 < N_a0 < math.inf:
        raise ValueError(f"pump size N_a0 = {N_a0} must be positive and finite")
    grid = _increasing_grid(tau_grid, "tau grid")
    if grid[0] < 0.0:
        raise ValueError("tau grid must start at tau >= 0")
    bp, bm = pump_betas(N_a0)
    m = (N_a0 - bm) / (bp - bm)
    rate = math.sqrt(bp - bm)
    phi = jacobi_am(rate * grid, m)
    s2 = np.sin(phi) ** 2
    n_vals = np.maximum(0.0, (N_a0 - bp * m * s2) / (1.0 - m * s2))

    # tan^2 phi_z = 2 beta+ (beta+ - beta-)/(1/2 - beta-) and, over its
    # constant 2 phi_z sqrt(beta+ m), g dx/dt = (1 - t) sqrt(sin(phi_z - x)
    # sin(phi_z + x))/(cos^2 x + (1 - m) sin^2 x), phi_z - x = phi_z (1 - t)^2:
    # no term cancels as m -> 1 (1 - m is exact for m >= 1/2)
    phi_z = math.atan(math.sqrt(2.0 * bp * (bp - bm) / (0.5 - bm)))
    cz, sz, m1 = math.cos(phi_z), math.sin(phi_z), 1.0 - m

    def shape(ts, _):
        left = 1.0 - ts
        xs = phi_z * ts * (1.0 + left)
        cx, sx = np.cos(xs), np.sin(xs)
        return left * np.sqrt(np.sin(phi_z * left * left) * (sz * cx + cz * sx)) / (
            cx * cx + m1 * sx * sx)

    k = np.floor(phi / math.pi)
    psi = phi - k * math.pi
    x = np.minimum(psi, math.pi - psi)  # H is even about pi/2
    t = 1.0 - np.sqrt(np.maximum(0.0, phi_z - x) / phi_z)  # 1 on the clamped zone
    # b_i = i/_BREAKS is exact (a power of two), so a t_j on a breakpoint has
    # no remainder and t = 1 lands on i = _BREAKS; t rounds a hair below 0
    # where psi rounds out of [0, pi)
    bucket = np.floor(np.maximum(t, 0.0) * _BREAKS)
    start = bucket / _BREAKS
    tail = start < t
    edges = np.arange(_BREAKS + 1) / _BREAKS
    pieces = integrate_adaptive(shape, np.concatenate([edges[:-1], start[tail]]),
                                np.concatenate([edges[1:], t[tail]]),
                                Tolerance(abs_tol=1e-13, rel_tol=1e-14, max_iter=48))
    at_edges = np.concatenate([[0.0], np.cumsum(pieces[:_BREAKS])])
    half = at_edges[-1]  # G(phi_z) = I/2, like every G here over the shape's constant
    G = at_edges[bucket.astype(np.intp)]
    G[tail] = np.minimum(G[tail] + pieces[_BREAKS:], half)
    H = np.where(psi <= 0.5 * math.pi, G, 2.0 * half - G)
    theta = (2.0 * phi_z * math.sqrt(bp * m) / rate) * (k * (2.0 * half) + H)
    return SemiclassicalCurve(N_a=n_vals, theta=theta, beta_plus=bp, beta_minus=bm,
                              modulus=m)


def semiclassical_occupation(curve: SemiclassicalCurve) -> np.ndarray:
    """Signal occupation sinh^2(theta(tau)) along a semiclassical curve."""
    return np.sinh(curve.theta) ** 2


# ---------------------------------------------------------------------------
# pair-basis state shared by the quantized-pump tiers
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class PairState:
    """Number distributions of a pure state sum_{p,i} C[p, i] |p>_a |i>_b |i>_c
    of the Manley-Rowe pair span: p pump quanta and i signal-idler pairs.

    p_a[..., p] = sum_i |C[p, i]|^2 is the pump's and p_b[..., i] =
    sum_p |C[p, i]|^2 the signal's, the idler's too, so N_c = N_b and the top
    pair level is p_b's last entry. Leading axes run over tau; every
    reduction returns one value per tau. ``pair_state`` builds both from the
    block stream of a quantized tier.
    """

    p_a: np.ndarray
    p_b: np.ndarray

    def norm(self):
        return np.sqrt(self.p_a.sum(axis=-1))

    @staticmethod
    def _mean(prob):
        """Mean of a number distribution on the last axis."""
        return prob @ np.arange(prob.shape[-1])

    @property
    def n_a(self):
        return self._mean(self.p_a)

    @property
    def n_b(self):
        """Signal occupation, equal to the idler's."""
        return self._mean(self.p_b)

    def pump_variance(self):
        """<(N_a - <N_a>)^2>: the residual of the mean-field factorization
        underlying the semiclassical tier, summed about the mean so that it
        does not cancel against <N_a>^2."""
        dev = np.arange(self.p_a.shape[-1]) - self.n_a[..., None]
        return np.sum(self.p_a * dev * dev, axis=-1)

    def max_boundary_population(self):
        """Truncation leak: population of the top pump level or top pair level."""
        return np.maximum(self.p_a[..., -1], self.p_b[..., -1])


def pair_state(blocks, dim: int) -> PairState:
    """Fold a block stream into the pump and pair distributions of the
    (dim, dim) pair grid: block n, C_n[tau, k] at (p, i) = (n - k, k), adds
    |C_n[tau, k]|^2 to p_a[tau, n - k] and to p_b[tau, k], for one tau or a
    1-D grid of them. One block is held at a time."""
    p_a = p_b = None
    for n, block in blocks:
        # level-major weights (n + 1, tau), so both sums run over contiguous tau
        weight = np.square(block.real.T, order="C")
        if block.dtype.kind == "c":
            weight += np.square(block.imag.T)
        if p_a is None:
            p_a, p_b = np.zeros((2, dim) + weight.shape[1:])
        p_a[n::-1] += weight
        p_b[:n + 1] += weight
    return PairState(np.ascontiguousarray(p_a.T), np.ascontiguousarray(p_b.T))


def written_into(C, blocks):
    """The block stream ``blocks`` passed on unchanged, each block first
    written into its anti-diagonal p + i = n of the trajectory C[..., p, i]:
    a strided view of the flattened (p, i) axes starting at (n, 0). C must
    be C-contiguous in its last two axes, so the flattening is a view."""
    dim = C.shape[-1]
    flat = C.reshape(C.shape[:-2] + (dim * dim,))
    for n, block in blocks:
        flat[..., n * dim::-(dim - 1)][..., :n + 1] = block
        yield n, block


# ---------------------------------------------------------------------------
# short-time (quantized pump) tier
# ---------------------------------------------------------------------------

def short_time_state(initial: PumpInitialState, tau):
    """The BCH short-time state at dimensionless tau, a scalar or a 1-D grid,
    as a stream of its conserved blocks (s, C_s): pump level s branches onto
    the anti-diagonal p + i = s, C_s[..., k] = a_s f_k(s) tau^k /
    sqrt(N_s(tau)) at (p, i) = (s - k, k), built in log space for all tau at
    once, so tau >> 1 stays finite; tau = 0 gives C_s = a_s e_0. Blocks with
    a_s = 0 are zero and not yielded. tau is checked before the first block.

    Each block is built level-major, as (s + 1, tau), so its max shift,
    exponential and norm run over contiguous tau, and is yielded as the
    transposed view C_s[tau, k] (shape (s + 1,) for a scalar tau). A scalar
    tau runs as a grid of two equal points: a column sum over one point
    would be summed pairwise, over two or more in level order, so scalar and
    grid calls agree to the bit.
    """
    tau = np.asarray(tau, dtype=float)
    if not np.all((0.0 <= tau) & (tau < math.inf)):
        raise ValueError("tau must be finite and nonnegative")
    coeff = initial.coefficients
    half_log_fact = 0.5 * np.array([math.lgamma(j + 1) for j in range(coeff.size)])
    k = np.arange(coeff.size)[:, None]
    grid = np.array([tau, tau]) if tau.ndim == 0 else tau
    with np.errstate(divide="ignore", invalid="ignore"):  # k log(0) is -inf, 0 at k = 0
        k_log_tau = np.where(k > 0, k * np.log(grid), 0.0)

    def blocks():
        for s, a_s in enumerate(coeff):
            if a_s == 0:
                continue
            log_amp = k_log_tau[:s + 1] + (half_log_fact[s] - half_log_fact[s::-1, None])
            log_amp -= log_amp.max(axis=0)
            amp = np.exp(log_amp, out=log_amp)
            scale = a_s / np.sqrt(np.sum(amp * amp, axis=0))
            if scale.dtype.kind == "c":  # a complex a_s cannot scale floats in place
                amp = amp * scale
            else:
                amp *= scale
            yield s, amp.T if tau.ndim else amp[:, 0]

    return blocks()


# ---------------------------------------------------------------------------
# full quantum tier
# ---------------------------------------------------------------------------

_ANCHOR = 32  # full_state's phase product restarts here: round-off ~32 ulp


def full_state(initial: PumpInitialState, tau_grid, leak_tol: float = 1e-6):
    """Interaction-picture Schrodinger evolution dpsi/dtau = G psi of the
    pump state ``initial`` with signal and idler in vacuum, propagated
    exactly one conserved block at a time and returned as a stream of the
    blocks (n, C_n), C_n[tau, k] at (p, i) = (n - k, k).

    The evolution runs on C[p, i] of the (dim, dim) pair grid that
    ``short_time_state`` uses, dim = max(pump dimension, 2), where G couples
    (p, i) to (p + 1, i - 1) with weight sqrt(p+1)*i. G conserves n = p + i,
    so each anti-diagonal block C_n, indexed by k = i, obeys dC_n/dtau =
    A C_n with A real antisymmetric tridiagonal (Walls & Barakat, Phys. Rev.
    A 1, 446 (1970)): A = -i D T D^-1 with D = diag(i^k) and T real
    symmetric of off-diagonal sqrt(n-k+1)*k. Block n starts as a_n e_0 at
    the grid's first point tau_0, and T has a zero diagonal, so it is
    bipartite between even and odd k: T = [[0, B], [B^T, 0]], with B the
    lower-bidiagonal even-row/odd-column part of T, of size ceil(m/2) x
    floor(m/2) for m = n + 1. One SVD B = X diag(sig) Y^T (Golub & Kahan,
    SIAM J. Numer. Anal. B 2, 205 (1965)) gives cos(T t) on the even and
    sin(T t) on the odd levels, the real and imaginary parts of the phases
    e^{i sig_j (tau - tau_0)}:

        C_n(tau)[2a]   = a_n (-1)^a sum_j X[a, j] X[0, j] Re e^{i sig_j (tau - tau_0)},
        C_n(tau)[2b+1] = a_n (-1)^b sum_j Y[b, j] X[0, j] Im e^{i sig_j (tau - tau_0)},

    where for odd m the last column of X, the null vector of B^T, adds its
    constant zero mode to the even levels. By the group property the phases
    at tau_j are those at tau_{j-1} times e^{i sig (tau_j - tau_{j-1})},
    restarted from the exact phase every _ANCHOR points: one exponential per
    distinct step. C_n has the dtype of the amplitudes: real for a real
    pump. Blocks with a_n = 0 stay zero and are not yielded. Only block
    n = dim - 1 reaches the top pump or pair level, and it keeps its weight
    |a_{dim-1}|^2, so the truncation leak peaks at tau_0: the grid is
    checked, and TruncationError raised if C(tau_0) holds more than
    ``leak_tol`` population on a top level, when the stream is made, before
    any block is propagated.
    """
    coeff = initial.coefficients
    dim = max(coeff.size, 2)
    grid = _increasing_grid(tau_grid, "tau grid")
    # C(tau_0) holds a_p at (p, 0): only the top pump level can carry weight
    leak = float(initial.probabilities[dim - 1]) if coeff.size == dim else 0.0
    if leak > leak_tol:
        raise TruncationError(
            f"truncation leak {leak:.3e} exceeds {leak_tol:.1e}; enlarge the pump "
            f"dimension {dim}")
    K = grid.size - 1
    h = np.diff(grid)  # the step to point j = 1..K, or tau_j - tau_0 at an anchor
    h[::_ANCHOR] = grid[1::_ANCHOR] - grid[0]
    distinct = {}  # not np.unique, whose sorted copies raise the peak memory
    pick = [distinct.setdefault(v, len(distinct)) for v in h.tolist()]
    chunks = -(-K // _ANCHOR)  # the padding to whole chunks picks a row of ones
    pick = np.array(pick + [len(distinct)] * (chunks * _ANCHOR - K), dtype=np.intp)
    steps = np.array(list(distinct))

    def blocks():
        for n, a_n in enumerate(coeff):
            if a_n == 0:
                continue
            off = np.sqrt(np.arange(n, 0, -1.0)) * np.arange(1, n + 1)  # T[k-1, k], k = 1..n
            B = np.zeros(((n + 2) // 2, (n + 1) // 2))
            np.fill_diagonal(B, off[0::2])      # T[2a, 2a + 1]
            np.fill_diagonal(B[1:], off[1::2])  # T[2a, 2a - 1]
            X, sig, Yt = np.linalg.svd(B)
            X[1::2] *= -1.0  # the (-1)^(k // 2) of D, row 0 untouched
            Yt[:, 1::2] *= -1.0
            r = sig.size
            x0 = X[0, :r, None]
            factor = np.ones((steps.size + 1, r), dtype=complex)
            np.exp(1j * np.multiply.outer(steps, sig), out=factor[:-1])
            phase = factor[pick].reshape(chunks, _ANCHOR, r)
            np.cumprod(phase, axis=1, out=phase)  # in place: one complex temporary
            phase = phase.reshape(chunks * _ANCHOR, r)[:K]  # e^{i sig (tau - tau_0)}
            block = np.zeros((grid.size, n + 1), dtype=coeff.dtype)
            block[0, 0] = a_n
            even = phase.real @ (X[:, :r].T * x0)
            even += X[:, r:] @ X[0, r:]  # the zero mode of odd m, constant in tau
            np.multiply(a_n, even, out=block[1:, 0::2])
            np.multiply(a_n, phase.imag @ (Yt * x0), out=block[1:, 1::2])
            yield n, block

    return blocks()
