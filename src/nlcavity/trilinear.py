"""Pump-signal-idler dynamics of the three-mode parametric interaction
H = hw_a N_a + hw_b N_b + hw_c N_c + i*h*chi*(a b+ c+ - a+ b c),
with the frequency-matching condition w_a = w_b + w_c.

Four evolution tiers are provided:

* parametric  -- pump frozen at a classical amplitude A (two-mode squeezing),
* semiclassical -- classical pump with back-reaction (elliptic-dn pump decay),
* short-time  -- quantized pump, BCH-truncated propagator extrapolated in tau,
* full        -- exact Schrodinger evolution on a truncated grid, one
                 half-size SVD per conserved block n = p + i.

H_I conserves N_a + N_b and N_b - N_c, so a pump-only initial state never
leaves the Manley-Rowe pair span {|p>_a |i>_b |i>_c} (Walls & Barakat,
Phys. Rev. A 1, 446 (1970)). The quantized-pump tiers therefore share one
state, ``PairState``: the amplitude matrix C[p, i], from which occupations
and the reduced pump and signal states follow directly. The full tier
propagates each anti-diagonal p + i = n of C exactly, without building an
operator on the full grid.

All dynamics are expressed in the interaction frame and in dimensionless
time tau = chi*t, which scales out the coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import TruncationError
from .numerics import Tolerance, _increasing_grid, integrate_adaptive, jacobi_dn


@dataclass(frozen=True)
class PumpInitialState:
    """Pure initial pump state |psi> = sum_s a_s |s>, signal/idler in vacuum.

    The coefficients keep a real dtype when the amplitudes are real (a Fock
    state, a coherent pump with real alpha) and are complex otherwise; the
    quantized-pump tiers hold C[p, i] in the same dtype.
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

    @property
    def mean_occupation(self):
        return float(np.sum(self.probabilities * np.arange(self.coefficients.size)))

    @classmethod
    def fock(cls, s, dim=None):
        dim = dim if dim is not None else s + 1
        coeff = np.zeros(dim)
        coeff[s] = 1.0
        return cls(coeff)

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


def parametric_occupation(A: float, tau: float) -> float:
    """Signal/idler quanta sinh^2(A*tau) for a fixed classical pump A."""
    if A < 0.0 or tau < 0.0:
        raise ValueError("pump amplitude and tau must be nonnegative")
    return math.sinh(A * tau) ** 2


def parametric_temperature(A: float, tau: float, omega_b: float) -> float:
    """Effective signal temperature h*w_b / (2 kB ln coth(A tau)) in kelvin."""
    from .constants import hbar, k_B

    r = A * tau
    if r <= 0.0:
        return 0.0
    return hbar * omega_b / (2.0 * k_B * math.log(1.0 / math.tanh(r)))


def pump_betas(N_a0: float):
    """Turning-point parameters beta+- of the classical pump evolution."""
    root = math.sqrt(1.0 + 12.0 * N_a0 + 4.0 * N_a0 ** 2)
    return (0.25 * (1.0 + 2.0 * N_a0 + root), 0.25 * (1.0 + 2.0 * N_a0 - root))


def semiclassical_pump(N_a0: float, tau_grid) -> SemiclassicalCurve:
    """Classical pump trajectory with back-reaction, signal/idler from vacuum.

    N_a(tau) = beta+ + (N_a0 - beta+)/dn^2(sqrt(beta+ - beta-) tau | m) with
    m = (N_a0 - beta-)/(beta+ - beta-). Since beta- is slightly negative the
    raw curve dips just below zero at the turning points; the exposed curve
    (and the theta integrand sqrt(N_a)) clamps at zero.

    theta(tau) = int_0^tau sqrt(N_a) dtau' accumulated in grid order over
    adaptive Simpson segments between grid points, all integrated in one
    batched call.
    """
    if N_a0 <= 0.0:
        raise ValueError("N_a0 must be positive")
    grid = _increasing_grid(tau_grid)
    if grid[0] < 0.0:
        raise ValueError("tau grid must start at tau >= 0")
    bp, bm = pump_betas(N_a0)
    m = (N_a0 - bm) / (bp - bm)
    rate = math.sqrt(bp - bm)

    def n_a(tau):
        dn = jacobi_dn(rate * tau, m)
        return np.maximum(0.0, bp + (N_a0 - bp) / (dn * dn))

    n_vals = n_a(grid)

    # sqrt(N_a) has a one-sided square-root kink where the pump touches
    # zero, which caps the attainable Simpson accuracy per segment
    quad_tol = Tolerance(abs_tol=1e-9, rel_tol=1e-8, max_iter=48)
    first = 1 if grid[0] == 0.0 else 0  # a grid starting at 0 has no [0, tau_0]
    segments = integrate_adaptive(
        lambda ts, _: np.sqrt(n_a(ts)),
        np.concatenate([[0.0], grid[:-1]])[first:], grid[first:], quad_tol)
    theta = np.cumsum(np.concatenate([np.zeros(first), segments]))

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
    """Pure state sum_{p,i} C[p, i] |p>_a |i>_b |i>_c of the Manley-Rowe
    pair span: p pump quanta and i signal-idler pairs.

    Signal and idler carry the same number distribution, so N_c = N_b and
    rho_c = rho_b; their top pair level is the last column of C.

    C may hold a trajectory C[tau, p, i]: the reductions act on the last two
    axes, one value per tau, and len, iteration and indexing run over tau.
    Every reduction reads the two number distributions, which are built
    with the state: p_a[p] = sum_i |C[p, i]|^2 of the pump and p_b[i] =
    sum_p |C[p, i]|^2 of the signal, the idler's too.
    """

    C: np.ndarray
    p_a: np.ndarray = field(init=False, repr=False, compare=False)
    p_b: np.ndarray = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        # re^2 + im^2 without a |C|^2 temporary (re^2 alone for a real C)
        parts = (self.C,) if np.isrealobj(self.C) else (self.C.real, self.C.imag)
        for name, out in (("p_a", "p"), ("p_b", "i")):
            object.__setattr__(self, name, sum(np.einsum("...pi,...pi->..." + out, x, x)
                                               for x in parts))

    def _require(self, ndim):
        """C, checked to be one state (ndim 2) or a trajectory (ndim 3)."""
        if self.C.ndim != ndim:
            kind = "one state" if ndim == 2 else "a trajectory"
            raise TypeError(f"needs {kind}, got a PairState of shape {self.C.shape}")
        return self.C

    def __len__(self):
        return len(self._require(3))

    def __iter__(self):
        return map(PairState, self._require(3))

    def __getitem__(self, index):
        return PairState(self._require(3)[index])

    def norm(self):
        return np.sqrt(self.p_a.sum(axis=-1))

    @staticmethod
    def _moments(prob):
        """(mean, second moment) of a number distribution on the last axis."""
        n = np.arange(prob.shape[-1])
        return prob @ n, prob @ (n * n)

    @property
    def n_a(self):
        return self._moments(self.p_a)[0]

    @property
    def n_b(self):
        """Signal occupation, equal to the idler's."""
        return self._moments(self.p_b)[0]

    def pump_variance(self):
        """<N_a^2> - <N_a>^2: the residual of the mean-field factorization
        underlying the semiclassical tier."""
        mean, second = self._moments(self.p_a)
        return second - mean * mean

    def max_boundary_population(self):
        """Truncation leak: population of the top pump level or top pair level."""
        return np.maximum(self.p_a[..., -1], self.p_b[..., -1])


def _anti_diagonal(C, n):
    """Writable view of the anti-diagonal p + i = n of C[..., p, i], indexed
    by k = i = 0..n: strided through the flattened (p, i) axes, starting at
    (n, 0). C must be C-contiguous in its last two axes, so the flattening
    is a view."""
    dim = C.shape[-1]
    return C.reshape(C.shape[:-2] + (dim * dim,))[..., n * dim::-(dim - 1)][..., :n + 1]


# ---------------------------------------------------------------------------
# short-time (quantized pump) tier
# ---------------------------------------------------------------------------

def short_time_state(initial: PumpInitialState, tau) -> PairState:
    """The BCH short-time state at dimensionless tau, a scalar or an array
    for the trajectory C[tau, p, i]. Pump level s branches onto the
    anti-diagonal p + i = s of C, with amplitudes a_s f_i(s) tau^i /
    sqrt(N_s(tau)), built in log space one branch at a time for all tau, so
    tau >> 1 stays finite; tau = 0 gives C[s, 0] = a_s.
    """
    tau = np.asarray(tau, dtype=float)
    if np.any(tau < 0.0):
        raise ValueError("tau must be nonnegative")
    coeff = initial.coefficients
    dim = max(coeff.size, 2)
    log_fact = np.array([math.lgamma(j + 1) for j in range(coeff.size)])
    with np.errstate(divide="ignore"):
        log_tau = np.log(tau)[..., None]
    C = np.zeros(tau.shape + (dim, dim), dtype=coeff.dtype)
    for s, a_s in enumerate(coeff):
        n = np.arange(s + 1)
        with np.errstate(invalid="ignore"):  # n log(0) is -inf, 0 at n = 0
            log_amp = np.where(n > 0, n * log_tau, 0.0) + 0.5 * (log_fact[s] - log_fact[s - n])
        amp = np.exp(log_amp - log_amp.max(axis=-1, keepdims=True))
        _anti_diagonal(C, s)[...] = a_s * (amp / np.linalg.norm(amp, axis=-1, keepdims=True))
    return PairState(C)


# ---------------------------------------------------------------------------
# full quantum tier
# ---------------------------------------------------------------------------

def full_state(initial: PumpInitialState, tau_grid, leak_tol: float = 1e-6) -> PairState:
    """Interaction-picture Schrodinger evolution dpsi/dtau = G psi of the
    pump state ``initial`` with signal and idler in vacuum, propagated
    exactly one conserved block at a time.

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
    sin(T t) on the odd levels, so every tau follows in real arithmetic:

        C_n(tau)[2a]   = a_n (-1)^a sum_j X[a, j] X[0, j] cos(sig_j (tau - tau_0)),
        C_n(tau)[2b+1] = a_n (-1)^b sum_j Y[b, j] X[0, j] sin(sig_j (tau - tau_0)),

    where for odd m the last column of X, the null vector of B^T, adds its
    constant zero mode to the even levels. C therefore has the dtype of the
    amplitudes: real for a real pump. Blocks with a_n = 0 stay zero. Only
    block n = dim - 1 reaches the top pump or pair level, and it keeps its
    weight |a_{dim-1}|^2, so the truncation leak peaks at tau_0: TruncationError
    is raised before any propagation if C(tau_0) holds more than ``leak_tol``
    population on a top level. Returns the trajectory C[tau, p, i].
    """
    coeff = initial.coefficients
    dim = max(coeff.size, 2)
    grid = _increasing_grid(tau_grid)

    C = np.zeros((grid.size, dim, dim), dtype=coeff.dtype)
    C[0, :coeff.size, 0] = coeff
    leak = PairState(C[0]).max_boundary_population()
    if leak > leak_tol:
        raise TruncationError(
            f"truncation leak {leak:.3e} exceeds {leak_tol:.1e}; enlarge the pump "
            f"dimension {dim}", leak=leak)
    dt = grid[1:] - grid[0]
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
        block = _anti_diagonal(C[1:], n)
        even = np.cos(np.multiply.outer(dt, sig)) @ (X[:, :r].T * x0)
        even += X[:, r:] @ X[0, r:]  # the zero mode of odd m, constant in tau
        np.multiply(a_n, even, out=block[:, 0::2])
        np.multiply(a_n, np.sin(np.multiply.outer(dt, sig)) @ (Yt * x0), out=block[:, 1::2])
    return PairState(C)
