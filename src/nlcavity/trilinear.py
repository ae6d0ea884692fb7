"""Pump-signal-idler dynamics of the three-mode parametric interaction
H = hw_a N_a + hw_b N_b + hw_c N_c + i*h*chi*(a b+ c+ - a+ b c),
with the frequency-matching condition w_a = w_b + w_c.

Four evolution tiers are provided:

* parametric  -- pump frozen at a classical amplitude A (two-mode squeezing),
* semiclassical -- classical pump with back-reaction (elliptic-dn pump decay),
* short-time  -- quantized pump, BCH-truncated propagator extrapolated in tau,
* full        -- numerical Schrodinger evolution (RK45) on a truncated grid.

H_I conserves N_a + N_b and N_b - N_c, so a pump-only initial state never
leaves the Manley-Rowe pair span {|p>_a |i>_b |i>_c} (Walls & Barakat,
Phys. Rev. A 1, 446 (1970)). The quantized-pump tiers therefore share one
state, ``PairState``: the amplitude matrix C[p, i], from which occupations
and the reduced pump and signal states follow directly. The full tier
applies the interaction generator to C without building an operator.

All dynamics are expressed in the interaction frame and in dimensionless
time tau = chi*t, which scales out the coupling.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from . import fock
from .errors import TruncationError
from .fock import DensityMatrix, HilbertSpec, StateVector
from .numerics import RealGrid, Tolerance, evolve_ode, integrate_adaptive, jacobi_dn


@dataclass(frozen=True)
class PumpInitialState:
    """Pure initial pump state |psi> = sum_s a_s |s>, signal/idler in vacuum."""

    coefficients: np.ndarray

    def __post_init__(self):
        coeff = np.asarray(self.coefficients, dtype=complex).ravel()
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
        coeff = np.zeros(dim, dtype=complex)
        coeff[s] = 1.0
        return cls(coeff)

    @classmethod
    def coherent(cls, mean_occupation, dim):
        """Coherent pump with <N_a(0)> = mean_occupation, truncation-gated."""
        state = fock.coherent_state(math.sqrt(mean_occupation), dim)
        return cls(state.amplitudes)


@dataclass(frozen=True)
class SemiclassicalCurve:
    """Classical pump trajectory N_a(tau) and accumulated phase theta(tau)."""

    tau_grid: np.ndarray
    N_a: np.ndarray
    theta: np.ndarray
    beta_plus: float
    beta_minus: float
    modulus: float
    N_a0: float = field(default=0.0)


def parametric_occupation(A: float, tau: float) -> float:
    """Signal/idler quanta sinh^2(A*tau) for a fixed classical pump A."""
    if A < 0.0 or tau < 0.0:
        raise ValueError("pump amplitude and tau must be nonnegative")
    return math.sinh(A * tau) ** 2


def parametric_state(A: float, tau: float, dim: int) -> StateVector:
    """Two-mode squeezed vacuum sech(r) sum tanh(r)^n |n,n>, r = A*tau.

    The truncation gate requires tanh(r)^(2*dim) < 1e-8 so the discarded
    tail is negligible.
    """
    r = A * tau
    th = math.tanh(r)
    if th > 0.0 and th ** (2 * dim) >= 1e-8:
        need = int(math.ceil(math.log(1e-8) / (2.0 * math.log(th)))) + 1
        raise TruncationError(
            f"two-mode squeezed tail too heavy at dim={dim} (tanh^2dim="
            f"{th ** (2 * dim):.2e}); need dim >= {need}",
            leak=th ** (2 * dim), required_dim=need)
    spec = HilbertSpec((dim, dim))
    amps = np.zeros(spec.total_dim, dtype=complex)
    for n in range(dim):
        amps[n * dim + n] = th ** n
    amps /= np.linalg.norm(amps)
    return StateVector(spec, amps)


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
    grid = tau_grid.points if isinstance(tau_grid, RealGrid) else RealGrid(tau_grid).points
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

    return SemiclassicalCurve(tau_grid=grid, N_a=n_vals, theta=theta,
                              beta_plus=bp, beta_minus=bm, modulus=m, N_a0=N_a0)


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
    """

    C: np.ndarray

    def norm(self) -> float:
        return float(np.linalg.norm(self.C))

    def _moments(self, axis):
        """(mean, second moment) of the pump (axis 1) or pair (axis 0) number."""
        prob = np.sum(np.abs(self.C) ** 2, axis=axis)
        n = np.arange(prob.size)
        return float(np.sum(prob * n)), float(np.sum(prob * n * n))

    @property
    def n_a(self) -> float:
        return self._moments(1)[0]

    @property
    def n_b(self) -> float:
        """Signal occupation, equal to the idler's."""
        return self._moments(0)[0]

    def pump_variance(self) -> float:
        """<N_a^2> - <N_a>^2: the residual of the mean-field factorization
        underlying the semiclassical tier."""
        mean, second = self._moments(1)
        return second - mean * mean

    def max_boundary_population(self) -> float:
        """Truncation leak: population of the top pump level or top pair level."""
        pops = np.abs(self.C) ** 2
        return max(float(np.sum(pops[-1, :])), float(np.sum(pops[:, -1])))

    def reduced(self):
        """Pump marginal rho_a = C C+ and the diagonal of the signal marginal,
        p_b[i] = sum_p |C[p, i]|^2; both traces are |C|^2, checked on rho_a."""
        rho_a = self.C @ self.C.conj().T
        return (DensityMatrix(HilbertSpec((rho_a.shape[0],)), rho_a),
                np.sum(np.abs(self.C) ** 2, axis=0))

    def state_vector(self, spec: HilbertSpec) -> StateVector:
        """Embedding in the full three-mode truncation grid."""
        dp = self.C.shape[1]
        if spec.n_modes != 3 or self.C.shape[0] > spec.dims[0] or dp > min(spec.dims[1:]):
            raise ValueError(f"pair state of shape {self.C.shape} does not fit {spec}")
        amps = np.zeros(spec.dims, dtype=complex)
        amps[: self.C.shape[0], np.arange(dp), np.arange(dp)] = self.C
        return StateVector(spec, amps.ravel())


# ---------------------------------------------------------------------------
# short-time (quantized pump) tier
# ---------------------------------------------------------------------------

def branch_coefficient(n: int, s: int) -> float:
    """f_n(s) = sqrt(s! Gamma(1+n) / (n! (s-n)!)) for vacuum signal/idler
    (Bargmann index 1/2); this equals sqrt(s!/(s-n)!)."""
    if not (0 <= n <= s):
        raise ValueError("need 0 <= n <= s")
    log_f2 = (math.lgamma(s + 1) + math.lgamma(1.0 + n)
              - math.lgamma(n + 1) - math.lgamma(s - n + 1))
    return math.exp(0.5 * log_f2)


def branch_normalization(s: int, tau: float) -> float:
    """Normalization N_s(tau) = sum_n f_n^2 tau^(2n) of a pump level-s branch.

    This equals the closed form e^(1/tau^2) tau^(2s) Gamma(s+1, 1/tau^2),
    evaluated here through its stable finite sum s! * sum_u tau^(2(s-u))/u!.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    if tau == 0.0:
        return 1.0
    return float(sum(math.exp(math.lgamma(s + 1) - math.lgamma(u + 1)
                              + 2.0 * (s - u) * math.log(tau))
                     for u in range(s + 1)))


def short_time_state(initial: PumpInitialState, tau: float) -> PairState:
    """The BCH short-time state at dimensionless tau.

    Pump level s branches onto the anti-diagonal p + i = s of C, with
    amplitudes a_s f_i(s) tau^i / sqrt(N_s(tau)); they are built in log
    space so late-time (tau >> 1) evaluation stays finite.
    """
    if tau < 0.0:
        raise ValueError("tau must be nonnegative")
    coeff = initial.coefficients
    dim = max(coeff.size, 2)
    C = np.zeros((dim, dim), dtype=complex)
    if tau == 0.0:
        C[: coeff.size, 0] = coeff
        return PairState(C)
    s, n = np.tril_indices(coeff.size)
    log_fact = np.array([math.lgamma(j + 1) for j in range(coeff.size)])
    log_rise = np.array([math.lgamma(1.0 + j) for j in range(coeff.size)])
    log_amp = np.full((coeff.size, coeff.size), -np.inf)
    log_amp[s, n] = 0.5 * (log_fact[s] + log_rise[n] - log_fact[n] - log_fact[s - n]) \
        + n * math.log(tau)
    amps = np.exp(log_amp - log_amp.max(axis=1, keepdims=True))
    amps /= np.linalg.norm(amps, axis=1, keepdims=True)
    C[s - n, n] = coeff[s] * amps[s, n]
    return PairState(C)


def long_time_signal(P_s) -> DensityMatrix:
    """Late-time signal state: diagonal mixture carrying the initial pump
    number distribution."""
    p = np.asarray(P_s, dtype=float).ravel()
    if np.any(p < -1e-12):
        raise ValueError("probabilities must be nonnegative")
    if abs(p.sum() - 1.0) > 1e-9:
        raise ValueError(f"probabilities sum to {p.sum()}, not 1")
    dim = max(p.size, 2)
    mat = np.zeros((dim, dim), dtype=complex)
    np.fill_diagonal(mat[:p.size, :p.size], np.clip(p, 0.0, None))
    return DensityMatrix(HilbertSpec((dim,)), mat)


# ---------------------------------------------------------------------------
# full quantum tier
# ---------------------------------------------------------------------------

def initial_product_state(initial: PumpInitialState, spec: HilbertSpec) -> StateVector:
    """|psi_pump> |0>_b |0>_c on the given truncation grid."""
    da = spec.dims[0]
    if initial.coefficients.size > da:
        raise ValueError("pump dim too small for the initial pump state")
    amps = np.zeros(spec.dims, dtype=complex)
    amps[: initial.coefficients.size, 0, 0] = initial.coefficients
    return StateVector(spec, amps.ravel())


_ODE_TOL = Tolerance(abs_tol=1e-12, rel_tol=1e-10)


def evolve_full(initial: StateVector, tau_grid, leak_tol: float = 1e-6) -> list[PairState]:
    """Interaction-picture Schrodinger evolution dpsi/dtau = G psi.

    ``initial`` must lie in the pair span {|p, i, i>} (a pump-only state
    does), which G leaves invariant on the truncated grid; the evolution
    runs on C[p, i] with pair dimension min(d_b, d_c), where G acts as
    kron(a, P+) - kron(a+, P) and P+|i> = (i+1)|i+1> creates one
    signal-idler pair. Raises ValueError for weight off the span and
    TruncationError if the top pump or pair level accumulates more than
    ``leak_tol`` population anywhere along the trajectory.
    """
    spec = initial.spec
    if spec.n_modes != 3:
        raise ValueError("trilinear dynamics need a three-mode spec")
    da, db, dc = spec.dims
    dp = min(db, dc)
    psi = np.array(initial.tensor_view())
    C0 = psi[:, np.arange(dp), np.arange(dp)]
    psi[:, np.arange(dp), np.arange(dp)] = 0.0
    if np.any(psi):
        raise ValueError("initial state has weight outside the pair span |p, i, i>")
    # on the flattened C, kron(a, P+) maps index r + s to r (s = dp - 1)
    # with weight sqrt(p+1)*i at (p, i) = divmod(r, dp); its adjoint maps r
    # back to r + s. The i = 0 weights vanish, where r + s wraps a pump row.
    s = dp - 1
    p, i = np.indices((da, dp))
    w = (np.sqrt(p + 1.0) * i).ravel()[:-s]

    def rhs(_t, y):
        dy = np.zeros_like(y)
        dy[:-s] = w * y[s:]
        dy[s:] -= w * y[:-s]
        return dy

    raw = evolve_ode(rhs, C0.ravel(), tau_grid, _ODE_TOL)
    states = [PairState(y.reshape(C0.shape)) for y in raw]
    leak = max(s.max_boundary_population() for s in states)
    if leak > leak_tol:
        raise TruncationError(
            f"truncation leak {leak:.3e} exceeds {leak_tol:.1e}; enlarge dims {spec.dims}",
            leak=leak)
    return states
