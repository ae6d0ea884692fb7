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
from dataclasses import dataclass

import numpy as np

from . import fock
from .errors import TruncationError
from .fock import DensityMatrix, HilbertSpec, StateVector
from .numerics import Tolerance, _increasing_grid, evolve_ode, integrate_adaptive, jacobi_dn


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
    """

    C: np.ndarray

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

    def _marginal(self, axis):
        """Pump (axis -1 summed) or pair (axis -2 summed) number distribution,
        taken as re^2 + im^2 without a |C|^2 temporary."""
        spec = "...pi,...pi->..." + ("p" if axis == -1 else "i")
        return sum(np.einsum(spec, x, x) for x in (self.C.real, self.C.imag))

    def norm(self):
        return np.sqrt(self._marginal(-1).sum(axis=-1))

    def _moments(self, axis):
        """(mean, second moment) of the pump (axis -1) or pair (axis -2) number."""
        prob = self._marginal(axis)
        n = np.arange(prob.shape[-1])
        return prob @ n, prob @ (n * n)

    @property
    def n_a(self):
        return self._moments(-1)[0]

    @property
    def n_b(self):
        """Signal occupation, equal to the idler's."""
        return self._moments(-2)[0]

    def pump_variance(self):
        """<N_a^2> - <N_a>^2: the residual of the mean-field factorization
        underlying the semiclassical tier."""
        mean, second = self._moments(-1)
        return second - mean * mean

    def max_boundary_population(self):
        """Truncation leak: population of the top pump level or top pair level."""
        return np.maximum(self._marginal(-1)[..., -1], self._marginal(-2)[..., -1])

    def reduced(self):
        """Pump marginal rho_a = C C+ and signal diagonal p_b[i] = sum_p |C[p, i]|^2
        of one state (index a trajectory first); traces |C|^2, checked on rho_a."""
        C = self._require(2)
        rho_a = C @ C.conj().T
        return (DensityMatrix(HilbertSpec((rho_a.shape[0],)), rho_a),
                np.sum(np.abs(C) ** 2, axis=0))

    def state_vector(self, spec: HilbertSpec) -> StateVector:
        """Embedding of one state in the full three-mode truncation grid."""
        C = self._require(2)
        dp = C.shape[1]
        if spec.n_modes != 3 or C.shape[0] > spec.dims[0] or dp > min(spec.dims[1:]):
            raise ValueError(f"pair state of shape {C.shape} does not fit {spec}")
        amps = np.zeros(spec.dims, dtype=complex)
        amps[: C.shape[0], np.arange(dp), np.arange(dp)] = C
        return StateVector(spec, amps.ravel())


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
    C = np.zeros(tau.shape + (dim, dim), dtype=complex)
    for s, a_s in enumerate(coeff):
        n = np.arange(s + 1)
        with np.errstate(invalid="ignore"):  # n log(0) is -inf, 0 at n = 0
            log_amp = np.where(n > 0, n * log_tau, 0.0) + 0.5 * (log_fact[s] - log_fact[s - n])
        amp = np.exp(log_amp - log_amp.max(axis=-1, keepdims=True))
        C[..., s - n, n] = a_s * (amp / np.linalg.norm(amp, axis=-1, keepdims=True))
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


def evolve_full(initial: StateVector, tau_grid, leak_tol: float = 1e-6) -> PairState:
    """Interaction-picture Schrodinger evolution dpsi/dtau = G psi.

    ``initial`` must lie in the pair span {|p, i, i>} (a pump-only state
    does), which G leaves invariant on the truncated grid; the evolution
    runs on C[p, i] with pair dimension min(d_b, d_c), where G acts as
    kron(a, P+) - kron(a+, P) and P+|i> = (i+1)|i+1> creates one
    signal-idler pair. Returns the trajectory C[tau, p, i]. Raises
    ValueError for weight off the span and TruncationError if the top pump
    or pair level accumulates more than ``leak_tol`` population anywhere
    along the trajectory.
    """
    spec = initial.spec
    if spec.n_modes != 3:
        raise ValueError("trilinear dynamics need a three-mode spec")
    da, db, dc = spec.dims
    dp = min(db, dc)
    psi = initial.tensor_view()
    C0 = psi[:, np.arange(dp), np.arange(dp)]
    if np.count_nonzero(psi) != np.count_nonzero(C0):  # C0 holds the span's entries
        raise ValueError("initial state has weight outside the pair span |p, i, i>")
    # on the flattened C, kron(a, P+) maps index r + s to r (s = dp - 1)
    # with weight sqrt(p+1)*i at (p, i) = divmod(r, dp); its adjoint maps r
    # back to r + s. The i = 0 weights vanish, where r + s wraps a pump row.
    s = dp - 1
    p, i = np.indices((da, dp))
    w = (np.sqrt(p + 1.0) * i).ravel()[:-s]

    def rhs(_t, y):
        dy = np.zeros(y.shape, dtype=complex)
        dy[:-s] = w * y[s:]
        dy[s:] -= w * y[:-s]
        return dy

    trajectory = PairState(evolve_ode(rhs, C0.ravel(), tau_grid, _ODE_TOL).reshape(-1, da, dp))
    leak = trajectory.max_boundary_population().max()
    if leak > leak_tol:
        raise TruncationError(
            f"truncation leak {leak:.3e} exceeds {leak_tol:.1e}; enlarge dims {spec.dims}",
            leak=leak)
    return trajectory
