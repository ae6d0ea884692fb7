"""Dense states and sparse operator algebra on the full truncated Fock grid,
kept as test oracles for the pair-basis (C[p, i]) paths of ``nlcavity``.

``StateVector`` and ``DensityMatrix`` are states on a ``HilbertSpec`` grid,
``partial_trace`` reduces them and ``state_vector`` embeds a pair or pump
state in the three-mode grid; ``parametric_state`` and ``long_time_signal``
are the two-mode squeezed vacuum and the late-time signal mixture.

``fock_pump`` is a pump in one number state and ``pump_mean_occupation``
its (or any pump's) mean occupation; the package starts its tiers from a
coherent pump only.

``assemble`` writes a quantized tier's block stream (n, C_n) into the pair
grid C[..., p, i] by fancy indexing, ``blocks_of`` splits a C back into its
stream, and ``einsum_pair_state`` reduces a C to its pump and pair
distributions with einsums over the (p, i) axes: the package folds the
stream into those distributions block by block and writes C only for the
info diagnostics.

``ModeOperator``, ``ladder_ops``, ``embed`` and ``expectation`` build and
apply CSR operators on a ``HilbertSpec``; ``interaction_generator``,
``build_interaction_hamiltonian`` and ``mode_numbers`` assemble the
three-mode trilinear generator, Hamiltonian and number operators from
them. The package computes the same quantities without building operators.

``branch_coefficient`` and ``branch_normalization`` are the closed forms of
one short-time branch, evaluated scalar by scalar; ``short_time_state``
builds every branch of every tau at once.

``boundary_population`` reads the truncation leak of a dense state mode by
mode, ``fidelity`` is the dense Uhlmann fidelity the diagonal-state
Bhattacharyya sums of the package are checked against, and
``thermal_density_matrix`` is the dense form of a ``ThermalReference``.
``reduced`` forms one pair state's pump density matrix and signal diagonal,
``dense_von_neumann_entropy`` is the eigenvalue entropy of a dense density
matrix that the package's Gram-matrix (Schmidt) entropies are checked
against, ``svd_von_neumann_entropy`` the same entropy from one batched SVD
of the factor, as first written, and ``mode_factor`` is the factor C of a
reduced state C C+ that those entropies take.

``evolve_ode`` is the Dormand-Prince embedded RK 4(5) stepper, and
``evolve_pair_rk45`` integrates the pair amplitudes with it on the right-hand
side ``pair_rhs``; the package's full tier propagates each conserved block
exactly instead. ``full_state_eigh`` is that exact block propagator as first
written, one ``eigh`` of each whole block; the package takes one SVD of the
block's even/odd half.

``semiclassical_theta_quad`` is the semiclassical pump's phase theta by
QUADPACK in tau with breakpoints at the clamp edges; the package integrates
it in the pump's amplitude variable instead.

``parametric_temperature`` and ``effective_temperature`` are the signal
temperature of the frozen-pump tier and the Bose-inversion temperature,
formulas no scenario reports.

``junction_inductance`` (with its ``CriticalCurrentError``), ``dispersion``
and ``GaussianPulse`` are line formulas no scenario reports; the Gaussian
bump has two horizons, a black-hole/white-hole pair, which only the scan
below resolves.

``find_root_bracketed`` is Brent's method on a sign-changing bracket.
``find_horizon`` scans the pulse window with 2 001 points and Brent-solves
each sign change of c - u, ``velocity_gradient`` is a 5-point central
difference with one Richardson step, and ``photons_per_pulse`` integrates
the decaying emission rate by adaptive quadrature; the package resolves the
horizon, its gradient and the photon count in closed form.

``b_func`` and ``d_func`` are the detector's coupling coefficients as first
written, one closed form per call, and ``response_terms_reference`` assembles
the 2x2 response system from them; the package forms each shared cavity
factor and mechanical bracket once and must return the same bits.

``signal_density`` and ``noise_density`` are the signal and back-reaction
noise densities of one operating point on any frequency grid; the package
evaluates them only inside the band integrals of ``band_spectra``.
``one_line`` is the +1 thermal parametrization of one drive at one bath
temperature, the one line of a one-point ``thermo_sweep``; the package runs
the sweep over whole (drive, temperature) grids only.

``fit_lorentzian_reference`` is the Levenberg-Marquardt Lorentzian fit as
first written, rebuilding the model and Jacobian at every iteration; the
package's fit must return the same bits while reusing what it already holds.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np
import scipy.sparse as sp
from scipy.integrate import quad
from scipy.special import ellipj, ellipk, ellipkinc

from nlcavity.constants import Phi0, hbar, k_B
from nlcavity.detector import (_coefficients, _noise_terms, _point, _signal_at,
                               thermo_sweep)
from nlcavity.errors import ConvergenceError, NoHorizonError, TruncationError
from nlcavity.hawking import LineParams, propagation_velocity
from nlcavity.numerics import Tolerance, _increasing_grid, integrate_adaptive
from nlcavity.qinfo import NORM_TOL, ThermalReference, _unit_trace, entropy
from nlcavity.trilinear import PairState, PumpInitialState


# ---------------------------------------------------------------------------
# states on the full truncated Fock grid
# ---------------------------------------------------------------------------

HERM_TOL = 1e-10
EIG_FLOOR = -1e-9


class HilbertSpec:
    """Per-mode truncation dimensions with a fixed mode order; basis index
    j maps to occupations np.unravel_index(j, dims)."""

    def __init__(self, dims):
        dims = tuple(int(d) for d in dims)
        if not dims:
            raise ValueError("need at least one mode")
        if any(d < 2 for d in dims):
            raise ValueError(f"every mode dimension must be >= 2, got {dims}")
        self.dims = dims
        self.total_dim = int(np.prod(dims))

    @property
    def n_modes(self):
        return len(self.dims)

    def __eq__(self, other):
        return isinstance(other, HilbertSpec) and self.dims == other.dims

    def __hash__(self):
        return hash(self.dims)

    def __repr__(self):
        return f"HilbertSpec(dims={self.dims})"


class StateVector:
    """Normalized pure state over a truncated tensor-product Fock basis."""

    def __init__(self, spec: HilbertSpec, amplitudes):
        amps = np.asarray(amplitudes, dtype=complex).ravel()
        if amps.size != spec.total_dim:
            raise ValueError(f"amplitude length {amps.size} != total dim {spec.total_dim}")
        norm = float(np.linalg.norm(amps))
        if not abs(norm - 1.0) <= NORM_TOL:
            raise ValueError(f"state norm {norm} deviates from 1 beyond {NORM_TOL}")
        self.spec = spec
        self.amplitudes = amps
        self.amplitudes.setflags(write=False)

    def norm(self) -> float:
        return float(np.linalg.norm(self.amplitudes))

    def tensor_view(self):
        return self.amplitudes.reshape(self.spec.dims)


class DensityMatrix:
    """Hermitian, trace-one, positive operator on a truncated Fock space."""

    def __init__(self, spec: HilbertSpec, entries):
        mat = np.asarray(entries, dtype=complex)
        if mat.shape != (spec.total_dim, spec.total_dim):
            raise ValueError(f"matrix shape {mat.shape} != ({spec.total_dim},)*2")
        scale = max(1.0, float(np.max(np.abs(mat))))
        if np.max(np.abs(mat - mat.conj().T)) > HERM_TOL * scale:
            raise ValueError("density matrix is not Hermitian")
        tr = complex(np.trace(mat)).real
        if not abs(tr - 1.0) <= NORM_TOL:
            raise ValueError(f"trace {tr} deviates from 1 beyond {NORM_TOL}")
        herm = 0.5 * (mat + mat.conj().T)
        herm.setflags(write=False)
        evals = np.linalg.eigvalsh(herm)
        if evals.min() < EIG_FLOOR:
            raise ValueError(f"negative eigenvalue {evals.min()} below {EIG_FLOOR}")
        evals.setflags(write=False)
        self.spec = spec
        self.entries = herm
        self._evals = evals

    def eigenvalues(self):
        """Ascending spectrum of the Hermitian part, from the positivity check."""
        return self._evals


def partial_trace(state, keep) -> DensityMatrix:
    """Reduced density matrix over the modes in ``keep`` (ascending order)."""
    keep = sorted(set(int(k) for k in keep))
    if not keep:
        raise ValueError("keep set must be nonempty")
    spec = state.spec
    if any(k < 0 or k >= spec.n_modes for k in keep):
        raise ValueError(f"keep indices {keep} out of range for {spec}")
    kept_dims = tuple(spec.dims[k] for k in keep)
    traced = [i for i in range(spec.n_modes) if i not in keep]
    dk = int(np.prod(kept_dims))

    if isinstance(state, StateVector):
        psi = state.tensor_view()
        perm = keep + traced
        mat = np.transpose(psi, perm).reshape(dk, -1)
        rho = mat @ mat.conj().T
    elif isinstance(state, DensityMatrix):
        nm = spec.n_modes
        t = state.entries.reshape(spec.dims + spec.dims)
        # contract each traced mode's ket index with its bra index; ``traced``
        # is ascending, so after ``count`` traces the ket axis has shifted by
        # count and the matching bra axis sits (remaining modes) further right
        for count, ax in enumerate(traced):
            a = ax - count
            t = np.trace(t, axis1=a, axis2=a + nm - count)
        rho = t.reshape(dk, dk)
    else:
        raise TypeError(f"cannot partial-trace a {type(state).__name__}")
    return DensityMatrix(HilbertSpec(kept_dims), rho)


def state_vector(state, spec: HilbertSpec) -> StateVector:
    """sum C[p, i] |p, i, i> on the three-mode grid ``spec``, for one pair
    amplitude matrix C[p, i], or the pump state |psi>|0>|0> of a
    PumpInitialState."""
    C = state.coefficients[:, None] if isinstance(state, PumpInitialState) else state
    dp = C.shape[1]
    amps = np.zeros(spec.dims, dtype=complex)
    amps[: C.shape[0], np.arange(dp), np.arange(dp)] = C
    return StateVector(spec, amps.ravel())


def parametric_state(A: float, tau: float, dim: int) -> StateVector:
    """Two-mode squeezed vacuum sech(r) sum tanh(r)^n |n,n>, r = A*tau.

    The truncation gate requires tanh(r)^(2*dim) < 1e-8 so the discarded
    tail is negligible.
    """
    th = math.tanh(A * tau)
    if th > 0.0 and th ** (2 * dim) >= 1e-8:
        need = int(math.ceil(math.log(1e-8) / (2.0 * math.log(th)))) + 1
        raise TruncationError(
            f"two-mode squeezed tail too heavy at dim={dim} (tanh^2dim="
            f"{th ** (2 * dim):.2e}); need dim >= {need}")
    amps = np.diag(th ** np.arange(dim)).astype(complex)
    return StateVector(HilbertSpec((dim, dim)), amps / np.linalg.norm(amps))


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
# single- and multi-mode operators
# ---------------------------------------------------------------------------

class ModeOperator:
    """Sparse operator on a HilbertSpec, tagged with what it represents."""

    def __init__(self, spec: HilbertSpec, matrix, label: str = "custom"):
        mat = sp.csr_matrix(matrix, dtype=complex)
        if mat.shape != (spec.total_dim, spec.total_dim):
            raise ValueError(f"matrix shape {mat.shape} does not match spec {spec}")
        self.spec = spec
        self.matrix = mat
        self.label = label

    def __matmul__(self, other):
        if isinstance(other, ModeOperator):
            if other.spec != self.spec:
                raise ValueError("operator spec mismatch")
            return ModeOperator(self.spec, self.matrix @ other.matrix)
        return self.matrix @ other

    def toarray(self):
        return self.matrix.toarray()

    def is_hermitian(self, tol=1e-12):
        delta = (self.matrix - self.matrix.conjugate().transpose()).tocoo()
        if delta.nnz == 0:
            return True
        scale = max(1.0, abs(self.matrix).max())
        return np.max(np.abs(delta.data)) <= tol * scale


def ladder_ops(dim: int):
    """Single-mode (annihilation, creation, number) operators, truncated.

    a|n> = sqrt(n)|n-1>, a+|n> = sqrt(n+1)|n+1> with a+|dim-1> = 0.
    """
    if dim < 2:
        raise ValueError(f"dim must be >= 2, got {dim}")
    spec = HilbertSpec((dim,))
    root = np.sqrt(np.arange(1, dim))
    a = sp.diags(root, offsets=1, shape=(dim, dim), format="csr", dtype=complex)
    adag = sp.diags(root, offsets=-1, shape=(dim, dim), format="csr", dtype=complex)
    num = sp.diags(np.arange(dim, dtype=float), 0, shape=(dim, dim),
                   format="csr", dtype=complex)
    return (ModeOperator(spec, a, "annihilation"),
            ModeOperator(spec, adag, "creation"),
            ModeOperator(spec, num, "number"))


def embed(op: ModeOperator, mode_index: int, spec: HilbertSpec) -> ModeOperator:
    """Lift a single-mode operator to I x ... x op x ... x I on ``spec``."""
    if not (0 <= mode_index < spec.n_modes):
        raise ValueError(f"mode index {mode_index} out of range for {spec}")
    d = spec.dims[mode_index]
    if op.matrix.shape != (d, d):
        raise ValueError(f"operator dim {op.matrix.shape[0]} != mode dim {d}")
    mat = sp.identity(1, dtype=complex, format="csr")
    for i, di in enumerate(spec.dims):
        factor = op.matrix if i == mode_index else sp.identity(di, dtype=complex, format="csr")
        mat = sp.kron(mat, factor, format="csr")
    return ModeOperator(spec, mat, label=f"{op.label}@mode{mode_index}")


def expectation(state, op: ModeOperator) -> complex:
    """<psi|O|psi> for a StateVector or Tr(rho O) for a DensityMatrix."""
    if isinstance(state, StateVector):
        if state.spec != op.spec:
            raise ValueError("state/operator spec mismatch")
        return complex(np.vdot(state.amplitudes, op.matrix @ state.amplitudes))
    if isinstance(state, DensityMatrix):
        if state.spec != op.spec:
            raise ValueError("state/operator spec mismatch")
        return complex(np.trace(op.matrix @ state.entries))
    raise TypeError(f"cannot take expectation on a {type(state).__name__}")


# ---------------------------------------------------------------------------
# full-grid trilinear operators
# ---------------------------------------------------------------------------

def interaction_generator(spec: HilbertSpec):
    """Sparse anti-Hermitian generator G = a b+ c+ - a+ b c (so H_I = i h chi G
    and the interaction-frame Schrodinger equation reads dpsi/dtau = G psi)."""
    da, db, dc = spec.dims
    a, adag, _ = ladder_ops(da)
    b, bdag, _ = ladder_ops(db)
    c, cdag, _ = ladder_ops(dc)
    A = embed(a, 0, spec).matrix
    Bd = embed(bdag, 1, spec).matrix
    Cd = embed(cdag, 2, spec).matrix
    down = A @ Bd @ Cd
    return (down - down.conjugate().transpose()).tocsr()


def build_interaction_hamiltonian(spec: HilbertSpec) -> ModeOperator:
    """Interaction-frame Hamiltonian H_I/(h chi) = i(a b+ c+ - a+ b c)."""
    return ModeOperator(spec, 1j * interaction_generator(spec), label="H_I/(hbar*chi)")


def mode_numbers(spec: HilbertSpec):
    """Embedded number operators (N_a, N_b, N_c)."""
    ops = []
    for i, d in enumerate(spec.dims):
        _, _, num = ladder_ops(d)
        ops.append(embed(num, i, spec))
    return tuple(ops)


# ---------------------------------------------------------------------------
# block streams of the quantized tiers and their einsum reductions
# ---------------------------------------------------------------------------

def fock_pump(s: int, dim: int = None) -> PumpInitialState:
    """Pump in the number state |s> on dim levels (s + 1 by default)."""
    dim = dim if dim is not None else s + 1
    coeff = np.zeros(dim)
    coeff[s] = 1.0
    return PumpInitialState(coeff)


def pump_mean_occupation(initial: PumpInitialState) -> float:
    """<N_a> = sum_s s |a_s|^2 of a pump state."""
    return float(np.sum(initial.probabilities * np.arange(initial.coefficients.size)))


def pair_dim(initial: PumpInitialState) -> int:
    """Side of the quantized tiers' (dim, dim) pair grid: the pump dimension, at least 2."""
    return max(initial.coefficients.size, 2)


def assemble(blocks, dim: int) -> np.ndarray:
    """C[..., p, i] on the (dim, dim) pair grid from a block stream (n, C_n),
    C_n[..., k] placed at (p, i) = (n - k, k) by fancy indexing; anti-diagonals
    the stream skips stay zero. C takes the first block's dtype and leading shape."""
    C = None
    for n, block in blocks:
        if C is None:
            C = np.zeros(block.shape[:-1] + (dim, dim), dtype=block.dtype)
        k = np.arange(n + 1)
        C[..., n - k, k] = block
    return C


def blocks_of(C):
    """The block stream (n, C_n) of every anti-diagonal n = 0 .. dim - 1 of
    C[..., p, i]: the inverse of ``assemble``."""
    dim = C.shape[-1]
    for n in range(dim):
        k = np.arange(n + 1)
        yield n, C[..., n - k, k]


def einsum_pair_state(C) -> PairState:
    """PairState of C[..., p, i] from einsum reductions of |C|^2 over its last
    two axes: p_a sums over i, p_b over p."""
    parts = (C,) if np.isrealobj(C) else (C.real, C.imag)
    return PairState(*(sum(np.einsum("...pi,...pi->..." + out, x, x) for x in parts)
                       for out in "pi"))


# ---------------------------------------------------------------------------
# short-time branch closed forms
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


# ---------------------------------------------------------------------------
# temperature formulas no scenario reports
# ---------------------------------------------------------------------------

def parametric_temperature(A: float, tau: float, omega_b: float) -> float:
    """Effective signal temperature h*w_b / (2 kB ln coth(A tau)) in kelvin
    of the frozen-pump (parametric) tier."""
    r = A * tau
    if r <= 0.0:
        return 0.0
    return hbar * omega_b / (2.0 * k_B * math.log(1.0 / math.tanh(r)))


def effective_temperature(n_bar: float, omega: float) -> float:
    """Bose-inversion temperature h*w / (kB ln(1 + 1/n_bar)) in kelvin."""
    if n_bar < 0.0:
        raise ValueError("mean occupation must be nonnegative")
    if n_bar == 0.0:
        return 0.0
    return hbar * omega / (k_B * math.log1p(1.0 / n_bar))


# ---------------------------------------------------------------------------
# dense-state diagnostics
# ---------------------------------------------------------------------------

def boundary_population(psi: StateVector):
    """Probability in the top Fock level of each mode (truncation leak)."""
    tensor = psi.tensor_view()
    pops = []
    for ax in range(psi.spec.n_modes):
        sl = [slice(None)] * psi.spec.n_modes
        sl[ax] = -1
        pops.append(float(np.sum(np.abs(tensor[tuple(sl)]) ** 2)))
    return pops


def max_boundary_population(psi: StateVector) -> float:
    return max(boundary_population(psi))


def reduced(C):
    """Pump marginal rho_a = C C+ and signal diagonal p_b[i] = sum_p |C[p, i]|^2
    of one pair amplitude matrix C[p, i] (index a trajectory first); traces
    |C|^2, checked on rho_a."""
    if C.ndim != 2:
        raise TypeError(f"needs one state, got C of shape {C.shape}")
    rho_a = C @ C.conj().T
    return (DensityMatrix(HilbertSpec((rho_a.shape[0],)), rho_a),
            np.sum(np.abs(C) ** 2, axis=0))


def dense_von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalues of a dense density matrix, nats."""
    return float(entropy(rho.eigenvalues()))


def svd_von_neumann_entropy(C) -> np.ndarray:
    """Entropy of rho = C C+ over the last two axes of the factor C, nats,
    from the squared singular values of C, one batched SVD, rho's trace
    checked to be one: the Schmidt entropy as first written."""
    return entropy(_unit_trace(np.linalg.svd(C, compute_uv=False) ** 2))


def mode_factor(psi: StateVector, keep) -> np.ndarray:
    """C with partial_trace(psi, keep) = C C+: the amplitudes with the kept
    modes' axes first, flattened to (kept dimension, rest)."""
    keep = list(keep)
    kept_dim = int(np.prod([psi.spec.dims[k] for k in keep]))
    return np.moveaxis(psi.tensor_view(), keep, range(len(keep))).reshape(kept_dim, -1)


def thermal_density_matrix(n_bar: float, dim: int) -> DensityMatrix:
    """The renormalized truncated thermal state ``ThermalReference(n_bar, dim)``
    as a dense diagonal density matrix."""
    p = ThermalReference(n_bar, dim).probabilities
    return DensityMatrix(HilbertSpec((dim,)), np.diag(p))


def fidelity(rho: DensityMatrix, sigma: DensityMatrix) -> float:
    """Uhlmann fidelity Tr sqrt(sqrt(rho) sigma sqrt(rho)), in [0, 1]."""
    if rho.spec.total_dim != sigma.spec.total_dim:
        raise ValueError("density matrices must share a dimension")
    evals, vecs = np.linalg.eigh(rho.entries)
    evals = np.clip(evals, 0.0, None)
    sqrt_rho = (vecs * np.sqrt(evals)) @ vecs.conj().T
    inner = sqrt_rho @ sigma.entries @ sqrt_rho
    ev_inner = np.linalg.eigvalsh(0.5 * (inner + inner.conj().T))
    value = float(np.sum(np.sqrt(np.clip(ev_inner, 0.0, None))))
    if value > 1.0 + 1e-8:
        raise ValueError(f"fidelity {value} exceeds 1 beyond numerical slack")
    return min(value, 1.0)


def full_state_eigh(initial: PumpInitialState, tau_grid) -> np.ndarray:
    """The full tier's trajectory C[tau, p, i] from one eigh(T) = U diag(lam)
    U^T of each conserved block n = p + i, with no leak gate:

        C_n(tau)[k] = a_n (-1)^(k // 2) sum_j U[k, j] U[0, j] f_k(lam_j (tau - tau_0)),

    f_k = cos for even k and sin for odd k, over all n + 1 eigenvalues."""
    coeff = initial.coefficients
    dim = max(coeff.size, 2)
    grid = _increasing_grid(tau_grid)
    C = np.zeros((grid.size, dim, dim), dtype=coeff.dtype)
    C[0, :coeff.size, 0] = coeff
    dt = grid[1:] - grid[0]
    for n, a_n in enumerate(coeff):
        if a_n == 0:
            continue
        k = np.arange(n + 1)
        off = np.sqrt(n - k[1:] + 1.0) * k[1:]
        lam, U = np.linalg.eigh(np.diag(off, 1) + np.diag(off, -1))
        phase = np.multiply.outer(dt, lam)
        weights = U * U[0]
        sign = np.where(k % 4 < 2, a_n, -a_n)
        for parity, f in ((0, np.cos), (1, np.sin)):
            kk = k[parity::2]
            C[1:, n - kk, kk] = (f(phase) @ weights[parity::2].T) * sign[parity::2]
    return C


# ---------------------------------------------------------------------------
# embedded RK45 stepper and the pair-span right-hand side
# ---------------------------------------------------------------------------

class StiffnessError(RuntimeError):
    """ODE step size underflowed; the problem is too stiff for this solver."""


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


def evolve_ode(rhs, y0, t_grid, tol: Tolerance = Tolerance(abs_tol=1e-10, rel_tol=1e-8)) -> np.ndarray:
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


def pair_rhs(da: int, dp: int):
    """Right-hand side dC/dtau = G C of the trilinear interaction on the
    flattened pair amplitudes C[p, i] (pump dim da, pair dim dp).

    kron(a, P+) maps index r + s to r (s = dp - 1) with weight sqrt(p+1)*i
    at (p, i) = divmod(r, dp); its adjoint maps r back to r + s. The i = 0
    weights vanish, where r + s wraps a pump row.
    """
    s = dp - 1
    p, i = np.indices((da, dp))
    w = (np.sqrt(p + 1.0) * i).ravel()[:-s]

    def rhs(_t, y):
        dy = np.zeros(y.shape, dtype=complex)
        dy[:-s] = w * y[s:]
        dy[s:] -= w * y[:-s]
        return dy
    return rhs


def evolve_pair_rk45(initial: PumpInitialState, tau_grid,
                     tol: Tolerance = Tolerance(1e-12, 1e-10)):
    """The pair-span trajectory C[tau, p, i] of the pump state ``initial`` by
    RK45 on the full tier's (dim, dim) grid, at the tolerance the full tier
    once integrated with."""
    coeff = initial.coefficients
    dim = max(coeff.size, 2)
    C0 = np.zeros((dim, dim), dtype=complex)
    C0[:coeff.size, 0] = coeff
    return evolve_ode(pair_rhs(dim, dim), C0.ravel(), tau_grid, tol).reshape(-1, dim, dim)


def semiclassical_theta_quad(N_a0: float, tau_grid) -> np.ndarray:
    """theta(tau) = int_0^tau sqrt(N_a) of the semiclassical pump at each
    grid point, by QUADPACK in tau on N_a = max(0, beta+ + (N_a0 - beta+)/dn^2)
    with dn from ``scipy.special.ellipj``.

    Every clamp edge tau = (2 j K +- F(phi_z|m))/rate, where N_a touches zero
    with a square-root kink, is a breakpoint; the pieces are summed by fsum
    in grid order."""
    bp = 0.25 * (1.0 + 2.0 * N_a0 + math.sqrt(1.0 + 12.0 * N_a0 + 4.0 * N_a0 ** 2))
    bm = -N_a0 / (2.0 * bp)
    m = (N_a0 - bm) / (bp - bm)
    rate = math.sqrt(bp - bm)
    grid = _increasing_grid(tau_grid)
    K = ellipk(m)
    F_z = ellipkinc(math.asin(math.sqrt(N_a0 / (bp * m))), m)
    periods = np.arange(math.ceil(grid[-1] * rate / (2.0 * K)) + 1)
    edges = np.sort(np.concatenate([2.0 * periods * K + F_z,
                                    2.0 * (periods + 1) * K - F_z])) / rate

    def sqrt_n_a(tau):
        dn = ellipj(rate * tau, m)[2]
        return math.sqrt(max(0.0, bp + (N_a0 - bp) / (dn * dn)))

    pieces, theta, start = [], [], 0.0
    for tau in grid:
        inner = edges[(edges > start) & (edges < tau)]
        for lo, hi in zip([start, *inner], [*inner, tau]):
            if hi > lo:
                pieces.append(quad(sqrt_n_a, lo, hi, epsabs=1e-13, epsrel=1e-13,
                                   limit=200)[0])
        theta.append(math.fsum(pieces))
        start = tau
    return np.array(theta)


# ---------------------------------------------------------------------------
# numerical analogue horizon
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


class CriticalCurrentError(ValueError):
    """Junction current at or above the flux-suppressed critical current."""


def junction_inductance(I: float, phi_ext: float, params: LineParams) -> float:
    """Current- and flux-dependent cell inductance
    L = Phi0 arcsin(I/I_c^s)/(2 pi I), with the small-current limit
    Phi0/(2 pi I_c^s); scalar in both arguments."""
    ics = params.critical_current(phi_ext)
    if abs(I) >= ics:
        raise CriticalCurrentError(
            f"|I|={abs(I)} exceeds flux-suppressed critical current {ics}")
    if abs(I) < 1e-12 * ics:
        return Phi0 / (2.0 * math.pi * ics)
    return Phi0 * math.asin(I / ics) / (2.0 * math.pi * I)


def dispersion(k: float, phi_ext: float, params: LineParams) -> float:
    """Lattice dispersion w = (2c/a) |sin(k a / 2)| inside the Brillouin
    zone |k| a <= pi, with c the propagation speed at phi_ext."""
    if abs(k) * params.a > math.pi + 1e-12:
        raise ValueError(f"|k|a = {abs(k) * params.a} outside the Brillouin zone")
    c = propagation_velocity(phi_ext, params)
    return 2.0 * c / params.a * abs(math.sin(0.5 * k * params.a))


class GaussianPulse:
    """Bump pulse amplitude exp(-(xi/rise_scale)^2): a black-hole /
    white-hole horizon pair. It gives its shape, its rise scale and the
    tanh pulse's +-12 rise-scale window; the scan and the stencil below
    read nothing else."""

    def __init__(self, amplitude: float, rise_scale: float):
        self.amplitude, self.rise_scale = amplitude, rise_scale
        self.window = (-12.0 * rise_scale, 12.0 * rise_scale)

    def __call__(self, xi):
        return self.amplitude * np.exp(-(xi / self.rise_scale) ** 2)


class BracketError(ValueError):
    """Root bracket does not straddle a sign change."""


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
    raise ConvergenceError("Brent iteration budget exhausted")


def find_horizon(pulse, params: LineParams, allow_pair: bool = False,
                 tol: Tolerance = Tolerance(abs_tol=1e-14, rel_tol=1e-14, max_iter=120)):
    """All comoving positions where c(xi) = u along a ``TanhPulse`` or a
    ``GaussianPulse``: one 2 001-point scan of the pulse window, then a
    Brent solve to ``tol`` in each bracket where c - u changes sign.
    Several roots warn, and raise unless ``allow_pair``."""
    def gap(x):
        return propagation_velocity(pulse(x), params) - params.u

    xs = np.linspace(*pulse.window, 2001)
    vals = gap(xs)
    hits = np.flatnonzero((vals[:-1] == 0.0) | (vals[:-1] * vals[1:] < 0.0))
    roots = [float(xs[i]) if vals[i] == 0.0
             else find_root_bracketed(gap, xs[i], xs[i + 1], tol) for i in hits]
    if not roots:
        raise NoHorizonError(
            "propagation velocity never crosses the pulse velocity u")
    if len(roots) > 1:
        warnings.warn(f"{len(roots)} horizons found: white-hole partner present",
                      RuntimeWarning, stacklevel=2)
        if not allow_pair:
            raise NoHorizonError(
                f"{len(roots)} horizons found; pass allow_pair=True for "
                "black-hole/white-hole pairs")
    return roots


def velocity_gradient(pulse, params: LineParams, xi: float) -> float:
    """|dc/dxi| by 5-point central differences with one Richardson step."""
    h = 1e-3 * pulse.rise_scale

    def five_point(step):
        c = propagation_velocity(pulse(xi + np.array([-2, -1, 1, 2]) * step), params)
        return (c[0] - 8.0 * c[1] + 8.0 * c[2] - c[3]) / (12.0 * step)

    d1 = five_point(h)
    d2 = five_point(0.5 * h)
    return abs((16.0 * d2 - d1) / 15.0)


def photons_per_pulse(T_H: float, params: LineParams) -> float:
    """Photon count over one traversal: the rate pi kB T/(12 hbar), with T
    decaying linearly from T_H by 10% per 1000 cells traversed, integrated
    over the horizon lifetime N*a/u by adaptive quadrature."""
    lifetime = params.N * params.a / params.u
    decay_rate = 0.10 * params.u / (1000.0 * params.a)  # 1/s

    def rate(t, _):
        T = T_H * np.maximum(0.0, 1.0 - decay_rate * t)
        return math.pi * k_B * T / (12.0 * hbar)

    return integrate_adaptive(rate, 0.0, lifetime,
                              Tolerance(abs_tol=1e-12, rel_tol=1e-10))


# ---------------------------------------------------------------------------
# detector response coefficients and densities
# ---------------------------------------------------------------------------

def b_func(omega, omega_prime, params, K_Tm):
    gpt, gbm, wm = params.gamma_pT, params.gamma_bm, params.omega_m
    return ((params.omega_T * K_Tm) ** 2 / (4.0 * math.pi)
            / (omega - params.omega_T + 1j * gpt)
            * (1.0 / (omega_prime - wm + 1j * gbm)
               + 1.0 / (-omega_prime - wm - 1j * gbm)))


def d_func(omega, params, K_d):
    return (params.omega_T * K_d / (2.0 * math.pi)
            / (omega - params.omega_T + 1j * params.gamma_pT))


def response_terms_reference(params, pt, omega):
    """(upper, lower, pull_w, cross_w, cross_m, determinant) of the 2x2
    response system at omega from one ``b_func``/``d_func`` call per
    coefficient."""
    K_Tm, K_d = params.K_Tm, params.K_d
    wp = params.omega_T + pt.dw

    mirror = omega - 2.0 * pt.dw
    zero = 0.0 * omega
    b_w_s = b_func(omega, omega - wp, params, K_Tm)
    b_m_s = b_func(mirror, omega - wp, params, K_Tm)
    d_w = d_func(omega, params, K_d)
    d_m = d_func(mirror, params, K_d)

    pull_w = 2.0 * pt.chi2 * (b_func(omega, zero, params, K_Tm) + b_w_s + d_w)
    upper = 1.0 - pull_w
    lower = 1.0 + 2.0 * pt.chi2 * (b_func(mirror, zero, params, K_Tm) + b_m_s + d_m)
    cross_w = 2.0 * b_w_s + d_w
    cross_m = 2.0 * b_m_s + d_m
    det = upper * lower + pt.chi4 * cross_w * cross_m
    return upper, lower, pull_w, cross_w, cross_m, det


def signal_density(params, I_0, dw, chi, omega, bath_T: float = 0.0):
    """Thermal/zero-point signal response density (A^2 per rad/s, includes
    the 1/2pi measure)."""
    pt = _point(params, I_0, dw, chi)
    omega = np.asarray(omega, dtype=float)
    return _signal_at(params, pt, omega, _coefficients(params, pt, omega), bath_T)


def noise_density(params, I_0, dw, chi, omega):
    """Back-reaction noise density (A^2 per rad/s, 1/2pi included); the flat
    added-noise term is accounted for separately."""
    pt = _point(params, I_0, dw, chi)
    omega = np.asarray(omega, dtype=float)
    return _noise_terms(params, pt, omega, _coefficients(params, pt, omega))


def one_line(params, I_0, dw, bath_T: float = 0.0, frequency_pulling: bool = True):
    """The EffectiveThermo of drive current I_0 at pump detuning dw and one
    bath temperature, whatever gate it fails."""
    (line,), = thermo_sweep(params, dw, [I_0], [bath_T], frequency_pulling)
    return line


# ---------------------------------------------------------------------------
# Lorentzian fit
# ---------------------------------------------------------------------------

def fit_lorentzian_reference(w, s):
    """The Levenberg-Marquardt loop as first written: every iteration
    rebuilds the model and Jacobian from theta, rejected steps included."""
    smax = s.max()
    ipk = int(np.argmax(s))
    idx = np.where(s >= 0.5 * smax)[0]
    gamma = 0.5 * (w[idx[-1]] - w[idx[0]]) if w[idx[-1]] > w[idx[0]] \
        else 0.25 * (w[-1] - w[0])
    gamma = max(gamma, float(np.min(np.diff(w))))
    theta = np.array([w[ipk], gamma, smax * gamma / 2.0])
    lam, prev_cost = 1e-3, None
    for _ in range(200):
        c, g, A = theta
        denom = (w - c) ** 2 + g ** 2
        r = s - 2.0 * A * g / denom
        cost = float(r @ r)
        J = np.column_stack([4.0 * A * g * (w - c) / denom ** 2,
                             2.0 * A * (denom - 2.0 * g ** 2) / denom ** 2,
                             2.0 * g / denom])
        JTJ = J.T @ J
        step = np.linalg.solve(JTJ + lam * np.diag(np.diag(JTJ).copy()), J.T @ r)
        trial = theta + step
        trial[1] = abs(trial[1])
        c2, g2, A2 = trial
        cost2 = float(np.sum((s - 2.0 * A2 * g2 / ((w - c2) ** 2 + g2 ** 2)) ** 2))
        if cost2 <= cost:
            theta = trial
            lam = max(lam / 3.0, 1e-12)
            if prev_cost is not None and abs(prev_cost - cost2) <= 1e-14 * max(cost2, 1e-300):
                break
            prev_cost = cost2
        else:
            lam *= 4.0
            if lam > 1e10:
                break
    c, g, A = (float(v) for v in theta)
    model = 2.0 * A * g / ((w - c) ** 2 + g ** 2)
    return c, g, A, float(np.linalg.norm(s - model) / np.linalg.norm(s))
