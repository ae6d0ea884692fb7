"""Sparse operator algebra on the full truncated Fock grid, kept as test
oracles for the pair-basis (C[p, i]) paths of ``nlcavity``.

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
matrix that the package's singular-value (Schmidt) entropies are checked
against, and ``mode_factor`` is the factor C of a reduced state C C+ that
those entropies take.

``evolve_ode`` is the Dormand-Prince embedded RK 4(5) stepper, and
``evolve_pair_rk45`` integrates the pair amplitudes with it on the right-hand
side ``pair_rhs``; the package's full tier propagates each conserved block
exactly instead.

``find_root_bracketed`` is Brent's method on a sign-changing bracket.
``find_horizon`` scans the pulse window with 2 001 points and Brent-solves
each sign change of c - u, ``velocity_gradient`` is a 5-point central
difference with one Richardson step, and ``photons_per_pulse`` integrates
the decaying emission rate by adaptive Simpson; the package resolves the
horizon, its gradient and the photon count in closed form.
"""

from __future__ import annotations

import math
import warnings
from typing import Callable

import numpy as np
import scipy.sparse as sp

from nlcavity.constants import hbar, k_B
from nlcavity.errors import ConvergenceError, NoHorizonError
from nlcavity.fock import DensityMatrix, HilbertSpec, StateVector
from nlcavity.hawking import FluxPulse, LineParams, propagation_velocity
from nlcavity.numerics import Tolerance, _increasing_grid, integrate_adaptive
from nlcavity.qinfo import ThermalReference, entropy


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

    def dag(self) -> "ModeOperator":
        return ModeOperator(self.spec, self.matrix.conjugate().transpose().tocsr(),
                            label=self.label + "+")

    def __matmul__(self, other):
        if isinstance(other, ModeOperator):
            if other.spec != self.spec:
                raise ValueError("operator spec mismatch")
            return ModeOperator(self.spec, self.matrix @ other.matrix)
        return self.matrix @ other

    def __add__(self, other):
        return ModeOperator(self.spec, self.matrix + other.matrix)

    def __sub__(self, other):
        return ModeOperator(self.spec, self.matrix - other.matrix)

    def __mul__(self, scalar):
        return ModeOperator(self.spec, self.matrix * scalar)

    __rmul__ = __mul__

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


def reduced(state):
    """Pump marginal rho_a = C C+ and signal diagonal p_b[i] = sum_p |C[p, i]|^2
    of one PairState (index a trajectory first); traces |C|^2, checked on rho_a."""
    C = state.C
    if C.ndim != 2:
        raise TypeError(f"needs one state, got a PairState of shape {C.shape}")
    rho_a = C @ C.conj().T
    return (DensityMatrix(HilbertSpec((rho_a.shape[0],)), rho_a),
            np.sum(np.abs(C) ** 2, axis=0))


def dense_von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalues of a dense density matrix, nats."""
    return float(entropy(rho.eigenvalues()))


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


def evolve_pair_rk45(psi: StateVector, tau_grid, tol: Tolerance = Tolerance(1e-12, 1e-10)):
    """The pair-span trajectory C[tau, p, i] of a pump-only ``psi`` by RK45,
    at the tolerance the full tier once integrated with."""
    da, db, dc = psi.spec.dims
    dp = min(db, dc)
    C0 = psi.tensor_view()[:, np.arange(dp), np.arange(dp)]
    return evolve_ode(pair_rhs(da, dp), C0.ravel(), tau_grid, tol).reshape(-1, da, dp)


# ---------------------------------------------------------------------------
# numerical analogue horizon
# ---------------------------------------------------------------------------

_EPS = np.finfo(float).eps


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
    raise ConvergenceError("Brent iteration budget exhausted", best_estimate=b)


def find_horizon(pulse: FluxPulse, params: LineParams, allow_pair: bool = False,
                 tol: Tolerance = Tolerance(abs_tol=1e-14, rel_tol=1e-14, max_iter=120)):
    """All comoving positions where c(xi) = u: one 2 001-point scan of the
    pulse window, then a Brent solve to ``tol`` in each bracket where c - u
    changes sign. Several roots warn, and raise unless ``allow_pair``."""
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


def velocity_gradient(pulse: FluxPulse, params: LineParams, xi: float) -> float:
    """|dc/dxi| by 5-point central differences with one Richardson step."""
    h = 1e-3 * pulse.rise_scale

    def five_point(step):
        c = propagation_velocity(pulse(xi + np.array([-2, -1, 1, 2]) * step), params)
        return (c[0] - 8.0 * c[1] + 8.0 * c[2] - c[3]) / (12.0 * step)

    d1 = five_point(h)
    d2 = five_point(0.5 * h)
    return abs((16.0 * d2 - d1) / 15.0)


def photons_per_pulse(T_H: float, params: LineParams,
                      decay_per_1000_cells: float = 0.10) -> float:
    """Photon count over one traversal: the rate pi kB T/(12 hbar), with T
    decaying linearly from T_H with the cells traversed, integrated over the
    horizon lifetime N*a/u by adaptive Simpson."""
    lifetime = params.N * params.a / params.u
    decay_rate = decay_per_1000_cells * params.u / (1000.0 * params.a)  # 1/s

    def rate(t, _):
        T = T_H * np.maximum(0.0, 1.0 - decay_rate * t)
        return math.pi * k_B * T / (12.0 * hbar)

    return integrate_adaptive(rate, 0.0, lifetime,
                              Tolerance(abs_tol=1e-12, rel_tol=1e-10))
