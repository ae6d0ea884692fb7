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
"""

from __future__ import annotations

import math

import numpy as np
import scipy.sparse as sp

from nlcavity.fock import DensityMatrix, HilbertSpec, StateVector
from nlcavity.qinfo import ThermalReference


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
