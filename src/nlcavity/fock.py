"""Truncated multi-mode Fock-space states.

States and density matrices are stored dense; mode order is fixed at
construction and tensor indexing is row-major, so basis index i maps to
occupations np.unravel_index(i, dims).

All types are immutable after construction and every operation is pure.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TruncationError

NORM_TOL = 1e-9
HERM_TOL = 1e-10
EIG_FLOOR = -1e-9


class HilbertSpec:
    """Per-mode truncation dimensions with a fixed mode order."""

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


def coherent_state(alpha: complex, dim: int) -> StateVector:
    """Single-mode coherent state |alpha> truncated to ``dim`` levels.

    Raises TruncationError when the Poisson tail above the truncation
    exceeds 1e-6, reporting a dimension that would pass.
    """
    if dim < 2:
        raise ValueError("dim must be >= 2")
    nbar = abs(alpha) ** 2
    if not math.isfinite(nbar):
        raise ValueError(f"coherent amplitude {alpha} is not finite")
    # log-space Poisson weights; tail = 1 - retained probability
    ns = np.arange(dim)
    if nbar == 0.0:
        amps = np.zeros(dim, dtype=complex)
        amps[0] = 1.0
        return StateVector(HilbertSpec((dim,)), amps)
    logp = ns * math.log(nbar) - nbar - np.array([math.lgamma(n + 1) for n in ns])
    retained = float(np.sum(np.exp(logp)))
    tail = max(0.0, 1.0 - retained)
    if tail >= 1e-6:
        d = dim
        cum = retained
        while cum < 1.0 - 1e-6 and d < 10_000:
            cum += math.exp(d * math.log(nbar) - nbar - math.lgamma(d + 1))
            d += 1
        raise TruncationError(
            f"coherent-state tail {tail:.3e} >= 1e-6 at dim={dim}; need dim >= {d}",
            leak=tail, required_dim=d)
    phase = np.exp(1j * ns * np.angle(alpha)) if alpha != 0 else np.ones(dim)
    amps = np.exp(0.5 * logp) * phase
    amps /= np.linalg.norm(amps)
    return StateVector(HilbertSpec((dim,)), amps)


def min_coherent_dim(mean_occupation: float, tail_bound: float = 1e-6) -> int:
    """Smallest truncation passing the coherent-state tail gate for the
    given mean occupation."""
    if not 0.0 <= mean_occupation < math.inf:
        raise ValueError(f"mean occupation must be finite and nonnegative, "
                         f"got {mean_occupation}")
    if mean_occupation == 0.0:
        return 2
    cum = 0.0
    d = 0
    while cum < 1.0 - tail_bound:
        cum += math.exp(d * math.log(mean_occupation) - mean_occupation
                        - math.lgamma(d + 1))
        d += 1
        if d > 100_000:
            raise RuntimeError("coherent tail search runaway")
    return max(d, 2)


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
