"""Entropy, thermal reference, information, effective dimension, mutual
information, and quadrature-squeezing diagnostics for the trilinear
trajectories.

Apart from the scalar Bose occupation, every diagnostic acts on the
trailing axes of its argument and returns one value per leading index, so a
whole tau trajectory takes one call. A weight vector lives on the last axis;
a state rho = C C+ is given by its factor C on the last two axes, for the
pump the pair amplitude matrix C[p, i].

Entropies are in nats (no Boltzmann factor), of weight vectors with weights
below 1e-12 clamped to zero: a diagonal state's distribution (the pair-span
signal marginal) or rho's spectrum, for a pure bipartite state its Schmidt
weights: the eigenvalues of the smaller Gram matrix of C (C C+ if C has no
more rows than columns, else C+ C) from one batched Hermitian eigensolve, a
temporary the size of C and the only density matrix formed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import hbar, k_B

NORM_TOL = 1e-9
_CLAMP = 1e-12


def _occupation(n_bar):
    """Mean occupation(s) as a float array, checked nonnegative."""
    n_bar = np.asarray(n_bar, dtype=float)
    if np.any(n_bar < 0.0):
        raise ValueError("mean occupation must be nonnegative")
    return n_bar


@dataclass(frozen=True)
class ThermalReference:
    """Single-mode thermal state of mean occupation n_bar, truncated to dim;
    an array of means gives one state per entry, on the last axis.

    The truncated geometric distribution is renormalized; ``leak`` records
    how much weight the truncation discarded. The renormalized state is
    therefore not of mean ``mean_occupation``: its mean falls below it by
    dim * leak / (1 - leak). On the first ``dim`` levels the untruncated
    thermal state equals (1 - leak) times this one.
    """

    mean_occupation: float
    dim: int

    def __post_init__(self):
        _occupation(self.mean_occupation)
        if self.dim < 2:
            raise ValueError("dim must be >= 2")

    @property
    def probabilities(self):
        n_bar = np.asarray(self.mean_occupation, dtype=float)[..., None]
        p = (n_bar / (n_bar + 1.0)) ** np.arange(self.dim) / (n_bar + 1.0)
        return p / p.sum(axis=-1, keepdims=True)

    @property
    def leak(self):
        n_bar = np.asarray(self.mean_occupation, dtype=float)
        return (n_bar / (n_bar + 1.0)) ** self.dim


def entropy(p):
    """S = -sum p ln p over the last axis of the weights p (0 ln 0 := 0),
    nats, one value per leading index."""
    p = np.asarray(p, dtype=float)
    if p.min() < -1e-9:
        raise ValueError(f"negative weight {p.min()} < -1e-9")
    return -np.sum(p * np.log(np.where(p >= _CLAMP, p, 1.0)), axis=-1)


def _unit_trace(weights):
    """``weights``, checked to sum to one over the last axis to NORM_TOL."""
    worst = np.max(np.abs(np.sum(weights, axis=-1) - 1.0))
    if not worst <= NORM_TOL:
        raise ValueError(f"trace deviates from 1 by {worst:.3e}, beyond {NORM_TOL}")
    return weights


def von_neumann_entropy(C):
    """Entropy of rho = C C+ over the last two axes of the factor C, nats, from
    the eigenvalues of the smaller Gram matrix (C C+ or C+ C, one nonzero
    spectrum), its trace sum |C|^2 checked to be one before the solve."""
    Ch = C.swapaxes(-1, -2).conj()
    gram = C @ Ch if C.shape[-2] <= C.shape[-1] else Ch @ C
    _unit_trace(np.diagonal(gram, axis1=-2, axis2=-1).real)
    return entropy(np.linalg.eigvalsh(gram))


def thermal_entropy(n_bar):
    """Entropy of a harmonic-oscillator thermal state with mean n_bar:
    (n_bar+1) ln(n_bar+1) - n_bar ln n_bar."""
    n_bar = _occupation(n_bar)
    return (n_bar + 1.0) * np.log(n_bar + 1.0) \
        - n_bar * np.log(np.where(n_bar > 0.0, n_bar, 1.0))


def bose_occupation(omega: float, T: float) -> float:
    """Mean thermal occupation 1/(e^(hw/kT) - 1)."""
    if T <= 0.0:
        return 0.0
    return 1.0 / math.expm1(hbar * omega / (k_B * T))


def information(p_b):
    """Signal information S_th(<N>) - S(p_b) of the diagonal signal state p_b:
    its entropy deficit against the thermal state of equal mean occupation."""
    p_b = np.asarray(p_b, dtype=float)
    return thermal_entropy(p_b @ np.arange(p_b.shape[-1])) - entropy(p_b)


def effective_dimension(n_bar):
    """Effective subspace dimension 1/Tr[sigma^2] of the thermal state with
    mean n_bar; closed form 2 n_bar + 1 (geometric-series purity)."""
    return 2.0 * _occupation(n_bar) + 1.0


def mutual_information_partitions(C, p_b):
    """(I_{a-bc}, I_{b-c}) of a pure tripartite state from the factor C of its
    pump marginal rho_a = C C+ and the spectrum p_b of its signal marginal,
    both checked to unit trace.

    Purity gives S_abc = 0 and S_a = S_bc, so I_{a-bc} = 2 S_a and
    I_{b-c} = S_b + S_c - S_bc = 2 S_b - S_a (signal and idler marginals
    coincide for vacuum-seeded evolution).
    """
    s_b = entropy(_unit_trace(p_b))
    s_a = von_neumann_entropy(C)
    return (2.0 * s_a, 2.0 * s_b - s_a)


def _lowered(C, k):
    """Real and imaginary parts of the diagonal -k of rho = C C+,
    rho[p+k, p] = sum_i C[p+k, i] C*[p, i], from einsums on views of C; a
    real C has a real rho and takes one einsum."""
    hi, lo = C[..., k:, :], C[..., :C.shape[-2] - k, :]

    def dot(x, y):
        return np.einsum("...pi,...pi->...p", x, y)

    if np.isrealobj(C):
        re = dot(hi, lo)
        return re, np.zeros_like(re)
    return (dot(hi.real, lo.real) + dot(hi.imag, lo.imag),
            dot(hi.imag, lo.real) - dot(hi.real, lo.imag))


def squeezing_params(C):
    """Quadrature squeezing (q_+, q_-) with q = 4<dX^2> - 1 of rho = C C+.

    X_+ = (a + a+)/2 and X_- = (a - a+)/(2i); vacuum and coherent states give
    (0, 0) and q_- < 0 flags squeezing.
    """
    levels = np.arange(C.shape[-2])
    root = np.sqrt(levels[1:])
    # <a> = sum sqrt(n+1) rho[n+1, n], <a^2> = sum sqrt((n+1)(n+2)) rho[n+2, n]
    exp_n = _lowered(C, 0)[0] @ levels
    a_re, a_im = (part @ root for part in _lowered(C, 1))
    aa_re = _lowered(C, 2)[0] @ (root[:-1] * root[1:])

    # <X+^2> = (  <a^2> + <a+^2> + 2<N> + 1 )/4,  <X-^2> with a minus sign
    var_plus = 0.25 * (2.0 * exp_n + 1.0 + 2.0 * aa_re) - a_re ** 2
    var_minus = 0.25 * (2.0 * exp_n + 1.0 - 2.0 * aa_re) - a_im ** 2
    return (4.0 * var_plus - 1.0, 4.0 * var_minus - 1.0)
