"""Entropy, thermal reference, information, effective dimension, mutual
information, and quadrature-squeezing diagnostics for the trilinear
trajectories.

Entropies are in nats (no Boltzmann factor), of weight vectors with weights
below 1e-12 clamped to zero: a diagonal state's distribution (the pair-span
signal marginal) or a dense density matrix's spectrum.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .constants import hbar, k_B
from .fock import DensityMatrix

_CLAMP = 1e-12


@dataclass(frozen=True)
class ThermalReference:
    """Single-mode thermal state of mean occupation n_bar, truncated to dim.

    The truncated geometric distribution is renormalized; ``leak`` records
    how much weight the truncation discarded. The renormalized state is
    therefore not of mean ``mean_occupation``: its mean falls below it by
    dim * leak / (1 - leak). On the first ``dim`` levels the untruncated
    thermal state equals (1 - leak) times this one.
    """

    mean_occupation: float
    dim: int

    def __post_init__(self):
        if self.mean_occupation < 0.0:
            raise ValueError("mean occupation must be nonnegative")
        if self.dim < 2:
            raise ValueError("dim must be >= 2")

    @property
    def probabilities(self):
        n_bar = self.mean_occupation
        ns = np.arange(self.dim)
        if n_bar == 0.0:
            p = np.zeros(self.dim)
            p[0] = 1.0
            return p
        ratio = n_bar / (n_bar + 1.0)
        p = ratio ** ns / (n_bar + 1.0)
        return p / p.sum()

    @property
    def leak(self) -> float:
        n_bar = self.mean_occupation
        if n_bar == 0.0:
            return 0.0
        return (n_bar / (n_bar + 1.0)) ** self.dim


def entropy(p) -> float:
    """S = -sum p ln p over the weights p (0 ln 0 := 0), nats."""
    p = np.asarray(p, dtype=float)
    if p.min() < -1e-9:
        raise ValueError(f"negative weight {p.min()} < -1e-9")
    nz = p[p >= _CLAMP]
    return float(-np.sum(nz * np.log(nz)))


def von_neumann_entropy(rho: DensityMatrix) -> float:
    """Entropy of the eigenvalues of a dense density matrix, nats."""
    return entropy(rho.eigenvalues())


def thermal_entropy(n_bar: float) -> float:
    """Entropy of a harmonic-oscillator thermal state with mean n_bar:
    (n_bar+1) ln(n_bar+1) - n_bar ln n_bar."""
    if n_bar < 0.0:
        raise ValueError("mean occupation must be nonnegative")
    if n_bar == 0.0:
        return 0.0
    return float((n_bar + 1.0) * math.log(n_bar + 1.0) - n_bar * math.log(n_bar))


def effective_temperature(n_bar: float, omega: float) -> float:
    """Bose-inversion temperature h*w / (kB ln(1 + 1/n_bar)) in kelvin."""
    if n_bar < 0.0:
        raise ValueError("mean occupation must be nonnegative")
    if n_bar == 0.0:
        return 0.0
    return hbar * omega / (k_B * math.log1p(1.0 / n_bar))


def bose_occupation(omega: float, T: float) -> float:
    """Mean thermal occupation 1/(e^(hw/kT) - 1); inverse of the above."""
    if T <= 0.0:
        return 0.0
    return 1.0 / math.expm1(hbar * omega / (k_B * T))


def information(p_b) -> float:
    """Signal information S_th(<N>) - S(p_b) of the diagonal signal state p_b:
    its entropy deficit against the thermal state of equal mean occupation."""
    n_bar = float(np.sum(p_b * np.arange(p_b.size)))
    return thermal_entropy(n_bar) - entropy(p_b)


def effective_dimension(n_bar: float) -> float:
    """Effective subspace dimension 1/Tr[sigma^2] of the thermal state with
    mean n_bar; closed form 2 n_bar + 1 (geometric-series purity)."""
    if n_bar < 0.0:
        raise ValueError("mean occupation must be nonnegative")
    return 2.0 * n_bar + 1.0


def mutual_information_partitions(rho_a: DensityMatrix, p_b):
    """(I_{a-bc}, I_{b-c}) of a pure tripartite state from its pump marginal
    and the spectrum p_b of its signal marginal.

    Purity gives S_abc = 0 and S_a = S_bc, so I_{a-bc} = 2 S_a and
    I_{b-c} = S_b + S_c - S_bc = 2 S_b - S_a (signal and idler marginals
    coincide for vacuum-seeded evolution).
    """
    s_a = von_neumann_entropy(rho_a)
    return (2.0 * s_a, 2.0 * entropy(p_b) - s_a)


def squeezing_params(rho_a: DensityMatrix):
    """Quadrature squeezing (q_+, q_-) with q = 4<dX^2> - 1.

    X_+ = (a + a+)/2 and X_- = (a - a+)/(2i); vacuum and coherent states give
    (0, 0) and q_- < 0 flags squeezing.
    """
    rho = rho_a.entries
    # <a> = sum sqrt(n+1) rho[n+1, n], <a^2> = sum sqrt((n+1)(n+2)) rho[n+2, n]
    root = np.sqrt(np.arange(1.0, rho.shape[0]))
    exp_a = complex(np.sum(root * np.diagonal(rho, -1)))
    exp_aa = complex(np.sum(root[:-1] * root[1:] * np.diagonal(rho, -2)))
    exp_n = float(np.sum(np.arange(rho.shape[0]) * np.diagonal(rho).real))

    # <X+^2> = (  <a^2> + <a+^2> + 2<N> + 1 )/4,  <X-^2> with a minus sign
    var_plus = 0.25 * (2.0 * exp_n + 1.0 + 2.0 * exp_aa.real) \
        - (exp_a.real) ** 2
    var_minus = 0.25 * (2.0 * exp_n + 1.0 - 2.0 * exp_aa.real) \
        - (exp_a.imag) ** 2
    return (4.0 * var_plus - 1.0, 4.0 * var_minus - 1.0)
