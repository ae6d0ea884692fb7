"""Truncated single-mode coherent states: the amplitudes of a coherent pump
on the first ``dim`` Fock levels, and the smallest truncation whose
discarded Poisson tail stays below a bound.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import TruncationError


def coherent_state(alpha: complex, dim: int) -> np.ndarray:
    """Fock amplitudes of the coherent state |alpha> truncated to ``dim``
    levels and renormalized: real when arg alpha = 0, otherwise carrying the
    phase factor e^(i n arg alpha).

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
        amps = np.zeros(dim)
        amps[0] = 1.0
        return amps
    logp = ns * math.log(nbar) - nbar - np.array([math.lgamma(n + 1) for n in ns])
    retained = float(np.sum(np.exp(logp)))
    tail = max(0.0, 1.0 - retained)
    if tail >= 1e-6:
        d = min_coherent_dim(nbar)
        raise TruncationError(
            f"coherent-state tail {tail:.3e} >= 1e-6 at dim={dim}; need dim >= {d}",
            leak=tail, required_dim=d)
    amps = np.exp(0.5 * logp)
    if np.angle(alpha) != 0.0:
        amps = amps * np.exp(1j * ns * np.angle(alpha))
    amps /= np.linalg.norm(amps)
    return amps


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
            raise ValueError(f"mean occupation {mean_occupation} needs more than 100000 "
                             "Fock levels")
    return max(d, 2)
