"""nlcavity: desk-scale numerics for nonlinear cavity systems.

Subpackages by physics area:

* numerics  -- special functions, quadrature, RK45, roots, spectral fits
* fock      -- truncated Fock-space states, density matrices, partial traces
* trilinear -- pump/signal/idler dynamics at four approximation tiers
* qinfo     -- entropy, fidelity, information, squeezing diagnostics
* detector  -- driven Duffing-cavity displacement detector and cooling
* hawking   -- dc-SQUID-array analogue horizon
* cli       -- scenario runner (`nlcavity run ...`)
"""

from . import constants, detector, errors, fock, hawking, numerics, qinfo, trilinear

__all__ = ["constants", "detector", "errors", "fock", "hawking", "numerics",
           "qinfo", "trilinear"]
__version__ = "0.1.0"
