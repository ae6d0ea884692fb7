"""Exception types shared across the toolkit.

Domain/precondition violations raise ValueError subclasses so that callers
can still catch them generically; numerical failures (non-convergence,
a degenerate fit) derive from RuntimeError. Each carries only its message,
which names the quantity that failed the check.
"""


class ConvergenceError(RuntimeError):
    """Quadrature or iteration failed to converge."""


class FitDegenerateError(RuntimeError):
    """Spectral fit has singular or unidentifiable normal equations."""


class TruncationError(ValueError):
    """Fock-space truncation too small; the message reports the leaked
    probability."""


class SingularFluxError(ValueError):
    """External flux at a half flux quantum: secant singularity."""


class NoBistabilityError(ValueError):
    """Effective Duffing constant vanishes: no bistable region exists."""


class NoHorizonError(RuntimeError):
    """Propagation velocity never crosses the pulse velocity."""
