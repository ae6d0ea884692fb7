"""Exception types shared across the toolkit.

Domain/precondition violations raise ValueError subclasses so that callers
can still catch them generically; numerical failures (non-convergence,
a degenerate fit) derive from RuntimeError; ConvergenceError carries the
best estimate found.
"""


class ConvergenceError(RuntimeError):
    """Quadrature or iteration failed to converge; carries the best estimate."""

    def __init__(self, message, best_estimate=None):
        super().__init__(message)
        self.best_estimate = best_estimate


class FitDegenerateError(RuntimeError):
    """Spectral fit has singular or unidentifiable normal equations."""


class TruncationError(ValueError):
    """Fock-space truncation too small; carries the leaked probability.

    ``required_dim`` is set when a dimension large enough to pass the gate
    is known.
    """

    def __init__(self, message, leak=None, required_dim=None):
        super().__init__(message)
        self.leak = leak
        self.required_dim = required_dim


class SingularFluxError(ValueError):
    """External flux at a half flux quantum: secant singularity."""


class NoBistabilityError(ValueError):
    """Effective Duffing constant vanishes: no bistable region exists."""


class OutsideRegionError(ValueError):
    """Requested detuning lies outside the bistable region."""


class NoHorizonError(RuntimeError):
    """Propagation velocity never crosses the pulse velocity."""

