"""Exception types shared across the package.

Two broad families matter to callers: configuration errors (bad arguments,
malformed inputs) and numerical errors (divergence, degeneracy, failed
convergence).  The command line maps them to exit codes 1 and 2.
"""

__all__ = [
    "NoisyCyclesError",
    "ConfigError",
    "NumericsError",
    "DivergenceError",
    "SingularAmplitudeError",
    "FixedPointError",
    "NoCycleError",
    "DegenerateSpectrumError",
    "DegenerateSampleError",
    "GuessFailureError",
    "ConvergenceError",
    "StabilityWarning",
]


class NoisyCyclesError(Exception):
    """Base class for all package errors."""


class ConfigError(NoisyCyclesError):
    """Invalid argument, parameter combination or input file."""


class NumericsError(NoisyCyclesError):
    """Numerical failure: divergence, degeneracy or non-convergence."""


class DivergenceError(NumericsError):
    """A trajectory left the trust region or became non-finite.

    Every simulator raises it for the earliest step at which some member
    diverged, and the lowest member at that step.

    Attributes
    ----------
    step_index : int
        Index of the integration step at which the blow-up was detected.
    path_index : int or None
        Ensemble member, or None for a solo run.
    """

    def __init__(self, message, step_index, path_index=None):
        super().__init__(message)
        self.step_index = int(step_index)
        self.path_index = None if path_index is None else int(path_index)


class SingularAmplitudeError(DivergenceError):
    """The amplitude deviation reached the cycle radius (r + z <= 0), where
    the linear model's phase speed divides by zero; ``step_index`` and
    ``path_index`` are those of :class:`DivergenceError`."""


class FixedPointError(NumericsError):
    """The flow converged to an equilibrium instead of a cycle."""


class NoCycleError(NumericsError):
    """No recurrence through the section within the search horizon."""


class DegenerateSpectrumError(NumericsError):
    """The requested spectrum is a line spectrum (no stochastic broadening)."""


class DegenerateSampleError(NumericsError):
    """A sample with zero spread cannot be smoothed or normalised."""


class GuessFailureError(NumericsError):
    """The curve lacks the oscillatory structure the initialiser needs."""


class ConvergenceError(NumericsError):
    """The optimizer exhausted its restart budget without converging.

    Attributes
    ----------
    best : object or None
        Best result found so far, for inspection.
    """

    def __init__(self, message, best=None):
        super().__init__(message)
        self.best = best


class StabilityWarning(UserWarning):
    """Reduced model with monodromy spectral radius >= 1."""
