"""Exception types shared across the package.

Two broad families matter to callers: configuration errors (bad arguments,
malformed inputs) and numerical errors (divergence, degeneracy, failed
convergence).  The command line maps them to exit codes 1 and 2.

Every scalar argument of the package obeys one of two rules, and every
array argument a third, written once here and raised as
:class:`ConfigError`, whose text names the argument:

- a count (``_require_count``) is an integer of at least ``least``:
  "{name} must be >= {least}, got {value}", checked first, then
  "{name} must be an integer, got {value!r}", which is also the message
  for a value that is not a real number at all;
- a real (``_require_real``) is a finite real number, positive
  ("{name} must be positive and finite, got {value}") or, where zero is
  allowed, nonnegative ("{name} must be finite and >= 0, got {value}");
  an int too large for a float is not finite;
- an array (``_require_array``) is real ("{name} must be an array of real
  numbers, got dtype {dtype}", where a ragged nested sequence is of dtype
  object), then of its shape ("{name} must have shape
  {spec}, got {shape}", where an ``N`` axis, as in ``(N,)`` or ``(N, 1)``,
  takes any length of at least 1), then finite ("{name} must be finite,
  got {x} at index {i}" for the first such element, i an int in 1-D).

A ``str`` or ``None`` is not a real number, and is refused like a value out
of range, never with a ``TypeError``.

A fourth rule covers the arithmetic that follows these checks.  Each public
estimator, formula and scale that can leave float's range runs it under
``_float_rule``: numpy's overflow, invalid operation and division by zero
raise (an underflow stays silent), and ``FloatingPointError``, with Python's
``OverflowError`` and ``ZeroDivisionError``, becomes the entry point's own
error and message, a :class:`ConfigError` or, for ``kde``'s grid and
normalization, a :class:`DegenerateSampleError`.  The rule reaches the worker
threads of ``_stepkernel._in_threads``.  A Python float's ``*`` and ``/``
overflow to inf without a flag, so the scalars the rule must see are numpy
scalars.  Sites that mean to make inf or NaN opt out with a local
``np.errstate(... "ignore")``: the fit, whose restarts and their retry on
numpy scalars (``fitting._coefficients``) meet inf and NaN, and
``simulate_reduced``; the simulators report a blow-up as a
:class:`DivergenceError` and run outside the rule.
"""

import contextlib
import numbers
import sys

import numpy as np

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


def _require_count(name, value, least):
    # a float would run as its floor, or stop in range() with a TypeError
    if isinstance(value, numbers.Real) and not value >= least:
        raise ConfigError(f"{name} must be >= {least}, got {value}")
    if not isinstance(value, numbers.Integral):
        raise ConfigError(f"{name} must be an integer, got {value!r}")


def _require_real(name, value, zero=False):
    # compared, not converted: float() of an int beyond the float range overflows
    if not (isinstance(value, numbers.Real) and (value >= 0 if zero else value > 0)
            and value <= sys.float_info.max):
        rule = "finite and >= 0" if zero else "positive and finite"
        raise ConfigError(f"{name} must be {rule}, got {value}")


def _require_array(name, value, shape, ndmin=0):
    """``np.asarray(value, dtype=float)`` with leading axes of length 1 up
    to ``ndmin`` axes, as ``np.atleast_1d`` and ``np.atleast_2d`` add them,
    refused unless it is real, of ``shape`` (None: any length of at least
    1; a None ``shape``: any shape) and finite."""
    try:
        dtype = np.asarray(value).dtype
    except ValueError:  # numpy refuses a ragged nested sequence
        dtype = np.dtype(object)
    if dtype.kind not in "biuf":
        raise ConfigError(f"{name} must be an array of real numbers, got dtype {dtype}")
    arr = np.asarray(value, dtype=float)
    arr = arr.reshape((1,) * (ndmin - arr.ndim) + arr.shape)
    if shape is not None and not (arr.ndim == len(shape) and all(
            n == s or s is None and n >= 1 for n, s in zip(arr.shape, shape))):
        spec = ", ".join("N" if s is None else str(s) for s in shape) + "," * (len(shape) == 1)
        raise ConfigError(f"{name} must have shape ({spec}), got {arr.shape}")
    return _require_finite_array(name, arr)


def _require_finite_array(name, arr, error=ConfigError):
    """The float array ``arr``, refused with ``error`` naming its first
    value that is not finite."""
    finite = np.isfinite(arr)
    if not finite.all():  # np.argwhere finds nothing in a 0-d array
        at = tuple(int(i) for i in np.unravel_index(np.argmin(finite), arr.shape))
        where = at[0] if arr.ndim == 1 else at
        raise error(f"{name} must be finite, got {arr[at]} at index {where}")
    return arr


@contextlib.contextmanager
def _float_rule(error, message):
    """Run the block with numpy's overflow, invalid operation and division by
    zero raised, an underflow ignored, and raise ``error(message)`` for any of
    them or for Python's ``OverflowError`` or ``ZeroDivisionError``."""
    try:
        with np.errstate(over="raise", invalid="raise", divide="raise", under="ignore"):
            yield
    except (FloatingPointError, OverflowError, ZeroDivisionError):
        raise error(message) from None


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
