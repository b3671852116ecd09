"""Noisy limit cycles: simulation, phase reduction, and spectral fitting.

The package covers the full workflow around stochastically perturbed
oscillators: integrate the SDE (or its linear phase/deviation model),
detect the underlying deterministic cycle and transport a comoving
orthonormal frame along it, reduce the dynamics to phase and transverse
deviations, estimate autocovariances and spectra from trajectories, and
fit the closed-form stationary templates back to measured curves.

Every name in a layer module's ``__all__`` is re-exported here as the
same object; of :mod:`noisycycles.validation` only the acceptance suite
entry point and its result type are.
"""

from . import analysis, exceptions, fitting, frame, hopf, presets, sde
from .validation import CriterionResult, run_all

__version__ = "0.1.0"

_LAYERS = (analysis, exceptions, fitting, frame, hopf, presets, sde)

globals().update({name: getattr(m, name) for m in _LAYERS for name in m.__all__})

__all__ = sorted(
    [name for m in _LAYERS for name in m.__all__] + ["CriterionResult", "run_all"]
)
