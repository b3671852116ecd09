"""Noisy limit cycles: simulation, phase reduction, and spectral fitting.

The package covers the full workflow around stochastically perturbed
oscillators: integrate the SDE (or its linear phase/deviation model),
detect the underlying deterministic cycle and transport a comoving
orthonormal frame along it, reduce the dynamics to phase and transverse
deviations, estimate autocovariances and spectra from trajectories, and
fit the closed-form stationary templates back to measured curves.
"""

from .analysis import (
    AcvEstimate,
    DensityEstimate,
    PsdEstimate,
    acv_formula,
    averaged_periodogram,
    kde,
    kurtosis,
    psd_formula,
    sample_acv,
    wk_transform,
)
from .exceptions import (
    ConfigError,
    ConvergenceError,
    DegenerateSampleError,
    DegenerateSpectrumError,
    DivergenceError,
    FixedPointError,
    GuessFailureError,
    NoCycleError,
    NoisyCyclesError,
    NumericsError,
    SingularAmplitudeError,
    StabilityWarning,
)
from .fitting import FitProblem, FitResult, FitTarget, fit, initial_guess
from .frame import (
    ComovingFrame,
    CycleParameterization,
    ReducedModel,
    build_frame,
    find_limit_cycle,
    reconstruct,
    reduce,
    simulate_reduced,
)
from .hopf import (
    HopfParams,
    PhaseDeviationPath,
    hopf_jacobian,
    hopf_system,
    nsr,
    sigma_for_nsr,
    simulate_hopf_linear,
)
from .presets import van_der_pol
from .sde import (
    IntegratorConfig,
    OrderEstimate,
    Scheme,
    SdeSystem,
    Trajectory,
    integrate_ensemble,
    integrate_path,
    ornstein_uhlenbeck,
    ou_exact_endpoint,
    path_seed,
    strong_order_estimate,
)
from .validation import CriterionResult, run_all

__version__ = "0.1.0"

__all__ = [
    "AcvEstimate",
    "ComovingFrame",
    "ConfigError",
    "ConvergenceError",
    "CriterionResult",
    "CycleParameterization",
    "DegenerateSampleError",
    "DegenerateSpectrumError",
    "DensityEstimate",
    "DivergenceError",
    "FitProblem",
    "FitResult",
    "FitTarget",
    "FixedPointError",
    "GuessFailureError",
    "HopfParams",
    "IntegratorConfig",
    "NoCycleError",
    "NoisyCyclesError",
    "NumericsError",
    "OrderEstimate",
    "PhaseDeviationPath",
    "PsdEstimate",
    "ReducedModel",
    "Scheme",
    "SdeSystem",
    "SingularAmplitudeError",
    "StabilityWarning",
    "Trajectory",
    "acv_formula",
    "averaged_periodogram",
    "build_frame",
    "find_limit_cycle",
    "fit",
    "hopf_jacobian",
    "hopf_system",
    "initial_guess",
    "integrate_ensemble",
    "integrate_path",
    "kde",
    "kurtosis",
    "nsr",
    "ornstein_uhlenbeck",
    "ou_exact_endpoint",
    "path_seed",
    "psd_formula",
    "reconstruct",
    "reduce",
    "run_all",
    "sample_acv",
    "sigma_for_nsr",
    "simulate_hopf_linear",
    "simulate_reduced",
    "strong_order_estimate",
    "van_der_pol",
    "wk_transform",
]
