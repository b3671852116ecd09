"""Ready-made example systems for tests and the command line.

Each factory returns an :class:`~noisycycles.sde.SdeSystem`; pass sigma = 0
for the deterministic skeleton used by cycle detection.
"""

from __future__ import annotations

import numpy as np

from . import _stepkernel
from .exceptions import ConfigError
from .sde import SdeSystem

__all__ = ["van_der_pol"]


def van_der_pol(mu=1.0, sigma=0.0) -> SdeSystem:
    """Van der Pol oscillator x'' - mu (1 - x^2) x' + x = 0 as a plane system.

    State is (x, v) with v = x'.  Isotropic noise of level ``sigma`` on
    both components.
    """
    if mu <= 0.0:
        raise ConfigError(f"mu must be positive, got {mu}")
    if not np.isfinite(mu):
        raise ConfigError(f"mu must be finite, got {mu}")

    kernel = _stepkernel.spec("van_der_pol", (mu,), _van_der_pol_formula)

    def jacobian(y):
        x, v = np.asarray(y, dtype=float)
        return np.array(
            [[0.0, 1.0], [-2.0 * mu * x * v - 1.0, mu * (1.0 - x * x)]]
        )

    return SdeSystem(
        dimension=2,
        drift=kernel.drift,
        isotropic_sigma=sigma,
        vectorized=True,
        jacobian=jacobian,
        _kernel=kernel,
    )


def _van_der_pol_formula(mu, x, v):
    return v, mu * (1.0 - x * x) * v - x

