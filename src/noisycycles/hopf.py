"""The normal-form oscillator used throughout as the exactly-solvable testbed.

State (x, y), cycle radius r, angular frequency alpha on the cycle, radial
relaxation rate lambda, and isotropic noise amplitude sigma:

    dx = [ (lambda/2) x - alpha0 y + rho2 (-(lambda/2) x - (alpha - alpha0) y) ] dt + sigma dW1
    dy = [ alpha0 x + (lambda/2) y + rho2 ( (alpha - alpha0) x - (lambda/2) y) ] dt + sigma dW2

with rho2 = (x^2 + y^2) / r^2.  In polar coordinates the drift reads
d(rho)/dt = (lambda/2) rho (1 - rho^2/r^2) and
d(phi)/dt = alpha0 + (alpha - alpha0) rho^2/r^2, so the rotation speed
depends on amplitude unless alpha0 = alpha.

For weak noise the dynamics near the cycle reduce to an amplitude deviation
z relaxing at rate lambda and a reparameterised time tau:

    dz   = -lambda z dt + sigma dW_d
    dtau = dt + 2 z (alpha - alpha0) / (alpha (r + z)) dt
              + sigma dW_p / (alpha (r + z))

reconstructed through x = (r + z) cos(alpha tau), y = (r + z) sin(alpha tau).
``simulate_hopf_linear`` integrates this pair: z exactly per step through its
Gaussian transition density, tau by Euler-Maruyama.  With
``leading_order=True`` the amplitude modulation of the phase speed is dropped
(denominators frozen at alpha r, deterministic tau correction gone), which is
the variant whose autocovariance and spectrum have closed forms.

The dimensionless noise-to-signal ratio is NSR = sqrt(sigma^2/(2 lambda))/r:
stationary deviation spread over cycle radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np
from scipy.signal import lfilter

from . import _stepkernel
from .exceptions import ConfigError, SingularAmplitudeError
from .sde import (
    SdeSystem, _chunks, _generator, _normals, _phase_initial, _record, _validated_record_every,
)

__all__ = [
    "HopfParams",
    "PhaseDeviationPath",
    "hopf_jacobian",
    "hopf_system",
    "nsr",
    "sigma_for_nsr",
    "simulate_hopf_linear",
]


@dataclass(frozen=True)
class HopfParams:
    """Parameter set (alpha, alpha0, lambda_, r, sigma); sigma may be zero."""

    alpha: float
    alpha0: float
    lambda_: float
    r: float
    sigma: float

    def __post_init__(self):
        for name in ("alpha", "alpha0", "lambda_", "r"):
            v = getattr(self, name)
            if not (v > 0.0 and np.isfinite(v)):
                raise ConfigError(f"{name} must be positive, got {v}")
        if not (self.sigma >= 0.0 and np.isfinite(self.sigma)):
            raise ConfigError(f"sigma must be >= 0, got {self.sigma}")

    @classmethod
    def from_nsr(cls, alpha, alpha0, lambda_, r, nsr) -> "HopfParams":
        """Build a parameter set with sigma chosen to hit a target NSR."""
        return cls(alpha, alpha0, lambda_, r, sigma_for_nsr(nsr, lambda_, r))


def sigma_for_nsr(nsr, lambda_, r) -> float:
    """Noise amplitude giving the requested noise-to-signal ratio."""
    if nsr < 0:
        raise ConfigError(f"nsr must be >= 0, got {nsr}")
    return float(nsr) * r * np.sqrt(2.0 * lambda_)


def nsr(params: HopfParams) -> float:
    """sqrt(sigma^2 / (2 lambda)) / r."""
    return _nsr_of(params.sigma, params.lambda_, params.r)


def _nsr_of(sigma, lambda_, r):
    return np.sqrt(sigma**2 / (2.0 * lambda_)) / r


def _drift_for(params: HopfParams) -> _stepkernel.KernelSpec:
    """The drift of ``params`` as a function of state, coefficients bound
    once, in the kernel spec of its compiled twin.

    Each difference in the module docstring's formula is taken as a sum
    with a negated coefficient, which rounds to the same bits; the y-terms
    of dx and the x-terms of dy come from the swapped state against ``rot``
    and ``twist``.
    """
    half = 0.5 * params.lambda_
    neg_half = -0.5 * params.lambda_
    r2 = params.r**2
    shift = params.alpha - params.alpha0
    rot = np.array([-params.alpha0, params.alpha0])
    twist = np.array([-shift, shift])

    def drift(state):
        s = np.asarray(state, dtype=float)
        swapped = s[..., ::-1]
        sq = s * s
        rho2 = sq[..., :1] + sq[..., 1:]
        rho2 /= r2
        out = half * s
        term = swapped * rot
        out += term
        inner = neg_half * s
        np.multiply(swapped, twist, out=term)
        inner += term
        inner *= rho2
        out += inner
        return out

    return _stepkernel.spec("hopf", (half, neg_half, r2, params.alpha0, shift), drift)


def hopf_jacobian(params: HopfParams, state) -> np.ndarray:
    """Analytic Jacobian of the drift at a single state."""
    x, y = np.asarray(state, dtype=float)
    lam, al, al0 = params.lambda_, params.alpha, params.alpha0
    r2 = params.r**2
    rho2 = (x * x + y * y) / r2
    gx = -0.5 * lam * x - (al - al0) * y
    gy = (al - al0) * x - 0.5 * lam * y
    return np.array(
        [
            [0.5 * lam + 2 * x * gx / r2 - 0.5 * lam * rho2,
             -al0 + 2 * y * gx / r2 - (al - al0) * rho2],
            [al0 + 2 * x * gy / r2 + (al - al0) * rho2,
             0.5 * lam + 2 * y * gy / r2 - 0.5 * lam * rho2],
        ]
    )


def hopf_system(params: HopfParams) -> SdeSystem:
    """The oscillator as an additive-noise system with isotropic noise."""
    kernel = _drift_for(params)
    return SdeSystem(
        dimension=2,
        drift=kernel.drift,
        isotropic_sigma=params.sigma,
        vectorized=True,
        jacobian=lambda state: hopf_jacobian(params, state),
        _kernel=kernel,
    )


@dataclass
class PhaseDeviationPath:
    """Sampled (tau, z) pair plus the reconstructed planar trajectory.

    ``reconstructed[k] = ((r + z[k]) cos(alpha tau[k]),
                          (r + z[k]) sin(alpha tau[k]))`` exactly.
    """

    dt: float
    tau: np.ndarray
    z: np.ndarray
    reconstructed: np.ndarray
    seed: int = None

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.tau.shape[0]) * self.dt

    @property
    def x(self) -> np.ndarray:
        return self.reconstructed[:, 0]

    @property
    def y(self) -> np.ndarray:
        return self.reconstructed[:, 1]


def simulate_hopf_linear(params, config, leading_order=False, record_every=1):
    """Integrate the phase/deviation pair and reconstruct (x, y).

    z advances through its exact Gaussian transition (an ``lfilter``
    recursion) and tau by Euler-Maruyama; the config's scheme field is not
    consulted.  The two Wiener components are drawn per step in the order
    (deviation, phase) from the same chunked Philox pattern as the generic
    integrator, so a seed here matches the increments of a 2-dimensional
    generic run with the same seed.  Like the other two simulators it holds
    one chunk of steps at a time (``sde._chunks``) and keeps only the
    recorded rows, so its memory does not grow with the step count.

    With the full phase-speed modulation the update divides by r + z; the
    step where r + z first reaches zero, if any, raises
    :class:`SingularAmplitudeError` (z = -r is a 1/NSR standard-deviation
    excursion: rare at NSR 0.1, but at NSR 0.3 it can come within some
    hundreds of 1/lambda).  The leading-order variant never divides by r + z.

    Initial (z, tau) come from ``config.initial_state`` (default (0, 0):
    on the cycle, phase zero).
    """
    record_every = _validated_record_every(config, record_every)
    (z0,), tau0 = _phase_initial(config.initial_state, 2)

    lam, al, al0, r, sig = params.lambda_, params.alpha, params.alpha0, params.r, params.sigma
    h = config.dt
    rng = _generator(config.seed)

    # exact deviation update: z_{k+1} = phi z_k + s_h xi
    phi = np.exp(-lam * h)
    s_h = sig * np.sqrt((1.0 - phi * phi) / (2.0 * lam)) if sig > 0 else 0.0
    z, tau = np.empty((2, config.n_steps // record_every + 1))  # tau holds tau - tau0 till the end
    z[0], tau[0] = z0, tau0
    zi, z_last = [phi * z0], z0
    for done, span in _chunks(config.n_steps, 1):
        # frozen draw pattern; only column 0 (the Wiener normals) is consumed
        xi = _normals([rng], span, 2)[:, 0, :, 0]
        zs, zi = lfilter([s_h], [1.0, -phi], xi[:, 0], zi=zi)
        dw_p = np.sqrt(h) * xi[:, 1]
        if leading_order:
            dtau = h + sig * dw_p / (al * r)
        else:
            z_start = np.concatenate(([z_last], zs[:-1]))  # z before each step
            amp = r + z_start
            if np.any(amp <= 0.0):
                k = done + int(np.argmax(amp <= 0.0))
                raise SingularAmplitudeError(
                    f"r + z reached zero at step {k}: the phase-speed denominator is singular",
                    step_index=k,
                )
            dtau = h * (1.0 + 2.0 * z_start * (al - al0) / (al * amp)) + sig * dw_p / (al * amp)
        # cumsum adds in sequence: the carried sum added into the first increment
        # keeps every bit; the first chunk adds none, as 0.0 + -0.0 is +0.0
        if done:
            dtau[0] += carry
        sums = np.cumsum(dtau)
        _record(z, zs, done, record_every)
        _record(tau, sums, done, record_every)
        z_last, carry = zs[-1], sums[-1]

    tau[1:] += tau0
    amp = r + z
    angle = al * tau
    rec = np.stack([amp * np.cos(angle), amp * np.sin(angle)], axis=-1)
    return PhaseDeviationPath(
        dt=h * record_every, tau=tau, z=z, reconstructed=rec, seed=config.seed
    )
