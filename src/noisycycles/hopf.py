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
Gaussian transition density, tau by Euler-Maruyama, in a compiled member loop
(``_stepkernel.linear_loop``) whose numpy twin, ``_linear_loop``, is the
reference and runs where the loop cannot be compiled.  With
``leading_order=True`` the amplitude modulation of the phase speed is dropped
(denominators frozen at alpha r, deterministic tau correction gone), which is
the variant whose autocovariance and spectrum have closed forms.

The dimensionless noise-to-signal ratio is NSR = sqrt(sigma^2/(2 lambda))/r:
stationary deviation spread over cycle radius.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stepkernel
from .exceptions import ConfigError, SingularAmplitudeError, _float_rule, _require_real
from .sde import SdeSystem, _chunks, _normals, _phase_initial, _record, _simulate

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
            _require_real(name, getattr(self, name))
        _require_real("sigma", self.sigma, zero=True)


def sigma_for_nsr(nsr, lambda_, r) -> float:
    """Noise amplitude giving the requested noise-to-signal ratio; nsr is
    finite and >= 0, lambda_ and r positive and finite, and the amplitude
    finite (ConfigError).  It is formed on numpy scalars, which round as
    Python's floats do but flag a product that overflows to inf."""
    _require_real("nsr", nsr, zero=True)
    _require_real("lambda_", lambda_)
    _require_real("r", r)
    with _float_rule(ConfigError, f"the noise amplitude overflows at nsr {nsr}, "
                                  f"lambda_ {lambda_}, r {r}"):
        return np.float64(nsr) * r * np.sqrt(2.0 * np.float64(lambda_))


def nsr(params: HopfParams) -> float:
    """sqrt(sigma^2 / (2 lambda)) / r, on numpy scalars as in
    :func:`sigma_for_nsr`; an NSR that leaves float's range is a
    :class:`ConfigError`."""
    with _float_rule(ConfigError, f"the NSR overflows at {params}"):
        return _stepkernel._nsr_of(*map(np.float64, (params.sigma, params.lambda_, params.r)))


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
    """The oscillator as an additive-noise system with isotropic noise; its
    drift is the formula ``_stepkernel._hopf`` of its kernel spec."""
    lam, alpha0 = params.lambda_, params.alpha0
    coefs = (0.5 * lam, -0.5 * lam, params.r**2, alpha0, params.alpha - alpha0)
    kernel = _stepkernel.spec("hopf", coefs)
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

    ``reconstructed[..., k, :] = ((r + z[..., k]) cos(alpha tau[..., k]),
                                  (r + z[..., k]) sin(alpha tau[..., k]))``
    exactly.  An ensemble's arrays lead with the path axis, (P, rows) and
    (P, rows, 2); ``t``, ``x`` and ``y`` read the last axes.
    """

    dt: float
    tau: np.ndarray
    z: np.ndarray
    reconstructed: np.ndarray
    seed: int = None

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.tau.shape[-1]) * self.dt

    @property
    def x(self) -> np.ndarray:
        return self.reconstructed[..., 0]

    @property
    def y(self) -> np.ndarray:
        return self.reconstructed[..., 1]


def simulate_hopf_linear(params, config, leading_order=False, record_every=1, n_paths=None):
    """Integrate the phase/deviation pair and reconstruct (x, y).

    z advances through its exact Gaussian transition and tau by
    Euler-Maruyama; the config's scheme field is not consulted.  The members
    run in the compiled loop of ``_stepkernel.linear_loop``, split across
    one thread per CPU, which makes the floating-point operations of the
    numpy loop (``_linear_loop``: one ``lfilter`` recursion and one
    ``cumsum`` a chunk) in their order; the numpy loop is the reference,
    and it runs instead, with the same results, where the loop cannot be
    compiled.  The two Wiener components are drawn per step in the order
    (deviation, phase) from the same chunked Philox pattern as the generic
    integrator, so a seed here matches the increments of a 2-dimensional
    generic run with the same seed.  Like the other two simulators it holds
    one chunk of steps at a time (``sde._chunks``) and keeps only the
    recorded rows, so its memory does not grow with the step count, and
    shares their member driver, ``sde._simulate``.

    With ``n_paths`` set, member k draws from ``path_seed(config.seed, k)``
    and equals that solo run bit for bit: ``tau``, ``z`` and
    ``reconstructed`` gain a leading path axis, member-major, and each
    member runs all its steps into its own row.

    With the full phase-speed modulation the update divides by r + z; a
    member stops at its first step where r + z <= 0, and
    :class:`SingularAmplitudeError` is raised for the earliest such step
    and the lowest member at it (z = -r is a 1/NSR standard-deviation
    excursion: rare at NSR 0.1, but at NSR 0.3 it can come within some
    hundreds of 1/lambda).  The leading-order variant never divides by r + z.

    Every member starts at (z, tau) = ``config.initial_state`` (default
    (0, 0): on the cycle, phase zero), a pair of finite reals checked
    before ``record_every`` and ``n_paths``.
    """
    (z0,), tau0 = _phase_initial(config.initial_state, 2)
    message = "r + z reached zero at step {step}{where}: the phase-speed denominator is singular"
    terms = _linear_terms(params, config.dt)
    loop = _stepkernel.linear_loop(leading_order, terms) or _linear_loop(leading_order, terms)
    (z, tau), _ = _simulate(
        config, n_paths, record_every, (z0, tau0), loop, SingularAmplitudeError, message
    )
    tau[:, 1:] += tau0
    amp = params.r + z
    angle = params.alpha * tau
    rec = np.empty(z.shape + (2,))
    np.multiply(amp, np.cos(angle), out=rec[..., 0])
    np.multiply(amp, np.sin(angle), out=rec[..., 1])
    if n_paths is None:
        tau, z, rec = tau[0], z[0], rec[0]
    return PhaseDeviationPath(
        dt=config.dt * record_every, tau=tau, z=z, reconstructed=rec, seed=config.seed
    )


def _linear_terms(params, h):
    """The constants of a linear step of ``h``, as both member loops take
    them: (phi, s_h, sqrt(h), h, sigma, alpha, r, alpha r, alpha - alpha0),
    with z's exact update z_{k+1} = phi z_k + s_h xi."""
    lam, al, al0, r, sig = params.lambda_, params.alpha, params.alpha0, params.r, params.sigma
    phi = np.exp(-lam * h)
    s_h = sig * np.sqrt((1.0 - phi * phi) / (2.0 * lam)) if sig > 0 else 0.0
    return phi, s_h, np.sqrt(h), h, sig, al, r, al * r, al - al0


def _linear_loop(leading_order, terms):
    """The numpy member loop of :func:`simulate_hopf_linear`, the reference
    for ``_stepkernel.linear_loop``: built from the same arguments, called
    the same way, ``loop(z, tau, record_every, n_steps, rngs)``, with the
    same results.  Each member runs its steps from row 0 in chunks
    (``sde._chunks``): z is one ``lfilter`` recursion a chunk and tau - tau0,
    recorded after row 0, one ``cumsum``; a member stops at its first step
    where r + z <= 0."""
    from scipy.signal import lfilter  # only here: scipy.signal is slow to import

    phi, s_h, sq, h, sig, al, r, al_r, shift = terms

    def loop(z, tau, record_every, n_steps, rngs):
        bad = np.full(len(rngs), -1)
        for k, rng in enumerate(rngs):
            zi, z_last = [phi * z[k, 0]], z[k, 0]
            for done, span in _chunks(n_steps, 1):
                # frozen draw pattern; only column 0 (the Wiener normals) is consumed
                xi = _normals([rng], span, 2)[:, 0, :, 0]
                zs, zi = lfilter([s_h], [1.0, -phi], xi[:, 0], zi=zi)
                dw_p = sq * xi[:, 1]
                if leading_order:
                    dtau = h + sig * dw_p / al_r
                else:
                    z_start = np.concatenate(([z_last], zs[:-1]))  # z before each step
                    amp = r + z_start
                    if np.any(amp <= 0.0):
                        bad[k] = done + int(np.argmax(amp <= 0.0))
                        break
                    dtau = (h * (1.0 + 2.0 * z_start * shift / (al * amp))
                            + sig * dw_p / (al * amp))
                # cumsum adds in sequence: the carried sum added into the first increment
                # keeps every bit; the first chunk adds none, as 0.0 + -0.0 is +0.0
                if done:
                    dtau[0] += carry
                sums = np.cumsum(dtau)
                _record(z[k], zs, done, record_every)
                _record(tau[k], sums, done, record_every)
                z_last, carry = zs[-1], sums[-1]
        return bad

    return loop
