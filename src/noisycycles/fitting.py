"""Least-squares fitting of the closed-form templates to measured curves.

Recovers (r, alpha, lambda, sigma) from a sample autocovariance or an
averaged periodogram by minimizing the sum of squared template residuals.
alpha0 does not appear in either template, so it is not identifiable here;
results report alpha0 = alpha.

The optimizer is Nelder-Mead on log-parameters (positivity for free), with
a fixed schedule of five restarts jittered around the automatic initial
guess.  The objective is normalized by the curve's sum of squares, which
makes the whole procedure scale equivariant: scaling the curve by c^2
scales the fitted r and sigma by c and leaves alpha and lambda unchanged.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field

import numpy as np
from scipy.optimize import minimize

from .analysis import AcvEstimate, PsdEstimate, _acv, _psd
from .exceptions import ConfigError, ConvergenceError, GuessFailureError
from .hopf import HopfParams, nsr as _nsr

__all__ = [
    "FitTarget",
    "FitProblem",
    "FitResult",
    "initial_guess",
    "fit",
]

_RESTARTS = 5
_JITTER = 0.25
# envelope fraction of ACV(0) below which lags are estimator-noise dominated
_ACV_TRUNCATION = 0.05


class FitTarget(enum.Enum):
    ACV = "acv"
    PSD = "psd"


@dataclass
class FitProblem:
    """A template-fitting task: which template, against which curve.

    ``bounds`` maps parameter names (r, alpha, lambda, sigma) to positive
    (low, high) intervals; omitted parameters get a wide default around
    the initial guess.  ``initial`` overrides the automatic guess.
    """

    target: FitTarget
    curve: object
    bounds: dict = None
    initial: HopfParams = None

    def __post_init__(self):
        if not isinstance(self.target, FitTarget):
            raise ConfigError(f"target must be a FitTarget, got {self.target!r}")
        expected = AcvEstimate if self.target is FitTarget.ACV else PsdEstimate
        if not isinstance(self.curve, expected):
            raise ConfigError(
                f"{self.target.value} fits need a {expected.__name__}, "
                f"got {type(self.curve).__name__}"
            )
        grid = self.curve.lags if self.target is FitTarget.ACV else self.curve.omegas
        if np.asarray(grid).size == 0:
            raise ConfigError("curve is empty")
        for name, (lo, hi) in (self.bounds or {}).items():
            if name not in ("r", "alpha", "lambda", "sigma"):
                raise ConfigError(f"unknown bound {name!r}")
            if not (0.0 < lo < hi):
                raise ConfigError(f"bounds for {name} must be positive and ordered")


@dataclass
class FitResult:
    """Fitted parameters with the residual sum of squares and diagnostics.

    ``restart_residuals`` records the best residual after each restart of
    the schedule (non-increasing).
    """

    params: HopfParams
    residual: float
    derived: dict
    target: str
    n_points: int
    restart_residuals: tuple = field(default=())

    def to_dict(self) -> dict:
        p = self.params
        return {
            "params": {
                "r": p.r,
                "alpha": p.alpha,
                "lambda": p.lambda_,
                "sigma": p.sigma,
            },
            "residual": self.residual,
            "derived": dict(self.derived),
            "target": self.target,
            "n_points": self.n_points,
        }


def _local_peaks(values):
    """Indices of local maxima of |values|, including the left endpoint."""
    a = np.abs(values)
    idx = np.nonzero((a[1:-1] >= a[:-2]) & (a[1:-1] > a[2:]))[0] + 1
    if a.size >= 2 and a[0] >= a[1]:
        idx = np.concatenate([[0], idx])
    return idx


def _log_slope(u, p):
    """Least-squares slope of log p against u (p clipped away from zero)."""
    y = np.log(np.clip(p, 1e-300, None))
    return np.polyfit(u, y, 1)


def _guess_from_acv(curve: AcvEstimate) -> HopfParams:
    lags, vals = np.asarray(curve.lags, float), np.asarray(curve.values, float)
    c0 = vals[0]
    if not c0 > 0.0:
        raise GuessFailureError("ACV(0) is not positive")

    sign = np.sign(vals)
    flips = np.nonzero(sign[:-1] * sign[1:] < 0.0)[0]
    if flips.size == 0:
        raise GuessFailureError(
            "no zero crossings: the curve has no oscillatory structure"
        )
    crossings = lags[flips] + (lags[flips + 1] - lags[flips]) * vals[flips] / (
        vals[flips] - vals[flips + 1]
    )
    if crossings.size >= 2:
        alpha = np.pi / np.mean(np.diff(crossings))
    else:
        alpha = 0.5 * np.pi / crossings[0]

    r = np.sqrt(2.0 * c0)
    fallback_lambda = alpha / (2.0 * np.pi)

    peaks = _local_peaks(vals)
    if peaks.size < 3:
        return HopfParams(alpha=alpha, alpha0=alpha, lambda_=fallback_lambda, r=r, sigma=0.0)
    u_pk, p_pk = lags[peaks], np.abs(vals[peaks])

    # tail decay rate gives the phase-diffusion envelope (sigma/r)^2 / 2
    tail = slice(max(1, peaks.size // 2), None)
    slope, intercept = _log_slope(u_pk[tail], p_pk[tail])
    s2 = 2.0 * max(-slope, 0.0)
    sigma = r * np.sqrt(s2)

    # what the tail envelope leaves unexplained at short lags is the
    # amplitude-relaxation factor 1 + NSR^2 exp(-lambda u)
    base = np.exp(intercept - 0.5 * s2 * u_pk)
    excess = p_pk / base - 1.0
    nsr2 = max(excess[0], 0.0)
    lam = fallback_lambda
    usable = np.nonzero(excess > max(0.02 * nsr2, 1e-12))[0]
    if nsr2 > 1e-3 and usable.size >= 2:
        lam_slope, _ = _log_slope(u_pk[usable], excess[usable])
        if lam_slope < 0.0:
            lam = -lam_slope
    return HopfParams(alpha=alpha, alpha0=alpha, lambda_=lam, r=r, sigma=sigma)


def _guess_from_psd(curve: PsdEstimate) -> HopfParams:
    om, vals = np.asarray(curve.omegas, float), np.asarray(curve.values, float)
    i = int(np.argmax(vals))
    if om[i] <= 0.0 or vals[i] <= 0.0:
        raise GuessFailureError(
            "spectrum peaks at zero frequency: no oscillatory structure"
        )
    alpha = om[i]
    # variance = (1/pi) integral of the reported half line
    var = np.trapezoid(vals, om) / np.pi
    if var <= 0.0:
        raise GuessFailureError("spectrum has nonpositive total power")
    r = np.sqrt(2.0 * var)
    s2 = r * r / vals[i]  # peak height of the direct term is r^2 / s^2
    return HopfParams(
        alpha=alpha,
        alpha0=alpha,
        lambda_=alpha / (2.0 * np.pi),
        r=r,
        sigma=r * np.sqrt(s2),
    )


def initial_guess(curve, target: FitTarget) -> HopfParams:
    """Rough template parameters read directly off the curve.

    For an autocovariance: alpha from the zero-crossing spacing, r from
    sqrt(2 ACV(0)) (the NSR^2 inflation is ignored), sigma from the
    tail-peak envelope decay, and lambda from whatever short-lag excess
    that envelope leaves unexplained.  For a spectrum: alpha and sigma
    from the dominant peak position and height, r from the total power.
    lambda is weakly identified in both cases and falls back to one
    relaxation per revolution (alpha / 2 pi) when the curve carries no
    usable signature.
    """
    grid = curve.lags if target is FitTarget.ACV else curve.omegas
    if np.asarray(grid).size < 16:
        raise ConfigError("initial_guess needs a curve with at least 16 points")
    if target is FitTarget.ACV:
        return _guess_from_acv(curve)
    return _guess_from_psd(curve)


def _prepared_data(problem: FitProblem):
    """The grid, the data and the template arithmetic (``analysis._acv`` on
    |lags|, or ``analysis._psd``) of the fit."""
    if problem.target is FitTarget.ACV:
        lags = np.asarray(problem.curve.lags, float)
        vals = np.asarray(problem.curve.values, float)
        peaks = _local_peaks(vals)
        if peaks.size and vals[0] > 0.0:
            faded = peaks[np.abs(vals[peaks]) < _ACV_TRUNCATION * vals[0]]
            if faded.size:
                cut = int(faded[0])
                lags, vals = lags[:cut], vals[:cut]
        return np.abs(lags), vals, _acv
    return (
        np.asarray(problem.curve.omegas, float),
        np.asarray(problem.curve.values, float),
        _psd,
    )


def _derived_record(params: HopfParams) -> dict:
    rho = _nsr(params)
    acv0 = 0.5 * params.r**2 * (1.0 + rho * rho)
    return {
        "sigma_sq_over_acv0": params.sigma**2 / acv0,
        "focal_lyapunov": params.lambda_ / 2.0,
        "period": 2.0 * np.pi / params.alpha,
        "nsr": rho,
    }


def fit(problem: FitProblem) -> FitResult:
    """Minimize the squared template mismatch over (r, alpha, lambda, sigma).

    Deterministic: the restart schedule and its jitter are fixed.  Raises
    :class:`ConvergenceError` (with the best attempt attached) if no
    restart reaches the simplex tolerance, and propagates
    :class:`GuessFailureError` when no initial point is available.
    """
    grid, data, template = _prepared_data(problem)
    denom = float(np.sum(data * data))
    if denom <= 0.0 or grid.size < 4:
        raise ConfigError("curve carries no signal to fit")

    start = problem.initial or initial_guess(problem.curve, problem.target)
    sigma_floor = 1e-9 * start.r * np.sqrt(start.alpha)
    theta0 = np.array(
        [start.r, start.alpha, start.lambda_, max(start.sigma, sigma_floor)]
    )
    names = ("r", "alpha", "lambda", "sigma")
    given = problem.bounds or {}
    log_bounds = [
        np.log(given.get(nm, (th / 1e3, th * 1e3))) for nm, th in zip(names, theta0)
    ]
    x0 = np.log(theta0)
    for lo, hi in log_bounds:
        if not (lo <= hi):
            raise ConfigError("empty bound interval")
    x0 = np.clip(x0, [b[0] for b in log_bounds], [b[1] for b in log_bounds])

    # inside the finite log bounds every exp is positive and finite, so the
    # template needs no HopfParams and its validation per evaluation
    def objective(x):
        r, alpha, lam, sigma = np.exp(x)
        resid = template(r, alpha, lam, sigma, grid) - data
        return float(resid @ resid) / denom

    rng = np.random.Generator(np.random.Philox(np.random.SeedSequence(2654435761)))
    best = None
    history = []
    any_converged = False
    for k in range(_RESTARTS):
        jitter = 0.0 if k == 0 else _JITTER * rng.standard_normal(4)
        xk = np.clip(
            x0 + jitter, [b[0] for b in log_bounds], [b[1] for b in log_bounds]
        )
        res = minimize(
            objective,
            xk,
            method="Nelder-Mead",
            bounds=log_bounds,
            options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 20000, "maxfev": 20000},
        )
        any_converged = any_converged or bool(res.success)
        if best is None or res.fun < best.fun:
            best = res
        history.append(best.fun * denom)

    r, alpha, lam, sigma = np.exp(best.x)
    params = HopfParams(alpha=alpha, alpha0=alpha, lambda_=lam, r=r, sigma=sigma)
    result = FitResult(
        params=params,
        residual=float(best.fun * denom),
        derived=_derived_record(params),
        target=problem.target.value,
        n_points=int(grid.size),
        restart_residuals=tuple(history),
    )
    if not any_converged:
        raise ConvergenceError(
            f"no restart converged within the evaluation budget "
            f"(best residual {result.residual:.3e})",
            best=result,
        )
    return result

