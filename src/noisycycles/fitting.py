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

The Nelder-Mead is scipy's bounded ``_minimize_neldermead``
(``adaptive=False``).  Where the compiled library builds and numpy hands
out its loops, a whole fit runs in one C call
(``_stepkernel.fit_restarts``), whose ``nm_run`` is scipy's loop written
out line by line, with every operation in its order, from scipy's start
simplex, which the same C builds; so each restart returns the bits
``scipy.optimize.minimize(..., method="Nelder-Mead")`` returns.  Where
scipy calls ``func``, the restart has the compiled template
(``_stepkernel.template``), whose coefficients and curve are traced from
the template functions, write its points' values: numpy's own ``exp``
loop maps the points into parameters, C writes every point's
coefficients (a scalar square is libm's ``pow``, as on the scalars) and
the ACV's exp arguments, numpy's ``exp`` loop maps those in place, C
writes the curves less the data, and numpy's ``vecdot`` loop writes each
row's sum of squares, which the restart divides by the normalization as
numpy's ``/`` does.  The restarts are shared by one worker a CPU; each
has its own rows of every buffer, so the bits do not depend on the
workers.  The C orders a simplex itself only when its values are
distinct and not NaN, where any sort gives numpy's order; otherwise the
restart waits for numpy's argsort, and the call after it resumes the
restart, so ties are ordered as here on every CPU.

A host without the library or numpy's loops runs each restart through
``scipy.optimize.minimize`` itself, one point a call, on the numpy
template: its per-point coefficients on scalars
(``_stepkernel._acv_coefficients``, ``_psd_coefficients``, on Python
floats and retried on numpy scalars where those raise), its curve on
(points, 1) columns and each row's sum of squares its own BLAS dot.  These
numpy curves are the reference the tests hold the compiled template to.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np
from scipy.optimize import minimize

from . import _stepkernel
from ._stepkernel import _acv_coefficients, _acv_curve, _psd_coefficients, _psd_curve
from .analysis import AcvEstimate, PsdEstimate
from .exceptions import (
    ConfigError,
    ConvergenceError,
    GuessFailureError,
    _float_rule,
    _require_array,
)
from .hopf import HopfParams, nsr as _nsr
from .sde import _generator

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
_NAMES = ("r", "alpha", "lambda", "sigma")

# Nelder-Mead stopping rule and budget per restart
_XATOL, _FATOL = 1e-8, 1e-12
_MAXITER = _MAXFEV = 20000
# reflection, expansion, contraction and shrink factors, and the initial
# simplex steps of scipy's non-adaptive Nelder-Mead
_RHO, _CHI, _PSI, _SIGMA = 1, 2, 0.5, 0.5
_NONZDELT, _ZDELT = 0.05, 0.00025
# the constants of the compiled copy, _stepkernel.fit_restarts
_STEPS = (_RHO, _CHI, _PSI, _SIGMA, _XATOL, _FATOL, _NONZDELT, _ZDELT)
# the compiled template's rows: each restart's n + 1 of them
_BATCH = _RESTARTS * (len(_NAMES) + 1)


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
        axis = "lags" if self.target is FitTarget.ACV else "omegas"
        grid = _require_array(f"curve.{axis}", getattr(self.curve, axis), (None,))
        values = _require_array("curve.values", self.curve.values, (grid.size,))
        # the objective divides by this sum of squares
        with _float_rule(ConfigError, "curve.values' sum of squares overflows: "
                                      "scale the curve down"):
            np.sum(values * values)
        if not isinstance(self.bounds, (dict, type(None))):
            raise ConfigError(
                f"bounds must be a dict, got {type(self.bounds).__name__}"
            )
        for name, pair in (self.bounds or {}).items():
            if name not in _NAMES:
                raise ConfigError(f"unknown bound {name!r}")
            try:
                lo, hi = pair
                ordered = 0.0 < lo < hi
            except (TypeError, ValueError):
                raise ConfigError(
                    f"bounds for {name} must be a (low, high) pair, got {pair!r}"
                ) from None
            if not ordered:
                raise ConfigError(f"bounds for {name} must be positive and ordered")
        if not isinstance(self.initial, (HopfParams, type(None))):
            raise ConfigError(
                f"initial must be a HopfParams, got {type(self.initial).__name__}"
            )


@dataclass
class FitResult:
    """Fitted parameters with the residual sum of squares and diagnostics.

    ``restart_residuals`` records the best residual after each restart of
    the schedule (non-increasing), ``restart_evaluations`` each restart's
    objective evaluations and ``restart_converged`` whether it reached the
    simplex tolerance within its budget.  None of the three is part of
    :meth:`to_dict`.
    """

    params: HopfParams
    residual: float
    derived: dict
    target: str
    n_points: int
    restart_residuals: tuple = field(default=())
    restart_evaluations: tuple = field(default=())
    restart_converged: tuple = field(default=())

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
    """The grid, the data and the template (its per-point coefficients and
    its curve: ``_stepkernel._acv_*`` on |lags|, or ``_stepkernel._psd_*``)
    of the fit."""
    if problem.target is FitTarget.ACV:
        lags = np.asarray(problem.curve.lags, float)
        vals = np.asarray(problem.curve.values, float)
        peaks = _local_peaks(vals)
        if peaks.size and vals[0] > 0.0:
            faded = peaks[np.abs(vals[peaks]) < _ACV_TRUNCATION * vals[0]]
            if faded.size:
                cut = int(faded[0])
                lags, vals = lags[:cut], vals[:cut]
        return np.abs(lags), vals, (_acv_coefficients, _acv_curve)
    return (
        np.asarray(problem.curve.omegas, float),
        np.asarray(problem.curve.values, float),
        (_psd_coefficients, _psd_curve),
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


def _starts(problem: FitProblem):
    """The restarts' log-parameter starts (arrays) and the log bounds
    (lists of lower and upper ends)."""
    start = problem.initial or initial_guess(problem.curve, problem.target)
    sigma_floor = 1e-9 * start.r * np.sqrt(start.alpha)
    theta0 = np.array(
        [start.r, start.alpha, start.lambda_, max(start.sigma, sigma_floor)]
    )
    given = problem.bounds or {}
    log_bounds = [
        np.log(given.get(nm, (th / 1e3, th * 1e3))) for nm, th in zip(_NAMES, theta0)
    ]
    for lo, hi in log_bounds:
        if not (lo <= hi):
            raise ConfigError("empty bound interval")
    lower = [float(b[0]) for b in log_bounds]
    upper = [float(b[1]) for b in log_bounds]
    x0 = np.clip(np.log(theta0), lower, upper)
    rng = _generator(2654435761)
    jitters = [0.0] + [_JITTER * rng.standard_normal(4) for _ in range(1, _RESTARTS)]
    return [np.clip(x0 + j, lower, upper) for j in jitters], lower, upper


class _Run(NamedTuple):
    """One restart's outcome, as ``scipy.optimize.minimize`` reports it."""

    x: list | np.ndarray
    fun: np.float64
    nfev: int
    nit: int
    success: bool
    final_simplex: tuple


def _run(sim, fsim, nfev, nit):
    """The :class:`_Run` of a restart that ended with the simplex ``sim``
    and values ``fsim`` (sorted lists) after ``nfev`` evaluations and
    ``nit`` iterations."""
    success = not (nfev >= _MAXFEV or nit >= _MAXITER)
    return _Run(sim[0], np.min(fsim), nfev, nit, success, (sim, fsim))


def _coefficients(coefficients, thetas):
    """The template's coefficients at each row (r, alpha, lambda, sigma) of
    ``thetas``, a list of tuples, on Python floats where they do not raise."""
    rows = []
    for theta in thetas.tolist():
        try:
            rows.append(coefficients(*theta))
        except (OverflowError, ZeroDivisionError):
            # where a Python float raises, a numpy scalar overflows to inf
            # or divides to inf or NaN; elsewhere the two round alike
            rows.append(coefficients(*map(np.float64, theta)))
    return rows


def _curves(template, thetas, grid):
    """The template (its coefficients and curve functions) on ``grid`` at
    each row (r, alpha, lambda, sigma) of ``thetas``: a (points, grid)
    array whose rows have the bits of each point evaluated alone."""
    coefficients, curve = template
    return curve(np.array(_coefficients(coefficients, thetas)).T[:, :, None], grid)


def _objective(problem: FitProblem):
    """The fit's objective on a batch of at most ``_BATCH`` log-parameter
    points, times its normalization, as ``squares(points, out)``, which
    writes each point's sum of squared residuals into ``out``; the
    normalization; and the grid size.

    Where the library builds and numpy hands out its loops, ``squares`` is
    the compiled template (``_stepkernel.template``), else numpy's
    ``_curves`` less the data;
    each row's sum of squares is the BLAS dot of one point's, and both give
    the same bits.  Inside finite log bounds every exp is positive and
    finite, so the template needs no HopfParams and its validation per
    evaluation.
    """
    grid, data, template = _prepared_data(problem)
    denom = float(np.sum(data * data))
    if denom <= 0.0 or grid.size < 4:
        raise ConfigError("curve carries no signal to fit")
    compiled = _stepkernel.template(problem.target.value, grid, data, _BATCH)
    if compiled is not None:
        return compiled, denom, grid.size

    def squares(points, out):
        resid = _curves(template, np.exp(points), grid) - data
        np.vecdot(resid, resid, out=out)

    return squares, denom, grid.size


def _values(squares, denom, points):
    """The objective at ``points``, rows of log-parameters, as a list of
    floats: ``squares`` of :func:`_objective` over its normalization."""
    points = np.array(points, dtype=float)
    out = np.empty(len(points))
    squares(points, out)
    return (out / denom).tolist()


def _restarts(squares, denom, starts, lower, upper):
    """The :class:`_Run` of each restart of a fit, from the objective of
    :func:`_objective` and the starts and log bounds of :func:`_starts`:
    on the compiled copy where the library builds and numpy hands out its
    loops, which runs a compiled template's objective itself, else on
    ``scipy.optimize.minimize``, one point a call; the two give the same
    bits."""
    ended = _stepkernel.fit_restarts(squares, denom, starts, lower, upper, _STEPS, _MAXFEV,
                                     _MAXITER)
    if ended is not None:
        return [_run(*end) for end in ended]
    options = {"xatol": _XATOL, "fatol": _FATOL, "maxiter": _MAXITER, "maxfev": _MAXFEV}
    runs = [minimize(lambda x: _values(squares, denom, [x])[0], x0, method="Nelder-Mead",
                     bounds=list(zip(lower, upper)), options=options) for x0 in starts]
    return [_Run(**{name: run[name] for name in _Run._fields}) for run in runs]


def fit(problem: FitProblem) -> FitResult:
    """Minimize the squared template mismatch over (r, alpha, lambda, sigma).

    Deterministic: the restart schedule and its jitter are fixed.  Raises
    :class:`ConvergenceError` (with the best attempt attached) if no
    restart reaches the simplex tolerance, and propagates
    :class:`GuessFailureError` when no initial point is available.  Raises
    :class:`ConfigError` before any step when the objective is not finite
    at any of the restarts' start points.
    """
    squares, denom, n_points = _objective(problem)
    # a template or a sum of squares that overflows is the inf or NaN scipy
    # would see, without a warning
    with np.errstate(all="ignore"):
        starts, lower, upper = _starts(problem)
        if not np.isfinite(_values(squares, denom, starts)).any():
            raise ConfigError(
                f"the objective is not finite at any of the {len(starts)} start points: "
                f"the template overflows there or the curve is not finite"
            )
        runs = _restarts(squares, denom, starts, lower, upper)
    best = None
    history = []
    for run in runs:
        if best is None or run.fun < best.fun:
            best = run
        history.append(best.fun * denom)

    r, alpha, lam, sigma = map(float, np.exp(best.x))
    params = HopfParams(alpha=alpha, alpha0=alpha, lambda_=lam, r=r, sigma=sigma)
    result = FitResult(
        params=params,
        residual=float(best.fun * denom),
        derived=_derived_record(params),
        target=problem.target.value,
        n_points=int(n_points),
        restart_residuals=tuple(history),
        restart_evaluations=tuple(run.nfev for run in runs),
        restart_converged=tuple(run.success for run in runs),
    )
    if not any(result.restart_converged):
        raise ConvergenceError(
            f"no restart converged within the evaluation budget "
            f"(best residual {result.residual:.3e})",
            best=result,
        )
    return result
