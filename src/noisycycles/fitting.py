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

The Nelder-Mead is the package's own copy of scipy 1.17's bounded
``_minimize_neldermead`` (``adaptive=False``), written on Python floats
with every operation of scipy's in its order, so each restart returns
the bits ``scipy.optimize.minimize(..., method="Nelder-Mead")`` returns.
Each restart starts from scipy's simplex around its start point
(``_simplex``) and is a generator (``_nelder_mead``) that yields the points
it needs evaluated and receives their values; the five run in lock step
(``_lock_step``), and a round takes ``np.exp`` of all pending points at
once and evaluates the template once on a (points, grid) array.  The
template's per-point coefficients stay on scalars
(``_stepkernel._acv_coefficients``, ``_psd_coefficients``, on Python floats
and retried on numpy scalars where those raise) and its curve on (points,
1) columns, so each row has the bits of the same point evaluated alone,
and each row's sum of squares is its own BLAS dot.  The generators and
these numpy curves are the reference the tests hold the compiled copies
to, and what a host without the library runs.

Where the compiled library builds, a round has no Python work per point.
The restarts' bookkeeping runs in C (``_stepkernel.nelder_mead``), from
the same start simplices: one call a round advances every restart to the
points it needs, with every operation of the generator in its order, and
writes them into its buffer.  The objective is the compiled template
(``_stepkernel.template``), whose coefficients and curve are traced from
the same template functions, on buffers bound once per fit: ``np.exp``
maps the points into parameters, one C call writes every point's
coefficients (a scalar square is libm's ``pow``, as on the scalars) and
the ACV's exp arguments, numpy's SIMD ``exp`` maps those in place, one C
call writes the curves less the data, and ``np.vecdot`` writes each row's
sum of squares into the Nelder-Mead's values, which its next call divides
by the normalization as numpy's ``/`` does.  The PSD template has no exp,
and its coefficients and curve are one C call.  The C orders a simplex
itself only when its values are distinct and not NaN, where any sort gives
numpy's order; otherwise it asks for numpy's argsort, so ties are ordered
as here on every CPU.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import NamedTuple

import numpy as np

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
# the constants of the compiled copy, _stepkernel.nelder_mead
_STEPS = (_RHO, _CHI, _PSI, _SIGMA, _XATOL, _FATOL)
# the most points one objective call takes: a round of start simplices
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

    x: list
    fun: np.float64
    nfev: int
    nit: int
    success: bool
    final_simplex: tuple


def _clipped(x, lower, upper):
    """np.clip of the list ``x``: v stays only if v > lo, then only if v <
    hi (so -0.0 clips to a bound of 0.0), and NaN stays NaN."""
    return [hi if (m := lo if v <= lo else v) >= hi else m for v, lo, hi in zip(x, lower, upper)]


def _simplex(x0, lower, upper):
    """scipy's start simplex around ``x0`` within [lower, upper] (lists of
    floats): x0 clipped, then one vertex a coordinate, that coordinate
    stepped, and a vertex past an upper bound reflected into the interior.
    Both drivers of the restarts start from it."""
    x0 = _clipped(x0, lower, upper)
    sim = [x0]
    for k in range(len(x0)):
        y = list(x0)
        y[k] = (1 + _NONZDELT) * y[k] if y[k] != 0 else _ZDELT
        sim.append(y)
    return [_clipped([2 * hi - v if v > hi else v for v, hi in zip(x, upper)], lower, upper)
            for x in sim]


def _nelder_mead(sim, lower, upper):
    """One bounded Nelder-Mead restart from the start simplex ``sim``
    (:func:`_simplex`) within [lower, upper] (lists of floats), as a
    generator.

    It yields the list of points it needs evaluated next, is sent their
    values, and returns a :class:`_Run`.  Budget stops follow scipy's
    wrapper, which refuses evaluation ``_MAXFEV + 1``: the iteration it
    falls in ends there, uncounted, and keeps what it had changed.
    """
    n = len(sim) - 1
    nfev = min(n + 1, _MAXFEV)
    values = (yield sim[:nfev]) if nfev else []
    # sorted twice, as scipy does: a second argsort can reorder ties
    sim, fsim = _ordered(*_ordered(sim, values + [np.inf] * (n + 1 - nfev)))

    nit = 1
    while nfev < _MAXFEV and nit < _MAXITER:
        best, fbest = sim[0], fsim[0]
        if all(
            abs(v - b) <= _XATOL for x in sim[1:] for v, b in zip(x, best)
        ) and all(abs(fbest - f) <= _FATOL for f in fsim[1:]):
            break
        xbar = best
        for x in sim[1:-1]:
            xbar = [a + b for a, b in zip(xbar, x)]
        xbar = [a / n for a in xbar]
        worst = sim[-1]

        def beyond(c):
            # (1 + c) xbar - c worst: reflect, expand and both contractions
            # (c = -psi gives scipy's (1 - psi) xbar + psi worst exactly)
            return _clipped([(1 + c) * b - c * w for b, w in zip(xbar, worst)], lower, upper)

        xr = beyond(_RHO)
        (fxr,) = yield [xr]
        nfev += 1
        shrink = False
        # each `nfev < _MAXFEV` below is where scipy's wrapper would refuse
        if fxr < fbest:
            if nfev < _MAXFEV:
                xe = beyond(_RHO * _CHI)
                (fxe,) = yield [xe]
                nfev += 1
                sim[-1], fsim[-1] = (xe, fxe) if fxe < fxr else (xr, fxr)
                nit += 1
        elif fxr < fsim[-2]:
            sim[-1], fsim[-1] = xr, fxr
            nit += 1
        elif nfev < _MAXFEV:
            if fxr < fsim[-1]:
                xc = beyond(_PSI * _RHO)
                (fxc,) = yield [xc]
                shrink = not fxc <= fxr
            else:
                xc = beyond(-_PSI)
                (fxc,) = yield [xc]
                shrink = not fxc < fsim[-1]
            nfev += 1
            if not shrink:
                sim[-1], fsim[-1] = xc, fxc
                nit += 1
        if shrink:
            moved = [
                _clipped([b + _SIGMA * (v - b) for v, b in zip(x, best)], lower, upper)
                for x in sim[1:]
            ]
            allowed = min(n, _MAXFEV - nfev)
            values = (yield moved[:allowed]) if allowed else []
            nfev += allowed
            # a vertex the budget refuses is moved all the same
            sim[1 : allowed + 2] = moved[: allowed + 1]
            fsim[1 : allowed + 1] = values
            nit += allowed == n
        sim, fsim = _ordered(sim, fsim)

    return _run(sim, fsim, nfev, nit)


def _run(sim, fsim, nfev, nit):
    """The :class:`_Run` of a restart that ended with the simplex ``sim``
    and values ``fsim`` (sorted lists) after ``nfev`` evaluations and
    ``nit`` iterations."""
    success = not (nfev >= _MAXFEV or nit >= _MAXITER)
    return _Run(sim[0], np.min(fsim), nfev, nit, success, (sim, fsim))


def _ordered(sim, fsim):
    """Vertices and values sorted by value with numpy's default argsort,
    whose order of ties, NaN and inf scipy's results depend on."""
    order = np.array(fsim).argsort().tolist()
    return [sim[i] for i in order], [fsim[i] for i in order]


def _lock_step(restarts, evaluate):
    """Run generator restarts (see :func:`_nelder_mead`) side by side: each
    round evaluates the pending points of every live restart with one call
    of ``evaluate(points) -> values`` and sends each its own values."""
    runs = [None] * len(restarts)
    live = [(k, gen, None) for k, gen in enumerate(restarts)]
    while live:
        asked = []
        for k, gen, values in live:
            try:
                asked.append((k, gen, gen.send(values)))
            except StopIteration as stop:
                runs[k] = stop.value
        batch = [x for _, _, points in asked for x in points]
        values = evaluate(batch) if batch else []
        live, at = [], 0
        for k, gen, points in asked:
            live.append((k, gen, values[at : at + len(points)]))
            at += len(points)
    return runs


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

    Where the library builds, ``squares`` is the compiled template
    (``_stepkernel.template``), else numpy's ``_curves`` less the data;
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
    on the compiled copy where the library builds, which has ``squares``
    write into its own buffers, else on the generators; the two give the
    same bits."""
    simplices = [_simplex(x.tolist(), lower, upper) for x in starts]
    ended = _stepkernel.nelder_mead(squares, denom, simplices, lower, upper, _STEPS, _MAXFEV,
                                    _MAXITER)
    if ended is not None:
        return [_run(*end) for end in ended]
    return _lock_step([_nelder_mead(sim, lower, upper) for sim in simplices],
                      lambda points: _values(squares, denom, points))


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
