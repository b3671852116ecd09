"""Template fitting: self-consistency, invariances, the full pipeline, and
the fit's own Nelder-Mead against scipy's, restart by restart."""

import contextlib
import linecache
import sys
import warnings
from unittest import mock

import numpy as np
import pytest
import scipy.optimize._optimize as scipy_optimize
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

from noisycycles import (
    AcvEstimate,
    ConfigError,
    ConvergenceError,
    FitProblem,
    FitResult,
    FitTarget,
    GuessFailureError,
    HopfParams,
    IntegratorConfig,
    PsdEstimate,
    acv_formula,
    averaged_periodogram,
    fit,
    hopf_system,
    initial_guess,
    integrate_ensemble,
    path_seed,
    psd_formula,
    sample_acv,
    sigma_for_nsr,
    simulate_hopf_linear,
)
from noisycycles import _stepkernel, fitting
from noisycycles.analysis import (
    _acv_coefficients,
    _acv_curve,
    _psd_coefficients,
    _psd_curve,
)

from conftest import numpy_loop, requires_compiler

TAU = 2.0 * np.pi

# the two drivers of a fit's restarts: the compiled Nelder-Mead, which
# must have built, and the Python reference, which a host without the
# library runs
_DRIVERS = [pytest.param("compiled", marks=requires_compiler), "python"]
# the function each driver runs a fit's restarts in
_RUNS_IN = {"compiled": (_stepkernel, "nelder_mead"), "python": (fitting, "_lock_step")}


@contextlib.contextmanager
def _driver(name):
    if name == "python":
        with numpy_loop():
            yield
    else:
        assert _stepkernel._library() is not None, "the compiled library did not build"
        yield


def _params(nsr=0.1):
    return HopfParams(
        alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=sigma_for_nsr(nsr, TAU, 1.0)
    )


def _template_acv(p, span=5.0, du=0.01):
    lags = np.arange(0.0, span, du)
    return AcvEstimate(lags=lags, values=acv_formula(p, lags))


def _rel(got, want):
    return abs(got - want) / abs(want)


@pytest.fixture(scope="module")
def acv_selffit():
    curve = _template_acv(_params())
    return curve, fit(FitProblem(target=FitTarget.ACV, curve=curve))


def test_acv_selffit_is_exact(acv_selffit):
    curve, res = acv_selffit
    p = _params()
    assert res.residual < 1e-12 * curve.values[0] ** 2
    assert _rel(res.params.r, p.r) < 1e-6
    assert _rel(res.params.alpha, p.alpha) < 1e-6
    assert _rel(res.params.lambda_, p.lambda_) < 1e-6
    assert _rel(res.params.sigma, p.sigma) < 1e-6
    assert res.params.alpha0 == res.params.alpha
    assert res.target == "acv"


def test_psd_selffit_is_exact():
    p = _params()
    om = np.linspace(0.01, 4 * TAU, 500)
    curve = PsdEstimate(omegas=om, values=psd_formula(p, om))
    res = fit(FitProblem(target=FitTarget.PSD, curve=curve))
    assert res.residual / np.sum(curve.values**2) < 1e-12
    for got, want in (
        (res.params.r, p.r),
        (res.params.alpha, p.alpha),
        (res.params.lambda_, p.lambda_),
        (res.params.sigma, p.sigma),
    ):
        assert _rel(got, want) < 1e-6


def test_scale_equivariance(acv_selffit):
    curve, base = acv_selffit
    scaled = AcvEstimate(lags=curve.lags, values=4.0 * curve.values)
    res = fit(FitProblem(target=FitTarget.ACV, curve=scaled))
    assert _rel(res.params.r, 2.0 * base.params.r) < 1e-6
    assert _rel(res.params.sigma, 2.0 * base.params.sigma) < 1e-6
    assert _rel(res.params.alpha, base.params.alpha) < 1e-6
    assert _rel(res.params.lambda_, base.params.lambda_) < 1e-6


def test_restart_residuals_non_increasing(acv_selffit):
    _, res = acv_selffit
    hist = np.asarray(res.restart_residuals)
    assert hist.size == 5
    assert np.all(np.diff(hist) <= 0.0)
    assert hist[-1] == res.residual


def test_initial_override_starts_at_the_answer():
    p = _params()
    curve = _template_acv(p)
    res = fit(FitProblem(target=FitTarget.ACV, curve=curve, initial=p))
    assert _rel(res.params.r, p.r) < 1e-7
    assert _rel(res.params.alpha, p.alpha) < 1e-7


def test_bounds_are_respected():
    curve = _template_acv(_params())
    res = fit(
        FitProblem(
            target=FitTarget.ACV, curve=curve, bounds={"lambda": (1.0, 2.0)}
        )
    )
    assert 1.0 <= res.params.lambda_ <= 2.0


def test_derived_quantities_formulas(acv_selffit):
    _, res = acv_selffit
    p = res.params
    d = res.derived
    rho = p.sigma / (p.r * np.sqrt(2.0 * p.lambda_))
    assert d["nsr"] == pytest.approx(rho, rel=1e-12)
    assert d["period"] == pytest.approx(TAU / p.alpha, rel=1e-12)
    assert d["focal_lyapunov"] == pytest.approx(p.lambda_ / 2.0, rel=1e-12)
    acv0 = 0.5 * p.r**2 * (1.0 + rho**2)
    assert d["sigma_sq_over_acv0"] == pytest.approx(p.sigma**2 / acv0, rel=1e-12)


def test_to_dict_schema(acv_selffit):
    _, res = acv_selffit
    d = res.to_dict()
    assert set(d) == {"params", "residual", "derived", "target", "n_points"}
    assert set(d["params"]) == {"r", "alpha", "lambda", "sigma"}
    assert d["target"] == "acv"
    assert d["n_points"] > 0


def test_guess_requires_oscillation():
    lags = np.arange(0.0, 5.0, 0.01)
    flat = AcvEstimate(lags=lags, values=0.5 * np.exp(-lags))
    with pytest.raises(GuessFailureError):
        fit(FitProblem(target=FitTarget.ACV, curve=flat))


def test_guess_requires_positive_zero_lag():
    lags = np.arange(0.0, 5.0, 0.01)
    curve = AcvEstimate(lags=lags, values=-np.cos(TAU * lags))
    with pytest.raises(GuessFailureError):
        initial_guess(curve, FitTarget.ACV)


def test_guess_rejects_zero_frequency_peak():
    om = np.linspace(0.0, 10.0, 200)
    curve = PsdEstimate(omegas=om, values=1.0 / (1.0 + om**2))
    with pytest.raises(GuessFailureError):
        initial_guess(curve, FitTarget.PSD)


def test_guess_needs_enough_points():
    lags = np.arange(0.0, 1.5, 0.1)
    curve = AcvEstimate(lags=lags, values=0.5 * np.cos(TAU * lags))
    with pytest.raises(ConfigError):
        initial_guess(curve, FitTarget.ACV)


def test_problem_validation():
    curve = _template_acv(_params())
    with pytest.raises(ConfigError):
        FitProblem(target="acv", curve=curve)
    with pytest.raises(ConfigError):
        FitProblem(target=FitTarget.PSD, curve=curve)
    with pytest.raises(ConfigError):
        FitProblem(target=FitTarget.ACV, curve=curve, bounds={"gamma": (1.0, 2.0)})
    with pytest.raises(ConfigError):
        FitProblem(target=FitTarget.ACV, curve=curve, bounds={"r": (2.0, 1.0)})
    with pytest.raises(ConfigError):
        FitProblem(
            target=FitTarget.ACV,
            curve=AcvEstimate(lags=np.array([]), values=np.array([])),
        )


@pytest.mark.parametrize(
    "field",
    [
        {"bounds": {"r": (0.1, 1.0, 3.0)}},
        {"bounds": {"r": 2.0}},
        {"bounds": {"r": ("a", "b")}},
        {"bounds": {"r": (float("nan"), 2.0)}},
        {"bounds": [("r", (0.1, 1.0))]},
        {"initial": (1, 2, 3, 4)},
        {"curve": AcvEstimate(lags=np.arange(0.0, 5.0, 0.01),
                              values=1e300 * acv_formula(_params(), np.arange(0.0, 5.0, 0.01)))},
    ],
    ids=["triple", "scalar", "strings", "nan", "list", "tuple-initial", "overflowing-squares"],
)
def test_malformed_problem_is_a_config_error(field):
    # with warnings as errors, an overflow warning fails this too
    with pytest.raises(ConfigError, match="sum of squares" if "curve" in field else None):
        FitProblem(**{"target": FitTarget.ACV, "curve": _template_acv(_params()), **field})


@pytest.fixture(scope="module")
def strong_noise_ensemble():
    # leading-order phase/deviation paths: the closed-form templates are
    # exact for this process at any noise level, so every residual error
    # below is estimation error, not model error
    truth = _params(0.5)
    dt, steps, rec = 1e-3, 220_000, 10
    xs = []
    for k in range(60):
        cfg = IntegratorConfig(dt=dt, n_steps=steps, seed=path_seed(515, k))
        lp = simulate_hopf_linear(truth, cfg, leading_order=True, record_every=rec)
        xs.append(lp.reconstructed[:-1, 0])
    xs = np.stack(xs)
    burn = int(round(2.0 / (dt * rec)))
    return truth, xs[:, burn:], dt * rec


def test_acv_pipeline_recovers_strong_noise_parameters(strong_noise_ensemble):
    truth, xs, dtr = strong_noise_ensemble
    # the envelope is below the truncation floor past u ~ 2, so longer lag
    # windows only feed estimator noise into the automatic guess
    vals = None
    for row in xs:
        e = sample_acv(row, dtr, max_lag=2.2)
        vals = e.values if vals is None else vals + e.values
    curve = AcvEstimate(lags=e.lags, values=vals / xs.shape[0])
    res = fit(FitProblem(target=FitTarget.ACV, curve=curve))
    assert res.residual / np.sum(curve.values**2) < 1e-3
    assert _rel(res.params.r, truth.r) < 0.02
    assert _rel(res.params.alpha, truth.alpha) < 0.02
    assert _rel(res.params.lambda_, truth.lambda_) < 0.10
    assert _rel(res.params.sigma, truth.sigma) < 0.05


def test_psd_pipeline_agrees_on_the_peak(strong_noise_ensemble):
    # the relaxation rate only raises a broad pedestal a few percent above
    # the phase line, so the spectrum target pins the peak sharply but
    # leaves lambda in a flat valley; assert what the data determines
    truth, xs, dtr = strong_noise_ensemble
    seg = 2500
    rows = xs[:, : (xs.shape[1] // seg) * seg].reshape(-1, seg)
    pe = averaged_periodogram(rows, dtr)
    keep = pe.omegas <= 4 * TAU
    curve = PsdEstimate(omegas=pe.omegas[keep], values=pe.values[keep])
    res = fit(FitProblem(target=FitTarget.PSD, curve=curve))
    assert res.residual / np.sum(curve.values**2) < 0.02
    assert _rel(res.params.alpha, truth.alpha) < 0.01

    vals = None
    for row in xs:
        e = sample_acv(row, dtr, max_lag=2.2)
        vals = e.values if vals is None else vals + e.values
    acv_fit = fit(
        FitProblem(
            target=FitTarget.ACV,
            curve=AcvEstimate(lags=e.lags, values=vals / xs.shape[0]),
        )
    )
    assert abs(acv_fit.params.alpha - res.params.alpha) / truth.alpha < 0.01


@pytest.fixture(scope="module")
def ensemble_curves():
    # the ensemble benchmark's shape: 20 RK15 Hopf members, dt 2e-3, 25 000
    # steps kept every 5th, NSR 0.1
    config = IntegratorConfig(dt=2e-3, n_steps=25_000, seed=3001, initial_state=(1.0, 0.0))
    members = integrate_ensemble(hopf_system(_params()), config, n_paths=20, record_every=5)
    xs = [tr.values[:-1, 0] for tr in members]
    acvs = [sample_acv(x, 1e-2, 2.0) for x in xs]
    acv = AcvEstimate(lags=acvs[0].lags, values=np.mean([a.values for a in acvs], axis=0))
    psd = averaged_periodogram(xs, 1e-2)
    keep = psd.omegas <= 4 * TAU
    return acv, PsdEstimate(omegas=psd.omegas[keep], values=psd.values[keep])


def _hexed(value):
    if isinstance(value, dict):
        return {k: _hexed(v) for k, v in value.items()}
    return float(value).hex() if isinstance(value, float) else value


# fit(...).to_dict() and restart_residuals of ensemble_curves, as float.hex,
# then restart_evaluations and restart_converged
_PINNED_FITS = {
    FitTarget.ACV: (
        {"params": {"r": "0x1.ff772ba8eac01p-1", "alpha": "0x1.9162eb0a74c14p+2",
                    "lambda": "0x1.65d242467f4f3p+3", "sigma": "0x1.a7f66001f4aeap-2"},
         "residual": "0x1.da019db48c567p-17",
         "derived": {"sigma_sq_over_acv0": "0x1.5d1d84af698ccp-2",
                     "focal_lyapunov": "0x1.65d242467f4f3p+2",
                     "period": "0x1.00786881c1248p+0", "nsr": "0x1.66fa5dce0d5bcp-4"},
         "target": "acv", "n_points": 201},
        ["0x1.1eed721622059p-15", "0x1.1eed721622038p-15", "0x1.1eed721622002p-15",
         "0x1.1eed721622002p-15", "0x1.da019db48c567p-17"],
        (1040, 1171, 1266, 1290, 678),
        (True,) * 5,
    ),
    FitTarget.PSD: (
        {"params": {"r": "0x1.0321f2f83146ep+0", "alpha": "0x1.9100e7e73bd99p+2",
                    "lambda": "0x1.f3ffffffffffep+9", "sigma": "0x1.cb6538b3e0227p-2"},
         "residual": "0x1.7b7d11964b432p-4",
         "derived": {"sigma_sq_over_acv0": "0x1.924017c2e902ap-2",
                     "focal_lyapunov": "0x1.f3ffffffffffep+8",
                     "period": "0x1.00b71813e5bcap+0", "nsr": "0x1.44be27139bef5p-7"},
         "target": "psd", "n_points": 201},
        ["0x1.7b7d11964b43fp-4"] + ["0x1.7b7d11964b432p-4"] * 4,
        (800, 814, 872, 832, 715),
        (True,) * 5,
    ),
}


@pytest.mark.parametrize("driver", _DRIVERS)
@pytest.mark.parametrize("target", list(FitTarget), ids=lambda t: t.value)
def test_fit_of_an_ensemble_curve_keeps_its_bits(ensemble_curves, target, driver):
    # the objective evaluates the template arithmetic without building a
    # HopfParams per evaluation; every bit of the result stays as it was,
    # on either driver (the Python one is what a host without the library
    # runs)
    curve = ensemble_curves[target is FitTarget.PSD]
    with _driver(driver):
        result = fit(FitProblem(target=target, curve=curve))
    expected, residuals, evaluations, converged = _PINNED_FITS[target]
    assert _hexed(result.to_dict()) == expected
    assert [float(r).hex() for r in result.restart_residuals] == residuals
    assert result.restart_evaluations == evaluations
    assert result.restart_converged == converged


@pytest.mark.parametrize("driver", _DRIVERS)
def test_a_fit_runs_its_restarts_in_its_driver(driver):
    module, name = _RUNS_IN[driver]
    with _driver(driver), mock.patch.object(
        module, name, wraps=getattr(module, name)
    ) as runs, mock.patch.object(fitting, "_nelder_mead", wraps=fitting._nelder_mead) as made:
        fit(_small_problem())
    assert runs.call_count == 1
    # the compiled driver makes none of the Python generators
    assert made.call_count == (5 if driver == "python" else 0)


# ---------------------------------------------------------------------------
# The fit's Nelder-Mead against scipy.optimize.minimize(method="Nelder-Mead")


def _one_point_objective(problem, quantum=None):
    """fit's objective as scipy called it: one point, the template's
    coefficients on scalars; ``quantum`` floors the value to a multiple of
    it, which makes ties."""
    grid, data, (coefficients, curve) = fitting._prepared_data(problem)
    denom = float(np.sum(data * data))

    def objective(x):
        resid = curve(coefficients(*np.exp(x)), grid) - data
        value = float(resid @ resid) / denom
        return value if quantum is None else float(np.floor(value / quantum))

    return objective


def _lock_step_objective(problem, quantum=None):
    objective = fitting._objective(problem)[0]
    if quantum is None:
        return objective
    return lambda points: [float(np.floor(v / quantum)) for v in objective(points)]


def _scipy(objective, x0, lower, upper, maxfev=20000):
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        # starts outside the bounds, and a template that overflows
        warnings.simplefilter("ignore")
        return minimize(
            objective,
            np.array(x0, dtype=float),
            method="Nelder-Mead",
            bounds=list(zip(lower, upper)),
            options={"xatol": 1e-8, "fatol": 1e-12, "maxiter": 20000, "maxfev": maxfev},
        )


def _scipy_restarts(problem, maxfev=20000):
    objective = _one_point_objective(problem)
    with np.errstate(all="ignore"):
        starts, lower, upper = fitting._starts(problem)
    return [_scipy(objective, x, lower, upper, maxfev) for x in starts]


def _fit_restarts(problem, driver):
    """The runs of fit's lock-step restarts on ``problem``, from the
    objective, starts and bounds that fit prepares, on ``driver``."""
    objective = fitting._objective(problem)[0]
    with np.errstate(all="ignore"):
        starts, lower, upper = fitting._starts(problem)
    return _lock_step_runs(objective, starts, lower, upper, driver)


def _lock_step_runs(objective, starts, lower, upper, driver):
    with _driver(driver), warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        return fitting._restarts(objective, np.array(starts, dtype=float), lower, upper)


def _assert_same_runs(ours, theirs):
    assert len(ours) == len(theirs)
    for mine, ref in zip(ours, theirs):
        assert np.array(mine.x).tobytes() == ref.x.tobytes()
        assert type(mine.fun) is np.float64
        assert mine.fun.tobytes() == np.float64(ref.fun).tobytes()
        assert (mine.nfev, mine.nit, mine.success) == (ref.nfev, ref.nit, ref.success)
        sim, fsim = mine.final_simplex
        assert np.array(sim).tobytes() == ref.final_simplex[0].tobytes()
        assert np.array(fsim).tobytes() == ref.final_simplex[1].tobytes()


_TRUTH = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.3)
_LAGS = np.arange(0.0, 2.0, 0.05)


def _small_problem(target=FitTarget.ACV, truth=_TRUTH, ripple=0.0, **fields):
    # the template of ``truth`` on 40 points, plus a ripple it cannot follow
    if target is FitTarget.ACV:
        values = acv_formula(truth, _LAGS) + 0.05 * ripple * np.sin(7.3 * _LAGS)
        curve = AcvEstimate(lags=_LAGS, values=values)
    else:
        omegas = np.linspace(0.1, 4.0 * truth.alpha, 40)
        values = psd_formula(truth, omegas) * (1.0 + ripple * np.sin(7.3 * omegas))
        curve = PsdEstimate(omegas=omegas, values=values)
    return FitProblem(target=target, curve=curve, **fields)


# (low, high) pairs: log bound 0.0 below, log bound 0.0 above, and bounds
# wide enough for exp to reach 1e300, where the template gives inf and NaN
_BOUND_PAIRS = st.sampled_from([(1.0, 3.0), (0.2, 1.0), (1e-300, 1e300), (0.5, 8.0)])
# where an initial parameter sits: inside, at or above its upper bound, or
# at 1e250, where the template overflows
_PLACES = st.sampled_from(["inside", "at-upper", "above-upper", "extreme"])
_FIELDS = ("r", "alpha", "lambda_", "sigma")


@st.composite
def _problems(draw):
    target = draw(st.sampled_from(list(FitTarget)))
    a = draw(st.floats(3.0, 9.0))
    truth = HopfParams(
        alpha=a,
        alpha0=a,
        lambda_=draw(st.floats(0.5, 20.0)),
        r=draw(st.floats(0.5, 2.0)),
        sigma=draw(st.floats(0.05, 1.0)),
    )
    bounds = {
        name: draw(_BOUND_PAIRS)
        for name in sorted(draw(st.sets(st.sampled_from(fitting._NAMES))))
    }
    start = {}
    for name, attr in zip(fitting._NAMES, _FIELDS):
        lo, hi = bounds.get(name, (None, None))
        place = draw(_PLACES)
        if place == "extreme":
            start[attr] = 1e250
        elif hi is None or place == "inside":
            start[attr] = getattr(truth, attr) * draw(st.sampled_from([1.0, 0.7, 1.6]))
        else:
            start[attr] = hi if place == "at-upper" else 10.0 * hi
    initial = HopfParams(alpha0=start["alpha"], **start)
    ripple = draw(st.sampled_from([0.0, 0.1]))
    return _small_problem(target, truth, ripple, bounds=bounds, initial=initial)


# a budget of 2000 lets the fit's problems converge; one that never
# converges (a NaN objective) costs 2000 evaluations, not 20000
@pytest.mark.parametrize("driver", _DRIVERS)
@settings(max_examples=30, deadline=None, derandomize=True)
@given(problem=_problems(), maxfev=st.one_of(st.just(2000), st.integers(0, 60)))
@example(
    problem=_small_problem(
        FitTarget.PSD,
        bounds={"r": (1e-300, 1e300)},
        initial=HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1e250, sigma=0.3),
    ),
    maxfev=2000,
)
def test_lock_step_fit_equals_scipy_restart_by_restart(problem, maxfev, driver):
    theirs = _scipy_restarts(problem, maxfev)
    with mock.patch.object(fitting, "_MAXFEV", maxfev):
        ours = _fit_restarts(problem, driver)
    _assert_same_runs(ours, theirs)


_ENDS = st.sampled_from([-0.0, 0.0, -1.0, 1.0, -3.0, 3.0, 700.0])
_COORDS = st.one_of(
    st.sampled_from([-0.0, 0.0, 1.0, 3.0, 5.0, 800.0]), st.floats(-3.0, 3.0)
)


@pytest.mark.parametrize("driver", _DRIVERS)
@settings(max_examples=100, deadline=None)
@given(
    starts=st.lists(st.lists(_COORDS, min_size=4, max_size=4), min_size=1, max_size=5),
    ends=st.lists(st.tuples(_ENDS, _ENDS).map(sorted), min_size=4, max_size=4),
    target=st.sampled_from(list(FitTarget)),
    quantum=st.sampled_from([None, 0.05, 1.0]),
    maxfev=st.one_of(st.just(2000), st.integers(0, 60)),
)
@example(  # log bounds of exactly 0.0 and coordinates at -0.0 on them
    starts=[[-0.0, -0.0, 0.5, -0.0], [0.0, -0.0, -0.0, 2.0]],
    ends=[(0.0, 2.0), (-1.0, 0.0), (-0.0, 0.0), (0.0, 3.0)],
    target=FitTarget.ACV,
    quantum=None,
    maxfev=2000,
)
def test_nelder_mead_core_equals_scipy(starts, ends, target, quantum, maxfev, driver):
    # arbitrary starts and log bounds, straight into the optimizer: starts
    # at or past an upper bound, signed zeros against a bound of 0.0, ties
    # (which the compiled driver leaves to numpy's argsort)
    problem = _small_problem(target)
    lower, upper = [lo for lo, _ in ends], [hi for _, hi in ends]
    objective = _one_point_objective(problem, quantum)
    theirs = [_scipy(objective, x, lower, upper, maxfev) for x in starts]
    with mock.patch.object(fitting, "_MAXFEV", maxfev):
        batched = _lock_step_objective(problem, quantum)
        ours = _lock_step_runs(batched, starts, lower, upper, driver)
    _assert_same_runs(ours, theirs)


@pytest.mark.parametrize("driver", _DRIVERS)
def test_nan_values_never_converge_as_in_scipy(driver):
    # a simplex within xatol whose last vertex is NaN: scipy's np.max of the
    # value spread is NaN, so it does not stop there; nor does the copy
    def objective(x):
        return np.nan if x[3] < 0.0 else 0.0

    lower, upper = [-1e-9] * 4, [1e-9] * 4
    theirs = _scipy(objective, [0.0] * 4, lower, upper, maxfev=200)
    with mock.patch.object(fitting, "_MAXFEV", 200):
        ours = _lock_step_runs(
            lambda points: [objective(x) for x in points], [[0.0] * 4], lower, upper, driver
        )
    _assert_same_runs(ours, [theirs])
    assert theirs.nit > 1


_SCIPY_NM = scipy_optimize._minimize_neldermead.__code__
# the evaluation lines of scipy's _minimize_neldermead, by branch
_BRANCHES = {
    "fsim[k] = func(sim[k])": "initial simplex",
    "fxr = func(xr)": "reflect",
    "fxe = func(xe)": "expand",
    "fxc = func(xc)": "outside contraction",
    "fxcc = func(xcc)": "inside contraction",
    "fsim[j] = func(sim[j])": "shrink",
}


def _last_branch(run):
    """``run()`` and the branch of the last evaluation scipy's Nelder-Mead
    made or was refused."""
    branches = []

    def lines(frame, event, arg):
        if event == "line":
            text = linecache.getline(_SCIPY_NM.co_filename, frame.f_lineno).strip()
            if text in _BRANCHES:
                branches.append(_BRANCHES[text])
        return lines

    previous = sys.gettrace()
    sys.settrace(lambda frame, event, arg: lines if frame.f_code is _SCIPY_NM else None)
    try:
        result = run()
    finally:
        sys.settrace(previous)
    return result, branches[-1] if branches else None


@pytest.mark.parametrize("driver", _DRIVERS)
def test_small_budgets_stop_in_every_branch_as_scipy_does(driver):
    # a tied objective shrinks early; each budget below cuts one evaluation
    problem = _small_problem(initial=_TRUTH)
    start, lower, upper = [0.3, 1.5, 2.5, -1.0], [-1.0] * 4, [3.0] * 4
    objective = _one_point_objective(problem, 0.05)
    stopped_in = set()
    for maxfev in range(45):
        theirs, branch = _last_branch(
            lambda: _scipy(objective, start, lower, upper, maxfev)
        )
        stopped_in.add(branch)
        with mock.patch.object(fitting, "_MAXFEV", maxfev):
            batched = _lock_step_objective(problem, 0.05)
            ours = _lock_step_runs(batched, [start], lower, upper, driver)
        _assert_same_runs(ours, [theirs])
        assert ours[0].nfev == maxfev and not ours[0].success
    assert stopped_in == set(_BRANCHES.values())


def test_no_converged_restart_raises_with_the_best_attached():
    problem = FitProblem(target=FitTarget.ACV, curve=_template_acv(_params()))
    with mock.patch.object(fitting, "_MAXFEV", 40):
        with pytest.raises(ConvergenceError) as caught:
            fit(problem)
    best = caught.value.best
    theirs = _scipy_restarts(problem, maxfev=40)
    assert isinstance(best, FitResult)
    assert best.restart_converged == (False,) * 5
    assert best.restart_evaluations == tuple(t.nfev for t in theirs) == (40,) * 5
    winner = theirs[0]
    for t in theirs[1:]:
        if t.fun < winner.fun:
            winner = t
    denom = fitting._objective(problem)[1]
    assert best.residual == float(winner.fun * denom)
    r, alpha, lam, sigma = np.exp(winner.x)
    p = best.params
    assert (p.r, p.alpha, p.lambda_, p.sigma) == (r, alpha, lam, sigma)



@pytest.mark.parametrize("driver", _DRIVERS)
@pytest.mark.parametrize("target", list(FitTarget), ids=lambda t: t.value)
@pytest.mark.parametrize("field", ["r", "sigma"])
def test_start_with_no_finite_template_is_a_config_error(target, field, driver):
    # r = 1e250 overflows the template to inf, sigma = 1e300 to NaN: from
    # such starts the optimizer's whole budget ends in ConvergenceError
    start = {"alpha": TAU, "alpha0": TAU, "lambda_": TAU, "r": 1.0, "sigma": 0.3}
    start[field] = 1e250 if field == "r" else 1e300
    problem = _small_problem(target, initial=HopfParams(**start))
    # the driver fit would run its restarts in
    # (test_a_fit_runs_its_restarts_in_its_driver)
    with _driver(driver), mock.patch.object(
        *_RUNS_IN[driver], side_effect=AssertionError("optimizer ran")
    ):
        with pytest.raises(ConfigError, match="not finite at any of the 5 start points"):
            fit(problem)


def test_fit_prepares_its_problem_once():
    # the start check and the restarts share one objective and one set of
    # starts: the guess and the data preparation each run once per fit
    problem = _small_problem()
    with mock.patch.object(
        fitting, "initial_guess", wraps=fitting.initial_guess
    ) as guess, mock.patch.object(
        fitting, "_prepared_data", wraps=fitting._prepared_data
    ) as prepared:
        fit(problem)
    assert guess.call_count == 1
    assert prepared.call_count == 1


@pytest.mark.parametrize("target", list(FitTarget), ids=lambda t: t.value)
def test_fit_params_are_python_floats(target):
    p = fit(_small_problem(target)).params
    assert all(type(getattr(p, name)) is float for name in _FIELDS + ("alpha0",))


@pytest.mark.parametrize("driver", _DRIVERS)
@pytest.mark.parametrize("target", list(FitTarget), ids=lambda t: t.value)
def test_ensemble_fit_restarts_equal_scipy(ensemble_curves, target, driver):
    curve = ensemble_curves[target is FitTarget.PSD]
    problem = FitProblem(target=target, curve=curve)
    theirs = _scipy_restarts(problem)
    _assert_same_runs(_fit_restarts(problem, driver), theirs)
    result = fit(problem)
    assert result.restart_evaluations == tuple(t.nfev for t in theirs)
    assert result.restart_converged == tuple(t.success for t in theirs)
    assert set(result.to_dict()) == {
        "params", "residual", "derived", "target", "n_points"
    }


def test_batched_template_rows_equal_the_one_point_formulas():
    # points where a scalar square (libm pow) and x*x round apart, in r,
    # alpha and sigma/r: the coefficients must take the scalar square
    def uneven(v):
        return v**2 != v * v

    pool = np.exp(np.random.default_rng(11).uniform(-1.0, 2.0, 100_000)).tolist()
    squares = [v for v in pool if uneven(v)]
    thetas = []
    for r, alpha, lam in zip(squares[:6], squares[6:12], pool):
        sigma = next(v for v in pool if uneven(v / r))
        thetas.append((r, alpha, lam, sigma))
    u = np.linspace(0.0, 3.0, 301)
    w = np.linspace(0.05, 12.0, 240)
    acv = fitting._curves((_acv_coefficients, _acv_curve), np.array(thetas), u)
    psd = fitting._curves((_psd_coefficients, _psd_curve), np.array(thetas), w)
    for (r, alpha, lam, sigma), acv_row, psd_row in zip(thetas, acv, psd):
        p = HopfParams(alpha=alpha, alpha0=alpha, lambda_=lam, r=r, sigma=sigma)
        assert acv_row.tobytes() == acv_formula(p, u).tobytes()
        assert psd_row.tobytes() == psd_formula(p, w).tobytes()


# ---------------------------------------------------------------------------
# The compiled template against the numpy curves


def _numpy_objective(problem):
    """fit's objective as the numpy curves give it: ``_curves`` less the
    data, and each row's sum of squares its own BLAS dot."""
    grid, data, template = fitting._prepared_data(problem)
    denom = float(np.sum(data * data))

    def objective(points):
        resid = fitting._curves(template, np.exp(points), grid) - data
        return [float(row @ row) / denom for row in resid]

    return objective


# log-parameters the restarts can send besides those inside the bounds:
# e^460 ~ 1e200, whose Python square overflows and retries on numpy
# scalars, e^800 = inf and e^-800 = 0.0, and +-inf, which give inf and NaN
# rows.  A NaN coordinate, which the clipped simplex never holds, is left
# out: its NaN meets the NaNs that inf makes, and which of two NaNs an
# operation keeps (their sign) depends on the operand order the compiler
# picks.
_BEYOND = st.sampled_from([460.0, -460.0, 800.0, -800.0, np.inf, -np.inf])


@requires_compiler
@settings(max_examples=150, deadline=None)
@given(target=st.sampled_from(list(FitTarget)), data=st.data())
@example(target=FitTarget.ACV, data=None)
@example(target=FitTarget.PSD, data=None)
def test_the_compiled_template_gives_the_numpy_objective_bits(target, data):
    problem = _small_problem(target, ripple=0.1)
    with np.errstate(all="ignore"):
        starts, lower, upper = fitting._starts(problem)
    if data is None:  # a full first round, at the bounds and beyond them
        points = [lower, upper, [460.0, 800.0, -800.0, np.inf], [-np.inf, 0.0, 1.0, 460.0]]
        points = (points + [x.tolist() for x in starts] * 5)[:fitting._BATCH]
    else:
        k = data.draw(st.integers(1, fitting._BATCH), label="k")
        coordinates = [st.one_of(st.floats(lo, hi), st.sampled_from([lo, hi]), _BEYOND)
                       for lo, hi in zip(lower, upper)]
        points = data.draw(st.lists(st.tuples(*coordinates), min_size=k, max_size=k))
    points = np.array(points, dtype=float)
    grid, values, (coefficients, _) = fitting._prepared_data(problem)
    residuals = _stepkernel.template(target.value, grid, values, fitting._BATCH)
    objective = fitting._objective(problem)[0]
    with warnings.catch_warnings(), np.errstate(all="ignore"):
        warnings.simplefilter("ignore")
        rows = fitting._coefficients(coefficients, np.exp(points))
        got = residuals(rows).tobytes()
        want = (fitting._curves((coefficients, _), np.exp(points), grid) - values).tobytes()
        assert got == want
        assert np.array(objective(points)).tobytes() == np.array(
            _numpy_objective(problem)(points)).tobytes()


@pytest.mark.parametrize("driver", _DRIVERS)
def test_a_fit_evaluates_its_template_in_its_driver(driver):
    # the compiled template where the library builds, numpy's _curves
    # without it; never both
    bound = []

    def spy(*args):
        residuals = template(*args)
        bound.append(residuals and mock.Mock(wraps=residuals))
        return bound[-1]

    template = _stepkernel.template
    with _driver(driver), mock.patch.object(_stepkernel, "template", spy), mock.patch.object(
        fitting, "_curves", wraps=fitting._curves
    ) as curves:
        fit(_small_problem())
    assert len(bound) == 1
    if driver == "compiled":
        assert bound[0].call_count > 0 and curves.call_count == 0
    else:
        assert bound[0] is None and curves.call_count > 0


@requires_compiler
def test_a_batch_wider_than_the_template_buffers_is_a_value_error():
    # the C would write past the buffers
    problem = _small_problem()
    grid, data, _ = fitting._prepared_data(problem)
    residuals = _stepkernel.template("acv", grid, data, 3)
    assert residuals(np.ones((3, 5))).shape == (3, grid.size)
    for rows in (np.ones((4, 5)), np.ones((2, 4)), np.ones((2, 6))):
        with pytest.raises(ValueError, match="nc_acv got"):
            residuals(rows)
    objective = fitting._objective(problem)[0]
    assert len(objective(np.zeros((fitting._BATCH, 4)))) == fitting._BATCH
    with pytest.raises(ValueError, match="buffers of 25 rows"):
        objective(np.zeros((fitting._BATCH + 1, 4)))
