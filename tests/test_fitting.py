"""Template fitting: self-consistency, invariances, and the full pipeline."""

import numpy as np
import pytest

from noisycycles import (
    AcvEstimate,
    ConfigError,
    FitProblem,
    FitTarget,
    GuessFailureError,
    HopfParams,
    IntegratorConfig,
    PsdEstimate,
    acv_formula,
    averaged_periodogram,
    fit,
    initial_guess,
    path_seed,
    psd_formula,
    sample_acv,
    sigma_for_nsr,
    simulate_hopf_linear,
)

TAU = 2.0 * np.pi


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
