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
    hopf_system,
    initial_guess,
    integrate_ensemble,
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


# fit(...).to_dict() and restart_residuals of ensemble_curves, as float.hex
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
    ),
}


@pytest.mark.parametrize("target", list(FitTarget), ids=lambda t: t.value)
def test_fit_of_an_ensemble_curve_keeps_its_bits(ensemble_curves, target):
    # the objective evaluates the template arithmetic without building a
    # HopfParams per evaluation; every bit of the result stays as it was
    curve = ensemble_curves[target is FitTarget.PSD]
    result = fit(FitProblem(target=target, curve=curve))
    expected, residuals = _PINNED_FITS[target]
    assert _hexed(result.to_dict()) == expected
    assert [float(r).hex() for r in result.restart_residuals] == residuals
