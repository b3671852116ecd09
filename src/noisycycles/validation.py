"""End-to-end validation suite: eleven numbered checks with fixed seeds.

Each check compares a measured quantity against an independent expectation
(closed form, precomputed high-accuracy constant, or a stated tolerance
band) and reports a :class:`CriterionResult`.  A criterion is declared
once, where its check is defined: ``@_criterion(index, name)`` enters the
check in the table :func:`run_all` loops over.  The suite is deterministic;
the heavyweight simulation products are cached per process so the checks
that share a protocol do not rerun it.

Check 11 needs a monthly sea-surface-temperature anomaly series (the Nino
3.4 index) supplied by the user; without a file it reports as skipped.
"""

from __future__ import annotations

import os
from dataclasses import dataclass
from functools import lru_cache, wraps

import numpy as np

from .analysis import (
    AcvEstimate,
    PsdEstimate,
    acv_formula,
    averaged_periodogram,
    kurtosis,
    psd_formula,
    sample_acv,
    wk_transform,
)
from .csvio import read_column
from .fitting import FitProblem, FitTarget, fit
from .frame import (
    _frame_deviations,
    build_frame,
    find_limit_cycle,
    reduce,
    reconstruct,
    simulate_reduced,
)
from .hopf import HopfParams, hopf_system, sigma_for_nsr, simulate_hopf_linear
from .presets import van_der_pol
from .sde import (
    IntegratorConfig,
    Scheme,
    integrate_ensemble,
    ornstein_uhlenbeck,
    ou_exact_endpoint,
    strong_order_estimate,
)

__all__ = ["CriterionResult", "run_all", "NINO_ENV_VAR"]

NINO_ENV_VAR = "NOISYCYCLES_NINO34"

_ALPHA = 2.0 * np.pi
_NSR = 0.1
# shared ensemble protocol: 100 paths of 100 periods, integrated at 1e-4
# periods and recorded every 1e-2, i.e. 1e6 points over 1e4 periods total
_PATHS = 100
_STEPS = 1_000_000
_DT = 1.0e-4
_THIN = 100


@dataclass
class CriterionResult:
    index: int
    name: str
    passed: bool
    detail: str
    skipped: bool = False


# (index, name, check) of each criterion, in order; filled by _criterion
_CRITERIA = []


def _criterion(index, name):
    """Enter the decorated check in the table as criterion ``index``.

    The check returns ``(passed, detail)``, or ``(passed, detail, skipped)``;
    the registered function returns its :class:`CriterionResult`.
    """

    def register(body):
        @wraps(body)
        def check(*args):
            passed, *rest = body(*args)
            return CriterionResult(index, name, bool(passed), *rest)

        _CRITERIA.append((index, name, check))
        return check

    return register


def _rel_l2(measured, expected):
    return float(np.linalg.norm(measured - expected) / np.linalg.norm(expected))


def _standard_params(alpha0=_ALPHA, nsr=_NSR) -> HopfParams:
    return HopfParams(
        alpha=_ALPHA,
        alpha0=alpha0,
        lambda_=_ALPHA,
        r=1.0,
        sigma=sigma_for_nsr(nsr, _ALPHA, 1.0),
    )


def _mean_acv(xs, dt, max_lag):
    vals = [sample_acv(x, dt, max_lag) for x in xs]
    lags = vals[0].lags
    return lags, np.mean([v.values for v in vals], axis=0)


def _exact_x(params, dt, n_steps, seed, n_paths, thin):
    """x component of every recorded row of an exact oscillator ensemble
    started at (1, 0), (paths, rows)."""
    ens = integrate_ensemble(
        hopf_system(params),
        IntegratorConfig(dt=dt, n_steps=n_steps, seed=seed, initial_state=(1.0, 0.0)),
        n_paths=n_paths,
        record_every=thin,
    )
    return np.stack([tr.values[:, 0] for tr in ens])


def _linear_x(params, dt, n_steps, seed, thin, leading_order):
    """x component of every recorded row of the linear phase/deviation
    model, (_PATHS, rows)."""
    config = IntegratorConfig(dt=dt, n_steps=n_steps, seed=seed)
    return simulate_hopf_linear(
        params, config, leading_order=leading_order, record_every=thin, n_paths=_PATHS
    ).x


@lru_cache(maxsize=None)
def _exact_x_paths(alpha0):
    """x component of the exact oscillator ensemble, (paths, 10000)."""
    params = _standard_params(alpha0=alpha0)
    return _exact_x(params, _DT, _STEPS, 20_030, _PATHS, _THIN)[:, :-1]


@lru_cache(maxsize=None)
def _linear_x_paths():
    """x component of the linear phase/deviation model, same protocol."""
    return _linear_x(_standard_params(), _DT, _STEPS, 20_031, _THIN, False)[:, :-1]


@_criterion(1, "integrator strong order")
def check_integrator_order() -> CriterionResult:
    """1: strong-order slopes of both schemes, each where its order holds.

    Three slopes over dt = 0.02 .. 0.0025, T = 1, 200 paths, seed 101:

    - Euler-Maruyama on the Ornstein-Uhlenbeck process (lambda = 2 pi,
      sigma = 0.5) against its exact endpoint: band 1.0 +/- 0.2;
    - the 3/2 scheme on van der Pol (mu = 1, sigma = 0.5, from (2, 0))
      against the same scheme on the fine grid: band 1.5 +/- 0.2;
    - the 3/2 scheme on the Ornstein-Uhlenbeck process against its exact
      endpoint: band 2.0 +/- 0.2.  On a linear drift the scheme's update is
      the exact one up to a zero-mean O(h^2.5) local error, so it converges
      with order 2 (see :mod:`noisycycles.sde`); a scheme that fell back to
      order 1 or 3/2 there would fail this band.
    """
    dts = (0.02, 0.01, 0.005, 0.0025)

    def slope(system, initial_state, scheme, exact_endpoint):
        return strong_order_estimate(
            system,
            initial_state,
            1.0,
            dts,
            n_paths=200,
            scheme=scheme,
            seed=101,
            exact_endpoint=exact_endpoint,
        ).slope

    ou = ornstein_uhlenbeck(_ALPHA, 0.5)
    ou_exact = ou_exact_endpoint(_ALPHA, 0.5)
    em = slope(ou, (1.0,), Scheme.EULER_MARUYAMA, ou_exact)
    rk = slope(van_der_pol(1.0, sigma=0.5), (2.0, 0.0), Scheme.STRONG_RK15, None)
    rk_linear = slope(ou, (1.0,), Scheme.STRONG_RK15, ou_exact)
    return (
        abs(em - 1.0) <= 0.2 and abs(rk - 1.5) <= 0.2 and abs(rk_linear - 2.0) <= 0.2,
        f"Euler-Maruyama on Ornstein-Uhlenbeck vs exact endpoint: slope "
        f"{em:.3f} (band 1.0 +/- 0.2); 3/2 scheme on van der Pol vs fine-grid "
        f"reference: slope {rk:.3f} (band 1.5 +/- 0.2); 3/2 scheme on "
        f"Ornstein-Uhlenbeck vs exact endpoint: slope {rk_linear:.3f} "
        "(band 2.0 +/- 0.2, linear-drift superconvergence)",
    )


@_criterion(2, "deviation process variance")
def check_deviation_variance() -> CriterionResult:
    """2: stationary variance of the transverse deviation process."""
    params = _standard_params()
    lam = params.lambda_
    dt = 1e-3
    n_steps = int(round(1e4 / lam / dt))
    config = IntegratorConfig(dt=dt, n_steps=n_steps, seed=202)
    lp = simulate_hopf_linear(params, config)
    burn = int(round(10.0 / lam / dt))
    measured = float(lp.z[burn:].var())
    expected = params.sigma**2 / (2.0 * lam)
    dev = abs(measured - expected) / expected
    return (
        dev <= 0.05,
        f"var(z) = {measured:.5f} vs sigma^2/(2 lambda) = {expected:.5f} "
        f"({100 * dev:.2f}% off, band 5%)",
    )


@_criterion(3, "autocovariance agreement")
def check_acv_agreement() -> CriterionResult:
    """3: sample ACV of the exact and linear runs against the template."""
    params = _standard_params()
    lags, acv_exact = _mean_acv(_exact_x_paths(_ALPHA), _DT * _THIN, 5.0)
    _, acv_linear = _mean_acv(_linear_x_paths(), _DT * _THIN, 5.0)
    template = acv_formula(params, lags)
    err_exact = _rel_l2(acv_exact, template)
    err_linear = _rel_l2(acv_linear, template)
    return (
        err_exact <= 0.10 and err_linear <= 0.10,
        f"relative L2 error over 5 periods: exact {100 * err_exact:.1f}%, "
        f"linear {100 * err_linear:.1f}% (band 10%)",
    )


def _three_bin_peak(omegas, values):
    i = int(np.argmax(values))
    lo, hi = max(i - 1, 0), min(i + 2, values.size)
    return omegas[i], float(values[lo:hi].mean())


@_criterion(4, "spectral peak agreement")
def check_psd_peak() -> CriterionResult:
    """4: periodogram peak location and height against the template."""
    params = _standard_params()
    est = averaged_periodogram(_exact_x_paths(_ALPHA), _DT * _THIN)
    template = psd_formula(params, est.omegas)
    w_meas, h_meas = _three_bin_peak(est.omegas, est.values)
    w_ref, h_ref = _three_bin_peak(est.omegas, template)
    freq_dev = abs(w_meas - w_ref) / w_ref
    height_dev = abs(h_meas - h_ref) / h_ref
    return (
        freq_dev <= 0.02 and height_dev <= 0.15,
        f"peak frequency {w_meas:.4f} vs {w_ref:.4f} "
        f"({100 * freq_dev:.2f}% off, band 2%); "
        f"peak height {h_meas:.3f} vs {h_ref:.3f} "
        f"({100 * height_dev:.1f}% off, band 15%)",
    )


@_criterion(5, "documented breakdown regime")
def check_acv_breakdown() -> CriterionResult:
    """5: the template must fail when the two frequencies differ by 2x.

    Rotating at alpha/2 off the cycle shifts the mean frequency by
    (alpha - alpha0) NSR^2, so the exact curve dephases from the template
    linearly in the lag; the window is set to 15 periods, where the
    mismatch is well developed (it is only ~19% over criterion 3's
    5-period window).
    """
    params = _standard_params()
    window = 15.0
    lags, acv_exact = _mean_acv(_exact_x_paths(_ALPHA / 2.0), _DT * _THIN, window)
    err = _rel_l2(acv_exact, acv_formula(params, lags))
    _, acv_matched = _mean_acv(_exact_x_paths(_ALPHA), _DT * _THIN, window)
    err_matched = _rel_l2(acv_matched, acv_formula(params, lags))
    return (
        err > 0.25,
        f"relative L2 error over 15 periods with the rotation rate halved "
        f"off the cycle: {100 * err:.1f}% (must exceed 25%; the matched "
        f"regime gives {100 * err_matched:.1f}% over the same window)",
    )


@_criterion(6, "strong-noise kurtosis")
def check_kurtosis() -> CriterionResult:
    """6: heavy-noise kurtosis of the exact and leading-order models."""
    params = _standard_params(nsr=0.5)
    exact = _exact_x(params, 1e-3, 105_000, 606, _PATHS, 10)
    linear = _linear_x(params, 1e-3, 105_000, 607, 10, True)
    b2_exact = kurtosis(exact[:, 500::10].ravel())
    b2_linear = kurtosis(linear[:, 500::10].ravel())
    return (
        abs(b2_exact - 2.1) <= 0.15 and abs(b2_linear - 2.6) <= 0.15,
        f"exact beta2 = {b2_exact:.3f} (band 2.1 +/- 0.15), "
        f"leading-order beta2 = {b2_linear:.3f} (band 2.6 +/- 0.15), "
        f"10^5 stationary samples each",
    )


@lru_cache(maxsize=None)
def _hopf_cycle_frame():
    system = hopf_system(_standard_params(nsr=0.0))
    cycle = find_limit_cycle(system, (0.3, 0.0))
    return cycle, build_frame(cycle)


@lru_cache(maxsize=None)
def _vdp_cycle_frame():
    cycle = find_limit_cycle(van_der_pol(1.0), (2.0, 0.0))
    return cycle, build_frame(cycle)


@_criterion(7, "comoving frame invariants")
def check_frame_invariants() -> CriterionResult:
    """7: frame orthogonality/transport/rate identities on two cycles."""
    hc, hf = _hopf_cycle_frame()
    vc, vf = _vdp_cycle_frame()
    devs = [_frame_deviations(hc, hf), _frame_deviations(vc, vf)]
    worst_ortho, worst_transport, worst_lemma = map(max, zip(*devs))
    period_ref = 6.663286859323118  # precomputed high-accuracy value
    period_dev = abs(vc.period - period_ref)
    passed = (
        worst_ortho < 1e-8
        and worst_transport < 1e-6
        and worst_lemma < 1e-6
        and period_dev <= 1e-3
    )
    return (
        passed,
        f"orthogonality {worst_ortho:.1e} (<1e-8), tangent transport "
        f"{worst_transport:.1e} (<1e-6), rate-norm identity {worst_lemma:.1e} "
        f"(<1e-6); relaxation-oscillator period {vc.period:.6f} "
        f"(reference 6.663287 +/- 1e-3)",
    )


@_criterion(8, "reduction correctness")
def check_reduction() -> CriterionResult:
    """8: reduced coefficients and statistics of the reconstructed paths."""
    params = _standard_params()
    cycle, frame = _hopf_cycle_frame()
    model = reduce(cycle, frame, params.sigma)
    j0_dev = float(np.abs(model.J0 + params.lambda_).max())

    dt, steps, thin = 1e-3, 100_000, 10
    taus, z0s = simulate_reduced(
        model,
        cycle,
        IntegratorConfig(dt=dt, n_steps=steps, seed=808),
        record_every=thin,
        n_paths=_PATHS,
    )
    xs = [
        reconstruct(cycle, frame, tau, z0, dt=dt * thin).values[:-1, 0]
        for tau, z0 in zip(taus, z0s)
    ]
    lags, acv = _mean_acv(xs, dt * thin, 5.0)
    err = _rel_l2(acv, acv_formula(params, lags))
    return (
        j0_dev <= 1e-6 and err <= 0.10,
        f"|J0 + lambda| max {j0_dev:.1e} (<=1e-6); reconstructed-path ACV "
        f"error {100 * err:.1f}% (band 10%)",
    )


@_criterion(9, "transform consistency")
def check_transform_consistency() -> CriterionResult:
    """9: cosine transform of the ACV template against the PSD template."""
    params = _standard_params()
    omegas = np.linspace(0.0, 4.0 * params.alpha, 401)
    direct = psd_formula(params, omegas)
    transformed = wk_transform(lambda u: acv_formula(params, u), omegas)
    sup_dev = float(np.abs(transformed.values - direct).max() / direct.max())
    return sup_dev <= 0.01, f"sup-norm discrepancy {100 * sup_dev:.4f}% (band 1%)"


@_criterion(10, "fit roundtrip")
def check_fit_roundtrip() -> CriterionResult:
    """10: recover generating parameters from synthetic data, 10 seeds.

    Each seed contributes a 20-path ensemble of 1000-period runs whose
    per-path autocovariances are averaged before fitting.  The decay rate
    enters the autocovariance only through a term of relative size NSR^2
    (1% here), so identifying it needs long paths (the mean-subtracted
    estimator carries an O(1/T) distortion that path-averaging cannot
    remove) and a short fit window (past two periods the extra lags add
    envelope noise leverage but no decay-rate information).
    """
    params = _standard_params()
    dt, steps, thin = 2e-3, 500_000, 5
    wins = 0
    outcomes = []
    for seed in range(3000, 3010):
        xs = _exact_x(params, dt, steps, seed, 20, thin)[:, :-1]
        curve = AcvEstimate(*_mean_acv(xs, dt * thin, 2.0))
        p = fit(FitProblem(target=FitTarget.ACV, curve=curve)).params
        ok = (
            abs(p.r - params.r) / params.r <= 0.05
            and abs(p.alpha - params.alpha) / params.alpha <= 0.05
            and abs(p.lambda_ - params.lambda_) / params.lambda_ <= 0.20
            and abs(p.sigma - params.sigma) / params.sigma <= 0.20
        )
        wins += ok
        outcomes.append(
            f"(r {p.r:.3f}, a {p.alpha:.3f}, l {p.lambda_:.2f}, s {p.sigma:.3f})"
        )
    return (
        wins >= 8,
        f"{wins}/10 seeds within bands (r, alpha 5%; lambda, sigma 20%); "
        f"truth (r 1, a {params.alpha:.3f}, l {params.lambda_:.3f}, "
        f"s {params.sigma:.3f}); fits: {'; '.join(outcomes)}",
    )


@_criterion(11, "sea-surface index reproduction")
def check_nino_reproduction(path) -> CriterionResult:
    """11: published-series diagnostics, when a data file is named; a named
    file that cannot be read fails the check."""
    if not path:  # None, or an empty $NOISYCYCLES_NINO34
        return (
            False,
            "monthly Nino 3.4 anomaly file not provided "
            f"(set ${NINO_ENV_VAR} to enable)",
            True,
        )
    series, dt = read_column(path)
    if dt is None:
        dt = 1.0 / 12.0  # monthly samples on a yearly time axis
    series = series - series.mean()

    acv = sample_acv(series, dt, 10.0)
    acv_fit = fit(FitProblem(target=FitTarget.ACV, curve=acv))
    seg = 256
    n_seg = series.size // seg
    segments = series[: n_seg * seg].reshape(n_seg, seg)
    psd = averaged_periodogram(segments, dt)
    keep = psd.omegas <= 6.0
    psd = PsdEstimate(psd.omegas[keep], psd.values[keep])
    psd_fit = fit(FitProblem(target=FitTarget.PSD, curve=psd))

    a_ratio = acv_fit.derived["sigma_sq_over_acv0"]
    a_period = acv_fit.derived["period"]
    a_focal = acv_fit.derived["focal_lyapunov"]
    p_ratio = psd_fit.derived["sigma_sq_over_acv0"]
    p_focal = psd_fit.derived["focal_lyapunov"]
    passed = (
        abs(a_ratio - 0.83) / 0.83 <= 0.15
        and abs(a_period - 4.2) / 4.2 <= 0.10
        and abs(a_focal - 0.15) / 0.15 <= 0.30
        and abs(p_ratio - 0.96) / 0.96 <= 0.15
        and abs(p_focal - 0.17) / 0.17 <= 0.30
    )
    return (
        passed,
        f"ACV fit: sigma^2/ACV(0) {a_ratio:.3f}/yr (0.83 +/- 15%), period "
        f"{a_period:.2f} yr (4.2 +/- 10%), lambda/2 {a_focal:.3f}/yr "
        f"(0.15 +/- 30%); PSD fit: {p_ratio:.3f}/yr (0.96 +/- 15%), "
        f"{p_focal:.3f}/yr (0.17 +/- 30%)",
    )


def run_all(nino_path=None) -> list:
    """Run the full suite; exceptions become failed results, not crashes."""
    if nino_path is None:
        nino_path = os.environ.get(NINO_ENV_VAR)
    results = []
    for index, name, check in _CRITERIA:
        try:
            results.append(
                check(nino_path) if check is check_nino_reproduction else check()
            )
        except Exception as exc:  # surface, don't abort the suite
            results.append(
                CriterionResult(
                    index, name, False, f"raised {type(exc).__name__}: {exc}"
                )
            )
    return results
