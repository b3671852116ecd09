"""Estimators and closed-form curves, checked against slow direct oracles."""

import sys
import warnings

import numpy as np
import pytest

from noisycycles import (
    AcvEstimate,
    ConfigError,
    DegenerateSampleError,
    DegenerateSpectrumError,
    HopfParams,
    acv_formula,
    averaged_periodogram,
    kde,
    kurtosis,
    psd_formula,
    sample_acv,
    sigma_for_nsr,
    wk_transform,
)
from noisycycles import _stepkernel
from noisycycles.analysis import _sampled_until_decay

from conftest import threads

TAU = 2.0 * np.pi


def _params(nsr=0.1):
    return HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0,
                      sigma=sigma_for_nsr(nsr, TAU, 1.0))


def _naive_acv(x, k_max):
    # direct O(N k) reference: biased, mean subtracted
    x = x - x.mean()
    n = x.size
    return np.array([(x[: n - k] * x[k:]).sum() / n for k in range(k_max + 1)])


def test_sample_acv_matches_direct_computation():
    rng = np.random.default_rng(1)
    x = rng.normal(size=1200)
    dt = 0.25
    est = sample_acv(x, dt, max_lag=20 * dt)
    assert est.lags == pytest.approx(np.arange(21) * dt)
    assert est.values == pytest.approx(_naive_acv(x, 20), abs=1e-12)


def test_sample_acv_rejects_lags_beyond_half_the_span():
    with pytest.raises(ConfigError):
        sample_acv(np.zeros(100), 0.1, max_lag=6.0)


@pytest.mark.parametrize("max_lag", [-0.1, np.nan, np.inf])
def test_sample_acv_needs_a_finite_nonnegative_lag(max_lag):
    with pytest.raises(ConfigError, match=r"^max_lag must be finite and >= 0, got "):
        sample_acv(np.zeros(100), 0.1, max_lag=max_lag)


def test_sample_acv_refuses_a_series_whose_transform_overflows():
    # this warned about an overflow in the spectrum's product
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^the sample ACV overflows at dt 1.0"):
            sample_acv(np.full(64, 1e200), 1.0, 4.0)
        with pytest.raises(ConfigError, match="^the sample ACV overflows at dt 1.0"):
            sample_acv(np.where(np.arange(64) % 2, 1e300, -1e300), 1.0, 4.0)


@pytest.mark.parametrize("estimator, samples, message", [
    (lambda x: averaged_periodogram(x, 1.0), np.full((2, 64), 1e200), "the periodogram overflows"),
    (lambda x: averaged_periodogram(x, 1e306), np.arange(64.0)[None], "the periodogram overflows"),
    # the frequency grid's 1 / (N dt) overflows, and 0 times it is invalid
    (lambda x: averaged_periodogram(x, 1e-320), np.arange(64.0)[None],
     "the periodogram overflows"),
    (kurtosis, np.arange(40) * 1e200, "their fourth moment overflows"),
    (kurtosis, np.full(40, 1e308), "their fourth moment overflows"),
], ids=["periodogram", "periodogram-large-dt", "periodogram-subnormal-dt", "kurtosis",
        "kurtosis-mean"])
def test_an_estimator_refuses_samples_it_would_overflow_on(estimator, samples, message):
    # these warned about an overflow in a square or a product
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=message):
            estimator(samples)


def test_sample_acv_at_lag_zero_is_the_variance():
    x = np.random.default_rng(3).normal(size=200)
    est = sample_acv(x, 0.1, max_lag=0.0)
    assert est.lags.tolist() == [0.0]
    assert est.values == pytest.approx([np.mean((x - x.mean()) ** 2)], abs=1e-12)


def test_periodogram_matches_direct_dft():
    rng = np.random.default_rng(2)
    dt = 0.5
    x = rng.normal(size=256)
    est = averaged_periodogram(x[None, :], dt)
    xc = x - x.mean()
    ref = np.abs(np.fft.rfft(xc)) ** 2 * dt / x.size
    assert est.values == pytest.approx(ref, abs=1e-12)
    assert est.omegas == pytest.approx(2 * np.pi * np.fft.rfftfreq(x.size, dt))


def test_periodogram_averages_rows():
    rng = np.random.default_rng(3)
    rows = rng.normal(size=(8, 128))
    avg = averaged_periodogram(rows, 1.0)
    singles = [averaged_periodogram(row[None, :], 1.0).values for row in rows]
    assert avg.values == pytest.approx(np.mean(singles, axis=0))


def test_periodogram_variance_normalization():
    # half-line integral of the two-sided density over pi recovers the power
    rng = np.random.default_rng(4)
    x = rng.normal(size=4096)
    est = averaged_periodogram(x[None, :], 0.1)
    var = np.trapezoid(est.values, est.omegas) / np.pi
    assert var == pytest.approx(x.var(), rel=0.02)


def test_acv_formula_values():
    p = _params(0.1)
    acv0 = acv_formula(p, np.array([0.0]))[0]
    assert acv0 == pytest.approx(0.5 * (1 + 0.01))
    # spot value one period out, from the closed form evaluated by hand
    s2 = p.sigma**2 / p.r**2
    by_hand = 0.5 * (1 + 0.01 * np.exp(-p.lambda_)) * np.exp(-s2 / 2)
    assert acv_formula(p, np.array([1.0]))[0] == pytest.approx(by_hand)
    assert by_hand == pytest.approx(0.46956, abs=5e-5)
    # even in the lag
    u = np.array([0.3])
    assert acv_formula(p, -u) == pytest.approx(acv_formula(p, u))


def test_psd_formula_peak_and_variance():
    p = _params(0.1)
    w = np.linspace(0.0, 40 * TAU, 400_001)
    psd = psd_formula(p, w)
    peak = w[np.argmax(psd)]
    assert peak == pytest.approx(TAU, rel=1e-3)
    # the spectral convention ties the half-line integral to ACV(0)
    var = np.trapezoid(psd, w) / np.pi
    assert var == pytest.approx(acv_formula(p, np.array([0.0]))[0], rel=1e-3)


@pytest.mark.parametrize("formula, r, grid", [
    (acv_formula, 1e200, [0.0, 1.0]), (acv_formula, 1e-200, [0.0, 1.0]),
    (psd_formula, 1.0, [1e200]), (psd_formula, 1e200, [1.0]), (psd_formula, 1e-200, [1.0]),
], ids=["acv-large-r", "acv-small-r", "psd-large-omega", "psd-large-r", "psd-small-r"])
def test_a_formula_term_that_overflows_is_a_config_error(formula, r, grid):
    # these raised OverflowError from a Python square or warned about a
    # numpy one
    p = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=r, sigma=0.1)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"^{formula.__name__} overflows at HopfParams"):
            formula(p, np.array(grid))


def test_psd_formula_needs_noise():
    quiet = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.0)
    with pytest.raises(DegenerateSpectrumError):
        psd_formula(quiet, np.array([1.0]))


def test_wk_transform_callable_and_sampled_agree():
    p = _params(0.1)
    w = np.linspace(0.0, 3 * TAU, 121)
    from_callable = wk_transform(lambda u: acv_formula(p, u), w).values
    # span the lags until the envelope is ~3e-6 of the zero-lag value,
    # otherwise the truncated tail dominates the comparison
    lags = np.arange(0.0, 200.0, 0.005)
    sampled = AcvEstimate(lags=lags, values=acv_formula(p, lags))
    from_curve = wk_transform(sampled, w).values
    direct = psd_formula(p, w)
    scale = direct.max()
    assert np.abs(from_callable - direct).max() / scale < 1e-3
    assert np.abs(from_curve - direct).max() / scale < 1e-3


def test_wk_transform_rejects_non_decaying_input():
    with pytest.raises(DegenerateSpectrumError):
        wk_transform(lambda u: np.cos(u), np.array([0.5, 1.0]))


@pytest.mark.parametrize("omegas", [[0.0], [0.0, 1e-3]])
def test_wk_transform_resolves_a_callable_acv_at_a_low_top_frequency(omegas):
    # the lag step pi / (128 w_max) alone spans the whole decay of e^-|u|
    # (2.45e10 at [0.0], 24.5 at [0.0, 1e-3]); halved until the ACV moves
    # by at most 1% over one step, it resolves 2 / (1 + w^2)
    got = wk_transform(lambda u: np.exp(-np.abs(u)), omegas).values
    assert got == pytest.approx(2.0 / (1.0 + np.square(omegas)), rel=1e-5)


def test_wk_transform_keeps_the_top_frequency_step_of_the_hopf_template():
    # criterion 9's grid: at 4 alpha the template moves by 1.4e-4 of ACV(0)
    # over the first step, which is kept
    p = _params(0.1)
    du = np.pi / (128.0 * 4.0 * p.alpha)
    lags, _ = _sampled_until_decay(lambda u: acv_formula(p, u), du)
    assert lags[1] == du


def test_wk_transform_refuses_a_callable_acv_that_jumps_at_lag_zero():
    probes = []

    def acv(u):
        probes.append(u)
        return np.where(u == 0.0, 1.0, 0.5) * np.exp(-np.abs(u))

    message = (r"^the ACV moves by more than 1% of ACV\(0\) = 1 within every lag step "
               r"down to \S+: a callable ACV must be continuous at lag 0$")
    with pytest.raises(ConfigError, match=message):
        wk_transform(acv, [1.0])
    # ACV(0), then the first step and its 64 halvings, one lag at a time
    assert len(probes) == 66 and all(np.ndim(u) == 0 for u in probes)
    # a probe that is not finite is named as a block's value is
    with pytest.raises(ConfigError, match=r"^ACV must be finite, got nan at lag 0\.0245437$"):
        wk_transform(lambda u: np.where(u == 0.0, 1.0, np.nan), [1.0])


@pytest.mark.parametrize("value, after, block", [(np.nan, 1.0, 0), (np.inf, 150.0, 1)])
def test_wk_transform_refuses_an_acv_that_is_not_finite_at_its_first_block(value, after, block):
    # not a line spectrum sampled to the 2**21-lag cap: the first block that
    # holds a value that is not finite stops the sampling and names its lag;
    # at w = 1 the lags are k pi / 128 in blocks of 4097, then 4096
    blocks = []

    def acv(u):
        if np.ndim(u):
            blocks.append(u)
        return np.where(u > after, value, np.exp(-0.01 * u))

    lags = np.arange(2 * 4096 + 1) * (np.pi / 128.0)
    first = lags[lags > after][0]
    with pytest.raises(ConfigError, match=f"^ACV must be finite, got {value} at lag {first:g}$"):
        wk_transform(acv, [1.0])
    assert len(blocks) == block + 1


def _wk_blocks(lags, vals, omegas):
    # wk_transform's quadrature as written before it went frequency by
    # frequency: np.trapezoid over blocks of 64 frequencies
    values = np.empty(omegas.size)
    for start in range(0, omegas.size, 64):
        ws = omegas[start:start + 64, None]
        values[start:start + 64] = 2.0 * np.trapezoid(
            vals[None, :] * np.cos(ws * lags[None, :]), lags, axis=1
        )
    return values


@pytest.mark.parametrize("n_omegas", [401, 65, 1])
def test_wk_transform_is_bitwise_the_trapezoid_blocks(n_omegas):
    p = _params(0.1)
    w = np.linspace(0.3, 2.0 * TAU, n_omegas)

    def fn(u):
        return acv_formula(p, u)

    got = wk_transform(fn, w).values
    du = np.pi / (128.0 * w.max())
    lags, vals = _sampled_until_decay(fn, du)
    assert got.tobytes() == _wk_blocks(lags, vals, w).tobytes()

    # an estimate whose 512-lag block envelope first falls below 1e-6 of
    # ACV(0) in block 3 (lags 15.36-20.47): the transform keeps 2048 lags
    rng = np.random.default_rng(12)
    lags = np.arange(4001) * 0.01
    vals = np.exp(-lags) * np.cos(TAU * lags) + 1e-9 * rng.normal(size=lags.size)
    got = wk_transform(AcvEstimate(lags=lags, values=vals), w).values
    assert got.tobytes() == _wk_blocks(lags[:2048], vals[:2048], w).tobytes()


@pytest.mark.parametrize("n_omegas", [401, 65, 1])
def test_wk_transform_does_not_depend_on_the_thread_count(n_omegas):
    p = _params(0.1)
    w = np.linspace(0.3, 2.0 * TAU, n_omegas)
    rng = np.random.default_rng(12)
    lags = np.arange(4001) * 0.01
    estimate = AcvEstimate(lags=lags, values=np.exp(-lags) * np.cos(TAU * lags)
                           + 1e-9 * rng.normal(size=lags.size))
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the GIL allows
    try:
        for acv in (lambda u: acv_formula(p, u), estimate):
            runs = []
            for count in (1, 2, 3):
                with threads(count):
                    runs.append(wk_transform(acv, w).values.tobytes())
            assert runs[0] == runs[1] == runs[2]
    finally:
        sys.setswitchinterval(interval)


_OVERFLOW = "the ACV's transform overflows: scale the ACV, its lags or the frequencies down"


@pytest.mark.parametrize("omegas, message, estimated", [
    ([np.nan], "omegas must be finite, got nan at index 0", False),
    ([1.0, np.inf], "omegas must be finite, got inf at index 1", False),
    ([-np.inf], "omegas must be finite, got -inf at index 0", False),
    ([], r"omegas must have shape \(N,\), got \(0,\)", False),
    ([[0.5, 1.0]], r"omegas must have shape \(N,\), got \(1, 2\)", False),
    # a callable's lag step pi / (128 omega) would be pi / inf
    ([1.0, 1e308], _OVERFLOW, False),
    # cos(omega lag) of the estimate's last lag would take omega lag = inf
    ([1.0, 1e308], _OVERFLOW, True),
], ids=["nan", "inf", "minus-inf", "empty", "2-D", "overflowing grid", "overflowing lag"])
def test_wk_transform_refuses_frequencies_it_cannot_handle_before_sampling(omegas, message,
                                                                           estimated):
    sampled = []

    def acv(u):
        sampled.append(u)
        return np.exp(-np.abs(u))

    lags = np.arange(100) * 0.1
    estimate = AcvEstimate(lags=lags, values=np.exp(-lags))
    with warnings.catch_warnings(), pytest.raises(ConfigError, match=f"^{message}$"):
        warnings.simplefilter("error")
        wk_transform(estimate if estimated else acv, np.array(omegas, dtype=float))
    assert not sampled


def test_wk_transform_of_a_single_lag_is_zero():
    one = AcvEstimate(lags=np.array([0.0]), values=np.array([1.0]))
    assert wk_transform(one, np.array([0.0, 1.0])).values.tolist() == [0.0, 0.0]


_LAGS = np.arange(100) * 0.1
_WITH_NAN = np.where(np.arange(100) == 50, np.nan, np.exp(-_LAGS))


@pytest.mark.parametrize("lags, vals, message", [
    (_LAGS, _WITH_NAN, "^acv.values must be finite, got nan at index 50$"),
    (_LAGS[::-1], np.exp(-_LAGS), "^ACV lags must be strictly increasing$"),
    (np.append(_LAGS[:-1], np.inf), np.exp(-_LAGS),
     "^acv.lags must be finite, got inf at index 99$"),
], ids=["nan-value", "reversed-lags", "infinite-lag"])
def test_wk_transform_refuses_an_estimate_it_cannot_integrate_before_quadrature(
    monkeypatch, lags, vals, message
):
    # these gave [nan nan] and [nan] without a word
    def no_quadrature(*args):
        raise AssertionError("the estimate must be checked before any quadrature")

    monkeypatch.setattr(_stepkernel, "_in_threads", no_quadrature)
    with pytest.raises(ConfigError, match=message):
        wk_transform(AcvEstimate(lags=lags, values=vals), np.array([1.0, 2.0]))


@pytest.mark.parametrize("acv", [
    AcvEstimate(lags=np.arange(10) * 0.1, values=np.full(10, 1e308)),
    AcvEstimate(lags=np.array([-8e307, 8e307]), values=np.array([1.0, 1.0])),
    lambda u: 1e308 * np.exp(-np.abs(u)),
], ids=["overflowing-values", "overflowing-product", "callable"])
def test_wk_transform_refuses_an_acv_whose_trapezoid_overflows(acv):
    # these gave [nan nan] without a word, or warned about an overflow in
    # the trapezoid's add; the refusal comes during the quadrature
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match=f"^{_OVERFLOW}$"):
            wk_transform(acv, np.array([1.0, 2.0]))


def _kde_as_written(x, grid_size, bandwidth):
    # kde's kernel sum as written before it reused its chunk buffers
    grid = np.linspace(x.min() - 4.0 * bandwidth, x.max() + 4.0 * bandwidth, grid_size)
    density = np.zeros(grid_size)
    norm = 1.0 / (np.sqrt(2.0 * np.pi) * bandwidth * x.size)
    for start in range(0, x.size, 4096):
        chunk = x[start:start + 4096]
        d = (grid[:, None] - chunk[None, :]) / bandwidth
        density += np.exp(-0.5 * d * d).sum(axis=1)
    return grid, norm * density


@pytest.mark.parametrize(
    "n, bandwidth",
    [(2, None), (4095, None), (4096, None), (4097, None), (86_700, None), (9000, 0.3)],
)
def test_kde_is_bitwise_the_chunked_sum(n, bandwidth):
    x = np.random.default_rng(n).normal(size=n) * 1.7 + 0.4
    est = kde(x, grid_size=257, bandwidth=bandwidth)
    grid, density = _kde_as_written(x, 257, est.bandwidth)
    assert est.grid.tobytes() == grid.tobytes()
    assert est.density.tobytes() == density.tobytes()


def test_kde_recovers_a_normal_density():
    rng = np.random.default_rng(7)
    x = rng.normal(size=20_000)
    est = kde(x)
    pdf = np.exp(-est.grid**2 / 2) / np.sqrt(2 * np.pi)
    assert np.abs(est.density - pdf).max() < 0.02
    mass = np.trapezoid(est.density, est.grid)
    assert mass == pytest.approx(1.0, abs=2e-3)
    assert est.bandwidth > 0


def test_kde_bandwidth_override_and_degenerate_sample():
    rng = np.random.default_rng(8)
    x = rng.normal(size=500)
    wide = kde(x, bandwidth=2.0)
    assert wide.bandwidth == 2.0
    with pytest.raises(DegenerateSampleError):
        kde(np.ones(100))


@pytest.mark.parametrize("samples, bandwidth", [
    ([1e308, -1e308, 0.0], None), ([-8e307, 8e307], None), ([0.0, 1.0], 1e308),
    ([-1e308, 1e308], 1.0), (np.linspace(0.0, 1.0, 100), 1e307),
    # (grid - x) / bandwidth overflows in each thread's kernel sums
    (np.arange(40.0), 1e-320),
])
def test_kde_refuses_a_grid_that_overflows(samples, bandwidth):
    # a finite bandwidth whose grid ends, their span, the kernel sums or
    # the normalization leave float's range: not an all-NaN or all-zero
    # density after overflow warnings
    with warnings.catch_warnings(), threads(2):
        warnings.simplefilter("error")
        with pytest.raises(DegenerateSampleError, match="overflows"):
            kde(samples, bandwidth=bandwidth)


@pytest.mark.parametrize("kwargs", [
    {"grid_size": 1}, {"grid_size": 0}, {"grid_size": -3},
    {"bandwidth": 0.0}, {"bandwidth": -1.0}, {"bandwidth": np.nan}, {"bandwidth": np.inf},
    {"grid_size": 100.5}, {"grid_size": 16.0}, {"grid_size": "16"},
])
def test_kde_rejects_bad_arguments_as_config_errors(kwargs):
    # a bad explicit argument is the caller's error; only Silverman's zero
    # bandwidth on a constant sample is a degenerate sample
    with pytest.raises(ConfigError):
        kde(np.random.default_rng(8).normal(size=100), **kwargs)
    with pytest.raises(ConfigError):
        kde(np.ones(100), **kwargs)


@pytest.mark.parametrize("value", [np.nan, np.inf, -np.inf])
@pytest.mark.parametrize("bandwidth", [None, 0.5])
def test_kde_refuses_samples_that_are_not_finite(value, bandwidth):
    # not a degenerate spread and not an all-NaN density: the caller's error
    x = np.array([0.0, 1.0, value, 2.0])
    with pytest.raises(ConfigError, match=f"^samples must be finite, got {value} at index 2$"):
        kde(x, bandwidth=bandwidth)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_acv_psd_and_kurtosis_refuse_samples_that_are_not_finite(value):
    # as kde does, rather than return NaN estimates
    x = np.sin(0.3 * np.arange(40.0))
    x[5] = value
    for estimate, message in (
        (lambda: sample_acv(x, 1.0, 2.0), f"series must be finite, got {value} at index 5"),
        (lambda: averaged_periodogram(x, 1.0), f"paths must be finite, got {value} at index (0, 5)"),
        (lambda: kurtosis(x), f"samples must be finite, got {value} at index 5"),
    ):
        with pytest.raises(ConfigError) as err:
            estimate()
        assert str(err.value) == message


def test_sample_acv_refuses_an_empty_series():
    with pytest.raises(ConfigError) as err:
        sample_acv([], 1.0, 0.0)
    assert str(err.value) == "series must have shape (N,), got (0,)"


@pytest.mark.parametrize("grid_size", [2, 17, 257])
def test_kde_does_not_depend_on_the_thread_count(grid_size):
    # grid sizes that are not multiples of the 16-row block, over samples
    # of one, two and three 4096-sample chunks
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)  # switch threads as often as the GIL allows
    try:
        for n in (300, 4097, 9000):
            x = np.random.default_rng(n).normal(size=n) * 1.7 + 0.4
            runs = []
            for count in (1, 2, 3):
                with threads(count):
                    est = kde(x, grid_size=grid_size)
                runs.append(est.grid.tobytes() + est.density.tobytes())
            assert runs[0] == runs[1] == runs[2]
            grid, density = _kde_as_written(x, grid_size, est.bandwidth)
            assert runs[0] == grid.tobytes() + density.tobytes()
    finally:
        sys.setswitchinterval(interval)


def test_a_worker_thread_runs_under_the_callers_error_state():
    # numpy's error state is a context variable, which a plain thread does
    # not inherit; the block [1, 2) runs in the second thread
    def run(a, b):
        if a == 1:
            np.float64(1e308) * 10.0

    with threads(2), np.errstate(over="raise"), pytest.raises(FloatingPointError):
        _stepkernel._in_threads(run, 2, 1)


def test_kurtosis_reference_values():
    rng = np.random.default_rng(9)
    assert kurtosis(rng.normal(size=200_000)) == pytest.approx(3.0, abs=0.05)
    assert kurtosis(rng.uniform(size=200_000)) == pytest.approx(1.8, abs=0.02)
    with pytest.raises(ConfigError):
        kurtosis(np.arange(10.0))  # too few samples
    # m2 = 1.3e-318 is nonzero, but its square underflows to zero
    for flat in (np.full(100, 3.3), np.arange(40) * 1e-160):
        with pytest.raises(DegenerateSampleError, match="^zero variance sample$"):
            kurtosis(flat)
