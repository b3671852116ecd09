"""Oscillator model: drift geometry, noise scaling, the linear companion."""

import numpy as np
import pytest

from noisycycles import (
    ConfigError,
    HopfParams,
    IntegratorConfig,
    SingularAmplitudeError,
    hopf_jacobian,
    hopf_system,
    integrate_path,
    nsr,
    sigma_for_nsr,
    simulate_hopf_linear,
)

TAU = 2.0 * np.pi


def _params(nsr_value=0.1, alpha0=TAU):
    return HopfParams(
        alpha=TAU, alpha0=alpha0, lambda_=TAU, r=1.0,
        sigma=sigma_for_nsr(nsr_value, TAU, 1.0),
    )


def test_noise_ratio_round_trip():
    # at r = 1, lambda = 2 pi, a 0.1 ratio needs sigma^2 = 0.04 pi
    sigma = sigma_for_nsr(0.1, TAU, 1.0)
    assert sigma**2 == pytest.approx(0.04 * np.pi)
    assert nsr(_params(0.1)) == pytest.approx(0.1)
    p = HopfParams.from_nsr(alpha=TAU, alpha0=TAU, lambda_=TAU, r=2.0, nsr=0.3)
    assert nsr(p) == pytest.approx(0.3)


def test_params_validation():
    with pytest.raises(ConfigError):
        HopfParams(alpha=TAU, alpha0=TAU, lambda_=-1.0, r=1.0, sigma=0.1)
    with pytest.raises(ConfigError):
        HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=0.0, sigma=0.1)


def test_drift_on_cycle_is_pure_rotation():
    drift = hopf_system(_params()).drift
    f = drift(np.array([1.0, 0.0]))
    assert f == pytest.approx([0.0, TAU], abs=1e-12)
    # inward relaxation outside the cycle
    f_out = drift(np.array([1.5, 0.0]))
    assert f_out[0] < 0.0


def _drift_as_written(params, state):
    # the drift formula of the module docstring, term by term
    state = np.asarray(state, dtype=float)
    x, y = state[..., 0], state[..., 1]
    lam, al, al0 = params.lambda_, params.alpha, params.alpha0
    rho2 = (x * x + y * y) / params.r**2
    fx = 0.5 * lam * x - al0 * y + rho2 * (-0.5 * lam * x - (al - al0) * y)
    fy = al0 * x + 0.5 * lam * y + rho2 * ((al - al0) * x - 0.5 * lam * y)
    return np.stack([fx, fy], axis=-1)


@pytest.mark.parametrize("shape", [(2,), "list", (20, 2), (4, 20, 2)])
def test_drift_is_bitwise_the_written_formula(shape):
    p = HopfParams(alpha=TAU, alpha0=0.7 * TAU, lambda_=1.3 * TAU, r=1.7, sigma=0.2)
    rng = np.random.default_rng(23)
    if shape == "list":
        state = [0.3, -1.9]
    else:
        state = rng.normal(scale=1.5, size=shape)
        if state.ndim > 1:
            state[..., :2, :] = [[0.0, -0.0], [1.7, 0.0]]  # signed zeros, a cycle point
    assert hopf_system(p).drift(state).tobytes() == _drift_as_written(p, state).tobytes()


def test_jacobian_matches_finite_differences():
    p = _params(alpha0=0.7 * TAU)
    drift = hopf_system(p).drift
    y = np.array([0.43, -0.91])
    J = hopf_jacobian(p, y)
    eps = 1e-7
    for j in range(2):
        step = np.zeros(2)
        step[j] = eps
        col = (drift(y + step) - drift(y - step)) / (2 * eps)
        assert col == pytest.approx(J[:, j], abs=1e-6)


def test_deterministic_cycle_is_invariant():
    p = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.0)
    config = IntegratorConfig(dt=1e-3, n_steps=1000, seed=0, initial_state=(1.0, 0.0))
    tr = integrate_path(hopf_system(p), config)
    radius = np.hypot(tr.values[:, 0], tr.values[:, 1])
    assert np.abs(radius - 1.0).max() < 1e-5
    # one full turn per period; the phase carries the scheme's own
    # second-order error, about 4e-5 at this step size
    assert tr.values[-1] == pytest.approx([1.0, 0.0], abs=2e-4)


def test_linear_deviation_is_the_exact_relaxation_process():
    # the deviation recursion must agree with the closed one-step law
    p = _params()
    config = IntegratorConfig(dt=0.01, n_steps=200_000, seed=5)
    lp = simulate_hopf_linear(p, config)
    z = lp.z
    assert z[20_000:].var() == pytest.approx(p.sigma**2 / (2 * p.lambda_), rel=0.05)
    # exact autoregression coefficient exp(-lambda dt), not its Euler clip
    phi = np.exp(-p.lambda_ * 0.01)
    resid = z[1:] - phi * z[:-1]
    innov_var = p.sigma**2 * (1.0 - phi**2) / (2.0 * p.lambda_)
    assert resid.var() == pytest.approx(innov_var, rel=0.05)
    assert abs(np.corrcoef(resid[1:], resid[:-1])[0, 1]) < 0.02


def test_linear_reconstruction_identity():
    p = _params()
    config = IntegratorConfig(dt=1e-3, n_steps=300, seed=8)
    lp = simulate_hopf_linear(p, config)
    amp = p.r + lp.z
    assert lp.x == pytest.approx(amp * np.cos(p.alpha * lp.tau))
    assert lp.y == pytest.approx(amp * np.sin(p.alpha * lp.tau))
    assert lp.t.shape == lp.tau.shape


def test_leading_order_phase_diffuses_at_the_predicted_rate():
    p = _params(nsr_value=0.3)
    config = IntegratorConfig(dt=1e-3, n_steps=20_000, seed=31)
    lp = simulate_hopf_linear(p, config, leading_order=True)
    # tau - t is driftless with variance sigma^2 t / (alpha r)^2
    dev = lp.tau - lp.t
    t_final = lp.t[-1]
    predicted = p.sigma**2 * t_final / (p.alpha * p.r) ** 2
    # one path gives a chi^2-ish spread; average increments instead
    inc = np.diff(dev)
    assert inc.var() * len(inc) == pytest.approx(predicted, rel=0.1)


def test_record_every_consistency():
    p = _params()
    config = IntegratorConfig(dt=1e-3, n_steps=1000, seed=3)
    full = simulate_hopf_linear(p, config)
    thin = simulate_hopf_linear(p, config, record_every=10)
    assert np.array_equal(thin.z, full.z[::10])
    assert np.array_equal(thin.tau, full.tau[::10])


def test_full_variant_rejects_amplitude_hitting_zero():
    p = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=8.0)
    config = IntegratorConfig(dt=1e-3, n_steps=100_000, seed=2)
    with pytest.raises(SingularAmplitudeError):
        simulate_hopf_linear(p, config)


def test_seed_reproducibility():
    p = _params()
    config = IntegratorConfig(dt=1e-3, n_steps=100, seed=42)
    a = simulate_hopf_linear(p, config)
    b = simulate_hopf_linear(p, config)
    assert np.array_equal(a.reconstructed, b.reconstructed)
