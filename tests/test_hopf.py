"""Oscillator model: drift geometry, noise scaling, the linear companion."""

import hashlib
import os
import subprocess
import sys
import tracemalloc
import warnings
from pathlib import Path

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
from noisycycles import _stepkernel
from noisycycles.sde import _CHUNK, _check_members

from conftest import numpy_loop, requires_compiler, threads
import test_member_loops as contract

TAU = 2.0 * np.pi


def _params(nsr_value=0.1, alpha0=TAU):
    return HopfParams(
        alpha=TAU, alpha0=alpha0, lambda_=TAU, r=1.0,
        sigma=sigma_for_nsr(nsr_value, TAU, 1.0),
    )


def _case(leading):
    # the linear pair's case of the member-loop contract
    return "linear leading order" if leading else "linear"


def test_noise_ratio_round_trip():
    # at r = 1, lambda = 2 pi, a 0.1 ratio needs sigma^2 = 0.04 pi
    sigma = sigma_for_nsr(0.1, TAU, 1.0)
    assert sigma**2 == pytest.approx(0.04 * np.pi)
    assert nsr(_params(0.1)) == pytest.approx(0.1)
    p = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=2.0, sigma=sigma_for_nsr(0.3, TAU, 2.0))
    assert nsr(p) == pytest.approx(0.3)


@pytest.mark.parametrize("sigma, lambda_", [(1e200, 1e-320), (1e150, 1e-300)],
                         ids=["square", "quotient"])
def test_an_nsr_whose_square_overflows_is_a_config_error(sigma, lambda_):
    # the square escaped as Python's OverflowError from sigma**2, and the
    # quotient sigma^2 / (2 lambda), a Python float, returned inf
    p = HopfParams(alpha=1.0, alpha0=1.0, lambda_=lambda_, r=1.0, sigma=sigma)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^the NSR overflows at HopfParams"):
            nsr(p)
    p = HopfParams(alpha=1.0, alpha0=1.0, lambda_=1e-320, r=1.0, sigma=1e200)
    # the template's helper keeps its OverflowError, which fitting's
    # objective retries on numpy scalars
    with pytest.raises(OverflowError):
        _stepkernel._nsr_of(p.sigma, p.lambda_, p.r)


@pytest.mark.parametrize("nsr_, lambda_, r", [(1e300, 1e300, 1e300), (1.0, 1.7e308, 1.0)],
                         ids=["product", "two-lambda"])
def test_a_noise_amplitude_that_overflows_is_a_config_error(nsr_, lambda_, r):
    # Python's float product returned inf without a warning
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError, match="^the noise amplitude overflows at nsr "):
            sigma_for_nsr(nsr_, lambda_, r)


def test_params_validation():
    with pytest.raises(ConfigError):
        HopfParams(alpha=TAU, alpha0=TAU, lambda_=-1.0, r=1.0, sigma=0.1)
    with pytest.raises(ConfigError):
        HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=0.0, sigma=0.1)


@pytest.mark.parametrize("args, message", [
    ((-0.1, 1.0, 1.0), "nsr must be finite and >= 0, got -0.1"),
    ((0.1, -1.0, 1.0), "lambda_ must be positive and finite, got -1.0"),
    ((0.1, 1.0, 0.0), "r must be positive and finite, got 0.0"),
], ids=["nsr-negative", "lambda-negative", "r-zero"])
def test_sigma_for_nsr_refuses_what_gives_no_positive_sigma(args, message):
    # not a NaN from sqrt with its warning; non-finite values are in
    # test_api.py's table of scalars
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            sigma_for_nsr(*args)
    assert str(err.value) == message


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


# sha256 of tau, z and reconstructed (in that order), recorded from the
# whole-run implementation: 49 000 steps span three chunks, NSR 0.1, alpha0
# off alpha so the full variant's phase-speed modulation is exercised
_LINEAR_PINS = {
    (False, (), 1): "31eed83785a2754c208623efa5533024",
    (False, (), 7): "684526394965579df84d4d6eda3bd2ee",
    (False, (), 1000): "bd232208a8410e28b1806fc48f22b51c",
    (False, (0.05, 0.3), 1): "d280a387d9a63b2978183a4c11d1715e",
    (False, (0.05, 0.3), 7): "1dc2138c3584f6648c6fdd6e7efca3d1",
    (False, (0.05, 0.3), 1000): "4f6fee96fdab6e82842077fc736a8300",
    (False, (-0.0, -0.0), 1): "4e8d2dd6034c383f7e82eba5a127923a",
    (False, (-0.0, -0.0), 7): "7e1704e640229a5044f05937155c67f8",
    (False, (-0.0, -0.0), 1000): "d03c5f686932b8866a0d0774a3df80d0",
    (True, (), 1): "c7f25543f5817f111da64d01589a2865",
    (True, (), 7): "f502e1694f8c689a0a80fb66c093bf27",
    (True, (), 1000): "ad3fe9303a591eb04f2a040a30c7fa0d",
    (True, (0.05, 0.3), 1): "e055d469f8dbceeb858fd9fb3ee75d8b",
    (True, (0.05, 0.3), 7): "db936c7f793fca4be23e6726c4ff1d4e",
    (True, (0.05, 0.3), 1000): "ed72e61228a2e7cba6008d775269eec6",
    (True, (-0.0, -0.0), 1): "0059739d1fec8cc902d32feb04673a21",
    (True, (-0.0, -0.0), 7): "ddf9dc3dac9f6866231815ece1344d5d",
    (True, (-0.0, -0.0), 1000): "1e056cc7f2db7676ed8ca495ae0883f3",
}


def test_linear_simulator_bytes_are_pinned():
    p = HopfParams(alpha=TAU, alpha0=5.0, lambda_=TAU, r=1.0, sigma=sigma_for_nsr(0.1, TAU, 1.0))
    for (leading, initial, every), expected in _LINEAR_PINS.items():
        config = IntegratorConfig(dt=1e-3, n_steps=49_000, seed=11, initial_state=initial)
        lp = simulate_hopf_linear(p, config, leading_order=leading, record_every=every)
        digest = hashlib.sha256()
        for values in (lp.tau, lp.z, lp.reconstructed):
            digest.update(values.tobytes())
        assert digest.hexdigest()[:32] == expected, (leading, initial, every)


def _traced_peak(n_steps):
    config = IntegratorConfig(dt=1e-3, n_steps=n_steps, seed=1)
    tracemalloc.start()
    try:
        simulate_hopf_linear(_params(), config, record_every=1000)
        return tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()


def test_linear_simulator_memory_does_not_grow_with_the_step_count():
    # one chunk of steps at a time (whole-run arrays took 61 MiB at 1e6 steps)
    short, long = _traced_peak(100_000), _traced_peak(1_000_000)
    assert long < 8 * 2**20
    assert abs(long - short) < 2**20


# ---------------------------------------------------------------------------
# the linear pair's named examples of the member-loop contract, whose
# properties test_member_loops.py tests over every simulator

@pytest.mark.parametrize("every", [1, 7])
@pytest.mark.parametrize(
    "initial", [(), (0.05, 0.3), (-0.0, -0.0)], ids=["origin", "off", "neg-zero"]
)
@pytest.mark.parametrize("leading", [False, True], ids=["full", "leading"])
def test_ensemble_member_k_is_the_solo_run_seeded_path_seed_k(leading, initial, every):
    # alpha0 off alpha exercises the full variant's modulation; the steps
    # cross a chunk boundary
    config = IntegratorConfig(dt=1e-3, n_steps=7 * (_CHUNK // 7 + 300), seed=13,
                              initial_state=initial)
    for k in range(3):
        contract.check_member_is_solo(_case(leading), config, every, 3, k)


def test_an_ensemble_reads_t_x_and_y_on_the_last_axes():
    config = IntegratorConfig(dt=1e-3, n_steps=1000, seed=2, initial_state=(0.05, 0.3))
    ens = simulate_hopf_linear(_params(), config, record_every=10, n_paths=3)
    assert ens.seed == 2
    assert ens.tau.shape == ens.z.shape == (3, 101)
    assert ens.reconstructed.shape == (3, 101, 2)
    assert np.array_equal(ens.t, np.arange(101) * 0.01)
    assert ens.x.shape == ens.y.shape == (3, 101)
    assert np.array_equal(ens.x, ens.reconstructed[:, :, 0])
    assert np.array_equal(ens.y, ens.reconstructed[:, :, 1])
    one = simulate_hopf_linear(_params(), config, n_paths=1)
    assert one.tau.shape == (1, 1001) and one.x.shape == (1, 1001)


def test_a_tie_goes_to_the_lowest_path():
    with pytest.raises(SingularAmplitudeError) as caught:
        _check_members(np.array([-1, 9, 7, 7]), [0, 1, 2, 3], SingularAmplitudeError,
                       "{step}{where}")
    assert (caught.value.step_index, caught.value.path_index) == (7, 2)
    assert str(caught.value) == "7 (path 2)"


@requires_compiler
@pytest.mark.parametrize(
    "initial", [(), (0.05, 0.3), (-0.0, -0.0)], ids=["origin", "off", "neg-zero"]
)
@pytest.mark.parametrize("nsr_value", [0.1, 0.0], ids=["noisy", "quiet"])
@pytest.mark.parametrize("leading", [False, True], ids=["full", "leading"])
def test_compiled_linear_loop_is_bitwise_the_numpy_loop(leading, nsr_value, initial):
    # the steps run past the first chunk of _CHUNK steps, which
    # record_every = 7 does not divide; sigma = 0 keeps every kick a signed zero
    config = IntegratorConfig(dt=1e-3, n_steps=7 * (_CHUNK // 7 + 300), seed=23,
                              initial_state=initial)
    for every, n_paths in [(1, None), (7, 3)]:
        contract.check_compiled_is_numpy(_case(leading), config, every, n_paths,
                                         sigma=sigma_for_nsr(nsr_value, TAU, 1.0))


@requires_compiler
@pytest.mark.parametrize("leading", [False, True], ids=["full", "leading"])
@pytest.mark.parametrize("calls", ["many members a call", "fewest members a call"])
def test_linear_members_are_their_solo_runs_at_any_thread_count(leading, calls):
    # 1 and 2 members and one more member than CPUs
    for n_paths in (1, 2, _stepkernel._threads(1 << 20) + 1):
        contract.check_members_at_any_thread_count(_case(leading), calls, n_paths)


def test_the_leading_order_variant_runs_on_from_z_equal_minus_r():
    # the full variant is singular at step 0 of every member from there;
    # the leading order never divides by r + z
    at_zero = contract.DIVERGENCES["linear: 8 at zero"].config
    run = contract.CASES["linear leading order"].make(1.0)
    for loop in [threads(count) for count in (1, 2, 3)] + [numpy_loop()]:
        with loop, warnings.catch_warnings():
            warnings.simplefilter("error")
            assert len(run(at_zero, 1, 8)) == 8


_RUN = """
from noisycycles import HopfParams, IntegratorConfig, _stepkernel, simulate_hopf_linear
assert _stepkernel._library() is not None, "the compiled loops did not build"
simulate_hopf_linear(HopfParams(1.0, 1.0, 1.0, 1.0, 0.1), IntegratorConfig(1e-3, 100), n_paths=2)
"""


@pytest.mark.parametrize("then", ["", pytest.param(_RUN, marks=requires_compiler)],
                         ids=["import", "compiled run"])
def test_scipy_signal_is_not_imported(then):
    # only the numpy reference of the linear loop needs scipy.signal, whose
    # import (scipy.stats with it) takes longer than the package's own
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    code = f"import sys\nimport noisycycles\n{then}\nprint('scipy.signal' in sys.modules)"
    done = subprocess.run([sys.executable, "-c", code], env={**os.environ, "PYTHONPATH": path},
                          capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "False\n"), done.stderr
