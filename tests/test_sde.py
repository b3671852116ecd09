"""Core integrator behavior: seeding, schemes, convergence, guard rails."""

import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisycycles import (
    ConfigError,
    DivergenceError,
    HopfParams,
    IntegratorConfig,
    Scheme,
    SdeSystem,
    hopf_system,
    integrate_ensemble,
    integrate_path,
    ornstein_uhlenbeck,
    ou_exact_endpoint,
    path_seed,
    strong_order_estimate,
)
from noisycycles.sde import _CHUNK

TAU = 2.0 * np.pi


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.0, n_steps=10, seed=1)
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.1, n_steps=0, seed=1)
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.1, n_steps=10, seed=-1)
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.1, n_steps=10, seed=1, scheme="rk")


def test_system_validation():
    with pytest.raises(ConfigError):
        SdeSystem(dimension=0, drift=lambda y: y)
    with pytest.raises(ConfigError):
        SdeSystem(dimension=2, drift=lambda y: y, noise_matrix=np.eye(3))
    with pytest.raises(ConfigError):
        SdeSystem(dimension=1, drift=lambda y: y, isotropic_sigma=-1.0)


def test_path_seed_is_stable_and_distinct():
    assert path_seed(3, 5) == path_seed(3, 5)
    seen = {path_seed(0, k) for k in range(64)}
    assert len(seen) == 64
    with pytest.raises(ConfigError):
        path_seed(-1, 0)


def test_trajectory_accessors():
    system = ornstein_uhlenbeck(1.0, 0.5, dimension=2)
    config = IntegratorConfig(dt=0.01, n_steps=20, seed=4, initial_state=(1.0, -1.0))
    tr = integrate_path(system, config, channel_labels=("a", "b"))
    assert tr.dimension == 2
    assert tr.values.shape == (21, 2)
    assert np.allclose(tr.t[:3], [0.0, 0.01, 0.02])
    assert np.array_equal(tr.component("b"), tr.values[:, 1])
    with pytest.raises(ConfigError):
        tr.component("c")


def _linear_system_with_full_noise():
    def drift(y):
        x, v = y[..., 0], y[..., 1]
        return np.stack([-0.5 * x + 2.0 * v, -2.0 * x - 0.5 * v], axis=-1)

    return SdeSystem(
        dimension=2, drift=drift, noise_matrix=[[0.3, -0.2], [0.15, 0.5]], vectorized=True
    )


def _member(config, k):
    # member k's solo config, derived here rather than by the library
    return dataclasses.replace(config, seed=path_seed(config.seed, k))


_PROPERTY_SYSTEMS = {
    "hopf": (
        hopf_system(HopfParams(alpha=TAU, alpha0=0.7 * TAU, lambda_=TAU, r=1.0, sigma=0.3)),
        (1.0, 0.0),
    ),
    "linear": (_linear_system_with_full_noise(), (0.4, -0.3)),
}


@settings(max_examples=12, deadline=None)
@given(
    name=st.sampled_from(sorted(_PROPERTY_SYSTEMS)),
    vectorized=st.booleans(),
    scheme=st.sampled_from(list(Scheme)),
    n_paths=st.integers(1, 40),
    record_every=st.integers(1, 7),
    beyond=st.integers(1, 40),
    member=st.integers(0, 39),
)
@example(name="hopf", vectorized=True, scheme=Scheme.STRONG_RK15, n_paths=20, record_every=5,
         beyond=1, member=19)
@example(name="linear", vectorized=True, scheme=Scheme.STRONG_RK15, n_paths=20, record_every=5,
         beyond=1, member=7)
@example(name="linear", vectorized=True, scheme=Scheme.EULER_MARUYAMA, n_paths=3, record_every=7,
         beyond=2, member=2)
@example(name="linear", vectorized=False, scheme=Scheme.STRONG_RK15, n_paths=5, record_every=7,
         beyond=2, member=3)
def test_ensemble_member_is_its_solo_run_across_chunk_boundaries(
    name, vectorized, scheme, n_paths, record_every, beyond, member
):
    # steps run past the first chunk of _CHUNK // n_paths steps, and the
    # thinning need not divide the chunk length; a row-wise drift takes
    # the same lock-step driver one state at a time
    system, initial = _PROPERTY_SYSTEMS[name]
    system = dataclasses.replace(system, vectorized=vectorized)
    n_steps = record_every * (_CHUNK // n_paths // record_every + beyond)
    config = IntegratorConfig(
        dt=1e-3, n_steps=n_steps, scheme=scheme, seed=17, initial_state=initial
    )
    k = member % n_paths
    ens = integrate_ensemble(system, config, n_paths=n_paths, record_every=record_every)
    solo = integrate_path(system, _member(config, k), record_every=record_every)
    assert ens[k].values.tobytes() == solo.values.tobytes()


def test_ensemble_member_matches_solo_run():
    # lockstep ensembles must be bit-identical to one path integrated with
    # the member's derived sub-seed, whatever the internal chunking does
    system = ornstein_uhlenbeck(2.0, 0.7, dimension=2)
    config = IntegratorConfig(dt=0.005, n_steps=400, seed=9, initial_state=(0.3, -0.2))
    ens = integrate_ensemble(system, config, n_paths=8)
    solo_cfg = IntegratorConfig(
        dt=0.005, n_steps=400, seed=path_seed(9, 5), initial_state=(0.3, -0.2)
    )
    solo = integrate_path(system, solo_cfg)
    assert np.array_equal(ens[5].values, solo.values)


def test_record_every_thins_the_same_states():
    system = ornstein_uhlenbeck(1.0, 1.0)
    full_cfg = IntegratorConfig(dt=0.01, n_steps=100, seed=2, initial_state=(1.0,))
    full = integrate_path(system, full_cfg)
    thin = integrate_path(system, full_cfg, record_every=10)
    assert np.array_equal(thin.values, full.values[::10])
    assert thin.dt == pytest.approx(0.1)
    with pytest.raises(ConfigError):
        integrate_path(system, full_cfg, record_every=7)  # must divide n_steps


def test_vectorized_flag_does_not_change_results():
    lam = 1.3

    def drift_rowwise(y):
        return -lam * y

    slow = SdeSystem(dimension=2, drift=drift_rowwise, isotropic_sigma=0.4, vectorized=False)
    fast = SdeSystem(dimension=2, drift=drift_rowwise, isotropic_sigma=0.4, vectorized=True)
    config = IntegratorConfig(dt=0.01, n_steps=50, seed=11, initial_state=(1.0, 2.0))
    assert np.array_equal(
        integrate_path(slow, config).values, integrate_path(fast, config).values
    )


def test_divergence_reports_step_and_path():
    system = SdeSystem(dimension=1, drift=lambda y: y**3, isotropic_sigma=0.0, vectorized=True)
    config = IntegratorConfig(dt=0.5, n_steps=200, seed=0, initial_state=(2.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            integrate_path(system, config)
    assert err.value.step_index == 1
    assert err.value.path_index is None


@pytest.mark.parametrize("vectorized", [True, False], ids=["vectorized", "rowwise"])
def test_ensemble_divergence_is_the_earliest_solo_divergence(vectorized):
    # 40 paths make chunks of 409 steps and no member leaves the trust
    # region in the first one, so the guard is checked across boundaries
    system = SdeSystem(
        dimension=1, drift=lambda y: 0.2 * y**3 - y, isotropic_sigma=0.7, vectorized=vectorized
    )
    config = IntegratorConfig(dt=0.01, n_steps=900, seed=5, initial_state=(0.0,))
    n_paths = 40
    solo = []
    for k in range(n_paths):
        try:
            integrate_path(system, _member(config, k))
        except DivergenceError as err:
            solo.append((err.step_index, k))
    step, path = min(solo)  # lowest member index on a tie
    assert step > _CHUNK // n_paths
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(DivergenceError) as err:
            integrate_ensemble(system, config, n_paths=n_paths)
    assert (err.value.step_index, err.value.path_index) == (step, path)
    assert str(err.value).endswith(f"at step {step} (path {path})")


def test_strong_order_euler_maruyama_on_linear_process():
    est = strong_order_estimate(
        ornstein_uhlenbeck(2.0 * np.pi, 0.5),
        (1.0,),
        1.0,
        (0.02, 0.01, 0.005),
        n_paths=100,
        scheme=Scheme.EULER_MARUYAMA,
        seed=77,
        exact_endpoint=ou_exact_endpoint(2.0 * np.pi, 0.5),
    )
    assert est.slope == pytest.approx(1.0, abs=0.15)
    assert np.all(np.diff(est.rms_errors) < 0)  # decreasing dt, decreasing error


def test_strong_order_three_halves_scheme_superconverges_on_linear_drift():
    # on linear drift the derivative-free 3/2 scheme matches the exact
    # update one order beyond its generic guarantee: slope 2, not 1.5
    est = strong_order_estimate(
        ornstein_uhlenbeck(2.0 * np.pi, 0.5),
        (1.0,),
        1.0,
        (0.02, 0.01, 0.005),
        n_paths=100,
        scheme=Scheme.STRONG_RK15,
        seed=77,
        exact_endpoint=ou_exact_endpoint(2.0 * np.pi, 0.5),
    )
    assert est.slope == pytest.approx(2.0, abs=0.2)


def test_strong_order_on_nonlinear_drift_against_fine_grid_reference():
    # van der Pol has no closed-form endpoint: each scheme is measured
    # against itself on the fine grid, where the generic orders show
    from noisycycles import van_der_pol

    system = van_der_pol(1.0, sigma=0.5)
    slopes = {
        scheme: strong_order_estimate(
            system,
            (2.0, 0.0),
            1.0,
            (0.02, 0.01, 0.005),
            n_paths=100,
            scheme=scheme,
            seed=77,
        ).slope
        for scheme in (Scheme.EULER_MARUYAMA, Scheme.STRONG_RK15)
    }
    assert slopes[Scheme.EULER_MARUYAMA] == pytest.approx(1.0, abs=0.15)
    assert slopes[Scheme.STRONG_RK15] == pytest.approx(1.5, abs=0.2)


def test_deterministic_limit_is_second_order():
    from noisycycles import HopfParams, hopf_system

    params = HopfParams(alpha=2 * np.pi, alpha0=2 * np.pi, lambda_=2 * np.pi, r=1.0, sigma=0.0)
    system = hopf_system(params)

    def endpoint(dt):
        config = IntegratorConfig(
            dt=dt, n_steps=int(round(1.0 / dt)), seed=0, initial_state=(1.0, 0.0)
        )
        return integrate_path(system, config).values[-1]

    ref = np.array([1.0, 0.0])  # after one full period
    e1 = np.linalg.norm(endpoint(1e-3) - ref)
    e2 = np.linalg.norm(endpoint(5e-4) - ref)
    assert e1 / e2 == pytest.approx(4.0, abs=0.7)


def test_stationary_variance_of_linear_process():
    lam, sig = 4.0, 0.8
    system = ornstein_uhlenbeck(lam, sig)
    config = IntegratorConfig(dt=2e-3, n_steps=200_000, seed=21, initial_state=(0.0,))
    tr = integrate_path(system, config)
    x = tr.values[5_000:, 0]
    assert x.var() == pytest.approx(sig**2 / (2 * lam), rel=0.08)
