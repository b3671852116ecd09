"""Package surface: every exported name exists, once, and the README's
Python examples run as written."""

import ast
import functools
import importlib
import inspect
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import noisycycles
from noisycycles import (
    AcvEstimate,
    ConfigError,
    FitProblem,
    FitTarget,
    HopfParams,
    IntegratorConfig,
    NoisyCyclesError,
    PsdEstimate,
    SdeSystem,
    acv_formula,
    averaged_periodogram,
    build_frame,
    find_limit_cycle,
    fit,
    hopf_system,
    integrate_ensemble,
    integrate_path,
    kde,
    kurtosis,
    nsr,
    ornstein_uhlenbeck,
    path_seed,
    psd_formula,
    reconstruct,
    reduce,
    sample_acv,
    sigma_for_nsr,
    simulate_hopf_linear,
    simulate_reduced,
    strong_order_estimate,
    van_der_pol,
    wk_transform,
)

from conftest import threads
import test_member_loops as contract

MODULES = ["noisycycles"] + [
    f"noisycycles.{info.name}" for info in pkgutil.iter_modules(noisycycles.__path__)
]


@pytest.mark.parametrize("name", MODULES)
def test_every_name_in_all_resolves(name):
    module = importlib.import_module(name)
    exported = getattr(module, "__all__", ())
    unresolved = [n for n in exported if getattr(module, n, None) is None]
    assert unresolved == []
    assert len(set(exported)) == len(exported)


LAYERS = ["analysis", "exceptions", "fitting", "frame", "hopf", "presets", "sde"]


@pytest.mark.parametrize("layer", LAYERS)
def test_package_reexports_each_layer_name_as_the_same_object(layer):
    # the bench's span recorder swaps a function wherever the same object
    # is bound, so a re-export must not be a copy or a wrapper
    module = importlib.import_module(f"noisycycles.{layer}")
    for name in module.__all__:
        assert name in noisycycles.__all__
        assert getattr(noisycycles, name) is getattr(module, name)


def test_package_init_writes_out_no_layer_name():
    tree = ast.parse(inspect.getsource(noisycycles))
    written = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    written |= {n.value for n in ast.walk(tree)
                if isinstance(n, ast.Constant) and isinstance(n.value, str)}
    written |= {a.asname or a.name for n in ast.walk(tree)
                if isinstance(n, ast.ImportFrom) for a in n.names}
    layer_names = {name for layer in LAYERS
                   for name in importlib.import_module(f"noisycycles.{layer}").__all__}
    assert written & layer_names == set()


def test_readme_python_blocks_run_as_written():
    # the quick start and the van der Pol reduction, in order, in one namespace
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    blocks = re.findall(r"^```python\n(.*?)^```", text, flags=re.M | re.S)
    assert len(blocks) == 2
    namespace = {}
    for block in blocks:
        exec(compile(block, "README.md", "exec"), namespace)


def _hopf(**value):
    return HopfParams(**{"alpha": 1.0, "alpha0": 1.0, "lambda_": 1.0, "r": 1.0, "sigma": 0.1,
                         **value})


_OU = ornstein_uhlenbeck(1.0, 0.5)
_RUN = IntegratorConfig(dt=0.1, n_steps=4, initial_state=(0.0,))
_SERIES = np.sin(np.arange(64.0))
_QUIET = hopf_system(_hopf(sigma=0.0))

# every scalar argument of the public entry points: the call that takes it,
# its name in the message, and its rule, a count's least value (an int) or
# "positive" or "zero" for a finite real, > 0 or >= 0, or a finite real's
# least value (a float); the last entry says whether None is a value the
# argument takes rather than a wrong type
SCALARS = {
    "SdeSystem dimension": (lambda v: SdeSystem(dimension=v, drift=np.negative), "dimension", 1, False),
    "SdeSystem isotropic_sigma": (lambda v: SdeSystem(dimension=1, drift=np.negative, isotropic_sigma=v),
                                  "isotropic_sigma", "zero", True),
    "IntegratorConfig dt": (lambda v: IntegratorConfig(dt=v, n_steps=4), "dt", "positive", False),
    "IntegratorConfig n_steps": (lambda v: IntegratorConfig(dt=0.1, n_steps=v), "n_steps", 1, False),
    "IntegratorConfig seed": (lambda v: IntegratorConfig(dt=0.1, n_steps=4, seed=v), "seed", 0, False),
    "path_seed seed": (lambda v: path_seed(v, 0), "seed", 0, False),
    "path_seed index": (lambda v: path_seed(0, v), "index", 0, False),
    # None is a solo run
    "integrate_ensemble n_paths": (lambda v: integrate_ensemble(_OU, _RUN, v), "n_paths", 1, True),
    "integrate_path record_every": (lambda v: integrate_path(_OU, _RUN, record_every=v),
                                    "record_every", 1, False),
    "strong_order_estimate t_final": (
        lambda v: strong_order_estimate(_OU, (1.0,), v, [0.1, 0.05, 0.025], n_paths=2),
        "t_final", "positive", False),
    "strong_order_estimate dt": (
        lambda v: strong_order_estimate(_OU, (1.0,), 1.0, [0.1, v, 0.025], n_paths=2),
        "dt", "positive", False),
    "strong_order_estimate n_paths": (
        lambda v: strong_order_estimate(_OU, (1.0,), 1.0, [0.1, 0.05, 0.025], n_paths=v),
        "n_paths", 2, False),
    "ornstein_uhlenbeck lambda_": (lambda v: ornstein_uhlenbeck(v, 0.5), "lambda_", "positive", False),
    "ornstein_uhlenbeck sigma": (lambda v: ornstein_uhlenbeck(1.0, v), "isotropic_sigma", "zero", True),
    "find_limit_cycle grid_size": (
        lambda v: find_limit_cycle(_QUIET, (0.3, 0.0), grid_size=v),
        "grid_size", 8, False),
    # also the search's window: 1e5 windows at the least
    "find_limit_cycle transient_time": (
        lambda v: find_limit_cycle(_QUIET, (0.3, 0.0), transient_time=v),
        "transient_time", 0.01, False),
    # both refuse the scalar before they read the cycle or the frame
    "build_frame substeps": (lambda v: build_frame(None, substeps=v), "substeps", 1, False),
    "reduce sigma": (lambda v: reduce(None, None, v), "sigma", "zero", False),
    "sample_acv dt": (lambda v: sample_acv(_SERIES, v, 1.0), "dt", "positive", False),
    "sample_acv max_lag": (lambda v: sample_acv(_SERIES, 1.0, v), "max_lag", "zero", False),
    "averaged_periodogram dt": (lambda v: averaged_periodogram(_SERIES, v), "dt", "positive", False),
    "kde grid_size": (lambda v: kde(_SERIES, grid_size=v), "grid_size", 2, False),
    "kde bandwidth": (lambda v: kde(_SERIES, bandwidth=v), "bandwidth", "positive", True),
    **{f"HopfParams {name}": (lambda v, name=name: _hopf(**{name: v}), name, "positive", False)
       for name in ("alpha", "alpha0", "lambda_", "r")},
    "HopfParams sigma": (lambda v: _hopf(sigma=v), "sigma", "zero", False),
    "sigma_for_nsr nsr": (lambda v: sigma_for_nsr(v, 1.0, 1.0), "nsr", "zero", False),
    "sigma_for_nsr lambda_": (lambda v: sigma_for_nsr(0.1, v, 1.0), "lambda_", "positive", False),
    "sigma_for_nsr r": (lambda v: sigma_for_nsr(0.1, 1.0, v), "r", "positive", False),
    "van_der_pol mu": (lambda v: van_der_pol(v), "mu", "positive", False),
    "van_der_pol sigma": (lambda v: van_der_pol(1.0, v), "isotropic_sigma", "zero", True),
}


def _message(name, rule, value):
    if rule == "positive":
        return f"{name} must be positive and finite, got {value}"
    if rule == "zero" or isinstance(rule, float):
        return f"{name} must be finite and >= {0 if rule == 'zero' else rule}, got {value}"
    if isinstance(value, float) and not value >= rule:
        return f"{name} must be >= {rule}, got {value}"
    return f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{'10**400' if value == 10**400 else repr(value)}")
    for entry, (_, _, rule, takes_none) in SCALARS.items()
    # an int beyond the float range is not finite; a count takes it
    for value in ("1", None, np.nan, np.inf, -np.inf, 10**400)
    if not (value is None and takes_none)
    and not (value == 10**400 and isinstance(rule, int))
])
def test_a_wrongly_typed_or_non_finite_scalar_is_a_config_error(entry, value):
    call, name, rule, _ = SCALARS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            call(value)
    assert str(err.value) == _message(name, rule, value)


@pytest.mark.parametrize("dt", [1e300, np.float64(1e300), 10**300])
def test_a_dt_whose_power_one_and_a_half_overflows_is_a_config_error(dt):
    # dt^1.5 scales the area increments; a dt below the float limit passes
    # the real rule, but its dt^1.5 does not fit in a float
    for run in (lambda: integrate_path(_OU, IntegratorConfig(dt=dt, n_steps=4, initial_state=(0.0,))),
                lambda: strong_order_estimate(_OU, (1.0,), 4 * dt, [dt, dt / 2, dt / 4], 2)):
        with warnings.catch_warnings(), pytest.raises(ConfigError) as err:
            warnings.simplefilter("error")
            run()
        assert str(err.value).startswith("dt must have a finite dt ** 1.5, got ")


@pytest.mark.parametrize("field, value", [("drift", None), ("drift", 1.0), ("jacobian", "J")])
def test_an_sde_system_refuses_a_drift_or_jacobian_that_is_not_callable(field, value):
    with pytest.raises(ConfigError) as err:
        SdeSystem(**{"dimension": 2, "drift": np.negative, field: value})
    assert str(err.value) == f"{field} must be callable, got {value!r}"


_LAGS = list(np.arange(10) * 0.5)
_DECAY = list(np.exp(-np.arange(10) * 0.5))


@functools.cache
def _reduction():
    """The quiet planar Hopf cycle, its frame and its reduced model."""
    cycle = contract.limit_cycle("hopf")
    frame = build_frame(cycle)
    return cycle, frame, reduce(cycle, frame, 0.1)


def _run(start):
    return IntegratorConfig(dt=0.1, n_steps=4, initial_state=start)


# every array argument of the public entry points: the call that takes it,
# its name in the message, a value it takes, and a value of the wrong shape
# with the shape its rule asks for, or None where the rule takes any shape
ARRAYS = {
    "SdeSystem noise_matrix": (
        lambda v: SdeSystem(dimension=2, drift=np.negative, noise_matrix=v),
        "noise_matrix", [[0.1, 0.0], [0.0, 0.1]], ([[0.1, 0.0]], "(2, 2)")),
    "integrate_path initial_state": (
        lambda v: integrate_path(_OU, _run(v)), "initial_state", [0.5], ([0.5, 0.5], "(1,)")),
    "strong_order_estimate initial_state": (
        lambda v: strong_order_estimate(_OU, v, 1.0, [0.1, 0.05, 0.025], n_paths=2),
        "initial_state", [1.0], ([[1.0]], "(1,)")),
    # a phase start has a length message of its own
    "simulate_hopf_linear initial_state": (
        lambda v: simulate_hopf_linear(_hopf(), _run(v)),
        "initial_state", [0.1, 0.2], ([[0.1, 0.2]], "(N,)")),
    "simulate_reduced initial_state": (
        lambda v: simulate_reduced(_reduction()[2], _reduction()[0], _run(v)),
        "initial_state", [0.1, 0.2], ([[0.1, 0.2]], "(N,)")),
    "find_limit_cycle initial_guess": (
        lambda v: find_limit_cycle(_QUIET, v), "initial_guess", [0.3, 0.0], ([0.3], "(2,)")),
    "reconstruct tau": (
        lambda v: reconstruct(*_reduction()[:2], v, [[0.0], [0.1]]),
        "tau", [0.0, 0.5], ([[0.0, 0.5]], "(N,)")),
    "reconstruct z0": (
        lambda v: reconstruct(*_reduction()[:2], [0.0, 0.5], v),
        "z0", [[0.0], [0.1]], ([[0.0, 0.1]], "(2, 1)")),
    "sample_acv series": (
        lambda v: sample_acv(v, 1.0, 1.0), "series", list(_SERIES), ([list(_SERIES)], "(N,)")),
    "averaged_periodogram paths": (
        lambda v: averaged_periodogram(v, 1.0),
        "paths", [list(_SERIES)] * 2, (np.ones((2, 2, 40)), "(N, N)")),
    # both ravel their samples
    "kde samples": (kde, "samples", list(_SERIES), None),
    "kurtosis samples": (kurtosis, "samples", list(_SERIES), None),
    # the templates take lags and frequencies of any shape
    "acv_formula u": (lambda v: acv_formula(_hopf(), v), "u", [0.0, 0.5], None),
    "psd_formula omega": (lambda v: psd_formula(_hopf(), v), "omega", [0.5, 1.0], None),
    "wk_transform omegas": (
        lambda v: wk_transform(AcvEstimate(_LAGS, _DECAY), v),
        "omegas", [0.5, 1.0], ([[0.5, 1.0]], "(N,)")),
    "wk_transform acv.lags": (
        lambda v: wk_transform(AcvEstimate(v, _DECAY), [1.0]),
        "acv.lags", _LAGS, ([_LAGS], "(N,)")),
    "wk_transform acv.values": (
        lambda v: wk_transform(AcvEstimate(_LAGS, v), [1.0]),
        "acv.values", _DECAY, (_DECAY[:-1], "(10,)")),
    "fit curve.lags": (
        lambda v: fit(FitProblem(FitTarget.ACV, AcvEstimate(v, _DECAY))),
        "curve.lags", _LAGS, ([_LAGS], "(N,)")),
    "fit curve.omegas": (
        lambda v: fit(FitProblem(FitTarget.PSD, PsdEstimate(v, _DECAY))),
        "curve.omegas", _LAGS, ([_LAGS], "(N,)")),
    "fit curve.values": (
        lambda v: fit(FitProblem(FitTarget.ACV, AcvEstimate(_LAGS, v))),
        "curve.values", _DECAY, (_DECAY[:-1], "(10,)")),
}

# None is the isotropic default there
_TAKES_NONE = {"SdeSystem noise_matrix"}

# a fault: the element it puts in the value, and that element's flat index
_ELEMENTS = {"str": ("a", 0), "nan": (np.nan, 0), "inf": (np.inf, -1), "-inf": (-np.inf, -1)}


def _faulty(entry, fault):
    """The value of ``entry`` with ``fault`` and the message it must get."""
    _, name, value, wrong = ARRAYS[entry]
    if fault == "shape":
        value, spec = wrong
        return value, f"{name} must have shape {spec}, got {np.shape(value)}"
    if fault == "None":
        return None, f"{name} must be an array of real numbers, got dtype object"
    if fault == "ragged":
        # rows of two lengths, which numpy refuses to stack
        ragged = [list(np.ravel(value)) + [0.0], [0.0]]
        return ragged, f"{name} must be an array of real numbers, got dtype object"
    element, k = _ELEMENTS[fault]
    k %= np.size(value)
    bad = np.array(value, dtype=object)
    bad.flat[k] = element
    bad = bad.tolist()
    if fault == "str":
        return bad, f"{name} must be an array of real numbers, got dtype {np.asarray(bad).dtype}"
    at = tuple(int(i) for i in np.unravel_index(k, np.shape(value)))
    return bad, f"{name} must be finite, got {element} at index {at[0] if len(at) == 1 else at}"


@pytest.mark.parametrize("entry, fault", [
    (entry, fault)
    for entry, (*_, wrong) in ARRAYS.items()
    for fault in ("str", "None", "ragged", "nan", "inf", "-inf", "shape")
    if not (fault == "shape" and wrong is None)
    and not (fault == "None" and entry in _TAKES_NONE)
])
def test_a_wrongly_typed_shaped_or_non_finite_array_is_a_config_error(entry, fault):
    value, message = _faulty(entry, fault)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            ARRAYS[entry][0](value)
    assert str(err.value) == message


# the floating-point rule: numbers at float's limits, non-numbers and wrong
# shapes, which every estimator, formula and scale either takes to a finite
# result or refuses with a package error, without a warning
_POSITIVE = st.one_of(
    st.sampled_from([5e-324, 1e-320, 1e-300, 1e-160, 1e-8, 1.0, 2.0, 2 * np.pi, 1e8, 1e160,
                     1e300, 1e306, 1e308, 1.7976931348623157e308]),
    st.floats(min_value=5e-324, allow_infinity=False),
)
_SCALARS = st.one_of(
    *[_POSITIVE] * 8,
    st.sampled_from([0.0, -0.0, -1.0, np.nan, np.inf, -np.inf, None, "1", 10**400]),
    st.floats(), st.integers(-3, 64),
)
# series of up to 64 samples, scaled towards float's limits
_SCALE = st.sampled_from([1e-320, 1e-300, 1e-160, 1.0, 1e160, 1e300, 1e306])
_SAMPLES = st.builds(lambda n, scale, wave: (np.sin(0.3 * np.arange(n)) if wave
                                             else np.arange(n)) * scale,
                     st.one_of(st.integers(0, 64), st.sampled_from([40, 64])), _SCALE,
                     st.booleans())
# an increasing grid and values of its length
_CURVES = st.builds(lambda n, step, scale: (np.arange(n) * step,
                                            np.cos(0.3 * np.arange(n)) * scale),
                    st.integers(1, 64), _SCALE, _SCALE)
_ARRAYS = st.one_of(
    _SAMPLES, _SAMPLES, _SAMPLES,
    st.builds(lambda x, rows: np.tile(x, (rows, 1)), _SAMPLES, st.integers(1, 3)),
    st.lists(_SCALARS, max_size=64),
    st.lists(st.lists(st.floats(), max_size=8), max_size=8),  # ragged unless the lengths agree
    _SCALARS,
)


def _acv_at(r, alpha, lambda_, sigma, u):
    return acv_formula(_hopf(r=r, alpha=alpha, alpha0=alpha, lambda_=lambda_, sigma=sigma), u)


def _psd_at(r, alpha, lambda_, sigma, omega):
    return psd_formula(_hopf(r=r, alpha=alpha, alpha0=alpha, lambda_=lambda_, sigma=sigma), omega)


def _nsr_at(r, alpha, lambda_, sigma):
    return nsr(_hopf(r=r, alpha=alpha, alpha0=alpha, lambda_=lambda_, sigma=sigma))


def _wk_at(lags, values, omegas):
    return wk_transform(AcvEstimate(lags=lags, values=values), omegas)


def _problem(target, estimate, grid, values):
    return FitProblem(target=target, curve=estimate(grid, values)).curve


_CALLS = st.one_of(
    st.tuples(st.just(sample_acv), _ARRAYS, _SCALARS, _SCALARS),
    st.builds(lambda x, dt, k: (sample_acv, x, dt, k * dt), _SAMPLES, _POSITIVE,
              st.integers(0, 32)),
    st.tuples(st.just(averaged_periodogram), _ARRAYS, _SCALARS),
    st.tuples(st.just(_acv_at), *[_SCALARS] * 4, _ARRAYS),
    st.tuples(st.just(_psd_at), *[_SCALARS] * 4, _ARRAYS),
    st.tuples(st.just(kde), _ARRAYS, st.one_of(st.integers(-2, 64), st.none(), st.just(2.5)),
              st.one_of(st.none(), _SCALARS)),
    st.tuples(st.just(kde), _SAMPLES, st.just(512), st.one_of(st.none(), _POSITIVE)),
    st.tuples(st.just(kurtosis), _ARRAYS),
    st.tuples(st.just(kurtosis), _SAMPLES),
    st.tuples(st.just(_wk_at), _ARRAYS, _ARRAYS, _ARRAYS),
    st.builds(lambda curve, omegas: (_wk_at, *curve, omegas), _CURVES, _SAMPLES),
    st.tuples(st.just(_problem), st.sampled_from([*FitTarget, "acv"]),
              st.sampled_from([AcvEstimate, PsdEstimate]), _ARRAYS, _ARRAYS),
    st.builds(lambda target, curve: (_problem, *target, *curve),
              st.sampled_from([(FitTarget.ACV, AcvEstimate), (FitTarget.PSD, PsdEstimate)]),
              _CURVES),
    st.tuples(st.just(_nsr_at), *[_SCALARS] * 4),
    st.tuples(st.just(sigma_for_nsr), *[_SCALARS] * 3),
)


@settings(max_examples=300, deadline=None, derandomize=True)
@given(call=_CALLS)
@example(call=(kurtosis, np.arange(40) * 1e-160))
@example(call=(averaged_periodogram, np.arange(64.0)[None], 1e-320))
@example(call=(kde, np.arange(40.0), 512, 1e-320))
@example(call=(sigma_for_nsr, 1e300, 1e300, 1e300))
@example(call=(_nsr_at, 1.0, 1.0, 1e-300, 1e150))
@example(call=(_acv_at, 1.0, 1.0, 1e-300, 1e150, [0.0]))
@example(call=(sample_acv, np.arange(10.0), 1e-300, 1e300))
@example(call=(_psd_at, 1.0, 1.0, 1.0, 1.0, np.nan))
def test_every_entry_point_gives_a_finite_result_or_a_package_error(call):
    function, *args = call
    with warnings.catch_warnings(), threads(2):
        warnings.simplefilter("error")
        try:
            result = function(*args)
        except NoisyCyclesError:
            return
    for value in vars(result).values() if hasattr(result, "__dict__") else [result]:
        assert np.isfinite(value).all(), (call, result)
