"""Package surface: every exported name exists, once, and the README's
Python examples run as written."""

import ast
import importlib
import inspect
import pkgutil
import re
import warnings
from pathlib import Path

import numpy as np
import pytest

import noisycycles
from noisycycles import (
    ConfigError,
    HopfParams,
    IntegratorConfig,
    SdeSystem,
    averaged_periodogram,
    build_frame,
    find_limit_cycle,
    hopf_system,
    integrate_ensemble,
    integrate_path,
    kde,
    ornstein_uhlenbeck,
    path_seed,
    reduce,
    sample_acv,
    sigma_for_nsr,
    strong_order_estimate,
    van_der_pol,
)

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
# its name in the message, and its rule, a count's least value or "positive"
# or "zero" for a finite real, > 0 or >= 0; the last entry says whether None
# is a value the argument takes rather than a wrong type
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
    "find_limit_cycle transient_time": (
        lambda v: find_limit_cycle(_QUIET, (0.3, 0.0), transient_time=v),
        "transient_time", "positive", False),
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
    if rule == "zero":
        return f"{name} must be finite and >= 0, got {value}"
    if isinstance(value, float) and not value >= rule:
        return f"{name} must be >= {rule}, got {value}"
    return f"{name} must be an integer, got {value!r}"


@pytest.mark.parametrize("entry, value", [
    pytest.param(entry, value, id=f"{entry}-{value!r}")
    for entry, (*_, takes_none) in SCALARS.items()
    for value in ("1", None, np.nan, np.inf, -np.inf)
    if not (value is None and takes_none)
])
def test_a_wrongly_typed_or_non_finite_scalar_is_a_config_error(entry, value):
    call, name, rule, _ = SCALARS[entry]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(ConfigError) as err:
            call(value)
    assert str(err.value) == _message(name, rule, value)
