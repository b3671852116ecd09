"""Acceptance suite: one test per numbered validation criterion.

Each test runs the corresponding end-to-end check at its stated tolerance
and prints the check's one-line verdict, so ``pytest -v`` yields one
pass/fail line per criterion.  The checks share their simulation ensembles
through module-level caches, which is why this file is much cheaper to run
whole than test by test.

The detail strings of the ensemble criteria 3, 5 and 10 are also compared
with ``data/validate_details.json``, recorded once from the numpy step
loop: any change to the integrator's bits shows there first.  The details
of criteria 7, 8 and 9 (cycle finder, frame, reduction and the ACV
template's cosine transform) are held the same way.

The details keep two to four figures, which a one-ulp change would not
move.  So every array ``validation._exact_x`` returns during criteria 3 to 6
and 10, and ``validation._linear_x`` during criteria 3 and 6, is held by its
sha256 in ``data/validate_pins.json``, keyed by the arguments of the call;
so are the tau and z0 records ``simulate_reduced`` returns in criterion 8
and the z and tau of criterion 2's ``simulate_hopf_linear`` run.  Criterion
1's ``strong_order_estimate`` results (RMS errors and slope) and criterion
10's fitted parameters are held as ``float.hex``.  All are collected from
the runs above, which run no ensemble twice.
"""

import dataclasses
import hashlib
import json
import os
from pathlib import Path

import pytest

from noisycycles import validation

_DATA = Path(__file__).parent / "data"
_RECORDED = json.loads((_DATA / "validate_details.json").read_text())
_PINS = json.loads((_DATA / "validate_pins.json").read_text())


def _sha256(a):
    return hashlib.sha256(a.tobytes()).hexdigest()


def _exact_key(params, dt, n_steps, seed, n_paths, thin):
    return (
        f"seed {seed}, alpha0 {params.alpha0.hex()}, sigma {params.sigma.hex()}, "
        f"dt {dt!r}, {n_steps} steps, {n_paths} paths, every {thin}"
    )


def _linear_key(params, dt, n_steps, seed, thin, leading_order):
    order = "leading order" if leading_order else "linear"
    return f"{order}, {_exact_key(params, dt, n_steps, seed, validation._PATHS, thin)}"


def _reduced_key(model, cycle, config, record_every=1, n_paths=None):
    return (
        f"seed {config.seed}, sigma {model.sigma.hex()}, dt {config.dt!r}, "
        f"{config.n_steps} steps, {n_paths} paths, every {record_every}"
    )


def _linear_run_key(params, config, leading_order=False, record_every=1, n_paths=None):
    order = "leading order" if leading_order else "linear"
    return f"{order}, {_reduced_key(params, None, config, record_every, n_paths)}"


def _order_key(system, initial_state, t_final, dts, n_paths, scheme, seed, exact_endpoint):
    reference = "fine grid" if exact_endpoint is None else "exact endpoint"
    return (
        f"{scheme.value}, {system.dimension}-d from {tuple(initial_state)}, {reference}, "
        f"seed {seed}, {n_paths} paths, T {t_final!r}, dts {tuple(dts)}"
    )


def _order_digest(estimate):
    return {"rms_errors": [v.hex() for v in estimate.rms_errors.tolist()],
            "slope": estimate.slope.hex()}


def _recording(monkeypatch, name, key, digest):
    """The ``digest`` of each result ``validation.<name>`` returns during the
    test, by the ``key`` of its call; an ensemble another test already cached
    does not run again and is not in it."""
    digests = {}
    original = getattr(validation, name)

    def recording(*args, **kwargs):
        result = original(*args, **kwargs)
        digests[key(*args, **kwargs)] = digest(result)
        return result

    monkeypatch.setattr(validation, name, recording)
    return digests


@pytest.fixture
def exact_x_digests(monkeypatch):
    return _recording(monkeypatch, "_exact_x", _exact_key, _sha256)


@pytest.fixture
def linear_x_digests(monkeypatch):
    return _recording(monkeypatch, "_linear_x", _linear_key, _sha256)


@pytest.fixture
def reduced_digests(monkeypatch):
    return _recording(
        monkeypatch, "simulate_reduced", _reduced_key, lambda records: [*map(_sha256, records)]
    )


@pytest.fixture
def linear_run_digests(monkeypatch):
    return _recording(
        monkeypatch, "simulate_hopf_linear", _linear_run_key,
        lambda path: [_sha256(path.z), _sha256(path.tau)],
    )


@pytest.fixture
def order_estimates(monkeypatch):
    return _recording(monkeypatch, "strong_order_estimate", _order_key, _order_digest)


def _assert_pinned(digests, pins, ran):
    assert not ran or digests, "the criterion ran no ensemble"
    assert digests == {key: _PINS[pins].get(key) for key in digests}


def _report(result):
    status = "SKIP" if result.skipped else ("PASS" if result.passed else "FAIL")
    print(f"criterion {result.index} [{status}] {result.name}: {result.detail}")
    assert type(result.passed) is bool
    return result


def test_criterion_01_strong_order(order_estimates):
    result = _report(validation.check_integrator_order())
    assert result.passed, result.detail
    assert len(order_estimates) == 3
    _assert_pinned(order_estimates, "order_1", ran=True)


def test_criterion_02_deviation_variance(linear_run_digests):
    result = _report(validation.check_deviation_variance())
    assert result.passed, result.detail
    _assert_pinned(linear_run_digests, "linear_2", ran=True)


def test_criterion_03_acv_agreement(exact_x_digests, linear_x_digests):
    result = _report(validation.check_acv_agreement())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["3"]
    _assert_pinned(exact_x_digests, "exact_x", ran=True)
    _assert_pinned(linear_x_digests, "linear_x", ran=True)


def test_criterion_04_psd_peak(exact_x_digests):
    result = _report(validation.check_psd_peak())
    assert result.passed, result.detail
    # criterion 3's ensemble, which runs here only when criterion 3 has not
    _assert_pinned(exact_x_digests, "exact_x", ran=False)


def test_criterion_05_acv_breakdown_off_regime(exact_x_digests):
    result = _report(validation.check_acv_breakdown())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["5"]
    _assert_pinned(exact_x_digests, "exact_x", ran=True)


def test_criterion_06_amplitude_kurtosis(exact_x_digests, linear_x_digests):
    result = _report(validation.check_kurtosis())
    assert result.passed, result.detail
    _assert_pinned(exact_x_digests, "exact_x", ran=True)
    _assert_pinned(linear_x_digests, "linear_x", ran=True)


def test_criterion_07_frame_invariants():
    result = _report(validation.check_frame_invariants())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["7"]


def test_criterion_08_reduction_consistency(reduced_digests):
    result = _report(validation.check_reduction())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["8"]
    _assert_pinned(reduced_digests, "reduced_8", ran=True)


def test_criterion_09_transform_consistency():
    result = _report(validation.check_transform_consistency())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["9"]


def test_criterion_10_fit_roundtrip(exact_x_digests, monkeypatch):
    fitted = []
    fit = validation.fit

    def recording(problem):
        result = fit(problem)
        fitted.append([float(v).hex() for v in dataclasses.astuple(result.params)])
        return result

    monkeypatch.setattr(validation, "fit", recording)
    result = _report(validation.check_fit_roundtrip())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["10"]
    _assert_pinned(exact_x_digests, "exact_x", ran=True)
    assert fitted == _PINS["fit_10"]


def test_criterion_11_nino_reproduction():
    result = _report(
        validation.check_nino_reproduction(os.environ.get(validation.NINO_ENV_VAR))
    )
    if result.skipped:
        pytest.skip(result.detail)
    assert result.passed, result.detail
