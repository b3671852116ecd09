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
and 10 is held by its sha256 in ``data/validate_pins.json``, keyed by the
arguments of the call, and so are criterion 10's fitted parameters, as
``float.hex``.  Both are collected from the runs above, which run no
ensemble twice.
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


def _call_key(params, dt, n_steps, seed, n_paths, thin):
    return (
        f"seed {seed}, alpha0 {params.alpha0.hex()}, sigma {params.sigma.hex()}, "
        f"dt {dt!r}, {n_steps} steps, {n_paths} paths, every {thin}"
    )


@pytest.fixture
def exact_x_digests(monkeypatch):
    """The sha256 of each array ``validation._exact_x`` returns during the
    test, by the key of its call; an ensemble another test already cached
    does not run again and is not in it."""
    digests = {}
    exact_x = validation._exact_x

    def recording(*args):
        x = exact_x(*args)
        digests[_call_key(*args)] = hashlib.sha256(x.tobytes()).hexdigest()
        return x

    monkeypatch.setattr(validation, "_exact_x", recording)
    return digests


def _assert_pinned(digests, ran):
    assert not ran or digests, "the criterion ran no ensemble"
    assert digests == {key: _PINS["exact_x"].get(key) for key in digests}


def _report(result):
    status = "SKIP" if result.skipped else ("PASS" if result.passed else "FAIL")
    print(f"criterion {result.index} [{status}] {result.name}: {result.detail}")
    assert type(result.passed) is bool
    return result


def test_criterion_01_strong_order():
    result = _report(validation.check_integrator_order())
    assert result.passed, result.detail


def test_criterion_02_deviation_variance():
    result = _report(validation.check_deviation_variance())
    assert result.passed, result.detail


def test_criterion_03_acv_agreement(exact_x_digests):
    result = _report(validation.check_acv_agreement())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["3"]
    _assert_pinned(exact_x_digests, ran=True)


def test_criterion_04_psd_peak(exact_x_digests):
    result = _report(validation.check_psd_peak())
    assert result.passed, result.detail
    # criterion 3's ensemble, which runs here only when criterion 3 has not
    _assert_pinned(exact_x_digests, ran=False)


def test_criterion_05_acv_breakdown_off_regime(exact_x_digests):
    result = _report(validation.check_acv_breakdown())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["5"]
    _assert_pinned(exact_x_digests, ran=True)


def test_criterion_06_amplitude_kurtosis(exact_x_digests):
    result = _report(validation.check_kurtosis())
    assert result.passed, result.detail
    _assert_pinned(exact_x_digests, ran=True)


def test_criterion_07_frame_invariants():
    result = _report(validation.check_frame_invariants())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["7"]


def test_criterion_08_reduction_consistency():
    result = _report(validation.check_reduction())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["8"]


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
    _assert_pinned(exact_x_digests, ran=True)
    assert fitted == _PINS["fit_10"]


def test_criterion_11_nino_reproduction():
    result = _report(
        validation.check_nino_reproduction(os.environ.get(validation.NINO_ENV_VAR))
    )
    if result.skipped:
        pytest.skip(result.detail)
    assert result.passed, result.detail
