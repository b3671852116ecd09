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
"""

import json
import os
from pathlib import Path

import pytest

from noisycycles import validation

_RECORDED = json.loads((Path(__file__).parent / "data" / "validate_details.json").read_text())


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


def test_criterion_03_acv_agreement():
    result = _report(validation.check_acv_agreement())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["3"]


def test_criterion_04_psd_peak():
    result = _report(validation.check_psd_peak())
    assert result.passed, result.detail


def test_criterion_05_acv_breakdown_off_regime():
    result = _report(validation.check_acv_breakdown())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["5"]


def test_criterion_06_amplitude_kurtosis():
    result = _report(validation.check_kurtosis())
    assert result.passed, result.detail


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


def test_criterion_10_fit_roundtrip():
    result = _report(validation.check_fit_roundtrip())
    assert result.passed, result.detail
    assert result.detail == _RECORDED["10"]


def test_criterion_11_nino_reproduction():
    result = _report(
        validation.check_nino_reproduction(os.environ.get(validation.NINO_ENV_VAR))
    )
    if result.skipped:
        pytest.skip(result.detail)
    assert result.passed, result.detail
