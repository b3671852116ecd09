"""The validation suite's table of criteria and how ``run_all`` walks it,
on stubbed checks (the real suite takes the better part of a minute), and
criterion 11 alone, on a synthetic series."""

import numpy as np

from noisycycles import (
    HopfParams,
    IntegratorConfig,
    sigma_for_nsr,
    simulate_hopf_linear,
    validation,
)
from noisycycles.cli import run as cli_run
from noisycycles.csvio import write_curve
from noisycycles.validation import NINO_ENV_VAR, CriterionResult

# the names `noisycycles validate` prints, by index
_NAMES = [
    "integrator strong order",
    "deviation process variance",
    "autocovariance agreement",
    "spectral peak agreement",
    "documented breakdown regime",
    "strong-noise kurtosis",
    "comoving frame invariants",
    "reduction correctness",
    "transform consistency",
    "fit roundtrip",
    "sea-surface index reproduction",
]


def test_table_holds_each_criterion_once_in_order():
    table = [(index, name) for index, name, _ in validation._CRITERIA]
    assert table == list(enumerate(_NAMES, start=1))
    checks = [check for _, _, check in validation._CRITERIA]
    assert checks[0] is validation.check_integrator_order
    assert checks[-1] is validation.check_nino_reproduction
    assert len(set(checks)) == len(_NAMES)


def test_run_all_reports_a_raising_check_by_its_index_and_name(monkeypatch):
    # a stub table; the last entry stands in for criterion 11, the only
    # check run_all hands the data path to
    monkeypatch.setattr(validation, "_CRITERIA", [])

    @validation._criterion(1, "cheap pass")
    def cheap():
        return 1 < 2, "fine"

    @validation._criterion(2, "cheap crash")
    def crash():
        raise ValueError("no data")

    @validation._criterion(3, "cheap skip")
    def skip(path):
        return False, f"no file at {path}", True

    monkeypatch.setattr(validation, "check_nino_reproduction", skip)
    rows = validation.run_all(nino_path="series.csv")
    assert rows == [
        CriterionResult(1, "cheap pass", True, "fine"),
        CriterionResult(2, "cheap crash", False, "raised ValueError: no data"),
        CriterionResult(3, "cheap skip", False, "no file at series.csv", skipped=True),
    ]
    assert all(type(row.passed) is bool for row in rows)


def test_a_named_nino_file_that_cannot_be_read_fails_check_11(tmp_path, monkeypatch, capsys):
    # the real check alone: only a run with no file named skips it
    monkeypatch.setattr(validation, "_CRITERIA", [
        (11, "sea-surface index reproduction", validation.check_nino_reproduction)])
    skipped = [CriterionResult(
        11, "sea-surface index reproduction", False,
        f"monthly Nino 3.4 anomaly file not provided (set ${NINO_ENV_VAR} to enable)",
        skipped=True)]
    monkeypatch.delenv(NINO_ENV_VAR, raising=False)
    assert validation.run_all() == skipped
    monkeypatch.setenv(NINO_ENV_VAR, "")
    assert validation.run_all() == skipped
    typo = tmp_path / "typo.csv"
    failed = CriterionResult(11, "sea-surface index reproduction", False,
                             f"raised ConfigError: cannot read {typo}: [Errno 2] "
                             f"No such file or directory: '{typo}'")
    assert validation.run_all(nino_path=str(typo)) == [failed]
    monkeypatch.setenv(NINO_ENV_VAR, str(typo))
    assert validation.run_all() == [failed]
    assert cli_run(["validate", "--nino", str(typo)]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_check_11_fits_a_monthly_series_with_or_without_its_time_column(tmp_path):
    # a Nino-like cycle: period 4.2 yr, lambda 0.3/yr, NSR 0.5, 150 years
    # sampled monthly; its bands are the published series', so only that
    # both fits run and agree across the two files is asserted
    alpha = 2.0 * np.pi / 4.2
    params = HopfParams(alpha=alpha, alpha0=alpha, lambda_=0.3, r=1.0,
                        sigma=sigma_for_nsr(0.5, 0.3, 1.0))
    run = simulate_hopf_linear(params, IntegratorConfig(dt=1.0 / 12.0, n_steps=150 * 12, seed=11),
                               leading_order=True)
    timed, bare = tmp_path / "timed.csv", tmp_path / "bare.csv"
    write_curve(timed, "t", "nino34", run.t, run.x)  # t in years
    bare.write_text("nino34\n" + "".join(f"{v!r}\n" for v in run.x.tolist()))
    # without a t column the check takes monthly samples, dt 1/12 yr
    results = [validation.check_nino_reproduction(str(path)) for path in (timed, bare)]
    assert results[0] == results[1]
    result = results[0]
    assert (result.index, result.skipped) == (11, False)
    assert "ACV fit: sigma^2/ACV(0)" in result.detail and "; PSD fit: " in result.detail
