"""Command-line interface: flags, config layering, exit codes, outputs."""

import dataclasses
import json
import math
import os
import shlex
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import noisycycles.validation as validation_module
from noisycycles.analysis import sample_acv
from noisycycles.cli import run as cli_run
from noisycycles.csvio import load_json_config, read_column, read_curve
from noisycycles.exceptions import ConfigError
from noisycycles.validation import CriterionResult

TAU = 2.0 * math.pi


def _call(*args):
    # argparse usage errors surface as SystemExit; semantic errors as codes
    try:
        return cli_run(list(args))
    except SystemExit as exc:
        return int(exc.code or 0)


def _rows(text):
    lines = text.strip().splitlines()
    return lines[0], np.array([[float(v) for v in ln.split(",")] for ln in lines[1:]])


def test_formula_acv_quiet_limit(capsys):
    assert _call(
        "formula", "--template", "acv", "--r", "1", "--alpha", str(TAU),
        "--lambda", str(TAU), "--nsr", "0", "--umax", "3",
    ) == 0
    header, data = _rows(capsys.readouterr().out)
    assert header == "lag,acv"
    assert np.abs(data[:, 1] - 0.5 * np.cos(TAU * data[:, 0])).max() < 1e-12
    assert data[-1, 0] == pytest.approx(3.0, abs=1e-12)


def test_formula_psd_without_noise_is_a_numerical_failure(capsys):
    assert _call("formula", "--template", "psd", "--nsr", "0") == 2
    assert "numerical failure" in capsys.readouterr().err


def test_simulate_is_reproducible(tmp_path):
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    common = (
        "simulate", "--model", "hopf-exact", "--nsr", "0.1",
        "--periods", "5", "--seed", "7", "--output",
    )
    assert _call(*common, str(a)) == 0
    assert _call(*common, str(b)) == 0
    assert a.read_bytes() == b.read_bytes()
    lines = a.read_text().splitlines()
    assert lines[0] == "t,x,y"
    # about one hundred rows per period after automatic thinning
    assert len(lines) - 1 == 501


def test_sigma_and_nsr_are_mutually_exclusive(tmp_path, capsys):
    out = ("--periods", "1", "--output", str(tmp_path / "x.csv"))
    for argv, said in [
        (("--model", "hopf-exact", "--nsr", "0.1", "--sigma", "0.3"), "mutually exclusive"),
        (
            ("--model", "reduced", "--system", "van-der-pol", "--sigma", "0.1", "--nsr", "0.1"),
            "--nsr needs the hopf preset; drop --nsr and give --sigma for van-der-pol",
        ),
    ]:
        assert _call("simulate", *argv, *out) == 1
        assert said in capsys.readouterr().err


def test_unknown_flag_exits_one(capsys):
    assert _call("simulate", "--frobnicate", "1") == 1


def test_steps_and_periods_are_mutually_exclusive(tmp_path, capsys):
    code = _call(
        "simulate", "--model", "hopf-exact", "--steps", "10", "--periods", "1",
        "--output", str(tmp_path / "x.csv"),
    )
    assert code == 1
    assert "exactly one of" in capsys.readouterr().err


def test_seed_env_var_matches_explicit_flag(tmp_path, monkeypatch):
    by_env, by_flag = tmp_path / "env.csv", tmp_path / "flag.csv"
    common = (
        "simulate", "--model", "hopf-linear", "--nsr", "0.1", "--periods", "2",
        "--output",
    )
    monkeypatch.setenv("NOISYCYCLES_SEED", "55")
    assert _call(*common, str(by_env)) == 0
    monkeypatch.delenv("NOISYCYCLES_SEED")
    assert _call(*common, str(by_flag), "--seed", "55") == 0
    assert by_env.read_bytes() == by_flag.read_bytes()


@pytest.mark.parametrize("value, said", [
    ("abc", "error: NOISYCYCLES_SEED must be an integer, got 'abc'"),
    ("1.5", "error: NOISYCYCLES_SEED must be an integer, got '1.5'"),
    ("-1", "error: seed must be >= 0, got -1"),
])
def test_a_seed_variable_that_is_no_seed_is_a_usage_error(tmp_path, monkeypatch, capsys,
                                                          value, said):
    out = tmp_path / "x.csv"
    monkeypatch.setenv("NOISYCYCLES_SEED", value)
    assert _call("simulate", "--model", "hopf-linear", "--nsr", "0.1", "--periods", "1",
                 "--output", str(out)) == 1
    assert said in capsys.readouterr().err
    assert not list(tmp_path.iterdir())


def test_multi_path_files_are_suffixed_and_distinct(tmp_path):
    out = tmp_path / "lin.csv"
    assert _call(
        "simulate", "--model", "hopf-linear", "--nsr", "0.1", "--periods", "2",
        "--paths", "2", "--seed", "9", "--output", str(out),
    ) == 0
    member0, member1 = tmp_path / "lin_000.csv", tmp_path / "lin_001.csv"
    assert member0.exists() and member1.exists() and not out.exists()
    assert member0.read_text().splitlines()[0] == "t,tau,z,x,y"
    assert member0.read_bytes() != member1.read_bytes()


def test_decompose_through_config_file(tmp_path):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps(
        {"system": "van-der-pol", "mu": 1.0, "grid-size": 512, "substeps": 2}
    ))
    out = tmp_path / "vdp.csv"
    assert _call("--config", str(cfg), "decompose", "--output", str(out)) == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "t,L1,L2,T1,T2,U11,U12,U21,U22"
    assert len(lines) == 513


def test_decompose_takes_a_plugin_system(tmp_path, capsys, monkeypatch):
    # README: `decompose --plugin mymodule:make_system`, a factory or an
    # SdeSystem, runs the cycle search of the preset with the same guess
    (tmp_path / "vdp_plugin.py").write_text(
        "from noisycycles import van_der_pol\n"
        "def make_system():\n"
        "    return van_der_pol(1.0)\n"
        "system = van_der_pol(1.0)\n"
        "not_a_system = 3\n"
        "def make(mu):\n"
        "    return van_der_pol(mu)\n"
    )
    # a module that does not parse, and one that raises as it is imported
    (tmp_path / "broken_plugin.py").write_text("return van_der_pol\n")
    (tmp_path / "raising_plugin.py").write_text("raise RuntimeError('no system today')\n")
    monkeypatch.syspath_prepend(str(tmp_path))
    preset = tmp_path / "preset.csv"
    assert _call("decompose", "--system", "van-der-pol", "--mu", "1.0", "--output",
                 str(preset)) == 0
    for spec in ("vdp_plugin:make_system", "vdp_plugin:system"):
        out = tmp_path / "plugin.csv"
        assert _call("decompose", "--plugin", spec, "--guess", "2,0", "--output",
                     str(out)) == 0
        assert out.read_bytes() == preset.read_bytes()
    capsys.readouterr()
    for argv, message in [
        (("--plugin", "vdp_plugin", "--guess", "2,0"),
         "--plugin expects module.path:object, got 'vdp_plugin'"),
        (("--plugin", "no_such_plugin_module:make", "--guess", "2,0"),
         "cannot load plugin 'no_such_plugin_module:make': "
         "ModuleNotFoundError: No module named 'no_such_plugin_module'"),
        (("--plugin", "broken_plugin:make_system", "--guess", "2,0"),
         "cannot load plugin 'broken_plugin:make_system': "
         "SyntaxError: 'return' outside function (broken_plugin.py, line 1)"),
        (("--plugin", "raising_plugin:make_system", "--guess", "2,0"),
         "cannot load plugin 'raising_plugin:make_system': RuntimeError: no system today"),
        (("--plugin", "vdp_plugin:make", "--guess", "2,0"),
         "cannot load plugin 'vdp_plugin:make': "
         "TypeError: make() missing 1 required positional argument: 'mu'"),
        (("--plugin", "vdp_plugin:not_a_system", "--guess", "2,0"),
         "plugin 'vdp_plugin:not_a_system' is not an SdeSystem"),
        (("--plugin", "vdp_plugin:make_system"), "--guess is required with --plugin"),
    ]:
        assert _call("decompose", *argv, "--output", str(tmp_path / "bad.csv")) == 1
        err = capsys.readouterr().err
        assert err.splitlines()[-1] == f"noisycycles: error: {message}"
        assert "Traceback" not in err
    assert not (tmp_path / "bad.csv").exists()


def test_unknown_config_key_exits_one(tmp_path, capsys, monkeypatch):
    decompose = ("decompose", "--system", "hopf", "--output", str(tmp_path / "x.csv"))

    def decompose_with(cfg):
        return _call("--config", str(cfg), *decompose)

    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"grid-size": 128, "bogus": 1}))
    assert decompose_with(cfg) == 1
    assert "unknown config key" in capsys.readouterr().err
    # values go through the flag's own type and choices, as on the command
    # line; a flag without a type reads the value's text
    simulate = ("simulate", "--model", "hopf-exact", "--steps", "10",
                "--output", str(tmp_path / "y.csv"))
    formula = ("formula", "--template", "acv", "--nsr", "0.1")
    monkeypatch.chdir(tmp_path)
    for argv, doc, message in [
        (decompose, {"grid-size": "abc"},
         f"{cfg}: invalid int value 'abc' for config key 'grid-size'"),
        (decompose, {"grid-size": 2.5}, f"{cfg}: invalid int value 2.5 for config key 'grid-size'"),
        (decompose, {"mu": True}, f"{cfg}: invalid float value True for config key 'mu'"),
        (simulate, {"initial": [1.0, 0.0]},
         "--initial expects comma separated numbers, got '[1.0, 0.0]'"),
        # the text "5" names an output file, which the run writes
        (formula, {"output": 5}, None),
    ]:
        cfg.write_text(json.dumps(doc))
        code = _call("--config", str(cfg), *argv)
        err = capsys.readouterr().err
        if message is None:
            assert code == 0 and err == ""
        else:
            assert code == 1
            assert err.splitlines()[-1] == f"noisycycles: error: {message}"
    assert (tmp_path / "5").read_text().startswith("lag,acv\n")
    cfg.write_text(json.dumps({"system": "lorenz"}))
    assert _call("--config", str(cfg), "decompose", "--output", str(tmp_path / "x.csv")) == 1
    assert capsys.readouterr().err.splitlines()[-1] == (
        f"noisycycles: error: {cfg}: config key 'system' must be one of "
        f"'hopf', 'van-der-pol', got 'lorenz'"
    )
    # a file that cannot be read as a JSON object is a usage error too,
    # reported with the message of the library's config loader
    for name, text in [("missing.json", None), ("bad.json", "{not json"), ("list.json", "[1, 2]")]:
        cfg = tmp_path / name
        if text is not None:
            cfg.write_text(text)
        with pytest.raises(ConfigError) as expected:
            load_json_config(cfg)
        assert decompose_with(cfg) == 1
        assert capsys.readouterr().err.endswith(f"noisycycles: error: {expected.value}\n")


def test_flags_override_config_values(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"template": "acv", "nsr": 0.5, "umax": 1.0}))
    assert _call("--config", str(cfg), "formula", "--nsr", "0") == 0
    _, data = _rows(capsys.readouterr().out)
    # nsr 0 from the flag wins: ACV(0) = r^2 / 2 exactly
    assert data[0, 1] == pytest.approx(0.5, abs=1e-12)


def test_config_values_are_flag_defaults(tmp_path):
    # a config value replaces a parser default, and the flag still wins
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"paths": 2}))
    common = ("simulate", "--model", "hopf-linear", "--nsr", "0.1", "--periods", "1")
    assert _call("--config", str(cfg), *common, "--output", str(tmp_path / "a.csv")) == 0
    assert sorted(p.name for p in tmp_path.glob("a*.csv")) == ["a_000.csv", "a_001.csv"]
    assert _call(
        "--config", str(cfg), *common, "--paths", "3", "--output", str(tmp_path / "b.csv")
    ) == 0
    assert sorted(p.name for p in tmp_path.glob("b*.csv")) == [
        "b_000.csv", "b_001.csv", "b_002.csv"
    ]


def test_config_value_equals_the_same_flag(tmp_path):
    cfg = tmp_path / "cfg.json"
    for doc, common, flags in [
        ({"dt": 0.002, "r": 2.0, "scheme": "euler-maruyama"},
         ("simulate", "--model", "hopf-exact", "--nsr", "0.1", "--steps", "500", "--seed", "4"),
         ("--dt", "0.002", "--r", "2", "--scheme", "euler-maruyama")),
        # the key "lambda" is the flag --lambda, whose dest is lambda_
        ({"lambda": 3.0}, ("formula", "--template", "psd", "--nsr", "0.1"), ("--lambda", "3")),
    ]:
        cfg.write_text(json.dumps(doc))
        assert _call("--config", str(cfg), *common, "--output", str(tmp_path / "a.csv")) == 0
        assert _call(*common, *flags, "--output", str(tmp_path / "b.csv")) == 0
        assert _call(*common, "--output", str(tmp_path / "c.csv")) == 0
        assert (tmp_path / "a.csv").read_bytes() == (tmp_path / "b.csv").read_bytes()
        assert (tmp_path / "a.csv").read_bytes() != (tmp_path / "c.csv").read_bytes()


@pytest.fixture(scope="module")
def simulated_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("sim") / "sim.csv"
    code = _call(
        "simulate", "--model", "hopf-exact", "--nsr", "0.1", "--periods", "20",
        "--seed", "3", "--output", str(path),
    )
    assert code == 0
    return path


def test_analyze_acv_matches_library(tmp_path, simulated_csv):
    out = tmp_path / "acv.csv"
    assert _call(
        "analyze", "--what", "acv", "--input", str(simulated_csv),
        "--column", "x", "--max-lag", "3", "--output", str(out),
    ) == 0
    x, dt = read_column(simulated_csv, column="x")
    _, acv, labels = read_curve(out)
    assert labels == ("lag", "acv")
    assert np.array_equal(acv, sample_acv(x, dt, 3.0).values)


def test_analyze_kurtosis_row(capsys, simulated_csv):
    assert _call(
        "analyze", "--what", "kurtosis", "--input", str(simulated_csv),
        "--column", "x",
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "sample_size,kurtosis"
    assert len(lines) == 2


def test_analyze_psd_and_kde(capsys, simulated_csv):
    assert _call(
        "analyze", "--what", "psd", "--input", str(simulated_csv),
        "--column", "x", "--segments", "4",
    ) == 0
    assert capsys.readouterr().out.startswith("omega,psd")
    assert _call(
        "analyze", "--what", "kde", "--input", str(simulated_csv),
        "--column", "x", "--grid-size", "64",
    ) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert lines[0] == "x,density"
    assert len(lines) == 65


@pytest.mark.parametrize("argv", [
    ("analyze", "--what", "psd", "--input", "{series}", "--column", "x", "--segments", "4"),
    ("formula", "--template", "acv", "--nsr", "0.1", "--umax", "5"),
    ("fit", "--target", "acv", "--input", "{curve}"),
], ids=["analyze-psd", "formula-acv", "fit-acv"])
def test_stdout_is_the_output_file(tmp_path, capsys, simulated_csv, argv):
    curve = tmp_path / "template.csv"
    assert _call(
        "formula", "--template", "acv", "--nsr", "0.1", "--umax", "5", "--output", str(curve),
    ) == 0
    argv = [a.format(series=simulated_csv, curve=curve) for a in argv]
    capsys.readouterr()
    assert _call(*argv) == 0
    printed = capsys.readouterr().out
    out = tmp_path / "out"
    assert _call(*argv, "--output", str(out)) == 0
    assert capsys.readouterr().out == ""
    assert out.read_bytes() == printed.encode("ascii")


@pytest.mark.parametrize("flags", [
    ("--template", "acv", "--umax", "0"),
    ("--template", "acv", "--umax", "-2"),
    ("--template", "acv", "--umax", "5", "--du", "-1"),
    ("--template", "acv", "--du", "0"),
    ("--template", "psd", "--wmax", "0"),
    ("--template", "psd", "--wmax", "20", "--dw", "nan"),
])
def test_formula_grid_flags_must_be_positive(capsys, flags):
    assert _call("formula", "--nsr", "0.1", *flags) == 1
    out, err = capsys.readouterr()
    assert out == ""
    flag = flags[-2]
    assert err.splitlines()[-1].startswith(f"noisycycles: error: {flag} must be positive")


@pytest.mark.parametrize("argv, message", [
    (("simulate", "--model", "hopf-exact", "--periods", "1", "--dt", "0"),
     "noisycycles: error: --dt must be positive and finite, got 0"),
    (("simulate", "--model", "hopf-exact", "--steps", "10", "--dt", "0"),
     "noisycycles: error: --dt must be positive and finite, got 0"),
    (("simulate", "--model", "hopf-exact", "--periods", "nan"),
     "noisycycles: error: --periods must be positive and finite, got nan"),
    (("simulate", "--model", "hopf-exact", "--periods", "1", "--record-every", "0"),
     "noisycycles simulate: error: record_every must be >= 1, got 0"),
    (("simulate", "--model", "hopf-linear", "--periods", "1", "--record-every", "0"),
     "noisycycles simulate: error: record_every must be >= 1, got 0"),
    (("simulate", "--model", "reduced", "--periods", "1", "--record-every", "0",
      "--grid-size", "256"),
     "noisycycles simulate: error: record_every must be >= 1, got 0"),
    (("simulate", "--model", "hopf-exact", "--periods", "1", "--initial", "nan,0"),
     "noisycycles simulate: error: initial_state must be finite, got nan at index 0"),
    (("simulate", "--model", "hopf-linear", "--periods", "1", "--initial", "nan,0"),
     "noisycycles simulate: error: initial_state must be finite, got nan at index 0"),
    (("decompose", "--system", "hopf", "--substeps", "0"),
     "noisycycles decompose: error: substeps must be >= 1, got 0"),
    (("decompose", "--system", "hopf", "--substeps", "-1"),
     "noisycycles decompose: error: substeps must be >= 1, got -1"),
    (("decompose", "--system", "hopf", "--transient", "nan"),
     "noisycycles decompose: error: transient_time must be positive and finite, got nan"),
    (("decompose", "--system", "hopf", "--transient", "0"),
     "noisycycles decompose: error: transient_time must be positive and finite, got 0.0"),
    (("decompose", "--system", "hopf", "--transient", "-1"),
     "noisycycles decompose: error: transient_time must be positive and finite, got -1.0"),
], ids=["dt-0-periods", "dt-0-steps", "periods-nan", "record-every-0-exact",
        "record-every-0-linear", "record-every-0-reduced", "initial-nan-exact",
        "initial-nan-linear", "substeps-0", "substeps-neg",
        "transient-nan", "transient-0", "transient-neg"])
def test_bad_numbers_are_usage_errors(tmp_path, capsys, argv, message):
    assert _call(*argv, "--nsr", "0.1", "--output", str(tmp_path / "x.csv")) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == message
    assert not (tmp_path / "x.csv").exists()


def test_a_nsr_that_is_not_finite_is_named_as_the_nsr(tmp_path, capsys):
    argv = ("simulate", "--model", "hopf-linear", "--periods", "1", "--nsr", "nan")
    assert _call(*argv, "--output", str(tmp_path / "x.csv")) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == "noisycycles simulate: error: nsr must be finite and >= 0, got nan"
    assert not (tmp_path / "x.csv").exists()


def test_a_nsr_whose_noise_amplitude_overflows_is_a_config_error(capsys):
    # sigma = nsr r sqrt(2 lambda), a Python float product, was inf, which
    # HopfParams refused as an infinite sigma
    argv = ("formula", "--template", "acv", "--nsr", "1e300", "--r", "1e300", "--lambda", "1e300")
    assert _call(*argv) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == ("noisycycles formula: error: the noise amplitude overflows at "
                                    "nsr 1e+300, lambda_ 1e+300, r 1e+300")


@pytest.mark.parametrize("flags, code, message", [
    (("--grid-size", "-3"), 1, "error: grid_size must be >= 2, got -3"),
    (("--grid-size", "0"), 1, "error: grid_size must be >= 2, got 0"),
    (("--bandwidth", "-1"), 1, "error: bandwidth must be positive and finite, got -1.0"),
    (("--bandwidth", "nan"), 1, "error: bandwidth must be positive and finite, got nan"),
])
def test_kde_arguments_are_usage_errors(capsys, simulated_csv, flags, code, message):
    argv = ("analyze", "--what", "kde", "--input", str(simulated_csv), "--column", "x")
    assert _call(*argv, *flags) == code
    out, err = capsys.readouterr()
    assert out == ""
    assert err == f"noisycycles analyze: {message}\n"


@pytest.mark.parametrize("max_lag", ["-1", "nan"])
def test_acv_max_lag_must_be_finite_and_nonnegative(capsys, simulated_csv, max_lag):
    argv = ("analyze", "--what", "acv", "--input", str(simulated_csv), "--column", "x")
    assert _call(*argv, "--max-lag", max_lag) == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        "noisycycles analyze: error: max_lag must be finite and >= 0, "
        f"got {float(max_lag)}\n"
    )


@pytest.mark.parametrize("what", ["acv", "psd"])
@pytest.mark.parametrize("dt", ["nan", "inf"])
def test_sample_spacing_must_be_positive_and_finite(capsys, simulated_csv, what, dt):
    argv = ("analyze", "--what", what, "--input", str(simulated_csv), "--column", "x")
    assert _call(*argv, "--dt", dt, "--max-lag", "1") == 1
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (
        f"noisycycles analyze: error: dt must be positive and finite, got {float(dt)}\n"
    )


def test_kde_of_a_constant_sample_stays_a_numerical_failure(tmp_path, capsys):
    series = tmp_path / "flat.csv"
    series.write_text("t,x\n" + "".join(f"{0.1 * k!r},1.0\n" for k in range(50)))
    assert _call("analyze", "--what", "kde", "--input", str(series)) == 2
    assert capsys.readouterr().err == (
        "noisycycles analyze: numerical failure: sample spread is degenerate (bandwidth 0.0)\n"
    )


@pytest.mark.parametrize("what, message", [
    ("acv", "series must be finite, got nan at index 1"),
    ("psd", "paths must be finite, got nan at index (0, 1)"),
    ("kde", "samples must be finite, got nan at index 1"),
    ("kurtosis", "samples must be finite, got nan at index 1"),
])
def test_a_series_that_is_not_finite_is_a_usage_error(tmp_path, capsys, what, message):
    # every estimator refuses it, where acv and psd once wrote nan rows
    series = tmp_path / "gap.csv"
    values = ["nan" if k == 1 else repr(float(np.sin(0.3 * k))) for k in range(40)]
    series.write_text("t,x\n" + "".join(f"{0.1 * k!r},{v}\n" for k, v in enumerate(values)))
    out = tmp_path / "est.csv"
    argv = ("analyze", "--what", what, "--input", str(series), "--max-lag", "1")
    assert _call(*argv, "--output", str(out)) == 1
    assert capsys.readouterr().err == f"noisycycles analyze: error: {message}\n"
    assert not out.exists()


def test_missing_input_exits_one(tmp_path, capsys):
    code = _call(
        "analyze", "--what", "acv", "--input", str(tmp_path / "nope.csv"),
        "--max-lag", "1",
    )
    assert code == 1


@pytest.mark.parametrize("argv, text, message", [
    # a UTF-8 byte-order mark, and a micro sign in a data row
    (("analyze", "--what", "kurtosis"), b"\xef\xbb\xbft,x\n0,1\n0.1,2\n",
     "the table must be ASCII, and it holds the byte 0xef"),
    (("analyze", "--what", "kurtosis"), "t,x\n0,1\n0.1,2\u00b5\n".encode(),
     "the table must be ASCII, and it holds the byte 0xc2"),
    # the micro sign past the first 8 KiB, which numpy's reader decodes
    (("analyze", "--what", "kurtosis"), ("t,x\n" + "0,1\n" * 3000 + "0.1,2\u00b5\n").encode(),
     "the table must be ASCII, and it holds the byte 0xc2"),
    (("fit", "--target", "acv"), b"lag\n0\n1\n",
     "a curve needs an x and a y column, got only ('lag',)"),
], ids=["byte-order mark", "non-ascii short", "non-ascii long", "one-column curve"])
def test_a_table_the_command_cannot_read_exits_one(tmp_path, capsys, argv, text, message):
    p = tmp_path / "f.csv"
    p.write_bytes(text)
    assert _call(*argv, "--input", str(p)) == 1
    out, err = capsys.readouterr()
    assert out == "" and "Traceback" not in err
    assert err.splitlines()[-1] == f"noisycycles {argv[0]}: error: {p}: {message}"


def test_fit_round_trip_through_files(tmp_path):
    curve = tmp_path / "template.csv"
    assert _call(
        "formula", "--template", "acv", "--nsr", "0.1", "--umax", "5",
        "--output", str(curve),
    ) == 0
    out = tmp_path / "fit.json"
    assert _call(
        "fit", "--target", "acv", "--input", str(curve), "--output", str(out),
    ) == 0
    doc = json.loads(out.read_text())
    assert doc["params"]["r"] == pytest.approx(1.0, abs=1e-4)
    assert doc["params"]["alpha"] == pytest.approx(TAU, abs=1e-3)
    assert doc["derived"]["period"] == pytest.approx(1.0, abs=1e-3)


def test_fit_from_a_start_with_no_finite_template_exits_one(tmp_path, capsys):
    curve = tmp_path / "template.csv"
    assert _call(
        "formula", "--template", "acv", "--nsr", "0.1", "--umax", "5",
        "--output", str(curve),
    ) == 0
    code = _call(
        "fit", "--target", "acv", "--input", str(curve), "--initial", "1e250,6.28,6.28,0.3",
    )
    assert code == 1
    assert "not finite at any" in capsys.readouterr().err


def test_simulate_reduced_stays_near_the_cycle(tmp_path):
    out = tmp_path / "red.csv"
    assert _call(
        "simulate", "--model", "reduced", "--system", "hopf", "--nsr", "0.1",
        "--periods", "3", "--seed", "11", "--grid-size", "256",
        "--output", str(out),
    ) == 0
    header, data = _rows(out.read_text())
    assert header == "t,x,y"
    radius = np.hypot(data[:, 1], data[:, 2])
    assert abs(np.median(radius) - 1.0) < 0.2


def _fake_results(*flags):
    out = []
    for i, (passed, skipped) in enumerate(flags, start=1):
        out.append(
            CriterionResult(
                index=i, name=f"check {i}", passed=passed,
                detail="detail here", skipped=skipped,
            )
        )
    return out


def test_validate_reports_all_green(capsys, monkeypatch):
    monkeypatch.setattr(
        validation_module, "run_all",
        lambda nino_path=None: _fake_results((True, False), (True, False)),
    )
    assert _call("validate") == 0
    out = capsys.readouterr().out
    assert "PASS" in out and "FAIL" not in out
    assert "2 of 2 criteria passed" in out


def test_validate_reports_failure_and_skip(capsys, monkeypatch):
    monkeypatch.setattr(
        validation_module, "run_all",
        lambda nino_path=None: _fake_results(
            (True, False), (False, False), (False, True)
        ),
    )
    assert _call("validate") == 1
    out = capsys.readouterr().out
    assert "FAIL" in out and "SKIP" in out
    assert "1 of 2 criteria passed, 1 skipped" in out


def _readme_commands():
    """The ``noisycycles`` lines of the README's command-line block, with
    continuation lines joined and comments dropped."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(ln, comments=True) for ln in lines if ln.startswith("noisycycles ")]


README_COMMANDS = [argv for argv in _readme_commands() if argv[1] != "validate"]


@pytest.fixture(scope="module")
def readme_exit_codes(tmp_path_factory):
    # every command in README order in one directory: later lines read what
    # earlier ones wrote
    with pytest.MonkeyPatch.context() as mp:
        mp.chdir(tmp_path_factory.mktemp("readme"))
        return [_call(*argv[1:]) for argv in README_COMMANDS]


def _readme_case(index, argv):
    name = f"{argv[1]}-{argv[3]}"  # subcommand and the value of its first flag
    if name == "simulate-reduced" and "van-der-pol" in argv:
        reason = "auto-thinning: record_every must divide n_steps"
        return pytest.param(index, id=name, marks=pytest.mark.xfail(strict=True, reason=reason))
    return pytest.param(index, id=name)


@pytest.mark.parametrize(
    "index", [_readme_case(i, argv) for i, argv in enumerate(README_COMMANDS)]
)
def test_readme_command_runs_as_written(readme_exit_codes, index):
    assert readme_exit_codes[index] == 0, " ".join(README_COMMANDS[index])


@pytest.mark.parametrize("mu", ["nan", "inf"])
def test_decompose_refuses_a_coefficient_that_is_not_finite(tmp_path, mu):
    # in a process of its own: before the check, the cycle search's
    # transient never returned
    src = Path(__file__).resolve().parents[1] / "src"
    path = os.pathsep.join(filter(None, [str(src), os.environ.get("PYTHONPATH")]))
    env = {**os.environ, "PYTHONPATH": path}
    argv = ["decompose", "--system", "van-der-pol", "--mu", mu, "--output", str(tmp_path / "f.csv")]
    done = subprocess.run(
        [sys.executable, "-m", "noisycycles.cli", *argv],
        env=env, capture_output=True, text=True, timeout=30,
    )
    assert done.returncode == 1
    assert done.stderr == f"noisycycles decompose: error: mu must be positive and finite, got {mu}\n"
    assert not (tmp_path / "f.csv").exists()


def _phase_trajectory(lp):
    """One member of a phase/deviation path as the table the CLI writes."""
    from noisycycles.sde import Trajectory

    values = np.column_stack([lp.tau, lp.z, lp.reconstructed])
    return Trajectory(dt=lp.dt, values=values, channel_labels=("tau", "z", "x", "y"))


@pytest.mark.parametrize("model", ["hopf-linear", "hopf-leading"])
def test_a_linear_ensemble_writes_the_files_of_its_solo_runs(tmp_path, model):
    from noisycycles.csvio import write_trajectory
    from noisycycles.hopf import HopfParams, simulate_hopf_linear
    from noisycycles.sde import IntegratorConfig, path_seed

    assert _call(
        "simulate", "--model", model, "--sigma", "0.3", "--alpha0", "5", "--steps", "2100",
        "--record-every", "7", "--seed", "7", "--paths", "3", "--initial", "0.05,0.3",
        "--output", str(tmp_path / "lin.csv"),
    ) == 0
    params = HopfParams(alpha=TAU, alpha0=5.0, lambda_=TAU, r=1.0, sigma=0.3)
    for k in range(3):
        config = IntegratorConfig(
            dt=1e-3, n_steps=2100, seed=path_seed(7, k), initial_state=(0.05, 0.3)
        )
        solo = simulate_hopf_linear(params, config, model == "hopf-leading", record_every=7)
        write_trajectory(tmp_path / f"solo_{k}.csv", _phase_trajectory(solo))
        written = (tmp_path / f"lin_{k:03d}.csv").read_bytes()
        assert written == (tmp_path / f"solo_{k}.csv").read_bytes(), k


@pytest.mark.parametrize("model", ["hopf-exact", "hopf-linear", "hopf-leading", "reduced"])
def test_one_path_writes_member_zero_of_any_ensemble(tmp_path, model):
    # --grid-size sets only the reduced model's cycle grid
    common = (
        "simulate", "--model", model, "--sigma", "0.3", "--grid-size", "256", "--steps", "300",
        "--record-every", "10", "--seed", "7", "--output",
    )
    assert _call(*common, str(tmp_path / "solo.csv")) == 0
    assert _call(*common, str(tmp_path / "pair.csv"), "--paths", "2") == 0
    solo = (tmp_path / "solo.csv").read_bytes()
    assert solo == (tmp_path / "pair_000.csv").read_bytes()
    assert solo != (tmp_path / "pair_001.csv").read_bytes()


def test_one_path_runs_are_the_library_runs_of_member_zero(tmp_path):
    # both models draw member 0's increments from path_seed(seed, 0)
    from noisycycles.csvio import write_trajectory
    from noisycycles.hopf import HopfParams, hopf_system, simulate_hopf_linear
    from noisycycles.sde import IntegratorConfig, integrate_path, path_seed

    params = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.3)
    common = ("--sigma", "0.3", "--steps", "300", "--record-every", "10", "--seed", "7")
    for model in ("hopf-exact", "hopf-linear"):
        out = tmp_path / f"{model}.csv"
        assert _call("simulate", "--model", model, *common, "--output", str(out)) == 0
    config = IntegratorConfig(dt=1e-3, n_steps=300, seed=path_seed(7, 0))
    exact = integrate_path(
        hopf_system(params), dataclasses.replace(config, initial_state=(1.0, 0.0)),
        record_every=10, channel_labels=("x", "y"),
    )
    linear = simulate_hopf_linear(params, config, record_every=10)
    write_trajectory(tmp_path / "exact.csv", exact)
    write_trajectory(tmp_path / "linear.csv", _phase_trajectory(linear))
    assert (tmp_path / "hopf-exact.csv").read_bytes() == (tmp_path / "exact.csv").read_bytes()
    assert (tmp_path / "hopf-linear.csv").read_bytes() == (tmp_path / "linear.csv").read_bytes()


def test_a_linear_run_writes_the_phase_path_layout(tmp_path):
    from noisycycles.hopf import HopfParams, sigma_for_nsr, simulate_hopf_linear
    from noisycycles.sde import IntegratorConfig, path_seed

    out = tmp_path / "phase.csv"
    assert _call(
        "simulate", "--model", "hopf-linear", "--nsr", "0.1", "--steps", "50",
        "--record-every", "1", "--seed", "3", "--output", str(out),
    ) == 0
    assert out.read_text().splitlines()[0] == "t,tau,z,x,y"
    vals, dt = read_column(out, column="tau")
    assert dt == pytest.approx(1e-3, abs=1e-15)
    params = HopfParams(
        alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=sigma_for_nsr(0.1, TAU, 1.0)
    )
    lp = simulate_hopf_linear(params, IntegratorConfig(dt=1e-3, n_steps=50, seed=path_seed(3, 0)))
    assert np.array_equal(vals, lp.tau)
