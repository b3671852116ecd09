"""Delimited-text and JSON persistence round-trips."""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycycles import (
    AcvEstimate,
    ConfigError,
    FitProblem,
    FitTarget,
    HopfParams,
    Trajectory,
    acv_formula,
    build_frame,
    find_limit_cycle,
    fit,
    hopf_system,
    sigma_for_nsr,
)
from noisycycles.csvio import (
    _table_text,
    load_json_config,
    read_column,
    read_curve,
    write_curve,
    write_cycle_frame,
    write_fit_json,
    write_trajectory,
)

TAU = 2.0 * np.pi


def _params():
    return HopfParams(
        alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=sigma_for_nsr(0.1, TAU, 1.0)
    )


def test_trajectory_round_trip_is_bitwise(tmp_path):
    rng = np.random.default_rng(0)
    tr = Trajectory(
        dt=0.25, values=rng.normal(size=(7, 3)), channel_labels=("x", "y", "w"), seed=9
    )
    p = tmp_path / "tr.csv"
    write_trajectory(p, tr)
    assert p.read_text().splitlines()[0] == "t,x,y,w"
    for j, label in enumerate(tr.channel_labels):
        values, dt = read_column(p, label)
        assert dt == 0.25
        # %.17g is enough digits to reproduce any double exactly
        assert values.tobytes() == tr.values[:, j].tobytes()


@settings(max_examples=25, deadline=None)
@given(
    st.lists(
        st.floats(allow_nan=False, allow_infinity=False, width=64),
        min_size=1,
        max_size=40,
    )
)
def test_any_finite_doubles_survive_the_text_format(tmp_path_factory, values):
    p = tmp_path_factory.mktemp("prop") / "curve.csv"
    x = np.arange(len(values), dtype=float)
    write_curve(p, "x", "y", x, np.array(values))
    _, back, _ = read_curve(p)
    assert np.array_equal(back, np.array(values))


def test_table_text_is_pinned_for_signed_zeros_infinities_nan_and_subnormals():
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1 / 3]
    text = _table_text(("a", "b"), [values, values[::-1]])
    assert text == (
        "a,b\n"
        "0,0.33333333333333331\n"
        "-0,4.9406564584124654e-324\n"
        "inf,nan\n"
        "-inf,-inf\n"
        "nan,inf\n"
        "4.9406564584124654e-324,-0\n"
        "0.33333333333333331,0\n"
    )
    # a header may hold what a format string would read as a field
    assert _table_text(("100%", "x"), [[1.0], [2.0]]) == "100%,x\n1,2\n"
    assert _table_text(("t",), [np.empty(0)]) == "t\n"


def test_curve_round_trip_and_column_reads(tmp_path):
    p = tmp_path / "curve.csv"
    x = np.linspace(0.0, 5.0, 11)
    y = np.cos(x) * 1e-17
    write_curve(p, "lag", "acv", x, y)
    x2, y2, labels = read_curve(p)
    assert labels == ("lag", "acv")
    assert np.array_equal(x2, x)
    assert np.array_equal(y2, y)
    _, y3, _ = read_curve(p, xlabel="lag", ylabel="acv")
    assert np.array_equal(y3, y)
    vals, dt = read_column(p, column="acv")
    assert np.array_equal(vals, y)
    assert dt is None  # no t column to infer from


def test_read_column_infers_dt_from_t(tmp_path):
    tr = Trajectory(
        dt=0.25,
        values=np.arange(12.0).reshape(4, 3),
        channel_labels=("x", "y", "w"),
    )
    p = tmp_path / "tr.csv"
    write_trajectory(p, tr)
    vals, dt = read_column(p, column="y")
    assert dt == 0.25
    assert np.array_equal(vals, tr.values[:, 1])
    first, _ = read_column(p)
    assert np.array_equal(first, tr.values[:, 0])


def test_cycle_frame_layout(tmp_path):
    quiet = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.0)
    cyc = find_limit_cycle(hopf_system(quiet), (0.3, 0.0), grid_size=256)
    fr = build_frame(cyc)
    p = tmp_path / "frame.csv"
    write_cycle_frame(p, cyc, fr)
    assert p.read_text().splitlines()[0] == "t,L1,L2,T1,T2,U11,U12,U21,U22"
    u11, _ = read_column(p, column="U11")
    assert np.array_equal(u11, fr.U[:, 0, 0])


def test_fit_json_schema(tmp_path):
    lags = np.linspace(0.0, 5.0, 400)
    est = AcvEstimate(lags=lags, values=acv_formula(_params(), lags))
    res = fit(FitProblem(target=FitTarget.ACV, curve=est))
    p = tmp_path / "fit.json"
    write_fit_json(p, res)
    doc = json.loads(p.read_text())
    assert set(doc) == {"params", "residual", "derived", "target", "n_points"}
    assert set(doc["params"]) == {"r", "alpha", "lambda", "sigma"}
    assert doc["params"]["alpha"] == pytest.approx(TAU, rel=1e-6)


def test_json_config_validation(tmp_path):
    p = tmp_path / "cfg.json"
    p.write_text('{"dt": 0.001, "seed": 4}')
    assert load_json_config(p) == {"dt": 0.001, "seed": 4}
    for bad in ('["x"]', '{"dt": '):
        p.write_text(bad)
        with pytest.raises(ConfigError):
            load_json_config(p)


def test_malformed_rows_report_location(tmp_path):
    p = tmp_path / "bad.csv"
    p.write_text("t,x\n0.0,1.0\n0.1,oops\n")
    with pytest.raises(ConfigError, match="row 1"):
        read_curve(p)
    p.write_text("t,x\n0.0,1.0\n0.1\n")
    with pytest.raises(ConfigError):
        read_curve(p)
    p.write_text("")
    with pytest.raises(ConfigError):
        read_curve(p)


def test_trajectory_needs_uniform_times(tmp_path):
    # a trajectory whose times are not uniform gives no dt to infer
    p = tmp_path / "ragged.csv"
    p.write_text("t,x\n0.0,1.0\n0.1,2.0\n0.3,3.0\n")
    values, dt = read_column(p)
    assert dt is None and values.tolist() == [1.0, 2.0, 3.0]


@pytest.mark.parametrize("times, uniform", [
    ([0.0, 0.1, 0.2, 0.3], True),
    ([0.0, 0.1, 0.3], False),
    ([0.0, 0.0, 0.0], False),
    ([0.3, 0.2, 0.1], False),
    ([0.0, 0.1, 0.2 + 5e-10], True),
    ([0.0, 0.1, 0.2 + 2e-9], False),
    ([0.0, 10.0, 20.0 + 5e-9], True),
    ([0.0, 10.0, 20.0 + 2e-8], False),
    ([0.0, float("nan"), 0.2], False),
])
def test_column_reads_infer_dt_only_from_uniform_times(tmp_path, times, uniform):
    # positive steps within 1e-9 max(dt, 1) of the first give the first
    p = tmp_path / "t.csv"
    p.write_text("t,x\n" + "".join(f"{t!r},1.0\n" for t in times))
    _, dt = read_column(p)
    assert dt == (times[1] - times[0] if uniform else None)


def test_failed_write_leaves_nothing_behind(tmp_path):
    class Boom:
        dt = 0.1
        values = np.array([["a"]], dtype=object)
        channel_labels = ("x",)
        seed = 0

    target = tmp_path / "atomic.csv"
    with pytest.raises(Exception):
        write_trajectory(target, Boom())
    assert not target.exists()
    assert list(tmp_path.iterdir()) == []


def test_a_refused_rename_removes_its_part_file(tmp_path):
    # the temporary file is written, then the rename onto a directory fails
    target = tmp_path / "taken.csv"
    target.mkdir()
    with pytest.raises(IsADirectoryError):
        write_curve(target, "x", "y", [1.0], [2.0])
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []
