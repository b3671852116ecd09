"""Delimited-text and JSON persistence round-trips."""

import contextlib
import json
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import example, given, settings
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
from noisycycles import _stepkernel
from noisycycles.csvio import (
    _percent_text,
    _table_text,
    load_json_config,
    read_column,
    read_curve,
    write_curve,
    write_cycle_frame,
    write_fit_json,
    write_trajectory,
)

from conftest import numpy_loop, requires_compiler

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


@pytest.mark.parametrize("path", ["compiled", "percent"])
def test_table_text_is_pinned_for_signed_zeros_infinities_nan_and_subnormals(path):
    values = [0.0, -0.0, np.inf, -np.inf, np.nan, 5e-324, 1 / 3]
    with numpy_loop() if path == "percent" else contextlib.nullcontext():
        text = _table_text(("a", "b"), [values, values[::-1]])
        # a header may hold what a format string would read as a field
        assert _table_text(("100%", "x"), [[1.0], [2.0]]) == "100%,x\n1,2\n"
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


def _compiled_is_percent(values, cols=1):
    arr = np.asarray(values, dtype=np.float64).reshape(-1, cols)
    text = _stepkernel.table_text(arr)
    assert text is not None, "nc_table declined the table"
    assert text == _percent_text(arr).encode("ascii")


@requires_compiler
@settings(max_examples=300, deadline=None)
@given(st.lists(st.floats(allow_nan=False, allow_infinity=False, width=64),
                min_size=1, max_size=12))
@example([1 + 2**-17, 1 + 3 * 2**-17, 1e16, 1e17, 1e-5, 1e-4, 5e-324])
def test_the_compiled_text_is_pythons_on_any_finite_double(values):
    _compiled_is_percent(values)


@requires_compiler
def test_the_compiled_text_is_pythons_on_random_bit_patterns():
    bits = np.random.default_rng(42).integers(0, 2**64, 110_000, dtype=np.uint64, endpoint=False)
    values = bits.view(np.float64)
    values = values[np.isfinite(values)][:100_000]
    assert values.size == 100_000
    _compiled_is_percent(values, cols=4)


def _neighbours(*values):
    return [x for v in values for x in (np.nextafter(v, -np.inf), v, np.nextafter(v, np.inf))]


# ties at 17 digits, which round to even, scaled by 10^k for k from 1 up
# to 24, the largest k at which a double can be a tie; where the exponent
# form starts, above and below; the ends of the range; integers beyond 17
# digits
_DIRECTED = [
    1 + 2**-17, 1 + 3 * 2**-17, -(1 + 2**-17), 1e15 + 0.25, 1e15 + 0.75, 43 * 2**-22,
    45 * 2**-22, 2**-25, 3 * 2**-25, 2.5, 0.5, 1e23,
    *_neighbours(1e16, 1e17, 1e-5, 1e-4, 1.0, 0.1, 9.999999999999999e16, 1e22),
    5e-324, 1e-323, 2.2250738585072014e-308, 2.225073858507201e-308,
    np.finfo(np.float64).max, -np.finfo(np.float64).max,
    1e17 + 16, 2.0**60, 2.0**63 + 2048, 123456789012345678901234.0, 1e300,
    0.0, -0.0, np.inf, -np.inf, np.nan, -np.nan,
]


@requires_compiler
def test_the_compiled_text_is_pythons_on_directed_values():
    values = np.array(_DIRECTED)
    values[-1] = np.copysign(np.nan, -1.0)  # a NaN with its sign bit set
    assert np.signbit(values[-1])
    _compiled_is_percent(values)
    _compiled_is_percent(values[:values.size // 2 * 2], cols=2)
    assert _stepkernel.table_text(values[-2:].reshape(1, 2)) == b"nan,nan\n"
    assert _stepkernel.table_text(np.array([[1 + 2**-17, 1 + 3 * 2**-17]])) == (
        b"1.0000076293945312,1.0000228881835938\n")


def test_the_powers_of_ten_are_within_half_a_unit_in_exact_integers():
    words, twos = _stepkernel._powers_of_ten()
    assert len(twos) == len(_stepkernel._TENS)
    for i, k in enumerate(_stepkernel._TENS):
        P, q = int(words[2 * i]) << 64 | int(words[2 * i + 1]), int(twos[i])
        assert 2**127 <= P < 2**128
        error = abs(Fraction(P) * Fraction(2) ** q - Fraction(10) ** k)
        assert error <= Fraction(2) ** q / 2, k
        # nc_table decides ties exactly where the product is exact
        assert (error == 0) == (0 <= k <= 55), k


def test_without_the_library_the_tables_have_the_same_bytes(tmp_path):
    rng = np.random.default_rng(3)
    scales = 10.0 ** rng.integers(-30, 30, 50)[:, None]
    tr = Trajectory(dt=0.1, values=rng.normal(size=(50, 2)) * scales, channel_labels=("x", "y"),
                    seed=1)
    files = []
    for path in ("compiled", "percent"):
        files.append(tmp_path / f"{path}.csv")
        with numpy_loop() if path == "percent" else contextlib.nullcontext():
            write_trajectory(files[-1], tr)
    assert files[0].read_bytes() == files[1].read_bytes()


@requires_compiler
def test_a_table_the_compiled_text_declines_is_written_by_percent(monkeypatch, tmp_path):
    # without the power of ten a value needs, nc_table declines the table
    values = [[0.5, 1e-300], [2.0, 3.0]]
    assert _stepkernel.table_text(np.array(values)) is not None
    words, twos = _stepkernel._powers_of_ten()
    at = -_stepkernel._TENS.start
    monkeypatch.setattr(_stepkernel, "_TENS", range(0, 30))
    monkeypatch.setattr(_stepkernel, "_powers_of_ten",
                        lambda: (words[2 * at:2 * (at + 30)], twos[at:at + 30]))
    assert _stepkernel.table_text(np.array(values)) is None
    assert _stepkernel.table_text(np.array(values[1:])) is not None
    write_curve(tmp_path / "c.csv", "x", "y", *np.array(values).T)
    assert (tmp_path / "c.csv").read_text() == "x,y\n0.5,1e-300\n2,3\n"


@pytest.mark.parametrize("label", ["\u03bb", "a,b", "a\rb", "a\nb", "\n"])
def test_a_label_the_reader_would_refuse_is_a_config_error(tmp_path, label):
    with pytest.raises(ConfigError, match=r"^a column label must be ASCII without ',', CR or LF, "
                                          r"got "):
        write_curve(tmp_path / "c.csv", label, "y", [1.0], [2.0])
    with pytest.raises(ConfigError):
        _table_text(("x", label), [[1.0], [2.0]])
    assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("x, y, message", [
    ([1.0, 2.0], [3.0], "column 'y' must have shape (2,), got (1,)"),
    ([1.0], [3.0, 4.0], "column 'y' must have shape (1,), got (2,)"),
    (["a"], [3.0], "column 'x' must be an array of real numbers, got dtype <U1"),
    ([1.0], [[3.0]], "column 'y' must have shape (1,), got (1, 1)"),
    ([[1.0], [2.0, 3.0]], [3.0], "column 'x' must be an array of real numbers, got dtype object"),
    ([1.0], [1j], "column 'y' must be an array of real numbers, got dtype complex128"),
    ([], [], "column 'x' must have shape (N,), got (0,)"),
])
def test_a_column_that_is_not_a_real_vector_of_the_tables_length_is_a_config_error(
        tmp_path, x, y, message):
    with pytest.raises(ConfigError) as err:
        write_curve(tmp_path / "c.csv", "x", "y", x, y)
    assert str(err.value) == message
    assert list(tmp_path.iterdir()) == []


def test_a_write_into_a_missing_directory_names_the_output(tmp_path):
    target = tmp_path / "missing" / "c.csv"
    with pytest.raises(ConfigError) as err:
        write_curve(target, "x", "y", [1.0], [2.0])
    assert str(err.value) == f"cannot write {target}: No such file or directory"


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
    with pytest.raises(ConfigError, match=f"^cannot write {target}: Is a directory$"):
        write_curve(target, "x", "y", [1.0], [2.0])
    assert list(tmp_path.iterdir()) == [target]
    assert list(target.iterdir()) == []
