"""Plain-text input and output: delimited tables and the fit JSON schema.

All tables are comma-separated with a single header line and full double
precision values (17 significant digits), so a written file reproduces the
arrays bit-for-bit on read.  Writes go through a temporary file in the
destination directory followed by an atomic rename; readers report the
offending line of malformed input.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .exceptions import ConfigError
from .sde import Trajectory

__all__ = [
    "write_trajectory",
    "read_trajectory",
    "write_cycle_frame",
    "write_curve",
    "read_curve",
    "read_column",
    "write_fit_json",
    "load_json_config",
]

_FMT = "%.17g"


def _atomic_bytes(path, payload: bytes):
    directory = os.path.dirname(os.path.abspath(path)) or "."
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".part")
    try:
        with os.fdopen(fd, "wb") as handle:
            handle.write(payload)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _table_text(header, columns):
    """The text of a table: one header line, then one line per row.  One
    template of ``_FMT`` fields formats every value at once."""
    arr = np.column_stack([np.asarray(c, dtype=float) for c in columns])
    row = ",".join([_FMT] * arr.shape[1]) + "\n"
    return ",".join(header) + "\n" + (row * arr.shape[0]) % tuple(arr.ravel().tolist())


def _write_table(path, header, columns):
    _atomic_bytes(path, _table_text(header, columns).encode("ascii"))


def _read_table(path):
    try:
        with open(path, "r", encoding="ascii") as handle:
            header = handle.readline().strip()
            if not header:
                raise ConfigError(f"{path}: empty file")
            labels = tuple(field.strip() for field in header.split(","))
            try:
                data = np.loadtxt(handle, delimiter=",", ndmin=2)
            except UnicodeDecodeError:
                raise  # reported below, wherever the byte is
            except ValueError as exc:
                # numpy's message carries the row/column of the bad cell
                raise ConfigError(f"{path}: {exc}") from None
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except UnicodeDecodeError as exc:
        raise ConfigError(
            f"{path}: the table must be ASCII, and it holds the byte 0x{exc.object[exc.start]:02x}"
        ) from None
    if data.shape[0] == 0:
        raise ConfigError(f"{path}: no data rows")
    if data.shape[1] != len(labels):
        raise ConfigError(
            f"{path}: header names {len(labels)} columns, rows have {data.shape[1]}"
        )
    return labels, data


def write_trajectory(path, trajectory: Trajectory):
    """Table with header t,<label1>,<label2>,..."""
    header = ("t",) + tuple(trajectory.channel_labels)
    _write_table(path, header, [trajectory.t] + list(trajectory.values.T))


def read_trajectory(path) -> Trajectory:
    """Inverse of :func:`write_trajectory`; the time column must be uniform."""
    labels, data = _read_table(path)
    if labels[0] != "t" or len(labels) < 2:
        raise ConfigError(f"{path}: expected header t,<labels...>, got {labels}")
    if data.shape[0] < 2:
        raise ConfigError(f"{path}: need at least two samples")
    dt = _uniform_step(data[:, 0])
    if dt is None:
        raise ConfigError(f"{path}: time column is not uniformly spaced")
    return Trajectory(dt=dt, values=data[:, 1:], channel_labels=tuple(labels[1:]))


def _uniform_step(t):
    """The spacing of time column ``t`` (two or more samples) when it is
    positive and every step is within 1e-9 max(dt, 1) of it, else None."""
    steps = np.diff(t)
    dt = steps[0]
    if dt > 0 and np.abs(steps - dt).max() <= 1e-9 * max(dt, 1.0):
        return float(dt)
    return None


def write_cycle_frame(path, cycle, frame):
    """Cycle and frame samples: grid time, L, T, then U flattened row-major."""
    n = cycle.dimension
    header = (
        ("t",)
        + tuple(f"L{i + 1}" for i in range(n))
        + tuple(f"T{i + 1}" for i in range(n))
        + tuple(f"U{i + 1}{j + 1}" for i in range(n) for j in range(n))
    )
    cols = (
        [cycle.grid]
        + list(cycle.L.T)
        + list(cycle.T.T)
        + list(frame.U.reshape(cycle.grid.size, n * n).T)
    )
    _write_table(path, header, cols)


def write_curve(path, xlabel, ylabel, x, y):
    """Two-column estimate table, e.g. lag,acv / omega,psd / x,density."""
    _write_table(path, (xlabel, ylabel), [x, y])


def read_curve(path, xlabel=None, ylabel=None):
    """Read a two-column table; returns (x, y, labels).

    When labels are given they select columns by name; otherwise the
    first two columns are used.
    """
    labels, data = _read_table(path)
    if data.shape[1] < 2:
        raise ConfigError(f"{path}: a curve needs an x and a y column, got only {labels}")

    def column(name, default_index):
        if name is None:
            return data[:, default_index]
        try:
            return data[:, labels.index(name)]
        except ValueError:
            raise ConfigError(
                f"{path}: no column {name!r}; have {labels}"
            ) from None

    return column(xlabel, 0), column(ylabel, 1), labels


def read_column(path, column=None):
    """One named column (default: the second) plus the time spacing.

    Returns (values, dt); dt is None when the table has no uniform t
    column to infer it from.
    """
    labels, data = _read_table(path)
    if column is None:
        index = 1 if len(labels) > 1 else 0
    else:
        try:
            index = labels.index(column)
        except ValueError:
            raise ConfigError(f"{path}: no column {column!r}; have {labels}") from None
    dt = None
    if labels[0] == "t" and data.shape[0] >= 2:
        dt = _uniform_step(data[:, 0])
    return data[:, index], dt


def _fit_text(result):
    return json.dumps(result.to_dict(), indent=2, sort_keys=True) + "\n"


def write_fit_json(path, result):
    """FitResult as a JSON object (schema: params/residual/derived/...)."""
    _atomic_bytes(path, _fit_text(result).encode("ascii"))


def load_json_config(path) -> dict:
    """Flat JSON object mapping flag names to values."""
    try:
        with open(path, "r", encoding="utf-8") as handle:
            config = json.load(handle)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc}") from None
    except json.JSONDecodeError as exc:
        raise ConfigError(f"{path}: invalid JSON ({exc})") from None
    if not isinstance(config, dict):
        raise ConfigError(f"{path}: config must be a JSON object")
    return config
