"""Session-wide test settings, and helpers that run a simulation with the
compiled step loops and with the numpy loops they must equal."""

import contextlib
import dataclasses
import shutil

import numpy as np
import pytest

from noisycycles import DivergenceError, _stepkernel, path_seed

requires_compiler = pytest.mark.skipif(
    shutil.which(_stepkernel._COMPILER) is None or shutil.which(_stepkernel._OBJCOPY) is None,
    reason="no C compiler or no objcopy",
)


@pytest.fixture(scope="session", autouse=True)
def _kernel_cache(tmp_path_factory):
    # the compiled step loop is built once per session in a temporary
    # cache, not in the user's
    with pytest.MonkeyPatch.context() as mp:
        mp.setenv("XDG_CACHE_HOME", str(tmp_path_factory.mktemp("xdg-cache")))
        yield


@contextlib.contextmanager
def numpy_loop():
    # what a host without a compiler runs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_stepkernel, "_library", lambda: None)
        yield


@contextlib.contextmanager
def threads(count):
    # the compiled member loop split across at most ``count`` threads,
    # whatever the CPUs
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_stepkernel, "_threads", lambda P: min(count, P))
        yield


def compiled_and_numpy(run):
    """``run()`` with the compiled loops, then with the numpy loops; a
    divergence is compared by message, step and path."""
    outcomes = []
    for loop in (contextlib.nullcontext(), numpy_loop()):
        with loop, np.errstate(over="ignore", invalid="ignore"):
            try:
                outcomes.append(run())
            except DivergenceError as err:
                outcomes.append((str(err), err.step_index, err.path_index))
    return outcomes


def member(config, k):
    # member k's solo config, seeded path_seed(seed, k) here, not by the library
    return dataclasses.replace(config, seed=path_seed(config.seed, k))
