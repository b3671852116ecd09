"""Core integrator behavior: seeding, schemes, convergence, guard rails."""

import dataclasses
import shutil
import signal
import stat
import subprocess
import sysconfig
import threading
import time
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from noisycycles import (
    ConfigError,
    DivergenceError,
    HopfParams,
    IntegratorConfig,
    Scheme,
    SdeSystem,
    hopf_system,
    integrate_ensemble,
    integrate_path,
    ornstein_uhlenbeck,
    ou_exact_endpoint,
    path_seed,
    strong_order_estimate,
    van_der_pol,
)
from noisycycles import _stepkernel
from noisycycles import sde as sde_module
from noisycycles.sde import _CHUNK, _chunks, _members, _numpy_loop, _record, _stepping

from conftest import compiled_and_numpy, requires_compiler, threads
import test_member_loops as contract

TAU = 2.0 * np.pi


def _system(name):
    # the system of an integrator case of the member-loop contract
    return contract.SYSTEMS[name](contract.CASES[name].sigmas[-1])


def _compiled_loop(system):
    # the compiled member loop of ``system`` for the 3/2 scheme, or None
    return _stepkernel.loop_for(*_stepping(system, Scheme.STRONG_RK15, 1e-3))


def test_config_validation():
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.0, n_steps=10, seed=1)
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.1, n_steps=0, seed=1)
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.1, n_steps=10, seed=-1)
    with pytest.raises(ConfigError):
        IntegratorConfig(dt=0.1, n_steps=10, seed=1, scheme="rk")


def test_system_validation():
    with pytest.raises(ConfigError):
        SdeSystem(dimension=0, drift=lambda y: y)
    with pytest.raises(ConfigError):
        SdeSystem(dimension=2, drift=lambda y: y, noise_matrix=np.eye(3))
    with pytest.raises(ConfigError):
        SdeSystem(dimension=1, drift=lambda y: y, isotropic_sigma=-1.0)
    for make, message in (
        (lambda: SdeSystem(dimension=2, drift=lambda y: y, noise_matrix=np.eye(2),
                           isotropic_sigma=0.5), "noise_matrix conflicts with isotropic_sigma"),
        (lambda: SdeSystem(dimension=2.0, drift=lambda y: y), "dimension must be an integer, got 2.0"),
        (lambda: ornstein_uhlenbeck(1.0, 0.1, dimension=2.5), "dimension must be an integer, got 2.5"),
    ):
        with pytest.raises(ConfigError) as err:
            make()
        assert str(err.value) == message


def test_path_seed_is_stable_and_distinct():
    assert path_seed(3, 5) == path_seed(3, 5)
    seen = {path_seed(0, k) for k in range(64)}
    assert len(seen) == 64
    with pytest.raises(ConfigError):
        path_seed(-1, 0)


def test_path_seed_refuses_a_seed_or_index_that_is_not_integral():
    for args, message in (
        ((1.5, 0), "seed must be an integer, got 1.5"),
        ((1, 2.7), "index must be an integer, got 2.7"),
    ):
        with pytest.raises(ConfigError) as err:
            path_seed(*args)
        assert str(err.value) == message
    # the range check and its message come first, as before
    with pytest.raises(ConfigError, match=r"^seed must be >= 0, got -1\.5$"):
        path_seed(-1.5, 0)
    assert path_seed(np.int64(1), np.uint32(2)) == path_seed(1, 2)


def test_members_are_path_seeds_and_a_solo_run_is_its_seed():
    assert _members(7, None) == ([7], None)
    assert _members(7, 3) == ([path_seed(7, k) for k in range(3)], [0, 1, 2])
    with pytest.raises(ConfigError, match="n_paths must be >= 1, got 0"):
        _members(7, 0)


@settings(max_examples=60, deadline=None)
@given(
    p=st.integers(1, 2 * _CHUNK),
    whole=st.integers(0, 3),
    part=st.floats(0.0, 1.0),
    record_every=st.integers(1, 9),
)
@example(p=1, whole=1, part=0.5, record_every=7)
@example(p=20, whole=2, part=0.0, record_every=5)
@example(p=_CHUNK + 1, whole=3, part=0.0, record_every=2)
def test_chunks_cover_the_run_and_record_keeps_every_qth_row(p, whole, part, record_every):
    # runs of whole budgets plus a part of one, so spans end on, before
    # and after chunk boundaries that record_every need not divide
    budget = max(1, _CHUNK // p)
    n_steps = max(1, whole * budget + int(part * budget))
    spans = list(_chunks(n_steps, p))
    dones, widths = zip(*spans)
    assert list(dones) == np.cumsum((0,) + widths[:-1]).tolist()
    assert sum(widths) == n_steps
    assert 1 <= min(widths) and max(widths) <= budget
    # row i of a chunk is the state after step done + i + 1
    all_rows = np.arange(1, n_steps + 1)
    out = np.full(n_steps // record_every + 1, -1)
    for done, span in spans:
        _record(out, all_rows[done:done + span], done, record_every)
    assert out[0] == -1
    assert np.array_equal(out[1:], all_rows[record_every - 1::record_every])


def test_trajectory_accessors():
    system = ornstein_uhlenbeck(1.0, 0.5, dimension=2)
    config = IntegratorConfig(dt=0.01, n_steps=20, seed=4, initial_state=(1.0, -1.0))
    tr = integrate_path(system, config, channel_labels=("a", "b"))
    assert tr.dimension == 2
    assert tr.values.shape == (21, 2)
    assert np.allclose(tr.t[:3], [0.0, 0.01, 0.02])
    thin = integrate_path(system, config, record_every=10)
    assert thin.dt == pytest.approx(0.1)
    assert np.allclose(thin.t, [0.0, 0.1, 0.2])


# ---------------------------------------------------------------------------
# the integrator's named examples of the member-loop contract, whose
# properties test_member_loops.py tests over every simulator

def test_ensemble_member_is_its_solo_run_across_chunk_boundaries():
    for name, scheme, n_paths, record_every, beyond, k, n_threads in [
        ("hopf", Scheme.STRONG_RK15, 20, 5, 1, 19, 1),
        ("hopf", Scheme.STRONG_RK15, 20, 5, 1, 13, 3),
        ("van der pol", Scheme.EULER_MARUYAMA, 7, 3, 2, 6, 4),
        ("full noise", Scheme.STRONG_RK15, 20, 5, 1, 7, 2),
        ("full noise", Scheme.EULER_MARUYAMA, 3, 7, 2, 2, 2),
        ("row-wise", Scheme.STRONG_RK15, 5, 7, 2, 3, 1),
    ]:
        config = contract.past_a_chunk(n_paths, record_every, beyond, scheme=scheme, seed=17,
                                       initial_state=contract.CASES[name].start)
        contract.check_member_is_solo(name, config, record_every, n_paths, k, n_threads)


@requires_compiler
def test_compiled_loop_is_bitwise_the_numpy_loop():
    for name, scheme, n_paths, record_every, beyond, start, n_threads in [
        ("hopf", Scheme.STRONG_RK15, 20, 5, 1, (1.0, -0.0), 1),
        ("hopf", Scheme.STRONG_RK15, 20, 5, 1, (1.0, -0.0), 3),
        ("ou-3", Scheme.EULER_MARUYAMA, 5, 2, 3, (0.7, -0.0, 2.0), 2),
        ("ou-3 full noise", Scheme.EULER_MARUYAMA, 3, 7, 2, (-0.0, 0.0, -0.0), 2),
    ]:
        config = contract.past_a_chunk(n_paths, record_every, beyond, scheme=scheme, seed=23,
                                       initial_state=start)
        contract.check_compiled_is_numpy(name, config, record_every, n_paths, n_threads)


@requires_compiler
@pytest.mark.parametrize("scheme", list(Scheme))
def test_noiseless_runs_from_signed_zeros_are_bitwise_the_numpy_loop(scheme):
    # with S = 0 every S dW is a zero, and numpy's product makes it +0.0;
    # from -0.0 states, where the drift's term is -0.0 too, the sign of
    # that zero reaches the states
    for name, start in [("van der pol", (-0.0, -0.0)), ("van der pol", (-0.0, 0.0)),
                        ("hopf", (-0.0, -0.0)), ("ou-3", (-0.0, 0.0, -0.0))]:
        config = IntegratorConfig(dt=1e-2, n_steps=50, scheme=scheme, seed=5, initial_state=start)
        for n_threads in (1, 3):
            contract.check_compiled_is_numpy(name, config, 1, 8, n_threads, sigma=0.0)


def test_member_groups_cover_the_blocks_and_an_interrupt_stops_them():
    calls = []

    def record(a, b):
        calls.append((a, b))

    with threads(2):
        _stepkernel._in_threads(record, 7, 3)
    assert sorted(calls) == [(0, 3), (3, 6), (6, 7)]  # blocks [0, 3) and [3, 7)

    def interrupted(a, b):
        if threading.current_thread() is threading.main_thread():
            raise KeyboardInterrupt
        record(a, b)
        time.sleep(0.01)

    calls.clear()
    with threads(2), pytest.raises(KeyboardInterrupt):
        _stepkernel._in_threads(interrupted, 200, 1)
    # the other thread stops after its current call, not after 100 of them
    assert len(calls) < 50

    def failing_elsewhere(a, b):
        assert threading.current_thread() is not threading.main_thread() or a == 0
        if a == 3:
            raise ValueError(f"members {a}-{b}")

    # blocks [0, 1), [1, 3) and [3, 5): the third thread's error reaches the caller
    with threads(3), pytest.raises(ValueError, match="members 3-4"):
        _stepkernel._in_threads(failing_elsewhere, 5, 1)


def test_an_interrupt_halts_a_long_call_and_waits_for_it_to_return():
    # interrupted while it waits, the caller asks a call that runs long (a
    # whole compiled fit) to stop early by halt(), and raises only once it
    # has returned: until then it writes into the caller's arrays
    halted, returned = threading.Event(), []

    def long_call(a, b):
        if threading.current_thread() is threading.main_thread():
            return
        time.sleep(0.05)  # the caller waits in join by now
        signal.pthread_kill(threading.main_thread().ident, signal.SIGINT)
        assert halted.wait(10.0)
        time.sleep(0.05)
        returned.append(a)

    with threads(2), pytest.raises(KeyboardInterrupt):
        _stepkernel._in_threads(long_call, 2, 1, halted.set)
    assert returned == [1]


@requires_compiler
@pytest.mark.parametrize("scheme", list(Scheme))
def test_compiled_loop_is_bitwise_the_numpy_loop_in_the_order_harness(scheme):
    # strong_order_estimate feeds the numpy loop pre-composed increments (the
    # strided ones here are not contiguous): a built library must not change them
    for name in ("van der pol", "ou-3 full noise"):
        system = _system(name)
        y0 = (2.0, -0.0, 0.5)[:system.dimension]
        compiled, reference = compiled_and_numpy(
            lambda: strong_order_estimate(
                system, y0, 0.5, (0.02, 0.01, 0.005), n_paths=8, scheme=scheme, seed=3
            ).rms_errors.tobytes()
        )
        assert compiled == reference
        rng = np.random.default_rng(4)
        dw, dz = 0.05 * rng.standard_normal((2, 300, 6, system.dimension, 2))[..., ::2, :, 0]

        def run():
            rec = np.empty((3, 101, system.dimension))
            rec[:, 0] = y0
            loop = _numpy_loop(*_stepping(system, scheme, 0.01), increments=(dw, dz))
            assert (loop(rec, 3, 300, ()) == -1).all()
            return rec.tobytes()

        compiled, reference = compiled_and_numpy(run)
        assert compiled == reference


@requires_compiler
def test_the_order_harness_and_full_noise_runs_take_the_numpy_loop(monkeypatch):
    # strong_order_estimate feeds the numpy loop pre-composed increments: it
    # calls no compiled loop (test_member_loops.py checks the full-noise runs)
    calls = []
    loop_for = _stepkernel.loop_for

    def spy(system, *stepping):
        loop = loop_for(system, *stepping)
        if loop is None:
            return None

        def counted(*args):
            calls.append(system)
            return loop(*args)

        return counted

    monkeypatch.setattr(_stepkernel, "loop_for", spy)
    for name in ("van der pol", "ou-3 full noise"):
        system = _system(name)
        y0 = (2.0, -0.0, 0.5)[:system.dimension]
        for scheme in Scheme:
            strong_order_estimate(
                system, y0, 0.5, (0.02, 0.01, 0.005), n_paths=8, scheme=scheme, seed=3
            )
    assert calls == []
    # the spy does see a diagonal S drawing in the compiled loop
    ou = _system("ou-3")
    integrate_ensemble(ou, IntegratorConfig(dt=1e-3, n_steps=50, initial_state=(0.7, -0.0, 2.0)), 3)
    assert calls == [ou]


@requires_compiler
def test_a_replaced_drift_runs_itself_not_the_kernel():
    params = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.3)
    other = hopf_system(dataclasses.replace(params, alpha0=0.5 * TAU)).drift
    replaced = dataclasses.replace(hopf_system(params), drift=other)
    assert _compiled_loop(replaced) is None
    direct = SdeSystem(dimension=2, drift=other, isotropic_sigma=0.3, vectorized=True)
    config = IntegratorConfig(dt=1e-2, n_steps=200, seed=8, initial_state=(1.0, 0.0))
    got = integrate_path(replaced, config).values.tobytes()
    assert got == integrate_path(direct, config).values.tobytes()
    assert got != integrate_path(hopf_system(params), config).values.tobytes()
    # coefficients that numpy would not round as float64 keep the numpy loop too
    wide = dataclasses.replace(params, lambda_=np.longdouble(TAU))
    assert _compiled_loop(hopf_system(wide)) is None


def _files_under(root):
    return {
        p: (p.stat().st_size, p.stat().st_mtime_ns)
        for p in Path(root).rglob("*") if p.is_file() and "__pycache__" not in p.parts
    }


@requires_compiler
def test_kernel_is_built_once_into_the_user_cache(tmp_path, monkeypatch):
    package = Path(_stepkernel.__file__).parent
    before = _files_under(package.parent)
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    assert _stepkernel._library() is not None
    cache = tmp_path / "noisycycles"
    assert [p.name for p in cache.iterdir()] == [_stepkernel._NAME]  # no temporaries left
    assert stat.S_IMODE(cache.stat().st_mode) == 0o700
    assert _files_under(package.parent) == before
    # a new process loads the cached file and compiles nothing
    monkeypatch.setattr(_stepkernel, "_loaded", {})
    monkeypatch.setattr(_stepkernel, "_COMPILER", str(tmp_path / "no-such-compiler"))
    assert _stepkernel._library() is not None


@requires_compiler
def test_a_build_keeps_the_builds_of_other_sources(tmp_path, monkeypatch):
    # two checkouts of different sources share one cache: neither build
    # removes the other's, so alternating between them compiles nothing
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    cache = tmp_path / "noisycycles"
    other = "0" * 64 + ".so"
    _stepkernel._build(str(cache / other), _stepkernel._SOURCE + "/* another checkout */\n")
    (cache / "other.tmp").write_bytes(b"")  # another process's build in progress
    assert _stepkernel._library() is not None
    assert sorted(p.name for p in cache.iterdir()) == sorted([_stepkernel._NAME, other, "other.tmp"])
    monkeypatch.setattr(_stepkernel, "_loaded", {})
    monkeypatch.setattr(_stepkernel, "_COMPILER", str(tmp_path / "no-such-compiler"))
    monkeypatch.setattr(_stepkernel, "_NAME", other)
    assert _stepkernel._library() is not None


@requires_compiler
@pytest.mark.skipif(shutil.which("nm") is None, reason="no nm")
def test_the_library_exports_only_its_nc_functions():
    # the member loops, the fit's restarts and its two templates'
    # objectives, the frame's transport, the cycle finder's DOP853 steps and
    # csvio's table bodies
    assert _stepkernel._library() is not None
    library = Path(_stepkernel._cache_dir(), _stepkernel._NAME)
    listing = subprocess.run(
        ["nm", "-D", "--defined-only", str(library)], capture_output=True, text=True, check=True
    ).stdout
    exported = {line.split()[-1] for line in listing.splitlines() if line.strip()}
    assert exported == {"nc_hopf", "nc_van_der_pol", "nc_ornstein_uhlenbeck", "nc_phase_deviation",
                        "nc_linear", "nc_fit", "nc_acv", "nc_psd", "nc_frame", "nc_dop853",
                        "nc_table"}


@pytest.mark.parametrize(
    "broken",
    ["no compiler", "no objcopy", "cache not writable", "numpy's static library missing"],
)
def test_without_the_kernel_the_numpy_loop_gives_the_same_bytes(tmp_path, monkeypatch, broken):
    system = _system("hopf")
    config = IntegratorConfig(dt=1e-3, n_steps=600, seed=2, initial_state=(1.0, 0.0))

    def run():
        return [tr.values.tobytes() for tr in integrate_ensemble(system, config, n_paths=5)]

    expected = run()
    if broken == "no compiler":
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_stepkernel, "_COMPILER", str(tmp_path / "no-such-compiler"))
    elif broken == "no objcopy":
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
        monkeypatch.setattr(_stepkernel, "_OBJCOPY", str(tmp_path / "no-such-objcopy"))
    elif broken == "cache not writable":
        blocked = tmp_path / "file"
        blocked.write_text("")
        monkeypatch.setenv("XDG_CACHE_HOME", str(blocked))
    else:
        monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path / "cache"))
        monkeypatch.setattr(_stepkernel, "_ARCHIVE", str(tmp_path / "lib" / "libnpyrandom.a"))
    assert _stepkernel._library() is None
    assert _compiled_loop(system) is None
    assert run() == expected
    # nothing left behind in the cache
    assert [p.name for p in tmp_path.rglob("*") if p.is_file()] in ([], ["file"])


@requires_compiler
def test_the_build_needs_no_python_headers(tmp_path, monkeypatch):
    # numpy's bitgen.h and libnpyrandom.a suffice: no -I names a directory
    # of Python.h, neither this interpreter's nor any other.  The first
    # command copies the archive, the second compiles
    commands = []
    run = _stepkernel.subprocess.run

    def spy(command, **kwargs):
        commands.append(command)
        return run(command, **kwargs)

    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_stepkernel.subprocess, "run", spy)
    assert _stepkernel._library() is not None
    [objcopy, command] = commands
    assert (objcopy[0], command[0]) == (_stepkernel._OBJCOPY, _stepkernel._COMPILER)
    includes = [a[2:] for a in command if a.startswith("-I")]
    assert includes == [np.get_include()]
    python = {sysconfig.get_paths()[k] for k in ("include", "platinclude")}
    assert not any(Path(d, "Python.h").exists() or d in python for d in includes)


def test_ensemble_member_matches_solo_run():
    config = IntegratorConfig(dt=0.005, n_steps=400, seed=9, initial_state=(0.3, -0.2, 0.1))
    contract.check_member_is_solo("ou-3", config, 1, 8, 5)


def test_vectorized_flag_does_not_change_results():
    lam = 1.3

    def drift_rowwise(y):
        return -lam * y

    slow = SdeSystem(dimension=2, drift=drift_rowwise, isotropic_sigma=0.4, vectorized=False)
    fast = SdeSystem(dimension=2, drift=drift_rowwise, isotropic_sigma=0.4, vectorized=True)
    config = IntegratorConfig(dt=0.01, n_steps=50, seed=11, initial_state=(1.0, 2.0))
    assert np.array_equal(
        integrate_path(slow, config).values, integrate_path(fast, config).values
    )


def test_order_harness_checks_the_initial_state_as_the_integrator_does():
    system = ornstein_uhlenbeck(1.0, 0.5, dimension=3)
    message = r"initial_state must have shape \(3,\), got \(2,\)"
    with pytest.raises(ConfigError, match=message):
        integrate_path(system, IntegratorConfig(dt=0.1, n_steps=4, initial_state=(1.0, 0.0)))
    with pytest.raises(ConfigError, match=message):
        strong_order_estimate(system, (1.0, 0.0), 1.0, [0.1, 0.05, 0.025], n_paths=2)


@pytest.mark.parametrize("name, value", [
    ("t_final", -1.0), ("t_final", 0.0), ("t_final", np.nan), ("t_final", np.inf),
    ("dt", -0.01), ("dt", 0.0), ("dt", np.nan), ("dt", np.inf),
])
def test_order_harness_needs_a_positive_finite_horizon_and_steps(monkeypatch, name, value):
    # refused before any draw
    monkeypatch.setattr(sde_module, "_generator", None)
    t_final, dts = (value, [0.1, 0.05, 0.025]) if name == "t_final" else (1.0, [0.1, value, 0.025])
    with pytest.raises(ConfigError) as err:
        strong_order_estimate(ornstein_uhlenbeck(1.0, 0.5), (1.0,), t_final, dts, n_paths=2)
    assert str(err.value) == f"{name} must be positive and finite, got {value}"


def test_order_harness_raises_the_ensemble_divergence_error():
    # every path of a noiseless blow-up leaves at the same step: the lowest
    # member is named, as integrate_ensemble names it
    system = SdeSystem(dimension=1, drift=lambda y: y**3, isotropic_sigma=0.0, vectorized=True)
    with np.errstate(over="ignore", invalid="ignore"), pytest.raises(DivergenceError) as err:
        strong_order_estimate(system, (2.0,), 1.0, [0.1, 0.05, 0.025], n_paths=3)
    assert err.value.path_index == 0
    assert str(err.value).endswith(f"at step {err.value.step_index} (path 0)")


def test_order_harness_derives_each_member_once(monkeypatch):
    # the step sizes run on composed increments and read no generator, so
    # the members' seeds and generators are derived once, not per step size
    calls = {"path_seed": 0, "_generator": 0}
    for name in calls:
        original = getattr(sde_module, name)

        def spy(*args, original=original, name=name):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(sde_module, name, spy)
    for exact in (ou_exact_endpoint(1.0, 0.5), None):
        calls.update(dict.fromkeys(calls, 0))
        strong_order_estimate(ornstein_uhlenbeck(1.0, 0.5), (1.0,), 1.0, [0.1, 0.05, 0.025],
                              n_paths=3, exact_endpoint=exact)
        assert calls == {"path_seed": 3, "_generator": 3}


def test_strong_order_euler_maruyama_on_linear_process():
    est = strong_order_estimate(
        ornstein_uhlenbeck(2.0 * np.pi, 0.5),
        (1.0,),
        1.0,
        (0.02, 0.01, 0.005),
        n_paths=100,
        scheme=Scheme.EULER_MARUYAMA,
        seed=77,
        exact_endpoint=ou_exact_endpoint(2.0 * np.pi, 0.5),
    )
    assert est.slope == pytest.approx(1.0, abs=0.15)
    assert np.all(np.diff(est.rms_errors) < 0)  # decreasing dt, decreasing error


def test_strong_order_three_halves_scheme_superconverges_on_linear_drift():
    # on linear drift the derivative-free 3/2 scheme matches the exact
    # update one order beyond its generic guarantee: slope 2, not 1.5
    est = strong_order_estimate(
        ornstein_uhlenbeck(2.0 * np.pi, 0.5),
        (1.0,),
        1.0,
        (0.02, 0.01, 0.005),
        n_paths=100,
        scheme=Scheme.STRONG_RK15,
        seed=77,
        exact_endpoint=ou_exact_endpoint(2.0 * np.pi, 0.5),
    )
    assert est.slope == pytest.approx(2.0, abs=0.2)


def test_strong_order_on_nonlinear_drift_against_fine_grid_reference():
    # van der Pol has no closed-form endpoint: each scheme is measured
    # against itself on the fine grid, where the generic orders show
    from noisycycles import van_der_pol

    system = van_der_pol(1.0, sigma=0.5)
    slopes = {
        scheme: strong_order_estimate(
            system,
            (2.0, 0.0),
            1.0,
            (0.02, 0.01, 0.005),
            n_paths=100,
            scheme=scheme,
            seed=77,
        ).slope
        for scheme in (Scheme.EULER_MARUYAMA, Scheme.STRONG_RK15)
    }
    assert slopes[Scheme.EULER_MARUYAMA] == pytest.approx(1.0, abs=0.15)
    assert slopes[Scheme.STRONG_RK15] == pytest.approx(1.5, abs=0.2)


def test_deterministic_limit_is_second_order():
    from noisycycles import HopfParams, hopf_system

    params = HopfParams(alpha=2 * np.pi, alpha0=2 * np.pi, lambda_=2 * np.pi, r=1.0, sigma=0.0)
    system = hopf_system(params)

    def endpoint(dt):
        config = IntegratorConfig(
            dt=dt, n_steps=int(round(1.0 / dt)), seed=0, initial_state=(1.0, 0.0)
        )
        return integrate_path(system, config).values[-1]

    ref = np.array([1.0, 0.0])  # after one full period
    e1 = np.linalg.norm(endpoint(1e-3) - ref)
    e2 = np.linalg.norm(endpoint(5e-4) - ref)
    assert e1 / e2 == pytest.approx(4.0, abs=0.7)


def test_stationary_variance_of_linear_process():
    lam, sig = 4.0, 0.8
    system = ornstein_uhlenbeck(lam, sig)
    config = IntegratorConfig(dt=2e-3, n_steps=200_000, seed=21, initial_state=(0.0,))
    tr = integrate_path(system, config)
    x = tr.values[5_000:, 0]
    assert x.var() == pytest.approx(sig**2 / (2 * lam), rel=0.08)


@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_non_finite_model_coefficients_are_config_errors(value):
    for build, message in (
        (lambda: van_der_pol(value), f"mu must be positive and finite, got {value}"),
        (lambda: van_der_pol(1.0, value), f"isotropic_sigma must be finite and >= 0, got {value}"),
        (lambda: ornstein_uhlenbeck(value, 0.5), f"lambda_ must be positive and finite, got {value}"),
        (lambda: ornstein_uhlenbeck(1.0, value), f"isotropic_sigma must be finite and >= 0, got {value}"),
        (lambda: SdeSystem(dimension=2, drift=lambda y: -y, isotropic_sigma=value),
         f"isotropic_sigma must be finite and >= 0, got {value}"),
    ):
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == message
    # values below the bounds get the same rule's message
    for build, message in (
        (lambda: van_der_pol(-value), f"mu must be positive and finite, got {-value}"),
        (lambda: ornstein_uhlenbeck(-value, 0.5), f"lambda_ must be positive and finite, got {-value}"),
        (lambda: van_der_pol(1.0, -value), f"isotropic_sigma must be finite and >= 0, got {-value}"),
    ):
        if np.isnan(value):
            continue  # -nan is NaN, refused above
        with pytest.raises(ConfigError) as err:
            build()
        assert str(err.value) == message


def test_non_integral_counts_are_config_errors():
    system = ornstein_uhlenbeck(1.0, 0.5)
    for kwargs, message in (
        (dict(n_steps=10.0), "n_steps must be an integer, got 10.0"),
        (dict(n_steps=10, seed=1.5), "seed must be an integer, got 1.5"),
        (dict(n_steps=10, seed=np.float64(2.0)), f"seed must be an integer, got {np.float64(2)!r}"),
    ):
        with pytest.raises(ConfigError) as err:
            IntegratorConfig(dt=0.1, initial_state=(1.0,), **kwargs)
        assert str(err.value) == message
    # the bounds and their messages come first, as before
    with pytest.raises(ConfigError, match=r"^n_steps must be >= 1, got 0\.5$"):
        IntegratorConfig(dt=0.1, n_steps=0.5)
    # numpy integers count as integers (test_member_loops.py checks the
    # refusals of record_every and n_paths, for every simulator)
    config = IntegratorConfig(dt=0.1, n_steps=np.int64(10), seed=np.uint32(3), initial_state=(1.0,))
    members = integrate_ensemble(system, config, n_paths=np.int64(2), record_every=np.int32(5))
    assert members[1].seed == path_seed(3, 1)
