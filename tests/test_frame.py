"""Cycle detection, frame transport, reduction, and reconstruction."""

import contextlib
import dataclasses
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from scipy.integrate import DOP853, solve_ivp

from noisycycles import (
    ConfigError,
    CycleParameterization,
    FixedPointError,
    HopfParams,
    IntegratorConfig,
    NoCycleError,
    NumericsError,
    ReducedModel,
    SdeSystem,
    StabilityWarning,
    build_frame,
    find_limit_cycle,
    hopf_system,
    ornstein_uhlenbeck,
    reconstruct,
    reduce,
    sigma_for_nsr,
    simulate_hopf_linear,
    simulate_reduced,
    van_der_pol,
)
from noisycycles import _stepkernel
from noisycycles import frame as frame_module
from noisycycles.frame import (
    _ESCAPE_RADIUS, _nearest_orthogonal, _periodic_spline,
)
from noisycycles.sde import TRUST_RADIUS

from conftest import compiled_and_numpy, numpy_loop, requires_compiler
import test_member_loops as contract

TAU = 2.0 * np.pi

# high-accuracy constants computed beforehand with an adaptive ODE solver
# at tolerance 1e-12 (independent of the code under test)
VDP_PERIOD = 6.663286859323118
VDP_LOG_FLOQUET = -7.0589328088


@pytest.fixture(scope="module")
def hopf_cycle():
    return contract.limit_cycle("hopf")


@pytest.fixture(scope="module")
def hopf_frame(hopf_cycle):
    return build_frame(hopf_cycle)


@pytest.fixture(scope="module")
def vdp_cycle():
    return contract.limit_cycle("van der pol")


@pytest.fixture(scope="module")
def cycle_3d():
    return contract.limit_cycle("3-d")


@pytest.mark.parametrize("field", ["grid", "L", "f_on_L", "T", "J"])
def test_a_cycle_with_a_sample_that_is_not_finite_is_a_numerics_error(hopf_cycle, field):
    # NaN passed the tangents' checks, and building the frame failed in
    # scipy's spline with a ValueError
    values = getattr(hopf_cycle, field).copy()
    values[5] = np.nan
    with pytest.raises(NumericsError, match=rf"^cycle {field} must be finite, got nan at index"):
        dataclasses.replace(hopf_cycle, **{field: values})


def test_circular_cycle_geometry(hopf_cycle):
    assert hopf_cycle.period == pytest.approx(1.0, abs=1e-9)
    radius = np.linalg.norm(hopf_cycle.L, axis=1)
    assert radius == pytest.approx(np.ones(radius.size), abs=1e-8)
    speed = np.linalg.norm(hopf_cycle.f_on_L, axis=1)
    assert speed == pytest.approx(np.full(speed.size, TAU), abs=1e-6)
    # curvature of a unit circle traversed at alpha: |dT/dt| / speed = 1
    assert hopf_cycle.kappa == pytest.approx(np.ones(speed.size), abs=1e-6)


def test_rotation_frame_closed_form(hopf_cycle, hopf_frame):
    # for a circular cycle the transported frame is a rigid rotation
    t = hopf_cycle.grid
    c, s = np.cos(TAU * t), np.sin(TAU * t)
    rot = np.moveaxis(np.array([[c, -s], [s, c]]), -1, 0)
    assert np.abs(hopf_frame.U - rot).max() < 1e-8


def test_planar_normal_is_outward(hopf_cycle, hopf_frame):
    # tangent at the anchor rotated -90 degrees: radial, pointing out
    anchor = hopf_cycle.L[0] / np.linalg.norm(hopf_cycle.L[0])
    normal = hopf_frame.basis_P0[:, 0]
    assert normal @ anchor == pytest.approx(1.0, abs=1e-9)


def test_reduction_of_the_circular_cycle(hopf_cycle, hopf_frame):
    sigma = sigma_for_nsr(0.1, TAU, 1.0)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        model = reduce(hopf_cycle, hopf_frame, sigma)
    assert np.abs(model.J0 + TAU).max() < 1e-8
    assert model.speed == pytest.approx(np.full(model.speed.size, TAU), abs=1e-6)
    assert model.sigma == sigma
    # the Jacobian negated repels: J0 = +2 pi, whose one-period monodromy
    # exp(2 pi) = 535.49 is no contraction
    with pytest.warns(StabilityWarning, match=r"spectral radius 535\.49\d >= 1"):
        reduce(dataclasses.replace(hopf_cycle, J=-hopf_cycle.J), hopf_frame, sigma)


def test_relaxation_cycle_period_and_stability(vdp_cycle):
    assert vdp_cycle.period == pytest.approx(VDP_PERIOD, abs=1e-8)
    frame = build_frame(vdp_cycle)
    model = reduce(vdp_cycle, frame, 0.1)
    # transverse monodromy of the scalar reduced flow
    j0 = model.J0[:, 0, 0]
    closed = np.append(j0, j0[0])
    log_floquet = np.trapezoid(closed, dx=vdp_cycle.period / j0.size)
    assert log_floquet == pytest.approx(VDP_LOG_FLOQUET, abs=1e-5)


def test_frame_invariants_hold_everywhere(vdp_cycle):
    frame = build_frame(vdp_cycle)
    eye = np.eye(2)
    ortho = max(np.linalg.norm(u.T @ u - eye) for u in frame.U)
    assert ortho < 1e-8
    carried = np.einsum("mij,j->mi", frame.U, vdp_cycle.T[0])
    assert np.linalg.norm(carried - vdp_cycle.T, axis=1).max() < 1e-6
    rate = np.array([np.linalg.norm(v, 2) for v in frame.V])
    want = np.linalg.norm(vdp_cycle.tangent_rate(), axis=1)
    assert np.abs(rate - want).max() < 1e-6
    # build_frame's batched operator norms are these, bit for bit
    assert frame_module._frame_deviations(vdp_cycle, frame)[2] == np.abs(rate - want).max()


def test_spiral_sink_is_reported_as_fixed_point():
    spiral = SdeSystem(
        dimension=2,
        drift=lambda y: np.stack(
            [-0.3 * y[..., 0] - y[..., 1], y[..., 0] - 0.3 * y[..., 1]], axis=-1
        ),
        isotropic_sigma=0.0,
        vectorized=True,
    )
    with pytest.raises(FixedPointError):
        find_limit_cycle(spiral, (1.0, 0.0))


def test_noisy_system_is_rejected():
    noisy = hopf_system(
        HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.5)
    )
    with pytest.raises(ConfigError):
        find_limit_cycle(noisy, (0.3, 0.0))


@pytest.mark.parametrize("transient_time", [np.nan, 0.0, -1.0, np.inf, 1e-300, 0.0099])
def test_cycle_search_needs_a_finite_transient_of_at_least_a_hundredth(transient_time):
    # the transient is also the search's window: at 1e-300 the search would
    # take 1e303 windows, and never returned
    with pytest.raises(ConfigError) as err:
        find_limit_cycle(van_der_pol(1.0), (2.0, 0.0), grid_size=16, transient_time=transient_time)
    assert str(err.value) == f"transient_time must be finite and >= 0.01, got {transient_time}"


def test_the_least_transient_finds_the_cycle():
    cycle = find_limit_cycle(van_der_pol(1.0), (2.0, 0.0), grid_size=16, transient_time=0.01)
    assert cycle.period == pytest.approx(VDP_PERIOD, abs=1e-8)


@pytest.mark.parametrize("jacobian, message", [
    (lambda y: np.eye(3), "jacobian must have shape (16, 2, 2), got (16, 3, 3)"),
    (lambda y: np.ones(2), "jacobian must have shape (16, 2, 2), got (16, 2)"),
    (lambda y: [[1.0, 0.0], [0.0]], "jacobian must be an array of real numbers, got dtype object"),
    (lambda y: 1j * np.eye(2), "jacobian must be an array of real numbers, got dtype complex128"),
], ids=["3x3", "vector", "ragged", "complex"])
def test_a_jacobian_that_is_not_a_real_n_by_n_array_is_a_config_error(jacobian, message):
    # a 3 x 3 Jacobian escaped from the tangent rate's einsum as numpy's
    # ValueError
    system = dataclasses.replace(van_der_pol(1.0), jacobian=jacobian)
    with pytest.raises(ConfigError) as err:
        find_limit_cycle(system, (2.0, 0.0), grid_size=16)
    assert str(err.value) == message


def test_a_jacobian_that_is_not_finite_is_the_cycles_numerics_error():
    system = dataclasses.replace(van_der_pol(1.0), jacobian=lambda y: np.full((2, 2), np.nan))
    with pytest.raises(NumericsError, match=r"^cycle J must be finite, got nan at index \(0, 0, 0\)$"):
        find_limit_cycle(system, (2.0, 0.0), grid_size=16)


@pytest.mark.parametrize("substeps", [0, -1, 2.0, 1.5])
def test_frame_needs_a_substep(hopf_cycle, substeps):
    rule = "be >= 1" if substeps < 1 else "be an integer"
    with pytest.raises(ConfigError) as err:
        build_frame(hopf_cycle, substeps=substeps)
    assert str(err.value) == f"substeps must {rule}, got {substeps!r}"


def test_row_wise_drift_gives_the_vectorized_cycle_bitwise():
    quiet = contract.quiet_hopf()
    row_wise = dataclasses.replace(quiet, vectorized=False)
    # a row-wise drift that returns a plain list of floats
    as_list = dataclasses.replace(row_wise, drift=lambda y: quiet.drift(y).tolist())
    a = find_limit_cycle(quiet, (0.3, 0.0), grid_size=64)
    for other in (row_wise, as_list):
        b = find_limit_cycle(other, (0.3, 0.0), grid_size=64)
        for field in ("grid", "L", "f_on_L", "T", "J", "kappa", "speed"):
            assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


@pytest.mark.parametrize("grid_size, message", [
    (100.5, "grid_size must be an integer, got 100.5"),
    (7, "grid_size must be >= 8, got 7"),
    (64.0, "grid_size must be an integer, got 64.0"),
    ("64", "grid_size must be an integer, got '64'"),
    (None, "grid_size must be an integer, got None"),
], ids=["100.5", "7", "64.0", "64", "None"])
def test_cycle_search_needs_an_integer_grid_of_eight_up_front(monkeypatch, grid_size, message):
    def no_search(*args, **kwargs):
        raise AssertionError("the grid must be checked before any integration")

    monkeypatch.setattr(frame_module, "DOP853", no_search)
    with pytest.raises(ConfigError) as err:
        find_limit_cycle(contract.quiet_hopf(), (0.3, 0.0), grid_size=grid_size)
    assert str(err.value) == message


# the single-state drift find_limit_cycle hands its integrators
_SPEC_SYSTEMS = {
    "hopf": hopf_system(HopfParams(alpha=TAU, alpha0=0.5 * TAU, lambda_=TAU, r=1.3, sigma=0.0)),
    "van-der-pol": van_der_pol(2.0),
    "ou-1": ornstein_uhlenbeck(1.5, 0.0),
    "ou-3": ornstein_uhlenbeck(0.7, 0.0, dimension=3),
}


@settings(max_examples=200, deadline=None)
@given(
    name=st.sampled_from(sorted(_SPEC_SYSTEMS)),
    state=st.lists(st.floats(-_ESCAPE_RADIUS, _ESCAPE_RADIUS), min_size=3, max_size=3),
)
@example(name="hopf", state=[0.0, -0.0, 0.0])
@example(name="hopf", state=[-0.0, -0.0, 0.0])
@example(name="van-der-pol", state=[-0.0, 0.0, 0.0])
@example(name="ou-3", state=[0.0, -0.0, -_ESCAPE_RADIUS])
@example(name="hopf", state=[_ESCAPE_RADIUS, -_ESCAPE_RADIUS, 0.0])
@example(name="van-der-pol", state=[-_ESCAPE_RADIUS, _ESCAPE_RADIUS, 0.0])
def test_the_single_state_drift_is_bitwise_the_numpy_drift(name, state):
    system = _SPEC_SYSTEMS[name]
    y = np.array(state[:system.dimension])
    got = np.asarray(_stepkernel.single_state(system)(0.0, y), dtype=float)
    assert got.tobytes() == system.drift(y).tobytes()
    assert got.tobytes() == system.drift(y[None])[0].tobytes()


def test_the_single_state_drift_leaves_a_division_by_zero_to_numpy():
    # r = 1e-170 is positive, but r^2 underflows to zero
    system = hopf_system(HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1e-170, sigma=0.0))
    y = np.array([0.5, -0.25])
    with np.errstate(divide="ignore", invalid="ignore"):
        got = np.asarray(_stepkernel.single_state(system)(0.0, y), dtype=float)
        assert got.tobytes() == system.drift(y).tobytes()


@pytest.mark.parametrize("mu, guess", [(0.5, (2.0, 0.0)), (1.0, (2.0, 0.0)), (2.0, (2.0, 0.0)),
                                       (None, (0.3, 0.0))], ids=["mu0.5", "mu1", "mu2", "hopf"])
def test_cycle_from_the_single_state_drift_is_bitwise_the_numpy_drifts(mu, guess):
    # the benchmark's four oscillators at a small grid
    system = contract.quiet_hopf() if mu is None else van_der_pol(mu)
    numpy_drift = dataclasses.replace(system, drift=lambda y: system.drift(y))
    assert _stepkernel.single_state(numpy_drift) is None
    a = find_limit_cycle(system, guess, grid_size=64)
    b = find_limit_cycle(numpy_drift, guess, grid_size=64)
    assert a.period == b.period
    for field in ("L", "f_on_L", "T", "J", "kappa", "speed"):
        assert getattr(a, field).tobytes() == getattr(b, field).tobytes(), field


# the compiled DOP853 stepper (_stepkernel.dop853), and scipy's stepping,
# which a host without the library runs
STEPPERS = {"compiled": contextlib.nullcontext, "scipy": numpy_loop}


@pytest.mark.parametrize("stepper", sorted(STEPPERS))
def test_dop853_gets_the_single_state_drift_only_while_the_spec_holds(monkeypatch, stepper):
    params = HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.0)
    quiet = hopf_system(params)
    twin = _stepkernel.single_state(quiet).__code__
    handed = []
    real = frame_module.DOP853

    def spy(fun, *args, **kwargs):
        handed.append(fun)
        return real(fun, *args, **kwargs)

    monkeypatch.setattr(frame_module, "DOP853", spy)
    cases = {
        "spec": (quiet, True),
        "row-wise": (dataclasses.replace(quiet, vectorized=False), True),
        "replaced": (dataclasses.replace(quiet, drift=lambda y: quiet.drift(y)), False),
        "long-double": (hopf_system(dataclasses.replace(params, lambda_=np.longdouble(TAU))),
                        False),
    }
    for name, (system, fast) in cases.items():
        handed.clear()
        with STEPPERS[stepper]():
            find_limit_cycle(system, (0.3, 0.0), grid_size=16, transient_time=5.0)
        # the transient, the recurrence search's windows and the one turn
        assert len(handed) >= 3, name
        assert all((fun.__code__ is twin) == fast for fun in handed), name


def _scipy_steps_refused(self):
    raise AssertionError("scipy stepped the solver")


@requires_compiler
def test_the_cycle_finder_takes_the_compiled_stepper_while_the_spec_holds(monkeypatch):
    # scipy still builds each solver, its first f and step; the compiled
    # stepper alone steps them without scipy's step
    monkeypatch.setattr(frame_module.DOP853, "step", _scipy_steps_refused)
    for system, guess in [(contract.quiet_hopf(), (0.3, 0.0)), (van_der_pol(1.0), (2.0, 0.0))]:
        find_limit_cycle(system, guess, grid_size=16, transient_time=5.0)
        replaced = dataclasses.replace(system, drift=lambda y, system=system: system.drift(y))
        assert _stepkernel.dop853(replaced) is None
        with pytest.raises(AssertionError, match="^scipy stepped the solver$"):
            find_limit_cycle(replaced, guess, grid_size=16, transient_time=5.0)
    # without the library, numpy's loops or scipy's tables, scipy steps
    for missing in ("_library", "_ufunc_loops", "_dop853_tables"):
        with monkeypatch.context() as mp:
            mp.setattr(_stepkernel, missing, lambda: None)
            assert _stepkernel.dop853(van_der_pol(1.0)) is None


def _windowed_search(system, guess, transient_time):
    """find_limit_cycle's transient and recurrence search as written
    before the search stepped DOP853 itself: one solve_ivp call with
    section and escape events per window, its crossings read after the
    call.  Returns the drift handed to the integrators and the crossing
    times and states up to the converged one."""
    rhs = _stepkernel.single_state(system) or (lambda t, y: system.drift(y))
    relax = solve_ivp(rhs, (0.0, transient_time), np.asarray(guess, dtype=float),
                      method="DOP853", rtol=1e-10, atol=1e-12)
    ystar = relax.y[:, -1]
    drift = np.asarray(rhs(0.0, ystar), dtype=float)
    normal = drift / np.linalg.norm(drift)

    def section(t, y):
        return normal @ (y - ystar)

    section.direction = 1.0

    def escape(t, y):
        return y @ y - _ESCAPE_RADIUS**2

    escape.terminal = True
    t_cur, y_cur = 0.0, ystar
    times, states = [], []
    while t_cur < 1000.0:
        sol = solve_ivp(rhs, (t_cur, t_cur + min(transient_time, 1000.0 - t_cur)), y_cur,
                        method="DOP853", rtol=1e-12, atol=1e-12, events=[section, escape])
        if sol.status == 1:
            raise NoCycleError("trajectory escaped")
        for te, ye in zip(sol.t_events[0], sol.y_events[0]):
            times.append(te)
            states.append(ye)
            if len(states) >= 2:
                gap = np.linalg.norm(states[-1] - states[-2])
                if gap <= 1e-10 * (1.0 + np.linalg.norm(states[-1])):
                    return rhs, times, states
        t_cur, y_cur = sol.t[-1], sol.y[:, -1]
    raise NoCycleError("return map did not converge")


def _tilted_hopf():
    return SdeSystem(dimension=3, drift=contract.tilted_hopf_drift, isotropic_sigma=0.0,
                     vectorized=True)


# the benchmark's four oscillators, van der Pol and two Hopf systems
# searched over several windows, and the 3-D cycle over one window and
# over many
_SEARCHES = {
    "vdp-mu0.5": (lambda: van_der_pol(0.5), (2.0, 0.0), 100.0),
    "vdp-mu1": (lambda: van_der_pol(1.0), (2.0, 0.0), 100.0),
    "vdp-mu2": (lambda: van_der_pol(2.0), (2.0, 0.0), 100.0),
    "hopf": (contract.quiet_hopf, (0.3, 0.0), 100.0),
    **{f"vdp-mu{mu:g}-window{window:g}": (lambda mu=mu: van_der_pol(mu), (2.0, 0.0), window)
       for mu in (0.5, 1.0, 2.0) for window in (3.0, 5.0, 20.0)},
    **{f"hopf-window{window:g}": (contract.quiet_hopf, (0.3, 0.0), window)
       for window in (3.0, 5.0, 20.0)},
    **{f"hopf-shifted-window{window:g}": (lambda: _SPEC_SYSTEMS["hopf"], (0.3, 0.1), window)
       for window in (3.0, 5.0, 20.0, 100.0)},
    "tilted-window100": (_tilted_hopf, (0.5, 0.1, 0.0), 100.0),
    "tilted-window0.7": (_tilted_hopf, (0.5, 0.1, 0.0), 0.7),
}


def _spy_on_the_search(monkeypatch):
    """Record the crossings the search yields and the (t_old, t) of the
    last step of each stretch of steps it takes (frame._advance), which
    ends at a crossing, an escape or a window's end on both paths."""
    crossings, steps = [], []
    real_search, real_advance = frame_module._section_crossings, frame_module._advance

    def search(*args):
        for crossing in real_search(*args):
            crossings.append(crossing)
            yield crossing

    def advance(solver, *args, **kwargs):
        ended = real_advance(solver, *args, **kwargs)
        steps.append((solver.t_old, solver.t))
        return ended

    monkeypatch.setattr(frame_module, "_section_crossings", search)
    monkeypatch.setattr(frame_module, "_advance", advance)
    return crossings, steps


@pytest.mark.parametrize("stepper", sorted(STEPPERS))
@pytest.mark.parametrize("case", sorted(_SEARCHES))
def test_the_search_finds_the_windowed_solve_ivp_crossings_bitwise(monkeypatch, case, stepper):
    # the compiled stepper calls numpy's own matmul and vecdot loops, so it
    # gives scipy's bits whichever BLAS kernels and SIMD loops the host
    # dispatches; the cycle's other samples are computed from L and the
    # period alone
    make, guess, window = _SEARCHES[case]
    system = make()
    rhs, times, states = _windowed_search(system, guess, window)
    crossings, _ = _spy_on_the_search(monkeypatch)
    with STEPPERS[stepper]():
        cycle = find_limit_cycle(system, guess, grid_size=64, transient_time=window)
    assert np.array([te for te, _ in crossings]).tobytes() == np.array(times).tobytes()
    assert [ye.tobytes() for _, ye in crossings] == [ye.tobytes() for ye in states]
    period = times[-1] - times[-2]
    assert cycle.period == period
    one_turn = solve_ivp(rhs, (0.0, period), states[-1], method="DOP853",
                         rtol=1e-12, atol=1e-14, dense_output=True)
    assert cycle.L.tobytes() == one_turn.sol(cycle.grid).T.tobytes()


@pytest.mark.parametrize("stepper", sorted(STEPPERS))
@pytest.mark.parametrize("case", ["vdp-mu2", "vdp-mu2-window3"])
def test_the_search_stops_in_the_step_of_the_converged_crossing(monkeypatch, case, stepper):
    make, guess, window = _SEARCHES[case]
    crossings, steps = _spy_on_the_search(monkeypatch)
    with STEPPERS[stepper]():
        find_limit_cycle(make(), guess, grid_size=64, transient_time=window)
    # with a window of 3 the converged crossing is the third, at t = 15.3;
    # the last stretch is the search's, the one turn's comes after it
    t_old, t = steps[-2]
    assert t_old <= crossings[-1][0] <= t


@pytest.mark.parametrize("stepper", sorted(STEPPERS))
def test_a_finished_solver_takes_no_step(stepper):
    # the search advances its solver again after a crossing, which may be
    # in the window's last step
    system = van_der_pol(1.0)
    rhs = _stepkernel.single_state(system)
    with STEPPERS[stepper]():
        advance = _stepkernel.dop853(system)
        solver = DOP853(rhs, 0.0, np.array([2.0, 0.0]), 0.5, rtol=1e-12, atol=1e-12)
        section = (np.array([1.0, 0.0]), np.array([2.0, 0.0]), _ESCAPE_RADIUS**2)
        assert frame_module._advance(solver, advance, section)[0] == "finished"
        before = (solver.t, solver.t_old, solver.h_abs, solver.y.tobytes())
        assert frame_module._advance(solver, advance, section) == ("finished", None)
        assert frame_module._advance(solver, advance, dense=True) == ("finished", [])
    assert (solver.t, solver.t_old, solver.h_abs, solver.y.tobytes()) == before
    assert solver.t == 0.5


class _Late(DOP853):
    """A solver whose times start 1e18 later, where a step of a hundredth
    is below the spacing of the numbers."""

    def __init__(self, fun, t0, y0, t_bound, **options):
        super().__init__(fun, t0 + 1e18, y0, t_bound + 1e18, **options)


@pytest.mark.parametrize("stepper", sorted(STEPPERS))
def test_a_step_below_the_spacing_of_the_numbers_fails_with_scipys_message(monkeypatch, stepper):
    calls = []
    step = DOP853.step
    monkeypatch.setattr(DOP853, "step", lambda self: calls.append(1) or step(self))
    monkeypatch.setattr(frame_module, "DOP853", _Late)
    # a linear drift: its stages stay finite, so no exception sends the
    # compiled stepper's steps to scipy
    with STEPPERS[stepper](), pytest.raises(NumericsError) as err:
        find_limit_cycle(ornstein_uhlenbeck(1.5, 0.0, dimension=2), (1.0, 1.0))
    assert str(err.value) == f"transient integration failed: {DOP853.TOO_SMALL_STEP}"
    assert len(calls) == (stepper == "scipy")


def _hopf_solver(rhs):
    # a first step of 1e-20 from |y| = 1e30 overflows the drift's cube
    return DOP853(rhs, 0.0, np.array([1e30, 0.0]), 1e-20, rtol=1e-10, atol=1e-12,
                  first_step=1e-20)


# a section, and an escape radius, that the overflowing steps never cross
_NO_CROSSING = (np.array([-1.0, 0.0]), np.zeros(2), 1e70)


@requires_compiler
@pytest.mark.parametrize("mode", ["steps", "dense", "section"])
def test_a_step_that_overflows_is_taken_by_scipy_with_numpys_warnings(monkeypatch, mode):
    section, dense = _NO_CROSSING if mode == "section" else None, mode == "dense"
    system = contract.quiet_hopf()
    rhs = _stepkernel.single_state(system)
    calls, log = [], []  # the warnings each of scipy's steps gave; the warnings caught
    step = DOP853.step

    def counted(self):
        before = len(log[-1])
        message = step(self)
        calls.append(len(log[-1]) - before)
        return message

    monkeypatch.setattr(DOP853, "step", counted)
    runs, warned = [], []
    for stepper in (_stepkernel.dop853(system), None):
        calls.clear()
        solver = _hopf_solver(rhs)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            log.append(caught)
            ended, outputs = frame_module._advance(solver, stepper, section, dense)
        # each step's dense output, in order
        outputs = [(d.t_old, d.t, d.y_old.tobytes(), d.F.tobytes()) for d in outputs or ()]
        runs.append((ended, solver.t, solver.y.tobytes(), [str(w.message) for w in caught],
                     outputs))
        warned.append(list(calls))
    assert runs[0] == runs[1]
    assert runs[0][0] == "finished" and "overflow encountered in dot" in runs[0][3]
    assert len(runs[0][4]) == (len(warned[1]) if dense else 0)
    # scipy takes only the steps that raised, the compiled stepper the rest
    assert all(warned[0]) and len(warned[0]) == sum(map(bool, warned[1])) < len(warned[1])
    # with every exception ignored, the compiled stepper takes every step
    with np.errstate(all="ignore"):
        solver = _hopf_solver(rhs)
        calls.clear()
        assert frame_module._advance(solver, _stepkernel.dop853(system), section,
                                     dense)[0] == "finished"
    assert not calls and solver.t == runs[0][1] and solver.y.tobytes() == runs[0][2]


def _unstable_focus(y):
    return np.stack([0.05 * y[..., 0] - y[..., 1], y[..., 0] + 0.05 * y[..., 1]], axis=-1)


def test_the_search_reports_an_escape_as_the_windowed_search_did():
    focus = SdeSystem(dimension=2, drift=_unstable_focus, isotropic_sigma=0.0, vectorized=True)
    # the transient ends near |y| = e^5, inside the radius; the search
    # then spirals out through it
    with pytest.raises(NoCycleError, match="escaped"):
        _windowed_search(focus, (1.0, 0.0), 100.0)
    with pytest.raises(NoCycleError, match=r"^trajectory escaped \|y\| = 1e\+06 without recurring$"):
        find_limit_cycle(focus, (1.0, 0.0), grid_size=16)


def test_the_search_gives_up_at_its_horizon(monkeypatch):
    # one crossing, at the start, and none a period later
    monkeypatch.setattr(frame_module, "_MAX_TIME", 0.75 * VDP_PERIOD)
    with pytest.raises(NoCycleError, match=r"^return map did not converge within .* \(1 crossings seen\)$"):
        find_limit_cycle(van_der_pol(1.0), (2.0, 0.0), grid_size=16, transient_time=3.0)


def test_coarse_grid_is_refused():
    cycle = find_limit_cycle(contract.quiet_hopf(), (0.3, 0.0), grid_size=16)
    messages = []
    for loop in (contextlib.nullcontext(), numpy_loop()):
        with loop, pytest.raises(NumericsError) as err:
            build_frame(cycle)
        messages.append(str(err.value))
    assert messages[0] == messages[1]


def _frame_stage_loop(cycle, substeps):
    """build_frame's U and V as written before it evaluated the splines
    once: a scalar call of each spline per RK4 stage, t summed by t += h."""
    m, n = cycle.L.shape
    t0 = cycle.T[0]
    p0 = np.eye(n) - np.outer(t0, t0)
    tan = _periodic_spline(cycle.grid, cycle.T, cycle.period)
    rate = _periodic_spline(cycle.grid, cycle.tangent_rate(), cycle.period)

    def dU(t, U):
        td = rate(t)
        return -np.outer(tan(t), td) @ U @ p0 + np.outer(td, t0)

    h = cycle.period / (m * substeps)
    U = np.empty((m, n, n))
    U[0] = np.eye(n)
    cur = np.eye(n)
    t = 0.0
    for i in range(1, m + 1):
        for _ in range(substeps):
            k1 = dU(t, cur)
            k2 = dU(t + h / 2.0, cur + h / 2.0 * k1)
            k3 = dU(t + h / 2.0, cur + h / 2.0 * k2)
            k4 = dU(t + h, cur + h * k3)
            cur = _nearest_orthogonal(cur + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4))
            t += h
        if i < m:
            U[i] = cur
    V = np.array([dU(cycle.grid[i], U[i]) for i in range(m)])
    return U, V


@pytest.fixture(scope="module")
def vdp2_cycle():
    return find_limit_cycle(van_der_pol(2.0), (2.0, 0.0), grid_size=2048)


@pytest.fixture(scope="module")
def vdp_half_cycle():
    return find_limit_cycle(van_der_pol(0.5), (2.0, 0.0))


# the planar Hopf, van der Pol at mu 0.5, 1 and 2, and the 3-D tilted Hopf
FRAME_CYCLES = ["hopf_cycle", "vdp_half_cycle", "vdp_cycle", "vdp2_cycle", "cycle_3d"]


@pytest.mark.parametrize("substeps", [1, 2])
@pytest.mark.parametrize("cycle_name", FRAME_CYCLES)
def test_frame_is_bitwise_the_per_stage_spline_loop(request, cycle_name, substeps):
    # the compiled transport calls numpy's own matmul, SVD and dot loops,
    # so it gives numpy's bits whichever BLAS kernels and SIMD loops the
    # host dispatches
    cycle = request.getfixturevalue(cycle_name)
    U, V = _frame_stage_loop(cycle, substeps)
    for loop in (contextlib.nullcontext(), numpy_loop()):
        with loop:
            frame = build_frame(cycle, substeps=substeps)
        assert frame.U.tobytes() == U.tobytes()
        assert frame.V.tobytes() == V.tobytes()


def _no_projection(A):
    raise AssertionError("the numpy transport ran")


@requires_compiler
def test_the_frame_takes_its_compiled_transport(monkeypatch, hopf_cycle):
    # the numpy loop alone projects through _nearest_orthogonal
    with monkeypatch.context() as mp:
        mp.setattr(frame_module, "_nearest_orthogonal", _no_projection)
        frame = build_frame(hopf_cycle, substeps=2)
    # without the library, or without numpy's loops, the numpy loop runs
    # and gives the same bits
    for missing in ("_library", "_ufunc_loops"):
        calls = []
        with monkeypatch.context() as mp:
            mp.setattr(_stepkernel, missing, lambda: None)
            mp.setattr(frame_module, "_nearest_orthogonal",
                       lambda A: calls.append(A) or _nearest_orthogonal(A))
            numpy_frame = build_frame(hopf_cycle, substeps=2)
        assert len(calls) == 2 * hopf_cycle.grid_size
        assert numpy_frame.U.tobytes() == frame.U.tobytes()
        assert numpy_frame.V.tobytes() == frame.V.tobytes()


def test_numpy_hands_out_its_float64_loops():
    # a numpy whose strided-loop API or capsule changed gives None, and the
    # numpy loops run; this one must give all four loops
    loops, capsules = _stepkernel._ufunc_loops()
    assert loops.dtype == np.uintp and loops.shape == (12,) and loops[::3].all()
    assert len(capsules) == 4


def _overflowing(cycle):
    # a Jacobian sample of 1e160: its tangent rate overflows the first
    # stages' products, so an inf and then a NaN reach the SVD
    J = cycle.J.copy()
    J[5] *= 1e160
    return dataclasses.replace(cycle, J=J)


@requires_compiler
def test_a_nan_in_the_svd_is_numpys_linalg_error_on_both_paths(monkeypatch, hopf_cycle):
    cycle = _overflowing(hopf_cycle)
    ran = []
    numpy_transport = frame_module._transport
    monkeypatch.setattr(frame_module, "_transport",
                        lambda *args: ran.append(1) or numpy_transport(*args))
    for loop, runs in ((contextlib.nullcontext(), 0), (numpy_loop(), 1)):
        with loop, np.errstate(all="ignore"), pytest.raises(np.linalg.LinAlgError) as err:
            build_frame(cycle)
        assert str(err.value) == "SVD did not converge"
        # with the library, the compiled transport raises it itself
        assert len(ran) == runs


def test_a_floating_point_exception_is_reported_by_the_numpy_loop(hopf_cycle):
    # numpy's error state decides what an overflow does; the compiled
    # transport hands such a frame to the numpy loop, which reports it
    cycle = _overflowing(hopf_cycle)
    for loop in (contextlib.nullcontext, numpy_loop):
        with loop(), np.errstate(over="raise"), pytest.raises(FloatingPointError) as err:
            build_frame(cycle)
        assert str(err.value) == "overflow encountered in matmul"
        with loop(), np.errstate(over="warn", invalid="warn"), \
                pytest.warns(RuntimeWarning) as caught, pytest.raises(np.linalg.LinAlgError):
            build_frame(cycle)
        assert [str(w.message) for w in caught] == [
            "overflow encountered in matmul", "invalid value encountered in matmul"]


@pytest.mark.parametrize("cycle_name", ["hopf_cycle", "vdp2_cycle", "cycle_3d"])
def test_frame_deviations_orthogonality_is_the_per_matrix_norm(request, cycle_name):
    # the stacked matmul and vecdot give each matrix's norm bit for bit
    cycle = request.getfixturevalue(cycle_name)
    frame = build_frame(cycle)
    eye = np.eye(cycle.dimension)
    per_matrix = max(np.linalg.norm(u.T @ u - eye) for u in frame.U)
    assert frame_module._frame_deviations(cycle, frame)[0].tobytes() == per_matrix.tobytes()


def test_a_one_dimensional_cycle_has_no_reduced_model():
    m = 16
    grid = np.arange(m) / m
    line = CycleParameterization(
        period=1.0, grid=grid, L=grid[:, None], f_on_L=np.ones((m, 1)), T=np.ones((m, 1)),
        J=np.zeros((m, 1, 1)), kappa=np.zeros(m), speed=np.ones(m),
    )
    model = ReducedModel(J0=np.zeros((m, 0, 0)), speed=np.ones(m), sigma=0.1)
    message = r"^a reduced model needs a cycle of dimension >= 2, got 1$"
    for loop in (contextlib.nullcontext(), numpy_loop()):
        with loop, pytest.raises(ConfigError, match=message):
            simulate_reduced(model, line, IntegratorConfig(dt=1e-3, n_steps=10))


def test_reduced_paths_track_the_linear_model(hopf_cycle, hopf_frame):
    # same seed, same driving noise: the reduced integrator must follow the
    # frozen-speed phase/deviation model to its Euler step error (the full
    # variant modulates the phase speed by the amplitude, which the frame
    # reduction deliberately does not)
    params = HopfParams(
        alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=sigma_for_nsr(0.1, TAU, 1.0)
    )
    model = reduce(hopf_cycle, hopf_frame, params.sigma)
    dt, steps = 1e-3, 5000
    config = IntegratorConfig(dt=dt, n_steps=steps, seed=123)
    tau_r, z_r = simulate_reduced(model, hopf_cycle, config)

    theta0 = np.arctan2(hopf_cycle.L[0, 1], hopf_cycle.L[0, 0]) % TAU
    lin_cfg = IntegratorConfig(
        dt=dt, n_steps=steps, seed=123, initial_state=(0.0, theta0 / TAU)
    )
    lp = simulate_hopf_linear(params, lin_cfg, leading_order=True)
    rec = reconstruct(hopf_cycle, hopf_frame, tau_r, z_r, dt=dt)
    dev = np.abs(rec.values - lp.reconstructed).max()
    assert dev < 5e-3


# ---------------------------------------------------------------------------
# the reduced model's named examples of the member-loop contract, whose
# properties test_member_loops.py tests over every simulator

def test_reduced_ensemble_member_equals_solo_run():
    config = IntegratorConfig(dt=1e-3, n_steps=200, seed=6)
    contract.check_member_is_solo("reduced hopf", config, 1, 4, 2)


@pytest.mark.parametrize("cycle_name", ["vdp_cycle", "cycle_3d"])
def test_coefficient_table_is_bitwise_the_spline(request, cycle_name):
    cycle = request.getfixturevalue(cycle_name)
    model = reduce(cycle, build_frame(cycle), 0.1)
    period = cycle.period
    rng = np.random.default_rng(4)
    w = np.concatenate([
        rng.uniform(0.0, period, 4000),
        cycle.grid,
        np.nextafter(cycle.grid, -1.0)[1:],
        [np.nextafter(period, 0.0), np.mod(-1e-300, period)],  # the last is period
    ])
    for values in (model.J0, model.speed):
        spline = _periodic_spline(cycle.grid, values, period)
        want = spline(w).reshape(w.size, -1)
        # the C spline(): the column searchsorted(knots, w, "right") and
        # ((c3 * 1.0 + c2 s) + c1 s^2) + c0 s^3 with s = w - knot
        col = _stepkernel._spline_table(spline)[:, spline.x.searchsorted(w, "right")]
        s = (w - col[0, :, 0])[:, None]
        s2 = s * s
        got = ((col[1] * 1.0 + col[2] * s) + col[3] * s2) + col[4] * (s2 * s)
        assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize(
    "cycle_name, sigma, n_paths, n_steps, record_every, initial",
    [
        ("hopf_cycle", 0.3, None, 600, 1, ()),
        ("hopf_cycle", 0.0, 8, 2100, 7, (0.1, 1.0e4)),
        ("vdp_cycle", 0.1, 1, 600, 5, (0.0, -1.0e-300)),
        ("vdp_cycle", 0.1, 8, 2100, 3, (0.05, 0.37)),
        ("cycle_3d", 0.2, None, 600, 1, (0.05, -0.02, -1.0e-300)),
        ("cycle_3d", 0.2, 8, 2100, 3, (-0.1, 0.02, 2.5)),
    ],
)
def test_reduced_run_is_bitwise_the_spline_loop(
    request, cycle_name, sigma, n_paths, n_steps, record_every, initial
):
    # tau0 = -1e-300 wraps to exactly the period, the spline's wrap edge;
    # tau0 = 1e4 is no whole number of periods; 2100 steps at 8 paths cross
    # the first chunk of _CHUNK // 8 steps, which record_every = 3 and 7 do
    # not divide; sigma = 0 gives signed zeros
    cycle = request.getfixturevalue(cycle_name)
    model = reduce(cycle, build_frame(cycle), sigma)
    config = IntegratorConfig(dt=1e-3, n_steps=n_steps, seed=29, initial_state=initial)
    # the numpy loop, frame._reduced_loop, calls the two periodic CubicSplines
    compiled, spline_loop = compiled_and_numpy(
        lambda: simulate_reduced(model, cycle, config, record_every, n_paths)
    )
    assert [a.tobytes() for a in compiled] == [a.tobytes() for a in spline_loop]


@pytest.mark.parametrize("cycle_name", ["vdp_cycle", "cycle_3d"])
@pytest.mark.parametrize("n_paths", [None, 8])
def test_reduced_run_from_negative_zero_is_bitwise_the_spline_loop(
    request, cycle_name, n_paths
):
    # sigma = 0 keeps every kick a signed zero, so z stays zero; J0 has a
    # positive entry at the start phase, where J0 (-0.0) is -0.0, which a sum
    # of J0 z from +0.0 turns into +0.0 where a sum of the products alone
    # would keep -0.0
    cycle = request.getfixturevalue(cycle_name)
    model = reduce(cycle, build_frame(cycle), 0.0)
    d = cycle.dimension - 1
    tau0 = cycle.grid[np.argmax(model.J0.reshape(cycle.grid_size, -1).max(axis=1))]
    config = IntegratorConfig(
        dt=1e-3, n_steps=600, seed=31, initial_state=(-0.0,) * d + (tau0,)
    )
    compiled, spline_loop = compiled_and_numpy(
        lambda: simulate_reduced(model, cycle, config, 1, n_paths)
    )
    assert [a.tobytes() for a in compiled] == [a.tobytes() for a in spline_loop]
    assert np.signbit(compiled[1][..., 0, :]).all()


@requires_compiler
def test_compiled_reduced_loop_is_bitwise_the_numpy_loop():
    for name, n_paths, record_every, beyond, sigma, start in [
        ("3-d", None, 7, 2, 0.0, "negative zero"),
        ("van der pol", 20, 5, 1, 0.3, "wrap edge"),
        ("hopf", 40, 3, 40, 0.05, "1e4 periods"),
    ]:
        c = contract.limit_cycle(name)
        initial = contract.REDUCED_STARTS[start](c, c.dimension - 1)
        config = contract.past_a_chunk(n_paths or 1, record_every, beyond, seed=41,
                                       initial_state=initial)
        contract.check_compiled_is_numpy(f"reduced {name}", config, record_every, n_paths,
                                         sigma=sigma)


def test_without_a_compiler_the_reduced_loop_is_numpy(vdp_cycle, tmp_path, monkeypatch):
    model = reduce(vdp_cycle, build_frame(vdp_cycle), 0.1)
    config = IntegratorConfig(dt=1e-3, n_steps=600, seed=2, initial_state=(0.05, 0.37))

    def run():
        return [a.tobytes() for a in simulate_reduced(model, vdp_cycle, config, n_paths=5)]

    expected = run()
    speed = _periodic_spline(vdp_cycle.grid, model.speed, vdp_cycle.period)
    kick = 0.1 * np.sqrt(1e-3)

    def compiled(h, kick_scale):
        return _stepkernel.reduced_loop(speed, speed, vdp_cycle.period, h, kick_scale,
                                        TRUST_RADIUS)

    # a step or a kick scale that numpy would not round as float64 keeps
    # the numpy loop, and so does a missing compiler, with the bytes the
    # library gave
    assert compiled(np.longdouble(1e-3), kick) is None
    assert compiled(1e-3, np.longdouble(kick)) is None
    monkeypatch.setenv("XDG_CACHE_HOME", str(tmp_path))
    monkeypatch.setattr(_stepkernel, "_COMPILER", str(tmp_path / "no-such-compiler"))
    assert compiled(1e-3, kick) is None
    assert run() == expected


def test_reduced_member_is_its_solo_run_across_chunk_boundaries():
    for n_paths, record_every, beyond, k in [(20, 5, 1, 19), (3, 7, 2, 2)]:
        config = contract.past_a_chunk(n_paths, record_every, beyond, seed=13,
                                       initial_state=(0.02, 0.4))
        contract.check_member_is_solo("reduced van der pol", config, record_every, n_paths, k)


@requires_compiler
@pytest.mark.parametrize("name", ["van der pol", "3-d"])
@pytest.mark.parametrize("n_paths", [5, 8])
@pytest.mark.parametrize("calls", ["many members a call", "fewest members a call"])
def test_reduced_members_do_not_depend_on_the_thread_count(name, n_paths, calls):
    contract.check_members_at_any_thread_count(f"reduced {name}", calls, n_paths)


def test_a_model_reduced_on_another_grid_is_a_config_error(hopf_cycle):
    coarse = find_limit_cycle(contract.quiet_hopf(), (0.3, 0.0), grid_size=256)
    model = reduce(coarse, build_frame(coarse), 0.1)
    config = IntegratorConfig(dt=1e-3, n_steps=10, seed=1)
    with pytest.raises(ConfigError, match="model.J0 has 256 samples but the cycle grid has 512"):
        simulate_reduced(model, hopf_cycle, config)
    speed_only = dataclasses.replace(
        reduce(hopf_cycle, build_frame(hopf_cycle), 0.1), speed=model.speed
    )
    with pytest.raises(ConfigError, match="model.speed has 256 samples but the cycle grid has 512"):
        simulate_reduced(speed_only, hopf_cycle, config)


def test_reconstruct_on_the_cycle_reproduces_it(hopf_cycle, hopf_frame):
    tau = hopf_cycle.grid
    z0 = np.zeros((tau.size, 1))
    tr = reconstruct(hopf_cycle, hopf_frame, tau, z0, dt=hopf_cycle.period / tau.size)
    assert np.abs(tr.values - hopf_cycle.L).max() < 1e-9


def test_stable_reduction_emits_no_warning(hopf_cycle, hopf_frame):
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        reduce(hopf_cycle, hopf_frame, 0.1)


@pytest.mark.parametrize("coefficient", [np.nan, np.inf])
def test_the_cycle_search_refuses_a_drift_not_finite_at_the_guess_up_front(
    monkeypatch, coefficient
):
    # a --plugin system with a NaN or inf coefficient: DOP853 would retry
    # its first step of the transient without end
    def no_search(*args, **kwargs):
        raise AssertionError("the drift must be checked before any integration")

    monkeypatch.setattr(frame_module, "DOP853", no_search)
    def plugin_drift(y):
        return np.array([y[1], coefficient * (1.0 - y[0] ** 2) * y[1] - y[0]])

    plugin = SdeSystem(dimension=2, drift=plugin_drift)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore", RuntimeWarning)  # inf * 0 in the drift
        with pytest.raises(ConfigError) as err:
            find_limit_cycle(plugin, (2.0, 0.0))
        assert str(err.value).startswith("the drift at initial_guess [2. 0.] must be finite, got [")
    # a guess that is not finite is refused before the drift is called there
    with pytest.raises(ConfigError) as err:
        find_limit_cycle(contract.quiet_hopf(), (np.nan, 0.0))
    assert str(err.value) == "initial_guess must be finite, got nan at index 0"


def test_the_orthogonality_error_sends_the_user_to_a_finer_grid():
    # more substeps never reach the limit on this grid; a finer grid does
    cycle = find_limit_cycle(van_der_pol(1.0), (2.0, 0.0), grid_size=64)
    messages = []
    for loop in (contextlib.nullcontext(), numpy_loop()):
        with loop, pytest.raises(NumericsError) as err:
            build_frame(cycle)
        messages.append(str(err.value))
    message = messages[0]
    assert messages[1] == message
    assert message.startswith("frame lost orthogonality (3.93e-05) at t = ")
    assert "grid_size" in message and "--grid-size" in message
    assert "substep" not in message
