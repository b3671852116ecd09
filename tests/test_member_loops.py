"""The member-loop contract of the three simulators, written once.

``integrate_ensemble``, ``simulate_reduced`` and ``simulate_hopf_linear`` run
their members through one driver (``sde._simulate``) and, where the library
builds, one compiled member loop (``_stepkernel._bind``) whose numpy twin is
the reference.  Each simulator enters ``CASES`` as cases, a run and the binder
it asks for its compiled loop, and ``DIVERGENCES`` as named set-ups that must
raise.  Each property is one ``check_*`` function, tested here over the
tables; the simulators' own test modules call the same checks on named
examples the searches here need not draw.  A run,
``run(config, record_every, n_paths)``, returns its members, each a tuple of
its records in the order of ``config.initial_state``, start in row 0.
"""

import contextlib
import dataclasses
import functools
import warnings
from typing import Callable, NamedTuple, Optional

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from noisycycles import (
    ConfigError, DivergenceError, HopfParams, IntegratorConfig, ReducedModel, Scheme, SdeSystem,
    SingularAmplitudeError, build_frame, find_limit_cycle, hopf_system, integrate_ensemble,
    integrate_path, ornstein_uhlenbeck, reduce, sigma_for_nsr, simulate_hopf_linear,
    simulate_reduced, strong_order_estimate, van_der_pol,
)
from noisycycles import _stepkernel, frame, hopf, sde
from noisycycles.sde import _CHUNK, TRUST_RADIUS

from conftest import compiled_and_numpy, member, numpy_loop, requires_compiler, threads

TAU = 2.0 * np.pi


def _ensemble(system):
    """``integrate_ensemble``'s run; a solo run is ``integrate_path``."""

    def run(config, record_every, n_paths):
        if n_paths is None:
            return [(integrate_path(system, config, record_every).values,)]
        return [(tr.values,) for tr in integrate_ensemble(system, config, n_paths, record_every)]

    return run


def _reduced(model, cycle):
    def run(config, record_every, n_paths):
        tau, z = simulate_reduced(model, cycle, config, record_every, n_paths)
        return [(z, tau)] if n_paths is None else list(zip(z, tau))

    return run


def _linear(params, leading_order):
    def run(config, record_every, n_paths):
        lp = simulate_hopf_linear(params, config, leading_order, record_every, n_paths)
        records = (lp.z, lp.tau, lp.reconstructed)
        return [records] if n_paths is None else list(zip(*records))

    return run


def record_bytes(members):
    return [tuple(a.tobytes() for a in records) for records in members]


# ---------------------------------------------------------------------------
# the systems, cycles and models of the cases

def _hopf(sigma):
    return HopfParams(alpha=TAU, alpha0=0.5 * TAU, lambda_=4 * TAU, r=1.0, sigma=sigma)


def _full_noise(system, sigma):
    # a full noise matrix has no diagonal to draw with: the numpy loop runs
    n = system.dimension
    matrix = 0.1 * np.arange(1.0, n * n + 1).reshape(n, n) - 0.15 * np.eye(n)
    return dataclasses.replace(system, noise_matrix=sigma * matrix, isotropic_sigma=None)


def _linear_drift(y):
    x, v = y[..., 0], y[..., 1]
    return np.stack([-0.5 * x + 2.0 * v, -2.0 * x - 0.5 * v], axis=-1)


def _linear_system(sigma, vectorized):
    return SdeSystem(dimension=2, drift=_linear_drift, vectorized=vectorized,
                     noise_matrix=sigma * np.array([[0.3, -0.2], [0.15, 0.5]]))


def _cubic(sigma, vectorized, cubic=0.2, linear=-1.0):
    return SdeSystem(dimension=1, drift=lambda y: cubic * y**3 + linear * y,
                     isotropic_sigma=sigma, vectorized=vectorized)


def tilted_hopf_drift(y):
    """A planar Hopf cycle in (x, v) with a coupled, stable third direction w."""
    x, v, w = y[..., 0], y[..., 1], y[..., 2]
    rho2 = x * x + v * v
    return np.stack([0.5 * x - 2.0 * v - 0.5 * rho2 * x + 0.3 * w * v,
                     2.0 * x + 0.5 * v - 0.5 * rho2 * v,
                     -1.5 * w + 0.4 * x * v], axis=-1)


def quiet_hopf():
    return hopf_system(HopfParams(alpha=TAU, alpha0=TAU, lambda_=TAU, r=1.0, sigma=0.0))


@functools.cache
def limit_cycle(name):
    """The planar Hopf, van der Pol (mu = 1) and 3-D tilted Hopf cycles."""
    if name == "hopf":
        return find_limit_cycle(quiet_hopf(), (0.3, 0.0), grid_size=512)
    if name == "van der pol":
        return find_limit_cycle(van_der_pol(1.0), (2.0, 0.0))
    tilted = SdeSystem(dimension=3, drift=tilted_hopf_drift, isotropic_sigma=0.0, vectorized=True)
    return find_limit_cycle(tilted, (0.5, 0.1, 0.0), grid_size=256)


@functools.cache
def _model(name):
    c = limit_cycle(name)
    return reduce(c, build_frame(c), 0.0)


# (z0 ..., tau0) of a reduced run: tau0 = -1e-300 wraps to exactly the
# period, the tables' wrap edge; 1e4 periods wrap with a rounded remainder
REDUCED_STARTS = {
    "zero": lambda c, d: (),
    "wrap edge": lambda c, d: (0.05,) * d + (-1e-300,),
    "1e4 periods": lambda c, d: (-0.02,) * d + (1e4 * c.period,),
    "negative zero": lambda c, d: (-0.0,) * d + (0.37 * c.period,),
}


# ---------------------------------------------------------------------------
# the table

class Case(NamedTuple):
    """One simulator on one system, as the contract sees it."""

    binder: str  # the _stepkernel function the simulator asks for its loop
    make: Callable  # sigma -> run
    sigmas: tuple  # the noise levels tried; the last is the default
    starts: st.SearchStrategy  # initial states
    start: tuple  # a start with signed zeros
    compiled: bool = True  # whether the binder gives a compiled loop

    @property
    def run(self):
        return self.make(self.sigmas[-1])


# the systems of the integrator's cases, by noise level
SYSTEMS = {
    "hopf": lambda s: hopf_system(_hopf(s)),
    "van der pol": lambda s: van_der_pol(1.5, sigma=s),
    "ou-1": lambda s: ornstein_uhlenbeck(1.5, s),
    "ou-3": lambda s: ornstein_uhlenbeck(2.0, s, dimension=3),
    "full noise": lambda s: _linear_system(s, True),
    "hopf full noise": lambda s: _full_noise(hopf_system(_hopf(0.0)), s),
    "ou-3 full noise": lambda s: _full_noise(ornstein_uhlenbeck(0.7, 0.5, 3), s),
    "row-wise": lambda s: _linear_system(s, False),
}


def _integrator(name, sigmas, start, **kwargs):
    starts = st.lists(st.sampled_from([0.0, -0.0, 0.7, -1.1, 2.0]), min_size=len(start),
                      max_size=len(start)).map(tuple)
    return Case("loop_for", lambda s: _ensemble(SYSTEMS[name](s)), sigmas, starts, start,
                **kwargs)


def _reduced_case(name, sigmas, start):
    def make(sigma):
        return _reduced(dataclasses.replace(_model(name), sigma=sigma), limit_cycle(name))

    starts = st.sampled_from(sorted(REDUCED_STARTS)).map(
        lambda k: REDUCED_STARTS[k](limit_cycle(name), len(start) - 1))
    return Case("reduced_loop", make, sigmas, starts, start)


_LINEAR = HopfParams(alpha=TAU, alpha0=5.0, lambda_=TAU, r=1.0, sigma=0.0)


def _linear_case(leading_order):
    return Case(
        "linear_loop", lambda s: _linear(dataclasses.replace(_LINEAR, sigma=s), leading_order),
        (0.0, sigma_for_nsr(0.1, TAU, 1.0)), st.sampled_from([(), (0.05, 0.3), (-0.0, -0.0)]),
        (-0.0, -0.0),
    )


CASES = {
    "hopf": _integrator("hopf", (0.0, 0.3), (-0.0, -0.0)),
    "van der pol": _integrator("van der pol", (0.0, 0.4), (-0.0, 0.0)),
    "ou-1": _integrator("ou-1", (0.0, 0.5), (-0.0,)),
    "ou-3": _integrator("ou-3", (0.0, 0.4), (-0.0, 0.0, -0.0)),
    # the numpy loop: a full noise matrix, vectorized or with a kernel's
    # drift, and a drift called one state at a time
    "full noise": _integrator("full noise", (1.0,), (0.4, -0.0), compiled=False),
    "hopf full noise": _integrator("hopf full noise", (1.0,), (0.8, -0.0), compiled=False),
    "ou-3 full noise": _integrator("ou-3 full noise", (1.0,), (-0.0, 0.0, -0.0), compiled=False),
    "row-wise": _integrator("row-wise", (1.0,), (0.4, -0.0), compiled=False),
    # van der Pol's J0 is positive at tau = 5.6: J0 (-0.0) is -0.0 there
    "reduced hopf": _reduced_case("hopf", (0.0, 0.05, 0.3), (-0.0, 0.25)),
    "reduced van der pol": _reduced_case("van der pol", (0.0, 0.05, 0.3, 0.1), (-0.0, 5.6)),
    "reduced 3-d": _reduced_case("3-d", (0.0, 0.05, 0.3, 0.2), (-0.0, -0.0, 0.25)),
    "linear": _linear_case(False),
    "linear leading order": _linear_case(True),
}

_BINDERS = sorted({case.binder for case in CASES.values()})


def _cases_of(binder):
    return [name for name, case in CASES.items() if case.binder == binder]


# ---------------------------------------------------------------------------
# divergence set-ups

class Divergence(NamedTuple):
    """``run(config, 1, n_paths)`` raises ``error`` for the earliest bad ``step``
    and the lowest ``path`` at it, with ``message`` formatted with both.
    The solo runs of the members ``later``, in a block before the lowest
    path's at some thread count, diverge too, at a later step: the earliest
    is not merely the first block's.  ``compiled`` says whether a compiled
    loop runs the set-up where one builds."""

    run: Callable
    config: IntegratorConfig
    n_paths: Optional[int]
    step: int
    path: Optional[int]
    later: tuple = ()
    compiled: bool = True
    error: type = DivergenceError
    message: str = f"state left |y| <= {TRUST_RADIUS:g} at step {{step}}{{where}}"


def _unstable(name, rate, sigma, speed=1.0):
    """The reduced run on cycle ``name`` of a model whose deviation grows at
    ``rate``; the cycle is found at the first run, not at collection."""

    def run(config, record_every, n_paths):
        c = limit_cycle(name)
        m, d = c.grid_size, c.dimension - 1
        model = ReducedModel(J0=np.tile(rate * np.eye(d), (m, 1, 1)), speed=np.full(m, speed),
                             sigma=sigma)
        return _reduced(model, c)(config, record_every, n_paths)

    return run


def _hopf_divergences():
    noisy = IntegratorConfig(dt=0.08, n_steps=300, seed=3, initial_state=(1.0, 0.0))
    # noiseless and far off the cycle: every member diverges at step 0
    blowup = dataclasses.replace(noisy, initial_state=(30.0, 0.0))
    run = _ensemble(SYSTEMS["hopf"](2.5))
    return {
        # solo, members 0-7 first leave the trust region at steps 11, 9, 2,
        # 43, 4, 11, 29, 8: the earliest is not in the first block of
        # members, and members 0 and 5 tie on another block each
        "8 members": Divergence(run, noisy, 8, 2, 2, later=(0, 1)),
        "7 members": Divergence(run, noisy, 7, 2, 2, later=(0, 1)),
        "2 members": Divergence(run, noisy, 2, 9, 1, later=(0,)),
        "blow-up of 7": Divergence(_ensemble(SYSTEMS["hopf"](0.0)), blowup, 7, 0, 0),
        # member 26 leaves at step 431, past the first chunk of _CHUNK // 40 steps
        "40 members": Divergence(_ensemble(SYSTEMS["hopf"](0.8)),
                                 dataclasses.replace(noisy, n_steps=600), 40, 431, 26),
    }


def _cubic_divergences():
    # a 1-D cubic drift has no compiled twin: the numpy loop runs it.  40
    # paths make chunks of 409 steps and no member leaves the trust region
    # in the first one, so the scan is checked across boundaries
    config = IntegratorConfig(dt=0.01, n_steps=900, seed=5, initial_state=(0.0,))
    quiet = _ensemble(_cubic(0.0, True, cubic=1.0, linear=0.0))
    blowup = IntegratorConfig(dt=0.5, n_steps=200, seed=0, initial_state=(2.0,))
    return {
        "40 members": Divergence(_ensemble(_cubic(0.7, True)), config, 40, 853, 38,
                                 compiled=False),
        "40 members row-wise": Divergence(_ensemble(_cubic(0.7, False)), config, 40, 853, 38,
                                          compiled=False),
        "blow-up": Divergence(quiet, blowup, None, 1, None, compiled=False),
        "blow-up of 3": Divergence(quiet, blowup, 3, 1, 0, compiled=False),
    }


def _reduced_divergences(name):
    d = {"hopf": 1, "3-d": 2}[name]
    noisy = _unstable(name, 15.0, 1.0)
    config = IntegratorConfig(dt=1e-3, n_steps=1500, seed=0)
    # z grows by 1.05 per step from 1: |z| first exceeds the trust radius
    # after step 283 (1.05^284 > 1e6 > 1.05^283), and every member with it;
    # the run overflows long before its 16000 steps end
    quiet = _unstable(name, 50.0, 0.0)
    on_edge = IntegratorConfig(dt=1e-3, n_steps=16000, seed=3, initial_state=(1.0,) * d + (0.0,))
    # a phase that stops being finite: kick / speed overflows at step 0
    tiny = _unstable(name, -1.0, 1.0, speed=1e-320)
    first = {"hopf": (982, 6, 996, 6), "3-d": (1015, 6, 981, 0)}[name]
    return {
        # member 6 diverges first, in the last block at 2 and at 3 threads
        "8 members": Divergence(noisy, config, 8, *first[:2], later=(0, 1)),
        # the earliest of 40 members is past the first chunk of 409 steps
        "40 members": Divergence(noisy, dataclasses.replace(config, seed=8), 40, *first[2:]),
        "blow-up": Divergence(quiet, on_edge, None, 283, None),
        "blow-up of 3": Divergence(quiet, on_edge, 3, 283, 0),
        "blow-up of 8": Divergence(quiet, dataclasses.replace(on_edge, n_steps=1500), 8, 283, 0),
        "phase overflow": Divergence(tiny, on_edge, None, 0, None),
    }


def _linear_divergences():
    def singular(params, config, n_paths, step, path, later=()):
        message = ("r + z reached zero at step {step}{where}: "
                   "the phase-speed denominator is singular")
        run = _linear(dataclasses.replace(_LINEAR, **params), False)
        return Divergence(run, config, n_paths, step, path, later,
                          error=SingularAmplitudeError, message=message)

    config = IntegratorConfig(dt=1e-3, n_steps=40_000, seed=15)
    # from z = -r every member is singular at step 0
    at_zero = IntegratorConfig(dt=1e-3, n_steps=100, seed=3, initial_state=(-1.0, 0.0))
    # the first r + z <= 0 of this solo run falls in its second chunk of steps
    long = IntegratorConfig(dt=1e-3, n_steps=100_000, seed=1)
    return {
        # member 5 meets r + z <= 0 first, in the last block at 2 and at 3
        # threads, and member 0 of the first block meets it later
        "8 members": singular(dict(sigma=1.0), config, 8, 6422, 5, later=(0,)),
        "member 5": singular(dict(sigma=1.0), member(config, 5), None, 6422, None),
        "at zero": singular(dict(sigma=1.0), at_zero, None, 0, None),
        "8 at zero": singular(dict(sigma=1.0), at_zero, 8, 0, 0),
        "long": singular(dict(alpha0=TAU, sigma=1.2), long, None, 26168, None),
        "long of 4": singular(dict(alpha0=TAU, sigma=1.2), long, 4, 5118, 1, later=(0,)),
    }


# every divergence set-up, by "simulator: set-up"
DIVERGENCES = {
    f"{group}: {setup}": divergence
    for group, setups in [("hopf", _hopf_divergences()), ("cubic", _cubic_divergences()),
                          ("reduced hopf", _reduced_divergences("hopf")),
                          ("reduced 3-d", _reduced_divergences("3-d")),
                          ("linear", _linear_divergences())]
    for setup, divergence in setups.items()
}


# ---------------------------------------------------------------------------
# the checks

def past_a_chunk(n_paths, record_every, beyond, **fields):
    """A config at dt 1e-3 whose steps run ``beyond`` records past the first
    chunk of ``_CHUNK // n_paths`` steps, which ``record_every`` need not
    divide."""
    n_steps = record_every * (_CHUNK // n_paths // record_every + beyond)
    return IntegratorConfig(dt=1e-3, n_steps=n_steps, **fields)


def check_member_is_solo(name, config, record_every, n_paths, k, n_threads=1):
    """Member k of an ensemble is its solo run seeded ``path_seed(seed, k)``."""
    case = CASES[name]
    with threads(n_threads):
        members = record_bytes(case.run(config, record_every, n_paths))
    assert members[k] == record_bytes(case.run(member(config, k), record_every, None))[0]


def check_members_at_any_thread_count(name, calls, n_paths):
    """At 1, 2 and 3 threads every member equals the numpy loop's, and its
    solo run.  3000 steps make calls of 4 members, the even count nearest
    below _CALL_PATH_STEPS // 3000, and one more step than _CALL_PATH_STEPS
    calls of the fewest, two (one where a thread's block has one left)."""
    case = CASES[name]
    n_steps = {"many members a call": 3000,
               "fewest members a call": _stepkernel._CALL_PATH_STEPS + 1}[calls]
    record_every = 3 if n_steps % 3 == 0 else 1
    start = (0.02,) * (len(case.start) - 1) + (0.4,)
    config = IntegratorConfig(dt=1e-3, n_steps=n_steps, seed=17, initial_state=start)
    with numpy_loop():
        reference = record_bytes(case.run(config, record_every, n_paths))
    for count in (1, 2, 3):
        with threads(count):
            assert record_bytes(case.run(config, record_every, n_paths)) == reference
    for k in range(n_paths):
        assert record_bytes(case.run(member(config, k), record_every, None)) == [reference[k]]


def check_compiled_is_numpy(name, config, record_every, n_paths, n_threads=1, sigma=None):
    """The compiled loop gives the numpy loop's bytes, at ``sigma`` (the
    case's default when None)."""
    case = CASES[name]
    run = case.run if sigma is None else case.make(sigma)
    with threads(n_threads):
        compiled, reference = compiled_and_numpy(lambda: record_bytes(run(config, record_every,
                                                                          n_paths)))
    assert compiled == reference


def check_divergence(setup):
    """Divergence set-up ``setup`` raises the earliest divergence and the
    lowest path at it, with the same error and message at every thread
    count and from the numpy loop, and no warning escapes.  The expected
    step and path are the earliest of the members' solo runs."""
    run, config, n_paths, step, path, later, compiled, error, message = DIVERGENCES[setup]
    if n_paths is not None:
        firsts = {}
        for k in range(n_paths):
            try:
                run(member(config, k), 1, None)
            except error as err:
                firsts[k] = err.step_index
        assert min((s, k) for k, s in firsts.items()) == (step, path)
        assert all(firsts.get(k, -1) > step for k in later)
    loops = [threads(count) for count in (1, 2, 3, 8)] if compiled else []
    for loop in loops + [numpy_loop()]:
        with loop, warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(DivergenceError) as err:
                run(config, 1, n_paths)
        assert type(err.value) is error
        assert (err.value.step_index, err.value.path_index) == (step, path)
        where = "" if path is None else f" (path {path})"
        assert str(err.value) == message.format(step=step, where=where)


def check_records(name):
    """Records are member-major and C-contiguous, with the start, signed
    zeros included, in row 0, compiled and numpy alike."""
    case = CASES[name]
    config = IntegratorConfig(dt=1e-3, n_steps=60, seed=12, initial_state=case.start)
    for loop in (contextlib.nullcontext(), numpy_loop()):
        with loop:
            runs = [(case.run(config, 3, 4), 4, 21), (case.run(config, 2, None), 1, 31)]
        for members, count, rows in runs:
            assert len(members) == count
            for records in members:
                assert all(a.flags.c_contiguous and len(a) == rows for a in records)
                row0 = np.concatenate([np.ravel(a[0]) for a in records])[:len(case.start)]
                assert row0.tobytes() == np.array(case.start).tobytes()
            # member k + 1's rows follow member k's in one record
            for this, following in zip(members, members[1:]):
                for a, b in zip(this, following):
                    assert b.ctypes.data == a.ctypes.data + a.nbytes


def check_record_every(name):
    """``record_every`` keeps every qth state of the run it thins."""
    case = CASES[name]
    config = IntegratorConfig(dt=1e-3, n_steps=100, seed=2, initial_state=case.start)
    for n_paths in (None, 3):
        full = case.run(config, 1, n_paths)
        thin = record_bytes(case.run(config, 10, n_paths))
        assert [tuple(a[::10].tobytes() for a in records) for records in full] == thin


def check_loop_choice(name):
    """The simulator asks its binder once and runs the compiled loop, which
    draws its own normals, where the case has one.  A step that does not
    round like float64, and a missing library, run the numpy loop, which
    gives the bytes it gives with the library, from the case's signed-zero
    start at each of its noise levels: at sigma = 0 every kick is a signed
    zero, and the sign of a zero reaches the states."""
    case = CASES[name]
    taken = []
    bind = getattr(_stepkernel, case.binder)

    def spy(*args):
        loop = bind(*args)
        taken.append(loop is not None)
        return loop

    def no_numpy_draws(*args):
        raise AssertionError("the member loop drew the normals with numpy")

    config = IntegratorConfig(dt=1e-3, n_steps=200, seed=4, initial_state=case.start)
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(_stepkernel, case.binder, spy)
        case.run(config, 1, 3)
        assert taken == [case.compiled]
        with pytest.MonkeyPatch.context() as draws:
            for module in (sde, frame, hopf):
                draws.setattr(module, "_normals", no_numpy_draws)
            for n_paths in (None, 3):
                if case.compiled:
                    case.run(config, 1, n_paths)
                else:
                    with pytest.raises(AssertionError):
                        case.run(config, 1, n_paths)
        wide = dataclasses.replace(config, dt=np.longdouble(config.dt))
        taken.clear()
        on_library, reference = compiled_and_numpy(lambda: record_bytes(case.run(wide, 1, 3)))
        assert on_library == reference and taken == [False, False]
    for sigma in case.sigmas:
        on_library = record_bytes(case.make(sigma)(config, 1, 3))
        with numpy_loop():
            assert record_bytes(case.make(sigma)(config, 1, 3)) == on_library, sigma


def check_refusals(name):
    """A bad ``record_every``, ``n_paths`` or start is refused with one
    message for all simulators, solo and in an ensemble, with no warning;
    the same runs go once they are right."""
    case = CASES[name]
    n = len(case.start)
    config = IntegratorConfig(dt=1e-3, n_steps=10, seed=5, initial_state=case.start)
    refused = [(config, 1, 0, "n_paths must be >= 1, got 0"),
               (config, 1, 2.0, "n_paths must be an integer, got 2.0")]
    for n_paths in (None, 3):
        refused += [
            (config, 0, n_paths, "record_every must be >= 1, got 0"),
            (config, 2.0, n_paths, "record_every must be an integer, got 2.0"),
            (config, 3, n_paths, "record_every must divide n_steps (10), got 3"),
        ]
        for i, value in [(0, np.nan), (0, np.inf), (0, -np.inf), (-1, np.nan)]:
            start = list(case.start)
            start[i] = value
            refused.append((dataclasses.replace(config, initial_state=tuple(start)), 1, n_paths,
                            f"initial_state must be finite, got {value} at index {i % n}"))
        for length in (n - 1, n + 1):
            message = (f"initial_state must have shape ({n},), got ({length},)"
                       if case.binder == "loop_for" else
                       f"initial_state must be empty or (z0 ..., tau0) of length {n}")
            refused.append((dataclasses.replace(config, initial_state=(0.1,) * length), 1,
                            n_paths, message))
        case.run(config, 2, n_paths)
    for *args, message in refused:
        with warnings.catch_warnings(), pytest.raises(ConfigError) as err:
            warnings.simplefilter("error")
            case.run(*args)
        assert str(err.value) == message


# ---------------------------------------------------------------------------
# the contract over the tables

# the strategies of a run, which both searches below share
_RUNS = dict(data=st.data(), scheme=st.sampled_from(list(Scheme)),
             record_every=st.integers(1, 7), beyond=st.integers(1, 40), n_threads=st.integers(1, 4))


@pytest.mark.parametrize("binder", _BINDERS)
@settings(max_examples=15, deadline=None)
@given(n_paths=st.integers(1, 40), k=st.integers(0, 39), **_RUNS)
def test_member_is_its_solo_run(binder, data, scheme, n_paths, record_every, beyond, k,
                                n_threads):
    # members past _CHUNK steps run two a call, many short members many a
    # call
    name = data.draw(st.sampled_from(_cases_of(binder)), label="case")
    start = data.draw(CASES[name].starts, label="start")
    config = past_a_chunk(n_paths, record_every, beyond, scheme=scheme, seed=17,
                          initial_state=start)
    check_member_is_solo(name, config, record_every, n_paths, k % n_paths, n_threads)


@requires_compiler
@pytest.mark.parametrize("binder", _BINDERS)
@settings(max_examples=15, deadline=None)
# solo runs, past _CHUNK steps, cost the most: one draw in 41
@given(n_paths=st.sampled_from([None, *range(1, 41)]), **_RUNS)
def test_compiled_loop_is_bitwise_the_numpy_loop(binder, data, scheme, n_paths, record_every,
                                                 beyond, n_threads):
    # signed-zero starts and sigma = 0, where every kick is a signed zero,
    # included; with a full noise matrix, a library must not change the bytes
    name = data.draw(st.sampled_from(_cases_of(binder)), label="case")
    start = data.draw(CASES[name].starts, label="start")
    sigma = data.draw(st.sampled_from(CASES[name].sigmas), label="sigma")
    config = past_a_chunk(n_paths or 1, record_every, beyond, scheme=scheme, seed=23,
                          initial_state=start)
    check_compiled_is_numpy(name, config, record_every, n_paths, n_threads, sigma)


@requires_compiler
def test_a_long_ensemble_draws_its_normals_as_numpy_does():
    # 4 x 10^5 normals reach the ziggurat's rare wedge and tail branches
    # with the tables of the numpy installed
    config = IntegratorConfig(dt=1e-3, n_steps=2500, seed=4, initial_state=(1.0, 0.0))
    check_compiled_is_numpy("hopf", config, 100, 40)


# the integrator's drifts, whose compiled loop runs two members at a time, a
# lane each, and an unpaired member (the last of an odd count, of a call or
# of a thread's block) alone
LANES = ("hopf", "van der pol", "ou-1", "ou-3")


@requires_compiler
@pytest.mark.parametrize("n_threads", [1, 2, 3, 4])
@pytest.mark.parametrize("n_paths", [3, 7, 21])
@pytest.mark.parametrize("name", LANES)
def test_lanes_and_the_unpaired_member_give_the_numpy_and_solo_bytes(name, n_paths, n_threads):
    case = CASES[name]
    for scheme in Scheme:
        config = IntegratorConfig(dt=1e-3, n_steps=300, scheme=scheme, seed=29,
                                  initial_state=(0.4, -0.0, 0.7)[:len(case.start)])
        with threads(n_threads):
            members = record_bytes(case.run(config, 3, n_paths))
        with numpy_loop():
            assert record_bytes(case.run(config, 3, n_paths)) == members
        for k in range(n_paths):
            assert record_bytes(case.run(member(config, k), 3, None)) == [members[k]]


@requires_compiler
def test_a_pair_of_a_large_dimension_keeps_its_lanes_off_the_stack():
    # a pair's 7n + 4n^2 lanes are 10 MB at n = 400, more than a thread's
    # stack holds; from the heap scratch the pair runs as the numpy loop
    run = _ensemble(ornstein_uhlenbeck(1.0, 0.3, dimension=400))
    for scheme in Scheme:
        config = IntegratorConfig(dt=1e-3, n_steps=3, scheme=scheme, seed=5,
                                  initial_state=tuple(np.linspace(-1.0, 1.0, 400)))
        with threads(1):
            compiled, numpy = compiled_and_numpy(lambda: record_bytes(run(config, 1, 2)))
        assert compiled == numpy


# ensembles whose members diverge (system, config, n_paths): in the noisy
# ones the members' solo runs stop at different steps, or not at all, so one
# member of a pair can be bad while its partner would run on; in the quiet
# ones every member is the same, so both lanes of each pair stop at the same
# step
LANE_DIVERGENCES = {
    # first bad steps 11, 9, 2, none, 4, 11, 29, 8
    "hopf, one lane": (SYSTEMS["hopf"](2.5), IntegratorConfig(
        dt=0.08, n_steps=42, seed=3, initial_state=(1.0, 0.0)), 8),
    # 17, 25, 27, 29, none, none, none, 11
    "van der pol, one lane": (SYSTEMS["van der pol"](2.0), IntegratorConfig(
        dt=0.1, n_steps=42, seed=3, initial_state=(2.0, 0.0)), 8),
    "hopf, both lanes": (SYSTEMS["hopf"](0.0), IntegratorConfig(
        dt=0.05, n_steps=42, seed=3, initial_state=(2.3, 0.0)), 7),
    "van der pol, both lanes": (SYSTEMS["van der pol"](0.0), IntegratorConfig(
        dt=0.1, n_steps=42, seed=3, initial_state=(5.5, 0.0)), 7),
}


@requires_compiler
@pytest.mark.parametrize("n_threads", [1, 2, 3, 4])
@pytest.mark.parametrize("setup", sorted(LANE_DIVERGENCES))
def test_a_pair_stops_at_the_first_bad_step_of_either_member(setup, n_threads):
    # the compiled loop, called directly at record_every 3, stops a pair
    # where either member is bad: a member that reports a step is bad there
    # alone too, the earliest step and its lowest member are the solo runs',
    # and every member's rows before that step are its solo numpy run's
    system, config, n_paths = LANE_DIVERGENCES[setup]
    seeds = [sde.path_seed(config.seed, k) for k in range(n_paths)]
    firsts = []
    with numpy_loop():
        for seed in seeds:
            try:
                integrate_path(system, dataclasses.replace(config, seed=seed))
                firsts.append(-1)
            except DivergenceError as err:
                firsts.append(err.step_index)
    pairs = list(zip(firsts[::2], firsts[1::2]))
    if "both" in setup:
        assert all(a == b > 0 for a, b in pairs)
    else:
        assert any(a >= 0 and b < 0 or b >= 0 and a < 0 for a, b in pairs)
    loop = _stepkernel.loop_for(*sde._stepping(system, config.scheme, config.dt))
    rec = np.empty((n_paths, config.n_steps // 3 + 1, 2))
    rec[:, 0] = config.initial_state
    with threads(n_threads):
        bad = loop(rec, 3, config.n_steps, [sde._generator(seed) for seed in seeds]).tolist()
    assert [b for b in bad if b >= 0] == [f for b, f in zip(bad, firsts) if b >= 0]
    earliest = min(f for f in firsts if f >= 0)
    assert min(b for b in bad if b >= 0) == earliest
    assert bad.index(earliest) == firsts.index(earliest)
    steps = earliest // 3 * 3
    for k in range(n_paths):
        with numpy_loop():
            solo = (integrate_path(system, dataclasses.replace(config, n_steps=steps,
                                                               seed=seeds[k]), 3).values
                    if steps else np.array([config.initial_state]))
        assert rec[k, :steps // 3 + 1].tobytes() == solo.tobytes()
    if "one lane" in setup:
        # a member stopped with its partner, before its own solo run's end
        assert any(b < 0 <= f for b, f in zip(bad, firsts))


@pytest.mark.parametrize("setup", sorted(DIVERGENCES))
def test_the_earliest_divergence_and_its_lowest_path_are_reported(setup):
    check_divergence(setup)


@pytest.mark.parametrize("name", sorted(CASES))
def test_records_are_member_major_from_row_zero(name):
    check_records(name)


@pytest.mark.parametrize("name", sorted(CASES))
def test_record_every_thins_the_same_states(name):
    check_record_every(name)


@requires_compiler
@pytest.mark.parametrize("name", sorted(CASES))
def test_the_simulator_takes_its_compiled_loop(name):
    check_loop_choice(name)


def test_the_simulators_refuse_the_same_runs_with_the_same_message():
    # record_every and n_paths are checked once, where every simulator runs
    # its members (sde._simulate), and the start by the array rule, solo and
    # in an ensemble
    for name in CASES:
        check_refusals(name)
    # the order harness refuses the same starts
    system = hopf_system(_hopf(0.1))
    for i, value in ((0, np.nan), (1, np.nan), (0, np.inf), (0, -np.inf)):
        start = [0.0, 0.0]
        start[i] = value
        with warnings.catch_warnings(), pytest.raises(ConfigError) as err:
            warnings.simplefilter("error")
            strong_order_estimate(system, start, 0.5, (0.02, 0.01, 0.005), 4)
        assert str(err.value) == f"initial_state must be finite, got {value} at index {i}"


def test_the_simulators_draw_the_same_normals():
    # one seed pins one Brownian path: every simulator of one state
    # dimension, with noise or without, consumes the same sde._normals
    # stream, member by member, across the chunk boundary of 40 lock-step
    # members.  The spy sees the numpy loops, whose records the compiled
    # loops', which draw the same normals in C, equal bit for bit
    original, streams, drawn = sde._normals, {}, {}

    def spy(rngs, n_steps, dim):
        u = original(rngs, n_steps, dim)
        for p, rng in enumerate(rngs):
            streams.setdefault(id(rng), []).append(u[:, p])
        return u

    n_paths, n_steps = 40, _CHUNK // 40 + 100
    for name, case in CASES.items():
        for sigma in case.sigmas:
            run = case.make(sigma)
            config = IntegratorConfig(dt=1e-3, n_steps=n_steps, seed=31, initial_state=case.start)
            streams.clear()
            with pytest.MonkeyPatch.context() as mp, numpy_loop():
                for module in (sde, hopf, frame):
                    mp.setattr(module, "_normals", spy)
                reference = record_bytes(run(config, 1, n_paths))
            if case.compiled:
                assert record_bytes(run(config, 1, n_paths)) == reference, (name, sigma)
            members = [np.concatenate(draws).tobytes() for draws in streams.values()]
            dim = len(members[0]) // (n_steps * 2 * 8)
            assert [len(m) for m in members] == [n_steps * dim * 2 * 8] * n_paths
            assert drawn.setdefault(dim, members) == members, (name, sigma)
    assert sorted(drawn) == [1, 2, 3]
