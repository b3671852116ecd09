"""Ito integration of additive-noise systems  dy = f(y) dt + S dW.

Two fixed-step schemes are provided: Euler-Maruyama (strong order 1.0 for
additive noise) and an explicit derivative-free scheme of strong order 3/2
(``Scheme.STRONG_RK15``).  The 3/2 scheme advances one step of size h by

    base    = y + (h/m) f(y)
    Y(+,j)  = base + sqrt(h) S_j          Y(-,j) = base - sqrt(h) S_j
    y_next  = y + h f(y) + S dW
              + sum_j [ (f(Y+,j) - f(Y-,j)) dZ_j / (2 sqrt(h))
                      + (f(Y+,j) - 2 f(y) + f(Y-,j)) h / 4 ]

where S_j are the m columns of the noise matrix and dZ_j is the area
increment of the j-th Wiener component over the step,

    dZ_j = int_t^{t+h} (W_j(s) - W_j(t)) ds,
    E dZ = 0,   Var dZ = h^3/3,   Cov(dW, dZ) = h^2/2.

The two stage differences reproduce both the area-increment coupling and the
deterministic h^2/2 correction; with the noise switched off the scheme
reduces to a second-order deterministic integrator.  On systems with linear
drift the local curvature terms vanish and the scheme converges with order 2;
the generic 3/2 rate is observed on nonlinear drift once the stochastic part
of the local error dominates.

Randomness is counter-based and splittable: every path owns a Philox stream
keyed by ``SeedSequence([seed])`` (single paths) or by the sub-seed
``path_seed(seed, k)`` (ensemble member k), and normals are consumed in a
fixed chunked pattern, so results do not depend on evaluation order, on
how a run is split into chunks, on how many members advance together or
on how members are split across threads.  All three simulators (this
integrator, ``frame.simulate_reduced`` and ``hopf.simulate_hopf_linear``)
run their members through one driver, ``_simulate``, and supply only
their start and their member loop; so does ``strong_order_estimate``, with
the numpy loop on its composed increments.
"""

from __future__ import annotations

import enum
from dataclasses import dataclass, field
from typing import Callable, Optional, Sequence

import numpy as np

from . import _stepkernel
from .exceptions import (
    ConfigError,
    DivergenceError,
    _float_rule,
    _require_array,
    _require_count,
    _require_real,
)

__all__ = [
    "Scheme",
    "SdeSystem",
    "IntegratorConfig",
    "Trajectory",
    "OrderEstimate",
    "path_seed",
    "integrate_path",
    "integrate_ensemble",
    "strong_order_estimate",
    "ornstein_uhlenbeck",
    "ou_exact_endpoint",
]

#: divergence guard: abort when any state component leaves [-TRUST, TRUST]
TRUST_RADIUS = 1.0e6
_LEFT_TRUST = f"state left |y| <= {TRUST_RADIUS:g} at step {{step}}{{where}}"

#: one chunk's budget of path-steps (``_chunks``); it bounds memory only,
#: as a split changes no drawn value
_CHUNK = 16384

#: fine steps per smallest dt in ``strong_order_estimate``'s Brownian paths
_REFINE = 16


class Scheme(enum.Enum):
    """Available stepping schemes."""

    EULER_MARUYAMA = "euler-maruyama"
    STRONG_RK15 = "strong-rk15"


@dataclass
class SdeSystem:
    """An autonomous SDE with state-independent (additive) noise.

    Parameters
    ----------
    dimension : int
        State dimension n.
    drift : callable
        Maps a state vector of shape (n,) to a velocity of shape (n,).
        When ``vectorized`` is true it must accept stacked states of shape
        (..., n) and broadcast over leading axes.
    noise_matrix : ndarray of shape (n, n), optional
        Constant noise matrix S.  Omit it and pass ``isotropic_sigma``
        for the common case S = sigma * Id.
    isotropic_sigma : float, optional
        Shorthand for an isotropic noise matrix.
    vectorized : bool
        Whether ``drift`` accepts batched states; otherwise the
        integrator calls it once per state.  A vectorized drift must
        compute each row of a stack exactly as it computes that row alone,
        or ensemble members stop equalling their solo runs in the last
        bits without any warning.  Elementwise formulas do; a matrix
        product such as ``y @ A.T`` with a full ``A`` does not, because a
        (P, n) stack takes another BLAS kernel than one (1, n) row and
        rounds differently.
    jacobian : callable, optional
        Analytic Jacobian, (n,) -> (n, n).  Consumers fall back to central
        finite differences when absent.

    A ``drift``, or a ``jacobian`` other than None, that is not callable
    is a :class:`ConfigError`.

    A drift passed in here always runs through the integrator's numpy
    loop.  The systems the package builds (``hopf_system``,
    ``van_der_pol``, ``ornstein_uhlenbeck``) carry a compiled loop that
    gives the same bits faster; it is dropped once ``drift`` is replaced,
    and a full (non-diagonal) noise matrix runs the numpy loop too.
    """

    dimension: int
    drift: Callable[[np.ndarray], np.ndarray]
    noise_matrix: Optional[np.ndarray] = None
    isotropic_sigma: Optional[float] = None
    vectorized: bool = False
    jacobian: Optional[Callable[[np.ndarray], np.ndarray]] = None
    _kernel: Optional[_stepkernel.KernelSpec] = field(default=None, repr=False, compare=False)

    def __post_init__(self):
        n = self.dimension
        _require_count("dimension", n, 1)
        if not callable(self.drift):
            raise ConfigError(f"drift must be callable, got {self.drift!r}")
        if self.jacobian is not None and not callable(self.jacobian):
            raise ConfigError(f"jacobian must be callable, got {self.jacobian!r}")
        if self.noise_matrix is None:
            sigma = 0.0 if self.isotropic_sigma is None else self.isotropic_sigma
            _require_real("isotropic_sigma", sigma, least=0)
            self.noise_matrix = float(sigma) * np.eye(n)
        else:
            self.noise_matrix = _require_array("noise_matrix", self.noise_matrix, (n, n))
            if self.isotropic_sigma is not None:
                expected = float(self.isotropic_sigma) * np.eye(n)
                if not np.allclose(self.noise_matrix, expected):
                    raise ConfigError(
                        "noise_matrix conflicts with isotropic_sigma"
                    )


@dataclass(frozen=True)
class IntegratorConfig:
    """Step size, horizon, scheme, seed and initial state of one run."""

    dt: float
    n_steps: int
    scheme: Scheme = Scheme.STRONG_RK15
    seed: int = 0
    initial_state: Sequence[float] = field(default_factory=tuple)

    def __post_init__(self):
        _require_real("dt", self.dt)
        _require_count("n_steps", self.n_steps, 1)
        _require_count("seed", self.seed, 0)
        if not isinstance(self.scheme, Scheme):
            raise ConfigError(f"unknown scheme: {self.scheme!r}")


@dataclass
class Trajectory:
    """A sampled path: row k of ``values`` is the state at time k * dt.

    ``dt`` is the spacing of the stored samples, which equals the
    integration step unless the run was thinned with ``record_every``.
    ``seed`` is None for trajectories read back from disk.
    """

    dt: float
    values: np.ndarray
    channel_labels: tuple
    seed: Optional[int] = None

    @property
    def t(self) -> np.ndarray:
        return np.arange(self.values.shape[0]) * self.dt

    @property
    def dimension(self) -> int:
        return self.values.shape[1]


def path_seed(seed: int, index: int) -> int:
    """Sub-seed for ensemble member ``index`` derived from ``seed``.

    Stable across platforms and independent of how many members run or in
    which order; member k of an ensemble is bit-identical to a single path
    integrated with this sub-seed.
    """
    _require_count("seed", seed, 0)
    _require_count("index", index, 0)
    ss = np.random.SeedSequence([int(seed), int(index)])
    return int(ss.generate_state(1, np.uint64)[0])


def _generator(seed: int) -> np.random.Generator:
    # Philox is counter based: the draw at a given chunk offset is a pure
    # function of (key, counter), which is what makes runs order independent.
    return np.random.Generator(np.random.Philox(np.random.SeedSequence([int(seed)])))


def _batched(system: SdeSystem) -> Callable[[np.ndarray], np.ndarray]:
    """Drift acting on (P, n) stacks regardless of ``system.vectorized``."""
    if system.vectorized:
        return system.drift

    f = system.drift

    def apply(states: np.ndarray) -> np.ndarray:
        flat = states.reshape(-1, states.shape[-1])
        out = np.stack([np.asarray(f(row), dtype=float) for row in flat])
        return out.reshape(states.shape)

    return apply


def _members(seed, n_paths):
    """Member seeds and path ids: ``path_seed(seed, k)`` and k for each of
    ``n_paths`` members, or ``[seed]`` and no ids for a solo run (None)."""
    if n_paths is None:
        return [seed], None
    _require_count("n_paths", n_paths, 1)
    ids = list(range(n_paths))
    return [path_seed(seed, k) for k in ids], ids


def _chunks(n_steps, p):
    """Consecutive (done, span) runs of steps covering ``n_steps``, each of
    at most ``_CHUNK`` path-steps for ``p`` paths but at least one step.
    Streams are drawn element by element, so the split changes no value,
    only the memory high-water mark; free a chunk's arrays before the next.
    """
    budget = max(1, _CHUNK // p)
    for done in range(0, n_steps, budget):
        yield done, min(budget, n_steps - done)


def _record(out, rows, done, record_every):
    """Copy into ``out`` the rows of a chunk that are recorded.

    Row i of ``rows`` is the state after step ``done + i + 1``; row k of
    ``out`` is the state after step ``k * record_every`` (row 0 is the
    initial state, which the caller writes).
    """
    first = (-done - 1) % record_every  # chunk row of the next recorded step
    kept = rows[first::record_every]
    at = (done + first + 1) // record_every
    out[at:at + len(kept)] = kept


def _normals(rngs, n_steps: int, dim: int) -> np.ndarray:
    """The frozen draw pattern: (n_steps, P, dim, 2) normals, one path per
    generator, drawn as (n_steps, dim, 2) from each.  Column 0 drives the
    Wiener increments and column 1 the area auxiliary.  Each stream is
    consumed element by element, so splitting a run into calls of any size
    draws the same numbers."""
    return np.stack([rng.standard_normal((n_steps, dim, 2)) for rng in rngs], axis=1)


def _scales(dt):
    """sq = sqrt(dt), zc = dt^1.5 / 2 and inv3 = 1 / sqrt(3) of
    ``_increments``; a ``dt`` whose dt^1.5 overflows is refused."""
    with _float_rule(ConfigError, f"dt must have a finite dt ** 1.5, got {dt}"):
        cube = dt ** 1.5
    return np.sqrt(dt), cube / 2.0, 1.0 / np.sqrt(3.0)


def _increments(rngs, n_steps, dim, dt):
    """dW = sq u0 and dZ = zc (u0 + inv3 u1), each (n_steps, P, dim), from
    the next ``n_steps`` steps' normals u of ``rngs`` at step ``dt``."""
    sq, zc, inv3 = _scales(dt)
    u = _normals(rngs, n_steps, dim)
    return sq * u[..., 0], zc * (u[..., 0] + inv3 * u[..., 1])


def _times_st(dW, ST):
    """S dW one path at a time: a (1, n) @ (n, n) product per path and step
    is what a solo run computes, while a (P, n) stack takes another BLAS
    kernel that rounds a full noise matrix differently."""
    return (dW[..., None, :] @ ST)[..., 0, :]


def _check_members(bad, path_ids, error=DivergenceError, message=_LEFT_TRUST):
    """Raise ``error`` for the earliest of the members' first diverging
    steps ``bad`` (-1: none), and the lowest path at that step; ``message``
    is formatted with that ``step`` and ``where``, " (path k)" in an
    ensemble and empty for a solo run."""
    hit = bad[bad >= 0]
    if hit.size:
        step = int(hit.min())
        pid = None if path_ids is None else path_ids[int(np.argmax(bad == step))]
        where = "" if pid is None else f" (path {pid})"
        raise error(message.format(step=step, where=where), step_index=step, path_index=pid)


def _simulate(config, n_paths, record_every, starts, loop, error=DivergenceError,
              message=_LEFT_TRUST, members=None):
    """Run the members of ``_members(config.seed, n_paths)`` through
    ``loop``, every member from ``starts``; returns their records and seeds.

    Each start gets a member-major record, (P, n_steps // record_every + 1,
    *start.shape), with the start in row 0.  ``loop(*records, record_every,
    n_steps, rngs)`` fills in the other rows, member p drawing from
    ``rngs[p]``, the Philox generator of its seed, and returns each member's
    first bad step, or -1, for which ``_check_members`` raises ``error``
    with ``message``.  A loop may stop a member early once another has gone
    bad, which then reports -1: the earliest bad step and the lowest member
    at it, all the driver raises, stay.  Every simulator runs its members
    here.
    ``members``, when given, is the ``(seeds, path_ids, rngs)`` those
    members already have, which spares deriving them again.
    """
    _require_count("record_every", record_every, 1)
    if config.n_steps % record_every:
        raise ConfigError(
            f"record_every must divide n_steps ({config.n_steps}), got {record_every}"
        )
    if members is None:
        seeds, path_ids = _members(config.seed, n_paths)
        rngs = [_generator(s) for s in seeds]
    else:
        seeds, path_ids, rngs = members
    shape = (len(seeds), config.n_steps // record_every + 1)
    records = [np.empty(shape + np.shape(start)) for start in starts]
    for rec, start in zip(records, starts):
        rec[:, 0] = start
    bad = loop(*records, record_every, config.n_steps, rngs)
    _check_members(bad, path_ids, error, message)
    return records, seeds


def _stepping(system, scheme, dt):
    """``(system, rk15, offsets, constants)`` of ``_stepkernel.loop_for``
    and :func:`_numpy_loop` for ``scheme`` at step ``dt``: whether the 3/2
    scheme runs, its stage offsets (2m, 1, n), rows j and m + j +/- sqrt(h)
    S_j, and (dt, dt/m, 2 sqrt(dt), dt/4, trust, *_scales(dt))."""
    ST = system.noise_matrix.T
    m = ST.shape[0]
    scales = _scales(dt)
    sq = scales[0]
    offsets = np.concatenate([sq * ST, -sq * ST])[:, None, :]
    constants = (dt, dt / m, 2.0 * sq, dt / 4.0, TRUST_RADIUS, *scales)
    return system, scheme is Scheme.STRONG_RK15, offsets, constants


def _numpy_loop(system, rk15, offsets, constants, increments=None):
    """The numpy member loop of ``system``, the reference for
    ``_stepkernel.loop_for``: built and called the same way, ``loop(rec,
    record_every, n_steps, rngs)``, with the same results.

    Each step runs the update of the module docstring, term by term in the
    order written there, with the sums over j taken from j = 0 upwards.
    All paths advance in lock step, one chunk of steps at a time
    (``_chunks``), from the chunk's ``_increments`` of ``rngs``, or its rows
    of the pre-composed ``increments`` (dW, dZ).  Step i of a chunk writes
    its new state over row i of the chunk's S dW array, once that row is
    added in; the recorded rows are copied out once per chunk.  At the
    first step where some path diverges, the loop gives that step to each
    path that diverges there and stops.
    """
    F = _batched(system)
    ST = system.noise_matrix.T
    m = ST.shape[0]
    dt, dt_m, two_sq, dt_4, trust = constants[:5]
    add, multiply, subtract = np.add, np.multiply, np.subtract
    max_abs = np.maximum.reduce

    def loop(rec, record_every, n_steps, rngs):
        P, _, n = rec.shape
        y = rec[:, 0].copy()
        base = np.empty((P, n))
        twice = np.empty((P, n))
        stages = np.empty((2 * m, P, n))
        pair = np.empty((m, P, n))
        head = pair[0]
        for done, span in _chunks(n_steps, P):
            if increments is None:
                dW, dZ = _increments(rngs, span, n, dt)
            else:
                dW, dZ = (a[done:done + span] for a in increments)
            path = _times_st(dW, ST)
            dZ = dZ.transpose(0, 2, 1)[..., None]  # (span, m, P, 1): dZ_j per path
            for i in range(span):
                y_next = path[i]
                a0 = F(y)
                if rk15:
                    multiply(a0, dt_m, out=base)
                    add(y, base, out=base)
                    add(base, offsets, out=stages)
                    A = F(stages)
                    plus, minus = A[:m], A[m:]
                # y + h f(y) + S dW
                multiply(a0, dt, out=base)
                add(y, base, out=base)
                add(base, y_next, out=y_next)
                if rk15:
                    # + sum_j (f(Y+,j) - f(Y-,j)) dZ_j / (2 sqrt(h))
                    subtract(plus, minus, out=pair)
                    multiply(pair, dZ[i], out=pair)
                    for j in range(1, m):
                        add(head, pair[j], out=head)
                    head /= two_sq
                    add(y_next, head, out=y_next)
                    # + sum_j (f(Y+,j) + f(Y-,j) - 2 f(y)) h / 4
                    add(plus, minus, out=pair)
                    multiply(a0, 2.0, out=twice)
                    subtract(pair, twice, out=pair)
                    for j in range(1, m):
                        add(head, pair[j], out=head)
                    head *= dt_4
                    add(y_next, head, out=y_next)
                # NaN fails the comparison, so it reaches the exact check too
                if not max_abs(np.abs(y_next, out=base), axis=None) <= trust:
                    return np.where((np.abs(y_next) <= trust).all(axis=1), -1, done + i)
                y = y_next
            _record(rec.swapaxes(0, 1), path, done, record_every)
            # free this chunk's arrays before the next draw allocates its own
            y = y.copy()
            del dW, dZ, path
        return np.full(P, -1)

    return loop


def _phase_initial(initial_state, n):
    """A phase/deviation start (z0 ..., tau0) of length n, or () for zeros."""
    try:
        empty = np.shape(initial_state) == (0,)
    except ValueError:  # a ragged nested sequence, which the array rule refuses
        empty = False
    if empty:
        return np.zeros(n - 1), 0.0
    start = _require_array("initial_state", initial_state, (None,))
    if start.size != n:
        raise ConfigError(f"initial_state must be empty or (z0 ..., tau0) of length {n}")
    return start[:-1], float(start[-1])


def _labels(dimension, channel_labels):
    if channel_labels is None:
        return tuple(f"y{i + 1}" for i in range(dimension))
    labels = tuple(channel_labels)
    if len(labels) != dimension:
        raise ConfigError("one channel label per state component is required")
    return labels


def _integrate(system, config, n_paths, record_every, channel_labels):
    """One Trajectory per member of ``_simulate``, its rows of the shared
    record as values; every path starts at ``config.initial_state``.

    For the package's own drifts with a diagonal S the compiled loop of
    ``_stepkernel.loop_for`` runs, the members split across threads; every
    other system takes its reference twin :func:`_numpy_loop`.
    """
    labels = _labels(system.dimension, channel_labels)
    y0 = _require_array("initial_state", config.initial_state, (system.dimension,))
    stepping = _stepping(system, config.scheme, config.dt)
    loop = _stepkernel.loop_for(*stepping) or _numpy_loop(*stepping)
    (rec,), seeds = _simulate(config, n_paths, record_every, (y0,), loop)
    return [
        Trajectory(dt=config.dt * record_every, values=values, channel_labels=labels, seed=s)
        for values, s in zip(rec, seeds)
    ]


def integrate_path(system, config, record_every=1, channel_labels=None) -> Trajectory:
    """Integrate a single path; bit-reproducible for a given config.

    ``record_every`` thins the stored samples: with value q the returned
    trajectory holds every q-th state and its ``dt`` is q times the
    integration step.
    """
    return _integrate(system, config, None, record_every, channel_labels)[0]


def integrate_ensemble(
    system, config, n_paths, record_every=1, channel_labels=None
) -> list:
    """Integrate ``n_paths`` independent paths.

    Member k draws from the sub-seed ``path_seed(config.seed, k)``, so the
    result is independent of evaluation order; a one-path
    ensemble reproduces ``integrate_path`` under that sub-seed exactly.
    The members' values are C-contiguous views of one member-major record.
    A divergence raises for the earliest step, and the lowest member
    index at that step.
    """
    return _integrate(system, config, n_paths, record_every, channel_labels)


# ---------------------------------------------------------------------------
# strong-order measurement


@dataclass(frozen=True)
class OrderEstimate:
    """Log-log slope of RMS endpoint error against step size."""

    slope: float
    dts: np.ndarray
    rms_errors: np.ndarray
    scheme: Scheme


def strong_order_estimate(
    system,
    initial_state,
    t_final,
    dts,
    n_paths,
    scheme=Scheme.STRONG_RK15,
    seed=0,
    exact_endpoint=None,
) -> OrderEstimate:
    """Measure the strong convergence order of ``scheme`` on ``system``.

    All step sizes consume the same Brownian paths: increments are generated
    on a fine grid (the smallest dt divided by 16) and summed into
    coarse ones, area increments included.  The error at each dt is the RMS
    over paths of the euclidean endpoint distance to the reference, which is
    ``exact_endpoint(initial_state, h_fine, dW_fine, dZ_fine)`` when given
    (use :func:`ou_exact_endpoint` for the linear test system) and otherwise
    the same scheme run on the fine grid.  It refuses the starts
    ``integrate_ensemble`` refuses, and each run goes through the member
    driver of the simulators, so it raises the same ``DivergenceError``,
    path included.
    ``t_final`` and every step size must be positive and finite
    (:class:`ConfigError` before any draw).

    Returns the least-squares slope of log RMS error against log dt.
    """
    _require_real("t_final", t_final)
    dts = list(dts)
    for dt in dts:
        _require_real("dt", dt)
    dts = np.asarray(sorted(dts, reverse=True), dtype=float)
    if dts.size < 3:
        raise ConfigError("at least 3 step sizes are required")
    _require_count("n_paths", n_paths, 2)
    hf = dts[-1] / _REFINE
    nf = int(round(t_final / hf))
    if not np.isclose(nf * hf, t_final, rtol=1e-12):
        raise ConfigError(f"t_final must be an integer multiple of min(dts)/{_REFINE}")
    ratios = []
    for dt in dts:
        r = int(round(dt / hf))
        if not (np.isclose(r * hf, dt, rtol=1e-12) and nf % r == 0):
            raise ConfigError(
                f"dt {dt} must be an integer multiple of the fine step {hf}"
            )
        ratios.append(r)

    y0 = _require_array("initial_state", initial_state, (system.dimension,))
    seeds, path_ids = _members(seed, n_paths)
    rngs = [_generator(s) for s in seeds]
    dw_f, dz_f = _increments(rngs, nf, system.dimension, hf)

    def endpoints(dt, dw, dz):
        # the numpy loop on the composed increments, recording start and end;
        # it reads no generator, so every step size shares the members' own
        config = IntegratorConfig(dt, len(dw), scheme, seed, initial_state)
        loop = _numpy_loop(*_stepping(system, scheme, dt), increments=(dw, dz))
        (rec,), _ = _simulate(config, n_paths, len(dw), (y0,), loop,
                              members=(seeds, path_ids, rngs))
        return rec[:, -1]

    if exact_endpoint is not None:
        reference = exact_endpoint(y0, hf, dw_f, dz_f)
    else:
        reference = endpoints(hf, dw_f, dz_f)

    rms = np.empty(dts.size)
    for i, (dt, r) in enumerate(zip(dts, ratios)):
        nc = nf // r
        shape = (nc, r) + dw_f.shape[1:]
        bw = dw_f.reshape(shape)
        bz = dz_f.reshape(shape)
        dw = bw.sum(axis=1)
        dz = bz.sum(axis=1) + hf * (np.cumsum(bw, axis=1) - bw).sum(axis=1)
        err = endpoints(dt, dw, dz) - reference
        rms[i] = np.sqrt(np.mean(np.sum(err * err, axis=1)))
    slope = float(np.polyfit(np.log(dts), np.log(rms), 1)[0])
    return OrderEstimate(slope=slope, dts=dts, rms_errors=rms, scheme=scheme)


def ornstein_uhlenbeck(lambda_, sigma, dimension=1) -> SdeSystem:
    """The linear relaxation process dz = -lambda z dt + sigma dW."""
    _require_real("lambda_", lambda_)
    kernel = _stepkernel.spec("ornstein_uhlenbeck", (float(lambda_),))
    return SdeSystem(
        dimension=dimension,
        drift=kernel.drift,
        isotropic_sigma=sigma,
        vectorized=True,
        _kernel=kernel,
    )


def ou_exact_endpoint(lambda_, sigma):
    """Pathwise endpoint of the linear process from fine-grid increments.

    The stochastic convolution  int_0^T e^{-lambda (T - s)} dW  is evaluated
    per fine step through second order,  e^{lambda t_k} (dW (1 + lambda h)
    - lambda dZ),  so the reference error is O(h_fine^2): negligible against
    the O(h^1..h^2) scheme errors measured at the coarse steps.
    """
    lam = float(lambda_)
    sig = float(sigma)

    def endpoint(y0, h, dw, dz):
        nf = dw.shape[0]
        t_final = nf * h
        t = np.arange(nf) * h
        decay = np.exp(-lam * (t_final - t))[:, None, None]
        conv = (decay * (dw * (1.0 + lam * h) - lam * dz)).sum(axis=0)
        return np.exp(-lam * t_final) * y0[None, :] + sig * conv

    return endpoint
