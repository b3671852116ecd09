"""Limit-cycle geometry and the reduced phase/deviation model.

Given an autonomous ODE with an attracting limit cycle, this module locates
the cycle, equips it with a comoving orthogonal frame, and projects
isotropic white noise onto the frame to obtain a closed reduced SDE for the
phase tau (position along the cycle) and the deviation z0 (transverse
offset, expressed in the fixed initial normal hyperplane).

The frame U(t) solves

    dU/dt = -T(t) Tdot(t)^T U P0  +  Tdot(t) T0^T,      U(0) = Id,

where T is the unit tangent of the cycle, T0 = T(0), and P0 projects onto
the hyperplane normal to T0.  U stays orthogonal, carries T0 to T(t), and
its rate V = dU/dt has operator norm equal to |Tdot|; these properties are
enforced as invariants after construction.  The reduced model is then

    dz0 = J0(tau) z0 dt + sigma dW_d,
    dtau = dt + sigma dW_p / |f(L(tau))|,

with J0 the Jacobian of the drift seen from the frame, restricted to the
normal hyperplane.  For a planar cycle J0 is scalar and the integral of J0
over one period is the log of the nontrivial Floquet multiplier.

All per-cycle quantities are sampled on a uniform grid of ``grid_size``
points per period and interpolated with periodic cubic splines.
"""

from __future__ import annotations

import warnings
from dataclasses import dataclass

import numpy as np
from scipy.integrate import DOP853, solve_ivp
from scipy.interpolate import CubicSpline
from scipy.linalg import expm
from scipy.optimize import brentq

from . import _stepkernel
from .exceptions import (
    ConfigError,
    FixedPointError,
    NoCycleError,
    NumericsError,
    StabilityWarning,
    _require_array,
    _require_count,
    _require_finite_array,
    _require_real,
)
from .sde import (
    TRUST_RADIUS,
    IntegratorConfig,
    SdeSystem,
    Trajectory,
    _batched,
    _chunks,
    _labels,
    _normals,
    _phase_initial,
    _record,
    _simulate,
)

__all__ = [
    "CycleParameterization",
    "ComovingFrame",
    "ReducedModel",
    "find_limit_cycle",
    "build_frame",
    "reduce",
    "simulate_reduced",
    "reconstruct",
]

# ODE tolerances for cycle location; the period itself is pinned down by
# the solver's event root-finding, which is much tighter than these.
_ODE_RTOL = 1.0e-12
_ODE_ATOL = 1.0e-12
_ESCAPE_RADIUS = 1.0e6
# closure of the resampled cycle: |L(period) - L(0)| <= _CLOSURE_TOL (1 + |L(0)|)
_CLOSURE_TOL = 1.0e-8
# total horizon of the recurrence search
_MAX_TIME = 1000.0
# solve_ivp's tolerances for an event's root
_ROOT_TOL = 4.0 * np.finfo(float).eps


@dataclass(frozen=True)
class CycleParameterization:
    """One period of an attracting limit cycle on a uniform time grid.

    ``grid`` holds ``m`` times covering [0, period); row i of the sample
    arrays belongs to grid[i].  ``J`` stacks the drift Jacobian at each
    sample, ``kappa`` is the curvature |dT/ds| and ``speed`` = |f(L)|.
    """

    period: float
    grid: np.ndarray
    L: np.ndarray
    f_on_L: np.ndarray
    T: np.ndarray
    J: np.ndarray
    kappa: np.ndarray
    speed: np.ndarray

    def __post_init__(self):
        # NaN passes the two checks below, and then fails in scipy's spline
        for name in ("grid", "L", "f_on_L", "T", "J"):
            _require_finite_array(f"cycle {name}", np.asarray(getattr(self, name), float),
                                  NumericsError)
        norms = np.linalg.norm(self.T, axis=1)
        if np.abs(norms - 1.0).max() > 1e-10:
            raise NumericsError("cycle tangents are not unit vectors")
        if np.any(np.einsum("mi,mi->m", self.T, self.f_on_L) <= 0.0):
            raise NumericsError("cycle tangents are not aligned with the drift")

    @property
    def dimension(self) -> int:
        return self.L.shape[1]

    @property
    def grid_size(self) -> int:
        return self.grid.size

    def tangent_rate(self) -> np.ndarray:
        """dT/dt on the grid via the projected Jacobian, (I - TT^T) J T."""
        return _tangent_rate(self.J, self.T)


def _tangent_rate(J, T):
    jt = np.einsum("mij,mj->mi", J, T)
    return jt - T * np.einsum("mi,mi->m", T, jt)[:, None]


@dataclass(frozen=True)
class ComovingFrame:
    """Orthogonal frame samples U, their rates V, and the initial normal
    basis (columns of ``basis_P0`` span the hyperplane normal to T(0))."""

    U: np.ndarray
    V: np.ndarray
    basis_P0: np.ndarray


@dataclass(frozen=True)
class ReducedModel:
    """Phase/deviation SDE coefficients sampled on the cycle grid."""

    J0: np.ndarray
    speed: np.ndarray
    sigma: float


def _require_deterministic(ode: SdeSystem):
    if ode.noise_matrix is not None and np.any(ode.noise_matrix != 0.0):
        raise ConfigError(
            "cycle detection needs the deterministic part only; "
            "build the system with sigma = 0"
        )


def find_limit_cycle(
    ode: SdeSystem,
    initial_guess,
    grid_size=1024,
    transient_time=100.0,
) -> CycleParameterization:
    """Locate an attracting limit cycle reachable from ``initial_guess``.

    The guess is integrated for ``transient_time`` to land on the
    attractor, then a Poincare section is placed through the arrival state,
    normal to the local drift.  Successive positively-oriented crossings
    are collected (event root-finding pins each crossing time to machine
    precision) until the return map has converged; the period is the
    spacing of the last two crossings and one period is resampled on a
    uniform grid of ``grid_size`` points.  The recurrence search gives up
    after 1000 time units, and the resampled cycle must close to within
    1e-8 (1 + |L(0)|).

    The search steps DOP853 itself, window by window, and takes each
    crossing as soon as its step is taken, with the event rule of
    ``solve_ivp``, so the crossings are the ones a windowed ``solve_ivp``
    with section and escape events finds, bit for bit.  It stops at the
    converged crossing, usually the second, one period after the start,
    instead of integrating the rest of its window.  So an escape past
    |y| = 1e6 later in the same window than the converged crossing, and
    a stationary state at that window's end, are no longer watched for.

    The transient, the search and the one-turn resampling take the drift
    at one state many thousand times.  For a system the package builds,
    whose drift is still its kernel spec's, they get
    ``_stepkernel.single_state``: the spec's formula on Python floats, the
    numpy drift's bits without its per-call overhead.  Any other drift is
    called as it is.

    Parameters
    ----------
    ode : SdeSystem
        Noise-free system; only the drift (and Jacobian, if set) is used.
    initial_guess : array_like
        Starting state in the cycle's basin of attraction.
    grid_size : int
        Samples per period, m; an integer of at least 8.
    transient_time : float
        Relaxation horizon, and the span of each recurrence-search window.

    A drift that is not finite at ``initial_guess`` is refused up front:
    DOP853's first step size would be NaN, and scipy retries it without
    end.  One that stops being finite later is not checked here; DOP853
    then shrinks its step until the integration fails with NumericsError.

    Raises
    ------
    ConfigError
        If ``grid_size`` is not an integer >= 8, ``initial_guess`` is not
        a finite real array of shape (n,), ``transient_time`` is not
        positive and finite, or the drift at ``initial_guess`` is not
        finite.
    FixedPointError
        If the trajectory settles on a state with vanishing drift.
    NoCycleError
        If no converged recurrence is found, or the cycle does not close.
    """
    _require_count("grid_size", grid_size, 8)
    _require_deterministic(ode)

    # the integrators hand the drift float64 states and convert what it returns
    rhs = _stepkernel.single_state(ode) or (lambda t, y: ode.drift(y))

    def f(y):
        return np.asarray(rhs(0.0, y), dtype=float)

    y0 = _require_array("initial_guess", initial_guess, (ode.dimension,))
    _require_real("transient_time", transient_time)
    if not np.isfinite(f(y0)).all():
        raise ConfigError(f"the drift at initial_guess {y0} must be finite, got {f(y0)}")

    def check_not_fixed_point(y):
        sp = np.linalg.norm(f(y))
        if sp < 1e-8 * (1.0 + np.linalg.norm(y)):
            raise FixedPointError(
                f"trajectory settled on a stationary point (drift norm {sp:.2e})"
            )
        return sp

    check_not_fixed_point(y0)
    relax = solve_ivp(
        rhs, (0.0, transient_time), y0, method="DOP853", rtol=1e-10, atol=1e-12
    )
    if not relax.success:
        raise NumericsError(f"transient integration failed: {relax.message}")
    ystar = relax.y[:, -1]
    sp = check_not_fixed_point(ystar)
    normal = f(ystar) / sp

    # collect crossings until two consecutive section states coincide to
    # 1e-10 (relative); their spacing is the period
    crossings = []
    for te, ye in _section_crossings(rhs, ystar, normal, transient_time, check_not_fixed_point):
        # a spiral into a focus keeps crossing the section with ever
        # smaller drift; catch that before the gaps look converged
        check_not_fixed_point(ye)
        crossings.append((te, ye))
        if len(crossings) >= 2:
            gap = np.linalg.norm(ye - crossings[-2][1])
            if gap <= 1e-10 * (1.0 + np.linalg.norm(ye)):
                break
    else:
        if not crossings:
            raise NoCycleError(
                f"no section recurrence within the horizon {_MAX_TIME:g}"
            )
        raise NoCycleError(
            f"return map did not converge within {_MAX_TIME:g} "
            f"({len(crossings)} crossings seen)"
        )

    (t_before, _), (t_last, anchor) = crossings[-2:]
    period = t_last - t_before

    one_turn = solve_ivp(
        rhs,
        (0.0, period),
        anchor,
        method="DOP853",
        rtol=_ODE_RTOL,
        atol=1e-14,
        dense_output=True,
    )
    if not one_turn.success:
        raise NumericsError(f"cycle resampling failed: {one_turn.message}")
    closure = np.linalg.norm(one_turn.sol(period) - anchor)
    if closure > _CLOSURE_TOL * (1.0 + np.linalg.norm(anchor)):
        raise NoCycleError(
            f"cycle does not close: |L(period) - L(0)| = {closure:.2e}"
        )

    grid = np.arange(grid_size) * (period / grid_size)
    L = one_turn.sol(grid).T
    f_on_L = np.asarray(_batched(ode)(L), dtype=float)
    speed = np.linalg.norm(f_on_L, axis=1)
    T = f_on_L / speed[:, None]
    J = _jacobian_samples(ode, f, L)
    return CycleParameterization(
        period=float(period),
        grid=grid,
        L=L,
        f_on_L=f_on_L,
        T=T,
        J=J,
        kappa=np.linalg.norm(_tangent_rate(J, T), axis=1) / speed,
        speed=speed,
    )


def _section_crossings(rhs, ystar, normal, window, check_window_end):
    """The upward crossings (t, y) of the section normal @ (y - ystar) = 0
    by the trajectory from ``ystar``, each yielded as soon as its step is
    taken.  DOP853 runs in windows of ``window`` up to ``_MAX_TIME`` under
    ``solve_ivp``'s event rule: section and escape values at each step's
    end, and on a step where the section rose through zero a dense output,
    brentq's root at solve_ivp's tolerances and the dense state there.  A
    step that takes |y| across ``_ESCAPE_RADIUS`` raises NoCycleError, and
    ``check_window_end`` gets each window's last state.
    """
    radius2 = _ESCAPE_RADIUS**2

    def section(y):
        return normal @ (y - ystar)

    t, y = 0.0, ystar
    while t < _MAX_TIME:
        solver = DOP853(
            rhs, t, y, t + min(window, _MAX_TIME - t), rtol=_ODE_RTOL, atol=_ODE_ATOL
        )
        g, e = section(y), y @ y - radius2
        while solver.status == "running":
            message = solver.step()
            if solver.status == "failed":
                raise NumericsError(f"recurrence search failed: {message}")
            g_new, e_new = section(solver.y), solver.y @ solver.y - radius2
            if e <= 0.0 <= e_new or e_new <= 0.0 <= e:
                raise NoCycleError(
                    f"trajectory escaped |y| = {_ESCAPE_RADIUS:g} without recurring"
                )
            if g <= 0.0 <= g_new:
                sol = solver.dense_output()
                te = brentq(
                    lambda s: section(sol(s)), solver.t_old, solver.t,
                    xtol=_ROOT_TOL, rtol=_ROOT_TOL,
                )
                yield te, sol(te)
            g, e = g_new, e_new
        t, y = solver.t, solver.y
        check_window_end(y)


def _jacobian_samples(ode, f, points) -> np.ndarray:
    if ode.jacobian is not None:
        return np.array([np.asarray(ode.jacobian(p), dtype=float) for p in points])
    m, n = points.shape
    J = np.empty((m, n, n))
    for i, p in enumerate(points):
        step = 1e-6 * (1.0 + np.linalg.norm(p))
        for j in range(n):
            e = np.zeros(n)
            e[j] = step
            J[i, :, j] = (f(p + e) - f(p - e)) / (2.0 * step)
    return J


def _periodic_spline(grid, values, period) -> CubicSpline:
    t = np.concatenate([grid, [period]])
    v = np.concatenate([values, values[:1]], axis=0)
    return CubicSpline(t, v, axis=0, bc_type="periodic")


def _nearest_orthogonal(A) -> np.ndarray:
    u, _, vt = np.linalg.svd(A)
    return u @ vt


def _normal_basis(t0) -> np.ndarray:
    """Orthonormal completion of the tangent; columns ordered by the
    coordinate index they were seeded from, with the sign freedom pinned
    deterministically (in the plane: the tangent rotated -90 degrees, the
    outward normal of a counterclockwise cycle)."""
    n = t0.size
    if n == 2:
        return np.array([[t0[1]], [-t0[0]]])
    q, _ = np.linalg.qr(np.column_stack([t0, np.eye(n)]))
    b = q[:, 1:n]
    idx = np.argmax(np.abs(b), axis=0)
    return b * np.sign(b[idx, np.arange(n - 1)])


def _transport(tan, rate, t0, p0, h, m, substeps):
    """The numpy loop of :func:`build_frame`'s transport, the reference of
    ``_stepkernel.frame_transport``, which takes the same arguments and
    gives the same results.

    U starts at the identity and takes s = m ``substeps`` classical RK4
    steps of ``h``; each step's U is projected to the nearest orthogonal
    matrix, and every ``substeps``-th is kept, U[i] at grid point i.  Then
    V[i] = dU/dt at U[i].  The tangent and its rate are the rows of ``tan``
    and ``rate``: row k at the start of step k, rows s + k and 2 s + k half
    way and at its end, and rows 3 s + i at grid point i; ``t0`` is the
    first tangent and ``p0`` the projector normal to it.  Returns U, V and
    the first step whose drift from orthogonality before the projection,
    the Frobenius norm of U^T U - I, passes 1e-6, with that drift, or -1;
    U and V are unfinished after such a step.
    """
    n = t0.size
    s = m * substeps

    def dU(at, U):
        td = rate[at]
        return -np.outer(tan[at], td) @ U @ p0 + np.outer(td, t0)

    U = np.empty((m, n, n))
    U[0] = np.eye(n)
    cur = np.eye(n)
    for k in range(s):
        k1 = dU(k, cur)
        k2 = dU(s + k, cur + h / 2.0 * k1)
        k3 = dU(s + k, cur + h / 2.0 * k2)
        k4 = dU(2 * s + k, cur + h * k3)
        cur = cur + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
        drift_from_orthogonal = np.linalg.norm(cur.T @ cur - np.eye(n))
        if drift_from_orthogonal > 1e-6:
            return U, None, k, drift_from_orthogonal
        cur = _nearest_orthogonal(cur)
        if (k + 1) % substeps == 0 and k + 1 < s:
            U[(k + 1) // substeps] = cur

    V = np.array([dU(3 * s + i, U[i]) for i in range(m)])
    return U, V, -1, 0.0


def build_frame(cycle: CycleParameterization, substeps=1) -> ComovingFrame:
    """Integrate the frame equation along the cycle grid.

    Classical RK4 with ``substeps`` stages per grid interval; after every
    step U is projected to the nearest orthogonal matrix (polar
    projection), and the drift from orthogonality before projection must
    stay below 1e-6 or the grid is judged too coarse.  All frame
    invariants are verified before returning.

    Python evaluates the tangent's and its rate's periodic splines once, at
    every time the steps need, and the normal basis.  The steps themselves
    run in one call of the compiled library (``_stepkernel.frame_transport``):
    the outer products and RK4 sums in C, in numpy's order, and the matrix
    products, the SVD of the projection and the dot of the orthogonality
    norm in numpy's own float64 loops, which the C calls with the strides
    numpy would pass.  Those go through OpenBLAS and LAPACK, whose kernels
    sum in an order that depends on the CPU, so only numpy's loops give
    numpy's bits on every host.  The numpy loop (``_transport``) is the
    reference, and it runs instead, with the same results, without the
    library or numpy's loop API, and whenever an operation raises a
    floating-point exception that numpy's error state does not ignore, so
    that numpy reports it.

    Raises
    ------
    NumericsError
        When a step drifts from orthogonality by more than 1e-6, or the
        built frame breaks an invariant: the grid is too coarse.
    numpy.linalg.LinAlgError
        When a projection's SVD does not converge (a NaN reached it).
    """
    _require_count("substeps", substeps, 1)
    m, n = cycle.L.shape
    t0 = cycle.T[0]
    p0 = np.eye(n) - np.outer(t0, t0)
    h = cycle.period / (m * substeps)
    # both splines are called once, at every time needed: RK4 step k at
    # t[k], t[k] + h/2 and t[k] + h (rows k, s + k, 2s + k), with t summed
    # h by h from 0, and V at the grid (rows 3s on)
    s = m * substeps
    t = np.concatenate([[0.0], np.add.accumulate(np.full(s - 1, h))])
    times = np.concatenate([t, t + h / 2.0, t + h, cycle.grid])
    tan = _periodic_spline(cycle.grid, cycle.T, cycle.period)(times)
    rate = _periodic_spline(cycle.grid, cycle.tangent_rate(), cycle.period)(times)
    args = (tan, rate, t0, p0, h, m, substeps)
    U, V, lost, drift = _stepkernel.frame_transport(*args) or _transport(*args)
    if lost >= 0:
        raise NumericsError(
            f"frame lost orthogonality ({drift:.2e}) at t = {t[lost] + h:.4g}; "
            "rebuild on a finer grid (find_limit_cycle's grid_size, the CLI's --grid-size)"
        )
    frame = ComovingFrame(U=U, V=V, basis_P0=_normal_basis(t0))
    ortho, tangent_dev, lemma_dev = _frame_deviations(cycle, frame)
    if ortho > 1e-8 or tangent_dev > 1e-6 or lemma_dev > 1e-6:
        raise NumericsError(
            "frame invariants violated "
            f"(orthogonality {ortho:.2e}, tangent transport {tangent_dev:.2e}, "
            f"rate norm {lemma_dev:.2e}); rebuild with a finer grid"
        )
    return frame


def _frame_deviations(cycle, frame):
    """Worst deviations from the frame invariants over the grid: from
    orthogonality of U, of U T0 from T, and of |V| from |dT/dt|."""
    # the Frobenius norm of each U^T U - I: numpy's matmul takes each
    # product to syrk and vecdot's ddot is norm's, as for one matrix
    m = len(frame.U)
    drift = (frame.U.transpose(0, 2, 1) @ frame.U - np.eye(cycle.dimension)).reshape(m, -1)
    ortho = np.sqrt(np.vecdot(drift, drift)).max()
    carried = np.einsum("mij,j->mi", frame.U, cycle.T[0])
    tangent_dev = np.linalg.norm(carried - cycle.T, axis=1).max()
    # the rotation-rate identity is about the operator norm, not Frobenius
    rate_norm = np.linalg.norm(frame.V, 2, axis=(1, 2))
    lemma_dev = np.abs(
        rate_norm - np.linalg.norm(cycle.tangent_rate(), axis=1)
    ).max()
    return ortho, tangent_dev, lemma_dev


def reduce(cycle: CycleParameterization, frame: ComovingFrame, sigma) -> ReducedModel:
    """Project the drift Jacobian into the frame's normal coordinates.

    Sample i of the result is  B0^T U_i^T P_i J_i U_i B0  with P_i the
    projector normal to the tangent at sample i and B0 the initial normal
    basis; the noise level ``sigma`` is recorded for the reduced SDE.
    Emits :class:`StabilityWarning` when the one-period monodromy of J0 is
    not a contraction.
    """
    _require_real("sigma", sigma, zero=True)
    U, B = frame.U, frame.basis_P0
    ub = np.einsum("mij,jk->mik", U, B)
    jub = np.einsum("mij,mjk->mik", cycle.J, ub)
    pjub = jub - cycle.T[:, :, None] * np.einsum("mi,mik->mk", cycle.T, jub)[:, None, :]
    j0 = np.einsum("jl,mjk->mlk", B, np.einsum("mji,mjk->mik", U, pjub))

    h = cycle.period / cycle.grid_size
    mono = np.eye(B.shape[1])
    closed = np.concatenate([j0, j0[:1]], axis=0)
    for i in range(cycle.grid_size):
        mono = expm(0.5 * h * (closed[i] + closed[i + 1])) @ mono
    radius = np.abs(np.linalg.eigvals(mono)).max()
    if radius >= 1.0:
        warnings.warn(
            f"one-period monodromy has spectral radius {radius:.3f} >= 1; "
            "the cycle is not attracting at this resolution",
            StabilityWarning,
        )
    return ReducedModel(J0=j0, speed=cycle.speed.copy(), sigma=float(sigma))


def _reduced_loop(j0, speed, period, h, kick_scale, trust):
    """The numpy loop of :func:`simulate_reduced`, the reference for
    ``_stepkernel.reduced_loop``: built from the same arguments, the
    periodic splines of J0 and the speed among them, called the same way,
    with the same results.

    All paths advance in lock step, one chunk of steps at a time
    (``sde._chunks``), from the chunk's normals (``sde._normals``).  The
    phase recursion does not read z, so a chunk first advances tau for all
    its steps, calling the speed's spline once a step, then calls J0's at
    all the stored phases at once, then advances z, summing J0 z over the
    columns of J0 from the first upwards.  At the first chunk step where
    some path diverges, the loop gives that step to each path that diverges
    there and stops.
    """
    add, mod, multiply = np.add, np.mod, np.multiply

    def loop(tau_out, z_out, record_every, n_steps, rngs):
        p, _, d = z_out.shape
        tau = tau_out[:, 0]
        # the steps sum J0 z from j = 0, not from +0.0, which would turn a
        # -0.0 start deviation into +0.0; adding +0.0 once here keeps every
        # value, as no later state can be -0.0
        z = z_out[:, 0] + 0.0
        drift = np.empty((p, d))
        term = np.empty((p, d))
        for done, span in _chunks(n_steps, p):
            xi = _normals(rngs, span, d + 1)[..., 0]
            zs = kick_scale * xi[..., :d]  # step i writes its z over row i
            phase_kick = kick_scale * xi[..., d]
            taus = np.empty((span, p))
            wrapped = np.empty((span, p))  # kept for J0
            for i in range(span):
                w = mod(tau, period, out=wrapped[i])
                tau = add(tau, h, out=taus[i])
                add(tau, phase_kick[i] / speed(w), out=tau)
            J = j0(wrapped).transpose(3, 0, 1, 2)  # J[j, i]: column j
            for i in range(span):
                # J z = sum_j J[:, :, j] z_j, from j = 0 upwards
                multiply(J[0, i], z[:, :1], out=drift)
                for j in range(1, d):
                    multiply(J[j, i], z[:, j:j + 1], out=term)
                    add(drift, term, out=drift)
                multiply(drift, h, out=drift)
                add(z, drift, out=drift)
                z = add(drift, zs[i], out=zs[i])
            ok = (np.abs(zs) <= trust).all(axis=2) & np.isfinite(taus)
            if not ok.all():
                i = int(np.argmax(~ok.all(axis=1)))
                return np.where(ok[i], -1, done + i)
            _record(tau_out.T, taus, done, record_every)
            _record(z_out.swapaxes(0, 1), zs, done, record_every)
            # free this chunk's arrays before the next draw allocates its own
            tau, z = taus[-1].copy(), zs[-1].copy()
            del xi, zs, phase_kick, taus, wrapped, J
        return np.full(p, -1)

    return loop


def simulate_reduced(
    model: ReducedModel,
    cycle: CycleParameterization,
    config: IntegratorConfig,
    record_every=1,
    n_paths=None,
):
    """Euler-Maruyama integration of the reduced phase/deviation SDE.

    J0 and the speed are evaluated at tau modulo the period through
    periodic cubic splines of their grid samples.  The Wiener components
    are drawn in the order (deviation ..., phase) from the same chunked
    pattern as the generic integrator, so for a planar cycle a run here
    consumes exactly the normals of ``simulate_hopf_linear`` at equal
    seeds.  The config's scheme field is not consulted: the coefficients
    are state dependent, which the derivative-free strong scheme does not
    cover.

    The records are member-major, (P, N+1) and (P, N+1, n-1), with the
    start in row 0, from the member driver of all three simulators
    (``sde._simulate``).  The members run in the compiled loop of
    ``_stepkernel.reduced_loop``: each member runs all its steps, draws its
    own kicks from its generator one step at a time, and writes its
    recorded rows, and contiguous blocks of members run in one thread per
    CPU.  That loop does not call the splines: their coefficients are laid
    out once in a gather table (``_stepkernel._spline_table``), and a phase
    w picks its interval by binary search and sums the cubic in s = w -
    knot with the operations, in the order, of scipy's periodic ``PPoly``
    evaluation.  So it makes the same floating-point operations in the
    same order as the numpy loop (``_reduced_loop``), which calls the
    splines and advances all members in lock step.  The numpy loop is the
    reference, and it runs instead, with the same results, where the loop
    cannot be compiled.

    ``config.initial_state`` is (z0 ..., tau0), defaulting to (0, ..., 0):
    on the cycle at phase zero.  With ``n_paths`` set, member k uses
    ``path_seed(config.seed, k)`` and the returned arrays gain a leading
    path axis.

    Raises
    ------
    ConfigError
        For a start that is not a finite real array of length n, checked
        first, or a ``record_every`` or ``n_paths`` the other simulators
        refuse too.
    DivergenceError
        At the first step where some |z0| component leaves
        ``TRUST_RADIUS`` or z0 or tau stops being finite, with the lowest
        such path; the step and path follow ``integrate_ensemble``.

    Returns
    -------
    tau : ndarray, (N+1,) or (n_paths, N+1)
    z0 : ndarray, (N+1, n-1) or (n_paths, N+1, n-1)
    """
    n = cycle.dimension
    if n < 2:
        raise ConfigError(f"a reduced model needs a cycle of dimension >= 2, got {n}")
    for name, values in (("J0", model.J0), ("speed", model.speed)):
        if len(values) != cycle.grid_size:
            raise ConfigError(
                f"model.{name} has {len(values)} samples but the cycle grid has "
                f"{cycle.grid_size}: reduce the model on this cycle"
            )
    z_init, tau_init = _phase_initial(config.initial_state, n)

    period = cycle.period
    j0 = _periodic_spline(cycle.grid, model.J0, period)
    speed = _periodic_spline(cycle.grid, model.speed, period)
    h = config.dt
    args = (j0, speed, period, h, model.sigma * np.sqrt(h), TRUST_RADIUS)
    loop = _stepkernel.reduced_loop(*args) or _reduced_loop(*args)
    # a diverging path overflows before its divergence is reported, which
    # must not surface as a warning
    with np.errstate(over="ignore", invalid="ignore"):
        (tau_out, z_out), _ = _simulate(config, n_paths, record_every, (tau_init, z_init), loop)
    if n_paths is None:
        return tau_out[0], z_out[0]
    return tau_out, z_out


def reconstruct(cycle, frame, tau, z0, dt=1.0, channel_labels=None) -> Trajectory:
    """Lift reduced coordinates back to the full space, L(tau) + U(tau) B0 z0.

    ``tau`` wraps modulo the period; L and U are interpolated with
    periodic cubic splines on the cycle grid.  ``dt`` only sets the time
    axis of the returned trajectory (the sample spacing of the series).
    ``tau`` (N,) and ``z0`` (N, n-1) must be finite real arrays
    (:class:`ConfigError`).
    """
    tau = _require_array("tau", tau, (None,))
    z0 = _require_array("z0", z0, (tau.size, cycle.dimension - 1), ndmin=2)
    l_sp = _periodic_spline(cycle.grid, cycle.L, cycle.period)
    u_sp = _periodic_spline(cycle.grid, frame.U, cycle.period)
    wrapped = np.mod(tau, cycle.period)
    emb = z0 @ frame.basis_P0.T
    values = l_sp(wrapped) + np.einsum("tij,tj->ti", u_sp(wrapped), emb)
    labels = _labels(cycle.dimension, channel_labels)
    return Trajectory(dt=float(dt), values=values, channel_labels=labels)
