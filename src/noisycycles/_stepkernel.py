"""Compiled loops of ``sde._run`` for the drifts the package builds, and of
``frame.simulate_reduced``.

``hopf_system``, ``van_der_pol`` and ``ornstein_uhlenbeck`` attach a
:class:`KernelSpec` to their system: the name of a C drift below, the
coefficients that drift binds, and its formula, written once in Python as
an elementwise function of the coefficients and the state's components
with ``+ - * /`` in the C drift's order.  The system's numpy drift applies
the formula to the columns of a state or a stack of states.
:func:`single_state` gives ``frame.find_limit_cycle`` the formula itself on
one state's Python floats, which skips numpy's per-call overhead and rounds
the same.  :func:`loop_for` gives ``sde._run`` the member loop of such a
system, and :func:`reduced_loop` gives ``simulate_reduced`` the C loop of
the reduced phase/deviation SDE.  Each C loop runs every floating-point
operation of its numpy loop, in the same order and with the same operands,
so its results are bitwise the same; the numpy loops are the reference.

The member loop serves systems with a diagonal noise matrix (every system
the package builds); a full noise matrix, and the pre-composed increments
of ``strong_order_estimate``, run the numpy loop.  It runs one member at a
time through its steps, draws each step's normals from the member's
Philox generator with numpy's own ziggurat (``random_standard_normal_fill``
from numpy's static ``libnpyrandom.a``, which gives the bytes of
``Generator.standard_normal``), forms dW, dZ and S dW itself and writes
only the recorded rows.  Members are split into contiguous blocks, one
per CPU this process may run on (at most one per member), each block in a
thread of its own; ctypes releases the GIL for the call.  A member owns
its generator, its state and its rows, so the split changes no value.
``simulate_reduced`` still draws its kicks with numpy.

The library is compiled on first use with ``gcc -O2 -ffp-contract=off``
against numpy's ``bitgen.h`` (no Python headers) and linked with
``libnpyrandom.a`` into ``$XDG_CACHE_HOME/noisycycles``
(``~/.cache/noisycycles`` when unset), under the sha256 of its source,
flags and numpy version, and a build removes the builds of other hashes.
``-ffp-contract=off`` keeps gcc from fusing a multiply and an add into one
FMA, which rounds once where numpy rounds twice.  Without a compiler,
without numpy's static library, or without a writable cache, the numpy
loops run instead, with the same results.
"""

from __future__ import annotations

import contextlib
import ctypes
import hashlib
import os
import subprocess
import tempfile
import threading
from typing import Callable, NamedTuple, Optional

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <numpy/random/bitgen.h> /* bitgen_t only: no Python.h */

/* numpy's ziggurat, from its static libnpyrandom.a */
void random_standard_normal_fill(bitgen_t *, intptr_t, double *);

typedef void (*drift_fn)(const double *c, int64_t n, const double *s, double *out);

/* c = (lambda/2, -lambda/2, r^2, alpha0, alpha - alpha0) */
static inline void hopf(const double *c, int64_t n, const double *s, double *out)
{
    double x = s[0], y = s[1];
    double rho2 = (x * x + y * y) / c[2];
    (void)n;
    out[0] = (c[0] * x + y * -c[3]) + (c[1] * x + y * -c[4]) * rho2;
    out[1] = (c[0] * y + x * c[3]) + (c[1] * y + x * c[4]) * rho2;
}

/* c = (mu,) */
static inline void van_der_pol(const double *c, int64_t n, const double *s, double *out)
{
    (void)n;
    out[0] = s[1];
    out[1] = (c[0] * (1.0 - s[0] * s[0])) * s[1] - s[0];
}

/* c = (lambda,) */
static inline void ornstein_uhlenbeck(const double *c, int64_t n, const double *s,
                                      double *out)
{
    for (int64_t k = 0; k < n; k++)
        out[k] = -c[0] * s[k];
}

/* One step's increments from the member's generator, as _IncrementSource
   forms them from sde._normals: 2n normals u in (dim, 2) order, dW_j =
   sq u_j0 and dZ_j = zc (u_j0 + inv3 u_j1).  S dW_j = 0.0 + s_j dW_j for
   the diagonal s of a diagonal S: the product's sum over k from +0.0
   adds only zeros besides s_j dW_j, which leave it unchanged when it is
   not zero and make a zero +0.0. */
static inline void draw(bitgen_t *gen, int64_t n, const double *s, const double *k,
                        double *u, double *w, double *z)
{
    random_standard_normal_fill(gen, 2 * n, u);
    for (int64_t j = 0; j < n; j++) {
        double dw = k[0] * u[2 * j];
        z[j] = k[1] * (u[2 * j] + k[2] * u[2 * j + 1]);
        w[j] = 0.0 + s[j] * dw;
    }
}

/* Members [0, count) of sde._run, one after another: member p runs
   n_steps steps from its state at y + p n, which ends holding its last
   state, and writes the state after step t into row t / record_every of
   rec when record_every divides t.  Each step draws its S dW and dZ from
   gens[p] with the diagonal s of S (draw).  Rows of y and rec hold P n
   values.  bad[p] is the first step at which a component of the member
   leaves [-trust, trust] (or is NaN), where it stops, else -1.
   k = (dt, dt/m, 2 sqrt(dt), dt/4, trust, then draw's sq, zc, inv3). */
static inline void members(drift_fn f, const double *c, int64_t n, int64_t P,
                           int64_t count, int64_t n_steps, int64_t record_every,
                           int64_t rk15, double *y, double *rec, bitgen_t *const *gens,
                           const double *s, const double *off, const double *k,
                           int64_t *bad, double *work)
{
    const int64_t m = n, mn = n * n, row = P * n;
    const double dt = k[0], dt_m = k[1], two_sq = k[2], dt_4 = k[3], trust = k[4];
    double *a0 = work, *base = a0 + n, *st = base + n, *A = st + 2 * mn;
    double *cur = A + 2 * mn, *next = cur + n, *w = next + n, *z = w + n, *u = z + n;
    for (int64_t p = 0; p < count; p++) {
        int64_t left = record_every; /* steps to the next record */
        bad[p] = -1;
        for (int64_t j = 0; j < n; j++)
            cur[j] = y[p * n + j];
        for (int64_t i = 0; i < n_steps; i++) {
            draw(gens[p], n, s, k + 5, u, w, z);
            f(c, n, cur, a0);
            if (rk15) {
                for (int64_t j = 0; j < n; j++)
                    base[j] = cur[j] + a0[j] * dt_m;
                for (int64_t j = 0; j < 2 * m; j++) {
                    for (int64_t q = 0; q < n; q++)
                        st[j * n + q] = base[q] + off[j * n + q];
                    f(c, n, st + j * n, A + j * n);
                }
            }
            for (int64_t q = 0; q < n; q++)
                next[q] = (cur[q] + a0[q] * dt) + w[q];
            if (rk15) {
                for (int64_t q = 0; q < n; q++) {
                    double h = (A[q] - A[mn + q]) * z[0];
                    for (int64_t j = 1; j < m; j++)
                        h = h + (A[j * n + q] - A[mn + j * n + q]) * z[j];
                    next[q] = next[q] + h / two_sq;
                }
                for (int64_t q = 0; q < n; q++) {
                    double twice = a0[q] * 2.0;
                    double h = (A[q] + A[mn + q]) - twice;
                    for (int64_t j = 1; j < m; j++)
                        h = h + ((A[j * n + q] + A[mn + j * n + q]) - twice);
                    next[q] = next[q] + h * dt_4;
                }
            }
            int out = 0;
            for (int64_t q = 0; q < n; q++)
                out |= !(fabs(next[q]) <= trust);
            if (out) {
                bad[p] = i;
                break;
            }
            double *t = cur;
            cur = next;
            next = t;
            if (!--left) {
                double *r = rec + (i + 1) / record_every * row + p * n;
                for (int64_t q = 0; q < n; q++)
                    r[q] = cur[q];
                left = record_every;
            }
        }
        for (int64_t j = 0; j < n; j++)
            y[p * n + j] = cur[j];
    }
}

#define KERNEL(name)                                                               \
    void nc_##name(const double *c, int64_t n, int64_t P, int64_t count,           \
                   int64_t n_steps, int64_t record_every, int64_t rk15, double *y, \
                   double *rec, bitgen_t *const *gens, const double *s,            \
                   const double *off, const double *k, int64_t *bad, double *work) \
    {                                                                              \
        members(name, c, n, P, count, n_steps, record_every, rk15, y, rec, gens,   \
                s, off, k, bad, work);                                             \
    }

KERNEL(hopf)
KERNEL(van_der_pol)
KERNEL(ornstein_uhlenbeck)

/* np.mod(a, b): numpy's npy_remainder, fmod with Python's sign rule */
static inline double remainder_of(double a, double b)
{
    double mod = fmod(a, b);
    if (!b)
        return mod;
    if (mod) {
        if (isless(b, 0.0) != isless(mod, 0.0))
            mod += b;
    } else {
        mod = copysign(0.0, b);
    }
    return mod;
}

/* The k values at phase w of a spline table (frame._spline_table: five
   rows of m + 2 columns of k values).  The column is searchsorted(knots, w,
   "right") over the m + 1 sorted knots, the count of knots <= w, which puts
   NaN in the last column; it is never out of range, so take(mode="clip")
   clips nothing.  Every value of a column shares its left knot. */
static inline void spline(const double *table, const double *knots, int64_t m, int64_t k,
                          double w, double *out)
{
    int64_t lo = 0, hi = m + 1;
    while (lo < hi) {
        int64_t mid = lo + ((hi - lo) >> 1);
        if (w < knots[mid])
            hi = mid;
        else
            lo = mid + 1;
    }
    const int64_t row = (m + 2) * k;
    const double *col = table + lo * k;
    double s = w - col[0];
    double s2 = s * s, s3 = s2 * s;
    for (int64_t j = 0; j < k; j++)
        out[j] = ((col[row + j] * 1.0 + col[2 * row + j] * s) + col[3 * row + j] * s2)
                 + col[4 * row + j] * s3;
}

/* One chunk of frame.simulate_reduced for P paths of d deviations: step i
   writes the phases into taus[i] and the deviations over zs[i] (its kicks
   until then), starting from tau and z.  Returns the first step where some
   path has a non-finite phase or a component of z outside [-trust, trust]
   (or NaN), after all paths of that step, else -1. */
int64_t nc_reduced(const double *knots, int64_t m, const double *j0_table,
                   const double *speed_table, int64_t d, int64_t P, int64_t span,
                   double period, double h, double trust, const double *tau,
                   const double *z, const double *phase_kick, double *taus, double *zs,
                   double *J)
{
    for (int64_t i = 0; i < span; i++) {
        double *tau_next = taus + i * P, *z_next = zs + i * P * d;
        int bad = 0;
        for (int64_t p = 0; p < P; p++) {
            double w = remainder_of(tau[p], period), speed;
            spline(speed_table, knots, m, 1, w, &speed);
            double noise = phase_kick[i * P + p] / speed;
            tau_next[p] = (tau[p] + h) + noise;
            bad |= !isfinite(tau_next[p]);
            /* J z = sum_j J[:, j] z_j from j = 0 upwards; then
               (z + (J z) h) + kick */
            spline(j0_table, knots, m, d * d, w, J);
            const double *zp = z + p * d;
            double *out = z_next + p * d;
            for (int64_t k = 0; k < d; k++) {
                double drift = J[k * d] * zp[0];
                for (int64_t j = 1; j < d; j++)
                    drift = drift + J[k * d + j] * zp[j];
                out[k] = (zp[k] + drift * h) + out[k];
                bad |= !(fabs(out[k]) <= trust);
            }
        }
        if (bad)
            return i;
        tau = tau_next;
        z = z_next;
    }
    return -1;
}
"""

_COMPILER = "gcc"
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", f"-I{np.get_include()}")
# after the source, where the linker looks for the ziggurat and fmod
_LIBS = (f"-L{os.path.dirname(np.__file__)}/random/lib", "-lnpyrandom", "-lm")
# the ziggurat is linked statically, so numpy's version is part of the build
_NAME = hashlib.sha256(
    " ".join((_SOURCE, *_FLAGS, *_LIBS, np.__version__)).encode()
).hexdigest() + ".so"

# state dimension each C drift is written for; None: any
_DIMENSION = {"hopf": 2, "van_der_pol": 2, "ornstein_uhlenbeck": None}

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_ARGTYPES = [_P, _I, _I, _I, _I, _I, _I, _P, _P, _P, _P, _P, _P, _P, _P]
_REDUCED_ARGTYPES = [_P, _I, _P, _P, _I, _I, _I, _D, _D, _D, _P, _P, _P, _P, _P, _P]

# path-steps one call of the member loop runs, a few milliseconds' worth,
# unless one member's steps are more
_CALL_PATH_STEPS = 1 << 14

# cache file -> loaded library, or None when it could not be built or loaded
_loaded: dict = {}


class KernelSpec(NamedTuple):
    """The C drift ``name`` with coefficients ``coefs`` computes ``drift``,
    which is ``formula(*coefs, *components)`` on the state's columns.

    ``coefs`` is None when a coefficient would not round like a float64
    in numpy (a long double, say); the numpy loops and drift then run.
    """

    name: str
    coefs: Optional[tuple]
    formula: Callable
    drift: Callable


def spec(name: str, coefs, formula) -> KernelSpec:
    """The spec of the C drift ``name`` with coefficients ``coefs`` and the
    numpy drift that applies ``formula`` to them and a state's columns."""
    coefs = tuple(coefs)
    dtype = np.result_type(np.float64, *coefs)
    exact = dtype == np.float64

    def drift(state):
        s = np.asarray(state, dtype=float)
        out = np.empty(s.shape, dtype)
        # a state's components are the rows of its transpose
        rows = out.T
        for j, value in enumerate(formula(*coefs, *s.T)):
            rows[j] = value
        return out

    return KernelSpec(name, tuple(float(c) for c in coefs) if exact else None, formula, drift)


def _spec_of(system) -> Optional[KernelSpec]:
    """``system``'s spec while its drift is still the spec's, its
    coefficients round like float64 and its dimension is the C drift's;
    else None."""
    ks = system._kernel
    if ks is None or ks.drift is not system.drift or ks.coefs is None:
        return None
    return ks if _DIMENSION[ks.name] in (None, system.dimension) else None


def single_state(system) -> Optional[Callable]:
    """``system``'s drift at one state as ``f(t, y)`` for ``solve_ivp``, or
    None when ``_spec_of`` finds no spec.

    ``f`` applies the spec's formula to the coefficients and ``y``'s
    components as Python floats, whose ``+ - * /`` round as numpy's do, and
    returns a tuple of them.  A division by zero, which numpy carries on
    as inf or NaN, goes to the numpy drift instead.
    """
    ks = _spec_of(system)
    if ks is None:
        return None
    formula, coefs = ks.formula, ks.coefs

    def f(t, y):
        try:
            return formula(*coefs, *y.tolist())
        except ZeroDivisionError:
            return system.drift(y)

    return f


def _cache_dir() -> str:
    root = os.environ.get("XDG_CACHE_HOME") or os.path.join(os.path.expanduser("~"), ".cache")
    return os.path.join(root, "noisycycles")


def _build(target: str) -> None:
    """Compile the source into ``target``; another process may do the same
    at once, so the file appears under its name only when complete."""
    directory = os.path.dirname(target)
    os.makedirs(directory, mode=0o700, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    os.close(fd)
    try:
        subprocess.run(
            [_COMPILER, *_FLAGS, "-x", "c", "-", "-o", tmp, *_LIBS],
            input=_SOURCE, text=True, capture_output=True, check=True,
        )
        os.replace(tmp, target)
    finally:
        if os.path.exists(tmp):
            os.unlink(tmp)
    # builds of other sources or flags; a process that loaded one keeps it
    with contextlib.suppress(OSError):
        for name in os.listdir(directory):
            if name.endswith(".so") and name != os.path.basename(target):
                with contextlib.suppress(OSError):
                    os.unlink(os.path.join(directory, name))


def _library():
    """The compiled library, built on first use; None when it cannot be."""
    target = os.path.join(_cache_dir(), _NAME)
    if target not in _loaded:
        try:
            if not os.path.exists(target):
                _build(target)
            lib = ctypes.CDLL(target)
            for name in _DIMENSION:
                fn = getattr(lib, f"nc_{name}")
                fn.argtypes, fn.restype = _ARGTYPES, None
            lib.nc_reduced.argtypes, lib.nc_reduced.restype = _REDUCED_ARGTYPES, _I
        except (OSError, subprocess.SubprocessError):
            lib = None
        _loaded[target] = lib
    return _loaded[target]


def _threads(P) -> int:
    """Threads for ``P`` items: one per CPU this process may run on, at
    most ``P``."""
    cpus = len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else os.cpu_count()
    return max(1, min(cpus or 1, P))


def _in_threads(run, P, group) -> None:
    """``run(a, b)`` over contiguous groups [a, b) of at most ``group`` of
    ``P`` items (members, or frequencies), split into one block of groups
    per thread (``_threads``), the first block in this thread.  This thread
    handles signals between two calls.  When a call raises
    (KeyboardInterrupt, say), the other threads stop after their current
    call and this thread raises it."""
    t = _threads(P)
    edges = [P * j // t for j in range(t + 1)]
    stop = threading.Event()
    errors = []

    def block(a, b):
        try:
            for g in range(a, b, group):
                if stop.is_set():
                    return
                run(g, min(g + group, b))
        except BaseException as exc:  # re-raised below, in this thread
            errors.append(exc)
            stop.set()

    others = [threading.Thread(target=block, args=edges[j:j + 2]) for j in range(1, t)]
    for thread in others:
        thread.start()
    try:
        block(*edges[:2])
        for thread in others:
            thread.join()
    except BaseException:  # interrupted while joining
        stop.set()
        raise
    if errors:
        raise errors[0]


def _address(a: np.ndarray, offset: int) -> int:
    """The address of ``a``'s flat element ``offset``."""
    return a.ctypes.data + offset * a.itemsize


def loop_for(system) -> Optional[Callable]:
    """The compiled member loop for ``system``, or None for the numpy loop.

    Only a system whose drift is still the one its spec was built for, and
    whose noise matrix is diagonal, qualifies.  The loop is called as
    ``loop(y, rec, record_every, n_steps, rk15, offsets, constants, draw)``
    with ``sde._run``'s states, record array and constants ``(dt, dt/m,
    2 sqrt(dt), dt/4, trust)``, and ``draw=(rngs, sq, zc, inv3)``: the
    members' generators and ``_IncrementSource``'s scales.  Each member
    draws its normals from its generator, one step at a time, and runs all
    ``n_steps`` steps from the start.  The loop runs the members in blocks
    across threads, in calls of about ``_CALL_PATH_STEPS`` path-steps and
    at least one member (``_in_threads``), leaves each member's last state
    in ``y`` and returns each member's first diverging step, or -1.  Each
    member owns its generator and its rows, so the split changes no value.
    """
    ks = _spec_of(system)
    S = system.noise_matrix
    if ks is None or np.any(S - np.diag(np.diag(S))):
        return None
    n = system.dimension
    lib = _library()
    if lib is None:
        return None
    fn = getattr(lib, f"nc_{ks.name}")
    coefs = np.array(ks.coefs)
    s = np.ascontiguousarray(np.diag(S), dtype=np.float64)
    width = 8 * n + 4 * n * n

    def loop(y, rec, record_every, n_steps, rk15, offsets, constants, draw):
        P = y.shape[0]
        # the C loop writes into y and rec and reads the rest in place
        for a in (y, rec):
            if not (a.dtype == np.float64 and a.flags.c_contiguous):
                raise ValueError("the member loop needs C-contiguous float64 states")
        offsets = np.ascontiguousarray(offsets, dtype=np.float64)
        if (y.shape, rec.shape[1:], offsets.size) != ((P, n), (P, n), 2 * n * n):
            raise ValueError("the member loop got arrays of mismatched shapes")
        if n_steps // record_every >= rec.shape[0]:
            raise ValueError("the member loop got too few record rows")
        rngs, *scales = draw
        if len(rngs) != P:
            raise ValueError("the member loop needs one generator per member")
        # the bitgen_t of each generator, which it keeps while rngs lives
        gens = np.array([r.bit_generator.ctypes.bit_generator.value for r in rngs], np.uintp)
        k = np.array([*constants, *scales], dtype=np.float64)
        bad = np.empty(P, dtype=np.int64)

        def block(a, b):
            work = np.empty(width)
            fn(
                coefs.ctypes.data, n, P, b - a, n_steps, record_every, int(rk15),
                _address(y, a * n), _address(rec, a * n), _address(gens, a), s.ctypes.data,
                offsets.ctypes.data, k.ctypes.data, _address(bad, a), work.ctypes.data,
            )

        _in_threads(block, P, max(1, _CALL_PATH_STEPS // n_steps))
        return bad

    return loop


def reduced_loop(knots, j0_table, speed_table, period, h) -> Optional[Callable]:
    """The compiled chunk loop of ``frame.simulate_reduced``, or None for
    its numpy loop.

    ``knots`` and the two tables are ``simulate_reduced``'s; ``period`` and
    the step ``h`` must round like float64 in numpy, or the numpy loop runs.
    The loop is called as ``loop(tau, z, phase_kick, taus, zs, trust)`` with
    a chunk's arrays, writes ``taus`` and ``zs`` as the numpy loop does and
    returns the first diverging chunk step, or -1.
    """
    if not all(np.result_type(x, np.float64) == np.float64 for x in (knots, period, h)):
        return None
    lib = _library()
    if lib is None:
        return None
    knots = np.ascontiguousarray(knots, dtype=np.float64)
    m = knots.size - 1
    j0_table = np.ascontiguousarray(j0_table, dtype=np.float64)
    speed_table = np.ascontiguousarray(speed_table, dtype=np.float64)
    d2 = j0_table.shape[2]
    if j0_table.shape != (5, m + 2, d2) or speed_table.shape != (5, m + 2, 1):
        raise ValueError("the reduced loop got tables of mismatched shapes")
    J = np.empty(d2)

    def loop(tau, z, phase_kick, taus, zs, trust):
        span, P, d = zs.shape
        # the C loop writes into taus and zs and reads the rest in place
        for a in (tau, z, phase_kick, taus, zs):
            if not (a.dtype == np.float64 and a.flags.c_contiguous):
                raise ValueError("the reduced loop needs C-contiguous float64 arrays")
        if (tau.shape, z.shape, phase_kick.shape, taus.shape, d * d) != (
            (P,), (P, d), (span, P), (span, P), d2
        ):
            raise ValueError("the reduced loop got arrays of mismatched shapes")
        return lib.nc_reduced(
            knots.ctypes.data, m, j0_table.ctypes.data, speed_table.ctypes.data, d, P,
            span, period, h, trust, tau.ctypes.data, z.ctypes.data,
            phase_kick.ctypes.data, taus.ctypes.data, zs.ctypes.data, J.ctypes.data,
        )

    return loop
