"""Compiled per-step loops of ``sde._run`` for the drifts the package
builds, and of ``frame.simulate_reduced``.

``hopf_system``, ``van_der_pol`` and ``ornstein_uhlenbeck`` attach a
:class:`KernelSpec` to their system: the name of a C drift below, the
coefficients that drift binds, and the drift function it describes.
:func:`loop_for` gives ``sde._run`` the C loop of such a system, and
:func:`reduced_loop` gives ``simulate_reduced`` the C loop of the reduced
phase/deviation SDE.  Each C loop runs every floating-point operation of
its numpy loop, in the same order and with the same operands, so its
results are bitwise the same; the numpy loops are the reference.  Numpy
still draws the increments, forms the kicks and S dW and slices the
records; only the loop over steps and paths runs here.

The library is compiled on first use with ``gcc -O2 -ffp-contract=off``
into ``$XDG_CACHE_HOME/noisycycles`` (``~/.cache/noisycycles`` when unset),
under the sha256 of its source and flags.  ``-ffp-contract=off`` keeps gcc
from fusing a multiply and an add into one FMA, which rounds once where
numpy rounds twice.  Without a compiler, or without a writable cache, the
numpy loop runs instead, with the same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import os
import subprocess
import tempfile
from typing import Callable, NamedTuple, Optional

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <stdint.h>

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

/* One chunk of sde._run: step i overwrites row i of path (its S dW) with
   the new states.  Returns the first step with a component outside
   [-trust, trust] (or NaN), after all paths of that step, else -1. */
static inline int64_t run(drift_fn f, const double *c, int64_t n, int64_t P,
                          int64_t span, int64_t rk15, const double *y, double *path,
                          const double *dz, const double *off, double dt, double dt_m,
                          double two_sq, double dt_4, double trust, double *work)
{
    const int64_t m = n, mn = n * n;
    double *a0 = work, *base = work + n, *st = work + 2 * n, *A = st + 2 * mn;
    for (int64_t i = 0; i < span; i++) {
        double *row = path + i * P * n;
        int bad = 0;
        for (int64_t p = 0; p < P; p++) {
            const double *yp = y + p * n;
            double *out = row + p * n;
            f(c, n, yp, a0);
            if (rk15) {
                for (int64_t k = 0; k < n; k++)
                    base[k] = yp[k] + a0[k] * dt_m;
                for (int64_t j = 0; j < 2 * m; j++) {
                    for (int64_t k = 0; k < n; k++)
                        st[j * n + k] = base[k] + off[j * n + k];
                    f(c, n, st + j * n, A + j * n);
                }
            }
            for (int64_t k = 0; k < n; k++)
                out[k] = (yp[k] + a0[k] * dt) + out[k];
            if (rk15) {
                const double *dzp = dz + (i * P + p) * m;
                for (int64_t k = 0; k < n; k++) {
                    double h = (A[k] - A[mn + k]) * dzp[0];
                    for (int64_t j = 1; j < m; j++)
                        h = h + (A[j * n + k] - A[mn + j * n + k]) * dzp[j];
                    out[k] = out[k] + h / two_sq;
                }
                for (int64_t k = 0; k < n; k++) {
                    double twice = a0[k] * 2.0;
                    double h = (A[k] + A[mn + k]) - twice;
                    for (int64_t j = 1; j < m; j++)
                        h = h + ((A[j * n + k] + A[mn + j * n + k]) - twice);
                    out[k] = out[k] + h * dt_4;
                }
            }
            for (int64_t k = 0; k < n; k++)
                bad |= !(fabs(out[k]) <= trust);
        }
        if (bad)
            return i;
        y = row;
    }
    return -1;
}

#define KERNEL(name)                                                              \
    int64_t nc_##name(const double *c, int64_t n, int64_t P, int64_t span,        \
                      int64_t rk15, const double *y, double *path, const double *dz,\
                      const double *off, double dt, double dt_m, double two_sq,   \
                      double dt_4, double trust, double *work)                    \
    {                                                                             \
        return run(name, c, n, P, span, rk15, y, path, dz, off, dt, dt_m, two_sq, \
                   dt_4, trust, work);                                            \
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
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_LIBS = ("-lm",)  # after the source, where the linker looks for fmod
_NAME = hashlib.sha256((_SOURCE + " ".join(_FLAGS + _LIBS)).encode()).hexdigest() + ".so"

# state dimension each C drift is written for; None: any
_DIMENSION = {"hopf": 2, "van_der_pol": 2, "ornstein_uhlenbeck": None}

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_ARGTYPES = [_P, _I, _I, _I, _I, _P, _P, _P, _P, _D, _D, _D, _D, _D, _P]
_REDUCED_ARGTYPES = [_P, _I, _P, _P, _I, _I, _I, _D, _D, _D, _P, _P, _P, _P, _P, _P]

# cache file -> loaded library, or None when it could not be built or loaded
_loaded: dict = {}


class KernelSpec(NamedTuple):
    """The C drift ``name`` with coefficients ``coefs`` computes ``drift``.

    ``coefs`` is None when a coefficient would not round like a float64
    in numpy (a long double, say); the numpy loop then runs.
    """

    name: str
    coefs: Optional[tuple]
    drift: Callable


def spec(name: str, coefs, drift) -> KernelSpec:
    """The spec of the C drift ``name`` for ``drift``, which binds ``coefs``."""
    exact = all(np.result_type(c, np.float64) == np.float64 for c in coefs)
    return KernelSpec(name, tuple(float(c) for c in coefs) if exact else None, drift)


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
                fn.argtypes, fn.restype = _ARGTYPES, _I
            lib.nc_reduced.argtypes, lib.nc_reduced.restype = _REDUCED_ARGTYPES, _I
        except (OSError, subprocess.SubprocessError):
            lib = None
        _loaded[target] = lib
    return _loaded[target]


def loop_for(system) -> Optional[Callable]:
    """The compiled chunk loop for ``system``, or None for the numpy loop.

    Only a system whose drift is still the one its spec was built for
    qualifies.  The loop is called as ``loop(y, path, dz, offsets, rk15,
    dt, dt_m, two_sq, dt_4, trust)`` with ``sde._run``'s arrays and
    constants and returns the first diverging chunk step, or -1.
    """
    ks = system._kernel
    if ks is None or ks.drift is not system.drift or ks.coefs is None:
        return None
    n = system.dimension
    if _DIMENSION[ks.name] not in (None, n):
        return None
    lib = _library()
    if lib is None:
        return None
    fn = getattr(lib, f"nc_{ks.name}")
    coefs = np.array(ks.coefs)
    work = np.empty(2 * n + 4 * n * n)

    def loop(y, path, dz, offsets, rk15, dt, dt_m, two_sq, dt_4, trust):
        span, P, _ = path.shape
        dz = np.ascontiguousarray(dz, dtype=np.float64)
        offsets = np.ascontiguousarray(offsets, dtype=np.float64)
        # the C loop writes into path and reads y in place
        for a in (y, path):
            if not (a.dtype == np.float64 and a.flags.c_contiguous):
                raise ValueError("the step loop needs C-contiguous float64 states")
        if y.shape != (P, n) or dz.shape != path.shape or offsets.size != 2 * n * n:
            raise ValueError("the step loop got arrays of mismatched shapes")
        return fn(
            coefs.ctypes.data, n, P, span, int(rk15), y.ctypes.data, path.ctypes.data,
            dz.ctypes.data, offsets.ctypes.data, dt, dt_m, two_sq, dt_4, trust,
            work.ctypes.data,
        )

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
