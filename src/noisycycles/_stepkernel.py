"""Compiled per-step loop of ``sde._run`` for the drifts the package builds.

``hopf_system``, ``van_der_pol`` and ``ornstein_uhlenbeck`` attach a
:class:`KernelSpec` to their system: the name of a C drift below, the
coefficients that drift binds, and the drift function it describes.  The
C loop runs every floating-point operation of ``sde._run``'s numpy loop,
in the same order and with the same operands, so its results are bitwise
the same.  Numpy still draws the increments, forms S dW and slices the
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
"""

_COMPILER = "gcc"
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC")
_NAME = hashlib.sha256((_SOURCE + " ".join(_FLAGS)).encode()).hexdigest() + ".so"

# state dimension each C drift is written for; None: any
_DIMENSION = {"hopf": 2, "van_der_pol": 2, "ornstein_uhlenbeck": None}

_P = ctypes.c_void_p
_I = ctypes.c_int64
_D = ctypes.c_double
_ARGTYPES = [_P, _I, _I, _I, _I, _P, _P, _P, _P, _D, _D, _D, _D, _D, _P]

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
            [_COMPILER, *_FLAGS, "-x", "c", "-", "-o", tmp],
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
