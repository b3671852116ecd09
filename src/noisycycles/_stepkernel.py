"""Compiled member loops of ``sde.integrate_ensemble`` for the drifts the
package builds, of ``frame.simulate_reduced`` and of
``hopf.simulate_hopf_linear``.

``hopf_system``, ``van_der_pol`` and ``ornstein_uhlenbeck`` attach a
:class:`KernelSpec` to their system: the name of a C drift below, the
coefficients that drift binds, and its formula, written once in Python as
an elementwise function of the coefficients and the state's components
with ``+ - * /`` in the C drift's order.  The system's numpy drift applies
the formula to the columns of a state or a stack of states.
:func:`single_state` gives ``frame.find_limit_cycle`` the formula itself on
one state's Python floats, which skips numpy's per-call overhead and rounds
the same.  :func:`loop_for` gives the integrator the member loop of such a
system, :func:`reduced_loop` gives ``simulate_reduced`` the member loop
of the reduced phase/deviation SDE, and :func:`linear_loop` gives
``simulate_hopf_linear`` the member loop of the Hopf model's linear
phase/deviation pair.  Each C loop runs every floating-point
operation of its numpy loop, in the same order and with the same operands,
so its results are bitwise the same; the numpy loops are the reference.

The integrator's member loop serves systems with a diagonal noise matrix
(every system the package builds); a full noise matrix, and the
pre-composed increments of ``strong_order_estimate``, run the numpy loop.
Every member loop, compiled or numpy, is built with its constants and
called by the one member driver, ``sde._simulate``, as ``loop(*records,
record_every, n_steps, rngs)``: it fills in the member-major records, (P,
n_steps // record_every + 1, ...), from the start in row 0, and returns
each member's first diverging step, or -1, for the driver to raise.  The C
source writes the compiled member loop once, ``MEMBER_LOOP``: one member
at a time through its steps, each step's normals drawn from the member's
Philox generator with ``normal``, a copy of numpy's ziggurat below that
reads numpy's own tables and gives the bytes of
``Generator.standard_normal``, a stop at the member's first bad step, and
only the recorded rows written.  Each ``nc_`` function supplies its step,
which forms the increments or kicks from the normals (``sde_step``: the
3/2 scheme or Euler-Maruyama with a C drift; ``phase_deviation_step``: the
reduced SDE on the state (z ..., tau), its splines read from the gather
tables of ``_spline_table``; ``linear_step``: z through scipy's
``lfilter`` recursion and tau by Euler-Maruyama), and the load and store of
its rows: ``nc_hopf``, ``nc_van_der_pol`` and ``nc_ornstein_uhlenbeck`` run
``sde_step``, ``nc_phase_deviation`` runs ``phase_deviation_step`` and
``nc_linear`` runs ``linear_step``.

Every ``nc_`` function takes ``(count, gens, bad, work, n_steps,
record_every, records..., shared...)``: members [0, count)'s ``bitgen_t``
pointers and first bad steps, scratch, the counts, a pointer at the first
member of each record, then what all members share.  :func:`_bind` alone
calls them.  It converts each shared value by its ``_ARGTYPES`` entry (one
that would not round like float64 in numpy gives the numpy loop), checks
the records, and runs contiguous blocks of members, one per CPU this
process may run on, each in a thread of its own; ctypes releases the GIL
for the call.  A member owns its generator, its state and its rows, so the
split changes no value.  :func:`loop_for`, :func:`reduced_loop` and
:func:`linear_loop` add only their own rules and end in ``_bind``.

The library is compiled on first use with ``gcc -O2 -ffp-contract=off``
against numpy's ``bitgen.h`` (no Python headers) into
``$XDG_CACHE_HOME/noisycycles`` (``~/.cache/noisycycles`` when unset),
under the sha256 of its source, flags and numpy version; builds of other
hashes stay, so checkouts that share the cache do not rebuild each other's
(a build is about 60 KB).  The ziggurat's tables are local symbols of
numpy's static ``libnpyrandom.a``; the build links a copy of the archive in
which ``objcopy --globalize-symbol`` has made them global, and
``--exclude-libs`` keeps the archive's symbols out of the library's
exports, which are the five ``nc_`` functions.  ``-ffp-contract=off`` keeps
gcc from fusing a multiply and an add into one FMA, which rounds once where
numpy rounds twice.  Without a compiler, without ``objcopy``, without
numpy's static library, or without a writable cache, the numpy loops run
instead, with the same results.
"""

from __future__ import annotations

import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
import threading
from typing import Callable, NamedTuple, Optional

import numpy as np

_SOURCE = r"""
#include <math.h>
#include <stdint.h>
#include <string.h>
#include <numpy/random/bitgen.h> /* bitgen_t only: no Python.h */

/* numpy's ziggurat tables, made global in the build's copy of its static
   libnpyrandom.a; hidden, so the library does not export them */
extern const uint64_t ki_double[256] __attribute__((visibility("hidden")));
extern const double wi_double[256] __attribute__((visibility("hidden")));
extern const double fi_double[256] __attribute__((visibility("hidden")));
/* r and 1/r of numpy's ziggurat_constants.h, which numpy's code holds as
   immediates, not as symbols */
#define ZIGGURAT_NOR_R 3.6541528853610087963519472518
#define ZIGGURAT_NOR_INV_R 0.27366123732975827203338247596

/* numpy's random_standard_normal (Marsaglia and Tsang's ziggurat), which
   gives the bytes of Generator.standard_normal: the same words of gen,
   the same operations and libm's exp and log1p.  Only the sign differs in
   form: bit 8 of the word is XOR-ed into the double's sign bit where
   numpy branches on it, which flips the sign all the same. */
static inline double normal(bitgen_t *gen)
{
    for (;;) {
        uint64_t r = gen->next_uint64(gen->state);
        int idx = r & 0xff;
        uint64_t rabs = (r >> 9) & 0x000fffffffffffff;
        union { double d; uint64_t u; } x = {rabs * wi_double[idx]};
        x.u ^= (r & 0x100) << 55;
        if (rabs < ki_double[idx])
            return x.d; /* 99.3% of the time return here */
        if (idx == 0) {
            for (;;) {
                /* log(1 - U), which is never log(0) */
                double xx = -ZIGGURAT_NOR_INV_R * log1p(-gen->next_double(gen->state));
                double yy = -log1p(-gen->next_double(gen->state));
                if (yy + yy > xx * xx)
                    return ((rabs >> 8) & 0x1) ? -(ZIGGURAT_NOR_R + xx) : ZIGGURAT_NOR_R + xx;
            }
        } else {
            if (((fi_double[idx - 1] - fi_double[idx]) * gen->next_double(gen->state)
                 + fi_double[idx]) < exp(-0.5 * x.d * x.d))
                return x.d;
        }
    }
}

/* The member loop every nc_ function runs, once: members [0, count), one
   after another, each driven by dim Wiener components.  Member p owns rows
   [p rows, (p + 1) rows) of the loop's record(s), rows = n_steps /
   record_every + 1.  LOAD reads the start from `row`, the member's row 0,
   into cur.  Each of the n_steps steps draws the step's 2 dim normals u
   from gens[p] with normal, in (dim, 2) order, as sde._normals does; STEP
   writes the state after the step into next and is nonzero when the step
   is bad, where the member stops with bad[p] the step, else bad[p] is -1.
   cur and next swap, and after step t, when record_every divides t,
   STORE writes cur into `row`, the member's row t / record_every.  The
   caller, an nc_ function, takes count, gens, bad, work, n_steps and
   record_every first (the order _bind calls it with) and declares u, cur
   and next; LOAD, STEP and STORE see p, row and i besides. */
#define MEMBER_LOOP(dim, LOAD, STEP, STORE)                                  \
    for (int64_t p = 0, rows = n_steps / record_every + 1; p < count; p++) { \
        int64_t left = record_every; /* steps to the next record */          \
        int64_t row = p * rows;                                              \
        bad[p] = -1;                                                         \
        LOAD;                                                                \
        for (int64_t i = 0; i < n_steps; i++) {                              \
            for (int64_t j = 0; j < 2 * (dim); j++)                          \
                u[j] = normal(gens[p]);                                      \
            if (STEP) {                                                      \
                bad[p] = i;                                                  \
                break;                                                       \
            }                                                                \
            double *swap = cur;                                              \
            cur = next;                                                      \
            next = swap;                                                     \
            if (!--left) {                                                   \
                row++;                                                       \
                STORE;                                                       \
                left = record_every;                                         \
            }                                                                \
        }                                                                    \
    }

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

/* One step of the integrator (sde._numpy_loop) from cur to next with the
   drift f, the 3/2 scheme when rk15, else Euler-Maruyama; nonzero when a
   component of next leaves [-trust, trust] (or is NaN).  The increments
   are sde._increments': dW_j = sq u_j0 and dZ_j = zc (u_j0 + inv3 u_j1)
   from the normals u.  S dW_j = 0.0 + s_j dW_j for the diagonal s of a
   diagonal S: the product's sum over k from +0.0 adds only zeros besides
   s_j dW_j, which leave it unchanged when it is not zero and make a zero
   +0.0.  k = sde._stepping's (dt, dt/m, 2 sqrt(dt), dt/4, trust, sq, zc,
   inv3); work holds 3n + 4n^2 doubles. */
static inline int sde_step(drift_fn f, const double *c, int64_t n, int64_t rk15,
                           const double *s, const double *off, const double *k,
                           const double *u, const double *cur, double *next, double *work)
{
    const int64_t m = n, mn = n * n;
    const double dt = k[0], dt_m = k[1], two_sq = k[2], dt_4 = k[3], trust = k[4];
    const double sq = k[5], zc = k[6], inv3 = k[7];
    double *a0 = work, *base = a0 + n, *z = base + n, *st = z + n, *A = st + 2 * mn;
    f(c, n, cur, a0);
    for (int64_t q = 0; q < n; q++)
        next[q] = (cur[q] + a0[q] * dt) + (0.0 + s[q] * (sq * u[2 * q]));
    if (rk15) {
        for (int64_t j = 0; j < n; j++) {
            base[j] = cur[j] + a0[j] * dt_m;
            z[j] = zc * (u[2 * j] + inv3 * u[2 * j + 1]);
        }
        for (int64_t j = 0; j < 2 * m; j++) {
            for (int64_t q = 0; q < n; q++)
                st[j * n + q] = base[q] + off[j * n + q];
            f(c, n, st + j * n, A + j * n);
        }
        for (int64_t q = 0; q < n; q++) {
            double twice = a0[q] * 2.0;
            double h = (A[q] - A[mn + q]) * z[0], g = (A[q] + A[mn + q]) - twice;
            for (int64_t j = 1; j < m; j++) {
                h = h + (A[j * n + q] - A[mn + j * n + q]) * z[j];
                g = g + ((A[j * n + q] + A[mn + j * n + q]) - twice);
            }
            next[q] = (next[q] + h / two_sq) + g * dt_4;
        }
    }
    int out = 0;
    for (int64_t q = 0; q < n; q++)
        out |= !(fabs(next[q]) <= trust);
    return out;
}

/* Members [0, count) of the integrator with drift name (MEMBER_LOOP): the
   record rows of n values start at rec, and each step is sde_step's. */
#define KERNEL(name)                                                                 \
    void nc_##name(int64_t count, bitgen_t *const *gens, int64_t *bad, double *work, \
                   int64_t n_steps, int64_t record_every, double *rec, const double *c, \
                   int64_t n, int64_t rk15, const double *s, const double *off,      \
                   const double *k)                                                  \
    {                                                                                \
        double *u = work, *cur = u + 2 * n, *next = cur + n, *scratch = next + n;    \
        MEMBER_LOOP(n, memcpy(cur, rec + row * n, n * sizeof *cur),                  \
                    sde_step(name, c, n, rk15, s, off, k, u, cur, next, scratch),    \
                    memcpy(rec + row * n, cur, n * sizeof *cur))                     \
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

/* The k values at phase w of a spline table (_spline_table: five rows of
   m + 2 columns of k values).  The column is searchsorted(knots, w,
   "right") over the m + 1 sorted knots, the count of knots <= w, which puts
   NaN in the last column.  Every value of a column shares its left knot. */
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

/* One step of frame.simulate_reduced with d deviations from cur = (z ...,
   tau) to next; nonzero when the phase is not finite or a component of z
   leaves [-trust, trust] (or is NaN).  The deviation kicks are kick u[2 j]
   and the phase kick is kick u[2 d].  k = (period, h, kick, trust); J
   holds d^2 doubles. */
static inline int phase_deviation_step(const double *knots, int64_t m,
                                       const double *j0_table, const double *speed_table,
                                       int64_t d, const double *k, const double *u,
                                       const double *cur, double *next, double *J)
{
    const double period = k[0], h = k[1], kick = k[2], trust = k[3];
    double w = remainder_of(cur[d], period), speed;
    spline(speed_table, knots, m, 1, w, &speed);
    next[d] = (cur[d] + h) + (kick * u[2 * d]) / speed;
    int out = !isfinite(next[d]);
    /* J z = sum_j J[:, j] z_j from j = 0 upwards; then (z + (J z) h) + kick */
    spline(j0_table, knots, m, d * d, w, J);
    for (int64_t q = 0; q < d; q++) {
        double drift = J[q * d] * cur[0];
        for (int64_t j = 1; j < d; j++)
            drift = drift + J[q * d + j] * cur[j];
        next[q] = (cur[q] + drift * h) + kick * u[2 * q];
        out |= !(fabs(next[q]) <= trust);
    }
    return out;
}

/* Members [0, count) of frame.simulate_reduced (MEMBER_LOOP): the record
   rows start at tau_out, one value a row, and at z_out, d values a row,
   and each step is phase_deviation_step's.  The steps sum J0 z from j =
   0, not from +0.0, which would turn a -0.0 start deviation into +0.0;
   adding +0.0 once to the start keeps every value, as no later state can
   be -0.0. */
void nc_phase_deviation(int64_t count, bitgen_t *const *gens, int64_t *bad,
                        double *work, int64_t n_steps, int64_t record_every,
                        double *tau_out, double *z_out, const double *knots, int64_t m,
                        const double *j0_table, const double *speed_table, int64_t d,
                        const double *k)
{
    double *u = work, *cur = u + 2 * (d + 1), *next = cur + d + 1, *J = next + d + 1;
    MEMBER_LOOP(d + 1,
                { for (int64_t j = 0; j < d; j++) cur[j] = z_out[row * d + j] + 0.0;
                  cur[d] = tau_out[row]; },
                phase_deviation_step(knots, m, j0_table, speed_table, d, k, u, cur, next, J),
                { memcpy(z_out + row * d, cur, d * sizeof *cur); tau_out[row] = cur[d]; })
}

/* One step i of hopf.simulate_hopf_linear from cur = (z, tau - tau0, Z)
   to next, where Z is the delay of scipy's lfilter: the deviation kick is
   u[0] and the phase kick u[2].  z advances through lfilter's first-order
   direct form II transposed, y = Z + s_h x and then Z = x 0.0 - y (-phi)
   (b padded with 0.0, a = (1, -phi)).  tau - tau0 is cumsum's running sum,
   whose first element is the first increment itself, not 0.0 plus it.
   Unless leading, the step is bad when r + z <= 0 before it (NaN is not).
   k = hopf._linear_terms' (phi, s_h, sqrt(h), h, sigma, alpha, r, alpha r,
   alpha - alpha0). */
static inline int linear_step(int64_t leading, const double *k, int64_t i, const double *u,
                              const double *cur, double *next)
{
    const double phi = k[0], s_h = k[1], sq = k[2], h = k[3], sig = k[4];
    const double al = k[5], r = k[6], al_r = k[7], shift = k[8];
    double dw_p = sq * u[2], dtau;
    if (leading) {
        dtau = h + sig * dw_p / al_r;
    } else {
        double amp = r + cur[0];
        if (amp <= 0.0)
            return 1;
        dtau = h * (1.0 + 2.0 * cur[0] * shift / (al * amp)) + sig * dw_p / (al * amp);
    }
    next[0] = cur[2] + s_h * u[0];
    next[2] = u[0] * 0.0 - next[0] * -phi;
    next[1] = i ? cur[1] + dtau : dtau;
    return 0;
}

/* Members [0, count) of hopf.simulate_hopf_linear (MEMBER_LOOP): the
   record rows start at z_out and at tau_out, one value a row, and each
   step is linear_step's.  The delay starts at phi z0, and tau_out's rows
   after row 0 get tau - tau0. */
void nc_linear(int64_t count, bitgen_t *const *gens, int64_t *bad, double *work,
               int64_t n_steps, int64_t record_every, double *z_out, double *tau_out,
               int64_t leading, const double *k)
{
    double *u = work, *cur = u + 4, *next = cur + 3;
    MEMBER_LOOP(2,
                { cur[0] = z_out[row]; cur[1] = 0.0; cur[2] = k[0] * cur[0]; },
                linear_step(leading, k, i, u, cur, next),
                { z_out[row] = cur[0]; tau_out[row] = cur[1]; })
}
"""

_COMPILER = "gcc"
_OBJCOPY = "objcopy"
_FLAGS = ("-O2", "-ffp-contract=off", "-shared", "-fPIC", "-Wl,--exclude-libs,ALL",
          f"-I{np.get_include()}")
# numpy's static library, whose ziggurat tables are local symbols; the
# build links a copy in which they are global
_ARCHIVE = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
_TABLES = ("ki_double", "wi_double", "fi_double")
# the tables are linked statically, so numpy's version is part of the build
_NAME = hashlib.sha256(
    " ".join((_SOURCE, *_FLAGS, np.__version__)).encode()
).hexdigest() + ".so"

# state dimension each C drift is written for; None: any
_DIMENSION = {"hopf": 2, "van_der_pol": 2, "ornstein_uhlenbeck": None}

_P = ctypes.c_void_p
_I = ctypes.c_int64
# each member loop's arguments: (count, gens, bad, work, n_steps,
# record_every) and a pointer at member 0 of each record, as _bind passes
# them, then the values _bind binds: an _I as an int, a _P as a float64 copy
_MEMBERS = [_I, _P, _P, _P, _I, _I]
_ARGTYPES = {
    **dict.fromkeys(_DIMENSION, _MEMBERS + [_P] + [_P, _I, _I, _P, _P, _P]),
    "phase_deviation": _MEMBERS + [_P, _P] + [_P, _I, _P, _P, _I, _P],
    "linear": _MEMBERS + [_P, _P] + [_I, _P],
}

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


def _build(target: str, source: str = _SOURCE) -> None:
    """Compile ``source`` into ``target``; another process may do the same
    at once, so the file appears under its name only when complete."""
    directory = os.path.dirname(target)
    os.makedirs(directory, mode=0o700, exist_ok=True)
    with tempfile.TemporaryDirectory(dir=directory, suffix=".tmp") as tmp:
        archive, built = os.path.join(tmp, "libnpyrandom.a"), os.path.join(tmp, "build.so")
        globalize = [f"--globalize-symbol={name}" for name in _TABLES]
        subprocess.run([_OBJCOPY, *globalize, _ARCHIVE, archive], capture_output=True, check=True)
        # -x none: the archive after the stdin source is not C
        subprocess.run(
            [_COMPILER, *_FLAGS, "-x", "c", "-", "-x", "none", archive, "-lm", "-o", built],
            input=source, text=True, capture_output=True, check=True,
        )
        os.replace(built, target)


def _library():
    """The compiled library, built on first use; None when it cannot be."""
    target = os.path.join(_cache_dir(), _NAME)
    if target not in _loaded:
        try:
            if not os.path.exists(target):
                _build(target)
            lib = ctypes.CDLL(target)
            for name, argtypes in _ARGTYPES.items():
                fn = getattr(lib, f"nc_{name}")
                fn.argtypes, fn.restype = argtypes, None
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
    ``P`` items (members, frequencies or grid rows), split into one block of groups
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


def _bind(name, width, shapes, *shared) -> Optional[Callable]:
    """The member loop ``nc_<name>`` with ``shared`` bound, called as
    ``loop(*records, record_every, n_steps, rngs)``, or None for the numpy
    loop.  ``width`` is the doubles of scratch a call needs, and ``shapes``
    the shape of a row of each record, (P, rows, *shape) float64 and
    C-contiguous; a call runs about ``_CALL_PATH_STEPS`` path-steps, at
    least one member.
    """
    values = []
    for kind, x in zip(_ARGTYPES[name][len(_MEMBERS) + len(shapes):], shared, strict=True):
        if kind is _I:
            values.append(int(x))
        elif np.result_type(np.asarray(x), np.float64) != np.float64:
            return None
        else:
            values.append(np.array(x, dtype=np.float64, order="C"))
    lib = _library()
    if lib is None:
        return None
    fn = getattr(lib, f"nc_{name}")

    def loop(*args):
        *records, record_every, n_steps, rngs = args
        P = len(rngs)
        lead = (P, n_steps // record_every + 1)
        if len(records) != len(shapes) or not all(
            x.dtype == np.float64 and x.flags.c_contiguous and x.shape == lead + shape
            for x, shape in zip(records, shapes)
        ):
            raise ValueError(f"nc_{name} got records of mismatched shapes")
        # the bitgen_t of each generator, which it keeps while rngs lives
        gens = np.array([r.bit_generator.ctypes.bit_generator.value for r in rngs], np.uintp)
        bad = np.empty(P, dtype=np.int64)
        bound = [x.ctypes.data if isinstance(x, np.ndarray) else x for x in values]

        def at(x, a):  # member a's entries in x
            return x.ctypes.data + a * x.strides[0]

        def block(a, b):
            work = np.empty(width)
            fn(b - a, at(gens, a), at(bad, a), work.ctypes.data, n_steps, record_every,
               *(at(x, a) for x in records), *bound)

        _in_threads(block, P, max(1, _CALL_PATH_STEPS // n_steps))
        return bad

    return loop


def loop_for(system, rk15, offsets, constants) -> Optional[Callable]:
    """The compiled member loop of ``system`` on the arguments
    ``sde._stepping`` gives ``sde._numpy_loop``, or None for that loop.

    Only a system whose drift is still the one its spec was built for, and
    whose noise matrix is diagonal, qualifies; ``_bind`` does the rest.
    """
    ks = _spec_of(system)
    S = system.noise_matrix
    if ks is None or np.any(S - np.diag(np.diag(S))):
        return None
    n = system.dimension
    return _bind(ks.name, 7 * n + 4 * n * n, [(n,)],
                 ks.coefs, n, rk15, np.diag(S), offsets, constants)


def _spline_table(spline) -> np.ndarray:
    """The coefficients of a periodic ``CubicSpline`` on the knots (grid ...,
    period) as the gather table ``spline()`` reads, of shape (5, m + 2, k),
    k values per sample.

    Column r = searchsorted(knots, w, "right") serves the phase w: row 0
    holds the left knot of interval r - 1 and rows 1-4 hold its
    coefficients 0.0 + c3, c2, c1, c0, in the order the spline adds them
    up.  Column m + 1 repeats interval 0 with the left knot ``period``: the
    spline wraps w == period to 0, which gives interval 0 and s = 0, and a
    NaN phase lands there too.  Column 0 is never selected because the grid
    starts at 0.
    """
    knots = spline.x
    m = knots.size - 1
    c = spline.c.reshape(4, m, -1)
    table = np.empty((5, m + 2, c.shape[2]))
    table[0, 1:m + 1] = knots[:-1, None]
    table[1, 1:m + 1] = 0.0 + c[3]
    table[2:, 1:m + 1] = c[2::-1]
    table[:, [0, m + 1]] = table[:, 1:2]
    table[0, m + 1] = knots[-1]
    return table


def reduced_loop(j0, speed, period, h, kick_scale, trust) -> Optional[Callable]:
    """The compiled member loop of ``frame.simulate_reduced`` on the
    arguments of its numpy loop, ``frame._reduced_loop``, or None for that
    loop: the periodic splines of J0 and the speed, on the same knots.  The
    records are tau (P, rows) and z (P, rows, d), for a d x d J0.
    """
    j0_table = _spline_table(j0)
    d = math.isqrt(j0_table.shape[2])
    return _bind("phase_deviation", d * d + 4 * d + 4, [(), (d,)], j0.x, j0.x.size - 1,
                 j0_table, _spline_table(speed), d, (period, h, kick_scale, trust))


def linear_loop(leading_order, terms) -> Optional[Callable]:
    """The compiled member loop of ``hopf.simulate_hopf_linear`` on the
    arguments of its numpy loop, ``hopf._linear_loop``, or None for that
    loop; the records are z (P, rows) and tau (P, rows)."""
    return _bind("linear", 10, [(), ()], leading_order, terms)
