"""Compiled member loops of ``sde.integrate_ensemble`` for the drifts the
package builds, of ``frame.simulate_reduced`` and of
``hopf.simulate_hopf_linear``, and the compiled bookkeeping of
``fitting``'s Nelder-Mead restarts and its templates.

``hopf_system``, ``van_der_pol`` and ``ornstein_uhlenbeck`` attach a
:class:`KernelSpec` to their system: the name of a drift in ``_FORMULAS``
and the coefficients it binds.  Each drift's formula is written once, in
Python, below: an elementwise function of the coefficients and the state's
components with ``+ - * /``, and the state dimension it is written for
(None for any, Ornstein-Uhlenbeck's, a component at a time).  The system's
numpy drift applies the formula to the columns of a state or a stack of
states.  :func:`single_state` gives ``frame.find_limit_cycle`` the formula
itself on one state's Python floats, which skips numpy's per-call overhead
and rounds the same.  The C drifts are emitted from the same formulas
when this module is imported (``_c_drift``): the formula runs once on
tracing values (``_Traced``) that record each ``+ - * /`` and unary minus
as one C statement, in the formula's order, with constants as exact hex
floats, so C rounds as numpy does.  :func:`loop_for` gives the integrator
the member loop of such a system, :func:`reduced_loop` gives
``simulate_reduced`` the member loop of the reduced phase/deviation SDE,
and :func:`linear_loop` gives ``simulate_hopf_linear`` the member loop of
the Hopf model's linear phase/deviation pair.  Each C loop runs every
floating-point operation of its numpy loop, in the same order and with the
same operands, so its results are bitwise the same; the numpy loops are
the reference.

The integrator's member loop serves systems with a diagonal noise matrix
(every system the package builds); a full noise matrix, and the
pre-composed increments of ``strong_order_estimate``, run the numpy loop.
Every member loop, compiled or numpy, is built with its constants and
called by the one member driver, ``sde._simulate``, as ``loop(*records,
record_every, n_steps, rngs)``: it fills in the member-major records, (P,
n_steps // record_every + 1, ...), from the start in row 0, and returns
a first diverging step, or -1, for each member, for the driver to raise
(a member of a lane pair may report -1 when its partner diverged).  The C
source writes the compiled member loop once, ``MEMBER_LOOP``: one member
at a time through its steps, each step's normals drawn from the member's
Philox generator with ``normal``, a copy of numpy's ziggurat below that
reads numpy's own tables and gives the bytes of
``Generator.standard_normal``, a stop at the member's first bad step, and
only the recorded rows written.  Each ``nc_`` function supplies its step,
which forms the increments or kicks from the normals (``sde_step_double``:
the 3/2 scheme or Euler-Maruyama with a C drift; ``phase_deviation_step``:
the reduced SDE on the state (z ..., tau), its splines read from the gather
tables of ``_spline_table``; ``linear_step``: z through scipy's
``lfilter`` recursion and tau by Euler-Maruyama), and the load and store of
its rows: ``nc_hopf``, ``nc_van_der_pol`` and ``nc_ornstein_uhlenbeck`` run
``sde_step_double``, ``nc_phase_deviation`` runs ``phase_deviation_step``
and ``nc_linear`` runs ``linear_step``.

Every drift also gets a lane twin (``hopf_lanes`` and so on): the same
statements on a ``lane``, a gcc vector of two doubles, one member each,
which is the 16-byte width of SSE2, the x86-64 baseline, so the build needs
no ``-m`` flag and no CPU check.  The integrator's loops take members in
pairs (``sde_pair``): ``sde_step_lane``, the step of ``sde_step_double``
written once for both (``SDE_STEP``), advances both lanes, each drawing its
own member's normals in the scalar order, and each lane rounds as its
member alone would.  A pair stops at the first step where either member is
bad; a member bad there reports it and its partner reports -1, which
changes nothing the driver raises: the earliest bad step of all members
and the lowest member at it.  A member without a partner (the last of an
odd count, of a call or of a thread's block) runs the scalar loop.  A wider
vector would be split into 16-byte pieces at these flags and run slower
than the scalar loop; CI compiles the source with
``-Wvector-operation-performance -Werror``, which refuses that.

Every member loop ``nc_`` function takes ``(count, gens, bad, work, n_steps,
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

``nc_nelder_mead`` is no member loop: it is ``fitting._nelder_mead``, the
package's copy of scipy's bounded Nelder-Mead, for all of a fit's restarts
at once, with every ``+ - * /``, comparison, clip and budget rule of that
generator in its order after the start simplex, which both drivers take
from ``fitting._simplex``.  Each restart is a state machine over flat
arrays (its phase, nfev, nit, simplex and values); one call takes the
values of the points it asked for last, divides them by the objective's
normalization, advances every live restart until it needs new points, and
writes them all into one (points, n) buffer.  :func:`nelder_mead` makes
one call a round, the start simplices' round first, and has the objective
write the points' values straight into the Nelder-Mead's buffer.  The C
orders a simplex only when its values are distinct and not NaN, where
every sort agrees with numpy's; otherwise the restart waits a round for
``np.argsort`` of its values, so ties keep numpy's order on every CPU.

The fit's two templates are written once here too: each point's
coefficients (``_acv_coefficients``, ``_psd_coefficients``, through
``_nsr_of``) and the curve on a grid (``_acv_curve``, ``_psd_curve``).
:func:`template` evaluates them in C for a batch of points, emitted from
the same functions (``_c_template``): ``_Traced`` also records ``** 2``
(numpy's square x * x on a value that varies with the grid, libm's
``pow(x, 2.0)`` on a coefficient, as a Python float or numpy scalar
squares), ``np.sqrt``, ``np.cos`` (libm's, which numpy's float64 cos
calls) and ``np.exp``.  An exp is numpy's SIMD exp, whose bits C cannot
promise, so the template splits there: ``nc_acv_exponents`` writes every
point's coefficients and every exp argument of the batch into buffers,
``np.exp`` maps the exp arguments in place, and ``nc_acv`` forms the curve
less the data from them.  ``nc_psd``, which has no exp, is one call.  The
rows' sums of squares stay numpy's BLAS dots.  The Nelder-Mead and the
templates take one array of pointers to their buffers, bound once per fit,
which keeps ctypes' conversions per call to one or three arguments.

The library is compiled on first use with ``gcc -O2 -ffp-contract=off
-fno-builtin-pow`` against numpy's ``bitgen.h`` (no Python headers) into
``$XDG_CACHE_HOME/noisycycles`` (``~/.cache/noisycycles`` when unset),
under the sha256 of its source (the emitted drifts included), flags and
numpy version; builds of other hashes stay, so checkouts that share the
cache do not rebuild each other's (a build is about 70 KB).  The
ziggurat's tables are local symbols of numpy's static ``libnpyrandom.a``;
the build links a copy of the archive in which ``objcopy
--globalize-symbol`` has made them global, and ``--exclude-libs`` keeps
the archive's symbols out of the library's exports, which are the nine
``nc_`` functions.  ``-ffp-contract=off`` keeps gcc from fusing a multiply
and an add into one FMA, which rounds once where numpy rounds twice, and
``-fno-builtin-pow`` from rewriting ``pow(x, 2.0)`` as x * x.
Without a compiler, without ``objcopy``, without numpy's static library,
or without a writable cache, the numpy loops, fitting's Python restarts
and its numpy templates run instead, with the same results.
"""

from __future__ import annotations

import contextvars
import ctypes
import hashlib
import math
import os
import subprocess
import tempfile
import threading
from typing import Callable, NamedTuple, Optional

import numpy as np

_PRELUDE = r"""
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

/* The member loop every nc_ function runs, once: members [first, count),
   one after another, each driven by dim Wiener components.  Member p owns
   rows [p rows, (p + 1) rows) of the loop's record(s), rows = n_steps /
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
#define MEMBER_LOOP(first, dim, LOAD, STEP, STORE)                           \
    for (int64_t p = first, rows = n_steps / record_every + 1;               \
         p < count; p++) {                                                   \
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

/* Two members in one value: a lane each.  Sixteen bytes is the width of
   SSE2, the baseline of x86-64 (and of NEON), so every lane operation is
   one instruction at the build's flags; gcc splits a wider vector into
   pieces there, which runs slower than the scalar loop. */
typedef double lane __attribute__((vector_size(16)));

/* sde_step_double and sde_step_lane: one step of the integrator
   (sde._numpy_loop) from cur to next with the drift f, the 3/2 scheme
   when rk15, else Euler-Maruyama, on one member's doubles or on two
   members' lanes, each lane taking the operations of sde_step_double on
   its member.  The increments are sde._increments':
   dW_j = sq u_j0 and dZ_j = zc (u_j0 + inv3 u_j1) from the normals u.
   S dW_j = 0.0 + s_j dW_j for the diagonal s of a diagonal S: the
   product's sum over k from +0.0 adds only zeros besides s_j dW_j, which
   leave it unchanged when it is not zero and make a zero +0.0.  k =
   sde._stepping's (dt, dt/m, 2 sqrt(dt), dt/4, trust, sq, zc, inv3); work
   holds 3n + 4n^2 values. */
#define SDE_STEP(T)                                                                      \
    static inline void sde_step_##T(void (*f)(const double *, int64_t, const T *, T *),  \
                                    const double *c, int64_t n, int64_t rk15,             \
                                    const double *s, const double *off, const double *k,  \
                                    const T *u, const T *cur, T *next, T *work)           \
    {                                                                                    \
        const int64_t m = n, mn = n * n;                                                 \
        const double dt = k[0], dt_m = k[1], two_sq = k[2], dt_4 = k[3];                 \
        const double sq = k[5], zc = k[6], inv3 = k[7];                                  \
        T *a0 = work, *base = a0 + n, *z = base + n, *st = z + n, *A = st + 2 * mn;      \
        f(c, n, cur, a0);                                                                \
        for (int64_t q = 0; q < n; q++)                                                  \
            next[q] = (cur[q] + a0[q] * dt) + (0.0 + s[q] * (sq * u[2 * q]));            \
        if (rk15) {                                                                      \
            for (int64_t j = 0; j < n; j++) {                                            \
                base[j] = cur[j] + a0[j] * dt_m;                                         \
                z[j] = zc * (u[2 * j] + inv3 * u[2 * j + 1]);                            \
            }                                                                            \
            for (int64_t j = 0; j < 2 * m; j++) {                                        \
                for (int64_t q = 0; q < n; q++)                                          \
                    st[j * n + q] = base[q] + off[j * n + q];                            \
                f(c, n, st + j * n, A + j * n);                                          \
            }                                                                            \
            for (int64_t q = 0; q < n; q++) {                                            \
                T twice = a0[q] * 2.0;                                                   \
                T h = (A[q] - A[mn + q]) * z[0], g = (A[q] + A[mn + q]) - twice;         \
                for (int64_t j = 1; j < m; j++) {                                        \
                    h = h + (A[j * n + q] - A[mn + j * n + q]) * z[j];                   \
                    g = g + ((A[j * n + q] + A[mn + j * n + q]) - twice);                \
                }                                                                        \
                next[q] = (next[q] + h / two_sq) + g * dt_4;                             \
            }                                                                            \
        }                                                                                \
    }

SDE_STEP(double)
SDE_STEP(lane)

/* Whether one of the n values x, or lane l of the n lanes x, leaves
   [-trust, trust] (or is NaN).  Lanes are checked one at a time: gcc
   splits a comparison of lanes into pieces at the build's flags. */
static inline int outside(const double *x, int64_t n, double trust)
{
    int out = 0;
    for (int64_t q = 0; q < n; q++)
        out |= !(fabs(x[q]) <= trust);
    return out;
}

static inline int lane_outside(const lane *x, int64_t n, int l, double trust)
{
    int out = 0;
    for (int64_t q = 0; q < n; q++)
        out |= !(fabs(x[q][l]) <= trust);
    return out;
}

/* Members p and p + 1 of an integrator loop with the lane drift f, one
   member a lane, from their row 0 of the n-value record rows at rec.  Each
   lane draws its member's 2 n normals a step from the member's own
   generator, in MEMBER_LOOP's order, and writes the member's rows.  The
   pair stops at the first step where either member is bad: bad gets that
   step for each member bad there and -1 for the other, which records
   nothing more.  sde._check_members raises only for the earliest bad step
   and the lowest member at it, which no later step can change.  work
   holds the pair's 7n + 4n^2 lanes, on the heap: at a run-time n they
   would outgrow a thread's stack. */
__attribute__((always_inline)) static inline void sde_pair(
    void (*f)(const double *, int64_t, const lane *, lane *), const double *c, int64_t n,
    int64_t rk15, const double *s, const double *off, const double *k, bitgen_t *const *gens,
    int64_t *bad, int64_t p, int64_t n_steps, int64_t record_every, double *rec,
    lane *work)
{
    /* inlined into each nc_ loop: f is its lane drift and n, for a drift
       of a fixed dimension, a constant */
    lane *u = work, *now = u + 2 * n, *after = now + n;
    work = after + n;
    const int64_t rows = n_steps / record_every + 1;
    double *member[2] = {rec + p * rows * n, rec + (p + 1) * rows * n};
    bad[p] = bad[p + 1] = -1;
    for (int64_t q = 0; q < n; q++)
        now[q] = (lane){member[0][q], member[1][q]};
    for (int64_t i = 0, left = record_every; i < n_steps; i++) {
        for (int l = 0; l < 2; l++)
            for (int64_t j = 0; j < 2 * n; j++)
                u[j][l] = normal(gens[p + l]);
        sde_step_lane(f, c, n, rk15, s, off, k, u, now, after, work);
        int out[2] = {lane_outside(after, n, 0, k[4]), lane_outside(after, n, 1, k[4])};
        if (out[0] || out[1]) {
            for (int l = 0; l < 2; l++)
                if (out[l])
                    bad[p + l] = i;
            return;
        }
        lane *swap = now;
        now = after;
        after = swap;
        if (!--left) {
            for (int l = 0; l < 2; l++) {
                member[l] += n;
                for (int64_t q = 0; q < n; q++)
                    member[l][q] = now[q][l];
            }
            left = record_every;
        }
    }
}

/* Members [0, count) of the integrator with the drift name of dim
   components, n when set at run time: the record rows of n values start at
   rec, members in pairs through sde_pair with the lane twin name_lanes,
   and the last of an odd count alone (MEMBER_LOOP), each step
   sde_step_double's, bad when next is outside the trust region k[4].
   work holds 2 (7n + 4n^2) + 1 doubles: the pairs' lanes from its first
   16-byte boundary, then the lone member's 7n + 4n^2 doubles. */
#define KERNEL(name, dim)                                                                \
    void nc_##name(int64_t count, bitgen_t *const *gens, int64_t *bad, double *work,     \
                   int64_t n_steps, int64_t record_every, double *rec, const double *c,  \
                   int64_t n, int64_t rk15, const double *s, const double *off,          \
                   const double *k)                                                      \
    {                                                                                    \
        const int64_t paired = count - count % 2;                                        \
        lane *lanes = (lane *)(((uintptr_t)work + 15) & -(uintptr_t)16);                 \
        for (int64_t p = 0; p < paired; p += 2)                                          \
            sde_pair(name##_lanes, c, dim, rk15, s, off, k, gens, bad, p, n_steps,       \
                     record_every, rec, lanes);                                          \
        double *u = work, *cur = u + 2 * n, *next = cur + n, *scratch = next + n;        \
        MEMBER_LOOP(paired, dim, memcpy(cur, rec + row * n, n * sizeof *cur),            \
                    (sde_step_double(name, c, dim, rk15, s, off, k, u, cur, next, scratch), \
                     outside(next, dim, k[4])),                                          \
                    memcpy(rec + row * n, cur, n * sizeof *cur))                         \
    }
"""

_LOOPS = r"""
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
    MEMBER_LOOP(0, d + 1,
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
    MEMBER_LOOP(0, 2,
                { cur[0] = z_out[row]; cur[1] = 0.0; cur[2] = k[0] * cur[0]; },
                linear_step(leading, k, i, u, cur, next),
                { z_out[row] = cur[0]; tau_out[row] = cur[1]; })
}
"""

_NELDER_MEAD = r"""
/* fitting._nelder_mead's phases: what a restart does next, or what it
   waits for the values or the order of */
enum { NM_START, NM_FIRST_SORT, NM_SECOND_SORT, NM_SORT, NM_ITERATE, NM_REFLECT,
       NM_EXPAND, NM_OUTSIDE, NM_INSIDE, NM_SHRINK, NM_DONE };

/* np.clip(v, lo, hi): v stays only if v > lo, then only if v < hi (so
   -0.0 clips to a bound of 0.0), and NaN stays NaN */
static inline double clipped(double v, double lo, double hi)
{
    double m = v <= lo ? lo : v;
    return m >= hi ? hi : m;
}

/* The n + 1 vertices of sim and their values fsim in the order of
   numpy's argsort of fsim: `order` when given, else fsim's own order when
   no value is NaN and no two are equal, which every sort gives.  Returns
   0, changing nothing, when there is no order to take: ties, NaN and a
   +0.0 beside a -0.0 leave it to numpy. */
static int nm_sorted(int64_t n, double *sim, double *fsim, const int64_t *order)
{
    int64_t idx[n + 1];
    if (order) {
        memcpy(idx, order, sizeof idx);
    } else {
        for (int64_t q = 0; q <= n; q++) {
            if (isnan(fsim[q]))
                return 0;
            for (int64_t r = 0; r < q; r++)
                if (fsim[r] == fsim[q])
                    return 0;
        }
        for (int64_t q = 0; q <= n; q++) {
            int64_t r = q;
            for (; r > 0 && fsim[idx[r - 1]] > fsim[q]; r--)
                idx[r] = idx[r - 1];
            idx[r] = q;
        }
    }
    double s[(n + 1) * n], f[n + 1];
    memcpy(s, sim, sizeof s);
    memcpy(f, fsim, sizeof f);
    for (int64_t q = 0; q <= n; q++) {
        memcpy(sim + q * n, s + idx[q] * n, n * sizeof *s);
        fsim[q] = f[idx[q]];
    }
    return 1;
}

/* One restart of fitting._nelder_mead, from its phase to the next point
   it needs: every + - * /, comparison, clip and budget rule of the
   generator, in its order.  values holds the values of the points it asked
   for last, and order numpy's order of fsim when it asked for one.  It
   writes the points it needs into `points` and returns their count, or -1
   to ask for the order of fsim, or 0 when it has ended.  state = (phase,
   nfev, nit, asked), asked the count of points asked for, or -1; sim holds
   the (n + 1) x n simplex and fsim its values, the start simplex and +inf
   at NM_START; work holds xbar, xr, up to n pending points and fxr.  k =
   (rho, chi, psi, sigma, xatol, fatol), fitting's constants. */
static int64_t nm_advance(int64_t n, int64_t maxfev, int64_t maxiter, const double *k,
                          const double *lower, const double *upper, int64_t *state,
                          double *sim, double *fsim, double *work, const double *values,
                          const int64_t *order, double *points)
{
    const double rho = k[0], chi = k[1], psi = k[2], sigma = k[3];
    int64_t *phase = state, *nfev = state + 1, *nit = state + 2, *asked = state + 3;
    double *xbar = work, *xr = xbar + n, *pending = xr + n, *fxr = pending + n * n;
    double *worst = sim + n * n;
    double c = 0.0; /* the point asked for: (1 + c) xbar - c worst, clipped */
    for (;;) {
        switch (*phase) {
        case NM_START: /* the start simplex's vertices that the budget allows */
            *nfev = maxfev < n + 1 ? maxfev : n + 1;
            *phase = NM_FIRST_SORT;
            if (!*nfev)
                break;
            memcpy(points, sim, *nfev * n * sizeof *sim);
            return *asked = *nfev;
        case NM_FIRST_SORT: /* sorted twice, as scipy does */
        case NM_SECOND_SORT:
        case NM_SORT:
            if (*phase == NM_FIRST_SORT && *asked > 0)
                memcpy(fsim, values, *asked * sizeof *fsim);
            if (!nm_sorted(n, sim, fsim, *asked < 0 ? order : NULL))
                return *asked = -1;
            *asked = 0;
            if (*phase == NM_SECOND_SORT)
                *nit = 1;
            *phase = *phase == NM_FIRST_SORT ? NM_SECOND_SORT : NM_ITERATE;
            break;
        case NM_ITERATE: {
            if (!(*nfev < maxfev && *nit < maxiter)) {
                *phase = NM_DONE;
                return 0;
            }
            int converged = 1;
            for (int64_t q = n; converged && q < (n + 1) * n; q++)
                converged = fabs(sim[q] - sim[q % n]) <= k[4];
            for (int64_t q = 1; converged && q <= n; q++)
                converged = fabs(fsim[0] - fsim[q]) <= k[5];
            if (converged) {
                *phase = NM_DONE;
                return 0;
            }
            for (int64_t j = 0; j < n; j++) {
                double sum = sim[j];
                for (int64_t q = 1; q < n; q++)
                    sum = sum + sim[q * n + j];
                xbar[j] = sum / n;
            }
            for (int64_t j = 0; j < n; j++)
                xr[j] = clipped((1 + rho) * xbar[j] - rho * worst[j], lower[j], upper[j]);
            memcpy(points, xr, n * sizeof *xr);
            *phase = NM_REFLECT;
            return *asked = 1;
        }
        case NM_REFLECT:
            *fxr = values[0];
            ++*nfev;
            /* each `*nfev < maxfev` is where scipy's wrapper would refuse */
            *phase = NM_SORT;
            if (*fxr < fsim[0]) {
                if (*nfev < maxfev) {
                    c = rho * chi;
                    *phase = NM_EXPAND;
                }
            } else if (*fxr < fsim[n - 1]) {
                memcpy(worst, xr, n * sizeof *xr);
                fsim[n] = *fxr;
                ++*nit;
            } else if (*nfev < maxfev) {
                c = *fxr < fsim[n] ? psi * rho : -psi;
                *phase = *fxr < fsim[n] ? NM_OUTSIDE : NM_INSIDE;
            }
            if (*phase == NM_SORT)
                break;
            for (int64_t j = 0; j < n; j++)
                pending[j] = clipped((1 + c) * xbar[j] - c * worst[j], lower[j], upper[j]);
            memcpy(points, pending, n * sizeof *pending);
            return *asked = 1;
        case NM_EXPAND:
            ++*nfev;
            memcpy(worst, values[0] < *fxr ? pending : xr, n * sizeof *xr);
            fsim[n] = values[0] < *fxr ? values[0] : *fxr;
            ++*nit;
            *phase = NM_SORT;
            break;
        case NM_OUTSIDE:
        case NM_INSIDE: {
            int shrink = *phase == NM_OUTSIDE ? !(values[0] <= *fxr) : !(values[0] < fsim[n]);
            ++*nfev;
            if (!shrink) {
                memcpy(worst, pending, n * sizeof *pending);
                fsim[n] = values[0];
                ++*nit;
                *phase = NM_SORT;
                break;
            }
            for (int64_t q = n; q < (n + 1) * n; q++)
                pending[q - n] = clipped(sim[q % n] + sigma * (sim[q] - sim[q % n]),
                                         lower[q % n], upper[q % n]);
            *asked = maxfev - *nfev < n ? maxfev - *nfev : n;
            *phase = NM_SHRINK;
            if (*asked) {
                memcpy(points, pending, *asked * n * sizeof *pending);
                return *asked;
            }
            break;
        }
        case NM_SHRINK:
            /* a vertex the budget refuses is moved all the same */
            *nfev += *asked;
            memcpy(sim + n, pending, (*asked < n ? *asked + 1 : n) * n * sizeof *sim);
            memcpy(fsim + 1, values, *asked * sizeof *fsim);
            *nit += *asked == n;
            *asked = 0;
            *phase = NM_SORT;
            break;
        default:
            return 0;
        }
    }
}

/* fitting._nelder_mead's restarts [0, count) in lock step, on n
   parameters, from the pointers a = (size, k, lower, upper, state, sim,
   fsim, work, values, order, points, waiting), bound once per fit; size =
   (count, n, maxfev, maxiter) and k = (rho, chi, psi, sigma, xatol, fatol,
   scale).  It first divides the values of the points asked for last by
   scale, the objective's normalization, as numpy's `/` would.  Then each
   restart, in order, takes its values from `values`, in the order of the
   points it asked for, and advances (nm_advance) until it needs points,
   which go into `points` after those of the restarts before it.  Returns
   the count of points; waiting[0] gets the count of restarts that wait
   for numpy's order of their values, and waiting[1 ...] those restarts.
   Restart r owns state[4 r ...], sim[(n + 1) n r ...], fsim[(n + 1) r
   ...], order[(n + 1) r ...] and work[(n n + 2 n + 1) r ...]; a restart
   has ended when it asks for nothing. */
int64_t nc_nelder_mead(void *const *a)
{
    const int64_t *size = a[0], count = size[0], n = size[1];
    const double *k = a[1];
    int64_t *state = a[4], *order = a[9], *waiting = a[11];
    double *sim = a[5], *fsim = a[6], *work = a[7], *values = a[8], *points = a[10];
    int64_t total = 0, at = 0;
    for (int64_t r = 0; r < count; r++)
        for (int64_t q = 0; q < state[4 * r + 3]; q++, at++)
            values[at] = values[at] / k[6];
    at = 0;
    waiting[0] = 0;
    for (int64_t r = 0; r < count; r++) {
        int64_t *own = state + 4 * r;
        const double *mine = values + at;
        at += own[3] > 0 ? own[3] : 0;
        int64_t got = nm_advance(n, size[2], size[3], k, a[2], a[3], own,
                                 sim + (n + 1) * n * r, fsim + (n + 1) * r,
                                 work + (n * n + 2 * n + 1) * r, mine, order + (n + 1) * r,
                                 points + total * n);
        if (got < 0)
            waiting[++waiting[0]] = r;
        else
            total += got;
    }
    return total;
}
"""

# The formula of each drift the package builds, written once: an
# elementwise function of the coefficients, then the state's components,
# with + - * / in the order they round.  The numpy drift of ``spec``,
# ``single_state`` and the C drifts (``_c_drift``) all apply it.

def _hopf(half, neg_half, r2, alpha0, shift, x, y):
    # the drift of hopf's module docstring, each difference a sum with a
    # negated coefficient, which rounds to the same bits
    rho2 = (x * x + y * y) / r2
    return (
        (half * x + y * -alpha0) + (neg_half * x + y * -shift) * rho2,
        (half * y + x * alpha0) + (neg_half * y + x * shift) * rho2,
    )


def _van_der_pol(mu, x, v):
    return v, mu * (1.0 - x * x) * v - x


def _ornstein_uhlenbeck(lam, *z):
    return tuple(-lam * c for c in z)


# name -> (formula, the state dimension it is written for); None: any, the
# formula acting on each component alike
_FORMULAS = {
    "hopf": (_hopf, 2),
    "van_der_pol": (_van_der_pol, 2),
    "ornstein_uhlenbeck": (_ornstein_uhlenbeck, None),
}


# The two templates ``fitting`` fits, written once: the scalars of
# ``_acv_coefficients`` and ``_psd_coefficients`` at one parameter point,
# and the curve on a grid, with each coefficient a scalar or a (points, 1)
# column of many points.  ``acv_formula``, ``psd_formula`` and fitting's
# numpy objective apply them, and the compiled template (``_c_template``,
# :func:`template`) is traced from them.

def _nsr_of(sigma, lambda_, r):
    """sqrt(sigma^2 / (2 lambda)) / r, which ``hopf.nsr`` reports; on
    Python floats a square past float's range is an ``OverflowError``."""
    return np.sqrt(sigma**2 / (2.0 * lambda_)) / r


def _acv_coefficients(r, alpha, lam, sigma):
    """The scalars of the ACV template at one parameter point:
    (r^2/2, NSR^2, -lambda, alpha, -s^2/2).

    Squares stay on scalars (``x**2`` is libm ``pow`` there, ``x*x`` on
    arrays), so a point gives the same bits alone or in a batch.
    """
    return 0.5 * r**2, _nsr_of(sigma, lam, r) ** 2, -lam, alpha, -0.5 * (sigma / r) ** 2


def _psd_coefficients(r, alpha, lam, sigma):
    """The scalars of the PSD template at one parameter point, sigma > 0:
    alpha, alpha^2, then the prefactor weight 2 r^2 width and width^2 of
    the direct (width s^2) and the broadened (width g) Lorentzian pair."""
    s2 = (sigma / r) ** 2
    r2 = r**2
    g = s2 + 2.0 * lam
    broadened = _nsr_of(sigma, lam, r) ** 2 * 2.0 * r2 * g
    return alpha, alpha**2, 2.0 * r2 * s2, s2**2, broadened, g**2


def _acv_curve(coefficients, u):
    """The ACV template at lags ``u`` >= 0 from ``_acv_coefficients``."""
    half_r2, nsr2, neg_lam, alpha, neg_half_s2 = coefficients
    amp = 1.0 + nsr2 * np.exp(neg_lam * u)
    return half_r2 * amp * np.cos(alpha * u) * np.exp(neg_half_s2 * u)


def _psd_curve(coefficients, w):
    """The PSD template at frequencies ``w`` from ``_psd_coefficients``.

    Each pair is scale (4(alpha^2+w^2) + width^2) over the split-peak
    denominator ([4(alpha-w)^2 + width^2][4(alpha+w)^2 + width^2]).
    """
    alpha, alpha2, *pairs = coefficients
    base = 4.0 * (alpha2 + w**2)
    left, right = 4.0 * (alpha - w) ** 2, 4.0 * (alpha + w) ** 2
    direct, broadened = (
        scale * (base + width2) / ((left + width2) * (right + width2))
        for scale, width2 in (pairs[:2], pairs[2:])
    )
    return direct + broadened


# name (fitting's FitTarget value) -> (coefficients, curve)
_TEMPLATES = {"acv": (_acv_coefficients, _acv_curve), "psd": (_psd_coefficients, _psd_curve)}
# the parameters (r, alpha, lambda, sigma) of a template's point
_PARAMETERS = 4


class _Traced:
    """A value of a formula traced into C (``_c_drift``, ``_c_template``):
    the C operand that names it, whether it varies with the state (or the
    grid) or comes from coefficients and constants alone, and whether it
    names a statement.  ``+ - * /``, unary minus, ``** 2``, ``np.sqrt``
    (IEEE's, as libm's), ``np.cos`` (libm's, which numpy's float64 cos
    calls) and ``np.exp`` each append one statement (name, varies,
    expression, the statements it reads, and for an exp the statement it
    takes the exp of) to ``lines`` and give the value it names; a number
    becomes an exact hex float constant.  ``** 2`` follows what the Python
    formula squares: a value that varies is numpy's square of an array, x
    * x, and one that does not is a Python float's or numpy scalar's
    square, libm's ``pow(x, 2.0)``, which differs from x * x for a few x.
    An exp is numpy's SIMD exp, whose bits C cannot promise: its statement
    reads exp q of the row from a buffer numpy has mapped, ``e[q * m +
    j]``.  Any other operation is a ``TypeError``."""

    def __init__(self, text, varies, lines, named=False):
        self.text, self.varies, self.lines, self.named = text, varies, lines, named

    def _let(self, expression, varies, operands, exponent=None):
        name = f"t{len(self.lines)}"
        reads = [x.text for x in operands if x.named]
        self.lines.append((name, varies, expression, reads, exponent))
        return _Traced(name, varies, self.lines, True)

    def _binary(self, op, a, b):
        a, b = (x if isinstance(x, _Traced) else _Traced(f"({float(x).hex()})", False, self.lines)
                for x in (a, b))
        return self._let(f"{a.text} {op} {b.text}", a.varies or b.varies, (a, b))

    def __neg__(self):
        return self._let(f"-{self.text}", self.varies, (self,))

    def __pow__(self, exponent):
        if exponent != 2:
            return NotImplemented
        if self.varies:
            return self._binary("*", self, self)
        return self._let(f"pow({self.text}, 2.0)", False, (self,))

    def __array_ufunc__(self, ufunc, method, *inputs, **kwargs):
        if method != "__call__" or kwargs or inputs != (self,):
            return NotImplemented
        if ufunc in (np.sqrt, np.cos):
            return self._let(f"{ufunc.__name__}({self.text})", self.varies, (self,))
        if ufunc is np.exp:
            q = sum(line[4] is not None for line in self.lines)
            return self._let(f"e[{q} * m + j]", self.varies, (), self.text)
        return NotImplemented


for _op, _method in (("+", "add"), ("-", "sub"), ("*", "mul"), ("/", "truediv")):
    setattr(_Traced, f"__{_method}__", lambda a, b, op=_op: a._binary(op, a, b))
    setattr(_Traced, f"__r{_method}__", lambda a, b, op=_op: a._binary(op, b, a))


def _c_drift(name, formula, dimension) -> str:
    """C of the drift ``name``: ``formula`` traced into ``void name(c, n,
    s, out)`` on doubles, one statement an operation in the formula's
    order, the same statements on lanes as ``name_lanes``, and the
    integrator loop ``nc_name`` that steps with both (``KERNEL``).  Without
    a fixed ``dimension`` the formula is traced on one component, s[k], for
    each of the n."""
    lines = []
    components = range(dimension) if dimension else ["k"]
    # the formula's positional parameters are its coefficients, then the
    # components of a fixed dimension
    coefs = [_Traced(f"c[{j}]", False, lines)
             for j in range(formula.__code__.co_argcount - (dimension or 0))]
    outs = formula(*coefs, *(_Traced(f"s[{q}]", True, lines) for q in components))

    def function(suffix, value):
        body = [f"const {value if varies else 'double'} {t} = {e};" for t, varies, e, *_ in lines]
        body += [f"out[{q}] = {out.text};" for q, out in zip(components, outs, strict=True)]
        head = (f"/* _stepkernel._{name}, traced */\n"
                f"static inline void {name}{suffix}(const double *c, int64_t n, "
                f"const {value} *s, {value} *out)\n{{\n")
        if dimension:
            return head + "".join(f"    {b}\n" for b in ["(void)n;", *body]) + "}\n\n"
        return (head + "    for (int64_t k = 0; k < n; k++) {\n"
                + "".join(f"        {b}\n" for b in body) + "    }\n}\n\n")

    return (function("", "double") + function("_lanes", "lane")
            + f"KERNEL({name}, {dimension or 'n'})\n\n")


def _c_template(name, coefficients, curve):
    """C of the template ``name``, its coefficients a point and its count
    of exps a point.  ``coefficients`` is traced on one row of the
    parameters, th[0 ...], each coefficient stored as c[q], and ``curve`` on
    the coefficients c[0 ...] and the grid value g[j], one statement an
    operation in their order.  Each C function takes (k, m, a), rows [0, k)
    over m grid values, and the pointers a = (g, data, thetas, coefs, exps,
    out), bound once per fit: the (k, 4) thetas, the (k, width) coefs, the
    (exps k, m) exps, row i's exps its rows [exps i, exps (i + 1)), and the
    (k, m) out.  The first function writes each row's coefficients; with
    exps, it is ``nc_name_exponents`` and also writes their arguments into
    exps, for numpy to map in place.  ``nc_name`` writes row i's curve less
    the data into row i of out.  The curve's statements are only those its
    outputs read, and an exp's statement ends what it reads."""
    lines = []
    values = coefficients(*(_Traced(f"th[{q}]", False, lines) for q in range(_PARAMETERS)))
    if any(line[4] is not None for line in lines):
        raise TypeError(f"the {name} template takes an exp of its parameters")
    head = [f"const double {t} = {e};" for t, _, e, _, _ in lines]
    head += [f"c[{q}] = {x.text};" for q, x in enumerate(values)]
    width, split = len(values), len(lines)
    value = curve([_Traced(f"c[{q}]", False, lines) for q in range(width)],
                  _Traced("g[j]", True, lines))
    lines = lines[split:]
    exps = [line[4] for line in lines if line[4] is not None]
    stages = [("", [f"o[j] = {value.text} - data[j];"], [value.text])]
    if exps:
        stores = [f"e[{q} * m + j] = {x};" for q, x in enumerate(exps)]
        stages.insert(0, ("_exponents", stores, exps))
    text = ""
    for first, (suffix, stores, outputs) in zip((True, False), stages):
        keep = set(outputs)
        for t, _, _, reads, _ in reversed(lines):
            if t in keep:
                keep.update(reads)
        body = [f"const double {t} = {e};" for t, _, e, _, _ in lines if t in keep]
        if suffix and any(x is not None for t, *_, x in lines if t in keep):
            raise TypeError(f"the {name} template takes an exp of an exp")
        # the first function writes the coefficients, a later one reads them
        coefs = "double" if first else "const double"
        frame = ["const double *g = a[0];"]
        frame += ["const double *data = a[1];", "double *out = a[5];"] * (not suffix)
        frame += ["const double *thetas = a[2];"] * first
        frame += [f"{coefs} *coefs = a[3];"]
        frame += ["double *exps = a[4];"] * bool(exps)
        rows = [f"const double *th = thetas + {_PARAMETERS} * i;"] * first
        rows += [f"{coefs} *c = coefs + {width} * i;"]
        rows += head * first
        rows += [f"double *e = exps + {len(exps)} * m * i;"] * bool(exps)
        rows += ["double *o = out + m * i;"] * (not suffix)
        text += (f"/* _stepkernel._{name}_coefficients and _{name}_curve, traced */\n"
                 f"void nc_{name}{suffix}(int64_t k, int64_t m, void *const *a)\n{{\n"
                 + "".join(f"    {f}\n" for f in frame)
                 + "    for (int64_t i = 0; i < k; i++) {\n"
                 + "".join(f"        {r}\n" for r in rows)
                 + "        for (int64_t j = 0; j < m; j++) {\n"
                 + "".join(f"            {b}\n" for b in body + stores)
                 + "        }\n    }\n}\n\n")
    return text, width, len(exps)


# name -> (C of the template, its coefficients a point, its exps a point)
_TRACED = {name: _c_template(name, *entry) for name, entry in _TEMPLATES.items()}

_SOURCE = (_PRELUDE + "".join(_c_drift(name, *entry) for name, entry in _FORMULAS.items())
           + _LOOPS + _NELDER_MEAD + "".join(text for text, *_ in _TRACED.values()))

_COMPILER = "gcc"
_OBJCOPY = "objcopy"
_FLAGS = ("-O2", "-ffp-contract=off", "-fno-builtin-pow", "-shared", "-fPIC",
          "-Wl,--exclude-libs,ALL", f"-I{np.get_include()}")
# numpy's static library, whose ziggurat tables are local symbols; the
# build links a copy in which they are global
_ARCHIVE = os.path.join(os.path.dirname(np.__file__), "random", "lib", "libnpyrandom.a")
_TABLES = ("ki_double", "wi_double", "fi_double")
# the tables are linked statically, so numpy's version is part of the build
_NAME = hashlib.sha256(
    " ".join((_SOURCE, *_FLAGS, np.__version__)).encode()
).hexdigest() + ".so"

_P = ctypes.c_void_p
_I = ctypes.c_int64
# each member loop's arguments: (count, gens, bad, work, n_steps,
# record_every) and a pointer at member 0 of each record, as _bind passes
# them, then the values _bind binds: an _I as an int, a _P as a float64 copy
_MEMBERS = [_I, _P, _P, _P, _I, _I]
_ARGTYPES = {
    **dict.fromkeys(_FORMULAS, _MEMBERS + [_P] + [_P, _I, _I, _P, _P, _P]),
    "phase_deviation": _MEMBERS + [_P, _P] + [_P, _I, _P, _P, _I, _P],
    "linear": _MEMBERS + [_P, _P] + [_I, _P],
    # not member loops, but bound once per fit: the Nelder-Mead takes the
    # pointers to its arrays, a template's functions (k, m) and theirs
    "nelder_mead": [_P],
    **{f"{name}{suffix}": [_I, _I, _P] for name, (*_, exps) in _TRACED.items()
       for suffix in ("_exponents", "")[not exps:]},
}
# what an nc_ function returns, when not None
_RESTYPES = {"nelder_mead": _I}

# path-steps one call of the member loop runs, a few milliseconds' worth,
# unless two members' steps are more
_CALL_PATH_STEPS = 1 << 14

# cache file -> loaded library, or None when it could not be built or loaded
_loaded: dict = {}


class KernelSpec(NamedTuple):
    """The C drift ``name`` with coefficients ``coefs`` computes ``drift``,
    which applies the formula ``_FORMULAS[name]`` to them and the state's
    columns.

    ``coefs`` is None when a coefficient would not round like a float64
    in numpy (a long double, say); the numpy loops and drift then run.
    """

    name: str
    coefs: Optional[tuple]
    drift: Callable


def spec(name: str, coefs) -> KernelSpec:
    """The spec of the drift ``name`` with coefficients ``coefs`` and the
    numpy drift that applies its formula to them and a state's columns."""
    coefs = tuple(coefs)
    formula = _FORMULAS[name][0]
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

    return KernelSpec(name, tuple(float(c) for c in coefs) if exact else None, drift)


def _spec_of(system) -> Optional[KernelSpec]:
    """``system``'s spec while its drift is still the spec's, its
    coefficients round like float64 and its dimension is the formula's;
    else None."""
    ks = system._kernel
    if ks is None or ks.drift is not system.drift or ks.coefs is None:
        return None
    return ks if _FORMULAS[ks.name][1] in (None, system.dimension) else None


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
    formula, coefs = _FORMULAS[ks.name][0], ks.coefs

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
                fn.argtypes, fn.restype = argtypes, _RESTYPES.get(name)
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
    per thread (``_threads``), the first block in this thread.  Each other
    thread runs in a copy of this thread's context, and so under its numpy
    error state.  This thread handles signals between two calls.  When a
    call raises (KeyboardInterrupt, say), the other threads stop after
    their current call and this thread raises it."""
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

    others = [threading.Thread(target=contextvars.copy_context().run,
                               args=(block, *edges[j:j + 2])) for j in range(1, t)]
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
    C-contiguous; a call runs about ``_CALL_PATH_STEPS`` path-steps of an
    even count of members, at least two, so that lanes find their partner
    in the call (a thread's block may still end on an odd member).
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

        _in_threads(block, P, 2 * max(1, _CALL_PATH_STEPS // (2 * n_steps)))
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
    return _bind(ks.name, 2 * (7 * n + 4 * n * n) + 1, [(n,)],
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


def _frame(arrays) -> np.ndarray:
    """The pointers to ``arrays``, as the one argument of a function bound
    once per fit (``nc_nelder_mead``, a template's ``nc_`` functions); the
    caller keeps the arrays and the frame alive while it calls."""
    return np.array([x.ctypes.data for x in arrays], np.uintp)


def nelder_mead(evaluate, scale, simplices, lower, upper, constants, maxfev,
                maxiter) -> Optional[list]:
    """``fitting._nelder_mead``'s restarts from the start simplices
    ``simplices`` (``fitting._simplex``) within [``lower``, ``upper``], run
    in lock step by ``nc_nelder_mead``, or None without the library.

    A round is one call, which advances every live restart until it needs
    points and writes them all into one buffer, and one ``evaluate(points,
    values)``, which writes the objective's value of each point, times
    ``scale``, into ``values``, a view of the Nelder-Mead's own buffer; the
    next call divides them by ``scale``.  The first round asks for the
    first ``min(n + 1, maxfev)`` vertices of every restart, restart after
    restart, and gives the others +inf.  A restart whose values it cannot
    order (ties, NaN) waits for numpy's argsort of them, which this loop
    gives before the next call.  ``constants`` are fitting's (rho, chi,
    psi, sigma, xatol, fatol).  Returns each restart's last simplex and
    values, as lists of floats, and its nfev and nit.
    """
    lib = _library()
    if lib is None:
        return None
    sim = np.array(simplices, dtype=np.float64, ndmin=3)
    count, n = sim.shape[0], sim.shape[2]
    arrays = [np.array(x, dtype=np.float64) for x in (constants, lower, upper)]
    if [x.shape for x in arrays] != [(6,), (n,), (n,)] or sim.shape[1] != n + 1:
        raise ValueError("nc_nelder_mead got simplices, bounds or constants of mismatched shapes")
    arrays[0] = np.append(arrays[0], scale)
    state = np.zeros((count, 4), np.int64)  # every restart at NM_START
    fsim = np.full((count, n + 1), np.inf)
    order = np.empty((count, n + 1), np.int64)
    values = np.empty(count * (n + 1))
    points = np.empty((count * (n + 1), n))
    waiting = np.empty(count + 1, np.int64)
    arrays = [np.array([count, n, maxfev, maxiter], np.int64), *arrays, state, sim, fsim,
              np.empty((count, n * n + 2 * n + 1)), values, order, points, waiting]
    frame = _frame(arrays)
    at = frame.ctypes.data
    # the points and values of a round, for each count of points
    rounds = [(points[:k], values[:k]) for k in range(values.size + 1)]
    while True:
        asked = lib.nc_nelder_mead(at)
        sorts = int(waiting[0])
        if sorts:
            for r in waiting[1:sorts + 1].tolist():
                order[r] = fsim[r].argsort()
        if asked:
            evaluate(*rounds[asked])
        elif not sorts:
            return [(s, f, nfev, nit) for s, f, (nfev, nit)
                    in zip(sim.tolist(), fsim.tolist(), state[:, 1:3].tolist())]


class _Template:
    """The template ``name`` of ``_TEMPLATES`` on ``grid`` less ``data`` in
    the compiled library, bound for batches of at most ``capacity`` points:
    the objective of fitting's compiled rounds.

    ``template(points, out)`` takes k rows of log-parameters (log r, log
    alpha, log lambda, log sigma) and writes each row's sum of squared
    residuals, numpy's BLAS dot, into ``out``.  ``np.exp`` maps the rows
    into parameters; one C call writes each row's coefficients into
    ``coefficients`` and, with exps, every exp argument of the batch into
    one buffer, which ``np.exp`` maps in place (numpy's SIMD exp, whose
    bits C cannot promise); and one C call writes each row's curve less the
    data into ``residuals``.  Without exps one C call does both.  Each row
    has the bits of the numpy objective at that point.  The buffers, their
    pointers and their views for each k are made once; more than
    ``capacity`` rows, or rows of another width, are a ``ValueError``.
    """

    def __init__(self, lib, name, grid, data, capacity):
        _, width, exps = _TRACED[name]
        grid, data = (np.array(x, dtype=np.float64, ndmin=1) for x in (grid, data))
        m = grid.size
        if grid.shape != (m,) or data.shape != (m,):
            raise ValueError(f"nc_{name} got a grid and data of mismatched shapes")
        thetas = np.empty((capacity, _PARAMETERS))
        self.coefficients = np.empty((capacity, width))
        self.residuals = np.empty((capacity, m))
        mapped = np.empty((exps * capacity, m))
        # the template holds every array whose pointer it passes
        self._arrays = [grid, data, thetas, self.coefficients, mapped, self.residuals]
        self._frame = _frame(self._arrays)
        self._at, self._m, self._name, self._capacity = self._frame.ctypes.data, m, name, capacity
        self._exponents = getattr(lib, f"nc_{name}_exponents") if exps else None
        self._curve = getattr(lib, f"nc_{name}")
        self._views = [(thetas[:k], mapped[:exps * k], self.residuals[:k])
                       for k in range(capacity + 1)]

    def __call__(self, points, out):
        k = len(points)
        if k > self._capacity or points.shape[1:] != (_PARAMETERS,):
            raise ValueError(f"nc_{self._name} got {points.shape} points for buffers of "
                             f"{self._capacity} rows of {_PARAMETERS}")
        thetas, mapped, residuals = self._views[k]
        # each output passed positionally, which spares numpy parsing a
        # keyword on every round
        np.exp(points, thetas)
        if self._exponents is not None:
            self._exponents(k, self._m, self._at)
            np.exp(mapped, mapped)
        self._curve(k, self._m, self._at)
        np.vecdot(residuals, residuals, out)


def template(name, grid, data, capacity) -> Optional[_Template]:
    """The compiled objective of the template ``name`` on ``grid`` less
    ``data`` for batches of at most ``capacity`` points (:class:`_Template`),
    or None without the library."""
    lib = _library()
    return None if lib is None else _Template(lib, name, grid, data, capacity)
