"""Compiled member loops of ``sde.integrate_ensemble`` for the drifts the
package builds, of ``frame.simulate_reduced`` and of
``hopf.simulate_hopf_linear``, ``fitting``'s compiled Nelder-Mead restarts
and its templates, the frame's compiled transport and the cycle finder's
compiled DOP853 steps.

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

``nc_fit`` is no member loop: its ``nm_run`` is the package's copy of
scipy's bounded ``_minimize_neldermead`` (``adaptive=False``) for one
restart, scipy's loop line for line with every ``+ - * /``, comparison,
clip and budget rule in its order, and scipy's start simplex
(``nm_simplex``); a host without the library runs scipy's own.  A
restart calls the objective where scipy calls ``func``, on its own
points and values, and divides each value by the objective's
normalization.  :func:`fit_restarts` binds a fit's restarts once and
hands them to ``_threads(count)`` workers, each the next restart to the
next free worker; a restart depends on nothing but its own rows, so
which worker ran it changes no value.  One call runs every restart
straight through.  The C orders a simplex only when its values are
distinct and not NaN, where every sort agrees with numpy's; otherwise
the restart waits, keeping only its phase, nfev, nit and that it waits,
and when every restart has ended or waits, ``np.argsort`` orders the
waiting ones' values and the workers resume them, so ties keep numpy's
order on every CPU.

The fit's two templates are written once here too: each point's
coefficients (``_acv_coefficients``, ``_psd_coefficients``, through
``_nsr_of``) and the curve on a grid (``_acv_curve``, ``_psd_curve``).
:func:`template` binds their C objective, ``nc_acv`` or ``nc_psd``,
emitted from the same functions (``_c_template``): ``_Traced`` also
records ``** 2`` (numpy's square x * x on a value that varies with the
grid, libm's ``pow(x, 2.0)`` on a coefficient, as a Python float or numpy
scalar squares), ``np.sqrt``, ``np.cos`` (libm's, which numpy's float64 cos
calls) and ``np.exp``.  An exp is numpy's SIMD exp, whose bits C cannot
promise, and each row's sum of squares is a BLAS dot, whose order of
summation depends on the CPU, so the objective calls numpy's own float64
``exp`` and ``vecdot`` loops (:func:`_ufunc_loops`) for them: numpy's exp
maps a call's points into parameters, traced C writes each point's
coefficients and the ACV's exp arguments, numpy's exp maps those in place,
traced C forms the curve less the data, and numpy's vecdot writes each
row's sum of squares into the Nelder-Mead's values.  The fit runs under
``np.errstate(all="ignore")``, so no floating-point flag is read.

``nc_frame`` is no member loop either: it is ``frame._transport``, the
RK4 transport of the comoving frame and its rate, in one call
(:func:`frame_transport`).  Its outer products and RK4 sums are C in
numpy's order; its matrix products, the SVD of each step's projection and
the dot of the orthogonality norm go through OpenBLAS and LAPACK, whose
kernels sum in an order chosen by the CPU, so the C calls numpy's own
float64 strided loops of ``np.matmul``, ``svd_f`` and ``np.vecdot`` with
the strides numpy passes them (:func:`_ufunc_loops`), and gives numpy's
bits whichever kernels run.  It reads their floating-point exception
flags as numpy does: an SVD that raises FE_INVALID is numpy's
``LinAlgError``, and any other exception that numpy's error state does
not ignore sends the frame to the numpy loop, which reports it.

``nc_dop853`` takes the steps of a scipy ``DOP853`` solver that
``frame.find_limit_cycle`` built on a spec's drift (:func:`dop853`):
scipy's ``OdeSolver.step`` and ``DOP853._step_impl`` line for line, with
the drift's scalar C (the table ``DRIFTS``), and its dense output's
coefficients F.  Every ``np.dot`` of the stages goes through numpy's matmul
loop and every norm, section and escape dot through its vecdot loop,
which ``np.dot`` and ``@`` give the bits of on these shapes whichever
OpenBLAS kernels run; scipy's tables are bound from its
``dop853_coefficients`` (:func:`_dop853_tables`).  It steps until the
solver finishes or fails, or until a step crosses the search's section
or escape radius, and stops before a step that raised a floating-point
exception which numpy's error state does not ignore, which scipy then
takes.

The library is compiled on first use with ``gcc -O2 -ffp-contract=off
-fno-builtin-pow`` against numpy's ``bitgen.h`` (no Python headers) into
``$XDG_CACHE_HOME/noisycycles`` (``~/.cache/noisycycles`` when unset),
under the sha256 of its source (the emitted drifts included), flags and
numpy version; builds of other hashes stay, so checkouts that share the
cache do not rebuild each other's (a build is about 70 KB).  The
ziggurat's tables are local symbols of numpy's static ``libnpyrandom.a``;
the build links a copy of the archive in which ``objcopy
--globalize-symbol`` has made them global, and ``--exclude-libs`` keeps
the archive's symbols out of the library's exports, which are the ten
``nc_`` functions.  ``-ffp-contract=off`` keeps gcc from fusing a multiply
and an add into one FMA, which rounds once where numpy rounds twice, and
``-fno-builtin-pow`` from rewriting ``pow(x, 2.0)`` as x * x.
Without a compiler, without ``objcopy``, without numpy's static library,
or without a writable cache, the numpy loops, fitting's Python restarts
and its numpy templates, the frame's numpy transport and scipy's DOP853
steps run instead, with the same results; so do the fit, the transport
and the DOP853 steps where numpy does not hand out its loops.
"""

from __future__ import annotations

import contextvars
import ctypes
import functools
import hashlib
import math
import os
import subprocess
import tempfile
import threading
from typing import Callable, NamedTuple, Optional

import numpy as np

_PRELUDE = r"""
#include <fenv.h>
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

_FRAME = r"""
/* numpy's strided inner loop of a float64 ufunc as _get_strided_loop fills
   it in (_stepkernel._ufunc_loops, which hands out matmul's, svd_f's,
   vecdot's and exp's in this order): the loop, its context and its data */
typedef struct {
    int (*loop)(void *, char *const *, const intptr_t *, const intptr_t *, void *);
    void *context, *auxdata;
} ufunc_loop;
enum { LOOP_MATMUL, LOOP_SVD, LOOP_VECDOT, LOOP_EXP };

/* out = a @ b for an m x k a and a k x p b by numpy's matmul loop, with the
   core strides in bytes np.matmul passes it: a's rows and columns ra and ca
   apart, b's rb and cb and out's ro and co, and 0 for the missing dimension
   of a vector */
static void product(const ufunc_loop *f, int64_t m, int64_t k, int64_t p, const double *a,
                    intptr_t ra, intptr_t ca, const double *b, intptr_t rb, intptr_t cb,
                    double *out, intptr_t ro, intptr_t co)
{
    char *const data[] = {(char *)a, (char *)b, (char *)out};
    const intptr_t dims[] = {1, m, k, p};
    const intptr_t steps[] = {0, 0, 0, ra, ca, rb, cb, ro, co};
    f->loop(f->context, data, dims, steps, f->auxdata);
}

/* out = a @ b for n x n matrices, a's rows and columns ra and ca bytes
   apart, b and out C-contiguous.  a == b with transposed strides is
   np.matmul(x.T, x), which numpy's loop takes to syrk. */
static void matmul(const ufunc_loop *f, int64_t n, const double *a, intptr_t ra, intptr_t ca,
                   const double *b, double *out)
{
    const intptr_t row = n * sizeof(double), col = sizeof(double);
    product(f, n, n, n, a, ra, ca, b, row, col, out, row, col);
}

/* u, s, vt of the n x n C-contiguous a by numpy's svd_f loop, as
   np.linalg.svd(a) calls it: the loop raises FE_INVALID when LAPACK does
   not converge, where numpy raises LinAlgError */
static void svd(const ufunc_loop *f, int64_t n, const double *a, double *u, double *s,
                double *vt)
{
    const intptr_t row = n * sizeof(double), col = sizeof(double);
    char *const data[] = {(char *)a, (char *)u, (char *)s, (char *)vt};
    const intptr_t dims[] = {1, n, n, n};
    const intptr_t steps[] = {0, 0, 0, 0, row, col, row, col, col, row, col};
    f->loop(f->context, data, dims, steps, f->auxdata);
}

/* np.vecdot(x, x, out) of k C-contiguous rows of m doubles by numpy's
   vecdot loop: each row's sum of squares, its own ddot */
static void row_squares(const ufunc_loop *f, int64_t k, int64_t m, const double *x, double *out)
{
    const intptr_t row = m * sizeof(double), col = sizeof(double);
    char *const data[] = {(char *)x, (char *)x, (char *)out};
    const intptr_t dims[] = {k, m};
    const intptr_t steps[] = {row, row, col, col, col};
    f->loop(f->context, data, dims, steps, f->auxdata);
}

/* np.exp(x, out) of `size` contiguous doubles by numpy's exp loop, in
   place when out is x */
static void exp_of(const ufunc_loop *f, int64_t size, const double *x, double *out)
{
    char *const data[] = {(char *)x, (char *)out};
    const intptr_t dims[] = {size};
    const intptr_t steps[] = {sizeof(double), sizeof(double)};
    f->loop(f->context, data, dims, steps, f->auxdata);
}

/* np.vecdot(x, y) of `size` contiguous doubles by numpy's vecdot loop: the
   ddot of x @ y and of x.dot(y) */
static double dot(const ufunc_loop *f, int64_t size, const double *x, const double *y)
{
    double out;
    char *const data[] = {(char *)x, (char *)y, (char *)&out};
    const intptr_t dims[] = {1, size};
    const intptr_t steps[] = {0, 0, 0, sizeof(double), sizeof(double)};
    f->loop(f->context, data, dims, steps, f->auxdata);
    return out;
}

/* np.linalg.norm of the `size` contiguous doubles x: the square root of
   x.dot(x) */
static double norm(const ufunc_loop *f, int64_t size, const double *x)
{
    return sqrt(dot(f, size, x, x));
}

/* the floating-point exceptions of nc_ watch bits 1, 2, 4 and 8: overflow,
   invalid, divide and underflow, which numpy's error state does not
   ignore (_stepkernel._watch) */
static int watched(int64_t watch)
{
    return (watch & 1 ? FE_OVERFLOW : 0) | (watch & 2 ? FE_INVALID : 0)
           | (watch & 4 ? FE_DIVBYZERO : 0) | (watch & 8 ? FE_UNDERFLOW : 0);
}

/* frame._transport's dU: -outer(tan, td) @ U @ p0 + outer(td, t0) into out,
   with tan and td the rows of the tangent and its rate; work holds 2 n n
   doubles */
static void frame_rate(const ufunc_loop *mm, int64_t n, const double *tan, const double *td,
                       const double *t0, const double *p0, const double *U, double *out,
                       double *work)
{
    const intptr_t row = n * sizeof(double), col = sizeof(double);
    double *a = work, *b = work + n * n;
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            a[i * n + j] = -(tan[i] * td[j]);
    matmul(mm, n, a, row, col, U, b);
    matmul(mm, n, b, row, col, p0, out);
    for (int64_t i = 0; i < n; i++)
        for (int64_t j = 0; j < n; j++)
            out[i * n + j] = out[i * n + j] + td[i] * t0[j];
}

/* What nc_frame returns when no step lost orthogonality: all done, the SVD
   did not converge, or a floating-point exception of `watch` was raised */
enum { FRAME_DONE = -1, FRAME_SVD = -2, FRAME_RAISED = -3 };

/* frame._transport: the frame U on m grid rows from m * substeps RK4 steps
   of h, each step's U projected to u @ vt of its SVD, then its rate V on
   the grid rows, every operation numpy's in numpy's order: the elementwise
   ones here, the matrix products, the SVD and the norm's dot by numpy's
   own loops (loops = matmul, svd_f, vecdot).  tan and rate hold the rows
   of frame._transport, 3 m substeps + m of n values.  Returns FRAME_DONE,
   the step whose drift from orthogonality passed 1e-6, with the drift in
   *drift, FRAME_SVD, or FRAME_RAISED when an operation raised an exception
   of watch (the flags numpy's error state does not ignore; bits 1, 2, 4
   and 8 for overflow, invalid, divide and underflow), which the numpy loop
   then reports.  The SVD's own exceptions are numpy's to ignore but
   FE_INVALID.  work holds 10 n n + n doubles. */
int64_t nc_frame(int64_t m, int64_t n, int64_t substeps, double h, const double *tan,
                 const double *rate, const double *t0, const double *p0, double *U, double *V,
                 double *drift, double *work, const ufunc_loop *loops, int64_t watch)
{
    const int64_t s = m * substeps, nn = n * n;
    const intptr_t row = n * sizeof(double), col = sizeof(double);
    const int raised = watched(watch);
    const double half = h / 2.0, sixth = h / 6.0;
    double *cur = work, *k1 = cur + nn, *k2 = k1 + nn, *k3 = k2 + nn, *k4 = k3 + nn;
    double *x = k4 + nn, *u = x + nn, *vt = u + nn, *sv = vt + nn, *scratch = sv + n;
    for (int64_t q = 0; q < nn; q++)
        U[q] = cur[q] = q % (n + 1) ? 0.0 : 1.0;
    feclearexcept(FE_ALL_EXCEPT);
    for (int64_t k = 0; k < s; k++) {
        frame_rate(loops, n, tan + k * n, rate + k * n, t0, p0, cur, k1, scratch);
        for (int64_t q = 0; q < nn; q++)
            x[q] = cur[q] + half * k1[q];
        frame_rate(loops, n, tan + (s + k) * n, rate + (s + k) * n, t0, p0, x, k2, scratch);
        for (int64_t q = 0; q < nn; q++)
            x[q] = cur[q] + half * k2[q];
        frame_rate(loops, n, tan + (s + k) * n, rate + (s + k) * n, t0, p0, x, k3, scratch);
        for (int64_t q = 0; q < nn; q++)
            x[q] = cur[q] + h * k3[q];
        frame_rate(loops, n, tan + (2 * s + k) * n, rate + (2 * s + k) * n, t0, p0, x, k4,
                   scratch);
        for (int64_t q = 0; q < nn; q++)
            x[q] = cur[q] + sixth * (((k1[q] + 2.0 * k2[q]) + 2.0 * k3[q]) + k4[q]);
        /* norm(x.T @ x - eye) */
        matmul(loops, n, x, col, row, x, scratch);
        for (int64_t q = 0; q < nn; q++)
            scratch[q] = scratch[q] - (q % (n + 1) ? 0.0 : 1.0);
        const double d = norm(loops + LOOP_VECDOT, nn, scratch);
        if (fetestexcept(raised))
            return FRAME_RAISED;
        if (d > 1e-6) {
            *drift = d;
            return k;
        }
        svd(loops + LOOP_SVD, n, x, u, sv, vt);
        if (fetestexcept(FE_INVALID))
            return FRAME_SVD;
        feclearexcept(FE_ALL_EXCEPT);
        matmul(loops, n, u, row, col, vt, cur);
        if ((k + 1) % substeps == 0 && k + 1 < s)
            memcpy(U + (k + 1) / substeps * nn, cur, nn * sizeof *cur);
    }
    for (int64_t i = 0; i < m; i++)
        frame_rate(loops, n, tan + (3 * s + i) * n, rate + (3 * s + i) * n, t0, p0, U + i * nn,
                   V + i * nn, scratch);
    return fetestexcept(raised) ? FRAME_RAISED : FRAME_DONE;
}
"""

_DOP853 = r"""
/* scipy's DOP853 tables (dop853_coefficients.A, B, E3, E5 and D, as
   _stepkernel._dop853_tables binds them): 16 stages, the first 12 a step's
   and 13 with its last f, 4 rows of D */
enum { DOP_A, DOP_B, DOP_E3, DOP_E5, DOP_D };
enum { DOP_STAGES = 12, DOP_EXTENDED = 16, DOP_POWER = 7 };
/* what ends a call of nc_dop853: the solver finished, a step failed, a step
   crossed the section upwards, a step took |y| across the escape radius,
   the record is full, or a step raised a watched floating-point exception */
enum { DOP_FINISHED, DOP_FAILED, DOP_CROSSED, DOP_ESCAPED, DOP_FULL, DOP_RAISED };

/* np.dot(K[:k].T, v[:k]) into out: the n x k matrix K[:k].T of the stage
   rows of n doubles at K, by numpy's matmul loop */
static void stage_sum(const ufunc_loop *mm, int64_t n, int64_t k, const double *K,
                      const double *v, double *out)
{
    product(mm, n, k, 1, K, sizeof(double), n * sizeof(double), v, sizeof(double), 0, out,
            sizeof(double), 0);
}

/* np.maximum(a, b), whose comparison raises no exception */
static inline double maximum(double a, double b)
{
    return isgreaterequal(a, b) || isnan(a) ? a : b;
}

/* scipy's rk_step into K and y_new: K[0] = f, stage s = 1 ... 11 the drift
   at y + np.dot(K[:s].T, A[s, :s]) * h, y_new = y + h * np.dot(K[:12].T,
   B), and K[12] the drift there; dy holds n doubles */
static void rk_step(void (*drift)(const double *, int64_t, const double *, double *),
                    const double *c, int64_t n, const ufunc_loop *mm, const double *const *tab,
                    const double *y, const double *f, double h, double *K, double *y_new,
                    double *dy)
{
    memcpy(K, f, n * sizeof *f);
    for (int64_t s = 1; s < DOP_STAGES; s++) {
        stage_sum(mm, n, s, K, tab[DOP_A] + s * DOP_EXTENDED, dy);
        for (int64_t i = 0; i < n; i++)
            dy[i] = y[i] + dy[i] * h;
        drift(c, n, dy, K + s * n);
    }
    stage_sum(mm, n, DOP_STAGES, K, tab[DOP_B], dy);
    for (int64_t i = 0; i < n; i++)
        y_new[i] = y[i] + h * dy[i];
    drift(c, n, y_new, K + DOP_STAGES * n);
}

/* scipy's DOP853._estimate_error_norm of the stages K, h and scale: err5
   and err3 hold n doubles each */
static double error_norm(int64_t n, const ufunc_loop *loops, const double *const *tab,
                         const double *K, double h, const double *scale, double *err5,
                         double *err3)
{
    stage_sum(loops, n, DOP_STAGES + 1, K, tab[DOP_E5], err5);
    stage_sum(loops, n, DOP_STAGES + 1, K, tab[DOP_E3], err3);
    for (int64_t i = 0; i < n; i++) {
        err5[i] = err5[i] / scale[i];
        err3[i] = err3[i] / scale[i];
    }
    /* np.linalg.norm(x) ** 2: a numpy scalar's power, libm's pow */
    const double e5 = pow(norm(loops + LOOP_VECDOT, n, err5), 2.0);
    const double e3 = pow(norm(loops + LOOP_VECDOT, n, err3), 2.0);
    if (e5 == 0 && e3 == 0)
        return 0.0;
    return fabs(h) * e5 / sqrt((e5 + 0.01 * e3) * n);
}

/* scipy's DOP853._dense_output_impl of the step of h from y_old to y with
   the stages K (16 rows, the first 13 the step's): stages 13 ... 15, then
   its 7 rows F of n doubles; dy holds 5 n doubles */
static void dense_rows(void (*drift)(const double *, int64_t, const double *, double *),
                       const double *c, int64_t n, const ufunc_loop *mm,
                       const double *const *tab, const double *y_old, const double *y,
                       const double *f, double h, double *K, double *F, double *dy)
{
    for (int64_t s = DOP_STAGES + 1; s < DOP_EXTENDED; s++) {
        stage_sum(mm, n, s, K, tab[DOP_A] + s * DOP_EXTENDED, dy);
        for (int64_t i = 0; i < n; i++)
            dy[i] = y_old[i] + dy[i] * h;
        drift(c, n, dy, K + s * n);
    }
    for (int64_t i = 0; i < n; i++) {
        const double delta = y[i] - y_old[i];
        F[i] = delta;
        F[n + i] = h * K[i] - delta;
        F[2 * n + i] = 2 * delta - h * (f[i] + K[i]);
    }
    double *DK = dy + n;
    const intptr_t row = n * sizeof(double), col = sizeof(double);
    product(mm, DOP_POWER - 3, DOP_EXTENDED, n, tab[DOP_D], DOP_EXTENDED * sizeof(double), col,
            K, row, col, DK, row, col);
    for (int64_t i = 0; i < (DOP_POWER - 3) * n; i++)
        F[3 * n + i] = h * DK[i];
}

/* normal @ (y - ystar) and y @ y - radius2 for section = (radius2, normal
   ..., ystar ...); diff holds n doubles */
static void section_values(const ufunc_loop *vd, int64_t n, const double *section,
                           const double *y, double *diff, double *g, double *e)
{
    for (int64_t i = 0; i < n; i++)
        diff[i] = y[i] - section[1 + n + i];
    *g = dot(vd, n, section + 1, diff);
    *e = dot(vd, n, y, y) - section[0];
}

/* Steps of scipy's DOP853 (OdeSolver.step and DOP853._step_impl) with the
   scalar drift `drift` of _stepkernel._FORMULAS on the coefficients c,
   every operation scipy's in scipy's order: the elementwise ones here, each
   np.dot by numpy's matmul loop and each norm's dot by its vecdot loop
   (loops = matmul, svd_f, vecdot).  k = (t_bound, direction, max_step,
   rtol, SAFETY, MIN_FACTOR, MAX_FACTOR, error_exponent, atol ...) and
   state = (t, h_abs, t_old, h_previous, y ..., f ..., y_old ...), read and
   written.  Without a section it steps until the solver finishes, writing
   each step's (t_old, t, y_old ..., F ...) into the next of `capacity`
   records (none when 0) and returning DOP_FULL when they are full.  With
   section = (radius2, normal ..., ystar ...) it stops after the step where
   y @ y - radius2 changes sign (DOP_ESCAPED) or normal @ (y - ystar) rises
   through 0 (DOP_CROSSED, its record in record 0).  A step is taken only
   when none of its operations raised an exception of watch (watched()'s
   bits), else it returns DOP_RAISED before it, for scipy to take it; a
   step whose size fell below its least is DOP_FAILED (scipy's
   TOO_SMALL_STEP).
   *steps gets the count of steps taken.  work holds 26 n doubles. */
int64_t nc_dop853(int64_t which, const double *c, int64_t n, const double *k, double *state,
                  const double *section, double *record, int64_t capacity, int64_t *steps,
                  double *work, const double *const *tab, const ufunc_loop *loops,
                  int64_t watch)
{
    void (*const drift)(const double *, int64_t, const double *, double *) = DRIFTS[which];
    const double t_bound = k[0], direction = k[1], max_step = k[2], rtol = k[3];
    const double safety = k[4], min_factor = k[5], max_factor = k[6], exponent = k[7];
    const double *atol = k + 8;
    const int raised = watched(watch);
    const int64_t size = 2 + (1 + DOP_POWER) * n;
    double *y = state + 4, *f = y + n, *y_old = f + n;
    double *K = work, *y_new = K + DOP_EXTENDED * n, *scale = y_new + n, *err5 = scale + n;
    double *err3 = err5 + n, *dy = err3 + n;
    double g = 0.0, e = 0.0;
    *steps = 0;
    feclearexcept(FE_ALL_EXCEPT);
    if (section)
        section_values(loops + LOOP_VECDOT, n, section, y, dy, &g, &e);
    if (fetestexcept(raised))
        return DOP_RAISED;
    for (;;) {
        const double t = state[0];
        const double min_step = 10 * fabs(nextafter(t, direction * INFINITY) - t);
        double h_abs = state[1] > max_step ? max_step : state[1] < min_step ? min_step : state[1];
        double h = 0.0, t_new = t;
        int accepted = 0, rejected = 0, failed = 0;
        while (!accepted) {
            if (h_abs < min_step) {
                failed = 1;
                break;
            }
            h = h_abs * direction;
            t_new = t + h;
            if (direction * (t_new - t_bound) > 0)
                t_new = t_bound;
            h = t_new - t;
            h_abs = fabs(h);
            rk_step(drift, c, n, loops, tab, y, f, h, K, y_new, dy);
            for (int64_t i = 0; i < n; i++)
                scale[i] = atol[i] + maximum(fabs(y[i]), fabs(y_new[i])) * rtol;
            const double norm_of_error = error_norm(n, loops, tab, K, h, scale, err5, err3);
            if (isless(norm_of_error, 1)) {
                double factor = max_factor;
                if (norm_of_error != 0) {
                    const double x = safety * pow(norm_of_error, exponent);
                    factor = isless(x, max_factor) ? x : max_factor;
                }
                if (rejected)
                    factor = isless(factor, 1) ? factor : 1;
                h_abs *= factor;
                accepted = 1;
            } else {
                const double x = safety * pow(norm_of_error, exponent);
                h_abs *= isgreater(x, min_factor) ? x : min_factor;
                rejected = 1;
            }
        }
        double g_new = 0.0, e_new = 0.0;
        int ended = DOP_FINISHED;
        if (!failed && section) {
            section_values(loops + LOOP_VECDOT, n, section, y_new, dy, &g_new, &e_new);
            if ((islessequal(e, 0.0) && islessequal(0.0, e_new))
                || (islessequal(e_new, 0.0) && islessequal(0.0, e)))
                ended = DOP_ESCAPED;
            else if (islessequal(g, 0.0) && islessequal(0.0, g_new))
                ended = DOP_CROSSED;
        }
        double *rec = record + (ended == DOP_CROSSED ? 0 : *steps * size);
        const int kept = !failed && (ended == DOP_CROSSED || (!section && capacity));
        if (kept)
            dense_rows(drift, c, n, loops, tab, y, y_new, K + DOP_STAGES * n, h, K, rec + 2 + n,
                       dy);
        if (fetestexcept(raised))
            return DOP_RAISED;
        if (failed)
            return DOP_FAILED;
        if (kept) {
            rec[0] = t;
            rec[1] = t_new;
            memcpy(rec + 2, y, n * sizeof *y);
        }
        state[0] = t_new;
        state[1] = h_abs;
        state[2] = t;
        state[3] = h;
        memcpy(y_old, y, n * sizeof *y);
        memcpy(y, y_new, n * sizeof *y);
        memcpy(f, K + DOP_STAGES * n, n * sizeof *f);
        ++*steps;
        g = g_new;
        e = e_new;
        if (ended != DOP_FINISHED)
            return ended;
        if (direction * (t_new - t_bound) >= 0)
            return DOP_FINISHED;
        if (!section && capacity && *steps == capacity)
            return DOP_FULL;
    }
}
"""

_NELDER_MEAD = r"""
/* where a restart of scipy's _minimize_neldermead resumes: at its start,
   at the first or the second sort of its start simplex, in its loop, or
   nowhere, having ended */
enum { NM_START, NM_FIRST_SORT, NM_SECOND_SORT, NM_ITERATE, NM_DONE };

/* np.clip(v, lo, hi): v stays only if v > lo, then only if v < hi (so
   -0.0 clips to a bound of 0.0), and NaN stays NaN */
static inline double clipped(double v, double lo, double hi)
{
    double m = v <= lo ? lo : v;
    return m >= hi ? hi : m;
}

/* The objective of nc_fit at the k log-parameter points at `points`: the
   sum of squared residuals of each into `values`, the caller dividing them
   by the normalization; rows [row, row + k) of the buffers the pointers a
   give are its own.  Nonzero stops the fit. */
typedef int (*fit_objective)(void *const *a, int64_t row, int64_t k, const double *points,
                             double *values);

/* scipy's start simplex around x0, sim's row 0, within [lower, upper]:
   x0 clipped, one vertex a coordinate with that coordinate stepped by
   nonzdelt, or set to zdelt where it is 0, a vertex past an upper bound
   reflected into the interior, and every vertex clipped */
static void nm_simplex(int64_t n, double nonzdelt, double zdelt, const double *lower,
                       const double *upper, double *sim)
{
    for (int64_t j = 0; j < n; j++)
        sim[j] = clipped(sim[j], lower[j], upper[j]);
    for (int64_t v = 1; v <= n; v++) {
        double *y = sim + v * n;
        memcpy(y, sim, n * sizeof *sim);
        y[v - 1] = y[v - 1] != 0 ? (1 + nonzdelt) * y[v - 1] : zdelt;
    }
    for (int64_t q = 0; q < (n + 1) * n; q++) {
        const double hi = upper[q % n];
        sim[q] = clipped(sim[q] > hi ? 2 * hi - sim[q] : sim[q], lower[q % n], hi);
    }
}

/* scipy's func on the k points at x, their values into f, each divided by
   the normalization k[8] as numpy's `/` does, counted in nfev as scipy's
   wrapper counts them: it evaluates only the first maxfev - nfev, in one
   call, and returns 0 when it refused one, else 1, or -1, evaluating
   nothing, once the fit stops (shared[1], which an objective that returns
   nonzero sets).  a and row are nc_fit's and the restart's. */
static int nm_func(void *const *a, int64_t row, int64_t k, const double *x, double *f,
                   int64_t *nfev)
{
    const int64_t left = ((const int64_t *)a[0])[2] - *nfev, allowed = left < k ? left : k;
    const double scale = ((const double *)a[1])[8];
    int64_t *stop = (int64_t *)a[10] + 1;
    if (allowed) {
        if (__atomic_load_n(stop, __ATOMIC_RELAXED)
            || ((fit_objective)a[8])(a[9], row, allowed, x, f)) {
            __atomic_store_n(stop, 1, __ATOMIC_RELAXED);
            return -1;
        }
        for (int64_t q = 0; q < allowed; q++)
            f[q] = f[q] / scale;
    }
    *nfev += allowed;
    return allowed == k;
}

/* The n + 1 vertices of sim and their values fsim in the order of numpy's
   argsort of fsim: by `order`, numpy's, when the restart waits for it,
   else by fsim itself when no value is NaN and no two are equal, where
   every sort agrees.  Otherwise (ties, NaN, a +0.0 beside a -0.0) it
   changes nothing, the restart waits for numpy's order, and it returns 0. */
static int nm_sort(int64_t n, double *sim, double *fsim, const int64_t *order, int64_t *waits)
{
    int64_t idx[n + 1];
    if (*waits) {
        memcpy(idx, order, sizeof idx);
        *waits = 0;
    } else {
        for (int64_t q = 0; q <= n; q++)
            for (int64_t r = 0; r <= q; r++)
                if (r < q ? fsim[r] == fsim[q] : isnan(fsim[q])) {
                    *waits = 1;
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

/* sim[-1] = x; fsim[-1] = fx */
static void nm_replace(int64_t n, double *sim, double *fsim, const double *x, double fx)
{
    memcpy(sim + n * n, x, n * sizeof *x);
    fsim[n] = fx;
}

/* Restart r of scipy's bounded _minimize_neldermead (adaptive=False), its
   loop line for line: every + - * /, comparison and clip in scipy's order,
   and each evaluation where scipy calls func, the start simplex's in one
   call and a shrink's in one.  Budget stops follow scipy's wrapper, which
   refuses evaluation maxfev + 1: the iteration it falls in ends there,
   uncounted, and keeps what it had changed, so a shrink that the budget
   cuts short has moved the vertex whose evaluation was refused.  It
   returns when the restart ends, when the fit stops, or when a sort waits
   for numpy's order (nm_sort); the call after that sort resumes the
   restart at its phase.  Restart r owns state[4 r ...] = (phase, nfev,
   nit, waits), sim[(n + 1) n r ...], fsim and order[(n + 1) r ...], and
   the objective's rows [(n + 1) r, (n + 1) (r + 1)). */
static void nm_run(void *const *a, int64_t r)
{
    const int64_t *size = a[0], n = size[1], maxfev = size[2], maxiter = size[3];
    const int64_t row = (n + 1) * r;
    const double *k = a[1], *lower = a[2], *upper = a[3];
    const double rho = k[0], chi = k[1], psi = k[2], sigma = k[3];
    int64_t *phase = (int64_t *)a[4] + 4 * r, *nfev = phase + 1, *nit = phase + 2;
    int64_t *waits = phase + 3;
    double *sim = (double *)a[5] + row * n, *fsim = (double *)a[6] + row, *worst = sim + n * n;
    const int64_t *order = (const int64_t *)a[7] + row;
    double xbar[n], xr[n], x[n], fxr, fx;
    int got;
    switch (*phase) {
    case NM_START:
        nm_simplex(n, k[6], k[7], lower, upper, sim);
        for (int64_t q = 0; q <= n; q++)
            fsim[q] = INFINITY;
        if (nm_func(a, row, n + 1, sim, fsim, nfev) < 0)
            return;
        *phase = NM_FIRST_SORT;
        /* fall through */
    case NM_FIRST_SORT:
        if (!nm_sort(n, sim, fsim, order, waits))
            return;
        *phase = NM_SECOND_SORT;
        /* fall through */
    case NM_SECOND_SORT:
        if (!nm_sort(n, sim, fsim, order, waits))
            return;
        *nit = 1;
        *phase = NM_ITERATE;
        /* fall through */
    case NM_ITERATE:
        if (*waits) /* the sort that ended the last iteration */
            nm_sort(n, sim, fsim, order, waits);
        while (*nfev < maxfev && *nit < maxiter) {
            int converged = 1;
            for (int64_t q = n; converged && q < (n + 1) * n; q++)
                converged = fabs(sim[q] - sim[q % n]) <= k[4];
            for (int64_t q = 1; converged && q <= n; q++)
                converged = fabs(fsim[0] - fsim[q]) <= k[5];
            if (converged)
                break;
            for (int64_t j = 0; j < n; j++) {
                double sum = sim[j];
                for (int64_t q = 1; q < n; q++)
                    sum = sum + sim[q * n + j];
                xbar[j] = sum / n;
            }
            for (int64_t j = 0; j < n; j++)
                xr[j] = clipped((1 + rho) * xbar[j] - rho * worst[j], lower[j], upper[j]);
            if ((got = nm_func(a, row, 1, xr, &fxr, nfev)) < 0)
                return;
            if (fxr < fsim[0]) {
                for (int64_t j = 0; j < n; j++)
                    x[j] = clipped((1 + rho * chi) * xbar[j] - rho * chi * worst[j], lower[j],
                                   upper[j]);
                if ((got = nm_func(a, row, 1, x, &fx, nfev)) > 0) {
                    if (fx < fxr)
                        nm_replace(n, sim, fsim, x, fx);
                    else
                        nm_replace(n, sim, fsim, xr, fxr);
                }
            } else if (fxr < fsim[n - 1]) {
                nm_replace(n, sim, fsim, xr, fxr);
            } else {
                /* an outside contraction, or an inside one */
                const int outside = fxr < fsim[n];
                for (int64_t j = 0; j < n; j++)
                    x[j] = clipped(outside ? (1 + psi * rho) * xbar[j] - psi * rho * worst[j]
                                           : (1 - psi) * xbar[j] + psi * worst[j],
                                   lower[j], upper[j]);
                if ((got = nm_func(a, row, 1, x, &fx, nfev)) > 0) {
                    if (outside ? fx <= fxr : fx < fsim[n]) {
                        nm_replace(n, sim, fsim, x, fx);
                    } else {
                        /* shrink: scipy moves each vertex, then evaluates
                           it, so a refused evaluation leaves its vertex
                           moved */
                        const int64_t left = maxfev - *nfev, moved = left < n ? left + 1 : n;
                        for (int64_t q = n; q < (moved + 1) * n; q++)
                            sim[q] = clipped(sim[q % n] + sigma * (sim[q] - sim[q % n]),
                                             lower[q % n], upper[q % n]);
                        got = nm_func(a, row, n, sim + n, fsim + 1, nfev);
                    }
                }
            }
            if (got < 0)
                return;
            *nit += got;
            if (!nm_sort(n, sim, fsim, order, waits))
                return;
        }
        *phase = NM_DONE;
    }
}

/* scipy's Nelder-Mead restarts [0, count) on n parameters (nm_run), from
   the pointers a = (size, k, lower, upper, state, sim, fsim, order,
   objective, objective's pointers, shared), bound once per fit; size =
   (count, n, maxfev, maxiter), k = (rho, chi, psi, sigma, xatol, fatol,
   nonzdelt, zdelt, scale), fitting's constants and the objective's
   normalization, row 0 of each restart's simplex its start, and shared =
   (the next restart to take, stop).  Each caller is a worker that takes
   the next restart nobody has taken and runs it until it ends or waits.
   A restart reads and writes only its own rows, so which worker runs it
   changes no value.  An objective that returns nonzero, or the caller,
   sets stop, and every worker stops before its next evaluation. */
void nc_fit(void *const *a)
{
    const int64_t count = ((const int64_t *)a[0])[0];
    int64_t *shared = a[10];
    for (int64_t r; (r = __atomic_fetch_add(shared, 1, __ATOMIC_RELAXED)) < count;)
        nm_run(a, r);
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
    operation in their order.  ``nc_name(a, row, k, points, values)`` is
    the objective ``nc_fit`` runs (``fit_objective``) on the pointers a =
    (g, data, thetas, coefs, exps, out, loops, size), bound once per fit:
    the (rows, 4) thetas, the (rows, width) coefs, the (exps rows, m) exps,
    row i's exps its rows [exps i, exps (i + 1)), the (rows, m) out,
    numpy's loops (``_ufunc_loops``) and size = (m,).  On rows [row, row +
    k) it takes numpy's exp of the points into thetas; writes each row's
    coefficients, and with exps every exp argument of the rows
    (``name_exponents``), which numpy's exp then maps in place; writes row
    i's curve less the data into row i of out (``name_residuals``, which
    also writes the coefficients without exps); and writes each row's sum
    of squares into values by numpy's vecdot.  The curve's statements are
    only those its outputs read, and an exp's statement ends what it
    reads."""
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
    stages = [("residuals", [f"o[j] = {value.text} - data[j];"], [value.text])]
    if exps:
        stores = [f"e[{q} * m + j] = {x};" for q, x in enumerate(exps)]
        stages.insert(0, ("exponents", stores, exps))
    text = ""
    for first, (stage, stores, outputs) in zip((True, False), stages):
        keep = set(outputs)
        for t, _, _, reads, _ in reversed(lines):
            if t in keep:
                keep.update(reads)
        body = [f"const double {t} = {e};" for t, _, e, _, _ in lines if t in keep]
        if stage == "exponents" and any(x is not None for t, *_, x in lines if t in keep):
            raise TypeError(f"the {name} template takes an exp of an exp")
        # the first function writes the coefficients, a later one reads them
        coefs = "double" if first else "const double"
        frame = ["const double *g = a[0];"]
        frame += ["const double *data = a[1];", "double *out = a[5];"] * (stage == "residuals")
        frame += ["const double *thetas = a[2];"] * first
        frame += [f"{coefs} *coefs = a[3];"]
        frame += ["double *exps = a[4];"] * bool(exps)
        rows = [f"const double *th = thetas + {_PARAMETERS} * i;"] * first
        rows += [f"{coefs} *c = coefs + {width} * i;"]
        rows += head * first
        rows += [f"double *e = exps + {len(exps)} * m * i;"] * bool(exps)
        rows += ["double *o = out + m * i;"] * (stage == "residuals")
        text += (f"/* _stepkernel._{name}_coefficients and _{name}_curve, traced */\n"
                 f"static void {name}_{stage}(int64_t first, int64_t last, int64_t m, "
                 f"void *const *a)\n{{\n"
                 + "".join(f"    {f}\n" for f in frame)
                 + "    for (int64_t i = first; i < last; i++) {\n"
                 + "".join(f"        {r}\n" for r in rows)
                 + "        for (int64_t j = 0; j < m; j++) {\n"
                 + "".join(f"            {b}\n" for b in body + stores)
                 + "        }\n    }\n}\n\n")
    steps = [f"exp_of(loops + LOOP_EXP, {_PARAMETERS} * k, points, thetas + {_PARAMETERS} * row);"]
    if exps:
        mapped = f"exps + {len(exps)} * m * row"
        steps += [f"{name}_exponents(row, row + k, m, a);",
                  f"exp_of(loops + LOOP_EXP, {len(exps)} * m * k, {mapped}, {mapped});"]
    steps += [f"{name}_residuals(row, row + k, m, a);",
              "row_squares(loops + LOOP_VECDOT, k, m, out + m * row, values);", "return 0;"]
    frame = ["const ufunc_loop *loops = a[6];", "const int64_t m = *(const int64_t *)a[7];",
             "double *thetas = a[2], *out = a[5];"] + ["double *exps = a[4];"] * bool(exps)
    text += (f"/* the objective of the {name} template (fit_objective) */\n"
             f"int nc_{name}(void *const *a, int64_t row, int64_t k, const double *points, "
             f"double *values)\n{{\n" + "".join(f"    {f}\n" for f in frame + steps) + "}\n\n")
    return text, width, len(exps)


# name -> (C of the template, its coefficients a point, its exps a point)
_TRACED = {name: _c_template(name, *entry) for name, entry in _TEMPLATES.items()}

# nc_dop853's drift table, in the order of _FORMULAS
_DRIFTS = ("/* the scalar drifts, nc_dop853's `which` their index in _FORMULAS */\n"
           "static void (*const DRIFTS[])(const double *, int64_t, const double *, double *) = {"
           + ", ".join(_FORMULAS) + "};\n")

_SOURCE = (_PRELUDE + "".join(_c_drift(name, *entry) for name, entry in _FORMULAS.items())
           + _DRIFTS + _LOOPS + _FRAME + _DOP853 + _NELDER_MEAD
           + "".join(text for text, *_ in _TRACED.values()))

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
    # not member loops, but bound once per fit: the fit's restarts take the
    # pointers to their arrays, a template's objective (fit_objective) its
    # own, a first row, a count and the points and values
    "fit": [_P],
    **dict.fromkeys(_TRACED, [_P, _I, _I, _P, _P]),
    # the frame transport, called once per frame
    "frame": [_I, _I, _I, ctypes.c_double] + [_P] * 9 + [_I],
    # the cycle finder's DOP853 steps, called once per stretch of steps
    "dop853": [_I, _P, _I, _P, _P, _P, _P, _I, _P, _P, _P, _P, _I],
}
# what an nc_ function returns, when not None
_RESTYPES = {"frame": _I, "dop853": _I, **dict.fromkeys(_TRACED, ctypes.c_int)}

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
    """``system``'s drift at one state as ``f(t, y)`` for scipy's
    ``DOP853``, or None when ``_spec_of`` finds no spec.

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


def _in_threads(run, P, group, halt=None) -> None:
    """``run(a, b)`` over contiguous groups [a, b) of at most ``group`` of
    ``P`` items (members, frequencies or grid rows), split into one block of groups
    per thread (``_threads``), the first block in this thread.  Each other
    thread runs in a copy of this thread's context, and so under its numpy
    error state.  This thread handles signals between two calls.  When a
    call raises (KeyboardInterrupt, say), the other threads stop after
    their current call, ``halt()`` (if given) asks a call running to stop
    early, and this thread raises it once every other thread has returned:
    none still writes into the caller's arrays."""
    t = _threads(P)
    edges = [P * j // t for j in range(t + 1)]
    stop = threading.Event()
    errors = []

    def stopping():
        stop.set()
        if halt is not None:
            halt()

    def block(a, b, done=None):
        try:
            for g in range(a, b, group):
                if stop.is_set():
                    return
                run(g, min(g + group, b))
        except BaseException as exc:  # re-raised below, in this thread
            errors.append(exc)
            stopping()
        finally:
            if done is not None:
                done.set()

    # a join that an interrupt cut short may mark its thread stopped while
    # it still runs (CPython 3.11 does), so the threads say when they are done
    done = [threading.Event() for _ in range(1, t)]
    others = [threading.Thread(target=contextvars.copy_context().run,
                               args=(block, *edges[j:j + 2], done[j - 1])) for j in range(1, t)]
    for thread in others:
        thread.start()
    try:
        block(*edges[:2])
        for thread in others:
            thread.join()
    except BaseException:  # interrupted while joining
        stopping()
        for event in done:
            event.wait()
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


class _CallInfo(ctypes.Structure):
    """The head of numpy's ``ufunc_call_info``, which the capsule named
    ``numpy_1.24_ufunc_call_info`` holds."""

    _fields_ = [("loop", _P), ("context", _P), ("auxdata", _P), ("requires_pyapi", ctypes.c_ubyte)]


@functools.cache
def _ufunc_loops():
    """numpy's float64 strided inner loops of ``np.matmul``, ``np.linalg``'s
    ``svd_f``, ``np.vecdot`` and ``np.exp``, the loops ``nc_frame`` and the
    fit's objectives call, as an array of their (loop, context, auxdata)
    pointers, and the call-info capsules that own them, which must live
    while they are called.  numpy hands them out
    through the experimental ``ufunc._resolve_dtypes_and_context`` and
    ``_get_strided_loop``; ctypes reads the capsule, so the build needs no
    Python headers.  None where numpy lacks that API, names the capsule
    otherwise or has a loop that needs the Python API."""
    pointer = ctypes.PYFUNCTYPE(_P, ctypes.py_object, ctypes.c_char_p)(
        ("PyCapsule_GetPointer", ctypes.pythonapi))
    float64 = np.dtype(np.float64)
    loops, capsules = [], []
    try:
        from numpy.linalg import _umath_linalg

        for ufunc in (np.matmul, _umath_linalg.svd_f, np.vecdot, np.exp):
            _, capsule = ufunc._resolve_dtypes_and_context((float64,) * ufunc.nargs)
            ufunc._get_strided_loop(capsule)
            info = _CallInfo.from_address(pointer(capsule, b"numpy_1.24_ufunc_call_info"))
            if info.requires_pyapi or not info.loop:
                return None
            loops += [info.loop, info.context, info.auxdata]
            capsules.append(capsule)
    except (AttributeError, ImportError, NotImplementedError, TypeError, ValueError):
        return None
    return np.array(loops, np.uintp), capsules


# what nc_frame returns for an SVD that did not converge and for a
# floating-point exception; else a step that lost orthogonality, or -1
_FRAME_SVD, _FRAME_RAISED = -2, -3
# numpy's error-state names, by the bit of nc_frame's and nc_dop853's watch
_WATCHED = ((1, "over"), (2, "invalid"), (4, "divide"), (8, "under"))


def _watch() -> int:
    """The floating-point exceptions numpy's error state does not ignore,
    as the watch bits of ``nc_frame`` and ``nc_dop853``."""
    errors = np.geterr()
    return sum(bit for bit, name in _WATCHED if errors[name] != "ignore")


def frame_transport(tan, rate, t0, p0, h, m, substeps) -> Optional[tuple]:
    """``frame._transport`` in one call of ``nc_frame`` on the same
    arguments, with the same results, or None for that loop: without the
    library or numpy's loops (``_ufunc_loops``), for a value that is not
    float64, or when an operation raised a floating-point exception that
    numpy's error state does not ignore, so that the numpy loop reports it
    as numpy does.  An SVD that does not converge raises numpy's
    ``LinAlgError``, as ``np.linalg.svd`` does."""
    lib, loops = _library(), _ufunc_loops()
    values = [np.asarray(x) for x in (tan, rate, t0, p0, h)]
    if lib is None or loops is None or any(x.dtype != np.float64 for x in values):
        return None
    tan, rate, t0, p0 = (np.ascontiguousarray(x) for x in values[:4])
    n = t0.size
    if tan.shape != rate.shape or tan.shape != ((3 * substeps + 1) * m, n) or p0.shape != (n, n):
        raise ValueError("nc_frame got rows, a tangent or a projector of mismatched shapes")
    U, V = np.empty((m, n, n)), np.empty((m, n, n))
    drift, work = np.zeros(1), np.empty(10 * n * n + n)
    lost = lib.nc_frame(m, n, substeps, float(h), *(x.ctypes.data for x in (
        tan, rate, t0, p0, U, V, drift, work, loops[0])), _watch())
    if lost == _FRAME_RAISED:
        return None
    if lost == _FRAME_SVD:
        raise np.linalg.LinAlgError("SVD did not converge")
    return U, V, lost, drift[0]


@functools.cache
def _dop853_tables():
    """scipy's DOP853 tables (``dop853_coefficients``' A, B, E3, E5 and D)
    as ``nc_dop853`` reads them, the pointers to them, and scipy's step-size
    constants (SAFETY, MIN_FACTOR and MAX_FACTOR of its ``rk`` module); None
    where the tables have other shapes than the C's."""
    from scipy.integrate._ivp import dop853_coefficients as coefficients, rk

    tables = [np.ascontiguousarray(getattr(coefficients, name), dtype=np.float64)
              for name in ("A", "B", "E3", "E5", "D")]
    if ((coefficients.N_STAGES, coefficients.N_STAGES_EXTENDED, coefficients.INTERPOLATOR_POWER)
            != (12, 16, 7) or [x.shape for x in tables] != [(16, 16), (12,), (13,), (13,), (4, 16)]):
        return None
    return tables, _frame(tables), (rk.SAFETY, rk.MIN_FACTOR, rk.MAX_FACTOR)


# what nc_dop853 returns, by its name in frame._advance, and the records a
# call writes at most
_DOP853_ENDED = ("finished", "failed", "crossed", "escaped", "full", "raised")
_DOP853_RECORDS = 256


def dop853(system) -> Optional[Callable]:
    """The compiled stepper of scipy ``DOP853`` solvers on ``system``'s
    drift, or None without a spec (``_spec_of``), the library, numpy's
    loops (``_ufunc_loops``) or scipy's tables (``_dop853_tables``).

    ``stepper(solver, section, outputs)`` takes the steps of
    ``frame._advance``'s scipy loop in ``nc_dop853``, on a solver of the
    drift ``single_state(system)``, with the same results, and leaves the
    solver's t, y, f, h_abs, t_old, y_old, h_previous and status where
    scipy's steps would.  It returns what ``frame._advance`` returns, each
    step's dense output appended to ``outputs`` unless that is None, or
    None when a step raised a floating-point exception that numpy's error
    state does not ignore: the solver then stands before that step, for
    scipy's steps to take it and report the exception as numpy does.  A
    solver that is not running, and so takes no step, is left to
    ``frame._advance`` too.
    """
    ks = _spec_of(system)
    lib, loops, tables = _library(), _ufunc_loops(), _dop853_tables()
    if ks is None or lib is None or loops is None or tables is None:
        return None
    from scipy.integrate._ivp.rk import Dop853DenseOutput

    _, pointers, constants = tables
    which, coefs = list(_FORMULAS).index(ks.name), np.array(ks.coefs, dtype=np.float64)

    def stepper(solver, section=None, outputs=None):
        n = solver.n
        if solver.status != "running" or solver.y.dtype != np.float64 or np.ndim(solver.rtol):
            return None
        k = np.array([solver.t_bound, solver.direction, solver.max_step, solver.rtol, *constants,
                      solver.error_exponent, *np.broadcast_to(solver.atol, n)], dtype=np.float64)
        state = np.concatenate([[solver.t, solver.h_abs, 0.0, 0.0], solver.y, solver.f,
                                np.zeros(n)])
        bounds = None if section is None else np.concatenate([[section[2]], *section[:2]])
        # the search records the step that crossed, the one turn every step
        capacity = 1 if section is not None else _DOP853_RECORDS if outputs is not None else 0
        work, steps, watch = np.empty(26 * n), np.zeros(1, np.int64), _watch()

        def dense(r):  # a record: (t_old, t, y_old ..., F ...)
            return Dop853DenseOutput(r[0], r[1], r[2:2 + n], r[2 + n:].reshape(7, n))

        ended = "full"
        while ended == "full":
            record = np.empty((capacity, 2 + 8 * n))
            ended = _DOP853_ENDED[lib.nc_dop853(
                which, coefs.ctypes.data, n, k.ctypes.data, state.ctypes.data,
                None if bounds is None else bounds.ctypes.data, record.ctypes.data, capacity,
                steps.ctypes.data, work.ctypes.data, pointers.ctypes.data, loops[0].ctypes.data,
                watch)]
            if steps[0]:
                solver.t, solver.h_abs, solver.t_old, solver.h_previous = state[:4].tolist()
                solver.y, solver.f, solver.y_old = (state[4 + j * n:4 + (j + 1) * n].copy()
                                                    for j in range(3))
                if solver.direction * (solver.t - solver.t_bound) >= 0:
                    solver.status = "finished"
            if outputs is not None:
                outputs += [dense(r) for r in record[:steps[0]]]
        if ended == "raised":
            return None
        if ended == "failed":
            solver.status = "failed"
            return ended, solver.TOO_SMALL_STEP
        return ended, dense(record[0]) if ended == "crossed" else outputs

    return stepper


def _frame(arrays) -> np.ndarray:
    """The pointers to ``arrays``, or the addresses given as ints, as the
    one argument of a function bound once per fit (``nc_fit``, a
    template's objective); the caller keeps the arrays and the frame alive
    while it calls."""
    return np.array([x if isinstance(x, int) else x.ctypes.data for x in arrays], np.uintp)


# nc_fit's objective, as ctypes calls a Python one
_DOUBLES = ctypes.POINTER(ctypes.c_double)
_OBJECTIVE = ctypes.CFUNCTYPE(ctypes.c_int, _P, _I, _I, _DOUBLES, _DOUBLES)


def fit_restarts(objective, scale, starts, lower, upper, constants, maxfev,
                 maxiter) -> Optional[list]:
    """Restarts of scipy's bounded ``_minimize_neldermead`` from the rows
    of ``starts``, (count, n), within [``lower``, ``upper``], each run by
    ``nc_fit`` from its start simplex, which the C builds as scipy does, or
    None without the library or numpy's loops (``_ufunc_loops``).

    ``objective`` is a compiled template (:class:`_Template`), whose C
    objective ``nc_fit`` calls itself, or ``objective(points, values)``,
    which writes the objective's value of each point, times ``scale``, into
    ``values``; ``nc_fit`` calls that through ctypes, one call at a time,
    on the restart's own points and values.  Restarts go to
    ``_threads(count)`` workers, one at a time to the next free worker, and
    each runs straight through until it ends or cannot order its values
    (ties, NaN): there it waits, and when every restart has ended or
    waits, numpy's argsort orders the waiting ones' values and the
    workers resume them.  ``constants`` are fitting's (rho, chi, psi,
    sigma, xatol, fatol, nonzdelt, zdelt).  Returns each restart's last
    simplex and values, as lists of floats, and its nfev and nit.
    """
    lib, loops = _library(), _ufunc_loops()
    if lib is None or loops is None:
        return None
    starts = np.array(starts, dtype=np.float64, ndmin=2)
    count, n = starts.shape
    arrays = [np.array(x, dtype=np.float64) for x in (constants, lower, upper)]
    if [x.shape for x in arrays] != [(8,), (n,), (n,)]:
        raise ValueError("nc_fit got starts, bounds or constants of mismatched shapes")
    arrays[0] = np.append(arrays[0], scale)
    state = np.zeros((count, 4), np.int64)  # every restart at NM_START
    sim = np.empty((count, n + 1, n))
    sim[:, 0] = starts  # each start simplex is built around its row 0
    fsim = np.empty((count, n + 1))
    order = np.empty((count, n + 1), np.int64)
    shared = np.zeros(2, np.int64)
    errors = []
    if isinstance(objective, _Template):
        if objective.capacity < fsim.size or n != _PARAMETERS:
            raise ValueError(f"nc_fit got {count} restarts of {n} parameters for a template of "
                             f"{objective.capacity} rows")
        function, bound = objective.function, objective.frame
    else:
        function = _OBJECTIVE(_serialized(objective, n, errors))
        bound = np.zeros(1, np.uintp)
    arrays = [np.array([count, n, maxfev, maxiter], np.int64), *arrays, state, sim, fsim, order,
              ctypes.cast(function, _P).value, bound, shared]
    frame = _frame(arrays)  # nc_fit reads its pointers from here on every call

    def run(a, b):
        lib.nc_fit(frame.ctypes.data)

    def halt():  # an interrupt: every worker stops before its next evaluation
        shared[1] = 1

    while True:
        shared[:] = 0
        _in_threads(run, _threads(count), 1, halt)
        if errors:
            raise errors[0]
        waiting = state[:, 3] == 1
        if not waiting.any():
            return [(s, f, nfev, nit) for s, f, (nfev, nit)
                    in zip(sim.tolist(), fsim.tolist(), state[:, 1:3].tolist())]
        order[waiting] = np.argsort(fsim[waiting])


def _serialized(objective, n, errors):
    """``objective(points, values)`` as ``nc_fit`` calls its objective:
    on the k points of n coordinates and the k values at the pointers it
    is given, one call at a time; an exception goes into ``errors`` and
    stops the fit."""
    lock = threading.Lock()

    def call(_, row, k, points, values):
        try:
            with lock:
                objective(np.ctypeslib.as_array(points, (k, n)),
                          np.ctypeslib.as_array(values, (k,)))
        except BaseException as exc:  # re-raised by fit_restarts
            errors.append(exc)
            return 1
        return 0

    return call


class _Template:
    """The template ``name`` of ``_TEMPLATES`` on ``grid`` less ``data`` in
    the compiled library, bound for at most ``capacity`` rows: the
    objective of the compiled fit.

    ``function`` is its C objective, ``nc_name`` (``fit_objective``), and
    ``frame`` the pointers it takes; ``nc_fit`` calls it with each
    restart's rows.  ``template(points, out)`` is one call of that
    objective on rows [0, k) for k rows of log-parameters (log r, log
    alpha, log lambda, log sigma): numpy's exp of the rows into parameters,
    each row's coefficients and, with exps, its exp arguments, mapped in
    place by numpy's exp (numpy's SIMD exp, whose bits C cannot promise),
    each row's curve less the data into ``residuals``, and each row's sum
    of squared residuals, numpy's vecdot, into ``out``.  Each row has the
    bits of the numpy objective at that point.  More than ``capacity``
    rows, or rows of another width, are a ``ValueError``.
    """

    def __init__(self, lib, loops, name, grid, data, capacity):
        _, width, exps = _TRACED[name]
        grid, data = (np.array(x, dtype=np.float64, ndmin=1) for x in (grid, data))
        m = grid.size
        if grid.shape != (m,) or data.shape != (m,):
            raise ValueError(f"nc_{name} got a grid and data of mismatched shapes")
        self.coefficients = np.empty((capacity, width))
        self.residuals = np.empty((capacity, m))
        # the template holds every array whose pointer it passes
        self._arrays = [grid, data, np.empty((capacity, _PARAMETERS)), self.coefficients,
                        np.empty((exps * capacity, m)), self.residuals, loops,
                        np.array([m], np.int64)]
        self.frame = _frame(self._arrays)
        self.function = getattr(lib, f"nc_{name}")
        self.capacity, self._name = capacity, name

    def __call__(self, points, out):
        points = np.ascontiguousarray(points, dtype=np.float64)
        k = len(points)
        if k > self.capacity or points.shape[1:] != (_PARAMETERS,):
            raise ValueError(f"nc_{self._name} got {points.shape} points for buffers of "
                             f"{self.capacity} rows of {_PARAMETERS}")
        values = np.empty(k)
        self.function(self.frame.ctypes.data, 0, k, points.ctypes.data, values.ctypes.data)
        out[:] = values


def template(name, grid, data, capacity) -> Optional[_Template]:
    """The compiled objective of the template ``name`` on ``grid`` less
    ``data`` for at most ``capacity`` rows (:class:`_Template`), or None
    without the library or numpy's loops (``_ufunc_loops``)."""
    lib, loops = _library(), _ufunc_loops()
    if lib is None or loops is None:
        return None
    return _Template(lib, loops[0], name, grid, data, capacity)
