"""Second-order and distributional statistics of oscillator time series.

Conventions, fixed once for the whole package:

* Autocovariance: ACV(u) = E[(x(t) - m)(x(t + u) - m)], estimated with the
  biased (divide by N) mean-subtracted sample form, so |ACV(u)| <= ACV(0).
* Power spectrum: two-sided density  PS(w) = integral ACV(u) e^{-i w u} du,
  reported on w >= 0.  Total variance is recovered as (1/pi) times the
  integral of the reported half-line, and integral PS dw = 2 pi ACV(0).
  The per-path periodogram |DFT|^2 dt / N on the grid w_k = 2 pi k / (N dt)
  estimates exactly this density; the linear relaxation process with rate
  lambda and amplitude sigma comes out as sigma^2 / (lambda^2 + w^2).

Closed forms for the leading-order phase/deviation oscillator, s = sigma/r:

    ACV(u) = (r^2/2) (1 + NSR^2 e^{-lambda |u|}) cos(alpha u) e^{-|u| s^2/2}

    PS(w)  = 2 r^2 s^2 [4(alpha^2+w^2) + s^4]
             / ([4(alpha-w)^2 + s^4][4(alpha+w)^2 + s^4])
           + NSR^2 2 r^2 g [4(alpha^2+w^2) + g^2]
             / ([4(alpha-w)^2 + g^2][4(alpha+w)^2 + g^2]),   g = s^2 + 2 lambda

which are each other's Fourier transforms under the convention above.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import _stepkernel
from ._stepkernel import _acv_curve, _psd_curve
from .exceptions import (
    ConfigError,
    DegenerateSampleError,
    DegenerateSpectrumError,
    _require_array,
    _require_count,
    _require_real,
)
from .hopf import HopfParams, _nsr_of

__all__ = [
    "AcvEstimate",
    "PsdEstimate",
    "DensityEstimate",
    "sample_acv",
    "averaged_periodogram",
    "acv_formula",
    "psd_formula",
    "kde",
    "kurtosis",
    "wk_transform",
]

# lag samples a callable ACV may take in wk_transform before it is judged
# non-decaying
_MAX_LAGS = 2**21

# samples in one kde chunk, and grid rows in one kde block: a block's two
# buffers of 16 x 4096 doubles (1 MiB) stay in a core's L2 cache
_KDE_CHUNK = 4096
_KDE_ROWS = 16


@dataclass
class AcvEstimate:
    """Autocovariance on a uniform lag grid starting at zero."""

    lags: np.ndarray
    values: np.ndarray


@dataclass
class PsdEstimate:
    """Two-sided spectral density sampled on nonnegative frequencies."""

    omegas: np.ndarray
    values: np.ndarray


@dataclass
class DensityEstimate:
    """Smoothed probability density on a uniform grid."""

    grid: np.ndarray
    density: np.ndarray
    bandwidth: float


def sample_acv(series, dt, max_lag) -> AcvEstimate:
    """Biased mean-subtracted sample autocovariance up to ``max_lag``.

    Computed with an FFT over a zero-padded copy, identical to the direct
    sum  (1/N) sum_t (x_t - m)(x_{t+k} - m).  The series must be finite
    and cover at least twice the requested lag span, and the centred
    series small enough that 4 nfft (sum |x - m|)^2, which bounds every
    product of the transform, stays within float's range
    (:class:`ConfigError` before any transform).
    """
    x = _require_array("series", series, (None,))
    n = x.size
    _require_real("dt", dt)
    _require_real("max_lag", max_lag, zero=True)
    k_max = int(np.floor(max_lag / dt + 1e-9))
    if max_lag > n * dt / 2.0:
        raise ConfigError(
            f"max_lag {max_lag} exceeds half the series span {n * dt / 2.0}"
        )
    nfft = 1 << int(np.ceil(np.log2(n + k_max + 1)))
    with np.errstate(over="ignore", invalid="ignore"):
        x = x - x.mean()
        # |DFT|^2 is at most (sum |x|)^2, and the inverse transform sums
        # nfft of them before it divides; 4 covers the transforms' rounding
        bound = 4.0 * nfft * np.abs(x).sum() ** 2
    if not np.isfinite(bound):
        raise ConfigError("the series is too large: its ACV's transform overflows; scale it down")
    spec = np.fft.rfft(x, nfft)
    acv = np.fft.irfft(spec * spec.conj(), nfft)[: k_max + 1] / n
    return AcvEstimate(lags=np.arange(k_max + 1) * dt, values=acv)


def averaged_periodogram(paths, dt) -> PsdEstimate:
    """Mean periodogram of equally long paths, each centred on its own mean.

    Per path the raw (untapered) periodogram |DFT|^2 dt / N is taken on the
    frequency grid w_k = 2 pi k / (N dt); no windowing is applied.  The
    paths must be finite.
    """
    arr = _require_array("paths", paths, (None, None), ndmin=2)
    _require_real("dt", dt)
    n = arr.shape[1]
    centred = arr - arr.mean(axis=1, keepdims=True)
    pgram = np.abs(np.fft.rfft(centred, axis=1)) ** 2 * (dt / n)
    omegas = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
    return PsdEstimate(omegas=omegas, values=pgram.mean(axis=0))


def acv_formula(params: HopfParams, u) -> np.ndarray:
    """Leading-order autocovariance of the x component; even in the lag.
    ``u`` is an array of finite lags of any shape (:class:`ConfigError`
    otherwise, and where a term overflows)."""
    u = np.abs(_require_array("u", u, None))
    return _formula("acv_formula", params, _acv_coefficients, _acv_curve, u)


def _formula(name, params, coefficients, curve, grid):
    """``curve`` on ``grid`` at the coefficients of ``params``; a term that
    overflows, which Python raises and numpy warns about, is a
    :class:`ConfigError`.  The template's own helpers keep Python's
    ``OverflowError``, which fitting's objective retries on numpy scalars."""
    try:
        with np.errstate(over="raise", invalid="raise"):
            return curve(coefficients(params.r, params.alpha, params.lambda_, params.sigma), grid)
    except (OverflowError, FloatingPointError):
        raise ConfigError(f"{name} overflows at {params}") from None


def _acv_coefficients(r, alpha, lam, sigma):
    """The scalars of the ACV template at one parameter point:
    (r^2/2, NSR^2, -lambda, alpha, -s^2/2).

    Squares stay on scalars (``x**2`` is libm ``pow`` there, ``x*x`` on
    arrays), so a point gives the same bits alone or in a batch.
    """
    return 0.5 * r**2, _nsr_of(sigma, lam, r) ** 2, -lam, alpha, -0.5 * (sigma / r) ** 2


def psd_formula(params: HopfParams, omega) -> np.ndarray:
    """Leading-order two-sided spectral density; even in frequency.
    ``omega`` is an array of finite frequencies of any shape
    (:class:`ConfigError` otherwise, and where a term overflows)."""
    if params.sigma == 0.0:
        raise DegenerateSpectrumError(
            "sigma = 0 gives a line spectrum (delta peaks at +-alpha); "
            "the density formula is degenerate there"
        )
    w = _require_array("omega", omega, None)
    return _formula("psd_formula", params, _psd_coefficients, _psd_curve, w)


def _psd_coefficients(r, alpha, lam, sigma):
    """The scalars of the PSD template at one parameter point, sigma > 0:
    alpha, alpha^2, then the prefactor weight 2 r^2 width and width^2 of
    the direct (width s^2) and the broadened (width g) Lorentzian pair."""
    s2 = (sigma / r) ** 2
    r2 = r**2
    g = s2 + 2.0 * lam
    broadened = _nsr_of(sigma, lam, r) ** 2 * 2.0 * r2 * g
    return alpha, alpha**2, 2.0 * r2 * s2, s2**2, broadened, g**2


def kde(samples, grid_size=512, bandwidth=None) -> DensityEstimate:
    """Gaussian kernel density with the Silverman rule of thumb.

    bandwidth = 0.9 min(std, IQR / 1.34) N^{-1/5} unless given explicitly.
    The samples must be finite, an explicit bandwidth positive and finite,
    and ``grid_size`` an integer of at least 2 (:class:`ConfigError`
    before any work).  A bandwidth whose grid or normalization leaves
    float's range is a :class:`DegenerateSampleError`.

    The kernel sums run over chunks of 4096 samples, in order.  Each
    chunk's exp(-0.5 d d), d = (grid - x) / bandwidth, is formed in place in
    two buffers of ``_KDE_ROWS`` grid rows x min(N, 4096) doubles, small
    enough to stay in a core's cache, and summed row by row with the
    arithmetic of the plain expression; each row adds its chunk sums in
    chunk order.  Contiguous blocks of grid rows run in one thread per CPU
    (``_stepkernel._in_threads``), where numpy's calls release the GIL, each
    with its own pair of buffers; no value depends on the block.
    """
    x = _require_array("samples", samples, None).ravel()
    if x.size < 2:
        raise ConfigError("at least 2 samples are required")
    _require_count("grid_size", grid_size, 2)
    # samples or a bandwidth near float's limits overflow the spread, the
    # grid's ends or the normalization, which are then refused, not warned
    # about
    with np.errstate(over="ignore", invalid="ignore"):
        if bandwidth is None:
            std = x.std()
            q75, q25 = np.percentile(x, [75.0, 25.0])
            spread = min(std, (q75 - q25) / 1.34)
            bandwidth = 0.9 * spread * x.size ** (-0.2)
            if not (bandwidth > 0.0 and np.isfinite(bandwidth)):
                raise DegenerateSampleError(
                    f"sample spread is degenerate (bandwidth {bandwidth})"
                )
        else:
            _require_real("bandwidth", bandwidth)
        ends = (x.min() - 4.0 * bandwidth, x.max() + 4.0 * bandwidth)
        if not np.isfinite(ends[1] - ends[0]):
            raise DegenerateSampleError(
                f"the density grid from {ends[0]} to {ends[1]} overflows "
                f"(bandwidth {bandwidth})"
            )
        norm = 1.0 / (np.sqrt(2.0 * np.pi) * bandwidth * x.size)
        if not norm > 0.0:
            raise DegenerateSampleError(
                f"the density's normalization overflows (bandwidth {bandwidth}, "
                f"{x.size} samples)"
            )
    grid = np.linspace(*ends, grid_size)
    density = np.zeros(grid_size)
    width = min(x.size, _KDE_CHUNK)

    def rows(a, b):
        d_buf = np.empty(_KDE_ROWS * width)
        e_buf = np.empty(_KDE_ROWS * width)
        for top in range(a, b, _KDE_ROWS):
            at = grid[top:min(top + _KDE_ROWS, b), None]
            total = density[top:top + at.size]
            for start in range(0, x.size, width):
                chunk = x[start:start + width]
                used = at.size * chunk.size
                d = d_buf[:used].reshape(at.size, chunk.size)
                e = e_buf[:used].reshape(at.size, chunk.size)
                np.subtract(at, chunk, out=d)
                d /= bandwidth
                np.multiply(-0.5, d, out=e)
                e *= d
                np.exp(e, out=e)
                total += e.sum(axis=1)

    _stepkernel._in_threads(rows, grid_size, grid_size)
    return DensityEstimate(grid=grid, density=norm * density, bandwidth=float(bandwidth))


def kurtosis(samples) -> float:
    """Non-excess kurtosis m4 / m2^2 with population moments of at least
    30 finite samples."""
    x = _require_array("samples", samples, None).ravel()
    if x.size < 30:
        raise ConfigError(f"kurtosis needs >= 30 samples, got {x.size}")
    x = x - x.mean()
    m2 = np.mean(x * x)
    if m2 == 0.0:
        raise DegenerateSampleError("zero variance sample")
    return float(np.mean(x**4) / m2**2)


def wk_transform(acv, omegas) -> PsdEstimate:
    """Cosine transform of an autocovariance:  PS(w) = 2 int_0^U ACV cos(wu) du.

    ``acv`` is either an :class:`AcvEstimate` (integrated on its own lag
    grid) or a callable u -> ACV(u); for callables the lag grid is built
    automatically with 256 lags per period of the highest frequency,
    extending until the block envelope of |ACV| falls below 1e-6 of ACV(0)
    (inputs that do not decay within 2**21 lags, e.g. a noiseless template,
    raise :class:`DegenerateSpectrumError`; a block holding a value that is
    not finite raises :class:`ConfigError` naming its first such lag).  An
    estimate is refused with :class:`ConfigError` before any quadrature
    unless its lags and values are finite real 1-D arrays of one length
    and its lags strictly increase.  Trapezoid quadrature throughout.

    The frequencies are taken one at a time with the arithmetic of
    ``np.trapezoid``: cos(w u) ACV(u), then d (y[1:] + y[:-1]) / 2 summed
    and doubled.  Contiguous blocks of them run in one thread per CPU
    (``_stepkernel._in_threads``), where numpy's calls release the GIL;
    each block reuses two buffers of the lag grid's length, and no value
    depends on the block.  ``omegas`` must be a nonempty 1-D array of
    finite, nonnegative values whose largest, times the largest |lag| of
    an estimate or times 128 for a callable, is finite (:class:`ConfigError`
    before any sampling).
    """
    omegas = _require_array("omegas", omegas, (None,), ndmin=1)
    if np.any(omegas < 0.0):
        raise ConfigError("omegas must be nonnegative")

    def refuse_overflow(factor, what):
        # the largest frequency times the largest lag, or times the 128 of a
        # callable's lag step pi / (128 omega), must stay within float's range
        with np.errstate(over="ignore"):
            overflows = np.isinf(omegas.max() * factor)
        if overflows:
            raise ConfigError(
                f"omegas times {what} must be finite, got {omegas.max():g} * {factor:g}"
            )

    if isinstance(acv, AcvEstimate):
        lags = _require_array("acv.lags", acv.lags, (None,))
        vals = _require_array("acv.values", acv.values, (lags.size,))
        with np.errstate(over="ignore"):  # a spacing past float's range is refused below
            increasing = np.all(np.diff(lags) > 0.0)
        if not increasing:
            raise ConfigError("ACV lags must be strictly increasing")
        c0 = abs(vals[0])
        env = _block_envelope(vals, 512)
        below = np.nonzero(env < 1e-6 * c0)[0]
        if below.size:
            cut = min((below[0] + 1) * 512, vals.size)
            lags, vals = lags[:cut], vals[:cut]
        refuse_overflow(max(-lags[0], lags[-1]), "the largest |lag|")
    else:
        refuse_overflow(128.0, "128")
        w_max = max(omegas.max(), 1e-12)
        du = np.pi / (128.0 * w_max)
        lags, vals = _sampled_until_decay(acv, du, _MAX_LAGS * du)

    with np.errstate(over="ignore", invalid="ignore"):
        spacing = np.diff(lags)
        # the trapezoid of |ACV|, in the order below: |cos| <= 1, so no sum
        # or product of any frequency's trapezoid exceeds its terms
        bound = np.multiply(spacing, np.abs(vals[1:]) + np.abs(vals[:-1])) / 2.0
        bound = 2.0 * bound.sum()
    if not np.isfinite(bound):
        raise ConfigError("the ACV's trapezoid overflows: scale the ACV down")
    values = np.empty(omegas.size)

    def frequencies(a, b):
        y = np.empty(lags.size)
        area = np.empty(spacing.size)
        for k in range(a, b):
            np.multiply(omegas[k], lags, out=y)
            np.cos(y, out=y)
            np.multiply(vals, y, out=y)
            np.add(y[1:], y[:-1], out=area)
            np.multiply(spacing, area, out=area)
            area /= 2.0
            values[k] = 2.0 * area.sum()

    _stepkernel._in_threads(frequencies, omegas.size, omegas.size)
    return PsdEstimate(omegas=omegas, values=values)


def _block_envelope(vals, block):
    nb = int(np.ceil(vals.size / block))
    padded = np.full(nb * block, 0.0)
    padded[: vals.size] = np.abs(vals)
    return padded.reshape(nb, block).max(axis=1)


def _require_finite(lags, vals):
    bad = np.flatnonzero(~np.isfinite(vals))
    if bad.size:
        raise ConfigError(f"ACV must be finite, got {vals[bad[0]]} at lag {lags[bad[0]]:g}")


def _sampled_until_decay(fn, du, cap):
    c0 = abs(float(fn(0.0)))
    if not np.isfinite(c0) or c0 == 0.0:
        raise ConfigError("ACV(0) must be finite and nonzero")
    block = 4096
    chunks_u, chunks_v = [], []
    start = 0
    while True:
        stop = start + block + (1 if start == 0 else 0)
        u = np.arange(start, stop) * du
        v = np.asarray(fn(u), dtype=float)
        _require_finite(u, v)
        chunks_u.append(u)
        chunks_v.append(v)
        if np.max(np.abs(v[-block:])) < 1e-6 * c0:
            break
        if u[-1] >= cap:
            raise DegenerateSpectrumError(
                "autocovariance envelope did not decay below 1e-6 of ACV(0) "
                f"within lag {cap:g}; a line spectrum has no density limit"
            )
        start = stop
    return np.concatenate(chunks_u), np.concatenate(chunks_v)
