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
from ._stepkernel import _acv_coefficients, _acv_curve, _psd_coefficients, _psd_curve
from .exceptions import (
    ConfigError,
    DegenerateSampleError,
    DegenerateSpectrumError,
    _float_rule,
    _require_array,
    _require_count,
    _require_real,
)
from .hopf import HopfParams

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
# times wk_transform may halve a callable ACV's first lag step before it
# judges the ACV not continuous at zero
_MAX_HALVINGS = 64

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
    and cover at least twice the requested lag span (:class:`ConfigError`
    before any transform); an overflow, invalid operation or division by
    zero on the way is a :class:`ConfigError` too.
    """
    x = _require_array("series", series, (None,))
    n = x.size
    _require_real("dt", dt)
    _require_real("max_lag", max_lag, least=0)
    with _float_rule(ConfigError, f"the sample ACV overflows at dt {dt}: scale the series "
                                  "or dt down"):
        if max_lag > n * dt / 2.0:
            raise ConfigError(f"max_lag {max_lag} exceeds half the series span {n * dt / 2.0}")
        k_max = int(np.floor(max_lag / dt + 1e-9))
        nfft = 1 << int(np.ceil(np.log2(n + k_max + 1)))
        x = x - x.mean()
        spec = np.fft.rfft(x, nfft)
        acv = np.fft.irfft(spec * spec.conj(), nfft)[: k_max + 1] / n
        return AcvEstimate(lags=np.arange(k_max + 1) * dt, values=acv)


def averaged_periodogram(paths, dt) -> PsdEstimate:
    """Mean periodogram of equally long paths, each centred on its own mean.

    Per path the raw (untapered) periodogram |DFT|^2 dt / N is taken on the
    frequency grid w_k = 2 pi k / (N dt); no windowing is applied.  The
    paths must be finite (:class:`ConfigError` before any transform); an
    overflow, invalid operation or division by zero in the periodogram or
    its frequency grid is a :class:`ConfigError` too.
    """
    arr = _require_array("paths", paths, (None, None), ndmin=2)
    _require_real("dt", dt)
    n = arr.shape[1]
    with _float_rule(ConfigError, f"the periodogram overflows at dt {dt}: "
                                  "scale the paths or dt"):
        centred = arr - arr.mean(axis=1, keepdims=True)
        pgram = np.abs(np.fft.rfft(centred, axis=1)) ** 2 * (dt / n)
        omegas = 2.0 * np.pi * np.fft.rfftfreq(n, dt)
        return PsdEstimate(omegas=omegas, values=pgram.mean(axis=0))


def acv_formula(params: HopfParams, u) -> np.ndarray:
    """Leading-order autocovariance of the x component; even in the lag.
    ``u`` is an array of finite lags of any shape (:class:`ConfigError`
    otherwise, and where a term overflows, is invalid or divides by zero).
    The coefficients are formed on numpy scalars, which round as Python's
    floats do but flag a product or quotient that overflows to inf."""
    u = np.abs(_require_array("u", u, None))
    with _float_rule(ConfigError, f"acv_formula overflows at {params}"):
        return _acv_curve(_acv_coefficients(*_numpy_scalars(params)), u)


def _numpy_scalars(params):
    return map(np.float64, (params.r, params.alpha, params.lambda_, params.sigma))


def psd_formula(params: HopfParams, omega) -> np.ndarray:
    """Leading-order two-sided spectral density; even in frequency.
    ``omega`` is an array of finite frequencies of any shape
    (:class:`ConfigError` otherwise, and where a term overflows, is
    invalid or divides by zero; the coefficients as in :func:`acv_formula`)."""
    if params.sigma == 0.0:
        raise DegenerateSpectrumError(
            "sigma = 0 gives a line spectrum (delta peaks at +-alpha); "
            "the density formula is degenerate there"
        )
    w = _require_array("omega", omega, None)
    with _float_rule(ConfigError, f"psd_formula overflows at {params}"):
        return _psd_curve(_psd_coefficients(*_numpy_scalars(params)), w)


def kde(samples, grid_size=512, bandwidth=None) -> DensityEstimate:
    """Gaussian kernel density with the Silverman rule of thumb.

    bandwidth = 0.9 min(std, IQR / 1.34) N^{-1/5} unless given explicitly.
    The samples must be finite, an explicit bandwidth positive and finite,
    and ``grid_size`` an integer of at least 2 (:class:`ConfigError`
    before any work).  A zero Silverman bandwidth, and an overflow, invalid
    operation or division by zero in the bandwidth, the grid, the kernel
    sums or the normalization, are a :class:`DegenerateSampleError`.

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
    if bandwidth is not None:
        _require_real("bandwidth", bandwidth)
    with _float_rule(DegenerateSampleError, "the density overflows: scale the samples "
                                            "or the bandwidth"):
        if bandwidth is None:
            std = x.std()
            q75, q25 = np.percentile(x, [75.0, 25.0])
            spread = min(std, (q75 - q25) / 1.34)
            bandwidth = 0.9 * spread * x.size ** (-0.2)
            if not bandwidth > 0.0:
                raise DegenerateSampleError(f"sample spread is degenerate (bandwidth {bandwidth})")
        grid = np.linspace(x.min() - 4.0 * bandwidth, x.max() + 4.0 * bandwidth, grid_size)
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
        norm = 1.0 / (np.sqrt(2.0 * np.pi) * bandwidth * x.size)
        return DensityEstimate(grid=grid, density=norm * density, bandwidth=float(bandwidth))


def kurtosis(samples) -> float:
    """Non-excess kurtosis m4 / m2^2 with population moments of at least
    30 finite samples (:class:`ConfigError` before any moment).  An
    overflow, invalid operation or division by zero in the moments is a
    :class:`ConfigError`, and an m2^2 of zero, underflowed or not, a
    :class:`DegenerateSampleError`."""
    x = _require_array("samples", samples, None).ravel()
    if x.size < 30:
        raise ConfigError(f"kurtosis needs >= 30 samples, got {x.size}")
    with _float_rule(ConfigError, "the samples are too large: their fourth moment overflows; "
                                  "scale them down"):
        x = x - x.mean()
        m2_squared = np.mean(x * x) ** 2
        if m2_squared == 0.0:
            raise DegenerateSampleError("zero variance sample")
        return float(np.mean(x**4) / m2_squared)


def wk_transform(acv, omegas) -> PsdEstimate:
    """Cosine transform of an autocovariance:  PS(w) = 2 int_0^U ACV cos(wu) du.

    ``acv`` is either an :class:`AcvEstimate` (integrated on its own lag
    grid) or a callable u -> ACV(u); for callables the lag grid is built
    automatically with 256 lags per period of the highest frequency, its
    step halved until the ACV moves by at most 1% of ACV(0) over the first
    one (at most 64 times, else :class:`ConfigError`), and extends until
    the block envelope of |ACV| falls below 1e-6 of ACV(0)
    (inputs that do not decay within 2**21 lags, e.g. a noiseless template,
    raise :class:`DegenerateSpectrumError`; a block holding a value that is
    not finite raises :class:`ConfigError` naming its first such lag).  An
    estimate is refused with :class:`ConfigError` before any quadrature
    unless its lags and values are finite real 1-D arrays of one length
    and its lags strictly increase.  Trapezoid quadrature throughout; an
    overflow, invalid operation or division by zero in the lag grid, the
    sampled ACV or the quadrature is a :class:`ConfigError`.

    The frequencies are taken one at a time with the arithmetic of
    ``np.trapezoid``: cos(w u) ACV(u), then d (y[1:] + y[:-1]) / 2 summed
    and doubled.  Contiguous blocks of them run in one thread per CPU
    (``_stepkernel._in_threads``), where numpy's calls release the GIL;
    each block reuses two buffers of the lag grid's length, and no value
    depends on the block.  ``omegas`` must be a nonempty 1-D array of
    finite, nonnegative values (:class:`ConfigError` before any sampling).
    """
    omegas = _require_array("omegas", omegas, (None,), ndmin=1)
    if np.any(omegas < 0.0):
        raise ConfigError("omegas must be nonnegative")
    with _float_rule(ConfigError, "the ACV's transform overflows: scale the ACV, its lags "
                                  "or the frequencies down"):
        if isinstance(acv, AcvEstimate):
            lags = _require_array("acv.lags", acv.lags, (None,))
            vals = _require_array("acv.values", acv.values, (lags.size,))
            if not np.all(np.diff(lags) > 0.0):
                raise ConfigError("ACV lags must be strictly increasing")
            c0 = abs(vals[0])
            env = _block_envelope(vals, 512)
            below = np.nonzero(env < 1e-6 * c0)[0]
            if below.size:
                cut = min((below[0] + 1) * 512, vals.size)
                lags, vals = lags[:cut], vals[:cut]
        else:
            w_max = max(omegas.max(), 1e-12)
            lags, vals = _sampled_until_decay(acv, np.pi / (128.0 * w_max))
        spacing = np.diff(lags)
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


def _sampled_until_decay(fn, du):
    """Lags k du and ``fn`` there, in blocks, until a block's envelope falls
    below 1e-6 of |ACV(0)|.  ``du`` is halved first until the ACV moves by
    at most 1e-2 |ACV(0)| over one step, probed one lag at a time as ACV(0)
    is, so that a step set by a low top frequency still resolves the decay.
    """
    v0 = float(fn(0.0))
    c0 = abs(v0)
    if not np.isfinite(c0) or c0 == 0.0:
        raise ConfigError("ACV(0) must be finite and nonzero")
    for _ in range(_MAX_HALVINGS + 1):
        v = float(fn(du))
        if not np.isfinite(v):
            raise ConfigError(f"ACV must be finite, got {v} at lag {du:g}")
        if abs(v - v0) <= 1e-2 * c0:
            break
        du /= 2.0
    else:
        raise ConfigError(
            f"the ACV moves by more than 1% of ACV(0) = {v0:g} within every lag step "
            f"down to {2.0 * du:g}: a callable ACV must be continuous at lag 0"
        )
    cap = _MAX_LAGS * du
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
