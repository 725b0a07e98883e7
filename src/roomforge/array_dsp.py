"""Multi-microphone processing: GCC-PHAT TDOA, delay-and-sum, channel selection.

GCC-PHAT whitens the cross-power spectrum to unit magnitude per bin, so the
inverse transform concentrates into a sharp peak at the inter-channel delay
regardless of source spectrum or level.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from .core import AudioSignal, ValidationError

PHAT_FLOOR = 1e-8  # bins below floor * max magnitude are zeroed, not divided
DEFAULT_MAX_DELAY = 0.010  # seconds; search bound for TDOA peaks
ZOOM_POINTS = 129  # lags on the parabolic refinement grid, two samples wide
# Chebyshev terms per bin over the grid: its sum is then within 1e-14 of its peak (18: 7e-14)
_CHEB_TERMS = 20


@dataclass(frozen=True)
class TdoaEstimate:
    """Estimated time difference of arrival between two channels."""

    delay: float  # seconds, positive when the second channel lags the first
    peak_value: float  # normalized cross-correlation peak in [0, 1]
    confidence: float  # ratio of main peak to second-highest peak


def _fft_size(n: int) -> int:
    """The least power of two >= ``n``: every FFT length here, as ``_fine_plan`` needs."""
    return 1 << int(n - 1).bit_length()


def _correlation_size(
    fs_a: int,
    fs_b: int,
    interpolation: str,
    max_delay: float,
    signals: Sequence[np.ndarray],
    n: int,
) -> Tuple[int, int]:
    """Check a GCC-PHAT request; return its FFT length and lag bound in samples.

    ``signals`` are every channel to be correlated and ``n`` the summed length
    of a pair.  ``gcc_phat`` and ``steer_and_sum`` share these checks.
    """
    if fs_a != fs_b:
        raise ValidationError("sample-rate mismatch between channels")
    if interpolation not in ("none", "parabolic"):
        raise ValidationError(f"unknown interpolation mode {interpolation!r}")
    if not 0.0 <= max_delay < np.inf:
        raise ValidationError(f"max_delay must be finite and non-negative, got {max_delay}")
    if not all(np.any(x) for x in signals):
        raise ValidationError("no signal: silent input channel")
    nfft = _fft_size(n)
    max_lag = int(round(max_delay * fs_a))
    if max_lag >= nfft // 2:
        raise ValidationError("max_delay too large for the signal length")
    return nfft, max_lag


@functools.lru_cache(maxsize=2)
def _fine_plan(nfft: int) -> Tuple[np.ndarray, np.ndarray, np.ndarray, np.ndarray]:
    """Chebyshev plan of an ``nfft``-point half spectrum over lags [-1, 1], shared and read-only.

    Bin k turns by ``w = 2 pi k / nfft`` <= pi per sample, so over the grid
    ``cos(w u)`` and ``sin(w u)`` are short Chebyshev series (Jacobi-Anger).
    Returns the rows of one (_CHEB_TERMS, bins) plan: each bin's cos
    coefficients of T_0, T_2, ..., then minus its sin coefficients of T_1,
    T_3, ..., times its half-spectrum weight (DC and Nyquist appear once in the
    full spectrum, every other bin twice); those T_m on the grid; and the
    twiddle table ``exp(-2j pi m / nfft)``, which centres the grid on any lag.
    ``nfft`` is a power of two, so its last bin is Nyquist and an index
    ``& (nfft - 1)`` is that index modulo ``nfft``.
    """
    half = _CHEB_TERMS // 2
    # interpolation at the nodes x_j = cos(theta_j), as image_source._SINC_CHEB; cos(w x)
    # is even and sin(w x) odd, so the positive half of the nodes gives each sum twice
    theta = np.pi * (np.arange(half) + 0.5) / _CHEB_TERMS
    degrees = np.concatenate([2 * np.arange(half), 2 * np.arange(half) + 1])
    dct = np.cos(np.outer(degrees, theta)) * (4.0 / _CHEB_TERMS)
    dct[0] /= 2.0
    phase = np.outer(np.cos(theta), np.arange(nfft // 2 + 1) * (2.0 * np.pi / nfft))
    plan = np.empty((_CHEB_TERMS, phase.shape[1]))
    np.matmul(dct[:half], np.cos(phase, out=plan[half:]), out=plan[:half])  # sin rows as scratch
    np.sin(phase, out=phase)
    np.matmul(-dct[half:], phase, out=plan[half:])  # Re(v e^iwu) = Re v cos wu - Im v sin wu
    del phase
    plan[:, 1:-1] *= 2.0
    basis = np.cos(np.outer(np.arccos(np.linspace(-1.0, 1.0, ZOOM_POINTS)), degrees))
    twiddle = np.exp(-2j * np.pi * np.arange(nfft) / nfft)
    for table in (plan, basis, twiddle):
        table.flags.writeable = False
    return plan[:half], plan[half:], basis, twiddle


def _gcc_phat_spectra(
    conj_a: np.ndarray,
    white: np.ndarray,
    nfft: int,
    max_lag: int,
    fs: int,
    interpolation: str,
) -> TdoaEstimate:
    """GCC-PHAT delay from ``conj(rfft(a, nfft))`` and ``rfft(b, nfft)``.

    The second spectrum is overwritten with the whitened cross spectrum, and
    in parabolic mode then with that spectrum centred on the integer peak,
    whose Chebyshev moments, its products with ``_fine_plan``'s rows, give
    its sum on the fine grid.
    Every spectrum-sized temporary is computed in place or released once
    used, so a pair holds few large arrays at a time and repeated calls
    reuse heap memory instead of faulting in fresh pages.
    """
    np.multiply(white, conj_a, out=white)
    mag = np.abs(white)
    floor = PHAT_FLOOR * float(np.max(mag))
    active = mag > floor
    np.divide(white, mag, out=white, where=active)
    white[~active] = 0.0
    del mag
    n_active = int(np.count_nonzero(active))
    del active
    cc = np.fft.irfft(white, nfft)
    lags = np.arange(-max_lag, max_lag + 1)
    values = np.concatenate([cc[nfft - max_lag :], cc[: max_lag + 1]])
    del cc
    peak_pos = int(np.argmax(values))
    lag = int(lags[peak_pos])
    peak = float(values[peak_pos])

    delay_samples = float(lag)
    if interpolation == "parabolic":
        # the whitened correlation peak is sinc-shaped, which biases a three-point
        # parabola; the half spectrum's sum on a fine lag grid (the inverse transform
        # without its 1/nfft) is fit instead.  A phase ramp centres the spectrum on the
        # integer peak, and its Chebyshev moments give the sum around it.
        cos_rows, sin_rows, basis, twiddle = _fine_plan(nfft)
        grid = np.linspace(lag - 1.0, lag + 1.0, ZOOM_POINTS)
        index = np.arange(white.size)
        index *= -lag
        index &= nfft - 1
        white *= twiddle[index]
        del index
        fine = basis @ np.concatenate((cos_rows @ white.real, sin_rows @ white.imag))
        j = int(np.argmax(fine))
        delay_samples = float(grid[j])
        if 0 < j < fine.size - 1:
            y0, y1, y2 = fine[j - 1], fine[j], fine[j + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom != 0.0:
                step = grid[1] - grid[0]
                delay_samples += 0.5 * (y0 - y2) / denom * step

    # ideal coherent pair gives a peak of n_active / nfft
    peak_value = float(np.clip(peak * nfft / max(n_active, 1), 0.0, 1.0))

    exclusion = 3
    sidelobe = values.copy()
    lo = max(peak_pos - exclusion, 0)
    sidelobe[lo : peak_pos + exclusion + 1] = -np.inf
    second = float(np.max(sidelobe)) if np.any(np.isfinite(sidelobe)) else 0.0
    confidence = peak / second if second > 0 else np.inf

    return TdoaEstimate(delay=delay_samples / fs, peak_value=peak_value, confidence=confidence)


def gcc_phat(
    a: AudioSignal,
    b: AudioSignal,
    max_delay: float = DEFAULT_MAX_DELAY,
    interpolation: str = "none",
) -> TdoaEstimate:
    """GCC-PHAT delay of ``b`` relative to ``a``.

    ``interpolation`` is "none" (integer-sample) or "parabolic" (sub-sample
    refinement of the correlation peak on a 1/64-sample lag grid, summed from
    Chebyshev moments whose plan is cached per FFT length).
    """
    xa = a.mono
    xb = b.mono
    nfft, max_lag = _correlation_size(
        a.sample_rate, b.sample_rate, interpolation, max_delay, (xa, xb), xa.size + xb.size
    )
    conj_a = np.fft.rfft(xa, nfft)
    np.conjugate(conj_a, out=conj_a)
    return _gcc_phat_spectra(
        conj_a, np.fft.rfft(xb, nfft), nfft, max_lag, a.sample_rate, interpolation
    )


def _phase_ramp(shift: float, nfft: int) -> np.ndarray:
    """``exp(-2j pi k shift / nfft)`` at each ``rfft`` bin k: a delay by ``shift`` samples."""
    phase = np.arange(nfft // 2 + 1) * (-2.0 * np.pi * shift / nfft)
    ramp = np.empty(phase.size, complex)
    np.cos(phase, out=ramp.real)
    np.sin(phase, out=ramp.imag)
    return ramp


def delay_and_sum(channels: AudioSignal, delays: Sequence[float]) -> AudioSignal:
    """Align channels by their delays and average with uniform 1/N weights.

    Each channel is advanced by its delay; shifts are applied relative to
    the most-delayed channel so no leading samples are discarded.  Integer
    delays use exact sample shifts; fractional ones a phase ramp on the
    channel's spectrum, and their sum takes one inverse FFT.  The delays may
    spread over no more than the signal's duration.
    """
    n_ch = channels.num_channels
    if len(delays) != n_ch:
        raise ValidationError(f"{len(delays)} delays for {n_ch} channels")
    spread = max(delays) - min(delays)
    if not spread <= channels.duration:  # the output is longer by the spread
        raise ValidationError(
            f"delays spread over {spread} s, longer than the {channels.duration} s signal"
        )
    fs = channels.sample_rate
    shifts = (max(delays) - np.asarray(delays, dtype=float)) * fs
    max_shift = int(np.ceil(float(np.max(shifts)))) if n_ch else 0
    n_out = channels.num_samples + max_shift
    nfft = _fft_size(n_out)
    out = np.zeros(n_out)
    beam = None  # the fractional channels' shifted spectra, summed
    for i in range(n_ch):
        s = shifts[i]
        x = channels.data[i]
        if abs(s - round(s)) < 1e-9:
            k = int(round(s))
            out[k : k + x.size] += x
        else:
            spec = np.fft.rfft(x, nfft)
            spec *= _phase_ramp(s, nfft)
            beam = spec if beam is None else np.add(beam, spec, out=beam)
    if beam is not None:
        out += np.fft.irfft(beam, nfft)[:n_out]
    return AudioSignal(fs, out / n_ch)


@dataclass
class BeamformResult:
    """Delay-and-sum output plus the per-channel TDOA diagnostics."""

    signal: AudioSignal
    tdoas: List[Optional[TdoaEstimate]]  # None at the reference channel

    def low_confidence(self, threshold: float = 2.0) -> List[int]:
        return [
            i
            for i, t in enumerate(self.tdoas)
            if t is not None and t.confidence < threshold
        ]


def steer_and_sum(
    channels: AudioSignal,
    reference_channel: int = 0,
    max_delay: float = DEFAULT_MAX_DELAY,
    interpolation: str = "none",
) -> BeamformResult:
    """Estimate per-channel delays against a reference, then delay-and-sum.

    Each delay is ``gcc_phat(reference, channel)``; the reference channel is
    transformed once for the whole array.
    """
    n_ch = channels.num_channels
    if n_ch < 2:
        raise ValidationError("steer_and_sum needs at least 2 channels")
    if not (0 <= reference_channel < n_ch):
        raise ValidationError(f"reference channel {reference_channel} out of range")
    fs = channels.sample_rate
    data = channels.data
    nfft, max_lag = _correlation_size(
        fs, fs, interpolation, max_delay, data, 2 * channels.num_samples
    )
    conj_ref = np.fft.rfft(data[reference_channel], nfft)
    np.conjugate(conj_ref, out=conj_ref)
    delays = []
    tdoas: List[Optional[TdoaEstimate]] = []
    for i in range(n_ch):
        if i == reference_channel:
            delays.append(0.0)
            tdoas.append(None)
            continue
        est = _gcc_phat_spectra(
            conj_ref, np.fft.rfft(data[i], nfft), nfft, max_lag, fs, interpolation
        )
        delays.append(est.delay)
        tdoas.append(est)
    return BeamformResult(signal=delay_and_sum(channels, delays), tdoas=tdoas)


def oracle_select(per_channel_scores: Dict[str, float]) -> str:
    """Channel with the minimum score; ties broken by lexicographic id."""
    if not per_channel_scores:
        raise ValidationError("empty score map")
    for ch, score in per_channel_scores.items():
        if not np.isfinite(score):
            raise ValidationError(f"non-finite score for channel {ch!r}")
    return min(per_channel_scores, key=lambda ch: (per_channel_scores[ch], ch))
