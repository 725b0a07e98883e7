"""Multi-microphone processing: GCC-PHAT TDOA, delay-and-sum, channel selection.

GCC-PHAT whitens the cross-power spectrum to unit magnitude per bin, so the
inverse transform concentrates into a sharp peak at the inter-channel delay
regardless of source spectrum or level.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

import numpy as np

from .core import AudioSignal, ValidationError

PHAT_FLOOR = 1e-8  # bins below floor * max magnitude are zeroed, not divided
DEFAULT_MAX_DELAY = 0.010  # seconds; search bound for TDOA peaks


@dataclass(frozen=True)
class TdoaEstimate:
    """Estimated time difference of arrival between two channels."""

    delay: float  # seconds, positive when the second channel lags the first
    peak_value: float  # normalized cross-correlation peak in [0, 1]
    confidence: float  # ratio of main peak to second-highest peak


def gcc_phat(
    a: AudioSignal,
    b: AudioSignal,
    max_delay: float = DEFAULT_MAX_DELAY,
    interpolation: str = "none",
) -> TdoaEstimate:
    """GCC-PHAT delay of ``b`` relative to ``a``.

    ``interpolation`` is "none" (integer-sample) or "parabolic" (sub-sample
    refinement of the correlation peak).
    """
    if a.sample_rate != b.sample_rate:
        raise ValidationError("sample-rate mismatch between channels")
    if interpolation not in ("none", "parabolic"):
        raise ValidationError(f"unknown interpolation mode {interpolation!r}")
    if not 0.0 <= max_delay < np.inf:
        raise ValidationError(f"max_delay must be finite and non-negative, got {max_delay}")
    fs = a.sample_rate
    xa = a.mono
    xb = b.mono
    if not np.any(xa) or not np.any(xb):
        raise ValidationError("no signal: silent input channel")

    n = xa.size + xb.size
    nfft = 1 << int(n - 1).bit_length()
    max_lag = int(round(max_delay * fs))
    if max_lag >= nfft // 2:
        raise ValidationError("max_delay too large for the signal length")

    spec = np.fft.rfft(xb, nfft) * np.conj(np.fft.rfft(xa, nfft))
    mag = np.abs(spec)
    floor = PHAT_FLOOR * float(np.max(mag))
    active = mag > floor
    white = np.zeros_like(spec)
    white[active] = spec[active] / mag[active]
    cc = np.fft.irfft(white, nfft)

    lags = np.arange(-max_lag, max_lag + 1)
    values = np.concatenate([cc[nfft - max_lag :], cc[: max_lag + 1]])
    peak_pos = int(np.argmax(values))
    lag = int(lags[peak_pos])
    peak = float(values[peak_pos])

    delay_samples = float(lag)
    if interpolation == "parabolic":
        # the whitened correlation peak is sinc-shaped, which biases a three-point
        # parabola; a zoom FFT of the conjugated half spectrum (the inverse transform's
        # sign, 1/nfft left out) gives it on a fine lag grid, where the parabola is fit
        from scipy.signal import zoom_fft  # deferred: scipy.signal takes a second to import
        grid = np.linspace(lag - 1.0, lag + 1.0, 129)
        weights = np.full(white.size, 2.0)
        weights[[0, -1]] = 1.0  # DC and Nyquist (nfft is a power of two) appear once
        fine = zoom_fft(np.conj(weights * white), grid[[0, -1]], grid.size, fs=nfft, endpoint=True).real
        j = int(np.argmax(fine))
        delay_samples = float(grid[j])
        if 0 < j < fine.size - 1:
            y0, y1, y2 = fine[j - 1], fine[j], fine[j + 1]
            denom = y0 - 2.0 * y1 + y2
            if denom != 0.0:
                step = grid[1] - grid[0]
                delay_samples += 0.5 * (y0 - y2) / denom * step

    # ideal coherent pair gives a peak of n_active / nfft
    n_active = int(np.count_nonzero(active))
    peak_value = float(np.clip(peak * nfft / max(n_active, 1), 0.0, 1.0))

    exclusion = 3
    sidelobe = values.copy()
    lo = max(peak_pos - exclusion, 0)
    sidelobe[lo : peak_pos + exclusion + 1] = -np.inf
    second = float(np.max(sidelobe)) if np.any(np.isfinite(sidelobe)) else 0.0
    confidence = peak / second if second > 0 else np.inf

    return TdoaEstimate(delay=delay_samples / fs, peak_value=peak_value, confidence=confidence)


def _fractional_shift(x: np.ndarray, shift: float, pad: int) -> np.ndarray:
    """Delay ``x`` by a fractional number of samples via an FFT phase ramp."""
    n = x.size + pad
    nfft = 1 << int(n - 1).bit_length()
    spec = np.fft.rfft(x, nfft)
    freqs = np.arange(spec.size)
    spec *= np.exp(-2j * np.pi * freqs * shift / nfft)
    return np.fft.irfft(spec, nfft)[:n]


def delay_and_sum(channels: AudioSignal, delays: Sequence[float]) -> AudioSignal:
    """Align channels by their delays and average with uniform 1/N weights.

    Each channel is advanced by its delay; shifts are applied relative to
    the most-delayed channel so no leading samples are discarded.  Integer
    delays use exact sample shifts, fractional ones a sinc (FFT) shift.
    """
    n_ch = channels.num_channels
    if len(delays) != n_ch:
        raise ValidationError(f"{len(delays)} delays for {n_ch} channels")
    fs = channels.sample_rate
    shifts = (max(delays) - np.asarray(delays, dtype=float)) * fs
    max_shift = int(np.ceil(float(np.max(shifts)))) if n_ch else 0
    n_out = channels.num_samples + max_shift
    out = np.zeros(n_out)
    for i in range(n_ch):
        s = shifts[i]
        x = channels.data[i]
        if abs(s - round(s)) < 1e-9:
            k = int(round(s))
            out[k : k + x.size] += x
        else:
            out += _fractional_shift(x, s, max_shift)[:n_out]
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
    """Estimate per-channel delays against a reference, then delay-and-sum."""
    n_ch = channels.num_channels
    if n_ch < 2:
        raise ValidationError("steer_and_sum needs at least 2 channels")
    if not (0 <= reference_channel < n_ch):
        raise ValidationError(f"reference channel {reference_channel} out of range")
    ref = channels.channel(reference_channel)
    delays = []
    tdoas: List[Optional[TdoaEstimate]] = []
    for i in range(n_ch):
        if i == reference_channel:
            delays.append(0.0)
            tdoas.append(None)
            continue
        est = gcc_phat(ref, channels.channel(i), max_delay=max_delay, interpolation=interpolation)
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
