"""Distant-speech contamination: clean speech convolved with room IRs plus noise.

Per output channel: y = conv(x, h_channel), optionally mixed with a shared
background-noise realization scaled to a target SNR.  All randomness (the
noise start offset) is driven by an explicit seed so jobs are reproducible
bit for bit.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import List, Optional

import numpy as np

from .core import AudioSignal, ImpulseResponse, ValidationError
from .engine import fft_convolve, fft_convolve_many

NOISE_CROSSFADE = 0.010  # seconds of crossfade at noise wrap seams
PEAK_NORM_DBFS = -1.0


def convolve(x: AudioSignal, h: ImpulseResponse) -> AudioSignal:
    """Full linear convolution of a mono signal with an impulse response."""
    if x.sample_rate != h.sample_rate:
        raise ValidationError(
            f"sample-rate mismatch: signal {x.sample_rate} Hz vs IR {h.sample_rate} Hz"
        )
    return AudioSignal(x.sample_rate, fft_convolve(x.mono, h.samples))


def _rms(x: np.ndarray) -> float:
    return float(np.sqrt(np.mean(x**2)))


def _tile_noise(noise: np.ndarray, length: int, offset: int, fade: int) -> np.ndarray:
    """Noise cropped/tiled to ``length`` starting at ``offset``, with crossfaded wraps.

    Each wrap starts ``fade`` samples before the previous copy ends and blends
    them with a linear ramp; the last copy keeps its unblended tail.
    """
    n = noise.size
    rolled = np.roll(noise, -(offset % n))
    if length <= n:
        return rolled[:length].copy()
    fade = min(fade, n // 2)
    ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
    body = rolled.copy()
    body[:fade] = ramp * body[:fade] + (1.0 - ramp) * rolled[n - fade :]
    hop = n - fade
    reps = -(-(length - n) // hop)
    return np.concatenate([rolled[:hop], np.tile(body[:hop], reps - 1), body])[:length]


def noise_gain(signal_rms: float, noise_rms: float, target_snr_db: float) -> float:
    """Scale factor g so that rms(signal) / rms(g * noise) hits the target SNR."""
    return signal_rms / (noise_rms * 10.0 ** (target_snr_db / 20.0))


def _add_noise(channels: np.ndarray, noise: AudioSignal, target_snr_db: float, seed: int, fs: int) -> None:
    """Add one noise realization to each row of ``channels`` in place, every row at the target SNR.

    ``noise`` must be mono at ``fs``, the rate of ``channels``.  The start
    offset into it is drawn from ``seed``; all rows share it (one room noise
    source) and differ only in gain.
    """
    if noise.sample_rate != fs:
        raise ValidationError("sample-rate mismatch between signal and noise")
    samples = noise.mono
    if _rms(samples) == 0.0:
        raise ValidationError("noise signal is silent")
    offset = int(np.random.default_rng(seed).integers(0, samples.size))
    n = _tile_noise(samples, channels.shape[1], offset, int(round(NOISE_CROSSFADE * fs)))
    n_rms = _rms(n)
    for i, row in enumerate(channels):
        sig_rms = _rms(row)
        if sig_rms == 0.0:
            raise ValidationError(f"channel {i} is silent, cannot set SNR")
        row += noise_gain(sig_rms, n_rms, target_snr_db) * n


def mix_noise(
    y: AudioSignal,
    noise: AudioSignal,
    target_snr_db: float,
    seed: int,
) -> AudioSignal:
    """Add background noise to ``y`` at the requested SNR (full-signal rms ratio)."""
    out = y.mono[np.newaxis].copy()
    _add_noise(out, noise, target_snr_db, seed, y.sample_rate)
    return AudioSignal(y.sample_rate, out)


@dataclass
class ContaminationJob:
    """One contamination unit: clean signal, per-channel IRs, optional noise."""

    clean: AudioSignal
    irs: List[ImpulseResponse]
    noise: Optional[AudioSignal] = None
    target_snr_db: Optional[float] = None
    seed: int = 0
    normalization: str = "none"  # "none" | "peak"

    def __post_init__(self):
        if not self.irs:
            raise ValidationError("job needs at least one impulse response")
        for h in self.irs:
            if h.sample_rate != self.clean.sample_rate:
                raise ValidationError("all IRs must share the clean signal's sample rate")
        if self.target_snr_db is not None and self.noise is None:
            raise ValidationError("target_snr_db requires a noise signal")
        if self.noise is not None and self.target_snr_db is None:
            raise ValidationError("noise requires a target_snr_db")
        if self.normalization not in ("none", "peak"):
            raise ValidationError(f"unknown normalization {self.normalization!r}")


def run_job(job: ContaminationJob) -> AudioSignal:
    """Execute a contamination job, returning one channel per IR.

    The clean signal is transformed once per job (once per distinct FFT
    length) by ``fft_convolve_many``, not once per IR.  Channels share a
    single noise realization offset (one room noise source), each scaled to
    the target SNR.  Peak normalization scales all channels jointly so
    inter-channel level ratios survive.
    """
    fs = job.clean.sample_rate
    x = job.clean.mono
    n_out = x.size + max(h.num_samples for h in job.irs) - 1
    channels = np.zeros((len(job.irs), n_out))
    for i, y in enumerate(fft_convolve_many(x, [h.samples for h in job.irs])):
        channels[i, : y.size] = y

    if job.noise is not None:
        _add_noise(channels, job.noise, job.target_snr_db, job.seed, fs)

    if job.normalization == "peak":
        peak = float(np.max(np.abs(channels)))
        if peak > 0:
            channels *= 10.0 ** (PEAK_NORM_DBFS / 20.0) / peak

    return AudioSignal(fs, channels)
