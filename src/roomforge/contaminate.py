"""Distant-speech contamination: clean speech convolved with room IRs plus noise.

Per output channel: y = conv(x, h_channel), optionally mixed with a shared
background-noise realization scaled to a target SNR.  All randomness (the
noise start offset) is driven by an explicit seed so jobs are reproducible
bit for bit.  ``job_channels`` is the one path that convolves and adds noise:
it makes a job's channels one at a time, so a caller that writes each before
taking the next holds a few channel-sized buffers, not the whole job.
``run_job`` stacks them into one signal; ``convolve`` is a one-IR job, and
``mix_noise`` one whose IR is a one-sample unit impulse.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator, List, Optional

import numpy as np

from .core import AudioSignal, ImpulseResponse, ValidationError, _integer, _number
from .engine import (
    fft_convolve,  # noqa: F401 - kept as a module attribute: perfbench's tracer wraps it here
    fft_convolve_many,
)

NOISE_CROSSFADE = 0.010  # seconds of crossfade at noise wrap seams
PEAK_NORM_DBFS = -1.0
NORMALIZATIONS = ("none", "peak")


def convolve(x: AudioSignal, h: ImpulseResponse) -> AudioSignal:
    """Full linear convolution of a mono signal with an impulse response: a one-IR job."""
    return AudioSignal(x.sample_rate, next(job_channels(ContaminationJob(x, [h]))))


def mix_noise(
    y: AudioSignal,
    noise: AudioSignal,
    target_snr_db: float,
    seed: int,
) -> AudioSignal:
    """Add background noise to ``y`` at the requested SNR (full-signal rms ratio)."""
    unit = ImpulseResponse(y.sample_rate, np.ones(1))  # the engine returns y * 1.0: y's bits
    job = ContaminationJob(y, [unit], noise, target_snr_db, seed)
    return AudioSignal(y.sample_rate, next(job_channels(job)))


def _rms(x: np.ndarray, scratch: Optional[np.ndarray] = None) -> float:
    """Root mean square of ``x``; ``scratch``, of its size, takes the squares if given."""
    return float(np.sqrt(np.mean(np.square(x, out=scratch))))


def _tile_noise(noise: np.ndarray, out: np.ndarray, offset: int, fade: int) -> np.ndarray:
    """Fill ``out`` with noise cropped/tiled to its length from ``offset``, with crossfaded wraps.

    Each wrap starts ``fade`` samples before the previous copy ends and blends
    them with a linear ramp; the last copy keeps its unblended tail.  Returns ``out``.
    """
    n, length = noise.size, out.size
    rolled = np.roll(noise, -(offset % n))
    if length <= n:
        out[:] = rolled[:length]
        return out
    fade = min(fade, n // 2)
    ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
    body = rolled.copy()
    body[:fade] = ramp * body[:fade] + (1.0 - ramp) * rolled[n - fade :]
    # rolled, then body every n - fade samples: each copy's head overwrites the
    # tail of the one before with the blend, and the last copy keeps its own tail
    out[:n] = rolled
    for start in range(n - fade, length - fade, n - fade):
        copy = out[start : start + n]
        copy[:] = body[: copy.size]
    return out


def _check_snr_db(snr_db) -> float:
    """``snr_db`` as a float, if the noise gain can divide by its amplitude ratio 10 ** (snr_db / 20)."""
    snr_db = _number(snr_db, "snr_db")
    try:
        in_range = 0.0 < 10.0 ** (snr_db / 20.0) < np.inf
    except OverflowError:
        in_range = False
    if not in_range:
        raise ValidationError(
            f"{snr_db!r} dB is out of range: 10 ** (snr_db / 20) is not a positive finite float"
        )
    return snr_db


def noise_gain(signal_rms: float, noise_rms: float, target_snr_db: float) -> float:
    """Scale factor g so that rms(signal) / rms(g * noise) hits the target SNR."""
    return signal_rms / (noise_rms * 10.0 ** (target_snr_db / 20.0))


@dataclass
class ContaminationJob:
    """One contamination unit: clean signal, per-channel IRs, optional noise; checked whole when built."""

    clean: AudioSignal
    irs: List[ImpulseResponse]
    noise: Optional[AudioSignal] = None
    target_snr_db: Optional[float] = None
    seed: int = 0
    normalization: str = "none"  # one of NORMALIZATIONS

    def __post_init__(self):
        if not self.irs:
            raise ValidationError("job needs at least one impulse response")
        if self.clean.num_samples == 0:
            raise ValidationError("clean signal has no samples")
        for h in self.irs:
            if h.sample_rate != self.clean.sample_rate:
                raise ValidationError(
                    f"sample-rate mismatch: signal {self.clean.sample_rate} Hz vs IR {h.sample_rate} Hz"
                )
        if self.target_snr_db is not None and self.noise is None:
            raise ValidationError("target_snr_db requires a noise signal")
        if self.noise is not None and self.target_snr_db is None:
            raise ValidationError("noise requires a target_snr_db")
        if self.noise is not None:
            self.target_snr_db = _check_snr_db(self.target_snr_db)
            if self.noise.num_samples == 0:
                raise ValidationError("noise signal has no samples")
            if self.noise.sample_rate != self.clean.sample_rate:
                raise ValidationError("sample-rate mismatch between signal and noise")
            if _rms(self.noise.mono) == 0.0:
                raise ValidationError("noise signal is silent")
        self.seed = _integer(self.seed, "seed")
        if self.seed < 0:
            raise ValidationError(f"seed must be >= 0, got {self.seed}")
        if self.normalization not in NORMALIZATIONS:
            raise ValidationError(f"unknown normalization {self.normalization!r}")


def job_channels(job: ContaminationJob) -> Iterator[np.ndarray]:
    """Yield the job's output channels, one per IR, in IR order.

    Each channel is the clean signal convolved with its IR, zero-padded to the
    job's longest output.  The clean signal is transformed once per job (once
    per distinct FFT length) by ``fft_convolve_many``, not once per IR.
    Channels share a single noise realization (one room noise source): the
    noise, mono at the clean signal's rate and not silent, tiled from an offset
    drawn from ``job.seed``; each channel adds it in its own buffer, scaled to
    the target SNR.  With ``normalization`` "none" a channel is made only when
    the previous one has been taken, so no more than one is held here at a time.
    Peak normalization needs the joint peak first: it holds every channel of
    the job, then scales them all by one factor so inter-channel level ratios
    survive.
    """
    fs = job.clean.sample_rate
    x = job.clean.mono
    n_out = x.size + max(h.num_samples for h in job.irs) - 1
    if job.noise is not None:
        noise = job.noise.mono
        # The noise tile and its scratch row in one block, freed whole when the job
        # ends: glibc then keeps the pages of the per-channel buffers for reuse
        # instead of returning them to the OS between channels, which costs a page
        # fault per page on the next channel (on 48 kHz, 8-mic jobs, about 18k minor
        # faults per 4-job run as one block, 41k as two arrays).
        tile, scratch = np.empty((2, n_out))
        offset = int(np.random.default_rng(job.seed).integers(0, noise.size))
        tile_rms = _rms(_tile_noise(noise, tile, offset, int(round(NOISE_CROSSFADE * fs))))
    held = []
    for i, channel in enumerate(fft_convolve_many(x, [h.samples for h in job.irs], n_out)):
        if job.noise is not None:
            sig_rms = _rms(channel, scratch)
            if sig_rms == 0.0:
                raise ValidationError(f"channel {i} is silent, cannot set SNR")
            channel += np.multiply(tile, noise_gain(sig_rms, tile_rms, job.target_snr_db), out=scratch)
        if job.normalization == "peak":
            held.append(channel)
        else:
            yield channel
    if held:
        peak = float(np.max([np.max(np.abs(channel)) for channel in held]))
        for channel in held:
            if peak > 0:
                channel *= 10.0 ** (PEAK_NORM_DBFS / 20.0) / peak
            yield channel


def run_job(job: ContaminationJob) -> AudioSignal:
    """Execute a contamination job: ``job_channels`` stacked into one signal."""
    return AudioSignal(job.clean.sample_rate, np.stack(list(job_channels(job))))
