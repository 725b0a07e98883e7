"""Exponential sine sweep generation, inversion and IR deconvolution.

The sweep is x(t) = A * sin(K * (exp(t / L) - 1)) with L = T / ln(f2 / f1)
and K = 2 * pi * f1 * L, so the instantaneous frequency rises exponentially
from f1 to f2 over the duration T.  The inverse filter is the time-reversed
sweep with an exp(-t / L) amplitude envelope (+6 dB/octave compensation);
convolving sweep and inverse yields a band-limited delta, and loudspeaker
harmonic distortion folds to negative lag where it can be discarded.
"""

from __future__ import annotations

import functools
import math
from dataclasses import asdict, dataclass, fields

import numpy as np

from .core import AudioSignal, ImpulseResponse, ValidationError, _check_sample_rate, _number
from .engine import fft_convolve, fft_length, spectra_product

DEFAULT_PRE_PEAK_GUARD = 0.005  # seconds retained before the direct-path peak
PEAK_OVER_FLOOR_DB = 20.0  # minimum peak prominence for "sweep found"


@dataclass(frozen=True)
class SweepSpec:
    """Exponential sweep parameters: band, duration, level and fade tapers."""

    f_start: float
    f_end: float
    duration: float
    amplitude: float = 0.9
    fade: float = 0.0

    def __post_init__(self):
        for f in fields(self):
            object.__setattr__(self, f.name, _number(getattr(self, f.name), f.name))
        if not (0 < self.f_start < self.f_end):
            raise ValidationError(f"need 0 < f_start < f_end, got {self.f_start}, {self.f_end}")
        if not (math.isfinite(self.duration) and self.duration > 0):
            raise ValidationError(f"sweep duration must be finite and positive, got {self.duration}")
        if not (0 < self.amplitude <= 1):
            raise ValidationError("amplitude must lie in (0, 1]")
        if not (0 <= self.fade and 2 * self.fade <= self.duration):
            raise ValidationError("fade must be >= 0 and fit twice into the duration")

    def validate_rate(self, sample_rate: int) -> int:
        """Check the sweep against ``sample_rate``; return its length in samples."""
        sample_rate = _check_sample_rate(sample_rate)
        if self.f_end >= sample_rate / 2:
            raise ValidationError(
                f"f_end {self.f_end} Hz reaches Nyquist for sample rate {sample_rate}"
            )
        n = int(round(self.duration * sample_rate))
        if n < 2:
            raise ValidationError(
                f"a {self.duration} s sweep is {n} sample(s) at {sample_rate} Hz, fewer than 2"
            )
        return n

    @property
    def rate_constant(self) -> float:
        """L = T / ln(f2 / f1), the exponential time constant of the sweep."""
        return self.duration / math.log(self.f_end / self.f_start)


def generate_ess(spec: SweepSpec, sample_rate: int) -> AudioSignal:
    """Generate the exponential sine sweep for ``spec``; a silent one is rejected."""
    n = spec.validate_rate(sample_rate)
    t = np.arange(n) / sample_rate
    L = spec.rate_constant
    k = 2.0 * np.pi * spec.f_start * L
    x = spec.amplitude * np.sin(k * (np.exp(t / L) - 1.0))
    if spec.fade > 0:
        nf = int(round(spec.fade * sample_rate))
        ramp = 0.5 * (1.0 - np.cos(np.pi * np.arange(nf) / nf))
        x[:nf] *= ramp
        x[-nf:] *= ramp[::-1]
    if not np.any(x):
        raise ValidationError(f"the sweep's {n} samples at {sample_rate} Hz are all 0 after the fade")
    return AudioSignal(sample_rate, x)


@functools.lru_cache(maxsize=2)
def inverse_filter(spec: SweepSpec, sample_rate: int) -> AudioSignal:
    """Inverse filter: time-reversed sweep with +6 dB/octave compensation.

    Normalized so that sweep * inverse has unit peak.  Built once per
    ``(spec, sample_rate)``: the last two are kept (a 60 s / 48 kHz entry is
    23 MB) and shared by every caller, so the array is read-only.  Its
    spectrum is cached too, per FFT length (see ``deconvolve_ir``).
    """
    sweep = generate_ess(spec, sample_rate).mono
    n = sweep.size
    t = np.arange(n) / sample_rate
    env = np.exp(-t / spec.rate_constant)
    inv = sweep[::-1] * env
    peak = float(np.max(np.abs(fft_convolve(sweep, inv))))
    out = AudioSignal(sample_rate, inv / peak)
    out.data.flags.writeable = False
    return out


@functools.lru_cache(maxsize=2)
def _inverse_spectrum(spec: SweepSpec, sample_rate: int, nfft: int) -> np.ndarray:
    """``rfft`` of the inverse filter at ``nfft`` points, shared and read-only."""
    from scipy import fft as sp_fft

    spectrum = sp_fft.rfft(inverse_filter(spec, sample_rate).mono, nfft)
    spectrum.flags.writeable = False
    return spectrum


def _peak_prominence_db(peak: float, acausal: np.ndarray) -> float:
    """Peak over the rms of the acausal region before it, in dB.

    Lags before the direct path (less the pre-peak guard) hold only noise
    and harmonic-distortion products (Farina, AES 2000), never the room's
    reverberant tail, so their rms is the floor a genuine IR stands out from.
    """
    if acausal.size == 0:
        raise ValidationError("sweep not found: no samples before the peak to measure the floor")
    floor = float(np.sqrt(np.mean(acausal**2)))
    if floor == 0.0:
        return np.inf
    return float(20.0 * np.log10(peak / floor))


def deconvolve_ir(
    recording: AudioSignal,
    spec: SweepSpec,
    ir_length: float,
    pre_peak_guard: float = DEFAULT_PRE_PEAK_GUARD,
) -> ImpulseResponse:
    """Recover the impulse response from a recorded sweep playback.

    Convolves the recording with the inverse filter, locates the direct-path
    peak, and keeps the causal segment (plus a short pre-peak guard) out to
    ``ir_length`` seconds.  Distortion products land at negative lag and are
    dropped.  The sweep counts as found when the peak stands
    ``PEAK_OVER_FLOOR_DB`` above the rms of everything before the guard.
    ``ir_length`` and ``pre_peak_guard`` must be finite, the guard >= 0, and
    ``ir_length`` longer than the guard, in samples at the recording's rate, and no
    longer than the ``recording + sweep - 1`` samples of the deconvolution.  The result is
    peak-normalized; the scale is stored in ``meta``.

    The convolution is one ``rfft`` of the recording times the inverse
    filter's spectrum, which is cached per ``(spec, sample_rate, nfft)``, one
    FFT length per recording length.  The last two spectra are kept, each
    ``(nfft // 2 + 1) * 16`` bytes (46 MB for a 60 s / 48 kHz sweep in a
    recording of its own length, 47 MB with a 2 s tail).  The samples equal
    ``fftconvolve(recording, inverse)`` bit for bit.
    """
    for name, seconds in (("ir_length", ir_length), ("pre_peak_guard", pre_peak_guard)):
        if not math.isfinite(seconds):
            raise ValidationError(f"{name} must be finite, got {seconds}")
    fs = recording.sample_rate
    sweep_len = spec.validate_rate(fs)
    n = recording.num_samples + sweep_len - 1  # samples of the deconvolution
    # ir_length is bounded on both sides before it is rounded: past about 1e304 s,
    # ir_length * fs overflows to infinity, which no sample count holds
    if ir_length > n / fs:
        raise ValidationError(
            f"ir_length of {ir_length} s is longer than the deconvolution: {n} samples at {fs} Hz"
        )
    # so is pre_peak_guard: a guard past the deconvolution is past ir_length too
    if not 0.0 <= pre_peak_guard <= n / fs:
        raise ValidationError(
            f"pre_peak_guard must be in [0, ir_length), got {pre_peak_guard} s "
            f"with an ir_length of {ir_length} s"
        )
    guard = int(round(pre_peak_guard * fs))
    n_out = int(round(max(ir_length, 0.0) * fs))
    if n_out <= guard:
        raise ValidationError(
            f"ir_length of {ir_length} s ({n_out} samples) must exceed the "
            f"{pre_peak_guard} s pre-peak guard ({guard} samples)"
        )
    if recording.num_samples < sweep_len:
        raise ValidationError("recording shorter than the excitation sweep")

    from scipy import fft as sp_fft

    nfft = fft_length(n)
    inverse = _inverse_spectrum(spec, fs, nfft)
    spectrum = sp_fft.rfft(recording.mono, nfft)
    raw = spectra_product(spectrum, inverse, nfft, n, out=spectrum)

    peak_idx = int(np.argmax(np.abs(raw)))
    peak = float(np.abs(raw[peak_idx]))
    if peak == 0.0:
        raise ValidationError("sweep not found: silent deconvolution result")
    start = max(peak_idx - guard, 0)
    if _peak_prominence_db(peak, raw[:start]) < PEAK_OVER_FLOOR_DB:
        raise ValidationError("sweep not found: no peak above the noise floor")

    segment = raw[start : start + n_out]
    if segment.size < n_out:
        segment = np.pad(segment, (0, n_out - segment.size))

    scale = 1.0 / peak
    return ImpulseResponse(
        fs,
        segment * scale,
        provenance="measured",
        direct_path_index=peak_idx - start,
        meta={
            "normalization_scale": scale,
            "pre_peak_guard": pre_peak_guard,
            "sweep": asdict(spec),
        },
    )
