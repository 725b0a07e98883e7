"""Reference contamination: the noise tile as a loop, and a whole job as one array.

``whole_array_contaminate`` is the formula that ``job_channels`` streams.
"""

import numpy as np
from scipy.signal import fftconvolve

from roomforge.contaminate import NOISE_CROSSFADE, PEAK_NORM_DBFS


def rms(x):
    return float(np.sqrt(np.mean(x**2)))


def loop_tile_noise(noise, length, offset, fade):
    """Reference: the crossfaded wrap written as a copy-per-wrap loop."""
    n = noise.size
    offset = offset % n
    rolled = np.roll(noise, -offset)
    if length <= n:
        return rolled[:length].copy()
    fade = min(fade, n // 2)
    if fade > 0:
        ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
        body = rolled.copy()
        body[:fade] = ramp * body[:fade] + (1.0 - ramp) * rolled[n - fade :]
        hop = n - fade
    else:
        body = rolled
        hop = n
    reps = int(np.ceil((length - n) / hop)) + 1
    out = np.empty(n + (reps - 1) * hop)
    out[:n] = rolled
    pos = n - fade if fade > 0 else n
    for _ in range(reps - 1):
        out[pos : pos + n] = body if fade > 0 else rolled
        pos += hop
    return out[:length]


def whole_array_contaminate(x, irs, noise=None, target_snr_db=None, seed=0, normalization="none"):
    """A job as one (channels, samples) array, each stage applied to the whole array.

    Per-IR fftconvolve outputs zero-padded to the longest; one noise tile of the
    full length, added to each row at the target SNR; then one joint peak scale.
    """
    n_out = x.size + max(h.num_samples for h in irs) - 1
    channels = np.zeros((len(irs), n_out))
    for i, h in enumerate(irs):
        y = fftconvolve(x, h.samples)
        channels[i, : y.size] = y
    if noise is not None:
        offset = int(np.random.default_rng(seed).integers(0, noise.num_samples))
        n = loop_tile_noise(noise.mono, n_out, offset, int(round(NOISE_CROSSFADE * noise.sample_rate)))
        n_rms = rms(n)
        for row in channels:
            row += rms(row) / (n_rms * 10.0 ** (target_snr_db / 20.0)) * n
    if normalization == "peak":
        peak = float(np.max(np.abs(channels)))
        if peak > 0:
            channels *= 10.0 ** (PEAK_NORM_DBFS / 20.0) / peak
    return channels
