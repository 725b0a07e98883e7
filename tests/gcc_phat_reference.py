"""Reference sub-sample GCC-PHAT: the fine lag grid as an explicit DFT matrix.

The band-limited correlation is evaluated at each of the 129 grid lags by an
outer product of lags and frequency bins, a (129, nfft / 2 + 1) complex
matrix.  ``roomforge.array_dsp.gcc_phat`` computes the same sum from a
Chebyshev moment plan; tests compare it against this.
"""

from __future__ import annotations

import numpy as np

from roomforge.array_dsp import PHAT_FLOOR


def reference_parabolic_delay(xa: np.ndarray, xb: np.ndarray, max_lag: int) -> float:
    """Parabolic GCC-PHAT delay of ``xb`` relative to ``xa``, in samples."""
    n = xa.size + xb.size
    nfft = 1 << int(n - 1).bit_length()
    spec = np.fft.rfft(xb, nfft) * np.conj(np.fft.rfft(xa, nfft))
    mag = np.abs(spec)
    active = mag > PHAT_FLOOR * float(np.max(mag))
    white = np.zeros_like(spec)
    white[active] = spec[active] / mag[active]
    cc = np.fft.irfft(white, nfft)

    lags = np.concatenate([np.arange(-max_lag, 0), np.arange(0, max_lag + 1)])
    values = np.concatenate([cc[nfft - max_lag :], cc[: max_lag + 1]])
    lag = int(lags[int(np.argmax(values))])

    grid = np.linspace(lag - 1.0, lag + 1.0, 129)
    k = np.arange(white.size)
    weights = np.full(white.size, 2.0)
    weights[0] = 1.0
    if nfft % 2 == 0:
        weights[-1] = 1.0
    phases = np.exp(2j * np.pi * np.outer(grid, k) / nfft)
    fine = (phases * (weights * white)).sum(axis=1).real
    j = int(np.argmax(fine))
    delay = float(grid[j])
    if 0 < j < fine.size - 1:
        y0, y1, y2 = fine[j - 1], fine[j], fine[j + 1]
        denom = y0 - 2.0 * y1 + y2
        if denom != 0.0:
            delay += 0.5 * (y0 - y2) / denom * (grid[1] - grid[0])
    return delay
