"""FFT convolution engine.

Full linear convolution (len(x) + len(h) - 1) by ``scipy.signal.fftconvolve``.
The output depends only on the inputs, so repeated runs are bit-identical.
"""

from __future__ import annotations

import numpy as np


def fft_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of two non-empty 1-D arrays via FFT."""
    x = np.asarray(x, dtype=np.float64)
    h = np.asarray(h, dtype=np.float64)
    if x.ndim != 1 or h.ndim != 1:
        raise ValueError("fft_convolve expects 1-D arrays")
    if x.size == 0 or h.size == 0:
        raise ValueError("fft_convolve expects non-empty arrays")
    # deferred: importing scipy.signal takes about a second, which `import roomforge` should not pay
    from scipy.signal import fftconvolve

    return fftconvolve(x, h)
