"""FFT convolution engine.

Full linear convolution (len(x) + len(h) - 1) of one signal with many
filters.  The signal is transformed once per distinct FFT length and each
filter once, with the same transforms, lengths and product order as
``scipy.signal.fftconvolve``, so every output equals it bit for bit and
repeated runs are bit-identical.
"""

from __future__ import annotations

from typing import Iterable, Iterator

import numpy as np


def _operand(a) -> np.ndarray:
    a = np.asarray(a, dtype=np.float64)
    if a.ndim != 1:
        raise ValueError("fft_convolve expects 1-D arrays")
    if a.size == 0:
        raise ValueError("fft_convolve expects non-empty arrays")
    return a


def fft_convolve_many(x: np.ndarray, hs: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Yield the full linear convolution of ``x`` with each filter of ``hs``, in order.

    ``rfft(x, nfft)`` is computed once per distinct
    ``nfft = next_fast_len(len(x) + len(h) - 1, real=True)``; one output is
    held at a time.
    """
    x = _operand(x)
    # scipy.fft, not scipy.signal: importing scipy.signal takes about a second
    from scipy import fft as sp_fft

    spectra = {}
    for h in hs:
        h = _operand(h)
        if x.size == 1 or h.size == 1:
            yield x * h  # as in fftconvolve: a one-sample operand needs no transform
            continue
        n = x.size + h.size - 1
        nfft = sp_fft.next_fast_len(n, real=True)
        if nfft not in spectra:
            spectra[nfft] = sp_fft.rfft(x, nfft)
        spectrum = sp_fft.rfft(h, nfft)
        # X * H in that operand order, into the named array: bit-identical to fftconvolve
        yield sp_fft.irfft(np.multiply(spectra[nfft], spectrum, out=spectrum), nfft)[:n]


def fft_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of two non-empty 1-D arrays via FFT."""
    return next(fft_convolve_many(x, [h]))
