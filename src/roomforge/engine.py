"""FFT convolution engine.

Full linear convolution (len(x) + len(h) - 1) of one signal with many
filters.  The signal is transformed once per distinct FFT length and each
filter once, with the same transforms, lengths and product order as
``scipy.signal.fftconvolve``, so every output equals it bit for bit and
repeated runs are bit-identical.  ``fft_length`` and ``spectra_product``
hold those two rules for callers that keep a filter's spectrum themselves.
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


def fft_length(n: int) -> int:
    """FFT length for an ``n``-sample full convolution, as fftconvolve picks it."""
    # scipy.fft, not scipy.signal: importing scipy.signal takes about a second
    from scipy import fft as sp_fft

    return sp_fft.next_fast_len(n, real=True)


def spectra_product(x_spectrum: np.ndarray, h_spectrum: np.ndarray, nfft: int, n: int,
                    out: np.ndarray) -> np.ndarray:
    """``irfft(x_spectrum * h_spectrum, nfft)[:n]``: the convolution from two spectra.

    The product is formed as X * H, in that operand order, which keeps it
    bit-identical to fftconvolve; it is written into ``out``, one of the two
    spectra that the caller owns.
    """
    from scipy import fft as sp_fft

    return sp_fft.irfft(np.multiply(x_spectrum, h_spectrum, out=out), nfft)[:n]


def fft_convolve_many(x: np.ndarray, hs: Iterable[np.ndarray]) -> Iterator[np.ndarray]:
    """Yield the full linear convolution of ``x`` with each filter of ``hs``, in order.

    ``rfft(x, nfft)`` is computed once per distinct ``nfft = fft_length(len(x)
    + len(h) - 1)``; one output is held at a time.
    """
    x = _operand(x)
    from scipy import fft as sp_fft

    spectra = {}
    for h in hs:
        h = _operand(h)
        if x.size == 1 or h.size == 1:
            yield x * h  # as in fftconvolve: a one-sample operand needs no transform
            continue
        n = x.size + h.size - 1
        nfft = fft_length(n)
        if nfft not in spectra:
            spectra[nfft] = sp_fft.rfft(x, nfft)
        spectrum = sp_fft.rfft(h, nfft)
        yield spectra_product(spectra[nfft], spectrum, nfft, n, out=spectrum)


def fft_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of two non-empty 1-D arrays via FFT."""
    return next(fft_convolve_many(x, [h]))
