"""FFT convolution engine.

Full linear convolution (len(x) + len(h) - 1) of one signal with many
filters.  The signal is transformed once per distinct FFT length and each
filter once, with ``numpy.fft`` and the same lengths and product order as
``scipy.signal.fftconvolve``, so every output equals it bit for bit (numpy
>= 2.0 and ``scipy.fft`` transform with the same C++ pocketfft) and repeated
runs are bit-identical.  ``fft_length`` and ``spectra_product`` hold those
two rules for callers that keep a filter's spectrum themselves.
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
    """FFT length for an ``n``-sample full convolution, as fftconvolve picks it.

    The least 2^a * 3^b * 5^c >= n: ``scipy.fft.next_fast_len(n, real=True)``.
    """
    best = 1 << max(n - 1, 0).bit_length()  # the least power of two >= n
    p5 = 1
    while p5 < best:
        p35 = p5
        while p35 < best:
            q = -(-n // p35)  # times the least power of two >= n / p35
            best = min(best, p35 << (q - 1).bit_length())
            p35 *= 3
        p5 *= 5
    return best


def spectra_product(x_spectrum: np.ndarray, h_spectrum: np.ndarray, nfft: int, n: int,
                    out: np.ndarray) -> np.ndarray:
    """``irfft(x_spectrum * h_spectrum, nfft)[:n]``: the convolution from two spectra.

    The product is formed as X * H, in that operand order, which keeps it
    bit-identical to fftconvolve; it is written into ``out``, one of the two
    spectra that the caller owns.
    """
    return np.fft.irfft(np.multiply(x_spectrum, h_spectrum, out=out), nfft)[:n]


def fft_convolve_many(x: np.ndarray, hs: Iterable[np.ndarray], length: int = 0) -> Iterator[np.ndarray]:
    """Yield the full linear convolution of ``x`` with each filter of ``hs``, in order.

    ``rfft(x, nfft)`` is computed once per distinct ``nfft = fft_length(len(x)
    + len(h) - 1)``; one output is held at a time.  An output shorter than
    ``length`` is zero-padded to it, in place in its ``irfft`` buffer when that
    is long enough, else in a copy.
    """
    x = _operand(x)
    spectra = {}
    for h in hs:
        h = _operand(h)
        n = x.size + h.size - 1
        size = max(n, length)
        if x.size == 1 or h.size == 1:
            y = x * h  # as in fftconvolve: a one-sample operand needs no transform
        else:
            nfft = fft_length(n)
            if nfft not in spectra:
                spectra[nfft] = np.fft.rfft(x, nfft)
            spectrum = np.fft.rfft(h, nfft)
            y = spectra_product(spectra[nfft], spectrum, nfft, min(size, nfft), out=spectrum)
            del spectrum  # not held while the caller has the output
            y[n:] = 0.0  # the circular tail past the linear convolution
        if y.size < size:
            y = np.concatenate((y, np.zeros(size - y.size)))
        yield y


def fft_convolve(x: np.ndarray, h: np.ndarray) -> np.ndarray:
    """Full linear convolution of two non-empty 1-D arrays via FFT."""
    return next(fft_convolve_many(x, [h]))
