"""Output checks, computed apart from roomforge (numpy and scipy only).

Each check raises ``CheckFailed`` with what was wrong.  Checks run after
an operation has been timed and never inside the timed region.
"""

from __future__ import annotations

import hashlib
from pathlib import Path

import numpy as np

UPSAMPLE = 8  # interpolation factor of arrival_envelope


class CheckFailed(Exception):
    pass


def require(cond: bool, message: str) -> None:
    if not cond:
        raise CheckFailed(message)


def tree_digest(root: Path) -> str:
    """sha256 over every file under ``root``: relative path and bytes."""
    h = hashlib.sha256()
    for p in sorted(q for q in root.rglob("*") if q.is_file()):
        h.update(str(p.relative_to(root)).encode() + b"\0")
        h.update(p.read_bytes())
    return h.hexdigest()


def arrival_envelope(y: np.ndarray, x: np.ndarray, max_lag: int, upsample: int = UPSAMPLE) -> np.ndarray:
    """PHAT cross-correlation of ``y`` against ``x`` over lags 0..max_lag, peak 1.

    Whitening leaves one sharp peak per propagation path.  The correlation
    is interpolated ``upsample`` times, so an arrival between two samples
    keeps its full height.
    """
    nfft = 1 << int(y.size + x.size - 1).bit_length()
    g = np.fft.rfft(y, nfft) * np.conj(np.fft.rfft(x, nfft))
    mag = np.abs(g)
    g = np.where(mag > 1e-10 * mag.max(), g / np.maximum(mag, 1e-300), 0.0)
    env = np.abs(np.fft.irfft(g, nfft * upsample)[: (max_lag + 1) * upsample])
    return env / env.max()


def ls_fit(y: np.ndarray, ref: np.ndarray):
    """Least-squares gain of ``ref`` in ``y`` and the SNR (dB) of that fit."""
    gain = float(np.dot(y, ref) / np.dot(ref, ref))
    resid = y - gain * ref
    return gain, float(10.0 * np.log10(np.sum((gain * ref) ** 2) / np.sum(resid**2)))


def align_lag(measured: np.ndarray, truth: np.ndarray, max_lag: int) -> int:
    """Lag l in [-max_lag, max_lag] maximizing sum_k measured[k] * truth[k + l]."""
    nfft = 1 << int(measured.size + truth.size + max_lag).bit_length()
    cc = np.fft.irfft(np.fft.rfft(truth, nfft) * np.conj(np.fft.rfft(measured, nfft)), nfft)
    lags = np.arange(-max_lag, max_lag + 1)
    return int(lags[np.argmax(cc[lags])])
