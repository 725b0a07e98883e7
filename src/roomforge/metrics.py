"""Reverberation and IR-comparison metrics.

T60 follows the usual practice: backward-integrate the squared IR
(Schroeder curve), fit a line on the -5..-25 dB (T20) or -5..-35 dB (T30)
segment, and extrapolate the fitted slope to -60 dB.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .core import ImpulseResponse, ValidationError

DB_FLOOR = -300.0
DRR_CAP_DB = 120.0
DEFAULT_DIRECT_WINDOW_MS = 2.5

_FIT_RANGES = {"T20": (-5.0, -25.0), "T30": (-5.0, -35.0)}


@dataclass
class DecayCurve:
    """Schroeder energy-decay curve: level in dB relative to total energy."""

    times: np.ndarray  # seconds
    level_db: np.ndarray  # 0 at t=0, non-increasing


def schroeder_curve(ir: ImpulseResponse) -> DecayCurve:
    """Backward-integrated energy decay, floor-clamped in dB."""
    h2 = ir.samples**2
    tail_energy = np.cumsum(h2[::-1])[::-1]
    total = tail_energy[0]
    if total <= 0:
        raise ValidationError("impulse response has zero energy")
    with np.errstate(divide="ignore"):
        level = 10.0 * np.log10(tail_energy / total)
    level = np.maximum(level, DB_FLOOR)
    times = np.arange(ir.num_samples) / ir.sample_rate
    return DecayCurve(times=times, level_db=level)


def _fit_range(method: str):
    if method not in _FIT_RANGES:
        raise ValidationError(f"unknown T60 method {method!r}, expected {' or '.join(_FIT_RANGES)}")
    return _FIT_RANGES[method]


def _fit_t60(curve: DecayCurve, ir: ImpulseResponse, method: str) -> float:
    """T60 from a line fit on ``curve``, the Schroeder curve of ``ir``."""
    hi, lo = _fit_range(method)
    # the backward integral of any finite IR plunges in its final samples
    # (truncation artifact), so the fit must finish inside the first 90%
    usable = curve.level_db[: max(int(0.9 * curve.level_db.size), 2)]
    required = lo  # curve must decay past the lower fit bound
    if not np.any(usable <= required):
        achieved = float(np.min(usable))
        raise ValidationError(
            f"decay range insufficient for {method}: reaches {achieved:.1f} dB, "
            f"needs {required:.1f} dB"
        )

    start_floor = ir.direct_path_index + 1

    idx_hi = int(np.argmax(curve.level_db <= hi))
    idx_lo = int(np.argmax(curve.level_db <= lo))
    idx_hi = max(idx_hi, start_floor)
    if idx_lo <= idx_hi + 1:
        raise ValidationError("decay segment too short for a line fit")
    t = curve.times[idx_hi:idx_lo]
    y = curve.level_db[idx_hi:idx_lo]
    slope, intercept = np.polyfit(t, y, 1)
    if slope >= 0:
        raise ValidationError("non-decaying curve, cannot estimate T60")
    return float(-60.0 / slope)


def estimate_t60(ir: ImpulseResponse, method: str = "T20") -> float:
    """Reverberation time from a line fit on the Schroeder curve.

    The sample holding the direct-path arrival is excluded from the fit so
    sparse early reflections do not bias the slope.
    """
    _fit_range(method)  # an unknown method is reported before a silent IR
    return _fit_t60(schroeder_curve(ir), ir, method)


def direct_to_reverberant_db(
    ir: ImpulseResponse, direct_window_ms: float = DEFAULT_DIRECT_WINDOW_MS
) -> float:
    """Energy ratio (dB) between a window around the direct path and the rest."""
    direct = ir.direct_path_index
    half = int(round(direct_window_ms * 1e-3 * ir.sample_rate))
    lo = max(direct - half, 0)
    hi = min(direct + half + 1, ir.num_samples)
    if lo == 0 and hi == ir.num_samples:
        raise ValidationError("direct window covers the entire impulse response")
    h2 = ir.samples**2
    direct_energy = float(np.sum(h2[lo:hi]))
    rest = float(np.sum(h2)) - direct_energy
    if rest <= 0 or direct_energy <= 0:
        return DRR_CAP_DB if rest <= 0 else -DRR_CAP_DB
    return float(np.clip(10.0 * np.log10(direct_energy / rest), -DRR_CAP_DB, DRR_CAP_DB))


@dataclass
class IrComparison:
    """Differences between two impulse responses after direct-path alignment."""

    t60_delta: Optional[float]
    drr_delta: float
    decay_rms_db: float
    direct_offset_samples: int


def compare_irs(a: ImpulseResponse, b: ImpulseResponse, t60_method: str = "T20") -> IrComparison:
    """Compare two IRs: T60/DRR deltas, decay-curve rms distance, time offset.

    Deltas are b minus a; the report is symmetric up to sign.  The T60 delta
    is None when either curve decays too little to fit.
    """
    if a.sample_rate != b.sample_rate:
        raise ValidationError("sample-rate mismatch between impulse responses")
    _fit_range(t60_method)  # so that a None T60 delta means only a decay too short to fit
    da, db_ = a.direct_path_index, b.direct_path_index
    offset = db_ - da

    drr_delta = direct_to_reverberant_db(b) - direct_to_reverberant_db(a)
    curve_a = schroeder_curve(a)
    curve_b = schroeder_curve(b)
    try:
        t60_delta = _fit_t60(curve_b, b, t60_method) - _fit_t60(curve_a, a, t60_method)
    except ValidationError:
        t60_delta = None

    ca = curve_a.level_db[da:]
    cb = curve_b.level_db[db_:]
    n = min(ca.size, cb.size)
    decay_rms = float(np.sqrt(np.mean((ca[:n] - cb[:n]) ** 2))) if n else 0.0

    return IrComparison(
        t60_delta=t60_delta,
        drr_delta=drr_delta,
        decay_rms_db=decay_rms,
        direct_offset_samples=offset,
    )
