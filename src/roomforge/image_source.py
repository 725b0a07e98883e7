"""Shoebox room impulse response synthesis via the image-source method.

Mirror images of the source are enumerated on the lattice

    x_img = 2 * n * Lx + (1 - 2p) * x_src      (p in {0, 1}, n integer)

per axis; an image built from (n, p) has hit the wall at x=0 |n - p| times
and the wall at x=Lx |n| times.  Each image contributes a tap of amplitude

    gain * prod(beta_wall ** hits) / (4 * pi * distance)

at delay distance / c, where ``gain`` is the source directivity evaluated
with the image's mirrored orientation (boresight components are negated
along every axis with odd mirror parity, i.e. p = 1).

``synthesize_rirs`` builds the lattice once for all microphones of an
array and discards the images too far from every microphone before any
per-image work; each microphone's IR is the same, bit for bit, as when it
is synthesized alone.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import List, Sequence, Union

import numpy as np

from .core import (
    FIRST_ORDER_PATTERNS,
    Directivity,
    ImpulseResponse,
    MicSpec,
    RoomSpec,
    SourceSpec,
    ValidationError,
)

DEFAULT_IMAGE_BUDGET = 10_000_000
SINC_HALF_WIDTH = 32  # taps on each side in fractional-delay mode
# Changes whenever synthesized samples may change in any bit; part of IR cache keys.
SYNTHESIS_VERSION = 2

_BLOCK = 8192  # images per block of per-image temporaries, which then stay in cache
_OFFSETS = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)
# Rows k = -W..W: (-1)^k * (cos(pi k / (W + 1)), -sin(pi k / (W + 1)), 1), so that
# (_SINC_BASIS @ (cos b, sin b, 1))[k] = (-1)^k * (1 + cos(pi k / (W + 1) + b)).
_SINC_BASIS = np.where(_OFFSETS % 2 == 0, 1.0, -1.0)[:, None] * np.stack(
    [
        np.cos(np.pi * _OFFSETS / (SINC_HALF_WIDTH + 1)),
        -np.sin(np.pi * _OFFSETS / (SINC_HALF_WIDTH + 1)),
        np.ones(_OFFSETS.size),
    ],
    axis=1,
)


class ResourceError(RuntimeError):
    """Raised when a synthesis request exceeds the configured image budget."""


@dataclass(frozen=True)
class ImageSynthesisConfig:
    """Knobs for the image-source synthesis.

    ``max_reflection_order`` is an integer or "auto" (enough orders that the
    furthest image's delay exceeds ``ir_length``).  ``fractional_delay`` is
    "nearest" (taps rounded to sample instants) or "sinc" (Hann-windowed
    sinc interpolation).  ``highpass_hz`` > 0 applies a Butterworth
    high-pass after synthesis.  ``negative_reflection`` flips the tap sign
    once per reflection (pressure convention).
    """

    ir_length: float = 0.5
    max_reflection_order: Union[int, str] = "auto"
    fractional_delay: str = "nearest"
    highpass_hz: float = 0.0
    negative_reflection: bool = False
    image_budget: int = DEFAULT_IMAGE_BUDGET

    def __post_init__(self):
        if self.ir_length <= 0:
            raise ValidationError(f"ir_length must be positive, got {self.ir_length}")
        if isinstance(self.max_reflection_order, str):
            if self.max_reflection_order != "auto":
                raise ValidationError(f"max_reflection_order must be an integer or 'auto'")
        elif self.max_reflection_order < 0:
            raise ValidationError("max_reflection_order must be >= 0")
        if self.fractional_delay not in ("nearest", "sinc"):
            raise ValidationError(f"unknown fractional_delay mode {self.fractional_delay!r}")
        if self.highpass_hz < 0:
            raise ValidationError("highpass_hz must be >= 0")


def reflectivity_from_t60(room: RoomSpec, t60: float) -> float:
    """Uniform wall reflection coefficient achieving the requested T60 (Eyring).

    alpha = 1 - exp(-0.161 * V / (S * t60)), beta = sqrt(1 - alpha).
    """
    if t60 <= 0:
        raise ValidationError(f"t60 must be positive, got {t60}")
    alpha = 1.0 - math.exp(-0.161 * room.volume / (room.surface_area * t60))
    if alpha >= 1.0:
        raise ValidationError(f"room cannot achieve requested T60 of {t60} s")
    return math.sqrt(1.0 - alpha)


def _resolve_reflectivity(room: RoomSpec) -> np.ndarray:
    if room.reflectivity is not None:
        return np.asarray(room.reflectivity, dtype=float)
    beta = reflectivity_from_t60(room, room.target_t60)
    return np.full(6, beta)


def _axis_images(src: float, length: float, n_max: int):
    """Per-axis image coordinates, wall-hit counts and mirror signs."""
    n = np.arange(-n_max, n_max + 1)
    coords = []
    hits0 = []
    hits1 = []
    signs = []
    for p in (0, 1):
        coords.append(2.0 * n * length + (1 - 2 * p) * src)
        hits0.append(np.abs(n - p))
        hits1.append(np.abs(n))
        signs.append(np.full(n.shape, 1 - 2 * p))
    return (
        np.concatenate(coords),
        np.concatenate(hits0),
        np.concatenate(hits1),
        np.concatenate(signs),
    )


def _lattice_orders(room: RoomSpec, config: ImageSynthesisConfig):
    """Per-axis lattice half-widths ``n_max`` and the reflection-order cap (or None)."""
    if config.max_reflection_order == "auto":
        max_dist = room.speed_of_sound * config.ir_length
        return [int(math.ceil(max_dist / (2.0 * L))) + 1 for L in room.dimensions], None
    order = int(config.max_reflection_order)
    return [order // 2 + 1] * 3, order


def lattice_image_count(room: RoomSpec, config: ImageSynthesisConfig) -> int:
    """Number of images on the lattice cube; ``config.image_budget`` bounds it."""
    n_maxes, _ = _lattice_orders(room, config)
    return math.prod(2 * (2 * n + 1) for n in n_maxes)


def _pattern_gain(pattern: Directivity, cos_theta: np.ndarray) -> np.ndarray:
    """Directivity gain from the cosine of the off-boresight angle."""
    cos_theta = np.clip(cos_theta, -1.0, 1.0)
    if pattern.pattern == "custom":
        return np.interp(np.arccos(cos_theta), *pattern.table)
    a = FIRST_ORDER_PATTERNS[pattern.pattern]
    return np.maximum(a + (1.0 - a) * cos_theta, 0.0)


def _sinc_taps(delays: np.ndarray, amps: np.ndarray, n_out: int) -> np.ndarray:
    """Sum of Hann-windowed sinc kernels, one per (delay, amplitude) pair.

    An image at ``d = r - delta`` samples (``r = round(d)``) puts

        amp * sinc(k + delta) * 0.5 * (1 + cos(pi * (k + delta) / (W + 1)))

    on tap ``r + k`` for |k| <= W.  With sin(pi * (k + delta)) =
    (-1)^k sin(pi * delta) and the angle-addition form of the Hann cosine,
    this is exact and takes three trig calls per image instead of two per tap.
    """
    w = SINC_HALF_WIDTH
    ir = np.zeros(n_out)
    for start in range(0, delays.size, _BLOCK):
        d = delays[start : start + _BLOCK]
        a = amps[start : start + _BLOCK]
        centers = np.round(d).astype(np.int64)
        delta = centers - d
        hann = np.pi * delta / (w + 1)
        scale = (0.5 / np.pi) * a * np.sin(np.pi * delta)
        # (2W + 1, block): tap offset major
        taps = _SINC_BASIS @ np.stack([np.cos(hann) * scale, np.sin(hann) * scale, scale])
        x = np.add.outer(_OFFSETS, delta)
        exact = delta == 0.0  # the kernel is a unit impulse at k = 0, where x = 0
        x[w, exact] = 1.0
        taps /= x
        taps[w, exact] = a[exact]
        # bins are shifted by W so that every index is >= 0; the out-of-range ones are dropped
        shifted = np.add.outer(_OFFSETS + w, centers)
        ir += np.bincount(shifted.ravel(), weights=taps.ravel(), minlength=n_out + w)[w : w + n_out]
    return ir


def synthesize_rirs(
    room: RoomSpec,
    source: SourceSpec,
    mics: Sequence[MicSpec],
    config: ImageSynthesisConfig,
    sample_rate: int = 48000,
) -> List[ImpulseResponse]:
    """Synthesize the impulse responses between ``source`` and each of ``mics``.

    Each IR is bit for bit the one ``synthesize_rir`` gives for that mic alone.
    """
    source.validate_in_room(room)
    for mic in mics:
        mic.validate_in_room(room)
        if tuple(source.position) == tuple(mic.position):
            raise ValidationError(f"source and mic {mic.id!r} positions coincide")
    if not mics:
        return []

    c = room.speed_of_sound
    betas = _resolve_reflectivity(room)
    n_out = int(round(config.ir_length * sample_rate))
    if n_out < 1:
        raise ValidationError("ir_length shorter than one sample")

    total = lattice_image_count(room, config)
    if total > config.image_budget:
        raise ResourceError(
            f"image enumeration needs {total} images, exceeding the budget of {config.image_budget}"
        )
    n_maxes, order_cap = _lattice_orders(room, config)
    per_axis = [
        _axis_images(source.position[d], room.dimensions[d], n_maxes[d]) for d in range(3)
    ]

    # Keep the images that can land a tap inside the IR for some mic: within
    # reach samples (plus one for rounding) of the array's centroid, widened by
    # the array's extent.  Rows of the (x*y, z) grid are x-major, and np.nonzero
    # keeps C order, so every mic sums its taps in the order of the full lattice.
    mic_pos = np.array([m.position for m in mics])
    centroid = mic_pos.mean(axis=0)
    extent = float(np.max(np.linalg.norm(mic_pos - centroid, axis=1)))
    reach = n_out - 0.5 if config.fractional_delay == "nearest" else n_out + SINC_HALF_WIDTH
    radius = (reach + 1.0) * c / sample_rate + extent
    d2 = np.add.outer(
        np.add.outer((centroid[0] - per_axis[0][0]) ** 2, (centroid[1] - per_axis[1][0]) ** 2).ravel(),
        (centroid[2] - per_axis[2][0]) ** 2,
    )
    ixy, iz = np.nonzero(d2 <= radius * radius)
    del d2

    def kept(ufunc, x, y, z):
        """Per-axis values combined as (x . y) . z, for every kept image."""
        return ufunc(ufunc.outer(x, y).ravel()[ixy], z[iz])

    att = kept(
        np.multiply,
        *(betas[2 * d] ** per_axis[d][1] * betas[2 * d + 1] ** per_axis[d][2] for d in range(3)),
    )
    if config.negative_reflection or order_cap is not None:
        counts = kept(np.add, *(per_axis[d][1] + per_axis[d][2] for d in range(3)))
        if config.negative_reflection:
            att = att * np.where(counts % 2 == 0, 1.0, -1.0)
        if order_cap is not None:
            att = np.where(counts <= order_cap, att, 0.0)

    pattern = source.directivity
    directive = pattern.pattern != "omnidirectional"
    ori = source.orientation
    ir_samples = []
    for pos in mic_pos:
        # Squared distance and boresight projection, per axis: summed as (x + y) + z
        # through an (x*y) table and the z values, one block of images at a time.
        rel = [pos[d] - per_axis[d][0] for d in range(3)]  # mic minus image
        sq_xy, sq_z = np.add.outer(rel[0] * rel[0], rel[1] * rel[1]).ravel(), rel[2] * rel[2]
        proj = [ori[d] * per_axis[d][3] * rel[d] for d in range(3)]
        proj_xy, proj_z = np.add.outer(proj[0], proj[1]).ravel(), proj[2]
        amps = np.empty(iz.size)
        delays = np.empty(iz.size)
        for start in range(0, iz.size, _BLOCK):
            blk = slice(start, start + _BLOCK)
            bxy, bz = ixy[blk], iz[blk]
            dist = np.sqrt(sq_xy[bxy] + sq_z[bz])
            gain = att[blk]
            if directive:
                gain = gain * _pattern_gain(pattern, (proj_xy[bxy] + proj_z[bz]) / dist)
            amps[blk] = gain / (4.0 * np.pi * dist)
            delays[blk] = dist / c * sample_rate

        if config.fractional_delay == "nearest":
            # Taps past the IR fall in bins >= n_out, which are cut off; zero
            # amplitudes add +-0.0, which leaves every bin's bits unchanged.
            taps = np.round(delays).astype(np.int64)
            ir_samples.append(np.bincount(taps, weights=amps, minlength=n_out)[:n_out])
        else:
            keep = (delays < n_out + SINC_HALF_WIDTH) & (amps != 0.0)
            ir_samples.append(_sinc_taps(delays[keep], amps[keep], n_out))

    if config.highpass_hz > 0:
        # deferred: importing scipy.signal costs about a second, and only this branch needs it
        from scipy.signal import butter, sosfilt

        sos = butter(2, config.highpass_hz, btype="highpass", fs=sample_rate, output="sos")
        ir_samples = [sosfilt(sos, ir) for ir in ir_samples]

    out = []
    for mic, pos, ir in zip(mics, mic_pos, ir_samples):
        meta = {
            "room": {
                "dimensions": list(room.dimensions),
                "reflectivity": list(betas),
                "speed_of_sound": c,
            },
            "source": {
                "position": list(source.position),
                "azimuth": source.azimuth,
                "elevation": source.elevation,
                "directivity": pattern.pattern,
            },
            "mic": {"id": mic.id, "position": list(mic.position)},
            "config": {
                "ir_length": config.ir_length,
                "max_reflection_order": config.max_reflection_order,
                "fractional_delay": config.fractional_delay,
                "highpass_hz": config.highpass_hz,
                "negative_reflection": config.negative_reflection,
            },
            "sample_rate": sample_rate,
        }
        rir = ImpulseResponse(sample_rate, ir, provenance="image-method", meta=meta)
        direct_delay = np.linalg.norm(pos - np.asarray(source.position)) / c
        rir.direct_path_index = int(round(direct_delay * sample_rate))
        out.append(rir)
    return out


def synthesize_rir(
    room: RoomSpec,
    source: SourceSpec,
    mic: MicSpec,
    config: ImageSynthesisConfig,
    sample_rate: int = 48000,
) -> ImpulseResponse:
    """Synthesize the impulse response between ``source`` and ``mic``."""
    return synthesize_rirs(room, source, [mic], config, sample_rate)[0]
