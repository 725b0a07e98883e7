"""Shoebox room impulse response synthesis via the image-source method.

Mirror images of the source are enumerated on the lattice

    x_img = 2 * n * Lx + (1 - 2p) * x_src      (p in {0, 1}, n integer)

per axis; an image built from (n, p) has hit the wall at x=0 |n - p| times
and the wall at x=Lx |n| times.  Each image contributes a tap of amplitude

    gain * prod(beta_wall ** hits) / (4 * pi * distance)

at delay distance / c, where ``gain`` is the source directivity evaluated
with the image's mirrored orientation (boresight components are negated
along every axis with odd mirror parity, i.e. p = 1).

``synthesize_rirs`` walks the lattice once for all microphones of an
array, about 32k images at a time.  Each chunk discards the images too far
from every microphone, weighs the walls once, and adds every microphone's
taps straight into that microphone's IR, so the working set is a few MB at
any IR length.  A microphone's per-image values (distance, gain, amplitude,
delay, tap) go to a few chunk-sized buffers made once per walk; a per-axis
table is gathered once per chunk for all the microphones that share that
coordinate, as the microphones of a linear array share two; and a built-in
pattern's gain is computed in place.  Each microphone's IR is the same, bit
for bit, as when it is synthesized alone.

In sinc mode an image at ``d = r - delta`` samples (``r = round(d)``) puts a
Hann-windowed sinc tap on each of the 2W + 1 samples around ``r``.  Each tap is
a fixed Chebyshev series in ``delta`` (``_SINC_CHEB``, within about 1.8e-15 of
the exact kernel), so an image adds only its ``_CHEB_TERMS`` weights
``amp * T_m(2 * delta)`` to column ``r`` of row m of a per-microphone table, and
each microphone's table becomes taps in one product with ``_SINC_CHEB`` at the end:
the 2W + 1 taps are paid once per IR sample, not once per image.  An image at
a whole sample keeps its exact single tap.  The tables take 160 bytes per IR
sample and microphone; an array whose tables pass ``_WEIGHT_BYTES`` walks the
lattice once per group of microphones whose tables fit.
"""

from __future__ import annotations

import math
import reprlib
import sys
from dataclasses import dataclass
from typing import List, Optional, Sequence, Union

import numpy as np
from numpy.lib.stride_tricks import as_strided

from .core import (
    Directivity,
    ImpulseResponse,
    MicSpec,
    RoomSpec,
    SourceSpec,
    ValidationError,
    _check_sample_rate,
    _first_order_gain,
    _integer,
    _is_integer,
    _number,
)

DEFAULT_IMAGE_BUDGET = 10_000_000
# Samples in one IR: 87 s at 192 kHz, past the longest reverberation time on record (75 s,
# in the Inchindown oil tanks), and 128 MB per mic as float64.  The image budget bounds the
# lattice but not the IR, whose length an integer order leaves free.
MAX_IR_SAMPLES = 1 << 24
SINC_HALF_WIDTH = 32  # taps on each side in fractional-delay mode
FRACTIONAL_DELAYS = ("nearest", "sinc")
# Changes whenever synthesized samples may change in any bit; part of IR cache keys.
SYNTHESIS_VERSION = 4

_CHUNK = 32768  # lattice points per chunk: the working set stays a few MB at any IR length
# Chebyshev terms per sinc kernel: each of the 2W + 1 taps is within about 1.8e-15 of
# the windowed sinc over the whole half-sample range of fractional delays
_CHEB_TERMS = 20
# bytes of Chebyshev weights one lattice walk holds; an array whose weights need more is
# synthesized a group of microphones at a time
_WEIGHT_BYTES = 8 << 20
# centres per kernel product: (2W + 1) * _CHEB_TERMS * _COLS stays under OpenBLAS's
# 4 * 65536 multiply-adds, below which a product runs on the calling thread alone
_COLS = 192
_OFFSETS = np.arange(-SINC_HALF_WIDTH, SINC_HALF_WIDTH + 1)


def _sinc_kernel(t):
    """Hann-windowed sinc at ``t`` samples from an image's delay, for |t| <= W + 1."""
    return np.sinc(t) * 0.5 * (1.0 + np.cos(np.pi * t / (SINC_HALF_WIDTH + 1)))


# Row k = -W..W: the Chebyshev series in x = 2 * delta, |x| <= 1, of the tap that an
# image at d = r - delta samples puts on sample r + k, _sinc_kernel(k + delta); it
# interpolates the tap at the Chebyshev nodes x_j = cos(theta_j), where T_m = cos(m theta)
# (numpy.polynomial's chebinterpolate, for all taps at once and without its import time).
_NODES = np.pi * (np.arange(_CHEB_TERMS) + 0.5) / _CHEB_TERMS
_SINC_CHEB = _sinc_kernel(_OFFSETS[:, None] + np.cos(_NODES) / 2) @ np.cos(
    np.outer(_NODES, np.arange(_CHEB_TERMS))
) * (2.0 / _CHEB_TERMS)
_SINC_CHEB[:, 0] /= 2.0


class ResourceError(RuntimeError):
    """Raised when synthesis lacks a resource: the configured image budget, or a worker process."""


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
        object.__setattr__(self, "ir_length", _number(self.ir_length, "ir_length"))
        object.__setattr__(self, "highpass_hz", _number(self.highpass_hz, "highpass_hz"))
        if not (math.isfinite(self.ir_length) and self.ir_length > 0):
            raise ValidationError(f"ir_length must be finite and positive, got {self.ir_length}")
        order = self.max_reflection_order
        if order != "auto":
            if not (_is_integer(order) and order >= 0):
                raise ValidationError(
                    f"max_reflection_order must be 'auto' or an integer >= 0, got {reprlib.repr(order)}"
                )
            object.__setattr__(self, "max_reflection_order", int(order))
        object.__setattr__(self, "image_budget", _integer(self.image_budget, "image_budget"))
        if self.image_budget < 1:
            raise ValidationError(f"image_budget must be positive, got {self.image_budget}")
        if self.fractional_delay not in FRACTIONAL_DELAYS:
            raise ValidationError(f"unknown fractional_delay mode {reprlib.repr(self.fractional_delay)}")
        if not (math.isfinite(self.highpass_hz) and self.highpass_hz >= 0):
            raise ValidationError(f"highpass_hz must be finite and >= 0, got {self.highpass_hz}")

    def validate_rate(self, sample_rate: int) -> int:
        """Check the config against ``sample_rate``; return the IR's length in samples.

        Each message but a bad rate's starts with the name of the field at fault;
        ``parse_manifest``, which passes only a pipeline rate, relies on it.
        """
        sample_rate = _check_sample_rate(sample_rate)
        samples = self.ir_length * sample_rate
        if not samples <= MAX_IR_SAMPLES:  # an infinite count too
            raise ValidationError(
                f"ir_length {self.ir_length} s is too long: {samples:.4g} samples at {sample_rate} Hz, "
                f"more than the {MAX_IR_SAMPLES} an IR may hold"
            )
        n = round(samples)
        if n < 1:
            raise ValidationError(
                f"ir_length {self.ir_length} s is shorter than one sample at {sample_rate} Hz"
            )
        if self.highpass_hz >= sample_rate / 2:
            raise ValidationError(
                f"highpass_hz {self.highpass_hz} Hz reaches Nyquist for sample rate {sample_rate}"
            )
        return n


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
        # a half-width past the float range is infinite, which check_room reports
        half = [max_dist / (2.0 * L) for L in room.dimensions]
        return [math.ceil(h) + 1 if math.isfinite(h) else math.inf for h in half], None
    order = config.max_reflection_order
    return [order // 2 + 1] * 3, order


def lattice_image_count(room: RoomSpec, config: ImageSynthesisConfig) -> int:
    """Number of images on the lattice cube; ``config.image_budget`` bounds it."""
    n_maxes, _ = _lattice_orders(room, config)
    return math.prod(2 * (2 * n + 1) for n in n_maxes)


def check_room(room: RoomSpec, config: ImageSynthesisConfig) -> np.ndarray:
    """``room``'s six wall reflectivities, if the image method can synthesize it under ``config``.

    Else raises ``ResourceError`` past the image budget, or ``ValidationError`` for a T60
    the room cannot reach and a room whose image distances or Eyring's formula overflow.
    """
    total = lattice_image_count(room, config)
    if total > config.image_budget:
        # an integer order makes counts of any size; Python makes no more than 4300 digits,
        # and a half-width past the float range (an infinite count) makes more than 10^308
        power = (sys.float_info.max_10_exp if total == math.inf
                 else math.floor((total.bit_length() - 1) * math.log10(2)))
        count = str(total) if total < 10**15 else f"more than 10^{power}"
        raise ResourceError(f"needs {count} images, exceeding the budget of {config.image_budget}")
    betas = _resolve_reflectivity(room)
    # the walk squares an image's offset from a mic: up to (2 n_max + 2) L along each axis
    offsets = [(2 * n + 2) * length for n, length in zip(_lattice_orders(room, config)[0], room.dimensions)]
    if not (math.isfinite(sum(x * x for x in offsets)) and np.isfinite(betas).all()):
        raise ValidationError(f"room dimensions {room.dimensions} are too large for a float: "
                              "squared image distances or Eyring's formula overflow")
    return betas


def _pattern_gain(pattern: Directivity, cos_theta: np.ndarray) -> np.ndarray:
    """Directivity gain from the cosine of the off-boresight angle.

    Clips ``cos_theta`` to [-1, 1] in place; a built-in pattern's gain is written over it.
    """
    np.clip(cos_theta, -1.0, 1.0, out=cos_theta)
    if pattern.pattern == "custom":
        return np.interp(np.arccos(cos_theta), *pattern.table)
    return _first_order_gain(pattern.pattern, cos_theta, out=cos_theta)


def _add_sinc_weights(delays: np.ndarray, amps: np.ndarray, out: np.ndarray, weights: np.ndarray) -> None:
    """Add the images at ``delays`` (in samples) with ``amps`` to one microphone's IR.

    An image at ``d = r - delta`` samples (``r = round(d)``) puts
    ``amp * _sinc_kernel(k + delta)`` on tap ``r + k`` for |k| <= W, which is
    ``out[r + k + W]``.  An image at a whole sample (``delta`` 0) puts ``amp``
    on that one tap of ``out``.  Any other adds ``amp * T_m(2 * delta)`` to
    column ``r`` of row m < _CHEB_TERMS of ``weights``, a (_CHEB_TERMS, centres)
    table that ``_add_sinc_kernels`` turns into taps once every image is in.  Each
    entry takes its images one at a time, in order.
    """
    centers = np.round(delays).astype(np.intp)
    x = 2.0 * (centers - delays)
    exact = x == 0.0
    if exact.any():
        np.add.at(out, centers[exact] + SINC_HALF_WIDTH, amps[exact])
        centers, x, amps = centers[~exact], x[~exact], amps[~exact]
    # a * T_m(x) by the recurrence T_m = 2x T_(m-1) - T_(m-2), one row of weights per m
    older, prev = amps, amps * x
    np.add.at(weights[0], centers, older)
    np.add.at(weights[1], centers, prev)
    x *= 2.0
    for row in weights[2:]:
        term = x * prev
        term -= older
        np.add.at(row, centers, term)
        older, prev = prev, term


def _add_sinc_kernels(weights: np.ndarray, out: np.ndarray) -> None:
    """Add the taps of every centre in ``weights`` to ``out``, _COLS centres at a time.

    Centres j..j + _COLS - 1 give the (2W + 1, _COLS) product
    P = _SINC_CHEB @ weights[:, j : j + _COLS], whose row k belongs on
    out[j + k : j + k + _COLS].  The product is written into a zeroed frame of rows
    _COLS + 2W long whose row stride is one element longer, so that row k starts k
    columns to the right; the frame's column sums are then the block's taps on
    out[j : j + _COLS + 2W].
    """
    taps = 2 * SINC_HALF_WIDTH + 1
    span = _COLS + taps - 1
    frame = np.zeros((taps, span))
    shifted = as_strided(frame, shape=(taps, _COLS), strides=((span + 1) * frame.itemsize, frame.itemsize))
    for j in range(0, weights.shape[1], _COLS):
        np.matmul(_SINC_CHEB, weights[:, j : j + _COLS], out=shifted)
        out[j : j + span] += frame.sum(axis=0)


def direct_path_index(room: RoomSpec, source: SourceSpec, mic: MicSpec, sample_rate: int) -> int:
    """Sample index of the direct path: source-mic distance over the speed of sound."""
    distance = np.linalg.norm(np.asarray(mic.position, dtype=float) - np.asarray(source.position))
    return int(round(distance / room.speed_of_sound * sample_rate))


def placement_faults(room: RoomSpec, source: SourceSpec, mics: Sequence[MicSpec],
                     config: Optional[ImageSynthesisConfig] = None, sample_rate: int = 48000):
    """What keeps ``source`` and ``mics`` from synthesis in ``room``, as (culprit, message) pairs.

    The culprit is the "source" or a "mic" outside the room, a "mic" at the source, or,
    given ``config``, the "ir_length" that ends before a mic's direct path arrives; the
    config must then pass ``validate_rate(sample_rate)``, whose error is raised.
    """
    faults = []
    if not room.contains(source.position):
        faults.append(("source", f"source position {source.position} outside room {room.dimensions}"))
    n_ir = None if config is None else config.validate_rate(sample_rate)
    for mic in mics:
        if not room.contains(mic.position):
            faults.append(("mic", f"mic {mic.id!r} position {mic.position} outside room {room.dimensions}"))
        if mic.position == source.position:
            faults.append(("mic", f"source and mic {mic.id!r} positions coincide"))
        if n_ir is not None:
            index = direct_path_index(room, source, mic, sample_rate)
            if index >= n_ir:
                faults.append(("ir_length", f"mic {mic.id!r}: the direct path arrives at sample "
                               f"{index}, past the end of the {n_ir}-sample IR ({config.ir_length} s)"))
    return faults


def synthesize_rirs(
    room: RoomSpec,
    source: SourceSpec,
    mics: Sequence[MicSpec],
    config: ImageSynthesisConfig,
    sample_rate: int = 48000,
) -> List[ImpulseResponse]:
    """Synthesize the impulse responses between ``source`` and each of ``mics``.

    Each IR is bit for bit the one ``synthesize_rir`` gives for that mic alone.
    It carries the samples and the geometric ``direct_path_index``, and an empty
    ``meta``, so an IR read back from the IR cache equals it in every field.
    It raises the first of ``placement_faults`` as a ``ValidationError``, then ``check_room``'s.
    """
    faults = placement_faults(room, source, mics, config, sample_rate)
    if faults:
        raise ValidationError(faults[0][1])
    if not mics:
        return []

    c = room.speed_of_sound
    betas = check_room(room, config)
    n_out = config.validate_rate(sample_rate)
    n_maxes, order_cap = _lattice_orders(room, config)
    per_axis = [
        _axis_images(source.position[d], room.dimensions[d], n_maxes[d]) for d in range(3)
    ]
    nearest = config.fractional_delay == "nearest"
    reach = n_out - 0.5 if nearest else n_out + SINC_HALF_WIDTH
    w = SINC_HALF_WIDTH

    # Per-axis factors of each image's values; a lattice point combines its
    # three as (x . y) . z, the same bits as an (x*y, z) table would hold.
    wall_att = [betas[2 * d] ** per_axis[d][1] * betas[2 * d + 1] ** per_axis[d][2] for d in range(3)]
    reflections = [per_axis[d][1] + per_axis[d][2] for d in range(3)]
    pattern = source.directivity
    directive = pattern.pattern != "omnidirectional"
    ori = source.orientation

    # The lattice is walked in chunks of (x, y) rows, x-major, each with every
    # z; np.nonzero keeps C order, so every mic adds its images in lattice
    # order.  The chunks do not depend on the mics, so a mic's IR is the same
    # bits in any array.
    n_y, n_z = per_axis[1][0].size, per_axis[2][0].size
    n_rows = per_axis[0][0].size * n_y
    rows_per_chunk = max(1, _CHUNK // n_z)

    def array_sphere(mic_pos):
        """Pruning centre and radius for an array, and its accumulator length: 2W past a multiple of _COLS."""
        centroid = mic_pos.mean(axis=0)
        extent = float(np.max(np.linalg.norm(mic_pos - centroid, axis=1)))
        radius = (reach + 1.0) * c / sample_rate + extent
        centres = int((radius + extent) / c * sample_rate) + 2
        return centroid, radius, -(-centres // _COLS) * _COLS + 2 * w

    def walk(mic_pos):
        """One walk of the lattice: the IR samples of the mics at ``mic_pos``."""
        # Keep the images that can land a tap inside the IR for some mic: within
        # reach samples (plus one for rounding) of the array's centroid, widened by
        # the array's extent.  A kept image is within radius + extent of every mic,
        # so its taps, shifted by W, fall inside each mic's accumulator.
        centroid, radius, size = array_sphere(mic_pos)
        acc = np.zeros((len(mic_pos), size))
        weights = None if nearest else np.zeros((len(mic_pos), _CHEB_TERMS, size - 2 * w))
        to_centroid = [(centroid[d] - per_axis[d][0]) ** 2 for d in range(3)]
        # Per axis, the mics' distinct coordinates and, for each, the squared distance
        # and boresight projection of every image coordinate: mics that share a
        # coordinate share its gathers.
        coords, which = zip(*(np.unique(mic_pos[:, d], return_inverse=True) for d in range(3)))
        rel = [coords[d][:, None] - per_axis[d][0] for d in range(3)]  # mic minus image
        sq = [r * r for r in rel]
        proj = [ori[d] * per_axis[d][3] * rel[d] for d in range(3)]
        by_z = [np.flatnonzero(which[2] == u) for u in range(coords[2].size)]
        # per-image values go to buffers made once per walk, cut to each chunk's images
        buffers = np.empty((5, rows_per_chunk * n_z))
        tap_buffer = np.empty(rows_per_chunk * n_z, dtype=np.intp)
        row_starts = np.arange(rows_per_chunk) * n_z

        def kept(ufunc, f):
            """Per-axis values ``f`` combined as (x . y) . z, for the chunk's kept images."""
            combined = np.repeat(ufunc(f[0][ix], f[1][iy]), per_row)
            return ufunc(combined, f[2][iz], out=combined)

        for first in range(0, n_rows, rows_per_chunk):
            ix, iy = np.divmod(np.arange(first, min(first + rows_per_chunk, n_rows)), n_y)
            inside = np.add.outer(to_centroid[0][ix] + to_centroid[1][iy], to_centroid[2]) <= radius * radius
            # flat indices keep C order, so every mic adds its images in lattice order
            per_row = np.count_nonzero(inside, axis=1)
            iz = np.flatnonzero(inside) - np.repeat(row_starts[: ix.size], per_row)
            if not iz.size:
                continue
            z_sq, z_proj, dist, cos, amps = buffers[:, : iz.size]
            taps = tap_buffer[: iz.size]
            att = kept(np.multiply, wall_att)
            if config.negative_reflection or order_cap is not None:
                counts = kept(np.add, reflections)
                if config.negative_reflection:
                    att *= np.where(counts % 2 == 0, 1.0, -1.0)
                if order_cap is not None:
                    att = np.where(counts <= order_cap, att, 0.0)

            rows_sq = [sq[0][:, ix], sq[1][:, iy]]
            rows_proj = [proj[0][:, ix], proj[1][:, iy]]
            for u, mics_at_z in enumerate(by_z):
                # iz is in range; "clip" lets take write straight into out, where "raise" buffers
                np.take(sq[2][u], iz, out=z_sq, mode="clip")
                if directive:
                    np.take(proj[2][u], iz, out=z_proj, mode="clip")
                for m in mics_at_z:
                    ux, uy = which[0][m], which[1][m]
                    np.add(np.repeat(rows_sq[0][ux] + rows_sq[1][uy], per_row), z_sq, out=dist)
                    np.sqrt(dist, out=dist)
                    gain = att
                    if directive:
                        np.add(np.repeat(rows_proj[0][ux] + rows_proj[1][uy], per_row), z_proj, out=cos)
                        np.divide(cos, dist, out=cos)
                        gain = np.multiply(att, _pattern_gain(pattern, cos), out=cos)
                    np.divide(gain, np.multiply(4.0 * np.pi, dist, out=amps), out=amps)
                    delays = np.multiply(np.divide(dist, c, out=dist), sample_rate, out=dist)
                    if nearest:
                        # unbuffered, in image order: the same sums as one bincount over the
                        # lattice; zero amplitudes add +-0.0, which leaves every bin's bits unchanged
                        taps[:] = np.rint(delays, out=delays)
                        np.add.at(acc[m, w:], taps, amps)
                    else:
                        keep = (delays < n_out + w) & (amps != 0.0)
                        _add_sinc_weights(delays[keep], amps[keep], acc[m], weights[m])
        if not nearest:
            for out, table in zip(acc, weights):
                _add_sinc_kernels(table, out)
        return acc[:, w : w + n_out]

    # Sinc mode holds a table of Chebyshev weights per mic; the mics whose tables
    # fit in _WEIGHT_BYTES share a walk.  Nearest mode walks once for the array.
    mic_pos = np.array([m.position for m in mics])
    group = len(mics)
    if not nearest:
        table_bytes = (array_sphere(mic_pos)[2] - 2 * w) * _CHEB_TERMS * 8
        group = max(1, _WEIGHT_BYTES // table_bytes)
    ir_samples = np.concatenate([walk(mic_pos[i : i + group]) for i in range(0, len(mics), group)])

    if config.highpass_hz > 0:
        # deferred: importing scipy.signal costs about a second, and only this branch needs it
        from scipy.signal import butter, sosfilt

        sos = butter(2, config.highpass_hz, btype="highpass", fs=sample_rate, output="sos")
        ir_samples = sosfilt(sos, ir_samples)

    return [
        ImpulseResponse(sample_rate, ir, "image-method",
                        direct_path_index(room, source, mic, sample_rate))
        for mic, ir in zip(mics, ir_samples)
    ]


def synthesize_rir(
    room: RoomSpec,
    source: SourceSpec,
    mic: MicSpec,
    config: ImageSynthesisConfig,
    sample_rate: int = 48000,
) -> ImpulseResponse:
    """Synthesize the impulse response between ``source`` and ``mic``."""
    return synthesize_rirs(room, source, [mic], config, sample_rate)[0]
