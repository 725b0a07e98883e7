"""Shared domain types and geometry helpers.

Conventions used throughout the package:

* positions are 3-vectors in meters, room corner at the origin
* azimuth is measured in the x-y plane from +x, elevation from the
  horizontal plane (both radians internally)
* audio samples are float arrays with a nominal range of [-1, 1]
"""

from __future__ import annotations

import math
import numbers
import reprlib
from dataclasses import dataclass, field
from typing import Optional, Sequence, Tuple, Union

import numpy as np

DEFAULT_SPEED_OF_SOUND = 343.0  # m/s, dry air at 20 C

PIPELINE_SAMPLE_RATES = (16000, 48000)

# first-order directivity: gain = a + (1 - a) * cos(theta), clamped at 0
FIRST_ORDER_PATTERNS = {
    "omnidirectional": 1.0,
    "cardioid": 0.5,
    "subcardioid": 0.7,
    "hypercardioid": 0.25,
}


class ValidationError(ValueError):
    """Raised when a domain object violates its invariants."""


def _number(value, name: str, sequence: bool = False):
    """The one rule for a numeric field: ``value`` as a finite float, or with ``sequence`` a tuple of them.

    Real numbers pass, numpy's too; a bool, a string, None, any other object and a bare
    number where a sequence belongs do not, nor does an integer too large for a float,
    NaN or an infinity.
    """
    items = value if sequence else (value,)
    if not ((isinstance(items, (list, tuple)) or isinstance(items, np.ndarray) and items.ndim == 1)
            and all(isinstance(x, numbers.Real) and not isinstance(x, bool) for x in items)):
        kind = "numbers" if sequence else "a number"
        raise ValidationError(f"{name} must be {kind}, got {reprlib.repr(value)}")
    try:
        floats = tuple(map(float, items))
    except OverflowError:  # not printed: repr fails on an int of more than 4300 digits
        raise ValidationError(f"{name}: integer too large to convert to float") from None
    if not all(map(math.isfinite, floats)):
        raise ValidationError(f"{name} must be finite, got {reprlib.repr(value)}")
    return floats if sequence else floats[0]


def _is_integer(value) -> bool:
    """Whether ``value`` is an integer, numpy's too; a bool is not (and ``np.bool_`` is no ``Integral``)."""
    return isinstance(value, numbers.Integral) and not isinstance(value, bool)


def _integer(value, name: str) -> int:
    """The one rule for an integer field: ``value`` as an int, if ``_is_integer``."""
    if not _is_integer(value):
        raise ValidationError(f"{name} must be an integer, got {reprlib.repr(value)}")
    return int(value)


def _check_sample_rate(sample_rate) -> int:
    sample_rate = _integer(sample_rate, "sample_rate")
    if sample_rate <= 0:
        raise ValidationError(f"sample rate must be positive, got {sample_rate}")
    return sample_rate


@dataclass(frozen=True)
class RoomSpec:
    """Shoebox room: dimensions plus either per-wall reflectivity or a target T60.

    ``reflectivity`` holds six reflection coefficients in wall order
    (x=0, x=Lx, y=0, y=Ly, z=0, z=Lz).  Exactly one of ``reflectivity``
    and ``target_t60`` must be given.
    """

    dimensions: Tuple[float, float, float]
    reflectivity: Optional[Tuple[float, ...]] = None
    target_t60: Optional[float] = None
    speed_of_sound: float = DEFAULT_SPEED_OF_SOUND

    def __post_init__(self):
        dims = _number(self.dimensions, "dimensions", sequence=True)
        if len(dims) != 3 or not all(d > 0 for d in dims):
            raise ValidationError(f"room dimensions must be 3 finite positive lengths, got {dims}")
        object.__setattr__(self, "dimensions", dims)
        if (self.reflectivity is None) == (self.target_t60 is None):
            raise ValidationError("specify exactly one of reflectivity or target_t60")
        if self.reflectivity is not None:
            betas = _number(self.reflectivity, "reflectivity", sequence=True)
            if len(betas) == 1:
                betas = betas * 6
            if len(betas) != 6:
                raise ValidationError(f"reflectivity needs 6 per-wall coefficients, got {len(betas)}")
            if any(not (0.0 <= b <= 1.0) for b in betas):
                raise ValidationError(f"reflection coefficients must lie in [0, 1], got {betas}")
            object.__setattr__(self, "reflectivity", betas)
        if self.target_t60 is not None:
            object.__setattr__(self, "target_t60", _number(self.target_t60, "t60"))
            if not self.target_t60 > 0:
                raise ValidationError(f"target T60 must be finite and positive, got {self.target_t60}")
        object.__setattr__(self, "speed_of_sound", _number(self.speed_of_sound, "speed_of_sound"))
        if not (300.0 <= self.speed_of_sound <= 360.0):
            raise ValidationError(f"speed_of_sound {self.speed_of_sound} outside sanity range [300, 360] m/s")

    @property
    def volume(self) -> float:
        lx, ly, lz = self.dimensions
        return lx * ly * lz

    @property
    def surface_area(self) -> float:
        lx, ly, lz = self.dimensions
        return 2.0 * (lx * ly + lx * lz + ly * lz)

    def contains(self, position: Sequence[float]) -> bool:
        p = np.asarray(position, dtype=float)
        return bool(np.all(p > 0) and np.all(p < np.asarray(self.dimensions)))


@dataclass(frozen=True)
class Directivity:
    """Angle-dependent source radiation gain.

    Either one of the built-in first-order patterns or a custom gain table:
    finite, strictly increasing angles in [0, pi] with finite gains in [0, 1],
    linearly interpolated.
    """

    pattern: str = "omnidirectional"
    table: Optional[Tuple[Tuple[float, ...], Tuple[float, ...]]] = None

    def __post_init__(self):
        if self.pattern == "custom":
            if self.table is None:
                raise ValidationError("custom directivity requires a gain table")
            angles = np.asarray(_number(self.table[0], "angles", sequence=True))
            gains = np.asarray(_number(self.table[1], "gains", sequence=True))
            if angles.size != gains.size or angles.size < 2:
                raise ValidationError("directivity table needs matching angle/gain arrays of length >= 2")
            if np.any(np.diff(angles) <= 0):
                raise ValidationError("directivity table angles must be strictly increasing")
            if angles[0] < 0 or angles[-1] > np.pi:
                raise ValidationError("directivity table angles must lie in [0, pi]")
            if np.any(gains < 0) or np.any(gains > 1):
                raise ValidationError("directivity table gains must lie in [0, 1]")
            object.__setattr__(self, "table", (tuple(angles.tolist()), tuple(gains.tolist())))
        elif self.pattern not in FIRST_ORDER_PATTERNS:
            raise ValidationError(f"unknown directivity pattern {reprlib.repr(self.pattern)}")

    def gain(self, angle):
        return directivity_gain(self, angle)


def directivity_gain(pattern: Union[Directivity, str], angle) -> Union[float, np.ndarray]:
    """Radiation gain at ``angle`` radians off boresight, in [0, 1].

    Built-in patterns follow the first-order law a + (1 - a) * cos(angle),
    clamped at zero.  Accepts scalar or array angles.
    """
    if isinstance(pattern, str):
        pattern = Directivity(pattern)
    theta = np.asarray(angle, dtype=float)
    if np.any(theta < -1e-12) or np.any(theta > np.pi + 1e-12):
        raise ValidationError("angle must lie in [0, pi]")
    theta = np.clip(theta, 0.0, np.pi)
    if pattern.pattern == "custom":
        angles, gains = pattern.table
        out = np.interp(theta, angles, gains)
    else:
        out = _first_order_gain(pattern.pattern, np.cos(theta))
    if np.isscalar(angle) or np.ndim(angle) == 0:
        return float(out)
    return out


def _first_order_gain(pattern: str, cos_theta, out=None):
    """Gain of the built-in ``pattern`` from the cosine of the off-boresight angle.

    With ``out``, which may be ``cos_theta`` itself, the gain is computed in place.
    """
    a = FIRST_ORDER_PATTERNS[pattern]
    gain = np.multiply(1.0 - a, cos_theta, out=out)
    return np.maximum(np.add(a, gain, out=out), 0.0, out=out)


def orientation_vector(azimuth: float, elevation: float) -> np.ndarray:
    """Unit boresight vector for the given azimuth/elevation."""
    ce = np.cos(elevation)
    return np.array([ce * np.cos(azimuth), ce * np.sin(azimuth), np.sin(elevation)])


@dataclass(frozen=True)
class SourceSpec:
    """Sound source: position, facing direction and radiation pattern."""

    position: Tuple[float, float, float]
    azimuth: float = 0.0
    elevation: float = 0.0
    directivity: Directivity = field(default_factory=Directivity)

    def __post_init__(self):
        pos = _number(self.position, "position", sequence=True)
        if len(pos) != 3:
            raise ValidationError("source position must be a 3-vector")
        object.__setattr__(self, "position", pos)
        object.__setattr__(self, "azimuth", _number(self.azimuth, "azimuth"))
        object.__setattr__(self, "elevation", _number(self.elevation, "elevation"))
        if isinstance(self.directivity, str):
            object.__setattr__(self, "directivity", Directivity(self.directivity))

    @property
    def orientation(self) -> np.ndarray:
        return orientation_vector(self.azimuth, self.elevation)


@dataclass(frozen=True)
class MicSpec:
    """A microphone: label plus position."""

    id: str
    position: Tuple[float, float, float]

    def __post_init__(self):
        pos = _number(self.position, "position", sequence=True)
        if len(pos) != 3:
            raise ValidationError("mic position must be a 3-vector")
        object.__setattr__(self, "position", pos)


def _is_path_component(name: str) -> bool:
    """Whether ``name`` names one file or directory inside its parent, never another place."""
    return name not in ("", ".", "..") and "/" not in name and "\\" not in name


def validate_mic_array(mics: Sequence[MicSpec]) -> None:
    """Reject an empty array, a mic id that is not one path component and duplicate ids."""
    if not mics:
        raise ValidationError("microphone array is empty")
    for mic in mics:
        if not isinstance(mic.id, str) or not _is_path_component(mic.id):
            raise ValidationError(f"mic id must be a single path component, got {mic.id!r}")
    ids = [m.id for m in mics]
    if len(set(ids)) != len(ids):
        raise ValidationError(f"duplicate mic ids in array: {ids}")


def angle_between(source: SourceSpec, receiver_position: Sequence[float]) -> float:
    """Angle in [0, pi] between the source boresight and the ray to the receiver."""
    ray = np.asarray(receiver_position, dtype=float) - np.asarray(source.position)
    norm = np.linalg.norm(ray)
    if norm == 0.0:
        raise ValidationError("receiver coincides with source position")
    cosang = float(np.dot(source.orientation, ray / norm))
    return float(np.arccos(np.clip(cosang, -1.0, 1.0)))


@dataclass
class AudioSignal:
    """Multichannel PCM audio held as a (channels, samples) float64 array."""

    sample_rate: int
    data: np.ndarray

    def __post_init__(self):
        self.sample_rate = _check_sample_rate(self.sample_rate)
        arr = np.asarray(self.data, dtype=np.float64)
        if arr.ndim == 1:
            arr = arr[np.newaxis, :]
        if arr.ndim != 2:
            raise ValidationError("audio data must be 1-D (mono) or 2-D (channels, samples)")
        self.data = arr

    @property
    def num_channels(self) -> int:
        return self.data.shape[0]

    @property
    def num_samples(self) -> int:
        return self.data.shape[1]

    @property
    def duration(self) -> float:
        return self.num_samples / self.sample_rate

    @property
    def mono(self) -> np.ndarray:
        if self.num_channels != 1:
            raise ValidationError(f"expected mono signal, got {self.num_channels} channels")
        return self.data[0]

    def channel(self, index: int) -> "AudioSignal":
        return AudioSignal(self.sample_rate, self.data[index].copy())


@dataclass(frozen=True)
class ImpulseResponse:
    """Sampled room impulse response with provenance.

    ``provenance`` is "measured" or "image-method".  ``direct_path_index``, the
    direct arrival's sample, is the producer's value or else the envelope
    maximum; it is always an int in ``[0, num_samples)``.  The fields cannot be
    reassigned, so the constructor's checks hold for the object's lifetime;
    ``dataclasses.replace`` builds a checked copy with other values.
    """

    sample_rate: int
    samples: np.ndarray
    provenance: str = "image-method"
    direct_path_index: Optional[int] = None
    meta: dict = field(default_factory=dict)

    def __post_init__(self):
        object.__setattr__(self, "sample_rate", _check_sample_rate(self.sample_rate))
        arr = np.asarray(self.samples, dtype=np.float64).ravel()
        if arr.size == 0:
            raise ValidationError("impulse response must be non-empty")
        energy = float(np.sum(arr**2))
        if not np.isfinite(energy) or energy == 0.0:
            raise ValidationError("impulse response must have finite nonzero energy")
        if self.provenance not in ("measured", "image-method"):
            raise ValidationError(f"unknown IR provenance {self.provenance!r}")
        object.__setattr__(self, "samples", arr)
        idx = self.direct_path_index
        idx = np.argmax(np.abs(arr)) if idx is None else _integer(idx, "direct_path_index")
        if not 0 <= idx < arr.size:
            raise ValidationError(f"direct_path_index must be an integer in [0, {arr.size}), got {idx}")
        object.__setattr__(self, "direct_path_index", int(idx))

    @property
    def num_samples(self) -> int:
        return self.samples.size

    @property
    def energy(self) -> float:
        return float(np.sum(self.samples**2))
