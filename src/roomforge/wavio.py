"""Minimal RIFF/WAVE reader and writer, and the one function that writes files.

Supports the three formats the pipeline exchanges: PCM 16-bit, PCM 24-bit
and IEEE float32, any channel count.  Samples are exposed as float64 in
[-1, 1); integer formats are scaled by 2**(bits-1).
"""

from __future__ import annotations

import math
import os
import struct
from pathlib import Path
from typing import Union

import numpy as np

from .core import AudioSignal, ValidationError

_FORMATS = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}
_RIFF_MAX = 2**32 - 1  # the RIFF and data chunk sizes are unsigned 32-bit
# the low three bytes of a little-endian int32: one packed pcm24 sample
_PCM24 = np.dtype({"names": ["v"], "formats": ["V3"], "offsets": [0], "itemsize": 4})


def atomic_write(path: Union[str, Path], data: bytes) -> None:
    """Write ``data`` to ``path`` whole or not at all.

    The bytes go to a hidden ``.<name>.<random>.tmp`` file in the same
    directory, which then replaces ``path``; on any failure the temporary file
    is removed and ``path`` keeps its old bytes.  A killed process may leave a
    temporary file, which no reader opens.  Nothing is synced to disk, so this
    guards against a killed process, not a power loss.  The file gets the mode
    of a plain ``open(path, "wb")``: 0o666 less the umask.
    """
    path = Path(path)
    # <name> is cut to 32 characters (128 bytes at most), so the temporary name
    # fits the usual 255-byte limit on a name even when ``path``'s name is near it
    tmp = path.with_name(f".{path.name[:32]}.{os.urandom(6).hex()}.tmp")
    f = open(tmp, "xb")
    try:
        with f:
            f.write(data)
        os.replace(tmp, path)
    except BaseException:
        os.unlink(tmp)
        raise


def read_wav(path: Union[str, Path]) -> AudioSignal:
    """Read a WAV file into a (channels, samples) AudioSignal."""
    raw = Path(path).read_bytes()
    view = memoryview(raw)  # chunk bodies are views into the file's bytes, not copies
    if len(raw) < 12 or raw[:4] != b"RIFF" or raw[8:12] != b"WAVE":
        raise ValidationError(f"{path}: not a RIFF/WAVE file")
    pos = 12
    fmt = None
    data = None
    while pos + 8 <= len(raw):
        chunk_id = raw[pos : pos + 4]
        (size,) = struct.unpack_from("<I", raw, pos + 4)
        if pos + 8 + size > len(raw):
            raise ValidationError(
                f"{path}: truncated {chunk_id.decode('latin-1')!r} chunk: "
                f"declares {size} bytes, {len(raw) - pos - 8} remain"
            )
        body = view[pos + 8 : pos + 8 + size]
        if chunk_id == b"fmt ":
            if size < 16:
                raise ValidationError(f"{path}: fmt chunk of {size} bytes, at least 16 expected")
            fmt = struct.unpack_from("<HHIIHH", body, 0)
        elif chunk_id == b"data":
            data = body
        pos += 8 + size + (size & 1)
    if fmt is None or data is None:
        raise ValidationError(f"{path}: missing fmt or data chunk")
    audio_format, n_channels, sample_rate, _, block_align, bits = fmt
    if audio_format == 0xFFFE and bits in (16, 24, 32):
        audio_format = 1 if bits != 32 else 3  # extensible: trust bit depth
    if (audio_format, bits) not in _FORMATS.values():
        raise ValidationError(
            f"{path}: unsupported WAV format (format={audio_format}, bits={bits})"
        )
    if n_channels < 1:
        raise ValidationError(f"{path}: invalid channel count {n_channels}")
    if sample_rate < 1:
        raise ValidationError(f"{path}: invalid sample rate {sample_rate}")
    frame_bytes = n_channels * bits // 8
    if len(data) % frame_bytes:
        raise ValidationError(
            f"{path}: data chunk of {len(data)} bytes is not a whole number "
            f"of {frame_bytes}-byte frames"
        )
    if bits == 16:
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64)
        samples /= 2**15
    elif bits == 24:
        # each sample's 3 bytes fill the top of a little-endian int32; the
        # arithmetic shift back down sign-extends it
        words = np.zeros((len(data) // 3, 4), dtype=np.uint8)
        words[:, 1:] = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        ints = words.view("<i4")[:, 0]
        ints >>= 8
        samples = ints.astype(np.float64)
        samples /= 2**23
    else:
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
        # a float64 sum of float32 values cannot overflow, so it is finite exactly
        # when every sample is, and it allocates nothing per sample
        if not math.isfinite(samples.sum()):
            raise ValidationError(f"{path}: float32 data holds NaN or infinite samples")
    samples = samples.reshape(-1, n_channels).T
    return AudioSignal(sample_rate, samples)


def write_wav(path: Union[str, Path], signal: AudioSignal, fmt: str = "float32") -> None:
    """Write an AudioSignal as PCM16, PCM24 or float32 WAV, whole or not at all.

    Integer formats clip to their range; a float32 sample past float32's range
    is a ``ValidationError``, and no file is written.
    """
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown WAV format {fmt!r}, expected one of {sorted(_FORMATS)}")
    audio_format, bits = _FORMATS[fmt]
    payload_size = signal.data.size * (bits // 8)  # from the shape: before any per-sample work
    if 36 + payload_size > _RIFF_MAX:
        raise ValidationError(
            f"{path}: {payload_size} bytes of {fmt} samples exceed the 4 GiB RIFF size limit"
        )
    if not np.isfinite(signal.data).all():
        raise ValidationError(f"{path}: cannot write NaN or infinite samples")
    interleaved = signal.data.T  # (frames, channels)
    n_channels = signal.num_channels
    if fmt == "float32":
        samples, stored = interleaved, "<f4"  # the cast to float32 happens as it is stored
    else:
        full = 2 ** (bits - 1)
        samples = np.multiply(interleaved, full, out=np.empty(interleaved.shape))
        np.round(samples, out=samples)
        np.clip(samples, -full, full - 1, out=samples)
        if fmt == "pcm16":
            stored = "<i2"
        else:
            samples, stored = samples.astype("<i4").view(_PCM24)["v"], "V3"
    block_align = n_channels * bits // 8
    byte_rate = signal.sample_rate * block_align
    header = b"RIFF" + struct.pack("<I", 36 + payload_size) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, n_channels, signal.sample_rate, byte_rate, block_align, bits
    )
    header += b"data" + struct.pack("<I", payload_size)
    data = bytearray(len(header) + payload_size)
    data[: len(header)] = header
    # stored straight into the file's bytes, with no payload copy to join to the header
    payload = np.frombuffer(data, stored, offset=len(header))
    with np.errstate(over="ignore"):  # a sample past float32's range becomes inf, caught below
        payload.reshape(interleaved.shape)[...] = samples
    # the extremes show a stored inf without the temporary array of a sum or an isinf
    if fmt == "float32" and (np.isinf(payload.max(initial=0)) or np.isinf(payload.min(initial=0))):
        raise ValidationError(f"{path}: samples past float32's range (about 3.4e38) cannot be written")
    atomic_write(path, data)
