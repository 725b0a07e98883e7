"""Minimal RIFF/WAVE reader and writer.

Supports the three formats the pipeline exchanges: PCM 16-bit, PCM 24-bit
and IEEE float32, any channel count.  Samples are exposed as float64 in
[-1, 1); integer formats are scaled by 2**(bits-1).
"""

from __future__ import annotations

import struct
from pathlib import Path
from typing import Union

import numpy as np

from .core import AudioSignal, ValidationError

_FORMATS = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}


def read_wav(path: Union[str, Path]) -> AudioSignal:
    """Read a WAV file into a (channels, samples) AudioSignal."""
    raw = Path(path).read_bytes()
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
        body = raw[pos + 8 : pos + 8 + size]
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
    if (audio_format, bits) == (1, 16):
        samples = np.frombuffer(data, dtype="<i2").astype(np.float64) / 2**15
    elif (audio_format, bits) == (1, 24):
        b = np.frombuffer(data, dtype=np.uint8).reshape(-1, 3)
        ints = (
            b[:, 0].astype(np.int32)
            | (b[:, 1].astype(np.int32) << 8)
            | (b[:, 2].astype(np.int32) << 16)
        )
        ints = np.where(ints >= 1 << 23, ints - (1 << 24), ints)
        samples = ints.astype(np.float64) / 2**23
    elif (audio_format, bits) == (3, 32):
        samples = np.frombuffer(data, dtype="<f4").astype(np.float64)
    else:
        raise ValidationError(
            f"{path}: unsupported WAV format (format={audio_format}, bits={bits})"
        )
    if n_channels < 1:
        raise ValidationError(f"{path}: invalid channel count {n_channels}")
    frames = samples.size // n_channels
    samples = samples[: frames * n_channels].reshape(frames, n_channels).T
    return AudioSignal(sample_rate, samples)


def write_wav(path: Union[str, Path], signal: AudioSignal, fmt: str = "float32") -> None:
    """Write an AudioSignal as PCM16, PCM24 or float32 WAV."""
    if fmt not in _FORMATS:
        raise ValidationError(f"unknown WAV format {fmt!r}, expected one of {sorted(_FORMATS)}")
    audio_format, bits = _FORMATS[fmt]
    interleaved = signal.data.T  # (frames, channels)
    n_channels = signal.num_channels
    if fmt == "float32":
        payload = interleaved.astype("<f4").tobytes()
    else:
        full = 2 ** (bits - 1)
        ints = np.clip(np.round(interleaved * full), -full, full - 1).astype(np.int64)
        if fmt == "pcm16":
            payload = ints.astype("<i2").tobytes()
        else:
            flat = ints.ravel()
            b = np.empty((flat.size, 3), dtype=np.uint8)
            b[:, 0] = flat & 0xFF
            b[:, 1] = (flat >> 8) & 0xFF
            b[:, 2] = (flat >> 16) & 0xFF
            payload = b.tobytes()
    block_align = n_channels * bits // 8
    byte_rate = signal.sample_rate * block_align
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack(
        "<IHHIIHH", 16, audio_format, n_channels, signal.sample_rate, byte_rate, block_align, bits
    )
    header += b"data" + struct.pack("<I", len(payload))
    Path(path).write_bytes(header + payload)
