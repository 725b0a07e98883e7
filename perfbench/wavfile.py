"""WAV codec of the benchmark's own, independent of roomforge.wavio.

Inputs are written and outputs are read through this module, so a change
to roomforge's WAV code cannot change the benchmark's inputs or hide a
fault in its outputs.  Only plain 44-byte-header files with one ``fmt ``
and one ``data`` chunk are handled; anything else is an error.
"""

from __future__ import annotations

import struct

import numpy as np

FORMATS = {"pcm16": (1, 16), "pcm24": (1, 24), "float32": (3, 32)}
NAMES = {v: k for k, v in FORMATS.items()}


def header_format(path) -> str:
    """Format name from the fmt chunk of a plain WAV header, or "other"."""
    with open(path, "rb") as f:
        head = f.read(36)
    audio_format, bits = struct.unpack_from("<H", head, 20)[0], struct.unpack_from("<H", head, 34)[0]
    return NAMES.get((audio_format, bits), "other")


def encode(data: np.ndarray, fmt: str) -> np.ndarray:
    """Quantize float samples (channels, frames) to the stored values, as float64."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if fmt == "float32":
        return data.astype(np.float32).astype(np.float64)
    full = 2 ** (FORMATS[fmt][1] - 1)
    return np.clip(np.round(data * full), -full, full - 1) / full


def write(path, data: np.ndarray, fs: int, fmt: str) -> np.ndarray:
    """Write (channels, frames) or mono samples; returns the stored values."""
    data = np.atleast_2d(np.asarray(data, dtype=np.float64))
    if not np.all(np.isfinite(data)) or np.max(np.abs(data)) >= 1.0:
        raise ValueError(f"{path}: samples must be finite and inside (-1, 1)")
    stored = encode(data, fmt)
    audio_format, bits = FORMATS[fmt]
    frames = stored.T
    if fmt == "float32":
        payload = frames.astype("<f4").tobytes()
    else:
        ints = np.round(frames * 2 ** (bits - 1)).astype("<i4")
        if bits == 16:
            payload = ints.astype("<i2").tobytes()
        else:
            payload = ints.view(np.uint8).reshape(-1, 4)[:, :3].tobytes()
    channels = data.shape[0]
    block = channels * bits // 8
    header = b"RIFF" + struct.pack("<I", 36 + len(payload)) + b"WAVE"
    header += b"fmt " + struct.pack("<IHHIIHH", 16, audio_format, channels, fs, fs * block, block, bits)
    header += b"data" + struct.pack("<I", len(payload))
    with open(path, "wb") as f:
        f.write(header + payload)
    return stored


def read(path):
    """Return (sample_rate, (channels, frames) float64 samples, format name)."""
    with open(path, "rb") as f:
        raw = f.read()
    if raw[:4] != b"RIFF" or raw[8:12] != b"WAVE" or raw[12:16] != b"fmt ":
        raise ValueError(f"{path}: not a plain RIFF/WAVE file")
    audio_format, channels, fs, _, block, bits = struct.unpack_from("<HHIIHH", raw, 20)
    (fmt_size,) = struct.unpack_from("<I", raw, 16)
    pos = 20 + fmt_size
    if raw[pos : pos + 4] != b"data":
        raise ValueError(f"{path}: expected the data chunk after fmt")
    (size,) = struct.unpack_from("<I", raw, pos + 4)
    body = raw[pos + 8 :]
    if len(body) != size or size % block:
        raise ValueError(f"{path}: data chunk holds {len(body)} bytes, header says {size}")
    fmt = NAMES.get((audio_format, bits))
    if fmt is None:
        raise ValueError(f"{path}: unexpected format {audio_format}/{bits}")
    if fmt == "pcm16":
        x = np.frombuffer(body, "<i2") / 2.0**15
    elif fmt == "pcm24":
        b = np.frombuffer(body, np.uint8).reshape(-1, 3).astype(np.int32)
        ints = b[:, 0] | (b[:, 1] << 8) | (b[:, 2] << 16)
        x = np.where(ints >= 1 << 23, ints - (1 << 24), ints) / 2.0**23
    else:
        x = np.frombuffer(body, "<f4").astype(np.float64)
    return fs, x.reshape(-1, channels).T, fmt
