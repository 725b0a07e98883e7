"""Impulse-response persistence: mono float32 WAV plus a JSON sidecar.

The sidecar records provenance, sample rate, direct-path index and whatever
synthesis/measurement metadata the producer attached, so an IR on disk is
self-describing and reloadable without guesswork.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Union

from .core import AudioSignal, ImpulseResponse, ValidationError
from .wavio import atomic_write, read_wav, write_wav


def sidecar_path(wav_path: Union[str, Path]) -> Path:
    return Path(wav_path).with_suffix(".json")


def save_ir(path: Union[str, Path], ir: ImpulseResponse) -> None:
    """Write ``ir`` to a float32 WAV and its metadata sidecar."""
    write_wav(path, AudioSignal(ir.sample_rate, ir.samples), fmt="float32")
    record = {
        "sample_rate": ir.sample_rate,
        "provenance": ir.provenance,
        "direct_path_index": ir.direct_path_index,
        "meta": ir.meta,
    }
    write_json(sidecar_path(path), record)


def write_json(path: Union[str, Path], doc) -> None:
    """Write ``doc`` as JSON indented by 2 with sorted keys, plus a newline, whole or not at all."""
    atomic_write(path, (json.dumps(doc, indent=2, sort_keys=True) + "\n").encode())


def load_ir(path: Union[str, Path]) -> ImpulseResponse:
    """Load an IR WAV, built with the sidecar's fields when there is one."""
    signal = read_wav(path)
    if signal.num_channels != 1:
        raise ValidationError(f"{path}: impulse responses must be mono")
    record = {}
    sc = sidecar_path(path)
    if sc.exists():
        try:
            record = json.loads(sc.read_text())
        except ValueError as exc:  # JSONDecodeError, or bytes that are not UTF-8
            raise ValidationError(f"{sc}: not a JSON sidecar ({exc})") from None
        if not isinstance(record, dict):
            raise ValidationError(f"{sc}: sidecar must hold a JSON object")
        if record.get("sample_rate") not in (None, signal.sample_rate):
            raise ValidationError(f"{path}: sidecar sample rate disagrees with the WAV")
    try:
        return ImpulseResponse(signal.sample_rate, signal.mono, record.get("provenance", "measured"),
                               record.get("direct_path_index"), record.get("meta", {}))
    except ValidationError as exc:
        where = f"{path} with sidecar {sc}" if sc.exists() else path
        raise ValidationError(f"{where}: {exc}") from None
