import json

import numpy as np
import pytest

from roomforge import AudioSignal, ImpulseResponse, ValidationError
from roomforge.storage import load_ir, save_ir, sidecar_path
from roomforge.wavio import write_wav

FS = 16000


def make_ir():
    rng = np.random.default_rng(40)
    h = rng.standard_normal(800) * np.exp(-np.arange(800) / 100.0)
    return ImpulseResponse(
        FS, 0.1 * h, provenance="image-method", direct_path_index=12, meta={"order": 3}
    )


def test_round_trip(tmp_path):
    ir = make_ir()
    path = tmp_path / "h.wav"
    save_ir(path, ir)
    assert sidecar_path(path).exists()
    back = load_ir(path)
    assert back.sample_rate == FS
    assert back.provenance == "image-method"
    assert back.direct_path_index == 12
    assert back.meta == {"order": 3}
    np.testing.assert_allclose(back.samples, ir.samples, atol=1e-6)


def test_sidecar_is_sorted_json(tmp_path):
    path = tmp_path / "h.wav"
    save_ir(path, make_ir())
    record = json.loads(sidecar_path(path).read_text())
    assert list(record) == sorted(record)
    assert record["sample_rate"] == FS


def test_load_without_sidecar_defaults_to_measured(tmp_path):
    path = tmp_path / "bare.wav"
    rng = np.random.default_rng(41)
    write_wav(path, AudioSignal(FS, 0.3 * rng.standard_normal(500)), fmt="float32")
    ir = load_ir(path)
    assert ir.provenance == "measured"
    assert ir.meta == {}


def test_rate_disagreement_rejected(tmp_path):
    path = tmp_path / "h.wav"
    save_ir(path, make_ir())
    record = json.loads(sidecar_path(path).read_text())
    record["sample_rate"] = 48000
    sidecar_path(path).write_text(json.dumps(record))
    with pytest.raises(ValidationError):
        load_ir(path)


def test_multichannel_rejected(tmp_path):
    path = tmp_path / "st.wav"
    write_wav(path, AudioSignal(FS, np.ones((2, 100))), fmt="float32")
    with pytest.raises(ValidationError):
        load_ir(path)


def test_save_is_deterministic(tmp_path):
    ir = make_ir()
    a = tmp_path / "a.wav"
    b = tmp_path / "b.wav"
    save_ir(a, ir)
    save_ir(b, ir)
    assert a.read_bytes() == b.read_bytes()
    assert sidecar_path(a).read_bytes() == sidecar_path(b).read_bytes()


def test_envelope_maximum_index_round_trips(tmp_path):
    h = np.zeros(300)
    h[40] = -0.5
    h[90] = 0.25
    path = tmp_path / "h.wav"
    save_ir(path, ImpulseResponse(FS, h))
    assert json.loads(sidecar_path(path).read_text())["direct_path_index"] == 40
    assert load_ir(path).direct_path_index == 40


@pytest.mark.parametrize("field, value", [
    ("direct_path_index", "7"),
    ("direct_path_index", 3.5),
    ("direct_path_index", True),
    ("direct_path_index", -1),
    ("direct_path_index", 800),
    ("direct_path_index", 10**9),
    ("provenance", "banana"),
])
def test_bad_sidecar_field_names_the_sidecar(tmp_path, field, value):
    path = tmp_path / "h.wav"
    save_ir(path, make_ir())
    record = json.loads(sidecar_path(path).read_text())
    record[field] = value
    sidecar_path(path).write_text(json.dumps(record))
    with pytest.raises(ValidationError, match="h.json"):
        load_ir(path)


@pytest.mark.parametrize("text", ["{broken", "[1, 2]", b"\xff\xfe\x00"])
def test_broken_sidecar_names_the_sidecar(tmp_path, text):
    path = tmp_path / "h.wav"
    save_ir(path, make_ir())
    sc = sidecar_path(path)
    sc.write_bytes(text if isinstance(text, bytes) else text.encode())
    with pytest.raises(ValidationError, match="h.json"):
        load_ir(path)
