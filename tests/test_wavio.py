import struct

import numpy as np
import pytest

from roomforge import AudioSignal, ValidationError
from roomforge.wavio import read_wav, write_wav


@pytest.fixture
def signal():
    rng = np.random.default_rng(11)
    return AudioSignal(48000, 0.5 * rng.uniform(-1, 1, (2, 4800)))


@pytest.mark.parametrize("fmt,tol", [("pcm16", 2**-15), ("pcm24", 2**-23), ("float32", 1e-7)])
def test_round_trip(tmp_path, signal, fmt, tol):
    path = tmp_path / "x.wav"
    write_wav(path, signal, fmt=fmt)
    back = read_wav(path)
    assert back.sample_rate == 48000
    assert back.num_channels == 2
    assert back.num_samples == 4800
    np.testing.assert_allclose(back.data, signal.data, atol=tol)


def test_mono_round_trip(tmp_path):
    sig = AudioSignal(16000, np.linspace(-0.9, 0.9, 160))
    path = tmp_path / "m.wav"
    write_wav(path, sig, fmt="pcm24")
    back = read_wav(path)
    assert back.num_channels == 1
    np.testing.assert_allclose(back.mono, sig.mono, atol=2**-23)


def test_pcm_clipping_is_clamped(tmp_path):
    sig = AudioSignal(16000, np.array([1.5, -1.5, 0.0]))
    path = tmp_path / "c.wav"
    write_wav(path, sig, fmt="pcm16")
    back = read_wav(path)
    assert back.mono[0] == pytest.approx((2**15 - 1) / 2**15)
    assert back.mono[1] == pytest.approx(-1.0)


def test_deterministic_bytes(tmp_path, signal):
    p1 = tmp_path / "a.wav"
    p2 = tmp_path / "b.wav"
    write_wav(p1, signal)
    write_wav(p2, signal)
    assert p1.read_bytes() == p2.read_bytes()


def test_unknown_format_rejected(tmp_path, signal):
    with pytest.raises(ValidationError):
        write_wav(tmp_path / "x.wav", signal, fmt="pcm8")


def test_non_wav_rejected(tmp_path):
    path = tmp_path / "x.wav"
    path.write_bytes(b"definitely not audio")
    with pytest.raises(ValidationError):
        read_wav(path)


def test_truncated_data_chunk_rejected(tmp_path):
    path = tmp_path / "full.wav"
    write_wav(path, AudioSignal(16000, np.linspace(-0.5, 0.5, 10000)), fmt="pcm16")
    cut = tmp_path / "cut.wav"
    cut.write_bytes(path.read_bytes()[:5000])
    with pytest.raises(ValidationError, match="cut.wav.*truncated"):
        read_wav(cut)


def test_short_fmt_chunk_rejected(tmp_path):
    path = tmp_path / "short.wav"
    body = b"WAVE" + b"fmt " + struct.pack("<I", 4) + b"\x01\x00\x01\x00"
    body += b"data" + struct.pack("<I", 4) + bytes(4)
    path.write_bytes(b"RIFF" + struct.pack("<I", len(body)) + body)
    with pytest.raises(ValidationError, match="short.wav.*fmt chunk"):
        read_wav(path)
