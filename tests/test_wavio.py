import os
import stat
import struct
import tracemalloc

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from roomforge import AudioSignal, ValidationError
from roomforge import wavio
from roomforge.wavio import atomic_write, read_wav, write_wav


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


@pytest.mark.parametrize("parity", [0, 1], ids=["even-frames", "odd-frames"])
@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
@settings(max_examples=30, deadline=None, suppress_health_check=[HealthCheck.function_scoped_fixture])
@given(shape=st.tuples(st.integers(1, 8), st.integers(1, 40)), data=st.data())
def test_round_trip_returns_the_quantized_samples(tmp_path, fmt, parity, shape, data):
    channels, half = shape
    frames = 2 * half - 1 + parity
    x = data.draw(arrays(np.float64, (channels, frames), elements=st.floats(-1.25, 1.25)))
    if fmt == "float32":
        expected = x.astype(np.float32).astype(np.float64)
    else:
        # scaled by 2**(bits - 1), rounded half to even and clipped to the integer range
        full = 2.0 ** (int(fmt[3:]) - 1)
        expected = np.clip(np.round(x * full), -full, full - 1) / full
    path = tmp_path / "x.wav"
    write_wav(path, AudioSignal(22050, x), fmt=fmt)
    back = read_wav(path)
    assert back.sample_rate == 22050
    assert np.array_equal(back.data, expected)


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


def test_sample_rate_of_zero_rejected_naming_the_file(tmp_path):
    path = tmp_path / "zero.wav"
    write_wav(path, AudioSignal(16000, np.linspace(-0.5, 0.5, 100)), fmt="pcm16")
    raw = bytearray(path.read_bytes())
    struct.pack_into("<II", raw, 24, 0, 0)  # the fmt chunk's sample rate and byte rate
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError) as exc_info:
        read_wav(path)
    assert str(exc_info.value) == f"{path}: invalid sample rate 0"


@pytest.mark.parametrize("fmt", ["pcm16", "pcm24", "float32"])
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_samples_not_written(tmp_path, fmt, bad):
    path = tmp_path / "bad.wav"
    with pytest.raises(ValidationError, match="bad.wav.*NaN or infinite"):
        write_wav(path, AudioSignal(16000, np.array([[0.1, 0.2], [0.3, bad]])), fmt=fmt)
    assert not path.exists()


@pytest.mark.parametrize("big", [1e39, -1e39])
def test_float32_overflow_not_written(tmp_path, recwarn, big):
    path = tmp_path / "big.wav"
    with pytest.raises(ValidationError, match="big.wav.*past float32's range"):
        write_wav(path, AudioSignal(16000, np.array([[0.1, 0.2], [0.3, big]])), fmt="float32")
    assert not path.exists()
    assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]


def test_largest_float32_magnitudes_round_trip(tmp_path):
    x = np.array([3.0e38, -3.0e38, float(np.finfo(np.float32).max)])
    write_wav(tmp_path / "big.wav", AudioSignal(16000, x), fmt="float32")
    np.testing.assert_array_equal(read_wav(tmp_path / "big.wav").mono, x.astype(np.float32))


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_float32_rejected_on_read(tmp_path, bad):
    path = tmp_path / "nan.wav"
    write_wav(path, AudioSignal(16000, np.array([0.1, 0.2, 0.3])), fmt="float32")
    raw = bytearray(path.read_bytes())
    raw[-4:] = np.float32(bad).tobytes()  # the last sample
    path.write_bytes(bytes(raw))
    with pytest.raises(ValidationError, match="nan.wav.*NaN or infinite"):
        read_wav(path)


@pytest.mark.parametrize(
    "fmt,frames", [("pcm16", 2**31), ("pcm24", 2**30 + 2**29), ("float32", 2**30)]
)
def test_riff_size_over_4_gib_rejected_before_any_sample_work(tmp_path, fmt, frames):
    # a zero-stride view: the shape says 4 GiB of payload, nothing is allocated
    huge = AudioSignal(16000, np.broadcast_to(np.zeros(1), (1, frames)))
    path = tmp_path / "huge.wav"
    with pytest.raises(ValidationError, match="huge.wav.*4 GiB"):
        write_wav(path, huge, fmt=fmt)
    assert not path.exists()


@pytest.mark.parametrize(
    "fmt,channels,extra",
    [("pcm16", 1, 1), ("pcm24", 1, 1), ("float32", 1, 2), ("pcm16", 2, 2), ("pcm24", 2, 3)],
)
def test_partial_frame_rejected(tmp_path, fmt, channels, extra):
    # the last two cases end in whole samples but half a frame, which used to be dropped
    path = tmp_path / "odd.wav"
    write_wav(path, AudioSignal(16000, np.zeros((channels, 10))), fmt=fmt)
    raw = bytearray(path.read_bytes() + bytes(extra))
    (data_size,) = struct.unpack_from("<I", raw, 40)
    struct.pack_into("<I", raw, 40, data_size + extra)
    struct.pack_into("<I", raw, 4, len(raw) - 8)
    path.write_bytes(bytes(raw))
    frame = channels * {"pcm16": 2, "pcm24": 3, "float32": 4}[fmt]
    with pytest.raises(
        ValidationError,
        match=rf"odd.wav: data chunk of {data_size + extra} bytes is not a whole number "
        rf"of {frame}-byte frames",
    ):
        read_wav(path)


@pytest.mark.parametrize("bits", [16, 24])
@pytest.mark.parametrize("channels", [1, 3])
def test_pcm_samples_decode_exactly(tmp_path, bits, channels):
    width = bits // 8
    full = 2 ** (bits - 1)
    extremes = b"".join(v.to_bytes(width, "little", signed=True) for v in (-full, full - 1, -1, 0, 1))
    noise = np.random.default_rng(bits + channels).integers(0, 256, 600 * width, dtype=np.uint8)
    data = (extremes + noise.tobytes())[: 201 * channels * width]
    path = tmp_path / "pcm.wav"
    write_wav(path, AudioSignal(16000, np.zeros((channels, 201))), fmt=f"pcm{bits}")
    path.write_bytes(path.read_bytes()[:44] + data)
    expected = [
        int.from_bytes(data[i : i + width], "little", signed=True) / full
        for i in range(0, len(data), width)
    ]
    np.testing.assert_array_equal(read_wav(path).data, np.reshape(expected, (-1, channels)).T)


def test_pcm16_read_peak_memory_is_the_output_and_the_file(tmp_path):
    # 8 channels, 2 s at 16 kHz: a 512 KB file that decodes to 2 MB of float64
    x = np.clip(0.2 * np.random.default_rng(3).standard_normal((8, 32000)), -1, 1)
    path = tmp_path / "array.wav"
    write_wav(path, AudioSignal(16000, x), fmt="pcm16")
    tracemalloc.start()
    try:
        back = read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: the output plus the file's bytes plus about 1 KiB.  A copy of
    # the data chunk adds another 512 KB, a second float64 array 2 MB.
    assert peak <= back.data.nbytes + path.stat().st_size + 64 * 1024


def test_float32_read_peak_memory_is_the_output_and_the_file(tmp_path):
    # the same 8 x 32000 array as float32: a 1 MB file that decodes to 2 MB of float64
    x = np.clip(0.2 * np.random.default_rng(3).standard_normal((8, 32000)), -1, 1)
    path = tmp_path / "array.wav"
    write_wav(path, AudioSignal(16000, x), fmt="float32")
    tracemalloc.start()
    try:
        back = read_wav(path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # a per-sample finiteness mask adds 256 KB
    assert peak <= back.data.nbytes + path.stat().st_size + 64 * 1024


@pytest.mark.parametrize("bits", [16, 24])
def test_pcm_encoding_rounds_half_to_even_clips_and_interleaves(tmp_path, bits):
    full = 2 ** (bits - 1)
    codes = [-full - 5.0, -full, -2.5, -1.5, -0.5, 0.0, 0.5, 1.5, 2.5, 7.25, full - 1.0, full + 3.0]
    x = np.array(codes) / full
    path = tmp_path / "ties.wav"
    write_wav(path, AudioSignal(16000, np.stack([x, -x])), fmt=f"pcm{bits}")
    expected = b"".join(
        min(max(round(code), -full), full - 1).to_bytes(bits // 8, "little", signed=True)
        for pair in zip(codes, [-c for c in codes])
        for code in pair
    )
    assert path.read_bytes()[44:] == expected


@pytest.mark.parametrize("fmt,share", [("pcm16", 1.25), ("pcm24", 1.5), ("float32", 0.5)])
def test_write_peak_memory_is_one_scaled_copy_and_the_file(tmp_path, fmt, share):
    # the same 8 x 32000 array: 2 MB of float64 input
    x = np.clip(0.2 * np.random.default_rng(3).standard_normal((8, 32000)), -1, 1)
    signal = AudioSignal(16000, x)
    path = tmp_path / "array.wav"
    tracemalloc.start()
    try:
        write_wav(path, signal, fmt=fmt)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    # measured: pcm16 holds the float64 scaled samples and the file's bytes
    # (1.25x the input); pcm24 the scaled samples and their int32 cast (1.5x);
    # float32 only the file's bytes (0.5x).  Separate round, clip and int64
    # temporaries, a payload copy and a header + payload concatenation peaked
    # at 2.0x, 3.4x and 1.0x.
    assert peak <= share * x.nbytes + 64 * 1024


class _HalfWriter:
    """A file whose ``write`` stores half of the bytes, then fails like a full disk."""

    def __init__(self, f):
        self._f = f

    def write(self, data):
        self._f.write(data[: len(data) // 2])
        raise OSError("disk full")

    def __enter__(self):
        return self

    def __exit__(self, *exc_info):
        self._f.close()


def _fail_write(monkeypatch):
    monkeypatch.setattr(wavio, "open", lambda *args: _HalfWriter(open(*args)), raising=False)


def _fail_replace(monkeypatch):
    def broken_replace(src, dst):
        raise OSError("cross-device link")

    monkeypatch.setattr(os, "replace", broken_replace)


@pytest.mark.parametrize("fail", [_fail_write, _fail_replace])
def test_failed_atomic_write_keeps_the_old_file(tmp_path, monkeypatch, fail):
    target = tmp_path / "x.wav"
    target.write_bytes(b"old bytes")
    fail(monkeypatch)
    with pytest.raises(OSError):
        atomic_write(target, b"new bytes, a few more of them")
    assert target.read_bytes() == b"old bytes"
    assert list(tmp_path.iterdir()) == [target]  # no .x.wav.<random>.tmp left behind


@pytest.mark.parametrize("umask", [0o022, 0o027], ids=oct)
def test_atomic_write_gives_a_new_file_the_mode_of_open(tmp_path, umask):
    old = os.umask(umask)
    try:
        with open(tmp_path / "plain", "wb"):
            pass
        atomic_write(tmp_path / "atomic", b"x")
    finally:
        os.umask(old)
    modes = [stat.S_IMODE((tmp_path / name).stat().st_mode) for name in ("plain", "atomic")]
    assert modes[0] == modes[1] == 0o666 & ~umask


def test_atomic_write_takes_a_name_of_255_bytes(tmp_path):
    target = tmp_path / ("s" * 251 + ".wav")
    atomic_write(target, b"x")
    assert target.read_bytes() == b"x"
