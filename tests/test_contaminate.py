import numpy as np
import pytest
from scipy.signal import fftconvolve

from roomforge import (
    AudioSignal,
    ContaminationJob,
    ImpulseResponse,
    ValidationError,
    convolve,
    mix_noise,
    run_job,
)
from roomforge.contaminate import _add_noise, _tile_noise

FS = 16000


def delta_ir(fs=FS, delay=0, length=None):
    h = np.zeros((length or delay + 1))
    h[delay] = 1.0
    return ImpulseResponse(fs, h)


def rms(x):
    return np.sqrt(np.mean(x**2))


class TestConvolve:
    def test_delta_identity(self):
        rng = np.random.default_rng(0)
        x = AudioSignal(FS, rng.standard_normal(1000))
        y = convolve(x, delta_ir())
        np.testing.assert_allclose(y.mono, x.mono, rtol=0, atol=1e-12)

    def test_delayed_delta_shifts(self):
        rng = np.random.default_rng(1)
        x = AudioSignal(FS, rng.standard_normal(500))
        k = 37
        y = convolve(x, delta_ir(delay=k))
        np.testing.assert_allclose(y.mono[k:], x.mono, rtol=0, atol=1e-12)
        np.testing.assert_allclose(y.mono[:k], np.zeros(k), rtol=0, atol=1e-12)

    def test_matches_nested_loop_oracle(self):
        rng = np.random.default_rng(2)
        x = rng.standard_normal(16)
        h = rng.standard_normal(4)
        expected = np.zeros(19)
        for i in range(16):
            for j in range(4):
                expected[i + j] += x[i] * h[j]
        got = convolve(AudioSignal(FS, x), ImpulseResponse(FS, h))
        np.testing.assert_allclose(got.mono, expected, rtol=0, atol=1e-12)

    def test_sample_rate_mismatch_rejected(self):
        x = AudioSignal(16000, np.ones(10))
        h = ImpulseResponse(48000, np.ones(4))
        with pytest.raises(ValidationError):
            convolve(x, h)

    def test_linearity(self):
        rng = np.random.default_rng(3)
        x1 = rng.standard_normal(2000)
        x2 = rng.standard_normal(2000)
        h = ImpulseResponse(FS, rng.standard_normal(200))
        a, b = 2.5, -0.7
        lhs = convolve(AudioSignal(FS, a * x1 + b * x2), h).mono
        rhs = a * convolve(AudioSignal(FS, x1), h).mono + b * convolve(AudioSignal(FS, x2), h).mono
        scale = np.max(np.abs(rhs))
        np.testing.assert_allclose(lhs / scale, rhs / scale, rtol=0, atol=1e-9)


class TestMixNoise:
    def test_zero_db_matches_rms(self):
        rng = np.random.default_rng(4)
        y = AudioSignal(FS, rng.standard_normal(FS))
        noise = AudioSignal(FS, rng.standard_normal(FS))
        mixed = mix_noise(y, noise, target_snr_db=0.0, seed=9)
        added = mixed.mono - y.mono
        achieved = 20 * np.log10(rms(y.mono) / rms(added))
        assert abs(achieved) <= 0.01

    def test_gain_formula(self):
        from roomforge.contaminate import noise_gain

        assert noise_gain(0.1, 0.2, 20.0) == pytest.approx(0.05)

    def test_high_snr_is_nearly_clean(self):
        rng = np.random.default_rng(5)
        y = AudioSignal(FS, rng.standard_normal(FS))
        noise = AudioSignal(FS, rng.standard_normal(FS))
        mixed = mix_noise(y, noise, target_snr_db=60.0, seed=1)
        rel_energy = np.sum((mixed.mono - y.mono) ** 2) / np.sum(y.mono**2)
        assert rel_energy <= 1e-3

    def test_snr_accuracy_over_random_trials(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            n_sig = int(rng.integers(FS // 2, 2 * FS))
            n_noise = int(rng.integers(FS // 4, 2 * FS))
            target = float(rng.uniform(-10, 40))
            y = AudioSignal(FS, rng.standard_normal(n_sig))
            noise = AudioSignal(FS, rng.standard_normal(n_noise))
            mixed = mix_noise(y, noise, target_snr_db=target, seed=trial)
            added = mixed.mono - y.mono
            achieved = 20 * np.log10(rms(y.mono) / rms(added))
            assert abs(achieved - target) <= 0.01

    def test_noise_shorter_than_signal_is_tiled(self):
        rng = np.random.default_rng(7)
        y = AudioSignal(FS, rng.standard_normal(4 * FS))
        noise = AudioSignal(FS, rng.standard_normal(FS // 2))
        mixed = mix_noise(y, noise, target_snr_db=10.0, seed=3)
        assert mixed.num_samples == y.num_samples

    def test_silent_signal_rejected(self):
        noise = AudioSignal(FS, np.ones(100))
        with pytest.raises(ValidationError):
            mix_noise(AudioSignal(FS, np.zeros(100)), noise, 10.0, seed=0)

    def test_silent_noise_rejected(self):
        y = AudioSignal(FS, np.ones(100))
        with pytest.raises(ValidationError):
            mix_noise(y, AudioSignal(FS, np.zeros(100)), 10.0, seed=0)

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        y = AudioSignal(FS, rng.standard_normal(FS))
        noise = AudioSignal(FS, rng.standard_normal(FS // 3))
        a = mix_noise(y, noise, 15.0, seed=42)
        b = mix_noise(y, noise, 15.0, seed=42)
        assert np.array_equal(a.data, b.data)


def loop_tile_noise(noise, length, offset, fade):
    """Reference: the crossfaded wrap written as a copy-per-wrap loop."""
    n = noise.size
    offset = offset % n
    rolled = np.roll(noise, -offset)
    if length <= n:
        return rolled[:length].copy()
    fade = min(fade, n // 2)
    if fade > 0:
        ramp = np.linspace(0.0, 1.0, fade, endpoint=False)
        body = rolled.copy()
        body[:fade] = ramp * body[:fade] + (1.0 - ramp) * rolled[n - fade :]
        hop = n - fade
    else:
        body = rolled
        hop = n
    reps = int(np.ceil((length - n) / hop)) + 1
    out = np.empty(n + (reps - 1) * hop)
    out[:n] = rolled
    pos = n - fade if fade > 0 else n
    for _ in range(reps - 1):
        out[pos : pos + n] = body if fade > 0 else rolled
        pos += hop
    return out[:length]


class TestTileNoise:
    def test_matches_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n = int(rng.integers(1, 200))
            length = int(rng.integers(1, 1500))
            offset = int(rng.integers(0, 3 * n))
            fade = int(rng.integers(0, n + 5))  # up to past n // 2, where it is clamped
            noise = rng.standard_normal(n)
            assert np.array_equal(
                _tile_noise(noise, length, offset, fade), loop_tile_noise(noise, length, offset, fade)
            )

    @pytest.mark.parametrize(
        "n, length, fade",
        [
            (100, 1000, 0),  # plain repetition
            (100, 1000, 80),  # fade > n / 2, clamped to n // 2
            (100, 1000, 50),
            (100, 100, 10),  # length == n: a crop, no wrap
            (100, 37, 10),  # length < n
            (1, 20, 5),
            (160, 16000, 160),
        ],
    )
    def test_edge_cases(self, n, length, fade):
        noise = np.random.default_rng(n + length).standard_normal(n)
        for offset in (0, 1, n - 1, n + 3):
            got = _tile_noise(noise, length, offset, fade)
            assert got.shape == (length,)
            assert np.array_equal(got, loop_tile_noise(noise, length, offset, fade))


class TestRunJob:
    def _speech(self, seconds=1.0, seed=12):
        rng = np.random.default_rng(seed)
        return AudioSignal(FS, 0.2 * rng.standard_normal(int(seconds * FS)))

    def _irs(self, n, seed=13):
        rng = np.random.default_rng(seed)
        out = []
        for _ in range(n):
            h = rng.standard_normal(400) * np.exp(-np.arange(400) / 60.0)
            out.append(ImpulseResponse(FS, 0.05 * h))
        return out

    def test_six_channel_output(self):
        job = ContaminationJob(clean=self._speech(), irs=self._irs(6))
        out = run_job(job)
        assert out.num_channels == 6
        assert out.num_samples == FS + 400 - 1

    def test_delta_ir_no_noise_is_identity(self):
        x = self._speech()
        job = ContaminationJob(clean=x, irs=[delta_ir()])
        out = run_job(job)
        np.testing.assert_allclose(out.data[0], x.mono, rtol=0, atol=1e-12)

    def test_identical_seeds_are_bit_identical(self):
        rng = np.random.default_rng(14)
        noise = AudioSignal(FS, rng.standard_normal(FS // 2))
        kwargs = dict(
            clean=self._speech(),
            irs=self._irs(3),
            noise=noise,
            target_snr_db=15.0,
            seed=777,
        )
        a = run_job(ContaminationJob(**kwargs))
        b = run_job(ContaminationJob(**kwargs))
        assert a.data.tobytes() == b.data.tobytes()

    def test_channels_share_noise_offset(self):
        rng = np.random.default_rng(15)
        noise = AudioSignal(FS, rng.standard_normal(2 * FS))
        x = self._speech()
        job = ContaminationJob(
            clean=x, irs=[delta_ir(), delta_ir()], noise=noise, target_snr_db=10.0, seed=5
        )
        out = run_job(job)
        n0 = out.data[0] - x.mono
        n1 = out.data[1] - x.mono
        # same realization up to the per-channel gain
        corr = np.dot(n0, n1) / (np.linalg.norm(n0) * np.linalg.norm(n1))
        assert corr == pytest.approx(1.0, abs=1e-9)

    def test_per_channel_snr(self):
        rng = np.random.default_rng(16)
        noise = AudioSignal(FS, rng.standard_normal(FS))
        job = ContaminationJob(
            clean=self._speech(), irs=self._irs(4), noise=noise, target_snr_db=12.0, seed=6
        )
        out = run_job(job)
        clean_job = ContaminationJob(clean=self._speech(), irs=self._irs(4))
        dry = run_job(clean_job)
        for ch in range(4):
            added = out.data[ch] - dry.data[ch]
            achieved = 20 * np.log10(rms(dry.data[ch]) / rms(added))
            assert achieved == pytest.approx(12.0, abs=0.01)

    def test_peak_normalization_preserves_ratios(self):
        job = ContaminationJob(clean=self._speech(), irs=self._irs(3), normalization="peak")
        out = run_job(job)
        ref = run_job(ContaminationJob(clean=self._speech(), irs=self._irs(3)))
        assert np.max(np.abs(out.data)) == pytest.approx(10 ** (-1 / 20), abs=1e-12)
        ratio = out.data / ref.data
        finite = np.isfinite(ratio) & (ref.data != 0)
        assert np.allclose(ratio[finite], ratio[finite].flat[0])

    def test_noise_without_snr_rejected(self):
        with pytest.raises(ValidationError):
            ContaminationJob(
                clean=self._speech(), irs=[delta_ir()], noise=AudioSignal(FS, np.ones(10))
            )

    def test_snr_without_noise_rejected(self):
        with pytest.raises(ValidationError):
            ContaminationJob(clean=self._speech(), irs=[delta_ir()], target_snr_db=20.0)

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            ContaminationJob(clean=self._speech(), irs=[delta_ir(fs=48000)])

    def test_noise_at_another_rate_rejected(self):
        noise = AudioSignal(48000, np.random.default_rng(20).standard_normal(48000))
        job = ContaminationJob(clean=self._speech(), irs=[delta_ir()], noise=noise, target_snr_db=10.0)
        with pytest.raises(ValidationError, match="sample-rate mismatch between signal and noise"):
            run_job(job)

    def test_mono_job_equals_convolve_then_mix_noise(self):
        # convolve + mix_noise and run_job share one convolution and one noise path
        rng = np.random.default_rng(18)
        x = self._speech(seconds=1.5)
        h = self._irs(1)[0]
        for seconds in (0.3, 3.0):  # noise shorter (tiled) and longer (cropped) than the output
            noise = AudioSignal(FS, rng.standard_normal(int(seconds * FS)))
            mixed = mix_noise(convolve(x, h), noise, 7.5, seed=31)
            job = run_job(ContaminationJob(clean=x, irs=[h], noise=noise, target_snr_db=7.5, seed=31))
            assert np.array_equal(mixed.mono, job.data[0])

    def test_multichannel_job_equals_fftconvolve_then_add_noise(self):
        # one transform of the clean signal per job gives the per-IR fftconvolve bytes
        rng = np.random.default_rng(19)
        x = self._speech(seconds=1.3)
        irs = self._irs(5) + [delta_ir(delay=900), delta_ir()]
        irs.append(ImpulseResponse(FS, rng.standard_normal(2500)))
        noise = AudioSignal(FS, rng.standard_normal(FS))
        expected = np.zeros((len(irs), x.num_samples + 2500 - 1))
        for i, h in enumerate(irs):
            y = fftconvolve(x.mono, h.samples)
            expected[i, : y.size] = y
        _add_noise(expected, noise, 12.0, 33, FS)
        job = ContaminationJob(clean=x, irs=irs, noise=noise, target_snr_db=12.0, seed=33)
        assert run_job(job).data.tobytes() == expected.tobytes()

    def test_silent_channel_rejected(self):
        job = ContaminationJob(
            clean=AudioSignal(FS, np.zeros(FS)),
            irs=[delta_ir()],
            noise=AudioSignal(FS, np.ones(100)),
            target_snr_db=10.0,
        )
        with pytest.raises(ValidationError, match="channel 0 is silent"):
            run_job(job)
