import tracemalloc

import numpy as np
import pytest
from scipy.signal import fftconvolve

from contaminate_reference import loop_tile_noise, whole_array_contaminate
from roomforge import (
    AudioSignal,
    ContaminationJob,
    ImpulseResponse,
    ValidationError,
    convolve,
    mix_noise,
    run_job,
)
from roomforge.contaminate import _tile_noise, job_channels

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

    @pytest.mark.parametrize("nx, nh", [(1000, 1), (1, 300), (1, 1), (2, 2), (4801, 2500)])
    def test_equals_fftconvolve_bit_for_bit(self, nx, nh):
        rng = np.random.default_rng(nx + nh)
        x, h = rng.standard_normal(nx), rng.standard_normal(nh)
        got = convolve(AudioSignal(FS, x), ImpulseResponse(FS, h))
        assert got.mono.tobytes() == fftconvolve(x, h).tobytes()

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

    @pytest.mark.parametrize("seconds", [0.3, 3.0], ids=["tiled", "cropped"])
    def test_equals_the_whole_array_formula_with_a_unit_ir(self, seconds):
        rng = np.random.default_rng(int(10 * seconds))
        y = AudioSignal(FS, rng.standard_normal(int(1.5 * FS)))
        noise = AudioSignal(FS, rng.standard_normal(int(seconds * FS)))
        expected = whole_array_contaminate(y.mono, [ImpulseResponse(FS, np.ones(1))], noise, 7.5, 31)
        assert mix_noise(y, noise, 7.5, seed=31).data.tobytes() == expected.tobytes()

    def test_deterministic_given_seed(self):
        rng = np.random.default_rng(8)
        y = AudioSignal(FS, rng.standard_normal(FS))
        noise = AudioSignal(FS, rng.standard_normal(FS // 3))
        a = mix_noise(y, noise, 15.0, seed=42)
        b = mix_noise(y, noise, 15.0, seed=42)
        assert np.array_equal(a.data, b.data)


class TestTileNoise:
    def test_matches_loop_reference_bit_for_bit(self):
        rng = np.random.default_rng(17)
        for _ in range(2000):
            n = int(rng.integers(1, 200))
            length = int(rng.integers(1, 1500))
            offset = int(rng.integers(0, 3 * n))
            fade = int(rng.integers(0, n + 5))  # up to past n // 2, where it is clamped
            noise = rng.standard_normal(n)
            got = _tile_noise(noise, np.empty(length), offset, fade)
            assert np.array_equal(got, loop_tile_noise(noise, length, offset, fade))

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
            got = _tile_noise(noise, np.empty(length), offset, fade)
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
        with pytest.raises(ValidationError, match="sample-rate mismatch between signal and noise"):
            ContaminationJob(clean=self._speech(), irs=[delta_ir()], noise=noise, target_snr_db=10.0)

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
        expected = whole_array_contaminate(x.mono, irs, noise, 12.0, 33)
        job = ContaminationJob(clean=x, irs=irs, noise=noise, target_snr_db=12.0, seed=33)
        assert run_job(job).data.tobytes() == expected.tobytes()

    def test_peak_job_of_unequal_irs_equals_the_whole_array_formula(self):
        # the joint peak is taken over every channel, each zero-padded to the longest
        rng = np.random.default_rng(21)
        x = self._speech(seconds=1.1)
        irs = self._irs(2) + [ImpulseResponse(FS, 0.05 * rng.standard_normal(2500)), delta_ir(delay=30)]
        noise = AudioSignal(FS, rng.standard_normal(FS // 3))
        for mix in ({}, {"noise": noise, "target_snr_db": 9.0, "seed": 5}):
            job = ContaminationJob(clean=x, irs=irs, normalization="peak", **mix)
            expected = whole_array_contaminate(x.mono, irs, normalization="peak", **mix)
            assert run_job(job).data.tobytes() == expected.tobytes()

    def test_channels_are_made_one_at_a_time(self):
        # every sample of clean * faint squares to below the least float64, so
        # channel 1 is silent; it fails only when taken, after channel 0 came whole
        x = AudioSignal(FS, np.random.default_rng(22).uniform(-0.4, 0.4, FS))
        faint = ImpulseResponse(FS, 3.2e-162 * delta_ir(delay=10, length=50).samples)
        job = ContaminationJob(clean=x, irs=[delta_ir(), faint, delta_ir()],
                               noise=AudioSignal(FS, np.ones(100)), target_snr_db=10.0)
        channels = job_channels(job)
        assert next(channels).shape == (FS + 49,)
        with pytest.raises(ValidationError, match="channel 1 is silent, cannot set SNR"):
            next(channels)

    def test_silent_channel_rejected(self):
        job = ContaminationJob(
            clean=AudioSignal(FS, np.zeros(FS)),
            irs=[delta_ir()],
            noise=AudioSignal(FS, np.ones(100)),
            target_snr_db=10.0,
        )
        with pytest.raises(ValidationError, match="channel 0 is silent"):
            run_job(job)


EMPTY = AudioSignal(FS, np.zeros(0))
SOME = AudioSignal(FS, np.random.default_rng(23).standard_normal(200))


@pytest.mark.parametrize(
    "call, message",
    [
        (lambda: convolve(EMPTY, delta_ir()), "clean signal has no samples"),
        (lambda: mix_noise(EMPTY, SOME, 10.0, seed=0), "clean signal has no samples"),
        (lambda: run_job(ContaminationJob(EMPTY, [delta_ir()])), "clean signal has no samples"),
        (lambda: mix_noise(SOME, EMPTY, 10.0, seed=0), "noise signal has no samples"),
        (lambda: ContaminationJob(SOME, [delta_ir()], noise=EMPTY, target_snr_db=10.0),
         "noise signal has no samples"),
    ],
    ids=["convolve", "mix-noise", "run-job", "mix-noise-noise", "job-noise"],
)
def test_signal_with_no_samples_rejected(call, message):
    with pytest.raises(ValidationError, match=message):
        call()


@pytest.mark.parametrize(
    "snr_db",
    [float("nan"), float("inf"), float("-inf"), True, np.True_, "10", 1e308, -1e308],
    ids=["nan", "inf", "minus-inf", "bool", "numpy-bool", "string", "overflow", "underflow"],
)
def test_snr_that_the_noise_gain_cannot_take_is_refused(snr_db):
    # the gain divides by 10 ** (snr_db / 20): it must be a positive finite float
    with pytest.raises(ValidationError, match="snr_db"):
        ContaminationJob(SOME, [delta_ir()], noise=SOME, target_snr_db=snr_db)
    with pytest.raises(ValidationError, match="snr_db"):
        mix_noise(SOME, SOME, snr_db, seed=0)


@pytest.mark.parametrize("seed", [True, np.True_, -1, 1.5, "3"])
def test_seed_that_is_not_a_natural_number_is_refused(seed):
    with pytest.raises(ValidationError, match="^seed must be "):
        ContaminationJob(SOME, [delta_ir()], seed=seed)
    with pytest.raises(ValidationError, match="^seed must be "):
        mix_noise(SOME, SOME, 10.0, seed=seed)


def test_numpy_snr_and_seed_build_their_twins():
    built = ContaminationJob(SOME, [delta_ir()], noise=SOME, target_snr_db=np.int64(12), seed=np.uint64(5))
    twin = ContaminationJob(SOME, [delta_ir()], noise=SOME, target_snr_db=12.0, seed=5)
    assert type(built.target_snr_db) is float and type(built.seed) is int
    assert run_job(built).data.tobytes() == run_job(twin).data.tobytes()


def test_silent_noise_is_refused_by_the_job():
    # a job that exists can run: the noise checks are the job's, not job_channels'
    with pytest.raises(ValidationError, match="noise signal is silent"):
        ContaminationJob(SOME, [delta_ir()], noise=AudioSignal(FS, np.zeros(50)), target_snr_db=10.0)


@pytest.mark.parametrize("function, bound", [("mix_noise", 3.5), ("convolve", 3.1)])
def test_peak_memory_is_a_few_signal_sizes(function, bound):
    # 20 s at 48 kHz with a 0.5 s IR and 3 s of noise: noise mixing holds the output,
    # the tile and its scratch row; convolution the output and the two spectra
    fs = 48000
    rng = np.random.default_rng(24)
    x = AudioSignal(fs, rng.standard_normal(20 * fs))
    h = ImpulseResponse(fs, 0.05 * rng.standard_normal(fs // 2))
    noise = AudioSignal(fs, rng.standard_normal(3 * fs))
    call = {"mix_noise": lambda: mix_noise(x, noise, 10.0, seed=1), "convolve": lambda: convolve(x, h)}
    convolve(AudioSignal(fs, np.ones(8)), ImpulseResponse(fs, np.ones(8)))  # imports numpy.fft, loaded on first use
    tracemalloc.start()
    try:
        call[function]()
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= bound * x.data.nbytes
