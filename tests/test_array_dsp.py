import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from gcc_phat_reference import reference_parabolic_delay
from roomforge import (
    AudioSignal,
    ValidationError,
    delay_and_sum,
    gcc_phat,
    oracle_select,
    steer_and_sum,
)
from roomforge import array_dsp
from roomforge.array_dsp import _fft_size, _phase_ramp

FS = 16000


def _fractional_shift(x, shift, pad):
    """``x`` delayed by ``shift`` samples with delay_and_sum's phase ramp, ``pad`` samples longer."""
    n = x.size + pad
    nfft = _fft_size(n)
    return np.fft.irfft(np.fft.rfft(x, nfft) * _phase_ramp(shift, nfft), nfft)[:n]


def white(n, seed, scale=1.0):
    return scale * np.random.default_rng(seed).standard_normal(n)


def rms(x):
    return np.sqrt(np.mean(x**2))


class TestGccPhat:
    def test_zero_delay_on_identical_channels(self):
        x = AudioSignal(FS, white(FS, 0))
        est = gcc_phat(x, x)
        assert est.delay == 0.0
        assert est.peak_value == pytest.approx(1.0, abs=1e-6)

    def test_integer_delay_exact(self):
        base = white(FS, 1)
        k = 25
        a = AudioSignal(FS, base)
        b = AudioSignal(FS, np.concatenate([np.zeros(k), base]))
        est = gcc_phat(a, b)
        assert est.delay * FS == pytest.approx(k, abs=1e-9)

    def test_many_integer_delays_exact(self):
        rng = np.random.default_rng(2)
        base = white(FS, 3)
        for _ in range(20):
            k = int(rng.integers(-100, 101))
            shifted = np.roll(base, k)
            est = gcc_phat(AudioSignal(FS, base), AudioSignal(FS, shifted))
            assert round(est.delay * FS) == k

    def test_fractional_delay_parabolic(self):
        base = white(4 * FS, 4)
        d = 10.5
        shifted = _fractional_shift(base, d, pad=16)[: base.size]
        est = gcc_phat(
            AudioSignal(FS, base), AudioSignal(FS, shifted), interpolation="parabolic"
        )
        assert est.delay * FS == pytest.approx(d, abs=0.1)

    def test_antisymmetry(self):
        base = white(FS, 5)
        shifted = np.roll(base, 17)
        a = AudioSignal(FS, base)
        b = AudioSignal(FS, shifted)
        fwd = gcc_phat(a, b)
        rev = gcc_phat(b, a)
        assert fwd.delay == -rev.delay

    def test_amplitude_invariance(self):
        base = white(FS, 6)
        shifted = np.roll(base, 12)
        ref = gcc_phat(AudioSignal(FS, base), AudioSignal(FS, shifted))
        scaled = gcc_phat(AudioSignal(FS, base), AudioSignal(FS, 0.01 * shifted))
        assert scaled.delay == ref.delay
        assert scaled.peak_value == pytest.approx(ref.peak_value, rel=1e-6)

    def test_confidence_high_for_coherent_pair(self):
        base = white(FS, 7)
        est = gcc_phat(AudioSignal(FS, base), AudioSignal(FS, np.roll(base, 9)))
        assert est.confidence > 5.0

    def test_confidence_low_for_incoherent_pair(self):
        est = gcc_phat(AudioSignal(FS, white(FS, 8)), AudioSignal(FS, white(FS, 9)))
        assert est.confidence < 3.0

    def test_silent_channel_rejected(self):
        x = AudioSignal(FS, white(100, 10))
        with pytest.raises(ValidationError):
            gcc_phat(x, AudioSignal(FS, np.zeros(100)))

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            gcc_phat(AudioSignal(16000, np.ones(64)), AudioSignal(48000, np.ones(64)))

    def test_unknown_interpolation_rejected(self):
        x = AudioSignal(FS, white(256, 11))
        with pytest.raises(ValidationError):
            gcc_phat(x, x, interpolation="cubic")

    @pytest.mark.parametrize("max_delay", [-0.001, -1e-9, math.nan, math.inf, -math.inf])
    def test_negative_or_non_finite_max_delay_rejected(self, max_delay):
        x = AudioSignal(FS, white(256, 12))
        with pytest.raises(ValidationError, match="max_delay"):
            gcc_phat(x, x, max_delay=max_delay)

    @pytest.mark.parametrize("interpolation", ["none", "parabolic"])
    def test_zero_max_delay_searches_lag_zero_only(self, interpolation):
        base = white(FS, 13)
        est = gcc_phat(
            AudioSignal(FS, base), AudioSignal(FS, np.roll(base, 5)),
            max_delay=0.0, interpolation=interpolation,
        )
        assert abs(est.delay * FS) <= 1.0


@st.composite
def delayed_pair(draw):
    """Two noisy copies of white noise, the second delayed by a fractional lag."""
    n = draw(st.integers(64, 6000))
    max_lag = draw(st.integers(1, 40))
    bound = max_lag + 0.5
    delay = draw(
        st.one_of(
            st.floats(-bound, bound),
            st.sampled_from([-1.0, 1.0]).map(lambda s: s * max_lag)
            .flatmap(lambda edge: st.floats(edge - 0.5, edge + 0.5)),
        )
    )
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    base = rng.standard_normal(n)
    shifted = _fractional_shift(base, abs(delay), pad=48)[:n]
    a, b = (base, shifted) if delay >= 0 else (shifted, base)
    b = b[: n - draw(st.integers(0, min(50, n - 1)))]
    noise = draw(st.floats(0.0, 2.0))
    a = a + noise * rng.standard_normal(a.size)
    b = b + noise * rng.standard_normal(b.size)
    return a, b, max_lag


class TestParabolicAgainstOracle:
    @settings(max_examples=80, deadline=None)
    @given(delayed_pair())
    def test_matches_outer_product_grid(self, case):
        a, b, max_lag = case
        est = gcc_phat(
            AudioSignal(FS, a), AudioSignal(FS, b), max_delay=max_lag / FS, interpolation="parabolic"
        )
        assert est.delay * FS == pytest.approx(reference_parabolic_delay(a, b, max_lag), abs=1e-9)

    def test_peak_memory_of_one_call(self):
        # 2 s at 16 kHz: nfft 65536; a (129, 32769) complex DFT matrix alone is 68 MB
        base = white(2 * FS, 14)
        a = AudioSignal(FS, base)
        b = AudioSignal(FS, _fractional_shift(base, 3.3, pad=8)[: base.size])
        gcc_phat(a, b, interpolation="parabolic")  # builds the plan outside the trace
        tracemalloc.start()
        try:
            gcc_phat(a, b, interpolation="parabolic")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 16 * 2**20


class TestDelayAndSum:
    def test_zero_delays_is_mean(self):
        rng = np.random.default_rng(12)
        data = rng.standard_normal((4, 1000))
        out = delay_and_sum(AudioSignal(FS, data), [0.0] * 4)
        np.testing.assert_allclose(out.mono, data.mean(axis=0), atol=1e-12)

    def test_integer_alignment_recovers_signal(self):
        base = white(2000, 13)
        delays = [0, 5, 11, 23]
        data = np.stack([np.concatenate([np.zeros(d), base, np.zeros(23 - d)]) for d in delays])
        out = delay_and_sum(AudioSignal(FS, data), [d / FS for d in delays])
        # after alignment all channels agree on the overlap region
        seg = out.mono[23 : 23 + base.size]
        np.testing.assert_allclose(seg, base, atol=1e-9)

    @staticmethod
    def shifted_sum(data, delays):
        """The mean of each channel shifted alone: exact sample shifts, else its own inverse FFT."""
        shifts = (max(delays) - np.asarray(delays)) * FS
        n_out = data.shape[1] + int(np.ceil(shifts.max()))
        out = np.zeros(n_out)
        for x, s in zip(data, shifts):
            k = int(round(s))
            if abs(s - k) < 1e-9:
                out[k : k + x.size] += x
            else:
                out += _fractional_shift(x, s, n_out - x.size)
        return out / len(data)

    @pytest.mark.parametrize(
        "lags",
        [[0.5, 3.25, 7.75], [0.0, 2.5, 11.0, 4.0, 6.3, 6.0], [9.0, 0.0, 3.7, 3.0, 1.5, 8.0, 2.2, 5.0]],
        ids=["fractional", "mixed", "mixed-8"],
    )
    def test_one_inverse_fft_gives_the_sum_of_channel_shifts(self, lags, monkeypatch):
        # the largest gap measured over 300 random arrays of 2-8 channels was 4.8e-16 of the peak
        data = np.random.default_rng(len(lags)).uniform(-1.0, 1.0, (len(lags), 3000))
        delays = [d / FS for d in lags]
        expected = self.shifted_sum(data, delays)
        inverse = []
        irfft = np.fft.irfft

        def counted_irfft(*args, **kwargs):
            inverse.append(args[1:])
            return irfft(*args, **kwargs)

        monkeypatch.setattr(np.fft, "irfft", counted_irfft)
        out = delay_and_sum(AudioSignal(FS, data), delays).mono
        assert len(inverse) == 1 and out.size == expected.size
        np.testing.assert_allclose(out, expected, rtol=0, atol=4e-15 * np.max(np.abs(expected)))

    def test_phase_ramp_delays_a_periodic_tone(self):
        n = np.arange(64)
        tone = np.cos(2 * np.pi * 5 * n / 64)
        delayed = np.fft.irfft(np.fft.rfft(tone) * _phase_ramp(2.3, 64), 64)
        np.testing.assert_allclose(delayed, np.cos(2 * np.pi * 5 * (n - 2.3) / 64), atol=1e-14)

    def test_integer_delays_are_exact_shifts_and_run_no_fft(self, monkeypatch):
        def no_fft(*args, **kwargs):
            raise AssertionError("an FFT ran")

        for name in ("rfft", "irfft"):
            monkeypatch.setattr(np.fft, name, no_fft)
        data = white(6000, 14).reshape(3, 2000)
        delays = [d / FS for d in (4, 0, 17)]
        out = delay_and_sum(AudioSignal(FS, data), delays).mono
        assert np.array_equal(out, self.shifted_sum(data, delays))

    def test_delay_spread_past_the_signal_rejected_before_any_allocation(self):
        channels = AudioSignal(FS, np.ones((2, 100)))
        assert delay_and_sum(channels, [0.0, 100 / FS]).num_samples == 200
        for spread in (101 / FS, 1e10, 1e300):  # 1e10 s would take 1.14 PiB
            with pytest.raises(ValidationError, match="longer than the 0.00625 s signal"):
                delay_and_sum(channels, [spread, 0.0])

    def test_wrong_delay_count_rejected(self):
        with pytest.raises(ValidationError):
            delay_and_sum(AudioSignal(FS, np.ones((3, 100))), [0.0, 1e-4])

    @pytest.mark.parametrize("delay", [math.nan, math.inf, -math.inf])
    def test_delay_that_is_not_finite_is_named(self, delay):
        with pytest.raises(ValidationError) as exc_info:
            delay_and_sum(AudioSignal(FS, np.ones((2, 100))), [0.0, delay])
        assert str(exc_info.value) == f"delays must be finite, got [0.0, {delay}]"

    def test_array_gain_on_white_noise(self):
        # coherent signal adds in amplitude, independent noise in power:
        # averaging N channels buys 10 * log10(N) dB of SNR
        for n_ch, seed in [(2, 20), (4, 21), (6, 22)]:
            gains = []
            for trial in range(100):
                rng = np.random.default_rng(1000 * seed + trial)
                sig = rng.standard_normal(4000)
                noisy = np.stack([sig + rng.standard_normal(4000) for _ in range(n_ch)])
                out = delay_and_sum(AudioSignal(FS, noisy), [0.0] * n_ch).mono
                in_snr = 1.0  # unit signal power over unit noise power
                res = out - sig
                out_snr = np.mean(sig**2) / np.mean(res**2)
                gains.append(10 * np.log10(out_snr / in_snr))
            avg = float(np.mean(gains))
            assert avg == pytest.approx(10 * np.log10(n_ch), abs=0.5)

    def test_noise_rms_scales_as_inverse_sqrt_n(self):
        for n_ch in (2, 4, 6):
            ratios = []
            for trial in range(100):
                rng = np.random.default_rng(5000 + 97 * n_ch + trial)
                noise = rng.standard_normal((n_ch, 3000))
                out = delay_and_sum(AudioSignal(FS, noise), [0.0] * n_ch).mono
                ratios.append(rms(out) * np.sqrt(n_ch))
            assert float(np.mean(ratios)) == pytest.approx(1.0, rel=0.1)


class TestSteerAndSum:
    def test_shifted_copies_are_realigned(self):
        base = white(4000, 30)
        delays = [0, 7, 15, 4]
        data = np.stack(
            [np.concatenate([np.zeros(d), base, np.zeros(15 - d)]) for d in delays]
        )
        result = steer_and_sum(AudioSignal(FS, data))
        assert result.tdoas[0] is None
        for i, d in enumerate(delays[1:], start=1):
            assert round(result.tdoas[i].delay * FS) == d
        # after realignment every channel carries the common signal at lag 15
        seg = result.signal.mono[15 : 15 + base.size]
        residual = rms(seg - base) / rms(base)
        assert residual <= 1e-6

    def test_incoherent_channel_flagged(self):
        base = white(FS, 31)
        data = np.stack([base, np.roll(base, 5), white(FS, 32)])
        result = steer_and_sum(AudioSignal(FS, data))
        flagged = result.low_confidence(threshold=2.0)
        assert 2 in flagged
        assert 1 not in flagged

    def test_single_channel_rejected(self):
        with pytest.raises(ValidationError):
            steer_and_sum(AudioSignal(FS, np.ones((1, 100))))

    def test_bad_reference_rejected(self):
        with pytest.raises(ValidationError):
            steer_and_sum(AudioSignal(FS, np.ones((2, 100))), reference_channel=5)


def delayed_array(n, lags, seed, noise=0.3):
    """Noisy copies of one white-noise signal, channel i delayed by ``lags[i]`` samples."""
    rng = np.random.default_rng(seed)
    pad = int(np.ceil(max(abs(d) for d in lags))) + 1
    base = rng.standard_normal(n + 2 * pad)
    rows = [_fractional_shift(base, d + pad, pad=0)[2 * pad : 2 * pad + n] for d in lags]
    return np.stack(rows) + noise * rng.standard_normal((len(lags), n))


class TestSteerAndSumAgainstPairs:
    LAGS = [0.0, 13.0, -21.0, 0.0, 7.4, -3.65, 0.3, -0.45]

    @pytest.mark.parametrize("ref", [0, 5])
    def test_integer_delays_are_the_pairwise_ones_bit_for_bit(self, ref):
        signal = AudioSignal(FS, delayed_array(3000, self.LAGS, seed=40))
        result = steer_and_sum(signal, reference_channel=ref)
        assert result.tdoas[ref] is None
        for i, est in enumerate(result.tdoas):
            if i != ref:
                assert est == gcc_phat(signal.channel(ref), signal.channel(i))
        for i in (1, 2, 3):
            assert result.tdoas[i].delay * FS == round(self.LAGS[i] - self.LAGS[ref])

    @pytest.mark.parametrize("seed", [41, 42, 43])
    def test_parabolic_delays_match_pairs_and_the_oracle(self, seed):
        rng = np.random.default_rng(seed)
        lags = [0.0, *rng.uniform(1.0, 30.0, 3), *rng.uniform(-30.0, -1.0, 3), 0.0, 0.2, -0.3]
        data = delayed_array(int(rng.integers(500, 5000)), lags, seed=seed)
        max_delay = 0.003  # 48 samples
        max_lag = round(max_delay * FS)
        result = steer_and_sum(AudioSignal(FS, data), max_delay=max_delay, interpolation="parabolic")
        for i, est in enumerate(result.tdoas[1:], start=1):
            pair = gcc_phat(
                AudioSignal(FS, data[0]), AudioSignal(FS, data[i]),
                max_delay=max_delay, interpolation="parabolic",
            )
            oracle = reference_parabolic_delay(data[0], data[i], max_lag)
            assert est.delay * FS == pytest.approx(pair.delay * FS, abs=1e-9)
            assert est.delay * FS == pytest.approx(oracle, abs=1e-9)
            assert (est.peak_value, est.confidence) == (pair.peak_value, pair.confidence)
            assert est.delay * FS == pytest.approx(lags[i], abs=0.25)

    def test_array_peak_memory_is_a_few_spectra(self):
        # 2 s at 16 kHz: nfft 65536.  Each pair's spectrum is whitened in place and
        # freed before the next, so the peak stays a few spectra for 8 channels
        signal = AudioSignal(FS, delayed_array(2 * FS, self.LAGS, seed=46))
        steer_and_sum(signal, interpolation="parabolic")  # builds the plan outside the trace
        tracemalloc.start()
        try:
            steer_and_sum(signal, interpolation="parabolic")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 6 * (65536 // 2 + 1) * 16

    def test_shared_checks_keep_their_order(self):
        data = np.ones((3, 64))
        data[2] = 0.0
        signal = AudioSignal(FS, data)
        with pytest.raises(ValidationError, match="unknown interpolation"):
            steer_and_sum(signal, interpolation="cubic", max_delay=-1.0)
        with pytest.raises(ValidationError, match="max_delay must be finite"):
            steer_and_sum(signal, max_delay=math.nan)
        with pytest.raises(ValidationError, match="silent input channel"):
            steer_and_sum(signal, max_delay=1.0)
        with pytest.raises(ValidationError, match="too large"):
            steer_and_sum(AudioSignal(FS, np.ones((3, 64))), max_delay=1.0)


class TestFinePlanCache:
    @pytest.fixture
    def plans(self):
        array_dsp._fine_plan.cache_clear()
        yield array_dsp._fine_plan.cache_info
        array_dsp._fine_plan.cache_clear()

    def test_plan_built_once_per_fft_length(self, plans):
        data = delayed_array(1500, [0.0, 4.5, -2.25, 9.0], seed=44)  # pairs of 3000: nfft 4096
        for _ in range(3):
            steer_and_sum(AudioSignal(FS, data), interpolation="parabolic")
            gcc_phat(AudioSignal(FS, data[1]), AudioSignal(FS, data[2]), interpolation="parabolic")
        assert (plans().misses, plans().currsize) == (1, 1)
        steer_and_sum(AudioSignal(FS, data[:, :1000]), interpolation="parabolic")  # nfft 2048
        assert (plans().misses, plans().currsize) == (2, 2)

    def test_integer_mode_builds_no_plan(self, plans):
        steer_and_sum(AudioSignal(FS, delayed_array(1500, [0.0, 4.0], seed=45)))
        gcc_phat(AudioSignal(FS, white(300, 1)), AudioSignal(FS, white(300, 2)))
        assert (plans().misses, plans().currsize) == (0, 0)

    def test_cache_keeps_two_read_only_plans(self, plans):
        for n in (300, 700, 1500):
            x = white(n, n)
            gcc_phat(AudioSignal(FS, x), AudioSignal(FS, np.roll(x, 3)), interpolation="parabolic")
        assert (plans().maxsize, plans().currsize, plans().misses) == (2, 2, 3)
        cos_rows, sin_rows, basis, twiddle = array_dsp._fine_plan(4096)
        assert plans().misses == 3
        assert cos_rows.shape == sin_rows.shape == (array_dsp._CHEB_TERMS // 2, 4096 // 2 + 1)
        assert basis.shape == (array_dsp.ZOOM_POINTS, array_dsp._CHEB_TERMS)
        for table in (cos_rows, sin_rows, basis, twiddle):
            assert not table.flags.writeable
            with pytest.raises(ValueError):
                table.flat[0] = 0.0
        assert twiddle.size == 4096 and twiddle[1024] == pytest.approx(-1j, abs=1e-15)

    @pytest.mark.parametrize("nfft", [2, 4096, 65536])
    def test_moments_give_each_weighted_bin_on_the_grid(self, nfft, plans):
        # row j of basis @ plan is w_k (cos - sin)(2 pi k u_j / nfft) at grid offset u_j,
        # values up to 2 sqrt(2); the largest gap measured was 1.6e-14, at nfft 65536
        cos_rows, sin_rows, basis, _ = array_dsp._fine_plan(nfft)
        weights = np.full(nfft // 2 + 1, 2.0)
        weights[[0, -1]] = 1.0
        u = np.linspace(-1.0, 1.0, array_dsp.ZOOM_POINTS)
        phase = np.outer(u, np.arange(weights.size)) * (2 * np.pi / nfft)
        expected = weights * (np.cos(phase) - np.sin(phase))
        plan = np.concatenate((cos_rows, sin_rows))
        np.testing.assert_allclose(basis @ plan, expected, rtol=0, atol=4e-14)


class TestOracleSelect:
    def test_picks_minimum_score(self):
        scores = {"ch1": 12.0, "ch2": 10.7, "ch3": 7.2}
        assert oracle_select(scores) == "ch3"

    def test_tie_breaks_lexicographically(self):
        assert oracle_select({"b": 1.0, "a": 1.0}) == "a"

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            oracle_select({})

    def test_non_finite_rejected(self):
        with pytest.raises(ValidationError):
            oracle_select({"a": float("nan")})
        with pytest.raises(ValidationError):
            oracle_select({"a": float("inf")})

    def test_fuzz_minimum_property(self):
        rng = np.random.default_rng(33)
        for _ in range(50):
            n = int(rng.integers(1, 12))
            scores = {f"ch{i}": float(rng.uniform(0, 100)) for i in range(n)}
            winner = oracle_select(scores)
            assert scores[winner] == min(scores.values())
