import re

import numpy as np
import pytest
import scipy.fft
import scipy.signal

from roomforge import (
    AudioSignal,
    ImageSynthesisConfig,
    ImpulseResponse,
    MicSpec,
    RoomSpec,
    SourceSpec,
    SweepSpec,
    ValidationError,
    compare_irs,
    deconvolve_ir,
    estimate_t60,
    generate_ess,
    inverse_filter,
    synthesize_rir,
)
from roomforge.engine import fft_convolve, fft_length
from roomforge.sweep import DEFAULT_PRE_PEAK_GUARD, _inverse_spectrum

FS = 48000


def spectrogram_peak_hz(x, fs, start, length=4096):
    seg = x[start : start + length] * np.hanning(length)
    spectrum = np.abs(np.fft.rfft(seg))
    return np.fft.rfftfreq(length, 1 / fs)[np.argmax(spectrum)]


def band_residual_db(recovered, reference, fs, f_lo, f_hi):
    """Relative error energy between two IRs, restricted to a frequency band."""
    n = max(recovered.size, reference.size)
    r = np.fft.rfft(recovered, n)
    t = np.fft.rfft(reference, n)
    f = np.fft.rfftfreq(n, 1 / fs)
    band = (f >= f_lo) & (f <= f_hi)
    scale = np.vdot(t[band], r[band]).real / np.vdot(t[band], t[band]).real
    err = np.sum(np.abs(r[band] - scale * t[band]) ** 2)
    ref = np.sum(np.abs(scale * t[band]) ** 2)
    return 10.0 * np.log10(err / ref)


class TestSweepSpec:
    def test_invalid_band_rejected(self):
        with pytest.raises(ValidationError):
            SweepSpec(1000, 100, 10)
        with pytest.raises(ValidationError):
            SweepSpec(0, 100, 10)

    def test_nyquist_rejected_at_generation(self):
        spec = SweepSpec(20, 30000, 10)
        with pytest.raises(ValidationError):
            generate_ess(spec, FS)

    # 0 samples; 1 sample, sin(0) = 0; 2 samples, both faded to 0
    @pytest.mark.parametrize("duration, fade", [(0.00001, 0.0), (0.00005, 0.0), (0.000125, 0.0000625)])
    @pytest.mark.parametrize("build", [generate_ess, inverse_filter])
    def test_sweep_too_short_to_measure_with_rejected(self, build, duration, fade):
        with pytest.raises(ValidationError, match="fewer than 2|all 0"):
            build(SweepSpec(50, 7000, duration, fade=fade), 16000)

    def test_amplitude_and_fade_bounds(self):
        with pytest.raises(ValidationError):
            SweepSpec(20, 20000, 10, amplitude=0.0)
        with pytest.raises(ValidationError):
            SweepSpec(20, 20000, 10, fade=6.0)


class TestGenerateEss:
    def test_minute_long_sweep_endpoints(self):
        # full-band 60 s excitation: ends of the sweep sit at the band edges
        spec = SweepSpec(20, 20000, 60.0, amplitude=0.8)
        sweep = generate_ess(spec, FS).mono
        assert sweep.size == 60 * FS
        start_hz = spectrogram_peak_hz(sweep, FS, 0, 1 << 16)
        end_hz = spectrogram_peak_hz(sweep, FS, sweep.size - 4096)
        assert start_hz < 50
        assert end_hz == pytest.approx(20000, rel=0.01)

    def test_amplitude_bound(self):
        spec = SweepSpec(20, 20000, 2.0, amplitude=0.5)
        sweep = generate_ess(spec, FS).mono
        assert np.max(np.abs(sweep)) <= 0.5 + 1e-12

    def test_time_scale_parameterization(self):
        # instantaneous frequency at a normalized time fraction is duration-free
        long = generate_ess(SweepSpec(100, 10000, 8.0), FS).mono
        short = generate_ess(SweepSpec(100, 10000, 4.0), FS).mono
        f_long = spectrogram_peak_hz(long, FS, long.size // 2)
        f_short = spectrogram_peak_hz(short, FS, short.size // 2)
        # windowed peak sits slightly above the instantaneous frequency
        # because the sweep keeps rising through the analysis window
        assert f_long == pytest.approx(f_short, rel=0.05)
        assert f_long == pytest.approx(1000.0, rel=0.08)  # sqrt(100 * 10000)

    def test_fade_tapers_edges(self):
        spec = SweepSpec(20, 20000, 2.0, amplitude=0.9, fade=0.1)
        sweep = generate_ess(spec, FS).mono
        assert abs(sweep[0]) < 1e-6
        assert abs(sweep[-1]) < 1e-3


class TestInverseFilter:
    def test_self_deconvolution_peak_to_artifact(self):
        spec = SweepSpec(20, 20000, 10.0, amplitude=0.8, fade=0.02)
        sweep = generate_ess(spec, FS).mono
        inv = inverse_filter(spec, FS).mono
        d = fft_convolve(sweep, inv)
        peak_i = int(np.argmax(np.abs(d)))
        peak = np.abs(d[peak_i])
        mask = np.ones(d.size, dtype=bool)
        mask[max(0, peak_i - 50) : peak_i + 50] = False
        artifact = np.max(np.abs(d[mask]))
        assert 20 * np.log10(peak / artifact) >= 40.0

    def test_length_matches_sweep(self):
        spec = SweepSpec(50, 18000, 3.0)
        assert inverse_filter(spec, FS).num_samples == generate_ess(spec, FS).num_samples

    def test_finite_nonzero_energy(self):
        spec = SweepSpec(50, 18000, 3.0)
        inv = inverse_filter(spec, FS).mono
        energy = np.sum(inv**2)
        assert np.isfinite(energy) and energy > 0

    def test_cached_per_spec_and_rate(self):
        spec = SweepSpec(50, 18000, 1.5)
        first = inverse_filter(spec, FS)
        assert inverse_filter(SweepSpec(50, 18000, 1.5), FS) is first
        assert inverse_filter(spec, 44100) is not first
        assert first.data.tobytes() == inverse_filter.__wrapped__(spec, FS).data.tobytes()

    def test_cached_array_is_read_only(self):
        inv = inverse_filter(SweepSpec(50, 18000, 1.5), FS)
        assert not inv.data.flags.writeable
        with pytest.raises(ValueError):
            inv.mono[0] = 0.0

    def test_cache_holds_at_most_two_entries(self):
        for duration in (0.5, 0.6, 0.7):
            inverse_filter(SweepSpec(50, 18000, duration), FS)
        info = inverse_filter.cache_info()
        assert info.maxsize == 2 and info.currsize == 2


class TestDeconvolveIr:
    SPEC = SweepSpec(20, 20000, 5.0, amplitude=0.8, fade=0.01)

    def _record(self, h):
        sweep = generate_ess(self.SPEC, FS).mono
        return AudioSignal(FS, fft_convolve(sweep, h))

    def test_two_tap_recovery(self):
        h = np.zeros(FS)
        h[0] = 1.0
        gap = int(0.0125 * FS)
        h[gap] = 0.5
        ir = deconvolve_ir(self._record(h), self.SPEC, ir_length=1.0)
        assert ir.provenance == "measured"
        g = ir.direct_path_index
        second = g + gap
        window = np.abs(ir.samples[second - 1 : second + 2])
        assert np.max(window) / np.abs(ir.samples[g]) == pytest.approx(0.5, abs=0.02)
        assert int(np.argmax(window)) == 1  # spacing exact to the sample
        ref = np.zeros(ir.num_samples)
        ref[g] = 1.0
        ref[second] = 0.5
        assert band_residual_db(ir.samples, ref, FS, 40, 18000) <= -40.0

    def test_sweep_itself_gives_delta(self):
        # near-full-band sweep so the band-limited delta has compact support
        spec = SweepSpec(10, 23900, 10.0, amplitude=0.8)
        sweep = generate_ess(spec, FS)
        ir = deconvolve_ir(sweep, spec, ir_length=0.5)
        peak = ir.direct_path_index
        total = np.sum(ir.samples**2)
        local = np.sum(ir.samples[max(0, peak - 5) : peak + 6] ** 2)
        assert local / total >= 0.99

    def test_quadratic_distortion_rejected_to_negative_lag(self):
        h = np.zeros(FS)
        h[0] = 1.0
        h[int(0.0125 * FS)] = 0.5
        clean = self._record(h)
        distorted = AudioSignal(FS, clean.mono + 0.01 * clean.mono**2)
        ir_clean = deconvolve_ir(clean, self.SPEC, ir_length=1.0)
        ir_dist = deconvolve_ir(distorted, self.SPEC, ir_length=1.0)
        diff = ir_dist.samples - ir_clean.samples
        rel = 10 * np.log10(np.sum(diff**2) / np.sum(ir_clean.samples**2))
        assert rel <= -35.0

    def test_random_h_recovery_in_band(self):
        rng = np.random.default_rng(17)
        h = np.zeros(1500)
        taps = rng.integers(0, 1500, 25)
        h[taps] = rng.standard_normal(25)
        hp = int(np.argmax(np.abs(h)))
        ir = deconvolve_ir(
            self._record(h), self.SPEC, ir_length=0.2, pre_peak_guard=hp / FS + 0.002
        )
        g = ir.direct_path_index
        ref = np.zeros(ir.num_samples)
        ref[g - hp : g - hp + h.size] = h
        assert band_residual_db(ir.samples, ref, FS, 40, 18000) <= -40.0

    def test_linearity(self):
        rng = np.random.default_rng(23)
        h1 = rng.standard_normal(64)
        h2 = rng.standard_normal(64)
        # dominant first taps keep the detected peak on the same sample
        h1[0] = 10.0
        h2[0] = 10.0
        r1 = self._record(h1).mono
        r2 = self._record(h2).mono
        a, b = 0.7, 1.3
        combined = AudioSignal(FS, a * r1 + b * r2)
        # compare raw (un-normalized) deconvolutions: undo the stored scale
        ir1 = deconvolve_ir(AudioSignal(FS, r1), self.SPEC, 0.05)
        ir2 = deconvolve_ir(AudioSignal(FS, r2), self.SPEC, 0.05)
        irc = deconvolve_ir(combined, self.SPEC, 0.05)
        raw1 = ir1.samples / ir1.meta["normalization_scale"]
        raw2 = ir2.samples / ir2.meta["normalization_scale"]
        rawc = irc.samples / irc.meta["normalization_scale"]
        # align on shared direct-path offsets before comparing
        o1, o2, oc = ir1.direct_path_index, ir2.direct_path_index, irc.direct_path_index
        n = min(raw1.size - o1, raw2.size - o2, rawc.size - oc)
        expected = a * raw1[o1 : o1 + n] + b * raw2[o2 : o2 + n]
        got = rawc[oc : oc + n]
        scale = np.max(np.abs(expected))
        np.testing.assert_allclose(got / scale, expected / scale, rtol=0, atol=1e-9)

    def test_sweep_not_found(self):
        rng = np.random.default_rng(5)
        noise = AudioSignal(FS, 1e-3 * rng.standard_normal(6 * FS))
        with pytest.raises(ValidationError, match="sweep not found"):
            deconvolve_ir(noise, self.SPEC, ir_length=0.5)

    def test_peak_at_the_start_rejected(self):
        # a click deconvolves to the inverse filter itself, whose peak lies inside the guard
        click = np.zeros(6 * FS)
        click[0] = 1.0
        with pytest.raises(ValidationError, match="sweep not found: no samples before the peak"):
            deconvolve_ir(AudioSignal(FS, click), self.SPEC, ir_length=1.0, pre_peak_guard=0.5)

    def test_short_recording_rejected(self):
        with pytest.raises(ValidationError):
            deconvolve_ir(AudioSignal(FS, np.ones(100)), self.SPEC, ir_length=0.5)

    def test_ir_shorter_than_the_pre_peak_guard_rejected(self):
        # the 5 ms guard puts the direct path at sample 240, past a 48-sample IR
        h = np.zeros(FS)
        h[0] = 1.0
        message = r"ir_length of 0\.001 s \(48 samples\) must exceed the 0\.005 s pre-peak guard"
        with pytest.raises(ValidationError, match=message):
            deconvolve_ir(self._record(h), self.SPEC, ir_length=0.001)

    # -1e305 s is -inf samples at 48 kHz, which rounding would overflow
    @pytest.mark.parametrize("ir_length", [0.005, 0.0, -1e305])
    def test_ir_no_longer_than_the_guard_rejected_before_any_fft(self, ir_length, monkeypatch):
        from roomforge import sweep

        def no_fft(*args):
            raise AssertionError("deconvolve_ir transformed the recording")

        monkeypatch.setattr(sweep, "_inverse_spectrum", no_fft)
        with pytest.raises(ValidationError, match="pre-peak guard"):
            deconvolve_ir(AudioSignal(FS, np.zeros(10 * FS)), self.SPEC, ir_length=ir_length)

    @pytest.mark.parametrize("ir_length", [15.0, 1e300, 1e305], ids=["one-sample", "1e300", "1e305"])
    def test_ir_longer_than_the_deconvolution_rejected_before_any_fft(self, ir_length, monkeypatch):
        # 10 s of recording and the 5 s sweep deconvolve to 15 s less one sample; 1e305 s
        # overflows to infinity in samples, 1e300 s does not
        from roomforge import sweep

        def no_fft(*args):
            raise AssertionError("deconvolve_ir transformed the recording")

        monkeypatch.setattr(sweep, "_inverse_spectrum", no_fft)
        n = 15 * FS - 1
        message = f"ir_length of {ir_length} s is longer than the deconvolution: {n} samples at {FS} Hz"
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            deconvolve_ir(AudioSignal(FS, np.zeros(10 * FS)), self.SPEC, ir_length=ir_length)

    @pytest.mark.parametrize(
        "kwargs, message",
        [
            ({"ir_length": float("nan")}, "ir_length must be finite, got nan"),
            ({"ir_length": float("inf")}, "ir_length must be finite, got inf"),
            ({"ir_length": 0.5, "pre_peak_guard": float("nan")}, "pre_peak_guard must be finite, got nan"),
            ({"ir_length": 0.5, "pre_peak_guard": float("-inf")},
             "pre_peak_guard must be finite, got -inf"),
        ],
        ids=["ir-length-nan", "ir-length-inf", "guard-nan", "guard-inf"],
    )
    def test_length_that_is_not_finite_rejected_before_any_fft(self, kwargs, message, monkeypatch):
        from roomforge import sweep

        def no_fft(*args):
            raise AssertionError("deconvolve_ir transformed the recording")

        monkeypatch.setattr(sweep, "_inverse_spectrum", no_fft)
        with pytest.raises(ValidationError, match=f"^{message}$"):
            deconvolve_ir(AudioSignal(FS, np.zeros(10 * FS)), self.SPEC, **kwargs)

    @pytest.mark.parametrize(
        "guard, message",
        [
            (-0.5, "pre_peak_guard must be in [0, ir_length), got -0.5 s with an ir_length of 0.5 s"),
            (-1e305, "pre_peak_guard must be in [0, ir_length), got -1e+305 s with an ir_length of 0.5 s"),
            # 1e305 s is inf samples at 48 kHz, which rounding would overflow
            (1e305, "pre_peak_guard must be in [0, ir_length), got 1e+305 s with an ir_length of 0.5 s"),
            (0.5, "ir_length of 0.5 s (24000 samples) must exceed the 0.5 s pre-peak guard (24000 samples)"),
        ],
        ids=["negative", "-1e305", "1e305", "ir-length"],
    )
    def test_guard_outside_the_ir_rejected_before_any_fft(self, guard, message, monkeypatch):
        from roomforge import sweep

        def no_fft(*args):
            raise AssertionError("deconvolve_ir transformed the recording")

        monkeypatch.setattr(sweep, "_inverse_spectrum", no_fft)
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            deconvolve_ir(AudioSignal(FS, np.zeros(10 * FS)), SweepSpec(20, 20000, 2.0), 0.5, guard)

    def test_guard_of_zero_starts_the_ir_at_the_peak(self):
        h = np.zeros(FS)
        h[0] = 1.0
        ir = deconvolve_ir(self._record(h), self.SPEC, ir_length=0.1, pre_peak_guard=0.0)
        assert ir.direct_path_index == 0
        assert ir.samples[0] == 1.0


class TestGateOnImageMethodIrs:
    """The sweep gate accepts reverberant rooms: the tail is no part of its floor."""

    FS = 16000
    SPEC = SweepSpec(50, 7000, 5.0)

    @pytest.mark.parametrize("t60", [0.3, 0.5, 0.8, 1.2])
    def test_accepted_noiseless_and_noisy(self, t60):
        # cardioid talker facing away from the mic, so the direct path is weak
        room = RoomSpec((5.0, 4.0, 3.0), target_t60=t60)
        source = SourceSpec((3.0, 2.0, 1.5), azimuth=0.0, directivity="cardioid")
        h = synthesize_rir(room, source, MicSpec("m", (1.0, 2.0, 1.5)),
                           ImageSynthesisConfig(ir_length=1.0), self.FS)
        recording = fft_convolve(generate_ess(self.SPEC, self.FS).mono, h.samples)
        noise = np.random.default_rng(int(t60 * 10)).standard_normal(recording.size)
        noisy = recording + noise * np.sqrt(np.mean(recording**2)) / 10.0  # 20 dB SNR
        for samples in (recording, noisy):
            ir = deconvolve_ir(AudioSignal(self.FS, samples), self.SPEC, ir_length=1.0)
            assert ir.num_samples == self.FS


def fftconvolve_deconvolve(recording, spec, ir_length):
    """The deconvolution as one ``fftconvolve`` with the inverse filter: the oracle."""
    fs = recording.sample_rate
    raw = scipy.signal.fftconvolve(recording.mono, inverse_filter(spec, fs).mono)
    peak_idx = int(np.argmax(np.abs(raw)))
    peak = float(np.abs(raw[peak_idx]))
    start = max(peak_idx - int(round(DEFAULT_PRE_PEAK_GUARD * fs)), 0)
    n_out = int(round(ir_length * fs))
    segment = raw[start : start + n_out]
    segment = np.pad(segment, (0, n_out - segment.size))
    return segment * (1.0 / peak), peak_idx - start, 1.0 / peak


class TestDeconvolveAgainstFftconvolve:
    FS = 16000
    SPECS = (SweepSpec(50, 7000, 1.0), SweepSpec(30, 7500, 0.8, amplitude=0.5, fade=0.05))
    EXTRA = (0, 1, 713, 4000, 9001)  # recording samples past the sweep

    def _recording(self, spec, extra, seed):
        rng = np.random.default_rng(seed)
        h = np.zeros(2000)
        h[rng.integers(0, h.size, 40)] = 0.2 * rng.standard_normal(40)
        h[150] = 1.0
        sweep = generate_ess(spec, self.FS).mono
        rec = fft_convolve(sweep, h)[: sweep.size + extra]
        rec = np.pad(rec, (0, sweep.size + extra - rec.size))
        return AudioSignal(self.FS, rec + 1e-3 * rng.standard_normal(rec.size))

    def test_recording_lengths_span_several_fft_lengths(self):
        for spec in self.SPECS:
            sweep_len = generate_ess(spec, self.FS).num_samples
            nffts = {fft_length(2 * sweep_len + extra - 1) for extra in self.EXTRA}
            assert len(nffts) >= 2

    def test_window_as_long_as_the_deconvolution_is_padded(self):
        spec = self.SPECS[0]
        recording = self._recording(spec, 713, 0)
        n = recording.num_samples + generate_ess(spec, self.FS).num_samples - 1
        ir = deconvolve_ir(recording, spec, ir_length=n / self.FS)
        samples, direct, _ = fftconvolve_deconvolve(recording, spec, n / self.FS)
        assert ir.num_samples == n
        assert np.array_equal(ir.samples, samples)
        assert ir.direct_path_index == direct

    @pytest.mark.parametrize("spec", SPECS, ids=["no-fade", "fade"])
    def test_bit_identical(self, spec):
        for seed, extra in enumerate(self.EXTRA):
            recording = self._recording(spec, extra, seed)
            ir = deconvolve_ir(recording, spec, ir_length=0.3)
            samples, direct, scale = fftconvolve_deconvolve(recording, spec, 0.3)
            assert np.array_equal(ir.samples, samples)
            assert ir.direct_path_index == direct
            assert ir.meta == {
                "normalization_scale": scale,
                "pre_peak_guard": DEFAULT_PRE_PEAK_GUARD,
                "sweep": {"f_start": spec.f_start, "f_end": spec.f_end,
                          "duration": spec.duration, "amplitude": spec.amplitude,
                          "fade": spec.fade},
            }


class TestInverseSpectrumCache:
    FS = 16000
    SPEC = SweepSpec(50, 7000, 1.0)

    def _recording(self, extra):
        sweep = generate_ess(self.SPEC, self.FS).mono
        return AudioSignal(self.FS, np.pad(sweep, (0, extra)))

    def test_spectrum_is_read_only(self):
        spectrum = _inverse_spectrum(self.SPEC, self.FS, fft_length(40000))
        assert not spectrum.flags.writeable
        with pytest.raises(ValueError):
            spectrum[0] = 0.0

    def test_cache_holds_at_most_two_entries(self):
        recordings = [self._recording(extra) for extra in (0, 4000, 9001)]
        sweep_len = recordings[0].num_samples
        assert len({fft_length(r.num_samples + sweep_len - 1) for r in recordings}) == 3
        for recording in recordings:
            deconvolve_ir(recording, self.SPEC, ir_length=0.1)
        info = _inverse_spectrum.cache_info()
        assert info.maxsize == 2 and info.currsize == 2

    def test_inverse_filter_transformed_once_per_fft_length(self, monkeypatch):
        _inverse_spectrum.cache_clear()
        inverse = inverse_filter(self.SPEC, self.FS).data
        calls = []
        rfft = scipy.fft.rfft

        def counting_rfft(a, n=None, *args, **kwargs):
            calls.append(np.shares_memory(a, inverse))
            return rfft(a, n, *args, **kwargs)

        monkeypatch.setattr(scipy.fft, "rfft", counting_rfft)
        first, second = self._recording(0), self._recording(9001)
        sweep_len = first.num_samples
        assert fft_length(2 * sweep_len - 1) != fft_length(second.num_samples + sweep_len - 1)
        deconvolve_ir(first, self.SPEC, ir_length=0.1)
        assert calls == [True, False]
        deconvolve_ir(first, self.SPEC, ir_length=0.1)
        assert calls == [True, False, False]  # only the recording is transformed
        deconvolve_ir(second, self.SPEC, ir_length=0.1)
        assert calls == [True, False, False, True, False]


class TestEssRoundTrip:
    """Measuring an image-method room by sweep recovers its T60 and DRR.

    The source is omnidirectional, so the deconvolution peak is the direct
    path.  Walls reflect with alternating sign (pressure convention): an
    all-positive image-method IR holds much of its tail energy near DC,
    below the band any sweep measures.
    """

    FS = 16000
    SPEC = SweepSpec(20, 7900, 5.0)

    @pytest.mark.parametrize("t60", [0.3, 0.5, 0.8])
    def test_measured_matches_synthesized(self, t60):
        room = RoomSpec((5.0, 4.0, 3.0), target_t60=t60)
        config = ImageSynthesisConfig(ir_length=1.0, negative_reflection=True)
        h = synthesize_rir(room, SourceSpec((3.0, 2.0, 1.5)), MicSpec("m", (1.0, 2.5, 1.2)),
                           config, self.FS)
        clean = fft_convolve(generate_ess(self.SPEC, self.FS).mono, h.samples)
        noise = np.random.default_rng(int(t60 * 10)).standard_normal(clean.size)
        recording = clean + noise * np.sqrt(np.mean(clean**2)) / 10 ** (30 / 20)  # 30 dB SNR
        measured = deconvolve_ir(AudioSignal(self.FS, recording), self.SPEC, ir_length=1.0)

        # onto the synthesized IR's time axis: the measured direct path sits at
        # the guard, the synthesized one at its geometric index
        shift = h.direct_path_index - measured.direct_path_index
        assert shift >= 0
        aligned = ImpulseResponse(
            self.FS, np.pad(measured.samples, (shift, 0))[: measured.num_samples])
        # the aligned IR's direct path is found again, as its largest sample
        result = compare_irs(h, aligned)
        assert result.direct_offset_samples == 0
        assert abs(result.t60_delta) <= 0.05 * estimate_t60(h)
        assert abs(result.drr_delta) <= 0.1
