import numpy as np
import pytest

from roomforge import (
    ImpulseResponse,
    ValidationError,
    compare_irs,
    direct_to_reverberant_db,
    estimate_t60,
    schroeder_curve,
)

FS = 16000


def synthetic_decay(t60, fs=FS, seconds=None, seed=0):
    """Noise with an exponential amplitude envelope whose T60 is exact.

    Amplitude envelope exp(-t / tau) decays energy at 20 * log10(e) / tau
    dB per second; tau = t60 / (3 * ln 10) puts -60 dB exactly at t60.
    """
    seconds = seconds if seconds is not None else 1.5 * t60
    n = int(seconds * fs)
    t = np.arange(n) / fs
    tau = t60 / (3.0 * np.log(10.0))
    rng = np.random.default_rng(seed)
    h = rng.standard_normal(n) * np.exp(-t / tau)
    return ImpulseResponse(fs, h, direct_path_index=0)


class TestSchroederCurve:
    def test_delta_is_flat_then_floor(self):
        h = np.zeros(100)
        h[10] = 1.0
        ir = ImpulseResponse(FS, h)
        curve = schroeder_curve(ir)
        np.testing.assert_array_equal(curve.level_db[:11], np.zeros(11))
        assert np.all(curve.level_db[11:] == -300.0)

    def test_starts_at_zero_and_non_increasing(self):
        ir = synthetic_decay(0.4, seed=1)
        curve = schroeder_curve(ir)
        assert curve.level_db[0] == 0.0
        assert np.all(np.diff(curve.level_db) <= 1e-12)

    def test_exponential_decay_slope(self):
        # analytic slope of the backward integral of exp(-2 t / tau) noise
        tau = 0.05
        n = int(0.4 * FS)
        t = np.arange(n) / FS
        rng = np.random.default_rng(2)
        ir = ImpulseResponse(FS, rng.standard_normal(n) * np.exp(-t / tau))
        curve = schroeder_curve(ir)
        # fit the -5..-30 dB region, compare to -20 log10(e) / tau dB/s
        mask = (curve.level_db <= -5) & (curve.level_db >= -30)
        slope = np.polyfit(curve.times[mask], curve.level_db[mask], 1)[0]
        expected = -20.0 * np.log10(np.e) / tau
        assert slope == pytest.approx(expected, rel=0.05)

    def test_trailing_zeros_change_nothing_before_them(self):
        ir = synthetic_decay(0.3, seed=3)
        padded = ImpulseResponse(FS, np.concatenate([ir.samples, np.zeros(500)]))
        a = schroeder_curve(ir).level_db
        b = schroeder_curve(padded).level_db
        np.testing.assert_allclose(b[: a.size], a, atol=1e-9)

    def test_times_axis(self):
        ir = synthetic_decay(0.3, seed=4)
        curve = schroeder_curve(ir)
        assert curve.times[0] == 0.0
        assert curve.times[1] == pytest.approx(1.0 / FS)


class TestEstimateT60:
    @pytest.mark.parametrize("t60", [0.3, 0.5, 0.75])
    def test_synthetic_round_trip(self, t60):
        estimates = [
            estimate_t60(synthetic_decay(t60, seed=s)) for s in range(5)
        ]
        avg = float(np.mean(estimates))
        assert avg == pytest.approx(t60, rel=0.05)

    def test_target_half_second_within_tight_band(self):
        est = estimate_t60(synthetic_decay(0.5, seed=10))
        assert 0.475 <= est <= 0.525

    def test_scaling_invariance(self):
        ir = synthetic_decay(0.6, seed=11)
        scaled = ImpulseResponse(FS, 37.5 * ir.samples, direct_path_index=0)
        assert estimate_t60(scaled) == pytest.approx(estimate_t60(ir), rel=1e-12)

    def test_t20_and_t30_agree_on_clean_decay(self):
        ir = synthetic_decay(0.5, seed=12)
        a = estimate_t60(ir, method="T20")
        b = estimate_t60(ir, method="T30")
        assert a == pytest.approx(b, rel=0.10)

    def test_insufficient_decay_rejected(self):
        # near-constant envelope never reaches -25 dB within the window
        rng = np.random.default_rng(13)
        ir = ImpulseResponse(FS, rng.uniform(0.5, 1.0, 400))
        with pytest.raises(ValidationError, match="decay range insufficient"):
            estimate_t60(ir)

    def test_unknown_method_rejected(self):
        with pytest.raises(ValidationError):
            estimate_t60(synthetic_decay(0.4), method="T15")


class TestDirectToReverberant:
    def test_delta_hits_positive_cap(self):
        h = np.zeros(1000)
        h[100] = 1.0
        ir = ImpulseResponse(FS, h, direct_path_index=100)
        assert direct_to_reverberant_db(ir) == 120.0

    def test_equal_energy_split_is_zero_db(self):
        h = np.zeros(1000)
        h[100] = 1.0
        h[900] = 1.0  # one tap inside the direct window, one far outside
        ir = ImpulseResponse(FS, h, direct_path_index=100)
        assert direct_to_reverberant_db(ir) == pytest.approx(0.0, abs=1e-12)

    def test_known_ratio(self):
        h = np.zeros(1000)
        h[50] = 2.0
        h[800] = 1.0
        ir = ImpulseResponse(FS, h, direct_path_index=50)
        assert direct_to_reverberant_db(ir) == pytest.approx(10 * np.log10(4.0), abs=1e-12)

    def test_more_reflective_room_has_lower_drr(self):
        # grow the tail energy and the ratio must fall monotonically
        rng = np.random.default_rng(14)
        tail = rng.standard_normal(2000) * np.exp(-np.arange(2000) / 300.0)
        values = []
        for g in (0.05, 0.2, 0.8):
            h = np.zeros(2001)
            h[0] = 1.0
            h[1:] = 0.0
            h[81:] = g * tail[: 2001 - 81]
            ir = ImpulseResponse(FS, h, direct_path_index=0)
            values.append(direct_to_reverberant_db(ir))
        assert values[0] > values[1] > values[2]

    def test_window_covering_everything_rejected(self):
        ir = ImpulseResponse(FS, np.ones(10), direct_path_index=5)
        with pytest.raises(ValidationError):
            direct_to_reverberant_db(ir, direct_window_ms=100.0)


class TestCompareIrs:
    def test_identical_irs(self):
        ir = synthetic_decay(0.5, seed=20)
        cmp = compare_irs(ir, ir)
        assert cmp.t60_delta == 0.0
        assert cmp.drr_delta == 0.0
        assert cmp.decay_rms_db == 0.0
        assert cmp.direct_offset_samples == 0

    def test_pure_delay_detected(self):
        ir = synthetic_decay(0.5, seed=21)
        delayed = ImpulseResponse(
            FS, np.concatenate([np.zeros(100), ir.samples]), direct_path_index=100
        )
        cmp = compare_irs(ir, delayed)
        assert cmp.direct_offset_samples == 100
        assert cmp.t60_delta == pytest.approx(0.0, abs=1e-6)
        assert cmp.decay_rms_db <= 0.1

    def test_different_decay_rates_give_t60_delta(self):
        a = synthetic_decay(0.3, seconds=1.2, seed=22)
        b = synthetic_decay(0.6, seconds=1.2, seed=22)
        cmp = compare_irs(a, b)
        assert cmp.t60_delta == pytest.approx(0.3, abs=0.05)
        assert cmp.decay_rms_db > 1.0

    def test_short_ir_yields_none_t60(self):
        good = synthetic_decay(0.5, seed=23)
        rng = np.random.default_rng(24)
        flat = ImpulseResponse(FS, rng.uniform(0.5, 1.0, 200))
        cmp = compare_irs(good, flat)
        assert cmp.t60_delta is None

    def test_rate_mismatch_rejected(self):
        with pytest.raises(ValidationError):
            compare_irs(synthetic_decay(0.3), synthetic_decay(0.3, fs=48000))

    def test_unknown_t60_method_rejected(self):
        ir = synthetic_decay(0.4, seed=27)
        with pytest.raises(ValidationError, match="unknown T60 method"):
            compare_irs(ir, ir, "T40")

    def test_metrics_leave_their_inputs_unchanged(self):
        a = ImpulseResponse(FS, synthetic_decay(0.3, seed=28).samples)
        b = ImpulseResponse(FS, synthetic_decay(0.5, seed=29).samples)
        before = (a.direct_path_index, b.direct_path_index)
        compare_irs(a, b)
        estimate_t60(a)
        direct_to_reverberant_db(b)
        assert (a.direct_path_index, b.direct_path_index) == before

    def test_one_schroeder_curve_per_ir(self, monkeypatch):
        import roomforge.metrics as metrics

        a = synthetic_decay(0.3, seconds=1.2, seed=25)
        tail = synthetic_decay(0.6, seed=26).samples
        b = ImpulseResponse(FS, np.concatenate([np.zeros(30), tail]))
        # the figures as estimate_t60, direct_to_reverberant_db and schroeder_curve give them
        t60_delta = estimate_t60(b) - estimate_t60(a)
        drr_delta = direct_to_reverberant_db(b) - direct_to_reverberant_db(a)
        ca = schroeder_curve(a).level_db[a.direct_path_index:]
        cb = schroeder_curve(b).level_db[b.direct_path_index:]
        n = min(ca.size, cb.size)
        decay_rms = float(np.sqrt(np.mean((ca[:n] - cb[:n]) ** 2)))

        curves = []
        original = metrics.schroeder_curve
        monkeypatch.setattr(metrics, "schroeder_curve",
                            lambda ir: curves.append(ir) or original(ir))
        cmp = compare_irs(a, b)
        assert len(curves) == 2 and curves[0] is a and curves[1] is b
        figures = (cmp.t60_delta, cmp.drr_delta, cmp.decay_rms_db)
        assert figures == (t60_delta, drr_delta, decay_rms)
        assert cmp.direct_offset_samples == b.direct_path_index - a.direct_path_index
