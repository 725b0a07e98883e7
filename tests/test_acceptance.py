"""End-to-end acceptance suite.

One test per contract criterion; each prints a single pass/fail line on the
real terminal (bypassing capture) so a full run reads as a checklist.
"""

import hashlib
import json
from contextlib import contextmanager

import numpy as np
import pytest

from roomforge import (
    AudioSignal,
    ContaminationJob,
    ImageSynthesisConfig,
    ImpulseResponse,
    MicSpec,
    RoomSpec,
    SourceSpec,
    SweepSpec,
    convolve,
    deconvolve_ir,
    delay_and_sum,
    estimate_t60,
    gcc_phat,
    generate_ess,
    mix_noise,
    oracle_select,
    reflectivity_from_t60,
    run_job,
    synthesize_rir,
)
from roomforge.array_dsp import _fft_size, _phase_ramp
from roomforge.engine import fft_convolve
from roomforge.manifest import load_manifest, plan_and_run
from roomforge.wavio import write_wav

SPEED_OF_SOUND = 343.0


@contextmanager
def criterion(capsys, number, name):
    try:
        yield
    except Exception:
        with capsys.disabled():
            print(f"criterion {number} ({name}): FAIL")
        raise
    with capsys.disabled():
        print(f"criterion {number} ({name}): PASS")


def test_criterion_1_convolution_oracle_equivalence(capsys):
    with criterion(capsys, 1, "convolution oracle equivalence"):
        rng = np.random.default_rng(101)
        for _ in range(200):
            nx = int(rng.integers(1_000, 48_001))  # up to 1 s @ 48 kHz
            nh = int(rng.integers(32, 3_001))
            x = rng.standard_normal(nx)
            h = rng.standard_normal(nh)
            got = fft_convolve(x, h)
            ref = np.convolve(x, h)
            rel = np.max(np.abs(got - ref)) / np.max(np.abs(ref))
            assert rel <= 1e-9


def test_criterion_2_mixing_identities(capsys):
    with criterion(capsys, 2, "convolve-and-mix identities"):
        fs = 16000
        rng = np.random.default_rng(102)

        # delta passthrough, bitwise
        x = AudioSignal(fs, 0.3 * rng.standard_normal(fs))
        delta = ImpulseResponse(fs, np.array([1.0]))
        out = run_job(ContaminationJob(clean=x, irs=[delta]))
        assert np.array_equal(out.data[0], x.mono)

        # linearity of the channel model
        h = ImpulseResponse(fs, rng.standard_normal(300))
        x1 = rng.standard_normal(4000)
        x2 = rng.standard_normal(4000)
        a, b = 1.7, -0.4
        lhs = convolve(AudioSignal(fs, a * x1 + b * x2), h).mono
        rhs = a * convolve(AudioSignal(fs, x1), h).mono + b * convolve(AudioSignal(fs, x2), h).mono
        scale = np.max(np.abs(rhs))
        assert np.max(np.abs(lhs - rhs)) / scale <= 1e-9

        # SNR mixing accuracy over 100 random trials
        for trial in range(100):
            target = float(rng.uniform(-10, 40))
            y = AudioSignal(fs, rng.standard_normal(int(rng.integers(fs // 2, 2 * fs))))
            noise = AudioSignal(fs, rng.standard_normal(int(rng.integers(fs // 4, fs))))
            mixed = mix_noise(y, noise, target_snr_db=target, seed=trial)
            added = mixed.mono - y.mono
            achieved = 20 * np.log10(
                np.sqrt(np.mean(y.mono**2)) / np.sqrt(np.mean(added**2))
            )
            assert abs(achieved - target) <= 0.01


def test_criterion_3_image_method_geometry_oracle(capsys):
    with criterion(capsys, 3, "image-method first-order geometry oracle"):
        rng = np.random.default_rng(103)
        fs = 48000
        checked = 0
        while checked < 20:
            dims = rng.uniform(2.5, 8.0, 3)
            betas = rng.uniform(0.1, 0.95, 6)
            src_pos = rng.uniform(0.3, 0.7, 3) * dims
            mic_pos = rng.uniform(0.2, 0.8, 3) * dims
            if np.allclose(src_pos, mic_pos):
                continue
            room = RoomSpec(tuple(dims), reflectivity=tuple(betas))
            cfg = ImageSynthesisConfig(ir_length=0.12, max_reflection_order=1)
            ir = synthesize_rir(
                room, SourceSpec(tuple(src_pos)), MicSpec("m", tuple(mic_pos)), cfg, fs
            )

            # brute-force enumeration of the direct path and 6 mirror images
            expected = np.zeros(ir.num_samples)
            images = [(np.array(src_pos), 1.0)]
            for axis in range(3):
                lo = np.array(src_pos)
                lo[axis] = -lo[axis]
                hi = np.array(src_pos)
                hi[axis] = 2 * dims[axis] - hi[axis]
                images.append((lo, betas[2 * axis]))
                images.append((hi, betas[2 * axis + 1]))
            for pos, att in images:
                d = np.linalg.norm(mic_pos - pos)
                k = round(d / SPEED_OF_SOUND * fs)  # arrival index, exact
                if k < expected.size:
                    expected[k] += att / (4 * np.pi * d)
            np.testing.assert_allclose(ir.samples, expected, rtol=0, atol=1e-12)
            checked += 1


def test_criterion_4_t60_round_trip(capsys):
    with criterion(capsys, 4, "T60 round trip"):
        fs = 16000
        dims = (5.0, 4.0, 3.0)
        src = SourceSpec((1.2, 1.7, 1.4))
        mic = MicSpec("m", (3.9, 2.8, 2.1))
        for target in (0.3, 0.5, 0.75):
            beta = reflectivity_from_t60(RoomSpec(dims, reflectivity=(0.5,)), target)
            room = RoomSpec(dims, reflectivity=(beta,))
            cfg = ImageSynthesisConfig(
                ir_length=max(1.2 * target, 0.4), negative_reflection=True
            )
            est = estimate_t60(synthesize_rir(room, src, mic, cfg, fs), "T20")
            assert 0.7 * target <= est <= 1.3 * target

        # synthetic exponential decays land within 5 percent
        for target in (0.3, 0.5, 0.75):
            tau = target / (3.0 * np.log(10.0))
            estimates = []
            for seed in range(5):
                rng = np.random.default_rng(400 + seed)
                n = int(1.5 * target * fs)
                t = np.arange(n) / fs
                h = rng.standard_normal(n) * np.exp(-t / tau)
                ir = ImpulseResponse(fs, h, direct_path_index=0)
                estimates.append(estimate_t60(ir))
            assert float(np.mean(estimates)) == pytest.approx(target, rel=0.05)


def band_residual_db(recovered, reference, fs, f_lo, f_hi):
    """Relative error energy between two IRs inside a frequency band."""
    n = max(recovered.size, reference.size)
    r = np.fft.rfft(recovered, n)
    t = np.fft.rfft(reference, n)
    f = np.fft.rfftfreq(n, 1 / fs)
    band = (f >= f_lo) & (f <= f_hi)
    scale = np.vdot(t[band], r[band]).real / np.vdot(t[band], t[band]).real
    err = np.sum(np.abs(r[band] - scale * t[band]) ** 2)
    return 10.0 * np.log10(err / np.sum(np.abs(scale * t[band]) ** 2))


def test_criterion_5_ess_recovery(capsys):
    with criterion(capsys, 5, "sweep deconvolution recovery"):
        fs = 48000
        spec = SweepSpec(20, 20000, 5.0, amplitude=0.8, fade=0.01)
        sweep = generate_ess(spec, fs).mono
        h = np.zeros(fs)
        h[0] = 1.0
        gap = int(0.0125 * fs)
        h[gap] = 0.5
        recording = fft_convolve(sweep, h)

        for distortion in (0.0, 0.01):
            rec = recording + distortion * recording**2
            ir = deconvolve_ir(AudioSignal(fs, rec), spec, ir_length=1.0)
            g = ir.direct_path_index
            ref = np.zeros(ir.num_samples)
            ref[g] = 1.0
            ref[g + gap] = 0.5
            assert band_residual_db(ir.samples, ref, fs, 40, 18000) <= -40.0

        # one-minute excitation round trip: energy stays on the direct tap
        long_spec = SweepSpec(10, 23900, 60.0, amplitude=0.8)
        long_sweep = generate_ess(long_spec, fs)
        assert long_sweep.num_samples == 60 * fs
        ir = deconvolve_ir(long_sweep, long_spec, ir_length=0.5)
        peak = ir.direct_path_index
        local = np.sum(ir.samples[max(0, peak - 5) : peak + 6] ** 2)
        assert local / np.sum(ir.samples**2) >= 0.99


def test_criterion_6_gcc_phat(capsys):
    with criterion(capsys, 6, "GCC-PHAT delay recovery"):
        fs = 16000
        rng = np.random.default_rng(106)
        base = rng.standard_normal(fs)
        a = AudioSignal(fs, base)
        for k in range(-100, 101, 7):
            b = AudioSignal(fs, np.roll(base, k))
            est = gcc_phat(a, b)
            assert round(est.delay * fs) == k
            rev = gcc_phat(b, a)
            assert rev.delay == -est.delay  # antisymmetry, exact

        wide = rng.standard_normal(4 * fs)
        nfft = _fft_size(wide.size + 64)
        for d in (3.25, 10.5, 42.75):
            shifted = np.fft.irfft(np.fft.rfft(wide, nfft) * _phase_ramp(d, nfft), nfft)[: wide.size]
            est = gcc_phat(
                AudioSignal(fs, wide), AudioSignal(fs, shifted), interpolation="parabolic"
            )
            assert est.delay * fs == pytest.approx(d, abs=0.1)


def test_criterion_7_array_gain(capsys):
    with criterion(capsys, 7, "delay-and-sum array gain"):
        fs = 16000
        for n_ch in (2, 4, 6):
            gains = []
            for trial in range(100):
                rng = np.random.default_rng(700 * n_ch + trial)
                sig = rng.standard_normal(4000)
                noisy = np.stack([sig + rng.standard_normal(4000) for _ in range(n_ch)])
                out = delay_and_sum(AudioSignal(fs, noisy), [0.0] * n_ch).mono
                res = out - sig
                out_snr = np.mean(sig**2) / np.mean(res**2)
                gains.append(10 * np.log10(out_snr))  # input SNR is 0 dB
            assert float(np.mean(gains)) == pytest.approx(10 * np.log10(n_ch), abs=0.5)


def test_criterion_8_oracle_selection(capsys):
    with criterion(capsys, 8, "oracle channel selection"):
        # typical per-system error-rate ordering: oracle < beamformed < single mic
        scores = {"single": 12.0, "beamformed": 10.7, "oracle": 7.2}
        assert oracle_select(scores) == "oracle"
        assert scores["oracle"] < scores["beamformed"] < scores["single"]

        rng = np.random.default_rng(108)
        for _ in range(200):
            n = int(rng.integers(1, 16))
            table = {f"ch{i}": float(rng.uniform(0, 100)) for i in range(n)}
            winner = oracle_select(table)
            assert all(table[winner] <= v for v in table.values())


def test_criterion_9_end_to_end_determinism(capsys, tmp_path):
    with criterion(capsys, 9, "end-to-end corpus determinism"):
        fs = 16000
        rng = np.random.default_rng(109)
        clean = tmp_path / "clean"
        clean.mkdir()
        sentences = [f"s{i:02d}" for i in range(20)]
        for name in sentences:
            x = 0.2 * rng.standard_normal(int(0.5 * fs))
            write_wav(clean / f"{name}.wav", AudioSignal(fs, x), fmt="float32")
        write_wav(
            tmp_path / "noise.wav", AudioSignal(fs, rng.standard_normal(2 * fs)), fmt="float32"
        )

        mics = [
            {"id": f"m{i}", "position": [1.0 + 0.1 * i, 1.0, 2.5]} for i in range(6)
        ]
        doc = {
            "seed": 11,
            "sample_rate": fs,
            "clean_dir": "clean",
            "rooms": {"lab": {"dimensions": [5.0, 4.0, 3.0], "t60": 0.3}},
            "arrays": {"ceiling": mics},
            "synthesis": {"ir_length": 0.15, "max_order": 4},
            "noise": {"file": "noise.wav", "snr_db": 15},
            "sessions": [
                {
                    "name": "sessA",
                    "room": "lab",
                    "array": "ceiling",
                    "source": {"position": [3.2, 2.1, 1.5], "directivity": "cardioid"},
                    "sentences": sentences,
                }
            ],
        }
        manifest_path = tmp_path / "manifest.json"

        digests = []
        for run, workers in ((1, 1), (2, 4)):
            doc["output_dir"] = f"out{run}"
            manifest_path.write_text(json.dumps(doc))
            report = plan_and_run(load_manifest(manifest_path), parallelism=workers)
            assert report.ok
            assert report.jobs_done == 20
            assert report.files_written == 120
            assert report.elapsed_seconds < 300
            root = tmp_path / f"out{run}"
            digests.append(
                {
                    str(p.relative_to(root)): hashlib.sha256(p.read_bytes()).hexdigest()
                    for p in sorted(root.rglob("*"))
                    if p.is_file()
                }
            )
        assert digests[0] == digests[1]
