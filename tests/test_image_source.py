import itertools
import math
import os
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from image_source_reference import reference_rir
from roomforge import (
    Directivity,
    ImageSynthesisConfig,
    ImpulseResponse,
    MicSpec,
    ResourceError,
    RoomSpec,
    SourceSpec,
    ValidationError,
    directivity_gain,
    reflectivity_from_t60,
    synthesize_rir,
)
from roomforge.image_source import lattice_image_count, synthesize_rirs

C = 343.0


def eyring_beta(dims, t60):
    """Independent Eyring evaluation (oracle for reflectivity_from_t60)."""
    v = dims[0] * dims[1] * dims[2]
    s = 2 * (dims[0] * dims[1] + dims[0] * dims[2] + dims[1] * dims[2])
    alpha = 1.0 - math.exp(-0.161 * v / (s * t60))
    return math.sqrt(1.0 - alpha)


def first_order_images(room_dims, source_pos, beta):
    """Oracle: the 6 order-1 mirror images plus the direct source.

    Returns (position, amplitude_factor) pairs; amplitude_factor is the
    wall attenuation product (distance attenuation applied by the caller).
    """
    images = [(np.array(source_pos, dtype=float), 1.0)]
    for axis in range(3):
        lo = np.array(source_pos, dtype=float)
        lo[axis] = -lo[axis]
        hi = np.array(source_pos, dtype=float)
        hi[axis] = 2 * room_dims[axis] - hi[axis]
        images.append((lo, beta[2 * axis]))
        images.append((hi, beta[2 * axis + 1]))
    return images


class TestReflectivityFromT60:
    def test_eyring_example(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.5,))
        beta = reflectivity_from_t60(room, 0.5)
        assert beta == pytest.approx(0.9023381342910366, abs=1e-12)
        assert beta == pytest.approx(eyring_beta((5, 4, 3), 0.5))

    def test_reference_room(self):
        # 0.75 s target in a living-room sized shoebox
        room = RoomSpec((4.5, 5.5, 2.7), reflectivity=(0.5,))
        beta = reflectivity_from_t60(room, 0.75)
        assert beta == pytest.approx(eyring_beta((4.5, 5.5, 2.7), 0.75), abs=1e-12)
        assert beta == pytest.approx(0.9330467240696795, abs=1e-12)

    def test_limit_case(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.5,))
        assert reflectivity_from_t60(room, 1e6) == pytest.approx(1.0, abs=1e-6)

    def test_nonpositive_rejected(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.5,))
        with pytest.raises(ValidationError):
            reflectivity_from_t60(room, 0.0)

    def test_unachievable_t60_rejected(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.5,))
        with pytest.raises(ValidationError, match="cannot achieve"):
            reflectivity_from_t60(room, 1e-7)


class TestAnechoic:
    def test_single_direct_tap(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.0,))
        src = SourceSpec((1, 1, 1))
        mic = MicSpec("m", (1 + 3.43, 1, 1))
        cfg = ImageSynthesisConfig(ir_length=0.05, max_reflection_order=5)
        ir = synthesize_rir(room, src, mic, cfg, sample_rate=48000)
        nz = np.flatnonzero(ir.samples)
        assert list(nz) == [480]  # round(3.43 / 343 * 48000)
        assert ir.samples[480] == pytest.approx(1.0 / (4 * np.pi * 3.43), abs=1e-12)
        assert ir.direct_path_index == 480

    def test_single_tap_regardless_of_order(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.0,))
        src = SourceSpec((2.2, 1.3, 1.1))
        mic = MicSpec("m", (4.0, 3.1, 2.0))
        for order in (0, 1, 4, "auto"):
            cfg = ImageSynthesisConfig(ir_length=0.05, max_reflection_order=order)
            ir = synthesize_rir(room, src, mic, cfg, sample_rate=48000)
            assert np.count_nonzero(ir.samples) == 1

    def test_cardioid_null_behind_source(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.0,))
        # source at x=3 facing +x, mic behind it on the -x side
        src = SourceSpec((3, 2, 1.5), azimuth=0.0, directivity="cardioid")
        mic = MicSpec("m", (1, 2, 1.5))
        cfg = ImageSynthesisConfig(ir_length=0.05, max_reflection_order=0)
        with pytest.raises(ValidationError):
            # a cardioid null everywhere means zero energy
            synthesize_rir(room, src, mic, cfg, sample_rate=48000)
        omni = SourceSpec((3, 2, 1.5), azimuth=0.0, directivity="omnidirectional")
        ir = synthesize_rir(room, omni, mic, cfg, sample_rate=48000)
        assert np.count_nonzero(ir.samples) == 1


class TestFirstOrderOracle:
    def test_seven_arrivals_match_brute_force(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.9,))
        src = SourceSpec((1.4, 2.2, 1.1))
        mic = MicSpec("m", (3.7, 1.2, 2.2))
        fs = 48000
        cfg = ImageSynthesisConfig(ir_length=0.1, max_reflection_order=1)
        ir = synthesize_rir(room, src, mic, cfg, sample_rate=fs)

        expected = np.zeros(ir.num_samples)
        images = first_order_images(room.dimensions, src.position, [0.9] * 6)
        assert len(images) == 7
        for pos, att in images:
            d = np.linalg.norm(np.asarray(mic.position) - pos)
            expected[round(d / C * fs)] += att / (4 * np.pi * d)
        assert np.count_nonzero(expected) == 7
        np.testing.assert_allclose(ir.samples, expected, rtol=0, atol=1e-12)

    def test_randomized_geometries_match_brute_force(self):
        rng = np.random.default_rng(2024)
        fs = 48000
        for _ in range(20):
            dims = rng.uniform(2.5, 8.0, 3)
            betas = rng.uniform(0.1, 0.95, 6)
            src_pos = rng.uniform(0.3, 0.7, 3) * dims
            mic_pos = rng.uniform(0.2, 0.8, 3) * dims
            if np.allclose(src_pos, mic_pos):
                continue
            room = RoomSpec(tuple(dims), reflectivity=tuple(betas))
            src = SourceSpec(tuple(src_pos))
            mic = MicSpec("m", tuple(mic_pos))
            cfg = ImageSynthesisConfig(ir_length=0.12, max_reflection_order=1)
            ir = synthesize_rir(room, src, mic, cfg, sample_rate=fs)

            expected = np.zeros(ir.num_samples)
            for pos, att in first_order_images(dims, src_pos, betas):
                d = np.linalg.norm(mic_pos - pos)
                k = round(d / C * fs)
                if k < expected.size:
                    expected[k] += att / (4 * np.pi * d)
            np.testing.assert_allclose(ir.samples, expected, rtol=0, atol=1e-12)


class TestDirectivity:
    def test_omni_equals_directive_omni(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.8,))
        base = dict(position=(1.5, 2.0, 1.2), azimuth=0.7, elevation=-0.2)
        mic = MicSpec("m", (3.3, 1.0, 2.2))
        cfg = ImageSynthesisConfig(ir_length=0.3, max_reflection_order=6)
        a = synthesize_rir(room, SourceSpec(**base, directivity="omnidirectional"), mic, cfg, 16000)
        b = synthesize_rir(room, SourceSpec(**base), mic, cfg, 16000)
        assert np.array_equal(a.samples, b.samples)

    def test_first_order_directive_matches_oracle(self):
        # mirrored orientation: boresight component flips on the mirrored axis
        room = RoomSpec((5, 4, 3), reflectivity=(0.9,))
        src = SourceSpec((1.4, 2.2, 1.1), azimuth=0.5, elevation=0.3, directivity="cardioid")
        mic = MicSpec("m", (3.7, 1.2, 2.2))
        fs = 48000
        cfg = ImageSynthesisConfig(ir_length=0.1, max_reflection_order=1)
        ir = synthesize_rir(room, src, mic, cfg, sample_rate=fs)

        expected = np.zeros(ir.num_samples)
        ori = src.orientation
        mirrors = [np.ones(3)]
        for axis in range(3):
            for _ in range(2):
                m = np.ones(3)
                m[axis] = -1.0
                mirrors.append(m)
        for (pos, att), mirror in zip(
            first_order_images(room.dimensions, src.position, [0.9] * 6), mirrors
        ):
            ray = np.asarray(mic.position) - pos
            d = np.linalg.norm(ray)
            cosang = float(np.dot(ori * mirror, ray / d))
            gain = directivity_gain("cardioid", math.acos(max(-1.0, min(1.0, cosang))))
            expected[round(d / C * fs)] += gain * att / (4 * np.pi * d)
        np.testing.assert_allclose(ir.samples, expected, rtol=0, atol=1e-12)


class TestEnergyAndModes:
    def test_energy_monotone_in_beta(self):
        room_dims = (5, 4, 3)
        src = SourceSpec((1.2, 1.7, 1.4))
        mic = MicSpec("m", (3.9, 2.8, 2.1))
        cfg = ImageSynthesisConfig(ir_length=0.25, max_reflection_order=8)
        energies = []
        for beta in (0.1, 0.3, 0.5, 0.7, 0.9):
            room = RoomSpec(room_dims, reflectivity=(beta,))
            ir = synthesize_rir(room, src, mic, cfg, sample_rate=16000)
            energies.append(ir.energy)
        assert all(b >= a for a, b in zip(energies, energies[1:]))

    def test_sinc_mode_close_to_nearest_on_integer_delay(self):
        # distance chosen so the delay is an exact sample instant
        room = RoomSpec((5, 4, 3), reflectivity=(0.0,))
        src = SourceSpec((1, 1, 1))
        mic = MicSpec("m", (1 + 3.43, 1, 1))
        cfg = ImageSynthesisConfig(ir_length=0.05, max_reflection_order=0, fractional_delay="sinc")
        ir = synthesize_rir(room, src, mic, cfg, sample_rate=48000)
        assert ir.samples[480] == pytest.approx(1.0 / (4 * np.pi * 3.43), rel=1e-9)

    def test_sinc_mode_exact_integer_delay_is_one_tap(self):
        # 2.5 m at 320 m/s is 2^-7 s: exactly 125 samples at 16 kHz
        room = RoomSpec((6, 4, 3), reflectivity=(0.0,), speed_of_sound=320.0)
        src = SourceSpec((1, 1, 1))
        mic = MicSpec("m", (3.5, 1, 1))
        cfg = ImageSynthesisConfig(ir_length=0.02, max_reflection_order=0, fractional_delay="sinc")
        ir = synthesize_rir(room, src, mic, cfg, sample_rate=16000).samples
        assert ir[125] == 1.0 / (4 * np.pi * 2.5)
        assert np.max(np.abs(np.delete(ir, 125))) < 1e-12 * ir[125]

    def test_sinc_mode_places_fractional_peak(self):
        room = RoomSpec((6, 4, 3), reflectivity=(0.0,))
        src = SourceSpec((1, 1, 1))
        d = 3.43 + 0.5 * C / 48000  # half-sample offset
        mic = MicSpec("m", (1 + d, 1, 1))
        cfg = ImageSynthesisConfig(ir_length=0.05, max_reflection_order=0, fractional_delay="sinc")
        ir = synthesize_rir(room, src, mic, cfg, sample_rate=48000)
        # energy preserved within the windowed-sinc approximation
        assert ir.energy == pytest.approx((1.0 / (4 * np.pi * d)) ** 2, rel=0.05)
        # a half-sample delay splits the peak across two neighbors
        k = int(np.floor(d / C * 48000))
        assert abs(ir.samples[k]) == pytest.approx(abs(ir.samples[k + 1]), rel=1e-6)

    def test_round_trip_t60(self):
        from roomforge import estimate_t60

        room_dims = (5, 4, 3)
        src = SourceSpec((1.2, 1.7, 1.4))
        mic = MicSpec("m", (3.9, 2.8, 2.1))
        for target in (0.3, 0.5, 0.75):
            beta = reflectivity_from_t60(RoomSpec(room_dims, reflectivity=(0.5,)), target)
            room = RoomSpec(room_dims, reflectivity=(beta,))
            cfg = ImageSynthesisConfig(
                ir_length=max(1.2 * target, 0.4), negative_reflection=True
            )
            ir = synthesize_rir(room, src, mic, cfg, sample_rate=16000)
            est = estimate_t60(ir, "T20")
            assert 0.7 * target <= est <= 1.3 * target

    def test_image_budget_exceeded(self):
        room = RoomSpec((2, 2, 2), reflectivity=(0.9,))
        src = SourceSpec((0.5, 0.5, 0.5))
        mic = MicSpec("m", (1.5, 1.5, 1.5))
        cfg = ImageSynthesisConfig(ir_length=3.0, image_budget=1000)
        with pytest.raises(ResourceError):
            synthesize_rir(room, src, mic, cfg, sample_rate=16000)

    def test_geometry_violations_rejected(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.9,))
        cfg = ImageSynthesisConfig(ir_length=0.1, max_reflection_order=1)
        with pytest.raises(ValidationError):
            synthesize_rir(room, SourceSpec((9, 1, 1)), MicSpec("m", (1, 1, 1)), cfg)
        with pytest.raises(ValidationError):
            synthesize_rir(room, SourceSpec((1, 1, 1)), MicSpec("m", (1, 9, 1)), cfg)
        with pytest.raises(ValidationError):
            synthesize_rir(room, SourceSpec((1, 1, 1)), MicSpec("m", (1, 1, 1)), cfg)

    def test_highpass_removes_dc(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.9,))
        src = SourceSpec((1.2, 1.7, 1.4))
        mic = MicSpec("m", (3.9, 2.8, 2.1))
        cfg = ImageSynthesisConfig(ir_length=0.3, highpass_hz=100.0)
        ir = synthesize_rir(room, src, mic, cfg, sample_rate=16000)
        spectrum = np.abs(np.fft.rfft(ir.samples))
        assert spectrum[0] < 0.01 * np.max(spectrum)

    def test_determinism(self):
        room = RoomSpec((5, 4, 3), target_t60=0.4)
        src = SourceSpec((1.2, 1.7, 1.4), directivity="subcardioid")
        mic = MicSpec("m", (3.9, 2.8, 2.1))
        cfg = ImageSynthesisConfig(ir_length=0.3)
        a = synthesize_rir(room, src, mic, cfg, sample_rate=16000)
        b = synthesize_rir(room, src, mic, cfg, sample_rate=16000)
        assert np.array_equal(a.samples, b.samples)


@st.composite
def synthesis_case(draw, n_mics=1):
    """Random shoebox, source, mics, config and rate; the engine's input space."""
    dims = tuple(draw(st.floats(2.0, 6.0)) for _ in range(3))
    if draw(st.booleans()):
        room = RoomSpec(dims, reflectivity=tuple(draw(st.floats(0.0, 1.0)) for _ in range(6)))
    else:
        room = RoomSpec(dims, target_t60=draw(st.floats(0.2, 1.0)))
    inside = st.floats(0.05, 0.95)
    kind = draw(st.sampled_from(["omnidirectional", "cardioid", "subcardioid", "hypercardioid", "custom"]))
    if kind == "custom":
        angles = sorted(set(draw(st.lists(st.floats(0.0, math.pi), min_size=2, max_size=6))))
        assume(len(angles) >= 2)
        gains = [draw(st.floats(0.0, 1.0)) for _ in angles]
        directivity = Directivity("custom", table=(tuple(angles), tuple(gains)))
    else:
        directivity = Directivity(kind)
    source = SourceSpec(
        tuple(draw(inside) * d for d in dims),
        azimuth=draw(st.floats(-math.pi, math.pi)),
        elevation=draw(st.floats(-1.5, 1.5)),
        directivity=directivity,
    )
    mics = [MicSpec(f"m{i}", tuple(draw(inside) * d for d in dims)) for i in range(n_mics)]
    config = ImageSynthesisConfig(
        ir_length=draw(st.floats(0.01, 0.06)),
        max_reflection_order=draw(st.one_of(st.just("auto"), st.integers(0, 6))),
        fractional_delay=draw(st.sampled_from(["nearest", "sinc"])),
        negative_reflection=draw(st.booleans()),
    )
    fs = draw(st.sampled_from([8000, 16000, 48000]))
    return room, source, mics, config, fs


class TestEngineAgainstReference:
    """The pruned, batched engine against the full-lattice reference algorithm."""

    @settings(max_examples=100, deadline=None)
    @given(synthesis_case())
    def test_matches_full_lattice_reference(self, case):
        room, source, (mic,), config, fs = case
        assume(not np.allclose(source.position, mic.position))
        expected = reference_rir(room, source, mic, config, fs)
        if np.sum(expected**2) == 0.0:
            with pytest.raises(ValidationError, match="nonzero energy"):
                synthesize_rir(room, source, mic, config, sample_rate=fs)
            return
        got = synthesize_rir(room, source, mic, config, sample_rate=fs).samples
        exact = config.fractional_delay == "nearest" and source.directivity.pattern in (
            "omnidirectional",
            "custom",
        )
        if exact:
            assert np.array_equal(got, expected)
        else:
            assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=40, deadline=None)
    @given(synthesis_case(n_mics=4))
    def test_batched_equals_one_mic_at_a_time(self, case):
        room, source, mics, config, fs = case
        try:
            alone = [synthesize_rirs(room, source, [m], config, fs)[0] for m in mics]
        except ValidationError:
            with pytest.raises(ValidationError):
                synthesize_rirs(room, source, mics, config, fs)
            return
        together = synthesize_rirs(room, source, mics, config, fs)
        for a, b in zip(together, alone):
            assert np.array_equal(a.samples, b.samples)
            assert a.direct_path_index == b.direct_path_index
            assert a.meta == b.meta

    def test_sinc_and_highpass_drift_within_bound_on_a_reverberant_room(self):
        room = RoomSpec((5, 4, 3), target_t60=0.5)
        src = SourceSpec((1.2, 1.7, 1.4), azimuth=0.4, directivity="cardioid")
        mic = MicSpec("m", (3.9, 2.8, 2.1))
        cfg = ImageSynthesisConfig(ir_length=0.25, fractional_delay="sinc", highpass_hz=60.0)
        expected = reference_rir(room, src, mic, cfg, 16000)
        got = synthesize_rir(room, src, mic, cfg, sample_rate=16000).samples
        assert np.max(np.abs(got - expected)) <= 1e-12 * np.max(np.abs(expected))

    def test_lattice_image_count_is_the_budget(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.9,))
        cfg = ImageSynthesisConfig(ir_length=3.0)
        assert lattice_image_count(room, cfg) == 151_428_024
        assert lattice_image_count(room, ImageSynthesisConfig(max_reflection_order=3)) == 10**3
        src = SourceSpec((1, 1, 1))
        mic = MicSpec("m", (2, 2, 2))
        tight = ImageSynthesisConfig(max_reflection_order=3, image_budget=10**3 - 1)
        with pytest.raises(ResourceError, match="1000 images"):
            synthesize_rir(room, src, mic, tight, sample_rate=16000)


def test_import_leaves_scipy_signal_unloaded():
    code = "import sys, roomforge; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
