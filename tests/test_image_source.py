import itertools
import math
import os
import subprocess
import sys
import tracemalloc

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
from roomforge import image_source
from roomforge.core import _first_order_gain
from roomforge.image_source import (
    MAX_IR_SAMPLES,
    _pattern_gain,
    direct_path_index,
    lattice_image_count,
    synthesize_rirs,
)

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

    def test_sinc_mode_direct_path_past_the_ir_rejected(self):
        # the direct path lands at sample 175 of a 160-sample IR; sinc taps still reach inside it
        room = RoomSpec((5, 4, 3), target_t60=0.5)
        src = SourceSpec((1, 1, 1))
        mic = MicSpec("m", (4, 3, 2))
        cfg = ImageSynthesisConfig(ir_length=0.01, fractional_delay="sinc")
        with pytest.raises(ValidationError, match=r"^mic 'm': the direct path arrives at sample 175, "
                           r"past the end of the 160-sample IR \(0\.01 s\)$"):
            synthesize_rir(room, src, mic, cfg, sample_rate=16000)

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

    def test_validate_rate_is_the_ir_length_in_samples(self):
        assert ImageSynthesisConfig(ir_length=0.1, highpass_hz=7999.0).validate_rate(16000) == 1600
        assert ImageSynthesisConfig(ir_length=1 / 16000).validate_rate(16000) == 1
        assert ImageSynthesisConfig(ir_length=MAX_IR_SAMPLES / 16000).validate_rate(16000) == MAX_IR_SAMPLES
        with pytest.raises(ValidationError, match=r"^ir_length \S+ s is too long: 1\.678e\+07 samples at 16000 Hz"):
            ImageSynthesisConfig(ir_length=(MAX_IR_SAMPLES + 1) / 16000).validate_rate(16000)
        with pytest.raises(ValidationError, match="^ir_length 1e-05 s is shorter than one sample"):
            ImageSynthesisConfig(ir_length=1e-5).validate_rate(16000)
        with pytest.raises(ValidationError, match="^highpass_hz 8000.0 Hz reaches Nyquist"):
            ImageSynthesisConfig(ir_length=0.1, highpass_hz=8000.0).validate_rate(16000)

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
def synthesis_case(draw, n_mics=1, omni=False):
    """Random shoebox, source, mics, config and rate; the engine's input space.

    With ``omni`` the source is omnidirectional.
    """
    dims = tuple(draw(st.floats(2.0, 6.0)) for _ in range(3))
    if draw(st.booleans()):
        room = RoomSpec(dims, reflectivity=tuple(draw(st.floats(0.0, 1.0)) for _ in range(6)))
    else:
        room = RoomSpec(dims, target_t60=draw(st.floats(0.2, 1.0)))
    inside = st.floats(0.05, 0.95)
    kinds = ["omnidirectional"] if omni else ["omnidirectional", "cardioid", "subcardioid", "hypercardioid", "custom"]
    kind = draw(st.sampled_from(kinds))
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


@st.composite
def shared_coordinate_case(draw):
    """``synthesis_case`` with an array whose mics share coordinates.

    Collinear along an axis, a 2 x 2 grid in a plane, or two mics with one
    coordinate equal: ``synthesize_rirs`` gathers a coordinate's per-axis values
    once for all the mics at it, which independent random mics never exercise.
    """
    room, source, (mic,), config, fs = draw(synthesis_case())
    layout = draw(st.sampled_from(["line", "grid", "pair"]))
    axes = draw(st.permutations(range(3)))
    # mics start from a point at least 0.1 m inside every wall, so steps up to
    # 0.09 m in either direction stay inside the room
    steps = st.floats(-0.09, 0.09)
    positions = []
    if layout == "line":  # equal along all but one axis
        for _ in range(draw(st.integers(2, 4))):
            p = list(mic.position)
            p[axes[0]] += draw(steps)
            positions.append(p)
    elif layout == "grid":  # a 2 x 2 grid in the plane of two axes
        a, b = draw(steps), draw(steps)
        for da, db in itertools.product((0.0, a), (0.0, b)):
            p = list(mic.position)
            p[axes[0]] += da
            p[axes[1]] += db
            positions.append(p)
    else:  # two mics with one coordinate equal
        other = list(mic.position)
        other[axes[0]] += draw(steps)
        other[axes[1]] += draw(steps)
        positions = [list(mic.position), other]
    mics = [MicSpec(f"m{i}", tuple(p)) for i, p in enumerate(positions)]
    assume(all(tuple(m.position) != tuple(source.position) for m in mics))
    return room, source, mics, config, fs


class TestEngineAgainstReference:
    """The pruned, batched engine against the full-lattice reference algorithm."""

    @settings(max_examples=100, deadline=None)
    @given(synthesis_case())
    def test_matches_full_lattice_reference(self, case):
        room, source, (mic,), config, fs = case
        assume(not np.allclose(source.position, mic.position))
        expected = reference_rir(room, source, mic, config, fs)
        index = direct_path_index(room, source, mic, fs)
        if index >= expected.size:
            # the IR ends before the direct path; in sinc mode its leading taps reach inside
            with pytest.raises(ValidationError, match=f"direct path arrives at sample {index}, past the end"):
                synthesize_rir(room, source, mic, config, sample_rate=fs)
            return
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

    @settings(max_examples=40, deadline=None)
    @given(shared_coordinate_case())
    def test_mics_that_share_coordinates(self, case):
        room, source, mics, config, fs = case
        try:
            alone = [synthesize_rirs(room, source, [m], config, fs)[0] for m in mics]
        except ValidationError:
            with pytest.raises(ValidationError):
                synthesize_rirs(room, source, mics, config, fs)
            return
        together = synthesize_rirs(room, source, mics, config, fs)
        exact = config.fractional_delay == "nearest" and source.directivity.pattern in (
            "omnidirectional",
            "custom",
        )
        for mic, a, b in zip(mics, together, alone):
            assert np.array_equal(a.samples, b.samples)
            expected = reference_rir(room, source, mic, config, fs)
            if exact:
                assert np.array_equal(a.samples, expected)
            else:
                assert np.max(np.abs(a.samples - expected)) <= 1e-12 * np.max(np.abs(expected))

    @settings(max_examples=100, deadline=None)
    @given(synthesis_case(omni=True))
    def test_swapping_source_and_mic_gives_the_same_ir(self, case):
        # The image of the source seen from the mic and that of the mic seen from
        # the source lie at the same distances after the same wall hits, but the
        # distances round differently and the sums run in another order.  Measured
        # over 393 random cases of this input space: nearest at most 3.3e-16 of the
        # peak; sinc at most 2.4e-13, where an IR of about 2900 samples at 48 kHz
        # turns one ulp of delay into about 1e-13 of a tap.
        room, source, (mic,), config, fs = case
        swapped = (SourceSpec(mic.position), MicSpec("m", source.position))
        try:
            ir = synthesize_rir(room, source, mic, config, sample_rate=fs)
        except ValidationError:
            with pytest.raises(ValidationError):
                synthesize_rir(room, *swapped, config, sample_rate=fs)
            return
        back = synthesize_rir(room, *swapped, config, sample_rate=fs)
        assert back.direct_path_index == ir.direct_path_index
        bound = 1e-14 if config.fractional_delay == "nearest" else 1e-12
        assert np.max(np.abs(back.samples - ir.samples)) <= bound * np.max(np.abs(ir.samples))

    @pytest.mark.parametrize(
        "budget, groups",
        [(1, [1, 1, 1, 1, 1]), (2 * 1152 * 20 * 8, [2, 2, 2, 2, 1])],
        ids=["one-mic-per-walk", "two-mics-per-walk"],
    )
    def test_mic_groups_give_the_bits_of_one_walk(self, monkeypatch, budget, groups):
        # the array's tables hold 20 weights for each of 1152 centres per mic
        room = RoomSpec((4.1, 3.4, 2.5), target_t60=0.5)
        mics = [MicSpec(f"m{i}", (2.0 + (i - 2) * 0.3, 0.4, 1.1)) for i in range(5)]
        src = SourceSpec((2.6, 2.3, 1.5), azimuth=-1.9, directivity="cardioid")
        cfg = ImageSynthesisConfig(ir_length=0.06, fractional_delay="sinc")
        together = synthesize_rirs(room, src, mics, cfg, 16000)
        sizes = []  # per mic, the number of mics in its walk
        real = image_source._add_sinc_kernels

        def recorded(weights, out):
            sizes.append(weights.base.shape[0])
            real(weights, out)

        monkeypatch.setattr(image_source, "_WEIGHT_BYTES", budget)
        monkeypatch.setattr(image_source, "_add_sinc_kernels", recorded)
        grouped = synthesize_rirs(room, src, mics, cfg, 16000)
        assert sizes == groups
        for a, b in zip(together, grouped):
            assert np.array_equal(a.samples, b.samples)

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
        # an integer order can ask for a count of any size; the message stays short
        huge = ImageSynthesisConfig(max_reflection_order=10**6)
        with pytest.raises(ResourceError, match=r"needs more than 10\^18 images"):
            synthesize_rir(room, src, mic, huge, sample_rate=16000)


@pytest.mark.parametrize("pattern", ["cardioid", "subcardioid", "hypercardioid"])
@pytest.mark.parametrize("side", [1.0, -1.0], ids=["ahead", "behind"])
def test_mic_on_the_boresight_line_gets_the_clipped_law(pattern, side):
    # 1 m ahead of or behind this source on its boresight line, the cosine of the
    # direct path, formed as the engine forms it, rounds to 1 + 2**-52 or -1 - 2**-52;
    # unclipped, the hypercardioid gain ahead and the subcardioid gain behind are off by an ulp
    room = RoomSpec((5.0, 4.0, 3.0), reflectivity=(0.9,))
    source = SourceSpec((2.0, 1.5, 1.2), azimuth=-2.9, elevation=-0.4, directivity=pattern)
    ori = source.orientation
    mic = MicSpec("m", tuple(float(s + side * o) for s, o in zip(source.position, ori)))
    rel = [m - s for m, s in zip(mic.position, source.position)]
    dist = np.sqrt((rel[0] * rel[0] + rel[1] * rel[1]) + rel[2] * rel[2])
    cos = np.array([(ori[0] * rel[0] + ori[1] * rel[1] + ori[2] * rel[2]) / dist])
    assert side * cos[0] > 1.0
    expected = _first_order_gain(pattern, np.clip(cos, -1.0, 1.0))
    assert _pattern_gain(Directivity(pattern), cos.copy()).tobytes() == expected.tobytes()
    # order 0 leaves the direct path alone in the IR
    config = ImageSynthesisConfig(ir_length=0.01, max_reflection_order=0)
    if expected[0] == 0.0:
        with pytest.raises(ValidationError, match="nonzero energy"):
            synthesize_rir(room, source, mic, config, sample_rate=16000)
        return
    ir = synthesize_rir(room, source, mic, config, sample_rate=16000)
    assert np.flatnonzero(ir.samples).tolist() == [ir.direct_path_index]
    assert ir.samples[ir.direct_path_index] == expected[0] / (4.0 * np.pi * dist)


def test_sinc_weights_match_a_loop_over_the_images():
    # each image in order, as scalars: the exact tap of a whole-sample delay, else
    # amp * T_m(x) by the same recurrence added to row m of the table at its centre
    w, terms = image_source.SINC_HALF_WIDTH, image_source._CHEB_TERMS
    rng = np.random.default_rng(29)
    n = 3000
    # many images share a centre; a fifth sit on a whole sample, some on half samples
    delays = rng.integers(40, 52, n) + rng.choice([0.0, 0.5, -0.5, 0.25], n, p=[0.2, 0.1, 0.1, 0.6])
    delays[::3] += rng.uniform(-0.5, 0.5, delays[::3].size)
    amps = rng.standard_normal(n)
    size = 96
    expected_out, expected = np.zeros(size + 2 * w), np.zeros((terms, size))
    for d, a in zip(delays.tolist(), amps.tolist()):
        r = round(d)
        x = 2.0 * (r - d)
        if x == 0.0:
            expected_out[r + w] += a
            continue
        older, prev = a, a * x
        expected[0, r] += older
        expected[1, r] += prev
        for m in range(2, terms):
            older, prev = prev, 2.0 * x * prev - older
            expected[m, r] += prev
    out, weights = np.zeros(size + 2 * w), np.zeros((terms, size))
    # two calls, as two chunks of one walk
    for part in (slice(0, 1700), slice(1700, n)):
        image_source._add_sinc_weights(delays[part], amps[part], out, weights)
    assert out.tobytes() == expected_out.tobytes()
    assert weights.tobytes() == expected.tobytes()


@pytest.mark.parametrize(
    "config, fs, bound_mb",
    [
        # with the whole lattice held at once this peaked at 39.6 MB (nearest) and 22.4 MB (sinc)
        (ImageSynthesisConfig(ir_length=0.5), 16000, 8),
        (ImageSynthesisConfig(ir_length=0.25, fractional_delay="sinc", highpass_hz=60.0), 16000, 10),
        # the tables of four mics fill _WEIGHT_BYTES: two walks; scattering the images in
        # blocks of 2048 into a (centres, terms) table, this peaked at 11.7 MB
        (ImageSynthesisConfig(ir_length=0.25, fractional_delay="sinc"), 48000, 12),
    ],
    ids=["nearest", "sinc", "sinc-48k-two-walks"],
)
def test_array_working_set_is_a_few_chunks(config, fs, bound_mb):
    room = RoomSpec((4.1, 3.4, 2.5), target_t60=0.5)
    mics = [MicSpec(f"m{i}", (2.0 + (i - 3.5) * 0.05, 0.4, 1.1)) for i in range(8)]
    src = SourceSpec((2.6, 2.3, 1.5), azimuth=-1.9, directivity="cardioid")
    synthesize_rirs(room, src, mics, config, fs)  # imports outside the trace
    tracemalloc.start()
    try:
        synthesize_rirs(room, src, mics, config, fs)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak <= bound_mb * 1e6


def test_import_leaves_scipy_signal_unloaded():
    # scipy.signal costs about a second to import; the package and the CLI defer it
    code = "import sys, roomforge, roomforge.cli; print('scipy.signal' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"


def test_parabolic_gcc_phat_and_steering_leave_scipy_signal_unloaded():
    code = (
        "import sys; import numpy as np; from roomforge import AudioSignal, gcc_phat, steer_and_sum\n"
        "x = np.random.default_rng(0).standard_normal((3, 4000)); x[1] = np.roll(x[0], 3)\n"
        "d = gcc_phat(AudioSignal(16000, x[0]), AudioSignal(16000, x[1]), interpolation='parabolic')\n"
        "b = steer_and_sum(AudioSignal(16000, x), interpolation='parabolic')\n"
        "print(round(d.delay * 16000), 'scipy.signal' in sys.modules)"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(sys.path))
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.split() == ["3", "False"]
