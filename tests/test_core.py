import dataclasses
import re

import numpy as np
import pytest

from roomforge import (
    AudioSignal,
    ContaminationJob,
    Directivity,
    ImageSynthesisConfig,
    ImpulseResponse,
    IrCache,
    MicSpec,
    RoomSpec,
    SourceSpec,
    SweepSpec,
    ValidationError,
    angle_between,
    directivity_gain,
)
from roomforge.core import validate_mic_array
from roomforge.image_source import placement_faults
from roomforge.storage import save_ir


class TestDirectivityGain:
    def test_omni_is_angle_independent(self):
        for theta in np.linspace(0, np.pi, 11):
            assert directivity_gain("omnidirectional", theta) == 1.0

    def test_cardioid_endpoints(self):
        assert directivity_gain("cardioid", 0.0) == pytest.approx(1.0)
        assert directivity_gain("cardioid", np.pi) == pytest.approx(0.0, abs=1e-15)

    def test_cardioid_broadside(self):
        assert directivity_gain("cardioid", np.pi / 2) == pytest.approx(0.5)

    @pytest.mark.parametrize("pattern", ["omnidirectional", "cardioid", "subcardioid", "hypercardioid"])
    def test_boresight_gain_is_one(self, pattern):
        assert directivity_gain(pattern, 0.0) == pytest.approx(1.0)

    @pytest.mark.parametrize("pattern", ["omnidirectional", "cardioid", "subcardioid", "hypercardioid"])
    def test_monotone_non_increasing_and_bounded(self, pattern):
        thetas = np.linspace(0, np.pi, 400)
        gains = directivity_gain(pattern, thetas)
        assert np.all(np.diff(gains) <= 1e-12)
        assert np.all(gains >= 0) and np.all(gains <= 1)

    @pytest.mark.parametrize("pattern", ["cardioid", "subcardioid", "hypercardioid"])
    def test_continuity(self, pattern):
        thetas = np.linspace(0, np.pi, 20000)
        gains = directivity_gain(pattern, thetas)
        # max step shrinks with the grid: no jumps
        assert np.max(np.abs(np.diff(gains))) < 1e-3

    def test_custom_table_interpolation(self):
        d = Directivity("custom", table=((0.0, np.pi), (1.0, 0.2)))
        assert d.gain(0.0) == pytest.approx(1.0)
        assert d.gain(np.pi / 2) == pytest.approx(0.6)

    def test_custom_table_unsorted_rejected(self):
        with pytest.raises(ValidationError):
            Directivity("custom", table=((1.0, 0.5), (1.0, 0.9)))

    def test_custom_table_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            Directivity("custom", table=((0.0, 4.0), (1.0, 0.5)))
        with pytest.raises(ValidationError):
            Directivity("custom", table=((0.0, np.pi), (1.5, 0.5)))

    @pytest.mark.parametrize(
        "table, message",
        [(((0.0, np.pi), (1.0, float("nan"))), "gains must be finite, got (1.0, nan)"),
         (((0.0, float("nan"), np.pi), (1.0, 0.5, 0.2)),
          "angles must be finite, got (0.0, nan, 3.141592653589793)"),
         (((float("nan"), np.pi), (1.0, 0.2)), "angles must be finite, got (nan, 3.141592653589793)"),
         (((0.0, np.pi), (float("inf"), 0.2)), "gains must be finite, got (inf, 0.2)")],
        ids=["gain-nan", "angle-nan", "first-angle-nan", "gain-inf"],
    )
    def test_custom_table_that_is_not_finite_rejected(self, table, message):
        # NaN passes the order and range checks, which are comparisons
        with pytest.raises(ValidationError, match=f"^{re.escape(message)}$"):
            Directivity("custom", table=table)

    def test_angle_outside_range_rejected(self):
        with pytest.raises(ValidationError):
            directivity_gain("cardioid", -0.5)


class TestAngleBetween:
    def test_axis_cases(self):
        src = SourceSpec(position=(1, 1, 1), azimuth=0.0, elevation=0.0)  # facing +x
        assert angle_between(src, (2, 1, 1)) == pytest.approx(0.0)
        assert angle_between(src, (1, 2, 1)) == pytest.approx(np.pi / 2)
        assert angle_between(src, (0, 1, 1)) == pytest.approx(np.pi)

    def test_scaling_invariance(self):
        rng = np.random.default_rng(7)
        for _ in range(50):
            src = SourceSpec(
                position=tuple(rng.uniform(0, 1, 3)),
                azimuth=rng.uniform(-np.pi, np.pi),
                elevation=rng.uniform(-np.pi / 2, np.pi / 2),
            )
            ray = rng.standard_normal(3)
            p1 = np.asarray(src.position) + ray
            p2 = np.asarray(src.position) + 7.3 * ray
            assert angle_between(src, p1) == pytest.approx(angle_between(src, p2))

    def test_coincident_receiver_rejected(self):
        src = SourceSpec(position=(1, 1, 1))
        with pytest.raises(ValidationError):
            angle_between(src, (1, 1, 1))


class TestRoomSpec:
    def test_valid_room(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.9,))
        assert room.volume == pytest.approx(60.0)
        assert room.surface_area == pytest.approx(94.0)

    def test_nonpositive_dimension_rejected(self):
        with pytest.raises(ValidationError):
            RoomSpec((5, 0, 3), reflectivity=(0.9,))

    def test_reflectivity_out_of_range_rejected(self):
        with pytest.raises(ValidationError):
            RoomSpec((5, 4, 3), reflectivity=(1.2,))

    def test_needs_exactly_one_of_beta_or_t60(self):
        with pytest.raises(ValidationError):
            RoomSpec((5, 4, 3))
        with pytest.raises(ValidationError):
            RoomSpec((5, 4, 3), reflectivity=(0.9,), target_t60=0.5)

    def test_negative_t60_rejected(self):
        with pytest.raises(ValidationError):
            RoomSpec((5, 4, 3), target_t60=-1.0)

    @pytest.mark.parametrize(
        "dims, t60",
        [((float("inf"), 4, 3), 0.5), ((5, float("nan"), 3), 0.5),
         ((5, 4, 3), float("nan")), ((5, 4, 3), float("inf"))],
    )
    def test_non_finite_number_rejected(self, dims, t60):
        with pytest.raises(ValidationError, match="finite"):
            RoomSpec(dims, target_t60=t60)

    def test_speed_of_sound_sanity_bound(self):
        with pytest.raises(ValidationError):
            RoomSpec((5, 4, 3), reflectivity=(0.9,), speed_of_sound=500.0)

    def test_contains(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.9,))
        assert room.contains((2.5, 2, 1.5))
        assert not room.contains((5.0, 2, 1.5))  # on the wall is outside
        assert not room.contains((-1, 2, 1.5))


class TestSourceSpec:
    @pytest.mark.parametrize("angles", [(float("nan"), 0.0), (0.0, float("inf"))])
    def test_non_finite_angle_rejected(self, angles):
        with pytest.raises(ValidationError, match="must be finite"):
            SourceSpec((1, 1, 1), azimuth=angles[0], elevation=angles[1], directivity="cardioid")


# keyword arguments that build each constructor; RoomSpec takes reflectivity or a T60
VALID_KWARGS = {
    RoomSpec: [dict(dimensions=(5.0, 4.0, 3.0), reflectivity=(0.8,), speed_of_sound=343.0),
               dict(dimensions=(5.0, 4.0, 3.0), target_t60=0.5)],
    Directivity: [dict(pattern="custom", table=((0.0, 3.0), (1.0, 0.5)))],
    SourceSpec: [dict(position=(3.0, 2.0, 1.5), azimuth=0.5, elevation=-0.1)],
    MicSpec: [dict(id="m", position=(1.0, 1.0, 1.5))],
    ImageSynthesisConfig: [dict(ir_length=0.125, highpass_hz=50.0, max_reflection_order=3,
                                image_budget=10**6)],
    SweepSpec: [dict(f_start=20.0, f_end=2000.0, duration=1.0, amplitude=0.5, fade=0.1)],
    AudioSignal: [dict(sample_rate=16000, data=np.ones(4))],
    ImpulseResponse: [dict(sample_rate=16000, samples=np.ones(4), direct_path_index=2)],
    ContaminationJob: [dict(clean=AudioSignal(16000, np.ones(4)), irs=[ImpulseResponse(16000, np.ones(2))],
                            noise=AudioSignal(16000, np.ones(3)), target_snr_db=10.0, seed=3)],
}
# fields a message names by another word: the manifest's, or the table row at fault
MESSAGE_NAMES = {"target_t60": "t60", "table": "angles", "target_snr_db": "snr_db"}


def not_numbers(sequence):
    """Values that a numeric field refuses, whatever numbers it holds."""
    if not sequence:
        return ["1", True, np.True_, None, {"x": 1.0}, [1.0]]
    return ["543", 5.0, True, np.True_, ("1", 1.0, 1.0), (1.0, True, 1.0), (1.0, np.True_, 1.0),
            np.array([True, True, True]), {1.0: 1.0}]


# every field typed with float, alone or in a tuple, so that one added later is checked too
NOT_A_NUMBER_CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}-{i}")
    for cls in VALID_KWARGS
    for f in dataclasses.fields(cls)
    if "float" in str(f.type)
    for i, value in enumerate(not_numbers("Tuple" in str(f.type)))
    # None is how an optional field is left out
    if not (value is None and "Optional" in str(f.type))
]
# every field typed with float, given an integer that no float holds
TOO_LARGE_CASES = [
    pytest.param(cls, f.name, (1.0, 10**400, 1.0) if "Tuple" in str(f.type) else -(10**400),
                 id=f"{cls.__name__}.{f.name}")
    for cls in VALID_KWARGS
    for f in dataclasses.fields(cls)
    if "float" in str(f.type)
]
# every field typed with int, so that one added later is checked too
NOT_AN_INTEGER_CASES = [
    pytest.param(cls, f.name, value, id=f"{cls.__name__}.{f.name}-{i}")
    for cls in VALID_KWARGS
    for f in dataclasses.fields(cls)
    if re.search(r"\bint\b", str(f.type))
    for i, value in enumerate([True, np.True_, "16000", 16000.5])
]


class TestNumericFields:
    @pytest.mark.parametrize("cls, name, value", NOT_A_NUMBER_CASES)
    def test_field_that_is_not_a_number_is_refused(self, cls, name, value):
        kwargs = next((k for k in VALID_KWARGS[cls] if name in k), VALID_KWARGS[cls][0])
        if name == "table":  # a pair of rows: the angles are the first
            value = (value, kwargs["table"][1])
        # the message names the field; numpy 1 and 2 echo a numpy scalar differently
        field = MESSAGE_NAMES.get(name, name)
        with pytest.raises(ValidationError, match=rf"^{field} must be (a number|numbers), got "):
            cls(**{**kwargs, name: value})

    @pytest.mark.parametrize("cls, name, value", TOO_LARGE_CASES)
    def test_integer_too_large_for_a_float_is_refused(self, cls, name, value):
        # float() raises OverflowError on it; the field's rule names the field instead
        kwargs = next((k for k in VALID_KWARGS[cls] if name in k), VALID_KWARGS[cls][0])
        if name == "table":
            value = (value, kwargs["table"][1])
        field = MESSAGE_NAMES.get(name, name)
        with pytest.raises(ValidationError, match=rf"^{field}: integer too large to convert to float$"):
            cls(**{**kwargs, name: value})

    @pytest.mark.parametrize("cls, name, value", NOT_AN_INTEGER_CASES)
    def test_field_that_is_not_an_integer_is_refused(self, cls, name, value):
        # an order may also be "auto", which its message says
        kind = "('auto' or )?an integer( >= 0)?"
        with pytest.raises(ValidationError, match=rf"^{name} must be {kind}, got "):
            cls(**{**VALID_KWARGS[cls][0], name: value})

    def test_numpy_integers_build_their_int_twins(self, tmp_path):
        built = (ImpulseResponse(np.int64(16000), np.ones(8), direct_path_index=np.int32(5)),
                 ImageSynthesisConfig(max_reflection_order=np.int64(3), image_budget=np.uint32(10**6)))
        twins = (ImpulseResponse(16000, np.ones(8), direct_path_index=5),
                 ImageSynthesisConfig(max_reflection_order=3, image_budget=10**6))
        for b, t in zip(built, twins):
            values = [getattr(b, f.name) for f in dataclasses.fields(b)]
            assert [type(v) for v in values] == [type(getattr(t, f.name)) for f in dataclasses.fields(t)]
        assert built[1] == twins[1]
        assert type(AudioSignal(np.int16(8000), np.ones(2)).sample_rate) is int
        scene = (RoomSpec((5.0, 4.0, 3.0), target_t60=0.4), SourceSpec((3.0, 2.0, 1.5)),
                 MicSpec("m", (1.0, 1.0, 1.5)))
        assert IrCache.key(*scene, built[1], 16000) == IrCache.key(*scene, twins[1], 16000)
        # a sidecar is JSON, which a numpy integer would fail
        save_ir(tmp_path / "built.wav", built[0])
        save_ir(tmp_path / "twin.wav", twins[0])
        assert (tmp_path / "built.json").read_bytes() == (tmp_path / "twin.json").read_bytes()

    def test_numpy_scalars_build_their_float_twins(self):
        table = (np.array([0.0, 3.0], dtype=np.float32), (np.int64(1), 0.5))
        built = (
            RoomSpec(np.array([5, 4, 3]), reflectivity=(np.float32(0.75),), speed_of_sound=np.int64(343)),
            SourceSpec((np.float32(3.0), np.int64(2), 1.5), azimuth=np.float32(0.5),
                       elevation=np.float64(-0.25), directivity=Directivity("custom", table=table)),
            MicSpec("m", np.array([1.0, 1.0, 1.5], dtype=np.float32)),
            ImageSynthesisConfig(ir_length=np.float32(0.125), highpass_hz=np.int64(50)),
        )
        twins = (
            RoomSpec((5.0, 4.0, 3.0), reflectivity=(0.75,), speed_of_sound=343.0),
            SourceSpec((3.0, 2.0, 1.5), azimuth=0.5, elevation=-0.25,
                       directivity=Directivity("custom", table=((0.0, 3.0), (1.0, 0.5)))),
            MicSpec("m", (1.0, 1.0, 1.5)),
            ImageSynthesisConfig(ir_length=0.125, highpass_hz=50.0),
        )
        assert built == twins
        # the key is the JSON of every field, which a numpy scalar would fail or change
        assert IrCache.key(*built, 16000) == IrCache.key(*twins, 16000)


class TestMicArray:
    def test_duplicate_ids_rejected(self):
        mics = [MicSpec("a", (1, 1, 1)), MicSpec("a", (2, 1, 1))]
        with pytest.raises(ValidationError):
            validate_mic_array(mics)

    def test_empty_array_rejected(self):
        with pytest.raises(ValidationError, match="empty"):
            validate_mic_array([])

    def test_out_of_room_rejected(self):
        room = RoomSpec((5, 4, 3), reflectivity=(0.9,))
        assert placement_faults(room, SourceSpec((1, 1, 1)), [MicSpec("a", (6, 1, 1))]) == [
            ("mic", "mic 'a' position (6.0, 1.0, 1.0) outside room (5.0, 4.0, 3.0)")
        ]


class TestAudioSignal:
    def test_mono_promotes_to_2d(self):
        sig = AudioSignal(16000, np.zeros(100))
        assert sig.num_channels == 1
        assert sig.num_samples == 100

    def test_duration(self):
        sig = AudioSignal(16000, np.zeros(8000))
        assert sig.duration == pytest.approx(0.5)

    def test_mono_accessor_rejects_multichannel(self):
        sig = AudioSignal(16000, np.zeros((2, 100)))
        with pytest.raises(ValidationError):
            sig.mono


class TestImpulseResponse:
    def test_zero_energy_rejected(self):
        with pytest.raises(ValidationError):
            ImpulseResponse(16000, np.zeros(100))

    def test_empty_rejected(self):
        with pytest.raises(ValidationError):
            ImpulseResponse(16000, np.array([]))

    def test_nan_rejected(self):
        with pytest.raises(ValidationError):
            ImpulseResponse(16000, np.array([1.0, np.nan]))

    def test_direct_path_detection(self):
        h = np.zeros(100)
        h[37] = -0.8
        h[50] = 0.2
        ir = ImpulseResponse(16000, h)
        assert type(ir.direct_path_index) is int
        assert ir.direct_path_index == 37

    def test_producer_index_is_kept(self):
        ir = ImpulseResponse(16000, np.ones(100), direct_path_index=np.int64(99))
        assert type(ir.direct_path_index) is int
        assert ir.direct_path_index == 99

    @pytest.mark.parametrize("index", ["7", 3.5, True, np.bool_(True), -1, 100, 10**9])
    def test_bad_direct_path_index_rejected(self, index):
        with pytest.raises(ValidationError, match="direct_path_index"):
            ImpulseResponse(16000, np.ones(100), direct_path_index=index)

    def test_fields_cannot_be_reassigned_past_the_check(self):
        ir = ImpulseResponse(16000, np.ones(100), direct_path_index=5)
        with pytest.raises(dataclasses.FrozenInstanceError):
            ir.direct_path_index = 10**9
        with pytest.raises(dataclasses.FrozenInstanceError):
            ir.samples = np.ones(3)
        assert ir.direct_path_index == 5 and ir.num_samples == 100
        with pytest.raises(ValidationError, match="direct_path_index"):
            dataclasses.replace(ir, direct_path_index=10**9)
        assert dataclasses.replace(ir, direct_path_index=99).direct_path_index == 99
