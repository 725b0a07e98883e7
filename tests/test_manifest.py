import hashlib
import json
import os
import reprlib
import sys
import threading
import time
import tracemalloc
from dataclasses import replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from contaminate_reference import whole_array_contaminate
from roomforge import (
    AudioSignal,
    Directivity,
    ImageSynthesisConfig,
    ImpulseResponse,
    MicSpec,
    RoomSpec,
    SourceSpec,
    ValidationError,
    angle_between,
    directivity_gain,
)
from roomforge.manifest import (
    CACHE_ENV_VAR,
    IrCache,
    ManifestError,
    load_manifest,
    parse_manifest,
    plan_and_run,
)
from roomforge.image_source import ResourceError, direct_path_index, lattice_image_count, synthesize_rirs
from roomforge.storage import load_ir, save_ir
from roomforge.wavio import read_wav, write_wav

FS = 16000
THREE_MICS = [
    {"id": "m0", "position": [1.0, 1.0, 1.5]},
    {"id": "m1", "position": [1.2, 1.0, 1.5]},
    {"id": "m2", "position": [1.4, 1.0, 1.5]},
]


def write_clean(directory, names, seconds=0.5, seed=50):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for name in names:
        x = 0.2 * rng.standard_normal(int(seconds * FS))
        write_wav(directory / f"{name}.wav", AudioSignal(FS, x), fmt="float32")


KEY_ROOM = RoomSpec((5.0, 4.0, 3.0), reflectivity=(0.9, 0.9, 0.8, 0.8, 0.7, 0.7))
KEY_SOURCE = SourceSpec((3.0, 2.0, 1.5), azimuth=0.5, elevation=-0.1,
                        directivity=Directivity("custom", table=((0.0, 1.5, 3.0), (1.0, 0.5, 0.2))))


def scene_key(room=KEY_ROOM, source=KEY_SOURCE, mic=MicSpec("a", (1.0, 1.0, 1.5)),
              config=ImageSynthesisConfig(ir_length=0.1), fs=FS):
    return IrCache.key(room, source, mic, config, fs)


def _set_directivity(doc, key, value):
    table = {"angles_deg": [0, 180], "gains": [1, 0]}
    doc["sessions"][0]["source"]["directivity"] = dict(table, **{key: value})


# every numeric field of a manifest: (block path, name in the message, whether it is a list, setter)
NUMERIC_FIELDS = {
    "dimensions": ("$.rooms.lab", "dimensions", True, lambda d, v: d["rooms"]["lab"].update(dimensions=v)),
    "reflectivity": ("$.rooms.lab", "reflectivity", True,
                     lambda d, v: d["rooms"]["lab"].update(reflectivity=v)),
    "t60": ("$.rooms.lab", "t60", False,
            lambda d, v: d["rooms"].update(lab={"dimensions": [5.0, 4.0, 3.0], "t60": v})),
    "speed_of_sound": ("$.rooms.lab", "speed_of_sound", False,
                       lambda d, v: d["rooms"]["lab"].update(speed_of_sound=v)),
    "mic-position": ("$.arrays.pair", "position", True,
                     lambda d, v: d["arrays"]["pair"][1].update(position=v)),
    "source-position": ("$.sessions[0].source", "position", True,
                        lambda d, v: d["sessions"][0]["source"].update(position=v)),
    "azimuth_deg": ("$.sessions[0].source", "azimuth_deg", False,
                    lambda d, v: d["sessions"][0]["source"].update(azimuth_deg=v)),
    "elevation_deg": ("$.sessions[0].source", "elevation_deg", False,
                      lambda d, v: d["sessions"][0]["source"].update(elevation_deg=v)),
    "angles_deg": ("$.sessions[0].source", "angles_deg", True,
                   lambda d, v: _set_directivity(d, "angles_deg", v)),
    "gains": ("$.sessions[0].source", "gains", True, lambda d, v: _set_directivity(d, "gains", v)),
    "ir_length": ("$.synthesis", "ir_length", False, lambda d, v: d["synthesis"].update(ir_length=v)),
    "highpass_hz": ("$.synthesis", "highpass_hz", False, lambda d, v: d["synthesis"].update(highpass_hz=v)),
}


SNR_OUT_OF_RANGE = "is out of range: 10 ** (snr_db / 20) is not a positive finite float"
MAX_ORDER_INVALID = "max_reflection_order must be 'auto' or an integer >= 0"


def base_doc(tmp_path, sentences=("s01", "s02"), mics=None):
    mics = mics or [
        {"id": "m0", "position": [1.0, 1.0, 1.5]},
        {"id": "m1", "position": [1.2, 1.0, 1.5]},
    ]
    return {
        "seed": 7,
        "sample_rate": FS,
        "clean_dir": "clean",
        "output_dir": "out",
        "rooms": {"lab": {"dimensions": [5.0, 4.0, 3.0], "reflectivity": [0.8]}},
        "arrays": {"pair": mics},
        "synthesis": {"ir_length": 0.1, "max_order": 2},
        "sessions": [
            {
                "name": "sessA",
                "room": "lab",
                "array": "pair",
                "source": {"position": [3.0, 2.0, 1.5]},
                "sentences": list(sentences),
            }
        ],
    }


def placement_doc(tmp_path, sources, mics=None):
    """``base_doc`` with one single-sentence session per source position."""
    doc = base_doc(tmp_path, sentences=(), mics=mics)
    first = doc["sessions"].pop()
    for i, position in enumerate(sources):
        doc["sessions"].append(
            dict(first, name=f"sess{i}", source={"position": position}, sentences=[f"s{i}"])
        )
    write_clean(tmp_path / "clean", [f"s{i}" for i in range(len(sources))])
    return doc


def hook_synthesis(monkeypatch, before):
    """Make the manifest's dispatch of each synthesis call ``before()`` first.

    The dispatch runs in the calling process, whether the placement is then
    synthesized there or in a worker process.  Returns the calls it got, as
    (source position, mic ids, whether it went to the process pool) triples.
    """
    from roomforge import manifest as manifest_module

    calls = []
    synthesize = manifest_module._synthesize

    def hooked(room, source, mics, config, fs, pooled):
        calls.append((source.position, tuple(mic.id for mic in mics), pooled))
        before()
        return synthesize(room, source, mics, config, fs, pooled)

    monkeypatch.setattr(manifest_module, "_synthesize", hooked)
    return calls


def pool_from_the_first_run(monkeypatch):
    """Have the process pool pay for itself from the first run, however small."""
    from roomforge import manifest as manifest_module

    monkeypatch.setattr(manifest_module, "POOL_BREAK_EVEN", 0)


# with one CPU, a run synthesizes in the calling process
MULTI_CPU = (os.cpu_count() or 1) > 1


class TestParseManifest:
    def test_minimal_manifest(self, tmp_path):
        doc = base_doc(tmp_path)
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert m.job_count() == 2
        assert m.seed == 7
        assert m.sample_rate == FS
        assert m.rooms["lab"].dimensions == (5.0, 4.0, 3.0)
        assert [mic.id for mic in m.arrays["pair"]] == ["m0", "m1"]

    def test_invalid_json_rejected(self):
        with pytest.raises(ManifestError):
            parse_manifest("{not json")

    def test_integer_longer_than_python_parses_is_invalid_json(self):
        # json.loads raises a plain ValueError past 4300 digits, not a JSONDecodeError
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest('{"seed": 1' + "0" * 5000 + "}")
        [(where, message)] = exc_info.value.errors
        assert where == "$" and message.startswith("not valid JSON: Exceeds the limit (4300 digits)")

    def test_source_outside_room_names_the_session(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["sessions"][0]["source"]["position"] = [9.0, 2.0, 1.5]
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        paths = [p for p, _ in exc_info.value.errors]
        assert "$.sessions[0].source.position" in paths

    def test_mic_outside_room_reported(self, tmp_path):
        doc = base_doc(tmp_path, mics=[{"id": "m0", "position": [1.0, 1.0, 9.9]}])
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert any("m0" in msg for _, msg in exc_info.value.errors)

    def test_empty_array_reported(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["arrays"]["none"] = []
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [("$.arrays.none", "microphone array is empty")]

    def test_all_errors_reported_at_once(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["sample_rate"] = 44100
        doc["normalization"] = "loudness"
        doc["sessions"][0]["room"] = "nowhere"
        doc["sessions"][0]["sentences"] = ["s01", "s01"]
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        paths = [p for p, _ in exc_info.value.errors]
        assert "$.sample_rate" in paths
        assert "$.normalization" in paths
        assert "$.sessions[0].room" in paths
        assert "$.sessions[0].sentences" in paths
        assert len(exc_info.value.errors) >= 4

    def test_missing_noise_file_reported(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["noise"] = {"file": "no_such.wav", "snr_db": 20}
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert any(p == "$.noise.file" for p, _ in exc_info.value.errors)

    def test_image_budget_checked_per_synthesized_room(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["synthesis"] = {"ir_length": 3.0}
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            (
                "$.synthesis.ir_length",
                "room 'lab' needs 151428024 images, exceeding the budget of 10000000",
            )
        ]
        # measured IRs need no synthesis, so neither the budget nor the rate checks apply
        doc["synthesis"]["highpass_hz"] = 9000
        (tmp_path / "m0.wav").touch()
        (tmp_path / "m1.wav").touch()
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {"m0": "m0.wav", "m1": "m1.wav"}}
        parse_manifest(json.dumps(doc), base_dir=tmp_path)

    @pytest.mark.parametrize(
        "max_order, count",
        [
            (106, "10360232"),  # (2 * (2 * 54 + 1)) ** 3 images
            (10**6, "more than 10^18"),  # 8000072000216000216
            (10**400, "more than 10^1200"),  # about 8e1200
            (10**2000, "more than 10^6000"),  # past the 4300 digits Python turns into a string
        ],
        ids=["small", "1e6", "1e400", "1e2000"],
    )
    def test_integer_order_past_the_budget_names_max_order(self, tmp_path, max_order, count):
        doc = base_doc(tmp_path)
        doc["synthesis"] = {"ir_length": 0.1, "max_order": max_order}
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            ("$.synthesis.max_order", f"room 'lab' needs {count} images, exceeding the budget of 10000000")
        ]

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d.update(noise="n.wav"), "$.noise"),
            (lambda d: d.update(synthesis="x"), "$.synthesis"),
            (lambda d: d["sessions"][0].update(ir="load"), "$.sessions[0].ir"),
            (lambda d: d.update(seed="abc"), "$.seed"),
            (lambda d: d.update(seed=True), "$.seed"),
            (lambda d: d.update(sample_rate="16000"), "$.sample_rate"),
            (lambda d: d["sessions"][0].update(sentences="s01"), "$.sessions[0].sentences"),
            (lambda d: d["sessions"][0].update(sentences=["s01", 2]), "$.sessions[0].sentences"),
            (lambda d: d.update(rooms=["lab"]), "$.rooms"),
            (lambda d: d.update(arrays="pair"), "$.arrays"),
            (lambda d: d.update(sessions={"name": "sessA"}), "$.sessions"),
            (lambda d: d["sessions"].append("sessB"), "$.sessions[1]"),
            (lambda d: d["sessions"][0].update(room=["lab"]), "$.sessions[0].room"),
            (lambda d: d["sessions"][0].update(name=3), "$.sessions[0].name"),
            (lambda d: d["sessions"][0].update(source=[3.0, 2.0, 1.5]), "$.sessions[0].source"),
            (lambda d: d.update(output_dir=5), "$.output_dir"),
            (lambda d: d.update(noise={"file": 5, "snr_db": 10}), "$.noise.file"),
            (lambda d: d["sessions"][0].update(ir={"mode": "load", "files": {"m0": 0}}),
             "$.sessions[0].ir.files"),
        ],
    )
    def test_value_of_the_wrong_json_type_names_its_path(self, tmp_path, edit, path):
        (tmp_path / "n.wav").touch()
        doc = base_doc(tmp_path)
        edit(doc)
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert any(p == path and msg.startswith("must be ") for p, msg in exc_info.value.errors)

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: d["rooms"]["lab"].update(dimensions=[5.0, "x", 3.0]),
             ("$.rooms.lab", "dimensions must be numbers, got [5.0, 'x', 3.0]")),
            (lambda d: d["arrays"]["pair"][1].update(position=["x", 1.0, 1.5]),
             ("$.arrays.pair", "position must be numbers, got ['x', 1.0, 1.5]")),
            (lambda d: d["sessions"][0]["source"].update(position=[3.0, 2.0, "x"]),
             ("$.sessions[0].source", "position must be numbers, got [3.0, 2.0, 'x']")),
            (lambda d: d["synthesis"].update(ir_length=float("inf")),
             ("$.synthesis", "ir_length must be finite and positive, got inf")),
            (lambda d: d["synthesis"].update(highpass_hz=float("nan")),
             ("$.synthesis", "highpass_hz must be finite and >= 0, got nan")),
            (lambda d: d["rooms"]["lab"].pop("dimensions"),
             ("$.rooms.lab.dimensions", "missing required field")),
            (lambda d: d["sessions"][0]["source"].pop("position"),
             ("$.sessions[0].source.position", "missing required field")),
            (lambda d: d["rooms"]["lab"].update(dimensions=[float("inf"), 4.0, 3.0]),
             ("$.rooms.lab", "room dimensions must be 3 finite positive lengths, got (inf, 4.0, 3.0)")),
            (lambda d: d["rooms"].update(lab={"dimensions": [5.0, 4.0, 3.0], "t60": float("nan")}),
             ("$.rooms.lab", "target T60 must be finite and positive, got nan")),
            (lambda d: d["sessions"][0]["source"].update(azimuth_deg=float("nan"), directivity="cardioid"),
             ("$.sessions[0].source", "source azimuth and elevation must be finite, got nan, 0.0")),
            (lambda d: d["arrays"]["pair"][1].pop("id"),
             ("$.arrays.pair[1].id", "missing required field")),
            (lambda d: d["arrays"]["pair"][1].pop("position"),
             ("$.arrays.pair[1].position", "missing required field")),
            (lambda d: d["synthesis"].update(highpass_hz=8000),
             ("$.synthesis.highpass_hz", "highpass_hz 8000.0 Hz reaches Nyquist for sample rate 16000")),
            (lambda d: d["synthesis"].update(ir_length=1e-5),
             ("$.synthesis.ir_length", "ir_length 1e-05 s is shorter than one sample at 16000 Hz")),
            (lambda d: d.update(noise={"file": "n.wav", "snr_db": float("nan")}),
             ("$.noise.snr_db", f"nan dB {SNR_OUT_OF_RANGE}")),
            (lambda d: d.update(noise={"file": "n.wav", "snr_db": float("-inf")}),
             ("$.noise.snr_db", f"-inf dB {SNR_OUT_OF_RANGE}")),
            (lambda d: d["sessions"][0]["source"].update(
                directivity={"angles_deg": [0, 180], "gains": [1, float("nan")]}),
             ("$.sessions[0].source", "directivity table angles and gains must be finite")),
            (lambda d: d["sessions"][0]["source"].update(
                directivity={"angles_deg": [0, float("nan"), 180], "gains": [1, 0.5, 0]}),
             ("$.sessions[0].source", "directivity table angles and gains must be finite")),
            (lambda d: d["rooms"]["lab"].update(dimensions=[10**400, 4.0, 3.0]),
             ("$.rooms.lab", "dimensions: integer too large to convert to float")),
            (lambda d: d["rooms"].update(lab={"dimensions": [5.0, 4.0, 3.0], "t60": 10**400}),
             ("$.rooms.lab", "t60: integer too large to convert to float")),
            (lambda d: d["arrays"]["pair"][1].update(position=[1.0, 10**400, 1.5]),
             ("$.arrays.pair", "position: integer too large to convert to float")),
            (lambda d: d["sessions"][0]["source"].update(position=[3.0, 2.0, 10**400]),
             ("$.sessions[0].source", "position: integer too large to convert to float")),
            (lambda d: d["sessions"][0]["source"].update(azimuth_deg=10**400),
             ("$.sessions[0].source", "azimuth_deg: integer too large to convert to float")),
            (lambda d: d["synthesis"].update(ir_length=10**400),
             ("$.synthesis", "ir_length: integer too large to convert to float")),
            # the noise gain divides by 10 ** (snr_db / 20), which overflows or underflows to 0
            (lambda d: d.update(noise={"file": "n.wav", "snr_db": 1e300}),
             ("$.noise.snr_db", f"1e+300 dB {SNR_OUT_OF_RANGE}")),
            (lambda d: d.update(noise={"file": "n.wav", "snr_db": -1e300}),
             ("$.noise.snr_db", f"-1e+300 dB {SNR_OUT_OF_RANGE}")),
            (lambda d: d.update(noise={"file": "n.wav", "snr_db": -(10**400)}),
             ("$.noise.snr_db", "snr_db: integer too large to convert to float")),
            (lambda d: d["synthesis"].update(max_order=float("inf")),
             ("$.synthesis", f"{MAX_ORDER_INVALID}, got inf")),
            (lambda d: d["synthesis"].update(max_order=float("nan")),
             ("$.synthesis", f"{MAX_ORDER_INVALID}, got nan")),
            (lambda d: d["synthesis"].update(max_order=2.5),
             ("$.synthesis", f"{MAX_ORDER_INVALID}, got 2.5")),
            (lambda d: d["synthesis"].update(max_order=True),
             ("$.synthesis", f"{MAX_ORDER_INVALID}, got True")),
            # JSON true and false are not the numbers 1 and 0 that Python takes them for
            (lambda d: d["synthesis"].update(ir_length=True),
             ("$.synthesis", "ir_length must be a number, got True")),
            (lambda d: d["synthesis"].update(highpass_hz=True),
             ("$.synthesis", "highpass_hz must be a number, got True")),
            (lambda d: d["rooms"].update(lab={"dimensions": [5.0, 4.0, 3.0], "t60": True}),
             ("$.rooms.lab", "t60 must be a number, got True")),
            (lambda d: d["rooms"]["lab"].update(reflectivity=[True]),
             ("$.rooms.lab", "reflectivity must be numbers, got [True]")),
            (lambda d: d["rooms"]["lab"].update(dimensions=[5.0, True, 3.0]),
             ("$.rooms.lab", "dimensions must be numbers, got [5.0, True, 3.0]")),
            (lambda d: d["rooms"]["lab"].update(speed_of_sound=False),
             ("$.rooms.lab", "speed_of_sound must be a number, got False")),
            (lambda d: d["arrays"]["pair"][1].update(position=[1.0, True, 1.5]),
             ("$.arrays.pair", "position must be numbers, got [1.0, True, 1.5]")),
            (lambda d: d["sessions"][0]["source"].update(position=[3.0, 2.0, True]),
             ("$.sessions[0].source", "position must be numbers, got [3.0, 2.0, True]")),
            (lambda d: d["sessions"][0]["source"].update(azimuth_deg=True),
             ("$.sessions[0].source", "azimuth_deg must be a number, got True")),
            (lambda d: d["sessions"][0]["source"].update(elevation_deg=False),
             ("$.sessions[0].source", "elevation_deg must be a number, got False")),
            (lambda d: d["sessions"][0]["source"].update(
                directivity={"angles_deg": [False, 180], "gains": [1, 0]}),
             ("$.sessions[0].source", "angles_deg must be numbers, got [False, 180]")),
            (lambda d: d["sessions"][0]["source"].update(
                directivity={"angles_deg": [0, 180], "gains": [True, 0]}),
             ("$.sessions[0].source", "gains must be numbers, got [True, 0]")),
            # a string is not its characters, nor a bare number a list of them
            (lambda d: d["rooms"]["lab"].update(dimensions="543"),
             ("$.rooms.lab", "dimensions must be numbers, got '543'")),
            (lambda d: d["arrays"]["pair"][1].update(position="111"),
             ("$.arrays.pair", "position must be numbers, got '111'")),
            (lambda d: d["sessions"][0]["source"].update(position="111"),
             ("$.sessions[0].source", "position must be numbers, got '111'")),
            (lambda d: d["rooms"]["lab"].update(reflectivity=0.8),
             ("$.rooms.lab", "reflectivity must be numbers, got 0.8")),
            (lambda d: d["rooms"]["lab"].update(speed_of_sound=None),
             ("$.rooms.lab", "speed_of_sound must be a number, got None")),
            (lambda d: d.update(noise={"file": "n.wav", "snr_db": "10"}),
             ("$.noise.snr_db", "snr_db must be a number, got '10'")),
            (lambda d: d.update(noise={"file": "n.wav", "snr_db": True}),
             ("$.noise.snr_db", "snr_db must be a number, got True")),
            (lambda d: d.update(noise={"file": "n.wav"}), ("$.noise.snr_db", "missing required field")),
        ],
        ids=["room", "mic", "source", "ir-length", "highpass", "no-dimensions", "no-position",
             "room-inf", "t60-nan", "azimuth-nan", "mic-no-id", "mic-no-position",
             "highpass-nyquist", "ir-under-one-sample", "snr-nan", "snr-inf",
             "directivity-gain-nan", "directivity-angle-nan", "dimensions-huge", "t60-huge",
             "mic-position-huge", "source-position-huge", "azimuth-huge", "ir-length-huge",
             "snr-overflow", "snr-underflow", "snr-huge-int", "max-order-inf", "max-order-nan",
             "max-order-fraction", "max-order-bool", "ir-length-bool", "highpass-bool", "t60-bool",
             "reflectivity-bool", "dimensions-bool", "speed-of-sound-bool", "mic-position-bool",
             "source-position-bool", "azimuth-bool", "elevation-bool", "directivity-angle-bool",
             "directivity-gain-bool", "dimensions-string", "mic-position-string",
             "source-position-string", "reflectivity-bare", "speed-of-sound-null", "snr-string",
             "snr-bool", "snr-missing"],
    )
    def test_number_that_is_not_one_names_its_path(self, tmp_path, edit, error):
        doc = base_doc(tmp_path)
        edit(doc)
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors[0] == error

    @pytest.mark.parametrize(
        "directivity, start",
        [(lambda n: {f"k{i}": i for i in range(n)}, "cannot interpret directivity {'k0': 0, "),
         (lambda n: "x" * n, "unknown directivity pattern 'xxxxx")],
        ids=["object", "pattern"],
    )
    def test_long_directivity_is_echoed_shortened(self, directivity, start):
        doc = base_doc(None)
        doc["sessions"][0]["source"]["directivity"] = directivity(100_000)
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc))
        [(path, message)] = exc_info.value.errors
        assert path == "$.sessions[0].source" and message.startswith(start) and len(message) < 300

    @pytest.mark.parametrize("value", ["5", ["5", "4", "3"]], ids=["string", "list-of-strings"])
    @pytest.mark.parametrize("field", NUMERIC_FIELDS)
    def test_string_in_a_numeric_field_names_its_path(self, field, value):
        path, name, sequence, set_field = NUMERIC_FIELDS[field]
        doc = base_doc(None)
        set_field(doc, value)
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc))
        kind = "numbers" if sequence else "a number"
        assert exc_info.value.errors[0] == (path, f"{name} must be {kind}, got {reprlib.repr(value)}")

    @settings(max_examples=150, deadline=None)
    @given(
        field=st.sampled_from(list(NUMERIC_FIELDS)),
        value=st.one_of(
            st.text(),
            st.booleans(),
            st.lists(st.text(), max_size=4),
            st.dictionaries(st.text(max_size=4), st.integers() | st.text(), max_size=3),
        ),
    )
    def test_numeric_field_that_is_not_a_number_is_a_manifest_error(self, field, value):
        # null is left out: "t60": null means no t60
        path, _, _, set_field = NUMERIC_FIELDS[field]
        doc = base_doc(None)
        set_field(doc, value)
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc))
        assert exc_info.value.errors[0][0] == path

    @pytest.mark.parametrize("snr_db", [20, 20.0, 300, -300])
    def test_snr_in_range_is_kept(self, tmp_path, snr_db):
        (tmp_path / "n.wav").touch()
        doc = base_doc(tmp_path)
        doc["noise"] = {"file": "n.wav", "snr_db": snr_db}
        kept = parse_manifest(json.dumps(doc), base_dir=tmp_path).target_snr_db
        assert kept == snr_db and type(kept) is type(snr_db)  # as given: sidecars echo it

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d.update(sampling_rate=FS), "$.sampling_rate"),
            (lambda d: d["rooms"]["lab"].update(absorption=0.2), "$.rooms.lab.absorption"),
            (lambda d: d["arrays"]["pair"][1].update(gain_db=3), "$.arrays.pair[1].gain_db"),
            (lambda d: d["synthesis"].update(highpass=60), "$.synthesis.highpass"),
            # the name that a `forge rir` sidecar gives max_order
            (lambda d: d["synthesis"].update(max_reflection_order=2), "$.synthesis.max_reflection_order"),
            (lambda d: d.update(noise={"file": "n.wav", "snr_db": 10, "gain": 1}), "$.noise.gain"),
            (lambda d: d["sessions"][0].update(speaker="spk1"), "$.sessions[0].speaker"),
            # a job sidecar's field, in radians
            (lambda d: d["sessions"][0]["source"].update(azimuth=1.57), "$.sessions[0].source.azimuth"),
            (lambda d: d["sessions"][0]["source"].update(directivty="cardioid"),
             "$.sessions[0].source.directivty"),
            (lambda d: d["sessions"][0].update(ir={"mode": "synthesize", "file": "x.wav"}),
             "$.sessions[0].ir.file"),
            (lambda d: d["sessions"][0]["source"].update(
                directivity={"angles_deg": [0, 180], "gains": [1, 0.5], "gain": 2}),
             "$.sessions[0].source.directivity.gain"),
        ],
        ids=["root", "room", "mic", "synthesis", "synthesis-sidecar-name", "noise", "session",
             "source-sidecar-name", "source-misspelt", "ir", "directivity"],
    )
    def test_unknown_key_is_an_error_at_its_path(self, tmp_path, edit, path):
        (tmp_path / "n.wav").touch()
        doc = base_doc(tmp_path)
        edit(doc)
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        [(where, message)] = exc_info.value.errors
        assert where == path and message.startswith("unknown field; expected one of ")

    def test_unknown_keys_are_reported_with_the_other_errors(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["synthesis"].update(highpass=60, ir_length=-1)
        doc["sessions"][0]["source"].update(azimuth=1.57)
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            ("$.synthesis.highpass",
             "unknown field; expected one of ir_length, max_order, fractional_delay, highpass_hz"),
            ("$.synthesis", "ir_length must be finite and positive, got -1.0"),
            ("$.sessions[0].source.azimuth",
             "unknown field; expected one of position, azimuth_deg, elevation_deg, directivity"),
        ]

    def test_readme_example_parses(self, tmp_path):
        # the JSON block under "Manifest schema": its keys are the ones parse_manifest reads
        readme = (Path(__file__).parents[1] / "README.md").read_text()
        block = readme.split("## Manifest schema", 1)[1].split("```json\n", 1)[1].split("```", 1)[0]
        (tmp_path / "noise.wav").touch()
        m = parse_manifest(block, base_dir=tmp_path)
        assert m.job_count() == 2 and m.target_snr_db == 15 and m.noise_file == tmp_path / "noise.wav"

    def test_sentences_string_is_not_three_sentences(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["sessions"][0]["sentences"] = "s01"
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            ("$.sessions[0].sentences", "must be a list of strings, got 's01'")
        ]

    def test_manifest_that_is_not_utf8_rejected_at_the_root(self, tmp_path):
        path = tmp_path / "manifest.json"
        path.write_bytes(json.dumps(base_doc(tmp_path)).encode("utf-16"))
        with pytest.raises(ManifestError) as exc_info:
            load_manifest(path)
        [(where, message)] = exc_info.value.errors
        assert where == "$" and "manifest.json: not UTF-8" in message

    def test_ir_too_short_for_the_direct_path_names_session_and_mic(self, tmp_path):
        doc = base_doc(tmp_path, mics=[{"id": "far", "position": [4.0, 3.0, 2.0]}])
        doc["sessions"][0]["source"]["position"] = [1.0, 1.0, 1.0]
        doc["synthesis"] = {"ir_length": 0.01}
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            (
                "$.synthesis.ir_length",
                "session 'sessA', mic 'far': the direct path arrives at sample 175, "
                "past the end of the 160-sample IR (0.01 s)",
            )
        ]
        # one sample longer is enough, and loaded IRs are not synthesized at all
        doc["synthesis"] = {"ir_length": 176 / FS}
        parse_manifest(json.dumps(doc), base_dir=tmp_path)
        doc["synthesis"] = {"ir_length": 0.01}
        (tmp_path / "far.wav").touch()
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {"far": "far.wav"}}
        parse_manifest(json.dumps(doc), base_dir=tmp_path)

    @pytest.mark.parametrize(
        "room, error",
        [
            ({"dimensions": [5.0, 4.0, 3.0], "t60": 1e-6},
             "room cannot achieve requested T60 of 1e-06 s"),
            ({"dimensions": [1e200, 4.0, 3.0], "reflectivity": [0.8]},
             "room dimensions (1e+200, 4.0, 3.0) are too large for a float: "
             "squared image distances or Eyring's formula overflow"),
            # the volume overflows, so Eyring's absorption is 1
            ({"dimensions": [1e120, 1e120, 1e120], "t60": 0.5},
             "room cannot achieve requested T60 of 0.5 s"),
            # the volume and the surface area times the T60 overflow: Eyring's formula gives nan
            ({"dimensions": [1e110, 1e110, 1e110], "t60": 1e100},
             "room dimensions (1e+110, 1e+110, 1e+110) are too large for a float: "
             "squared image distances or Eyring's formula overflow"),
        ],
        ids=["t60-unreachable", "too-large", "volume-overflows", "eyring-nan"],
    )
    def test_room_that_cannot_be_synthesized_names_the_room(self, tmp_path, room, error):
        doc = base_doc(tmp_path)
        doc["rooms"]["lab"] = room
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [("$.rooms.lab", error)]
        # a room whose IRs are all loaded is not synthesized
        for mic in ("m0", "m1"):
            (tmp_path / f"{mic}.wav").touch()
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {"m0": "m0.wav", "m1": "m1.wav"}}
        parse_manifest(json.dumps(doc), base_dir=tmp_path)

    def test_mic_at_the_source_names_the_array(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["sessions"][0]["source"]["position"] = [1.2, 1.0, 1.5]
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [("$.sessions[0].array", "source and mic 'm1' positions coincide")]

    def test_loaded_session_is_checked_for_containment_but_not_for_the_direct_path(self, tmp_path):
        doc = base_doc(tmp_path, mics=[{"id": "far", "position": [4.0, 3.0, 2.0]},
                                       {"id": "out", "position": [4.0, 3.0, 3.0]}])
        doc["sessions"][0]["source"]["position"] = [1.0, 1.0, 1.0]
        doc["synthesis"] = {"ir_length": 0.01}
        for mic in ("far", "out"):
            (tmp_path / f"{mic}.wav").touch()
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {"far": "far.wav", "out": "out.wav"}}
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            ("$.sessions[0].array", "mic 'out' position (4.0, 3.0, 3.0) outside room (5.0, 4.0, 3.0)")
        ]

    def test_duplicate_session_name_rejected_at_its_path(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["sessions"].append(dict(doc["sessions"][0], source={"position": [4.0, 3.0, 1.5]}))
        doc["sessions"].append(dict(doc["sessions"][0], name="sessB"))
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            ("$.sessions[1].name", "duplicate session name 'sessA', first at $.sessions[0]")
        ]

    @pytest.mark.parametrize("bad", ["", ".", "..", "../../s01", "a/b", "/abs", "a\\b", "..\\s01"])
    def test_name_or_sentence_that_is_not_one_path_component_rejected(self, tmp_path, bad):
        doc = base_doc(tmp_path, sentences=("s01", bad))
        doc["sessions"][0]["name"] = bad
        doc["arrays"]["odd"] = [{"id": "m0", "position": [1.0, 1.0, 1.5]},
                                {"id": bad, "position": [1.2, 1.0, 1.5]}]
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            ("$.arrays.odd", f"mic id must be a single path component, got {bad!r}"),
            ("$.sessions[0].name", f"must be a single path component, got {bad!r}"),
            ("$.sessions[0].sentences[1]", f"must be a single path component, got {bad!r}"),
        ]

    def test_dots_inside_a_name_are_one_path_component(self, tmp_path):
        doc = base_doc(tmp_path, sentences=("s.01", "..s02", "s03.."))
        doc["sessions"][0]["name"] = "sess.A"
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert m.sessions[0].sentences == ["s.01", "..s02", "s03.."]

    def test_two_outputs_of_one_session_with_one_name_rejected(self, tmp_path):
        # s01 on mic "a_m0" and s01_a on mic "m0" would both write s01_a_m0.wav
        doc = base_doc(tmp_path, sentences=("s01", "s01_a"),
                       mics=[{"id": "a_m0", "position": [1.0, 1.0, 1.5]},
                             {"id": "m0", "position": [1.2, 1.0, 1.5]}])
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            ("$.sessions[0].sentences",
             "(sentence, mic) ('s01', 'a_m0') and ('s01_a', 'm0') both write s01_a_m0.wav")
        ]
        # in two sessions the same names go to two directories
        doc["sessions"][0]["sentences"] = ["s01"]
        doc["sessions"].append(dict(doc["sessions"][0], name="sessB", sentences=["s01_a"]))
        assert parse_manifest(json.dumps(doc), base_dir=tmp_path).job_count() == 2

    def test_session_named_like_the_corpus_index_rejected(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["sessions"][0]["name"] = "corpus.json"
        with pytest.raises(ManifestError) as exc_info:
            parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert exc_info.value.errors == [
            ("$.sessions[0].name", "'corpus.json' is the name of the corpus index")
        ]

    def test_multi_room_session_grid(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["rooms"]["hall"] = {"dimensions": [8.0, 6.0, 4.0], "t60": 0.5}
        doc["sessions"].append(
            {
                "name": "sessB",
                "room": "hall",
                "array": "pair",
                "source": {
                    "position": [4.0, 3.0, 1.6],
                    "azimuth_deg": 90.0,
                    "directivity": "cardioid",
                },
                "sentences": [f"u{i:02d}" for i in range(10)],
            }
        )
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert m.job_count() == 12
        assert m.sessions[1].source.directivity.pattern == "cardioid"
        assert m.sessions[1].source.azimuth == pytest.approx(np.pi / 2)


def _coordinate(length):
    """A coordinate in a room ``length`` long: mostly inside, at times on a wall or outside."""
    fraction = st.floats(0.02, 0.98) | st.sampled_from([0.0, 1.0, -0.05, 1.05])
    return st.tuples(st.integers(0, 9), fraction, st.floats(0.02, 0.98)).map(
        lambda t: (t[1] if t[0] == 0 else t[2]) * length
    )


@st.composite
def synthesis_manifest(draw):
    """A valid manifest doc of one room and one or two sessions, each synthesized."""
    dims = [draw(st.sampled_from([0.6, 1.5, 4.0])) for _ in range(3)]
    walls = draw(st.one_of(
        st.builds(lambda b: {"reflectivity": [b]}, st.sampled_from([0.0, 0.5, 0.9])),
        st.builds(lambda t: {"t60": t}, st.sampled_from([1e-6, 0.01, 0.3])),
    ))
    synthesis = {
        "ir_length": draw(st.sampled_from([0.002, 0.012, 0.03])),
        "max_order": draw(st.sampled_from(["auto", "auto", 0, 2, 10**6])),
        "fractional_delay": draw(st.sampled_from(["nearest", "sinc"])),
        "highpass_hz": draw(st.sampled_from([0.0, 0.0, 100.0, 8000.0])),
    }

    def position():
        return [draw(_coordinate(length)) for length in dims]

    mics = [{"id": f"m{i}", "position": position()} for i in range(draw(st.integers(1, 3)))]
    sessions = []
    for i in range(draw(st.integers(1, 2))):
        # some sources sit at a mic
        at_mic = draw(st.sampled_from([None, None, None, 0]))
        sessions.append({
            "name": f"sess{i}", "room": "lab", "array": "arr", "sentences": ["s01"],
            "source": {
                "position": position() if at_mic is None else list(mics[at_mic]["position"]),
                "azimuth_deg": draw(st.sampled_from([0.0, 90.0, 180.0])),
                "directivity": draw(st.sampled_from(["omnidirectional", "cardioid", "hypercardioid"])),
            },
        })
    return {
        "sample_rate": FS, "rooms": {"lab": dict(walls, dimensions=dims)},
        "arrays": {"arr": mics}, "synthesis": synthesis, "sessions": sessions,
    }


@settings(max_examples=50, deadline=None)
@given(synthesis_manifest())
def test_a_manifest_that_parses_is_one_that_synthesizes(doc):
    try:
        parse_manifest(json.dumps(doc))
        parsed = True
    except ManifestError:
        parsed = False
    room_doc, syn = doc["rooms"]["lab"], doc["synthesis"]
    room = RoomSpec(room_doc["dimensions"], reflectivity=room_doc.get("reflectivity"),
                    target_t60=room_doc.get("t60"))
    config = ImageSynthesisConfig(syn["ir_length"], syn["max_order"], syn["fractional_delay"],
                                  syn["highpass_hz"])
    mics = [MicSpec(m["id"], m["position"]) for m in doc["arrays"]["arr"]]
    for sess in doc["sessions"]:
        src = sess["source"]
        source = SourceSpec(src["position"], np.radians(src["azimuth_deg"]),
                            directivity=src["directivity"])
        try:
            synthesize_rirs(room, source, mics, config, FS)
        except ResourceError:
            assert not parsed
            return
        except ValidationError as exc:
            if not parsed:
                return
            # The one failure no parse-time check can foresee: a directional source whose
            # gain toward a mic is zero, in a room whose reflections miss the IR, gives an
            # IR of zero energy.  Only the walk shows whether a reflection arrives in time.
            assert "nonzero energy" in str(exc)
            assert any(directivity_gain(source.directivity, angle_between(source, mic.position)) == 0.0
                       for mic in mics)
            return
    assert parsed


class TestPlanAndRun:
    def _setup(self, tmp_path, **doc_overrides):
        doc = base_doc(tmp_path)
        doc.update(doc_overrides)
        write_clean(tmp_path / "clean", [s for sess in doc["sessions"] for s in sess["sentences"]])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        return load_manifest(path)

    def test_dry_run_writes_nothing(self, tmp_path):
        m = self._setup(tmp_path)
        report = plan_and_run(m, dry_run=True)
        assert report.jobs_planned == 2
        assert report.jobs_done == 0
        assert not (tmp_path / "out").exists()

    def test_dry_run_reads_synthesizes_and_writes_nothing(self, tmp_path, monkeypatch):
        from roomforge import manifest as manifest_module

        cache_dir = tmp_path / "cache"
        monkeypatch.setenv(CACHE_ENV_VAR, str(cache_dir))
        doc = base_doc(tmp_path, sentences=("s01", "s02", "s03"))
        doc["noise"] = {"file": "noise.wav", "snr_db": 15}
        doc["sessions"].append(dict(doc["sessions"][0], name="sessB", sentences=["s04"],
                                    ir={"mode": "load", "files": {"m0": "m0.wav", "m1": "m1.wav"}}))
        for name in ("noise.wav", "m0.wav", "m1.wav"):
            (tmp_path / name).touch()  # a dry run must not even open them
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)

        def forbidden(*args, **kwargs):
            raise AssertionError("a dry run read or synthesized audio")

        for name in ("_synthesize", "load_ir", "read_wav"):
            monkeypatch.setattr(manifest_module, name, forbidden)
        report = plan_and_run(m, dry_run=True)
        assert (report.jobs_planned, report.jobs_done, report.files_written) == (4, 0, 0)
        assert report.ok and report.total_audio_hours == 0.0
        assert list(cache_dir.glob("*")) == []
        assert not (tmp_path / "out").exists()

    def test_stereo_clean_file_fails_only_its_job(self, tmp_path):
        m = self._setup(tmp_path)
        rng = np.random.default_rng(62)
        stereo = AudioSignal(FS, rng.standard_normal((2, FS // 4)))
        write_wav(tmp_path / "clean" / "s02.wav", stereo)
        report = plan_and_run(m)
        assert report.jobs_done == 1 and report.files_written == 2
        [(job_id, message)] = report.failures
        assert job_id == "sessA/s02"
        assert message == f"{tmp_path / 'clean' / 's02.wav'}: 2 channels, expected mono"

    def test_stereo_noise_rejected_before_any_output(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["noise"] = {"file": "noise.wav", "snr_db": 15}
        rng = np.random.default_rng(63)
        write_wav(tmp_path / "noise.wav", AudioSignal(FS, rng.standard_normal((2, FS))))
        write_clean(tmp_path / "clean", ["s01", "s02"])
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        with pytest.raises(ValidationError, match=r"noise\.wav: 2 channels, expected mono"):
            plan_and_run(m)
        assert not (tmp_path / "out").exists()

    def test_run_writes_expected_files(self, tmp_path):
        m = self._setup(tmp_path)
        report = plan_and_run(m)
        assert report.ok
        assert report.jobs_done == 2
        assert report.files_written == 4  # 2 sentences x 2 mics
        for sent in ("s01", "s02"):
            for mic in ("m0", "m1"):
                wav = tmp_path / "out" / "sessA" / f"{sent}_{mic}.wav"
                assert wav.exists()
                assert not wav.with_suffix(".json").exists()
            assert (tmp_path / "out" / "sessA" / f"{sent}.json").exists()
        index = json.loads((tmp_path / "out" / "corpus.json").read_text())
        assert [e["job"] for e in index["jobs"]] == ["sessA/s01", "sessA/s02"]

    def test_empty_sessions_is_a_successful_noop(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["sessions"] = []
        (tmp_path / "clean").mkdir()
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        report = plan_and_run(m)
        assert report.ok
        assert report.jobs_planned == 0

    def test_missing_clean_file_is_partial_failure(self, tmp_path):
        m = self._setup(tmp_path)
        (tmp_path / "clean" / "s02.wav").unlink()
        report = plan_and_run(m)
        assert not report.ok
        assert report.jobs_done == 1
        assert report.failures[0][0] == "sessA/s02"

    def test_rerun_is_byte_identical(self, tmp_path):
        def digest(root):
            out = {}
            for p in sorted(root.rglob("*")):
                if p.is_file():
                    out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
            return out

        # three placements, one of them repeated, on three mics, and sentences
        # of uneven length, so that both the synthesis order and the job order vary
        doc = placement_doc(
            tmp_path,
            [[3.0, 2.0, 1.5], [4.0, 3.0, 1.5], [3.0, 2.0, 1.5], [2.0, 3.0, 2.0]],
            mics=THREE_MICS,
        )
        for i, seconds in enumerate((0.3, 0.7, 0.5, 0.9)):
            write_clean(tmp_path / "clean", [f"s{i}"], seconds=seconds, seed=50 + i)
        doc["noise"] = {"file": "noise.wav", "snr_db": 15}
        rng = np.random.default_rng(60)
        write_wav(tmp_path / "noise.wav", AudioSignal(FS, rng.standard_normal(FS)), fmt="float32")
        path = tmp_path / "manifest.json"

        digests = []
        for workers in (1, 2, 3, 4):
            doc["output_dir"] = f"out{workers}"
            path.write_text(json.dumps(doc))
            m = load_manifest(path)
            report = plan_and_run(m, parallelism=workers)
            assert report.ok
            digests.append(digest(tmp_path / f"out{workers}"))
        assert len(digests[0]) == 4 * 3 + 4 + 1  # a WAV per job and mic, a sidecar per job, and corpus.json
        assert digests[0] == digests[1] == digests[2] == digests[3]

    def test_each_session_runs_with_its_own_irs(self, tmp_path, monkeypatch):
        # sessions built by hand can share a name; IRs are matched by position, not by name
        from roomforge import manifest as manifest_module

        doc = base_doc(tmp_path, sentences=("s01",))
        doc["sessions"].append(
            dict(doc["sessions"][0], name="sessB", source={"position": [4.0, 3.0, 1.5]})
        )
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        m.sessions[1].name = "sessA"
        seen = []

        def record(manifest, session, sentence, irs, noise):
            seen.append((session.source.position, [ir.direct_path_index for ir in irs]))
            return [], 0

        monkeypatch.setattr(manifest_module, "_run_one", record)
        plan_and_run(m, cache=IrCache(directory=None))
        expected = [
            (s.source.position, [direct_path_index(m.rooms["lab"], s.source, mic, FS)
                                 for mic in m.arrays["pair"]])
            for s in m.sessions
        ]
        assert seen == expected
        assert expected[0][1] != expected[1][1]

    def test_distinct_placements_resolve_concurrently(self, tmp_path, monkeypatch):
        # one mic each, so that each placement is a single synthesis
        doc = placement_doc(tmp_path, [[3.0, 2.0, 1.5], [4.0, 3.0, 1.5]], mics=THREE_MICS[:1])
        barrier = threading.Barrier(2, timeout=10)
        calls = hook_synthesis(monkeypatch, barrier.wait)  # breaks unless both are sent at once
        pool_from_the_first_run(monkeypatch)
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert plan_and_run(m, parallelism=2, cache=IrCache(directory=None)).ok
        # each is sent to the process pool, which overlaps them
        assert [pooled for *_, pooled in calls] == [MULTI_CPU] * 2

    def test_pool_waits_until_the_process_has_planned_its_break_even(self, tmp_path, monkeypatch):
        from roomforge import manifest as manifest_module

        doc = placement_doc(tmp_path, [[3.0, 2.0, 1.5], [4.0, 3.0, 1.5]])
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        # a run plans every lattice image for each mic of each placement: 2 x 2 x 10^3
        assert lattice_image_count(m.rooms["lab"], m.synthesis) == 1000
        monkeypatch.setattr(manifest_module, "POOL_BREAK_EVEN", 10_000)
        monkeypatch.setattr(manifest_module._POOL, "_work", 0)
        calls = hook_synthesis(monkeypatch, lambda: None)
        for workers in (2, 1, 2):
            assert plan_and_run(m, parallelism=workers, cache=IrCache(directory=None)).ok
        # 4000 pairs, then 8000 (a --jobs 1 run counts too), then 12000, past the break-even
        assert [pooled for *_, pooled in calls] == [False] * 4 + [MULTI_CPU] * 2

    def test_runs_with_fewer_than_two_placements_or_workers_start_no_process(self, tmp_path, monkeypatch):
        from roomforge import manifest as manifest_module

        def forbidden(*args):
            raise AssertionError("the run used the process pool")

        monkeypatch.setattr(manifest_module._POOL, "run", forbidden)
        pool_from_the_first_run(monkeypatch)
        sources = [[3.0, 2.0, 1.5], [4.0, 3.0, 1.5], [2.0, 3.0, 2.0]]
        doc = placement_doc(tmp_path, sources)
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert plan_and_run(m, parallelism=2, dry_run=True).ok
        assert plan_and_run(m, parallelism=1, cache=IrCache(tmp_path / "cache")).ok
        # every placement a disk hit
        assert plan_and_run(m, parallelism=2, cache=IrCache(tmp_path / "cache")).ok
        # one placement, however many sessions and workers
        doc["sessions"] = [dict(s, source={"position": sources[0]}) for s in doc["sessions"]]
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert plan_and_run(m, parallelism=3, cache=IrCache(directory=None)).ok
        # loaded IRs only
        rng = np.random.default_rng(64)
        for mic in ("m0", "m1"):
            h = rng.standard_normal(400) * np.exp(-np.arange(400) / 50)
            save_ir(tmp_path / f"{mic}.wav", ImpulseResponse(FS, h))
        for s in doc["sessions"]:
            s["ir"] = {"mode": "load", "files": {"m0": "m0.wav", "m1": "m1.wav"}}
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert plan_and_run(m, parallelism=3).ok

    @pytest.mark.parametrize("workers", [1, 2, 3, 8])
    def test_repeated_placement_is_synthesized_once(self, tmp_path, monkeypatch, workers):
        a, b, c = [3.0, 2.0, 1.5], [4.0, 3.0, 1.5], [2.0, 3.0, 2.0]
        doc = placement_doc(tmp_path, [a, a, b, a, b, c], mics=THREE_MICS)
        # long enough for a second worker to miss the cache too
        calls = hook_synthesis(monkeypatch, lambda: time.sleep(0.2))
        pool_from_the_first_run(monkeypatch)
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # more workers than cores, switching often
        try:
            report = plan_and_run(m, parallelism=workers, cache=IrCache(directory=None))
        finally:
            sys.setswitchinterval(interval)
        assert report.ok and report.jobs_done == 6
        # one synthesis per distinct placement, holding all of its mics in order, sent to
        # the process pool at more than one worker
        ids = tuple(mic["id"] for mic in THREE_MICS)
        pooled = workers > 1 and MULTI_CPU
        assert sorted(calls) == sorted((tuple(p), ids, pooled) for p in (a, b, c))

    @pytest.mark.parametrize("workers", [1, 2, 3])
    def test_each_distinct_ir_is_made_once(self, tmp_path, monkeypatch, workers):
        from roomforge import manifest as manifest_module
        from roomforge.image_source import synthesize_rir
        from roomforge.storage import load_ir

        a = [3.0, 2.0, 1.5]
        doc = placement_doc(tmp_path, [a] * 6)
        doc["rooms"]["twin"] = doc["rooms"]["lab"]  # another name, the same geometry
        doc["arrays"]["solo"] = doc["arrays"]["pair"][:1]
        sessions = doc["sessions"]
        sessions[1]["array"] = "solo"
        sessions[2]["room"] = "twin"
        sessions[3]["ir"] = {"mode": "load", "files": {"m0": "h0.wav", "m1": "h1.wav"}}
        sessions[4]["ir"] = {"mode": "load", "files": {"m0": "h1.wav", "m1": "h0.wav"}}
        sessions[5].update(array="solo", ir={"mode": "load", "files": {"m0": "h0.wav"}})
        rng = np.random.default_rng(65)
        for name in ("h0", "h1"):
            h = rng.standard_normal(FS // 10) * np.exp(-np.arange(FS // 10) / 200.0)
            write_wav(tmp_path / f"{name}.wav", AudioSignal(FS, h), fmt="float32")
        # long enough for a second worker to miss the table too
        calls = hook_synthesis(monkeypatch, lambda: time.sleep(0.2))
        loads = []

        def hooked_load(path):
            loads.append(path)
            time.sleep(0.2)
            return load_ir(path)

        monkeypatch.setattr(manifest_module, "load_ir", hooked_load)
        seen = {}
        run_one = manifest_module._run_one

        def record(manifest, session, *args):
            seen[session.name] = args[1]
            return run_one(manifest, session, *args)

        monkeypatch.setattr(manifest_module, "_run_one", record)
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        report = plan_and_run(m, parallelism=workers, cache=IrCache(directory=None))
        assert report.ok and report.jobs_done == 6
        assert sorted(mic for _, mics, _ in calls for mic in mics) == ["m0", "m1"]
        assert sorted(loads) == [str(tmp_path / "h0.wav"), str(tmp_path / "h1.wav")]
        # and each session still gets its own IRs, in mic order
        h0, h1 = (load_ir(tmp_path / f"{name}.wav").samples for name in ("h0", "h1"))
        room, source = m.rooms["lab"], m.sessions[0].source
        r0, r1 = (synthesize_rir(room, source, mic, m.synthesis, FS).samples for mic in m.arrays["pair"])
        expected = {"sess0": [r0, r1], "sess1": [r0], "sess2": [r0, r1],
                    "sess3": [h0, h1], "sess4": [h1, h0], "sess5": [h0]}
        assert {name: len(irs) for name, irs in seen.items()} == {
            name: len(irs) for name, irs in expected.items()}
        for name, irs in seen.items():
            assert all(np.array_equal(ir.samples, x) for ir, x in zip(irs, expected[name]))

    def test_jobs_start_longest_first(self, tmp_path, monkeypatch):
        from roomforge import manifest as manifest_module

        doc = base_doc(tmp_path, sentences=("s01", "s02", "s03", "s04", "s05"))
        doc["arrays"]["solo"] = THREE_MICS[:1]
        doc["sessions"].append(dict(doc["sessions"][0], name="sessB", array="solo", sentences=["u01"]))
        for name, seconds in (("s01", 0.2), ("s02", 0.6), ("s03", 0.4), ("s04", 0.6), ("u01", 1.0)):
            write_clean(tmp_path / "clean", [name], seconds=seconds)
        # s05 has no clean file: it costs 0, goes last and still fails in its job
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        started = []
        run_one = manifest_module._run_one

        def record(manifest, session, sentence, *args):
            started.append(f"{session.name}/{sentence}")
            return run_one(manifest, session, sentence, *args)

        monkeypatch.setattr(manifest_module, "_run_one", record)
        report = plan_and_run(m, parallelism=1, cache=IrCache(directory=None))
        # cost = clean file bytes x mics: 0.6 s on two mics beats 1.0 s on one,
        # and the two 0.6 s sentences keep their manifest order
        assert started == ["sessA/s02", "sessA/s04", "sessB/u01", "sessA/s03", "sessA/s01", "sessA/s05"]
        [(job_id, message)] = report.failures
        assert job_id == "sessA/s05" and message.startswith("clean file not found")
        index = json.loads((tmp_path / "out" / "corpus.json").read_text())
        assert [e["job"] for e in index["jobs"]] == [
            "sessA/s01", "sessA/s02", "sessA/s03", "sessA/s04", "sessB/u01"
        ]

    def test_noise_rate_mismatch_rejected(self, tmp_path):
        doc = base_doc(tmp_path)
        doc["noise"] = {"file": "noise.wav", "snr_db": 15}
        rng = np.random.default_rng(61)
        write_wav(
            tmp_path / "noise.wav", AudioSignal(48000, rng.standard_normal(4800)), fmt="float32"
        )
        write_clean(tmp_path / "clean", ["s01", "s02"])
        path = tmp_path / "manifest.json"
        path.write_text(json.dumps(doc))
        with pytest.raises(ValidationError, match=r"noise\.wav: sample rate 48000 != manifest"):
            plan_and_run(load_manifest(path))

    def test_noise_past_float32_range_fails_the_job(self, tmp_path, recwarn):
        # -6000 dB scales the noise by about 1e300: a valid gain, but past any float32
        doc = base_doc(tmp_path, sentences=("s01",))
        doc["noise"] = {"file": "noise.wav", "snr_db": -6000}
        doc["format"] = "float32"
        rng = np.random.default_rng(62)
        write_wav(tmp_path / "noise.wav", AudioSignal(FS, rng.standard_normal(FS)), fmt="float32")
        write_clean(tmp_path / "clean", ["s01"])
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        report = plan_and_run(m, cache=IrCache(directory=None))
        [(job, message)] = report.failures
        assert job == "sessA/s01" and "past float32's range" in message
        assert not list((tmp_path / "out").rglob("*.wav"))
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize("workers", [0, -1])
    def test_worker_count_below_one_rejected(self, tmp_path, monkeypatch, workers):
        from roomforge import manifest as manifest_module

        def forbidden(*args, **kwargs):
            raise AssertionError("a pool was started")

        monkeypatch.setattr(manifest_module, "ThreadPoolExecutor", forbidden)
        m = self._setup(tmp_path)
        for dry_run in (True, False):
            with pytest.raises(ValidationError, match=f"worker count must be at least 1, got {workers}"):
                plan_and_run(m, parallelism=workers, dry_run=dry_run)
        assert not (tmp_path / "out").exists()

    def test_loaded_ir_rate_mismatch_rejected(self, tmp_path):
        doc = base_doc(tmp_path, sentences=("s01",))
        for mic in ("m0", "m1"):
            h = AudioSignal(48000, np.exp(-np.arange(2400) / 240.0))
            write_wav(tmp_path / f"{mic}.wav", h, fmt="float32")
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {"m0": "m0.wav", "m1": "m1.wav"}}
        write_clean(tmp_path / "clean", ["s01"])
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        with pytest.raises(ValidationError, match=r"m0\.wav: sample rate 48000 != manifest rate 16000"):
            plan_and_run(m)
        assert not (tmp_path / "out").exists()

    def test_sidecar_holds_the_job_fields_once_and_the_channels_in_mic_order(self, tmp_path):
        from roomforge.manifest import _job_seed

        doc = base_doc(tmp_path, sentences=("s01",), mics=THREE_MICS[::-1])
        doc["sessions"][0]["source"] = {"position": [3.0, 2.0, 1.5], "azimuth_deg": 90.0,
                                        "elevation_deg": -30.0, "directivity": "cardioid"}
        doc["noise"] = {"file": "noise.wav", "snr_db": 15}
        rng = np.random.default_rng(64)
        write_wav(tmp_path / "noise.wav", AudioSignal(FS, rng.standard_normal(FS)), fmt="float32")
        write_clean(tmp_path / "clean", ["s01"])
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert plan_and_run(m, cache=IrCache(directory=None)).ok
        sess_dir = tmp_path / "out" / "sessA"
        assert sorted(p.name for p in sess_dir.iterdir()) == [
            "s01.json", "s01_m0.wav", "s01_m1.wav", "s01_m2.wav"
        ]
        assert json.loads((sess_dir / "s01.json").read_text()) == {
            "session": "sessA",
            "sentence": "s01",
            "seed": _job_seed(7, "sessA", "s01"),
            "snr_db": 15,
            "sample_rate": FS,
            "source": {"position": [3.0, 2.0, 1.5], "azimuth": pytest.approx(np.pi / 2),
                       "elevation": pytest.approx(-np.pi / 6),
                       "directivity": {"pattern": "cardioid", "table": None}},
            "room": {"dimensions": [5.0, 4.0, 3.0], "reflectivity": [0.8] * 6, "target_t60": None,
                     "speed_of_sound": 343.0},
            "channels": [
                {"file": f"s01_{mic['id']}.wav", "mic": mic, "ir_provenance": "image-method"}
                for mic in THREE_MICS[::-1]
            ],
        }

    def test_sidecars_of_two_conditions_differ_and_rebuild_their_objects(self, tmp_path):
        doc = base_doc(tmp_path, sentences=("s01",))
        doc["rooms"] = {"dry": {"dimensions": [5.0, 4.0, 3.0], "t60": 0.3},
                        "wet": {"dimensions": [5.0, 4.0, 3.0], "t60": 0.9}}
        dry = doc["sessions"][0]
        dry.update(room="dry", source={"position": [3.0, 2.0, 1.5], "directivity": {
            "angles_deg": [0, 90, 180], "gains": [1.0, 0.5, 0.1]}})
        wet = dict(dry, name="sessB", room="wet", source={"position": [3.0, 2.0, 1.5], "directivity": {
            "angles_deg": [0, 90, 180], "gains": [1.0, 0.6, 0.1]}})
        doc["sessions"].append(wet)
        doc["synthesis"] = {"ir_length": 0.5}
        write_clean(tmp_path / "clean", ["s01"])
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert plan_and_run(m, cache=IrCache(directory=None)).ok
        sidecars = [json.loads((tmp_path / "out" / sess.name / "s01.json").read_text())
                    for sess in m.sessions]
        assert sidecars[0]["room"] != sidecars[1]["room"]
        assert sidecars[0]["source"] != sidecars[1]["source"]
        for sess, sidecar in zip(m.sessions, sidecars):
            assert RoomSpec(**sidecar["room"]) == m.rooms[sess.room]
            source = sidecar["source"]
            directivity = Directivity(**source["directivity"])
            assert SourceSpec(**{**source, "directivity": directivity}) == sess.source
            assert [MicSpec(**c["mic"]) for c in sidecar["channels"]] == m.arrays[sess.array]

    def test_failed_wav_write_leaves_no_sidecar(self, tmp_path, monkeypatch):
        from roomforge import manifest as manifest_module

        doc = base_doc(tmp_path, sentences=("s01", "s02", "s03"))
        write_clean(tmp_path / "clean", ["s01", "s02", "s03"])
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        write = manifest_module.write_wav

        def failing(path, *args, **kwargs):
            if path.name == "s02_m1.wav":  # the job's second WAV
                raise OSError(f"{path}: disk full")
            return write(path, *args, **kwargs)

        monkeypatch.setattr(manifest_module, "write_wav", failing)
        report = plan_and_run(m, parallelism=2, cache=IrCache(directory=None))
        [(job_id, message)] = report.failures
        assert job_id == "sessA/s02" and message.endswith("s02_m1.wav: disk full")
        sess_dir = tmp_path / "out" / "sessA"
        # s02's first WAV is on disk, but no sidecar vouches for it
        assert sorted(p.name for p in sess_dir.glob("*.json")) == ["s01.json", "s03.json"]
        assert sorted(p.name for p in sess_dir.glob("*.wav")) == [
            "s01_m0.wav", "s01_m1.wav", "s02_m0.wav", "s03_m0.wav", "s03_m1.wav"
        ]
        for sentence in ("s01", "s03"):
            sidecar = json.loads((sess_dir / f"{sentence}.json").read_text())
            listed = [channel["file"] for channel in sidecar["channels"]]
            assert listed == sorted(p.name for p in sess_dir.glob(f"{sentence}_*.wav"))

    def test_failed_rerun_removes_the_earlier_sidecar(self, tmp_path, monkeypatch):
        from roomforge import manifest as manifest_module
        from roomforge.manifest import _job_seed

        doc = base_doc(tmp_path)
        write_clean(tmp_path / "clean", ["s01", "s02"])
        assert plan_and_run(parse_manifest(json.dumps(doc), base_dir=tmp_path)).ok
        doc["seed"] = 8
        write = manifest_module.write_wav

        def failing(path, *args, **kwargs):
            if path.name == "s02_m1.wav":
                raise OSError(f"{path}: disk full")
            return write(path, *args, **kwargs)

        monkeypatch.setattr(manifest_module, "write_wav", failing)
        report = plan_and_run(parse_manifest(json.dumps(doc), base_dir=tmp_path))
        assert [job_id for job_id, _ in report.failures] == ["sessA/s02"]
        sess_dir = tmp_path / "out" / "sessA"
        assert sorted(p.name for p in sess_dir.glob("*.json")) == ["s01.json"]
        assert json.loads((sess_dir / "s01.json").read_text())["seed"] == _job_seed(8, "sessA", "s01")

    def test_silent_channel_fails_its_job_and_leaves_no_sidecar(self, tmp_path, monkeypatch):
        from roomforge import manifest as manifest_module

        doc = base_doc(tmp_path, sentences=("s01",), mics=THREE_MICS)
        doc["noise"] = {"file": "noise.wav", "snr_db": 15}
        rng = np.random.default_rng(66)
        write_wav(tmp_path / "noise.wav", AudioSignal(FS, rng.standard_normal(FS)))
        (tmp_path / "clean").mkdir()
        write_wav(tmp_path / "clean" / "s01.wav", AudioSignal(FS, rng.uniform(-0.4, 0.4, FS // 2)))
        cache = IrCache(directory=None)
        assert plan_and_run(parse_manifest(json.dumps(doc), base_dir=tmp_path), cache=cache).ok
        synthesize = manifest_module._synthesize

        def faint_m1(room, source, mics, *args):
            # one tap so faint that every sample of clean * IR squares to below the least float64
            irs = synthesize(room, source, mics, *args)
            for i, mic in enumerate(mics):
                if mic.id == "m1":
                    samples = np.zeros(irs[i].num_samples)
                    samples[irs[i].direct_path_index] = 3.2e-162
                    irs[i] = ImpulseResponse(FS, samples, "image-method", irs[i].direct_path_index)
            return irs

        monkeypatch.setattr(manifest_module, "_synthesize", faint_m1)
        report = plan_and_run(parse_manifest(json.dumps(doc), base_dir=tmp_path), cache=cache)
        assert report.failures == [("sessA/s01", "channel 1 is silent, cannot set SNR")]
        # the rerun wrote m0 before it made m1: the earlier sidecar no longer vouches for it
        assert not (tmp_path / "out" / "sessA" / "s01.json").exists()

    def test_peak_job_of_unequal_loaded_irs_is_the_whole_array_formula_at_any_worker_count(self, tmp_path):
        from roomforge.manifest import _job_seed

        doc = base_doc(tmp_path, sentences=("s01", "s02", "s03"), mics=THREE_MICS)
        doc.update(normalization="peak", format="pcm24", noise={"file": "noise.wav", "snr_db": 12})
        rng = np.random.default_rng(67)
        for mic, n in zip(("m0", "m1", "m2"), (300, 1700, 900)):
            save_ir(tmp_path / f"{mic}.wav",
                    ImpulseResponse(FS, 0.3 * rng.standard_normal(n) * np.exp(-np.arange(n) / 200.0)))
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {m: f"{m}.wav" for m in ("m0", "m1", "m2")}}
        write_wav(tmp_path / "noise.wav", AudioSignal(FS, 0.1 * rng.standard_normal(FS // 3)))
        for i, seconds in enumerate((0.4, 0.7, 0.2)):
            write_clean(tmp_path / "clean", [f"s0{i + 1}"], seconds=seconds, seed=70 + i)

        trees = []
        for workers in (1, 2):
            doc["output_dir"] = f"out{workers}"
            assert plan_and_run(parse_manifest(json.dumps(doc), base_dir=tmp_path), parallelism=workers).ok
            out = tmp_path / f"out{workers}"
            trees.append({p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()})
        assert trees[0] == trees[1]

        irs = [load_ir(tmp_path / f"{mic}.wav") for mic in ("m0", "m1", "m2")]
        noise = read_wav(tmp_path / "noise.wav")
        for sentence in ("s01", "s02", "s03"):
            x = read_wav(tmp_path / "clean" / f"{sentence}.wav").mono
            expected = whole_array_contaminate(x, irs, noise, 12, _job_seed(7, "sessA", sentence), "peak")
            for mic, channel in zip(("m0", "m1", "m2"), expected):
                write_wav(tmp_path / "expected.wav", AudioSignal(FS, channel), fmt="pcm24")
                written = trees[0][Path("sessA", f"{sentence}_{mic}.wav")]
                assert written == (tmp_path / "expected.wav").read_bytes()

    def test_streamed_job_holds_a_few_channels(self, tmp_path):
        # one 8-mic job of 10 s at 48 kHz with noise, written as pcm24; a job that
        # holds all its channels at once peaks near 14.5 channel sizes, one that
        # makes each channel after writing the previous near 6.6
        fs = 48000
        rng = np.random.default_rng(68)
        mics = [{"id": f"m{j}", "position": [1.0 + 0.05 * j, 1.0, 1.5]} for j in range(8)]
        doc = base_doc(tmp_path, sentences=("s01",), mics=mics)
        doc.update(sample_rate=fs, format="pcm24", noise={"file": "noise.wav", "snr_db": 20})
        n_ir = fs // 4
        for mic in mics:
            h = 0.1 * rng.standard_normal(n_ir) * np.exp(-np.arange(n_ir) / (0.05 * fs))
            save_ir(tmp_path / f"{mic['id']}.wav", ImpulseResponse(fs, h))
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {m["id"]: f"{m['id']}.wav" for m in mics}}
        write_wav(tmp_path / "noise.wav", AudioSignal(fs, 0.1 * rng.standard_normal(3 * fs)), fmt="pcm24")
        (tmp_path / "clean").mkdir()
        t = np.arange(10 * fs) / fs
        speech = 0.1 * rng.standard_normal(t.size) * np.abs(np.sin(3.0 * t))
        write_wav(tmp_path / "clean" / "s01.wav", AudioSignal(fs, speech), fmt="pcm24")
        m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
        assert plan_and_run(m, cache=IrCache(directory=None)).ok  # imports and FFT plans, once

        tracemalloc.start()
        try:
            before = tracemalloc.get_traced_memory()[0]
            report = plan_and_run(m, cache=IrCache(directory=None))
            peak = tracemalloc.get_traced_memory()[1] - before
        finally:
            tracemalloc.stop()
        assert report.ok
        channel_bytes = (t.size + n_ir - 1) * 8
        assert peak < 9 * channel_bytes, f"peak {peak / channel_bytes:.1f} channel sizes"


class TestIrCache:
    def test_disk_cache_round_trip(self, tmp_path, monkeypatch):
        monkeypatch.setenv(CACHE_ENV_VAR, str(tmp_path / "cache"))
        doc = base_doc(tmp_path, sentences=("s01",))
        write_clean(tmp_path / "clean", ["s01"])
        path = tmp_path / "manifest.json"

        outputs = []
        for run in (1, 2):
            doc["output_dir"] = f"out{run}"
            path.write_text(json.dumps(doc))
            report = plan_and_run(load_manifest(path), cache=IrCache())
            assert report.ok
            outputs.append((tmp_path / f"out{run}" / "sessA" / "s01_m0.wav").read_bytes())
        assert outputs[0] == outputs[1]
        assert list((tmp_path / "cache").glob("*.npy"))

    def test_batched_misses_match_single_synthesis(self, tmp_path, monkeypatch):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge.image_source import ImageSynthesisConfig, synthesize_rir

        room = RoomSpec(dimensions=(5.0, 4.0, 3.0), reflectivity=(0.8,))
        src = SourceSpec(position=(3.0, 2.0, 1.5), directivity="cardioid")
        cfg = ImageSynthesisConfig(ir_length=0.1)
        mics = [MicSpec(id=f"m{i}", position=(1.0 + 0.1 * i, 1.0, 1.5)) for i in range(3)]
        cache = IrCache(tmp_path / "cache")
        calls = hook_synthesis(monkeypatch, lambda: None)
        first = cache.get_or_synthesize(room, src, mics[:1], cfg, FS)
        irs = cache.get_or_synthesize(room, src, mics, cfg, FS)
        assert [ids for _, ids, _ in calls] == [("m0",), ("m1", "m2")]  # m0 a disk hit
        assert np.array_equal(irs[0].samples, first[0].samples)
        for mic, ir in zip(mics, irs):
            assert np.array_equal(ir.samples, synthesize_rir(room, src, mic, cfg, FS).samples)
        # a fresh cache on the same directory serves every mic from disk
        again = IrCache(tmp_path / "cache").get_or_synthesize(room, src, mics, cfg, FS)
        assert len(calls) == 2
        for a, b in zip(irs, again):
            assert np.array_equal(a.samples, b.samples)
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == sorted(
            f"{IrCache.key(room, src, mic, cfg, FS)}.npy" for mic in mics
        )

    @pytest.mark.parametrize(
        "config", [{"fractional_delay": "nearest"}, {"fractional_delay": "sinc", "highpass_hz": 80.0}]
    )
    def test_mic_groups_match_the_whole_array(self, config):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge.image_source import ImageSynthesisConfig

        room = RoomSpec(dimensions=(5.0, 4.0, 3.0), target_t60=0.4)
        src = SourceSpec(position=(3.0, 2.0, 1.5), directivity="cardioid")
        cfg = ImageSynthesisConfig(ir_length=0.1, **config)
        mics = [MicSpec(id=f"m{i}", position=(1.0 + 0.05 * i, 1.0, 1.5)) for i in range(5)]
        whole = IrCache(directory=None).get_or_synthesize(room, src, mics, cfg, FS)
        for bounds in ([0, 2, 5], [0, 1, 3, 5], [0, 1, 2, 3, 4, 5]):
            cache = IrCache(directory=None)
            grouped = [ir for lo, hi in zip(bounds, bounds[1:])
                       for ir in cache.get_or_synthesize(room, src, mics[lo:hi], cfg, FS)]
            for a, b in zip(whole, grouped):
                assert np.array_equal(a.samples, b.samples)
                assert a.direct_path_index == b.direct_path_index

    def test_disk_hit_keeps_geometric_direct_path(self, tmp_path, monkeypatch):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge.image_source import ImageSynthesisConfig

        # a cardioid facing away from the mic: the strongest tap is a reflection, not the direct path
        room = RoomSpec(dimensions=(5.0, 4.0, 3.0), reflectivity=(0.9,))
        src = SourceSpec(position=(3.0, 2.0, 1.5), azimuth=0.0, directivity="cardioid")
        mic = MicSpec(id="a", position=(1.0, 2.0, 1.5))
        cfg = ImageSynthesisConfig(ir_length=0.1)
        calls = hook_synthesis(monkeypatch, lambda: None)
        (fresh,) = IrCache(tmp_path / "cache").get_or_synthesize(room, src, [mic], cfg, FS)
        (cached,) = IrCache(tmp_path / "cache").get_or_synthesize(room, src, [mic], cfg, FS)
        assert len(calls) == 1  # the second is served from disk
        assert np.array_equal(cached.samples, fresh.samples)
        assert fresh.direct_path_index == cached.direct_path_index == 93

    @pytest.mark.parametrize(
        "config", [{"fractional_delay": "nearest"}, {"fractional_delay": "sinc", "highpass_hz": 80.0}]
    )
    def test_disk_hit_equals_a_fresh_synthesis(self, tmp_path, config):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge.image_source import ImageSynthesisConfig

        room = RoomSpec(dimensions=(5.0, 4.0, 3.0), target_t60=0.4)
        src = SourceSpec(position=(3.0, 2.0, 1.5), azimuth=1.0, directivity="cardioid")
        mics = [MicSpec(id=f"m{i}", position=(1.0 + 0.1 * i, 1.0, 1.5)) for i in range(2)]
        cfg = ImageSynthesisConfig(ir_length=0.1, **config)
        fresh = IrCache(tmp_path / "cache").get_or_synthesize(room, src, mics, cfg, FS)
        cached = IrCache(tmp_path / "cache").get_or_synthesize(room, src, mics, cfg, FS)
        for a, b in zip(fresh, cached):
            assert np.array_equal(a.samples, b.samples)
            assert (a.provenance, a.direct_path_index, a.meta) == (
                b.provenance, b.direct_path_index, b.meta
            )
            assert a.meta == {}

    @pytest.mark.parametrize(
        "damage",
        [
            lambda f: f.write_bytes(f.read_bytes()[:1000]),  # truncated samples
            lambda f: f.write_bytes(f.read_bytes()[:50]),  # truncated header
            lambda f: f.write_bytes(b""),
            lambda f: f.write_bytes(b"not an array"),
            lambda f: np.save(f, np.ones(800)),  # an array of the wrong length
            lambda f: np.save(f, np.zeros(1600)),  # no energy: not an IR
        ],
        ids=["samples-cut", "header-cut", "empty", "not-npy", "wrong-length", "silent"],
    )
    def test_unreadable_file_is_synthesized_again_and_overwritten(self, tmp_path, monkeypatch, damage):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge.image_source import ImageSynthesisConfig

        room = RoomSpec(dimensions=(5.0, 4.0, 3.0), reflectivity=(0.8,))
        src = SourceSpec(position=(3.0, 2.0, 1.5))
        mics = [MicSpec(id=f"m{i}", position=(1.0 + 0.1 * i, 1.0, 1.5)) for i in range(2)]
        cfg = ImageSynthesisConfig(ir_length=0.1)
        fresh = IrCache(tmp_path / "cache").get_or_synthesize(room, src, mics, cfg, FS)
        damaged = tmp_path / "cache" / f"{IrCache.key(room, src, mics[1], cfg, FS)}.npy"
        good = damaged.read_bytes()
        damage(damaged)
        calls = hook_synthesis(monkeypatch, lambda: None)
        irs = IrCache(tmp_path / "cache").get_or_synthesize(room, src, mics, cfg, FS)
        assert [ids for _, ids, _ in calls] == [("m1",)]  # m0 a disk hit, m1 a new synthesis
        for a, b in zip(fresh, irs):
            assert np.array_equal(a.samples, b.samples)
        assert damaged.read_bytes() == good
        assert sorted(p.name for p in (tmp_path / "cache").iterdir()) == sorted(
            f"{IrCache.key(room, src, mic, cfg, FS)}.npy" for mic in mics
        )

    def test_failed_write_leaves_no_file(self, tmp_path, monkeypatch):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge.image_source import ImageSynthesisConfig

        def broken_save(f, arr):
            f.write(b"\x93NUMPY partial")
            raise OSError("disk full")

        monkeypatch.setattr(np, "save", broken_save)
        cache = IrCache(tmp_path / "cache")
        room = RoomSpec(dimensions=(5.0, 4.0, 3.0), reflectivity=(0.8,))
        mic = MicSpec(id="a", position=(1.0, 1.0, 1.5))
        with pytest.raises(OSError, match="disk full"):
            cache.get_or_synthesize(room, SourceSpec(position=(3.0, 2.0, 1.5)), [mic],
                                    ImageSynthesisConfig(ir_length=0.1), FS)
        assert list((tmp_path / "cache").iterdir()) == []

    def test_key_changes_with_synthesis_version(self, monkeypatch):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge import manifest as manifest_module
        from roomforge.image_source import ImageSynthesisConfig

        args = (
            RoomSpec(dimensions=(5.0, 4.0, 3.0), reflectivity=(0.8,)),
            SourceSpec(position=(3.0, 2.0, 1.5)),
            MicSpec(id="a", position=(1.0, 1.0, 1.5)),
            ImageSynthesisConfig(ir_length=0.1),
            FS,
        )
        before = IrCache.key(*args)
        monkeypatch.setattr(manifest_module, "SYNTHESIS_VERSION", manifest_module.SYNTHESIS_VERSION + 1)
        assert IrCache.key(*args) != before

    def test_key_distinguishes_geometry(self, tmp_path):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge.image_source import ImageSynthesisConfig

        room = RoomSpec(dimensions=(5.0, 4.0, 3.0), reflectivity=(0.8,))
        src = SourceSpec(position=(3.0, 2.0, 1.5))
        cfg = ImageSynthesisConfig(ir_length=0.1)
        k1 = IrCache.key(room, src, MicSpec(id="a", position=(1.0, 1.0, 1.5)), cfg, FS)
        k2 = IrCache.key(room, src, MicSpec(id="a", position=(1.1, 1.0, 1.5)), cfg, FS)
        assert k1 != k2

    def test_key_is_equal_for_equal_scenes(self):
        # objects built apart, and a mic of another id at the same position
        assert scene_key() == scene_key(
            room=RoomSpec((5.0, 4.0, 3.0), reflectivity=(0.9, 0.9, 0.8, 0.8, 0.7, 0.7)),
            source=SourceSpec((3.0, 2.0, 1.5), 0.5, -0.1, Directivity("custom", ((0.0, 1.5, 3.0),
                                                                                 (1.0, 0.5, 0.2)))),
            mic=MicSpec("b", (1.0, 1.0, 1.5)),
            config=ImageSynthesisConfig(ir_length=0.1),
        )

    @pytest.mark.parametrize(
        "a, b",
        [
            ({}, {"room": replace(KEY_ROOM, dimensions=(5.0, 4.0, 3.1))}),
            ({}, {"room": replace(KEY_ROOM, reflectivity=(0.9, 0.9, 0.8, 0.8, 0.7, 0.6))}),
            ({"room": RoomSpec((5.0, 4.0, 3.0), target_t60=0.4)},
             {"room": RoomSpec((5.0, 4.0, 3.0), target_t60=0.5)}),
            ({}, {"room": replace(KEY_ROOM, speed_of_sound=340.0)}),
            ({}, {"source": replace(KEY_SOURCE, position=(3.0, 2.0, 1.4))}),
            ({}, {"source": replace(KEY_SOURCE, azimuth=0.6)}),
            ({}, {"source": replace(KEY_SOURCE, elevation=0.0)}),
            ({}, {"source": replace(KEY_SOURCE, directivity=Directivity("cardioid"))}),
            ({}, {"source": replace(KEY_SOURCE, directivity=Directivity("custom", ((0.0, 1.5, 3.0),
                                                                                  (1.0, 0.5, 0.3))))}),
            ({}, {"mic": MicSpec("a", (1.0, 1.0, 1.6))}),
            ({}, {"config": ImageSynthesisConfig(ir_length=0.2)}),
            ({}, {"config": ImageSynthesisConfig(ir_length=0.1, max_reflection_order=3)}),
            ({}, {"config": ImageSynthesisConfig(ir_length=0.1, fractional_delay="sinc")}),
            ({}, {"config": ImageSynthesisConfig(ir_length=0.1, highpass_hz=60.0)}),
            ({}, {"config": ImageSynthesisConfig(ir_length=0.1, negative_reflection=True)}),
            ({}, {"config": ImageSynthesisConfig(ir_length=0.1, image_budget=1_000_000)}),
            ({}, {"fs": 48000}),
        ],
        ids=["dimensions", "reflectivity", "target-t60", "speed-of-sound", "source-position",
             "azimuth", "elevation", "pattern", "table-gain", "mic-position", "ir-length",
             "max-order", "fractional-delay", "highpass", "negative-reflection", "image-budget", "fs"],
    )
    def test_key_changes_with_any_one_field(self, a, b):
        assert scene_key(**a) != scene_key(**{**a, **b})

    @pytest.mark.parametrize(
        "whole, fraction",
        [
            ({"room": RoomSpec((5, 4, 3), target_t60=1)},
             {"room": RoomSpec((5.0, 4.0, 3.0), target_t60=1.0)}),
            ({"room": replace(KEY_ROOM, speed_of_sound=343)},
             {"room": replace(KEY_ROOM, speed_of_sound=343.0)}),
            ({"source": SourceSpec((3, 2, 1))}, {"source": SourceSpec((3.0, 2.0, 1.0))}),
            ({"source": SourceSpec((3.0, 2.0, 1.0), azimuth=0, elevation=1)},
             {"source": SourceSpec((3.0, 2.0, 1.0), azimuth=0.0, elevation=1.0)}),
            ({"mic": MicSpec("a", (1, 1, 2))}, {"mic": MicSpec("a", (1.0, 1.0, 2.0))}),
            ({"config": ImageSynthesisConfig(ir_length=1, highpass_hz=60)},
             {"config": ImageSynthesisConfig(ir_length=1.0, highpass_hz=60.0)}),
        ],
        ids=["target-t60", "speed-of-sound", "source", "source-angles", "mic", "config"],
    )
    def test_whole_number_and_its_float_give_one_key(self, whole, fraction):
        assert scene_key(**whole) == scene_key(**fraction)

    def test_manifest_whole_numbers_give_the_keys_of_their_floats(self, tmp_path):
        keys = []
        for number in (1, 1.0):
            doc = base_doc(tmp_path)
            doc["rooms"]["lab"] = {"dimensions": [5, 4, 3], "t60": number}
            doc["synthesis"] = {"ir_length": number, "highpass_hz": 60 * number}
            m = parse_manifest(json.dumps(doc), base_dir=tmp_path)
            [sess] = m.sessions
            keys.append([IrCache.key(m.rooms["lab"], sess.source, mic, m.synthesis, FS)
                         for mic in m.arrays["pair"]])
        assert keys[0] == keys[1]
