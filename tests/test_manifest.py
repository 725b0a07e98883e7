import hashlib
import json

import numpy as np
import pytest

from roomforge import AudioSignal, ValidationError
from roomforge.manifest import (
    CACHE_ENV_VAR,
    IrCache,
    ManifestError,
    load_manifest,
    parse_manifest,
    plan_and_run,
)
from roomforge.wavio import write_wav

FS = 16000


def write_clean(directory, names, seconds=0.5, seed=50):
    directory.mkdir(parents=True, exist_ok=True)
    rng = np.random.default_rng(seed)
    for name in names:
        x = 0.2 * rng.standard_normal(int(seconds * FS))
        write_wav(directory / f"{name}.wav", AudioSignal(FS, x), fmt="float32")


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
        # measured IRs need no synthesis, so the same budget does not apply
        (tmp_path / "m0.wav").touch()
        (tmp_path / "m1.wav").touch()
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {"m0": "m0.wav", "m1": "m1.wav"}}
        parse_manifest(json.dumps(doc), base_dir=tmp_path)

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
                assert wav.with_suffix(".json").exists()
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
            for p in sorted(root.rglob("*.wav")):
                out[str(p.relative_to(root))] = hashlib.sha256(p.read_bytes()).hexdigest()
            return out

        doc = base_doc(tmp_path)
        doc["noise"] = {"file": "noise.wav", "snr_db": 15}
        rng = np.random.default_rng(60)
        write_wav(tmp_path / "noise.wav", AudioSignal(FS, rng.standard_normal(FS)), fmt="float32")
        write_clean(tmp_path / "clean", ["s01", "s02"])
        path = tmp_path / "manifest.json"

        digests = []
        for run, workers in ((1, 1), (2, 4)):
            doc["output_dir"] = f"out{run}"
            path.write_text(json.dumps(doc))
            m = load_manifest(path)
            report = plan_and_run(m, parallelism=workers)
            assert report.ok
            digests.append(digest(tmp_path / f"out{run}"))
        assert digests[0] == digests[1]

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
        with pytest.raises(ValidationError):
            plan_and_run(load_manifest(path))


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

    def test_batched_misses_match_single_synthesis(self, tmp_path):
        from roomforge import MicSpec, RoomSpec, SourceSpec
        from roomforge.image_source import ImageSynthesisConfig, synthesize_rir

        room = RoomSpec(dimensions=(5.0, 4.0, 3.0), reflectivity=(0.8,))
        src = SourceSpec(position=(3.0, 2.0, 1.5), directivity="cardioid")
        cfg = ImageSynthesisConfig(ir_length=0.1)
        mics = [MicSpec(id=f"m{i}", position=(1.0 + 0.1 * i, 1.0, 1.5)) for i in range(3)]
        cache = IrCache(tmp_path / "cache")
        first = cache.get_or_synthesize(room, src, mics[:1], cfg, FS)
        irs = cache.get_or_synthesize(room, src, mics, cfg, FS)
        assert irs[0] is first[0]
        for mic, ir in zip(mics, irs):
            assert np.array_equal(ir.samples, synthesize_rir(room, src, mic, cfg, FS).samples)
        # a fresh cache on the same directory serves every mic from disk
        again = IrCache(tmp_path / "cache").get_or_synthesize(room, src, mics, cfg, FS)
        for a, b in zip(irs, again):
            assert np.array_equal(a.samples, b.samples)
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
