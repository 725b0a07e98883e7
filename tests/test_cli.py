import json

import numpy as np
import pytest

from roomforge import AudioSignal, SweepSpec, generate_ess
from roomforge.cli import EXIT_INVALID, EXIT_OK, EXIT_PARTIAL, main
from roomforge.engine import fft_convolve
from roomforge.storage import load_ir
from roomforge.wavio import read_wav, write_wav

FS = 16000


def run_cli(*argv):
    return main([str(a) for a in argv])


class TestRirCommand:
    def test_synthesize_and_save(self, tmp_path):
        out = tmp_path / "h.wav"
        code = run_cli(
            "rir", "--room", "5,4,3", "--beta", "0.8",
            "--source", "1.2,1.7,1.4", "--mic", "3.9,2.8,2.1",
            "--ir-length", "0.1", "--max-order", "3", "--fs", str(FS), "-o", out,
        )
        assert code == EXIT_OK
        ir = load_ir(out)
        assert ir.sample_rate == FS
        assert ir.provenance == "image-method"
        assert ir.direct_path_index is not None

    def test_t60_mode(self, tmp_path):
        out = tmp_path / "h.wav"
        code = run_cli(
            "rir", "--room", "5,4,3", "--t60", "0.3",
            "--source", "1.2,1.7,1.4", "--mic", "3.9,2.8,2.1",
            "--ir-length", "0.4", "--fs", str(FS), "-o", out,
        )
        assert code == EXIT_OK

    def test_over_budget_ir_length_is_invalid(self, tmp_path, capsys):
        code = run_cli(
            "rir", "--room", "5,4,3", "--beta", "0.9", "--source", "1,1,1", "--mic", "2,2,2",
            "--ir-length", "3.0", "-o", tmp_path / "rir.wav",
        )
        assert code == EXIT_INVALID
        assert "exceeding the budget" in capsys.readouterr().err

    def test_source_outside_room_is_invalid(self, tmp_path):
        code = run_cli(
            "rir", "--room", "5,4,3", "--beta", "0.8",
            "--source", "9,1,1", "--mic", "3.9,2.8,2.1",
            "--fs", str(FS), "-o", tmp_path / "h.wav",
        )
        assert code == EXIT_INVALID


class TestSweepCommands:
    def test_gen_invert_deconv_chain(self, tmp_path):
        sweep_wav = tmp_path / "sweep.wav"
        args = ["--f-start", "50", "--f-end", "7000", "--duration", "2", "--fade", "0.01"]
        assert run_cli("sweep", "gen", *args, "--fs", str(FS), "-o", sweep_wav) == EXIT_OK
        assert run_cli(
            "sweep", "invert", *args, "--fs", str(FS), "-o", tmp_path / "inv.wav"
        ) == EXIT_OK

        # simulate a playback through a two-tap channel, then deconvolve
        sweep = read_wav(sweep_wav).mono
        h = np.zeros(400)
        h[0] = 1.0
        h[200] = 0.4
        rec_path = tmp_path / "rec.wav"
        write_wav(rec_path, AudioSignal(FS, fft_convolve(sweep, h)), fmt="float32")
        ir_path = tmp_path / "ir.wav"
        code = run_cli("sweep", "deconv", *args, rec_path, "--ir-length", "0.1", "-o", ir_path)
        assert code == EXIT_OK
        ir = load_ir(ir_path)
        assert ir.provenance == "measured"
        g = ir.direct_path_index
        assert abs(ir.samples[g + 200] / ir.samples[g]) == pytest.approx(0.4, abs=0.05)

    def test_deconv_of_noise_is_invalid(self, tmp_path):
        rng = np.random.default_rng(70)
        rec = tmp_path / "noise.wav"
        write_wav(rec, AudioSignal(FS, 1e-3 * rng.standard_normal(3 * FS)), fmt="float32")
        code = run_cli(
            "sweep", "deconv", "--f-start", "50", "--f-end", "7000", "--duration", "2",
            rec, "-o", tmp_path / "ir.wav",
        )
        assert code == EXIT_INVALID


class TestBeamformCommand:
    def _multichannel(self, tmp_path):
        rng = np.random.default_rng(71)
        base = rng.standard_normal(4000)
        data = np.stack(
            [np.concatenate([np.zeros(d), base, np.zeros(9 - d)]) for d in (0, 4, 9)]
        )
        path = tmp_path / "mc.wav"
        write_wav(path, AudioSignal(FS, data), fmt="float32")
        return path, base

    def test_steered_beamforming(self, tmp_path):
        path, base = self._multichannel(tmp_path)
        out = tmp_path / "beam.wav"
        assert run_cli("beamform", path, "-o", out) == EXIT_OK
        beam = read_wav(out)
        assert beam.num_channels == 1
        seg = beam.mono[9 : 9 + base.size]
        assert np.sqrt(np.mean((seg - base) ** 2)) <= 1e-5

    def test_explicit_delays(self, tmp_path):
        path, base = self._multichannel(tmp_path)
        delays = tmp_path / "delays.json"
        delays.write_text(json.dumps([0.0, 4 / FS, 9 / FS]))
        out = tmp_path / "beam.wav"
        assert run_cli("beamform", path, "--delays", delays, "-o", out) == EXIT_OK

    def test_missing_input_is_invalid(self, tmp_path):
        code = run_cli("beamform", tmp_path / "nope.wav", "-o", tmp_path / "b.wav")
        assert code == EXIT_INVALID


class TestMetricsCommand:
    def test_report_and_decay_csv(self, tmp_path):
        rng = np.random.default_rng(72)
        t = np.arange(int(0.8 * FS)) / FS
        tau = 0.5 / (3 * np.log(10))
        h = rng.standard_normal(t.size) * np.exp(-t / tau)
        ir_path = tmp_path / "h.wav"
        write_wav(ir_path, AudioSignal(FS, 0.5 * h), fmt="float32")
        report_path = tmp_path / "report.json"
        csv_path = tmp_path / "decay.csv"
        code = run_cli("metrics", ir_path, "-o", report_path, "--decay-csv", csv_path)
        assert code == EXIT_OK
        report = json.loads(report_path.read_text())
        assert report["t60_seconds"] == pytest.approx(0.5, rel=0.1)
        assert "drr_db" in report
        lines = csv_path.read_text().strip().splitlines()
        assert lines[0] == "time_s,level_db"
        assert len(lines) == t.size + 1


class TestSelectCommand:
    def test_per_utterance_minimum(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_text(
            "utterance_id,channel_id,score\n"
            "u1,ch1,12.0\nu1,ch2,10.7\nu1,ch3,7.2\n"
            "u2,ch1,5.0\nu2,ch2,6.0\n"
        )
        out = tmp_path / "sel.csv"
        assert run_cli("select", scores, "-o", out) == EXIT_OK
        lines = out.read_text().strip().splitlines()
        assert lines[1].startswith("u1,ch3,")
        assert lines[2].startswith("u2,ch1,")


def write_run_manifest(tmp_path, sentences, synthesis):
    clean = tmp_path / "clean"
    clean.mkdir()
    rng = np.random.default_rng(74)
    for name in sentences:
        write_wav(
            clean / f"{name}.wav",
            AudioSignal(FS, 0.2 * rng.standard_normal(FS // 2)),
            fmt="pcm16",
        )
    doc = {
        "sample_rate": FS,
        "clean_dir": "clean",
        "output_dir": "out",
        "rooms": {"lab": {"dimensions": [5.0, 4.0, 3.0], "reflectivity": [0.7]}},
        "arrays": {"solo": [{"id": "m0", "position": [1.0, 1.0, 1.5]}]},
        "synthesis": synthesis,
        "sessions": [
            {
                "name": "sessA",
                "room": "lab",
                "array": "solo",
                "source": {"position": [3.0, 2.0, 1.5]},
                "sentences": list(sentences),
            }
        ],
    }
    manifest = tmp_path / "manifest.json"
    manifest.write_text(json.dumps(doc))
    return manifest


class TestRunCommand:
    def test_invalid_manifest_exit_code(self, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps({"sample_rate": 44100}))
        assert run_cli("run", bad) == EXIT_INVALID

    def test_dry_run_and_full_run(self, tmp_path):
        clean = tmp_path / "clean"
        clean.mkdir()
        rng = np.random.default_rng(73)
        for name in ("s01", "s02", "s03"):
            write_wav(
                clean / f"{name}.wav",
                AudioSignal(FS, 0.2 * rng.standard_normal(FS // 2)),
                fmt="float32",
            )
        doc = {
            "seed": 3,
            "sample_rate": FS,
            "clean_dir": "clean",
            "output_dir": "out",
            "rooms": {"lab": {"dimensions": [5.0, 4.0, 3.0], "reflectivity": [0.7]}},
            "arrays": {"solo": [{"id": "m0", "position": [1.0, 1.0, 1.5]}]},
            "synthesis": {"ir_length": 0.1, "max_order": 2},
            "sessions": [
                {
                    "name": "sessA",
                    "room": "lab",
                    "array": "solo",
                    "source": {"position": [3.0, 2.0, 1.5]},
                    "sentences": ["s01", "s02", "s03"],
                }
            ],
        }
        manifest = tmp_path / "manifest.json"
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, "--dry-run") == EXIT_OK
        assert not (tmp_path / "out").exists()
        assert run_cli("run", manifest, "--jobs", "2") == EXIT_OK
        assert (tmp_path / "out" / "corpus.json").exists()

    def test_partial_failure_exit_code(self, tmp_path):
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.1, "max_order": 2})
        # s02.wav removed: one job fails, one succeeds
        (tmp_path / "clean" / "s02.wav").unlink()
        assert run_cli("run", manifest) == EXIT_PARTIAL

    def test_over_budget_ir_length_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 3.0})
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "$.synthesis.ir_length" in err and "'lab'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_truncated_clean_file_is_a_job_failure(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.1, "max_order": 2})
        wav = tmp_path / "clean" / "s02.wav"
        wav.write_bytes(wav.read_bytes()[:5000])
        assert run_cli("run", manifest) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "FAILED sessA/s02" in err and "s02.wav" in err and "truncated" in err
        assert (tmp_path / "out" / "sessA" / "s01_m0.wav").exists()
