import json
import os
import stat
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import roomforge
from roomforge import (
    AudioSignal,
    Directivity,
    ImageSynthesisConfig,
    MicSpec,
    RoomSpec,
    SourceSpec,
    SweepSpec,
    generate_ess,
    inverse_filter,
)
from roomforge import manifest as manifest_module
from roomforge.cli import EXIT_INVALID, EXIT_OK, EXIT_PARTIAL, main
from roomforge.engine import fft_convolve
from roomforge.storage import load_ir
from roomforge.wavio import read_wav, write_wav

FS = 16000


def run_cli(*argv):
    return main([str(a) for a in argv])


def write_zero_rate_wav(path):
    """A mono pcm16 WAV whose header gives a sample rate of 0."""
    write_wav(path, AudioSignal(FS, np.linspace(-0.5, 0.5, FS // 10)), fmt="pcm16")
    raw = bytearray(path.read_bytes())
    raw[24:32] = bytes(8)  # the fmt chunk's sample rate and byte rate
    path.write_bytes(bytes(raw))


RIR = ["rir", "--room", "5,4,3", "--beta", "0.8", "--source", "1,1,1", "--mic", "2,2,2"]


def test_forge_script_is_the_cli_entry_point(tmp_path):
    # `pip install .` makes pyproject.toml's [project.scripts] entry the `forge` command
    pyproject = (Path(__file__).resolve().parents[1] / "pyproject.toml").read_text()
    scripts = pyproject.split("\n[project.scripts]\n", 1)[1].split("\n[", 1)[0]
    assert 'forge = "roomforge.cli:main"' in scripts.splitlines()
    assert f'version = "{roomforge.__version__}"' in pyproject.splitlines()
    proc = run_python(tmp_path, "-m", "roomforge.cli", "--version")
    assert (proc.returncode, proc.stdout, proc.stderr) == (EXIT_OK, f"forge {roomforge.__version__}\n", "")


@pytest.mark.parametrize(
    "argv, message",
    [
        (RIR + ["--ir-length", "inf"], "ir_length must be finite and positive, got inf"),
        (RIR + ["--ir-length", "nan"], "ir_length must be finite and positive, got nan"),
        (RIR + ["--highpass", "inf"], "highpass_hz must be finite and >= 0, got inf"),
        (["sweep", "gen", "--duration", "inf"], "sweep duration must be finite and positive, got inf"),
        (["sweep", "gen", "--duration", "nan"], "sweep duration must be finite and positive, got nan"),
        (["sweep", "gen", "--fade", "nan"], "fade must be >= 0 and fit twice into the duration"),
    ],
    ids=["ir-length-inf", "ir-length-nan", "highpass-inf", "duration-inf", "duration-nan", "fade-nan"],
)
def test_number_that_is_not_finite_is_invalid(tmp_path, capsys, argv, message):
    out = tmp_path / "out.wav"
    assert run_cli(*argv, "--fs", str(FS), "-o", out) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: {message}\n"
    assert not out.exists()


@pytest.mark.parametrize("fs", ["0", "-16000"])
@pytest.mark.parametrize(
    "argv", [RIR, ["sweep", "gen"], ["sweep", "invert"]], ids=["rir", "sweep-gen", "sweep-invert"]
)
def test_sample_rate_that_is_not_positive_is_invalid(tmp_path, capsys, argv, fs):
    out = tmp_path / "out.wav"
    assert run_cli(*argv, "--fs", fs, "-o", out) == EXIT_INVALID
    assert capsys.readouterr().err == f"error: sample rate must be positive, got {fs}\n"
    assert not out.exists()


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
        assert json.loads(out.with_suffix(".json").read_text())["meta"]["config"][
            "max_reflection_order"] == 3

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

    def test_max_order_that_is_not_an_integer_is_invalid(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(
                "rir", "--room", "5,4,3", "--beta", "0.8", "--source", "1,1,1", "--mic", "2,2,2",
                "--max-order", "abc", "-o", tmp_path / "h.wav",
            )
        assert exc_info.value.code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "--max-order: expected 'auto' or an integer, got 'abc'" in err
        assert "Traceback" not in err
        assert not (tmp_path / "h.wav").exists()

    @pytest.mark.parametrize(
        "option, value",
        [("--max-order", "9" * 5000), ("--room", "," * 3000), ("--room", "a" * 5000)],
        ids=["max-order-5000-digits", "room-3000-commas", "room-5000-letters"],
    )
    def test_long_invalid_argument_is_not_echoed_whole(self, tmp_path, capsys, option, value):
        # argparse echoes a type function's whole argument unless the function shortens it
        argv = {"--room": "5,4,3", "--source": "1,1,1", "--mic": "2,2,2", option: value}
        with pytest.raises(SystemExit) as exc_info:
            run_cli("rir", *(item for pair in argv.items() for item in pair), "--beta", "0.8",
                    "-o", tmp_path / "h.wav")
        assert exc_info.value.code == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"argument {option}: expected" in err and "Traceback" not in err
        assert len(err.encode()) < 1024
        assert not (tmp_path / "h.wav").exists()

    @pytest.mark.parametrize("value", ["1,2", "1,2,3,4", "1,x,3", ""])
    def test_room_that_is_not_three_numbers_is_invalid(self, tmp_path, capsys, value):
        with pytest.raises(SystemExit) as exc_info:
            run_cli("rir", "--room", value, "--beta", "0.8", "--source", "1,1,1", "--mic", "2,2,2",
                    "-o", tmp_path / "h.wav")
        assert exc_info.value.code == EXIT_INVALID
        assert f"argument --room: expected x,y,z — got {value!r}" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "walls, walls_record, wall_reflectivity",
        [(["--t60", "0.3"], {"reflectivity": None, "target_t60": 0.3}, [0.8425884848480192] * 6),
         (["--beta", "0.8"], {"reflectivity": [0.8] * 6, "target_t60": None}, [0.8] * 6)],
        ids=["t60", "beta"],
    )
    def test_sidecar_records_the_synthesis(self, tmp_path, walls, walls_record, wall_reflectivity):
        out = tmp_path / "h.wav"
        code = run_cli(
            "rir", "--room", "5,4,3", *walls, "--source", "1.2,1.7,1.4", "--mic", "3.9,2.8,2.1",
            "--azimuth", "30", "--elevation", "-10", "--directivity", "cardioid",
            "--ir-length", "0.1", "--fractional-delay", "sinc", "--highpass", "60",
            "--fs", str(FS), "-o", out,
        )
        assert code == EXIT_OK
        meta = json.loads(out.with_suffix(".json").read_text())["meta"]
        assert meta == {
            "room": {"dimensions": [5.0, 4.0, 3.0], **walls_record, "speed_of_sound": 343.0},
            "wall_reflectivity": wall_reflectivity,
            "source": {"position": [1.2, 1.7, 1.4], "azimuth": 0.5235987755982988,
                       "elevation": -0.17453292519943295,
                       "directivity": {"pattern": "cardioid", "table": None}},
            "mic": {"id": "mic", "position": [3.9, 2.8, 2.1]},
            "config": {"ir_length": 0.1, "max_reflection_order": "auto",
                       "fractional_delay": "sinc", "highpass_hz": 60.0,
                       "negative_reflection": False, "image_budget": 10_000_000},
            "sample_rate": FS,
        }
        # each record rebuilds the object that made the IR
        assert RoomSpec(**meta["room"]) == RoomSpec((5, 4, 3), walls_record["reflectivity"],
                                                    walls_record["target_t60"])
        source = meta["source"]
        assert SourceSpec(**{**source, "directivity": Directivity(**source["directivity"])}) == SourceSpec(
            (1.2, 1.7, 1.4), np.radians(30.0), np.radians(-10.0), "cardioid")
        assert MicSpec(**meta["mic"]) == MicSpec("mic", (3.9, 2.8, 2.1))
        assert ImageSynthesisConfig(**meta["config"]) == ImageSynthesisConfig(
            ir_length=0.1, fractional_delay="sinc", highpass_hz=60.0)

    def test_highpass_past_nyquist_is_invalid(self, tmp_path, capsys):
        out = tmp_path / "h.wav"
        assert run_cli(*RIR, "--highpass", "30000", "--fs", "48000", "-o", out) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == "error: highpass_hz 30000.0 Hz reaches Nyquist for sample rate 48000\n"
        assert not out.exists()

    @pytest.mark.parametrize("mode", ["nearest", "sinc"])
    def test_direct_path_past_the_ir_names_the_mic_and_the_sample(self, tmp_path, capsys, mode):
        out = tmp_path / "h.wav"
        code = run_cli("rir", "--room", "5,4,3", "--t60", "0.5", "--source", "1,1,1",
                       "--mic", "3.9,2.8,2.1", "--ir-length", "0.002", "--fractional-delay", mode,
                       "-o", out)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: mic 'mic': the direct path arrives at sample 502, "
            "past the end of the 96-sample IR (0.002 s)\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "room, walls, message",
        [
            ("1e200,5,3", ["--beta", "0.8"],
             "room dimensions (1e+200, 5.0, 3.0) are too large for a float: "
             "squared image distances or Eyring's formula overflow"),
            ("1e308,1e308,1e308", ["--t60", "0.5"],
             "room dimensions (1e+308, 1e+308, 1e+308) are too large for a float: "
             "squared image distances or Eyring's formula overflow"),
            ("1e110,1e110,1e110", ["--t60", "1e100"],
             "room dimensions (1e+110, 1e+110, 1e+110) are too large for a float: "
             "squared image distances or Eyring's formula overflow"),
        ],
        ids=["1e200-beta", "1e308-t60", "eyring-nan"],
    )
    def test_room_too_large_for_a_float_is_invalid(self, tmp_path, capsys, recwarn, room, walls, message):
        out = tmp_path / "h.wav"
        code = run_cli("rir", "--room", room, *walls, "--source", "1,1,1", "--mic", "2,2,2",
                       "--ir-length", "0.01", "-o", out)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]
        assert not out.exists()

    @pytest.mark.parametrize(
        "room, where, ir_length, message",
        [
            ("5,4,3", ["1,1,1", "2,2,2"], "1e307",
             "ir_length 1e+307 s is too long: inf samples at 48000 Hz, more than the 16777216 an IR may hold"),
            # c * ir_length / (2 L) is past the float range: the lattice would be infinite
            ("1e-308,4,3", ["5e-309,1,1", "5e-309,2,2"], "0.5",
             "needs more than 10^308 images, exceeding the budget of 10000000"),
        ],
        ids=["ir-length", "lattice"],
    )
    def test_count_past_the_float_range_is_invalid(self, tmp_path, capsys, room, where, ir_length, message):
        out = tmp_path / "x.wav"
        code = run_cli("rir", "--room", room, "--beta", "0.8", "--source", where[0], "--mic", where[1],
                       "--ir-length", ir_length, "-o", out)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {message}\n"
        assert not out.exists()

    def test_ir_length_past_the_sample_bound_is_invalid(self, tmp_path, capsys):
        # an integer order bounds the lattice, not the IR: the walk would allocate 4.8e304 samples
        out = tmp_path / "x.wav"
        code = run_cli(*RIR, "--ir-length", "1e300", "--max-order", "2", "-o", out)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: ir_length 1e+300 s is too long: 4.8e+304 samples at 48000 Hz, "
            "more than the 16777216 an IR may hold\n"
        )
        assert not out.exists()

    def test_directivity_outside_its_choices_is_a_usage_error(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc_info:
            run_cli(*RIR, "--directivity", "figure8", "-o", tmp_path / "x.wav")
        assert exc_info.value.code == EXIT_INVALID
        assert capsys.readouterr().err.endswith(
            "forge rir: error: argument --directivity: invalid choice: 'figure8' "
            "(choose from 'omnidirectional', 'cardioid', 'subcardioid', 'hypercardioid')\n"
        )

    def test_output_that_is_a_directory_is_invalid(self, tmp_path, capsys):
        out = tmp_path / "h.wav"
        out.mkdir()
        assert run_cli(*RIR, "--ir-length", "0.01", "-o", out) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and str(out) in err and "Traceback" not in err
        assert [p.name for p in tmp_path.iterdir()] == ["h.wav"]  # no temporary file is left
        assert list(out.iterdir()) == []

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

    def test_invert_writes_the_uncached_filter(self, tmp_path):
        # the second run is served by the inverse-filter cache and writes the same bytes
        args = ["--f-start", "50", "--f-end", "7000", "--duration", "1.5", "--fs", str(FS)]
        first, second, reference = (tmp_path / f"{n}.wav" for n in ("first", "second", "ref"))
        assert run_cli("sweep", "invert", *args, "-o", first) == EXIT_OK
        assert run_cli("sweep", "invert", *args, "-o", second) == EXIT_OK
        spec = SweepSpec(50.0, 7000.0, 1.5, amplitude=0.9, fade=0.05)
        write_wav(reference, inverse_filter.__wrapped__(spec, FS), fmt="float32")
        assert first.read_bytes() == second.read_bytes() == reference.read_bytes()

    # 0 samples; 1 sample, sin(0) = 0; 2 samples, both faded to 0
    @pytest.mark.parametrize(
        "duration, fade", [("0.00001", "0"), ("0.00005", "0"), ("0.000125", "0.0000625")]
    )
    @pytest.mark.parametrize("command", ["gen", "invert", "deconv"])
    def test_sweep_too_short_to_measure_with_is_invalid(self, tmp_path, capsys, command, duration, fade):
        args = ["--f-start", "50", "--f-end", "7000", "--duration", duration, "--fade", fade]
        if command == "deconv":
            rec = tmp_path / "rec.wav"
            write_wav(rec, AudioSignal(FS, np.random.default_rng(73).standard_normal(FS)), fmt="float32")
            args += [rec]
        else:
            args += ["--fs", str(FS)]
        out = tmp_path / "out.wav"
        assert run_cli("sweep", command, *args, "-o", out) == EXIT_INVALID
        assert "error: " in capsys.readouterr().err
        assert not out.exists()

    def test_deconv_ir_length_within_the_guard_is_invalid(self, tmp_path, capsys):
        args = ["--f-start", "50", "--f-end", "7000", "--duration", "2"]
        sweep_wav = tmp_path / "sweep.wav"
        assert run_cli("sweep", "gen", *args, "--fs", str(FS), "-o", sweep_wav) == EXIT_OK
        out = tmp_path / "ir.wav"
        code = run_cli("sweep", "deconv", *args, sweep_wav, "--ir-length", "0.001", "-o", out)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert (f"error: {sweep_wav}: ir_length of 0.001 s (16 samples) must exceed "
                "the 0.005 s pre-peak guard (80 samples)") in err
        assert not out.exists()

    def test_deconv_ir_longer_than_the_deconvolution_is_invalid(self, tmp_path, capsys):
        # a 2 s sweep deconvolved from its own 2 s recording gives 4 s less one sample
        args = ["--f-start", "50", "--f-end", "7000", "--duration", "2"]
        sweep_wav = tmp_path / "sweep.wav"
        assert run_cli("sweep", "gen", *args, "--fs", str(FS), "-o", sweep_wav) == EXIT_OK
        out = tmp_path / "ir.wav"
        code = run_cli("sweep", "deconv", *args, sweep_wav, "--ir-length", "1e300", "-o", out)
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == (f"error: {sweep_wav}: ir_length of 1e+300 s is longer than the deconvolution: "
                       "63999 samples at 16000 Hz\n")
        assert not out.exists()

    @pytest.mark.parametrize("ir_length", ["nan", "inf"])
    def test_deconv_ir_length_that_is_not_finite_is_invalid(self, tmp_path, capsys, ir_length):
        rec = tmp_path / "rec.wav"
        write_wav(rec, AudioSignal(FS, np.zeros(3 * FS)), fmt="float32")
        out = tmp_path / "ir.wav"
        code = run_cli("sweep", "deconv", "--f-start", "50", "--f-end", "7000", "--duration", "2",
                       rec, "--ir-length", ir_length, "-o", out)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {rec}: ir_length must be finite, got {ir_length}\n"
        assert not out.exists()

    def test_deconvolved_sweep_is_a_delta_at_the_pre_peak_guard(self, tmp_path):
        # the sweep's own recording deconvolves to one peak, which the IR keeps 5 ms (80 samples) in
        args = ["--f-start", "50", "--f-end", "7000", "--duration", "2"]
        sweep_wav, ir_wav, report = (tmp_path / n for n in ("sweep.wav", "ir.wav", "report.json"))
        assert run_cli("sweep", "gen", *args, "--fs", str(FS), "-o", sweep_wav) == EXIT_OK
        assert run_cli("sweep", "deconv", *args, sweep_wav, "--ir-length", "0.5", "-o", ir_wav) == EXIT_OK
        assert run_cli("metrics", ir_wav, "-o", report) == EXIT_OK
        assert json.loads(report.read_text())["direct_path_index"] == 80

    def test_deconv_of_a_multichannel_recording_names_it(self, tmp_path, capsys):
        args = ["--f-start", "50", "--f-end", "7000", "--duration", "2"]
        sweep = generate_ess(SweepSpec(50.0, 7000.0, 2.0), FS).mono
        rec, out = tmp_path / "stereo.wav", tmp_path / "ir.wav"
        write_wav(rec, AudioSignal(FS, np.stack([sweep, sweep])), fmt="float32")
        code = run_cli("sweep", "deconv", *args, rec, "--ir-length", "0.5", "-o", out)
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {rec}: expected mono signal, got 2 channels\n"
        assert not out.exists()

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
        # realigned, the sum is the 9-sample spread longer than the input
        assert (beam.num_channels, beam.num_samples) == (1, base.size + 9 + 9)
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

    @pytest.mark.parametrize(
        "channels, message",
        [(lambda data: data[1:2], "steer_and_sum needs at least 2 channels"),
         (lambda data: data * [[1.0], [0.0], [1.0]], "no signal: silent input channel")],
        ids=["mono", "silent-channel"],
    )
    def test_input_that_cannot_be_steered_is_invalid_naming_it(self, tmp_path, capsys, channels, message):
        path, _ = self._multichannel(tmp_path)
        write_wav(path, AudioSignal(FS, channels(read_wav(path).data)), fmt="float32")
        out = tmp_path / "b.wav"
        assert run_cli("beamform", path, "-o", out) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {path}: {message}\n"
        assert not out.exists()

    def test_negative_max_delay_is_invalid(self, tmp_path, capsys):
        path, _ = self._multichannel(tmp_path)
        code = run_cli("beamform", path, "-o", tmp_path / "b.wav", "--max-delay", "-0.001")
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "max_delay" in err and "Traceback" not in err
        assert not (tmp_path / "b.wav").exists()

    @pytest.mark.parametrize("spread", [1e10, 1e300])
    def test_delay_spread_longer_than_the_signal_is_invalid(self, tmp_path, capsys, spread):
        path, _ = self._multichannel(tmp_path)
        delays = tmp_path / "delays.json"
        delays.write_text(json.dumps([0.0, 0.0, spread]))
        code = run_cli("beamform", path, "--delays", delays, "-o", tmp_path / "b.wav")
        assert code == EXIT_INVALID
        assert capsys.readouterr().err == (
            f"error: {delays}: delays spread over {spread} s, longer than the 0.2505625 s signal\n"
        )
        assert not (tmp_path / "b.wav").exists()

    @pytest.mark.parametrize(
        "text, message",
        [
            ("[0.0, 0.00025,", "not a JSON file"),
            ('["a", 0, 0]', "list of finite delays"),
            ('{"m0": 0.0}', "list of finite delays"),
            ("0.0", "list of finite delays"),
            ("[0.0, NaN, 0.0]", "list of finite delays"),
            ("[0.0, Infinity, 0.0]", "list of finite delays"),
            ("[0.0, true, 0.0]", "list of finite delays"),
            pytest.param(f"[0, 1{'0' * 400}, 0]", "list of finite delays", id="int-past-a-float"),
        ],
    )
    def test_malformed_delays_file_is_invalid(self, tmp_path, capsys, text, message):
        path, _ = self._multichannel(tmp_path)
        delays = tmp_path / "delays.json"
        delays.write_text(text)
        code = run_cli("beamform", path, "--delays", delays, "-o", tmp_path / "b.wav")
        assert code == EXIT_INVALID
        err = capsys.readouterr().err
        assert "delays.json" in err and message in err and "Traceback" not in err


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


    def test_broken_sidecar_is_invalid(self, tmp_path, capsys):
        ir_path = tmp_path / "h.wav"
        write_wav(ir_path, AudioSignal(FS, np.exp(-np.arange(FS // 2) / 800.0)), fmt="float32")
        (tmp_path / "h.json").write_text("{broken")
        assert run_cli("metrics", ir_path) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "h.json" in err and "Traceback" not in err

    def test_ir_with_a_sample_rate_of_zero_is_invalid_naming_it(self, tmp_path, capsys):
        ir_path = tmp_path / "zero.wav"
        write_zero_rate_wav(ir_path)
        assert run_cli("metrics", ir_path) == EXIT_INVALID
        assert capsys.readouterr() == ("", f"error: {ir_path}: invalid sample rate 0\n")

    @pytest.mark.parametrize("index", ["7", 3.5, True, -1, FS // 2, 10**9])
    def test_bad_sidecar_index_is_invalid(self, tmp_path, capsys, index):
        ir_path = tmp_path / "h.wav"
        write_wav(ir_path, AudioSignal(FS, np.exp(-np.arange(FS // 2) / 800.0)), fmt="float32")
        (tmp_path / "h.json").write_text(json.dumps({"direct_path_index": index}))
        assert run_cli("metrics", ir_path) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "h.json" in err and "direct_path_index" in err

    @pytest.mark.parametrize(
        # sinc: fractional delays through the Chebyshev kernel, then a high-pass filter
        "mode", [[], ["--fractional-delay", "sinc", "--highpass", "60"]], ids=["nearest", "sinc-highpass"]
    )
    def test_report_names_the_geometric_direct_path(self, tmp_path, mode):
        # 3.0 m from source to mic is 419.6 samples at 48 kHz
        rir, report = tmp_path / "rir.wav", tmp_path / "report.json"
        assert run_cli(
            "rir", "--room", "5,4,3", "--t60", "0.5", "--source", "1.2,1.7,1.4",
            "--mic", "3.9,2.8,2.1", "--ir-length", "0.5", *mode, "--fs", "48000", "-o", rir,
        ) == EXIT_OK
        assert run_cli("metrics", rir, "-o", report) == EXIT_OK
        distance = np.linalg.norm(np.subtract((3.9, 2.8, 2.1), (1.2, 1.7, 1.4)))
        index = json.loads(report.read_text())["direct_path_index"]
        assert index == round(distance / 343.0 * 48000)
        assert np.argmax(np.abs(load_ir(rir).samples)) == index  # the direct path is the IR's peak


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

    @pytest.mark.parametrize(
        "bad_row, message",
        [
            ("u1,ch1", "line 3: expected utterance_id,channel_id,score"),
            ("u1,ch1,abc", "line 3: score 'abc' is not a finite number"),
            ("u1,ch1,nan", "line 3: score 'nan' is not a finite number"),
        ],
    )
    def test_malformed_row_is_invalid(self, tmp_path, capsys, bad_row, message):
        scores = tmp_path / "scores.csv"
        scores.write_text(f"utterance_id,channel_id,score\nu1,ch2,10.7\n{bad_row}\nu2,ch1,5.0\n")
        assert run_cli("select", scores) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"scores.csv, {message}" in err and "Traceback" not in err

    def test_file_that_is_not_utf8_is_invalid(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"\xff\xfe\x00u1,ch1,1.0\n")
        assert run_cli("select", scores) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "scores.csv" in err and "Traceback" not in err

    def test_nul_byte_is_invalid(self, tmp_path, capsys):
        scores = tmp_path / "scores.csv"
        scores.write_bytes(b"u1,ch\x001,1.0\n")
        assert run_cli("select", scores) == EXIT_INVALID
        assert "scores.csv" in capsys.readouterr().err


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

    def test_dry_run_leaves_the_ir_cache_empty(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROOMFORGE_CACHE_DIR", str(tmp_path / "cache"))
        synthesis = {"ir_length": 0.1, "fractional_delay": "sinc"}
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], synthesis)
        assert run_cli("run", manifest, "--dry-run") == EXIT_OK
        assert list((tmp_path / "cache").glob("*")) == []
        assert not (tmp_path / "out").exists()

    def test_run_writes_each_file_whole_with_the_mode_of_a_new_file(self, tmp_path, monkeypatch):
        monkeypatch.setenv("ROOMFORGE_CACHE_DIR", str(tmp_path / "cache"))
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.2, "fractional_delay": "sinc"})
        umask = os.umask(0o022)
        try:
            with open(tmp_path / "plain", "wb"):
                pass
            assert run_cli("run", manifest) == EXIT_OK
        finally:
            os.umask(umask)
        # no hidden .<name>.<random>.tmp file is left beside any of them
        assert sorted(map(str, corpus_tree(tmp_path / "out"))) == [
            "corpus.json", "sessA/s01.json", "sessA/s01_m0.wav", "sessA/s02.json", "sessA/s02_m0.wav"
        ]
        [npy] = (tmp_path / "cache").iterdir()
        assert npy.suffix == ".npy" and not npy.name.startswith(".")
        files = [npy, *(p for p in (tmp_path / "out").rglob("*") if p.is_file())]
        modes = {stat.S_IMODE(p.stat().st_mode) for p in files}
        assert modes == {stat.S_IMODE((tmp_path / "plain").stat().st_mode)} == {0o644}

    def test_truncated_cache_file_is_synthesized_again_with_the_same_corpus(self, tmp_path, capsys,
                                                                            monkeypatch):
        monkeypatch.setenv("ROOMFORGE_CACHE_DIR", str(tmp_path / "cache"))
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.2, "fractional_delay": "sinc"})
        assert run_cli("run", manifest) == EXIT_OK
        [npy] = (tmp_path / "cache").iterdir()
        whole = npy.read_bytes()
        npy.write_bytes(whole[:100])  # a cut within the .npy header
        manifest.write_text(manifest.read_text().replace('"output_dir": "out"', '"output_dir": "again"'))
        capsys.readouterr()
        assert run_cli("run", manifest) == EXIT_OK
        assert capsys.readouterr().err == ""
        assert npy.read_bytes() == whole
        assert corpus_tree(tmp_path / "again") == corpus_tree(tmp_path / "out")

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d.update(noise="n.wav"), "$.noise"),
            (lambda d: d.update(synthesis="x"), "$.synthesis"),
            (lambda d: d["sessions"][0].update(ir="load"), "$.sessions[0].ir"),
            (lambda d: d.update(seed="abc"), "$.seed"),
            (lambda d: d["sessions"][0].update(sentences="s01"), "$.sessions[0].sentences"),
        ],
    )
    def test_value_of_the_wrong_json_type_is_invalid(self, tmp_path, capsys, edit, path):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        captured = capsys.readouterr()
        assert f"  {path}: must be " in captured.err and "Traceback" not in captured.err
        assert "plan:" not in captured.out

    def test_string_where_a_number_belongs_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        manifest.write_text(manifest.read_text().replace("[5.0, 4.0, 3.0]", '"543"'))
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        captured = capsys.readouterr()
        assert "  $.rooms.lab: dimensions must be numbers, got '543'" in captured.err
        assert "Traceback" not in captured.err and "plan:" not in captured.out

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d["rooms"]["lab"].update(dimensions=[float("inf"), 4.0, 3.0]), "$.rooms.lab"),
            (lambda d: d["rooms"].update(lab={"dimensions": [5.0, 4.0, 3.0], "t60": float("nan")}),
             "$.rooms.lab"),
            (lambda d: d["sessions"][0]["source"].update(azimuth_deg=float("nan"), directivity="cardioid"),
             "$.sessions[0].source"),
            (lambda d: d.update(noise={"file": "noise.wav", "snr_db": float("nan")}), "$.noise.snr_db"),
            (lambda d: d.update(noise={"file": "noise.wav", "snr_db": float("inf")}), "$.noise.snr_db"),
            # finite, but 10 ** (snr_db / 20) overflows or underflows to 0
            (lambda d: d.update(noise={"file": "noise.wav", "snr_db": 1e300}), "$.noise.snr_db"),
            (lambda d: d.update(noise={"file": "noise.wav", "snr_db": -1e300}), "$.noise.snr_db"),
            (lambda d: d["sessions"][0]["source"].update(
                directivity={"angles_deg": [0, 180], "gains": [1, float("nan")]}),
             "$.sessions[0].source"),
            (lambda d: d["sessions"][0]["source"].update(
                directivity={"angles_deg": [0, float("nan")], "gains": [1, 0]}),
             "$.sessions[0].source"),
        ],
        ids=["room-inf", "t60-nan", "azimuth-nan", "snr-nan", "snr-inf", "snr-overflow",
             "snr-underflow", "directivity-gain-nan", "directivity-angle-nan"],
    )
    def test_number_that_is_not_finite_is_invalid(self, tmp_path, capsys, recwarn, edit, path):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        (tmp_path / "noise.wav").touch()  # a dry run does not open it
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"  {path}: " in err and "finite" in err and "Traceback" not in err
        assert not [w for w in recwarn if issubclass(w.category, RuntimeWarning)]

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d: d["rooms"]["lab"].update(dimensions=[5.0, 10**400, 3.0]), "$.rooms.lab"),
            (lambda d: d["rooms"].update(lab={"dimensions": [5.0, 4.0, 3.0], "t60": 10**400}),
             "$.rooms.lab"),
            (lambda d: d["arrays"]["solo"][0].update(position=[10**400, 1.0, 1.5]), "$.arrays.solo"),
            (lambda d: d["sessions"][0]["source"].update(position=[3.0, 10**400, 1.5]),
             "$.sessions[0].source"),
            (lambda d: d["sessions"][0]["source"].update(azimuth_deg=-(10**400)),
             "$.sessions[0].source"),
            (lambda d: d["synthesis"].update(ir_length=10**400), "$.synthesis"),
        ],
        ids=["dimensions", "t60", "mic-position", "source-position", "azimuth", "ir-length"],
    )
    def test_integer_too_large_for_a_float_is_invalid(self, tmp_path, capsys, edit, path):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"  {path}: int too large to convert to float" in err and "Traceback" not in err

    @pytest.mark.parametrize("max_order", [float("inf"), float("nan"), 2.5, True],
                             ids=["inf", "nan", "fraction", "bool"])
    def test_max_order_that_is_not_an_integer_is_invalid(self, tmp_path, capsys, max_order):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": max_order})
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        err = capsys.readouterr().err
        assert (f"  $.synthesis: max_reflection_order must be 'auto' or an integer >= 0, "
                f"got {max_order!r}") in err
        assert "Traceback" not in err

    def test_max_order_past_the_image_budget_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 10**6})
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        err = capsys.readouterr().err
        assert ("  $.synthesis.max_order: room 'lab' needs more than 10^18 images, "
                "exceeding the budget of 10000000") in err
        assert "Traceback" not in err

    def test_highpass_at_nyquist_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "highpass_hz": 9000})
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "  $.synthesis.highpass_hz: highpass_hz 9000.0 Hz reaches Nyquist" in err
        assert "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_manifest_that_is_not_utf8_is_invalid(self, tmp_path, capsys):
        manifest = tmp_path / "manifest.json"
        manifest.write_bytes(b'{"sample_rate": 16000, "clean_dir": "\xff"}')
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        err = capsys.readouterr().err
        assert "  $: " in err and "not UTF-8" in err and "Traceback" not in err

    @pytest.mark.parametrize(
        "edit, error",
        [
            (lambda d: d["sessions"][0]["source"].update(position=[1.0, 1.0, 1.5]),
             "$.sessions[0].array: source and mic 'm0' positions coincide"),
            (lambda d: d["rooms"].update(lab={"dimensions": [5.0, 4.0, 3.0], "t60": 1e-6}),
             "$.rooms.lab: room cannot achieve requested T60 of 1e-06 s"),
            (lambda d: d["rooms"]["lab"].update(dimensions=[1e200, 4.0, 3.0]),
             "$.rooms.lab: room dimensions (1e+200, 4.0, 3.0) are too large for a float: "
             "squared image distances or Eyring's formula overflow"),
        ],
        ids=["mic-at-the-source", "t60-unreachable", "room-too-large"],
    )
    @pytest.mark.parametrize("dry_run", [True, False], ids=["dry-run", "run"])
    def test_placement_or_room_that_cannot_be_synthesized_is_invalid(
        self, tmp_path, capsys, edit, error, dry_run
    ):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1})
        doc = json.loads(manifest.read_text())
        edit(doc)
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, *["--dry-run"] * dry_run) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err == f"invalid manifest (1 error(s)):\n  {error}\n"
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize(
        "edit, path",
        [
            (lambda d, v: d.update(normalization=v), "$.normalization"),
            (lambda d, v: d.update(format=v), "$.format"),
            (lambda d, v: d["sessions"][0].update(ir={"mode": v}), "$.sessions[0].ir.mode"),
            (lambda d, v: d["synthesis"].update(fractional_delay=v), "$.synthesis"),
        ],
        ids=["normalization", "format", "ir-mode", "fractional-delay"],
    )
    def test_long_value_outside_its_choices_is_not_echoed_whole(self, tmp_path, capsys, edit, path):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1})
        doc = json.loads(manifest.read_text())
        edit(doc, "x" * 3000)
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"\n  {path}: " in err
        assert len(err.encode()) < 1024

    def test_ir_length_past_the_float_range_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 1e307})
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        assert capsys.readouterr().err == (
            "invalid manifest (2 error(s)):\n"
            "  $.synthesis.ir_length: room 'lab' needs more than 10^308 images, "
            "exceeding the budget of 10000000\n"
            "  $.synthesis.ir_length: ir_length 1e+307 s is too long: inf samples at 16000 Hz, "
            "more than the 16777216 an IR may hold\n"
        )

    def test_ir_length_past_the_sample_bound_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 1e300, "max_order": 2})
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        assert capsys.readouterr().err == (
            "invalid manifest (1 error(s)):\n"
            "  $.synthesis.ir_length: ir_length 1e+300 s is too long: 1.6e+304 samples at 16000 Hz, "
            "more than the 16777216 an IR may hold\n"
        )

    def test_format_outside_its_choices_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1})
        doc = json.loads(manifest.read_text())
        doc["format"] = "wav"
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, "--dry-run") == EXIT_INVALID
        assert capsys.readouterr().err == (
            "invalid manifest (1 error(s)):\n"
            "  $.format: must be 'pcm16' or 'pcm24' or 'float32', got 'wav'\n"
        )

    @pytest.mark.parametrize("cache", ["plain", "plain/sub"])
    def test_cache_dir_that_cannot_be_made_is_invalid(self, tmp_path, capsys, monkeypatch, cache):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1})
        (tmp_path / "plain").write_text("not a directory")
        monkeypatch.setenv("ROOMFORGE_CACHE_DIR", str(tmp_path / cache))
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert err.startswith("error: [Errno") and str(tmp_path / cache) in err
        assert not (tmp_path / "out").exists()

    def test_ir_too_short_for_the_direct_path_is_invalid(self, tmp_path, capsys):
        synthesis = {"ir_length": 0.01, "fractional_delay": "sinc"}
        manifest = write_run_manifest(tmp_path, ["s01"], synthesis)
        doc = json.loads(manifest.read_text())
        doc["arrays"]["solo"][0]["position"] = [4.0, 3.0, 2.0]
        doc["sessions"][0]["source"]["position"] = [1.0, 1.0, 1.0]
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert ("$.synthesis.ir_length: session 'sessA', mic 'm0': "
                "the direct path arrives at sample 175") in err
        assert not (tmp_path / "out").exists()

    def test_duplicate_session_name_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        doc = json.loads(manifest.read_text())
        doc["sessions"].append(dict(doc["sessions"][0], source={"position": [4.0, 3.0, 1.5]}))
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "  $.sessions[1].name: duplicate session name 'sessA'" in err
        assert not (tmp_path / "out").exists()

    def test_session_named_like_the_corpus_index_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        doc = json.loads(manifest.read_text())
        doc["sessions"][0]["name"] = "corpus.json"
        manifest.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "  $.sessions[0].name: 'corpus.json' is the name of the corpus index" in err
        assert "Traceback" not in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("jobs", ["0", "-1"])
    def test_worker_count_below_one_is_invalid(self, tmp_path, capsys, jobs):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        assert run_cli("run", manifest, "--jobs", jobs) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"worker count must be at least 1, got {jobs}" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_loaded_ir_at_another_rate_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.1, "max_order": 2})
        write_wav(tmp_path / "m0.wav", AudioSignal(48000, np.exp(-np.arange(2400) / 240.0)), fmt="float32")
        doc = json.loads(manifest.read_text())
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {"m0": "m0.wav"}}
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, "--jobs", "2") == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"{tmp_path / 'm0.wav'}: sample rate 48000 != manifest rate {FS}" in err
        assert "FAILED" not in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_sentence_outside_the_output_dir_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        (tmp_path / "a" / "b" / "clean").mkdir(parents=True)
        (tmp_path / "clean" / "s01.wav").rename(tmp_path / "a" / "s01.wav")
        doc = json.loads(manifest.read_text())
        doc["clean_dir"] = "a/b/clean"
        # the clean file resolves (a/b/clean/../../s01.wav), and out/sessA/../../ is tmp_path
        doc["sessions"][0]["sentences"] = ["../../s01"]
        manifest.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "  $.sessions[0].sentences[0]: must be a single path component" in err
        assert sorted(tmp_path.rglob("*")) == before

    @pytest.mark.parametrize("bad", ["../../x", "", ".", "a/b", "a\\b"])
    def test_mic_id_that_is_not_one_path_component_is_invalid(self, tmp_path, capsys, bad):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        doc = json.loads(manifest.read_text())
        doc["arrays"]["solo"][0]["id"] = bad
        manifest.write_text(json.dumps(doc))
        before = sorted(tmp_path.rglob("*"))
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert f"  $.arrays.solo: mic id must be a single path component, got {bad!r}" in err
        assert sorted(tmp_path.rglob("*")) == before

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

    def test_empty_array_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        doc = json.loads(manifest.read_text())
        doc["arrays"]["none"] = []
        doc["sessions"][0]["array"] = "none"
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "$.arrays.none" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()

    def test_truncated_clean_file_is_a_job_failure(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.1, "max_order": 2})
        wav = tmp_path / "clean" / "s02.wav"
        wav.write_bytes(wav.read_bytes()[:5000])
        assert run_cli("run", manifest) == EXIT_PARTIAL
        err = capsys.readouterr().err
        assert "FAILED sessA/s02" in err and "s02.wav" in err and "truncated" in err
        assert (tmp_path / "out" / "sessA" / "s01_m0.wav").exists()

    def test_clean_file_with_no_samples_is_a_job_failure(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.1, "max_order": 2})
        wav = tmp_path / "clean" / "s02.wav"
        write_wav(wav, AudioSignal(FS, np.zeros(0)), fmt="pcm16")
        assert run_cli("run", manifest) == EXIT_PARTIAL
        assert capsys.readouterr().err == f"FAILED sessA/s02: {wav}: no samples\n"
        assert (tmp_path / "out" / "sessA" / "s01_m0.wav").exists()

    def test_noise_file_with_no_samples_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        write_wav(tmp_path / "noise.wav", AudioSignal(FS, np.zeros(0)), fmt="pcm16")
        doc = json.loads(manifest.read_text())
        doc["noise"] = {"file": "noise.wav", "snr_db": 12}
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {tmp_path / 'noise.wav'}: no samples\n"
        assert not (tmp_path / "out").exists()

    def test_noise_file_with_a_sample_rate_of_zero_is_invalid_naming_it(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        write_zero_rate_wav(tmp_path / "noise.wav")
        doc = json.loads(manifest.read_text())
        doc["noise"] = {"file": "noise.wav", "snr_db": 12}
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest) == EXIT_INVALID
        assert capsys.readouterr().err == f"error: {tmp_path / 'noise.wav'}: invalid sample rate 0\n"
        assert not (tmp_path / "out").exists()

    def test_non_finite_clean_file_is_a_job_failure(self, tmp_path):
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.1, "max_order": 2})
        wav = tmp_path / "clean" / "s02.wav"
        speech = 0.2 * np.random.default_rng(75).standard_normal(FS // 2)
        speech[100] = np.nan
        # the codec refuses to write NaN, so patch it into a valid float32 file
        write_wav(wav, AudioSignal(FS, np.nan_to_num(speech)), fmt="float32")
        raw = bytearray(wav.read_bytes())
        raw[44 + 4 * 100 : 44 + 4 * 101] = np.float32(np.nan).tobytes()
        wav.write_bytes(bytes(raw))
        assert run_cli("run", manifest) == EXIT_PARTIAL
        index = json.loads((tmp_path / "out" / "corpus.json").read_text())
        assert [f["job"] for f in index["failures"]] == ["sessA/s02"]
        assert "s02.wav" in index["failures"][0]["error"]
        assert "NaN or infinite" in index["failures"][0]["error"]
        assert not (tmp_path / "out" / "sessA" / "s02_m0.wav").exists()

    def test_loaded_ir_with_broken_sidecar_is_invalid(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01"], {"ir_length": 0.1, "max_order": 2})
        h = AudioSignal(FS, np.exp(-np.arange(800) / 80.0))
        write_wav(tmp_path / "m0.wav", h, fmt="float32")
        (tmp_path / "m0.json").write_text("{broken")
        doc = json.loads(manifest.read_text())
        doc["sessions"][0]["ir"] = {"mode": "load", "files": {"m0": "m0.wav"}}
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest) == EXIT_INVALID
        err = capsys.readouterr().err
        assert "m0.json" in err and "Traceback" not in err

    def test_broken_sidecar_after_a_synthesized_session_writes_no_corpus(self, tmp_path, capsys):
        manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.1, "max_order": 2})
        write_wav(tmp_path / "m0.wav", AudioSignal(FS, np.exp(-np.arange(800) / 80.0)), fmt="float32")
        (tmp_path / "m0.json").write_text("{broken")
        doc = json.loads(manifest.read_text())
        first = doc["sessions"][0]
        first["sentences"] = ["s01"]
        doc["sessions"].append(
            dict(first, name="sessB", sentences=["s02"], ir={"mode": "load", "files": {"m0": "m0.wav"}})
        )
        manifest.write_text(json.dumps(doc))
        assert run_cli("run", manifest, "--jobs", "2") == EXIT_INVALID
        err = capsys.readouterr().err
        assert "m0.json" in err and "Traceback" not in err
        assert not (tmp_path / "out").exists()


def corpus_tree(out):
    """Each file under ``out`` by its path in it, with its bytes."""
    return {p.relative_to(out): p.read_bytes() for p in sorted(out.rglob("*")) if p.is_file()}


def write_two_placement_manifest(tmp_path, output_dir="out"):
    """``write_run_manifest`` with one sentence each from two source positions."""
    manifest = write_run_manifest(tmp_path, ["s01", "s02"], {"ir_length": 0.1})
    doc = json.loads(manifest.read_text())
    first = doc["sessions"][0]
    first["sentences"] = ["s01"]
    doc["sessions"].append(dict(first, name="sessB", source={"position": [4.0, 3.0, 1.2]}, sentences=["s02"]))
    doc["output_dir"] = output_dir
    manifest.write_text(json.dumps(doc))
    return manifest


def serial_corpus(directory):
    """The corpus of ``write_two_placement_manifest`` in the new ``directory``, made at --jobs 1."""
    directory.mkdir()
    assert run_cli("run", write_two_placement_manifest(directory), "--jobs", "1") == EXIT_OK
    return corpus_tree(directory / "out")


def run_python(tmp_path, *argv):
    """Run ``python argv...`` in ``tmp_path`` with this roomforge; its output must end within 120 s.

    ``subprocess.run`` returns when every process holding the child's stdout and
    stderr has ended, so a worker process that outlived the child would time out.
    """
    src = str(Path(roomforge.__file__).resolve().parents[1])
    path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *map(str, argv)], cwd=tmp_path, capture_output=True, text=True,
                          timeout=120, env=dict(os.environ, PYTHONPATH=path))


# the pool's worker count is capped by the CPU count; with one CPU, nothing starts
POOL_WORKERS = min(2, os.cpu_count() or 1)

POOL_DIED = (
    "error: a synthesis worker process ended abruptly: it was killed or ran out of memory, or it could not "
    'start because the script that ran the manifest has no `if __name__ == "__main__":` guard\n'
)

COUNT_WORKERS = """
import sys
from roomforge import manifest
from roomforge.cli import main
imported = [m for m in ("multiprocessing", "concurrent.futures.process") if m in sys.modules]
manifest.POOL_BREAK_EVEN = int(sys.argv[1])
code = main(sys.argv[2:])
import multiprocessing
print(imported, len(multiprocessing.active_children()))
sys.exit(code)
"""

KILL_A_WORKER = """
import os, signal, sys
from roomforge import manifest
from roomforge.cli import main


def killed(*args):
    os.kill(os.getpid(), signal.SIGKILL)  # as the out-of-memory killer would


if __name__ == "__main__":
    manifest.POOL_BREAK_EVEN = 0
    synthesize = manifest.synthesize_rirs
    manifest.synthesize_rirs = killed  # what the pool's workers run
    first = main(["run", sys.argv[1], "--jobs", "2"])
    manifest.synthesize_rirs = synthesize
    print(first, main(["run", sys.argv[2], "--jobs", "2"]))
"""

KILL_THE_PARENT = """
import os, signal
from roomforge import manifest

if __name__ == "__main__":
    print(manifest._POOL.run(os.getpid), flush=True)  # a worker's process id
    os.kill(os.getpid(), signal.SIGKILL)
"""


UNGUARDED = """
import sys
from roomforge import manifest
from roomforge.cli import main

manifest.POOL_BREAK_EVEN = 0
print(main(["run", sys.argv[1], "--jobs", "2"]))
"""


class TestRunWorkerProcesses:
    """At --jobs above 1, a run with two or more placements synthesizes them in worker processes,
    once the process has planned enough synthesis to pay for their start-up."""

    @pytest.mark.parametrize(
        "break_even, jobs, workers",
        [
            # a small run in a fresh process: the pool would not pay for itself
            (manifest_module.POOL_BREAK_EVEN, 2, 0),
            (0, 2, POOL_WORKERS if POOL_WORKERS > 1 else 0),
            (0, 64, POOL_WORKERS if POOL_WORKERS > 1 else 0),
        ],
        ids=["small", "pool", "pool-jobs-64"],
    )
    def test_run_starts_a_worker_per_placement_at_most_and_leaves_none(self, tmp_path, break_even, jobs,
                                                                     workers):
        manifest = write_two_placement_manifest(tmp_path)
        proc = run_python(tmp_path, "-c", COUNT_WORKERS, break_even, "run", manifest, "--jobs", jobs)
        assert (proc.returncode, proc.stderr) == (0, "")
        # importing roomforge imports no multiprocessing; two placements start two workers at most
        assert proc.stdout.splitlines()[-1] == f"[] {workers}"
        assert corpus_tree(tmp_path / "out") == serial_corpus(tmp_path / "j1")

    @pytest.mark.skipif(POOL_WORKERS < 2, reason="one CPU: synthesis runs in the calling process")
    def test_script_without_a_main_guard_fails_its_run_naming_the_guard(self, tmp_path):
        # spawn imports the script again in each worker, which then tries to start workers of its own
        manifest = write_two_placement_manifest(tmp_path)
        (tmp_path / "unguarded.py").write_text(UNGUARDED)
        proc = run_python(tmp_path, "unguarded.py", manifest)
        assert (proc.returncode, proc.stdout) == (0, f"{EXIT_INVALID}\n")
        assert proc.stderr.endswith(POOL_DIED)
        assert "if __name__ == '__main__':" in proc.stderr  # multiprocessing's own words, from the worker
        assert not (tmp_path / "out").exists()

    @pytest.mark.skipif(POOL_WORKERS < 2, reason="one CPU: synthesis runs in the calling process")
    def test_killed_worker_fails_its_run_and_the_next_run_starts_a_new_pool(self, tmp_path):
        first = write_two_placement_manifest(tmp_path, "out1")
        second = tmp_path / "second.json"
        second.write_text(first.read_text().replace('"out1"', '"out2"'))
        (tmp_path / "kill.py").write_text(KILL_A_WORKER)
        proc = run_python(tmp_path, "kill.py", first, second)
        assert proc.stderr == POOL_DIED
        assert (proc.returncode, proc.stdout.splitlines()[-1]) == (0, f"{EXIT_INVALID} {EXIT_OK}")
        assert not (tmp_path / "out1").exists()
        assert corpus_tree(tmp_path / "out2") == serial_corpus(tmp_path / "j1")

    def test_workers_end_with_a_killed_parent(self, tmp_path):
        (tmp_path / "parent.py").write_text(KILL_THE_PARENT)
        proc = run_python(tmp_path, "parent.py")  # returns once the worker has let go of the pipes
        assert proc.returncode == -9 and int(proc.stdout) > 0

    def test_zero_energy_ir_made_in_a_worker_is_invalid(self, tmp_path, capsys, monkeypatch):
        manifest = write_two_placement_manifest(tmp_path)
        doc = json.loads(manifest.read_text())
        # walls that reflect nothing and, in sessA, a hypercardioid facing away from the mic:
        # its gain is zero past 109.5 degrees off its boresight
        doc["rooms"]["lab"]["reflectivity"] = [0.0]
        doc["sessions"][0]["source"]["directivity"] = "hypercardioid"
        manifest.write_text(json.dumps(doc))
        sent = []
        dispatch = manifest_module._synthesize

        def record(*args):
            sent.append(args[-1])  # whether it goes to the process pool
            return dispatch(*args)

        monkeypatch.setattr(manifest_module, "_synthesize", record)
        monkeypatch.setattr(manifest_module, "POOL_BREAK_EVEN", 0)
        assert run_cli("run", manifest, "--dry-run") == EXIT_OK
        assert run_cli("run", manifest, "--jobs", "2") == EXIT_INVALID
        assert capsys.readouterr().err == (
            "error: $.sessions[0] ('sessA'): impulse response must have finite nonzero energy\n"
        )
        assert sent and set(sent) == {POOL_WORKERS > 1}
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("kind, wavs", [("grid", 16), ("peak", 12), ("oct", 32)])
    def test_corpus_bytes_do_not_depend_on_the_worker_count(self, tmp_path, monkeypatch, kind, wavs):
        # grid: a 2 x 2 array, whose mics share x and y pairwise and so share their
        #   gathers in synthesis, and a custom-directivity source;
        # peak: "peak" normalization, which holds a job's channels for their joint peak,
        #   at 48 kHz in pcm24 with noise;
        # oct: an 8-mic array in sinc mode at 48 kHz, whose weight tables fill four walks
        rng = np.random.default_rng(7)
        for name in ("s01", "s02"):
            write_wav(tmp_path / f"{name}.wav", AudioSignal(FS, np.clip(0.2 * rng.standard_normal(8000), -1, 1)),
                      fmt="pcm16")
        rng = np.random.default_rng(13)
        for name, n in (("w0", 30000), ("w1", 52000), ("noise48", 20000)):
            write_wav(tmp_path / f"{name}.wav", AudioSignal(48000, np.clip(0.2 * rng.standard_normal(n), -1, 1)),
                      fmt="pcm24")
        doc = {
            "sample_rate": FS,
            "rooms": {"lab": {"dimensions": [5, 4, 3], "t60": 0.4}},
            "synthesis": {"ir_length": 0.2, "fractional_delay": "sinc"},
            "sessions": [{"name": name, "room": "lab", "array": kind, "source": {"position": position},
                          "sentences": ["s01", "s02"]}
                         for name, position in (("a", [3, 2, 1.5]), ("b", [4, 3, 1.2]))],
        }
        if kind == "grid":
            doc["synthesis"]["fractional_delay"] = "nearest"
            doc["arrays"] = {"grid": [{"id": f"g{i}{j}", "position": [1 + 0.1 * i, 1 + 0.1 * j, 1.5]}
                                      for i in range(2) for j in range(2)]}
            for s in doc["sessions"]:
                s["source"].update(azimuth_deg=-150, directivity={"angles_deg": [0, 90, 180],
                                                                  "gains": [1.0, 0.6, 0.2]})
        else:
            doc.update(sample_rate=48000, format="pcm24", normalization="peak",
                       noise={"file": "noise48.wav", "snr_db": 12})
            for s in doc["sessions"]:
                s["sentences"] = ["w0", "w1"]
            if kind == "peak":
                doc["arrays"] = {"peak": [{"id": f"m{i}", "position": [1 + 0.1 * i, 1, 1.5]} for i in range(3)]}
                doc["synthesis"]["ir_length"] = 0.1
            else:
                doc["arrays"] = {"oct": [{"id": f"o{i}", "position": [1 + 0.05 * i, 1, 1.5]} for i in range(8)]}
                doc["synthesis"]["ir_length"] = 0.5
        monkeypatch.setattr(manifest_module, "POOL_BREAK_EVEN", 0)  # --jobs 2 and 3 use the pool
        trees = []
        for jobs in (1, 2, 3):
            manifest = tmp_path / f"{kind}_j{jobs}.json"
            manifest.write_text(json.dumps(dict(doc, output_dir=f"{kind}_j{jobs}")))
            assert run_cli("run", manifest, "--jobs", jobs) == EXIT_OK
            trees.append(corpus_tree(tmp_path / f"{kind}_j{jobs}"))
        assert sum(path.suffix == ".wav" for path in trees[0]) == wavs
        assert sum(path.suffix == ".json" for path in trees[0]) == 4 + 1  # a sidecar per job, and corpus.json
        assert trees[0] == trees[1] == trees[2]
