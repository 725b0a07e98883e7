"""The ``forge`` command line tool.

Subcommands:
  run       execute a scenario manifest
  rir       synthesize one image-method impulse response
  sweep     gen | invert | deconv (ESS measurement workflow)
  beamform  delay-and-sum a multichannel WAV
  metrics   acoustic metrics report for an impulse response
  select    per-utterance oracle channel selection from a score table

Exit codes: 0 success, 1 partial failure, 2 invalid manifest/arguments.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import reprlib
import sys
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from . import __version__
from .array_dsp import DEFAULT_MAX_DELAY, delay_and_sum, oracle_select, steer_and_sum
from .core import FIRST_ORDER_PATTERNS, MicSpec, RoomSpec, SourceSpec, ValidationError
from .image_source import (
    FRACTIONAL_DELAYS,
    ImageSynthesisConfig,
    ResourceError,
    _resolve_reflectivity,
    synthesize_rir,
)
from .manifest import ManifestError, load_manifest, plan_and_run
from .metrics import _FIT_RANGES, direct_to_reverberant_db, estimate_t60, schroeder_curve
from .storage import load_ir, save_ir, write_json
from .sweep import SweepSpec, deconvolve_ir, generate_ess, inverse_filter
from .wavio import _FORMATS, atomic_write, read_wav, write_wav

EXIT_OK = 0
EXIT_PARTIAL = 1
EXIT_INVALID = 2


def _vec3(text: str):
    try:
        x, y, z = (float(p) for p in text.split(","))
    except ValueError:
        # argparse echoes a ValueError's whole argument; reprlib keeps a long one short
        raise argparse.ArgumentTypeError(f"expected x,y,z — got {reprlib.repr(text)}") from None
    return x, y, z


def _max_order(text: str):
    if text == "auto":
        return text
    try:
        return int(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected 'auto' or an integer, got {reprlib.repr(text)}") from None


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="forge", description=__doc__.split("\n")[0])
    parser.add_argument("--version", action="version", version=f"forge {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("run", help="execute a scenario manifest")
    p.add_argument("manifest", type=Path)
    p.add_argument("--jobs", type=int, default=1, help="worker count")
    p.add_argument("--seed", type=int, default=None, help="override the manifest seed")
    p.add_argument("--dry-run", action="store_true",
                   help="validate the manifest and count its jobs; read no audio, "
                        "synthesize nothing and write nothing")

    p = sub.add_parser("rir", help="synthesize an image-method RIR")
    p.add_argument("--room", type=_vec3, required=True, metavar="LX,LY,LZ")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--beta", type=float, help="uniform wall reflection coefficient")
    group.add_argument("--t60", type=float, help="target reverberation time, seconds")
    p.add_argument("--source", type=_vec3, required=True, metavar="X,Y,Z")
    p.add_argument("--mic", type=_vec3, required=True, metavar="X,Y,Z")
    p.add_argument("--azimuth", type=float, default=0.0, help="source azimuth, degrees")
    p.add_argument("--elevation", type=float, default=0.0, help="source elevation, degrees")
    p.add_argument("--directivity", default="omnidirectional",
                   choices=list(FIRST_ORDER_PATTERNS))
    p.add_argument("--ir-length", type=float, default=ImageSynthesisConfig.ir_length, help="seconds")
    p.add_argument("--max-order", type=_max_order, default=ImageSynthesisConfig.max_reflection_order,
                   help="'auto' or an integer")
    p.add_argument("--fractional-delay", choices=FRACTIONAL_DELAYS,
                   default=ImageSynthesisConfig.fractional_delay)
    p.add_argument("--highpass", type=float, default=ImageSynthesisConfig.highpass_hz,
                   help="high-pass cutoff, Hz")
    p.add_argument("--fs", type=int, default=48000)
    p.add_argument("-o", "--output", type=Path, required=True)

    p = sub.add_parser("sweep", help="ESS measurement workflow")
    ssub = p.add_subparsers(dest="sweep_command", required=True)
    for name in ("gen", "invert", "deconv"):
        sp = ssub.add_parser(name)
        sp.add_argument("--f-start", type=float, default=20.0)
        sp.add_argument("--f-end", type=float, default=20000.0)
        sp.add_argument("--duration", type=float, default=60.0, help="seconds")
        sp.add_argument("--amplitude", type=float, default=SweepSpec.amplitude)
        sp.add_argument("--fade", type=float, default=0.05, help="taper, seconds")
        if name == "deconv":
            sp.add_argument("recording", type=Path)
            sp.add_argument("--ir-length", type=float, default=2.0, help="seconds")
        else:
            sp.add_argument("--fs", type=int, default=48000)
        sp.add_argument("-o", "--output", type=Path, required=True)
        sp.add_argument("--format", choices=list(_FORMATS), default="float32")

    p = sub.add_parser("beamform", help="delay-and-sum a multichannel WAV")
    p.add_argument("input", type=Path)
    p.add_argument("-o", "--output", type=Path, required=True)
    p.add_argument("--delays", type=Path, default=None,
                   help="JSON file with per-channel delays in seconds; GCC-PHAT steering if omitted")
    p.add_argument("--reference", type=int, default=0, help="reference channel for steering")
    p.add_argument("--max-delay", type=float, default=DEFAULT_MAX_DELAY, help="TDOA search bound, seconds")
    p.add_argument("--format", choices=list(_FORMATS), default="float32")

    p = sub.add_parser("metrics", help="acoustic metrics for an IR")
    p.add_argument("input", type=Path)
    p.add_argument("-o", "--output", type=Path, default=None, help="JSON report (stdout if omitted)")
    p.add_argument("--decay-csv", type=Path, default=None, help="write the decay curve as CSV")
    p.add_argument("--t60-method", choices=list(_FIT_RANGES), default="T20")

    p = sub.add_parser("select", help="oracle channel selection from a score table")
    p.add_argument("scores", type=Path, help="CSV: utterance_id, channel_id, score")
    p.add_argument("-o", "--output", type=Path, default=None, help="selection CSV (stdout if omitted)")

    return parser


def _cmd_run(args) -> int:
    try:
        manifest = load_manifest(args.manifest)
    except ManifestError as exc:
        print(exc, file=sys.stderr)
        return EXIT_INVALID
    if args.seed is not None:
        manifest.seed = args.seed
    report = plan_and_run(manifest, parallelism=args.jobs, dry_run=args.dry_run)
    if args.dry_run:
        print(f"plan: {report.jobs_planned} job(s), nothing written")
        return EXIT_OK
    print(
        f"{report.jobs_done}/{report.jobs_planned} jobs done, "
        f"{report.files_written} files, {report.total_audio_hours:.3f} audio hours, "
        f"{report.elapsed_seconds:.1f}s"
    )
    for job_id, message in report.failures:
        print(f"FAILED {job_id}: {message}", file=sys.stderr)
    if report.jobs_planned == 0:
        print("warning: manifest contains no sessions", file=sys.stderr)
    return EXIT_OK if report.ok else EXIT_PARTIAL


def _cmd_rir(args) -> int:
    room = RoomSpec(
        dimensions=args.room,
        reflectivity=(args.beta,) if args.beta is not None else None,
        target_t60=args.t60,
    )
    source = SourceSpec(
        position=args.source,
        # a float, not np.float64, so that an error message shows the value as typed
        azimuth=float(np.radians(args.azimuth)),
        elevation=float(np.radians(args.elevation)),
        directivity=args.directivity,
    )
    mic = MicSpec(id="mic", position=args.mic)
    config = ImageSynthesisConfig(
        ir_length=args.ir_length,
        max_reflection_order=args.max_order,
        fractional_delay=args.fractional_delay,
        highpass_hz=args.highpass,
    )
    ir = synthesize_rir(room, source, mic, config, sample_rate=args.fs)
    meta = {
        "room": asdict(room),
        "wall_reflectivity": _resolve_reflectivity(room).tolist(),
        "source": asdict(source),
        "mic": asdict(mic),
        "config": asdict(config),
        "sample_rate": args.fs,
    }
    save_ir(args.output, replace(ir, meta=meta))
    print(f"wrote {args.output} ({ir.num_samples} samples @ {ir.sample_rate} Hz)")
    return EXIT_OK


def _sweep_spec(args) -> SweepSpec:
    return SweepSpec(
        f_start=args.f_start,
        f_end=args.f_end,
        duration=args.duration,
        amplitude=args.amplitude,
        fade=args.fade,
    )


def _cmd_sweep(args) -> int:
    spec = _sweep_spec(args)
    if args.sweep_command == "gen":
        write_wav(args.output, generate_ess(spec, args.fs), fmt=args.format)
    elif args.sweep_command == "invert":
        write_wav(args.output, inverse_filter(spec, args.fs), fmt=args.format)
    else:
        recording = read_wav(args.recording)
        try:
            ir = deconvolve_ir(recording, spec, ir_length=args.ir_length)
        except ValidationError as exc:
            raise ValidationError(f"{args.recording}: {exc}") from None
        save_ir(args.output, ir)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_beamform(args) -> int:
    channels = read_wav(args.input)
    if args.delays is not None:
        try:
            delays = json.loads(args.delays.read_text())
        except ValueError as exc:  # JSONDecodeError, or bytes that are not text
            raise ValidationError(f"{args.delays}: not a JSON file ({exc})") from None
        try:
            out = delay_and_sum(channels, delays)
        except ValidationError as exc:
            raise ValidationError(f"{args.delays}: {exc}") from None
    else:
        try:
            result = steer_and_sum(
                channels, reference_channel=args.reference, max_delay=args.max_delay
            )
        except ValidationError as exc:
            raise ValidationError(f"{args.input}: {exc}") from None
        out = result.signal
        for i in result.low_confidence():
            est = result.tdoas[i]
            print(f"warning: low TDOA confidence on channel {i} ({est.confidence:.2f})",
                  file=sys.stderr)
    write_wav(args.output, out, fmt=args.format)
    print(f"wrote {args.output}")
    return EXIT_OK


def _cmd_metrics(args) -> int:
    ir = load_ir(args.input)
    report = {"file": str(args.input), "sample_rate": ir.sample_rate, "samples": ir.num_samples}
    try:
        report["t60_seconds"] = estimate_t60(ir, method=args.t60_method)
        report["t60_method"] = args.t60_method
    except ValidationError as exc:
        report["t60_error"] = str(exc)
    report["drr_db"] = direct_to_reverberant_db(ir)
    report["direct_path_index"] = ir.direct_path_index
    if args.output:
        write_json(args.output, report)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    if args.decay_csv:
        curve = schroeder_curve(ir)
        _write_csv(args.decay_csv, [("time_s", "level_db"), *zip(curve.times, curve.level_db)])
    return EXIT_OK


def _write_csv(path: Path, rows) -> None:
    text = io.StringIO()
    csv.writer(text).writerows(rows)
    atomic_write(path, text.getvalue().encode("utf-8"))


def _cmd_select(args) -> int:
    try:
        text = args.scores.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ValidationError(f"{args.scores}: not UTF-8 text ({exc})") from None
    if "\0" in text:  # csv rejects NUL bytes on Python 3.10 and keeps them on 3.11+
        raise ValidationError(f"{args.scores}: not a text file (holds NUL bytes)")
    tables = {}
    reader = csv.reader(io.StringIO(text, newline=""))
    for row in reader:
        if not row or row[0].strip().lower() == "utterance_id":
            continue
        where = f"{args.scores}, line {reader.line_num}"
        if len(row) < 3:
            raise ValidationError(f"{where}: expected utterance_id,channel_id,score")
        try:
            score = float(row[2])
        except ValueError:
            score = np.nan
        if not np.isfinite(score):
            raise ValidationError(f"{where}: score {row[2]!r} is not a finite number")
        tables.setdefault(row[0].strip(), {})[row[1].strip()] = score
    lines = [("utterance_id", "channel_id", "score")]
    for utt in sorted(tables):
        best = oracle_select(tables[utt])
        lines.append((utt, best, tables[utt][best]))
    if args.output:
        _write_csv(args.output, lines)
    else:
        for row in lines:
            print(",".join(str(v) for v in row))
    return EXIT_OK


_HANDLERS = {
    "run": _cmd_run,
    "rir": _cmd_rir,
    "sweep": _cmd_sweep,
    "beamform": _cmd_beamform,
    "metrics": _cmd_metrics,
    "select": _cmd_select,
}


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _HANDLERS[args.command](args)
    except (ValidationError, ResourceError, OSError) as exc:  # an OSError names its path
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID


if __name__ == "__main__":
    sys.exit(main())
