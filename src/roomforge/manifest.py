"""Scenario manifests and batch corpus generation.

A manifest is a JSON document describing rooms, microphone layouts and
speaker sessions (one placement plus a block of sentences each).  Angles
are authored in degrees and converted to radians internally; geometry is
in meters.  ``plan_and_run`` expands the manifest into one contamination
job per (session, sentence), synthesizing each session's IRs for its whole
array in one call (or loading them), and writes a reproducible corpus: the
same manifest and seed yield byte-identical outputs regardless of worker
count.
"""

from __future__ import annotations

import hashlib
import json
import math
import os
import tempfile
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from pathlib import Path
from typing import Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from .contaminate import ContaminationJob, run_job
from .core import (
    AudioSignal,
    Directivity,
    ImpulseResponse,
    MicSpec,
    PIPELINE_SAMPLE_RATES,
    RoomSpec,
    SourceSpec,
    ValidationError,
    validate_mic_array,
)
from .image_source import (
    SYNTHESIS_VERSION,
    ImageSynthesisConfig,
    lattice_image_count,
    synthesize_rir,  # noqa: F401 - kept as a module attribute: perfbench's tracer wraps it here
    synthesize_rirs,
)
from .storage import load_ir, save_ir
from .wavio import read_wav, write_wav

CACHE_ENV_VAR = "ROOMFORGE_CACHE_DIR"


class ManifestError(ValidationError):
    """Manifest validation failure carrying every detected problem."""

    def __init__(self, errors: List[Tuple[str, str]]):
        self.errors = errors
        lines = "\n".join(f"  {path}: {message}" for path, message in errors)
        super().__init__(f"invalid manifest ({len(errors)} error(s)):\n{lines}")


@dataclass
class SessionSpec:
    """One speaker placement plus its sentence block."""

    name: str
    room: str
    array: str
    source: SourceSpec
    sentences: List[str]
    ir_mode: str = "synthesize"  # "synthesize" | "load"
    ir_files: Dict[str, str] = field(default_factory=dict)  # mic id -> path


@dataclass
class ScenarioManifest:
    """Validated batch scenario: rooms, arrays, sessions and output policy."""

    rooms: Dict[str, RoomSpec]
    arrays: Dict[str, List[MicSpec]]
    sessions: List[SessionSpec]
    seed: int
    sample_rate: int
    clean_dir: Path
    output_dir: Path
    synthesis: ImageSynthesisConfig
    noise_file: Optional[Path] = None
    target_snr_db: Optional[float] = None
    normalization: str = "none"
    output_format: str = "float32"

    def job_count(self) -> int:
        return sum(len(s.sentences) for s in self.sessions)


def _get(doc: dict, key: str, path: str, errors: list, required: bool = True, default=None):
    if key not in doc:
        if required:
            errors.append((f"{path}.{key}", "missing required field"))
        return default
    return doc[key]


def parse_manifest(text: str, base_dir: Union[str, Path] = ".") -> ScenarioManifest:
    """Parse and validate a manifest, reporting every error at once."""
    base = Path(base_dir)
    errors: List[Tuple[str, str]] = []
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ManifestError([("$", f"not valid JSON: {exc}")])
    if not isinstance(doc, dict):
        raise ManifestError([("$", "manifest root must be an object")])

    seed = _get(doc, "seed", "$", errors, required=False, default=0)
    sample_rate = _get(doc, "sample_rate", "$", errors)
    if sample_rate is not None and sample_rate not in PIPELINE_SAMPLE_RATES:
        errors.append(("$.sample_rate", f"must be one of {PIPELINE_SAMPLE_RATES}, got {sample_rate}"))

    rooms: Dict[str, RoomSpec] = {}
    for name, spec in (doc.get("rooms") or {}).items():
        path = f"$.rooms.{name}"
        try:
            rooms[name] = RoomSpec(
                dimensions=tuple(spec["dimensions"]),
                reflectivity=tuple(spec["reflectivity"]) if "reflectivity" in spec else None,
                target_t60=spec.get("t60"),
                speed_of_sound=spec.get("speed_of_sound", 343.0),
            )
        except (ValidationError, KeyError, TypeError) as exc:
            errors.append((path, str(exc)))
    if not rooms:
        errors.append(("$.rooms", "at least one room is required"))

    arrays: Dict[str, List[MicSpec]] = {}
    for name, mics in (doc.get("arrays") or {}).items():
        path = f"$.arrays.{name}"
        try:
            layout = [MicSpec(id=m["id"], position=tuple(m["position"])) for m in mics]
            validate_mic_array(layout)
            arrays[name] = layout
        except (ValidationError, KeyError, TypeError) as exc:
            errors.append((path, str(exc)))
    if not arrays:
        errors.append(("$.arrays", "at least one microphone array is required"))

    syn = doc.get("synthesis") or {}
    try:
        synthesis = ImageSynthesisConfig(
            ir_length=syn.get("ir_length", 0.5),
            max_reflection_order=syn.get("max_order", "auto"),
            fractional_delay=syn.get("fractional_delay", "nearest"),
            highpass_hz=syn.get("highpass_hz", 0.0),
        )
    except ValidationError as exc:
        errors.append(("$.synthesis", str(exc)))
        synthesis = ImageSynthesisConfig()

    noise_file = None
    target_snr_db = None
    noise = doc.get("noise")
    if noise:
        noise_file = base / noise.get("file", "")
        target_snr_db = noise.get("snr_db")
        if "file" not in noise:
            errors.append(("$.noise.file", "missing required field"))
        elif not noise_file.exists():
            errors.append(("$.noise.file", f"noise file not found: {noise_file}"))
        if target_snr_db is None:
            errors.append(("$.noise.snr_db", "missing required field"))

    normalization = doc.get("normalization", "none")
    if normalization not in ("none", "peak"):
        errors.append(("$.normalization", f"must be 'none' or 'peak', got {normalization!r}"))
    output_format = doc.get("format", "float32")
    if output_format not in ("pcm16", "pcm24", "float32"):
        errors.append(("$.format", f"unsupported output format {output_format!r}"))

    sessions: List[SessionSpec] = []
    for i, sess in enumerate(doc.get("sessions") or []):
        path = f"$.sessions[{i}]"
        name = sess.get("name", f"session{i}")
        room_name = _get(sess, "room", path, errors)
        array_name = _get(sess, "array", path, errors)
        if room_name is not None and room_name not in rooms:
            errors.append((f"{path}.room", f"unknown room {room_name!r}"))
        if array_name is not None and array_name not in arrays:
            errors.append((f"{path}.array", f"unknown array {array_name!r}"))

        src_doc = _get(sess, "source", path, errors, default={})
        source = None
        try:
            source = SourceSpec(
                position=tuple(src_doc["position"]),
                azimuth=math.radians(src_doc.get("azimuth_deg", 0.0)),
                elevation=math.radians(src_doc.get("elevation_deg", 0.0)),
                directivity=_parse_directivity(src_doc.get("directivity", "omnidirectional")),
            )
        except (ValidationError, KeyError, TypeError) as exc:
            errors.append((f"{path}.source", str(exc)))

        room = rooms.get(room_name)
        if room is not None and source is not None and not room.contains(source.position):
            errors.append(
                (f"{path}.source.position", f"speaker position outside room {room_name!r}")
            )
        if room is not None and array_name in arrays:
            for mic in arrays[array_name]:
                if not room.contains(mic.position):
                    errors.append(
                        (f"{path}.array", f"mic {mic.id!r} outside room {room_name!r}")
                    )

        sentences = sess.get("sentences") or []
        if not sentences:
            errors.append((f"{path}.sentences", "session has no sentences"))
        if len(set(sentences)) != len(sentences):
            errors.append((f"{path}.sentences", "sentence ids must be unique within a session"))

        ir_doc = sess.get("ir") or {"mode": "synthesize"}
        ir_mode = ir_doc.get("mode", "synthesize")
        ir_files: Dict[str, str] = {}
        if ir_mode == "load":
            files = ir_doc.get("files") or {}
            mics = arrays.get(array_name, [])
            for mic in mics:
                if mic.id not in files:
                    errors.append((f"{path}.ir.files", f"no IR file for mic {mic.id!r}"))
            for mic_id, rel in files.items():
                full = base / rel
                if not full.exists():
                    errors.append((f"{path}.ir.files.{mic_id}", f"IR file not found: {full}"))
                ir_files[mic_id] = str(full)
        elif ir_mode != "synthesize":
            errors.append((f"{path}.ir.mode", f"must be 'synthesize' or 'load', got {ir_mode!r}"))

        if source is not None and room_name in rooms and array_name in arrays:
            sessions.append(
                SessionSpec(
                    name=name,
                    room=room_name,
                    array=array_name,
                    source=source,
                    sentences=list(sentences),
                    ir_mode=ir_mode,
                    ir_files=ir_files,
                )
            )

    for room_name in sorted({s.room for s in sessions if s.ir_mode == "synthesize"}):
        count = lattice_image_count(rooms[room_name], synthesis)
        if count > synthesis.image_budget:
            errors.append(
                (
                    "$.synthesis.ir_length",
                    f"room {room_name!r} needs {count} images, "
                    f"exceeding the budget of {synthesis.image_budget}",
                )
            )

    if errors:
        raise ManifestError(errors)

    return ScenarioManifest(
        rooms=rooms,
        arrays=arrays,
        sessions=sessions,
        seed=int(seed),
        sample_rate=int(sample_rate),
        clean_dir=base / doc.get("clean_dir", "."),
        output_dir=base / doc.get("output_dir", "corpus_out"),
        synthesis=synthesis,
        noise_file=noise_file,
        target_snr_db=target_snr_db,
        normalization=normalization,
        output_format=output_format,
    )


def _parse_directivity(value) -> Directivity:
    if isinstance(value, str):
        return Directivity(value)
    if isinstance(value, dict) and "angles_deg" in value:
        angles = tuple(math.radians(a) for a in value["angles_deg"])
        return Directivity("custom", table=(angles, tuple(value["gains"])))
    raise ValidationError(f"cannot interpret directivity {value!r}")


def load_manifest(path: Union[str, Path]) -> ScenarioManifest:
    p = Path(path)
    return parse_manifest(p.read_text(), base_dir=p.parent)


@dataclass
class CorpusReport:
    """Outcome of a batch run."""

    jobs_planned: int
    jobs_done: int
    files_written: int
    failures: List[Tuple[str, str]]  # (job id, message)
    total_audio_hours: float
    elapsed_seconds: float

    @property
    def ok(self) -> bool:
        return not self.failures


class IrCache:
    """Synthesis cache keyed by a digest of the full geometry + config.

    In-memory always; mirrored to ``ROOMFORGE_CACHE_DIR`` as .npy files when
    the env var is set, so repeated runs skip re-synthesis.  Keys include
    ``SYNTHESIS_VERSION``, so files written by an older engine are not reused.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        if directory is None:
            directory = os.environ.get(CACHE_ENV_VAR)
        self.directory = Path(directory) if directory else None
        if self.directory:
            self.directory.mkdir(parents=True, exist_ok=True)
        self._mem: Dict[str, ImpulseResponse] = {}

    @staticmethod
    def key(room: RoomSpec, source: SourceSpec, mic: MicSpec, config: ImageSynthesisConfig, fs: int) -> str:
        payload = json.dumps(
            {
                "room": [room.dimensions, room.reflectivity, room.target_t60, room.speed_of_sound],
                "source": [source.position, source.azimuth, source.elevation,
                           source.directivity.pattern, source.directivity.table],
                "mic": mic.position,
                "config": [config.ir_length, config.max_reflection_order,
                           config.fractional_delay, config.highpass_hz,
                           config.negative_reflection],
                "fs": fs,
                "version": SYNTHESIS_VERSION,
            },
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def _lookup(self, key: str, fs: int) -> Optional[ImpulseResponse]:
        if key in self._mem:
            return self._mem[key]
        if self.directory:
            f = self.directory / f"{key}.npy"
            if f.exists():
                ir = ImpulseResponse(fs, np.load(f), provenance="image-method")
                ir.detect_direct_path()
                self._mem[key] = ir
                return ir
        return None

    def _store(self, key: str, ir: ImpulseResponse) -> None:
        self._mem[key] = ir
        if self.directory:
            # write aside, then rename: a reader never sees a partly written file
            fd, tmp = tempfile.mkstemp(dir=self.directory, prefix=f".{key}.", suffix=".tmp")
            try:
                with os.fdopen(fd, "wb") as f:
                    np.save(f, ir.samples)
                os.replace(tmp, self.directory / f"{key}.npy")
            finally:
                if os.path.exists(tmp):
                    os.unlink(tmp)

    def get_or_synthesize(
        self,
        room: RoomSpec,
        source: SourceSpec,
        mics: Sequence[MicSpec],
        config: ImageSynthesisConfig,
        fs: int,
    ) -> List[ImpulseResponse]:
        """IRs for ``mics``: hits from memory or disk, the misses from one batched synthesis."""
        keys = [self.key(room, source, mic, config, fs) for mic in mics]
        irs = [self._lookup(k, fs) for k in keys]
        missing = [i for i, ir in enumerate(irs) if ir is None]
        if missing:
            fresh = synthesize_rirs(room, source, [mics[i] for i in missing], config, sample_rate=fs)
            for i, ir in zip(missing, fresh):
                self._store(keys[i], ir)
                irs[i] = ir
        return irs


def _job_seed(global_seed: int, session: str, sentence: str) -> int:
    digest = hashlib.sha256(f"{global_seed}/{session}/{sentence}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def plan_and_run(
    manifest: ScenarioManifest,
    parallelism: int = 1,
    dry_run: bool = False,
    cache: Optional[IrCache] = None,
) -> CorpusReport:
    """Expand the manifest into jobs and write the corpus.

    IRs are resolved serially first (one batched synthesis per placement,
    cached per mic), then the independent per-sentence jobs run on a
    bounded thread pool.  Each job
    writes one mono WAV per microphone plus a JSON sidecar; a top-level
    ``corpus.json`` indexes everything.
    """
    start = time.monotonic()
    fs = manifest.sample_rate
    cache = cache or IrCache()

    noise = None
    if manifest.noise_file is not None:
        noise = read_wav(manifest.noise_file)
        if noise.sample_rate != fs:
            raise ValidationError(
                f"noise sample rate {noise.sample_rate} does not match manifest rate {fs}"
            )
        noise = AudioSignal(fs, noise.data[0])

    # resolve IRs per session up front; deterministic regardless of workers
    session_irs: Dict[str, List] = {}
    for sess in manifest.sessions:
        room = manifest.rooms[sess.room]
        mics = manifest.arrays[sess.array]
        if sess.ir_mode == "load":
            session_irs[sess.name] = [load_ir(sess.ir_files[mic.id]) for mic in mics]
        else:
            session_irs[sess.name] = cache.get_or_synthesize(
                room, sess.source, mics, manifest.synthesis, fs
            )

    jobs = [(sess, sentence) for sess in manifest.sessions for sentence in sess.sentences]
    if dry_run:
        return CorpusReport(
            jobs_planned=len(jobs),
            jobs_done=0,
            files_written=0,
            failures=[],
            total_audio_hours=0.0,
            elapsed_seconds=time.monotonic() - start,
        )

    manifest.output_dir.mkdir(parents=True, exist_ok=True)
    failures: List[Tuple[str, str]] = []
    index_entries = []
    samples_written = 0
    files_written = 0

    def execute(sess: SessionSpec, sentence: str):
        job_id = f"{sess.name}/{sentence}"
        clean_path = manifest.clean_dir / f"{sentence}.wav"
        if not clean_path.exists():
            raise FileNotFoundError(f"clean file not found: {clean_path}")
        clean = read_wav(clean_path)
        if clean.sample_rate != fs:
            raise ValidationError(
                f"{clean_path}: sample rate {clean.sample_rate} != manifest rate {fs}"
            )
        irs = session_irs[sess.name]
        mics = manifest.arrays[sess.array]
        seed = _job_seed(manifest.seed, sess.name, sentence)
        job = ContaminationJob(
            clean=AudioSignal(fs, clean.data[0]),
            irs=irs,
            noise=noise,
            target_snr_db=manifest.target_snr_db,
            seed=seed,
            normalization=manifest.normalization,
        )
        out = run_job(job)
        sess_dir = manifest.output_dir / sess.name
        sess_dir.mkdir(parents=True, exist_ok=True)
        written = []
        for ch, mic in enumerate(mics):
            wav_path = sess_dir / f"{sentence}_{mic.id}.wav"
            write_wav(wav_path, out.channel(ch), fmt=manifest.output_format)
            sidecar = {
                "session": sess.name,
                "sentence": sentence,
                "channel": mic.id,
                "seed": seed,
                "snr_db": manifest.target_snr_db,
                "sample_rate": fs,
                "ir_provenance": irs[ch].provenance,
                "source": {
                    "position": list(sess.source.position),
                    "azimuth": sess.source.azimuth,
                    "elevation": sess.source.elevation,
                    "directivity": sess.source.directivity.pattern,
                },
                "mic": {"id": mic.id, "position": list(mic.position)},
                "room": list(manifest.rooms[sess.room].dimensions),
            }
            wav_path.with_suffix(".json").write_text(
                json.dumps(sidecar, indent=2, sort_keys=True) + "\n"
            )
            written.append(str(wav_path.relative_to(manifest.output_dir)))
        return job_id, written, out.num_samples * out.num_channels

    with ThreadPoolExecutor(max_workers=max(parallelism, 1)) as pool:
        futures = {pool.submit(execute, sess, sentence): (sess, sentence) for sess, sentence in jobs}
        for fut, (sess, sentence) in futures.items():
            job_id = f"{sess.name}/{sentence}"
            try:
                job_id, written, n_samples = fut.result()
            except Exception as exc:  # noqa: BLE001 - collected per-job
                failures.append((job_id, str(exc)))
                continue
            index_entries.append({"job": job_id, "files": written})
            files_written += len(written)
            samples_written += n_samples

    index_entries.sort(key=lambda e: e["job"])
    index = {
        "seed": manifest.seed,
        "sample_rate": fs,
        "jobs": index_entries,
        "failures": [{"job": j, "error": m} for j, m in sorted(failures)],
    }
    (manifest.output_dir / "corpus.json").write_text(
        json.dumps(index, indent=2, sort_keys=True) + "\n"
    )

    return CorpusReport(
        jobs_planned=len(jobs),
        jobs_done=len(jobs) - len(failures),
        files_written=files_written,
        failures=sorted(failures),
        total_audio_hours=samples_written / fs / 3600.0,
        elapsed_seconds=time.monotonic() - start,
    )
