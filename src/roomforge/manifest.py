"""Scenario manifests and batch corpus generation.

A manifest is a JSON document describing rooms, microphone layouts and
speaker sessions (one placement plus a block of sentences each).  Angles
are authored in degrees and converted to radians internally; geometry is
in meters.  ``plan_and_run`` expands the manifest into one contamination
job per (session, sentence) and runs it on one worker pool.  The pool
first makes each distinct IR of the run once, whatever the room, array and
session names (``_resolve_irs``); at more than one worker, once the process
has planned enough synthesis, the placements are synthesized in worker
processes (``_SynthesisPool``).  Then it runs the jobs, longest first.  The
corpus is reproducible: the same manifest and seed yield byte-identical
outputs whatever the worker count and the job order.
"""

from __future__ import annotations

import atexit
import hashlib
import io
import json
import math
import os
import reprlib
import threading
import time
from concurrent.futures import BrokenExecutor, ThreadPoolExecutor
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Dict, Hashable, List, Optional, Sequence, Tuple, Union

import numpy as np

from .contaminate import (
    NORMALIZATIONS,
    ContaminationJob,
    _check_snr_db,
    job_channels,
    run_job,  # noqa: F401 - kept as a module attribute: perfbench's tracer wraps it here
)
from .core import (
    DEFAULT_SPEED_OF_SOUND,
    AudioSignal,
    Directivity,
    ImpulseResponse,
    MicSpec,
    PIPELINE_SAMPLE_RATES,
    RoomSpec,
    SourceSpec,
    ValidationError,
    _is_integer,
    _is_path_component,
    _number,
    validate_mic_array,
)
from .image_source import (
    SYNTHESIS_VERSION,
    ImageSynthesisConfig,
    ResourceError,
    check_room,
    direct_path_index,
    lattice_image_count,
    placement_faults,
    synthesize_rir,  # noqa: F401 - kept as a module attribute: perfbench's tracer wraps it here
    synthesize_rirs,
)
from .storage import load_ir, write_json
from .wavio import _FORMATS, atomic_write, read_wav, write_wav

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


_KINDS = {
    "an object": lambda v: isinstance(v, dict),
    "an object of strings": lambda v: isinstance(v, dict)
    and all(isinstance(x, str) for x in v.values()),
    "a list": lambda v: isinstance(v, list),
    "a list of strings": lambda v: isinstance(v, list) and all(isinstance(x, str) for x in v),
    "a string": lambda v: isinstance(v, str),
    "an integer": _is_integer,
}


def _field(doc: dict, key: str, path: str, errors: list, kind, default=None):
    """``doc[key]`` if it is ``kind``, else ``default``.

    ``kind`` is a key of ``_KINDS`` or a tuple of the allowed values.  A value of
    another kind is an error at ``path.key``, and so is an absent or null key that
    has no default.
    """
    value = doc.get(key)
    if value is None:
        if default is None:
            errors.append((f"{path}.{key}", "missing required field"))
        return default
    if isinstance(kind, tuple):
        ok, kind = value in kind, " or ".join(map(repr, kind))
    else:
        ok = _KINDS[kind](value)
    if not ok:
        errors.append((f"{path}.{key}", f"must be {kind}, got {reprlib.repr(value)}"))
        return default
    return value


def _known_keys(doc, path: str, errors: list, *keys: str) -> None:
    """Report each key of ``doc``, if it is an object, that is not one of ``keys``: nothing reads it."""
    for key in doc if isinstance(doc, dict) else ():
        if key not in keys:
            errors.append((f"{path}.{key}", f"unknown field; expected one of {', '.join(keys)}"))


def parse_manifest(text: str, base_dir: Union[str, Path] = ".") -> ScenarioManifest:
    """Parse and validate a manifest, reporting every error at once."""
    base = Path(base_dir)
    errors: List[Tuple[str, str]] = []
    try:
        doc = json.loads(text)
    except ValueError as exc:  # JSONDecodeError, or an integer of more than 4300 digits
        raise ManifestError([("$", f"not valid JSON: {exc}")])
    if not isinstance(doc, dict):
        raise ManifestError([("$", "manifest root must be an object")])
    _known_keys(doc, "$", errors, "seed", "sample_rate", "clean_dir", "output_dir", "format", "normalization",
                "rooms", "arrays", "synthesis", "noise", "sessions")

    seed = _field(doc, "seed", "$", errors, "an integer", 0)
    sample_rate = _field(doc, "sample_rate", "$", errors, "an integer")
    if sample_rate is not None and sample_rate not in PIPELINE_SAMPLE_RATES:
        errors.append(("$.sample_rate", f"must be one of {PIPELINE_SAMPLE_RATES}, got {sample_rate}"))

    rooms: Dict[str, RoomSpec] = {}
    for name, spec in _field(doc, "rooms", "$", errors, "an object", {}).items():
        path = f"$.rooms.{name}"
        _known_keys(spec, path, errors, "dimensions", "reflectivity", "t60", "speed_of_sound")
        try:
            rooms[name] = RoomSpec(
                dimensions=spec["dimensions"],
                reflectivity=spec.get("reflectivity"),
                target_t60=spec.get("t60"),
                speed_of_sound=spec.get("speed_of_sound", DEFAULT_SPEED_OF_SOUND),
            )
        except KeyError as exc:  # "dimensions", the one key read with []
            errors.append((f"{path}.{exc.args[0]}", "missing required field"))
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append((path, str(exc)))
    if not rooms:
        errors.append(("$.rooms", "at least one room is required"))

    arrays: Dict[str, List[MicSpec]] = {}
    for name, mics in _field(doc, "arrays", "$", errors, "an object", {}).items():
        path = f"$.arrays.{name}"
        try:
            layout = []
            for j, m in enumerate(mics):
                _known_keys(m, f"{path}[{j}]", errors, "id", "position")
                layout.append(MicSpec(id=m["id"], position=m["position"]))
            validate_mic_array(layout)
            arrays[name] = layout
        except KeyError as exc:  # "id" or "position" of mic j, the keys read with []
            errors.append((f"{path}[{j}].{exc.args[0]}", "missing required field"))
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append((path, str(exc)))
    if not arrays:
        errors.append(("$.arrays", "at least one microphone array is required"))

    syn = _field(doc, "synthesis", "$", errors, "an object", {})
    _known_keys(syn, "$.synthesis", errors, "ir_length", "max_order", "fractional_delay", "highpass_hz")
    try:
        synthesis = ImageSynthesisConfig(
            ir_length=syn.get("ir_length", ImageSynthesisConfig.ir_length),
            max_reflection_order=syn.get("max_order", ImageSynthesisConfig.max_reflection_order),
            fractional_delay=syn.get("fractional_delay", ImageSynthesisConfig.fractional_delay),
            highpass_hz=syn.get("highpass_hz", ImageSynthesisConfig.highpass_hz),
        )
    except (ValueError, TypeError, OverflowError) as exc:
        errors.append(("$.synthesis", str(exc)))
        synthesis = ImageSynthesisConfig()

    noise_file = None
    target_snr_db = None
    noise = _field(doc, "noise", "$", errors, "an object", {})
    if noise:
        _known_keys(noise, "$.noise", errors, "file", "snr_db")
        noise_name = _field(noise, "file", "$.noise", errors, "a string")
        target_snr_db = noise.get("snr_db")  # kept as given, so that sidecars echo it
        try:
            _check_snr_db(target_snr_db)
        except (ValueError, OverflowError) as exc:
            errors.append(("$.noise.snr_db", "missing required field" if target_snr_db is None else str(exc)))
        if noise_name is not None:
            noise_file = base / noise_name
            if not noise_file.exists():
                errors.append(("$.noise.file", f"noise file not found: {noise_file}"))

    normalization = _field(doc, "normalization", "$", errors, NORMALIZATIONS, "none")
    output_format = _field(doc, "format", "$", errors, tuple(_FORMATS), "float32")
    clean_dir = _field(doc, "clean_dir", "$", errors, "a string", ".")
    output_dir = _field(doc, "output_dir", "$", errors, "a string", "corpus_out")

    # direct paths are checked if the config suits the rate, an error only if a session synthesizes
    ir_config, rate_error = (), None
    if sample_rate in PIPELINE_SAMPLE_RATES:
        try:
            synthesis.validate_rate(sample_rate)
            ir_config = (synthesis, sample_rate)
        except ValidationError as exc:  # its message starts with the field at fault
            rate_error = (f"$.synthesis.{str(exc).split()[0]}", str(exc))

    sessions: List[SessionSpec] = []
    session_paths: Dict[str, str] = {}  # name -> JSON path of the session that has it
    for i, sess in enumerate(_field(doc, "sessions", "$", errors, "a list", [])):
        path = f"$.sessions[{i}]"
        if not isinstance(sess, dict):
            errors.append((path, f"must be an object, got {reprlib.repr(sess)}"))
            continue
        _known_keys(sess, path, errors, "name", "room", "array", "source", "sentences", "ir")
        name = _field(sess, "name", path, errors, "a string", f"session{i}")
        if not _is_path_component(name):
            errors.append((f"{path}.name", f"must be a single path component, got {name!r}"))
        elif name == _CORPUS_INDEX:
            errors.append((f"{path}.name", f"{name!r} is the name of the corpus index"))
        elif name in session_paths:
            errors.append(
                (f"{path}.name", f"duplicate session name {name!r}, first at {session_paths[name]}")
            )
        else:
            session_paths[name] = path
        room_name = _field(sess, "room", path, errors, "a string")
        array_name = _field(sess, "array", path, errors, "a string")
        if room_name is not None and room_name not in rooms:
            errors.append((f"{path}.room", f"unknown room {room_name!r}"))
        if array_name is not None and array_name not in arrays:
            errors.append((f"{path}.array", f"unknown array {array_name!r}"))

        src_doc = _field(sess, "source", path, errors, "an object") or {}
        _known_keys(src_doc, f"{path}.source", errors,
                    "position", "azimuth_deg", "elevation_deg", "directivity")
        source = None
        try:
            source = SourceSpec(
                position=src_doc["position"],
                # math.radians would take true for 1 degree, so the degree fields are checked here
                azimuth=math.radians(_number(src_doc.get("azimuth_deg", 0.0), "azimuth_deg")),
                elevation=math.radians(_number(src_doc.get("elevation_deg", 0.0), "elevation_deg")),
                directivity=_parse_directivity(src_doc.get("directivity", "omnidirectional")),
            )
        except KeyError as exc:  # "position", the one key read with []
            errors.append((f"{path}.source.{exc.args[0]}", "missing required field"))
        except (ValueError, TypeError, OverflowError) as exc:
            errors.append((f"{path}.source", str(exc)))

        sentences = _field(sess, "sentences", path, errors, "a list of strings")
        if sentences == []:
            errors.append((f"{path}.sentences", "session has no sentences"))
        sentences = sentences or []
        for j, sentence in enumerate(sentences):
            if not _is_path_component(sentence):
                errors.append(
                    (f"{path}.sentences[{j}]", f"must be a single path component, got {sentence!r}")
                )
        if len(set(sentences)) != len(sentences):
            errors.append((f"{path}.sentences", "sentence ids must be unique within a session"))
        mics = arrays.get(array_name, [])
        owners: Dict[Path, Tuple[str, str]] = {}  # WAV -> the (sentence, mic) that writes it
        for sentence in sentences:
            for wav, mic in zip(_job_files(name, sentence, mics)[1], mics):
                owner = owners.setdefault(wav, (sentence, mic.id))
                if owner != (sentence, mic.id):
                    errors.append((f"{path}.sentences", f"(sentence, mic) {owner} and "
                                   f"{(sentence, mic.id)} both write {wav.name}"))

        ir_doc = _field(sess, "ir", path, errors, "an object", {})
        _known_keys(ir_doc, f"{path}.ir", errors, "mode", "files")
        ir_mode = _field(ir_doc, "mode", f"{path}.ir", errors, ("synthesize", "load"), "synthesize")
        ir_files: Dict[str, str] = {}
        if ir_mode == "load":
            files = _field(ir_doc, "files", f"{path}.ir", errors, "an object of strings", {})
            for mic in mics:
                if mic.id not in files:
                    errors.append((f"{path}.ir.files", f"no IR file for mic {mic.id!r}"))
            for mic_id, rel in files.items():
                full = base / rel
                if not full.exists():
                    errors.append((f"{path}.ir.files.{mic_id}", f"IR file not found: {full}"))
                ir_files[mic_id] = str(full)

        if source is not None and room_name in rooms:
            at = {"source": f"{path}.source.position", "mic": f"{path}.array"}
            # a loaded IR is not synthesized, so its direct path may arrive anywhere
            ir = ir_config if ir_mode == "synthesize" else ()
            for culprit, message in placement_faults(rooms[room_name], source, mics, *ir):
                # $.synthesis.ir_length does not name the session, so the message does
                errors.append((at[culprit], message) if culprit in at
                              else ("$.synthesis.ir_length", f"session {name!r}, {message}"))
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

    synthesized = [s for s in sessions if s.ir_mode == "synthesize"]
    for room_name in sorted({s.room for s in synthesized}):
        try:
            check_room(rooms[room_name], synthesis)
        except ResourceError as exc:
            # an integer order sets the lattice; "auto" sizes it from the IR length
            field_at_fault = "ir_length" if synthesis.max_reflection_order == "auto" else "max_order"
            errors.append((f"$.synthesis.{field_at_fault}", f"room {room_name!r} {exc}"))
        except ValidationError as exc:
            errors.append((f"$.rooms.{room_name}", str(exc)))
    if synthesized and rate_error:
        errors.append(rate_error)

    if errors:
        raise ManifestError(errors)

    return ScenarioManifest(
        rooms=rooms,
        arrays=arrays,
        sessions=sessions,
        seed=seed,
        sample_rate=sample_rate,
        clean_dir=base / clean_dir,
        output_dir=base / output_dir,
        synthesis=synthesis,
        noise_file=noise_file,
        target_snr_db=target_snr_db,
        normalization=normalization,
        output_format=output_format,
    )


def _parse_directivity(value) -> Directivity:
    if isinstance(value, str):
        return Directivity(value)
    if isinstance(value, dict) and value.keys() >= {"angles_deg", "gains"}:
        angles = tuple(map(math.radians, _number(value["angles_deg"], "angles_deg", sequence=True)))
        return Directivity("custom", table=(angles, value["gains"]))
    raise ValidationError(f"cannot interpret directivity {reprlib.repr(value)}")


def load_manifest(path: Union[str, Path]) -> ScenarioManifest:
    p = Path(path)
    try:
        text = p.read_bytes().decode("utf-8")
    except UnicodeDecodeError as exc:
        raise ManifestError([("$", f"{p}: not UTF-8 text ({exc})")]) from None
    return parse_manifest(text, base_dir=p.parent)


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


def _exit_with_parent() -> None:
    """Start-up of a synthesis worker: end it when the process that started it ends.

    A worker blocks on a queue whose write end it holds itself, so it would
    outlive a parent that was killed, holding the parent's stdout and stderr.
    """
    from multiprocessing import parent_process
    from multiprocessing.connection import wait

    sentinel = parent_process().sentinel  # ready once the parent has ended

    def watch():
        wait([sentinel])
        os._exit(1)

    threading.Thread(target=watch, daemon=True).start()


# Image-mic pairs (lattice images times mics) of synthesis that pay for the process
# pool's start-up.  On a 2-core host, a fresh `forge run --jobs 2` of P placements of
# 8 mics, with 0.5 s IRs at 16 kHz in a 5 x 4 x 2.7 m room (982,488 lattice images per
# mic), was slower with the pool up to P = 12, level at 16 and 20, and faster from 24
# (BENCH_26.json); 20 such placements are 1.57e8 pairs.
POOL_BREAK_EVEN = 160_000_000


class _SynthesisPool:
    """Worker processes that synthesize placements, for runs at more than one worker.

    Synthesis is numpy work that holds the interpreter lock for most of its
    time, so a second thread gains little on it, while a second process
    overlaps two placements.  But a worker costs about a third of a second to
    start (a new interpreter that imports roomforge), so the pool is used only
    once this process has planned ``POOL_BREAK_EVEN`` image-mic pairs of
    synthesis, the current run's included (``pays``).  A one-off run uses it
    only if it is that large itself; a process that runs many corpora starts
    it once, and it lives as long as the process.  It has
    ``ProcessPoolExecutor``'s default of a worker per CPU, spawned only when a
    task finds none idle, so a run starts no more workers than it sends tasks
    at once.  Workers start by ``spawn``: ``fork`` is unsafe in a process
    that runs threads, and ``forkserver``'s workers are not this process's
    children, which ``RUSAGE_CHILDREN`` would then not count.  At exit,
    ``concurrent.futures`` stops and joins the workers.
    """

    def __init__(self):
        self._lock = threading.Lock()
        self._executor = None
        self._work = 0  # image-mic pairs of synthesis planned by this process's runs
        # let go of the executor before the interpreter's teardown: freed during it, the
        # executor's weakref callback can run after ``concurrent.futures.process`` is
        # cleared, and print an ignored AttributeError
        atexit.register(self._release)

    def _release(self):
        self._executor = None

    def pays(self, work: int) -> bool:
        """Add a run's planned synthesis ``work``; whether this process has now planned enough for the pool."""
        with self._lock:
            self._work += work
            return self._work >= POOL_BREAK_EVEN

    def run(self, fn, *args):
        """``fn(*args)`` in a worker process; ``fn`` and ``args`` must pickle."""
        with self._lock:
            if self._executor is None:
                # deferred: runs that start no process do not import these
                import multiprocessing
                from concurrent.futures import ProcessPoolExecutor
                from multiprocessing.spawn import _check_not_importing_main

                # a worker still starting, as when spawn runs a script with no main guard again, fails
                # here as spawn would fail it, before the pool makes any semaphore: the broken pool
                # kills the other workers, and one killed holding semaphores leaves a warning on stderr
                _check_not_importing_main()
                self._executor = ProcessPoolExecutor(
                    mp_context=multiprocessing.get_context("spawn"), initializer=_exit_with_parent
                )
            executor = self._executor
        try:
            return executor.submit(fn, *args).result()
        except BrokenExecutor:
            # a worker died, and with it the pool: each of its tasks fails, and the next run starts a new one
            with self._lock:
                if self._executor is executor:
                    self._executor = None
            raise ResourceError(
                "a synthesis worker process ended abruptly: it was killed or ran out of memory, or it "
                'could not start because the script that ran the manifest has no `if __name__ == "__main__":` guard'
            ) from None


_POOL = _SynthesisPool()


def _synthesize(room: RoomSpec, source: SourceSpec, mics: Sequence[MicSpec],
                config: ImageSynthesisConfig, fs: int, pooled: bool) -> List[ImpulseResponse]:
    """``synthesize_rirs`` of one placement: in a worker process if ``pooled``, else in this one."""
    if pooled:
        return _POOL.run(synthesize_rirs, room, source, mics, config, fs)
    return synthesize_rirs(room, source, mics, config, sample_rate=fs)


class IrCache:
    """Disk mirror of synthesized IRs, keyed by a digest of every field of the scene and config.

    Each synthesized IR is saved as a .npy file in ``directory`` (by default
    ``ROOMFORGE_CACHE_DIR``, if set), so later runs skip its synthesis; nothing
    is kept in memory.  Keys include ``SYNTHESIS_VERSION``, so files written by
    an older engine are not reused.  A disk hit equals a fresh synthesis in every
    field: the samples, the provenance, the geometric ``direct_path_index`` and an
    empty ``meta``.
    """

    def __init__(self, directory: Optional[Union[str, Path]] = None):
        if directory is None:
            directory = os.environ.get(CACHE_ENV_VAR)
        self.directory = Path(directory) if directory else None
        if self.directory:
            self.directory.mkdir(parents=True, exist_ok=True)

    @staticmethod
    def key(room: RoomSpec, source: SourceSpec, mic: MicSpec, config: ImageSynthesisConfig, fs: int) -> str:
        payload = json.dumps(
            {"room": asdict(room), "source": asdict(source), "mic": mic.position,
             "config": asdict(config), "fs": fs, "version": SYNTHESIS_VERSION},
            sort_keys=True,
        )
        return hashlib.sha256(payload.encode()).hexdigest()

    def get_or_synthesize(
        self,
        room: RoomSpec,
        source: SourceSpec,
        mics: Sequence[MicSpec],
        config: ImageSynthesisConfig,
        fs: int,
        *,
        _pooled: bool = False,
    ) -> List[ImpulseResponse]:
        """IRs for ``mics``: hits from disk, the misses from one batched synthesis, then saved.

        A file that does not load as an IR of ``config.validate_rate(fs)`` samples
        is a miss: its IR is synthesized again and written over it.  ``plan_and_run``
        sets ``_pooled`` to have the misses synthesized in one task of the process
        pool; reads and writes stay in this process.
        """
        irs: List[Optional[ImpulseResponse]] = [None] * len(mics)
        files = []
        if self.directory:
            n = config.validate_rate(fs)
            files = [self.directory / f"{self.key(room, source, mic, config, fs)}.npy" for mic in mics]
            for i, (f, mic) in enumerate(zip(files, mics)):
                try:
                    samples = np.load(f)
                    if samples.shape == (n,):
                        irs[i] = ImpulseResponse(fs, samples, "image-method",
                                                 direct_path_index(room, source, mic, fs))
                except (OSError, EOFError, ValueError):
                    pass  # absent, truncated or not an IR: a miss
        missing = [i for i, ir in enumerate(irs) if ir is None]
        if missing:
            fresh = _synthesize(room, source, [mics[i] for i in missing], config, fs, _pooled)
            for i, ir in zip(missing, fresh):
                irs[i] = ir
                if files:
                    buf = io.BytesIO()
                    np.save(buf, ir.samples)
                    atomic_write(files[i], buf.getvalue())
        return irs


def _job_seed(global_seed: int, session: str, sentence: str) -> int:
    digest = hashlib.sha256(f"{global_seed}/{session}/{sentence}".encode()).digest()
    return int.from_bytes(digest[:8], "little")


def _at_rate(path, item, fs: int):
    """``item``, a signal or IR read from ``path``, if it is at the manifest rate ``fs``."""
    if item.sample_rate != fs:
        raise ValidationError(f"{path}: sample rate {item.sample_rate} != manifest rate {fs}")
    return item


def _read_mono(path: Path, fs: int) -> AudioSignal:
    """The mono signal in ``path``; another sample rate or channel count, or no samples, is invalid."""
    signal = _at_rate(path, read_wav(path), fs)
    if signal.num_channels != 1:
        raise ValidationError(f"{path}: {signal.num_channels} channels, expected mono")
    if signal.num_samples == 0:
        raise ValidationError(f"{path}: no samples")
    return signal


_CORPUS_INDEX = "corpus.json"  # beside the session directories in ``output_dir``


def _job_files(session: str, sentence: str, mics: Sequence[MicSpec]) -> Tuple[Path, List[Path], Path]:
    """A job's clean input (under ``clean_dir``), WAVs in mic order and sidecar (under ``output_dir``)."""
    wavs = [Path(session, f"{sentence}_{mic.id}.wav") for mic in mics]
    return Path(f"{sentence}.wav"), wavs, Path(session, f"{sentence}.json")


def _job_cost(manifest: ScenarioManifest, session: SessionSpec, sentence: str) -> int:
    """A job's relative cost: its clean file's size times its mic count, 0 if unreadable."""
    mics = manifest.arrays[session.array]
    try:
        size = (manifest.clean_dir / _job_files(session.name, sentence, mics)[0]).stat().st_size
    except OSError:
        return 0  # the job itself reports the problem
    return size * len(mics)


def _run_one(
    manifest: ScenarioManifest,
    session: SessionSpec,
    sentence: str,
    irs: List[ImpulseResponse],
    noise: Optional[AudioSignal],
) -> Tuple[List[str], int]:
    """Write one sentence's WAV per mic, then its sidecar; return the WAVs and the samples written.

    Each channel of ``job_channels`` is written as it comes, before the next is
    made, so a worker holds a few channel-sized buffers, not the whole job
    (all of its channels with "peak" normalization, which needs the joint peak).
    The sidecar, ``<session>/<sentence>.json``, holds the job's fields once and a
    ``channels`` list in mic order: each WAV's file name, its mic and its IR's
    provenance.  Any earlier sidecar is removed first and the new one comes last,
    so one on disk means that every WAV it lists is whole; a job that fails
    midway, say at a silent channel, leaves the WAVs before it and no sidecar.
    """
    fs = manifest.sample_rate
    mics = manifest.arrays[session.array]
    clean, wavs, sidecar = _job_files(session.name, sentence, mics)
    clean_path = manifest.clean_dir / clean
    if not clean_path.exists():
        raise FileNotFoundError(f"clean file not found: {clean_path}")
    seed = _job_seed(manifest.seed, session.name, sentence)
    job = ContaminationJob(
        clean=_read_mono(clean_path, fs),
        irs=irs,
        noise=noise,
        target_snr_db=manifest.target_snr_db,
        seed=seed,
        normalization=manifest.normalization,
    )
    (manifest.output_dir / sidecar).parent.mkdir(parents=True, exist_ok=True)
    # an earlier run's sidecar would vouch for WAVs that this run may leave half rewritten
    (manifest.output_dir / sidecar).unlink(missing_ok=True)
    samples = 0
    for wav, channel in zip(wavs, job_channels(job)):
        write_wav(manifest.output_dir / wav, AudioSignal(fs, channel), fmt=manifest.output_format)
        samples += channel.size
    write_json(manifest.output_dir / sidecar, {
        "session": session.name,
        "sentence": sentence,
        "seed": seed,
        "snr_db": manifest.target_snr_db,
        "sample_rate": fs,
        "source": asdict(session.source),
        "room": asdict(manifest.rooms[session.room]),
        "channels": [
            {"file": wav.name, "mic": asdict(mic), "ir_provenance": ir.provenance}
            for wav, mic, ir in zip(wavs, mics, irs)
        ],
    })
    return [str(wav) for wav in wavs], samples


def _resolve_irs(
    manifest: ScenarioManifest, cache: IrCache, pool: ThreadPoolExecutor, parallelism: int
) -> List[List[ImpulseResponse]]:
    """Each session's IRs in mic order, each distinct IR made once on ``pool``.

    A table maps each IR to the task that makes it and its index in that task's
    result: a loaded IR by its file path, a synthesized one by (room, source, mic
    position), as config and rate are fixed for the run.  A session's new files
    are read in one task, each at the manifest's rate, and its new synthesized
    mics are made in one ``get_or_synthesize`` task, so distinct placements
    overlap and one placement's lattice is walked once.  The run's planned
    synthesis, in image-mic pairs (disk hits included), counts towards the
    process pool's break-even (``_SynthesisPool.pays``).  Once that is reached,
    a run with two or more placements to synthesize at ``parallelism`` > 1, on
    a host of two or more CPUs, has each task send its cache misses to the
    process pool and wait for them; the task reads and writes the IR cache
    itself.  Results are taken in session order: the first session that fails
    raises, with the queued tasks cancelled; a ``ValidationError`` names the
    session whose task raised it, by JSON path and name.
    """
    fs = manifest.sample_rate
    table: Dict[Hashable, Tuple[int, int]] = {}  # IR key -> (its task, its index in the task's result)
    tasks: List[Tuple[SessionSpec, list]] = []  # a session and the files or mics of its new IRs
    task_sessions: List[int] = []  # each task's session, by its index in ``manifest.sessions``
    session_keys = []
    for index, sess in enumerate(manifest.sessions):
        mics = manifest.arrays[sess.array]
        if sess.ir_mode == "load":
            keys = [sess.ir_files[mic.id] for mic in mics]
            new = {key: key for key in keys if key not in table}
        else:
            keys = [(manifest.rooms[sess.room], sess.source, mic.position) for mic in mics]
            new = {key: mic for key, mic in zip(keys, mics) if key not in table}
        if new:
            table.update((key, (len(tasks), i)) for i, key in enumerate(new))
            tasks.append((sess, list(new.values())))
            task_sessions.append(index)
        session_keys.append(keys)
    config = manifest.synthesis
    synthesized = [(manifest.rooms[sess.room], mics) for sess, mics in tasks if sess.ir_mode == "synthesize"]
    # the budget bounds what synthesis walks, and a room past it fails in its task
    work = sum(min(lattice_image_count(room, config), config.image_budget) * len(mics)
               for room, mics in synthesized)
    pooled = _POOL.pays(work) and parallelism > 1 and len(synthesized) > 1 and (os.cpu_count() or 1) > 1

    def make(sess, items):
        if sess.ir_mode == "load":
            return [_at_rate(p, load_ir(p), fs) for p in items]
        return cache.get_or_synthesize(manifest.rooms[sess.room], sess.source, items,
                                       config, fs, _pooled=pooled)

    def result(t):
        try:
            return futures[t].result()
        except ValidationError as exc:
            index = task_sessions[t]
            raise ValidationError(f"$.sessions[{index}] ({manifest.sessions[index].name!r}): {exc}") from None

    futures = [pool.submit(make, *task) for task in tasks]
    try:
        return [[result(t)[i] for t, i in (table[key] for key in keys)] for keys in session_keys]
    except BaseException:
        pool.shutdown(cancel_futures=True)
        raise


def plan_and_run(
    manifest: ScenarioManifest,
    parallelism: int = 1,
    dry_run: bool = False,
    cache: Optional[IrCache] = None,
) -> CorpusReport:
    """Expand the manifest into one job per (session, sentence) and write the corpus.

    ``parallelism`` below 1 is a ``ValidationError``.  A dry run only counts
    the jobs: it reads no audio, resolves no IR and writes nothing, not even
    to the IR cache.  A real run reads the noise file, then uses one bounded
    thread pool of ``parallelism`` workers.  It first makes each distinct IR
    once, in one task per placement (``_resolve_irs``).  At ``parallelism`` > 1
    with two or more placements to synthesize, once this process has planned
    enough synthesis to pay for their start-up, the tasks have them
    synthesized in worker processes, which live as long as this process.  A
    failure there, a dead worker included, raises before any job starts or
    ``output_dir`` exists.  Then the thread pool runs the jobs, longest
    first: by the clean file's size times the mic count, ties in manifest
    order.  Neither the worker count nor the order change a byte of the
    corpus.  Each job writes one mono WAV per microphone, then one JSON
    sidecar for the job (see ``_run_one``); a top-level ``corpus.json``
    indexes everything.  A job that fails is reported in ``failures`` and
    ``corpus.json``, and the others still run.
    """
    if parallelism < 1:
        raise ValidationError(f"worker count must be at least 1, got {parallelism}")
    start = time.monotonic()
    fs = manifest.sample_rate
    index_entries = []
    failures: List[Tuple[str, str]] = []
    samples_written = 0
    if not dry_run:
        noise = None if manifest.noise_file is None else _read_mono(manifest.noise_file, fs)
        cache = cache or IrCache()

        with ThreadPoolExecutor(max_workers=parallelism) as pool:
            session_irs = _resolve_irs(manifest, cache, pool, parallelism)
            manifest.output_dir.mkdir(parents=True, exist_ok=True)
            jobs = [
                (sess, sentence, irs)
                for sess, irs in zip(manifest.sessions, session_irs)
                for sentence in sess.sentences
            ]
            # longest first, so that no long job starts last beside idle workers;
            # the sort is stable, so equal costs keep manifest order
            jobs.sort(key=lambda job: -_job_cost(manifest, *job[:2]))
            futures = [
                (f"{sess.name}/{sentence}",
                 pool.submit(_run_one, manifest, sess, sentence, irs, noise))
                for sess, sentence, irs in jobs
            ]
            for job_id, future in futures:
                try:
                    written, n_samples = future.result()
                except Exception as exc:  # noqa: BLE001 - collected per-job
                    failures.append((job_id, str(exc)))
                    continue
                index_entries.append({"job": job_id, "files": written})
                samples_written += n_samples
        index_entries.sort(key=lambda e: e["job"])
        failures.sort()
        index = {
            "seed": manifest.seed,
            "sample_rate": fs,
            "jobs": index_entries,
            "failures": [{"job": j, "error": m} for j, m in failures],
        }
        write_json(manifest.output_dir / _CORPUS_INDEX, index)

    return CorpusReport(
        jobs_planned=manifest.job_count(),
        jobs_done=len(index_entries),
        files_written=sum(len(e["files"]) for e in index_entries),
        failures=failures,
        total_audio_hours=samples_written / fs / 3600.0,
        elapsed_seconds=time.monotonic() - start,
    )
