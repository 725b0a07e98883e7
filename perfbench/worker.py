"""One workload run in a fresh process: set-up, timed rounds, checks, trace.

run.py starts this script; by hand it runs as

    python3 perfbench/worker.py --workload ess-measure \
        --work perfbench/_work/ess-measure --seconds 10 --trace 0

after run.py has generated the inputs in ``--work``.  Only the standard
library is imported before ``import roomforge``, so set-up time covers the
first import of numpy and scipy.  With ``--setup-only`` the process stops
where the first timed operation would start.  The last line of standard
output is one JSON object.

A run repeats whole rounds until ``--seconds`` have passed.  A round is a
fixed list of steps; a step runs operations with one worker (j1) or with
two (j2).  With ``--trace 1`` every other round is traced, so the traced
and untraced rounds give the tracing overhead.
"""

from __future__ import annotations

import argparse
import json
import os
import resource
import statistics
import sys
import time
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path
from types import SimpleNamespace

from tracing import Tracer, layer_report, self_ms

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"


def log(msg: str) -> None:
    print(msg, file=sys.stderr, flush=True)


# --------------------------------------------------------------- workloads


class Workload:
    """Base: subclasses set API (the roomforge names an op calls) and steps."""

    API: tuple = ()

    def __init__(self, rf, work: Path, plan: dict):
        self.work = work
        self.plan = plan
        self.api = SimpleNamespace(**{name: getattr(rf, name) for name in self.API})
        self.verified = {}  # key -> what the first fully checked output of that key gave

    def expected_error(self, key):
        return None

    def op_p50_ms(self, records: list) -> float:
        """Median j1 operation time of the operations that succeeded."""
        return statistics.median(r["ms"] for r in records if r["jobs"] == 1 and not r["failed"])


class Corpus(Workload):
    """Subclasses give ``layouts()``: kind -> (sessions, IR length in samples)."""

    API = ("load_manifest", "plan_and_run", "IrCache")
    MICS = 8

    def __init__(self, rf, work, plan):
        super().__init__(rf, work, plan)
        import numpy as np

        self.layout = self.layouts()
        self.audio = {
            kind: sum(self.MICS * (np.load(work / plan["clean"][sid], mmap_mode="r").shape[0] + n_ir - 1)
                      for s in sessions for sid in s["sentences"]) / plan["fs"] / 3600
            for kind, (sessions, n_ir) in self.layout.items()
        }

    def op_p50_ms(self, records):
        """Median over rounds of the mean j1 operation time in the round."""
        rounds = {}
        for r in records:
            if r["jobs"] == 1:
                rounds.setdefault(r["round"], []).append(r["ms"])
        return statistics.median(statistics.fmean(v) for v in rounds.values())

    def steps(self):
        return [(1, False, list(self.layout)), (2, False, list(self.layout))]

    def manifest_path(self, kind, jobs):
        return self.work / f"manifest_{kind}_j{jobs}.json"

    def output_dir(self, kind, jobs):
        return self.work / f"out_{kind}_j{jobs}"

    def run(self, kind, jobs):
        manifest = self.api.load_manifest(self.manifest_path(kind, jobs))
        return self.api.plan_and_run(manifest, parallelism=jobs, cache=self.api.IrCache())

    def audio_h(self, kind):
        return self.audio[kind]

    def check(self, kind, jobs, report):
        import numpy as np
        import wavfile
        from checks import require, tree_digest

        require(not report.failures, f"{kind}: jobs failed: {report.failures[:2]}")
        out = self.output_dir(kind, jobs)
        sessions, n_ir = self.layout[kind]
        expected = sorted(f"{s['name']}/{sid}" for s in sessions for sid in s["sentences"])
        index = json.loads((out / "corpus.json").read_text())
        require(sorted(e["job"] for e in index["jobs"]) == expected and not index["failures"],
                f"{kind}: corpus.json does not list every job without failures")
        require(abs(report.total_audio_hours - self.audio[kind]) < 1e-9,
                f"{kind}: report counts {report.total_audio_hours} audio-h, inputs give {self.audio[kind]}")
        sidecars = sum(1 for p in out.rglob("*.json") if p.name != "corpus.json")
        digest = tree_digest(out)
        if kind in self.verified:
            require(digest == self.verified[kind],
                    f"{kind} j{jobs}: output bytes differ from the checked output of the same manifest")
            return {"manifest.sidecars_written": sidecars}
        for s in sessions:
            for sid in s["sentences"]:
                x = np.load(self.work / self.plan["clean"][sid])
                for mic in range(self.MICS):
                    path = out / s["name"] / f"{sid}_m{mic}.wav"
                    fs, y, fmt = wavfile.read(path)
                    require(fs == self.plan["fs"] and fmt == self.FORMAT and y.shape == (1, x.size + n_ir - 1),
                            f"{path.name}: {fs} Hz {fmt} {y.shape}, expected {self.FORMAT} mono "
                            f"of {x.size + n_ir - 1} samples")
                    self.check_channel(s, mic, x, y[0], path.name)
        self.verified[kind] = digest
        return {"manifest.sidecars_written": sidecars}


class CorpusSynth(Corpus):
    FORMAT = "pcm16"

    def layouts(self):
        kinds = self.plan["kinds"]
        return {"nearest": (kinds["nearest"], 8000), "sinc": (kinds["sinc"], 4000)}

    def check_channel(self, session, mic, x, y, name):
        """The direct path is present at distance / c, and nothing arrives earlier."""
        import numpy as np
        from checks import UPSAMPLE, arrival_envelope, require

        fs = self.plan["fs"]
        dist = float(np.linalg.norm(np.subtract(session["mics"][mic], session["source"]["position"])))
        truth = dist / self.plan["c"] * fs
        env = arrival_envelope(y, x, int(0.05 * fs))
        direct = env[round((truth - 1) * UPSAMPLE): round((truth + 1) * UPSAMPLE) + 1].max()
        early = env[: round((truth - 4) * UPSAMPLE)].max()
        require(direct >= 0.3 and early < 0.5 * direct,
                f"{name}: arrival peak {direct:.2f} within a sample of {truth:.2f} samples, "
                f"{early:.2f} before it")


class CorpusMeasured(Corpus):
    FORMAT = "pcm24"

    def layouts(self):
        return {"measured": (self.plan["sessions"], int(0.8 * self.plan["fs"]))}

    def manifest_path(self, kind, jobs):
        return self.work / f"manifest_j{jobs}.json"

    def output_dir(self, kind, jobs):
        return self.work / f"out_j{jobs}"

    def check_channel(self, session, mic, x, y, name):
        """The channel is clean * IR plus noise at the manifest SNR."""
        import numpy as np
        from checks import ls_fit, require
        from scipy.signal import fftconvolve

        ref = fftconvolve(x, np.load(self.work / self.plan["irs"][f"{session['name']}/m{mic}"]))
        gain, snr = ls_fit(y, ref)
        require(abs(gain - 1.0) < 1e-2 and abs(snr - self.plan["snr_db"]) < 0.5,
                f"{name}: clean*IR gain {gain:.5f}, residual SNR {snr:.2f} dB "
                f"against {self.plan['snr_db']} dB")


class EssMeasure(Workload):
    API = ("read_wav", "deconvolve_ir", "save_ir", "estimate_t60",
           "direct_to_reverberant_db", "compare_irs")

    def __init__(self, rf, work, plan):
        super().__init__(rf, work, plan)
        import numpy as np

        self.spec = rf.SweepSpec(**plan["sweep"])
        self.positions = {p["name"]: p for p in plan["positions"]}
        self.truth = {
            p["name"]: rf.ImpulseResponse(plan["fs"], np.load(work / p["ir"]), provenance="measured",
                                          direct_path_index=p["delay"])
            for p in plan["positions"]
        }
        (work / "irs").mkdir(exist_ok=True)

    def steps(self):
        names = list(self.positions)
        return [(1, False, names), (2, True, names)]

    def expected_error(self, key):
        return "sweep not found" if self.positions[key]["fault"] else None

    def run(self, name, jobs):
        api = self.api
        recording = api.read_wav(self.work / f"{name}.wav")
        ir = api.deconvolve_ir(recording, self.spec, self.plan["ir_length"])
        api.save_ir(self.work / "irs" / f"{name}_j{jobs}.wav", ir)
        t20 = api.estimate_t60(ir, "T20")
        t30 = api.estimate_t60(ir, "T30")
        drr = api.direct_to_reverberant_db(ir)
        cmp = api.compare_irs(self.truth[name], ir)
        return ir, (t20, t30, drr, cmp.t60_delta, cmp.drr_delta, cmp.decay_rms_db,
                    cmp.direct_offset_samples)

    def audio_h(self, name):
        return (self.spec.duration + self.plan["ir_length"]) / 3600

    def check(self, name, jobs, output):
        import numpy as np
        import wavfile
        from checks import align_lag, require

        ir, figures = output
        pos = self.positions[name]
        path = self.work / "irs" / f"{name}_j{jobs}.wav"
        fs, saved, fmt = wavfile.read(path)
        require(fmt == "float32" and np.array_equal(saved[0], ir.samples.astype(np.float32)),
                f"{path.name}: saved IR differs from the returned one")
        if name in self.verified:
            require(figures == self.verified[name], f"{name}: figures differ from the checked run")
            return {}
        fs = self.plan["fs"]
        truth = self.truth[name].samples
        lag = align_lag(ir.samples[: int(0.2 * fs)], truth[: int(0.3 * fs)], int(0.05 * fs))
        require(lag == pos["delay"] - ir.direct_path_index,
                f"{name}: direct path at {lag + ir.direct_path_index}, generator has {pos['delay']}")
        for method, t60 in zip(("T20", "T30"), figures[:2]):
            require(abs(t60 / pos["t60"] - 1.0) < 0.1,
                    f"{name}: {method} {t60:.3f} s, generator T60 {pos['t60']} s")
        require(abs(figures[3]) < 0.1 * pos["t60"], f"{name}: compare_irs T60 delta {figures[3]}")
        self.verified[name] = figures
        return {}


class Beamform(Workload):
    API = ("read_wav", "steer_and_sum")

    def steps(self):
        names = [u["name"] for u in self.plan["utterances"]]
        return [(1, False, names), (2, True, names)]

    def run(self, name, jobs):
        x = self.api.read_wav(self.work / f"{name}.wav")
        return self.api.steer_and_sum(x, interpolation="parabolic")

    def audio_h(self, name):
        return self.plan["mics"] * self.plan["seconds"] / 3600

    def check(self, name, jobs, result):
        import numpy as np
        import wavfile
        from checks import ls_fit, require
        from gen import fractional_delay

        out = result.signal.data[0]
        est = np.array([0.0] + [t.delay for t in result.tdoas[1:]])
        if name in self.verified:
            require(np.array_equal(out, self.verified[name][0]) and np.array_equal(est, self.verified[name][1]),
                    f"{name}: beamformer output differs from the checked run")
            return {}
        utt = next(u for u in self.plan["utterances"] if u["name"] == name)
        fs, x, _ = wavfile.read(self.work / f"{name}.wav")
        delays = np.array(utt["delays"])
        err = est * fs - (delays - delays[0])
        require(np.max(np.abs(err)) < 0.25, f"{name}: TDOA errors {np.round(err, 3)} samples")
        src = np.load(self.work / utt["source"])
        _, snr_in = ls_fit(x[0], fractional_delay(src, delays[0], x.shape[1]))
        _, snr_out = ls_fit(out, fractional_delay(src, delays.max(), out.size))
        require(snr_out - snr_in > 6.0,
                f"{name}: delay-and-sum SNR {snr_out:.1f} dB vs {snr_in:.1f} dB at the reference mic")
        self.verified[name] = (out.copy(), est)
        return {}


WORKLOADS = {
    "corpus-synth": CorpusSynth,
    "corpus-measured": CorpusMeasured,
    "ess-measure": EssMeasure,
    "beamform": Beamform,
}


# ------------------------------------------------------------------ tracing


def install(tracer, rf, wl: Workload) -> None:
    """Wrap each layer's functions at the names their callers look up."""
    import numpy as np
    import wavfile

    def wav_write(caller):
        def describe(a, k, _):
            fmt = k.get("fmt", a[2] if len(a) > 2 else "float32")
            return {"caller": caller, "fmt": fmt, "mb": a[1].data.size * wavfile.FORMATS[fmt][1] / 8e6}
        return describe

    def wav_read(a, k, _):
        return {"fmt": wavfile.header_format(a[0]), "mb": os.path.getsize(a[0]) / 1e6}

    def convolve(a, k, _):
        return {"msamples": (np.size(a[0]) + np.size(a[1]) - 1) / 1e6}

    m = rf.manifest
    tracer.wrap(m, "synthesize_rir", "image_source.synthesize_rir",
                lambda a, k, _: {"mode": a[3].fractional_delay})
    tracer.wrap(m.IrCache, "get_or_synthesize", "manifest.ir_cache.get")
    tracer.wrap(m, "load_ir", "storage.load_ir")
    tracer.wrap(m, "read_wav", "wavio.read_wav", wav_read)
    tracer.wrap(m, "write_wav", "wavio.write_wav", wav_write("manifest"))
    tracer.wrap(m, "run_job", "contaminate.run_job")
    tracer.wrap(rf.contaminate, "fft_convolve", "engine.fft_convolve", convolve)
    tracer.wrap(rf.sweep, "fft_convolve", "engine.fft_convolve", convolve)
    tracer.wrap(rf.sweep, "inverse_filter", "sweep.inverse_filter")
    tracer.wrap(rf.storage, "read_wav", "wavio.read_wav", wav_read)
    tracer.wrap(rf.storage, "write_wav", "wavio.write_wav", wav_write("storage"))
    tracer.wrap(rf.metrics, "estimate_t60", "metrics.estimate_t60")
    tracer.wrap(rf.metrics, "schroeder_curve", "metrics.schroeder_curve")
    tracer.wrap(rf.metrics, "direct_to_reverberant_db", "metrics.direct_to_reverberant_db")
    tracer.wrap(rf.array_dsp, "gcc_phat", "array_dsp.gcc_phat")
    tracer.wrap(rf.array_dsp, "delay_and_sum", "array_dsp.delay_and_sum")
    names = {
        "load_manifest": ("manifest.load_manifest", None),
        "plan_and_run": ("manifest.plan_and_run", lambda a, k, _: {"jobs": k.get("parallelism", 1)}),
        "IrCache": ("manifest.ir_cache.new", None),
        "read_wav": ("wavio.read_wav", wav_read),
        "deconvolve_ir": ("sweep.deconvolve_ir", None),
        "save_ir": ("storage.save_ir", None),
        "estimate_t60": ("metrics.estimate_t60", None),
        "direct_to_reverberant_db": ("metrics.direct_to_reverberant_db", None),
        "compare_irs": ("metrics.compare_irs", None),
        "steer_and_sum": ("array_dsp.steer_and_sum", None),
    }
    for attr in wl.API:
        tracer.wrap(wl.api, attr, *names[attr])


def layer_metrics(spans, rounds: int, counters: dict) -> dict:
    """Per-layer figures from the traced rounds; counts and times are per round."""
    import wavfile

    by = {}
    for s in spans:
        by.setdefault(s.name, []).append(s)
    own = self_ms(spans)

    def get(name):
        return by.get(name, [])

    def total(name):
        return sum(s.ms for s in get(name))

    def ratio(a, b):
        return a / b if b else 0.0

    out = {}

    def put(name, value, unit):
        out[name] = {"value": value, "unit": unit}

    synth = get("image_source.synthesize_rir")
    for mode in ("nearest", "sinc"):
        times = [s.ms for s in synth if s.attrs.get("mode") == mode]
        put(f"image_source.synthesize_rir.ms_per_call.{mode}", ratio(sum(times), len(times)), "ms")
    put("image_source.synthesize_rir.calls", len(synth) / rounds, "count")

    runs = get("manifest.plan_and_run")
    run_ids = {s.id for s in runs}
    resolve = sum(s.ms for name in ("manifest.ir_cache.get", "storage.load_ir")
                  for s in get(name) if s.parent in run_ids)
    put("manifest.plan_and_run.ms", total("manifest.plan_and_run") / rounds, "ms")
    put("manifest.ir_resolve_share", ratio(resolve, total("manifest.plan_and_run")), "share")
    busy = window = 0.0
    for run in (s for s in runs if s.attrs.get("jobs") == 2):
        pool = [s for s in spans if s.op == run.op and s.parent is None and s.thread != run.thread]
        if pool:
            busy += sum(s.ms for s in pool)
            window += (max(s.end for s in pool) - min(s.start for s in pool)) * 1e3
    put("manifest.pool_busy_share.j2", ratio(busy, 2 * window), "share")
    parents_of_synth = {s.parent for s in synth}
    gets = get("manifest.ir_cache.get")
    misses = sum(1 for s in gets if s.id in parents_of_synth)
    put("manifest.ir_cache.hits", (len(gets) - misses) / rounds, "count")
    put("manifest.ir_cache.misses", misses / rounds, "count")
    writes = get("wavio.write_wav")
    put("manifest.files_written", sum(s.attrs.get("caller") == "manifest" for s in writes) / rounds, "count")
    put("manifest.sidecars_written", counters.get("manifest.sidecars_written", 0) / rounds, "count")

    put("contaminate.run_job.self_ms", sum(own[s.id] for s in get("contaminate.run_job")) / rounds, "ms")

    conv = get("engine.fft_convolve")
    put("engine.fft_convolve.calls", len(conv) / rounds, "count")
    put("engine.fft_convolve.ms", total("engine.fft_convolve") / rounds, "ms")
    put("engine.fft_convolve.ms_per_msample",
        ratio(total("engine.fft_convolve"), sum(s.attrs["msamples"] for s in conv if s.attrs)), "ms/Msample")

    reads = get("wavio.read_wav")
    for op, spans_ in (("write_wav", writes), ("read_wav", reads)):
        for fmt in wavfile.FORMATS:
            sel = [s for s in spans_ if s.attrs.get("fmt") == fmt]
            put(f"wavio.{op}.ms_per_mb.{fmt}", ratio(sum(s.ms for s in sel), sum(s.attrs["mb"] for s in sel)), "ms/MB")
    put("wavio.write_wav.mb", sum(s.attrs.get("mb", 0.0) for s in writes) / rounds, "MB")

    put("storage.load_ir.ms", total("storage.load_ir") / rounds, "ms")
    put("storage.save_ir.ms", total("storage.save_ir") / rounds, "ms")

    deconv = get("sweep.deconvolve_ir")
    put("sweep.deconvolve_ir.self_ms", sum(own[s.id] for s in deconv) / rounds, "ms")
    put("sweep.deconvolve_ir.rejected",
        sum(1 for s in deconv if s.error and "sweep not found" in s.error) / rounds, "count")
    put("sweep.inverse_filter.calls", len(get("sweep.inverse_filter")) / rounds, "count")
    put("sweep.inverse_filter.ms", total("sweep.inverse_filter") / rounds, "ms")

    put("metrics.estimate_t60.ms", total("metrics.estimate_t60") / rounds, "ms")
    put("metrics.compare_irs.ms", total("metrics.compare_irs") / rounds, "ms")
    put("metrics.schroeder_curve.calls", len(get("metrics.schroeder_curve")) / rounds, "count")

    gcc = get("array_dsp.gcc_phat")
    put("array_dsp.gcc_phat.ms_per_call", ratio(total("array_dsp.gcc_phat"), len(gcc)), "ms")
    put("array_dsp.delay_and_sum.ms", total("array_dsp.delay_and_sum") / rounds, "ms")
    return out


def gcc_phat_peak_alloc_mb(rf, wl: Workload) -> float:
    """tracemalloc peak of one parabolic GCC-PHAT call on the first channel pair."""
    import tracemalloc

    x = rf.read_wav(wl.work / f"{wl.plan['utterances'][0]['name']}.wav")
    a, b = x.channel(0), x.channel(1)
    tracemalloc.start()
    try:
        rf.array_dsp.gcc_phat(a, b, interpolation="parabolic")
        return tracemalloc.get_traced_memory()[1] / 1e6
    finally:
        tracemalloc.stop()


# ------------------------------------------------------------------- rounds


def run_op(wl: Workload, key, jobs: int, tracer, op_id: int):
    if tracer is not None:
        tracer.set_op(op_id)
    start = time.perf_counter()
    try:
        output, error = wl.run(key, jobs), None
    except Exception as exc:  # noqa: BLE001 - an operation's failure is a result
        output, error = None, f"{type(exc).__name__}: {exc}"
    return output, error, (time.perf_counter() - start) * 1e3


def run_round(wl: Workload, number: int, tracer, first_op: list) -> tuple:
    """Run and check one round; returns (step records, op records, check counters)."""
    steps, records, counters = [], [], {}
    for jobs, concurrent, keys in wl.steps():
        if not first_op:
            first_op.append(time.perf_counter())
        cpu0, wall0 = os.times(), time.perf_counter()
        ids = [number * 1000 + len(records) + i for i in range(len(keys))]
        if concurrent:
            with ThreadPoolExecutor(max_workers=jobs) as pool:
                futures = [pool.submit(run_op, wl, k, jobs, tracer, i) for k, i in zip(keys, ids)]
                results = [f.result() for f in futures]
        else:
            results = [run_op(wl, k, jobs, tracer, i) for k, i in zip(keys, ids)]
        wall = time.perf_counter() - wall0
        cpu1 = os.times()
        steps.append({"jobs": jobs, "wall": wall, "audio_h": sum(wl.audio_h(k) for k in keys),
                      "cpu": (cpu1.user - cpu0.user) + (cpu1.system - cpu0.system)})
        for key, (output, error, ms) in zip(keys, results):
            record = {"round": number, "jobs": jobs, "key": key, "ms": ms, "failed": error is not None,
                      "correct": True}
            if error is not None:
                expected = wl.expected_error(key)
                if expected is None or expected not in error:
                    record["correct"] = False
                    log(f"{key} j{jobs}: unexpected failure: {error}")
            else:
                try:
                    for name, value in wl.check(key, jobs, output).items():
                        counters[name] = counters.get(name, 0) + value
                except Exception as exc:  # noqa: BLE001 - a failed check fails the op
                    record.update(failed=True, correct=False)
                    log(f"{key} j{jobs}: check failed: {exc}")
            records.append(record)
    log(f"round {number}{' traced' if tracer else ''}: "
        + " ".join(f"j{s['jobs']}={s['wall']:.3f}s" for s in steps))
    return steps, records, counters


def measure(rf, wl: Workload, seconds: float, t0: float, traced: bool) -> dict:
    """Round 0 warms up; then rounds run until ``seconds`` have passed.

    The warm-up round is run and checked like the others and counts in
    ``attempted``/``failed``, but its times are left out of the metrics.
    With ``traced``, rounds 2, 4, ... are traced and the run ends after a
    traced round.
    """
    tracer = Tracer() if traced else None
    first_op: list = []
    rounds = []  # (traced, steps, records)
    counters: dict = {}
    start = None
    number = 0
    while True:
        tracing = traced and number > 0 and number % 2 == 0
        if tracing:
            install(tracer, rf, wl)
        try:
            steps, records, counts = run_round(wl, number, tracer if tracing else None, first_op)
        finally:
            if tracing:
                tracer.unwrap()
        rounds.append((tracing, steps, records))
        if tracing:
            for name, value in counts.items():
                counters[name] = counters.get(name, 0) + value
        if start is None:
            start = time.perf_counter()  # the measured window starts after the warm-up
        number += 1
        if number > 1 and time.perf_counter() - start >= seconds and (not traced or number % 2 == 1):
            break

    records = [r for _, _, rs in rounds for r in rs]
    result = {
        "correct": all(r["correct"] for r in records),
        "attempted": len(records),
        "failed": sum(r["failed"] for r in records),
        "setup_s": first_op[0] - t0,
        "rounds": number,
    }
    plain = [(steps, rs) for tracing, steps, rs in rounds[1:] if not tracing]
    plain_steps = [s for steps, _ in plain for s in steps]
    # every round has one step per worker count with the same audio; the
    # median over rounds keeps a slow stretch of the host out of the rate
    rate = {j: statistics.median(s["audio_h"] / s["wall"] for s in plain_steps if s["jobs"] == j)
            for j in (1, 2)}
    if not traced:
        result["metrics"] = {
            "audio_h_per_s.j1": {"value": rate[1], "unit": "h/s"},
            "audio_h_per_s.j2": {"value": rate[2], "unit": "h/s"},
            "op_p50_ms": {"value": wl.op_p50_ms([r for _, rs in plain for r in rs]), "unit": "ms"},
            "peak_rss_mb": {"value": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                            "unit": "MB"},
        }
        return result

    traced_rounds = [steps for tracing, steps, _ in rounds if tracing]
    metrics = layer_metrics(tracer.spans, len(traced_rounds), counters)
    j2 = [s for s in plain_steps if s["jobs"] == 2]
    metrics["proc.cpu_per_wall.j2"] = {
        "value": sum(s["cpu"] for s in j2) / sum(s["wall"] for s in j2), "unit": "share"}
    wall = {flag: statistics.median(sum(s["wall"] for s in steps) for steps in group)
            for flag, group in ((False, [steps for steps, _ in plain]), (True, traced_rounds))}
    metrics["trace.overhead_share"] = {"value": wall[True] / wall[False] - 1.0, "unit": "share"}
    alloc = gcc_phat_peak_alloc_mb(rf, wl) if isinstance(wl, Beamform) else 0.0
    metrics["array_dsp.gcc_phat.peak_alloc_mb"] = {"value": alloc, "unit": "MB"}
    tracer.dump(wl.work / "trace.jsonl")
    report = layer_report(tracer.spans, len(traced_rounds))
    (wl.work / "trace_report.json").write_text(json.dumps(report, indent=2) + "\n")
    for name, row in report.items():
        log(f"{name:36s} calls {row['calls']:8.1f}  busy {row['busy_ms']:10.1f} ms  self {row['self_ms']:10.1f} ms")
    result["metrics"] = metrics
    return result


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--work", required=True, type=Path)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args()

    os.environ.pop("ROOMFORGE_CACHE_DIR", None)
    sys.path.insert(0, str(SRC))
    t0 = time.perf_counter()
    import roomforge as rf

    import_s = time.perf_counter() - t0
    if not Path(rf.__file__).resolve().is_relative_to(SRC):
        log(f"roomforge imported from {rf.__file__}, not from {SRC}")
        return 3
    plan = json.loads((args.work / "plan.json").read_text())
    wl = WORKLOADS[args.workload](rf, args.work, plan)
    if args.setup_only:
        result = {"setup_s": time.perf_counter() - t0, "import_s": import_s}
    else:
        result = measure(rf, wl, args.seconds, t0, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
