"""Seeded input generator for the benchmark (numpy, scipy and stdlib only).

Every input a workload feeds to roomforge is made here from ``--seed``:
speech-like clean sentences, background noise, measured-style impulse
responses with sidecars, sweep recordings and multichannel array
recordings.  Nothing here calls roomforge, so a change to the program
cannot change its own inputs.  Besides the files, each workload gets a
``plan.json`` holding what the worker needs to run and check it; arrays
that the checks compare against are stored as ``.npy`` files.
"""

from __future__ import annotations

import json
import math
from pathlib import Path

import numpy as np
from scipy import signal as sps

import wavfile

C = 343.0  # speed of sound used for every room and array, m/s

# corpus-synth: three domestic rooms, T60 inside 0.4-0.8 s
SYNTH_ROOMS = {
    "living": {"dimensions": [5.6, 4.3, 2.6], "t60": [0.55, 0.8]},
    "kitchen": {"dimensions": [4.1, 3.4, 2.5], "t60": [0.4, 0.6]},
    "bedroom": {"dimensions": [4.0, 3.6, 2.5], "t60": [0.4, 0.55]},
}
SYNTH_SNR_DB = 20.0
# Sentence lengths are fixed per slot so that every seed asks for the same
# amount of work; the seed changes what is said and where.
SYNTH_SENTENCE_S = (1.6, 1.2, 1.8, 1.0, 1.4, 1.3, 1.5)
MEASURED_SENTENCE_S = (3.4, 7.2, 4.2, 6.4)

# ess-measure
SWEEP = {"f_start": 20.0, "f_end": 20000.0, "duration": 5.0, "amplitude": 0.9}
ESS_FS = 48000
ESS_IR_SECONDS = 1.4  # generator IR and recovered IR length
ESS_POSITIONS = 3  # seeded positions, each must be accepted; with the fault, 4 split evenly over j2
# Positions that the 20 dB peak-prominence gate of deconvolve_ir rejects
# although their noiseless recordings hold the sweep.  Their inputs do not
# depend on the seed, so they fail the same way in every run.
ESS_FAULTS = [{"t60": 0.9, "drr_db": -24.0, "delay_m": 3.1, "seed": 9001}]

# beamform: 8-mic uniform linear array, 4 cm pitch, 16 kHz
BEAM_FS = 16000
BEAM_MICS = 8
BEAM_PITCH = 0.04
BEAM_SECONDS = 2.0
BEAM_UTTERANCES = 2
BEAM_SNR_DB = 15.0


# ----------------------------------------------------------------- signals


def speech_like(rng: np.random.Generator, fs: int, seconds: float) -> np.ndarray:
    """Syllable-rate voiced/unvoiced bursts with formants, peak 0.5.

    Voiced bursts are a sawtooth glottal source with a drifting pitch passed
    through three formant resonators; unvoiced bursts are high-passed noise.
    Short pauses separate the bursts and the sentence starts and ends quiet.
    """
    n = int(round(seconds * fs))
    out = np.zeros(n)
    pos = int(0.05 * fs)
    hp = sps.butter(2, 2500.0, btype="highpass", fs=fs, output="sos")
    while pos < n - int(0.05 * fs):
        length = min(int(rng.uniform(0.1, 0.28) * fs), n - pos - int(0.03 * fs))
        if length < int(0.02 * fs):
            break
        t = np.arange(length) / fs
        env = np.sin(np.pi * np.arange(length) / length) ** 0.7 * rng.uniform(0.4, 1.0)
        if rng.random() < 0.75:
            f0 = rng.uniform(95.0, 220.0) * (1.0 + 0.04 * np.sin(2 * np.pi * rng.uniform(2, 6) * t))
            phase = np.cumsum(f0) / fs
            burst = 2.0 * (phase - np.floor(phase)) - 1.0
            for lo, hi in ((300, 900), (900, 2400), (2400, 3600)):
                f = rng.uniform(lo, hi)
                r = math.exp(-math.pi * rng.uniform(60, 160) / fs)
                a = [1.0, -2.0 * r * math.cos(2 * math.pi * f / fs), r * r]
                burst = burst + 0.8 * sps.lfilter([1.0 - r], a, burst)
        else:
            burst = sps.sosfilt(hp, rng.standard_normal(length)) * 0.5
        out[pos : pos + length] += burst * env
        pos += length + int(rng.uniform(0.02, 0.12) * fs)
    out += 1e-4 * rng.standard_normal(n)  # microphone self-noise
    return 0.5 * out / np.max(np.abs(out))


def room_noise(rng: np.random.Generator, fs: int, seconds: float) -> np.ndarray:
    """Low-pass tilted noise (fans, traffic), peak 0.3."""
    n = int(round(seconds * fs))
    x = sps.lfilter([1.0], [1.0, -0.9], rng.standard_normal(n))
    x += 0.3 * rng.standard_normal(n)
    return 0.3 * x / np.max(np.abs(x))


def stochastic_ir(
    rng: np.random.Generator, fs: int, seconds: float, t60: float, drr_db: float, delay: int
) -> np.ndarray:
    """Direct tap at ``delay`` plus an exponentially decaying Gaussian tail.

    The tail starts 1 ms after the direct path and its energy is set so the
    ratio of direct to tail energy is ``drr_db``.  The tail is kept below
    half the direct tap, so the direct path is the largest sample.
    """
    n = int(round(seconds * fs))
    h = np.zeros(n)
    onset = delay + int(0.001 * fs)
    k = np.arange(n - onset)
    tail = rng.standard_normal(k.size) * np.exp(-3.0 * math.log(10.0) * k / (t60 * fs))
    tail *= math.sqrt(10.0 ** (-drr_db / 10.0) / np.sum(tail**2))
    h[onset:] = np.clip(tail, -0.5, 0.5)
    h[delay] = 1.0
    return h


def ess(fs: int, f_start: float, f_end: float, duration: float, amplitude: float) -> np.ndarray:
    """x(t) = A sin(K (exp(t / L) - 1)), L = T / ln(f2 / f1), K = 2 pi f1 L."""
    t = np.arange(int(round(duration * fs))) / fs
    rate = duration / math.log(f_end / f_start)
    return amplitude * np.sin(2.0 * np.pi * f_start * rate * (np.exp(t / rate) - 1.0))


def fractional_delay(x: np.ndarray, delay: float, n_out: int) -> np.ndarray:
    """Delay by ``delay`` samples with an FFT phase ramp, zero-padded first."""
    nfft = 1 << int(n_out + x.size - 1).bit_length()
    spec = np.fft.rfft(x, nfft) * np.exp(-2j * np.pi * np.arange(nfft // 2 + 1) * delay / nfft)
    return np.fft.irfft(spec, nfft)[:n_out]


def _save_npy(work: Path, name: str, arr: np.ndarray) -> str:
    np.save(work / f"{name}.npy", arr)
    return f"{name}.npy"


def _json(path: Path, doc) -> None:
    path.write_text(json.dumps(doc, indent=2, sort_keys=True) + "\n")


# --------------------------------------------------------------- workloads


def corpus_synth(work: Path, seed: int) -> dict:
    """Two manifests with image-method IRs, each also as a --jobs 2 copy.

    ``nearest``: 0.5 s nearest-tap IRs, three placements (one per room) and
    a fourth session reusing the first placement, so the IR cache is hit.
    ``sinc``: 0.25 s sinc IRs with a 60 Hz high-pass, one placement.
    Sentences are 16 kHz pcm16, outputs pcm16.
    """
    rng = np.random.default_rng([seed, 1])
    fs = 16000
    (work / "clean").mkdir(parents=True)
    wavfile.write(work / "noise.wav", room_noise(rng, fs, 6.0), fs, "pcm16")
    rooms = {
        name: {"dimensions": spec["dimensions"], "t60": round(float(rng.uniform(*spec["t60"])), 3)}
        for name, spec in SYNTH_ROOMS.items()
    }
    clean = {}

    def sentence(sid):
        seconds = SYNTH_SENTENCE_S[len(clean)]
        x = wavfile.write(work / "clean" / f"{sid}.wav", speech_like(rng, fs, seconds), fs, "pcm16")
        clean[sid] = _save_npy(work, f"clean_{sid}", x[0])
        return sid

    def session(name, room, sentences):
        dims = rooms[room]["dimensions"]
        # array on a wall shelf, talker in the room facing it
        cx = float(rng.uniform(1.2, dims[0] - 1.2))
        array = [[round(cx + (i - 3.5) * 0.05, 4), 0.4, 1.1] for i in range(8)]
        src = [round(float(rng.uniform(1.0, dims[0] - 1.0)), 3),
               round(float(rng.uniform(1.6, dims[1] - 0.6)), 3),
               round(float(rng.uniform(1.2, 1.7)), 3)]
        az = math.degrees(math.atan2(0.4 - src[1], cx - src[0]))
        return {"name": name, "room": room, "array": f"shelf_{name}",
                "mics": array, "source": {"position": src, "azimuth_deg": round(az, 2),
                                          "elevation_deg": 0.0, "directivity": "cardioid"},
                "sentences": sentences}

    kinds = {}
    for kind, syn, layout in (
        ("nearest", {"ir_length": 0.5, "fractional_delay": "nearest"},
         [("living", 2), ("kitchen", 1), ("bedroom", 2)]),
        ("sinc", {"ir_length": 0.25, "fractional_delay": "sinc", "highpass_hz": 60.0},
         [("living", 1)]),
    ):
        sessions = [session(f"{kind}{i}", room, [sentence(f"{kind}{i}s{j}") for j in range(k)])
                    for i, (room, k) in enumerate(layout)]
        if kind == "nearest":
            again = dict(sessions[0], name=f"{kind}{len(sessions)}",
                         sentences=[sentence(f"{kind}{len(sessions)}s0")])
            sessions.append(again)
        kinds[kind] = sessions
        for jobs in (1, 2):
            doc = {
                "seed": seed,
                "sample_rate": fs,
                "clean_dir": "clean",
                "output_dir": f"out_{kind}_j{jobs}",
                "format": "pcm16",
                "normalization": "none",
                "rooms": rooms,
                "arrays": {s["array"]: [{"id": f"m{i}", "position": p} for i, p in enumerate(s["mics"])]
                           for s in sessions},
                "synthesis": dict(syn, max_order="auto"),
                "noise": {"file": "noise.wav", "snr_db": SYNTH_SNR_DB},
                "sessions": [{k: s[k] for k in ("name", "room", "array", "source", "sentences")}
                             for s in sessions],
            }
            _json(work / f"manifest_{kind}_j{jobs}.json", doc)
    return {"fs": fs, "kinds": kinds, "clean": clean, "c": C}


def corpus_measured(work: Path, seed: int) -> dict:
    """Measured-IR route: 48 kHz, 8 mics, 0.8 s float32 IRs with sidecars.

    Two placements with two sentences of 3-8 s each.  Outputs up to 5.46 s
    take the single-FFT branch of fft_convolve, longer ones the overlap-add
    branch; the 4 s noise file is shorter than every output, so
    the wrap crossfade runs.  Outputs are pcm24.
    """
    rng = np.random.default_rng([seed, 2])
    fs = 48000
    (work / "clean").mkdir(parents=True)
    (work / "irs").mkdir()
    wavfile.write(work / "noise.wav", room_noise(rng, fs, 4.0), fs, "pcm24")
    dims = [6.0, 5.0, 3.0]
    mics = [[round(2.5 + 0.06 * i, 3), 1.0, 1.5] for i in range(8)]
    sessions, clean, irs = [], {}, {}
    for p in range(2):
        name = f"pos{p}"
        t60 = float(rng.uniform(0.4, 0.9))
        files = {}
        for i in range(8):
            delay = int(rng.integers(150, 600))
            h = stochastic_ir(rng, fs, 0.8, t60, float(rng.uniform(-3.0, 6.0)), delay) * 0.25
            rel = f"irs/{name}_m{i}.wav"
            stored = wavfile.write(work / rel, h, fs, "float32")
            _json(work / rel.replace(".wav", ".json"), {
                "sample_rate": fs, "provenance": "measured", "direct_path_index": delay,
                "meta": {"t60": t60, "generator_seed": seed}})
            files[f"m{i}"] = rel
            irs[f"{name}/m{i}"] = _save_npy(work, f"ir_{name}_m{i}", stored[0])
        sentences = []
        for j in range(2):
            sid = f"{name}s{j}"
            x = wavfile.write(work / "clean" / f"{sid}.wav", speech_like(rng, fs, MEASURED_SENTENCE_S[2 * p + j]), fs, "pcm24")
            clean[sid] = _save_npy(work, f"clean_{sid}", x[0])
            sentences.append(sid)
        sessions.append({"name": name, "room": "hall", "array": "bar",
                         "source": {"position": [3.0, 3.5, 1.6], "directivity": "omnidirectional"},
                         "sentences": sentences, "ir": {"mode": "load", "files": files}})
    snr = round(float(rng.uniform(10.0, 20.0)), 2)
    for jobs in (1, 2):
        _json(work / f"manifest_j{jobs}.json", {
            "seed": seed, "sample_rate": fs, "clean_dir": "clean", "output_dir": f"out_j{jobs}",
            "format": "pcm24", "normalization": "none",
            "rooms": {"hall": {"dimensions": dims, "t60": 0.6}},
            "arrays": {"bar": [{"id": f"m{i}", "position": p} for i, p in enumerate(mics)]},
            "noise": {"file": "noise.wav", "snr_db": snr},
            "sessions": sessions,
        })
    return {"fs": fs, "snr_db": snr, "sessions": sessions, "clean": clean, "irs": irs}


def ess_measure(work: Path, seed: int) -> dict:
    """Sweep recordings (48 kHz pcm24) through stochastic IRs.

    ``ESS_POSITIONS`` seeded positions with T60 0.3-1.2 s and a DRR that the
    prominence gate accepts, then the fixed ``ESS_FAULTS`` positions.
    """
    rng = np.random.default_rng([seed, 3])
    fs = ESS_FS
    sweep = ess(fs, **SWEEP)
    tail = int(ESS_IR_SECONDS * fs)
    cases = []
    for i in range(ESS_POSITIONS):
        cases.append({"t60": round(float(rng.uniform(0.3, 1.2)), 3),
                      "drr_db": round(float(rng.uniform(-12.0, 6.0)), 2),
                      "delay_m": round(float(rng.uniform(1.0, 6.0)), 3),
                      "rng": rng, "fault": False})
    for fault in ESS_FAULTS:
        cases.append(dict(fault, rng=np.random.default_rng(fault["seed"]), fault=True))
    positions = []
    for i, case in enumerate(cases):
        delay = int(round(case["delay_m"] / C * fs))
        h = stochastic_ir(case["rng"], fs, ESS_IR_SECONDS, case["t60"], case["drr_db"], delay)
        rec = sps.fftconvolve(sweep, h)[: sweep.size + tail]
        rec *= 0.7 / np.max(np.abs(rec))
        name = f"p{i}"
        wavfile.write(work / f"{name}.wav", rec, fs, "pcm24")
        positions.append({"name": name, "t60": case["t60"], "drr_db": case["drr_db"],
                          "delay": delay, "fault": case["fault"],
                          "ir": _save_npy(work, f"ir_{name}", h)})
    return {"fs": fs, "sweep": SWEEP, "ir_length": ESS_IR_SECONDS, "positions": positions}


def beamform(work: Path, seed: int) -> dict:
    """8-channel 16 kHz pcm16 utterances of a talker 1.5-3 m from a line array.

    Each channel is the talker's sentence delayed by its exact fractional
    propagation delay, plus independent white noise at ``BEAM_SNR_DB``
    against the channel's speech.
    """
    rng = np.random.default_rng([seed, 4])
    fs = BEAM_FS
    n = int(BEAM_SECONDS * fs)
    mics = np.array([[BEAM_PITCH * i, 0.0, 0.0] for i in range(BEAM_MICS)])
    utts = []
    for u in range(BEAM_UTTERANCES):
        angle = rng.uniform(math.radians(25), math.radians(155))
        dist = rng.uniform(1.5, 3.0)
        src = mics.mean(axis=0) + dist * np.array([math.cos(angle), math.sin(angle), 0.0])
        delays = np.linalg.norm(mics - src, axis=1) / C * fs
        s = speech_like(rng, fs, BEAM_SECONDS - 0.1)
        clean = np.array([fractional_delay(s, d, n) for d in delays])
        noise = rng.standard_normal(clean.shape)
        noise *= np.sqrt(np.sum(clean**2, axis=1, keepdims=True) / np.sum(noise**2, axis=1, keepdims=True))
        noise *= 10.0 ** (-BEAM_SNR_DB / 20.0)
        gain = 0.8 / np.max(np.abs(clean + noise))
        name = f"u{u}"
        wavfile.write(work / f"{name}.wav", gain * (clean + noise), fs, "pcm16")
        utts.append({"name": name, "delays": delays.tolist(),
                     "source": _save_npy(work, f"src_{name}", gain * s)})
    return {"fs": fs, "mics": BEAM_MICS, "seconds": BEAM_SECONDS, "utterances": utts}


WORKLOADS = {
    "corpus-synth": corpus_synth,
    "corpus-measured": corpus_measured,
    "ess-measure": ess_measure,
    "beamform": beamform,
}


def generate(workload: str, work: Path, seed: int) -> dict:
    """Make the inputs of ``workload`` under ``work`` and write its plan.json."""
    work.mkdir(parents=True)
    plan = {"workload": workload, "seed": seed, **WORKLOADS[workload](work, seed)}
    _json(work / "plan.json", plan)
    return plan
