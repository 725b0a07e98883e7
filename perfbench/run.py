"""roomforge benchmark: one workload run, printed as one JSON line.

    python3 perfbench/run.py --workload corpus-synth --seed 1 --seconds 15 --trace 0

Run from the root of a source checkout; roomforge is imported from its
``src`` directory.  The run

1. generates the workload's inputs from ``--seed`` under
   ``perfbench/_work/<workload>`` (numpy and scipy only, see gen.py);
2. starts ``SETUP_PROBES`` short processes that each import roomforge and
   set the workload up, stopping where the first timed operation would
   start; with ``--trace 1`` they run under ``-X importtime``;
3. starts one worker process (worker.py) that sets up once more, measures
   for ``--seconds`` and checks every output.

``setup_s`` is the median over the probes and the worker.  The last line
of standard output holds ``correct``, ``attempted``, ``failed`` and
``metrics``: the end-to-end metrics, or with ``--trace 1`` the per-layer
ones.  Without ``src/roomforge`` the run exits with code 2 and prints no
result.
"""

from __future__ import annotations

import argparse
import json
import re
import shutil
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("corpus-synth", "corpus-measured", "ess-measure", "beamform")
SETUP_PROBES = 3
TIMEOUT_S = 170.0


def fail(msg: str, code: int = 1) -> int:
    print(f"perfbench: {msg}", file=sys.stderr)
    return code


def child(argv: list, timeout: float) -> tuple:
    """Run a worker process; returns (last stdout line as JSON, stderr)."""
    proc = subprocess.run(argv, cwd=ROOT, capture_output=True, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(argv[1:3])} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
    return json.loads(proc.stdout.strip().splitlines()[-1]), proc.stderr


def import_time_s(stderr: str, module: str) -> float:
    """Cumulative import time of ``module`` from -X importtime output, 0 if absent."""
    for line in stderr.splitlines():
        m = re.match(r"import time:\s+\d+ \|\s+(\d+) \|\s*(\S+)$", line)
        if m and m.group(2) == module:
            return int(m.group(1)) / 1e6
    return 0.0


def main() -> int:
    parser = argparse.ArgumentParser(description="roomforge benchmark (one workload run)")
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", required=True, type=int)
    parser.add_argument("--seconds", required=True, type=float)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    if not (ROOT / "src" / "roomforge" / "__init__.py").is_file():
        return fail(f"no roomforge sources under {ROOT / 'src'}", 2)

    sys.path.insert(0, str(HERE))
    import gen

    work = HERE / "_work" / args.workload
    shutil.rmtree(work, ignore_errors=True)
    gen.generate(args.workload, work, args.seed)

    worker = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload, "--work", str(work)]
    probe = [sys.executable] + (["-X", "importtime"] if args.trace else []) + worker[1:] + ["--setup-only"]
    try:
        probes = [child(probe, 120.0) for _ in range(SETUP_PROBES)]
        result, log = child(worker + ["--seconds", str(args.seconds), "--trace", str(args.trace)], TIMEOUT_S)
    except (RuntimeError, subprocess.TimeoutExpired, ValueError, IndexError) as exc:
        return fail(str(exc))
    sys.stderr.write(log)

    metrics = result["metrics"]
    if args.trace:
        metrics["setup.import_s"] = {"value": statistics.median(p["import_s"] for p, _ in probes), "unit": "s"}
        metrics["setup.import_scipy_signal_s"] = {
            "value": statistics.median(import_time_s(err, "scipy.signal") for _, err in probes), "unit": "s"}
    else:
        setups = [p["setup_s"] for p, _ in probes] + [result["setup_s"]]
        metrics["setup_s"] = {"value": statistics.median(setups), "unit": "s"}
    print(json.dumps({"correct": result["correct"], "attempted": result["attempted"],
                      "failed": result["failed"], "metrics": dict(sorted(metrics.items()))}))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
