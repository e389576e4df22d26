"""Benchmark entry point: one run of one workload.

    python3 bench/run.py --workload exact --seed 1 --seconds 30 --trace 0

Runs from the root of a source tree that holds src/halfspace6v.  Starts
SETUPS fresh worker processes one after another and times each from its
start to its READY line (interpreter start, imports, inputs, warm-up pass);
`setup_s` is the median.  The last of them goes on to the timed passes.
`batch_s` is the wall time of the fastest pass (see bench/README.md for
why not the median) and `peak_rss_mb` the worker's own peak resident set.
With --trace 1 the worker also runs traced passes and the per-layer
metrics are printed instead.

Every worker gets one BLAS thread and a fixed hash seed: with two BLAS
threads on a two-core machine one 1024-state ASEP solve took anywhere from
130 to 409 ms, with one it took 36 to 43 ms.

The last line on stdout is the result object; exit status 0 on success.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import threading
from pathlib import Path
from time import perf_counter

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SETUPS = 3
TIME_LIMIT_S = 170.0
BLAS_THREADS = "1"

sys.path.insert(0, str(HERE))
from tracing import METRICS  # noqa: E402


def worker_env() -> dict:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = BLAS_THREADS
    env["PYTHONHASHSEED"] = "0"
    return env


def start_worker(args, setup_only: bool, deadline: float):
    """Start one worker; return (process, seconds until its READY line)."""
    cmd = [sys.executable, str(HERE / "worker.py"), "--workload", args.workload,
           "--seed", str(args.seed), "--seconds", str(args.seconds),
           "--trace", str(args.trace)]
    if setup_only:
        cmd.append("--setup-only")
    t0 = perf_counter()
    proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, env=worker_env(),
                            cwd=ROOT)
    watchdog = threading.Timer(max(0.0, deadline - perf_counter()), proc.kill)
    watchdog.start()
    line = proc.stdout.readline()
    ready = perf_counter() - t0
    watchdog.cancel()
    if line.strip() != "READY" or perf_counter() > deadline:
        stop(proc)
        raise RuntimeError(f"worker did not get ready (got {line!r})")
    return proc, ready


def stop(proc):
    proc.kill()
    proc.communicate()


def finish(proc, deadline: float) -> str:
    """Wait for a worker to exit; return its stdout.  Kills it at the deadline."""
    try:
        out, _ = proc.communicate(timeout=max(1.0, deadline - perf_counter()))
    except subprocess.TimeoutExpired:
        stop(proc)
        raise
    if proc.returncode != 0:
        raise RuntimeError(f"worker exited with status {proc.returncode}")
    return out


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not (ROOT / "src" / "halfspace6v" / "__init__.py").is_file():
        print(f"no halfspace6v sources under {ROOT / 'src'}", file=sys.stderr)
        return 2

    deadline = perf_counter() + TIME_LIMIT_S
    setups = []
    # the traced run reports no set-up time, so it sets up once
    for _ in range(SETUPS - 1 if not args.trace else 0):
        proc, ready = start_worker(args, True, deadline)
        setups.append(ready)
        finish(proc, deadline)
    proc, ready = start_worker(args, False, deadline)
    setups.append(ready)
    res = json.loads(finish(proc, deadline).strip().splitlines()[-1])

    if args.trace:
        metrics = {m: {"value": res["layers"][m], "unit": u} for m, u, _b in METRICS}
    else:
        metrics = {
            "setup_s": {"value": statistics.median(setups), "unit": "s"},
            "batch_s": {"value": res["batch_s"], "unit": "s"},
            "peak_rss_mb": {"value": res["peak_rss_mb"], "unit": "MiB"},
        }
    print(json.dumps({"correct": res["correct"], "attempted": res["attempted"],
                      "failed": res["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
