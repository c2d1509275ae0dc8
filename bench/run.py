"""Benchmark of the ``ganduality`` command line, one workload per invocation.

Run from the repository root::

    python3 bench/run.py --workload divergence --seed 1 --seconds 25 --trace 0

Workloads (see ``workloads.py``): ``divergence``, ``identity`` and
``training``. Every input is generated from ``--seed``. The BLAS and OpenMP
thread counts are pinned to one before numpy loads, so this is the
single-threaded baseline.

With ``--trace 0`` the last line of standard output is a JSON object holding
the end-to-end metrics: ``setup_s`` (median over several fresh processes of
the time from process start to ready), ``ops_per_s``, ``op_ms.geomean``,
``op_ms.tail`` and ``peak_rss_mb``. Times are scaled to a reference machine
speed measured by a calibration kernel, see ``calibration.py``. With
``--trace 1`` it holds the per-layer metrics of a traced run instead. The exit
code is nonzero when any op fails its check or a rerun of the same code on the
same seed changes an output.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import calibration
from workloads import WORKLOADS

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")
END_TO_END_UNITS = {"setup_s": "s", "ops_per_s": "ops/s", "op_ms.geomean": "ms", "op_ms.tail": "ms",
                    "peak_rss_mb": "MB"}
SETUP_ONLY_RUNS = 2  # set-up is also timed in the measuring process, so three samples
DEADLINE_S = 170.0


def spawn(args: list[str], env: dict, deadline: float) -> tuple[float, float, str]:
    """Run a worker to completion; return the calibration kernel time just
    before it started, its start time and its standard output."""
    kernel_s = calibration.kernel_seconds()
    started = time.monotonic()
    proc = subprocess.run([sys.executable, str(BENCH_DIR / "worker.py"), *args], cwd=ROOT, env=env,
                          stdout=subprocess.PIPE, text=True, timeout=max(deadline - started, 1.0))
    if proc.returncode != 0:
        raise RuntimeError(f"worker {' '.join(args)} exited with code {proc.returncode}")
    return kernel_s, started, proc.stdout


def setup_seconds(worker: dict, kernel_before: float, started: float) -> float:
    """Time from spawning a worker to its ready mark, at reference speed."""
    return calibration.scaled(worker["ready"] - started, kernel_before, *worker["setup_kernels"])


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    deadline = time.monotonic() + DEADLINE_S

    if not (ROOT / "src" / "ganduality" / "cli.py").is_file():
        print(f"error: no package source under {ROOT / 'src'}; run from a full checkout", file=sys.stderr)
        return 2
    env = {**os.environ, **{v: "1" for v in THREAD_VARS}}
    common = ["--workload", args.workload, "--seed", str(args.seed)]
    try:
        setups = []
        if not args.trace:
            for _ in range(SETUP_ONLY_RUNS):
                kernel_s, started, out = spawn([*common, "--setup-only"], env, deadline)
                setups.append(setup_seconds(json.loads(out.strip().splitlines()[-1]), kernel_s, started))
        kernel_s, started, out = spawn([*common, "--seconds", str(args.seconds), "--trace", str(args.trace)],
                                       env, deadline)
    except (RuntimeError, subprocess.TimeoutExpired) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    lines = out.strip().splitlines()
    worker = json.loads(lines[-1])
    for line in lines[:-1]:
        print(line)
    metrics = worker["metrics"]
    if not args.trace:
        setups.append(setup_seconds(worker, kernel_s, started))
        print("setup_s samples " + " ".join(f"{s:.4f}" for s in setups))
        metrics = {"setup_s": statistics.median(setups), **metrics}
        metrics = {k: {"value": v, "unit": END_TO_END_UNITS[k]} for k, v in metrics.items()}
    print(json.dumps({"correct": worker["correct"], "attempted": worker["attempted"],
                      "failed": worker["failed"], "metrics": metrics}))
    return 0 if worker["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
