"""One benchmark process: set up a workload, run its closed loop, check it.

Started by ``run.py``; it can also be started by hand from the repository
root, for example::

    python3 bench/worker.py --workload identity --seed 1 --ops 5

Set-up covers importing the package, writing the workload's inputs and one
warm-up op per op class; it ends at the monotonic time reported as ``ready``.
The loop then runs one client with no think time: each op is one
``ganduality.cli.main(argv)`` call, and the next starts when it returns. The
calibration kernel (``calibration.py``) runs between ops, and each op's time is
scaled by the mean of the kernel times on either side of it. With
``--trace 1`` the loop runs for half the time untraced and then replays the
same ops with spans on, so the two passes give the tracing overhead and must
give identical outputs. Reference checks run after the loop and are not timed.

The last line of standard output is a JSON object for ``run.py``.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import platform
import resource
import shutil
import sys
import time
from pathlib import Path

from run import BENCH_DIR, ROOT, THREAD_VARS

WORK = ROOT / ".bench_work"
# Every run has at least 38 ops (workloads.MIN_ROUNDS), so p75 always has ten
# ops beyond it with numpy's interpolation. The tail is the highest percentile
# that holds for that guaranteed count, fixed so that a faster commit running
# more ops still reports the same percentile.
# The typical op is summarised by the geometric mean, not the median: the 13
# identity pairings spread over three decades of latency with few ops in the
# middle, so the sample median of one run moved by half between seeds, about
# four times as far as the geometric mean. The median is still printed.
TAIL_PERCENTILE = 75

for _var in THREAD_VARS:
    os.environ.setdefault(_var, "1")
sys.path.insert(0, str(ROOT / "src"))

import numpy as np  # noqa: E402
import scipy  # noqa: E402

from ganduality import cli  # noqa: E402

import calibration  # noqa: E402
import checks  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def environment(args) -> dict:
    cpu = "unknown"
    with contextlib.suppress(OSError), open("/proc/cpuinfo") as fh:
        cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), cpu)
    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "python": platform.python_version(), "numpy": np.__version__, "scipy": scipy.__version__,
        "nproc": os.cpu_count(), "affinity_cpus": len(os.sched_getaffinity(0)), "cpu_model": cpu,
        "threads": {v: os.environ.get(v) for v in THREAD_VARS},
    }


def code_fingerprint() -> str:
    h = hashlib.sha256()
    for path in sorted((ROOT / "src" / "ganduality").rglob("*.py")) + sorted(BENCH_DIR.glob("*.py")):
        h.update(path.relative_to(ROOT).as_posix().encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def out_dir(op) -> str:
    return op.argv[op.argv.index("--out") + 1]


def run_op(op, tracer=None) -> dict:
    """One timed CLI call; outputs are hashed after the clock stops."""
    stdout, stderr = io.StringIO(), io.StringIO()
    rc, error = None, None
    root = tracer.begin("bench.op") if tracer is not None else None
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(stdout), contextlib.redirect_stderr(stderr):
            rc = cli.main(op.argv)
    except SystemExit as exc:  # argparse rejects bad argv this way
        rc = exc.code
    except Exception as exc:  # an op that raises is counted as failed, never retried
        error = f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - t0
    if root is not None:
        tracer.finish(root)
    files = {}
    out = Path(out_dir(op))
    for path in sorted(out.rglob("*")) if out.is_dir() else []:
        if path.is_file():
            files[path.relative_to(out).as_posix()] = hashlib.sha256(path.read_bytes()).hexdigest()
    text = stdout.getvalue()
    out_bytes = len(text.encode()) + sum((out / name).stat().st_size for name in files)
    digest = hashlib.sha256(json.dumps([rc, error, text, files], sort_keys=True).encode()).hexdigest()
    return {"instance": op.instance, "kind": op.kind, "cls": op.cls, "s": elapsed, "rc": rc,
            "error": error, "stdout": text, "stderr": stderr.getvalue(), "files": files,
            "out_bytes": out_bytes, "hash": digest}


def closed_loop(ops, budget_s: float, round_ops: int = 1, min_ops: int = 0, n_ops: int | None = None,
                tracer=None) -> list[dict]:
    """Run ops in schedule order, wrapping around, until the time inside ops
    reaches ``budget_s`` with at least ``min_ops`` ops done, at the end of a
    round of ``round_ops`` ops; or until exactly ``n_ops`` ops have run. Each
    result carries its time at reference speed as ``scaled_s``."""

    def more() -> bool:
        if n_ops is not None:
            return len(results) < n_ops
        return len(results) % round_ops != 0 or busy < budget_s or len(results) < min_ops

    results, busy = [], 0.0
    kernel_before = calibration.kernel_seconds()
    while more():
        if tracer is not None:
            tracer.op_id = len(results)
        res = run_op(ops[len(results) % len(ops)], tracer)
        kernel_after = calibration.kernel_seconds()
        res["scaled_s"] = calibration.scaled(res["s"], kernel_before, kernel_after)
        res["kernel_s"] = kernel_after
        kernel_before = kernel_after
        busy += res["s"]
        results.append(res)
    return results


def digest_of(results: list[dict]) -> str:
    return hashlib.sha256("\n".join(f"{r['instance']}:{r['hash']}" for r in results).encode()).hexdigest()


def determinism_failures(results: list[dict], known: dict[str, str]) -> list[str]:
    """Ops whose outputs differ from an earlier op on the same inputs; ``known``
    maps instance to output hash and is extended in place."""
    bad = []
    for r in results:
        key = str(r["instance"])
        if known.setdefault(key, r["hash"]) != r["hash"]:
            bad.append(f"instance {key} ({r['kind']}): output differs from an earlier run on the same inputs")
    return bad


def end_to_end(results: list[dict], peak_rss_mb: float) -> tuple[dict, dict]:
    ms = np.array([r["scaled_s"] for r in results]) * 1e3
    tail = float(np.percentile(ms, TAIL_PERCENTILE))
    metrics = {
        "ops_per_s": len(ms) / (ms.sum() / 1e3),
        "op_ms.geomean": float(np.exp(np.mean(np.log(ms)))),
        "op_ms.tail": tail,
        "peak_rss_mb": peak_rss_mb,
    }
    return metrics, {"ops": len(ms), "tail_ops_beyond": int(np.sum(ms > tail)), "p50": float(np.median(ms))}


def class_shares(results: list[dict]) -> dict[str, float]:
    total = sum(r["scaled_s"] for r in results)
    shares: dict[str, float] = {}
    for r in results:
        shares[r["cls"]] = shares.get(r["cls"], 0.0) + r["scaled_s"] / total
    return shares


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=10.0, help="time inside ops to measure")
    ap.add_argument("--ops", type=int, default=None, help="run exactly this many ops instead")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--setup-only", action="store_true", help="stop once set-up is done")
    args = ap.parse_args(argv)

    # kernel samples spread through set-up give the machine speed it ran at
    setup_kernels = [calibration.kernel_seconds()]
    workdir = WORK / args.workload
    shutil.rmtree(workdir, ignore_errors=True)
    ops, warmups = workloads.build(args.workload, args.seed, workdir)
    os.chdir(workdir)
    setup_kernels.append(calibration.kernel_seconds())
    for op in warmups:
        res = run_op(op)
        if res["error"] is not None or res["rc"] != 0:
            print(f"warm-up op {op.argv} failed: {res['error'] or res['rc']}\n{res['stderr']}", file=sys.stderr)
            return 1
    ready = time.monotonic()
    setup_kernels.append(calibration.kernel_seconds())
    if args.setup_only:
        print(json.dumps({"ready": ready, "setup_kernels": setup_kernels}))
        return 0

    round_ops = workloads.ROUND_OPS[args.workload]
    if args.trace:
        results = closed_loop(ops, args.seconds / 2, round_ops, n_ops=args.ops)
    else:
        min_ops = workloads.MIN_ROUNDS[args.workload] * round_ops
        results = closed_loop(ops, args.seconds, round_ops, min_ops, n_ops=args.ops)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    failures: list[str] = []
    known: dict[str, str] = {}
    failures += determinism_failures(results, known)
    traced = tracer = None
    if args.trace:
        tracer = spans.Tracer()
        inst = spans.Instrumentation(tracer)
        inst.install()
        try:
            traced = closed_loop(ops, 0.0, n_ops=len(results), tracer=tracer)
        finally:
            inst.uninstall()
        if digest_of(traced) != digest_of(results):
            failures += [f"traced pass: {msg}" for msg in determinism_failures(traced, known)]

    failed_ops = 0
    for r in results:
        op = ops[r["instance"]]
        reason = checks.check_op(op, r, workdir)
        if reason is not None:
            failed_ops += 1
            failures.append(f"op {r['instance']} {' '.join(op.argv)}: {reason}")

    # records survive between runs, so two runs of the same code on the same seed are compared
    fingerprint = code_fingerprint()
    records = WORK / "records"
    records.mkdir(parents=True, exist_ok=True)
    record_path = records / f"{args.workload}-seed{args.seed}-{fingerprint[:16]}.json"
    if record_path.exists():
        earlier = json.loads(record_path.read_text())["instances"]
        failures += [f"against an earlier run: {msg}" for msg in determinism_failures(results, earlier)]
        known = {**earlier, **known}
    digest = digest_of(results)
    record = {
        "env": environment(args), "code": fingerprint, "digest": digest,
        "traced_digest": digest_of(traced) if traced is not None else None,
        "instances": known,
        "ops": [{k: r[k] for k in ("instance", "kind", "rc", "error", "stdout", "files", "hash", "s",
                                   "scaled_s", "kernel_s")}
                for r in results],
        "failures": failures,
    }
    record_path.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")

    print(f"workload {args.workload}  seed {args.seed}  ops {len(results)}  digest {digest[:16]}")
    print("env " + json.dumps(record["env"], sort_keys=True))
    print("time shares " + "  ".join(f"{k} {v:.3f}" for k, v in sorted(class_shares(results).items())))
    speed = calibration.REFERENCE_S / np.mean([r["kernel_s"] for r in results])
    print(f"machine speed {speed:.3f} of reference (kernel {calibration.REFERENCE_S * 1e3:.2f} ms), "
          f"time inside ops {sum(r['s'] for r in results):.2f} s")
    for msg in failures[:10]:
        print(f"FAILED {msg}")
    attempted = len(results)
    out = {"ready": ready, "setup_kernels": setup_kernels, "attempted": attempted, "failed": failed_ops,
           "correct": not failures}
    if args.trace:
        traces = WORK / "traces"
        traces.mkdir(parents=True, exist_ok=True)
        tracer.write(traces / f"{args.workload}-seed{args.seed}.tsv")
        overhead = sum(r["scaled_s"] for r in traced) / sum(r["scaled_s"] for r in results) - 1.0
        metrics = spans.per_layer_metrics(tracer, sum(r["out_bytes"] for r in traced), overhead)
        shares = spans.layer_self_seconds(tracer)
        total = sum(shares.values())
        print("layer self-time shares " + "  ".join(f"{k} {v / total:.3f}" for k, v in shares.items()))
        print(f"traced digest {digest_of(traced)[:16]}  overhead {overhead:+.3f}")
        out["metrics"] = {k: {"value": v, "unit": spans.PER_LAYER_UNITS[k]} for k, v in metrics.items()}
    else:
        metrics, info = end_to_end(results, peak_rss_mb)
        print(f"failed_frac {failed_ops / attempted!r}  op_ms.p50 {info['p50']!r}  op_ms.tail = "
              f"p{TAIL_PERCENTILE} with {info['tail_ops_beyond']} of {info['ops']} ops beyond it")
        out["metrics"] = metrics
        out["failed_frac"] = failed_ops / attempted
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
