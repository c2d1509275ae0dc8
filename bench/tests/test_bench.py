"""Tests of the benchmark's own machinery.

Run from the repository root with ``python3 -m pytest bench/tests``.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402


def test_self_time_subtracts_direct_children():
    # clock readings in call order: outer, middle and two leaves nested inside
    ticks = iter([0.0, 1.0, 2.0, 3.0, 5.0, 6.0, 8.0, 10.0])
    tracer = spans.Tracer(clock=lambda: next(ticks))
    leaf = tracer.wrap("transport.leaf", lambda: None)

    def middle():
        leaf()
        leaf()

    outer = tracer.wrap("cli.outer", tracer.wrap("hybrid.middle", middle))
    outer()
    assert list(tracer.parent) == [-1, 0, 1, 1]
    assert spans.self_times(tracer.start, tracer.end, tracer.parent) == [3.0, 5.0, 1.0, 1.0]
    shares = spans.layer_self_seconds(tracer)
    assert (shares["cli"], shares["hybrid"], shares["transport"]) == (3.0, 5.0, 2.0)


def test_span_closes_when_the_call_raises():
    tracer = spans.Tracer()

    def boom():
        raise ValueError("x")

    with pytest.raises(ValueError):
        tracer.wrap("fdiv.boom", boom)()
    assert tracer.stack == [] and tracer.end[0] >= tracer.start[0]


def test_instrumentation_rebinds_every_import_and_restores_it():
    from ganduality import distributions, duality, experiments, hybrid, transport

    originals = (transport.ot_primal, hybrid._hybrid_dual_full, distributions.find_atom,
                 distributions.FiniteDistribution.__dict__["from_weighted_points"])
    inst = spans.Instrumentation(spans.Tracer())
    inst.install()
    try:
        assert experiments.ot_primal is transport.ot_primal is not originals[0]
        assert duality._hybrid_dual_full is hybrid._hybrid_dual_full is not originals[1]
        assert distributions.find_atom is not originals[2]
    finally:
        inst.uninstall()
    assert (transport.ot_primal, hybrid._hybrid_dual_full, distributions.find_atom,
            distributions.FiniteDistribution.__dict__["from_weighted_points"]) == originals
    assert experiments.ot_primal is originals[0]


def _generated(workload: str, seed: int, where: Path):
    ops, warmups = workloads.build(workload, seed, where)
    files = {p.relative_to(where).as_posix(): p.read_bytes() for p in sorted(where.rglob("*")) if p.is_file()}
    return [op.argv for op in ops + warmups], files


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_inputs_are_a_function_of_the_seed(workload, tmp_path):
    first = _generated(workload, 5, tmp_path / "a")
    assert first == _generated(workload, 5, tmp_path / "b")
    assert first != _generated(workload, 6, tmp_path / "c")


def _worker(*args: str) -> list[str]:
    proc = subprocess.run([sys.executable, str(BENCH / "worker.py"), *args], cwd=ROOT,
                          capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.strip().splitlines()


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_traced_pass_reproduces_the_untraced_outputs(workload):
    lines = _worker("--workload", workload, "--seed", "7", "--ops", "3", "--trace", "1")
    result = json.loads(lines[-1])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] == 3
    untraced = lines[0].split("digest ")[1]
    traced = next(ln for ln in lines if ln.startswith("traced digest ")).split()[2]
    assert traced == untraced
    assert set(result["metrics"]) == set(spans.PER_LAYER_UNITS)


def test_launcher_fails_without_the_package_source(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "tests"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path / "BENCHMARK.json")
    proc = subprocess.run([sys.executable, "bench/run.py", "--workload", "identity", "--seed", "1",
                           "--seconds", "1", "--trace", "0"], cwd=tmp_path, capture_output=True,
                          text=True, timeout=180)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_benchmark_json_names_the_reported_metrics():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == spans.PER_LAYER_UNITS
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
