"""Tests of the end-to-end benchmark, on shrunken workloads of a few ops each."""

from __future__ import annotations

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

import agree
import e2e_workloads as bench
from e2e_layers import BOUNDARIES, PER_LAYER, LayerTracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parents[1]

#: Class attributes that shrink each workload to test size.
SMALL = {
    "chat_dialogue": {"rounds": 1, "trace_ops": 1},
    "devibench_eval": {"video_count": 2, "trace_ops": 1},
    "uplink_plain": {"corpus_seeds": 1, "trace_ops": 1},
    "uplink_fec": {"corpus_seeds": 1, "trace_ops": 1},
    "sweep_grid": {"experiments": ("closed_loop_session",), "scenario_count": 2, "cached_reruns": 2},
}


@pytest.fixture(autouse=True)
def _private_fingerprint_memo(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_FINGERPRINT_CACHE", str(tmp_path / "fingerprint.json"))


def small(name: str, workdir: Path) -> bench.Workload:
    cls = bench.WORKLOADS[name]
    return type(cls.__name__, (cls,), SMALL[name])(workdir)


def first_digests(workload: bench.Workload, steps: int = 1) -> list[str]:
    workload.setup(0)
    return [op.digest for step in range(steps) for op in workload.run_step(step)]


def test_declared_metrics_match_benchmark_json():
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    assert [w["name"] for w in declared["workloads"]] == list(bench.WORKLOADS)
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["end_to_end"]} == bench.END_TO_END
    assert {m["name"]: (m["unit"], m["better"]) for m in declared["per_layer"]} == PER_LAYER
    assert declared["paths"] == ["benchmarks/e2e"]


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_workload_emits_every_metric_and_repeats(name, tmp_path):
    workload = small(name, tmp_path)
    workload.setup(0)
    workload.warm_up()
    golden = first_digests(small(name, tmp_path)) + ["unchecked"] * (workload.n_ops - workload.ops_per_step)
    measured = bench.measure(workload, max_ops=workload.ops_per_step, golden=golden)
    assert (measured.attempted, measured.failed) == (workload.ops_per_step, 0)

    metrics = bench.end_to_end_metrics(measured)
    assert set(metrics) | {"setup_s"} == set(bench.END_TO_END)
    assert all(math.isfinite(value) and value > 0 for value in metrics.values())


def test_injected_failures_count_as_failed_ops(tmp_path):
    workload = small("uplink_plain", tmp_path)
    workload.setup(0)
    golden = first_digests(small("uplink_plain", tmp_path), steps=2)
    golden[1] = "0" * 16
    golden += ["unchecked"] * (workload.n_ops - 2)
    measured = bench.measure(workload, max_ops=2, golden=golden)
    assert (measured.attempted, measured.failed, len(measured.latencies_s)) == (2, 1, 1)

    def broken(index):
        raise bench.InvariantError("injected")

    workload.run_step = broken
    measured = bench.measure(workload, max_ops=3)
    assert (measured.attempted, measured.failed, measured.ops_per_s) == (3, 3, 0.0)


def _wrapped_attributes() -> list[str]:
    """Boundary attributes that still hold a wrapper, wherever they are imported."""
    found = []
    for _, module_name, class_name, attr in BOUNDARIES:
        if class_name is not None:
            owners = [getattr(sys.modules[module_name], class_name)]
        else:
            owners = [module for name, module in list(sys.modules.items())
                      if name.startswith("repro.") and attr in vars(module)]
        found += [f"{owner.__name__}.{attr}" for owner in owners
                  if hasattr(getattr(owner, attr), "__wrapped__")]
    return found


@pytest.mark.parametrize("name", list(bench.WORKLOADS))
def test_traced_run_reports_every_layer_metric_and_unwraps(name, tmp_path):
    workload = small(name, tmp_path)
    metrics, measured, tracer = bench.traced_run(workload, seed=0)
    assert set(metrics) == set(PER_LAYER)
    assert measured.failed == 0 and measured.attempted == 2 * workload.trace_ops
    assert all(metrics[f"{layer}.calls"] > 0 for layer in workload.layers)
    assert not _wrapped_attributes()
    assert tracer.recorder.spans()
    if workload.layers:
        shares = [metrics[f"{layer}.share"] for layer in workload.layers]
        assert all(share >= 0 for share in shares) and sum(shares) <= 1.0


def test_tracer_restores_originals_after_an_error():
    with pytest.raises(RuntimeError):
        with LayerTracer():
            assert _wrapped_attributes()
            raise RuntimeError("boom")
    assert not _wrapped_attributes()


def test_run_fails_without_the_library(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "benchmarks" / "e2e",
                    ignore=shutil.ignore_patterns("__pycache__"))
    done = subprocess.run(
        [sys.executable, "benchmarks/e2e/run.py", "--workload", "chat_dialogue", "--seconds", "1"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60,
    )
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_agree_flags_medians_beyond_the_bound(tmp_path):
    def write(path, values):
        path.write_text("".join(
            json.dumps({"workload": "w", "trace": 0, "metrics": {"ops_per_s": {"value": v}}}) + "\n"
            for v in values))
        return agree.load_runs(path)

    base = write(tmp_path / "a.jsonl", [10.0, 10.2, 9.9, 10.1, 10.0])
    near = write(tmp_path / "b.jsonl", [10.4, 10.3, 10.5, 10.2, 10.4])
    far = write(tmp_path / "c.jsonl", [12.0, 12.1, 11.9, 12.2, 12.0])
    assert agree.compare(base, near, {"ops_per_s": 0.1})[1]
    assert not agree.compare(base, far, {"ops_per_s": 0.1})[1]
    assert not agree.compare(base, near, {"ops_per_s": 0.1, "op_p50_ms": 0.1})[1]
