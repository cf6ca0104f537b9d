"""Tests of the benchmark itself. Run from the repository root with
``python -m pytest perfbench``."""

import json
import shutil
import subprocess
import sys

import numpy as np
import pytest

import run

run.load_program()

import tracing  # noqa: E402  (needs the program on sys.path)
import workloads  # noqa: E402

BENCHMARK = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
NO_UNIT = run._no_unit


def test_benchmark_json_matches_the_runner():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(run.WORKLOAD_NAMES)
    assert list(workloads.WORKLOADS) == list(run.WORKLOAD_NAMES)
    assert {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]} == run.END_TO_END
    assert ({m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
            == tracing.layer_metric_units())


@pytest.mark.parametrize("trace", [False, True])
@pytest.mark.parametrize("name", run.WORKLOAD_NAMES)
def test_tiny_run_emits_every_named_metric(name, trace):
    out = run.run_workload(name, seed=3, seconds=0.0, trace=trace, size="tiny",
                           setup_repeats=1)
    result = out["result"]
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    listed = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert ([(m["name"], m["unit"]) for m in listed]
            == [(k, v["unit"]) for k, v in result["metrics"].items()])
    values = [v["value"] for v in result["metrics"].values()]
    assert all(np.isfinite(values))
    if not trace:
        assert all(v > 0 for v in values)


def test_without_the_program_the_runner_fails_and_prints_no_result(tmp_path):
    shutil.copytree(run.HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns(".work", "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "sweep_qubit", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120, check=False)
    assert proc.returncode != 0
    assert proc.stdout == ""


def _tiny_output(name, tmp_path, seed=5):
    workload = workloads.WORKLOADS[name]
    inputs = workload.build(seed, tmp_path, workloads.SIZES["tiny"])
    payload = workload.body(inputs, NO_UNIT)[0]
    assert workload.verify(inputs, payload) == 0
    return workload, inputs, payload


def test_sweep_verification_flags_a_perturbed_row(tmp_path):
    workload, inputs, (code, text) = _tiny_output("sweep_qubit", tmp_path)
    lines = text.splitlines()
    cells = lines[7].split(",")
    cells[5] = repr(float(cells[5]) + 1e-9)   # geom_bound
    lines[7] = ",".join(cells)
    assert workload.verify(inputs, (code, "\n".join(lines) + "\n")) == 1
    assert workload.verify(inputs, (code, "\n".join(lines[:-1]) + "\n")) == 2
    assert workload.verify(inputs, (3, text)) == inputs.units


def test_checks_verification_flags_a_dropped_or_failing_line(tmp_path):
    workload, inputs, (code, text) = _tiny_output("checks_catalog", tmp_path)
    lines = text.splitlines()
    dropped = json.loads(lines[4])["samples"]
    assert workload.verify(inputs, (code, "\n".join(lines[:4] + lines[5:]))) == dropped
    record = json.loads(lines[0])
    record["passed"] = False
    failing = [json.dumps(record)] + lines[1:]
    assert workload.verify(inputs, (code, "\n".join(failing))) == record["samples"]
    assert workload.verify(inputs, (5, text)) == inputs.units


def test_bounds_verification_flags_a_perturbed_or_raised_unit(tmp_path):
    workload, inputs, payload = _tiny_output("bounds_large", tmp_path)
    first = list(payload[0])
    first[3] += 1e-3   # geometric bound
    assert workload.verify(inputs, (tuple(first),) + payload[1:]) == 1
    assert workload.verify(inputs, payload[:-1] + ("ValueError()",)) == 1


def test_tracer_wraps_every_binding_and_restores_it():
    cli = sys.modules["orbit_kahler.cli"]
    checks = sys.modules["orbit_kahler.checks"]
    original = sys.modules["orbit_kahler.uncertainty"].full_report
    eigh = np.linalg.eigh
    with tracing.Tracer().installed():
        assert cli.full_report is not original
        assert checks.full_report is cli.full_report
        assert np.linalg.eigh is not eigh
    assert cli.full_report is original and checks.full_report is original
    assert np.linalg.eigh is eigh


def test_traced_counts_repeat_exactly_and_self_time_adds_up(tmp_path):
    workload = workloads.WORKLOADS["bounds_large"]
    inputs = workload.build(2, tmp_path, workloads.SIZES["tiny"])
    tracer = tracing.Tracer()
    with tracer.installed():
        start = run.time.perf_counter()
        workload.body(inputs, tracer.mark_unit)
        wall = run.time.perf_counter() - start
    metrics = tracer.metrics(rounds=1, units=inputs.units)
    assert metrics["operators.orbit_point.calls"] == 1.0
    assert metrics["uncertainty.full_report.calls"] == 1.0
    assert metrics["numpy.linalg.eigh.calls"] == 1.0
    assert {span[3] for span in tracer.spans} == set(range(inputs.units))
    self_total = sum(v for k, v in metrics.items() if k.endswith("self_s"))
    assert 0.0 < self_total <= wall
