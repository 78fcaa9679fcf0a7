"""Small-size runs of every workload, traced and untraced."""

import json
import shutil
import subprocess
import sys

import pytest

import run
import tracing
import workloads

SMALL = {"desk": {"launches": 1, "n_sections": 1}}
REPORTED_OUTSIDE_TRACER = {"setup.import_s", "trace.overhead_s",
                           "trace.missing", "trajectories.path_err_fringes",
                           "trajectories.accel_rel_err"}


def _spec():
    return json.loads((run.ROOT / "BENCHMARK.json").read_text())


@pytest.mark.parametrize("name", workloads.WORKLOADS)
def test_workload_smoke(name, tmp_path):
    workload = workloads.make(name, tmp_path, **SMALL.get(name, {}))
    inputs = workload.inputs(3)
    assert inputs == workload.inputs(3)
    tracer = tracing.Tracer()
    with tracer:
        traced = run.run_pass(workload, inputs, tracer)
    assert traced.failed == 0
    assert tracer.missing == []
    metrics = tracing.layer_metrics(tracer)
    names = {m["name"] for m in _spec()["per_layer"]}
    assert set(metrics) | REPORTED_OUTSIDE_TRACER == names
    assert metrics["wavefield.kernel_calls"] > 0
    assert 0.0 < traced.max_measured["path_err_fringes"] \
        < workloads.PATH_ERR_GATE_FRINGES


def test_counts_and_fingerprint_repeat(tmp_path):
    workload = workloads.make("desk", tmp_path, launches=0, n_sections=1)
    inputs = workload.inputs(5)
    count_names = {m["name"] for m in _spec()["per_layer"]
                   if m["unit"] in ("count", "bytes")}
    counts, digests = [], []
    for _ in range(2):
        tracer = tracing.Tracer()
        with tracer:
            res = run.run_pass(workload, inputs, tracer)
        digests.append(res.digest.hexdigest())
        counts.append({k: v for k, v in tracing.layer_metrics(tracer).items()
                       if k in count_names})
    assert digests[0] == digests[1]
    assert counts[0] == counts[1]
    assert counts[0]["runner.files_written"] > 0


def test_tail_latency_rule():
    assert run.tail_latency([3.0, 1.0, 2.0]) == (3.0, 100, 0)
    assert run.tail_latency([float(i) for i in range(13)]) == (12.0, 100, 0)
    value, p, beyond = run.tail_latency([float(i) for i in range(1, 41)])
    assert (value, p, beyond) == (30.0, 75, 10)


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(run.BENCH, tmp_path / "bench",
                    ignore=shutil.ignore_patterns("results", ".work",
                                                  "__pycache__"))
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--workload", "desk",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""


def test_a_check_that_raises_fails_its_op():
    class Broken:
        def op(self, inp):
            return inp

        def check(self, inp, out):
            raise KeyError("rows")

    failures = []
    res = run.run_pass(Broken(), [1, 2], failures=failures)
    assert res.failed == 2
    assert len(res.latencies) == 2
    assert "KeyError: 'rows'" in failures[0]
