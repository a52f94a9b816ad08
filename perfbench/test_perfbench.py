"""Tests of the benchmark harness itself.

    python3 -m pytest perfbench -q

They run scaled-down copies of the workloads, so they take seconds.
"""

import dataclasses
import json
import shutil
import subprocess
import sys

import pytest

import run
import tracer
import workloads

SMALL = {
    "fe-tiny": dict(train_docs=20, test_docs=10, batch=10),
    "fit-l12": dict(train_docs=8, test_docs=4, batch=4),
    "cli-static-long": dict(train_docs=20, test_docs=10, epochs=1, batch=10),
}


@pytest.fixture(autouse=True, scope="module")
def febench_on_path():
    sys.path.insert(0, str(run.ROOT / "src"))
    yield
    sys.path.remove(str(run.ROOT / "src"))


def small(name):
    return dataclasses.replace(workloads.WORKLOADS[name], **SMALL[name])


def snapshot():
    """Every attribute of every febench module and of the patched classes."""
    modules = tracer.febench_modules()
    owners = modules + [sys.modules["febench.tensor"].ComputationRecord,
                        sys.modules["febench.profiling"].MemoryLedger]
    return {(id(owner), attr): value for owner in owners
            for attr, value in list(vars(owner).items())}


def traced_rep(name, tmp_path):
    workload = small(name)
    workloads.fresh_import()
    before = snapshot()
    with tracer.Tracer() as trace:
        state = workload.setup(0, tmp_path)
        workload.run(state)
        outcome = workload.finish(state)
    return before, trace, outcome


def test_names_match_benchmark_json():
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(workloads.WORKLOADS)
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == \
        list(run.END_TO_END)
    assert [(m["name"], m["unit"]) for m in spec["per_layer"]] == \
        tracer.per_layer_metrics()
    assert spec["paths"] == [run.HERE.name]


@pytest.mark.parametrize("name", list(SMALL))
def test_tracing_leaves_febench_unpatched(name, tmp_path):
    before, _, outcome = traced_rep(name, tmp_path)
    assert not outcome.problems
    after = snapshot()
    assert after.keys() == before.keys()
    changed = [key for key, value in after.items() if value is not before[key]]
    assert changed == []


@pytest.mark.parametrize("name", list(SMALL))
def test_spans_are_closed_and_self_times_non_negative(name, tmp_path):
    _, trace, _ = traced_rep(name, tmp_path)
    assert trace.spans
    assert all(end >= start for _, start, end, _, _ in trace.spans)
    assert min(trace.self_times()) >= 0
    summary = trace.summary()
    for name in ("tensor.backward", "encoders.forward", "cnn.forward"):
        assert 0 <= summary[f"{name}.self_s"] <= summary[f"{name}.s"]


def test_exact_counts_of_a_small_fe_run(tmp_path):
    _, trace, _ = traced_rep("fe-tiny", tmp_path)
    summary = trace.summary()
    # 30 documents per epoch over 2 epochs; 42 tape entries per document
    assert summary["encoders.forward.calls"] == 60
    assert summary["tensor.tape_entries_per_step"] == 42 * 10 + 2
    assert summary["ops.gelu.calls"] == 2 * 60   # one per layer, 2 layers
    # the frozen encoder keeps no backward closure
    assert summary["ops.gelu.bwd_s"] == 0


def test_check_flags_changed_losses_and_counts(tmp_path):
    expected = json.loads(run.EXPECTED.read_text())
    workload = small("fe-tiny")
    reference = run.run_rep(workload, 0, False, tmp_path / "a")
    reps = [run.run_rep(workload, 5, traced, tmp_path / "b")
            for traced in (True, False)]
    expected["losses"]["fe-tiny"] = [[v * (1 + 2 * expected["loss_rtol"])
                                      for v in reference.outcome.losses[0]]]
    reps[1].outcome.losses = [[0.0]]
    run.check(workload, reference, reps, expected)
    assert "leave rtol" in reference.checks[0]
    assert "predicted 600" in reps[0].checks[0]
    assert reps[1].checks == ["losses differ from the first repetition's"]


def test_fails_without_the_program(tmp_path):
    shutil.copy(run.ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(run.HERE, tmp_path / run.HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = subprocess.run(
        [sys.executable, f"{run.HERE.name}/run.py", "--workload", "fe-tiny",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
