"""The names the benchmark tracer patches, and the names and result-file
keys its workloads read, must exist in febench, and a training step must
keep the tape structure that the benchmark pins.

``perfbench/tracer.py`` wraps febench functions by module and attribute name,
patches ``ComputationRecord.append`` and ``MemoryLedger.record_alloc`` /
``record_free`` on their classes, and reports primitives by kind, and
``perfbench/workloads.py`` builds models and reads run results and the
records ``bench run`` writes; a rename in the package would otherwise only
surface when the benchmark runs.
"""

import configparser
import importlib
import importlib.util
import json
from pathlib import Path

import numpy as np
import pytest

from febench import ops, training
from febench.bench.runner import run_benchmark
from febench.bench.synth import SynthSpec, make_synthetic
from febench.cnn import CnnHead, CnnHeadConfig
from febench.encoders import Encoder
from febench.profiling import MemoryLedger
from febench.tensor import ComputationRecord
from febench.text import build_vocab, save_dataset

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def load_perfbench(name):
    spec = importlib.util.spec_from_file_location(f"perfbench_{name}",
                                                  PERFBENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_perfbench("tracer")
WORKLOADS = load_perfbench("workloads")


def _train_step_shapes():
    """(workload, preset, mode, batch, max_len) of every kind of training
    step that a benchmark workload takes."""
    shapes = []
    for name, workload in sorted(WORKLOADS.WORKLOADS.items()):
        if isinstance(workload, WORKLOADS.TrainWorkload):
            cells = [(workload.preset, workload.mode)]
        else:
            bench = configparser.ConfigParser(interpolation=None)
            bench.read_string(WORKLOADS.BENCH_INI)
            cells = [(bench[section]["preset"], bench[section]["mode"])
                     for section in bench.sections()
                     if section.startswith("cell:")]
        shapes += [(name, preset, mode, workload.batch, workload.max_len)
                   for preset, mode in cells]
    return shapes


@pytest.mark.parametrize("span", sorted(TRACER.SPANNED))
def test_spanned_function_exists(span):
    module, attr = TRACER.SPANNED[span]
    assert callable(getattr(importlib.import_module(module), attr))


def test_reported_op_kinds_are_primitives():
    assert set(TRACER.OP_KINDS) <= set(ops.PRIMITIVES)


def test_class_patches_see_a_run_and_are_restored():
    """The tracer counts tape entries through ``ComputationRecord.append``
    and ledger calls through ``MemoryLedger``; both must fire in a real run
    and be put back afterwards."""
    append, alloc = ComputationRecord.append, MemoryLedger.record_alloc
    dataset = make_synthetic(SynthSpec(classes=2, train_docs=8, test_docs=4,
                                       vocab=10, doc_len=8, seed=1))
    vocab = build_vocab([ex.text for ex in dataset.train], max_size=50)
    encoder = Encoder.from_preset("static", vocab.size, seed=[1, 0],
                                  frozen=False)
    head = CnnHead.build(CnnHeadConfig(hidden=encoder.config.hidden,
                                       classes=2, filters=2), seed=[1, 1])
    config = training.RunConfig(mode="FiT", epochs=1, batch_size=4,
                                max_len=12)
    with TRACER.Tracer() as trace:
        training.train(config, dataset, encoder, head, vocab)
    assert trace.tape_entries > 0
    assert trace.ledger_calls["allocs"] > 0
    assert trace.ledger_calls["frees"] > 0
    assert ComputationRecord.append is append
    assert MemoryLedger.record_alloc is alloc


@pytest.mark.parametrize("mode", ["FE", "FiT"])
def test_train_workload_runs_without_problems(mode, tmp_path):
    """A shrunken ``TrainWorkload`` through ``setup``, ``run`` and ``finish``
    reads ``Encoder.from_preset(frozen=)``, ``WeightSet.byte_image()``,
    ``ledger.breakdown()["peak"]`` and ``RunResult.peak_bytes``."""
    workload = WORKLOADS.TrainWorkload(name="static", preset="static",
                                       mode=mode, batch=4, epochs=1,
                                       train_docs=8, test_docs=4)
    state = workload.setup(1, tmp_path)
    encoder = state.args[2]
    assert all(t.requires_grad == (mode == "FiT")
               for t in encoder.weights.tensors.values())
    workload.run(state)
    outcome = workload.finish(state)
    assert outcome.problems == []
    assert len(outcome.losses) == 1 and len(outcome.epoch_seconds) == 1
    assert outcome.peak_bytes >= max(outcome.category_peaks.values()) > 0
    assert outcome.category_peaks["gradients"] > 0


CONFIG = """\
[benchmark]
dataset = {data}
repeats = 1
out = {out}

[cell:ok]
preset = static
mode = FE
epochs = 1
max_len = 12
filters = 2

[cell:broken]
preset = static
mode = FE
epochs = 1
batch = 4
max_len = 12
kernels = 2,3
lr = 1e30
"""


def test_result_files_keep_the_keys_the_cli_workload_reads(tmp_path):
    """``CliWorkload.finish`` reads ``cell``, ``failed``, ``error`` and
    ``peak_bytes`` from results.jsonl and ``epoch_seconds`` from
    timing.jsonl, for a finished and a failed cell alike.  The ``broken``
    cell's learning rate makes its second batch's loss non-finite, so it
    fails at run time."""
    save_dataset(make_synthetic(SynthSpec(classes=2, train_docs=8,
                                          test_docs=4, vocab=10, doc_len=8,
                                          seed=1)), tmp_path / "data")
    config = tmp_path / "bench.ini"
    config.write_text(CONFIG.format(data=tmp_path / "data",
                                    out=tmp_path / "out"))
    records, out_dir = run_benchmark(config)
    assert records[1]["error"].startswith("TrainingDivergedError: ")
    expected = {
        "results.jsonl": {"cell", "config_hash", "dataset", "error",
                          "failed", "metrics", "mode", "peak_bytes",
                          "preset", "repeats", "seeds", "task_kind"},
        "timing.jsonl": {"cell", "epoch_seconds", "total_seconds"},
    }
    for name, keys in expected.items():
        records = [json.loads(line)
                   for line in (out_dir / name).read_text().splitlines()]
        assert [set(r) for r in records] == [keys, keys]
        assert [r["cell"] for r in records] == ["ok", "broken"]


def test_run_benchmark_trains_through_the_module_attribute(tmp_path,
                                                           monkeypatch):
    """``CliWorkload`` observes runs by swapping ``febench.training.train``;
    ``run_benchmark`` must reach the swapped function once per repeat."""
    save_dataset(make_synthetic(SynthSpec(classes=2, train_docs=8,
                                          test_docs=4, vocab=10, doc_len=8,
                                          seed=1)), tmp_path / "data")
    config = tmp_path / "bench.ini"
    config.write_text(CONFIG.split("[cell:broken]")[0].format(
        data=tmp_path / "data", out=tmp_path / "out"))
    seen, real_train = [], training.train

    def counted(run_config, *args):
        seen.append(run_config.seed)
        return real_train(run_config, *args)

    monkeypatch.setattr(training, "train", counted)
    (record,), _ = run_benchmark(config, repeats=2)
    assert len(seen) == 2
    assert seen == record["seeds"]


@pytest.mark.parametrize("workload, preset, mode, batch, max_len",
                         _train_step_shapes())
def test_train_step_makes_the_pinned_tape_entries(workload, preset, mode,
                                                  batch, max_len):
    """One traced ``train_step`` at a workload's shape appends as many
    entries as ``perfbench/expected.json`` pins per step, so a change to the
    tape's structure fails here and not only in the traced benchmark."""
    expected = json.loads((PERFBENCH / "expected.json").read_text())
    want = expected["counts"][workload]["tensor.tape_entries_per_step"]["value"]
    rng = np.random.default_rng(0)
    encoder = Encoder.from_preset(preset, 50, seed=[0, 0], frozen=mode == "FE")
    head = CnnHead.build(CnnHeadConfig(hidden=encoder.config.hidden,
                                       classes=2), seed=[0, 1])
    params = [p for p in (*encoder.weights.tensors.values(),
                          *head.weights.tensors.values()) if p.requires_grad]
    state = training.AdamState(ledger=MemoryLedger())
    ids = rng.integers(1, 50, size=(batch, max_len))
    valid = rng.integers(max_len // 2, max_len + 1, size=batch)
    targets = rng.integers(0, 2, size=batch)
    with TRACER.Tracer() as trace:
        training.train_step(encoder, head, params, state, ids, valid, targets,
                            "single_label", 1e-3)
    assert trace.tape_entries == want
