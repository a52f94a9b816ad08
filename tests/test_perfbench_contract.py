"""The names the benchmark tracer patches, and the result-file keys its CLI
workload reads, must exist in febench.

``perfbench/tracer.py`` wraps febench functions by module and attribute name,
patches ``ComputationRecord.append`` and ``MemoryLedger.record_alloc`` /
``record_free`` on their classes, and reports primitives by kind, and
``perfbench/workloads.py`` reads the records ``bench run`` writes; a rename
in the package would otherwise only surface when the benchmark runs.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from febench import ops, training
from febench.bench.runner import run_benchmark
from febench.bench.synth import SynthSpec, make_synthetic
from febench.cnn import CnnHead, CnnHeadConfig
from febench.encoders import Encoder
from febench.profiling import MemoryLedger
from febench.tensor import ComputationRecord
from febench.text import build_vocab, save_dataset

TRACER_PATH = Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer",
                                                  TRACER_PATH)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER = load_tracer()


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
max_len = 24
kernels = 20
"""


def test_result_files_keep_the_keys_the_cli_workload_reads(tmp_path):
    """``CliWorkload.finish`` reads ``cell``, ``failed``, ``error`` and
    ``peak_bytes`` from results.jsonl and ``epoch_seconds`` from
    timing.jsonl, for a finished and a failed cell alike."""
    save_dataset(make_synthetic(SynthSpec(classes=2, train_docs=8,
                                          test_docs=4, vocab=10, doc_len=8,
                                          seed=1)), tmp_path / "data")
    config = tmp_path / "bench.ini"
    config.write_text(CONFIG.format(data=tmp_path / "data",
                                    out=tmp_path / "out"))
    _, out_dir = run_benchmark(config)
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
    outcome, _ = run_benchmark(config, repeats=2)
    assert len(seen) == 2
    assert seen == outcome.results[0]["seeds"]
