"""The names the benchmark tracer patches, and the result-file keys its CLI
workload reads, must exist in febench.

``perfbench/tracer.py`` wraps febench functions by module and attribute name
and reports primitives by kind, and ``perfbench/workloads.py`` reads the
records ``bench run`` writes; a rename in the package would otherwise only
surface when the benchmark runs.
"""

import importlib
import importlib.util
import json
from pathlib import Path

import pytest

from febench import ops
from febench.bench.runner import run_benchmark
from febench.bench.synth import SynthSpec, make_synthetic
from febench.text import save_dataset

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
max_len = 12
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
