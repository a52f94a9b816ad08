"""Execute a benchmark grid and write its result files."""

from __future__ import annotations

import json
import os
from dataclasses import dataclass
from pathlib import Path
from typing import List

from febench.bench.config import (ConfigError, apply_overrides, config_hash,
                                  load_config)
from febench.bench.report import (RESULTS_FILE, TIMING_FILE, TIMING_KEYS,
                                  emit_report, load_results, render_tsv)
from febench.cnn import CnnHead, CnnHeadConfig
from febench.encoders import Encoder, preset_config
from febench.text import build_vocab, load_dataset
from febench.training import RunConfig, default_epochs, run_experiment

OUT_ROOT_VAR = "BENCH_OUT_ROOT"


@dataclass
class BenchmarkOutcome:
    """The config that ran and one results record per cell, in config
    order; each record also carries the cell's timing keys."""

    config: object
    results: List[dict]

    @property
    def ok(self):
        return not any(r["failed"] for r in self.results)


def _resolve_epochs(config, dataset):
    resolved = {}
    for cell in config.cells:
        epochs = cell.epochs
        if epochs is None:
            epochs = default_epochs(dataset.name, cell.mode)
        if epochs is None:
            raise ConfigError(
                f"cell {cell.cell_id!r} has no epochs and dataset "
                f"{dataset.name!r} has no default; set epochs explicitly")
        resolved[cell.cell_id] = epochs
    return resolved


def _preflight(config):
    for cell in config.cells:
        preset = preset_config(cell.preset, vocab_size=_MIN_VOCAB)
        if preset.kind == "transformer" and cell.max_len > preset.max_positions:
            raise ConfigError(
                f"cell {cell.cell_id!r}: max_len {cell.max_len} exceeds the "
                f"{cell.preset} preset's {preset.max_positions} positions")


_MIN_VOCAB = 5


def _run_cell(cell, config, dataset, vocab, epochs):
    """The cell's results record; a cell whose training raises is recorded
    as failed, with its error."""
    run_cfg = RunConfig(mode=cell.mode, epochs=epochs,
                        batch_size=cell.batch_size,
                        learning_rate=cell.learning_rate,
                        threshold=cell.threshold, max_len=cell.max_len)

    def make_model(seed):
        encoder = Encoder.from_preset(cell.preset, vocab.size,
                                      seed=[seed, 0],
                                      frozen=(cell.mode == "FE"))
        head_cfg = CnnHeadConfig(hidden=encoder.config.hidden,
                                 classes=len(dataset.label_space),
                                 kernel_sizes=cell.kernel_sizes,
                                 filters=cell.filters)
        head = CnnHead.build(head_cfg, seed=[seed, 1])
        return encoder, head, vocab

    seeds = [config.seed + i for i in range(config.repeats)]
    record = {"cell": cell.cell_id, "preset": cell.preset, "mode": cell.mode,
              "dataset": dataset.name, "task_kind": dataset.task_kind,
              "metrics": {}, "peak_bytes": 0.0, "seeds": seeds,
              "repeats": config.repeats, "config_hash": config_hash(config),
              "failed": False, "error": None,
              "epoch_seconds": [], "total_seconds": None}
    try:
        record.update(run_experiment(run_cfg, dataset, make_model, seeds))
    except Exception as exc:
        record.update(failed=True, error=f"{type(exc).__name__}: {exc}")
    return record


def execute(config):
    """Run every cell; cells fail independently and siblings continue."""
    _preflight(config)
    try:
        dataset = load_dataset(config.dataset_path,
                               fmt=config.dataset_format)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load dataset "
                          f"{config.dataset_path!r}: {exc}") from None
    for split in ("train", "test"):
        if not getattr(dataset, split):
            raise ConfigError(f"dataset {config.dataset_path!r} has an "
                              f"empty {split} split")
    epochs = _resolve_epochs(config, dataset)
    vocab = build_vocab([ex.text for ex in dataset.train],
                        max_size=config.vocab_size)
    return BenchmarkOutcome(config=config, results=[
        _run_cell(cell, config, dataset, vocab, epochs[cell.cell_id])
        for cell in config.cells])


def write_outputs(outcome, out_dir):
    """Write results.jsonl, timing.jsonl, report.tsv, and report.txt.

    results.jsonl carries only deterministic fields so identical reruns
    produce identical bytes; wall-clock numbers live in timing.jsonl.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    with open(root / RESULTS_FILE, "w", encoding="utf-8") as results, \
            open(root / TIMING_FILE, "w", encoding="utf-8") as timing:
        for record in outcome.results:
            kept = {key: value for key, value in record.items()
                    if key == "cell" or key not in TIMING_KEYS}
            timed = {key: record[key] for key in TIMING_KEYS}
            results.write(json.dumps(kept, sort_keys=True) + "\n")
            timing.write(json.dumps(timed, sort_keys=True) + "\n")

    records = load_results(root)
    baseline = outcome.config.baseline
    with open(root / "report.tsv", "w", encoding="utf-8") as fh:
        fh.write(render_tsv(records, baseline_cell=baseline))
    with open(root / "report.txt", "w", encoding="utf-8") as fh:
        fh.write(emit_report(records, baseline_cell=baseline,
                             master_seed=outcome.config.seed))


def resolve_out_dir(path):
    """Resolve a relative output path under $BENCH_OUT_ROOT when set."""
    root = os.environ.get(OUT_ROOT_VAR)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def run_benchmark(config_path, seed=None, repeats=None, out=None):
    """Load a config, apply overrides, run the grid and write its outputs.

    Returns the outcome and the output directory, resolved under
    ``$BENCH_OUT_ROOT`` when the configured path is relative.
    """
    config = apply_overrides(load_config(config_path), seed=seed,
                             repeats=repeats, out=out)
    outcome = execute(config)
    out_dir = Path(resolve_out_dir(config.out_dir))
    write_outputs(outcome, out_dir)
    return outcome, out_dir
