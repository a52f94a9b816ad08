"""Execute a benchmark grid and write its result files, and the reports
that ``bench report`` renders again from those files alone."""

import json
import os
from pathlib import Path

from febench.bench.config import (ConfigError, apply_overrides, config_hash,
                                  load_config)
from febench.bench.report import (RESULTS_FILE, TIMING_FILE, TIMING_KEYS,
                                  emit_report, load_results, render_tsv)
from febench.cnn import CnnHead, CnnHeadConfig
from febench.encoders import Encoder
from febench.text import build_vocab, load_dataset, tokenize
from febench.training import default_epochs, run_experiment

OUT_ROOT_VAR = "BENCH_OUT_ROOT"


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


def _check_lengths(config, dataset):
    """Refuse a cell that would encode a document, CLS and SEP included, to
    fewer positions than its largest kernel.  Its max_len covers that
    kernel, so only a short text can.  Documents count from 1 in file
    order; the loader skips blank lines, so the count is not a line number."""
    for split in ("train", "test"):
        sizes = [len(tokenize(ex.text)) + 2 for ex in getattr(dataset, split)]
        for cell in config.cells:
            need = max(cell.kernel_sizes)
            for i, size in enumerate(sizes, start=1):
                if size < need:
                    raise ConfigError(
                        f"cell {cell.cell_id!r}: {split}.jsonl document {i} "
                        f"(blank lines not counted) encodes to {size} "
                        f"positions, fewer than the largest kernel {need}")


def _run_cell(cell, config, dataset, vocab, epochs, digest):
    """The cell's results record; a cell whose training raises is recorded
    as failed, with its error."""
    def make_model(seed):
        encoder = Encoder.from_preset(cell.preset, vocab.size, seed=[seed, 0])
        head_cfg = CnnHeadConfig(hidden=encoder.config.hidden,
                                 classes=len(dataset.label_space),
                                 kernel_sizes=cell.kernel_sizes,
                                 filters=cell.filters)
        head = CnnHead.build(head_cfg, seed=[seed, 1])
        return encoder, head, vocab

    seeds = [config.seed + i for i in range(config.repeats)]
    record = {"cell": cell.cell_id, "preset": cell.preset, "mode": cell.mode,
              "dataset": dataset.name, "task_kind": dataset.task_kind,
              "epochs": epochs, "metrics": {}, "peak_bytes": 0.0,
              "seeds": seeds, "repeats": config.repeats,
              "config_hash": digest, "failed": False, "error": None,
              "epoch_seconds": [], "total_seconds": None}
    try:
        record.update(run_experiment(cell.run_config(epochs), dataset,
                                     make_model, seeds))
    except Exception as exc:
        record.update(failed=True, error=f"{type(exc).__name__}: {exc}")
    return record


def execute(config):
    """One results record per cell, in config order, each also carrying the
    cell's timing keys; cells fail independently and siblings continue."""
    try:
        dataset = load_dataset(config.dataset_path)
    except (OSError, ValueError) as exc:
        raise ConfigError(f"cannot load dataset "
                          f"{config.dataset_path!r}: {exc}") from None
    for split in ("train", "test"):
        if not getattr(dataset, split):
            raise ConfigError(f"dataset {config.dataset_path!r} has an "
                              f"empty {split} split")
    epochs = _resolve_epochs(config, dataset)
    _check_lengths(config, dataset)
    vocab = build_vocab([ex.text for ex in dataset.train],
                        max_size=config.vocab_size)
    digest = config_hash(config)
    return [_run_cell(cell, config, dataset, vocab, epochs[cell.cell_id], digest)
            for cell in config.cells]


def write_outputs(records, out_dir):
    """Write results.jsonl, timing.jsonl, report.tsv, and report.txt.

    results.jsonl carries only deterministic fields so identical reruns
    produce identical bytes; wall-clock numbers live in timing.jsonl. Both
    reports are rendered from those two files as written, with the default
    baseline, so ``bench report`` reproduces them.
    """
    root = Path(out_dir)
    root.mkdir(parents=True, exist_ok=True)

    with open(root / RESULTS_FILE, "w", encoding="utf-8") as results, \
            open(root / TIMING_FILE, "w", encoding="utf-8") as timing:
        for record in records:
            kept = {key: value for key, value in record.items()
                    if key == "cell" or key not in TIMING_KEYS}
            timed = {key: record[key] for key in TIMING_KEYS}
            results.write(json.dumps(kept, sort_keys=True) + "\n")
            timing.write(json.dumps(timed, sort_keys=True) + "\n")

    written = load_results(root)
    # render both before opening either, so an error leaves no empty file
    reports = {"report.tsv": render_tsv(written),
               "report.txt": emit_report(written)}
    for name, text in reports.items():
        (root / name).write_text(text, encoding="utf-8")


def resolve_out_dir(path):
    """Resolve a relative output path under $BENCH_OUT_ROOT when set."""
    root = os.environ.get(OUT_ROOT_VAR)
    if root and not os.path.isabs(path):
        return os.path.join(root, path)
    return path


def run_benchmark(config_path, seed=None, repeats=None, out=None):
    """Load a config, apply overrides, run the grid and write its outputs.

    Returns the results records, as :func:`execute` gives them, and the
    output directory, resolved under ``$BENCH_OUT_ROOT`` when the configured
    path is relative.
    """
    config = apply_overrides(load_config(config_path), seed=seed,
                             repeats=repeats, out=out)
    records = execute(config)
    out_dir = Path(resolve_out_dir(config.out_dir))
    write_outputs(records, out_dir)
    return records, out_dir
