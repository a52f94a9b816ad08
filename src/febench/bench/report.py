"""Render benchmark results as tables.

Three audiences share one set of numbers: ``results.jsonl`` holds the
deterministic per-cell records, ``timing.jsonl`` the wall-clock measurements
(kept apart so reruns with the same config and seed produce byte-identical
result records), and the TSV/text tables render the merged view.
"""

import json
from pathlib import Path

from febench.encoders import param_count, preset_config
from febench.profiling import MissingBaselineError, relative_times

_METRIC_ORDER = ("accuracy", "precision", "recall", "f1")
_NOMINAL_VOCAB = 30000

RESULTS_FILE = "results.jsonl"
TIMING_FILE = "timing.jsonl"


class ReportError(ValueError):
    """Results are missing, malformed, or lack a usable baseline."""


def format_percent(mean, std):
    """Fractions in, percentage cell out: (0.9297, 0.0006) -> '92.97 ± 0.06'."""
    return f"{100.0 * mean:.2f} ± {100.0 * std:.2f}"


def format_mib(byte_count):
    """Bytes to MiB, dropping a zero fractional part (693.00 -> '693')."""
    text = f"{byte_count / 2**20:.2f}"
    return text[:-3] if text.endswith(".00") else text


def format_ratio(value):
    return f"{value:.2f}"


def format_hours(seconds):
    return f"{seconds / 3600.0:.2f}"


def _mean_epoch_seconds(record):
    epochs = record.get("epoch_seconds") or []
    if not epochs:
        return None
    return sum(epochs) / len(epochs)


def default_baseline(records):
    """The largest FE cell, sized by encoder parameter count."""
    best = None
    best_count = -1
    for record in records:
        if record["mode"] != "FE" or record.get("failed"):
            continue
        count = param_count(preset_config(record["preset"], _NOMINAL_VOCAB))
        if count > best_count:
            best, best_count = record["cell"], count
    if best is None:
        raise ReportError("no successful FE cell to serve as the "
                          "relative-time baseline; pass one explicitly")
    return best


def _read_jsonl(path):
    """One JSON object per non-blank line, each naming its ``cell``."""
    records = []
    with open(path, "rb") as fh:
        for number, line in enumerate(fh, start=1):
            if not line.strip():
                continue
            try:
                record = json.loads(line)
            except (json.JSONDecodeError, UnicodeDecodeError) as exc:
                raise ReportError(f"{path}:{number}: {exc}") from None
            if not isinstance(record, dict) or "cell" not in record:
                raise ReportError(f"{path}:{number}: not an object with a "
                                  f"'cell' key")
            records.append(record)
    return records


def load_results(path):
    """Read result records, merging the timing file when present.

    ``path`` may be the results file itself or the directory holding it.
    """
    root = Path(path)
    results_path = root / RESULTS_FILE if root.is_dir() else root
    if not results_path.exists():
        raise ReportError(f"no results at {results_path}")
    records = _read_jsonl(results_path)
    timing_path = results_path.parent / TIMING_FILE
    timing = ({entry["cell"]: entry for entry in _read_jsonl(timing_path)}
              if timing_path.exists() else {})
    for record in records:
        entry = timing.get(record["cell"], {})
        record.setdefault("epoch_seconds", entry.get("epoch_seconds", []))
        record.setdefault("total_seconds", entry.get("total_seconds"))
    return records


def _check_unique_cells(records):
    seen = set()
    for record in records:
        if record["cell"] in seen:
            raise ReportError(f"duplicate cell {record['cell']!r} in results")
        seen.add(record["cell"])


def _resolve_baseline(records, baseline_cell):
    if baseline_cell is None:
        return default_baseline(records)
    by_id = {r["cell"]: r for r in records}
    if baseline_cell not in by_id:
        raise ReportError(f"baseline {baseline_cell!r} is not among the "
                          f"result cells")
    if by_id[baseline_cell].get("failed"):
        raise ReportError(f"baseline {baseline_cell!r} failed; choose "
                          f"another cell")
    return baseline_cell


def _baseline_and_relatives(records, baseline_cell):
    """The resolved baseline cell and each cell's epoch time relative to it.

    Without an explicit baseline, a grid with no usable default gets
    ``(None, {})``; an explicit baseline that cannot serve raises.  The
    relative map is empty when the baseline has no epoch timing.
    """
    try:
        baseline = _resolve_baseline(records, baseline_cell)
    except ReportError:
        if baseline_cell is not None:
            raise
        return None, {}
    epoch_means = {r["cell"]: _mean_epoch_seconds(r) for r in records
                   if not r.get("failed") and _mean_epoch_seconds(r)}
    if baseline not in epoch_means:
        return baseline, {}
    try:
        return baseline, relative_times(epoch_means, baseline)
    except (MissingBaselineError, ValueError):
        return baseline, {}


def _metric_names(records):
    present = set()
    for record in records:
        present.update(record.get("metrics", {}))
    return [name for name in _METRIC_ORDER if name in present]


def _format_table(headers, rows):
    widths = [len(h) for h in headers]
    for row in rows:
        for i, cell in enumerate(row):
            widths[i] = max(widths[i], len(cell))
    lines = []
    for row in [headers] + rows:
        lines.append("  " + "  ".join(cell.ljust(widths[i])
                                      for i, cell in enumerate(row)).rstrip())
    return lines


def _metric_cell(record, name):
    if record.get("failed"):
        return "FAILED"
    entry = record.get("metrics", {}).get(name)
    if entry is None:
        return "-"
    return format_percent(entry["mean"], entry["std"])


def _effectiveness_block(records, task_kind, metric_names, title):
    subset = [r for r in records if r.get("task_kind") == task_kind]
    if not subset or not metric_names:
        return []
    headers = ["cell", "preset", "mode"] + list(metric_names)
    rows = [[r["cell"], r["preset"], r["mode"]]
            + [_metric_cell(r, name) for name in metric_names]
            for r in subset]
    return [title] + _format_table(headers, rows) + [""]


def _provenance_block(records, master_seed):
    hashes = {r.get("config_hash") for r in records} - {None}
    lines = ["provenance"]
    if hashes:
        lines.append("  config hash: " + (hashes.pop() if len(hashes) == 1
                                          else "mixed"))
    if master_seed is not None:
        lines.append(f"  master seed: {master_seed}")
    seeds = "; ".join(
        f"{r['cell']}: {','.join(str(s) for s in r.get('seeds', []))}"
        for r in records)
    lines.append(f"  run seeds: {seeds}")
    lines.append("  precision: float32 training arithmetic")
    lines.append("  memory: peak tracked tensor bytes (parameters, "
                 "gradients, optimizer state, activations), not device VRAM")
    lines.append("  time totals: wall clock including per-epoch test "
                 "evaluation")
    lines.append("  spread: population standard deviation over repeats")
    return lines


def emit_report(records, baseline_cell=None, master_seed=None):
    """Build the human-readable table document."""
    if not records:
        raise ReportError("no result records")
    _check_unique_cells(records)
    metric_names = _metric_names(records)
    datasets = sorted({r.get("dataset", "?") for r in records})
    failed = [r for r in records if r.get("failed")]
    baseline, relatives = _baseline_and_relatives(records, baseline_cell)

    lines = ["text-classification benchmark",
             "=============================",
             "",
             f"dataset: {', '.join(datasets)}",
             f"cells: {len(records)}  failed: {len(failed)}",
             ""]

    single_metrics = [n for n in metric_names if n == "accuracy"]
    multi_metrics = [n for n in metric_names if n != "accuracy"]
    lines += _effectiveness_block(records, "single_label", single_metrics,
                                  "test accuracy (%), mean ± std")
    lines += _effectiveness_block(records, "multi_label", multi_metrics,
                                  "micro precision / recall / F1 (%), "
                                  "mean ± std")

    rows = [[r["cell"], r["preset"], r["mode"],
             "FAILED" if r.get("failed") else format_mib(r["peak_bytes"])]
            for r in records]
    lines += ["peak tracked memory (MiB)"]
    lines += _format_table(["cell", "preset", "mode", "MiB"], rows) + [""]

    lines.append("relative epoch time" + (f" (baseline {baseline})"
                                          if baseline else ""))
    if relatives:
        rows = []
        for r in records:
            value = relatives.get(r["cell"])
            rows.append([r["cell"], r["preset"], r["mode"],
                         format_ratio(value) if value is not None else "-"])
        lines += _format_table(["cell", "preset", "mode", "x baseline"], rows)
    else:
        lines.append("  unavailable (no baseline cell with timing)")
    lines.append("")

    rows = []
    for r in records:
        total = r.get("total_seconds")
        rows.append([r["cell"], r["preset"], r["mode"],
                     format_hours(total) if total is not None else "-"])
    lines += ["total training time (hours)"]
    lines += _format_table(["cell", "preset", "mode", "hours"], rows) + [""]

    if failed:
        lines.append("failed cells")
        for r in failed:
            lines.append(f"  {r['cell']}: FAILED ({r.get('error', '?')})")
        lines.append("")

    lines += _provenance_block(records, master_seed)
    return "\n".join(lines) + "\n"


def render_tsv(records, baseline_cell=None):
    """Tab-separated table with one row per cell."""
    if not records:
        raise ReportError("no result records")
    _check_unique_cells(records)
    metric_names = _metric_names(records)
    _, relatives = _baseline_and_relatives(records, baseline_cell)

    headers = ["cell", "preset", "mode", "status"]
    for name in metric_names:
        headers += [f"{name}_pct_mean", f"{name}_pct_std"]
    headers += ["peak_mib", "mean_epoch_seconds", "relative_epoch_time",
                "total_hours", "seeds"]

    lines = ["\t".join(headers)]
    for r in records:
        failed = r.get("failed", False)
        row = [r["cell"], r["preset"], r["mode"],
               f"FAILED: {r.get('error', '?')}" if failed else "ok"]
        for name in metric_names:
            entry = r.get("metrics", {}).get(name)
            if failed or entry is None:
                row += ["", ""]
            else:
                row += [f"{100.0 * entry['mean']:.2f}",
                        f"{100.0 * entry['std']:.2f}"]
        row.append("" if failed else format_mib(r["peak_bytes"]))
        mean_epoch = _mean_epoch_seconds(r)
        row.append(f"{mean_epoch:.3f}" if mean_epoch is not None else "")
        ratio = relatives.get(r["cell"])
        row.append(format_ratio(ratio) if ratio is not None else "")
        total = r.get("total_seconds")
        row.append(format_hours(total) if total is not None else "")
        row.append(",".join(str(s) for s in r.get("seeds", [])))
        lines.append("\t".join(row))
    return "\n".join(lines) + "\n"
