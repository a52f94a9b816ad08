"""Render benchmark results as tables.

Three audiences share one set of numbers: ``results.jsonl`` holds the
deterministic per-cell records, ``timing.jsonl`` the wall-clock measurements
(kept apart so reruns with the same config and seed produce byte-identical
result records), and the TSV/text tables render the merged view. The tables
read nothing but those two files, so ``bench report <dir>`` prints the
``report.txt`` that ``bench run`` wrote there.

These files come from outside the program, so :func:`load_results` checks
every record on load: each key the runner writes, with the JSON type it
writes. A malformed line raises :class:`ReportError` naming the file, the
line and the cell, before any table is built.
"""

import math
from pathlib import Path

from febench.encoders import PRESETS, param_count, preset_config
from febench.text import read_jsonl

_METRIC_ORDER = ("accuracy", "precision", "recall", "f1")
_NOMINAL_VOCAB = 30000

RESULTS_FILE = "results.jsonl"
TIMING_FILE = "timing.jsonl"


class ReportError(ValueError):
    """Results are missing, malformed, or lack a usable baseline."""


def _percent(fraction):
    return f"{100.0 * fraction:.2f}"


def format_percent(mean, std):
    """Fractions in, percentage cell out: (0.9297, 0.0006) -> '92.97 ± 0.06'."""
    return f"{_percent(mean)} ± {_percent(std)}"


def format_mib(byte_count):
    """Bytes to MiB, dropping a zero fractional part (693.00 -> '693')."""
    text = f"{byte_count / 2**20:.2f}"
    return text[:-3] if text.endswith(".00") else text


def format_ratio(value):
    return f"{value:.2f}"


def format_hours(seconds):
    return f"{seconds / 3600.0:.2f}"


def default_baseline(records):
    """The largest FE cell, sized by encoder parameter count."""
    best = None
    best_count = -1
    for record in records:
        if record["mode"] != "FE" or record["failed"]:
            continue
        count = param_count(preset_config(record["preset"], _NOMINAL_VOCAB))
        if count > best_count:
            best, best_count = record["cell"], count
    if best is None:
        raise ReportError("no successful FE cell to serve as the "
                          "relative-time baseline; pass one explicitly")
    return best


def _number(value):
    return type(value) in (int, float) and math.isfinite(value)


def _is_metrics(value):
    return isinstance(value, dict) and all(
        isinstance(entry, dict) and _number(entry.get("mean"))
        and _number(entry.get("std")) for entry in value.values())


_TEXT = (lambda v: isinstance(v, str), "a string")
# key -> (test, what its value must be), for every key the runner writes
RESULT_KEYS = {
    **dict.fromkeys(("cell", "mode", "dataset", "task_kind", "config_hash"),
                    _TEXT),
    "preset": (lambda v: isinstance(v, str) and v in PRESETS,
               f"one of {sorted(PRESETS)}"),
    "metrics": (_is_metrics, "an object of {mean, std} numbers"),
    "peak_bytes": (_number, "a number"),
    "seeds": (lambda v: isinstance(v, list)
              and all(type(s) is int for s in v), "a list of integers"),
    "repeats": (lambda v: type(v) is int, "an integer"),
    "failed": (lambda v: isinstance(v, bool), "true or false"),
    "error": (lambda v: v is None or isinstance(v, str), "a string or null"),
}
# epochs are measured durations, so a timed baseline's mean is positive
TIMING_KEYS = {
    "cell": _TEXT,
    "epoch_seconds": (lambda v: isinstance(v, list)
                      and all(_number(s) and s > 0 for s in v),
                      "a list of positive numbers"),
    "total_seconds": (lambda v: v is None or _number(v), "a number or null"),
}


def _check(record, keys, where):
    for key, (test, kind) in keys.items():
        if key not in record or not test(record[key]):
            raise ReportError(f"{where}: cell {record['cell']!r}: {key} is "
                              f"missing or not {kind}")


def _read_records(path):
    """``(path:line, object)`` per non-blank line, each naming its ``cell``."""
    records = []
    for number, record in read_jsonl(path, ReportError):
        if not isinstance(record, dict) or "cell" not in record:
            raise ReportError(f"{path}:{number}: not an object with a "
                              f"'cell' key")
        records.append((f"{path}:{number}", record))
    return records


def load_results(path):
    """Read and check result records, merging the timing file when present.

    ``path`` may be the results file itself or the directory holding it.
    """
    root = Path(path)
    results_path = root / RESULTS_FILE if root.is_dir() else root
    if not results_path.exists():
        raise ReportError(f"no results at {results_path}")
    results = _read_records(results_path)
    timing_path = results_path.parent / TIMING_FILE
    timing = {}
    for where, entry in (_read_records(timing_path) if timing_path.exists()
                         else []):
        entry.setdefault("total_seconds", None)
        _check(entry, TIMING_KEYS, where)
        timing[entry["cell"]] = entry
    for where, record in results:
        _check(record, RESULT_KEYS, where)
        entry = timing.get(record["cell"], {})
        record.setdefault("epoch_seconds", entry.get("epoch_seconds", []))
        record.setdefault("total_seconds", entry.get("total_seconds"))
        _check(record, TIMING_KEYS, where)
    return [record for _, record in results]


def _baseline(records, baseline_cell):
    """The explicit baseline cell, or else the default one; None when the
    grid has no default. An explicit baseline that is not a result cell
    raises; one that failed or has no timing leaves relative times
    unavailable."""
    if baseline_cell is None:
        try:
            return default_baseline(records)
        except ReportError:
            return None
    if baseline_cell not in {r["cell"] for r in records}:
        raise ReportError(f"baseline {baseline_cell!r} is not among the "
                          f"result cells")
    return baseline_cell


def _rows(records, baseline_cell):
    """The resolved baseline and each cell's values for both tables; a value
    the cell lacks, such as a failed cell's memory, is None."""
    if not records:
        raise ReportError("no result records")
    seen = set()
    for record in records:
        if record["cell"] in seen:
            raise ReportError(f"duplicate cell {record['cell']!r} in results")
        seen.add(record["cell"])
    baseline = _baseline(records, baseline_cell)
    means = {r["cell"]: (sum(r["epoch_seconds"]) / len(r["epoch_seconds"])
                         if r["epoch_seconds"] else None) for r in records}
    timed = {r["cell"]: means[r["cell"]] for r in records
             if not r["failed"] and means[r["cell"]]}
    relatives = ({cell: mean / timed[baseline]
                  for cell, mean in timed.items()}
                 if baseline in timed else {})
    rows = []
    for r in records:
        mean, ratio = means[r["cell"]], relatives.get(r["cell"])
        rows.append({
            "cell": r["cell"], "preset": r["preset"], "mode": r["mode"],
            "task_kind": r["task_kind"], "failed": r["failed"],
            "error": r["error"],
            "metrics": {} if r["failed"] else r["metrics"],
            "mib": None if r["failed"] else format_mib(r["peak_bytes"]),
            "epoch": None if mean is None else f"{mean:.3f}",
            "relative": None if ratio is None else format_ratio(ratio),
            "hours": (None if r["total_seconds"] is None
                      else format_hours(r["total_seconds"])),
            "seeds": ",".join(str(s) for s in r["seeds"])})
    return baseline, rows


def _metric_names(records):
    present = set()
    for record in records:
        present.update(record["metrics"])
    return [name for name in _METRIC_ORDER if name in present]


def _table(title, rows, headers, values):
    """A titled table: each row's cell, preset and mode, then its entry of
    ``values`` under ``headers``."""
    table = [["cell", "preset", "mode"] + headers] + [
        [row["cell"], row["preset"], row["mode"]] + value
        for row, value in zip(rows, values)]
    widths = [max(len(line[i]) for line in table)
              for i in range(len(table[0]))]
    return [title] + ["  " + "  ".join(
        cell.ljust(width) for cell, width in zip(line, widths)).rstrip()
        for line in table] + [""]


def _metric_cell(row, name):
    if row["failed"]:
        return "FAILED"
    entry = row["metrics"].get(name)
    return "-" if entry is None else format_percent(entry["mean"],
                                                    entry["std"])


def emit_report(records, baseline_cell=None):
    """Build the human-readable table document."""
    baseline, rows = _rows(records, baseline_cell)
    names = _metric_names(records)
    failed = [row for row in rows if row["failed"]]
    lines = ["text-classification benchmark",
             "=============================",
             "",
             f"dataset: {', '.join(sorted({r['dataset'] for r in records}))}",
             f"cells: {len(rows)}  failed: {len(failed)}",
             ""]
    for kind, kind_names, title in (
            ("single_label", [n for n in names if n == "accuracy"],
             "test accuracy (%), mean ± std"),
            ("multi_label", [n for n in names if n != "accuracy"],
             "micro precision / recall / F1 (%), mean ± std")):
        subset = [row for row in rows if row["task_kind"] == kind]
        if subset and kind_names:
            lines += _table(title, subset, kind_names,
                            [[_metric_cell(row, n) for n in kind_names]
                             for row in subset])
    lines += _table("peak tracked memory (MiB)", rows, ["MiB"],
                    [["FAILED" if row["failed"] else row["mib"]]
                     for row in rows])
    title = "relative epoch time" + (f" (baseline {baseline})"
                                     if baseline else "")
    if any(row["relative"] for row in rows):
        lines += _table(title, rows, ["x baseline"],
                        [[row["relative"] or "-"] for row in rows])
    else:
        lines += [title, "  unavailable (no baseline cell with timing)", ""]
    lines += _table("total training time (hours)", rows, ["hours"],
                    [[row["hours"] or "-"] for row in rows])
    if failed:
        lines += (["failed cells"]
                  + [f"  {row['cell']}: FAILED ({row['error']})"
                     for row in failed] + [""])

    hashes = {r["config_hash"] for r in records}
    lines += [
        "provenance",
        "  config hash: " + (hashes.pop() if len(hashes) == 1 else "mixed"),
        "  run seeds: " + "; ".join(f"{row['cell']}: {row['seeds']}"
                                    for row in rows),
        "  precision: float32 training arithmetic",
        "  memory: peak tracked tensor bytes (parameters, gradients, "
        "optimizer state, activations), not device VRAM",
        "  time totals: wall clock including per-epoch test evaluation",
        "  spread: population standard deviation over repeats"]
    return "\n".join(lines) + "\n"


def render_tsv(records, baseline_cell=None):
    """Tab-separated table with one row per cell."""
    _, rows = _rows(records, baseline_cell)
    names = _metric_names(records)
    headers = (["cell", "preset", "mode", "status"]
               + [f"{name}_pct_{stat}" for name in names
                  for stat in ("mean", "std")]
               + ["peak_mib", "mean_epoch_seconds", "relative_epoch_time",
                  "total_hours", "seeds"])
    lines = ["\t".join(headers)]
    for row in rows:
        fields = [row["cell"], row["preset"], row["mode"],
                  f"FAILED: {row['error']}" if row["failed"] else "ok"]
        for name in names:
            entry = row["metrics"].get(name)
            fields += (["", ""] if entry is None else
                       [_percent(entry["mean"]), _percent(entry["std"])])
        fields += [row[key] or "" for key in ("mib", "epoch", "relative",
                                              "hours", "seeds")]
        lines.append("\t".join(fields))
    return "\n".join(lines) + "\n"
