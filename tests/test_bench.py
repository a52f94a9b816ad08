"""Benchmark driver: config files, synthetic data, reports, runner, CLI."""

import hashlib
import json
import os
import re
import subprocess
import sys
import textwrap
import warnings
from pathlib import Path

import pytest

import febench
from febench.bench.cli import main
from febench.bench.config import (_BENCH_FIELDS, _CELL_FIELDS,
                                  BenchmarkConfig, CellSpec, ConfigError,
                                  apply_overrides, config_hash, load_config,
                                  read_ini)
from febench.bench.report import (ReportError, default_baseline, emit_report,
                                  format_hours, format_mib, format_percent,
                                  format_ratio, load_results, render_tsv)
from febench.bench.runner import execute, resolve_out_dir, run_benchmark
from febench.bench.synth import (_SPEC_FIELDS, SynthSpec, SynthesisError,
                                 load_synth_spec, make_synthetic)
from febench.cnn import CnnHeadConfig
from febench.metrics import label_density
from febench.text import load_dataset, save_dataset
from febench.training import RunConfig


def write_config(tmp_path, body, name="bench.ini"):
    path = tmp_path / name
    path.write_text(textwrap.dedent(body))
    return path


FULL_CONFIG = """\
    [benchmark]
    dataset = data/kw
    repeats = 2
    seed = 11
    out = runs/kw
    vocab = 500

    [cell:small-fe]
    preset = tiny
    mode = FE
    epochs = 4
    batch = 8
    lr = 1e-4
    threshold = 0.4
    max_len = 32
    kernels = 2,3
    filters = 16

    [cell:small-fit]
    preset = tiny
    mode = FiT
    epochs = 2
    """


class TestConfig:
    def test_full_parse(self, tmp_path):
        config = load_config(write_config(tmp_path, FULL_CONFIG))
        assert config.dataset_path == "data/kw"
        assert config.repeats == 2
        assert config.seed == 11
        assert config.out_dir == "runs/kw"
        assert config.vocab_size == 500
        assert [c.cell_id for c in config.cells] == ["small-fe", "small-fit"]
        fe = config.cells[0]
        assert (fe.preset, fe.mode, fe.epochs) == ("tiny", "FE", 4)
        assert fe.batch_size == 8
        assert fe.learning_rate == pytest.approx(1e-4)
        assert fe.threshold == pytest.approx(0.4)
        assert fe.kernel_sizes == (2, 3)
        assert fe.filters == 16

    def test_defaults(self, tmp_path):
        config = load_config(write_config(tmp_path, """\
            [benchmark]
            dataset = d

            [cell:a]
            preset = static
            mode = FE
            """))
        assert config.repeats == 3
        assert config.seed == 0
        cell = config.cells[0]
        assert cell.epochs is None
        assert cell.batch_size is None
        assert cell.learning_rate == pytest.approx(5e-5)
        assert cell.max_len == 200
        assert cell.kernel_sizes == (3, 4, 5, 6)
        assert cell.filters == 100

    @pytest.mark.parametrize("body, fragment", [
        ("[cell:a]\npreset = tiny\nmode = FE\n", "benchmark"),
        ("[benchmark]\nrepeats = 1\n\n[cell:a]\npreset = tiny\nmode = FE\n",
         "dataset"),
        ("[benchmark]\ndataset = d\n", "no cells"),
        ("[benchmark]\ndataset = d\n\n[extra]\nx = 1\n", "unexpected"),
        ("[benchmark]\ndataset = d\nbogus = 1\n\n[cell:a]\npreset = tiny\n"
         "mode = FE\n", "unknown keys"),
        ("[benchmark]\ndataset = d\nparallel = 2\n\n[cell:a]\npreset = tiny\n"
         "mode = FE\n", "unknown keys"),
        ("[benchmark]\ndataset = d\nformat = jsonl\n\n[cell:a]\n"
         "preset = tiny\nmode = FE\n", "unknown keys: format"),
        ("[benchmark]\ndataset = d\nrepeats = much\n\n[cell:a]\n"
         "preset = tiny\nmode = FE\n", "not an integer"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = huge\nmode = FE\n",
         "preset"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\n"
         "mode = partial\n", "mode"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\nmode = FE\n", "preset"),
        ("[benchmark]\ndataset = d\nbaseline = ghost\n\n[cell:a]\n"
         "preset = tiny\nmode = FE\n", "unknown keys: baseline"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\nmode = FE\n"
         "kernels = 3;4\n", "kernels"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\nmode = FE\n"
         "threshold = 1.5\n", "threshold"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\nmode = FE\n"
         "lr = fast\n", "not a number"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\nmode = FE\n"
         "kernels = 3,x\n", "kernels"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\nmode = FE\n"
         "max_len = 4\n", "'a': max_len 4 is shorter than the largest kernel 6"),
        ("dataset = d\n[benchmark]\n\n[cell:a]\npreset = tiny\nmode = FE\n",
         "cannot parse"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\nmode = FE\n"
         "lr = inf\n", "'a': learning_rate must be finite"),
        ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\nmode = FE\n"
         "max_len = 201\n", "'a': max_len 201 exceeds the tiny preset's 200 "
         "positions"),
        ("[benchmark]\ndataset = d\nseed = -1\n\n[cell:a]\npreset = tiny\n"
         "mode = FE\n", "seed must be >= 0"),
    ])
    def test_rejects(self, tmp_path, body, fragment):
        with pytest.raises(ConfigError, match=fragment):
            load_config(write_config(tmp_path, body))

    @pytest.mark.parametrize("mode", ["FE", "FiT"])
    def test_unset_cell_values_are_the_library_defaults(self, mode):
        cell = CellSpec(cell_id="a", preset="tiny", mode=mode)
        assert cell.run_config(3) == RunConfig(mode=mode, epochs=3)
        head = CnnHeadConfig(hidden=8, classes=2)
        assert (cell.kernel_sizes, cell.filters) == (head.kernel_sizes,
                                                     head.filters)

    @pytest.mark.parametrize("field, value", [
        ("filters", 2.5), ("filters", True), ("kernel_sizes", (3, 4.0))])
    def test_cell_refuses_non_integer_head_sizes(self, field, value):
        """A cell checks its head's kernels by the library's rule, which
        refuses a float or a bool."""
        with pytest.raises(ConfigError, match="cell 'a': .* must be an integer"):
            CellSpec(cell_id="a", preset="tiny", mode="FE", **{field: value})

    @pytest.mark.parametrize("kind", ["float", "bool"])
    @pytest.mark.parametrize("field, name", [
        ("repeats", "repeats"), ("seed", "seed"), ("vocab_size", "vocab")])
    def test_counts_must_be_integers(self, field, name, kind):
        """A float or a bool count is refused when the config is built,
        even where its value would be a valid count."""
        counts = dict(repeats=2, seed=3, vocab_size=100)
        counts[field] = float(counts[field]) if kind == "float" else True
        with pytest.raises(ConfigError,
                           match=f"{name} must be >= \\d+ and an integer, got "):
            BenchmarkConfig(dataset_path="d", cells=(
                CellSpec(cell_id="a", preset="tiny", mode="FE"),), **counts)

    def test_missing_file(self, tmp_path):
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(tmp_path / "absent.ini")

    def test_undecodable_file(self, tmp_path):
        path = tmp_path / "latin1.ini"
        path.write_bytes(b"[benchmark]\ndataset = caf\xe9\n")
        with pytest.raises(ConfigError, match="cannot read"):
            load_config(path)

    def test_overrides(self, tmp_path):
        config = load_config(write_config(tmp_path, FULL_CONFIG))
        updated = apply_overrides(config, seed=99, out="elsewhere")
        assert updated.seed == 99
        assert updated.out_dir == "elsewhere"
        assert updated.repeats == config.repeats
        assert apply_overrides(config) is config

    def test_hash_ignores_out_dir_and_parallel(self, tmp_path, monkeypatch):
        """The digest, derived by hand, is the SHA-256 of the sorted-key
        JSON of FULL_CONFIG's cells with every default filled in, its
        repeats, seed and vocab, and ``{"test": <sha256 of test.jsonl>,
        "train": <sha256 of train.jsonl>}`` as ``dataset``; the removed
        ``parallel`` key and the output directory are not in it."""
        data = tmp_path / "data" / "kw"
        data.mkdir(parents=True)
        (data / "train.jsonl").write_bytes(
            b'{"text": "alpha beta gamma", "labels": ["x"]}\n')
        (data / "test.jsonl").write_bytes(
            b'{"text": "beta gamma", "labels": ["y"]}\n')
        monkeypatch.chdir(tmp_path)
        config = load_config(write_config(tmp_path, FULL_CONFIG))
        assert config_hash(config) == (
            "56ab4e367d128d7c22e76352d926b35ff9f8b022f16fb7caf3a2f786768064f8")
        assert config_hash(config) == config_hash(
            apply_overrides(config, out="other"))
        assert config_hash(config) != config_hash(
            apply_overrides(config, seed=12))

    def test_duplicate_cell_section(self, tmp_path):
        body = ("[benchmark]\ndataset = d\n\n[cell:a]\npreset = tiny\n"
                "mode = FE\n\n[cell:a]\npreset = tiny\nmode = FiT\n")
        with pytest.raises(ConfigError):
            load_config(write_config(tmp_path, body))


class TestSynthSingleLabel:
    SPEC = SynthSpec(task_kind="single_label", classes=3, train_docs=30,
                     test_docs=9, vocab=20, doc_len=8, seed=5, name="kw")

    def test_deterministic(self):
        assert make_synthetic(self.SPEC) == make_synthetic(self.SPEC)

    def test_sizes_and_labels(self):
        ds = make_synthetic(self.SPEC)
        assert len(ds.train) == 30 and len(ds.test) == 9
        assert ds.label_space == ("c0", "c1", "c2")
        assert ds.task_kind == "single_label"
        assert {ex.labels for ex in ds.train} == {frozenset({l})
                                                 for l in ds.label_space}

    def test_marker_identifies_class(self):
        """Marker tokens appear exactly in documents of their class."""
        ds = make_synthetic(self.SPEC)
        for ex in ds.train + ds.test:
            label = next(iter(ex.labels))
            tokens = ex.text.split()
            markers = [t for t in tokens if t.startswith("topic")]
            assert markers == [f"topic{label[1:]}"]
            assert len(tokens) == 8

    def test_seed_changes_content(self):
        from dataclasses import replace
        a = make_synthetic(self.SPEC)
        b = make_synthetic(replace(self.SPEC, seed=6))
        assert a != b


class TestSynthMultiLabel:
    def test_density_target_met(self):
        spec = SynthSpec(task_kind="multi_label", classes=5, train_docs=200,
                         test_docs=100, vocab=30, doc_len=10, density=2.0,
                         seed=3)
        ds = make_synthetic(spec)
        assert abs(label_density(ds) - 2.0) <= 0.2

    def test_density_three(self):
        spec = SynthSpec(task_kind="multi_label", classes=4, train_docs=300,
                         test_docs=100, vocab=30, doc_len=10, density=3.0,
                         seed=9)
        assert abs(label_density(make_synthetic(spec)) - 3.0) <= 0.2

    def test_markers_match_labels(self):
        spec = SynthSpec(task_kind="multi_label", classes=4, train_docs=60,
                         test_docs=20, vocab=25, doc_len=9, density=2.0,
                         seed=1)
        ds = make_synthetic(spec)
        for ex in ds.train + ds.test:
            markers = {t for t in ex.text.split() if t.startswith("topic")}
            assert markers == {f"topic{l[1:]}" for l in ex.labels}
            assert len(ex.labels) >= 1

    @pytest.mark.parametrize("kwargs", [
        dict(classes=1),
        dict(train_docs=1, classes=2),
        dict(task_kind="multi_label", density=None),
        dict(task_kind="multi_label", density=0.5),
        dict(task_kind="multi_label", classes=5, density=6.0),
        dict(task_kind="multi_label", classes=5, density=2.0, doc_len=4),
        dict(task_kind="single_label", density=2.0),
        dict(task_kind="ranking"),
    ])
    def test_infeasible_specs(self, kwargs):
        base = dict(task_kind="single_label", classes=2, train_docs=20,
                    test_docs=5, vocab=10, doc_len=8, density=None)
        base.update(kwargs)
        with pytest.raises(SynthesisError):
            SynthSpec(**base)

    @pytest.mark.parametrize("kind", ["float", "bool"])
    @pytest.mark.parametrize("field", ["classes", "train_docs", "test_docs",
                                       "vocab", "doc_len", "seed"])
    def test_counts_must_be_integers(self, field, kind):
        """A float count is refused when the spec is built, not later by a
        bare ``TypeError`` or a corpus of fractional size; so is a bool,
        even where its value would be a valid count."""
        base = dict(classes=2, train_docs=20, test_docs=5, vocab=10,
                    doc_len=8, seed=1)
        base[field] = base[field] + 0.5 if kind == "float" else True
        with pytest.raises(SynthesisError,
                           match=f"{field} must be >= \\d+ and an integer, got "):
            SynthSpec(**base)


class TestSynthFiles:
    def test_written_files_load_back(self, tmp_path):
        spec = SynthSpec(classes=2, train_docs=12, test_docs=6, vocab=15,
                         doc_len=8, seed=2, name="disk")
        save_dataset(make_synthetic(spec), tmp_path / "disk")
        ds = load_dataset(tmp_path / "disk")
        assert ds.task_kind == "single_label"
        assert len(ds.train) == 12
        assert ds.label_space == ("c0", "c1")

    def test_repeat_writes_identical_bytes(self, tmp_path):
        spec = SynthSpec(classes=2, train_docs=10, test_docs=5, vocab=15,
                         doc_len=8, seed=4)
        save_dataset(make_synthetic(spec), tmp_path / "a")
        save_dataset(make_synthetic(spec), tmp_path / "b")
        assert ((tmp_path / "a" / "train.jsonl").read_bytes()
                == (tmp_path / "b" / "train.jsonl").read_bytes())
        assert ((tmp_path / "a" / "test.jsonl").read_bytes()
                == (tmp_path / "b" / "test.jsonl").read_bytes())

    def test_spec_file_round_trip(self, tmp_path):
        path = tmp_path / "multi.ini"
        path.write_text(textwrap.dedent("""\
            [synthetic]
            task = multi_label
            classes = 5
            train = 40
            test = 10
            vocab = 25
            doc_len = 9
            density = 2.0
            seed = 7
            """))
        spec = load_synth_spec(path)
        assert spec.task_kind == "multi_label"
        assert spec.classes == 5
        assert spec.density == pytest.approx(2.0)
        assert spec.name == "multi"
        assert load_synth_spec(path, seed=50).seed == 50

    @pytest.mark.parametrize("spec, digests", [
        (SynthSpec(task_kind="multi_label", classes=5, train_docs=40,
                   test_docs=10, vocab=25, doc_len=9, density=2.0, seed=7),
         ("249ac4bf0a71699bf11012c30c97cce2e13a1ed95e0d8bde32ef3a26a9871802",
          "774498b30d46e0958def13575315a9444c996921cb1ed2520b0e886fcef296a1")),
        (SynthSpec(classes=2, train_docs=4, test_docs=2, vocab=2**63,
                   doc_len=6, seed=3),
         ("32e012a6c4b3cb4df78f643111f456723a3e90e91c38faa5613113bc5bc8ee74",
          "77589cb9d17587a9ea88f09309fcc2167d8e45edbc9b7e02bc83a65e045751e1")),
    ], ids=["multi-label", "largest-vocab"])
    def test_written_bytes_are_pinned(self, tmp_path, spec, digests):
        """Generation is byte-identical for a seed: the SHA-256 of each
        split's file was derived from the generator that formatted every
        drawn id afresh.  The largest vocab draws ids up to 2**63 - 1 and
        formats only the few it draws."""
        save_dataset(make_synthetic(spec), tmp_path)
        assert tuple(
            hashlib.sha256((tmp_path / f"{split}.jsonl").read_bytes())
            .hexdigest() for split in ("train", "test")) == digests

    def test_spec_unknown_key(self, tmp_path):
        path = tmp_path / "bad.ini"
        path.write_text("[synthetic]\nclasses = 2\nshape = round\n")
        with pytest.raises(SynthesisError, match="unknown keys"):
            load_synth_spec(path)

    @pytest.mark.parametrize("body, fragment", [
        ("[synthetic]\nclasses = two\n", "not an integer"),
        ("[synthetic]\ntask = multi_label\ndensity = high\n",
         "not a number"),
        ("[spec]\nclasses = 2\n", r"\[synthetic\] section"),
        (None, "cannot read"),
    ])
    def test_spec_rejects(self, tmp_path, body, fragment):
        path = tmp_path / "spec.ini"
        if body is not None:
            path.write_text(body)
        with pytest.raises(SynthesisError, match=fragment):
            load_synth_spec(path)


README = Path(__file__).resolve().parents[1] / "README.md"


class TestReadmeExamples:
    def test_ini_blocks_load_and_name_every_key(self, tmp_path):
        """README's example config and spec parse as written, and between
        them document every key the two readers accept."""
        blocks = re.findall(r"```ini\n(.*?)```", README.read_text(), re.S)
        named = {"benchmark": set(), "cell": set(), "synthetic": set()}
        for i, block in enumerate(blocks):
            path = tmp_path / f"block{i}.ini"
            path.write_text(block)
            parser = read_ini(path, ValueError, "README block")
            if "synthetic" in parser:
                load_synth_spec(path)
            else:
                load_config(path)
            for section in parser.sections():
                named[section.split(":")[0]].update(parser[section])
        assert named == {"benchmark": set(_BENCH_FIELDS),
                         "cell": set(_CELL_FIELDS),
                         "synthetic": set(_SPEC_FIELDS)}


def forced_record(cell, preset, mode, *, accuracy=(0.9297, 0.0006),
                  peak_mib=693.0, epoch_seconds=(10.0,), total=5400.0,
                  task_kind="single_label", **extra):
    record = {"cell": cell, "preset": preset, "mode": mode,
              "dataset": "forced", "task_kind": task_kind,
              "metrics": {"accuracy": {"mean": accuracy[0],
                                       "std": accuracy[1]}},
              "peak_bytes": peak_mib * 2**20, "seeds": [1, 2, 3],
              "repeats": 3, "epochs": 12, "config_hash": "cafe",
              "failed": False, "error": None,
              "epoch_seconds": list(epoch_seconds), "total_seconds": total}
    record.update(extra)
    return record


class TestFormatting:
    def test_percent_cell(self):
        assert format_percent(0.9297, 0.0006) == "92.97 ± 0.06"

    def test_mib_whole(self):
        assert format_mib(693 * 2**20) == "693"

    def test_mib_fractional(self):
        assert format_mib(int(2.37 * 2**20)) == "2.37"

    def test_ratio(self):
        assert format_ratio(26.2 / 10.0) == "2.62"

    def test_hours(self):
        assert format_hours(5400.0) == "1.50"


class TestEmitReport:
    def test_forced_values_render_as_expected(self):
        records = [forced_record("base-fe", "base", "FE"),
                   forced_record("base-fit", "base", "FiT",
                                 epoch_seconds=(26.2,), total=9000.0)]
        doc = emit_report(records)
        assert "92.97 ± 0.06" in doc
        assert "693" in doc
        assert "2.62" in doc
        assert "1.00" in doc
        assert "1.50" in doc
        assert "baseline base-fe" in doc
        assert "config hash: cafe" in doc
        assert "population standard deviation" in doc
        assert "float32" in doc
        assert "not device VRAM" in doc

    def test_one_row_per_cell(self):
        records = [forced_record("only", "tiny", "FE")]
        doc = emit_report(records)
        assert doc.count("only") >= 3
        assert "± " in doc

    def test_multi_label_block(self):
        record = forced_record("m", "tiny", "FE", task_kind="multi_label")
        record["metrics"] = {name: {"mean": 0.5, "std": 0.01}
                             for name in ("precision", "recall", "f1")}
        doc = emit_report([record])
        assert "precision" in doc and "f1" in doc
        assert "50.00 ± 1.00" in doc

    def test_failed_cell_marked(self):
        bad = forced_record("bad", "tiny", "FiT")
        bad["failed"] = True
        bad["error"] = "TrainingDivergedError: boom"
        doc = emit_report([forced_record("good", "tiny", "FE"), bad])
        assert "FAILED" in doc
        assert "boom" in doc

    def test_duplicate_cells_rejected(self):
        records = [forced_record("x", "tiny", "FE")] * 2
        with pytest.raises(ReportError, match="duplicate"):
            emit_report(records)

    def test_unknown_baseline_rejected(self):
        with pytest.raises(ReportError, match="baseline"):
            emit_report([forced_record("a", "tiny", "FE")], baseline_cell="z")

    def test_empty_rejected(self):
        with pytest.raises(ReportError):
            emit_report([])


class TestDefaultBaseline:
    def test_picks_largest_fe_cell(self):
        records = [forced_record("t", "tiny", "FE"),
                   forced_record("deep", "L-12", "FE"),
                   forced_record("big", "base", "FiT")]
        assert default_baseline(records) == "deep"

    def test_requires_an_fe_cell(self):
        with pytest.raises(ReportError, match="FE"):
            default_baseline([forced_record("big", "base", "FiT")])

    def test_skips_failed_cells(self):
        broken = forced_record("deep", "L-12", "FE")
        broken["failed"] = True
        records = [forced_record("t", "tiny", "FE"), broken]
        assert default_baseline(records) == "t"


class TestResultsFiles:
    def test_load_merges_timing(self, tmp_path):
        record = forced_record("a", "tiny", "FE")
        timing = {"cell": "a", "epoch_seconds": record.pop("epoch_seconds"),
                  "total_seconds": record.pop("total_seconds")}
        (tmp_path / "results.jsonl").write_text(
            json.dumps(record, sort_keys=True) + "\n")
        (tmp_path / "timing.jsonl").write_text(
            json.dumps(timing, sort_keys=True) + "\n")
        loaded = load_results(tmp_path)
        assert loaded[0]["epoch_seconds"] == [10.0]
        assert loaded[0]["total_seconds"] == 5400.0

    def test_missing_results(self, tmp_path):
        with pytest.raises(ReportError, match="no results"):
            load_results(tmp_path / "nowhere.jsonl")

    def test_tsv_matches_records_to_formatting_precision(self):
        records = [forced_record("a", "tiny", "FE"),
                   forced_record("b", "tiny", "FiT",
                                 accuracy=(0.91115, 0.002),
                                 epoch_seconds=(26.2,))]
        tsv = render_tsv(records)
        lines = tsv.strip().split("\n")
        header = lines[0].split("\t")
        rows = [dict(zip(header, line.split("\t"))) for line in lines[1:]]
        for record, row in zip(records, rows):
            acc = record["metrics"]["accuracy"]
            assert row["accuracy_pct_mean"] == f"{100 * acc['mean']:.2f}"
            assert row["accuracy_pct_std"] == f"{100 * acc['std']:.2f}"
            assert row["peak_mib"] == format_mib(record["peak_bytes"])
            assert row["total_hours"] == format_hours(
                record["total_seconds"])
        assert rows[0]["relative_epoch_time"] == "1.00"
        assert rows[1]["relative_epoch_time"] == "2.62"
        assert rows[0]["seeds"] == "1,2,3"


def mixed_grid():
    """Records as ``load_results`` returns them: a single-label FE/FiT pair,
    a multi-label cell, a failed cell and a cell without timing."""
    multi = forced_record("multi", "tiny", "FE", task_kind="multi_label",
                          peak_mib=2.37, epoch_seconds=(4.0, 6.0), total=600.0)
    multi["metrics"] = {"f1": {"mean": 0.5, "std": 0.01},
                        "precision": {"mean": 0.625, "std": 0.0125},
                        "recall": {"mean": 0.41, "std": 0.0}}
    return [forced_record("base-fe", "base", "FE"),
            forced_record("base-fit", "base", "FiT",
                          accuracy=(0.91115, 0.002),
                          epoch_seconds=(26.2, 24.8), total=9000.0),
            multi,
            forced_record("broken", "tiny", "FiT", peak_mib=0.0,
                          epoch_seconds=(), total=0.0, metrics={},
                          failed=True,
                          error="ShapeMismatchError: kernel 20 > 12"),
            forced_record("untimed", "static", "FE", epoch_seconds=(),
                          total=None, seeds=[7])]


def fit_only_grid():
    """No FE cell, so no default baseline."""
    return [r for r in mixed_grid() if r["mode"] == "FiT"]


PROVENANCE_TAIL = """\
  precision: float32 training arithmetic
  memory: peak tracked tensor bytes (parameters, gradients, optimizer state, activations), not device VRAM
  time totals: wall clock including per-epoch test evaluation
  spread: population standard deviation over repeats
"""

MIXED_HEAD = """\
text-classification benchmark
=============================

dataset: forced
cells: 5  failed: 1

test accuracy (%), mean ± std
  cell      preset  mode  accuracy
  base-fe   base    FE    92.97 ± 0.06
  base-fit  base    FiT   91.11 ± 0.20
  broken    tiny    FiT   FAILED
  untimed   static  FE    92.97 ± 0.06

micro precision / recall / F1 (%), mean ± std
  cell   preset  mode  precision     recall        f1
  multi  tiny    FE    62.50 ± 1.25  41.00 ± 0.00  50.00 ± 1.00

peak tracked memory (MiB)
  cell      preset  mode  MiB
  base-fe   base    FE    693
  base-fit  base    FiT   693
  multi     tiny    FE    2.37
  broken    tiny    FiT   FAILED
  untimed   static  FE    693

"""

MIXED_TAIL = """\
total training time (hours)
  cell      preset  mode  hours
  base-fe   base    FE    1.50
  base-fit  base    FiT   2.50
  multi     tiny    FE    0.17
  broken    tiny    FiT   0.00
  untimed   static  FE    -

failed cells
  broken: FAILED (ShapeMismatchError: kernel 20 > 12)

provenance
  config hash: cafe
  run seeds: base-fe: 1,2,3; base-fit: 1,2,3; multi: 1,2,3; broken: 1,2,3; untimed: 7
""" + PROVENANCE_TAIL

GOLDEN_REPORTS = {
    ("mixed", None): MIXED_HEAD + """\
relative epoch time (baseline base-fe)
  cell      preset  mode  x baseline
  base-fe   base    FE    1.00
  base-fit  base    FiT   2.55
  multi     tiny    FE    0.50
  broken    tiny    FiT   -
  untimed   static  FE    -

""" + MIXED_TAIL,
    ("mixed", "base-fit"): MIXED_HEAD + """\
relative epoch time (baseline base-fit)
  cell      preset  mode  x baseline
  base-fe   base    FE    0.39
  base-fit  base    FiT   1.00
  multi     tiny    FE    0.20
  broken    tiny    FiT   -
  untimed   static  FE    -

""" + MIXED_TAIL,
    ("mixed", "untimed"): MIXED_HEAD + """\
relative epoch time (baseline untimed)
  unavailable (no baseline cell with timing)

""" + MIXED_TAIL,
    ("fit-only", None): """\
text-classification benchmark
=============================

dataset: forced
cells: 2  failed: 1

test accuracy (%), mean ± std
  cell      preset  mode  accuracy
  base-fit  base    FiT   91.11 ± 0.20
  broken    tiny    FiT   FAILED

peak tracked memory (MiB)
  cell      preset  mode  MiB
  base-fit  base    FiT   693
  broken    tiny    FiT   FAILED

relative epoch time
  unavailable (no baseline cell with timing)

total training time (hours)
  cell      preset  mode  hours
  base-fit  base    FiT   2.50
  broken    tiny    FiT   0.00

failed cells
  broken: FAILED (ShapeMismatchError: kernel 20 > 12)

provenance
  config hash: cafe
  run seeds: base-fit: 1,2,3; broken: 1,2,3
""" + PROVENANCE_TAIL,
}

MIXED_TSV_HEADER = [
    "cell", "preset", "mode", "status", "accuracy_pct_mean",
    "accuracy_pct_std", "precision_pct_mean", "precision_pct_std",
    "recall_pct_mean", "recall_pct_std", "f1_pct_mean", "f1_pct_std",
    "peak_mib", "mean_epoch_seconds", "relative_epoch_time", "total_hours",
    "seeds"]
BROKEN_TSV_STATUS = "FAILED: ShapeMismatchError: kernel 20 > 12"


def mixed_tsv(relative):
    """The mixed grid's TSV rows, given each cell's relative epoch time."""
    fe, fit, multi = relative
    return [MIXED_TSV_HEADER,
            ["base-fe", "base", "FE", "ok", "92.97", "0.06", "", "", "", "",
             "", "", "693", "10.000", fe, "1.50", "1,2,3"],
            ["base-fit", "base", "FiT", "ok", "91.11", "0.20", "", "", "",
             "", "", "", "693", "25.500", fit, "2.50", "1,2,3"],
            ["multi", "tiny", "FE", "ok", "", "", "62.50", "1.25", "41.00",
             "0.00", "50.00", "1.00", "2.37", "5.000", multi, "0.17",
             "1,2,3"],
            ["broken", "tiny", "FiT", BROKEN_TSV_STATUS, "", "", "", "", "",
             "", "", "", "", "", "", "0.00", "1,2,3"],
            ["untimed", "static", "FE", "ok", "92.97", "0.06", "", "", "",
             "", "", "", "693", "", "", "", "7"]]


GOLDEN_TSV = {
    ("mixed", None): mixed_tsv(("1.00", "2.55", "0.50")),
    ("mixed", "base-fit"): mixed_tsv(("0.39", "1.00", "0.20")),
    ("mixed", "untimed"): mixed_tsv(("", "", "")),
    ("fit-only", None): [
        ["cell", "preset", "mode", "status", "accuracy_pct_mean",
         "accuracy_pct_std", "peak_mib", "mean_epoch_seconds",
         "relative_epoch_time", "total_hours", "seeds"],
        ["base-fit", "base", "FiT", "ok", "91.11", "0.20", "693", "25.500",
         "", "2.50", "1,2,3"],
        ["broken", "tiny", "FiT", BROKEN_TSV_STATUS, "", "", "", "", "",
         "0.00", "1,2,3"]],
}

GRIDS = {"mixed": mixed_grid, "fit-only": fit_only_grid}


class TestGoldenReport:
    """Both tables, byte for byte, for a grid that exercises every branch."""

    @pytest.mark.parametrize("grid, baseline", sorted(
        GOLDEN_REPORTS, key=str))
    def test_text(self, grid, baseline):
        doc = emit_report(GRIDS[grid](), baseline_cell=baseline)
        assert doc == GOLDEN_REPORTS[grid, baseline]

    @pytest.mark.parametrize("grid, baseline", sorted(GOLDEN_TSV, key=str))
    def test_tsv(self, grid, baseline):
        tsv = render_tsv(GRIDS[grid](), baseline_cell=baseline)
        assert tsv == "".join("\t".join(row) + "\n"
                              for row in GOLDEN_TSV[grid, baseline])

    def test_grid_loads_back_unchanged(self, tmp_path):
        """Split into the two files a run writes, the grid passes the checks
        on load and reads back as it was; ``untimed`` has no timing line."""
        records = mixed_grid()
        timed = ("epoch_seconds", "total_seconds")
        with open(tmp_path / "results.jsonl", "w") as results, \
                open(tmp_path / "timing.jsonl", "w") as timing:
            for r in records:
                results.write(json.dumps({k: v for k, v in r.items()
                                          if k not in timed}) + "\n")
                if r["cell"] != "untimed":
                    timing.write(json.dumps(
                        {k: r[k] for k in ("cell",) + timed}) + "\n")
        assert load_results(tmp_path) == records


def synth_to_disk(tmp_path, **kwargs):
    defaults = dict(classes=2, train_docs=16, test_docs=8, vocab=15,
                    doc_len=8, seed=6, name="kw")
    defaults.update(kwargs)
    spec = SynthSpec(**defaults)
    out = tmp_path / "data"
    save_dataset(make_synthetic(spec), out)
    return out


RUN_CONFIG = """\
[benchmark]
dataset = {data}
repeats = 2
seed = 5
out = {out}
vocab = 100

[cell:stat-fe]
preset = static
mode = FE
epochs = 2
batch = 8
max_len = 12
kernels = 2,3
filters = 4
"""


# passes every check made before training and fails in it, as an unforeseen
# fault would: at this learning rate the first update overflows the head's
# float32 weights, so the second batch's loss is not finite
BROKEN_CELL = """
[cell:broken]
preset = static
mode = FE
epochs = 2
batch = 8
max_len = 12
kernels = 2,3
filters = 4
lr = 1e30
"""


class TestRunner:
    def test_single_cell_run_writes_all_outputs(self, tmp_path):
        data = synth_to_disk(tmp_path)
        config_path = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "run1"))
        returned, out_dir = run_benchmark(config_path)
        assert [r["failed"] for r in returned] == [False]
        for name in ("results.jsonl", "timing.jsonl", "report.tsv",
                     "report.txt"):
            assert (out_dir / name).exists()
        records = load_results(out_dir)
        assert len(records) == 1
        record = records[0]
        assert record["cell"] == "stat-fe"
        assert set(record["metrics"]) == {"accuracy"}
        assert record["seeds"] == [5, 6]
        assert len(record["epoch_seconds"]) == 2
        assert record["peak_bytes"] > 0
        report = (out_dir / "report.txt").read_text()
        assert "stat-fe" in report and "provenance" in report

    def test_reruns_are_byte_identical(self, tmp_path):
        data = synth_to_disk(tmp_path)
        first = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "r1"), name="a.ini")
        second = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "r2"), name="b.ini")
        run_benchmark(first)
        run_benchmark(second)
        assert ((tmp_path / "r1" / "results.jsonl").read_bytes()
                == (tmp_path / "r2" / "results.jsonl").read_bytes())

    def test_copies_in_two_directories_are_byte_identical(self, tmp_path):
        """The same config and data under two roots, each config naming its
        own copy of the data, write the same results.jsonl bytes."""
        for root in ("a", "b"):
            data = synth_to_disk(tmp_path / root)
            run_benchmark(write_config(tmp_path / root, RUN_CONFIG.format(
                data=data, out=tmp_path / root / "run")))
        assert ((tmp_path / "a" / "run" / "results.jsonl").read_bytes()
                == (tmp_path / "b" / "run" / "results.jsonl").read_bytes())

    def test_one_changed_data_byte_changes_the_hash(self, tmp_path):
        data = synth_to_disk(tmp_path)
        config = load_config(write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "run")))
        before = config_hash(config)
        train = bytearray((data / "train.jsonl").read_bytes())
        train[-2] ^= 1
        (data / "train.jsonl").write_bytes(bytes(train))
        assert config_hash(config) != before

    def test_failed_cell_preserves_siblings(self, tmp_path):
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "run") + BROKEN_CELL
        returned, out_dir = run_benchmark(write_config(tmp_path, body))
        by_id = {r["cell"]: r for r in returned}
        assert not by_id["stat-fe"]["failed"]
        assert by_id["broken"]["failed"]
        assert by_id["broken"]["error"] == ("TrainingDivergedError: non-finite "
                                            "loss nan at epoch 0, batch 1")
        records = load_results(out_dir)
        marked = [r for r in records if r["failed"]]
        assert len(marked) == 1
        assert "FAILED" in (out_dir / "report.txt").read_text()

    def test_failed_cell_is_untimed(self, tmp_path):
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "run") + BROKEN_CELL
        _, out_dir = run_benchmark(write_config(tmp_path, body))
        timing = {entry["cell"]: entry for entry in map(
            json.loads, (out_dir / "timing.jsonl").read_text().splitlines())}
        assert timing["broken"]["total_seconds"] is None
        assert timing["stat-fe"]["total_seconds"] > 0
        report = (out_dir / "report.txt").read_text()
        hours = report.split("total training time (hours)\n")[1].split("\n\n")[0]
        rows = {line.split()[0]: line.split()[-1]
                for line in hours.splitlines()[1:]}
        assert rows["broken"] == "-"
        assert rows["stat-fe"] != "-"

    def test_missing_epochs_for_unknown_dataset(self, tmp_path):
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "run").replace(
            "epochs = 2\n", "")
        with pytest.raises(ConfigError, match="epochs"):
            execute(load_config(write_config(tmp_path, body)))

    def test_records_carry_the_resolved_epochs(self, tmp_path):
        """An FE cell without ``epochs`` on a dataset directory named
        ``DBpedia`` records the built-in default, 10; a cell that sets
        ``epochs`` records its own value."""
        save_dataset(make_synthetic(SynthSpec(
            classes=2, train_docs=16, test_docs=8, vocab=15, doc_len=8,
            seed=6)), tmp_path / "DBpedia")
        body = RUN_CONFIG.format(data=tmp_path / "DBpedia",
                                 out=tmp_path / "run").replace(
            "epochs = 2\n", "") + textwrap.dedent("""
            [cell:stat-fit]
            preset = static
            mode = FiT
            epochs = 2
            max_len = 12
            kernels = 2,3
            filters = 4
            """)
        _, out_dir = run_benchmark(write_config(tmp_path, body), repeats=1)
        records = [json.loads(line) for line in
                   (out_dir / "results.jsonl").read_text().splitlines()]
        assert [(r["cell"], r["epochs"]) for r in records] == [
            ("stat-fe", 10), ("stat-fit", 2)]
        assert [len(r["epoch_seconds"]) for r in load_results(out_dir)] == [
            10, 2]

    def test_transformer_cell_through_runner(self, tmp_path):
        data = synth_to_disk(tmp_path, train_docs=8, test_docs=4)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "run").replace(
            "preset = static", "preset = tiny").replace(
            "repeats = 2", "repeats = 1")
        (record,), _ = run_benchmark(write_config(tmp_path, body))
        assert not record["failed"]
        assert record["metrics"]["accuracy"]["mean"] >= 0.0

    def test_relative_out_resolves_under_out_root(self, tmp_path,
                                                  monkeypatch):
        data = synth_to_disk(tmp_path)
        config_path = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out="runs/rel"))
        monkeypatch.setenv("BENCH_OUT_ROOT", str(tmp_path / "root"))
        monkeypatch.chdir(tmp_path)
        _, out_dir = run_benchmark(config_path)
        assert out_dir == tmp_path / "root" / "runs" / "rel"
        assert (out_dir / "results.jsonl").exists()
        assert not (tmp_path / "runs").exists()


class TestCli:
    def test_run_round_trip(self, tmp_path, capsys):
        data = synth_to_disk(tmp_path)
        config_path = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "out"))
        assert main(["run", str(config_path)]) == 0
        shown = capsys.readouterr().out
        assert "stat-fe" in shown and "results written" in shown
        assert main(["report", str(tmp_path / "out")]) == 0
        assert "provenance" in capsys.readouterr().out

    def test_run_exit_one_on_cell_failure(self, tmp_path, capsys):
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "out") + BROKEN_CELL
        assert main(["run", str(write_config(tmp_path, body))]) == 1
        assert "broken" in capsys.readouterr().err
        assert (tmp_path / "out" / "results.jsonl").exists()

    def test_divergence_on_the_last_update_fails_the_cell(self, tmp_path,
                                                          capsys):
        """A one-batch cell whose only update makes the evaluation logits
        non-finite is recorded as failed, the run exits 1, and numpy prints
        no RuntimeWarning on the way."""
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "out").replace(
            "epochs = 2\nbatch = 8\n", "epochs = 1\nbatch = 50\n") + \
            "lr = 1e30\n"
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["run", str(write_config(tmp_path, body))]) == 1
        assert [w for w in caught if w.category is RuntimeWarning] == []
        (record,) = load_results(tmp_path / "out")
        assert record["failed"] is True
        assert record["error"] == ("TrainingDivergedError: non-finite "
                                   "evaluation logits at epoch 0")
        assert "stat-fe" in capsys.readouterr().err

    def test_bad_config_exits_two(self, tmp_path, capsys):
        path = write_config(tmp_path, "[benchmark]\nrepeats = 1\n")
        assert main(["run", str(path)]) == 2
        assert "error" in capsys.readouterr().err

    def test_max_len_below_largest_kernel_exits_two(self, tmp_path, capsys):
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "out").replace(
            "max_len = 12", "max_len = 4").replace("kernels = 2,3",
                                                    "kernels = 3,6")
        assert main(["run", str(write_config(tmp_path, body))]) == 2
        assert "max_len 4 is shorter than the largest kernel 6" in \
            capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("split, short, blanks", [
        pytest.param("train", 3, 0, id="train-3"),
        pytest.param("test", 1, 0, id="test-1"),
        pytest.param("train", 3, 2, id="train-3-after-blank-lines")])
    def test_short_document_exits_two_before_any_cell(self, tmp_path, capsys,
                                                      split, short, blanks):
        """A document that a cell would encode to fewer positions than its
        largest kernel stops the run before any cell trains; the error
        names the cell, the file and the first such document, counted
        without the ``blanks`` blank lines put before it."""
        data = synth_to_disk(tmp_path)
        path = data / f"{split}.jsonl"
        lines = path.read_text().splitlines()
        for at in (short, short + 1):
            record = json.loads(lines[at - 1])
            lines[at - 1] = json.dumps({"text": "hi",
                                        "labels": record["labels"]})
        lines[short - 1:short - 1] = [""] * blanks
        path.write_text("\n".join(lines) + "\n")
        body = RUN_CONFIG.format(data=data, out=tmp_path / "out").replace(
            "max_len = 12", "max_len = 16").replace("kernels = 2,3",
                                                     "kernels = 3,6")
        assert main(["run", str(write_config(tmp_path, body))]) == 2
        assert (f"bench: error: cell 'stat-fe': {split}.jsonl document "
                f"{short} (blank lines not counted) encodes to 3 positions, "
                f"fewer than the largest kernel 6") in capsys.readouterr().err
        assert not (tmp_path / "out" / "results.jsonl").exists()

    @pytest.mark.parametrize("key, value", [
        ("mode", "partial"), ("epochs", "0"), ("batch", "0"), ("lr", "inf"),
        ("threshold", "1.5"), ("max_len", "2"), ("kernels", "3,3"),
        ("filters", "0"), ("preset", "huge")])
    def test_bad_cell_value_exits_two_at_load(self, tmp_path, capsys, key,
                                              value):
        """A cell value the library's config types reject stops the run at
        load: the error names the cell and no output directory appears."""
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "out")
        line = f"{key} = {value}"
        body = (re.sub(rf"(?m)^{key} = .*$", line, body)
                if f"\n{key} = " in body else body + line + "\n")
        assert main(["run", str(write_config(tmp_path, body))]) == 2
        assert "bench: error: cell 'stat-fe': " in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_failed_baseline_cell_keeps_both_reports(self, tmp_path, capsys):
        """The relative-time anchor is a report flag, not a config key. A
        run with a failed cell writes both reports and exits 1; naming that
        cell as the baseline leaves relative times unavailable."""
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "out") + BROKEN_CELL
        anchored = write_config(tmp_path, body.replace(
            "vocab = 100\n", "vocab = 100\nbaseline = broken\n"), "a.ini")
        assert main(["run", str(anchored)]) == 2
        assert "[benchmark] has unknown keys: baseline" in \
            capsys.readouterr().err
        assert main(["run", str(write_config(tmp_path, body))]) == 1
        assert "broken (static/FE): FAILED (TrainingDivergedError" in \
            capsys.readouterr().out
        text = (tmp_path / "out" / "report.txt").read_text()
        tsv = (tmp_path / "out" / "report.tsv").read_text()
        assert "  broken: FAILED (TrainingDivergedError" in text
        assert "broken\tstatic\tFE\tFAILED: TrainingDivergedError" in tsv
        assert main(["report", str(tmp_path / "out"),
                     "--baseline", "broken"]) == 0
        assert ("relative epoch time (baseline broken)\n"
                "  unavailable (no baseline cell with timing)") in \
            capsys.readouterr().out

    def test_report_prints_the_run_report(self, tmp_path, capsys):
        """Both reports are a function of the result files alone: ``bench
        report <dir>`` prints the run's report.txt byte for byte, and the
        TSV renders again from the same files."""
        data = synth_to_disk(tmp_path)
        body = RUN_CONFIG.format(data=data, out=tmp_path / "out") + BROKEN_CELL
        _, out_dir = run_benchmark(write_config(tmp_path, body))
        assert main(["report", str(out_dir)]) == 0
        assert (capsys.readouterr().out.encode("utf-8")
                == (out_dir / "report.txt").read_bytes())
        assert (render_tsv(load_results(out_dir)).encode("utf-8")
                == (out_dir / "report.tsv").read_bytes())

    def test_undecodable_dataset_line_exits_two(self, tmp_path, capsys):
        data = synth_to_disk(tmp_path)
        path = data / "train.jsonl"
        lines = path.read_bytes().splitlines(keepends=True)
        lines[2] = lines[2].replace(b'"text": "', b'"text": "caf\xe9 ')
        path.write_bytes(b"".join(lines))
        config_path = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "out"))
        assert main(["run", str(config_path)]) == 2
        assert f"{path}:3: not UTF-8" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_negative_seed_flag_exits_two(self, tmp_path, capsys):
        data = synth_to_disk(tmp_path)
        config_path = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "out"))
        assert main(["run", str(config_path), "--seed", "-1"]) == 2
        assert "bench: error: seed must be >= 0" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_missing_config_exits_two(self, tmp_path, capsys):
        assert main(["run", str(tmp_path / "none.ini")]) == 2
        capsys.readouterr()

    def test_parallel_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["run", str(tmp_path / "bench.ini"), "--parallel", "2"])
        assert exited.value.code == 2
        assert "--parallel" in capsys.readouterr().err

    def test_synth_format_flag_is_gone(self, tmp_path, capsys):
        with pytest.raises(SystemExit) as exited:
            main(["synth", str(tmp_path / "kw.ini"), "--format", "csv"])
        assert exited.value.code == 2
        assert "--format" in capsys.readouterr().err

    def test_cli_overrides_take_effect(self, tmp_path):
        data = synth_to_disk(tmp_path)
        config_path = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "ignored"))
        out = tmp_path / "flagged"
        assert main(["run", str(config_path), "--out", str(out),
                     "--seed", "9", "--repeats", "1"]) == 0
        record = json.loads((out / "results.jsonl").read_text())
        assert record["seeds"] == [9]

    def test_synth_subcommand(self, tmp_path, capsys):
        spec_path = tmp_path / "kw.ini"
        spec_path.write_text("[synthetic]\nclasses = 2\ntrain = 10\n"
                             "test = 4\ndoc_len = 8\n")
        out = tmp_path / "generated"
        assert main(["synth", str(spec_path), "-o", str(out)]) == 0
        assert "10 train" in capsys.readouterr().out
        assert load_dataset(out).label_space == ("c0", "c1")

    def test_synth_infeasible_exits_two(self, tmp_path, capsys):
        spec_path = tmp_path / "bad.ini"
        spec_path.write_text("[synthetic]\ntask = multi_label\nclasses = 2\n"
                             "density = 5.0\n")
        assert main(["synth", str(spec_path), "-o", str(tmp_path / "x")]) == 2
        capsys.readouterr()

    @pytest.mark.parametrize("spec_seed, flag", [("-3", []),
                                                 ("0", ["--seed", "-3"])])
    def test_synth_negative_seed_exits_two(self, tmp_path, capsys, spec_seed,
                                           flag):
        spec_path = tmp_path / "kw.ini"
        spec_path.write_text(f"[synthetic]\nclasses = 2\ntrain = 10\n"
                             f"test = 4\nseed = {spec_seed}\n")
        out = tmp_path / "generated"
        assert main(["synth", str(spec_path), "-o", str(out), *flag]) == 2
        assert "bench: error: seed must be >= 0" in capsys.readouterr().err
        assert not out.exists()

    @pytest.mark.parametrize("vocab", [2**63 + 1, 10**20])
    def test_synth_vocab_above_int64_exits_two(self, tmp_path, capsys, vocab):
        spec_path = tmp_path / "kw.ini"
        spec_path.write_text(f"[synthetic]\nclasses = 2\ntrain = 10\n"
                             f"test = 4\nvocab = {vocab}\n")
        out = tmp_path / "generated"
        assert main(["synth", str(spec_path), "-o", str(out)]) == 2
        assert (f"bench: error: vocab {vocab} is above 2**63"
                in capsys.readouterr().err)
        assert not out.exists()

    def test_report_on_missing_results_exits_two(self, tmp_path, capsys):
        assert main(["report", str(tmp_path / "void")]) == 2
        capsys.readouterr()

    def test_report_baseline_flag(self, tmp_path, capsys):
        records = [forced_record("a", "tiny", "FE"),
                   forced_record("b", "tiny", "FiT")]
        results = tmp_path / "results.jsonl"
        results.write_text("".join(json.dumps(r, sort_keys=True) + "\n"
                                   for r in records))
        assert main(["report", str(results), "--baseline", "a"]) == 0
        assert "baseline a" in capsys.readouterr().out
        assert main(["report", str(results), "--baseline", "zz"]) == 2

    @pytest.mark.parametrize("second_line", [b'{"cell": "b", ',
                                             b'{"cell": "caf\xe9"}'])
    def test_report_on_malformed_timing_exits_two(self, tmp_path, capsys,
                                                  second_line):
        record = forced_record("a", "tiny", "FE")
        (tmp_path / "results.jsonl").write_text(
            json.dumps(record, sort_keys=True) + "\n")
        (tmp_path / "timing.jsonl").write_bytes(
            b'{"cell": "a", "epoch_seconds": [1.0]}\n' + second_line + b"\n")
        assert main(["report", str(tmp_path)]) == 2
        assert "timing.jsonl:2:" in capsys.readouterr().err

    def test_report_on_record_without_cell_exits_two(self, tmp_path, capsys):
        record = forced_record("a", "tiny", "FE")
        del record["cell"]
        (tmp_path / "results.jsonl").write_text(
            "\n" + json.dumps(record, sort_keys=True) + "\n")
        assert main(["report", str(tmp_path)]) == 2
        assert "results.jsonl:2:" in capsys.readouterr().err

    @pytest.mark.parametrize("name, fields, message", [
        ("results.jsonl", None, "mode is missing or not a string"),
        ("results.jsonl", {"preset": "nope"},
         "preset is missing or not one of ['L-12', 'L-2', 'base', 'static', "
         "'tiny']"),
        ("results.jsonl", {"peak_bytes": "big"},
         "peak_bytes is missing or not a number"),
        ("results.jsonl", {"peak_bytes": float("nan")},
         "peak_bytes is missing or not a number"),
        ("results.jsonl", {"metrics": {"accuracy": {"mean": 0.9}}},
         "metrics is missing or not an object of {mean, std} numbers"),
        ("timing.jsonl", {"epoch_seconds": "fast"},
         "epoch_seconds is missing or not a list of positive numbers"),
        ("results.jsonl", {"epochs": 0},
         "epochs is missing or not a positive integer"),
    ])
    def test_report_on_malformed_record_exits_two(self, tmp_path, capsys,
                                                  name, fields, message):
        """``fields`` replace keys of a good line; None leaves only its
        ``cell``."""
        record = forced_record("a", "tiny", "FE")
        timing = {"cell": "a", "epoch_seconds": record.pop("epoch_seconds"),
                  "total_seconds": record.pop("total_seconds")}
        lines = {"results.jsonl": record, "timing.jsonl": timing}
        lines[name] = dict(lines[name], **fields) if fields else {"cell": "a"}
        for file, line in lines.items():
            (tmp_path / file).write_text(json.dumps(line) + "\n")
        assert main(["report", str(tmp_path)]) == 2
        assert f"{name}:1: cell 'a': {message}" in capsys.readouterr().err

    @pytest.mark.parametrize("split", ["train", "test"])
    def test_run_on_empty_split_exits_two(self, tmp_path, capsys, split):
        data = synth_to_disk(tmp_path)
        (data / f"{split}.jsonl").write_text("")
        config_path = write_config(tmp_path, RUN_CONFIG.format(
            data=data, out=tmp_path / "out"))
        assert main(["run", str(config_path)]) == 2
        assert f"empty {split} split" in capsys.readouterr().err
        assert not (tmp_path / "out").exists()

    def test_out_root_env(self, tmp_path, monkeypatch):
        monkeypatch.setenv("BENCH_OUT_ROOT", str(tmp_path / "root"))
        assert resolve_out_dir("runs/x") == str(tmp_path / "root" / "runs/x")
        absolute = str(tmp_path / "abs")
        assert resolve_out_dir(absolute) == absolute
        monkeypatch.delenv("BENCH_OUT_ROOT")
        assert resolve_out_dir("runs/x") == "runs/x"

    def test_synth_out_defaults_under_root(self, tmp_path, monkeypatch,
                                           capsys):
        monkeypatch.setenv("BENCH_OUT_ROOT", str(tmp_path))
        spec_path = tmp_path / "tiny.ini"
        spec_path.write_text("[synthetic]\nclasses = 2\ntrain = 6\n"
                             "test = 2\ndoc_len = 8\n")
        assert main(["synth", str(spec_path)]) == 0
        capsys.readouterr()
        assert (tmp_path / "tiny" / "train.jsonl").exists()


REIMPORT_PROBE = """\
import gc, importlib, sys, weakref

def load():
    for name in ("febench", "febench.bench.cli"):
        importlib.import_module(name)

load()
old_ops = weakref.ref(sys.modules["febench.ops"])
for name in [n for n in sys.modules if n == "febench" or n.startswith("febench.")]:
    del sys.modules[name]
load()
gc.collect()
sys.exit(0 if old_ops() is None else 1)
"""


def test_reimport_frees_the_old_package():
    """Dropping febench from sys.modules and importing it again frees the old
    modules; nothing at import time (such as a ``typing`` subscript of a
    febench class, which ``typing`` caches) keeps the old graph alive."""
    root = os.path.dirname(os.path.dirname(os.path.abspath(febench.__file__)))
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [root, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [root])
    proc = subprocess.run([sys.executable, "-c", REIMPORT_PROBE],
                          capture_output=True, text=True, env=env)
    assert proc.returncode == 0, proc.stderr or "old febench.ops still alive"
