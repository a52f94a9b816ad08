"""Acceptance gate: eight end-to-end checks, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the verdict lines on
success (they always appear in captured output on failure); from a bare
checkout, without the package installed, run
``PYTHONPATH=src python -m pytest tests/test_acceptance.py -s``. Tolerances
and workload seeds are pinned as module constants.
"""

import json
import os
import subprocess
import sys
import time
import zlib

import numpy as np
import pytest
from helpers import PRIMITIVE_GRAD_CASES, e2e_frozen_encoder_case

import febench
from febench import grad_check
from febench.bench.report import (format_hours, format_mib, format_percent,
                                  render_tsv)
from febench.bench.synth import SynthSpec, make_synthetic
from febench.cnn import CnnHead, CnnHeadConfig
from febench.encoders import Encoder
from febench.metrics import label_density, micro_prf
from febench.profiling import TimingTrace
from febench.text import build_vocab, save_dataset
from febench.training import RunConfig, RunResult, aggregate_runs, train

GRAD_TOLERANCE = 1e-4      # max relative error, central differences, eps 1e-5
GRAD_POINTS = 10           # seeded points per case
GRAD_BUDGET_SECONDS = 120.0
TIME_RATIO_FLOOR = 1.3     # FiT/FE mean epoch time on the L-12 preset
EFFICIENCY_BUDGET_SECONDS = 600.0
SINGLE_ACCURACY_FLOOR = 0.90   # within 30 epochs
MULTI_F1_FLOOR = 0.85          # within 40 epochs
ORACLE_TOLERANCE = 1e-12
STD_TOLERANCE = 1e-4

DATA_SEED = 13
MODEL_SEED = 21
L12_DATA_SEED = 29
L12_RUN_SEED = 31


def _verdict(number, name, ok, detail):
    line = f"criterion {number} ({name}): {'PASS' if ok else 'FAIL'} [{detail}]"
    print(line)
    assert ok, line


def _keyword_dataset():
    """2 classes, 200 train / 100 test, one marker token per class."""
    return make_synthetic(SynthSpec(
        task_kind="single_label", classes=2, train_docs=200, test_docs=100,
        vocab=30, doc_len=12, seed=DATA_SEED, name="kw"))


def _multi_dataset():
    """5 labels at density ~2, markers drawn independently."""
    return make_synthetic(SynthSpec(
        task_kind="multi_label", classes=5, train_docs=200, test_docs=100,
        vocab=10, doc_len=8, density=2.0, seed=DATA_SEED, name="ml"))


def _frozen_tiny_run(dataset, epochs, batch_size=None, max_len=16):
    vocab = build_vocab([ex.text for ex in dataset.train], max_size=100)
    encoder = Encoder.from_preset("tiny", vocab.size, seed=[MODEL_SEED, 0],
                                  frozen=True)
    head = CnnHead.build(CnnHeadConfig(hidden=128,
                                       classes=len(dataset.label_space)),
                         seed=[MODEL_SEED, 1])
    config = RunConfig(mode="FE", epochs=epochs, batch_size=batch_size,
                       learning_rate=5e-5, seed=MODEL_SEED, max_len=max_len)
    return encoder, head, train(config, dataset, encoder, head, vocab)


def test_criterion_1_gradient_correctness():
    started = time.perf_counter()
    worst = 0.0
    cases = dict(PRIMITIVE_GRAD_CASES)
    cases["e2e_frozen_encoder_cnn"] = e2e_frozen_encoder_case
    for name, builder in cases.items():
        for seed in range(GRAD_POINTS):
            rng = np.random.default_rng([seed, zlib.crc32(name.encode())])
            function, points = builder(rng)
            error = grad_check(function, points, eps=1e-5)
            worst = max(worst, error)
            assert error < GRAD_TOLERANCE, (
                f"{name} seed {seed}: relative error {error:.3e}")
    elapsed = time.perf_counter() - started
    ok = worst < GRAD_TOLERANCE and elapsed < GRAD_BUDGET_SECONDS
    _verdict(1, "gradient correctness", ok,
             f"{len(cases)} cases x {GRAD_POINTS} points, worst rel err "
             f"{worst:.2e} < {GRAD_TOLERANCE}, {elapsed:.1f} s")


def test_criterion_2_fe_freeze_invariant():
    dataset = _keyword_dataset()
    vocab = build_vocab([ex.text for ex in dataset.train], max_size=100)
    encoder = Encoder.from_preset("tiny", vocab.size, seed=[MODEL_SEED, 0],
                                  frozen=True)
    head = CnnHead.build(CnnHeadConfig(hidden=128, classes=2),
                         seed=[MODEL_SEED, 1])
    before = encoder.weights.byte_image()
    config = RunConfig(mode="FE", epochs=3, learning_rate=5e-5,
                       seed=MODEL_SEED, max_len=16)
    result = train(config, dataset, encoder, head, vocab)
    bytes_identical = encoder.weights.byte_image() == before
    grad_bytes = result.ledger.group_peak("gradients", "encoder")
    state_bytes = result.ledger.group_peak("optimizer_state", "encoder")
    ok = bytes_identical and grad_bytes == 0 and state_bytes == 0
    _verdict(2, "FE freeze invariant", ok,
             f"3-epoch FE run: encoder bytes identical={bytes_identical}, "
             f"encoder gradient bytes={grad_bytes}, "
             f"encoder optimizer bytes={state_bytes}")


def test_criterion_3_efficiency_ordering():
    started = time.perf_counter()
    dataset = make_synthetic(SynthSpec(
        task_kind="single_label", classes=2, train_docs=48, test_docs=6,
        vocab=20, doc_len=12, seed=L12_DATA_SEED, name="l12wl"))
    vocab = build_vocab([ex.text for ex in dataset.train], max_size=100)
    measured = {}
    for mode in ("FE", "FiT"):
        encoder = Encoder.from_preset("L-12", vocab.size,
                                      seed=[L12_RUN_SEED, 0],
                                      frozen=(mode == "FE"))
        head = CnnHead.build(CnnHeadConfig(hidden=128, classes=2,
                                           kernel_sizes=(3, 4, 5),
                                           filters=20),
                             seed=[L12_RUN_SEED, 1])
        config = RunConfig(mode=mode, epochs=4, batch_size=10,
                           learning_rate=5e-5, seed=L12_RUN_SEED, max_len=16)
        result = train(config, dataset, encoder, head, vocab)
        epoch_mean = (sum(result.timing.epoch_seconds)
                      / len(result.timing.epoch_seconds))
        measured[mode] = (epoch_mean, result.peak_bytes)
    ratio = measured["FiT"][0] / measured["FE"][0]
    peak_ordered = measured["FiT"][1] > measured["FE"][1]
    elapsed = time.perf_counter() - started
    ok = (peak_ordered and ratio > TIME_RATIO_FLOOR
          and elapsed < EFFICIENCY_BUDGET_SECONDS)
    _verdict(3, "efficiency ordering", ok,
             f"L-12 peak FiT {measured['FiT'][1] / 2**20:.1f} MiB > FE "
             f"{measured['FE'][1] / 2**20:.1f} MiB ({peak_ordered}), epoch "
             f"ratio {ratio:.2f} > {TIME_RATIO_FLOOR}, {elapsed:.1f} s")


def test_criterion_4_learnability():
    dataset = _keyword_dataset()
    _, _, first = _frozen_tiny_run(dataset, epochs=30)
    single_best = max(m["accuracy"] for m in first.epoch_metrics)
    _, _, second = _frozen_tiny_run(dataset, epochs=30)
    single_deterministic = (first.epoch_metrics == second.epoch_metrics
                            and first.train_losses == second.train_losses)

    multi = _multi_dataset()
    density = label_density(multi)
    _, _, m_first = _frozen_tiny_run(multi, epochs=40, batch_size=10,
                                     max_len=12)
    multi_best = max(m["f1"] for m in m_first.epoch_metrics)
    _, _, m_second = _frozen_tiny_run(multi, epochs=40, batch_size=10,
                                      max_len=12)
    multi_deterministic = m_first.epoch_metrics == m_second.epoch_metrics

    ok = (single_best >= SINGLE_ACCURACY_FLOOR and single_deterministic
          and multi_best >= MULTI_F1_FLOOR and multi_deterministic)
    _verdict(4, "learnability", ok,
             f"single-label best accuracy {single_best:.3f} >= "
             f"{SINGLE_ACCURACY_FLOOR} in 30 epochs "
             f"(deterministic={single_deterministic}); multi-label density "
             f"{density:.2f}, best micro-F1 {multi_best:.3f} >= "
             f"{MULTI_F1_FLOOR} in 40 epochs "
             f"(deterministic={multi_deterministic})")


def _oracle_prf(preds, golds, labels):
    tp = fp = fn = 0
    for pred, gold in zip(preds, golds):
        for label in labels:
            if label in pred and label in gold:
                tp += 1
            elif label in pred:
                fp += 1
            elif label in gold:
                fn += 1
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def test_criterion_5_metric_oracles():
    rng = np.random.default_rng([DATA_SEED, 5])
    labels = list("abcdef")
    worst = 0.0
    for _ in range(100):
        count = int(rng.integers(1, 30))
        preds = [frozenset(rng.choice(labels, size=rng.integers(0, 4),
                                      replace=False)) for _ in range(count)]
        golds = [frozenset(rng.choice(labels, size=rng.integers(1, 4),
                                      replace=False)) for _ in range(count)]
        got = micro_prf(preds, golds)
        want = _oracle_prf(preds, golds, labels)
        worst = max(worst, *(abs(g - w) for g, w in zip(got, want)))
    oracle_ok = worst <= ORACLE_TOLERANCE

    p, r, f1 = micro_prf([{"a"}, {"b"}], [{"a"}, {"a", "b"}])
    fixture_ok = (p == 1.0 and abs(r - 2.0 / 3.0) <= ORACLE_TOLERANCE
                  and abs(f1 - 0.8) <= ORACLE_TOLERANCE)

    single_ok = True
    for _ in range(20):
        count = int(rng.integers(1, 40))
        preds = [frozenset({rng.choice(labels)}) for _ in range(count)]
        golds = [frozenset({rng.choice(labels)}) for _ in range(count)]
        accuracy = sum(p == g for p, g in zip(preds, golds)) / count
        single_ok &= abs(micro_prf(preds, golds)[2]
                         - accuracy) <= ORACLE_TOLERANCE

    ok = oracle_ok and fixture_ok and single_ok
    _verdict(5, "metric oracles", ok,
             f"100 random instances worst |delta| {worst:.1e} <= "
             f"{ORACLE_TOLERANCE}; fixture ({p:.1f}, {r:.4f}, {f1:.1f}); "
             f"single-label micro-F1 == accuracy: {single_ok}")


def test_criterion_6_report_arithmetic():
    cell = format_percent(0.9297, 0.0006)
    mib = format_mib(693 * 2**20)
    records = [{"cell": mode, "preset": "static", "mode": mode,
                "task_kind": "single_label", "failed": False, "error": None,
                "metrics": {}, "peak_bytes": 0.0, "seeds": [0],
                "epoch_seconds": [seconds], "total_seconds": None}
               for mode, seconds in (("FE", 10.0), ("FiT", 26.2))]
    header, _, fit_row = [line.split("\t") for line in
                          render_tsv(records, "FE").splitlines()]
    ratio = fit_row[header.index("relative_epoch_time")]
    hours = format_hours(5400.0)
    ok = (cell == "92.97 ± 0.06" and mib == "693" and ratio == "2.62"
          and hours == "1.50")
    _verdict(6, "report arithmetic", ok,
             f"percent cell {cell!r}, memory cell {mib!r}, relative time "
             f"{ratio!r}, hours {hours!r}")


def test_criterion_7_cli_determinism(tmp_path):
    save_dataset(make_synthetic(SynthSpec(classes=2, train_docs=16,
                                          test_docs=8, vocab=15, doc_len=8,
                                          seed=DATA_SEED, name="clikw")),
                 tmp_path / "data")
    (tmp_path / "bench.ini").write_text(
        "[benchmark]\n"
        f"dataset = {tmp_path / 'data'}\n"
        "repeats = 2\nseed = 5\nvocab = 60\n\n"
        "[cell:fe]\npreset = static\nmode = FE\nepochs = 2\nbatch = 8\n"
        "max_len = 12\nkernels = 2,3\nfilters = 4\n")
    env = {k: v for k, v in os.environ.items() if k != "BENCH_OUT_ROOT"}
    # The child runs in tmp_path, where an inherited relative entry such as
    # PYTHONPATH=src points nowhere; put the source root of the febench this
    # test imported first, so the child runs the same package.
    root = os.path.dirname(os.path.dirname(os.path.abspath(febench.__file__)))
    env["PYTHONPATH"] = os.pathsep.join(
        [root, env["PYTHONPATH"]] if env.get("PYTHONPATH") else [root])
    blobs = []
    for out in ("run-a", "run-b"):
        proc = subprocess.run(
            [sys.executable, "-m", "febench", "run",
             str(tmp_path / "bench.ini"), "--out", str(tmp_path / out)],
            capture_output=True, text=True, env=env, cwd=tmp_path)
        if proc.returncode != 0:
            _verdict(7, "CLI determinism", False,
                     f"`bench run` into {out} exited {proc.returncode}: "
                     f"{proc.stderr.strip()}")
        blobs.append((tmp_path / out / "results.jsonl").read_bytes())
    identical = blobs[0] == blobs[1]
    record = json.loads(blobs[0])
    ok = identical and record["cell"] == "fe" and "accuracy" in record["metrics"]
    _verdict(7, "CLI determinism", ok,
             f"two `bench run` invocations, same config and master seed, "
             f"different output dirs: records byte-identical={identical} "
             f"({len(blobs[0])} bytes)")


def test_criterion_8_aggregation():
    runs = [RunResult(mode="FE", seed=i, train_losses=[1.0],
                      epoch_metrics=[{"metric": float(v)}],
                      final_metrics={"metric": float(v)},
                      timing=TimingTrace(epoch_seconds=[0.5],
                                         total_seconds=0.6),
                      peak_bytes=0, ledger=None)
            for i, v in enumerate((1.0, 2.0, 3.0))]
    agg = aggregate_runs(runs)
    mean = agg["metrics"]["metric"]["mean"]
    std = agg["metrics"]["metric"]["std"]
    ok = mean == 2.0 and abs(std - 0.8165) <= STD_TOLERANCE
    _verdict(8, "aggregation", ok,
             f"forced {{1,2,3}}: mean {mean} == 2.0, population std "
             f"{std:.6f} within {STD_TOLERANCE} of 0.8165")
