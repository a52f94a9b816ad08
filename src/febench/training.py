"""Training loops: loss, Adam, seeded epochs, and multi-run aggregation.

A run owns one memory ledger and one timing trace.  Parameters are
registered up front and optimizer moments when first created; each training
step's record charges its activations and gradients to the same ledger and
frees them when its block exits, so the ledger peak is the training-step
high-water mark.  Evaluation runs outside every record, so it is neither
taped nor charged: a test document's outputs have the shapes of one
training document's, set by ``max_len`` alone, and a step always charges at
least one document plus its gradients, so evaluation could never set the
peak.
Adam updates parameters and moments in place, chunk by chunk through two
scratch buffers of at most ``ADAM_CHUNK`` elements, which the ledger does
not charge.
Everything downstream of the seed is deterministic: weight init, shuffles,
and batch order depend only on (seed, epoch).
"""

from __future__ import annotations

import math
import time
from dataclasses import dataclass, field, replace

import numpy as np

from . import ops
from .metrics import accuracy, mean_std, micro_prf
from .cnn import predict
from .profiling import MemoryLedger, TimingTrace
from .tensor import (ComputationRecord, ShapeMismatchError, backward,
                     check_count)
from .text import encode

# (FE epochs, FiT epochs) per corpus, as configured for the full-scale grid
EPOCH_DEFAULTS = {
    "AGNews": (20, 10),
    "20NEWS": (300, 100),
    "DBpedia": (10, 10),
    "TREC-6": (150, 50),
    "TREC-50": (150, 50),
    "YELP": (15, 5),
    "RCV1": (50, 20),
    "BGC_EN": (40, 20),
    "Ohsumed": (300, 80),
}

DEFAULT_BATCH = {"FE": 50, "FiT": 40}

# Adam's moment decay rates and denominator floor (Kingma & Ba's defaults)
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8

# Elements per chunk of the in-place Adam update: its two float32 scratch
# buffers take 512 KiB together, small next to any parameter worth chunking.
ADAM_CHUNK = 65_536


class TrainingDivergedError(RuntimeError):
    """A batch's loss, or an epoch's evaluation logits, became non-finite;
    carries the epoch and the batch (None for the evaluation) where it
    happened."""

    def __init__(self, epoch, batch=None, value=None):
        where = (f"non-finite evaluation logits at epoch {epoch}"
                 if batch is None else
                 f"non-finite loss {value!r} at epoch {epoch}, batch {batch}")
        super().__init__(where)
        self.epoch = epoch
        self.batch = batch


def default_epochs(dataset_name, mode):
    """Configured epoch count for a known corpus name, else None."""
    pair = EPOCH_DEFAULTS.get(dataset_name)
    if pair is None:
        return None
    return pair[0] if mode == "FE" else pair[1]


@dataclass(frozen=True)
class RunConfig:
    mode: str
    epochs: int
    batch_size: int = None
    learning_rate: float = 5e-5
    seed: int = 0
    threshold: float = 0.5
    max_len: int = 200

    def __post_init__(self):
        if self.mode not in ("FE", "FiT"):
            raise ValueError(f"mode must be FE or FiT, got {self.mode!r}")
        if self.batch_size is None:
            object.__setattr__(self, "batch_size", DEFAULT_BATCH[self.mode])
        # max_len leaves room for CLS, SEP and one content token
        for name, least in (("epochs", 1), ("batch_size", 1), ("max_len", 3)):
            check_count(name, getattr(self, name), least)
        if not 0 < self.learning_rate < math.inf:
            raise ValueError(f"learning_rate must be finite and positive, "
                             f"got {self.learning_rate!r}")
        if not 0 < self.threshold < 1:
            raise ValueError(f"threshold must lie in (0, 1), got "
                             f"{self.threshold!r}")


def compute_loss(logits, targets, task_kind):
    """Scalar loss Tensor for a [B, C] logit batch."""
    if task_kind == "single_label":
        return ops.softmax_xent(logits, targets=targets)
    if task_kind == "multi_label":
        return ops.sigmoid_bce(logits, targets=targets)
    raise ValueError(f"unknown task_kind {task_kind!r}")


@dataclass
class AdamState:
    """Shared step counter with lazily created per-parameter moments.

    Parameters that never appear in a gradient map (frozen ones) never get
    moment arrays, so they contribute nothing to optimizer-state memory.
    Each moment pair is charged to ``ledger``, a new one if none is given.
    """

    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)
    ledger: MemoryLedger = field(default_factory=MemoryLedger)

    def moments_for(self, param):
        slot = self.m.get(param.tid)
        if slot is None:
            slot = np.zeros_like(param.data)
            self.m[param.tid] = slot
            self.v[param.tid] = np.zeros_like(param.data)
            self.ledger.record_alloc("optimizer_state", 2 * slot.nbytes,
                                     group=param.group)
        return slot, self.v[param.tid]


def adam_step(params, grad_map, state, lr):
    """Bias-corrected Adam update, in place, for every parameter in the map.

    Every gradient's shape is checked before anything changes.  Each
    parameter and its moments are then updated chunk by chunk over their
    flat storage, through two scratch buffers per dtype reused for every
    chunk, so the update holds no parameter-sized temporary.  Per element it
    runs the float operations of ``m += (1 - b1) * (g - m)``,
    ``v += (1 - b2) * (g * g - v)`` and
    ``p -= lr * (m / c1) / (sqrt(v / c2) + eps)`` in that order, with the
    same bits.
    """
    updates = []
    for param in params:
        grad = grad_map.get(param.tid)
        if grad is None:
            continue
        if grad.shape != param.data.shape:
            raise ShapeMismatchError(
                f"gradient shape {grad.shape} vs parameter {param.data.shape}")
        if not param.data.flags.c_contiguous:
            raise ValueError(f"parameter #{param.tid} is not C-contiguous, "
                             f"so a flat view of it would be a copy")
        updates.append((param, grad))
    state.t += 1
    decay1 = 1.0 - ADAM_BETA1
    decay2 = 1.0 - ADAM_BETA2
    correct1 = 1.0 - ADAM_BETA1 ** state.t
    correct2 = 1.0 - ADAM_BETA2 ** state.t
    length = min(ADAM_CHUNK, max((param.data.size for param, _ in updates),
                                 default=0))
    scratch = {}

    def buffers(dtype):
        if dtype not in scratch:
            scratch[dtype] = (np.empty(length, dtype), np.empty(length, dtype))
        return scratch[dtype]

    for param, grad in updates:
        m, v = state.moments_for(param)
        p, g, m, v = (x.reshape(-1) for x in (param.data, grad, m, v))
        # moment terms are computed in the dtype of g - m, the step in m's
        moment_scratch = buffers(np.result_type(g.dtype, m.dtype))[0]
        step_scratch, denom_scratch = buffers(m.dtype)
        for lo in range(0, p.size, ADAM_CHUNK):
            pc, gc, mc, vc = (x[lo:lo + ADAM_CHUNK] for x in (p, g, m, v))
            n = pc.size
            w = moment_scratch[:n]
            np.subtract(gc, mc, out=w)
            w *= decay1
            mc += w
            np.multiply(gc, gc, out=w)
            w -= vc
            w *= decay2
            vc += w
            step, denom = step_scratch[:n], denom_scratch[:n]
            np.divide(mc, correct1, out=step)
            step *= lr
            np.divide(vc, correct2, out=denom)
            np.sqrt(denom, out=denom)
            denom += ADAM_EPS
            step /= denom
            pc -= step


def encode_examples(examples, vocab, max_len, label_space, task_kind):
    """Fixed-length id matrix, valid lengths, and targets for an example list."""
    n = len(examples)
    ids = np.zeros((n, max_len), dtype=np.int64)
    valid = np.zeros(n, dtype=np.int64)
    index = {label: i for i, label in enumerate(label_space)}
    if task_kind == "single_label":
        targets = np.zeros(n, dtype=np.int64)
    else:
        targets = np.zeros((n, len(label_space)), dtype=np.float32)
    for i, ex in enumerate(examples):
        ids[i], valid[i] = encode(ex.text, vocab, max_len=max_len)
        if task_kind == "single_label":
            targets[i] = index[next(iter(ex.labels))]
        else:
            for label in ex.labels:
                targets[i, index[label]] = 1.0
    return ids, valid, targets


def forward_batch(encoder, head, ids_batch, valid_batch):
    """Logit matrix [B, C] by running each document through encoder + head.

    Training steps and evaluation both build their logits here.
    """
    rows = [head.forward(encoder.forward(ids, int(valid)), int(valid))
            for ids, valid in zip(ids_batch, valid_batch)]
    return ops.stack(rows)


def train_step(encoder, head, params, state, ids_batch, valid_batch, targets,
               task_kind, lr):
    """One forward/backward/update cycle; returns the batch loss as a float."""
    with ComputationRecord(state.ledger):
        logits = forward_batch(encoder, head, ids_batch, valid_batch)
        loss = compute_loss(logits, targets, task_kind)
        value = float(loss.data)
        if np.isfinite(value):
            grads = backward(loss)
            adam_step(params, grads, state, lr)
    return value


def evaluate(encoder, head, ids, valid, task_kind, threshold):
    """The [B, C] logit array and the predicted label-index sets of an
    encoded test split.

    ``train`` calls it outside every record, so it tapes and charges nothing.
    """
    logits = forward_batch(encoder, head, ids, valid).data
    return logits, [predict(row, task_kind, threshold) for row in logits]


def _gold_sets(targets, task_kind):
    if task_kind == "single_label":
        return [{int(t)} for t in targets]
    return [set(np.flatnonzero(row).tolist()) for row in targets]


def _metrics(pred_sets, gold_sets, task_kind):
    if task_kind == "single_label":
        return {"accuracy": accuracy(pred_sets, gold_sets)}
    p, r, f1 = micro_prf(pred_sets, gold_sets)
    return {"precision": p, "recall": r, "f1": f1}


@dataclass
class RunResult:
    mode: str
    seed: int
    train_losses: list
    epoch_metrics: list
    final_metrics: dict
    timing: TimingTrace
    peak_bytes: int
    ledger: MemoryLedger

    def __post_init__(self):
        self.timing.check()


def train(config, dataset, encoder, head, vocab):
    """Run FE or FiT training; returns a RunResult with metrics/time/memory."""
    if not dataset.train or not dataset.test:
        raise ValueError("dataset needs non-empty train and test splits")
    started = time.perf_counter()
    encoder.set_trainable(config.mode == "FiT")
    all_params = list(encoder.weights.tensors.values()) + \
        list(head.weights.tensors.values())
    trainable = [p for p in all_params if p.requires_grad]

    train_ids, train_valid, train_targets = encode_examples(
        dataset.train, vocab, config.max_len, dataset.label_space,
        dataset.task_kind)
    test_ids, test_valid, test_targets = encode_examples(
        dataset.test, vocab, config.max_len, dataset.label_space,
        dataset.task_kind)
    gold = _gold_sets(test_targets, dataset.task_kind)

    ledger = MemoryLedger()
    for param in all_params:
        ledger.record_alloc("parameters", param.data.nbytes, group=param.group)
    state = AdamState(ledger=ledger)

    n = len(dataset.train)
    train_losses, epoch_metrics, epoch_seconds = [], [], []
    # a diverging run is reported by the checks below, not by numpy warnings
    with np.errstate(over="ignore", invalid="ignore"):
        for epoch in range(config.epochs):
            epoch_started = time.perf_counter()
            order = np.random.default_rng([config.seed, 2,
                                           epoch]).permutation(n)
            batch_losses = []
            for batch_index, start in enumerate(
                    range(0, n, config.batch_size)):
                chosen = order[start:start + config.batch_size]
                value = train_step(
                    encoder, head, trainable, state, train_ids[chosen],
                    train_valid[chosen], train_targets[chosen],
                    dataset.task_kind, config.learning_rate)
                if not np.isfinite(value):
                    raise TrainingDivergedError(epoch, batch_index, value)
                batch_losses.append(value)
            # each loss above precedes its batch's update, so only the
            # evaluation sees what the epoch's last update did
            logits, predictions = evaluate(encoder, head, test_ids, test_valid,
                                           dataset.task_kind, config.threshold)
            if not np.isfinite(logits).all():
                raise TrainingDivergedError(epoch)
            train_losses.append(float(np.mean(batch_losses)))
            epoch_metrics.append(_metrics(predictions, gold,
                                          dataset.task_kind))
            epoch_seconds.append(time.perf_counter() - epoch_started)

    timing = TimingTrace(epoch_seconds=epoch_seconds,
                         total_seconds=time.perf_counter() - started)
    return RunResult(mode=config.mode, seed=config.seed,
                     train_losses=train_losses, epoch_metrics=epoch_metrics,
                     final_metrics=dict(epoch_metrics[-1]), timing=timing,
                     peak_bytes=ledger.peak(), ledger=ledger)


def aggregate_runs(runs):
    """A cell's measured record fields from its runs: mean and population std
    per final metric, the runs' seeds, and the mean per-epoch, total and
    peak-memory figures."""
    metrics = {}
    for name in sorted(runs[0].final_metrics):
        mean, std = mean_std([r.final_metrics[name] for r in runs])
        metrics[name] = {"mean": mean, "std": std}
    per_epoch = np.array([r.timing.epoch_seconds for r in runs], dtype=np.float64)
    return {
        "metrics": metrics, "seeds": [r.seed for r in runs],
        "epoch_seconds": per_epoch.mean(axis=0).tolist(),
        "total_seconds": float(np.mean([r.timing.total_seconds for r in runs])),
        "peak_bytes": float(np.mean([r.peak_bytes for r in runs]))}


def run_experiment(config, dataset, make_model, seeds):
    """Run train() once per seed, in order, and aggregate the runs.

    ``make_model(seed)`` must return a fresh (encoder, head, vocab) triple so
    repeats never share mutable weights.  ``train`` is looked up on this
    module at call time, so a wrapper set on ``febench.training.train`` (as
    perfbench's CLI workload sets one) sees every run.
    """
    if not seeds:
        raise ValueError("run_experiment needs at least one seed")
    runs = []
    for seed in seeds:
        encoder, head, vocab = make_model(seed)
        runs.append(train(replace(config, seed=seed), dataset, encoder, head,
                          vocab))
    return aggregate_runs(runs)
