"""Convolutional classification head over a hidden-state sequence.

Parallel 1-d convolutions of several kernel sizes over only the windows
that lie fully inside the valid (non-PAD) prefix, max-over-time pooling of
those windows, ReLU, concatenation, and an affine projection to class
logits.  Windows that overlap padding are never computed, kept or charged,
so the head's cost follows a document's length, not ``max_len``.  Pooling
comes before ReLU because ReLU is monotone, so ``relu(max(x)) ==
max(relu(x))`` exactly, and the backward passes the same gradient to the
same window (or an exact zero where a column's max is not positive); ReLU
then acts on one [f] vector per kernel instead of the [n, f] window matrix.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ShapeMismatchError, Tensor, WeightSet


@dataclass(frozen=True)
class CnnHeadConfig:
    hidden: int
    classes: int
    kernel_sizes: tuple = (3, 4, 5, 6)
    filters: int = 100

    def __post_init__(self):
        object.__setattr__(self, "kernel_sizes", tuple(self.kernel_sizes))
        check_kernels(self.kernel_sizes, self.filters)
        if self.hidden < 1 or self.classes < 1:
            raise ValueError("hidden width and class count must be positive")


def check_kernels(kernel_sizes, filters):
    """The head's rule for its convolutions, which holds whatever its width
    and classes: distinct positive kernel sizes and a positive filter count."""
    if not kernel_sizes or any(k < 1 for k in kernel_sizes):
        raise ValueError("kernel sizes must be positive integers")
    if len(set(kernel_sizes)) != len(kernel_sizes):
        raise ValueError("kernel sizes must be distinct")
    if filters < 1:
        raise ValueError("filter count must be positive")


def feature_dim(config):
    """Pooled feature length: kernel count x filters."""
    return len(config.kernel_sizes) * config.filters


def expected_shapes(config):
    shapes = {}
    for k in config.kernel_sizes:
        shapes[f"conv{k}.weight"] = (k, config.hidden, config.filters)
        shapes[f"conv{k}.bias"] = (config.filters,)
    shapes["projection.weight"] = (feature_dim(config), config.classes)
    shapes["projection.bias"] = (config.classes,)
    return shapes


def init_weights(config, seed):
    """Seeded normal(0, 0.02) matrices, zero biases."""
    return WeightSet.init(expected_shapes(config), seed, group="head")


def cnn_forward(config, weights, hidden, valid_length):
    """Logits [classes] for one document's hidden sequence [max_len x H].

    Convolution windows that start past ``valid_length - k`` would overlap
    padding rows, so each kernel convolves and pools only the first
    ``valid_length - k + 1`` windows.  valid_length must cover the largest
    kernel.
    """
    t_len = hidden.shape[0]
    max_k = max(config.kernel_sizes)
    if valid_length < max_k:
        raise ShapeMismatchError(
            f"valid_length {valid_length} shorter than largest kernel {max_k}")
    if valid_length > t_len:
        raise ShapeMismatchError(
            f"valid_length {valid_length} exceeds sequence length {t_len}")
    tensors = weights.tensors
    pooled = []
    for k in config.kernel_sizes:
        live = valid_length - k + 1
        conv = ops.conv1d_valid(hidden, tensors[f"conv{k}.weight"],
                                tensors[f"conv{k}.bias"], limit=live)
        pooled.append(ops.relu(ops.max_over_time(conv, limit=live)))
    features = ops.concat(pooled)
    return ops.linear(features, tensors["projection.weight"],
                      tensors["projection.bias"])


def predict(logits, task_kind, threshold):
    """Predicted label-index set from a logit vector.

    Single-label: singleton argmax (first index on ties).  Multi-label:
    indices whose sigmoid reaches the threshold; may be empty.
    """
    values = logits.data if isinstance(logits, Tensor) else np.asarray(logits)
    if task_kind == "single_label":
        return {int(np.argmax(values))}
    if task_kind == "multi_label":
        if not 0.0 < threshold < 1.0:
            raise ValueError("threshold must lie in (0, 1)")
        sig = 0.5 * (1.0 + np.tanh(0.5 * values))
        return {int(i) for i in np.flatnonzero(sig >= threshold)}
    raise ValueError(f"unknown task_kind {task_kind!r}")


@dataclass
class CnnHead:
    """Config + weights bundle for the classification head."""

    config: CnnHeadConfig
    weights: WeightSet

    @classmethod
    def build(cls, config, seed):
        return cls(config=config, weights=init_weights(config, seed))

    def forward(self, hidden, valid_length):
        return cnn_forward(self.config, self.weights, hidden, valid_length)
