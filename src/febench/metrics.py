"""Accuracy, micro precision/recall/F1, label density, run aggregation.

Micro averaging sums true/false positives and false negatives over every
document and class before forming ratios; degenerate 0/0 ratios are defined
as 0 so early epochs with empty predictions stay finite.
"""

from __future__ import annotations

import numpy as np


def _check_paired(predictions, golds):
    if len(predictions) != len(golds):
        raise ValueError(
            f"{len(predictions)} predictions against {len(golds)} golds")


def accuracy(predictions, golds):
    """Fraction of positions where prediction equals gold exactly."""
    _check_paired(predictions, golds)
    if not golds:
        raise ValueError("accuracy of an empty evaluation is undefined")
    hits = sum(1 for p, g in zip(predictions, golds) if p == g)
    return hits / len(golds)


def micro_prf(pred_sets, gold_sets):
    """(precision, recall, F1) from confusion counts summed over documents."""
    _check_paired(pred_sets, gold_sets)
    tp = fp = fn = 0
    for pred, gold in zip(pred_sets, gold_sets):
        pred, gold = set(pred), set(gold)
        tp += len(pred & gold)
        fp += len(pred - gold)
        fn += len(gold - pred)
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = (2 * precision * recall / (precision + recall)
          if precision + recall else 0.0)
    return precision, recall, f1


def label_density(dataset):
    """Mean gold labels per example over train and test together."""
    examples = [*dataset.train, *dataset.test]
    if not examples:
        raise ValueError("label density of an empty dataset is undefined")
    return sum(len(ex.labels) for ex in examples) / len(examples)


def mean_std(values):
    """Mean and population standard deviation of a value sequence."""
    arr = np.asarray(list(values), dtype=np.float64)
    if arr.size == 0:
        raise ValueError("cannot aggregate zero values")
    return float(arr.mean()), float(arr.std())
