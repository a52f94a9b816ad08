"""Metric definitions against hand counts and a brute-force confusion oracle."""

import numpy as np
import pytest

from febench.metrics import accuracy, label_density, mean_std, micro_prf
from febench.text import Dataset, LabeledExample


def brute_force_prf(pred_sets, gold_sets, label_space):
    """Per-class confusion matrices summed the long way round."""
    tp = fp = fn = 0
    for label in label_space:
        for pred, gold in zip(pred_sets, gold_sets):
            in_pred, in_gold = label in pred, label in gold
            tp += in_pred and in_gold
            fp += in_pred and not in_gold
            fn += in_gold and not in_pred
    p = tp / (tp + fp) if tp + fp else 0.0
    r = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * p * r / (p + r) if p + r else 0.0
    return p, r, f1


class TestAccuracy:
    def test_perfect(self):
        assert accuracy([{1}, {2}], [{1}, {2}]) == 1.0

    def test_two_thirds(self):
        assert accuracy([{0}, {1}, {1}], [{0}, {1}, {0}]) == pytest.approx(2 / 3)

    def test_disjoint(self):
        assert accuracy([{0}, {0}], [{1}, {2}]) == 0.0

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            accuracy([{0}], [{0}, {1}])

    def test_empty(self):
        with pytest.raises(ValueError):
            accuracy([], [])


class TestMicroPrf:
    def test_worked_fixture(self):
        """golds {a},{a,b} vs preds {a},{b}: TP=2, FP=0, FN=1."""
        p, r, f1 = micro_prf([{"a"}, {"b"}], [{"a"}, {"a", "b"}])
        assert p == 1.0
        assert r == pytest.approx(2 / 3, abs=1e-12)
        assert f1 == pytest.approx(0.8, abs=1e-12)

    def test_perfect_prediction(self):
        assert micro_prf([{"a"}, {"b", "c"}], [{"a"}, {"b", "c"}]) == (1.0, 1.0, 1.0)

    def test_all_empty_predictions_use_zero_convention(self):
        p, r, f1 = micro_prf([set(), set()], [{"a"}, {"b"}])
        assert (p, r, f1) == (0.0, 0.0, 0.0)

    def test_matches_brute_force_oracle(self):
        """100 random instances, up to 10 docs and 5 labels, exact agreement."""
        rng = np.random.default_rng(101)
        labels = list("abcde")
        for _ in range(100):
            docs = int(rng.integers(1, 11))
            n_labels = int(rng.integers(1, 6))
            space = labels[:n_labels]
            preds, golds = [], []
            for _ in range(docs):
                preds.append({l for l in space if rng.random() < 0.4})
                golds.append({l for l in space if rng.random() < 0.4})
            got = micro_prf(preds, golds)
            want = brute_force_prf(preds, golds, space)
            assert got == pytest.approx(want, abs=1e-12)

    def test_single_label_micro_equals_accuracy(self):
        rng = np.random.default_rng(102)
        for _ in range(20):
            n = int(rng.integers(1, 30))
            preds = [{int(rng.integers(0, 4))} for _ in range(n)]
            golds = [{int(rng.integers(0, 4))} for _ in range(n)]
            acc = accuracy(preds, golds)
            p, r, f1 = micro_prf(preds, golds)
            assert p == pytest.approx(acc, abs=1e-12)
            assert r == pytest.approx(acc, abs=1e-12)
            assert f1 == pytest.approx(acc, abs=1e-12)

    def test_relabeling_invariance(self):
        rng = np.random.default_rng(103)
        space = list(range(5))
        preds = [{l for l in space if rng.random() < 0.5} for _ in range(12)]
        golds = [{l for l in space if rng.random() < 0.5} for _ in range(12)]
        perm = {old: new for old, new in zip(space, rng.permutation(space))}
        base = micro_prf(preds, golds)
        mapped = micro_prf([{perm[l] for l in s} for s in preds],
                           [{perm[l] for l in s} for s in golds])
        assert base == pytest.approx(mapped, abs=1e-12)


class TestLabelDensity:
    @staticmethod
    def _dataset(label_sets):
        examples = tuple(LabeledExample(f"doc {i}", frozenset(s))
                         for i, s in enumerate(label_sets))
        space = tuple(sorted({l for s in label_sets for l in s}))
        return Dataset(name="toy", task_kind="multi_label", label_space=space,
                       train=examples[:len(examples) // 2],
                       test=examples[len(examples) // 2:])

    def test_mean_of_set_sizes(self):
        ds = self._dataset([{"a"}, {"a", "b"}])
        assert label_density(ds) == 1.5

    def test_single_label_dataset_is_one(self):
        ds = self._dataset([{"a"}, {"b"}, {"a"}, {"b"}])
        assert label_density(ds) == 1.0

    def test_rcv1_style_fixture(self):
        """25 documents with 22 triple and 3 quadruple label sets: 78/25 = 3.12."""
        sets = [{"a", "b", "c"}] * 22 + [{"a", "b", "c", "d"}] * 3
        ds = self._dataset(sets)
        assert label_density(ds) == pytest.approx(3.12, abs=1e-12)


class TestMeanStd:
    def test_hand_values(self):
        mean, std = mean_std([1.0, 2.0, 3.0])
        assert mean == 2.0
        assert std == pytest.approx(0.8165, abs=1e-4)

    def test_identical_values(self):
        assert mean_std([4.2, 4.2, 4.2]) == (pytest.approx(4.2), 0.0)

    def test_single_value(self):
        mean, std = mean_std([7.0])
        assert (mean, std) == (7.0, 0.0)

    def test_population_not_sample(self):
        _, std = mean_std([0.0, 2.0])
        assert std == 1.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean_std([])
