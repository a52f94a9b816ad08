"""CNN head: pooling with window masking, projection, prediction rules."""

import re

import numpy as np
import pytest

from febench import (ComputationRecord, MemoryLedger, ShapeMismatchError, Tensor,
                     backward, ops)
from febench.cnn import (CnnHead, CnnHeadConfig, cnn_forward, expected_shapes,
                         feature_dim, init_weights, predict)
from febench.tensor import WeightSet
from helpers import probe_sum


def f64_weights(config, rng):
    arrays = {name: rng.normal(size=shape)
              for name, shape in expected_shapes(config).items()}
    tensors = {name: Tensor(arr) for name, arr in arrays.items()}
    return WeightSet(tensors)


class TestFeatureDim:
    def test_default_config(self):
        assert feature_dim(CnnHeadConfig(hidden=128, classes=4)) == 400

    def test_single_kernel(self):
        assert feature_dim(CnnHeadConfig(hidden=8, classes=2,
                                         kernel_sizes=(3,), filters=5)) == 5

    def test_two_kernels(self):
        assert feature_dim(CnnHeadConfig(hidden=8, classes=2,
                                         kernel_sizes=(2, 9), filters=7)) == 14


class TestConfig:
    def test_duplicate_kernels_rejected(self):
        with pytest.raises(ValueError, match="distinct"):
            CnnHeadConfig(hidden=8, classes=2, kernel_sizes=(3, 3))

    @pytest.mark.parametrize("field, value, name", [
        ("hidden", 8.0, "hidden"), ("hidden", True, "hidden"),
        ("classes", 2.0, "classes"), ("classes", True, "classes"),
        ("filters", 100.0, "filters"), ("filters", True, "filters"),
        ("kernel_sizes", (3, 4.5), "kernel_sizes[1]"),
        ("kernel_sizes", (True, 3), "kernel_sizes[0]"),
        ("kernel_sizes", (), "len(kernel_sizes)")])
    def test_sizes_must_be_integers(self, field, value, name):
        """A float or bool size fails at construction and names its field,
        not later when the weights are built."""
        fields = dict(hidden=8, classes=2)
        fields[field] = value
        message = re.escape(f"{name} must be an integer")
        with pytest.raises(ValueError, match=message):
            CnnHeadConfig(**fields)

    def test_kernels_must_be_positive(self):
        with pytest.raises(ValueError):
            CnnHeadConfig(hidden=8, classes=2, kernel_sizes=(0,))


class TestForward:
    def test_zero_hidden_gives_projection_bias(self):
        config = CnnHeadConfig(hidden=6, classes=3, kernel_sizes=(2, 3), filters=4)
        weights = init_weights(config, seed=0)
        bias = np.array([0.5, -1.0, 2.0], dtype=np.float32)
        weights.tensors["projection.bias"].data[:] = bias
        hidden = Tensor(np.zeros((10, 6), dtype=np.float32))
        with ComputationRecord():
            logits = cnn_forward(config, weights, hidden, valid_length=8)
        np.testing.assert_array_equal(logits.data, bias)

    def test_single_filter_reduces_to_channel_max(self):
        """k=1, f=1, weight picking channel 0: pooled value is the channel max."""
        config = CnnHeadConfig(hidden=3, classes=1, kernel_sizes=(1,), filters=1)
        arrays = {
            "conv1.weight": np.array([[[1.0], [0.0], [0.0]]]),
            "conv1.bias": np.array([0.25]),
            "projection.weight": np.array([[1.0]]),
            "projection.bias": np.array([0.0]),
        }
        weights = WeightSet({n: Tensor(a) for n, a in arrays.items()})
        hidden = np.zeros((6, 3))
        hidden[:, 0] = [0.1, 0.9, -2.0, 0.4, 5.0, 5.0]
        with ComputationRecord():
            logits = cnn_forward(config, weights, Tensor(hidden), valid_length=4)
        np.testing.assert_allclose(logits.data, [0.9 + 0.25], atol=1e-12)

    def test_matches_window_enumeration_oracle(self):
        """Masked pooling equals a brute-force max over the enumerated valid windows."""
        rng = np.random.default_rng(17)
        config = CnnHeadConfig(hidden=5, classes=3, kernel_sizes=(2, 3), filters=4)
        weights = f64_weights(config, rng)
        hidden = rng.normal(size=(8, 5))
        valid = 6
        with ComputationRecord():
            logits = cnn_forward(config, weights, Tensor(hidden), valid_length=valid)
        features = []
        for k in config.kernel_sizes:
            w = weights.tensors[f"conv{k}.weight"].data
            b = weights.tensors[f"conv{k}.bias"].data
            for f in range(config.filters):
                best = -np.inf
                for start in range(valid - k + 1):
                    window = np.sum(hidden[start:start + k] * w[:, :, f]) + b[f]
                    best = max(best, max(window, 0.0))
                features.append(best)
        expected = np.array(features) @ weights.tensors["projection.weight"].data \
            + weights.tensors["projection.bias"].data
        np.testing.assert_allclose(logits.data, expected, atol=1e-12)

    def test_padding_rows_never_change_logits(self):
        """Rows at or past valid_length may hold anything; logits are identical."""
        rng = np.random.default_rng(18)
        config = CnnHeadConfig(hidden=4, classes=2, kernel_sizes=(2, 3), filters=3)
        weights = init_weights(config, seed=1)
        prefix = rng.normal(size=(5, 4)).astype(np.float32)
        junk_a = np.vstack([prefix, np.zeros((4, 4), dtype=np.float32)])
        junk_b = np.vstack([prefix, 1e6 * np.ones((4, 4), dtype=np.float32)])
        with ComputationRecord():
            la = cnn_forward(config, weights, Tensor(junk_a), valid_length=5)
            lb = cnn_forward(config, weights, Tensor(junk_b), valid_length=5)
        np.testing.assert_array_equal(la.data, lb.data)

    def test_kernel_order_permutation_invariance(self):
        """Swapping kernel order with matching projection-row blocks keeps logits."""
        rng = np.random.default_rng(19)
        forward_cfg = CnnHeadConfig(hidden=4, classes=3, kernel_sizes=(2, 4), filters=3)
        swapped_cfg = CnnHeadConfig(hidden=4, classes=3, kernel_sizes=(4, 2), filters=3)
        weights = f64_weights(forward_cfg, rng)
        proj = weights.tensors["projection.weight"].data
        swapped_proj = np.vstack([proj[3:], proj[:3]])
        swapped = WeightSet({
            **{n: Tensor(t.data) for n, t in weights.tensors.items()
               if n != "projection.weight"},
            "projection.weight": Tensor(swapped_proj)})
        hidden = rng.normal(size=(8, 4))
        with ComputationRecord():
            a = cnn_forward(forward_cfg, weights, Tensor(hidden), valid_length=7)
            b = cnn_forward(swapped_cfg, swapped, Tensor(hidden), valid_length=7)
        np.testing.assert_allclose(a.data, b.data, atol=1e-12)

    def test_valid_length_below_largest_kernel(self):
        config = CnnHeadConfig(hidden=4, classes=2, kernel_sizes=(2, 5), filters=2)
        weights = init_weights(config, seed=0)
        with pytest.raises(ShapeMismatchError, match="kernel"):
            with ComputationRecord():
                cnn_forward(config, weights, Tensor(np.zeros((8, 4))), valid_length=4)


def _relu_then_pool(config, weights, hidden, valid_length):
    """The head's former order: ReLU over every live window, then pooling."""
    tensors = weights.tensors
    pooled = []
    for k in config.kernel_sizes:
        live = valid_length - k + 1
        conv = ops.conv1d_valid(hidden, tensors[f"conv{k}.weight"],
                                tensors[f"conv{k}.bias"], limit=live)
        pooled.append(ops.max_over_time(ops.relu(conv)))
    return ops.linear(ops.concat(pooled), tensors["projection.weight"],
                      tensors["projection.bias"])


def _all_windows(config, weights, hidden, valid_length):
    """The head with every window convolved, those over padding included; a
    0/1 selection product, exact both ways, passes pooling the live ones."""
    tensors = weights.tensors
    pooled = []
    for k in config.kernel_sizes:
        n = hidden.shape[0] - k + 1
        conv = ops.conv1d_valid(hidden, tensors[f"conv{k}.weight"],
                                tensors[f"conv{k}.bias"], limit=n)
        live = Tensor(np.eye(valid_length - k + 1, n, dtype=conv.dtype))
        pooled.append(ops.relu(ops.max_over_time(ops.matmul(live, conv))))
    return ops.linear(ops.concat(pooled), tensors["projection.weight"],
                      tensors["projection.bias"])


def _head_runs(dtype, trainable_hidden, forwards):
    """Logits and gradients of the default head under each forward, at
    valid lengths 6, 17 and 32 of a 32-row hidden sequence."""
    rng = np.random.default_rng([17, trainable_hidden])
    config = CnnHeadConfig(hidden=128, classes=4)
    arrays = {name: rng.normal(0.0, 0.02, size=shape).astype(dtype)
              for name, shape in expected_shapes(config).items()}
    # filter 0 of the width-3 kernel is never positive: its pooled max
    # is negative, and every order must pass it an exact zero
    arrays["conv3.bias"][0] = -10.0
    weights = WeightSet({
        name: Tensor(arr, requires_grad=True) for name, arr in arrays.items()})
    coef = rng.normal(size=config.classes).astype(dtype)
    for valid in (6, 17, 32):
        hidden = Tensor(rng.normal(size=(32, 128)).astype(dtype),
                        requires_grad=trainable_hidden)
        conv3 = ops.conv1d_valid(hidden, weights.tensors["conv3.weight"],
                                 weights.tensors["conv3.bias"], limit=valid - 2)
        assert conv3.data[:, 0].max() <= 0 < conv3.data.max()
        runs = []
        for forward in forwards:
            with ComputationRecord():
                logits = forward(config, weights, hidden, valid)
                grads = backward(probe_sum(logits, coef))
            assert logits.data.dtype == dtype
            assert (hidden.tid in grads) == trainable_hidden
            runs.append((logits.data, grads))
        yield valid, list(weights.tensors.values()) + [hidden], runs


class TestPoolBeforeRelu:
    """Pooling before ReLU gives the former order's exact values and gradients."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trainable_hidden", [True, False])
    def test_bit_identical_to_relu_then_pool(self, dtype, trainable_hidden):
        for _, tensors, runs in _head_runs(dtype, trainable_hidden,
                                           (cnn_forward, _relu_then_pool)):
            (new_logits, new_grads), (old_logits, old_grads) = runs
            np.testing.assert_array_equal(new_logits, old_logits)
            assert new_grads.keys() == old_grads.keys()
            for t in tensors:
                if t.tid in old_grads:
                    assert new_grads[t.tid].dtype == dtype
                    np.testing.assert_array_equal(new_grads[t.tid], old_grads[t.tid])

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("trainable_hidden", [True, False])
    def test_live_windows_match_all_windows(self, dtype, trainable_hidden):
        """Convolving only the live windows multiplies fewer rows, which BLAS
        may round differently in the last bits: logits and gradients agree
        with the all-window head to 1e-5 (float32) or 1e-12 (float64) of
        each array's largest magnitude; rows of the input gradient past the
        live windows are exact zeros in both."""
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for valid, tensors, runs in _head_runs(dtype, trainable_hidden,
                                               (cnn_forward, _all_windows)):
            (live_logits, live_grads), (all_logits, all_grads) = runs
            assert live_grads.keys() == all_grads.keys()
            pairs = [(live_logits, all_logits)] + [
                (live_grads[t.tid], all_grads[t.tid])
                for t in tensors if t.tid in all_grads]
            for got, want in pairs:
                assert got.dtype == want.dtype and got.shape == want.shape
                np.testing.assert_allclose(got, want, rtol=tol,
                                           atol=tol * np.abs(want).max())
            if trainable_hidden:
                for grads in (live_grads, all_grads):
                    assert not grads[tensors[-1].tid][valid:].any()

    def test_hand_computed_ledger_for_one_document(self):
        """Hidden 8, kernels (2, 3), 5 filters, 3 classes, T 10: every byte
        by hand, each charged while its buffer lives."""
        config = CnnHeadConfig(hidden=8, classes=3, kernel_sizes=(2, 3), filters=5)
        weights = init_weights(config, seed=0)
        hidden = Tensor(np.ones((10, 8), dtype=np.float32))  # a frozen encoder's output
        ledger = MemoryLedger()
        with ComputationRecord(ledger):
            loss = ops.sum_all(cnn_forward(config, weights, hidden, valid_length=7))
            # the forward peaks at the second kernel's [7 - 3 + 1, 5] conv
            # output, while the first's [6, 5] is still bound and its [5]
            # uint8 argmax, [5] relu output and [5] boolean mask live (its
            # pooled row died once relu returned)
            assert ledger.peak() == 120 + 100 + (5 + 20 + 5) == 250
            # once it returns, only what a closure saves lives: the argmaxes,
            # the masks, the concat (linear saves its input), and the loss
            saved = 2 * 5 + 2 * 5 + 40
            assert ledger.current("activations") == saved + 4 == 64
            grads = backward(loss)
            # the weights: conv [2, 8, 5] and [3, 8, 5] with [5] biases,
            # projection [10, 3] and [3]
            weight_grads = (80 + 5 + 120 + 5 + 30 + 3) * 4
            assert ledger.breakdown()["group_current"] == {
                "gradients/head": weight_grads}
            assert ledger.current("gradients") == weight_grads == 972
            assert ledger.current("activations") == 4
            # the walk peaks as the projection's weight gradient is
            # multiplied out: the first kernel's argmax, the concat and the
            # loss; the logits' [3] gradient and the projection's; the first
            # kernel's winners, charged as their dense [6, 5], and their [5]
            # values; and the conv gradients
            assert ledger.peak() == (5 + 40 + 4) + (12 + 12 + 120) \
                + (120 + 20) + (480 + 20 + 320 + 20) == 1173
        assert hidden.tid not in grads
        # the map holds the weights' gradients only; the outputs' died in the walk
        widths = sorted(g.shape for g in grads.values())
        assert widths == sorted([(2, 8, 5), (5,), (3, 8, 5), (5,), (10, 3), (3,)])
        assert ledger.current() == 4 + 972
        del loss, grads
        assert ledger.current() == 0

    @pytest.mark.parametrize("trainable_hidden", [True, False])
    def test_conv_charges_follow_valid_length(self, monkeypatch, trainable_hidden):
        """One document's conv outputs are charged [valid - k + 1, f]
        whatever T is, and so is every gradient but the input's own [T, 8].
        The walk holds one [T, 8] at a time: the first kernel's part is a
        buffer that its closure made, so the input's slot owns it and adds
        the second kernel's part in place."""
        config = CnnHeadConfig(hidden=8, classes=3, kernel_sizes=(2, 3), filters=5)
        weights = init_weights(config, seed=0)
        conv, charged = ops.conv1d_valid, []

        def charging_conv(*args, **kwargs):
            before = ledger.current("activations")
            out = conv(*args, **kwargs)
            charged.append(ledger.current("activations") - before)
            return out

        monkeypatch.setattr(ops, "conv1d_valid", charging_conv)
        for t_len in (7, 12, 40):
            hidden = Tensor(np.ones((t_len, 8), dtype=np.float32),
                            requires_grad=trainable_hidden)
            ledger = MemoryLedger()
            with ComputationRecord(ledger):
                backward(ops.sum_all(cnn_forward(config, weights, hidden,
                                                 valid_length=7)))
            # the frozen walk's gradient peak is 1124 (see the test above);
            # a trainable input adds its one [T, 8] there
            own = t_len * 8 * 4 if trainable_hidden else 0
            assert ledger.peak("activations") == 250
            assert ledger.peak("gradients") == 1124 + own
        assert charged == [(7 - 2 + 1) * 5 * 4, (7 - 3 + 1) * 5 * 4] * 3


class TestPredict:
    def test_single_label_argmax(self):
        assert predict(np.array([0.1, 2.0, -1.0]), "single_label", 0.5) == {1}

    def test_single_label_tie_takes_lowest_index(self):
        assert predict(np.array([3.0, 3.0, 1.0]), "single_label", 0.5) == {0}

    def test_multi_label_threshold(self):
        """sigmoid(0) = 0.5 meets a 0.5 threshold; strongly negative does not."""
        assert predict(np.array([0.0, 3.0, -3.0]), "multi_label",
                       threshold=0.5) == {0, 1}

    def test_multi_label_may_be_empty(self):
        assert predict(np.full(4, -10.0), "multi_label", 0.5) == set()

    def test_multi_label_threshold_bounds(self):
        with pytest.raises(ValueError):
            predict(np.zeros(3), "multi_label", threshold=1.0)

    def test_accepts_tensor_input(self):
        with ComputationRecord():
            assert predict(Tensor(np.array([0.0, 5.0])), "single_label",
                           0.5) == {1}

    def test_argmax_of_softmax_equals_argmax_of_logits(self):
        rng = np.random.default_rng(20)
        for _ in range(25):
            logits = rng.normal(size=6)
            shifted = logits - logits.max()
            soft = np.exp(shifted) / np.exp(shifted).sum()
            assert int(np.argmax(soft)) == int(np.argmax(logits))


class TestBuild:
    def test_head_bundle(self):
        head = CnnHead.build(CnnHeadConfig(hidden=8, classes=2,
                                           kernel_sizes=(2,), filters=3), seed=0)
        with ComputationRecord():
            out = head.forward(Tensor(np.zeros((6, 8), dtype=np.float32)),
                               valid_length=5)
        assert out.shape == (2,)

    def test_init_deterministic(self):
        config = CnnHeadConfig(hidden=8, classes=2)
        a, b = init_weights(config, seed=5), init_weights(config, seed=5)
        for name in a.tensors:
            np.testing.assert_array_equal(a.tensors[name].data,
                                          b.tensors[name].data)
