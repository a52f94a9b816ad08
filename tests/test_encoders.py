"""Encoder configs, weight init, forward passes, freezing."""

import numpy as np
import pytest

from febench import ComputationRecord, Tensor, backward
from febench import ops
from febench.encoders import (PRESETS, Encoder, EncoderConfig,
                              encoder_forward, expected_shapes, init_weights,
                              param_count, preset_config)
from febench.tensor import WeightSet


def tiny_config(**overrides):
    base = dict(kind="transformer", hidden=8, vocab_size=12, layers=1,
                heads=2, max_positions=10)
    base.update(overrides)
    return EncoderConfig(**base)


class TestConfig:
    def test_ff_defaults_to_four_h(self):
        shapes = expected_shapes(tiny_config())
        assert shapes["layer0.ff.grow.weight"] == (8, 32)
        assert shapes["layer0.ff.shrink.weight"] == (32, 8)

    def test_heads_must_divide_hidden(self):
        with pytest.raises(ValueError, match="divisible"):
            tiny_config(heads=3)

    def test_unknown_kind(self):
        with pytest.raises(ValueError):
            EncoderConfig(kind="recurrent", hidden=8, vocab_size=10)


class TestParamCount:
    def test_static(self):
        config = EncoderConfig(kind="static", hidden=8, vocab_size=100)
        assert param_count(config) == 800

    def test_embeddings_only_transformer(self):
        """(100 + 16) x 8 token/position rows plus 2 x 8 embedding norm."""
        config = EncoderConfig(kind="transformer", hidden=8, vocab_size=100,
                               layers=0, heads=2, max_positions=16)
        assert param_count(config) == 944

    def test_blocks_scale_linearly_in_layers(self):
        one = param_count(tiny_config(layers=1))
        two = param_count(tiny_config(layers=2))
        zero = param_count(tiny_config(layers=0))
        assert two - one == one - zero

    def test_matches_actual_tensor_sizes(self):
        config = tiny_config(layers=2)
        weights = init_weights(config, seed=0)
        total = sum(t.data.size for t in weights.tensors.values())
        assert total == param_count(config)


class TestInitWeights:
    def test_deterministic(self):
        a = init_weights(tiny_config(), seed=3)
        b = init_weights(tiny_config(), seed=3)
        assert a.byte_image() == b.byte_image()

    def test_seeds_differ(self):
        a = init_weights(tiny_config(), seed=3)
        b = init_weights(tiny_config(), seed=4)
        assert a.byte_image() != b.byte_image()

    def test_norm_scales_are_ones_biases_zero(self):
        weights = init_weights(tiny_config(), seed=0)
        for name, t in weights.tensors.items():
            if name.endswith("norm.scale"):
                np.testing.assert_array_equal(t.data, 1.0)
            elif name.endswith((".bias", "norm.offset")):
                np.testing.assert_array_equal(t.data, 0.0)

    def test_weights_are_float32(self):
        weights = init_weights(tiny_config(), seed=0)
        assert all(t.dtype == np.float32 for t in weights.tensors.values())

    def test_weight_set_init_draws_in_table_order(self):
        """Only the normal(0, 0.02) tensors draw, one after another."""
        shapes = {"a.weight": (2, 3), "a.bias": (3,), "norm.scale": (3,),
                  "norm.offset": (3,), "b": (4,)}
        weights = WeightSet.init(shapes, seed=5, group="g")
        rng = np.random.default_rng(5)
        want = {"a.weight": rng.normal(0.0, 0.02, size=(2, 3)),
                "a.bias": np.zeros(3), "norm.scale": np.ones(3),
                "norm.offset": np.zeros(3),
                "b": rng.normal(0.0, 0.02, size=(4,))}
        assert list(weights.tensors) == list(shapes)
        for name, t in weights.tensors.items():
            assert t.dtype == np.float32 and t.group == "g" and t.requires_grad
            np.testing.assert_array_equal(t.data, want[name].astype(np.float32))


class TestForward:
    def test_static_returns_table_rows(self):
        config = EncoderConfig(kind="static", hidden=4, vocab_size=6)
        weights = init_weights(config, seed=1)
        ids = np.array([2, 5, 0, 3])
        with ComputationRecord():
            out = encoder_forward(config, weights, ids, valid_length=4)
        np.testing.assert_array_equal(out.data,
                                      weights.tensors["token_embedding"].data[ids])

    def test_zero_layer_transformer_is_normalized_embedding(self):
        config = tiny_config(layers=0)
        weights = init_weights(config, seed=2)
        ids = np.array([2, 4, 7, 3, 0])
        with ComputationRecord():
            out = encoder_forward(config, weights, ids, valid_length=4)
        summed = (weights.tensors["token_embedding"].data[ids]
                  + weights.tensors["position_embedding"].data[:5])
        mean = summed.mean(axis=-1, keepdims=True)
        var = summed.var(axis=-1, keepdims=True)
        expected = (summed - mean) / np.sqrt(var + 1e-12)
        np.testing.assert_allclose(out.data, expected, rtol=1e-5, atol=1e-6)

    def test_output_shape(self):
        config = tiny_config(layers=2)
        weights = init_weights(config, seed=0)
        with ComputationRecord():
            out = encoder_forward(config, weights, np.arange(10) % 12,
                                  valid_length=6)
        assert out.shape == (10, 8)

    def test_sequence_longer_than_positions_rejected(self):
        config = tiny_config()
        weights = init_weights(config, seed=0)
        from febench import ShapeMismatchError
        with pytest.raises(ShapeMismatchError, match="positions"):
            with ComputationRecord():
                encoder_forward(config, weights, np.zeros(11, dtype=np.int64), 5)

    def test_padding_rows_do_not_change_valid_prefix(self):
        """Swapping PAD-position token ids leaves rows before valid_length intact."""
        config = tiny_config(layers=2)
        weights = init_weights(config, seed=6)
        ids_a = np.array([2, 4, 5, 3, 0, 0, 0, 0])
        ids_b = np.array([2, 4, 5, 3, 9, 9, 9, 9])
        with ComputationRecord():
            out_a = encoder_forward(config, weights, ids_a, valid_length=4)
            out_b = encoder_forward(config, weights, ids_b, valid_length=4)
        np.testing.assert_allclose(out_a.data[:4], out_b.data[:4],
                                   rtol=1e-5, atol=1e-6)


class TestFreezing:
    def test_frozen_encoder_absent_from_gradient_map(self):
        config = tiny_config()
        encoder = Encoder.build(config, seed=0)
        encoder.set_trainable(False)
        probe = Tensor(np.ones((8, 1), dtype=np.float32), requires_grad=True)
        with ComputationRecord():
            hidden = encoder.forward(np.array([2, 5, 3, 0]), valid_length=3)
            assert not hidden.requires_grad
            grads = backward(ops.sum_all(ops.matmul(hidden, probe)))
        encoder_tids = {t.tid for t in encoder.weights.tensors.values()}
        assert encoder_tids.isdisjoint(grads)
        assert probe.tid in grads

    def test_trainable_encoder_fully_in_gradient_map(self):
        config = tiny_config()
        encoder = Encoder.build(config, seed=0)
        encoder.set_trainable(True)
        with ComputationRecord():
            hidden = encoder.forward(np.array([2, 5, 3, 0]), valid_length=3)
            grads = backward(ops.sum_all(ops.gelu(hidden)))
        for name, t in encoder.weights.tensors.items():
            assert t.tid in grads, name

    def test_freeze_toggle_sets_every_tensor(self):
        encoder = Encoder.build(tiny_config(), seed=0)
        tensors = encoder.weights.tensors.values()
        encoder.set_trainable(False)
        assert not any(t.requires_grad for t in tensors)
        encoder.set_trainable(True)
        assert all(t.requires_grad for t in tensors)

    @pytest.mark.parametrize("frozen", [True, False])
    def test_from_preset_sets_trainability_on_the_tensors(self, frozen):
        encoder = Encoder.from_preset("tiny", vocab_size=20, seed=0,
                                      frozen=frozen)
        assert all(t.requires_grad != frozen
                   for t in encoder.weights.tensors.values())


class TestPresets:
    @pytest.mark.parametrize("name,hidden,layers,heads", [
        ("tiny", 128, 2, 2), ("L-2", 768, 2, 12),
        ("L-12", 128, 12, 2), ("base", 768, 12, 12)])
    def test_grid_dimensions(self, name, hidden, layers, heads):
        config = preset_config(name, vocab_size=50)
        assert (config.hidden, config.layers, config.heads) == (hidden, layers, heads)
        assert expected_shapes(config)["layer0.ff.grow.weight"] == (
            hidden, 4 * hidden)
        assert config.max_positions == 200

    @pytest.mark.parametrize("name", sorted(PRESETS))
    def test_every_preset_takes_200_positions(self, name):
        assert preset_config(name, vocab_size=50) == EncoderConfig(
            vocab_size=50, max_positions=200, **PRESETS[name])

    def test_static_preset(self):
        config = preset_config("static", vocab_size=50)
        assert config.kind == "static"

    def test_unknown_preset(self):
        with pytest.raises(ValueError, match="unknown preset"):
            preset_config("huge", vocab_size=50)
