"""Encoders: static embedding table or transformer, with a freeze switch.

Both kinds map a fixed-length token id sequence to a hidden-state sequence
[max_len x H].  The transformer follows the residual-then-normalize block
layout (attention, add, layer norm; feed-forward, add, layer norm) on top of
token + position embeddings with an embedding layer norm.  Freezing clears
``requires_grad`` on every encoder tensor, which keeps the whole encoder out
of the gradient map and therefore out of gradient/optimizer memory.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import ops
from .tensor import ShapeMismatchError, WeightSet, check_count

# feed-forward width in hidden widths, as in BERT and every preset
FF_MULTIPLE = 4


@dataclass(frozen=True)
class EncoderConfig:
    kind: str
    hidden: int
    vocab_size: int
    layers: int = 0
    heads: int = 1
    max_positions: int = 200

    def __post_init__(self):
        if self.kind not in ("static", "transformer"):
            raise ValueError(f"unknown encoder kind {self.kind!r}")
        for name, least in (("hidden", 1), ("vocab_size", 1), ("layers", 0),
                            ("heads", 1), ("max_positions", 1)):
            check_count(name, getattr(self, name), least)
        if self.kind == "transformer" and self.hidden % self.heads != 0:
            raise ValueError(
                f"hidden {self.hidden} not divisible by {self.heads} heads")


def expected_shapes(config):
    """Required tensor names and shapes for a config, in a stable order."""
    h = config.hidden
    shapes = {"token_embedding": (config.vocab_size, h)}
    if config.kind == "static":
        return shapes
    shapes["position_embedding"] = (config.max_positions, h)
    shapes["embedding_norm.scale"] = (h,)
    shapes["embedding_norm.offset"] = (h,)
    f = FF_MULTIPLE * h
    for i in range(config.layers):
        p = f"layer{i}"
        # attention projections are pure matrices: a key-projection bias is
        # cancelled by the softmax row shift, so none of the four carry one
        for proj in ("query", "key", "value", "output"):
            shapes[f"{p}.attention.{proj}.weight"] = (h, h)
        shapes[f"{p}.attention_norm.scale"] = (h,)
        shapes[f"{p}.attention_norm.offset"] = (h,)
        shapes[f"{p}.ff.grow.weight"] = (h, f)
        shapes[f"{p}.ff.grow.bias"] = (f,)
        shapes[f"{p}.ff.shrink.weight"] = (f, h)
        shapes[f"{p}.ff.shrink.bias"] = (h,)
        shapes[f"{p}.ff_norm.scale"] = (h,)
        shapes[f"{p}.ff_norm.offset"] = (h,)
    return shapes


def param_count(config):
    """Exact number of scalar parameters the config requires."""
    return sum(int(np.prod(s)) for s in expected_shapes(config).values())


def init_weights(config, seed):
    """Seeded random weights: matrices normal(0, 0.02), norm scales 1, biases 0."""
    return WeightSet.init(expected_shapes(config), seed, group="encoder")


def encoder_forward(config, weights, token_ids, valid_length):
    """Hidden sequence [len(token_ids) x H] for one encoded document."""
    token_ids = np.asarray(token_ids)
    t_len = token_ids.shape[0]
    tensors = weights.tensors
    hidden = ops.embedding_lookup(tensors["token_embedding"], ids=token_ids)
    if config.kind == "static":
        return hidden
    if t_len > config.max_positions:
        raise ShapeMismatchError(
            f"sequence length {t_len} exceeds {config.max_positions} positions")
    positions = ops.embedding_lookup(tensors["position_embedding"],
                                     ids=np.arange(t_len))
    x = ops.layer_norm(ops.add(hidden, positions),
                       tensors["embedding_norm.scale"],
                       tensors["embedding_norm.offset"])
    for i in range(config.layers):
        p = f"layer{i}"

        def proj(name, inp):
            return ops.matmul(inp, tensors[f"{p}.attention.{name}.weight"])

        attn = ops.scaled_dot_attention(
            proj("query", x), proj("key", x), proj("value", x),
            num_heads=config.heads, valid_length=valid_length)
        x = ops.layer_norm(ops.add(x, proj("output", attn)),
                           tensors[f"{p}.attention_norm.scale"],
                           tensors[f"{p}.attention_norm.offset"])
        grown = ops.gelu(ops.linear(x, tensors[f"{p}.ff.grow.weight"],
                                    tensors[f"{p}.ff.grow.bias"]))
        shrunk = ops.linear(grown, tensors[f"{p}.ff.shrink.weight"],
                            tensors[f"{p}.ff.shrink.bias"])
        x = ops.layer_norm(ops.add(x, shrunk),
                           tensors[f"{p}.ff_norm.scale"],
                           tensors[f"{p}.ff_norm.offset"])
    return x


PRESETS = {
    "static": dict(kind="static", hidden=128),
    "tiny": dict(kind="transformer", hidden=128, layers=2, heads=2),
    "L-2": dict(kind="transformer", hidden=768, layers=2, heads=12),
    "L-12": dict(kind="transformer", hidden=128, layers=12, heads=2),
    "base": dict(kind="transformer", hidden=768, layers=12, heads=12),
}


def preset_config(name, vocab_size):
    """Config for one of the named grid presets."""
    if name not in PRESETS:
        raise ValueError(f"unknown preset {name!r}; known: {sorted(PRESETS)}")
    return EncoderConfig(vocab_size=vocab_size, **PRESETS[name])


@dataclass
class Encoder:
    """Config + weights bundle with the freeze switch."""

    config: EncoderConfig
    weights: WeightSet

    @classmethod
    def build(cls, config, seed):
        return cls(config=config, weights=init_weights(config, seed))

    @classmethod
    def from_preset(cls, name, vocab_size, seed, frozen=False):
        encoder = cls.build(preset_config(name, vocab_size), seed)
        encoder.set_trainable(not frozen)
        return encoder

    def set_trainable(self, trainable):
        self.weights.set_trainable(trainable)

    def forward(self, token_ids, valid_length):
        return encoder_forward(self.config, self.weights, token_ids, valid_length)

