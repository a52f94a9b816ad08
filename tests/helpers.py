"""Shared builders for gradient-check sweeps, and a physical memory probe.

Each case maps a primitive (possibly composed with a smooth wrapper so the
output is scalar and the gradients input-dependent) to a point sampler.
Samplers keep inputs away from kinks and ties so central differences are
trustworthy: relu points stay off zero, max pooling points have per-column
gaps far above the probe step.

:func:`trace_steps` runs training steps under ``tracemalloc``, which sees
every numpy allocation, so it measures the bytes the process really holds
next to what the ledger charges.
"""

import tracemalloc
from typing import NamedTuple

import numpy as np

from febench import MemoryLedger, ops, tensor, training


def _signed_away_from_zero(rng, size, low=0.2, high=1.5):
    return rng.uniform(low, high, size=size) * rng.choice([-1.0, 1.0], size=size)


def _gapped_columns(rng, t, f, scale=1.0):
    """[t, f] matrix whose columns are permutations of an even grid."""
    base = np.linspace(0.0, scale, t)
    return np.column_stack([rng.permutation(base) for _ in range(f)])


def _case_matmul(rng):
    return (lambda a, b: ops.sum_all(ops.matmul(a, b)),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2))])


def _case_add(rng):
    return (lambda a, b: ops.sum_all(ops.gelu(ops.add(a, b))),
            [rng.normal(size=(3, 4)), rng.normal(size=(3, 4))])


def _case_sum(rng):
    return lambda x: ops.sum_all(x), [rng.normal(size=(2, 5))]


def _case_relu(rng):
    return (lambda x: ops.sum_all(ops.relu(x)),
            [_signed_away_from_zero(rng, (4, 4))])


def _case_gelu(rng):
    return lambda x: ops.sum_all(ops.gelu(x)), [rng.normal(size=(3, 4))]


def _case_layer_norm(rng):
    return (lambda x, s, o: ops.sum_all(ops.gelu(ops.layer_norm(x, s, o))),
            [rng.normal(size=(4, 6)), rng.normal(size=6), rng.normal(size=6)])


def _case_conv1d_valid(rng):
    """Conv over every one of its 5 windows."""
    return (lambda x, w, b: ops.sum_all(ops.gelu(
                ops.conv1d_valid(x, w, b, limit=5))),
            [rng.normal(size=(7, 4)), rng.normal(size=(3, 4, 5)),
             rng.normal(size=5)])


def _case_conv1d_valid_frozen_input(rng):
    from febench.tensor import Tensor
    x = Tensor(rng.normal(size=(7, 4)))
    return (lambda w, b: ops.sum_all(ops.gelu(
                ops.conv1d_valid(x, w, b, limit=5))),
            [rng.normal(size=(3, 4, 5)), rng.normal(size=5)])


def _conv1d_valid_limit_case(limit, frozen_input):
    """Conv over only its first ``limit`` of 5 windows: below 5, the input
    rows past window ``limit - 1`` get an exact zero gradient.  Weights of scale 0.3
    keep each output where gelu's slope is far from zero, as one window
    alone must carry a filter's gradient."""
    def case(rng):
        from febench.tensor import Tensor
        x, w, b = (rng.normal(size=(7, 4)), 0.3 * rng.normal(size=(3, 4, 5)),
                   rng.normal(size=5))

        def fn(*args):
            conv = ops.conv1d_valid(*args, limit=limit)
            return ops.sum_all(ops.gelu(conv))
        if frozen_input:
            x = Tensor(x)
            return (lambda w, b: fn(x, w, b)), [w, b]
        return fn, [x, w, b]
    return case


def _case_conv1d_valid_limit_pooled(rng):
    """Conv over its first 4 of 7 windows, pooled over all 4 by 2 filters,
    as the CNN head pairs them."""
    def fn(x, w, b):
        conv = ops.conv1d_valid(x, w, b, limit=4)
        return ops.sum_all(ops.gelu(ops.max_over_time(conv)))
    return fn, [rng.normal(size=(9, 4)), rng.normal(size=(3, 4, 2)),
                rng.normal(size=2)]


def _case_conv1d_valid_pooled(rng):
    """Conv over all 7 windows pooled by 2 filters: the conv backward sees
    dead rows (never a column's max)."""
    def fn(x, w, b):
        pooled = ops.max_over_time(ops.conv1d_valid(x, w, b, limit=7))
        return ops.sum_all(ops.gelu(pooled))
    return fn, [rng.normal(size=(9, 4)), rng.normal(size=(3, 4, 2)),
                rng.normal(size=2)]


def _case_max_over_time(rng):
    def fn(x):
        pooled = ops.max_over_time(x)
        return ops.sum_all(ops.gelu(pooled))
    return fn, [_gapped_columns(rng, 6, 3)]


def _case_embedding_lookup(rng):
    ids = np.array([0, 2, 2, 4, 1])
    return (lambda t: ops.sum_all(ops.gelu(ops.embedding_lookup(t, ids=ids))),
            [rng.normal(size=(5, 4))])


def _case_embedding_two_lookups(rng):
    """One table looked up by two documents' ids, repeated within and across
    them: the walk adds both row-sparse updates into one table gradient."""
    first, second = np.array([0, 3, 3, 1]), np.array([3, 1, 1, 4, 0, 3])

    def fn(t):
        rows = ops.concat([ops.embedding_lookup(t, ids=first),
                           ops.embedding_lookup(t, ids=second)])
        return ops.sum_all(ops.gelu(rows))
    return fn, [rng.normal(size=(6, 3))]


def _case_shared_weight(rng):
    """One weight in two documents' matmul and 2-d linear calls: the walk
    stacks its four factor pairs and multiplies them out once."""
    def fn(x1, x2, w, b):
        parts = [ops.matmul(x1, w), ops.matmul(x2, w),
                 ops.linear(x1, w, b), ops.linear(x2, w, b)]
        return ops.sum_all(ops.gelu(ops.concat(parts)))
    return fn, [rng.normal(size=(3, 4)), rng.normal(size=(2, 4)),
                rng.normal(size=(4, 2)), rng.normal(size=2)]


def _case_factors_into_non_leaf(rng):
    """Two matmuls by one gelu(w): their factors reach a non-leaf and must be
    multiplied out before gelu's closure runs."""
    def fn(x1, x2, w):
        tw = ops.gelu(w)
        both = ops.concat([ops.matmul(x1, tw), ops.matmul(x2, tw)])
        return ops.sum_all(ops.gelu(both))
    return fn, [rng.normal(size=(3, 4)), rng.normal(size=(2, 4)),
                rng.normal(size=(4, 2))]


def _case_scaled_dot_attention(rng):
    def fn(q, k, v):
        out = ops.scaled_dot_attention(q, k, v, num_heads=2, valid_length=4)
        return ops.sum_all(ops.gelu(out))
    return fn, [rng.normal(size=(5, 6)) for _ in range(3)]


def _case_concat(rng):
    return (lambda a, b: ops.sum_all(ops.gelu(ops.concat([a, b]))),
            [rng.normal(size=(2, 3)), rng.normal(size=(4, 3))])


def _case_stack(rng):
    def fn(a, b, c):
        return ops.sum_all(ops.gelu(ops.stack([a, b, c])))
    return fn, [rng.normal(size=(2, 2)) for _ in range(3)]


def _case_linear(rng):
    return (lambda x, w, b: ops.sum_all(ops.gelu(ops.linear(x, w, b))),
            [rng.normal(size=(3, 4)), rng.normal(size=(4, 2)), rng.normal(size=2)])


def _case_linear_vec(rng):
    return (lambda x, w, b: ops.sum_all(ops.gelu(ops.linear(x, w, b))),
            [rng.normal(size=4), rng.normal(size=(4, 2)), rng.normal(size=2)])


def _case_softmax_xent(rng):
    targets = rng.integers(0, 3, size=4)
    return (lambda l: ops.softmax_xent(l, targets=targets),
            [rng.normal(size=(4, 3))])


def _case_sigmoid_bce(rng):
    targets = rng.integers(0, 2, size=(3, 4)).astype(np.float64)
    return (lambda l: ops.sigmoid_bce(l, targets=targets),
            [rng.normal(size=(3, 4))])


def _e2e_setup(rng):
    from febench.cnn import CnnHeadConfig
    from febench.cnn import expected_shapes as head_shapes
    from febench.encoders import EncoderConfig
    from febench.encoders import expected_shapes as encoder_shapes

    enc_cfg = EncoderConfig(kind="transformer", hidden=8, vocab_size=12,
                            layers=1, heads=2, max_positions=10)
    head_cfg = CnnHeadConfig(hidden=8, classes=2, kernel_sizes=(2, 3), filters=3)
    enc_arrays, head_arrays = {}, {}
    for name, shape in encoder_shapes(enc_cfg).items():
        if name.endswith("norm.scale"):
            enc_arrays[name] = np.ones(shape) + 0.05 * rng.normal(size=shape)
        else:
            enc_arrays[name] = 0.2 * rng.normal(size=shape)
    for name, shape in head_shapes(head_cfg).items():
        head_arrays[name] = 0.2 * rng.normal(size=shape)
    ids = rng.integers(0, 12, size=8)
    valid = 6
    target = np.array([int(rng.integers(0, 2))])
    return enc_cfg, head_cfg, enc_arrays, head_arrays, ids, valid, target


def e2e_frozen_encoder_case(rng):
    """Loss as a function of head weights only; the encoder is a frozen constant."""
    from febench.cnn import cnn_forward
    from febench.cnn import expected_shapes as head_shapes
    from febench.encoders import encoder_forward
    from febench.tensor import WeightSet
    from febench.tensor import Tensor

    enc_cfg, head_cfg, enc_arrays, head_arrays, ids, valid, target = _e2e_setup(rng)
    head_names = sorted(head_shapes(head_cfg))

    def fn(*head_tensors):
        frozen = WeightSet({name: Tensor(arr) for name, arr in enc_arrays.items()})
        hidden = encoder_forward(enc_cfg, frozen, ids, valid)
        head = WeightSet(dict(zip(head_names, head_tensors)))
        logits = cnn_forward(head_cfg, head, hidden, valid)
        return ops.softmax_xent(ops.stack([logits]), targets=target)

    return fn, [head_arrays[n] for n in head_names]


def e2e_transformer_case(rng):
    """Smooth scalar of the hidden sequence, differentiated in every encoder weight.

    The probe stays smooth (a [H, 8] matmul, then gelu; no pooling/relu) so
    each coordinate carries a gradient well above the finite-difference
    noise floor.
    """
    from febench.encoders import encoder_forward
    from febench.encoders import expected_shapes as encoder_shapes
    from febench.tensor import WeightSet

    enc_cfg, _, enc_arrays, _, ids, valid, _ = _e2e_setup(rng)
    enc_names = sorted(encoder_shapes(enc_cfg))
    probe = rng.normal(size=(enc_cfg.hidden, 8))

    def fn(*tensors):
        enc = WeightSet(dict(zip(enc_names, tensors)))
        hidden = encoder_forward(enc_cfg, enc, ids, valid)
        from febench.tensor import Tensor
        return ops.sum_all(ops.gelu(ops.matmul(hidden, Tensor(probe))))

    return fn, [enc_arrays[n] for n in enc_names]


PRIMITIVE_GRAD_CASES = {
    "matmul": _case_matmul,
    "add": _case_add,
    "sum": _case_sum,
    "relu": _case_relu,
    "gelu": _case_gelu,
    "layer_norm": _case_layer_norm,
    "conv1d_valid": _case_conv1d_valid,
    "conv1d_valid_frozen_input": _case_conv1d_valid_frozen_input,
    "conv1d_valid_pooled": _case_conv1d_valid_pooled,
    **{f"conv1d_valid_limit{m}{suffix}": _conv1d_valid_limit_case(m, frozen)
       for m in (1, 3, 5)
       for frozen, suffix in ((False, ""), (True, "_frozen_input"))},
    "conv1d_valid_limit_pooled": _case_conv1d_valid_limit_pooled,
    "max_over_time": _case_max_over_time,
    "embedding_lookup": _case_embedding_lookup,
    "embedding_two_lookups": _case_embedding_two_lookups,
    "scaled_dot_attention": _case_scaled_dot_attention,
    "concat": _case_concat,
    "stack": _case_stack,
    "linear": _case_linear,
    "linear_vec": _case_linear_vec,
    "shared_weight": _case_shared_weight,
    "factors_into_non_leaf": _case_factors_into_non_leaf,
    "softmax_xent": _case_softmax_xent,
    "sigmoid_bce": _case_sigmoid_bce,
}


def probe_sum(out, probe):
    """``sum(out * probe)`` as one taped entry: a scalar loss whose backward
    hands ``out`` exactly ``probe`` (``ops`` has no elementwise product)."""
    loss = tensor.Tensor((out.data * probe).sum(),
                         requires_grad=out.requires_grad)
    tensor.current_record().append(
        "probe_sum", (out,), loss,
        (lambda g: (g * probe,)) if out.requires_grad else None)
    return loss


class TracedSteps(NamedTuple):
    """What :func:`trace_steps` saw, in bytes, and the steps' ledger."""

    peak: int       # traced high-water mark over every step
    forward: int    # traced when the last step's loss exists
    held: int       # traced once its backward returned, less the map's arrays
    ledger: object  # parameters charged first, as ``training.train`` does


def trace_steps(encoder, head, ids, valid, targets, steps=2):
    """Run ``steps`` single-label ``training.train_step``s under ``tracemalloc``.

    Tracing starts once the parameters exist, so their bytes never count:
    the physical step peak is ``ledger.peak("parameters") + peak``.  The
    optimizer state that the first step creates does count.  Each step's
    ``backward`` is sampled by a wrapper set on ``febench.training``.
    """
    params = [*encoder.weights.tensors.values(), *head.weights.tensors.values()]
    ledger = MemoryLedger()
    for p in params:
        ledger.record_alloc("parameters", p.data.nbytes, group=p.group)
    state = training.AdamState(ledger=ledger)
    trainable = [p for p in params if p.requires_grad]
    samples = []

    def sampled_backward(loss):
        samples.append(tracemalloc.get_traced_memory()[0])
        grads = tensor.backward(loss)
        samples.append(tracemalloc.get_traced_memory()[0]
                       - sum(g.nbytes for g in grads.values()))
        return grads

    training.backward = sampled_backward
    tracemalloc.start()
    try:
        for _ in range(steps):
            training.train_step(encoder, head, trainable, state, ids, valid,
                                targets, "single_label", 1e-3)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
        training.backward = tensor.backward
    return TracedSteps(peak, *samples[-2:], ledger)
