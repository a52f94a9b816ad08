"""Forward values, shape validation, and masking behavior of the primitives."""

import inspect
import math
import tracemalloc

import numpy as np
import pytest
from numpy.lib.stride_tricks import sliding_window_view

from febench import (ComputationRecord, KernelTooLongError, ShapeMismatchError,
                     Tensor, backward)
from febench import ops
from febench.ops import Pooled
from febench.tensor import Factors
from helpers import probe_sum


def run(fn, *args, **kwargs):
    with ComputationRecord():
        return fn(*args, **kwargs).data


class TestElementwise:
    def test_relu_values(self):
        out = run(ops.relu, Tensor([-1.0, 0.0, 2.0]))
        np.testing.assert_array_equal(out, [0.0, 0.0, 2.0])

    def test_relu_gradient_zero_at_origin(self):
        x = Tensor(np.array([0.0, 3.0]), requires_grad=True)
        with ComputationRecord():
            grads = backward(ops.sum_all(ops.relu(x)))
        np.testing.assert_array_equal(grads[x.tid], [0.0, 1.0])

    def test_gelu_limits(self):
        """gelu(0) = 0, gelu(x) -> x for large x, -> 0 for very negative x."""
        out = run(ops.gelu, Tensor(np.array([0.0, 8.0, -8.0])))
        np.testing.assert_allclose(out, [0.0, 8.0, 0.0], atol=1e-6)

    def test_gelu_between_relu_and_identity(self):
        x = np.linspace(0.5, 4.0, 20)
        out = run(ops.gelu, Tensor(x))
        assert np.all(out <= x)
        assert np.all(out > 0.5 * x)

    def test_gelu_float32_matches_float64_reference(self):
        """Within 4 float32 ulps of max(1, |gelu|), out to |x| = 1e3."""
        wide = np.logspace(1, 3, 200)
        x = np.concatenate([np.linspace(-12, 12, 4801), wide, -wide]).astype(np.float32)
        out = run(ops.gelu, Tensor(x))
        assert out.dtype == np.float32
        xd = x.astype(np.float64)
        ref = 0.5 * xd * (1.0 + np.tanh(math.sqrt(2.0 / math.pi)
                                        * (xd + 0.044715 * xd ** 3)))
        tol = 4 * np.finfo(np.float32).eps * np.maximum(1.0, np.abs(ref))
        assert np.all(np.abs(out - ref) <= tol)


def _gelu_grad_at_backward(xd, g):
    """The gelu closure before it saved its derivative: ``x`` and ``tanh(u)``
    kept, the derivative's expression evaluated when the gradient arrives."""
    c = math.sqrt(2.0 / math.pi)
    t = np.tanh(c * (xd + 0.044715 * (xd * xd * xd)))
    du = c * (1.0 + 3 * 0.044715 * xd * xd)
    return g * (0.5 * (1.0 + t) + 0.5 * xd * (1.0 - t * t) * du)


class TestGeluSavedDerivative:
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_closure_bit_identical_to_the_derivative_at_backward(self, dtype):
        rng = np.random.default_rng(20)
        xd = np.concatenate([rng.normal(scale=3.0, size=(40, 16)),
                             np.linspace(-12.0, 12.0, 16)[None, :],
                             np.logspace(0, 3, 16)[None, :]]).astype(dtype)
        g = rng.normal(size=xd.shape).astype(dtype)
        with ComputationRecord() as record:
            ops.gelu(Tensor(xd, requires_grad=True))
            (dx,) = record.entries[-1].backward_fn(g)
        expected = _gelu_grad_at_backward(xd, g)
        assert dx.dtype == expected.dtype == dtype
        assert dx.tobytes() == expected.tobytes()

    def test_frozen_input_computes_no_derivative(self):
        """A frozen input keeps no closure, and its forward never holds the
        derivative's arrays: its traced peak is at least one input-sized
        array below a trainable input's, whose closure keeps ``d``."""
        xd = np.linspace(-4.0, 4.0, 1 << 16)
        peaks, entries = {}, {}
        for trainable in (False, True):
            with ComputationRecord() as record:
                x = Tensor(xd, requires_grad=trainable)
                tracemalloc.start()
                try:
                    ops.gelu(x)
                    peaks[trainable] = tracemalloc.get_traced_memory()[1]
                finally:
                    tracemalloc.stop()
                entries[trainable] = len(record.entries)
        assert entries == {False: 0, True: 1}
        assert peaks[False] + xd.nbytes <= peaks[True]


# the kernels' expressions before they reused their own temporaries; each
# returns the forward output and the closure's gradients for upstream g
def _reference_gelu(xd, g):
    t = np.tanh(math.sqrt(2.0 / math.pi) * (xd + 0.044715 * (xd * xd * xd)))
    return 0.5 * xd * (1.0 + t), (_gelu_grad_at_backward(xd, g),)


def _reference_layer_norm(xd, sd, od, g):
    h = xd.shape[-1]
    xc = xd - xd.sum(axis=-1, keepdims=True) / h
    var = (xc * xc).sum(axis=-1, keepdims=True) / h
    inv = 1.0 / np.sqrt(var + 1e-12)
    xhat = xc * inv
    lead = tuple(range(xd.ndim - 1))
    gs = g * sd
    dx = inv * (gs - gs.sum(axis=-1, keepdims=True) / h
                - xhat * ((gs * xhat).sum(axis=-1, keepdims=True) / h))
    return xhat * sd + od, (dx, (g * xhat).sum(axis=lead), g.sum(axis=lead))


def _reference_attention(qd, kd, vd, g, num_heads, valid_length):
    t_len, h = qd.shape
    d = h // num_heads
    inv_scale = 1.0 / math.sqrt(d)

    def split(a):
        return a.reshape(t_len, num_heads, d).transpose(1, 0, 2)

    def merge(a):
        return a.transpose(1, 0, 2).reshape(t_len, h)

    qh, kh, vh = split(qd), split(kd), split(vd)
    scores = qh @ kh.transpose(0, 2, 1) * inv_scale
    if valid_length < t_len:
        scores[:, :, valid_length:] = -1e30
    scores -= scores.max(axis=-1, keepdims=True)
    wts = np.exp(scores)
    wts /= wts.sum(axis=-1, keepdims=True)
    gh = split(g)
    dv = wts.transpose(0, 2, 1) @ gh
    dwts = gh @ vh.transpose(0, 2, 1)
    ds = wts * (dwts - (dwts * wts).sum(axis=-1, keepdims=True)) * inv_scale
    return merge(wts @ vh), (merge(ds @ kh), merge(ds.transpose(0, 2, 1) @ qh),
                             merge(dv))


def _reference_linear(xd, wd, bd, g):
    # an [in] input is a one-row batch
    x2, g2 = xd.reshape(-1, wd.shape[0]), g.reshape(-1, wd.shape[1])
    return xd @ wd + bd, ((g2 @ wd.T).reshape(xd.shape), x2.T @ g2,
                          g2.sum(axis=0))


def _reference_softmax_xent(ld, targets, g):
    n = ld.shape[0]
    shifted = ld - ld.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    total = expv.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    loss = -(shifted[rows, targets] - np.log(total[:, 0])).mean()
    p = expv / total
    p[rows, targets] -= 1.0
    return loss, (p * (g / n),)


def _edged(rng, shape, dtype):
    """Normal values with a -0.0 and a large-magnitude pair mixed in."""
    a = rng.normal(scale=2.0, size=shape).astype(dtype)
    flat = a.reshape(-1)
    flat[:3] = (-0.0, 1e4, -1e4)[:flat.size]
    return a


def _dense_bytes(grad):
    grad = grad.a.T @ grad.g if isinstance(grad, Factors) else np.asarray(grad)
    return grad.dtype, grad.tobytes()


class TestKernelsKeepEveryBit:
    """Each kernel that works in its own temporaries gives, bit for bit, the
    output and gradients of its expressions as plainly written, and never
    writes into an input or the upstream gradient: its closure, run twice,
    gives the same gradients."""

    @staticmethod
    def check(fn, arrays, g, reference, trainable=True, **kwargs):
        before = [a.tobytes() for a in (*arrays, g)]
        with ComputationRecord() as record:
            out = fn(*(Tensor(a, requires_grad=trainable) for a in arrays),
                     **kwargs)
            runs = ([record.entries[-1].backward_fn(g) for _ in range(2)]
                    if trainable else [])
        want_out, want_grads = reference
        assert out.data.dtype == want_out.dtype
        assert out.data.tobytes() == want_out.tobytes()
        for grads in runs:
            assert len(grads) == len(want_grads)
            for got, want in zip(grads, want_grads):
                assert _dense_bytes(got) == _dense_bytes(want)
        assert [a.tobytes() for a in (*arrays, g)] == before

    @pytest.mark.parametrize("shape", [(24, 16), ()])
    @pytest.mark.parametrize("trainable", [True, False])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gelu(self, dtype, trainable, shape):
        rng = np.random.default_rng(60)
        xd, g = _edged(rng, shape, dtype), _edged(rng, shape, dtype)
        self.check(ops.gelu, [xd], g, _reference_gelu(xd, g), trainable)

    @pytest.mark.parametrize("shape", [(16,), (12, 16)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_layer_norm(self, dtype, shape):
        rng = np.random.default_rng(61)
        xd, sd, od, g = (_edged(rng, s, dtype)
                         for s in (shape, shape[-1:], shape[-1:], shape))
        self.check(ops.layer_norm, [xd, sd, od], g,
                   _reference_layer_norm(xd, sd, od, g))

    @pytest.mark.parametrize("valid_length", [5, 9])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_attention(self, dtype, valid_length):
        rng = np.random.default_rng(62)
        # head width 3: a scale of 1/sqrt(3) rounds, where 1/2 would not
        qd, kd, vd, g = (_edged(rng, (9, 6), dtype) for _ in range(4))
        self.check(ops.scaled_dot_attention, [qd, kd, vd], g,
                   _reference_attention(qd, kd, vd, g, 2, valid_length),
                   num_heads=2, valid_length=valid_length)

    @pytest.mark.parametrize("shape", [(6,), (7, 6)])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_linear(self, dtype, shape):
        rng = np.random.default_rng(63)
        xd, wd, bd = (_edged(rng, s, dtype) for s in (shape, (6, 5), (5,)))
        g = _edged(rng, shape[:-1] + (5,), dtype)
        self.check(ops.linear, [xd, wd, bd], g,
                   _reference_linear(xd, wd, bd, g))

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_softmax_xent(self, dtype):
        rng = np.random.default_rng(64)
        ld, targets = _edged(rng, (6, 4), dtype), np.array([0, 3, 1, 1, 2, 0])
        g = np.array(0.75, dtype=dtype)
        self.check(ops.softmax_xent, [ld], g,
                   _reference_softmax_xent(ld, targets, g), targets=targets)


class TestLinearAlgebra:
    def test_matmul_value(self):
        a = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]))
        b = Tensor(np.array([[1.0, 0.0], [0.0, 1.0]]))
        np.testing.assert_array_equal(run(ops.matmul, a, b), a.data)

    def test_matmul_rejects_bad_inner_dim(self):
        with pytest.raises(ShapeMismatchError):
            run(ops.matmul, Tensor(np.ones((2, 3))), Tensor(np.ones((2, 3))))

    def test_add_rejects_a_bias_row(self):
        """``add`` joins same-shape tensors only; ``linear`` adds a bias."""
        with pytest.raises(ShapeMismatchError):
            run(ops.add, Tensor(np.zeros((2, 3))), Tensor([1.0, 2.0, 3.0]))

    def test_linear_matches_matmul_plus_bias(self):
        rng = np.random.default_rng(7)
        x, w, b = rng.normal(size=(3, 5)), rng.normal(size=(5, 2)), rng.normal(size=2)
        out = run(ops.linear, Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out, x @ w + b, rtol=1e-6)

    def test_linear_vector_input(self):
        rng = np.random.default_rng(8)
        x, w, b = rng.normal(size=5), rng.normal(size=(5, 2)), rng.normal(size=2)
        out = run(ops.linear, Tensor(x), Tensor(w), Tensor(b))
        np.testing.assert_allclose(out, x @ w + b, rtol=1e-6)
        assert out.shape == (2,)


class TestNormalization:
    def test_layer_norm_standardizes_rows(self):
        rng = np.random.default_rng(3)
        x = Tensor(rng.normal(2.0, 5.0, size=(6, 16)))
        out = run(ops.layer_norm, x, Tensor(np.ones(16)), Tensor(np.zeros(16)))
        np.testing.assert_allclose(out.mean(axis=-1), 0.0, atol=1e-6)
        np.testing.assert_allclose(out.std(axis=-1), 1.0, atol=1e-5)

    def test_layer_norm_affine(self):
        rng = np.random.default_rng(4)
        x = Tensor(rng.normal(size=(3, 8)))
        ones, zeros = Tensor(np.ones(8)), Tensor(np.zeros(8))
        base = run(ops.layer_norm, x, ones, zeros)
        scaled = run(ops.layer_norm, x, Tensor(np.full(8, 2.0)), Tensor(np.full(8, 3.0)))
        np.testing.assert_allclose(scaled, base * 2.0 + 3.0, rtol=1e-6)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("shape", [(7,), (16, 64), (3, 5, 33)])
    def test_layer_norm_bit_identical_to_mean_var(self, dtype, shape):
        """Forward and backward equal the numpy mean/var formulation exactly."""
        rng = np.random.default_rng(5)
        xd = rng.normal(1.5, 3.0, size=shape).astype(dtype)
        sd = rng.normal(size=shape[-1]).astype(dtype)
        od = rng.normal(size=shape[-1]).astype(dtype)
        g = rng.normal(size=shape).astype(dtype)
        x, scale, offset = (Tensor(a, requires_grad=True) for a in (xd, sd, od))
        with ComputationRecord():
            out = ops.layer_norm(x, scale, offset)
            grads = backward(probe_sum(out, g))

        mean = xd.mean(axis=-1, keepdims=True)
        inv = 1.0 / np.sqrt(xd.var(axis=-1, keepdims=True) + 1e-12)
        xhat = (xd - mean) * inv
        gs = g * sd
        dx = inv * (gs - gs.mean(axis=-1, keepdims=True)
                    - xhat * (gs * xhat).mean(axis=-1, keepdims=True))
        lead = tuple(range(len(shape) - 1))
        np.testing.assert_array_equal(out.data, xhat * sd + od)
        np.testing.assert_array_equal(grads[x.tid], dx)
        np.testing.assert_array_equal(grads[scale.tid], (g * xhat).sum(axis=lead))
        np.testing.assert_array_equal(grads[offset.tid], g.sum(axis=lead))

    def test_layer_norm_rejects_wrong_width(self):
        with pytest.raises(ShapeMismatchError):
            run(ops.layer_norm, Tensor(np.ones((2, 8))),
                Tensor(np.ones(4)), Tensor(np.zeros(8)))

    @pytest.mark.parametrize("shape", [(), (3, 0)])
    def test_layer_norm_refuses_zero_width(self, shape):
        """No width to normalize over: a scalar, or an empty last axis with
        empty affine parameters, is refused before any division."""
        empty = Tensor(np.zeros(0))
        with pytest.raises(ShapeMismatchError, match="over width 0 "):
            run(ops.layer_norm, Tensor(np.zeros(shape)), empty, empty)


class TestConvolution:
    def test_output_length(self):
        x = Tensor(np.zeros((200, 16), dtype=np.float32))
        w = Tensor(np.zeros((3, 16, 100), dtype=np.float32))
        b = Tensor(np.zeros(100, dtype=np.float32))
        out = run(ops.conv1d_valid, x, w, b, limit=198)
        assert out.shape == (198, 100)

    def test_matches_window_enumeration(self):
        """Each output row t is the flattened window x[t:t+k] dotted with each filter."""
        rng = np.random.default_rng(11)
        x = rng.normal(size=(9, 4))
        w = rng.normal(size=(3, 4, 5))
        b = rng.normal(size=5)
        out = run(ops.conv1d_valid, Tensor(x), Tensor(w), Tensor(b), limit=7)
        expected = np.empty((7, 5))
        for t in range(7):
            for f in range(5):
                expected[t, f] = np.sum(x[t:t + 3] * w[:, :, f]) + b[f]
        np.testing.assert_allclose(out, expected, rtol=1e-9)

    def test_frozen_input_gets_no_gradient(self):
        """Weight and bias gradients do not depend on whether x is trainable."""
        rng = np.random.default_rng(12)
        xd = rng.normal(size=(9, 4)).astype(np.float32)
        wd = rng.normal(size=(3, 4, 5)).astype(np.float32)
        bd = rng.normal(size=5).astype(np.float32)
        weight_grads = {}
        for trainable in (True, False):
            x = Tensor(xd, requires_grad=trainable)
            w, b = Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
            with ComputationRecord() as record:
                out = ops.conv1d_valid(x, w, b, limit=7)
                dx = record.entries[-1].backward_fn(np.ones_like(out.data))[0]
                grads = backward(ops.sum_all(ops.gelu(out)))
            assert (dx is not None) == trainable
            assert (x.tid in grads) == trainable
            weight_grads[trainable] = (grads[w.tid], grads[b.tid])
        for trainable_x, frozen_x in zip(weight_grads[True], weight_grads[False]):
            np.testing.assert_array_equal(frozen_x, trainable_x)

    def test_kernel_longer_than_sequence(self):
        with pytest.raises(KernelTooLongError):
            run(ops.conv1d_valid, Tensor(np.ones((2, 4))),
                Tensor(np.ones((3, 4, 1))), Tensor(np.zeros(1)), limit=1)

    def test_limit_keeps_the_first_windows(self):
        """Output row t at any limit is the all-window output's row t."""
        rng = np.random.default_rng(13)
        x, w, b = (Tensor(rng.normal(size=(9, 4))), Tensor(rng.normal(size=(3, 4, 5))),
                   Tensor(rng.normal(size=5)))
        every = run(ops.conv1d_valid, x, w, b, limit=7)
        for limit in (1, 4, 7):
            out = run(ops.conv1d_valid, x, w, b, limit=limit)
            assert out.shape == (limit, 5)
            np.testing.assert_allclose(out, every[:limit], rtol=1e-12)

    @pytest.mark.parametrize("limit", [0, 9 - 3 + 2])
    def test_limit_bounds(self, limit):
        """A limit outside 1..T - k + 1 names no set of windows."""
        x, w, b = Tensor(np.ones((9, 4))), Tensor(np.ones((3, 4, 1))), Tensor(np.zeros(1))
        with pytest.raises(ShapeMismatchError, match=r"limit .* outside 1\.\.7"):
            run(ops.conv1d_valid, x, w, b, limit=limit)


def _dense_conv(xd, wd, bd, g, need_dx):
    """The dense reference: every window of a ``sliding_window_view``."""
    t_len, h = xd.shape
    k, _, f = wd.shape
    n = t_len - k + 1
    cols = sliding_window_view(xd, k, axis=0).transpose(0, 2, 1).reshape(n, k * h)
    w2 = wd.reshape(k * h, f)
    out, gw, gb = cols @ w2 + bd, (cols.T @ g).reshape(k, h, f), g.sum(axis=0)
    if not need_dx:
        return out, None, gw, gb
    dcols = (g @ w2.T).reshape(n, k, h)
    dx = np.zeros((t_len, h), dtype=g.dtype)
    for i in range(k):
        dx[i:i + n] += dcols[:, i, :]
    return out, dx, gw, gb


def _upstream(kind, out, rng):
    """Upstream gradient of the conv output: all rows live, one run of live
    rows from row 2 to row n - 3, the rows that max-over-time pooling of the
    first n - 2 rows and then relu keep, or none."""
    n, f = out.shape
    if kind == "dense":
        return rng.normal(size=(n, f)).astype(out.dtype)
    g = np.zeros_like(out)
    if kind == "run":
        g[2:n - 2] = rng.normal(size=(n - 4, f))
    if kind == "pooled":
        idx, cols = out[:max(1, n - 2)].argmax(axis=0), np.arange(f)
        g[idx, cols] = rng.normal(size=f) * (out[idx, cols] > 0)
    return g


def _conv(xd, wd, bd, g=None, need_dx=True):
    """``conv1d_valid``'s output over every window, then its backward of
    ``g`` if given."""
    x = Tensor(xd, requires_grad=need_dx)
    w, b = Tensor(wd, requires_grad=True), Tensor(bd, requires_grad=True)
    with ComputationRecord() as record:
        out = ops.conv1d_valid(x, w, b, limit=len(xd) - len(wd) + 1).data
        if g is None:
            return out
        return (out,) + record.entries[-1].backward_fn(g)


class TestConvolutionDeadRows:
    """The backward skips the windows whose gradient row is all zero.

    A dead row adds only exact zeros, so at the head's shapes (width 128, 100
    filters) the result is bit-identical to the dense formula.  At tiny
    shapes BLAS may pick another kernel for the smaller live-row product, or
    numpy a naive loop for a strided one-column product, so there the two
    agree to rounding only.
    """

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("kind", ["dense", "run", "pooled", "zero"])
    @pytest.mark.parametrize("t_len, k", [(16, 3), (16, 6), (128, 3), (128, 6)])
    def test_bit_identical_to_dense(self, dtype, need_dx, kind, t_len, k):
        rng = np.random.default_rng([t_len, k])
        xd = rng.normal(size=(t_len, 128)).astype(dtype)
        wd = rng.normal(0.0, 0.02, size=(k, 128, 100)).astype(dtype)
        bd = rng.normal(0.0, 0.02, size=100).astype(dtype)
        out = _conv(xd, wd, bd)
        g = _upstream(kind, out, rng)
        if kind == "pooled":
            assert 0 < np.count_nonzero(g.any(axis=1)) < g.shape[0]
        got = _conv(xd, wd, bd, g, need_dx)
        want = _dense_conv(xd, wd, bd, g, need_dx)
        assert (got[1] is None) == (not need_dx)
        for name, a, b in zip(("out", "dx", "gw", "gb"), got, want):
            if b is not None:
                assert a.dtype == b.dtype, name
                np.testing.assert_array_equal(a, b, err_msg=name)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("kind", ["dense", "pooled", "zero"])
    @pytest.mark.parametrize("t_len, h, k, f", [
        (3, 4, 3, 2), (7, 1, 3, 1), (9, 4, 3, 5), (6, 16, 5, 7), (40, 1, 2, 3)])
    def test_small_shapes_match_dense(self, dtype, kind, t_len, h, k, f):
        rng = np.random.default_rng([t_len, h, k, f])
        xd = rng.normal(size=(t_len, h)).astype(dtype)
        wd = rng.normal(size=(k, h, f)).astype(dtype)
        bd = rng.normal(size=f).astype(dtype)
        out = _conv(xd, wd, bd)
        g = _upstream(kind, out, rng)
        tol = 1e-5 if dtype == np.float32 else 1e-12
        for a, b in zip(_conv(xd, wd, bd, g),
                        _dense_conv(xd, wd, bd, g, True)):
            np.testing.assert_allclose(a, b, rtol=tol,
                                       atol=tol * max(1.0, np.abs(b).max()))


class TestConvolutionPooled:
    """A :class:`Pooled` upstream gradient, as max-over-time pooling passes
    it, gives the bytes that its dense array gives."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    @pytest.mark.parametrize("need_dx", [True, False])
    @pytest.mark.parametrize("zero", [0.0, -0.0])
    @pytest.mark.parametrize("t_len", ["k", 16, 128])
    @pytest.mark.parametrize("k", [3, 6])
    def test_bit_identical_to_dense(self, dtype, need_dx, zero, t_len, k):
        t_len = k if t_len == "k" else t_len
        rng = np.random.default_rng([k, t_len, need_dx])
        xd = rng.normal(size=(t_len, 128)).astype(dtype)
        wd = rng.normal(0.0, 0.02, size=(k, 128, 100)).astype(dtype)
        bd = rng.normal(0.0, 0.02, size=100).astype(dtype)
        n = t_len - k + 1
        out = _conv(xd, wd, bd)
        for limit in sorted({1, (n + 1) // 2, n - 1 or 1, n}):
            rows = out[:limit].argmax(axis=0)
            # a third of the columns pass an upstream zero, as a column
            # whose max is not positive gets from relu's backward
            values = rng.normal(size=100).astype(dtype)
            values[::3] = zero
            for upstream in (values, np.full(100, zero, dtype=dtype)):
                pooled = Pooled(rows, upstream, n)
                got = _conv(xd, wd, bd, pooled, need_dx)
                want = _conv(xd, wd, bd, np.asarray(pooled), need_dx)
                assert (got[1] is None) == (not need_dx)
                for name, a, b in zip(("out", "dx", "gw", "gb"), got, want):
                    if b is not None:
                        assert a.dtype == b.dtype and a.shape == b.shape, name
                        assert a.tobytes() == b.tobytes(), (name, limit)


class TestMaxOverTime:
    def test_columnwise_max(self):
        x = Tensor(np.array([[1.0, 5.0], [3.0, 2.0], [4.0, 4.0]]))
        np.testing.assert_array_equal(run(ops.max_over_time, x), [4.0, 5.0])

    def test_tie_routes_gradient_to_first_row(self):
        x = Tensor(np.array([[2.0], [2.0]]), requires_grad=True)
        with ComputationRecord():
            grads = backward(ops.sum_all(ops.max_over_time(x)))
        np.testing.assert_array_equal(grads[x.tid], [[1.0], [0.0]])

    @pytest.mark.parametrize("shape", [(0, 2), (0, 0), (3,), (2, 3, 1)],
                             ids=["0x2", "0x0", "1-d", "3-d"])
    def test_refuses_no_rows_or_a_non_matrix(self, shape):
        """Pooling has no row to take a max of, or no [T, F] to read."""
        with pytest.raises(ShapeMismatchError, match="max_over_time needs"):
            run(ops.max_over_time, Tensor(np.ones(shape)))


# every primitive whose output can be pooled, on float64 x [6, 4], w [4, 4]
# and b [4]
POOL_PRODUCERS = {
    "matmul": lambda x, w, b: ops.matmul(x, w),
    "add": lambda x, w, b: ops.add(x, x),
    "relu": lambda x, w, b: ops.relu(x),
    "gelu": lambda x, w, b: ops.gelu(x),
    "layer_norm": lambda x, w, b: ops.layer_norm(x, b, b),
    "embedding_lookup": lambda x, w, b: ops.embedding_lookup(
        x, ids=np.array([3, 0, 3, 1, 5, 2])),
    "scaled_dot_attention": lambda x, w, b: ops.scaled_dot_attention(
        x, x, x, num_heads=2, valid_length=5),
    "concat": lambda x, w, b: ops.concat([x, x]),
    "stack": lambda x, w, b: ops.stack([b, b, b]),
    "linear": lambda x, w, b: ops.linear(x, w, b),
}


@pytest.mark.parametrize("name", sorted(POOL_PRODUCERS))
def test_every_producer_takes_the_pooled_gradient(name):
    """A producer whose output is pooled gets the same gradients from the
    :class:`Pooled` winners as from their dense array."""
    rng = np.random.default_rng(43)
    point = [Tensor.param(rng.normal(size=shape))
             for shape in ((6, 4), (4, 4), (4,))]
    coef = rng.normal(size=4)
    runs = []
    for pooled in (True, False):
        with ComputationRecord():
            out = POOL_PRODUCERS[name](*point)
            if pooled:
                loss = probe_sum(ops.max_over_time(out), coef)
            else:
                dense = np.zeros(out.shape)
                dense[out.data.argmax(axis=0), np.arange(4)] = coef
                loss = probe_sum(out, dense)
            runs.append(backward(loss))
    assert runs[0].keys() == runs[1].keys()
    for tid, g in runs[0].items():
        np.testing.assert_array_equal(g, runs[1][tid])


class TestEmbeddingLookup:
    def test_gathers_rows(self):
        table = Tensor(np.arange(8.0).reshape(4, 2))
        out = run(ops.embedding_lookup, table, ids=np.array([3, 0, 3]))
        np.testing.assert_array_equal(out, [[6.0, 7.0], [0.0, 1.0], [6.0, 7.0]])

    def test_repeated_ids_accumulate_gradient(self):
        table = Tensor(np.zeros((4, 2)), requires_grad=True)
        with ComputationRecord():
            out = ops.embedding_lookup(table, ids=np.array([1, 1, 2]))
            grads = backward(ops.sum_all(out))
        np.testing.assert_array_equal(
            grads[table.tid], [[0, 0], [2, 2], [1, 1], [0, 0]])

    @pytest.mark.parametrize("ids", [
        np.array([5, 0, 0, 3, 0, 5, 0, 0, 0, 1] + [0] * 20),
        np.array([[2, 2, 0, 0, 0], [7, 2, 0, 0, 0], [0, 0, 0, 0, 2]]),
        np.array([], dtype=np.int64)], ids=["pad-runs", "2-d", "empty"])
    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_gradient_bit_identical_to_add_at(self, ids, dtype):
        """Each row sums its occurrences in id order, as ``np.add.at`` into
        a zero table does, with the walk's ``table[rows] += values``."""
        rng = np.random.default_rng([ids.size, ids.ndim])
        table = Tensor.param(rng.normal(size=(8, 16)).astype(dtype))
        g = rng.normal(size=ids.shape + (16,)).astype(dtype)
        if ids.size:
            g.reshape(-1, 16)[-1] = -0.0
        with ComputationRecord() as record:
            ops.embedding_lookup(table, ids=ids)
            (update,) = record.entries[-1].backward_fn(g)
        assert np.unique(update.rows).size == update.rows.size
        got = np.zeros(table.shape, dtype=dtype)
        got[update.rows] += update.values
        want = np.zeros(table.shape, dtype=dtype)
        np.add.at(want, ids, g)
        assert got.dtype == want.dtype
        assert got.tobytes() == want.tobytes()

    def test_out_of_range_id(self):
        table = Tensor(np.zeros((4, 2)))
        with pytest.raises(IndexError):
            run(ops.embedding_lookup, table, ids=np.array([4]))
        with pytest.raises(IndexError):
            run(ops.embedding_lookup, table, ids=np.array([-1]))

    def test_float_ids_rejected(self):
        with pytest.raises(TypeError):
            run(ops.embedding_lookup, Tensor(np.zeros((4, 2))),
                ids=np.array([1.0]))


class TestAttention:
    def test_identical_value_rows_pass_through(self):
        """With every value row equal, any softmax weighting returns that row."""
        rng = np.random.default_rng(21)
        q = Tensor(rng.normal(size=(5, 8)))
        k = Tensor(rng.normal(size=(5, 8)))
        v = Tensor(np.tile(rng.normal(size=8), (5, 1)))
        out = run(ops.scaled_dot_attention, q, k, v, num_heads=2,
                  valid_length=5)
        np.testing.assert_allclose(out, v.data, rtol=1e-5)

    def test_masked_keys_do_not_influence_output(self):
        """Prefix rows must match attention run on the truncated sequence alone."""
        rng = np.random.default_rng(22)
        full = [rng.normal(size=(6, 8)) for _ in range(3)]
        full[1][5] = 1e4  # extreme padding key would dominate if unmasked
        full[2][5] = 1e4
        masked = run(ops.scaled_dot_attention, *(Tensor(a) for a in full),
                     num_heads=2, valid_length=5)
        short = run(ops.scaled_dot_attention, *(Tensor(a[:5]) for a in full),
                    num_heads=2, valid_length=5)
        np.testing.assert_allclose(masked[:5], short, rtol=1e-5)

    def test_rows_are_convex_combinations(self):
        rng = np.random.default_rng(23)
        v = rng.normal(size=(4, 4))
        out = run(ops.scaled_dot_attention, Tensor(rng.normal(size=(4, 4))),
                  Tensor(rng.normal(size=(4, 4))), Tensor(v), num_heads=1,
                  valid_length=4)
        assert np.all(out <= v.max(axis=0) + 1e-6)
        assert np.all(out >= v.min(axis=0) - 1e-6)

    def test_head_count_must_divide_width(self):
        t = Tensor(np.ones((3, 6)))
        with pytest.raises(ShapeMismatchError):
            run(ops.scaled_dot_attention, t, t, t, num_heads=4,
                valid_length=3)


class TestJoiners:
    def test_concat_axis0(self):
        out = run(ops.concat, [Tensor([1.0, 2.0]), Tensor([3.0])])
        np.testing.assert_array_equal(out, [1.0, 2.0, 3.0])

    def test_concat_backward_splits(self):
        a = Tensor(np.zeros(2), requires_grad=True)
        b = Tensor(np.zeros(3), requires_grad=True)
        with ComputationRecord():
            joined = ops.concat([a, b])
            grads = backward(ops.sum_all(ops.gelu(joined)))
        assert grads[a.tid].shape == (2,)
        assert grads[b.tid].shape == (3,)

    def test_stack_makes_batch(self):
        out = run(ops.stack, [Tensor([1.0, 2.0]), Tensor([3.0, 4.0])])
        np.testing.assert_array_equal(out, [[1.0, 2.0], [3.0, 4.0]])

    def test_stack_rejects_mixed_shapes(self):
        with pytest.raises(ShapeMismatchError):
            run(ops.stack, [Tensor([1.0]), Tensor([1.0, 2.0])])


class TestLosses:
    def test_uniform_softmax_cross_entropy(self):
        """Four equal logits put probability 1/4 on the target: loss = ln 4."""
        logits = Tensor(np.zeros((1, 4)))
        loss = run(ops.softmax_xent, logits, targets=np.array([2]))
        np.testing.assert_allclose(loss, math.log(4.0), rtol=1e-6)

    def test_cross_entropy_batch_mean(self):
        logits = Tensor(np.array([[10.0, 0.0], [0.0, 10.0]]))
        loss = run(ops.softmax_xent, logits, targets=np.array([0, 1]))
        assert loss < 1e-3

    def test_cross_entropy_shift_invariance(self):
        rng = np.random.default_rng(31)
        raw = rng.normal(size=(3, 5))
        targets = np.array([0, 4, 2])
        a = run(ops.softmax_xent, Tensor(raw), targets=targets)
        b = run(ops.softmax_xent, Tensor(raw + 100.0), targets=targets)
        np.testing.assert_allclose(a, b, rtol=1e-5)

    def test_cross_entropy_extreme_logits_finite(self):
        loss = run(ops.softmax_xent, Tensor(np.array([[1000.0, -1000.0]])),
                   targets=np.array([1]))
        assert np.isfinite(loss)

    def test_target_range_checked(self):
        logits = Tensor(np.zeros((1, 3)))
        with pytest.raises(IndexError):
            run(ops.softmax_xent, logits, targets=np.array([3]))

    def test_zero_logit_binary_cross_entropy(self):
        """sigmoid(0) = 1/2 regardless of target, so the loss is ln 2."""
        loss = run(ops.sigmoid_bce, Tensor(np.zeros((1, 1))),
                   targets=np.array([[1.0]]))
        np.testing.assert_allclose(loss, math.log(2.0), rtol=1e-6)

    def test_binary_cross_entropy_extreme_logits_finite(self):
        logits = Tensor(np.array([[500.0, -500.0]]))
        loss = run(ops.sigmoid_bce, logits, targets=np.array([[0.0, 1.0]]))
        assert np.isfinite(loss)
        np.testing.assert_allclose(loss, 500.0, rtol=1e-6)

    def test_binary_cross_entropy_target_shape(self):
        with pytest.raises(ShapeMismatchError):
            run(ops.sigmoid_bce, Tensor(np.zeros((2, 3))),
                targets=np.zeros((3, 2)))


class TestDispatch:
    def test_every_registered_kind_is_callable(self):
        assert set(ops.PRIMITIVES) >= {
            "matmul", "add", "conv1d_valid", "max_over_time", "relu", "gelu",
            "layer_norm", "embedding_lookup", "scaled_dot_attention",
            "concat", "linear"}


# 0-d integer side inputs, by parameter name
SCALAR_SIDE_INPUTS = {"ids": np.array(0), "targets": np.array(0),
                      "limit": np.array(1), "num_heads": np.array(1),
                      "valid_length": np.array(1)}


COUNTED = {
    "conv1d_valid": lambda n: ops.conv1d_valid(
        Tensor(np.arange(12.0).reshape(6, 2)), Tensor(np.ones((2, 2, 3))),
        Tensor(np.zeros(3)), limit=n),
    "num_heads": lambda n: ops.scaled_dot_attention(
        *(Tensor(np.arange(8.0).reshape(4, 2)) for _ in range(3)),
        num_heads=n, valid_length=3),
    "scaled_dot_attention": lambda n: ops.scaled_dot_attention(
        *(Tensor(np.arange(8.0).reshape(4, 2)) for _ in range(3)),
        num_heads=1, valid_length=n),
}


@pytest.mark.parametrize("value", [2.7, 1.5, 2.0, np.float64(2.0), True, False],
                         ids=["2.7", "1.5", "2.0", "np.float64", "True", "False"])
@pytest.mark.parametrize("name", sorted(COUNTED))
def test_counts_refuse_floats_and_take_numpy_integers(name, value):
    """``limit``, ``num_heads`` and ``valid_length`` are read through
    ``operator.index``: a float raises ``TypeError`` instead of being
    truncated, a bool the same instead of counting as 1 or 0, and a numpy
    integer counts as its value."""
    with pytest.raises(TypeError):
        COUNTED[name](value)
    got, want = COUNTED[name](np.int64(2)), COUNTED[name](2)
    assert got.data.tobytes() == want.data.tobytes()


def test_attention_refuses_zero_width():
    """A [T, 0] input has no head to split into: ``num_heads`` 1 lies
    outside 1..0, refused before the scale divides by ``sqrt(0)``."""
    x = Tensor(np.ones((3, 0)))
    with pytest.raises(ShapeMismatchError, match=r"num_heads 1 outside 1\.\.0"):
        run(ops.scaled_dot_attention, x, x, x, num_heads=1, valid_length=2)


def test_pooled_refuses_a_no_copy_read():
    """Every read of :class:`Pooled` builds its dense array anew, so numpy
    2's ``copy=False``, which asks for no copy, raises ``ValueError``."""
    pooled = Pooled(np.array([1, 0]), np.array([2.0, 3.0], np.float32), 3)
    with pytest.raises(ValueError):
        np.asarray(pooled, copy=False)
    for copy in (None, True):
        np.testing.assert_array_equal(np.asarray(pooled, copy=copy),
                                      [[0, 3], [2, 0], [0, 0]])


@pytest.mark.parametrize("name", sorted(ops.PRIMITIVES))
def test_every_primitive_computes_or_refuses_scalars(name):
    """Fed 0-d float tensors, and 0-d integers as side inputs, a primitive
    computes or raises :class:`ShapeMismatchError`: never a bare numpy
    error or a warning."""
    fn = ops.PRIMITIVES[name]
    args = []
    for param in inspect.signature(fn).parameters:
        if param in SCALAR_SIDE_INPUTS:
            args.append(SCALAR_SIDE_INPUTS[param])
        elif param == "parts":
            args.append([Tensor.param(np.float32(1.5)) for _ in range(2)])
        else:
            args.append(Tensor.param(np.float32(1.5)))
    with ComputationRecord():
        try:
            out = fn(*args)
        except ShapeMismatchError:
            return
    assert isinstance(out, Tensor)
