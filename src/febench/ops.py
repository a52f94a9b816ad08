"""Differentiable primitives.

Each primitive validates shapes, computes the forward value with numpy, and
makes one ``append`` call on the active computation record, which charges
the output's buffer while it lives.  Outside a record (evaluation, for one)
a primitive only computes: its output needs no gradient, nothing is charged
and nothing keeps it alive.  Inside a record the backward closure is only
kept when some input requires a gradient, so a forward-only subgraph (a
frozen encoder) retains no backward state.  The record keeps no reference
to an output, so it dies with its last consumer unless a kept closure saves
its array: ``add`` and ``max_over_time`` save none of their inputs, and
``gelu`` saves only its local derivative.  A kept closure that saves an
array the primitive allocated names it in ``_emit``'s ``saves``, and the
record charges it as an activation until the closure dies: ``gelu``'s
derivative, ``layer_norm``'s ``xhat`` and ``inv``, attention's weights,
``max_over_time``'s argmax, ``softmax_xent``'s ``expv`` and ``total``, and
the conv's windows when they view a copy of its input.  Inputs that a
closure saves are charged by their own producers; parameters and integer
side inputs are the caller's, and never charged.
A kernel writes in place only into arrays it allocated in the same call,
never into an input, a saved array or an upstream gradient (``add`` hands
one gradient array to both of its inputs).  Each in-place step runs its
expression's operations in the same order, with at most the operands of a
``*`` or ``+`` swapped, so outputs and gradients keep every bit.
A backward closure returns one gradient per input, or ``None`` for an input
that needs no gradient (PyTorch's ``needs_input_grad`` rule), which
:func:`~febench.tensor.backward` skips; :func:`conv1d_valid` does so for a
frozen input.

A closure may return a gradient in a form other than a dense array (see
:func:`~febench.tensor.backward`).  :func:`matmul` and :func:`linear`, which
reads an [in] input as a one-row batch, return their weight gradient as
stacked factors ``(a, g)``, meaning ``a.T @ g``, and
:func:`embedding_lookup` a row-sparse update that carries its table's row
count, which the walk reduces once per step, not once per document.
:func:`max_over_time` returns its input's gradient as :class:`Pooled`
winners, one row and value per column, which the walk passes as they are
to :func:`conv1d_valid`; it gathers each filter's weight gradient from its
one winning window instead of multiplying out a product.  Another closure
reads them as numpy's dense array, through ``np.asarray`` where it calls
ndarray methods.  The conv weight gradient stays dense per document;
deferred conv factors would keep each document's windows alive.

All primitives accept and return :class:`~febench.tensor.Tensor`; integer
side inputs (token ids, class targets) are plain numpy arrays passed as
keyword attributes; a count must be an integer, not a float or a bool.
"""

from __future__ import annotations

import math
import operator

import numpy as np

from .tensor import (Factors, KernelTooLongError, RowSparse,
                     ShapeMismatchError, Tensor, current_record)

_GELU_C = math.sqrt(2.0 / math.pi)


class Pooled:
    """The [length, F] gradient that :func:`max_over_time` passes back,
    ``values[j]`` at ``(rows[j], j)`` and zero elsewhere.  Numpy reads it as
    that dense array, built anew per read, and ``nbytes`` is its size, which
    the walk charges while a weak reference sees it alive."""

    __slots__ = ("rows", "values", "length", "nbytes", "__weakref__")

    def __init__(self, rows, values, length):
        self.rows, self.values, self.length = rows, values, length
        self.nbytes = length * values.nbytes

    def __array__(self, dtype=None, copy=None):
        if copy is False:
            raise ValueError("Pooled builds its array anew; copy=False refused")
        out = np.zeros((self.length, self.values.size), dtype=self.values.dtype)
        out[self.rows, np.arange(self.values.size)] = self.values
        return out if dtype is None else out.astype(dtype, copy=False)


def _count(name, value, most):
    """``value`` read by ``operator.index`` (no float, no bool), in 1..most."""
    if isinstance(value, bool):
        raise TypeError(f"{name} must be an integer, not {value!r}")
    value = operator.index(value)
    if not 1 <= value <= most:
        raise ShapeMismatchError(f"{name} {value} outside 1..{most}")
    return value


def _emit(kind, inputs, out_data, backward_fn, saves=()):
    """Wrap ``out_data`` in a tensor and, inside a record, charge it and
    tape ``backward_fn`` if an input needs a gradient; the arrays in
    ``saves``, which the closure keeps, are then charged as activations."""
    record = current_record()
    if record is None:
        return Tensor(out_data)
    keep = any(t.requires_grad for t in inputs)
    out = Tensor(out_data, requires_grad=keep)
    if keep:
        for array in saves:
            record.hold("activations", array)
    record.append(kind, inputs, out, backward_fn if keep else None)
    return out


def matmul(a, b):
    """[m, k] @ [k, n] -> [m, n]."""
    if a.data.ndim != 2 or b.data.ndim != 2:
        raise ShapeMismatchError(
            f"matmul needs 2-d operands, got {tuple(a.shape)} and {tuple(b.shape)}")
    if a.shape[1] != b.shape[0]:
        raise ShapeMismatchError(
            f"matmul inner dims differ: {tuple(a.shape)} vs {tuple(b.shape)}")
    ad, bd = a.data, b.data

    def bwd(g):
        return g @ bd.T, Factors(ad, g)

    return _emit("matmul", (a, b), ad @ bd, bwd)


def add(a, b):
    """Elementwise sum of same-shape tensors."""
    if a.shape != b.shape:
        raise ShapeMismatchError(
            f"add shapes differ: {tuple(a.shape)} vs {tuple(b.shape)}")

    def bwd(g):
        return g, g

    return _emit("add", (a, b), a.data + b.data, bwd)


def sum_all(x):
    """Sum of every element, as a scalar."""
    shape, dtype = x.shape, x.data.dtype

    def bwd(g):
        return (np.full(shape, g, dtype=dtype),)

    return _emit("sum", (x,), x.data.sum(), bwd)


def relu(x):
    xd = x.data

    def bwd(g):
        return (g * (xd > 0),)

    return _emit("relu", (x,), np.maximum(xd, 0), bwd)


def gelu(x):
    """Gaussian error linear unit, tanh approximation.

    When ``x`` needs a gradient, the forward computes the local derivative
    ``d`` and the closure saves only it, not ``x`` and ``tanh(u)``; its
    ``g * d`` rounds exactly as multiplying by the derivative's expression
    at backward time would.  Otherwise ``d`` is never computed.  The
    forward reuses its own temporaries: ``tanh(u)`` overwrites ``u``, the
    output ``0.5 * x``, and ``d`` the array ``1 + tanh(u)``.
    """
    xd = x.data
    # a 0-d input's product is a numpy scalar, which takes no ``out=``
    t = np.asarray(xd * xd)
    t *= xd
    t *= 0.044715
    t += xd
    t *= _GELU_C
    np.tanh(t, out=t)
    out = 0.5 * xd
    bwd, saves = None, ()
    if x.requires_grad:
        # as an array even for a 0-d input, so the saved d is the one charged
        d = np.asarray(t + 1.0)
        du = xd * (3 * 0.044715)
        du *= xd
        du += 1.0
        du *= _GELU_C
        t *= t
        np.subtract(1.0, t, out=t)
        t *= out
        t *= du
        out *= d
        d *= 0.5
        d += t

        def bwd(g):
            return (g * d,)
        saves = (d,)
    else:
        t += 1.0
        out *= t

    return _emit("gelu", (x,), out, bwd, saves)


def layer_norm(x, scale, offset):
    """Normalize the last axis to zero mean / unit variance, then affine."""
    h = x.shape[-1] if x.data.ndim else 0
    if h == 0 or scale.data.ndim != 1 or offset.data.ndim != 1 \
            or scale.shape[0] != h or offset.shape[0] != h:
        raise ShapeMismatchError(
            f"layer_norm over width {h} got scale {tuple(scale.shape)}, "
            f"offset {tuple(offset.shape)}")
    xd = x.data
    # sum / h rounds exactly as numpy's mean and var do, in float32 and float64
    xhat = xd - xd.sum(axis=-1, keepdims=True) / h
    squares = xhat * xhat
    inv = 1.0 / np.sqrt(squares.sum(axis=-1, keepdims=True) / h + 1e-12)
    xhat *= inv
    out = np.multiply(xhat, scale.data, out=squares)
    out += offset.data
    lead = tuple(range(xd.ndim - 1))
    sd = scale.data

    def bwd(g):
        g = np.asarray(g)
        dx = g * sd
        p = dx * xhat
        mixed = p.sum(axis=-1, keepdims=True) / h
        np.multiply(xhat, mixed, out=p)
        dx -= dx.sum(axis=-1, keepdims=True) / h
        dx -= p
        dx *= inv
        np.multiply(g, xhat, out=p)
        return dx, p.sum(axis=lead), g.sum(axis=lead)

    return _emit("layer_norm", (x, scale, offset), out, bwd, (xhat, inv))


def conv1d_valid(x, w, b, limit):
    """Valid-mode 1-d convolution over the time axis.

    ``x`` is [T, H], ``w`` is [k, H, f], ``b`` is [f]; output is [limit, f],
    the first ``limit`` of the T - k + 1 windows (``limit`` T - k + 1 takes
    every one).  Only those windows are copied, multiplied, kept for the
    backward and charged; input rows that no kept window reads get an exact
    zero gradient.  A kernel longer than the sequence, or a ``limit``
    outside 1..T - k + 1, is an error.  When ``x`` needs no gradient (a
    frozen encoder's output), the backward closure returns ``None`` for it
    and skips computing it.

    The backward takes the upstream gradient as a dense array or as the
    :class:`Pooled` winners that :func:`max_over_time` passes.  From
    winners, filter j's weight gradient is its winning window times its
    value and its bias gradient the value, each bit for bit what the dense
    form gives; the input gradient reads the winners' dense array and goes
    the dense way.  That way multiplies through only the live windows, whose
    row of the upstream gradient is not all zero: a dead row adds only exact
    zeros, so the gradients equal the all-window formula's, up to the
    rounding of the BLAS kernel chosen for the smaller product.
    """
    if x.data.ndim != 2 or w.data.ndim != 3:
        raise ShapeMismatchError(
            f"conv1d_valid needs x [T, H] and w [k, H, f], got "
            f"{tuple(x.shape)} and {tuple(w.shape)}")
    t_len, h = x.shape
    k, wh, f = w.shape
    if wh != h:
        raise ShapeMismatchError(
            f"conv1d_valid width mismatch: input {h}, kernel {wh}")
    if b.data.ndim != 1 or b.shape[0] != f:
        raise ShapeMismatchError(
            f"conv1d_valid bias {tuple(b.shape)} does not match {f} filters")
    if t_len < k:
        raise KernelTooLongError(
            f"kernel size {k} exceeds sequence length {t_len}")
    n = _count("conv1d_valid limit", limit, t_len - k + 1)
    xd = np.ascontiguousarray(x.data)
    # row t of this read-only view is the flattened window x[t:t+k]; row
    # n - 1 ends at element (n - 1 + k)·H <= T·H, so the view lies within
    # x's T·H elements.  Its contiguous copy feeds one matmul and dies here,
    # bwd gathers the rows it reads
    windows = np.ndarray((n, k * h), xd.dtype, buffer=xd, strides=xd.strides)
    windows.flags.writeable = False
    w2 = w.data.reshape(k * h, f)
    out = windows.copy() @ w2
    out += b.data
    need_dx = x.requires_grad

    def bwd(g):
        if isinstance(g, Pooled):
            # filter j's one live window is rows[j]: the product's column
            # sum would add only exact zeros to its term, so a gather gives
            # it, and + 0.0 gives a zero term the sign such a sum gives it
            gw = windows.T[:, g.rows]
            gw *= g.values
            gw += 0.0
            gw, gb = gw.reshape(k, h, f), g.values + 0.0
            if not need_dx:
                return None, gw, gb
            g = np.asarray(g)
            rows = np.flatnonzero(g.any(axis=1))
            g_live = g[rows]
        else:
            rows = np.flatnonzero(g.any(axis=1))
            g_live = g[rows]
            gw = (windows[rows].T @ g_live).reshape(k, h, f)
            gb = g.sum(axis=0)
            if not need_dx:
                return None, gw, gb
        dlive = (g_live @ w2.T).reshape(rows.size, k, h)
        dx = np.zeros((t_len, h), dtype=g.dtype)
        # rows are unique, and each dx row takes its terms in ascending i
        # as the all-window sum does, less the dead windows' exact zeros;
        # one run of live rows (every window, at short T) adds by slices
        run = rows.size and rows[-1] - rows[0] + 1 == rows.size
        for i in range(k):
            at = slice(rows[0] + i, rows[-1] + i + 1) if run else rows + i
            dx[at] += dlive[:, i, :]
        return dx, gw, gb

    # windows views x's own buffer, which x's producer charges, unless x
    # was not contiguous and xd is this call's copy
    saves = () if xd is x.data else (windows,)
    return _emit("conv1d_valid", (x, w, b), out, bwd, saves)


def max_over_time(x):
    """Columnwise max over every row of [T, F], T at least 1.

    The backward saves only the argmax and returns the input's gradient as
    :class:`Pooled` winners, without a dense [T, F] array.
    """
    if x.data.ndim != 2 or x.shape[0] == 0:
        raise ShapeMismatchError(
            f"max_over_time needs [T, F] with T >= 1, got {tuple(x.shape)}")
    t_len, f = x.shape
    idx = x.data.argmax(axis=0)
    out = x.data[idx, np.arange(f)]

    def bwd(g):
        return (Pooled(idx, g, t_len),)

    return _emit("max_over_time", (x,), out, bwd, (idx,))


def embedding_lookup(table, ids):
    """Gather rows of [V, H] by an integer id array."""
    if table.data.ndim != 2:
        raise ShapeMismatchError(
            f"embedding_lookup table must be [V, H], got {tuple(table.shape)}")
    ids = np.asarray(ids)
    if ids.dtype.kind not in "iu":
        raise TypeError(f"ids must be integers, got dtype {ids.dtype}")
    v, width = table.shape
    if ids.size and (ids.min() < 0 or ids.max() >= v):
        raise IndexError(f"id out of range for table with {v} rows")
    dtype = table.data.dtype

    def bwd(g):
        # each row sums its occurrences in id order, as np.add.at into a
        # zero table does: a stable sort groups them, rows go by falling
        # occurrence count, and pass r adds every row's r-th occurrence
        flat = ids.reshape(-1)
        order = np.argsort(flat, kind="stable")
        rows, starts, counts = np.unique(flat[order], return_index=True,
                                         return_counts=True)
        by_count = np.argsort(-counts, kind="stable")
        rows, starts, counts = rows[by_count], starts[by_count], counts[by_count]
        g_flat = np.asarray(g).reshape(flat.size, width)
        sums = np.zeros((rows.size, width), dtype=dtype)
        for r in range(counts[0] if counts.size else 0):
            m = np.count_nonzero(counts > r)
            sums[:m] += g_flat[order[starts[:m] + r]]
        return (RowSparse(rows, sums, v),)

    return _emit("embedding_lookup", (table,), table.data[ids], bwd)


def scaled_dot_attention(q, k, v, num_heads, valid_length):
    """Multi-head scaled dot-product self-attention over one sequence.

    ``q``, ``k``, ``v`` are [T, H] with H divisible by ``num_heads``.  Keys
    at positions >= ``valid_length`` are masked out of every query's softmax.
    """
    if not (q.shape == k.shape == v.shape) or q.data.ndim != 2:
        raise ShapeMismatchError(
            f"attention needs matching [T, H] inputs, got {tuple(q.shape)}, "
            f"{tuple(k.shape)}, {tuple(v.shape)}")
    t_len, h = q.shape
    num_heads = _count("num_heads", num_heads, h)
    if h % num_heads != 0:
        raise ShapeMismatchError(
            f"width {h} not divisible into {num_heads} heads")
    valid_length = _count("valid_length", valid_length, t_len)
    d = h // num_heads
    inv_scale = 1.0 / math.sqrt(d)

    def split(t):
        return t.data.reshape(t_len, num_heads, d).transpose(1, 0, 2)

    qh, kh, vh = split(q), split(k), split(v)
    scores = qh @ kh.transpose(0, 2, 1)
    scores *= inv_scale
    if valid_length < t_len:
        scores[:, :, valid_length:] = -1e30
    scores -= scores.max(axis=-1, keepdims=True)
    wts = np.exp(scores, out=scores)
    wts /= wts.sum(axis=-1, keepdims=True)
    out = (wts @ vh).transpose(1, 0, 2).reshape(t_len, h)

    def bwd(g):
        gh = np.asarray(g).reshape(t_len, num_heads, d).transpose(1, 0, 2)
        dv = wts.transpose(0, 2, 1) @ gh
        ds = gh @ vh.transpose(0, 2, 1)
        ds -= (ds * wts).sum(axis=-1, keepdims=True)
        ds *= wts
        ds *= inv_scale
        dq = ds @ kh
        dk = ds.transpose(0, 2, 1) @ qh

        def merge(t):
            return t.transpose(1, 0, 2).reshape(t_len, h)

        return merge(dq), merge(dk), merge(dv)

    return _emit("scaled_dot_attention", (q, k, v), out, bwd, (wts,))


def concat(parts):
    """Join tensors along axis 0."""
    parts = tuple(parts)
    if not parts:
        raise ShapeMismatchError("concat of zero tensors")
    trail = parts[0].shape[1:]
    for p in parts:
        if p.data.ndim != len(trail) + 1 or p.shape[1:] != trail:
            raise ShapeMismatchError(
                f"concat needs a leading axis and equal trailing dims, got "
                f"{[tuple(p.shape) for p in parts]}")
    splits = np.cumsum([p.shape[0] for p in parts])[:-1]

    def bwd(g):
        return tuple(np.split(np.asarray(g), splits, axis=0))

    return _emit("concat", parts, np.concatenate([p.data for p in parts], axis=0), bwd)


def stack(parts):
    """Stack same-shape tensors into a new leading axis."""
    parts = tuple(parts)
    if not parts:
        raise ShapeMismatchError("stack of zero tensors")
    shape = parts[0].shape
    for p in parts:
        if p.shape != shape:
            raise ShapeMismatchError(
                f"stack shapes differ: {[tuple(p.shape) for p in parts]}")

    def bwd(g):
        return tuple(np.asarray(g))

    return _emit("stack", parts, np.stack([p.data for p in parts]), bwd)


def linear(x, w, b):
    """Affine map ``x @ w + b``, w [in, out], for [B, in] or one [in] row."""
    if w.data.ndim != 2:
        raise ShapeMismatchError(f"linear weight must be [in, out], got {tuple(w.shape)}")
    n_in, n_out = w.shape
    if x.data.ndim not in (1, 2) or x.shape[-1] != n_in:
        raise ShapeMismatchError(
            f"linear input {tuple(x.shape)} does not match weight {tuple(w.shape)}")
    if b.data.ndim != 1 or b.shape[0] != n_out:
        raise ShapeMismatchError(
            f"linear bias {tuple(b.shape)} does not match {n_out} outputs")
    xd, wd = x.data, w.data

    def bwd(g):
        x2, g2 = xd.reshape(-1, n_in), np.asarray(g).reshape(-1, n_out)
        return (g2 @ wd.T).reshape(xd.shape), Factors(x2, g2), g2.sum(axis=0)

    out = xd @ wd
    out += b.data
    return _emit("linear", (x, w, b), out, bwd)


def softmax_xent(logits, targets):
    """Mean cross-entropy of a [B, C] logit batch against integer targets."""
    if logits.data.ndim != 2:
        raise ShapeMismatchError(
            f"softmax_xent needs [B, C] logits, got {tuple(logits.shape)}")
    n, c = logits.shape
    targets = np.asarray(targets)
    if targets.shape != (n,):
        raise ShapeMismatchError(
            f"softmax_xent targets {tuple(targets.shape)} for batch {n}")
    if targets.dtype.kind not in "iu":
        raise TypeError(f"targets must be integers, got dtype {targets.dtype}")
    if targets.size and (targets.min() < 0 or targets.max() >= c):
        raise IndexError(f"target class out of range 0..{c - 1}")
    ld = logits.data
    shifted = ld - ld.max(axis=1, keepdims=True)
    expv = np.exp(shifted)
    total = expv.sum(axis=1, keepdims=True)
    rows = np.arange(n)
    logp = shifted[rows, targets] - np.log(total[:, 0])
    loss = -logp.mean()

    def bwd(g):
        p = expv / total
        p[rows, targets] -= 1.0
        p *= g / n
        return (p,)

    return _emit("softmax_xent", (logits,), loss, bwd, (expv, total))


def sigmoid_bce(logits, targets):
    """Mean elementwise binary cross-entropy on logits against 0/1 targets."""
    targets = np.asarray(targets, dtype=logits.data.dtype)
    if targets.shape != logits.shape:
        raise ShapeMismatchError(
            f"sigmoid_bce targets {tuple(targets.shape)} vs logits {tuple(logits.shape)}")
    ld = logits.data
    loss = (np.maximum(ld, 0) - ld * targets + np.log1p(np.exp(-np.abs(ld)))).mean()
    size = ld.size

    def bwd(g):
        sig = 0.5 * (1.0 + np.tanh(0.5 * ld))
        return ((sig - targets) * (g / size),)

    return _emit("sigmoid_bce", (logits,), loss, bwd)


PRIMITIVES = {
    "matmul": matmul,
    "add": add,
    "sum": sum_all,
    "relu": relu,
    "gelu": gelu,
    "layer_norm": layer_norm,
    "conv1d_valid": conv1d_valid,
    "max_over_time": max_over_time,
    "embedding_lookup": embedding_lookup,
    "scaled_dot_attention": scaled_dot_attention,
    "concat": concat,
    "stack": stack,
    "linear": linear,
    "softmax_xent": softmax_xent,
    "sigmoid_bce": sigmoid_bce,
}
