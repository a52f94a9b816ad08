"""Dense tensors on numpy storage with taped reverse-mode differentiation.

A :class:`Tensor` wraps one contiguous float array, and a :class:`WeightSet`
holds a model part's named parameter tensors.  Primitive applications (see
:mod:`febench.ops`) append entries to the active :class:`ComputationRecord`,
of which there is at most one; :func:`backward` pops that record's tape in
reverse, once per record, and returns a map from tensor id to gradient for
every leaf that requires one.  Frozen tensors (``requires_grad=False``)
never receive gradients, and subgraphs reachable only through frozen tensors
are not taped for backward at all.  Outside a record nothing is taped or
charged, as in evaluation.  The walk reads no primitive's kind: it treats
each gradient form alike, whichever primitive made it.

The record is also the one owner of activation and gradient bytes: it
charges every primitive output and every gradient of its walk to its
:class:`~febench.profiling.MemoryLedger` until its ``with`` block exits,
yet holds only what backward has still to read.  Its tape keeps ids and
groups, never a tensor or an array's shape, so an output lives only while a
backward closure saves it or a later consumer holds it (PyTorch's eager
rule).

Training arithmetic runs in float32.  :func:`grad_check` re-runs the same
code paths in float64 and compares against central finite differences.
"""

from __future__ import annotations

import itertools
from collections import Counter
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .profiling import MemoryLedger


class ShapeMismatchError(ValueError):
    """Operation inputs have incompatible shapes."""


class KernelTooLongError(ShapeMismatchError):
    """A convolution kernel is longer than the input sequence."""


class NonScalarLossError(ValueError):
    """backward/grad_check was handed a non-scalar output."""


class StaleRecordError(RuntimeError):
    """backward was called a second time within one computation record."""


class NoRecordError(RuntimeError):
    """backward was called outside every computation record."""


class NestedRecordError(RuntimeError):
    """A computation record was entered while another one was active."""


def check_count(name, value, least):
    """A config count is an integer (numpy's too, a bool not) >= ``least``."""
    if isinstance(value, bool) or not isinstance(value, (int, np.integer)) \
            or value < least:
        raise ValueError(f"{name} must be an integer of at least {least}, "
                         f"got {value!r}")


_tid_counter = itertools.count(1)
_active = None


def current_record():
    """The active record, or None outside every record."""
    return _active


class Tensor:
    """A dense float array, optionally participating in differentiation."""

    __slots__ = ("data", "requires_grad", "tid", "group")

    def __init__(self, data, requires_grad=False, group=None):
        arr = np.asarray(data)
        if arr.dtype.kind != "f":
            arr = arr.astype(np.float32)
        self.data = arr
        self.requires_grad = requires_grad
        self.tid = next(_tid_counter)
        self.group = group

    @classmethod
    def param(cls, data, group=None):
        """A trainable parameter tensor attributed to ``group``."""
        return cls(data, requires_grad=True, group=group)

    @property
    def shape(self):
        return self.data.shape

    @property
    def dtype(self):
        return self.data.dtype

    def __repr__(self):
        flags = []
        if self.requires_grad:
            flags.append("grad")
        if self.group:
            flags.append(self.group)
        tag = " ".join([""] + flags) if flags else ""
        return f"<Tensor #{self.tid} shape={tuple(self.shape)} {self.dtype}{tag}>"


@dataclass
class WeightSet:
    """A model part's named parameter tensors."""

    tensors: dict

    @classmethod
    def init(cls, shapes, seed, group):
        """Seeded trainable float32 tensors for ``shapes``, drawn in table
        order: norm scales 1, biases and norm offsets 0, all else
        normal(0, 0.02)."""
        rng = np.random.default_rng(seed)
        tensors = {}
        for name, shape in shapes.items():
            if name.endswith("norm.scale"):
                data = np.ones(shape, dtype=np.float32)
            elif name.endswith((".bias", "norm.offset")):
                data = np.zeros(shape, dtype=np.float32)
            else:
                data = rng.normal(0.0, 0.02, size=shape).astype(np.float32)
            tensors[name] = Tensor.param(data, group=group)
        return cls(tensors)

    def set_trainable(self, trainable):
        for t in self.tensors.values():
            t.requires_grad = bool(trainable)

    def byte_image(self):
        """Concatenated raw bytes of every tensor, for bit-identity checks."""
        return b"".join(self.tensors[n].data.tobytes() for n in sorted(self.tensors))


class Factors(NamedTuple):
    """The gradient ``a.T @ g``, left unmultiplied for :func:`backward`."""

    a: np.ndarray
    g: np.ndarray


class RowSparse(NamedTuple):
    """A gradient of a table with ``length`` rows that is ``values`` at the
    unique ``rows`` and zero elsewhere."""

    rows: np.ndarray
    values: np.ndarray
    length: int


class _Entry:
    """A taped primitive, holding no tensor: its output's id, its closure,
    and per input ``None`` if it needs no gradient, else the ``(tid, group)``
    that backward reads of it."""

    __slots__ = ("inputs", "out_tid", "backward_fn")

    def __init__(self, inputs, out_tid, backward_fn):
        self.inputs = inputs
        self.out_tid = out_tid
        self.backward_fn = backward_fn


class ComputationRecord:
    """Ordered tape of primitive applications for one forward/backward cycle.

    At most one record is active at a time; entering a second one raises
    :class:`NestedRecordError` and leaves the active one as it was.  Every
    primitive applied inside the record goes through :meth:`append`, but
    the tape holds an entry only for a primitive whose backward closure is
    kept; backward pops those entries in reverse, so a record is walked
    once.  An entry keeps its output's id and, per input that needs a
    gradient, the id and group that backward reads, but no tensor: every
    output, taped or not, dies with its last consumer unless a closure
    saves its array.  Via :meth:`charge` the record charges its ``ledger``
    (a new one if none is given) and one ``(category, group)`` tally: each
    output to ``activations``, each gradient of the walk to ``gradients``
    under its tensor's group.  Leaving the block, by any exit, frees the tally.
    """

    def __init__(self, ledger=None):
        self.entries = []
        self.ledger = MemoryLedger() if ledger is None else ledger
        self.walked = False
        self._held = {}

    def __enter__(self):
        global _active
        if _active is not None:
            raise NestedRecordError("a computation record is already active")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active
        _active = None
        for (category, group), nbytes in self._held.items():
            self.ledger.record_free(category, nbytes, group=group)
        self._held = {}
        self.entries.clear()
        return False

    def charge(self, category, nbytes, group=None):
        """Charge the ledger with ``nbytes`` until the ``with`` block exits."""
        self.ledger.record_alloc(category, nbytes, group)
        key = (category, group)
        self._held[key] = self._held.get(key, 0) + nbytes

    def append(self, kind, inputs, output, backward_fn):
        """Charge ``output`` and, if ``backward_fn`` is kept, tape the entry;
        ``kind`` names the primitive for observers and goes unread here."""
        if backward_fn is not None:
            refs = tuple([(t.tid, t.group) if t.requires_grad else None
                          for t in inputs])
            self.entries.append(_Entry(refs, output.tid, backward_fn))
        self.charge("activations", output.data.nbytes)


def backward(loss):
    """Reverse-mode traversal from a scalar loss over the active record.

    Returns ``{tensor id -> gradient array}`` for every leaf with
    ``requires_grad=True`` that the loss depends on: a parameter, a
    :func:`grad_check` point, or a loss with no entry.  Frozen tensors and
    anything reachable only through them are absent.  The walk pops each
    entry, and drops each intermediate gradient once its producer has read
    it (a pending :class:`Factors` may still hold it), so both die as they
    propagate; after the walk, it charges the record's tally with every
    gradient, once per group, until the block exits.  A second walk in the
    same record raises :class:`StaleRecordError`.

    A closure may return a gradient as a dense array, in one of two
    deferred forms, or as any array-like with an ``nbytes``.
    :class:`Factors` and :class:`RowSparse` let a weight's or a table's
    gradient be reduced once per step, not once per document: the walk
    stacks a tensor's factors and multiplies them out once,
    ``concatenate(a).T @ concatenate(g)``, when the tensor's producer needs
    its gradient or, for a parameter, at the end; it adds row-sparse updates
    in place into the tensor's one dense gradient, which the first update
    makes a zero table of its ``length`` rows, since the tape keeps ids and
    groups but no shape.  Any other gradient goes as it is to the producer
    when it is the tensor's only gradient, so an array-like reaches it
    undensified; numpy densifies one when it is added to another gradient
    or reaches a leaf.  The record charges every gradient
    by its ``nbytes``.  Every value in the returned map is a dense array.
    """
    if loss.data.ndim != 0:
        raise NonScalarLossError(f"loss must be scalar, got shape {tuple(loss.shape)}")
    record = _active
    if record is None:
        raise NoRecordError("backward needs an active ComputationRecord")
    if record.walked:
        raise StaleRecordError("record already walked; open a new one")
    record.walked = True

    # slot layout: [(tid, group), grad or None, owns_array, Factors list]
    loss_ref = (loss.tid, loss.group)
    pending = {loss.tid: [loss_ref, np.ones((), dtype=loss.dtype), True, []]}
    held = Counter()
    while record.entries:
        # the last entry, its closure and its output's slot die on rebinding
        entry = record.entries.pop()
        slot = pending.pop(entry.out_tid, None)
        if slot is None:
            continue
        grad = _reduce(slot)
        held[slot[0][1]] += grad.nbytes
        for ref, g in zip(entry.inputs, entry.backward_fn(grad)):
            if g is None or ref is None:
                continue
            got = pending.get(ref[0])
            if got is None:
                got = pending[ref[0]] = [ref, None, False, []]
            _accumulate(got, g)

    grads = {tid: np.asarray(_reduce(slot)) for tid, slot in pending.items()}
    for tid, g in grads.items():
        held[pending[tid][0][1]] += g.nbytes
    # one charge per group, after the walk: a closure that raises mid-walk
    # leaves the record nothing to free
    for group, nbytes in held.items():
        record.charge("gradients", nbytes, group)
    return grads


def _accumulate(slot, g):
    """Add one closure's gradient for ``slot``'s tensor into the slot.

    A gradient that a closure returned may be shared with another slot, so
    it is only added into in place once the slot owns a dense copy.
    """
    if isinstance(g, Factors):
        slot[3].append(g)
        return
    if isinstance(g, RowSparse):
        # absent rows would only add exact zeros, as a dense table's do
        if slot[1] is None:
            slot[1] = np.zeros((g.length, g.values.shape[1]), g.values.dtype)
        elif not slot[2]:
            slot[1] = np.array(slot[1])
        slot[2] = True
        slot[1][g.rows] += g.values
    elif slot[1] is None:
        slot[1] = g
    elif slot[2]:
        slot[1] += g
    else:
        slot[1], slot[2] = np.add(slot[1], g), True


def _reduce(slot):
    """The slot's gradient, once its stacked factors are multiplied out."""
    factors = slot[3]
    if factors:
        slot[3] = []
        a = np.concatenate([f.a for f in factors])
        g = np.concatenate([f.g for f in factors])
        _accumulate(slot, a.T @ g)
    return slot[1]


# central-difference step of grad_check, in float64
GRAD_CHECK_STEP = 1e-5


def grad_check(function, point):
    """Max relative error between taped gradients and central differences.

    ``function`` maps the tensors in ``point`` (passed positionally) to a
    scalar Tensor.  The check runs in float64 with a step of
    ``GRAD_CHECK_STEP``; ``point`` is copied, never mutated.  Error per
    coordinate is |analytic - numeric| divided by
    max(1e-8, |analytic| + |numeric|).
    """
    points = [Tensor(np.array(p.data if isinstance(p, Tensor) else p, dtype=np.float64),
                     requires_grad=True) for p in point]
    with ComputationRecord():
        out = function(*points)
        if out.data.ndim != 0:
            raise NonScalarLossError(
                f"grad_check needs a scalar-valued program, got shape {tuple(out.shape)}")
        grad_map = backward(out)
        analytic = [np.array(grad_map.get(p.tid, np.zeros_like(p.data))) for p in points]

    def evaluate():
        # outside every record: nothing is taped
        return float(function(*points).data)

    max_err = 0.0
    for p, grads in zip(points, analytic):
        flat = p.data.reshape(-1)
        flat_grads = grads.reshape(-1)
        for j in range(flat.size):
            saved = flat[j]
            flat[j] = saved + GRAD_CHECK_STEP
            f_plus = evaluate()
            flat[j] = saved - GRAD_CHECK_STEP
            f_minus = evaluate()
            flat[j] = saved
            numeric = (f_plus - f_minus) / (2.0 * GRAD_CHECK_STEP)
            a = flat_grads[j]
            err = abs(a - numeric) / max(1e-8, abs(a) + abs(numeric))
            max_err = max(max_err, err)
    return max_err
