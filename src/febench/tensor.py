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

The record is also the one owner of activation and gradient bytes, which it
charges by storage lifetime (``torch.cuda.memory_allocated``'s rule): via
:meth:`ComputationRecord.hold` it charges each buffer that the step creates
(every primitive output, every array a kept closure saves, every gradient
the walk keeps) to its :class:`~febench.profiling.MemoryLedger` once, and
frees it when CPython frees the buffer.  Its tape keeps ids and groups,
never a tensor or an array's shape, so an output lives only while a
backward closure saves it or a later consumer holds it (PyTorch's eager
rule).  Caller-owned arrays (parameters, token ids, targets) are never
charged by the record.

Training arithmetic runs in float32.  :func:`grad_check` re-runs the same
code paths in float64 and compares against central finite differences.
"""

from __future__ import annotations

import itertools
import weakref
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


class _Charge(weakref.ref):
    """A weak reference to a charged buffer, with what its death frees."""

    __slots__ = ("ledger", "category", "group", "nbytes", "key")


def _release(charge):
    """The callback of every :class:`_Charge`: free its bytes."""
    if _charges.get(charge.key) is charge:
        del _charges[charge.key]
    charge.ledger.record_free(charge.category, charge.nbytes, charge.group)


# id(buffer) -> the _Charge of every live charged buffer; a charge's own
# referent, not the id, tells whether an entry is still its buffer's
_charges = {}


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
    saves its array.  Via :meth:`hold` the record charges its ``ledger`` (a
    new one if none is given) with each output as ``activations`` and each
    gradient of the walk as ``gradients`` under its tensor's group, for as
    long as the buffer lives.  Leaving the block, by any exit, drops the
    tape, and with it every closure and what it saves.
    """

    def __init__(self, ledger=None):
        self.entries = []
        self.ledger = MemoryLedger() if ledger is None else ledger
        self.walked = False

    def __enter__(self):
        global _active
        if _active is not None:
            raise NestedRecordError("a computation record is already active")
        _active = self
        return self

    def __exit__(self, exc_type, exc, tb):
        global _active
        _active = None
        self.entries.clear()
        return False

    def hold(self, category, array, group=None):
        """Charge the ledger with ``array``'s buffer until CPython frees it,
        and return whether this call charged it: false if it was charged
        already, so true means that no earlier hold saw the buffer.

        An ndarray's buffer is the root of its ``base`` chain, so a buffer
        is charged once, by its full ``nbytes``, however many views of it
        are held; it stays charged under its first category and group.  Any
        other array-like is charged by its own ``nbytes`` and must take a
        weak reference, which a numpy scalar does not.
        """
        buffer = array
        base = getattr(array, "base", None)
        while base.__class__ is np.ndarray:
            buffer, base = base, base.base
        key = id(buffer)
        held = _charges.get(key)
        if held is not None and held() is buffer:
            return False
        charge = _Charge(buffer, _release)
        charge.ledger, charge.category, charge.group = self.ledger, category, group
        charge.nbytes, charge.key = buffer.nbytes, key
        self.ledger.record_alloc(category, charge.nbytes, group)
        _charges[key] = charge
        return True

    def append(self, kind, inputs, output, backward_fn):
        """Charge ``output`` and, if ``backward_fn`` is kept, tape the entry;
        ``kind`` names the primitive for observers and goes unread here."""
        if backward_fn is not None:
            refs = tuple([(t.tid, t.group) if t.requires_grad else None
                          for t in inputs])
            self.entries.append(_Entry(refs, output.tid, backward_fn))
        self.hold("activations", output.data)


def backward(loss):
    """Reverse-mode traversal from a scalar loss over the active record.

    Returns ``{tensor id -> gradient array}`` for every leaf with
    ``requires_grad=True`` that the loss depends on: a parameter, a
    :func:`grad_check` point, or a loss with no entry.  Frozen tensors and
    anything reachable only through them are absent.  The walk pops each
    entry, and drops each intermediate gradient once its producer has read
    it (a pending :class:`Factors` may still hold it), so both die as they
    propagate.  It holds (see :meth:`ComputationRecord.hold`) each gradient
    that it keeps as ``gradients`` under its tensor's group: the loss's
    seed, a closure's gradient that a slot takes, each factor's upstream
    gradient as it stacks it, each sum it makes, each row-sparse table, and
    each leaf gradient that it returns.  A slot adds into a gradient buffer
    that nothing else reads, in place (see :func:`_accumulate`), so a sum
    takes a new buffer only when both its operands may be shared.  A second
    walk in the same record raises :class:`StaleRecordError`.

    A closure may return a gradient as a dense array, in one of two
    deferred forms, or as any weakly referenceable array-like with an
    ``nbytes``.  :class:`Factors` and :class:`RowSparse` let a weight's or a
    table's gradient be reduced once per step, not once per document: the
    walk stacks a tensor's factors and multiplies them out once,
    ``concatenate(a).T @ concatenate(g)``, when the tensor's producer needs
    its gradient or, for a parameter, at the end; it adds row-sparse updates
    in place into the tensor's one dense gradient, which the first update
    makes a zero table of its ``length`` rows, since the tape keeps ids and
    groups but no shape.  A factor's ``a`` may be the caller's and is
    never held.  Any other gradient goes as it is to the producer when it
    is the tensor's only gradient, so an array-like reaches it undensified;
    numpy densifies one when it is added to another gradient or reaches a
    leaf.  Every value in the returned map is a dense array.
    """
    if loss.data.ndim != 0:
        raise NonScalarLossError(f"loss must be scalar, got shape {tuple(loss.shape)}")
    record = _active
    if record is None:
        raise NoRecordError("backward needs an active ComputationRecord")
    if record.walked:
        raise StaleRecordError("record already walked; open a new one")
    record.walked = True

    # slot layout: [(tid, group), grad or None, owns grad, Factors list]
    pending = {loss.tid: [(loss.tid, loss.group),
                          np.ones((), dtype=loss.dtype), True, []]}
    record.hold("gradients", pending[loss.tid][1], loss.group)
    while record.entries:
        # the last entry, its closure and its output's slot die on rebinding
        entry = record.entries.pop()
        slot = pending.pop(entry.out_tid, None)
        if slot is None:
            continue
        grad = _reduce(slot, record)
        for ref, g in zip(entry.inputs, entry.backward_fn(grad)):
            if g is None or ref is None:
                continue
            got = pending.get(ref[0])
            if got is None:
                got = pending[ref[0]] = [ref, None, False, []]
            _accumulate(got, g, record)

    grads = {}
    for tid, slot in pending.items():
        grads[tid] = grad = np.asarray(_reduce(slot, record))
        record.hold("gradients", grad, slot[0][1])
    return grads


def _accumulate(slot, g, record):
    """Add one closure's gradient for ``slot``'s tensor into the slot,
    holding each array that the slot newly keeps.

    A slot owns its array when the walk made it, or when it is a writeable
    ndarray whose hold charged a new buffer; later gradients add into it in
    place.  An array charged before may be shared (``add`` passes one to
    both inputs, ``stack`` and ``concat`` views of theirs), so a slot that
    keeps one adds it into a new gradient of its shape and dtype instead
    (``a + b`` rounds as ``b + a``), or else into a new buffer, and row
    updates go into a copy of it.
    """
    group = slot[0][1]
    if isinstance(g, Factors):
        # the closure may have densified g, so this may be its first hold
        record.hold("gradients", g.g, group)
        slot[3].append(g)
        return
    if isinstance(g, RowSparse):
        # absent rows would only add exact zeros, as a dense table's do
        if not slot[2]:
            slot[1] = np.zeros((g.length, g.values.shape[1]), g.values.dtype) \
                if slot[1] is None else np.array(slot[1])
            slot[2] = record.hold("gradients", slot[1], group)
        slot[1][g.rows] += g.values
        return
    if isinstance(g, np.generic):  # a 0-d product; hold needs an array
        g = np.asarray(g)
    old = slot[1]
    if slot[2]:
        old += g
    elif old is None:
        slot[1] = g
        slot[2] = record.hold("gradients", g, group) \
            and isinstance(g, np.ndarray) and g.flags.writeable
    elif isinstance(g, np.ndarray) and g.flags.writeable \
            and g.shape == getattr(old, "shape", None) \
            and g.dtype == getattr(old, "dtype", None) \
            and record.hold("gradients", g, group):
        slot[1] = np.add(g, old, out=g)
        slot[2] = True
    else:
        slot[1] = np.asarray(np.add(old, g))
        record.hold("gradients", slot[1], group)
        slot[2] = True


def _reduce(slot, record):
    """The slot's gradient, once its stacked factors are multiplied out."""
    factors = slot[3]
    if factors:
        slot[3] = []
        a = np.concatenate([f.a for f in factors])
        g = np.concatenate([f.g for f in factors])
        _accumulate(slot, a.T @ g, record)
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
