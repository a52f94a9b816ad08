"""Tensor container, record lifecycle, and backward traversal mechanics."""

import weakref

import numpy as np
import pytest

from febench import (ComputationRecord, MemoryLedger, NestedRecordError,
                     NoRecordError, NonScalarLossError, StaleRecordError,
                     Tensor, backward)
from febench import ops
from febench.ops import Pooled
from febench.tensor import current_record
from helpers import probe_sum


class TestTensor:
    def test_integer_input_becomes_float32(self):
        t = Tensor([1, 2, 3])
        assert t.dtype == np.float32
        np.testing.assert_array_equal(t.data, [1.0, 2.0, 3.0])

    def test_float64_preserved(self):
        t = Tensor(np.zeros(4, dtype=np.float64))
        assert t.dtype == np.float64

    def test_param_constructor(self):
        p = Tensor.param(np.ones((2, 2)), group="head")
        assert p.requires_grad
        assert p.group == "head"

    def test_ids_are_unique(self):
        a, b = Tensor(1.0), Tensor(1.0)
        assert a.tid != b.tid


class TestBackward:
    def test_scalar_chain(self):
        x = Tensor(np.array([-1.0, 2.0]), requires_grad=True)
        with ComputationRecord():
            loss = ops.sum_all(ops.relu(x))
            grads = backward(loss)
        np.testing.assert_array_equal(grads[x.tid], [0.0, 1.0])
        assert float(loss.data) == 2.0

    def test_product_rule(self):
        a = Tensor(np.array([[3.0]]), requires_grad=True)
        b = Tensor(np.array([[4.0]]), requires_grad=True)
        with ComputationRecord():
            grads = backward(ops.sum_all(ops.matmul(a, b)))
        np.testing.assert_array_equal(grads[a.tid], [[4.0]])
        np.testing.assert_array_equal(grads[b.tid], [[3.0]])

    def test_reused_input_accumulates(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with ComputationRecord():
            grads = backward(ops.sum_all(ops.add(x, x)))
        np.testing.assert_array_equal(grads[x.tid], [2.0, 2.0, 2.0])

    def test_accumulation_does_not_corrupt_shared_arrays(self):
        """add passes the incoming gradient through to both inputs unchanged.

        When one of them later accumulates a second contribution, the shared
        array must not be mutated in place or the sibling's gradient would be
        silently wrong.
        """
        x = Tensor(np.ones(3), requires_grad=True)
        y = Tensor(np.ones(3), requires_grad=True)
        with ComputationRecord():
            w = ops.add(x, y)
            grads = backward(ops.sum_all(ops.add(w, x)))
        np.testing.assert_array_equal(grads[x.tid], [2.0, 2.0, 2.0])
        np.testing.assert_array_equal(grads[y.tid], [1.0, 1.0, 1.0])

    def test_frozen_input_absent_from_map(self):
        frozen = Tensor(np.ones(3), requires_grad=False)
        live = Tensor(np.ones(3), requires_grad=True)
        with ComputationRecord():
            grads = backward(ops.sum_all(ops.add(frozen, live)))
        assert live.tid in grads
        assert frozen.tid not in grads

    def test_map_holds_leaves_only(self):
        """A taped entry's output (the loss, an intermediate) is not in the map."""
        x = Tensor(np.ones(2), requires_grad=True)
        with ComputationRecord():
            mid = ops.relu(x)
            loss = ops.sum_all(mid)
            grads = backward(loss)
        assert list(grads) == [x.tid]
        np.testing.assert_array_equal(grads[x.tid], [1.0, 1.0])

    def test_non_scalar_loss_rejected(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with ComputationRecord():
            y = ops.relu(x)
            with pytest.raises(NonScalarLossError):
                backward(y)

    def test_second_traversal_is_stale(self):
        x = Tensor(np.ones(2), requires_grad=True)
        with ComputationRecord():
            loss = ops.sum_all(x)
            backward(loss)
            with pytest.raises(StaleRecordError):
                backward(loss)

    def test_only_leaving_the_block_rearms_the_record(self):
        """The walk consumes the tape, so a new forward alone cannot re-arm
        it; only leaving the block does, for a new record."""
        x = Tensor(np.ones(2), requires_grad=True)
        with ComputationRecord():
            backward(ops.sum_all(x))
            loss2 = ops.sum_all(ops.relu(x))
            with pytest.raises(StaleRecordError):
                backward(loss2)
        with ComputationRecord():
            grads = backward(ops.sum_all(ops.relu(x)))
        np.testing.assert_array_equal(grads[x.tid], [1.0, 1.0])

    def test_walk_frees_closures_and_intermediate_gradients(self):
        """Once backward returns, with the record still open, a kept closure
        and the gradient an intermediate's closure received are gone."""
        x = Tensor.param(np.linspace(-1.0, 1.0, 3, dtype=np.float32))
        received = []
        with ComputationRecord() as rec:
            mid = ops.gelu(x)
            loss = ops.sum_all(ops.gelu(mid))
            closure = _spy_on(rec.entries[0], received)
            backward(loss)
            assert closure() is None
            assert len(received) == 1 and received[0]() is None

    def test_branch_behind_frozen_tensor_gets_no_gradient(self):
        """requires_grad must not propagate through a frozen intermediate."""
        x = Tensor(np.ones(2), requires_grad=True)
        frozen_feature = ops.relu(x)  # outside the record: untaped
        assert not frozen_feature.requires_grad
        with ComputationRecord():
            grads = backward(ops.sum_all(frozen_feature))
        assert x.tid not in grads

    def test_frozen_loss_backward(self):
        """A loss of frozen inputs only: the map holds the loss alone, once."""
        x = Tensor(np.array([-1.0, 2.0]))
        with ComputationRecord():
            loss = ops.sum_all(ops.relu(x))
            grads = backward(loss)
            assert list(grads) == [loss.tid]
            assert float(grads[loss.tid]) == 1.0
            with pytest.raises(StaleRecordError):
                backward(loss)


def _spy_on(entry, received):
    """Wrap ``entry``'s closure to keep a weakref to the gradient it receives.

    Returns a weakref to the wrapped closure; nothing but the entry holds it.
    """
    inner = entry.backward_fn

    def spy(g):
        received.append(weakref.ref(g))
        return inner(g)

    entry.backward_fn = spy
    return weakref.ref(inner)


class TestDeferredGradients:
    """Factors and row-sparse updates reduce to the per-document formulas."""

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_table_gradient_bit_identical_to_dense_tables(self, dtype):
        rng = np.random.default_rng(31)
        table = Tensor.param(rng.normal(size=(40, 16)).astype(dtype))
        docs = [np.array([3, 7, 3, 0, 39, 7, 7]), np.array([7, 1, 3, 3]),
                np.array([0, 0, 7, 25, 3, 39])]
        probes = [rng.normal(size=(ids.size, 16)).astype(dtype) for ids in docs]
        with ComputationRecord():
            losses = [probe_sum(ops.embedding_lookup(table, ids=ids), probe)
                      for ids, probe in zip(docs, probes)]
            loss = ops.add(ops.add(losses[0], losses[1]), losses[2])
            got = backward(loss)[table.tid]
        # one dense table per document, summed in the order the walk visits
        # the documents: the last one taped first
        tables = []
        for ids, probe in zip(docs, probes):
            gt = np.zeros(table.shape, dtype=dtype)
            np.add.at(gt, ids, probe)
            tables.append(gt)
        want = tables[2]
        for gt in (tables[1], tables[0]):
            want = want + gt
        assert got.dtype == dtype
        np.testing.assert_array_equal(got, want)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_table_gradient_is_sized_from_the_row_sparse_update(self, dtype):
        """The tape keeps no input shapes, so the walk sizes a table's dense
        gradient from the row-sparse update's ``length``: rows past every
        looked-up id are there too.  A table whose lookup the loss does not
        read gets no gradient."""
        rng = np.random.default_rng(34)
        table = Tensor.param(rng.normal(size=(9, 4)).astype(dtype))
        unused = Tensor.param(rng.normal(size=(6, 4)).astype(dtype))
        docs = [np.array([1, 4, 1]), np.array([4, 0])]
        probes = [rng.normal(size=(ids.size, 4)).astype(dtype) for ids in docs]
        probes[1][0, 0] = -0.0
        with ComputationRecord():
            ops.embedding_lookup(unused, ids=np.array([5, 2]))
            losses = [probe_sum(ops.embedding_lookup(table, ids=ids), probe)
                      for ids, probe in zip(docs, probes)]
            grads = backward(ops.add(losses[0], losses[1]))
        # the parent's walk: a zero table of the input's taped shape, into
        # which the last document's rows go first
        want = np.zeros(table.shape, dtype=dtype)
        for ids, probe in zip(docs[::-1], probes[::-1]):
            update = np.zeros(table.shape, dtype=dtype)
            np.add.at(update, ids, probe)
            want += update
        assert unused.tid not in grads
        got = grads[table.tid]
        assert got.dtype == dtype and got.shape == table.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("kind", ["matmul", "linear"])
    def test_one_document_weight_gradient_is_one_product(self, kind):
        rng = np.random.default_rng(32)
        ad = rng.normal(size=(16, 128)).astype(np.float32)
        g = rng.normal(size=(16, 64)).astype(np.float32)
        w = Tensor.param(rng.normal(size=(128, 64)).astype(np.float32))
        b = Tensor.param(np.zeros(64, dtype=np.float32))
        with ComputationRecord():
            if kind == "matmul":
                out = ops.matmul(Tensor(ad), w)
            else:
                out = ops.linear(Tensor(ad), w, b)
            grads = backward(probe_sum(out, g))
        np.testing.assert_array_equal(grads[w.tid], ad.T @ g)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_vector_linear_is_a_one_row_batch(self, dtype):
        """``linear`` on an [in] input gives, byte for byte, the output and
        gradients of the same input as a [1, in] batch."""
        rng = np.random.default_rng(35)
        xd = rng.normal(size=6).astype(dtype)
        xd[0] = -0.0
        probe = rng.normal(size=5).astype(dtype)
        w = Tensor.param(rng.normal(size=(6, 5)).astype(dtype))
        b = Tensor.param(rng.normal(size=5).astype(dtype))
        runs = []
        for lead in ((), (1,)):
            x = Tensor.param(xd.reshape(lead + (6,)))
            with ComputationRecord():
                out = ops.linear(x, w, b)
                grads = backward(probe_sum(out, probe.reshape(lead + (5,))))
            assert out.shape == lead + (5,) and grads[x.tid].shape == x.shape
            runs.append([out.data.tobytes()] +
                        [grads[t.tid].tobytes() for t in (x, w, b)])
        assert runs[0] == runs[1]

    @pytest.mark.parametrize("seed", range(3))
    def test_projection_gradient_sums_per_document_outer_products(self, seed):
        """Documents' [in] feature rows share the head's projection weight;
        its one stacked product equals their outer products summed in walk
        order (last document first) within 1e-6 of the largest entry.  Over
        200 seeds at this shape the largest gap measured 2.2e-7 of it."""
        rng = np.random.default_rng([seed, 36])
        docs, n_in, n_out = 50, 300, 4
        xs = np.maximum(rng.normal(size=(docs, n_in)), 0).astype(np.float32)
        probe = rng.normal(size=(docs, n_out)).astype(np.float32)
        w = Tensor.param(rng.normal(0.0, 0.02, (n_in, n_out)).astype(np.float32))
        b = Tensor.param(np.zeros(n_out, dtype=np.float32))
        with ComputationRecord():
            out = ops.stack([ops.linear(Tensor(x), w, b) for x in xs])
            got = backward(probe_sum(out, probe))[w.tid]
        want = np.zeros((n_in, n_out), dtype=np.float32)
        for x, g in zip(xs[::-1], probe[::-1]):
            want += np.outer(x, g)
        assert got.dtype == np.float32
        assert np.abs(got - want).max() <= 1e-6 * np.abs(want).max()

    def test_row_sparse_update_does_not_corrupt_a_shared_gradient(self):
        """add hands one array to both inputs; the table's later row-sparse
        update must go into a copy, not into the array its sibling holds."""
        table = Tensor.param(np.zeros((3, 2)))
        other = Tensor.param(np.zeros((3, 2)))
        with ComputationRecord():
            rows = ops.embedding_lookup(table, ids=np.array([2, 2]))
            grads = backward(ops.add(ops.sum_all(rows),
                                     ops.sum_all(ops.add(table, other))))
        np.testing.assert_array_equal(grads[table.tid], [[1, 1], [1, 1], [3, 3]])
        np.testing.assert_array_equal(grads[other.tid], np.ones((3, 2)))

    def test_every_gradient_is_a_dense_array(self):
        rng = np.random.default_rng(33)
        table = Tensor.param(rng.normal(size=(5, 4)))
        w = Tensor.param(rng.normal(size=(4, 4)))
        b = Tensor.param(np.zeros(4))
        pooled_leaf = Tensor.param(rng.normal(size=(3, 4)))
        with ComputationRecord():
            docs = []
            for ids in (np.array([0, 2, 2]), np.array([4, 0])):
                x = ops.embedding_lookup(table, ids=ids)
                docs.append(ops.linear(ops.matmul(x, w), w, b))
            grads = backward(ops.add(
                ops.sum_all(ops.gelu(ops.concat(docs))),
                ops.sum_all(ops.max_over_time(pooled_leaf))))
        assert {table.tid, w.tid, b.tid, pooled_leaf.tid} <= set(grads)
        for g in grads.values():
            assert type(g) is np.ndarray


class _Spike:
    """A test-local array-like gradient: ``value`` at ``index`` of a zero
    array of ``shape``.  The walk may read only ``__array__`` and
    ``nbytes``; ``reads`` counts the latter."""

    def __init__(self, shape, index, value):
        self.shape, self.index, self.value = shape, index, value
        self.reads = 0

    @property
    def nbytes(self):
        self.reads += 1
        return np.zeros(self.shape).nbytes

    def __array__(self, dtype=None, copy=None):
        out = np.zeros(self.shape, dtype=dtype)
        out[self.index] = self.value
        return out


def spike(x, *spikes):
    """Identity on float64 ``x``, whose closure passes back the given
    :class:`_Spike` gradients, one after another, whatever its upstream."""
    out = Tensor(x.data.copy(), requires_grad=x.requires_grad)
    queue = list(spikes)
    current_record().append("spike", (x,), out, lambda g: (queue.pop(0),))
    return out


class TestArrayLikeGradients:
    """The walk's contract for a gradient that is neither an array nor a
    deferred form: passed on as it is, added and densified by numpy,
    charged by its ``nbytes``."""

    def test_lone_one_reaches_its_producer_unchanged(self):
        x = Tensor.param(np.array([[1.0, -2.0], [3.0, 4.0]]))
        one = _Spike((2, 2), (1, 0), 5.0)
        log = []
        with ComputationRecord() as rec:
            loss = ops.sum_all(spike(ops.relu(x), one))
            TestPooledGradients._received(rec, 0, log)
            grads = backward(loss)
            # the relu output's (the spike's nbytes), alive while the test
            # holds the spike, and x's; the others died in the walk
            assert rec.ledger.current("gradients") == 2 * 32
        assert log == [one] and log[0] is one
        assert one.reads == 1
        np.testing.assert_array_equal(grads[x.tid], [[0, 0], [5, 0]])

    def test_two_that_meet_are_added(self):
        x = Tensor.param(np.ones((2, 3)))
        first, second = _Spike((2, 3), (1, 2), 2.0), _Spike((2, 3), (1, 2), 0.5)
        log = []
        with ComputationRecord() as rec:
            y = ops.relu(x)
            loss = ops.add(ops.sum_all(spike(y, first)),
                           ops.sum_all(spike(y, second)))
            TestPooledGradients._received(rec, 0, log)
            grads = backward(loss)
        (g,) = log
        assert type(g) is np.ndarray
        want = np.zeros((2, 3))
        want[1, 2] = 2.5
        np.testing.assert_array_equal(g, want)
        np.testing.assert_array_equal(grads[x.tid], want)

    def test_one_at_a_leaf_is_densified_and_charged(self):
        x = Tensor.param(np.zeros((3, 2)))
        one = _Spike((3, 2), (2, 0), -1.5)
        with ComputationRecord() as rec:
            grads = backward(ops.sum_all(spike(x, one)))
            # the spike, which the test holds, and x's dense array
            assert rec.ledger.current("gradients") == 2 * 48
        assert type(grads[x.tid]) is np.ndarray
        np.testing.assert_array_equal(grads[x.tid], [[0, 0], [0, 0], [-1.5, 0]])


class TestPooledGradients:
    """``max_over_time`` passes its winners as a :class:`Pooled`: the walk
    hands a lone one to the producer as it is, and numpy densifies it
    wherever it is read as an array."""

    @staticmethod
    def _received(record, index, log):
        inner = record.entries[index].backward_fn
        record.entries[index].backward_fn = lambda g: log.append(g) or inner(g)

    def test_conv_then_pool_gets_the_winners(self):
        """In the head's order the conv closure receives the pooled rows
        and values, not a dense array."""
        rng = np.random.default_rng(41)
        x = Tensor(rng.normal(size=(12, 8)).astype(np.float32))
        w = Tensor.param(rng.normal(size=(3, 8, 5)).astype(np.float32))
        b = Tensor.param(np.zeros(5, dtype=np.float32))
        coef = rng.normal(size=5).astype(np.float32)
        log = []
        with ComputationRecord() as rec:
            conv = ops.conv1d_valid(x, w, b, limit=7)
            loss = probe_sum(ops.max_over_time(conv), coef)
            self._received(rec, 0, log)
            backward(loss)
        (g,) = log
        assert type(g) is Pooled
        np.testing.assert_array_equal(g.rows, conv.data.argmax(axis=0))
        np.testing.assert_array_equal(g.values, coef)

    def test_relu_then_pool_gets_the_dense_array(self):
        rng = np.random.default_rng(34)
        x = Tensor.param(rng.normal(size=(6, 3)))
        coef = rng.normal(size=3)
        log = []
        with ComputationRecord() as rec:
            pooled = ops.max_over_time(ops.relu(x))
            self._received(rec, 0, log)
            grads = backward(probe_sum(pooled, coef))
        idx = np.maximum(x.data, 0).argmax(axis=0)
        want = np.zeros((6, 3))
        want[idx, np.arange(3)] = coef
        (g,) = log
        np.testing.assert_array_equal(np.asarray(g), want)
        np.testing.assert_array_equal(grads[x.tid], want * (x.data > 0))

    def test_pooled_leaf_gets_the_dense_array(self):
        x = Tensor.param(np.array([[1.0, -2.0], [3.0, -1.0], [0.0, -3.0]]))
        with ComputationRecord() as rec:
            grads = backward(probe_sum(ops.max_over_time(x),
                                       np.array([2.0, -0.5])))
            # the winners died with the walk; their dense array is x's
            assert rec.ledger.current("gradients") == 6 * 8
        assert type(grads[x.tid]) is np.ndarray
        np.testing.assert_array_equal(grads[x.tid], [[0, 0], [2, -0.5], [0, 0]])

    def test_second_gradient_densifies(self):
        """A conv output pooled twice hands its closure the dense sum of the
        two :class:`Pooled` gradients that meet on it."""
        rng = np.random.default_rng(35)
        x = Tensor(rng.normal(size=(10, 4)))
        w = Tensor.param(rng.normal(size=(3, 4, 2)))
        b = Tensor.param(np.zeros(2))
        coef = rng.normal(size=(2, 2))
        log = []
        with ComputationRecord() as rec:
            conv = ops.conv1d_valid(x, w, b, limit=8)
            loss = ops.add(probe_sum(ops.max_over_time(conv), coef[0]),
                           probe_sum(ops.max_over_time(conv), coef[1]))
            self._received(rec, 0, log)
            backward(loss)
        want = np.zeros((8, 2))
        for c in coef:
            want[conv.data.argmax(axis=0), np.arange(2)] += c
        (g,) = log
        assert type(g) is np.ndarray
        np.testing.assert_array_equal(g, want)


class TestRecordLifecycle:
    """The record charges each buffer while it lives: inside its block or
    past it, and whatever ends the block."""

    def test_leaving_the_block_frees_activation_bytes(self):
        """Leaving the block drops the tape, and with it what the closures
        saved; an output that the caller holds stays charged until it dies."""
        ledger = MemoryLedger()
        x = Tensor.param(np.ones(8, dtype=np.float32))
        with ComputationRecord(ledger):
            y = ops.gelu(x)
            # the [8] output and the [8] derivative that gelu saves
            assert ledger.current("activations") == 32 + 32
        assert ledger.current("activations") == 32
        del y
        assert ledger.current() == 0

    def test_bytes_live_as_long_as_their_buffers(self):
        ledger = MemoryLedger()
        x = Tensor.param(np.ones(8, dtype=np.float32))
        with ComputationRecord(ledger):
            loss = ops.sum_all(ops.relu(x))
            # relu saves its input, not its output, which died with sum_all
            assert ledger.current("activations") == 4
            grads = backward(loss)
            assert ledger.current("gradients") == 32
            # relu's upstream [8] and x's, once the loss's seed died
            assert ledger.peak() == 4 + 32 + 32
        assert ledger.current() == 4 + 32
        del loss, grads
        assert ledger.current() == 0

    def test_closure_raising_mid_walk_keeps_its_error(self):
        """A closure that raises mid-walk surfaces its own exception, and
        leaving the block frees every byte the walk and the tape held."""
        ledger = MemoryLedger()
        x = Tensor.param(np.ones(4, dtype=np.float32))

        def broken(g):
            raise NameError("broken closure")

        with pytest.raises(NameError, match="broken closure"):
            with ComputationRecord(ledger) as rec:
                loss = ops.sum_all(ops.gelu(ops.relu(x)))
                rec.entries[1].backward_fn = broken
                backward(loss)
        assert ledger.current() == 4
        del loss
        assert ledger.current() == 0

    def test_hand_computed_program(self):
        """matmul [4, 3] @ [3, 2], relu, sum: every byte accounted by hand."""
        ledger = MemoryLedger()
        w = Tensor.param(np.full((3, 2), 0.5, dtype=np.float32), group="head")
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        with ComputationRecord(ledger):
            loss = ops.sum_all(ops.relu(ops.matmul(x, w)))
            # [4, 2] matmul and relu outputs and the scalar loss, then the
            # relu output dies: relu saves the matmul output, its input
            assert ledger.peak() == 32 + 32 + 4
            assert ledger.current("activations") == 32 + 4
            assert ledger.current("gradients") == 0
            grads = backward(loss)
            # w's [3, 2], in group "head"; the rest died in the walk
            assert ledger.current("gradients") == 24
            assert ledger.breakdown()["group_current"] == {"gradients/head": 24}
            # relu's closure ran: the matmul output, the loss, and the
            # [4, 2] gradients of the relu output and the matmul output
            assert ledger.peak() == 36 + 64
        assert ledger.current() == 4 + 24
        del loss, grads
        assert ledger.current() == 0
        assert ledger.peak() == 36 + 64

    def test_shared_weight_holds_one_gradient(self):
        """Two documents through one head weight charge one weight's bytes."""
        ledger = MemoryLedger()
        w = Tensor.param(np.full((3, 2), 0.5, dtype=np.float32), group="head")
        with ComputationRecord(ledger):
            docs = [ops.matmul(Tensor(np.ones((n, 3), dtype=np.float32)), w)
                    for n in (4, 5)]
            grads = backward(ops.sum_all(ops.relu(ops.concat(docs))))
            assert ledger.breakdown()["group_current"] == {
                "gradients/head": w.data.nbytes}
            assert grads[w.tid].shape == w.shape
        del grads
        assert ledger.current("gradients") == 0
        assert ledger.group_peak("gradients", "head") == w.data.nbytes

    def test_shared_gradient_is_charged_once(self):
        """``add`` hands one gradient array to both of its inputs: its
        buffer is charged once, by the first slot that takes it."""
        ledger = MemoryLedger()
        a = Tensor.param(np.ones(5, dtype=np.float32))
        b = Tensor.param(np.ones(5, dtype=np.float32))
        with ComputationRecord(ledger):
            grads = backward(ops.sum_all(ops.add(a, b)))
            assert grads[a.tid] is grads[b.tid]
            assert ledger.current("gradients") == 20
            # the seed and the one [5] gradient
            assert ledger.peak("gradients") == 4 + 20

    def test_second_backward_holds_one_traversal(self):
        ledger = MemoryLedger()
        w = Tensor.param(np.ones((3, 2), dtype=np.float32), group="head")
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        with ComputationRecord(ledger):
            loss = ops.sum_all(ops.relu(ops.matmul(x, w)))
            grads = backward(loss)
            assert ledger.current("gradients") == 24
            ops.relu(x)  # a new forward does not re-arm a walked record
            with pytest.raises(StaleRecordError):
                backward(loss)
            assert ledger.current("gradients") == 24
            assert ledger.breakdown()["group_current"] == {"gradients/head": 24}
        del grads
        assert ledger.current("gradients") == 0

    def test_backward_after_leaving_the_block_charges_one_loss_gradient(self):
        """A record opened after leaving another's block charges only its own
        walk."""
        ledger = MemoryLedger()
        x = Tensor.param(np.ones(4, dtype=np.float32))
        with ComputationRecord(ledger):
            first = backward(ops.sum_all(x))
        with ComputationRecord(ledger):
            second = backward(ops.sum_all(x))
            # each walk's [4] gradient of x; its seed died with the walk
            assert ledger.current("gradients") == 16 + 16
        del first
        assert ledger.current("gradients") == 16
        del second
        assert ledger.current("gradients") == 0

    def test_every_kept_gradient_is_charged_once(self):
        """Two groups plus the ungrouped intermediates: one gradient charge
        per array that the walk keeps, with every peak pinned by hand."""

        class CountingLedger(MemoryLedger):
            allocs = 0

            def record_alloc(self, category, nbytes, group=None):
                self.allocs += category == "gradients"
                super().record_alloc(category, nbytes, group)

        ledger = CountingLedger()
        enc = Tensor.param(np.ones((3, 2), dtype=np.float32), group="encoder")
        head = Tensor.param(np.ones((2, 1), dtype=np.float32), group="head")
        x = Tensor(np.ones((4, 3), dtype=np.float32))
        with ComputationRecord(ledger):
            loss = ops.sum_all(ops.matmul(ops.relu(ops.matmul(x, enc)), head))
            # [4, 2] matmul and relu outputs, saved by relu and the second
            # matmul, and the scalar loss; the [4, 1] output died with sum
            assert ledger.current("activations") == 32 + 32 + 4
            grads = backward(loss)
            # the seed, the [4, 1], the relu output's and the first matmul
            # output's [4, 2], and the two weights'
            assert ledger.allocs == 6
            assert ledger.current("gradients") == 24 + 8
            ops.relu(x)  # 48 activation bytes, dead at once
            with pytest.raises(StaleRecordError):
                backward(loss)
            assert ledger.allocs == 6
        del loss, grads
        assert ledger.current() == 0
        # the forward peaks with the [4, 1] output and the loss alive
        assert ledger.peak("activations") == 32 + 32 + 16 + 4
        # relu's closure ran: its upstream [4, 2] and its own, and the [4, 1]
        # upstream, which the head's pending factors keep
        assert ledger.peak("gradients") == 16 + 32 + 32
        assert ledger.group_peak("gradients", "encoder") == 24
        assert ledger.group_peak("gradients", "head") == 8
        assert ledger.peak() == 68 + 80
        assert ledger.breakdown()["at_peak"] == {
            "parameters": 0, "gradients": 80, "optimizer_state": 0,
            "activations": 68}

    def test_frozen_outputs_die_with_their_consumer(self):
        """A frozen chain's outputs are charged only while something holds
        them, and no closure saves a frozen primitive's arrays."""
        ledger = MemoryLedger()
        table = Tensor(np.ones((5, 4), dtype=np.float32))
        pos = Tensor(np.ones((3, 4), dtype=np.float32))
        scale = Tensor(np.ones(4, dtype=np.float32))
        offset = Tensor(np.zeros(4, dtype=np.float32))
        with ComputationRecord(ledger) as rec:
            rows = ops.embedding_lookup(table, ids=np.array([0, 2, 2]))
            summed = ops.add(rows, pos)
            out = ops.layer_norm(summed, scale, offset)
            assert ledger.current("activations") == 3 * 48
            dead = [weakref.ref(rows.data), weakref.ref(summed.data)]
            del rows, summed
            assert all(ref() is None for ref in dead)
            # three [3, 4] float32 outputs, out the only one still alive
            assert ledger.current("activations") == 48
            assert out.shape == (3, 4) and rec.entries == []
        assert ledger.current("activations") == 48
        del out
        assert ledger.current() == 0
        assert ledger.peak() == 3 * 48

    def test_block_that_raises_frees_its_bytes(self):
        """Leaving a block by an exception drops the tape before any walk,
        and with it gelu's saved derivative."""
        ledger = MemoryLedger()
        x = Tensor.param(np.ones(4, dtype=np.float32))
        with pytest.raises(ZeroDivisionError):
            with ComputationRecord(ledger):
                y = ops.gelu(x)
                # the [4] output and the [4] derivative that gelu saves
                assert ledger.current("activations") == 16 + 16
                1 / 0
        assert ledger.current() == 16
        del y
        assert ledger.current() == 0
        assert ledger.peak() == 32

    def test_record_without_a_ledger_charges_its_own(self):
        x = Tensor.param(np.ones(4, dtype=np.float32))
        with ComputationRecord() as rec:
            loss = ops.sum_all(x)
            grads = backward(loss)
            assert rec.ledger.current("activations") == 4
            assert rec.ledger.current("gradients") == 16
        del loss, grads
        assert rec.ledger.current() == 0
        # the loss, its seed and x's gradient
        assert rec.ledger.peak() == 4 + 4 + 16

    def test_second_backward_raises_and_a_new_record_walks(self):
        x = Tensor.param(np.ones(2, dtype=np.float32))
        with ComputationRecord() as rec:
            backward(ops.sum_all(x))
            assert rec.walked
            with pytest.raises(StaleRecordError,
                               match="record already walked; open a new one"):
                backward(ops.sum_all(x))
        with ComputationRecord() as fresh:
            assert not fresh.walked
            grads = backward(ops.sum_all(x))
        np.testing.assert_array_equal(grads[x.tid], [1.0, 1.0])

    def test_reentered_record_frees_only_its_new_block(self):
        """Leaving a re-entered record's block frees what its new tape
        saved, not a gradient of its first block that is still held."""
        ledger = MemoryLedger()
        x = Tensor.param(np.ones(4, dtype=np.float32))
        rec = ComputationRecord(ledger)
        with rec:
            first = backward(ops.sum_all(x))
        assert ledger.current() == 16
        with rec:
            y = ops.gelu(x)
            assert ledger.current() == 16 + 16 + 16
        assert ledger.current() == 16 + 16
        del first, y
        assert ledger.current() == 0
        assert ledger.peak() == 48

    def test_ops_outside_a_record_hold_nothing(self):
        x = Tensor(np.ones(3), requires_grad=True)
        out = ops.relu(x)
        assert not out.requires_grad
        data = weakref.ref(out.data)
        del out
        assert data() is None
        with pytest.raises(NoRecordError):
            backward(ops.sum_all(x))

    def test_nested_record_raises_and_outer_stays_usable(self):
        ledger = MemoryLedger()
        x = Tensor.param(np.array([1.0, -1.0], dtype=np.float32))
        with ComputationRecord(ledger) as outer:
            ops.relu(x)
            with pytest.raises(NestedRecordError):
                with ComputationRecord(MemoryLedger()):
                    pass
            loss = ops.sum_all(ops.relu(x))
            grads = backward(loss)
            # both [2] relu outputs died with their consumers; the loss lives
            assert ledger.current("activations") == 4
            assert ledger.peak("activations") == 8 + 4
            # the walk consumed all three entries
            assert outer.entries == []
        np.testing.assert_array_equal(grads[x.tid], [1.0, 0.0])
        assert ledger.current() == 4 + 8
        # once the outer record is closed a new one may open
        with ComputationRecord():
            grads = backward(ops.sum_all(x))
        np.testing.assert_array_equal(grads[x.tid], [1.0, 1.0])


class TestSavedArrays:
    """Each primitive charges the arrays that its kept closure saves while
    the tape lives, and frees them when the record exits."""

    @staticmethod
    def _case(name):
        """(primitive, inputs needing a gradient, bytes its closure saves)
        in float32; int64 side inputs are caller-owned and not charged."""
        rng = np.random.default_rng(len(name))
        f32 = np.float32
        x = rng.normal(size=(6, 4)).astype(f32)
        return {
            "gelu": (ops.gelu, [x], 6 * 4 * 4),
            # xhat [6, 4] and inv [6, 1]
            "layer_norm": (ops.layer_norm, [x, np.ones(4, f32), np.zeros(4, f32)],
                           (6 * 4 + 6) * 4),
            # the weights, [heads, T, T]
            "scaled_dot_attention": (
                lambda q, k, v: ops.scaled_dot_attention(q, k, v, 2, 5),
                [x, x.copy(), x.copy()], 2 * 6 * 6 * 4),
            # the [4] argmax, int64
            "max_over_time": (ops.max_over_time, [x], 4 * 8),
            # the exponentials [6, 4] and their row sums [6, 1]
            "softmax_xent": (
                lambda t: ops.softmax_xent(t, targets=np.array([0, 3, 1, 2, 2, 0])),
                [x], (6 * 4 + 6) * 4),
            # its windows view its contiguous input, which is not its own
            "conv1d_valid": (
                lambda t, w, b: ops.conv1d_valid(t, w, b, limit=4),
                [x, rng.normal(size=(2, 4, 3)).astype(f32), np.zeros(3, f32)], 0),
            # it saves only its inputs
            "matmul": (ops.matmul, [x, rng.normal(size=(4, 2)).astype(f32)], 0),
        }[name]

    @pytest.mark.parametrize("name", ["gelu", "layer_norm", "scaled_dot_attention",
                                      "max_over_time", "softmax_xent",
                                      "conv1d_valid", "matmul"])
    def test_saved_while_the_tape_lives(self, name):
        fn, arrays, saved = self._case(name)
        inputs = [Tensor.param(a) for a in arrays]
        ledger = MemoryLedger()
        with ComputationRecord(ledger) as rec:
            out = fn(*inputs)
            assert len(rec.entries) == 1
            assert ledger.current("activations") == out.data.nbytes + saved
        assert ledger.current("activations") == out.data.nbytes
        del out
        assert ledger.current() == 0

    def test_a_frozen_primitive_saves_nothing(self):
        x = Tensor(np.ones((3, 4), dtype=np.float32))
        ledger = MemoryLedger()
        with ComputationRecord(ledger):
            out = ops.layer_norm(x, Tensor(np.ones(4, np.float32)),
                                 Tensor(np.zeros(4, np.float32)))
            assert ledger.current("activations") == out.data.nbytes

    def test_a_strided_conv_input_charges_its_copy(self):
        """A conv input that is not contiguous is copied, and that copy is
        what its windows view and its closure keeps."""
        x = Tensor.param(np.ones((4, 14), dtype=np.float32)[:, ::2])
        w = Tensor.param(np.ones((2, 7, 3), dtype=np.float32))
        b = Tensor.param(np.zeros(3, dtype=np.float32))
        ledger = MemoryLedger()
        with ComputationRecord(ledger):
            out = ops.conv1d_valid(x, w, b, limit=3)
            assert ledger.current("activations") == 3 * 3 * 4 + 4 * 7 * 4

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_zero_d_gelu(self, dtype):
        """A 0-d gelu saves its derivative as a 0-d array, which is
        charged, and its gradient is the derivative's value."""
        x = Tensor.param(np.asarray(0.3, dtype=dtype))
        ledger = MemoryLedger()
        with ComputationRecord(ledger):
            y = ops.gelu(x)
            size = np.dtype(dtype).itemsize
            assert ledger.current("activations") == 2 * size
            grads = backward(ops.sum_all(y))
        t = np.tanh(np.sqrt(2 / np.pi) * (0.3 + 0.044715 * 0.3 ** 3))
        want = 0.5 * (1 + t) + 0.5 * 0.3 * (1 - t * t) * np.sqrt(2 / np.pi) \
            * (1 + 3 * 0.044715 * 0.3 ** 2)
        assert grads[x.tid].shape == ()
        np.testing.assert_allclose(grads[x.tid], want, rtol=1e-6)
        del y, grads
        assert ledger.current() == 0


class TestTapeLiveness:
    """Inside an open record, a taped output lives only while a closure or a
    consumer holds it: the tape keeps ids and metadata, not tensors."""

    @staticmethod
    def _spy_outputs(monkeypatch, name, seen, on_input=False):
        """Wrap ``ops.<name>`` to keep a weakref to each output's (or first
        input's) array."""
        primitive = getattr(ops, name)

        def spy(*args, **kwargs):
            out = primitive(*args, **kwargs)
            seen.append(weakref.ref((args[0] if on_input else out).data))
            return out

        monkeypatch.setattr(ops, name, spy)

    def test_pooled_conv_outputs_die_with_the_head_forward(self, monkeypatch):
        """Each [n, f] conv output is gone once the head's forward returns:
        ``max_over_time`` saves only its argmax."""
        from febench.cnn import CnnHead, CnnHeadConfig
        seen = []
        self._spy_outputs(monkeypatch, "conv1d_valid", seen)
        head = CnnHead.build(CnnHeadConfig(hidden=8, classes=3, kernel_sizes=(2, 3),
                                           filters=4), seed=0)
        hidden = Tensor(np.random.default_rng(0).normal(size=(6, 8)).astype(np.float32))
        with ComputationRecord() as rec:
            logits = head.forward(hidden, 5)
            assert len(seen) == 2 and len(rec.entries) == 8
            assert all(ref() is None for ref in seen)
            grads = backward(ops.sum_all(logits))
        assert all(p.tid in grads for p in head.weights.tensors.values())

    def test_linear_output_feeding_gelu_dies(self, monkeypatch):
        """In a trainable encoder the feed-forward ``grow`` output is gone
        once the forward returns: ``gelu`` saves only its local derivative."""
        from febench.encoders import Encoder, EncoderConfig
        seen = []
        self._spy_outputs(monkeypatch, "gelu", seen, on_input=True)
        encoder = Encoder.build(EncoderConfig(kind="transformer", hidden=8,
                                              vocab_size=12, layers=2, heads=2,
                                              max_positions=10), seed=0)
        with ComputationRecord():
            hidden = encoder.forward(np.arange(6), 6)
            assert len(seen) == 2
            assert all(ref() is None for ref in seen)
            grads = backward(ops.sum_all(hidden))
        assert all(p.tid in grads for p in encoder.weights.tensors.values())

    def test_saved_operand_lives_until_its_entry_pops(self):
        """``matmul``'s closure saves its left operand, which lives until
        backward pops the entry; its output, of which ``add`` saves nothing,
        is gone once ``add`` returns."""
        x = Tensor.param(np.linspace(-1.0, 1.0, 6, dtype=np.float32).reshape(2, 3))
        w = Tensor.param(np.ones((3, 4), dtype=np.float32))
        bias = Tensor.param(np.zeros((2, 4), dtype=np.float32))
        alive_when_run = []
        with ComputationRecord() as rec:
            left = ops.relu(x)
            product = ops.matmul(left, w)
            out = ops.add(product, bias)
            saved, dead = weakref.ref(left.data), weakref.ref(product.data)
            del left, product
            assert saved() is not None and dead() is None

            def spy(g, inner=rec.entries[1].backward_fn):
                alive_when_run.append(saved() is not None)
                return inner(g)

            # only the entry may hold the spy, and with it the closure
            rec.entries[1].backward_fn = spy
            del spy
            grads = backward(ops.sum_all(out))
            assert alive_when_run == [True] and saved() is None
        np.testing.assert_array_equal(
            grads[w.tid], np.maximum(x.data, 0).T @ np.ones((2, 4), np.float32))
