"""Loss dispatch, Adam updates, training loops, and run aggregation."""

import tracemalloc
import warnings

import numpy as np
import pytest

from febench import ComputationRecord, MemoryLedger, Tensor, ops, tensor, training
from febench.bench.synth import SynthSpec, make_synthetic
from febench.cnn import CnnHead, CnnHeadConfig, predict
from febench.cnn import expected_shapes as head_shapes
from febench.encoders import Encoder, EncoderConfig
from febench.encoders import expected_shapes as encoder_shapes
from febench.profiling import TimingTrace
from febench.tensor import Factors, WeightSet
from febench.text import Dataset, LabeledExample, build_vocab
from febench.training import (ADAM_CHUNK, AdamState, RunConfig, RunResult,
                              TrainingDivergedError, adam_step, aggregate_runs,
                              compute_loss, default_epochs, encode_examples,
                              evaluate, run_experiment, train, train_step)
from helpers import trace_steps


def toy_dataset(task_kind="single_label"):
    if task_kind == "single_label":
        texts = [("red apple fruit", "a"), ("red berry fruit", "a"),
                 ("apple and pear", "a"), ("blue metal box", "b"),
                 ("blue steel girder", "b"), ("metal and iron", "b")]
        train = [LabeledExample(t, frozenset({l})) for t, l in texts * 2]
        test = [LabeledExample(t, frozenset({l})) for t, l in texts]
        return Dataset(name="toy", task_kind="single_label",
                       label_space=("a", "b"), train=tuple(train),
                       test=tuple(test))
    texts = [("red apple", {"a"}), ("blue box red apple", {"a", "b"}),
             ("blue box", {"b"}), ("green leaf blue box", {"b", "c"}),
             ("green leaf", {"c"}), ("red apple green leaf", {"a", "c"})]
    train = [LabeledExample(t, frozenset(s)) for t, s in texts * 2]
    test = [LabeledExample(t, frozenset(s)) for t, s in texts]
    return Dataset(name="toy-multi", task_kind="multi_label",
                   label_space=("a", "b", "c"), train=tuple(train),
                   test=tuple(test))


def toy_model(seed, dataset, classes):
    vocab = build_vocab([ex.text for ex in dataset.train], max_size=40)
    config = EncoderConfig(kind="transformer", hidden=8, vocab_size=vocab.size,
                           layers=1, heads=2, max_positions=16)
    encoder = Encoder.build(config, seed=[seed, 0])
    head = CnnHead.build(CnnHeadConfig(hidden=8, classes=classes,
                                       kernel_sizes=(2, 3), filters=4),
                         seed=[seed, 1])
    return encoder, head, vocab


def toy_run_config(**overrides):
    base = dict(mode="FE", epochs=2, batch_size=4, learning_rate=1e-3,
                seed=7, max_len=12)
    base.update(overrides)
    return RunConfig(**base)


class TestRunConfig:
    def test_mode_batch_defaults(self):
        assert RunConfig(mode="FE", epochs=1).batch_size == 50
        assert RunConfig(mode="FiT", epochs=1).batch_size == 40

    def test_invalid_mode(self):
        with pytest.raises(ValueError):
            RunConfig(mode="frozen", epochs=1)

    def test_invalid_learning_rate(self):
        with pytest.raises(ValueError):
            RunConfig(mode="FE", epochs=1, learning_rate=0.0)
        with pytest.raises(ValueError, match="finite"):
            RunConfig(mode="FE", epochs=1, learning_rate=float("inf"))

    @pytest.mark.parametrize("field, value", [
        ("threshold", 0.0), ("threshold", 1.0), ("threshold", 1.5),
        ("max_len", 2)])
    def test_invalid_threshold_or_max_len(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(mode="FE", epochs=1, **{field: value})

    @pytest.mark.parametrize("field, value", [
        ("epochs", 2.5), ("epochs", 2.0), ("epochs", "2"), ("epochs", True),
        ("batch_size", 4.5), ("batch_size", True), ("batch_size", False),
        ("max_len", 12.0), ("max_len", True)])
    def test_counts_must_be_integers(self, field, value):
        """A non-integer count fails at construction, not inside ``train``;
        a bool is not read as 1 or 0."""
        fields = dict(mode="FE", epochs=1)
        fields[field] = value
        with pytest.raises(ValueError, match=f"{field} must be an integer"):
            RunConfig(**fields)

    def test_numpy_integer_counts(self):
        config = RunConfig(mode="FE", epochs=np.int64(2),
                           batch_size=np.int32(4), max_len=np.int64(12))
        assert (config.epochs, config.batch_size, config.max_len) == (2, 4, 12)


class TestEpochDefaults:
    def test_known_corpus_pairs(self):
        assert default_epochs("AGNews", "FE") == 20
        assert default_epochs("AGNews", "FiT") == 10
        assert default_epochs("20NEWS", "FE") == 300
        assert default_epochs("Ohsumed", "FiT") == 80

    def test_unknown_corpus(self):
        assert default_epochs("mystery", "FE") is None


class TestComputeLoss:
    def test_uniform_single_label(self):
        logits = Tensor(np.zeros((1, 4)))
        with ComputationRecord():
            loss = compute_loss(logits, np.array([1]), "single_label")
        np.testing.assert_allclose(float(loss.data), np.log(4.0), rtol=1e-6)

    def test_zero_logit_multi_label(self):
        logits = Tensor(np.zeros((1, 1)))
        with ComputationRecord():
            loss = compute_loss(logits, np.array([[1.0]]), "multi_label")
        np.testing.assert_allclose(float(loss.data), np.log(2.0), rtol=1e-6)

    def test_loss_decreases_with_margin(self):
        values = []
        for margin in (0.0, 1.0, 4.0, 16.0):
            logits = Tensor(np.array([[margin, 0.0]]))
            with ComputationRecord():
                loss = compute_loss(logits, np.array([0]), "single_label")
            values.append(float(loss.data))
        assert values == sorted(values, reverse=True)
        assert values[-1] < 1e-6

    def test_unknown_task(self):
        with pytest.raises(ValueError):
            compute_loss(Tensor(np.zeros((1, 2))), np.array([0]), "ranking")


class TestAdam:
    def test_zero_gradient_leaves_parameters(self):
        p = Tensor.param(np.array([1.0, 2.0]))
        state = AdamState()
        adam_step([p], {p.tid: np.zeros(2)}, state, lr=0.1)
        np.testing.assert_array_equal(p.data, [1.0, 2.0])

    def test_first_step_hand_value(self):
        """w=1, g=1: bias correction gives m_hat = v_hat = 1, so the step is
        lr / (1 + eps)."""
        p = Tensor.param(np.array(1.0, dtype=np.float64))
        state = AdamState()
        adam_step([p], {p.tid: np.array(1.0)}, state, lr=5e-5)
        expected = 1.0 - 5e-5 * (1.0 / (1.0 + 1e-8))
        np.testing.assert_allclose(float(p.data), expected, atol=1e-15)

    def test_second_step_hand_value(self):
        """Momentum carries a step through a zero gradient; the exact size
        follows from the bias-corrected moment recursions at t=2."""
        p = Tensor.param(np.array(1.0, dtype=np.float64))
        state = AdamState()
        adam_step([p], {p.tid: np.array(1.0)}, state, lr=1e-3)
        w1 = 1.0 - 1e-3 * (1.0 / (1.0 + 1e-8))
        adam_step([p], {p.tid: np.array(0.0)}, state, lr=1e-3)
        m_hat = (0.9 * 0.1) / (1.0 - 0.9 ** 2)
        v_hat = (0.999 * 0.001) / (1.0 - 0.999 ** 2)
        expected = w1 - 1e-3 * m_hat / (np.sqrt(v_hat) + 1e-8)
        assert state.t == 2
        np.testing.assert_allclose(float(p.data), expected, atol=1e-15)

    def test_absent_parameters_untouched_and_stateless(self):
        live = Tensor.param(np.array([1.0]))
        frozen = Tensor(np.array([5.0]), requires_grad=False)
        ledger = MemoryLedger()
        state = AdamState(ledger=ledger)
        adam_step([live, frozen], {live.tid: np.array([0.5])}, state, lr=0.1)
        np.testing.assert_array_equal(frozen.data, [5.0])
        assert frozen.tid not in state.m
        assert ledger.current("optimizer_state") == 2 * live.data.nbytes

    def test_state_without_a_ledger_charges_its_own(self):
        p = Tensor.param(np.zeros(3, dtype=np.float32))
        state = AdamState()
        adam_step([p], {p.tid: np.ones(3, dtype=np.float32)}, state, lr=0.1)
        assert state.ledger.current("optimizer_state") == 2 * 12
        assert AdamState().ledger is not state.ledger

    def test_shape_mismatch(self):
        from febench import ShapeMismatchError
        p = Tensor.param(np.zeros(3))
        with pytest.raises(ShapeMismatchError):
            adam_step([p], {p.tid: np.zeros(4)}, AdamState(), lr=0.1)

    def test_bad_gradient_changes_nothing(self):
        """A wrong-shaped gradient for the second parameter raises before the
        first parameter, its moments or the step counter move, and before
        the second parameter gets moments."""
        from febench import ShapeMismatchError
        first = Tensor.param(np.array([1.0, 2.0]))
        second = Tensor.param(np.array([3.0, 4.0, 5.0]))
        state = AdamState()
        adam_step([first], {first.tid: np.array([0.5, -0.5])}, state, lr=0.1)
        before = [first.data.copy(), second.data.copy(),
                  state.m[first.tid].copy(), state.v[first.tid].copy()]
        with pytest.raises(ShapeMismatchError):
            adam_step([first, second], {first.tid: np.array([1.0, 1.0]),
                                        second.tid: np.zeros(2)}, state, lr=0.1)
        after = [first.data, second.data, state.m[first.tid],
                 state.v[first.tid]]
        for old, new in zip(before, after):
            np.testing.assert_array_equal(new, old)
        assert state.t == 1
        assert second.tid not in state.m and second.tid not in state.v

    def test_non_contiguous_parameter_raises(self):
        p = Tensor.param(np.zeros((3, 2)).T)
        with pytest.raises(ValueError, match="C-contiguous"):
            adam_step([p], {p.tid: np.ones((2, 3))}, AdamState(), lr=0.1)

    @pytest.mark.parametrize("param_dtype, grad_dtype", [
        (np.float32, np.float32), (np.float64, np.float64),
        (np.float32, np.float64), (np.float64, np.float32)])
    def test_bit_identical_to_the_whole_array_update(self, param_dtype,
                                                      grad_dtype):
        """Three steps, the second with zero gradients, over a 0-d, a 1-d, a
        2-d and a 2-d parameter spanning two full chunks and a ragged one
        give the same parameters and moments, bit for bit, as the update on
        whole arrays it replaced."""
        rng = np.random.default_rng(3)
        shapes = [(), (7,), (5, 3), (5, ADAM_CHUNK // 2 + 3)]
        assert 2 * ADAM_CHUNK < np.prod(shapes[-1]) < 3 * ADAM_CHUNK
        inits = [rng.normal(size=shape).astype(param_dtype) for shape in shapes]
        params = [Tensor.param(x.copy()) for x in inits]
        ref_params = [x.copy() for x in inits]
        ref_m = [np.zeros_like(x) for x in inits]
        ref_v = [np.zeros_like(x) for x in inits]
        state = AdamState()
        for step in range(3):
            grads = [(rng.normal(size=shape) * 10.0 ** rng.integers(-6, 2))
                     .astype(grad_dtype) * (step != 1) for shape in shapes]
            adam_step(params, {p.tid: g for p, g in zip(params, grads)},
                      state, lr=1e-3)
            correct1 = 1.0 - 0.9 ** state.t
            correct2 = 1.0 - 0.999 ** state.t
            for p, m, v, grad in zip(ref_params, ref_m, ref_v, grads):
                m += (1.0 - 0.9) * (grad - m)
                v += (1.0 - 0.999) * (grad * grad - v)
                p -= 1e-3 * (m / correct1) / (np.sqrt(v / correct2) + 1e-8)
        for param, p, m, v in zip(params, ref_params, ref_m, ref_v):
            np.testing.assert_array_equal(param.data, p)
            np.testing.assert_array_equal(state.m[param.tid], m)
            np.testing.assert_array_equal(state.v[param.tid], v)
            assert param.data.dtype == p.dtype

    def test_update_holds_only_its_two_chunk_buffers(self):
        """The second update of a [3000, 768] float32 parameter (moments
        already exist) traces at most two float32 chunk buffers plus 16 KiB
        for Python objects above its entry.  The update on whole arrays
        traced five times the parameter, 46.1 MB."""
        rng = np.random.default_rng(0)
        p = Tensor.param(rng.normal(size=(3000, 768)).astype(np.float32))
        grad = rng.normal(size=(3000, 768)).astype(np.float32)
        state = AdamState()
        adam_step([p], {p.tid: grad}, state, lr=1e-3)
        tracemalloc.start()
        try:
            entry = tracemalloc.get_traced_memory()[0]
            adam_step([p], {p.tid: grad}, state, lr=1e-3)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - entry <= 2 * ADAM_CHUNK * 4 + 16 * 1024

    @pytest.mark.parametrize("size", [15, ADAM_CHUNK + 5])
    def test_scratch_is_charged_while_the_update_runs(self, size):
        """Inside a record the two scratch buffers, of at most
        ``ADAM_CHUNK`` elements, are charged as optimizer state after the
        moments and freed when the update returns; outside one only the
        moments are."""
        p = Tensor.param(np.ones(size, dtype=np.float32))
        grads = {p.tid: np.ones(size, dtype=np.float32)}
        moments = 2 * size * 4
        scratch = 2 * min(size, ADAM_CHUNK) * 4
        ledger = MemoryLedger()
        with ComputationRecord(ledger):
            adam_step([p], grads, AdamState(ledger=ledger), lr=1e-3)
            assert ledger.current("optimizer_state") == moments
        assert ledger.peak("optimizer_state") == moments + scratch
        outside = MemoryLedger()
        adam_step([p], grads, AdamState(ledger=outside), lr=1e-3)
        assert outside.peak("optimizer_state") == moments


class TestEncodeExamples:
    def test_single_label_targets_follow_label_space_order(self):
        examples = [LabeledExample("one", frozenset({"b"})),
                    LabeledExample("two", frozenset({"a"}))]
        vocab = build_vocab(["one two"], max_size=10)
        ids, valid, targets = encode_examples(examples, vocab, 8, ("a", "b"),
                                              "single_label")
        assert ids.shape == (2, 8)
        np.testing.assert_array_equal(valid, [3, 3])
        np.testing.assert_array_equal(targets, [1, 0])

    def test_multi_hot_targets(self):
        examples = [LabeledExample("x", frozenset({"a", "c"}))]
        vocab = build_vocab(["x"], max_size=10)
        _, _, targets = encode_examples(examples, vocab, 8, ("a", "b", "c"),
                                        "multi_label")
        np.testing.assert_array_equal(targets, [[1.0, 0.0, 1.0]])


class TestTrain:
    def test_deterministic_given_seed(self):
        dataset = toy_dataset()
        results = []
        for _ in range(2):
            encoder, head, vocab = toy_model(3, dataset, classes=2)
            results.append(train(toy_run_config(), dataset, encoder, head, vocab))
        a, b = results
        assert a.train_losses == b.train_losses
        assert a.epoch_metrics == b.epoch_metrics
        assert a.peak_bytes == b.peak_bytes

    def test_fe_freezes_encoder_bytes(self):
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(4, dataset, classes=2)
        before = encoder.weights.byte_image()
        head_before = np.copy(head.weights.tensors["projection.weight"].data)
        train(toy_run_config(mode="FE"), dataset, encoder, head, vocab)
        assert encoder.weights.byte_image() == before
        assert np.any(head.weights.tensors["projection.weight"].data
                      != head_before)

    def test_fit_updates_encoder_bytes(self):
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(4, dataset, classes=2)
        before = encoder.weights.byte_image()
        train(toy_run_config(mode="FiT"), dataset, encoder, head, vocab)
        assert encoder.weights.byte_image() != before

    def test_fe_ledger_shows_no_encoder_gradient_or_state_bytes(self):
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(5, dataset, classes=2)
        result = train(toy_run_config(mode="FE"), dataset, encoder, head, vocab)
        ledger = result.ledger
        assert ledger.group_peak("gradients", "encoder") == 0
        assert ledger.group_peak("optimizer_state", "encoder") == 0
        assert ledger.group_peak("gradients", "head") > 0
        assert ledger.group_peak("optimizer_state", "head") > 0

    def test_optimizer_state_bytes_track_trainable_parameters(self):
        dataset = toy_dataset()
        for mode in ("FE", "FiT"):
            encoder, head, vocab = toy_model(6, dataset, classes=2)
            result = train(toy_run_config(mode=mode), dataset, encoder, head,
                           vocab)
            head_bytes = sum(t.data.nbytes
                             for t in head.weights.tensors.values())
            encoder_bytes = sum(t.data.nbytes
                                for t in encoder.weights.tensors.values())
            expected = 2 * head_bytes
            if mode == "FiT":
                expected += 2 * encoder_bytes
            assert result.ledger.current("optimizer_state") == expected

    @pytest.mark.parametrize("mode", ["FE", "FiT"])
    def test_step_leaves_no_activation_or_gradient_bytes(self, mode):
        """Every output, saved array and gradient of a step dies once
        ``train_step`` returns, so the ledger holds only parameters and
        optimizer state between steps."""
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(3, dataset, classes=2)
        encoder.set_trainable(mode == "FiT")
        params = [t for w in (encoder.weights, head.weights)
                  for t in w.tensors.values() if t.requires_grad]
        ids, valid, targets = encode_examples(dataset.train, vocab, 12,
                                              dataset.label_space,
                                              "single_label")
        ledger = MemoryLedger()
        state = AdamState(ledger=ledger)
        for _ in range(2):
            train_step(encoder, head, params, state, ids, valid, targets,
                       "single_label", 1e-3)
            assert ledger.current("activations") == 0
            assert ledger.current("gradients") == 0
        assert ledger.current() == ledger.current("optimizer_state") > 0
        assert ledger.peak("activations") > 0 and ledger.peak("gradients") > 0

    def test_same_seed_runs_give_identical_ledgers(self):
        """The ledger charges by reference counting, not by gc timing, so
        two runs of one seed at the ``tiny`` preset's shapes read the same
        peak and the same make-up, to the byte."""
        dataset = make_synthetic(SynthSpec(classes=2, train_docs=24,
                                           test_docs=4, vocab=30, doc_len=12,
                                           seed=1))
        vocab = build_vocab([ex.text for ex in dataset.train], max_size=100)
        ledgers = []
        for _ in range(2):
            encoder = Encoder.from_preset("tiny", vocab.size, seed=[2, 0])
            head = CnnHead.build(CnnHeadConfig(hidden=128, classes=2),
                                 seed=[2, 1])
            result = train(RunConfig(mode="FiT", epochs=1, batch_size=8,
                                     max_len=16, seed=2),
                           dataset, encoder, head, vocab)
            ledgers.append((result.peak_bytes, result.ledger.breakdown()))
        assert ledgers[0] == ledgers[1]
        assert sum(ledgers[0][1]["at_peak"].values()) == ledgers[0][0]

    def test_fit_peak_exceeds_fe_peak(self):
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(7, dataset, classes=2)
        fe = train(toy_run_config(mode="FE"), dataset, encoder, head, vocab)
        encoder, head, vocab = toy_model(7, dataset, classes=2)
        fit = train(toy_run_config(mode="FiT"), dataset, encoder, head, vocab)
        assert fit.peak_bytes > fe.peak_bytes

    def test_multi_label_run_reports_prf(self):
        dataset = toy_dataset("multi_label")
        encoder, head, vocab = toy_model(8, dataset, classes=3)
        result = train(toy_run_config(), dataset, encoder, head, vocab)
        assert set(result.final_metrics) == {"precision", "recall", "f1"}

    def test_result_invariants(self):
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(9, dataset, classes=2)
        config = toy_run_config(epochs=3)
        result = train(config, dataset, encoder, head, vocab)
        assert len(result.train_losses) == 3
        assert len(result.epoch_metrics) == 3
        assert all(t > 0 for t in result.timing.epoch_seconds)
        assert result.timing.total_seconds >= sum(result.timing.epoch_seconds)
        assert result.final_metrics == result.epoch_metrics[-1]

    def test_divergence_names_epoch_and_batch(self):
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(10, dataset, classes=2)
        head.weights.tensors["projection.bias"].data[:] = np.nan
        with pytest.raises(TrainingDivergedError, match="epoch 0, batch 0"):
            train(toy_run_config(), dataset, encoder, head, vocab)

    @pytest.mark.parametrize("mode", ["FE", "FiT"])
    def test_divergence_on_the_last_update_fails(self, mode):
        """One batch at a learning rate of 1e30: its loss comes before the
        update and is finite, and the weights stay finite (about 1e30), but
        the evaluation that follows gets non-finite logits.  The run raises
        and numpy warns of nothing."""
        dataset = make_synthetic(SynthSpec(classes=2, train_docs=16,
                                           test_docs=8, vocab=15, doc_len=8,
                                           seed=6, name="kw"))
        vocab = build_vocab([ex.text for ex in dataset.train], max_size=100)
        encoder = Encoder.from_preset("static", vocab.size, seed=[0, 0],
                                      frozen=mode == "FE")
        head = CnnHead.build(CnnHeadConfig(hidden=encoder.config.hidden,
                                           classes=2, kernel_sizes=(2, 3),
                                           filters=4), seed=[0, 1])
        config = RunConfig(mode=mode, epochs=1, batch_size=50,
                           learning_rate=1e30, max_len=12)
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            with pytest.raises(TrainingDivergedError) as raised:
                train(config, dataset, encoder, head, vocab)
        assert str(raised.value) == \
            "non-finite evaluation logits at epoch 0"
        assert (raised.value.epoch, raised.value.batch) == (0, None)
        assert all(np.isfinite(t.data).all() for part in (encoder, head)
                   for t in part.weights.tensors.values())
        assert [w for w in caught if w.category is RuntimeWarning] == []

    def test_empty_split_rejected(self):
        dataset = toy_dataset()
        empty = Dataset(name="toy", task_kind="single_label",
                        label_space=dataset.label_space, train=dataset.train,
                        test=())
        encoder, head, vocab = toy_model(11, dataset, classes=2)
        with pytest.raises(ValueError, match="non-empty"):
            train(toy_run_config(), empty, encoder, head, vocab)


class TestProjectionGradient:
    def test_batch_one_step_reduces_its_single_factor_exactly(self, monkeypatch):
        """In a batch-1 step the head's projection weight gets one stacked
        factor, and the walk reduces it to exactly ``a.T @ g``."""
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(5, dataset, classes=2)
        encoder.set_trainable(False)
        ids, valid, targets = encode_examples(
            dataset.train[:1], vocab, 12, dataset.label_space, "single_label")
        weight = head.weights.tensors["projection.weight"]
        factors, got = [], {}
        linear = ops.linear

        def spied(x, w, b):
            out = linear(x, w, b)
            if w is weight:
                entry = tensor.current_record().entries[-1]
                inner = entry.backward_fn

                def logged(g):
                    grads = inner(g)
                    factors.append(grads[1])
                    return grads

                entry.backward_fn = logged
            return out

        monkeypatch.setattr(ops, "linear", spied)
        monkeypatch.setattr(training, "adam_step",
                            lambda params, grads, state, lr: got.update(grads))
        train_step(encoder, head, list(head.weights.tensors.values()),
                   AdamState(), ids, valid, targets, "single_label", lr=1e-3)
        (factor,) = factors
        assert type(factor) is Factors and factor.a.shape[0] == 1
        assert got[weight.tid].tobytes() == (factor.a.T @ factor.g).tobytes()


class TestSingleStepDescent:
    @pytest.mark.parametrize("seed", range(20))
    def test_one_small_step_reduces_single_example_loss(self, seed):
        """A tiny Adam step on one example must strictly reduce its loss.

        Double precision throughout so a 1e-6-scale step stays resolvable.
        """
        rng = np.random.default_rng([seed, 55])
        enc_cfg = EncoderConfig(kind="transformer", hidden=8, vocab_size=10,
                                layers=1, heads=2, max_positions=12)
        head_cfg = CnnHeadConfig(hidden=8, classes=2, kernel_sizes=(2, 3),
                                 filters=3)
        enc_weights = WeightSet({
            name: Tensor(np.ones(shape) if name.endswith("norm.scale")
                         else 0.2 * rng.normal(size=shape), requires_grad=True)
            for name, shape in encoder_shapes(enc_cfg).items()})
        head_weights = WeightSet({
            name: Tensor(0.2 * rng.normal(size=shape), requires_grad=True)
            for name, shape in head_shapes(head_cfg).items()})
        encoder = Encoder(enc_cfg, enc_weights)
        head = CnnHead(head_cfg, head_weights)
        ids = rng.integers(0, 10, size=(1, 9))
        valid = np.array([7])
        target = np.array([int(rng.integers(0, 2))])
        params = list(enc_weights.tensors.values()) + \
            list(head_weights.tensors.values())

        def current_loss():
            from febench.training import forward_batch
            logits = forward_batch(encoder, head, ids, valid)
            return float(compute_loss(logits, target, "single_label").data)

        before = current_loss()
        train_step(encoder, head, params, AdamState(), ids, valid, target,
                   "single_label", lr=1e-6)
        after = current_loss()
        assert after < before


class TestTracedStep:
    def test_fit_step_holds_almost_nothing_once_backward_returns(self):
        """``tiny`` FiT, 4 documents of 16 tokens: once ``backward`` has
        returned, the step holds under 10% of the bytes traced at the end of
        the forward pass, not counting the returned gradients.  The walk has
        freed the tape, the closures' saved arrays and every intermediate
        gradient; the logits and the loss remain."""
        rng = np.random.default_rng(0)
        encoder = Encoder.from_preset("tiny", vocab_size=200, seed=[0, 0])
        head = CnnHead.build(CnnHeadConfig(hidden=128, classes=4), seed=[0, 1])
        ids = rng.integers(4, 200, size=(4, 16))
        traced = trace_steps(encoder, head, ids, np.full(4, 16),
                             rng.integers(0, 4, size=4), steps=1)
        assert traced.held < 0.1 * traced.forward
        assert training.backward is tensor.backward

    @staticmethod
    def _step_peaks(preset, mode, batch, t_len):
        """(ledger, traced) step peaks of two steps at one grid cell: the
        ledger's peak less the parameters, and the traced peak; both
        include the optimizer state."""
        rng = np.random.default_rng(0)
        encoder = Encoder.from_preset(preset, vocab_size=200, seed=[0, 0],
                                      frozen=mode == "FE")
        head = CnnHead.build(CnnHeadConfig(hidden=128, classes=4), seed=[0, 1])
        ids = rng.integers(4, 200, size=(batch, t_len))
        traced = trace_steps(encoder, head, ids, np.full(batch, t_len),
                             rng.integers(0, 4, size=batch))
        ledger = traced.ledger
        return ledger.peak() - ledger.peak("parameters"), traced.peak

    @pytest.mark.parametrize("batch, t_len", [(16, 32), (32, 16)])
    @pytest.mark.parametrize("mode", ["FE", "FiT"])
    @pytest.mark.parametrize("preset", ["static", "tiny", "L-12"])
    def test_ledger_step_peak_covers_the_traced_one(self, preset, mode,
                                                     batch, t_len):
        """The ledger's step peak covers at least 0.7x of the traced step
        peak and never exceeds it.

        The ledger charges each buffer that the step creates while it lives,
        as the process holds it.  The remainder is what it does not charge:
        numpy temporaries inside a primitive (gelu's and layer_norm's
        intermediates, the conv's contiguous window copy, a closure's
        products before it returns them), the walk's stacked factor copies,
        a gradient that a slot adds in but does not keep, the small index
        arrays that closures save, and Python objects.  On this grid the
        ledger reads 0.84-0.96x of the traced peak, ``static`` and FE the
        least, where the head's temporaries weigh most."""
        ledger, traced = self._step_peaks(preset, mode, batch, t_len)
        assert 0.7 * traced <= ledger <= traced

    @pytest.mark.parametrize("preset, batch", [("tiny", 50), ("L-12", 40)])
    def test_fe_fit_ratio_matches_the_physical_one(self, preset, batch):
        """At T 16 the ledger's FE/FiT step-peak ratio is within 0.04 of the
        traced one (0.18 against 0.20 on ``tiny``, 0.042 against 0.047 on
        ``L-12``), so it measures the paper's frozen-encoder memory saving."""
        fe = self._step_peaks(preset, "FE", batch, 16)
        fit = self._step_peaks(preset, "FiT", batch, 16)
        assert abs(fe[0] / fit[0] - fe[1] / fit[1]) <= 0.04


class TestEvaluate:
    def test_prediction_sets_shape(self):
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(12, dataset, classes=2)
        ids, valid, _ = encode_examples(dataset.test, vocab, 12,
                                        dataset.label_space, "single_label")
        logits, preds = evaluate(encoder, head, ids, valid, "single_label",
                                 0.5)
        assert logits.shape == (len(dataset.test), 2)
        assert len(preds) == len(dataset.test)
        assert all(len(p) == 1 for p in preds)

    @pytest.mark.parametrize("mode", ["FE", "FiT"])
    @pytest.mark.parametrize("task_kind", ["single_label", "multi_label"])
    def test_matches_one_document_at_a_time(self, task_kind, mode):
        """The label sets equal those predicted from each document's own
        encoder and head pass, the per-document reference."""
        dataset = toy_dataset(task_kind)
        encoder, head, vocab = toy_model(6, dataset,
                                         classes=len(dataset.label_space))
        encoder.set_trainable(mode == "FiT")
        ids, valid, _ = encode_examples(dataset.test, vocab, 12,
                                        dataset.label_space, task_kind)
        want = [predict(head.forward(encoder.forward(doc, int(n)), int(n)),
                        task_kind, 0.5)
                for doc, n in zip(ids, valid)]
        assert len({frozenset(p) for p in want}) > 1
        assert evaluate(encoder, head, ids, valid, task_kind, 0.5)[1] == want

    @pytest.mark.parametrize("mode", ["FE", "FiT"])
    def test_tapes_and_charges_nothing(self, monkeypatch, mode):
        """Inside train(), evaluation opens no record: no tape entry is
        appended and no ledger byte is charged or freed while it runs."""
        import febench.training as training
        seen, inside = [], [False]

        def spy(name, method):
            def wrapped(*args, **kwargs):
                if inside[0]:
                    seen.append(name)
                return method(*args, **kwargs)
            return wrapped

        for owner, name in ((ComputationRecord, "append"),
                            (ComputationRecord, "__enter__"),
                            (MemoryLedger, "record_alloc"),
                            (MemoryLedger, "record_free")):
            monkeypatch.setattr(owner, name, spy(name, getattr(owner, name)))
        real_evaluate = training.evaluate

        def watched(*args, **kwargs):
            inside[0] = True
            try:
                return real_evaluate(*args, **kwargs)
            finally:
                inside[0] = False

        monkeypatch.setattr(training, "evaluate", watched)
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(3, dataset, classes=2)
        result = train(toy_run_config(mode=mode, epochs=1), dataset, encoder,
                       head, vocab)
        assert seen == []
        assert len(result.epoch_metrics) == 1


class TestAggregation:
    @staticmethod
    def _stub_run(value, seed=0):
        return RunResult(mode="FE", seed=seed, train_losses=[1.0],
                         epoch_metrics=[{"accuracy": value}],
                         final_metrics={"accuracy": value},
                         timing=TimingTrace(epoch_seconds=[0.5],
                                            total_seconds=0.6),
                         peak_bytes=1000, ledger=None)

    def test_forced_metrics_mean_and_population_std(self):
        agg = aggregate_runs([self._stub_run(v, seed)
                              for seed, v in enumerate((1.0, 2.0, 3.0))])
        assert agg["metrics"]["accuracy"]["mean"] == 2.0
        assert agg["metrics"]["accuracy"]["std"] == pytest.approx(0.8165,
                                                                  abs=1e-4)
        assert agg["seeds"] == [0, 1, 2]

    def test_identical_metrics_zero_std(self):
        agg = aggregate_runs([self._stub_run(0.5)] * 3)
        assert agg["metrics"]["accuracy"]["std"] == 0.0

    def test_single_run_zero_std(self):
        agg = aggregate_runs([self._stub_run(0.9, seed=4)])
        assert agg == {"metrics": {"accuracy": {"mean": 0.9, "std": 0.0}},
                       "seeds": [4], "epoch_seconds": [0.5],
                       "total_seconds": 0.6, "peak_bytes": 1000.0}

    def test_run_experiment_trains_once_per_seed_in_order(self, monkeypatch):
        import febench.training as training
        dataset = toy_dataset()
        built, trained = [], []
        real_train = training.train

        def make_model(seed):
            built.append(seed)
            return toy_model(seed, dataset, classes=2)

        def counted(config, *args):
            trained.append(config.seed)
            return real_train(config, *args)

        monkeypatch.setattr(training, "train", counted)
        agg = run_experiment(toy_run_config(seed=20, epochs=1), dataset,
                             make_model, seeds=[21, 20])
        assert built == trained == [21, 20]
        assert agg["seeds"] == [21, 20]
        assert len(agg["epoch_seconds"]) == 1

    def test_run_experiment_rejects_zero_repeats(self):
        with pytest.raises(ValueError):
            run_experiment(toy_run_config(), toy_dataset(), lambda s: None,
                           seeds=[])
