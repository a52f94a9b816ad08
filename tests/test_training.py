"""Loss dispatch, Adam updates, training loops, and run aggregation."""

import numpy as np
import pytest

from febench import ComputationRecord, MemoryLedger, Tensor
from febench.cnn import CnnHead, CnnHeadConfig
from febench.cnn import expected_shapes as head_shapes
from febench.encoders import Encoder, EncoderConfig, init_weights
from febench.encoders import expected_shapes as encoder_shapes
from febench.profiling import TimingTrace
from febench.serialization import WeightSet
from febench.text import Dataset, LabeledExample, build_vocab
from febench.training import (AdamState, RunConfig, RunResult,
                              TrainingDivergedError, adam_step, aggregate_runs,
                              compute_loss, default_epochs, encode_examples,
                              evaluate, run_experiment, train, train_step)


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

    @pytest.mark.parametrize("field, value", [
        ("threshold", 0.0), ("threshold", 1.0), ("threshold", 1.5),
        ("max_len", 2)])
    def test_invalid_threshold_or_max_len(self, field, value):
        with pytest.raises(ValueError, match=field):
            RunConfig(mode="FE", epochs=1, **{field: value})


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

    def test_shape_mismatch(self):
        from febench import ShapeMismatchError
        p = Tensor.param(np.zeros(3))
        with pytest.raises(ShapeMismatchError):
            adam_step([p], {p.tid: np.zeros(4)}, AdamState(), lr=0.1)


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

    def test_empty_split_rejected(self):
        dataset = toy_dataset()
        empty = Dataset(name="toy", task_kind="single_label",
                        label_space=dataset.label_space, train=dataset.train,
                        test=())
        encoder, head, vocab = toy_model(11, dataset, classes=2)
        with pytest.raises(ValueError, match="non-empty"):
            train(toy_run_config(), empty, encoder, head, vocab)


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
        enc_weights = WeightSet(encoder_shapes(enc_cfg), {
            name: Tensor(np.ones(shape) if name.endswith("norm.scale")
                         else 0.2 * rng.normal(size=shape), requires_grad=True)
            for name, shape in encoder_shapes(enc_cfg).items()})
        head_weights = WeightSet(head_shapes(head_cfg), {
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


class TestEvaluate:
    def test_prediction_sets_shape(self):
        dataset = toy_dataset()
        encoder, head, vocab = toy_model(12, dataset, classes=2)
        ids, valid, _ = encode_examples(dataset.test, vocab, 12,
                                        dataset.label_space, "single_label")
        preds = evaluate(encoder, head, ids, valid, "single_label")
        assert len(preds) == len(dataset.test)
        assert all(len(p) == 1 for p in preds)

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
