"""Unit tests for the numpy edge-DNN substrate (layers, MLP, trainer, iCaRL)."""

import numpy as np
import pytest

from repro.configs import RetrainingConfig
from repro.exceptions import ModelError
from repro.models import (
    DenseLayer,
    EdgeModelSpec,
    ExemplarReplayLearner,
    ExemplarSet,
    MLPClassifier,
    Trainer,
    create_edge_model,
    cross_entropy_gradient,
    cross_entropy_loss,
    softmax,
    training_gpu_seconds,
)


class TestLayers:
    def test_forward_shape(self):
        layer = DenseLayer(4, 3, seed=0)
        output = layer.forward(np.zeros((5, 4)))
        assert output.shape == (5, 3)

    def test_forward_rejects_bad_shape(self):
        layer = DenseLayer(4, 3, seed=0)
        with pytest.raises(ModelError):
            layer.forward(np.zeros((5, 2)))

    def test_relu_nonnegative(self):
        layer = DenseLayer(4, 3, activation="relu", seed=0)
        output = layer.forward(np.random.default_rng(0).normal(size=(10, 4)))
        assert np.all(output >= 0)

    def test_backward_requires_training_forward(self):
        layer = DenseLayer(4, 3, seed=0)
        layer.forward(np.zeros((2, 4)), training=False)
        with pytest.raises(ModelError):
            layer.backward(np.zeros((2, 3)), learning_rate=0.1)

    def test_backward_updates_weights(self):
        layer = DenseLayer(4, 3, activation="linear", seed=0)
        inputs = np.random.default_rng(0).normal(size=(8, 4))
        before = layer.weights.copy()
        layer.forward(inputs, training=True)
        layer.backward(np.ones((8, 3)), learning_rate=0.1)
        assert not np.allclose(before, layer.weights)

    def test_frozen_layer_does_not_update(self):
        layer = DenseLayer(4, 3, activation="linear", seed=0)
        layer.frozen = True
        inputs = np.random.default_rng(0).normal(size=(8, 4))
        before = layer.weights.copy()
        layer.forward(inputs, training=True)
        layer.backward(np.ones((8, 3)), learning_rate=0.1)
        assert np.allclose(before, layer.weights)

    def test_state_roundtrip(self):
        layer = DenseLayer(4, 3, seed=0)
        state = layer.get_state()
        layer.weights += 1.0
        layer.set_state(state)
        assert np.allclose(layer.weights, state[0])

    def test_state_shape_mismatch(self):
        layer = DenseLayer(4, 3, seed=0)
        with pytest.raises(ModelError):
            layer.set_state((np.zeros((2, 2)), np.zeros(2)))

    def test_invalid_activation(self):
        with pytest.raises(ModelError):
            DenseLayer(4, 3, activation="tanh")

    def test_softmax_rows_sum_to_one(self):
        probabilities = softmax(np.random.default_rng(0).normal(size=(6, 4)))
        assert np.allclose(probabilities.sum(axis=1), 1.0)

    def test_cross_entropy_perfect_prediction_near_zero(self):
        probabilities = np.array([[0.999, 0.001], [0.001, 0.999]])
        assert cross_entropy_loss(probabilities, np.array([0, 1])) < 0.01

    def test_cross_entropy_gradient_shape(self):
        probabilities = softmax(np.random.default_rng(0).normal(size=(5, 3)))
        grad = cross_entropy_gradient(probabilities, np.array([0, 1, 2, 0, 1]))
        assert grad.shape == (5, 3)


class TestMLPClassifier:
    def _toy_problem(self, n=200, seed=0):
        rng = np.random.default_rng(seed)
        centers = np.array([[2.0, 0.0], [-2.0, 0.0], [0.0, 2.5]])
        labels = rng.integers(0, 3, size=n)
        features = centers[labels] + rng.normal(0, 0.6, size=(n, 2))
        return features, labels

    def test_predict_shapes(self):
        model = MLPClassifier(2, 3, hidden_sizes=(8,), seed=0)
        features, _ = self._toy_problem(20)
        assert model.predict(features).shape == (20,)
        assert model.predict_proba(features).shape == (20, 3)

    def test_predict_proba_sums_to_one(self):
        model = MLPClassifier(2, 3, hidden_sizes=(8,), seed=0)
        features, _ = self._toy_problem(20)
        assert np.allclose(model.predict_proba(features).sum(axis=1), 1.0)

    def test_training_improves_accuracy(self):
        model = MLPClassifier(2, 3, hidden_sizes=(16,), seed=0)
        features, labels = self._toy_problem(300)
        before = model.accuracy(features, labels)
        for _ in range(20):
            model.train_epoch(features, labels)
        after = model.accuracy(features, labels)
        assert after > before
        assert after > 0.85

    def test_loss_decreases_during_training(self):
        model = MLPClassifier(2, 3, hidden_sizes=(16,), seed=0)
        features, labels = self._toy_problem(300)
        losses = [model.train_epoch(features, labels) for _ in range(10)]
        assert losses[-1] < losses[0]

    def test_freezing_all_but_head(self):
        model = MLPClassifier(4, 3, hidden_sizes=(8, 8), seed=0)
        trainable = model.set_trainable_fraction(0.34)
        assert trainable == 1
        assert model.layers[0].frozen and model.layers[1].frozen
        assert not model.layers[-1].frozen

    def test_invalid_fraction(self):
        model = MLPClassifier(4, 3, seed=0)
        with pytest.raises(ModelError):
            model.set_trainable_fraction(0.0)

    def test_accuracy_empty_is_zero(self):
        model = MLPClassifier(2, 3, seed=0)
        assert model.accuracy(np.empty((0, 2)), np.empty((0,), dtype=int)) == 0.0

    def test_train_epoch_validates_input(self):
        model = MLPClassifier(2, 3, seed=0)
        with pytest.raises(ModelError):
            model.train_epoch(np.zeros((3, 2)), np.zeros(2, dtype=int))
        with pytest.raises(ModelError):
            model.train_epoch(np.zeros((0, 2)), np.zeros(0, dtype=int))

    def test_state_roundtrip_preserves_predictions(self):
        model = MLPClassifier(2, 3, hidden_sizes=(8,), seed=0)
        features, labels = self._toy_problem(100)
        for _ in range(5):
            model.train_epoch(features, labels)
        state = model.get_state()
        reference = model.predict_proba(features)
        for _ in range(5):
            model.train_epoch(features, labels)
        model.set_state(state)
        assert np.allclose(model.predict_proba(features), reference)

    def test_clone_is_independent(self):
        model = MLPClassifier(2, 3, hidden_sizes=(8,), seed=0)
        features, labels = self._toy_problem(100)
        clone = model.clone()
        for _ in range(5):
            model.train_epoch(features, labels)
        assert not np.allclose(
            clone.layers[0].weights, model.layers[0].weights
        )

    def test_invalid_construction(self):
        with pytest.raises(ModelError):
            MLPClassifier(0, 3)
        with pytest.raises(ModelError):
            MLPClassifier(2, 1)
        with pytest.raises(ModelError):
            MLPClassifier(2, 3, learning_rate=0.0)


class TestEdgeModelFactory:
    def test_create_edge_model_dimensions(self):
        spec = EdgeModelSpec(feature_dim=16, num_classes=6)
        model = create_edge_model(spec, seed=0)
        assert model.feature_dim == 16
        assert model.num_classes == 6

    def test_config_overrides_head_width(self):
        spec = EdgeModelSpec(feature_dim=16, num_classes=6)
        config = RetrainingConfig(epochs=5, last_layer_neurons=128)
        model = create_edge_model(spec, config=config, seed=0)
        assert model.hidden_sizes[-1] == 128

    def test_training_gpu_seconds_scaling(self):
        cheap = RetrainingConfig(epochs=5, data_fraction=0.5, layers_trained_fraction=0.5)
        expensive = RetrainingConfig(epochs=30, data_fraction=1.0, layers_trained_fraction=1.0)
        assert training_gpu_seconds(400, expensive) > training_gpu_seconds(400, cheap)

    def test_training_gpu_seconds_linear_in_samples(self):
        config = RetrainingConfig(epochs=10)
        assert training_gpu_seconds(400, config) == pytest.approx(2 * training_gpu_seconds(200, config))

    def test_training_gpu_seconds_rejects_negative(self):
        with pytest.raises(ModelError):
            training_gpu_seconds(-1, RetrainingConfig(epochs=5))

    def test_invalid_spec(self):
        with pytest.raises(ModelError):
            EdgeModelSpec(feature_dim=8, num_classes=6, hidden_layers=0)


class TestTrainer:
    def test_train_returns_epoch_curve(self, small_stream, edge_model):
        trainer = Trainer(seed=0)
        result = trainer.train(edge_model, small_stream.window(0), RetrainingConfig(epochs=6))
        assert len(result.epoch_accuracies) == 6
        assert all(0.0 <= a <= 1.0 for a in result.epoch_accuracies)
        assert result.gpu_seconds > 0
        assert result.gpu_seconds_per_epoch == pytest.approx(result.gpu_seconds / 6)

    def test_max_epochs_early_termination(self, small_stream, edge_model):
        trainer = Trainer(seed=0)
        result = trainer.train(
            edge_model, small_stream.window(0), RetrainingConfig(epochs=30), max_epochs=3
        )
        assert len(result.epoch_accuracies) == 3

    def test_data_fraction_override_uses_fewer_samples(self, small_stream, edge_model):
        trainer = Trainer(seed=0)
        full = trainer.train(edge_model.clone(), small_stream.window(0), RetrainingConfig(epochs=3))
        small = trainer.train(
            edge_model.clone(),
            small_stream.window(0),
            RetrainingConfig(epochs=3),
            data_fraction_override=0.2,
        )
        assert small.samples_used < full.samples_used

    def test_training_improves_window_accuracy(self, small_stream, edge_model):
        trainer = Trainer(seed=0)
        window = small_stream.window(0)
        before = trainer.evaluate(edge_model, window)
        trainer.train(edge_model, window, RetrainingConfig(epochs=20))
        after = trainer.evaluate(edge_model, window)
        assert after > before
        assert after > 0.6

    def test_accuracy_after_helper(self, small_stream, edge_model):
        trainer = Trainer(seed=0)
        result = trainer.train(edge_model, small_stream.window(0), RetrainingConfig(epochs=5))
        assert result.accuracy_after(2) == result.epoch_accuracies[1]
        assert result.accuracy_after(100) == result.epoch_accuracies[-1]
        assert result.accuracy_after(0) == 0.0

    def test_invalid_holdout_fraction(self):
        with pytest.raises(ModelError):
            Trainer(holdout_fraction=1.0)


class TestExemplarReplay:
    def test_exemplar_set_capacity(self):
        exemplars = ExemplarSet.empty(5)
        rng = np.random.default_rng(0)
        exemplars.update(rng.normal(size=(50, 4)), np.zeros(50, dtype=int))
        assert len(exemplars.features_by_class[0]) == 5

    def test_exemplar_set_tracks_classes(self):
        exemplars = ExemplarSet.empty(3)
        rng = np.random.default_rng(0)
        exemplars.update(rng.normal(size=(20, 4)), rng.integers(0, 3, size=20))
        assert set(exemplars.features_by_class) <= {0, 1, 2}

    def test_as_training_data_empty(self):
        features, labels = ExemplarSet.empty(3).as_training_data()
        assert len(labels) == 0

    def test_invalid_capacity(self):
        with pytest.raises(ModelError):
            ExemplarSet.empty(0)

    def test_retrain_recovers_drifted_accuracy(self, small_stream, edge_model):
        trainer = Trainer(seed=0)
        trainer.train(edge_model, small_stream.window(0), RetrainingConfig(epochs=15))
        learner = ExemplarReplayLearner(edge_model, seed=0)
        drifted = small_stream.window(6)
        before = learner.evaluate(drifted)
        learner.retrain(drifted, RetrainingConfig(epochs=15))
        after = learner.evaluate(drifted)
        assert after >= before
        assert after > 0.6

    def test_retrain_keeps_exemplars_bounded(self, small_stream, edge_model):
        learner = ExemplarReplayLearner(edge_model, exemplars_per_class=10, seed=0)
        for window_index in range(3):
            learner.retrain(small_stream.window(window_index), RetrainingConfig(epochs=3))
        per_class = [len(v) for v in learner.exemplars.features_by_class.values()]
        assert all(count <= 10 for count in per_class)

    def test_invalid_replay_weight(self, edge_model):
        with pytest.raises(ModelError):
            ExemplarReplayLearner(edge_model, replay_weight=1.0)
