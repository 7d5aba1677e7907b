"""A small multi-layer perceptron classifier trained with mini-batch SGD.

This is the "compressed edge DNN" substrate (the paper's ResNet18 analogue):
a deliberately low-capacity model that can be retrained in milliseconds on the
synthetic object features, supports freezing a fraction of its layers, and
exposes per-epoch accuracy so the micro-profiler can fit its extrapolation
curves against genuine training dynamics.
"""

from __future__ import annotations

from typing import List, Optional, Sequence

import numpy as np

from ..exceptions import ModelError
from ..utils.rng import SeedLike, ensure_rng
from .layers import DenseLayer, cross_entropy_gradient, cross_entropy_loss, softmax


class MLPClassifier:
    """Feed-forward classifier with ReLU hidden layers and a softmax head."""

    def __init__(
        self,
        feature_dim: int,
        num_classes: int,
        hidden_sizes: Sequence[int] = (32, 32),
        *,
        learning_rate: float = 0.08,
        seed: SeedLike = None,
    ) -> None:
        if feature_dim < 1 or num_classes < 2:
            raise ModelError("need feature_dim >= 1 and num_classes >= 2")
        if learning_rate <= 0:
            raise ModelError("learning_rate must be positive")
        self.feature_dim = int(feature_dim)
        self.num_classes = int(num_classes)
        self.hidden_sizes = tuple(int(h) for h in hidden_sizes)
        self.learning_rate = float(learning_rate)
        rng = ensure_rng(seed)
        sizes = [self.feature_dim, *self.hidden_sizes, self.num_classes]
        self.layers: List[DenseLayer] = []
        for i, (fan_in, fan_out) in enumerate(zip(sizes[:-1], sizes[1:])):
            activation = "relu" if i < len(sizes) - 2 else "linear"
            self.layers.append(
                DenseLayer(fan_in, fan_out, activation=activation, seed=rng)
            )
        self._rng = rng

    # -------------------------------------------------------------- freezing
    @property
    def num_layers(self) -> int:
        return len(self.layers)

    def set_trainable_fraction(self, fraction: float) -> int:
        """Freeze the earliest layers so only ``fraction`` of layers train.

        Returns the number of layers left trainable.  Mirrors the retraining
        configuration knob "number of layers to retrain": at least the final
        classification layer is always trainable.
        """
        if not 0.0 < fraction <= 1.0:
            raise ModelError("fraction must be in (0, 1]")
        trainable = max(1, int(round(fraction * self.num_layers)))
        frozen_count = self.num_layers - trainable
        for index, layer in enumerate(self.layers):
            layer.frozen = index < frozen_count
        return trainable

    # --------------------------------------------------------------- forward
    def predict_proba(self, features: np.ndarray) -> np.ndarray:
        """Class probabilities for a batch of feature vectors."""
        activations = np.asarray(features, dtype=float)
        if activations.ndim == 1:
            activations = activations[None, :]
        for layer in self.layers:
            activations = layer.forward(activations, training=False)
        return softmax(activations)

    def predict(self, features: np.ndarray) -> np.ndarray:
        """Most likely class index for each feature vector."""
        return np.argmax(self.predict_proba(features), axis=1)

    def accuracy(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Top-1 accuracy against integer labels."""
        labels = np.asarray(labels, dtype=np.int64)
        if len(labels) == 0:
            return 0.0
        predictions = self.predict(features)
        return float(np.mean(predictions == labels))

    def loss(self, features: np.ndarray, labels: np.ndarray) -> float:
        """Mean cross-entropy loss on a labelled batch."""
        return cross_entropy_loss(self.predict_proba(features), labels)

    # -------------------------------------------------------------- training
    def train_epoch(
        self,
        features: np.ndarray,
        labels: np.ndarray,
        *,
        batch_size: int = 16,
        rng: Optional[np.random.Generator] = None,
    ) -> float:
        """One pass of mini-batch SGD; returns the mean batch loss."""
        features = np.asarray(features, dtype=float)
        labels = np.asarray(labels, dtype=np.int64)
        if len(features) != len(labels):
            raise ModelError("features and labels must have the same length")
        if len(labels) == 0:
            raise ModelError("cannot train on an empty dataset")
        if batch_size < 1:
            raise ModelError("batch_size must be >= 1")
        rng = rng if rng is not None else self._rng
        order = rng.permutation(len(labels))
        losses = []
        for start in range(0, len(labels), batch_size):
            batch_idx = order[start : start + batch_size]
            batch_features = features[batch_idx]
            batch_labels = labels[batch_idx]
            activations = batch_features
            for layer in self.layers:
                activations = layer.forward(activations, training=True)
            probabilities = softmax(activations)
            losses.append(cross_entropy_loss(probabilities, batch_labels))
            grad = cross_entropy_gradient(probabilities, batch_labels)
            for layer in reversed(self.layers):
                grad = layer.backward(grad, self.learning_rate)
        return float(np.mean(losses))

    # ------------------------------------------------------------ state copy
    def get_state(self) -> List:
        """Snapshot of all layer weights (used by :meth:`clone`)."""
        return [layer.get_state() for layer in self.layers]

    def set_state(self, state: List) -> None:
        """Restore a snapshot produced by :meth:`get_state`."""
        if len(state) != len(self.layers):
            raise ModelError("checkpoint has a different number of layers")
        for layer, layer_state in zip(self.layers, state):
            layer.set_state(layer_state)

    def clone(self) -> "MLPClassifier":
        """Deep copy with identical weights and freezing pattern."""
        copy = MLPClassifier(
            self.feature_dim,
            self.num_classes,
            self.hidden_sizes,
            learning_rate=self.learning_rate,
            seed=self._rng,
        )
        copy.set_state(self.get_state())
        for src, dst in zip(self.layers, copy.layers):
            dst.frozen = src.frozen
        return copy

    def __repr__(self) -> str:
        return (
            f"MLPClassifier(feature_dim={self.feature_dim}, num_classes={self.num_classes}, "
            f"hidden_sizes={self.hidden_sizes})"
        )
