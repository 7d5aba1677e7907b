"""Minimal neural-network building blocks (pure numpy).

The edge DNN substrate only needs to exhibit the *training behaviour* Ekya's
scheduler and micro-profiler rely on: accuracy that rises with epochs and data
with diminishing returns, a cost that scales with the number of trainable
layers, and the ability to freeze early layers.  A small fully-connected
network over the synthetic object features provides exactly that at laptop
scale, so we implement dense layers with manual forward/backward passes
instead of depending on a deep-learning framework.
"""

from __future__ import annotations

from typing import Optional, Tuple

import numpy as np

from ..exceptions import ModelError
from ..utils.rng import SeedLike, ensure_rng


class DenseLayer:
    """A fully-connected layer ``y = activation(x @ W + b)``.

    Supports ReLU or linear activation, gradient computation, and a
    ``frozen`` flag: frozen layers still run forward/backward (gradients must
    flow to earlier layers during backprop bookkeeping) but skip their weight
    update — which is how "number of layers retrained" is realised.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        activation: str = "relu",
        seed: SeedLike = None,
    ) -> None:
        if in_features < 1 or out_features < 1:
            raise ModelError("layer dimensions must be >= 1")
        if activation not in ("relu", "linear"):
            raise ModelError(f"unsupported activation {activation!r}")
        rng = ensure_rng(seed)
        scale = np.sqrt(2.0 / in_features)
        self.weights = rng.normal(0.0, scale, size=(in_features, out_features))
        self.bias = np.zeros(out_features)
        self.activation = activation
        self.frozen = False
        self._cache_input: Optional[np.ndarray] = None
        self._cache_pre_activation: Optional[np.ndarray] = None

    # ---------------------------------------------------------------- shape
    @property
    def in_features(self) -> int:
        return int(self.weights.shape[0])

    @property
    def out_features(self) -> int:
        return int(self.weights.shape[1])

    # -------------------------------------------------------------- forward
    def forward(self, inputs: np.ndarray, *, training: bool = False) -> np.ndarray:
        inputs = np.asarray(inputs, dtype=float)
        if inputs.ndim != 2 or inputs.shape[1] != self.in_features:
            raise ModelError(
                f"expected input of shape (batch, {self.in_features}), got {inputs.shape}"
            )
        pre_activation = inputs @ self.weights + self.bias
        if training:
            self._cache_input = inputs
            self._cache_pre_activation = pre_activation
        if self.activation == "relu":
            return np.maximum(pre_activation, 0.0)
        return pre_activation

    # ------------------------------------------------------------- backward
    def backward(self, grad_output: np.ndarray, learning_rate: float) -> np.ndarray:
        """Backpropagate ``grad_output`` and apply an SGD step (unless frozen).

        Returns the gradient with respect to the layer's input.
        """
        if self._cache_input is None or self._cache_pre_activation is None:
            raise ModelError("backward() called before a training-mode forward()")
        grad = np.asarray(grad_output, dtype=float)
        if self.activation == "relu":
            grad = grad * (self._cache_pre_activation > 0.0)
        grad_weights = self._cache_input.T @ grad / len(self._cache_input)
        grad_bias = grad.mean(axis=0)
        grad_input = grad @ self.weights.T
        if not self.frozen:
            self.weights -= learning_rate * grad_weights
            self.bias -= learning_rate * grad_bias
        return grad_input

    # ----------------------------------------------------------- state copy
    def get_state(self) -> Tuple[np.ndarray, np.ndarray]:
        return self.weights.copy(), self.bias.copy()

    def set_state(self, state: Tuple[np.ndarray, np.ndarray]) -> None:
        weights, bias = state
        if weights.shape != self.weights.shape or bias.shape != self.bias.shape:
            raise ModelError("checkpoint state does not match layer dimensions")
        self.weights = weights.copy()
        self.bias = bias.copy()


def softmax(logits: np.ndarray) -> np.ndarray:
    """Numerically stable row-wise softmax."""
    logits = np.asarray(logits, dtype=float)
    shifted = logits - logits.max(axis=1, keepdims=True)
    exp = np.exp(shifted)
    return exp / exp.sum(axis=1, keepdims=True)


def cross_entropy_loss(probabilities: np.ndarray, labels: np.ndarray) -> float:
    """Mean cross-entropy of predicted probabilities against integer labels."""
    probabilities = np.asarray(probabilities, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    if probabilities.ndim != 2 or len(probabilities) != len(labels):
        raise ModelError("probabilities and labels are inconsistent")
    picked = probabilities[np.arange(len(labels)), labels]
    return float(-np.mean(np.log(np.clip(picked, 1e-12, None))))


def cross_entropy_gradient(probabilities: np.ndarray, labels: np.ndarray) -> np.ndarray:
    """Gradient of the mean cross-entropy with softmax folded in (p - y)."""
    probabilities = np.asarray(probabilities, dtype=float)
    labels = np.asarray(labels, dtype=np.int64)
    grad = probabilities.copy()
    grad[np.arange(len(labels)), labels] -= 1.0
    return grad
