"""Trainable edge-DNN substrate (numpy MLP, trainer, continual learning)."""

from .continual import ExemplarReplayLearner, ExemplarSet
from .edge_model import (
    EDGE_MODEL_SIZE_MBITS,
    GOLDEN_MODEL_SLOWDOWN,
    GPU_SECONDS_PER_SAMPLE_EPOCH,
    EdgeModelSpec,
    create_edge_model,
    training_gpu_seconds,
)
from .layers import DenseLayer, cross_entropy_gradient, cross_entropy_loss, softmax
from .mlp import MLPClassifier
from .trainer import Trainer, TrainingResult

__all__ = [
    "ExemplarReplayLearner",
    "ExemplarSet",
    "EDGE_MODEL_SIZE_MBITS",
    "GOLDEN_MODEL_SLOWDOWN",
    "GPU_SECONDS_PER_SAMPLE_EPOCH",
    "EdgeModelSpec",
    "create_edge_model",
    "training_gpu_seconds",
    "DenseLayer",
    "cross_entropy_gradient",
    "cross_entropy_loss",
    "softmax",
    "MLPClassifier",
    "Trainer",
    "TrainingResult",
]
