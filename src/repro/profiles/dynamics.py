"""Accuracy dynamics of edge models across retraining windows.

The scheduler and the trace-driven simulator need to answer three questions
about every stream in every window:

1. what is the accuracy of the *currently deployed* model on this window's
   live content (data drift has been eroding it since it was last trained),
2. what accuracy would retraining with configuration γ achieve, and
3. how many GPU-seconds would that retraining cost at 100 % allocation?

Two implementations are provided:

* :class:`AnalyticDynamics` — a fast, deterministic model of those quantities
  driven by each stream's drift profile.  This plays the role of the paper's
  trace-driven simulator, which replays logged accuracy/GPU-time profiles
  instead of training real DNNs (§6.1), and is what the large benchmark
  sweeps use.
* :class:`SubstrateDynamics` — actually trains the numpy edge models on the
  synthetic window data (the "testbed" mode).  Slower; the paper-claim test
  ``tests/integration/test_end_to_end.py`` runs the testbed through it.

Both share the same interface so every scheduler/baseline runs unchanged on
either substrate.
"""

from __future__ import annotations

import abc
from dataclasses import dataclass
from typing import Dict, Optional, Tuple

import numpy as np

from ..configs.retraining import RetrainingConfig
from ..datasets.stream import VideoStream
from ..exceptions import SimulationError
from ..models.continual import ExemplarReplayLearner
from ..models.edge_model import EdgeModelSpec, create_edge_model, training_gpu_seconds
from ..models.trainer import Trainer
from ..utils.math_utils import clamp
from ..utils.rng import ensure_rng, stable_seed


def config_quality(config: RetrainingConfig) -> float:
    """Relative quality of a retraining configuration in (0, 1].

    Combines diminishing returns in epochs, data fraction, unfrozen layers and
    classifier width.  The most expensive configuration of the default grid
    approaches 1.0; the cheapest lands around 0.2, giving the 10–20 point
    accuracy spread across configurations seen in Figure 3.
    """
    epoch_factor = config.epochs / (config.epochs + 3.0)
    data_factor = config.data_fraction ** 0.25
    layer_factor = 0.7 + 0.3 * np.sqrt(config.layers_trained_fraction)
    width_factor = min(1.0, 0.9 + 0.1 * (config.last_layer_neurons / 64.0))
    return float(epoch_factor * data_factor * layer_factor * width_factor)


@dataclass
class StreamState:
    """Per-stream serving-model state tracked by the dynamics."""

    trained_on_window: Optional[int]
    accuracy_when_trained: float


class StreamDynamics(abc.ABC):
    """Interface between schedulers/simulator and the accuracy substrate."""

    @abc.abstractmethod
    def start_accuracy(self, stream: VideoStream, window_index: int) -> float:
        """Accuracy of the currently deployed model on this window's content."""

    @abc.abstractmethod
    def candidate_post_accuracy(
        self, stream: VideoStream, window_index: int, config: RetrainingConfig
    ) -> float:
        """Accuracy the model would reach if retrained on this window with ``config``."""

    @abc.abstractmethod
    def retraining_gpu_seconds(
        self, stream: VideoStream, window_index: int, config: RetrainingConfig
    ) -> float:
        """GPU-seconds (at 100 % allocation) to run ``config`` on this window."""

    @abc.abstractmethod
    def commit_window(
        self,
        stream: VideoStream,
        window_index: int,
        config: Optional[RetrainingConfig],
    ) -> None:
        """Advance the stream's serving-model state past ``window_index``.

        ``config`` is the retraining configuration that actually completed in
        this window, or ``None`` if the model was not retrained.
        """

    def reset(self) -> None:  # pragma: no cover - overridden where stateful
        """Forget all per-stream state (used between independent experiments)."""

    def invalidate_stream(self, stream_name: str) -> None:
        """Drop one stream's serving-model state: it restarts *cold*.

        The fleet calls this when a migrated stream's checkpoint transfer
        exhausts its WAN retry budget (see
        :class:`~repro.fleet.faults.WanFaultModel`): the destination never
        received the model, so the stream re-enters as if freshly deployed
        — its accumulated retraining benefit is lost.  A stream with no
        tracked state is a no-op.
        """


#: Accuracy a deployed model loses per unit of drift magnitude since the
#: window it was trained on.
DRIFT_SENSITIVITY = 0.16
#: No model's accuracy falls below this, however stale it is.
ACCURACY_FLOOR = 0.25
#: Mean and half-width of each window's accuracy ceiling, the best accuracy
#: any retraining can reach on that window's content.
CEILING_BASE = 0.92
CEILING_SPREAD = 0.05
#: The model deployed at the start was trained this many windows earlier.
INITIAL_STALENESS_WINDOWS = 3


def _check_window(window_index: int) -> None:
    if window_index < 0:
        raise SimulationError(f"window_index must be non-negative, got {window_index}")


class AnalyticDynamics(StreamDynamics):
    """Deterministic drift-driven accuracy model (the simulator's 'trace')."""

    def __init__(self, *, seed: int = 0) -> None:
        self._seed = seed
        self._states: Dict[str, StreamState] = {}
        # Per-stream memo of ``_ceiling`` and ``start_accuracy`` values keyed
        # ``(kind, window)``.  Both are pure functions of the seed and the
        # stream's serving state, so a stream's memo is dropped exactly when
        # that state changes (a retraining commit, invalidation, reset).
        self._memo: Dict[str, Dict[Tuple[str, int], float]] = {}

    # ------------------------------------------------------------ internals
    def _stream_memo(self, stream: VideoStream) -> Dict[Tuple[str, int], float]:
        memo = self._memo.get(stream.name)
        if memo is None:
            memo = self._memo[stream.name] = {}
        return memo

    def _ceiling(self, stream: VideoStream, window_index: int) -> float:
        """Best accuracy any retraining can reach on this window's content."""
        memo = self._stream_memo(stream)
        key = ("ceiling", window_index)
        ceiling = memo.get(key)
        if ceiling is None:
            rng = ensure_rng(stable_seed("ceiling", stream.name, window_index, base=self._seed))
            wobble = rng.uniform(-CEILING_SPREAD, CEILING_SPREAD)
            golden_noise = stream.golden_model.error_rate
            ceiling = memo[key] = clamp(CEILING_BASE + wobble - golden_noise, 0.3, 0.99)
        return ceiling

    def _state(self, stream: VideoStream) -> StreamState:
        state = self._states.get(stream.name)
        if state is None:
            # The deployed model was trained before the experiment started
            # (window -INITIAL_STALENESS_WINDOWS), so it begins already somewhat
            # stale.
            rng = ensure_rng(stable_seed("initial", stream.name, base=self._seed))
            initial_accuracy = clamp(
                self._ceiling(stream, 0) - rng.uniform(0.02, 0.10), ACCURACY_FLOOR, 1.0
            )
            state = StreamState(
                trained_on_window=-INITIAL_STALENESS_WINDOWS,
                accuracy_when_trained=initial_accuracy,
            )
            self._states[stream.name] = state
        return state

    def _decay(self, stream: VideoStream, trained_on: int, current: int, accuracy: float) -> float:
        if current <= trained_on:
            return accuracy
        reference = max(trained_on, 0)
        # Models deployed before the experiment started (trained_on < 0) carry
        # a fixed extra staleness for the unobserved pre-experiment drift.
        pre_experiment_drift = 0.1 * max(0, -trained_on)
        drift = stream.drift_magnitude(reference, current) + pre_experiment_drift
        decayed = accuracy - DRIFT_SENSITIVITY * drift
        return clamp(decayed, ACCURACY_FLOOR, 1.0)

    # ------------------------------------------------------------- interface
    def start_accuracy(self, stream: VideoStream, window_index: int) -> float:
        _check_window(window_index)
        memo = self._stream_memo(stream)
        key = ("start", window_index)
        accuracy = memo.get(key)
        if accuracy is None:
            state = self._state(stream)
            accuracy = memo[key] = self._decay(
                stream, state.trained_on_window if state.trained_on_window is not None else 0,
                window_index, state.accuracy_when_trained,
            )
        return accuracy

    def candidate_post_accuracy(
        self, stream: VideoStream, window_index: int, config: RetrainingConfig
    ) -> float:
        _check_window(window_index)
        ceiling = self._ceiling(stream, window_index)
        quality = config_quality(config)
        accuracy = ceiling * (0.70 + 0.30 * quality)
        # Retraining warm-starts from the currently deployed weights, so even a
        # cheap configuration rarely ends up much worse than the serving model
        # already is on this window's content.
        warm_start_floor = self.start_accuracy(stream, window_index) - 0.02
        accuracy = max(accuracy, warm_start_floor)
        return clamp(accuracy, ACCURACY_FLOOR, ceiling)

    def retraining_gpu_seconds(
        self, stream: VideoStream, window_index: int, config: RetrainingConfig
    ) -> float:
        return training_gpu_seconds(stream.samples_per_window, config)

    def accuracy_of_model_trained_at(
        self,
        stream: VideoStream,
        trained_window: int,
        eval_window: int,
        config: RetrainingConfig,
    ) -> float:
        """Accuracy at ``eval_window`` of a model last trained at ``trained_window``.

        Used by the cached-model-reuse baseline (§6.5): a cached model keeps
        the accuracy it reached when it was trained, eroded by the appearance
        drift between its training window and the window it is reused on.
        """
        accuracy = self.candidate_post_accuracy(stream, trained_window, config)
        return self._decay(stream, trained_window, eval_window, accuracy)

    def commit_window(
        self,
        stream: VideoStream,
        window_index: int,
        config: Optional[RetrainingConfig],
    ) -> None:
        _check_window(window_index)
        state = self._state(stream)
        if config is not None:
            # Dropped on both sides: the committed accuracy is computed
            # against the half-updated state (docs/architecture.md), not
            # planning-time values, and what it memoises dies with that state.
            self._memo.pop(stream.name, None)
            state.trained_on_window = window_index
            state.accuracy_when_trained = self.candidate_post_accuracy(stream, window_index, config)
            self._memo.pop(stream.name, None)

    def reset(self) -> None:
        self._states.clear()
        self._memo.clear()

    def invalidate_stream(self, stream_name: str) -> None:
        # The next query re-initialises the state at pre-deployment
        # staleness (trained before the experiment started), which is
        # exactly what "the checkpoint never arrived" means here.
        self._states.pop(stream_name, None)
        self._memo.pop(stream_name, None)


class SubstrateDynamics(StreamDynamics):
    """Accuracy dynamics measured by actually training the numpy edge models."""

    def __init__(
        self,
        *,
        exemplars_per_class: int = 40,
        hidden_width: int = 32,
        seed: int = 0,
    ) -> None:
        self._hidden_width = hidden_width
        self._exemplars_per_class = exemplars_per_class
        self._seed = seed
        self._learners: Dict[str, ExemplarReplayLearner] = {}
        self._trainer = Trainer(seed=seed)
        self._candidate_cache: Dict[Tuple[str, int, Tuple], Tuple[float, ExemplarReplayLearner]] = {}

    # ------------------------------------------------------------ internals
    def _learner(self, stream: VideoStream) -> ExemplarReplayLearner:
        learner = self._learners.get(stream.name)
        if learner is None:
            spec = EdgeModelSpec(
                feature_dim=stream.feature_dim,
                num_classes=stream.taxonomy.num_classes,
                hidden_width=self._hidden_width,
            )
            model_seed = stable_seed("model", stream.name, base=self._seed)
            model = create_edge_model(spec, seed=model_seed)
            learner = ExemplarReplayLearner(
                model,
                exemplars_per_class=self._exemplars_per_class,
                seed=model_seed,
            )
            # Warm-start the model on window 0 with a modest configuration so
            # it does not begin from random weights (the paper's edge models
            # were trained on representative data before deployment).
            learner.retrain(stream.window(0), RetrainingConfig(epochs=10))
            self._learners[stream.name] = learner
        return learner

    def _train_candidate(
        self, stream: VideoStream, window_index: int, config: RetrainingConfig
    ) -> Tuple[float, ExemplarReplayLearner]:
        key = (stream.name, window_index, config.key())
        cached = self._candidate_cache.get(key)
        if cached is not None:
            return cached
        base = self._learner(stream)
        clone = ExemplarReplayLearner(
            base.model.clone(),
            exemplars_per_class=self._exemplars_per_class,
            replay_weight=base.replay_weight,
            seed=stable_seed("candidate", stream.name, window_index, base=self._seed),
        )
        clone.exemplars.features_by_class = {
            cls: feats.copy() for cls, feats in base.exemplars.features_by_class.items()
        }
        window = stream.window(window_index)
        clone.retrain(window, config)
        accuracy = clone.evaluate(window)
        result = (accuracy, clone)
        self._candidate_cache[key] = result
        return result

    # ------------------------------------------------------------- interface
    def start_accuracy(self, stream: VideoStream, window_index: int) -> float:
        learner = self._learner(stream)
        return learner.evaluate(stream.window(window_index))

    def candidate_post_accuracy(
        self, stream: VideoStream, window_index: int, config: RetrainingConfig
    ) -> float:
        accuracy, _ = self._train_candidate(stream, window_index, config)
        return accuracy

    def retraining_gpu_seconds(
        self, stream: VideoStream, window_index: int, config: RetrainingConfig
    ) -> float:
        return training_gpu_seconds(stream.window(window_index).num_train_samples, config)

    def commit_window(
        self,
        stream: VideoStream,
        window_index: int,
        config: Optional[RetrainingConfig],
    ) -> None:
        if config is None:
            return
        _, trained = self._train_candidate(stream, window_index, config)
        self._learners[stream.name] = trained
        # Candidate clones for this window are now stale.
        self._candidate_cache = {
            key: value for key, value in self._candidate_cache.items() if key[0] != stream.name
        }

    def reset(self) -> None:
        self._learners.clear()
        self._candidate_cache.clear()

    def invalidate_stream(self, stream_name: str) -> None:
        # Dropping the learner makes the next query warm-start a fresh
        # model (the pre-deployment baseline); cached candidates trained
        # from the lost weights are stale with it.
        self._learners.pop(stream_name, None)
        self._candidate_cache = {
            key: value
            for key, value in self._candidate_cache.items()
            if key[0] != stream_name
        }
