"""Micro-profiling: cheap estimation of retraining accuracy and cost (§4.3).

The micro-profiler estimates, for every candidate retraining configuration,
the post-retraining accuracy and the GPU-time cost — without running the full
retraining.  It does so by

1. training on a small uniform sample (5–10 %) of the window's data,
2. stopping after a handful of epochs (early termination),
3. fitting the observed accuracy-vs-epoch points to a non-linear saturating
   curve with a non-negative least-squares solver and extrapolating to the
   configuration's full epoch count and data size, and
4. pruning configurations that history shows to be far from the
   resource/accuracy Pareto frontier.

Two "profile sources" wrap this for the scheduler/simulator:

* :class:`MicroProfilingSource` runs the real algorithm against the numpy
  substrate (testbed mode).
* :class:`OracleProfileSource` queries an accuracy dynamics model directly
  and optionally perturbs it with Gaussian error — this is how the simulator
  reproduces Figure 11b (robustness to estimation error) without retraining.
"""

from __future__ import annotations

import abc
import math
from dataclasses import dataclass
from typing import Dict, Optional, Sequence

from ..configs.retraining import RetrainingConfig
from ..configs.space import ConfigurationSpace
from ..datasets.stream import VideoStream, WindowData
from ..exceptions import ProfilingError
from ..models.edge_model import training_gpu_seconds
from ..models.mlp import MLPClassifier
from ..models.trainer import Trainer
from ..profiles.dynamics import StreamDynamics, SubstrateDynamics
from ..profiles.fleet_store import FleetProfileStore, stream_profile_key
from ..profiles.profile import RetrainingEstimate, StreamWindowProfile
from ..profiles.store import ProfileStore
from ..utils.curves import fit_accuracy_curve, scale_for_data_fraction
from ..utils.math_utils import clamp
from ..utils.rng import SeedLike, ensure_rng


@dataclass(frozen=True)
class MicroProfilerSettings:
    """Tunables of the micro-profiling procedure."""

    data_fraction: float = 0.1
    profiling_epochs: int = 5
    holdout_fraction: float = 0.25
    prune_with_history: bool = True
    max_configs: int = 18

    def __post_init__(self) -> None:
        if not 0.0 < self.data_fraction <= 1.0:
            raise ProfilingError("data_fraction must be in (0, 1]")
        if self.profiling_epochs < 2:
            raise ProfilingError("profiling_epochs must be >= 2 (need points to fit a curve)")
        if not 0.0 < self.holdout_fraction < 1.0:
            raise ProfilingError("holdout_fraction must be in (0, 1)")
        if self.max_configs < 1:
            raise ProfilingError("max_configs must be >= 1")


class MicroProfiler:
    """The micro-profiling algorithm itself (operates on real models/data)."""

    def __init__(
        self,
        settings: MicroProfilerSettings = MicroProfilerSettings(),
        *,
        seed: SeedLike = None,
    ) -> None:
        self.settings = settings
        self._trainer = Trainer(holdout_fraction=settings.holdout_fraction, seed=seed)
        self._rng = ensure_rng(seed)

    # ------------------------------------------------------------ single cfg
    def profile_config(
        self,
        model: MLPClassifier,
        window: WindowData,
        config: RetrainingConfig,
    ) -> RetrainingEstimate:
        """Micro-profile one configuration on one window.

        The model is cloned so the caller's serving model is untouched.  The
        estimate extrapolates the early-epoch accuracies on the profiling
        subset to the configuration's full epochs and data fraction.
        """
        probe = model.clone()
        profiling_fraction = min(self.settings.data_fraction, config.data_fraction)
        result = self._trainer.train(
            probe,
            window,
            config,
            max_epochs=self.settings.profiling_epochs,
            data_fraction_override=profiling_fraction,
            rng=self._rng,
        )
        epochs_observed = list(range(1, len(result.epoch_accuracies) + 1))
        try:
            curve = fit_accuracy_curve(epochs_observed, result.epoch_accuracies)
            curve = scale_for_data_fraction(
                curve,
                profiled_fraction=profiling_fraction,
                target_fraction=config.data_fraction,
            )
            predicted = curve.accuracy_at(config.epochs)
        except ProfilingError:
            curve = None
            predicted = result.final_accuracy
        full_cost = training_gpu_seconds(window.num_train_samples, config)
        return RetrainingEstimate(
            config=config,
            post_retraining_accuracy=clamp(predicted),
            gpu_seconds=full_cost,
            curve=curve,
            profiling_gpu_seconds=result.gpu_seconds,
        )

    # ---------------------------------------------------------------- window
    def profile_window(
        self,
        model: MLPClassifier,
        window: WindowData,
        configs: Sequence[RetrainingConfig],
        *,
        start_accuracy: Optional[float] = None,
        history: Optional[Dict[RetrainingConfig, tuple]] = None,
    ) -> StreamWindowProfile:
        """Micro-profile a set of configurations for one stream/window."""
        if not configs:
            raise ProfilingError("need at least one configuration to profile")
        if start_accuracy is None:
            start_accuracy = model.accuracy(window.eval_features, window.eval_labels)
        candidates = list(configs)
        if history and self.settings.prune_with_history:
            space = ConfigurationSpace(retraining_configs=candidates)
            candidates = space.pruned(history, max_configs=self.settings.max_configs).retraining_configs
        profile = StreamWindowProfile(
            stream_name="",  # filled by callers that know the stream
            window_index=window.window_index,
            start_accuracy=clamp(start_accuracy),
        )
        for config in candidates:
            profile.add(self.profile_config(model, window, config))
        return profile

    def exhaustive_profile_config(
        self,
        model: MLPClassifier,
        window: WindowData,
        config: RetrainingConfig,
    ) -> RetrainingEstimate:
        """Ground-truth profile: full data, full epochs (for error evaluation)."""
        probe = model.clone()
        result = self._trainer.train(probe, window, config, rng=self._rng)
        return RetrainingEstimate(
            config=config,
            post_retraining_accuracy=clamp(result.final_accuracy),
            gpu_seconds=result.gpu_seconds,
            profiling_gpu_seconds=result.gpu_seconds,
        )


class ProfileSource(abc.ABC):
    """Produces per-(stream, window) profiles for the scheduler."""

    @abc.abstractmethod
    def profile(
        self,
        stream: VideoStream,
        window_index: int,
        configs: Sequence[RetrainingConfig],
    ) -> StreamWindowProfile:
        """Return a profile of ``configs`` for one stream and window."""


class OracleProfileSource(ProfileSource):
    """Profiles taken from an accuracy-dynamics model, optionally with noise.

    With ``accuracy_error_std = 0`` this is a perfect oracle (used to isolate
    scheduling quality); a non-zero value reproduces the micro-profiler's
    estimation error (Figure 11a reports ~5.8 % median absolute error) and is
    the knob swept by the Figure 11b robustness experiment.
    """

    def __init__(
        self,
        dynamics: StreamDynamics,
        *,
        accuracy_error_std: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        if not 0 <= accuracy_error_std < math.inf:
            raise ProfilingError(
                f"accuracy_error_std must be finite and non-negative, got {accuracy_error_std}"
            )
        self._dynamics = dynamics
        self._error_std = accuracy_error_std
        self._rng = ensure_rng(seed)

    @property
    def dynamics(self) -> StreamDynamics:
        return self._dynamics

    def _estimate(
        self,
        stream: VideoStream,
        window_index: int,
        config: RetrainingConfig,
        *,
        profiling_gpu_seconds: float = 0.0,
    ) -> RetrainingEstimate:
        """One config's oracle estimate (shared with :class:`SharedProfileOracle`)."""
        truth = self._dynamics.candidate_post_accuracy(stream, window_index, config)
        if self._error_std > 0:
            truth = clamp(truth + self._rng.normal(0.0, self._error_std))
        return RetrainingEstimate(
            config=config,
            post_retraining_accuracy=truth,
            gpu_seconds=self._dynamics.retraining_gpu_seconds(stream, window_index, config),
            profiling_gpu_seconds=profiling_gpu_seconds,
        )

    def profile(
        self,
        stream: VideoStream,
        window_index: int,
        configs: Sequence[RetrainingConfig],
    ) -> StreamWindowProfile:
        profile = StreamWindowProfile(
            stream_name=stream.name,
            window_index=window_index,
            start_accuracy=clamp(self._dynamics.start_accuracy(stream, window_index)),
        )
        for config in configs:
            profile.add(self._estimate(stream, window_index, config))
        return profile


class MicroProfilingSource(ProfileSource):
    """End-to-end testbed mode: real micro-profiling over the numpy substrate.

    ``fleet_store`` optionally warm-starts streams that have no local
    history: their first window seeds the history-based pruning from the
    fleet-wide :class:`~repro.profiles.fleet_store.FleetProfileStore`
    curves for the stream's ``(dataset, drift-regime)`` key, so a new or
    migrated stream profiles the ``max_configs``-pruned candidate set
    instead of the full grid.
    """

    def __init__(
        self,
        dynamics: SubstrateDynamics,
        *,
        settings: MicroProfilerSettings = MicroProfilerSettings(),
        store: Optional[ProfileStore] = None,
        fleet_store: Optional[FleetProfileStore] = None,
        seed: SeedLike = None,
    ) -> None:
        self._dynamics = dynamics
        self._profiler = MicroProfiler(settings, seed=seed)
        self._store = store or ProfileStore()
        self._fleet_store = fleet_store

    @property
    def dynamics(self) -> SubstrateDynamics:
        return self._dynamics

    @property
    def store(self) -> ProfileStore:
        return self._store

    def profile(
        self,
        stream: VideoStream,
        window_index: int,
        configs: Sequence[RetrainingConfig],
    ) -> StreamWindowProfile:
        learner = self._dynamics._learner(stream)  # noqa: SLF001 - deliberate substrate access
        window = stream.window(window_index)
        history = self._store.history_for(stream.name, up_to_window=window_index)
        if not history and self._fleet_store is not None:
            # Warm start: no local observations yet, so prune from the
            # fleet's aggregated curves for this (dataset, drift-regime).
            history = self._fleet_store.curves_for(stream_profile_key(stream))
        start_accuracy = self._dynamics.start_accuracy(stream, window_index)
        profile = self._profiler.profile_window(
            learner.model,
            window,
            configs,
            start_accuracy=start_accuracy,
            history=history if history else None,
        )
        profile.stream_name = stream.name
        self._store.put(profile)
        return profile


class SharedProfileOracle(OracleProfileSource):
    """Oracle profiles with modelled micro-profiling cost and fleet warm start.

    The fleet simulator's profile source when cross-site profile sharing is
    enabled.  Accuracy estimates come from the same dynamics oracle as
    :class:`OracleProfileSource`, but each estimate additionally carries the
    GPU-time the micro-profiler *would* have spent producing it — the cost
    of ``settings.profiling_epochs`` early-termination epochs on a
    ``settings.data_fraction`` uniform sample (§4.3) — so the fleet can
    account profiling overhead and the savings sharing buys.

    A stream with no local history warm-starts from the
    :class:`~repro.profiles.fleet_store.FleetProfileStore` curves for its
    ``(dataset, drift-regime)`` key: the candidate grid is pruned to at most
    ``settings.max_configs`` configurations before profiling, and the
    difference to the full-grid cost is recorded as saved profiling time
    (drained per window via :meth:`pop_saved`).
    """

    def __init__(
        self,
        dynamics: StreamDynamics,
        fleet_store: FleetProfileStore,
        *,
        settings: MicroProfilerSettings = MicroProfilerSettings(),
        accuracy_error_std: float = 0.0,
        seed: SeedLike = None,
    ) -> None:
        super().__init__(dynamics, accuracy_error_std=accuracy_error_std, seed=seed)
        self._fleet_store = fleet_store
        self._settings = settings
        self._local = ProfileStore()
        self._saved: Dict[tuple, float] = {}

    @property
    def fleet_store(self) -> FleetProfileStore:
        return self._fleet_store

    @property
    def local_store(self) -> ProfileStore:
        return self._local

    def profiling_gpu_seconds(
        self, stream: VideoStream, window_index: int, config: RetrainingConfig
    ) -> float:
        """Modelled cost of micro-profiling ``config`` on one window.

        Profiling trains on ``min(data_fraction, config.data_fraction)`` of
        the window's data for ``profiling_epochs`` early epochs; full
        retraining cost is linear in both, so the micro-profiling cost is
        the full cost scaled by both ratios.
        """
        full = self._dynamics.retraining_gpu_seconds(stream, window_index, config)
        fraction = min(self._settings.data_fraction, config.data_fraction)
        epochs = min(self._settings.profiling_epochs, config.epochs)
        return full * (fraction / config.data_fraction) * (epochs / config.epochs)

    def pop_saved(self, stream_name: str, window_index: int) -> float:
        """Profiling GPU-seconds the fleet store saved for one (stream, window)."""
        return self._saved.pop((stream_name, window_index), 0.0)

    def profile(
        self,
        stream: VideoStream,
        window_index: int,
        configs: Sequence[RetrainingConfig],
    ) -> StreamWindowProfile:
        candidates = list(configs)
        warm_started = False
        has_local_history = any(
            window < window_index for window in self._local.windows_for(stream.name)
        )
        if not has_local_history:
            curves = self._fleet_store.curves_for(stream_profile_key(stream))
            if curves:
                space = ConfigurationSpace(retraining_configs=candidates)
                candidates = space.pruned(
                    curves, max_configs=self._settings.max_configs
                ).retraining_configs
                warm_started = len(candidates) < len(configs)
        profile = StreamWindowProfile(
            stream_name=stream.name,
            window_index=window_index,
            start_accuracy=clamp(self._dynamics.start_accuracy(stream, window_index)),
        )
        for config in candidates:
            profile.add(
                self._estimate(
                    stream,
                    window_index,
                    config,
                    profiling_gpu_seconds=self.profiling_gpu_seconds(
                        stream, window_index, config
                    ),
                )
            )
        if warm_started:
            full_grid_cost = sum(
                self.profiling_gpu_seconds(stream, window_index, config)
                for config in configs
            )
            self._saved[(stream.name, window_index)] = (
                full_grid_cost - profile.profiling_gpu_seconds
            )
        self._local.put(profile)
        return profile
