"""Configuration spaces and Pareto-based pruning.

The thief scheduler iterates over a list Γ of retraining configurations and a
list Λ of inference configurations per video stream (§4.2).  Exhaustive grids
are large; the micro-profiler "prunes out those configurations ... that are
usually significantly distant from the configurations on the Pareto curve of
the resource-accuracy profile" (§4.3).  :class:`ConfigurationSpace` owns both
lists and implements that pruning given observed (cost, accuracy) points.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Mapping, Optional, Tuple

from ..exceptions import ConfigurationError
from ..utils.math_utils import is_pareto_dominated
from .inference import InferenceConfig, default_inference_configs
from .retraining import RetrainingConfig, default_retraining_grid, validate_unique


@dataclass
class ConfigurationSpace:
    """The per-stream decision space (Γ, Λ) handed to the scheduler."""

    retraining_configs: List[RetrainingConfig] = field(default_factory=default_retraining_grid)
    inference_configs: List[InferenceConfig] = field(default_factory=default_inference_configs)

    def __post_init__(self) -> None:
        self.retraining_configs = validate_unique(self.retraining_configs)
        if not self.inference_configs:
            raise ConfigurationError("at least one inference configuration is required")

    # ------------------------------------------------------------ inspection
    def __len__(self) -> int:
        return len(self.retraining_configs) * len(self.inference_configs)

    def describe(self) -> Dict[str, int]:
        """Small summary used in logs and benchmark headers."""
        return {
            "retraining_configs": len(self.retraining_configs),
            "inference_configs": len(self.inference_configs),
            "joint_size": len(self),
        }

    # --------------------------------------------------------------- pruning
    def pruned(
        self,
        observed_profile: Mapping[RetrainingConfig, Tuple[float, float]],
        *,
        max_configs: Optional[int] = 18,
        dominance_tolerance: float = 0.02,
    ) -> "ConfigurationSpace":
        """Return a space with clearly-dominated retraining configs removed.

        ``observed_profile`` maps each retraining configuration to a
        ``(gpu_seconds, accuracy)`` pair observed historically (previous
        windows or the hold-out profiling run the paper uses to build Figure
        3b).  A configuration survives if it is within ``dominance_tolerance``
        of the Pareto frontier; if more than ``max_configs`` survive, the ones
        closest to the frontier (by accuracy deficit at comparable cost) are
        kept.  Configurations that were never observed are conservatively
        kept.
        """
        observed = {cfg: observed_profile[cfg] for cfg in self.retraining_configs if cfg in observed_profile}
        unobserved = [cfg for cfg in self.retraining_configs if cfg not in observed_profile]
        if not observed:
            return ConfigurationSpace(list(self.retraining_configs), list(self.inference_configs))

        survivors: List[Tuple[RetrainingConfig, float]] = []
        for cfg, point in observed.items():
            others = [p for other_cfg, p in observed.items() if other_cfg is not cfg]
            if not is_pareto_dominated(point, others, tolerance=dominance_tolerance):
                survivors.append((cfg, 0.0))
            else:
                # Distance from the frontier: how much better the best
                # same-or-cheaper configuration is.
                best_at_cost = max(
                    (acc for cost, acc in others if cost <= point[0] + dominance_tolerance),
                    default=point[1],
                )
                survivors.append((cfg, max(0.0, best_at_cost - point[1])))
        survivors.sort(key=lambda item: item[1])
        kept = [cfg for cfg, deficit in survivors if deficit <= dominance_tolerance]
        if max_configs is not None and len(kept) > max_configs:
            kept = kept[:max_configs]
        elif max_configs is not None and len(kept) < min(max_configs, len(survivors)):
            # Backfill with the near-frontier configurations up to the cap.
            for cfg, _deficit in survivors:
                if cfg not in kept:
                    kept.append(cfg)
                if len(kept) >= max_configs:
                    break
        kept_set = {cfg.key() for cfg in kept}
        retained = [cfg for cfg in self.retraining_configs if cfg.key() in kept_set]
        retained.extend(unobserved)
        if not retained:
            retained = list(self.retraining_configs)
        return ConfigurationSpace(retained, list(self.inference_configs))

    # --------------------------------------------------------------- helpers
    def as_dict(self) -> Dict:
        return {
            "retraining_configs": [cfg.as_dict() for cfg in self.retraining_configs],
            "inference_configs": [cfg.as_dict() for cfg in self.inference_configs],
        }

    @classmethod
    def from_dict(cls, payload: Dict) -> "ConfigurationSpace":
        return cls(
            retraining_configs=[RetrainingConfig.from_dict(item) for item in payload["retraining_configs"]],
            inference_configs=[InferenceConfig.from_dict(item) for item in payload["inference_configs"]],
        )

    @classmethod
    def default(cls) -> "ConfigurationSpace":
        """The default grid used throughout the evaluation benchmarks."""
        return cls()

    @classmethod
    def small(cls) -> "ConfigurationSpace":
        """A compact space for unit tests and quick examples."""
        return cls(
            retraining_configs=default_retraining_grid(
                epochs=(5, 15, 30),
                layers_trained=(0.5, 1.0),
                data_fractions=(0.5, 1.0),
            ),
            inference_configs=default_inference_configs(
                sampling_rates=(1.0, 0.5, 0.25),
                resolution_scales=(1.0, 0.5),
            ),
        )
