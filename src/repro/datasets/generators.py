"""Workload generators mirroring the paper's four video datasets.

The evaluation (§6.1) uses two dashcam datasets (Waymo Open, Cityscapes) and
two stationary-camera datasets collected over 24 hours ("Urban Building" and
"Urban Traffic").  We cannot ship those videos, so each dataset is replaced by
a synthetic generator whose drift characteristics match the qualitative
behaviour the paper reports:

* **cityscapes** — dashcam, moderate class-distribution drift with occasional
  class dropout (Figure 2a) and steady appearance drift as the car moves
  through neighbourhoods.
* **waymo** — dashcam, higher appearance drift (many cities, day/night) and
  regime switches.
* **urban_building** — static camera, slow drift dominated by diurnal cycles.
* **urban_traffic** — static traffic camera, diurnal cycles plus rush-hour
  regime switches (stronger class-mix swings than the building camera).

Every generated stream is deterministic in ``(dataset, stream index, seed)``.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Sequence

from ..exceptions import DatasetError
from ..utils.rng import stable_seed
from .classes import ClassTaxonomy, DEFAULT_CLASSES
from .drift import DriftProfile
from .features import FeatureSpaceSpec
from .labeling import GoldenModel
from .stream import VideoStream

#: Canonical dataset names accepted by :func:`make_workload`.
DATASET_NAMES = ("cityscapes", "waymo", "urban_building", "urban_traffic")


@dataclass(frozen=True)
class DatasetSpec:
    """Static description of one synthetic dataset family."""

    name: str
    drift_profile: DriftProfile
    window_duration: float = 200.0
    samples_per_window: int = 400
    eval_samples_per_window: int = 300
    feature_spec: FeatureSpaceSpec = FeatureSpaceSpec()

    def __post_init__(self) -> None:
        if not self.name:
            raise DatasetError("dataset name must be non-empty")


_DATASET_SPECS: Dict[str, DatasetSpec] = {
    "cityscapes": DatasetSpec(
        name="cityscapes",
        drift_profile=DriftProfile(
            distribution_volatility=0.40,
            appearance_volatility=0.22,
            dropout_probability=0.15,
        ),
    ),
    "waymo": DatasetSpec(
        name="waymo",
        drift_profile=DriftProfile(
            distribution_volatility=0.30,
            appearance_volatility=0.30,
            regime_period=4,
            dropout_probability=0.10,
        ),
    ),
    "urban_building": DatasetSpec(
        name="urban_building",
        drift_profile=DriftProfile(
            distribution_volatility=0.15,
            appearance_volatility=0.11,
            dropout_probability=0.05,
            diurnal=True,
        ),
    ),
    "urban_traffic": DatasetSpec(
        name="urban_traffic",
        drift_profile=DriftProfile(
            distribution_volatility=0.25,
            appearance_volatility=0.16,
            regime_period=6,
            dropout_probability=0.08,
            diurnal=True,
        ),
    ),
}


def dataset_spec(name: str) -> DatasetSpec:
    """Look up the spec for a dataset family by name."""
    try:
        return _DATASET_SPECS[name]
    except KeyError as exc:
        raise DatasetError(
            f"unknown dataset {name!r}; expected one of {sorted(_DATASET_SPECS)}"
        ) from exc


def make_stream(
    dataset: str,
    stream_index: int,
    *,
    seed: int = 0,
    window_duration: Optional[float] = None,
    samples_per_window: Optional[int] = None,
    eval_samples_per_window: Optional[int] = None,
    golden_model: Optional[GoldenModel] = None,
    taxonomy: Optional[ClassTaxonomy] = None,
) -> VideoStream:
    """Create one deterministic synthetic stream of a dataset family."""
    if stream_index < 0:
        raise DatasetError("stream_index must be non-negative")
    spec = dataset_spec(dataset)
    stream_seed = stable_seed("dataset", dataset, stream_index, base=seed)
    return VideoStream(
        name=f"{dataset}-{stream_index}",
        drift_profile=spec.drift_profile,
        taxonomy=taxonomy or ClassTaxonomy(DEFAULT_CLASSES),
        feature_spec=spec.feature_spec,
        window_duration=window_duration if window_duration is not None else spec.window_duration,
        samples_per_window=samples_per_window if samples_per_window is not None else spec.samples_per_window,
        eval_samples_per_window=(
            eval_samples_per_window
            if eval_samples_per_window is not None
            else spec.eval_samples_per_window
        ),
        golden_model=golden_model,
        seed=stream_seed,
    )


def make_workload(
    dataset: str,
    num_streams: int,
    *,
    seed: int = 0,
    window_duration: Optional[float] = None,
    samples_per_window: Optional[int] = None,
    eval_samples_per_window: Optional[int] = None,
) -> List[VideoStream]:
    """Create ``num_streams`` streams of the given dataset family.

    This is the entry point the benchmark harness uses: e.g. 10 Cityscapes
    streams for Figure 7a, or 2–8 Waymo streams for Figure 6b.
    """
    if num_streams < 1:
        raise DatasetError("num_streams must be >= 1")
    return [
        make_stream(
            dataset,
            index,
            seed=seed,
            window_duration=window_duration,
            samples_per_window=samples_per_window,
            eval_samples_per_window=eval_samples_per_window,
        )
        for index in range(num_streams)
    ]


def mixed_workload(
    datasets: Sequence[str],
    streams_per_dataset: int,
    *,
    seed: int = 0,
    window_duration: Optional[float] = None,
) -> List[VideoStream]:
    """Interleave streams from several dataset families.

    Useful for examples and stress tests: an edge server often serves a mix of
    camera types (building cameras plus traffic intersections).
    """
    if streams_per_dataset < 1:
        raise DatasetError("streams_per_dataset must be >= 1")
    streams: List[VideoStream] = []
    for dataset in datasets:
        streams.extend(
            make_workload(
                dataset,
                streams_per_dataset,
                seed=seed,
                window_duration=window_duration,
            )
        )
    return streams
