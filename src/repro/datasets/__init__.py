"""Synthetic drifting video workloads (substitute for Waymo/Cityscapes/Urban)."""

from .classes import DEFAULT_CLASSES, ClassTaxonomy
from .drift import AppearanceDrift, ClassDistributionDrift, DriftProfile
from .features import FeatureSpaceSpec, FeatureSynthesizer
from .generators import (
    DATASET_NAMES,
    DatasetSpec,
    dataset_spec,
    make_stream,
    make_workload,
    mixed_workload,
)
from .labeling import GoldenModel
from .sampling import holdout_split
from .stream import VideoStream, WindowData

__all__ = [
    "DEFAULT_CLASSES",
    "ClassTaxonomy",
    "AppearanceDrift",
    "ClassDistributionDrift",
    "DriftProfile",
    "FeatureSpaceSpec",
    "FeatureSynthesizer",
    "DATASET_NAMES",
    "DatasetSpec",
    "dataset_spec",
    "make_stream",
    "make_workload",
    "mixed_workload",
    "GoldenModel",
    "holdout_split",
    "VideoStream",
    "WindowData",
]
