"""Trace-driven simulation of joint retraining and inference."""

from .experiments import (
    DEFAULT_PROFILER_ERROR_STD,
    POLICY_NAMES,
    ExperimentSetup,
    accuracy_vs_gpus,
    accuracy_vs_streams,
    build_policy,
    capacity_table,
    compare_policies,
    delta_sensitivity,
    error_sensitivity,
    make_config_space,
    make_setup,
    run_experiment,
)
from .metrics import (
    DEFAULT_CAPACITY_THRESHOLD,
    AccuracyComparison,
    capacity,
    compare_to_baselines,
    gpus_needed_for_accuracy,
    mean_accuracy,
    scaling_factor,
)
from .simulator import SimulationResult, Simulator, StreamWindowOutcome, WindowResult

__all__ = [
    "DEFAULT_PROFILER_ERROR_STD",
    "POLICY_NAMES",
    "ExperimentSetup",
    "accuracy_vs_gpus",
    "accuracy_vs_streams",
    "build_policy",
    "capacity_table",
    "compare_policies",
    "delta_sensitivity",
    "error_sensitivity",
    "make_config_space",
    "make_setup",
    "run_experiment",
    "DEFAULT_CAPACITY_THRESHOLD",
    "AccuracyComparison",
    "capacity",
    "compare_to_baselines",
    "gpus_needed_for_accuracy",
    "mean_accuracy",
    "scaling_factor",
    "SimulationResult",
    "Simulator",
    "StreamWindowOutcome",
    "WindowResult",
]
