"""Reproduction of "Ekya: Continuous Learning of Video Analytics Models on
Edge Compute Servers" (NSDI 2022).

The package is organised around the paper's structure:

* :mod:`repro.datasets` — synthetic drifting video workloads (Cityscapes /
  Waymo / Urban Building / Urban Traffic stand-ins) and golden-model labelling.
* :mod:`repro.models` — the trainable edge-DNN substrate (numpy MLPs) and
  continual learning with exemplar replay.
* :mod:`repro.configs` — retraining and inference configuration spaces.
* :mod:`repro.cluster` — GPUs, fractional allocations, placement, job ids
  and WAN links of the edge server.
* :mod:`repro.profiles` — resource/accuracy profiles and accuracy dynamics.
* :mod:`repro.core` — Ekya itself: the thief scheduler, the micro-profiler,
  the per-window controller and every baseline the paper compares against.
* :mod:`repro.simulation` — the trace-driven simulator and the experiment
  harness that regenerates each table and figure of the evaluation.
* :mod:`repro.fleet` — multi-site fleet orchestration above the paper's
  single server: stream admission, WAN-aware migration, failure scenarios.

Quickstart::

    from repro.simulation import run_experiment

    result = run_experiment("ekya", dataset="cityscapes", num_streams=4,
                            num_gpus=1, num_windows=5)
    print(result.mean_accuracy)
"""

from . import cluster, configs, core, datasets, fleet, models, profiles, simulation, utils
from .cluster import EdgeServer, EdgeServerSpec
from .configs import ConfigurationSpace, InferenceConfig, RetrainingConfig
from .core import EkyaPolicy, MicroProfiler, OracleProfileSource, ThiefScheduler, UniformPolicy
from .datasets import VideoStream, make_workload
from .exceptions import ReproError
from .fleet import FleetController, FleetSimulator, make_fleet
from .profiles import AnalyticDynamics, SubstrateDynamics
from .simulation import Simulator, run_experiment

__version__ = "0.1.0"

__all__ = [
    "cluster",
    "configs",
    "core",
    "datasets",
    "fleet",
    "models",
    "profiles",
    "simulation",
    "utils",
    "EdgeServer",
    "EdgeServerSpec",
    "ConfigurationSpace",
    "InferenceConfig",
    "RetrainingConfig",
    "EkyaPolicy",
    "MicroProfiler",
    "OracleProfileSource",
    "ThiefScheduler",
    "UniformPolicy",
    "VideoStream",
    "make_workload",
    "ReproError",
    "FleetController",
    "FleetSimulator",
    "make_fleet",
    "AnalyticDynamics",
    "SubstrateDynamics",
    "Simulator",
    "run_experiment",
    "__version__",
]
