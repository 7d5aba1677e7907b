"""Edge-server substrate: GPUs, allocations, job ids, placement and WAN links."""

from .edge_server import EdgeServer, EdgeServerSpec
from .gpu import EPSILON, GPU, GPUFleet
from .jobs import inference_job_id, retraining_job_id
from .network import (
    CELLULAR_4G,
    CELLULAR_4G_X2,
    SATELLITE,
    STANDARD_LINKS,
    NetworkLink,
    training_data_megabits,
)
from .placement import Placement, place_jobs, quantize_allocations
from .resources import AllocationVector

__all__ = [
    "EdgeServer",
    "EdgeServerSpec",
    "EPSILON",
    "GPU",
    "GPUFleet",
    "inference_job_id",
    "retraining_job_id",
    "CELLULAR_4G",
    "CELLULAR_4G_X2",
    "SATELLITE",
    "STANDARD_LINKS",
    "NetworkLink",
    "training_data_megabits",
    "Placement",
    "place_jobs",
    "quantize_allocations",
    "AllocationVector",
]
