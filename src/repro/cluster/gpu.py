"""GPU devices with MPS-style fractional sharing.

Edge servers carry a small number of consumer-grade GPUs that must be shared
by all inference and retraining containers (Figure 1).  Ekya relies on
Nvidia MPS to let several processes share one GPU, so a :class:`GPU` here
tracks fractional reservations per job and enforces that the total never
exceeds the device.  Fractions are multiples of the allocation unit δ.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict

from ..exceptions import AllocationError

#: Numerical slack when comparing fractional allocations.
EPSILON = 1e-9


@dataclass
class GPU:
    """One physical GPU with fractional (MPS-style) reservations."""

    gpu_id: int
    capacity: float = 1.0
    reservations: Dict[str, float] = field(default_factory=dict)

    def __post_init__(self) -> None:
        if self.gpu_id < 0:
            raise AllocationError("gpu_id must be non-negative")
        if self.capacity <= 0:
            raise AllocationError("capacity must be positive")

    # ------------------------------------------------------------- accessors
    @property
    def allocated(self) -> float:
        """Total fraction currently reserved on this GPU."""
        return float(sum(self.reservations.values()))

    @property
    def free(self) -> float:
        """Unreserved fraction of this GPU."""
        return max(0.0, self.capacity - self.allocated)

    def utilization(self) -> float:
        """Reserved share of capacity in [0, 1]."""
        return min(1.0, self.allocated / self.capacity)

    def reservation_for(self, job_id: str) -> float:
        return float(self.reservations.get(job_id, 0.0))

    # ------------------------------------------------------------ operations
    def reserve(self, job_id: str, fraction: float) -> None:
        """Reserve ``fraction`` of this GPU for ``job_id``.

        A job may hold at most one reservation per GPU; reserving again
        replaces the previous amount (used when allocations change between
        retraining windows).
        """
        if fraction < 0:
            raise AllocationError("fraction must be non-negative")
        current = self.reservations.get(job_id, 0.0)
        if self.allocated - current + fraction > self.capacity + EPSILON:
            raise AllocationError(
                f"GPU {self.gpu_id}: reserving {fraction:.3f} for {job_id!r} exceeds capacity "
                f"(allocated {self.allocated:.3f} of {self.capacity:.3f})"
            )
        if fraction == 0:
            self.reservations.pop(job_id, None)
        else:
            self.reservations[job_id] = float(fraction)

    def release_all(self) -> None:
        self.reservations.clear()

    def __repr__(self) -> str:
        return f"GPU(id={self.gpu_id}, allocated={self.allocated:.2f}/{self.capacity:.2f})"


class GPUFleet:
    """The edge server's set of GPUs."""

    def __init__(self, num_gpus: int) -> None:
        if num_gpus < 1:
            raise AllocationError("an edge server needs at least one GPU")
        self._gpus = [GPU(gpu_id=i) for i in range(num_gpus)]

    # ------------------------------------------------------------- accessors
    @property
    def gpus(self) -> list:
        return list(self._gpus)

    @property
    def num_gpus(self) -> int:
        return len(self._gpus)

    @property
    def total_capacity(self) -> float:
        return float(sum(gpu.capacity for gpu in self._gpus))

    @property
    def total_allocated(self) -> float:
        return float(sum(gpu.allocated for gpu in self._gpus))

    def gpu(self, gpu_id: int) -> GPU:
        for gpu in self._gpus:
            if gpu.gpu_id == gpu_id:
                return gpu
        raise AllocationError(f"no GPU with id {gpu_id}")

    def release_all(self) -> None:
        for gpu in self._gpus:
            gpu.release_all()

    def __repr__(self) -> str:
        return f"GPUFleet(num_gpus={self.num_gpus}, allocated={self.total_allocated:.2f})"
