"""Resource-allocation vectors used by the schedulers.

The thief scheduler reasons about a flat mapping ``job id -> GPU fraction``
whose sum must not exceed the provisioned GPUs and whose entries move in
multiples of the allocation unit δ (§4.1–4.2).  :class:`AllocationVector`
implements that arithmetic (fair initialisation, stealing a quantum Δ,
validation) independently of which physical GPU each fraction lands on —
placement onto devices is a separate step (:mod:`repro.cluster.placement`).

Internally the vector lives on an **integer-quantum lattice**: every entry is
stored as an integer multiple of the quantum and floats only appear at the
API boundary (``get``/``set``/``as_dict``).  That makes steal arithmetic
drift-free (repeated ±Δ walks return to exactly the starting point), gives
exact hashable cache keys (:meth:`units`, :meth:`units_key`) for the
scheduler's memoisation, and turns steal/undo into O(1) integer updates
instead of full-dict copies.
"""

from __future__ import annotations

import math
from typing import Dict, Iterable, List, Mapping, Optional, Tuple

from ..exceptions import AllocationError
from .gpu import EPSILON


class AllocationVector:
    """A mapping from job id to GPU fraction, bounded by ``total_gpus``.

    ``allocations`` (if given) is quantised onto the lattice on entry —
    rounded down to a whole number of quanta, so any allocation whose float
    total fits the capacity stays valid; all subsequent arithmetic is exact
    integer maths.
    """

    __slots__ = ("total_gpus", "quantum", "total_units", "_units")

    def __init__(
        self,
        total_gpus: float,
        quantum: float = 0.1,
        allocations: Optional[Mapping[str, float]] = None,
    ) -> None:
        if total_gpus <= 0:
            raise AllocationError("total_gpus must be positive")
        if quantum <= 0 or quantum > total_gpus:
            raise AllocationError("quantum must be in (0, total_gpus]")
        self.total_gpus = float(total_gpus)
        self.quantum = float(quantum)
        #: How many whole quanta the provisioned GPUs hold.
        self.total_units = int(math.floor(total_gpus / quantum + 1e-9))
        self._units: Dict[str, int] = {}
        if allocations:
            for job_id, fraction in allocations.items():
                self._units[job_id] = self._quantize(job_id, fraction)
        self.validate()

    # --------------------------------------------------------------- helpers
    @classmethod
    def fair(
        cls,
        job_ids: Iterable[str],
        total_gpus: float,
        *,
        quantum: float = 0.1,
        remainder_priority: Optional[Iterable[str]] = None,
    ) -> "AllocationVector":
        """Evenly split the GPUs across all jobs (the thief's starting point).

        The split happens on the lattice: every job receives
        ``total_units // n`` quanta and the remainder is handed out one
        quantum at a time — in ``remainder_priority`` order if given (jobs it
        omits queue up after it in ``job_ids`` order), else in ``job_ids``
        order — so the result is always quantum-aligned and sums to exactly
        ``total_units`` quanta.  Under heavy contention (fewer quanta than
        jobs) the priority order decides which jobs start with anything at
        all; the thief scheduler uses it to hand every stream an inference
        quantum before any stream gets a retraining one.
        """
        ids = list(job_ids)
        if not ids:
            raise AllocationError("cannot build an allocation for zero jobs")
        vector = cls(total_gpus=total_gpus, quantum=quantum)
        share, remainder = divmod(vector.total_units, len(ids))
        for job in ids:
            vector._units[job] = share
        order = list(remainder_priority) if remainder_priority is not None else ids
        order.extend(job for job in ids if job not in set(order))
        for job in order[:remainder]:
            if job not in vector._units:
                raise AllocationError(f"remainder_priority names unknown job {job!r}")
            vector._units[job] += 1
        return vector

    def copy(self) -> "AllocationVector":
        clone = AllocationVector(total_gpus=self.total_gpus, quantum=self.quantum)
        clone._units = dict(self._units)
        return clone

    def _quantize(self, job_id: str, fraction: float) -> int:
        """Snap a float fraction onto the lattice, rounding *down*.

        Rounding down (with a tolerance for fractions that are exact
        multiples up to float error) guarantees that any allocation whose
        float total respects the capacity stays valid after quantisation:
        per-entry nearest-rounding could round several entries up and push
        the unit total over ``total_units``.
        """
        if fraction < -EPSILON:
            raise AllocationError(f"negative allocation for {job_id!r}")
        return max(0, int(math.floor(fraction / self.quantum + 1e-9)))

    # ------------------------------------------------------------- accessors
    def get(self, job_id: str) -> float:
        return self._units.get(job_id, 0) * self.quantum

    def units(self, job_id: str) -> int:
        """Exact allocation of ``job_id`` in whole quanta."""
        return self._units.get(job_id, 0)

    def job_ids(self) -> List[str]:
        return list(self._units.keys())

    def as_units_dict(self) -> Dict[str, int]:
        return dict(self._units)

    def units_key(self) -> Tuple[Tuple[str, int], ...]:
        """Exact, hashable snapshot of the lattice point (for memoisation)."""
        return tuple(sorted(self._units.items()))

    @property
    def allocated_units(self) -> int:
        return sum(self._units.values())

    @property
    def total_allocated(self) -> float:
        return self.allocated_units * self.quantum

    # ------------------------------------------------------------ operations
    def set(self, job_id: str, fraction: float) -> None:
        if fraction < -EPSILON:
            raise AllocationError("allocations must be non-negative")
        self.set_units(job_id, self._quantize(job_id, max(0.0, fraction)))

    def set_units(self, job_id: str, units: int) -> None:
        if units < 0:
            raise AllocationError("allocations must be non-negative")
        new_total = self.allocated_units - self.units(job_id) + units
        if new_total > self.total_units:
            raise AllocationError(
                f"allocation of {units * self.quantum:.3f} to {job_id!r} "
                f"exceeds {self.total_gpus} GPUs"
            )
        self._units[job_id] = units

    def steal(self, thief_id: str, victim_id: str, amount: float) -> bool:
        """Move ``amount`` GPUs from victim to thief.

        ``amount`` is rounded to the nearest whole number of quanta (at least
        one).  Returns ``False`` (and leaves the vector unchanged) if the
        victim does not have that much to give; this is the
        negative-allocation check of Algorithm 1 (lines 12–13).
        """
        if amount <= 0:
            raise AllocationError("steal amount must be positive")
        return self.steal_units(thief_id, victim_id, max(1, int(round(amount / self.quantum))))

    def steal_units(self, thief_id: str, victim_id: str, units: int) -> bool:
        """Move ``units`` whole quanta from victim to thief — O(1) and exact.

        The inverse move (``steal_units(victim, thief, units)``) restores the
        previous lattice point bit-for-bit, which is what lets the thief
        scheduler mutate-and-undo instead of copying the vector per candidate.
        """
        if thief_id == victim_id:
            raise AllocationError("a job cannot steal from itself")
        if units <= 0:
            raise AllocationError("steal amount must be positive")
        victim_units = self._units.get(victim_id, 0)
        if victim_units < units:
            return False
        self._units[victim_id] = victim_units - units
        self._units[thief_id] = self._units.get(thief_id, 0) + units
        return True

    def validate(self) -> None:
        """Raise if any entry is negative or the total exceeds the GPUs."""
        for job_id, units in self._units.items():
            if units < 0:
                raise AllocationError(f"negative allocation for {job_id!r}")
        if self.allocated_units > self.total_units:
            raise AllocationError(
                f"total allocation {self.total_allocated:.3f} exceeds {self.total_gpus} GPUs"
            )

    def as_dict(self) -> Dict[str, float]:
        return {job: units * self.quantum for job, units in self._units.items()}

    def __repr__(self) -> str:
        inner = ", ".join(
            f"{job}={units * self.quantum:.2f}" for job, units in sorted(self._units.items())
        )
        return f"AllocationVector({inner}; total={self.total_gpus})"
