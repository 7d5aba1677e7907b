"""Exception hierarchy for the Ekya reproduction library.

All library-specific errors derive from :class:`ReproError` so that callers
can catch a single base class when interacting with the public API.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by this library."""


class ConfigurationError(ReproError):
    """A retraining or inference configuration is invalid or inconsistent."""


class AllocationError(ReproError):
    """A GPU allocation request violates capacity or granularity constraints."""


class PlacementError(ReproError):
    """Jobs could not be packed onto the available GPUs."""


class SchedulingError(ReproError):
    """The scheduler was asked to operate on an inconsistent problem instance."""


class ProfilingError(ReproError):
    """Micro-profiling failed, e.g. not enough observations to fit a curve."""


class DatasetError(ReproError):
    """A synthetic workload generator was configured inconsistently."""


class ModelError(ReproError):
    """The training substrate was used incorrectly (shape mismatch, not fitted...)."""


class SimulationError(ReproError):
    """The trace-driven simulator hit an inconsistent state."""


class FleetError(ReproError):
    """The fleet orchestration layer hit an inconsistent state (e.g. a stream
    admitted to an unknown site, or no healthy site left to evacuate to)."""


class AnalysisError(ReproError):
    """The determinism analyzer could not complete a pass (unparseable
    source, a missing cross-check target such as ``docs/events.md``...)."""


class PurityViolationError(AnalysisError):
    """The plan-phase purity sanitizer observed a mutation: state that
    existed before a ``plan_window`` / control-policy scan was modified or
    deleted by it.  Plan phases must only *read* engine state (lazy
    memoisation — new cache entries — is allowed); committing belongs to the
    settle phase."""
