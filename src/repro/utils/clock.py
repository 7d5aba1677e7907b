"""Injectable monotonic clocks for runtime measurement.

Schedulers and the fleet orchestration layer report how long their decision
paths took (``scheduler_runtime_seconds``, fleet sweep wall-clock).  Reading
``time.perf_counter()`` inline makes those numbers impossible to compare
across runs in tests; routing every measurement through a :class:`Clock`
lets production code keep the real monotonic clock while tests inject a
:class:`ManualClock` and get bit-identical, deterministic results.
"""

from __future__ import annotations

import abc
import time

from ..exceptions import SimulationError


class Clock(abc.ABC):
    """Source of monotonic timestamps in seconds."""

    @abc.abstractmethod
    def now(self) -> float:
        """Current monotonic time in seconds."""


class SystemClock(Clock):
    """The process's real monotonic clock (``time.perf_counter``)."""

    def now(self) -> float:
        return time.perf_counter()


class ManualClock(Clock):
    """A clock that only moves when told to — deterministic by construction.

    Parameters
    ----------
    start:
        Initial timestamp.
    tick:
        Seconds the clock advances *after* each :meth:`now` call.  The default
        of 0.0 freezes time entirely, which makes any elapsed-time measurement
        exactly zero — the right choice when simulation results must be
        comparable field-for-field across runs.
    """

    def __init__(self, start: float = 0.0, tick: float = 0.0) -> None:
        if tick < 0:
            raise SimulationError("tick must be non-negative")
        self._current = float(start)
        self._tick = float(tick)

    def now(self) -> float:
        value = self._current
        self._current += self._tick
        return value

    def advance(self, seconds: float) -> None:
        """Move the clock forward by ``seconds``."""
        if seconds < 0:
            raise SimulationError("cannot advance a monotonic clock backwards")
        self._current += float(seconds)


#: Default clock used when none is injected.
SYSTEM_CLOCK = SystemClock()


class Stopwatch:
    """Elapsed-time measurement against an injectable clock."""

    def __init__(self, clock: Clock | None = None) -> None:
        self._clock = clock if clock is not None else SYSTEM_CLOCK
        self._start = self._clock.now()

    def elapsed(self) -> float:
        """Seconds since construction."""
        return self._clock.now() - self._start
