"""Partial-failure fault model for the fleet's WAN transfers.

The fleet's original fault vocabulary is binary: a
:class:`~repro.fleet.scenarios.SiteFailure` kills a whole site, and every
checkpoint migration and profile push is assumed to arrive intact.  Real
edge WANs lose packets: a checkpoint transfer can fail in flight and must be
retried (NS-2's lossy-link retry/backoff model, realised as discrete events
on the same calendar), and a retry budget eventually runs out — at which
point the migrated stream restarts *cold* at its destination, paying the
lost retraining benefit instead of blocking forever.

:class:`WanFaultModel` is the declarative knob set (per-attempt loss
probability, retry budget, exponential backoff), and
:func:`sample_transfer` turns one logical transfer into a deterministic
attempt chain — each failed attempt becomes a
:class:`~repro.fleet.calendar.TransferFailed` event, and the chain either
ends in an arrival or in a final give-up.  All sampling goes through the
caller's RNG in event order, so a seeded fleet replays bit-identically.

Everything here is opt-in: fleets built without
``make_fleet(wan_faults=...)`` never draw from the fault RNG and reproduce
the lossless engine bit for bit.
"""

from __future__ import annotations

import math
import numbers
from dataclasses import dataclass
from typing import Optional, Tuple

import numpy as np

from ..exceptions import FleetError


@dataclass(frozen=True)
class WanFaultModel:
    """Stochastic loss model applied to every WAN transfer of a fleet.

    Attributes
    ----------
    loss_rate:
        Per-attempt probability that a checkpoint transfer fails in flight.
        Composed with the endpoints' :attr:`~repro.cluster.network.
        NetworkLink.loss_rate` (independent loss processes), so a lossy
        satellite hop and a lossy backbone both contribute.
    max_retries:
        Failed checkpoint transfers are retried up to this many times
        (``max_retries + 1`` total attempts) before the migration gives up
        and the stream restarts cold at its destination.
    backoff_seconds / backoff_factor:
        Exponential backoff between attempts: retry ``k`` (1-based) waits
        ``backoff_seconds * backoff_factor ** (k - 1)`` after the failure.
    push_loss_rate:
        Per-push probability that a :class:`~repro.fleet.calendar.
        ProfilePush` is lost in flight.  Lost pushes are *not* retried —
        neighbours silently fall back to their local curves.  ``None``
        (default) reuses ``loss_rate``.
    seed:
        Seed of the fault RNG.  Draws happen in event order, so one seed
        fixes the whole fault realisation of a run.
    """

    loss_rate: float = 0.0
    max_retries: int = 3
    backoff_seconds: float = 5.0
    backoff_factor: float = 2.0
    push_loss_rate: Optional[float] = None
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise FleetError("loss_rate must be in [0, 1)")
        # Written to fail on NaN: a NaN or infinite backoff reaches the event
        # calendar as a retry that cannot fire, and a fractional count or
        # seed fails deep in ``range()`` or the RNG, mid-run.
        if not isinstance(self.max_retries, numbers.Integral) or self.max_retries < 0:
            raise FleetError(f"max_retries must be a non-negative integer, got {self.max_retries}")
        if not 0 <= self.backoff_seconds < math.inf:
            raise FleetError(
                f"backoff_seconds must be non-negative and finite, got {self.backoff_seconds}"
            )
        if not 1.0 <= self.backoff_factor < math.inf:
            raise FleetError(f"backoff_factor must be >= 1 and finite, got {self.backoff_factor}")
        if not isinstance(self.seed, numbers.Integral) or self.seed < 0:
            raise FleetError(f"seed must be a non-negative integer, got {self.seed}")
        if self.push_loss_rate is not None and not 0.0 <= self.push_loss_rate < 1.0:
            raise FleetError("push_loss_rate must be in [0, 1)")

    @property
    def effective_push_loss_rate(self) -> float:
        return self.loss_rate if self.push_loss_rate is None else self.push_loss_rate


def combined_loss(*rates: float) -> float:
    """Compose independent loss probabilities: ``1 - prod(1 - p_i)``."""
    survive = 1.0
    for rate in rates:
        if not 0.0 <= rate <= 1.0:
            raise FleetError("loss rates must be in [0, 1]")
        survive *= 1.0 - rate
    return 1.0 - survive


@dataclass(frozen=True)
class TransferAttemptFailure:
    """One failed attempt inside a transfer's retry chain."""

    #: 1-based attempt number.
    attempt: int
    #: Absolute simulated time the attempt was detected as failed (its
    #: would-have-been arrival instant).
    failed_at: float
    #: Wall-clock seconds this failure cost: the wasted transfer plus the
    #: backoff before the next attempt (0 backoff after the final failure).
    wasted_seconds: float
    #: True when this failure exhausted the retry budget (the give-up).
    final: bool


@dataclass(frozen=True)
class TransferOutcome:
    """The realised fate of one logical WAN transfer.

    ``ends_at`` is the instant the transfer saga is over: the arrival when
    ``delivered``, the final failure otherwise.  Either way the destination
    cannot act on the stream's checkpoint before ``ends_at`` — a delivered
    transfer hands over the checkpoint then; a failed one restarts the
    stream cold then.
    """

    failures: Tuple[TransferAttemptFailure, ...]
    arrival: Optional[float]
    ends_at: float
    delivered: bool

    @property
    def retries(self) -> int:
        """Failed attempts that were followed by another attempt."""
        return sum(1 for failure in self.failures if not failure.final)

    @property
    def wasted_seconds(self) -> float:
        return float(sum(failure.wasted_seconds for failure in self.failures))


def sample_transfer(
    rng: np.random.Generator,
    *,
    departed: float,
    transfer_seconds: float,
    loss_rate: float,
    model: WanFaultModel,
) -> TransferOutcome:
    """Realise one transfer's attempt chain against ``model``.

    Attempt ``k`` (1-based) departs after the previous attempt's failure
    plus its backoff and completes ``transfer_seconds`` later; each attempt
    independently fails with probability ``loss_rate``.  Exactly one RNG
    draw is made per attempt, in attempt order, so a fleet that samples
    transfers in event order replays bit-identically from the fault seed.
    """
    if transfer_seconds < 0:
        raise FleetError("transfer_seconds must be non-negative")
    failures = []
    start = departed
    finish = departed
    for attempt in range(1, model.max_retries + 2):
        finish = start + transfer_seconds
        if rng.random() >= loss_rate:
            return TransferOutcome(
                failures=tuple(failures), arrival=finish, ends_at=finish, delivered=True
            )
        final = attempt == model.max_retries + 1
        backoff = (
            0.0 if final else model.backoff_seconds * model.backoff_factor ** (attempt - 1)
        )
        failures.append(
            TransferAttemptFailure(
                attempt=attempt,
                failed_at=finish,
                wasted_seconds=transfer_seconds + backoff,
                final=final,
            )
        )
        start = finish + backoff
    return TransferOutcome(
        failures=tuple(failures), arrival=None, ends_at=finish, delivered=False
    )
