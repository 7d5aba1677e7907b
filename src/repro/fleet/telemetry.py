"""Bounded-memory telemetry plane for the fleet simulator.

The event calendar scales the *compute* side of a fleet run, but telemetry
was still O(events) Python objects: every processed :class:`SimEvent` kept
alive in a list, plus fresh :class:`~repro.fleet.metrics.SiteWindowStats`
dataclasses per (site, window).  At the ROADMAP's 256-site / 10k-stream
target that is millions of objects — memory, not CPU, becomes the wall.

This module packs the whole observability surface into numpy-backed,
fixed-layout storage (the MicroView metrics-envelope idiom):

``EventRing``
    A fixed-capacity ring of 32-byte structured envelopes
    ``(time, kind, flag, site, stream, aux, value)`` plus a parallel
    payload-slot list for the few events that carry rich references
    (scenario objects, migration records, pushed profile batches).  Oldest
    entries are evicted and counted — ``events_dropped`` is exact.  A
    compatibility reader decodes the live window back into the *same*
    frozen ``SimEvent`` dataclasses, served as a cached immutable tuple so
    repeated ``event_trace`` reads inside loops are O(1), not O(n).

``AdaptiveStreamSampler``
    Per-stream accuracy series under adaptive sampling: each window the
    streams are ranked by absolute accuracy delta, the top-k movers are
    sampled densely into bounded per-stream rings and the stable tail at
    1-in-N (staggered so tail samples spread across windows).  Exact
    aggregates (count, running mean, p10 via a P² quantile estimator that
    stays exact below ``exact_quantile_limit`` samples) are maintained for
    *every* stream regardless of sampling, so summary metrics never lose
    precision — only raw series are thinned.

``SiteStatsTable``
    One preallocated structured array holding every (site, window) counter
    row; :class:`SiteStatsView` materialises
    :class:`~repro.fleet.metrics.SiteWindowStats` dataclasses lazily (and
    caches them), so ``FleetWindowResult.site_stats``, ``summary()``, the
    golden-parity fixture and every benchmark gate see bit-identical
    values without per-window dataclass churn.

``TelemetryPlane``
    The facade the simulator writes into, plus the Prometheus-style text
    exposition (``export_text``) covering every ``summary()`` key.

The plane's sizes are the module constants below, sized so nothing evicts
at current benchmark scales (the ring holds 65 536 envelopes ≈ 2 MiB);
parity gates therefore stay bit-identical while the footprint is flat in
the number of windows simulated.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Dict, Iterable, List, Mapping, Optional, Sequence, Tuple

import numpy as np

from ..exceptions import FleetError
from .calendar import (
    ControlTick,
    GpuRecovered,
    InferenceReconfigured,
    MigrationStarted,
    ProfilePush,
    RetrainingComplete,
    ScenarioTrigger,
    SimEvent,
    SiteRecovery,
    TransferArrival,
    TransferFailed,
    WanRestore,
    WindowBoundary,
)
from .metrics import SiteWindowStats

__all__ = [
    "EVENT_DTYPE",
    "SITE_STATS_DTYPE",
    "EVENT_RING_CAPACITY",
    "SERIES_CAPACITY",
    "TOP_K_MOVERS",
    "TAIL_STRIDE",
    "EXACT_QUANTILE_LIMIT",
    "SITE_STATS_CAPACITY",
    "EventRing",
    "P2Quantile",
    "AdaptiveStreamSampler",
    "SiteStatsTable",
    "SiteStatsView",
    "TelemetryPlane",
]


# The plane's sizes.  None evicts at current benchmark scales: the event
# ring covers a 16-site x 400-stream x 30-window run with an order of
# magnitude of headroom, so telemetry (always on) changes no observable
# result, only bounds memory.

#: Envelopes the event ring holds before evicting the oldest.
EVENT_RING_CAPACITY = 65536
#: Raw ``(window, value)`` points kept per stream series.
SERIES_CAPACITY = 64
#: Streams sampled densely per window batch (the biggest movers).
TOP_K_MOVERS = 8
#: Stable-tail streams record one point every this many windows.
TAIL_STRIDE = 4
#: Samples a P² estimator buffers (and answers exactly) before switching to
#: O(1) streaming markers.
EXACT_QUANTILE_LIMIT = 64
#: Initial (site, window) rows preallocated in the stats table.
SITE_STATS_CAPACITY = 512


# --------------------------------------------------------------------------
# Event envelopes
# --------------------------------------------------------------------------

#: Fixed-layout event envelope: 32 bytes per event, aligned.  ``site`` and
#: ``stream`` are 1-based ids into the plane's intern tables (0 = empty
#: string); ``kind`` selects the decoder; ``flag``/``aux``/``value`` carry
#: the event-specific scalars (see the ``_KIND_*`` encoders below).
EVENT_DTYPE = np.dtype(
    [
        ("time", "f8"),
        ("kind", "u1"),
        ("flag", "u1"),
        ("site", "u2"),
        ("stream", "u4"),
        ("aux", "i4"),
        ("value", "f8"),
    ],
    align=True,
)

_KIND_SITE_RECOVERY = 1
_KIND_WAN_RESTORE = 2
_KIND_GPU_RECOVERED = 3
_KIND_SCENARIO_TRIGGER = 4
_KIND_TRANSFER_ARRIVAL = 5
_KIND_TRANSFER_FAILED = 6
_KIND_RETRAINING_COMPLETE = 7
_KIND_INFERENCE_RECONFIGURED = 8
_KIND_PROFILE_PUSH = 9
_KIND_CONTROL_TICK = 10
_KIND_WINDOW_BOUNDARY = 11
_KIND_MIGRATION_STARTED = 12

_KIND_BY_TYPE = {
    SiteRecovery: _KIND_SITE_RECOVERY,
    WanRestore: _KIND_WAN_RESTORE,
    GpuRecovered: _KIND_GPU_RECOVERED,
    ScenarioTrigger: _KIND_SCENARIO_TRIGGER,
    TransferArrival: _KIND_TRANSFER_ARRIVAL,
    TransferFailed: _KIND_TRANSFER_FAILED,
    RetrainingComplete: _KIND_RETRAINING_COMPLETE,
    InferenceReconfigured: _KIND_INFERENCE_RECONFIGURED,
    ProfilePush: _KIND_PROFILE_PUSH,
    ControlTick: _KIND_CONTROL_TICK,
    WindowBoundary: _KIND_WINDOW_BOUNDARY,
    MigrationStarted: _KIND_MIGRATION_STARTED,
}

#: ``InferenceReconfigured.reason`` is a small closed vocabulary — encoded
#: into ``flag`` so the envelope needs no payload slot.  Unknown reasons
#: (a future event producer) fall back to the payload slot losslessly.
_RECONFIGURE_REASONS = ("retraining_complete", "retraining_cancelled", "gpu_failure")
_RECONFIGURE_REASON_IDS = {reason: i for i, reason in enumerate(_RECONFIGURE_REASONS)}
_REASON_IN_PAYLOAD = 255

#: ``TransferFailed`` flag bits.
_FLAG_FINAL = 1
_FLAG_PUSH_KIND = 2


class _StringInterner:
    """Bidirectional string ↔ small-int table (id 0 is the empty string)."""

    __slots__ = ("_ids", "_names")

    def __init__(self) -> None:
        self._ids: Dict[str, int] = {"": 0}
        self._names: List[str] = [""]

    def intern(self, name: str) -> int:
        ident = self._ids.get(name)
        if ident is None:
            ident = len(self._names)
            self._ids[name] = ident
            self._names.append(name)
        return ident

    def name(self, ident: int) -> str:
        return self._names[ident]

    def __len__(self) -> int:
        return len(self._names)


class EventRing:
    """Fixed-capacity ring of :data:`EVENT_DTYPE` envelopes.

    Appends are O(1); once full, each append evicts the oldest envelope and
    increments :attr:`dropped` — the counter is exact
    (``dropped == max(0, recorded - capacity)`` always holds).  ``records``
    iterates the live window oldest-first.  A parallel payload-slot list
    keeps the few per-event Python references (owner scenario events,
    migration records, profile batches) alive exactly as long as their
    envelope, so memory stays bounded by the capacity.
    """

    __slots__ = ("_buf", "_payloads", "_head", "_count", "_recorded", "version")

    def __init__(self, capacity: int) -> None:
        if capacity < 1:
            raise FleetError("event ring capacity must be >= 1")
        self._buf = np.zeros(capacity, dtype=EVENT_DTYPE)
        self._payloads: List[object] = [None] * capacity
        self._head = 0  # next write slot
        self._count = 0
        self._recorded = 0
        #: Bumped on every append; readers cache against it.
        self.version = 0

    @property
    def capacity(self) -> int:
        return len(self._buf)

    def __len__(self) -> int:
        return self._count

    @property
    def recorded(self) -> int:
        """Total envelopes ever appended (live + evicted)."""
        return self._recorded

    @property
    def dropped(self) -> int:
        """Envelopes evicted to keep the ring at capacity — exact."""
        return self._recorded - self._count

    @property
    def nbytes(self) -> int:
        """Fixed storage footprint: envelope buffer + payload slots."""
        return self._buf.nbytes + 8 * len(self._payloads)

    def append(
        self,
        time: float,
        kind: int,
        site: int,
        stream: int,
        aux: int,
        value: float,
        flag: int,
        payload: object,
    ) -> None:
        idx = self._head
        row = self._buf[idx]
        row["time"] = time
        row["kind"] = kind
        row["flag"] = flag
        row["site"] = site
        row["stream"] = stream
        row["aux"] = aux
        row["value"] = value
        self._payloads[idx] = payload
        self._head = (idx + 1) % len(self._buf)
        if self._count < len(self._buf):
            self._count += 1
        self._recorded += 1
        self.version += 1

    def records(self) -> Iterable[Tuple[np.void, object]]:
        """Live ``(envelope, payload)`` pairs, oldest first."""
        capacity = len(self._buf)
        start = (self._head - self._count) % capacity
        for offset in range(self._count):
            idx = (start + offset) % capacity
            yield self._buf[idx], self._payloads[idx]


# --------------------------------------------------------------------------
# Streaming quantile sketch (P²)
# --------------------------------------------------------------------------


class P2Quantile:
    """Streaming quantile via the P² (piecewise-parabolic) algorithm.

    Jain & Chlamtac's five-marker estimator: O(1) memory, one parabolic
    marker adjustment per observation.  Below ``exact_limit`` samples the
    estimator keeps the raw values and answers exactly (matching
    ``np.percentile``); past the limit the buffer is replayed through the
    classic P² recurrence and subsequent observations update the markers in
    O(1).  For smooth distributions the steady-state absolute error is
    within ~5 % of the observed value range (the bound documented in
    ``docs/telemetry.md`` and pinned by the property tests).
    """

    __slots__ = ("_q", "_buffer", "_limit", "_heights", "_pos", "_desired", "_inc")

    def __init__(self, quantile: float, exact_limit: int = 64) -> None:
        if not 0.0 < quantile < 1.0:
            raise FleetError("quantile must be in (0, 1)")
        if exact_limit < 5:
            raise FleetError("exact_limit must be >= 5 (P² needs five markers)")
        self._q = quantile
        self._limit = exact_limit
        self._buffer: Optional[List[float]] = []
        self._heights: Optional[List[float]] = None
        self._pos: Optional[List[float]] = None
        self._desired: Optional[List[float]] = None
        p = quantile
        self._inc = (0.0, p / 2.0, p, (1.0 + p) / 2.0, 1.0)

    @property
    def count(self) -> int:
        if self._buffer is not None:
            return len(self._buffer)
        return int(self._pos[4])

    @property
    def is_exact(self) -> bool:
        """True while the estimator still holds every sample."""
        return self._buffer is not None

    def add(self, x: float) -> None:
        if self._buffer is not None:
            self._buffer.append(float(x))
            if len(self._buffer) > self._limit:
                samples, self._buffer = self._buffer, None
                self._replay(samples)
            return
        self._update(float(x))

    def value(self) -> float:
        """Current estimate (exact while in the buffered regime)."""
        if self._buffer is not None:
            if not self._buffer:
                return 0.0
            return float(
                np.percentile(np.asarray(self._buffer, dtype=float), self._q * 100.0)
            )
        return self._heights[2]

    def cumulative_below(self, x: float) -> float:
        """Estimated number of observed samples ``<= x``.

        Exact while buffered; in the streaming regime the five markers'
        ``(height, cumulative position)`` pairs are an empirical-CDF
        skeleton and the count is linearly interpolated between them.
        Monotone in ``x`` and bounded by :attr:`count`, which is what lets
        the Prometheus histogram export build non-decreasing buckets from
        many merged sketches.
        """
        if self._buffer is not None:
            return float(sum(1 for v in self._buffer if v <= x))
        q, n = self._heights, self._pos
        if x < q[0]:
            return 0.0
        if x >= q[4]:
            return n[4]
        for i in range(4):
            if x < q[i + 1]:
                span = q[i + 1] - q[i]
                if span <= 0.0:
                    return n[i + 1]
                return n[i] + (x - q[i]) / span * (n[i + 1] - n[i])
        return n[4]  # pragma: no cover - the scan above always returns

    # ------------------------------------------------------------ internals
    def _replay(self, samples: List[float]) -> None:
        first = sorted(samples[:5])
        self._heights = list(first)
        self._pos = [1.0, 2.0, 3.0, 4.0, 5.0]
        p = self._q
        self._desired = [1.0, 1.0 + 2.0 * p, 1.0 + 4.0 * p, 3.0 + 2.0 * p, 5.0]
        for x in samples[5:]:
            self._update(x)

    def _update(self, x: float) -> None:
        q, n, d = self._heights, self._pos, self._desired
        if x < q[0]:
            q[0] = x
            cell = 0
        elif x >= q[4]:
            q[4] = x
            cell = 3
        else:
            cell = 0
            for i in range(1, 4):
                if x >= q[i]:
                    cell = i
        for i in range(cell + 1, 5):
            n[i] += 1.0
        for i in range(5):
            d[i] += self._inc[i]
        for i in (1, 2, 3):
            diff = d[i] - n[i]
            if (diff >= 1.0 and n[i + 1] - n[i] > 1.0) or (
                diff <= -1.0 and n[i - 1] - n[i] < -1.0
            ):
                step = 1.0 if diff > 0 else -1.0
                candidate = self._parabolic(i, step)
                if q[i - 1] < candidate < q[i + 1]:
                    q[i] = candidate
                else:
                    q[i] = self._linear(i, step)
                n[i] += step

    def _parabolic(self, i: int, step: float) -> float:
        q, n = self._heights, self._pos
        return q[i] + step / (n[i + 1] - n[i - 1]) * (
            (n[i] - n[i - 1] + step) * (q[i + 1] - q[i]) / (n[i + 1] - n[i])
            + (n[i + 1] - n[i] - step) * (q[i] - q[i - 1]) / (n[i] - n[i - 1])
        )

    def _linear(self, i: int, step: float) -> float:
        q, n = self._heights, self._pos
        j = i + int(step)
        return q[i] + step * (q[j] - q[i]) / (n[j] - n[i])


# --------------------------------------------------------------------------
# Adaptive per-stream sampling
# --------------------------------------------------------------------------

_SERIES_DTYPE = np.dtype([("window", "i4"), ("value", "f8")], align=True)


class _StreamSketch:
    """Exact aggregates plus a bounded raw-sample ring for one stream."""

    __slots__ = ("count", "mean", "last", "p2", "tick", "ring", "head", "length")

    def __init__(self, series_capacity: int, exact_limit: int, phase: int) -> None:
        self.count = 0
        self.mean = 0.0
        self.last = 0.0
        self.p2 = P2Quantile(0.10, exact_limit=exact_limit)
        # Staggered tail phase: without it every tail stream would sample on
        # the same windows and the footprint/sample load would spike in
        # lockstep instead of spreading 1-in-N across windows.
        self.tick = phase
        self.ring = np.zeros(series_capacity, dtype=_SERIES_DTYPE)
        self.head = 0
        self.length = 0

    def update(self, value: float) -> None:
        self.count += 1
        self.mean += (value - self.mean) / self.count
        self.p2.add(value)
        self.last = value

    def record_point(self, window: int, value: float) -> None:
        row = self.ring[self.head]
        row["window"] = window
        row["value"] = value
        self.head = (self.head + 1) % len(self.ring)
        if self.length < len(self.ring):
            self.length += 1

    def points(self) -> List[Tuple[int, float]]:
        start = (self.head - self.length) % len(self.ring)
        out = []
        for offset in range(self.length):
            row = self.ring[(start + offset) % len(self.ring)]
            out.append((int(row["window"]), float(row["value"])))
        return out


class AdaptiveStreamSampler:
    """Rank streams by accuracy movement; spend series fidelity on movers.

    Every observed value updates the stream's *exact* aggregates (count,
    running mean, P² p10) — sampling only decides which raw ``(window,
    value)`` points enter the bounded per-stream series ring.  Per window
    batch the ``top_k`` streams with the largest absolute accuracy delta
    (unseen streams rank as maximal movers) are sampled densely; the stable
    tail records 1 point every ``tail_stride`` windows, phase-staggered by
    a stable hash of the stream name.  Ranking ties break on the stream
    name, so sampling decisions are deterministic for a deterministic run.
    """

    def __init__(
        self,
        *,
        top_k: int,
        tail_stride: int,
        series_capacity: int,
        exact_limit: int,
    ) -> None:
        if top_k < 0:
            raise FleetError("top_k_movers must be >= 0")
        if tail_stride < 1:
            raise FleetError("tail_stride must be >= 1")
        if series_capacity < 1:
            raise FleetError("series_capacity must be >= 1")
        self._top_k = top_k
        self._stride = tail_stride
        self._series_capacity = series_capacity
        self._exact_limit = exact_limit
        self._sketches: Dict[str, _StreamSketch] = {}
        self._last_window = -1
        self._sampled_in_window = 0

    # ------------------------------------------------------------ observing
    def observe(self, window: int, accuracies: Mapping[str, float]) -> None:
        """Fold one site-window batch of per-stream accuracies in."""
        if not accuracies:
            return
        if window != self._last_window:
            self._last_window = window
            self._sampled_in_window = 0
        ranked = []
        for name, value in accuracies.items():
            sketch = self._sketches.get(name)
            if sketch is None:
                # A stable, run-independent phase (no Python hash
                # randomisation) staggers tail sampling across windows.
                phase = sum(name.encode("utf-8")) % self._stride
                sketch = _StreamSketch(self._series_capacity, self._exact_limit, phase)
                self._sketches[name] = sketch
                delta = float("inf")  # new streams are maximal movers
            else:
                delta = abs(value - sketch.last)
            ranked.append((delta, name, value, sketch))
        ranked.sort(key=lambda item: (-item[0], item[1]))
        movers = {item[1] for item in ranked[: self._top_k]}
        for _, name, value, sketch in ranked:
            sketch.update(value)
            sketch.tick += 1
            if name in movers:
                sketch.record_point(window, value)
                self._sampled_in_window += 1
            elif sketch.tick % self._stride == 0:
                sketch.record_point(window, value)

    # -------------------------------------------------------------- reading
    @property
    def num_streams(self) -> int:
        return len(self._sketches)

    @property
    def sampled_streams(self) -> int:
        """Streams densely sampled (as movers) in the latest window."""
        return self._sampled_in_window

    @property
    def nbytes(self) -> int:
        return sum(sketch.ring.nbytes for sketch in self._sketches.values())

    def summary_of(self, name: str) -> Dict[str, float]:
        """Exact aggregate summary for one stream: count, mean, p10."""
        sketch = self._sketches.get(name)
        if sketch is None:
            raise FleetError(f"no telemetry recorded for stream {name!r}")
        return {
            "count": sketch.count,
            "mean": sketch.mean,
            "p10": sketch.p2.value(),
        }

    def series_of(self, name: str) -> List[Tuple[int, float]]:
        """The bounded raw ``(window, value)`` series sampled for a stream."""
        sketch = self._sketches.get(name)
        if sketch is None:
            raise FleetError(f"no telemetry recorded for stream {name!r}")
        return sketch.points()

    def histogram(self, buckets: Sequence[float]) -> Dict[str, object]:
        """Merge every stream's sketch into one cumulative histogram.

        Each observation is one (stream, window) accuracy; the per-stream
        P² sketches already hold the distribution, so the fleet-wide
        histogram is the sum of their interpolated CDFs at the bucket
        bounds (exact below each sketch's buffering limit).  Returns
        ``{"buckets": [(le, cumulative_count), ...], "count": total,
        "sum": total_sum}`` — the three pieces a Prometheus
        histogram-typed exposition needs.
        """
        bounds = sorted(float(b) for b in buckets)
        counts = [0.0] * len(bounds)
        total = 0
        total_sum = 0.0
        for sketch in self._sketches.values():
            total += sketch.count
            total_sum += sketch.mean * sketch.count
            for i, bound in enumerate(bounds):
                counts[i] += sketch.p2.cumulative_below(bound)
        return {
            "buckets": list(zip(bounds, counts)),
            "count": total,
            "sum": total_sum,
        }


# --------------------------------------------------------------------------
# Per-site window counters
# --------------------------------------------------------------------------

#: Every :class:`~repro.fleet.metrics.SiteWindowStats` field but the site
#: name, with its annotation (``"int"`` or ``"float"``).
_STATS_FIELDS = tuple(
    (field.name, field.type) for field in fields(SiteWindowStats) if field.name != "site"
)

#: One (site, window) counter row, in ``SiteWindowStats`` field order: the
#: interned site id, then each counter.  f8/i8 storage round-trips every
#: Python float/int bit-identically, which the golden-parity fixture
#: depends on.
SITE_STATS_DTYPE = np.dtype(
    [("site", "u4")]
    + [(name, "i8" if kind == "int" else "f8") for name, kind in _STATS_FIELDS],
    align=True,
)


class SiteStatsTable:
    """Every (site, window) counter row of a run in one structured array.

    Replaces per-window ``SiteWindowStats`` allocation churn: the simulator
    appends rows (amortised O(1); the array grows geometrically) and
    :meth:`stats` reconstructs the frozen dataclass on demand — readers that
    never look at a window's stats never pay for materialising them.
    """

    __slots__ = ("_interner", "_rows", "_len")

    def __init__(self, interner: _StringInterner, initial_capacity: int) -> None:
        if initial_capacity < 1:
            raise FleetError("site stats capacity must be >= 1")
        self._interner = interner
        self._rows = np.zeros(initial_capacity, dtype=SITE_STATS_DTYPE)
        self._len = 0

    def __len__(self) -> int:
        return self._len

    @property
    def nbytes(self) -> int:
        return self._rows.nbytes

    def append(self, site: str, **fields: float) -> int:
        if self._len == len(self._rows):
            grown = np.zeros(2 * len(self._rows), dtype=SITE_STATS_DTYPE)
            grown[: self._len] = self._rows
            self._rows = grown
        row = self._rows[self._len]
        row["site"] = self._interner.intern(site)
        for name, value in fields.items():
            row[name] = value
        self._len += 1
        return self._len - 1

    def stats(self, row_index: int) -> SiteWindowStats:
        row = self._rows[row_index]
        kwargs = {"site": self._interner.name(int(row["site"]))}
        for name, kind in _STATS_FIELDS:
            kwargs[name] = int(row[name]) if kind == "int" else float(row[name])
        return SiteWindowStats(**kwargs)


class SiteStatsView(Mapping):
    """Lazy ``{site: SiteWindowStats}`` view over table rows of one cycle.

    ``FleetWindowResult.site_stats`` serves this view's materialised dict:
    dataclasses are reconstructed once per cycle on first read and cached
    until another row is linked, so determinism tests comparing
    ``site_stats`` dicts across runs see ordinary value equality.
    """

    __slots__ = ("_table", "_rows", "_cache")

    def __init__(self, table: SiteStatsTable) -> None:
        self._table = table
        self._rows: Dict[str, int] = {}
        self._cache: Optional[Dict[str, SiteWindowStats]] = None

    def link(self, site: str, row_index: int) -> None:
        self._rows[site] = row_index
        self._cache = None

    def as_dict(self) -> Dict[str, SiteWindowStats]:
        if self._cache is None:
            self._cache = {
                site: self._table.stats(row) for site, row in self._rows.items()
            }
        return self._cache

    def __getitem__(self, site: str) -> SiteWindowStats:
        return self.as_dict()[site]

    def __iter__(self):
        return iter(self._rows)

    def __len__(self) -> int:
        return len(self._rows)

    def __eq__(self, other) -> bool:
        if isinstance(other, SiteStatsView):
            return self.as_dict() == other.as_dict()
        if isinstance(other, Mapping):
            return self.as_dict() == dict(other)
        return NotImplemented


# --------------------------------------------------------------------------
# Facade
# --------------------------------------------------------------------------


class TelemetryPlane:
    """The bounded-memory observability sink of one fleet simulation.

    The simulator writes three streams into the plane — processed calendar
    events, per-stream window accuracies, and per-(site, window) counter
    rows — and every existing reader (``event_trace``, ``site_stats``,
    ``summary()``) is served from the packed storage via compatibility
    views.  :meth:`export_text` renders a run's summary as a
    Prometheus-style text exposition.
    """

    def __init__(self) -> None:
        self._interner = _StringInterner()
        self._ring = EventRing(EVENT_RING_CAPACITY)
        self._sampler = AdaptiveStreamSampler(
            top_k=TOP_K_MOVERS,
            tail_stride=TAIL_STRIDE,
            series_capacity=SERIES_CAPACITY,
            exact_limit=EXACT_QUANTILE_LIMIT,
        )
        self._site_table = SiteStatsTable(self._interner, SITE_STATS_CAPACITY)
        self._trace_cache: Tuple[SimEvent, ...] = ()
        self._trace_version = self._ring.version

    # ------------------------------------------------------------ accessors
    @property
    def ring_capacity(self) -> int:
        return self._ring.capacity

    @property
    def ring_occupancy(self) -> int:
        return len(self._ring)

    @property
    def events_recorded(self) -> int:
        return self._ring.recorded

    @property
    def events_dropped(self) -> int:
        return self._ring.dropped

    @property
    def sampled_streams(self) -> int:
        return self._sampler.sampled_streams

    @property
    def sampler(self) -> AdaptiveStreamSampler:
        return self._sampler

    @property
    def nbytes(self) -> int:
        """Telemetry storage footprint (event ring + stats + series rings)."""
        return self._ring.nbytes + self._site_table.nbytes + self._sampler.nbytes

    def memory_report(self) -> Dict[str, int]:
        """Peak-memory accounting for chaos / benchmark reporting."""
        return {
            "ring_capacity": self.ring_capacity,
            "ring_occupancy": self.ring_occupancy,
            "events_recorded": self.events_recorded,
            "events_dropped": self.events_dropped,
            "site_stat_rows": len(self._site_table),
            "sampled_series_streams": self._sampler.num_streams,
            "telemetry_bytes": self.nbytes,
        }

    # ---------------------------------------------------------- event trace
    def record_event(self, event: SimEvent) -> None:
        kind = _KIND_BY_TYPE[type(event)]
        site = stream = aux = flag = 0
        value = 0.0
        payload = None
        if kind == _KIND_SITE_RECOVERY or kind == _KIND_WAN_RESTORE:
            site = self._interner.intern(event.site)
            payload = event.owner
        elif kind == _KIND_GPU_RECOVERED:
            site = self._interner.intern(event.site)
            aux = event.num_gpus
        elif kind == _KIND_SCENARIO_TRIGGER:
            payload = event.event
        elif kind == _KIND_TRANSFER_ARRIVAL:
            stream = self._interner.intern(event.stream)
        elif kind == _KIND_TRANSFER_FAILED:
            stream = self._interner.intern(event.stream)
            site = self._interner.intern(event.site)
            aux = event.attempt
            value = event.wasted_seconds
            flag = (_FLAG_FINAL if event.final else 0) | (
                _FLAG_PUSH_KIND if event.kind == "profile_push" else 0
            )
        elif kind == _KIND_RETRAINING_COMPLETE:
            site = self._interner.intern(event.site)
            stream = self._interner.intern(event.stream)
            aux = event.window_index
        elif kind == _KIND_INFERENCE_RECONFIGURED:
            site = self._interner.intern(event.site)
            stream = self._interner.intern(event.stream)
            value = event.inference_gpu
            flag = _RECONFIGURE_REASON_IDS.get(event.reason, _REASON_IN_PAYLOAD)
            if flag == _REASON_IN_PAYLOAD:
                payload = event.reason
        elif kind == _KIND_PROFILE_PUSH:
            site = self._interner.intern(event.site)
            aux = len(event.profiles)
            payload = event.profiles
        elif kind == _KIND_WINDOW_BOUNDARY:
            site = self._interner.intern(event.site)
            aux = event.window_index
        elif kind == _KIND_MIGRATION_STARTED:
            payload = event.migration
        self._ring.append(event.time, kind, site, stream, aux, value, flag, payload)

    def _decode(self, row: np.void, payload: object) -> SimEvent:
        time = float(row["time"])
        kind = int(row["kind"])
        site = self._interner.name(int(row["site"]))
        stream = self._interner.name(int(row["stream"]))
        if kind == _KIND_SITE_RECOVERY:
            return SiteRecovery(time=time, site=site, owner=payload)
        if kind == _KIND_WAN_RESTORE:
            return WanRestore(time=time, site=site, owner=payload)
        if kind == _KIND_GPU_RECOVERED:
            return GpuRecovered(time=time, site=site, num_gpus=int(row["aux"]))
        if kind == _KIND_SCENARIO_TRIGGER:
            return ScenarioTrigger(time=time, event=payload)
        if kind == _KIND_TRANSFER_ARRIVAL:
            return TransferArrival(time=time, stream=stream)
        if kind == _KIND_TRANSFER_FAILED:
            flag = int(row["flag"])
            return TransferFailed(
                time=time,
                stream=stream,
                site=site,
                kind="profile_push" if flag & _FLAG_PUSH_KIND else "checkpoint",
                attempt=int(row["aux"]),
                wasted_seconds=float(row["value"]),
                final=bool(flag & _FLAG_FINAL),
            )
        if kind == _KIND_RETRAINING_COMPLETE:
            return RetrainingComplete(
                time=time, site=site, stream=stream, window_index=int(row["aux"])
            )
        if kind == _KIND_INFERENCE_RECONFIGURED:
            flag = int(row["flag"])
            if flag == _REASON_IN_PAYLOAD:
                reason = payload
            else:
                reason = _RECONFIGURE_REASONS[flag]
            return InferenceReconfigured(
                time=time,
                site=site,
                stream=stream,
                inference_gpu=float(row["value"]),
                reason=reason,
            )
        if kind == _KIND_PROFILE_PUSH:
            return ProfilePush(time=time, site=site, profiles=payload)
        if kind == _KIND_CONTROL_TICK:
            return ControlTick(time=time)
        if kind == _KIND_WINDOW_BOUNDARY:
            return WindowBoundary(time=time, site=site, window_index=int(row["aux"]))
        if kind == _KIND_MIGRATION_STARTED:
            return MigrationStarted(time=time, migration=payload)
        raise FleetError(f"unknown telemetry event kind {kind}")  # pragma: no cover

    def events(self) -> Tuple[SimEvent, ...]:
        """The live event window decoded back into ``SimEvent`` objects.

        Cached against the ring version: repeated reads between appends
        return the *same* tuple object (O(1)), fixing the old
        ``event_trace`` behaviour of copying the whole list per access.
        """
        if self._trace_version != self._ring.version:
            self._trace_cache = tuple(
                self._decode(row, payload) for row, payload in self._ring.records()
            )
            self._trace_version = self._ring.version
        return self._trace_cache

    # ----------------------------------------------------------- site stats
    def record_site_stats(self, cycle, site: str, **fields: float) -> None:
        """Append one (site, window) counter row and link it into ``cycle``.

        ``cycle`` is the :class:`~repro.fleet.metrics.FleetWindowResult`
        whose ``site_stats`` mapping should serve the row.
        """
        row = self._site_table.append(site, **fields)
        view = cycle.stats_view
        if view is None or view._table is not self._site_table:
            view = SiteStatsView(self._site_table)
            cycle.stats_view = view
        view.link(site, row)

    # ------------------------------------------------------ stream sampling
    def observe_streams(self, window: int, accuracies: Mapping[str, float]) -> None:
        self._sampler.observe(window, accuracies)

    # -------------------------------------------------------------- results
    def annotate(self, result) -> None:
        """Stamp a :class:`FleetResult` with the plane's gauges."""
        result.telemetry_events_dropped = self.events_dropped
        result.telemetry_sampled_streams = self.sampled_streams
        result.telemetry_ring_occupancy = self.ring_occupancy

    def export_text(self, result) -> str:
        """Prometheus-style text exposition of a run's summary.

        Appends the histogram-typed per-stream accuracy distribution
        (merged from the sampler's P² sketches) to the scalar summary
        metrics whenever any stream has been observed.
        """
        from .export import (
            ACCURACY_HISTOGRAM_BUCKETS,
            render_accuracy_histogram,
            render_prometheus,
        )

        text = render_prometheus(result.summary())
        if self._sampler.num_streams:
            histogram = self._sampler.histogram(ACCURACY_HISTOGRAM_BUCKETS)
            text += render_accuracy_histogram(histogram)
        return text
