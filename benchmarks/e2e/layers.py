"""Outside-in per-layer tracing for the end-to-end fleet benchmark.

:class:`Tracer` wraps the public entry points of each layer of the engine —
from this file, by replacing class attributes between :meth:`Tracer.install`
and :meth:`Tracer.uninstall` — so the per-layer ledger needs no change under
``src/``.  Layer names are the module names.  Every wrapped call inside a
cycle (a ``FleetSimulator.run_window`` call, the root span) records a span:
name, start, end, parent span and cycle id.  Calls outside a cycle (building
the fleet) pass through untimed.

High-frequency layers (:data:`ENVELOPED`) are not stored as raw spans: each
call is summed into a ``(count, seconds)`` envelope of its nearest raw
ancestor span, so the trace stays bounded by the number of stream-windows.
A layer's *self* time is its spans' duration minus the time of their child
spans; its *share* is self time over the summed root-span time.

:class:`WalkStepCounter` counts the drift walk's steps where they are drawn.

The wrappers and the counter only observe: a traced run reproduces the
untraced outcome digest exactly (``run.py --trace`` checks it).  Wrap
targets are named as strings and resolved at :meth:`Tracer.install`, so
``run.py`` can read the metric catalogue without importing the engine.
"""

from __future__ import annotations

import functools
import importlib
import itertools
import json
import sys
from collections import Counter
from pathlib import Path
from time import perf_counter
from typing import Callable, Dict, List, Optional

ROOT = "fleet.simulator"

#: Layers in ledger order; the root last.
LAYERS = (
    "datasets",
    "profiles",
    "core.microprofiler",
    "core.planner",
    "cluster",
    "simulation",
    "fleet.control",
    "fleet.calendar",
    "fleet.telemetry",
    ROOT,
)

#: Layers summed into per-parent envelopes instead of raw spans.
ENVELOPED = frozenset({"datasets", "profiles", "fleet.calendar", "fleet.telemetry"})

#: The drift/dynamics substrate, as opposed to the scheduling and fleet layers.
SUBSTRATE = frozenset({"datasets", "profiles"})

#: Every per-layer metric the traced run reports, with its unit.
PER_LAYER_UNITS: Dict[str, str] = {
    "datasets.calls": "count",
    "datasets.walk_steps": "count",
    "profiles.queries": "count",
    "core.microprofiler.calls": "count",
    "core.microprofiler.incl_s": "s",
    "core.planner.calls": "count",
    "core.planner.steal_iterations": "count",
    "core.planner.pick_configs_evaluations": "count",
    "cluster.calls": "count",
    "simulation.plan_calls": "count",
    "simulation.settle_calls": "count",
    "fleet.control.calls": "count",
    "fleet.control.incl_s": "s",
    "fleet.control.migrations": "count",
    "fleet.calendar.events_scheduled": "count",
    "fleet.calendar.events_popped": "count",
    "fleet.telemetry.records": "count",
    "fleet.telemetry.bytes": "B",
    "fleet.telemetry.events_dropped": "count",
    **{f"{layer}.self_s": "s" for layer in LAYERS},
    **{f"{layer}.share": "fraction" for layer in LAYERS},
    "trace.coverage": "fraction",
    "trace.overhead": "ratio",
}

#: Counters that must repeat bit for bit across runs of one seed.
EXACT_COUNTERS = (
    "datasets.walk_steps",
    "profiles.queries",
    "core.planner.steal_iterations",
    "core.planner.pick_configs_evaluations",
    "fleet.calendar.events_popped",
    "simulation.settle_calls",
)

Observe = Callable[[Counter, tuple, object], None]


class WalkStepCounter:
    """Counts the steps the appearance-drift random walks draw.

    Between :meth:`install` and :meth:`uninstall`, ``ensure_rng`` as
    ``repro.datasets.drift`` calls it hands every ``AppearanceDrift`` method
    a generator that counts its ``normal`` draws; one draw is one step of the
    walk.  The count is therefore the work the walks did, whatever sits in
    front of them.  Counting every draw costs about a tenth of the walk's
    time, so the counter runs in a lane of its own whose cycles are not timed.
    """

    def __init__(self) -> None:
        self.steps = 0
        self._restore: Optional[Callable[[], None]] = None

    def install(self) -> None:
        drift = importlib.import_module("repro.datasets.drift")
        original = vars(drift)["ensure_rng"]
        counter = self

        @functools.wraps(original)
        def ensure_rng(*args, **kwargs):
            rng = original(*args, **kwargs)
            if isinstance(sys._getframe(1).f_locals.get("self"), drift.AppearanceDrift):
                return _StepCountingGenerator(rng, counter)
            return rng

        drift.ensure_rng = ensure_rng
        self._restore = functools.partial(setattr, drift, "ensure_rng", original)

    def uninstall(self) -> None:
        self._restore()


class _StepCountingGenerator:
    """A ``numpy.random.Generator`` stand-in that counts its ``normal`` draws."""

    __slots__ = ("_rng", "_counter")

    def __init__(self, rng, counter: WalkStepCounter) -> None:
        self._rng = rng
        self._counter = counter

    def normal(self, *args, **kwargs):
        self._counter.steps += 1
        return self._rng.normal(*args, **kwargs)

    def __getattr__(self, name: str):
        return getattr(self._rng, name)


def _planner_work(counters: Counter, args: tuple, result) -> None:
    schedules = result.values() if isinstance(result, dict) else (result,)
    for schedule in schedules:
        counters["core.planner.steal_iterations"] += schedule.iterations
        counters["core.planner.pick_configs_evaluations"] += schedule.pick_configs_evaluations


def _migrations(counters: Counter, args: tuple, result) -> None:
    counters["fleet.control.migrations"] += len(result)


def _count(name: str) -> Observe:
    def observe(counters: Counter, args: tuple, result: object) -> None:
        counters[name] += 1

    return observe


#: (``module:Class`` or ``module``, attribute, layer, observer run at the
#: layer's outermost call).
_TARGETS = (
    ("repro.datasets.stream:VideoStream", "drift_magnitude", "datasets", None),
    ("repro.profiles.dynamics:AnalyticDynamics", "start_accuracy", "profiles", None),
    ("repro.profiles.dynamics:AnalyticDynamics", "candidate_post_accuracy", "profiles", None),
    ("repro.profiles.dynamics:AnalyticDynamics", "retraining_gpu_seconds", "profiles", None),
    ("repro.profiles.dynamics:AnalyticDynamics", "commit_window", "profiles", None),
    ("repro.core.microprofiler:OracleProfileSource", "profile", "core.microprofiler", None),
    ("repro.core.microprofiler:SharedProfileOracle", "profile", "core.microprofiler", None),
    ("repro.core.thief:ThiefScheduler", "schedule", "core.planner", _planner_work),
    ("repro.core.batched_planner:BatchedThiefScheduler", "schedule", "core.planner",
     _planner_work),
    ("repro.core.batched_planner:BatchedThiefScheduler", "schedule_cohort", "core.planner",
     _planner_work),
    # The binding the simulator calls, not repro.cluster.placement's.
    ("repro.simulation.simulator", "place_jobs", "cluster", None),
    ("repro.simulation.simulator:Simulator", "plan_window", "simulation",
     _count("simulation.plan_calls")),
    ("repro.simulation.simulator:Simulator", "settle_stream", "simulation",
     _count("simulation.settle_calls")),
    ("repro.fleet.controller:FleetController", "rebalance", "fleet.control", _migrations),
    ("repro.fleet.controller:FleetController", "admit", "fleet.control", None),
    ("repro.fleet.controller:FleetController", "spawn_streams", "fleet.control", None),
    ("repro.fleet.controller:FleetController", "fail_site", "fleet.control", _migrations),
    ("repro.fleet.controller:FleetController", "recover_site", "fleet.control", None),
    ("repro.fleet.calendar:EventCalendar", "schedule", "fleet.calendar",
     _count("fleet.calendar.events_scheduled")),
    ("repro.fleet.calendar:EventCalendar", "pop", "fleet.calendar",
     _count("fleet.calendar.events_popped")),
    ("repro.fleet.telemetry:TelemetryPlane", "record_event", "fleet.telemetry", None),
    ("repro.fleet.telemetry:TelemetryPlane", "record_site_stats", "fleet.telemetry", None),
    ("repro.fleet.telemetry:TelemetryPlane", "observe_streams", "fleet.telemetry", None),
    ("repro.fleet.simulator:FleetSimulator", "run_window", ROOT, None),
)


def _resolve(owner: str):
    module, _, name = owner.partition(":")
    resolved = importlib.import_module(module)
    return getattr(resolved, name) if name else resolved


class LayerStats:
    """Running totals of one layer's calls inside cycles."""

    __slots__ = ("calls", "self_s", "incl_s", "depth")

    def __init__(self) -> None:
        self.calls = 0
        self.self_s = 0.0
        #: Duration of the layer's outermost calls (nested calls not recounted).
        self.incl_s = 0.0
        self.depth = 0


class Tracer:
    """Span recorder over the wrapped layer entry points."""

    def __init__(self) -> None:
        #: Raw spans: ``(span_id, layer, start, end, parent_id, cycle)``.
        self.spans: List[tuple] = []
        #: ``(parent_span_id, layer) -> [count, seconds]``.
        self.envelopes: Dict[tuple, list] = {}
        self.counters: Counter = Counter()
        self.stats: Dict[str, LayerStats] = {layer: LayerStats() for layer in LAYERS}
        #: Open frames: ``[child_seconds, span_id]``.
        self._stack: List[list] = []
        self._ids = itertools.count()
        self._cycle = -1
        self._originals: List[tuple] = []

    # ----------------------------------------------------------- patching
    def install(self) -> None:
        for name, attribute, layer, observe in _TARGETS:
            owner = _resolve(name)
            original = vars(owner)[attribute]
            self._originals.append((owner, attribute, original))
            setattr(owner, attribute, self._wrap(layer, original, observe))

    def uninstall(self) -> None:
        while self._originals:
            owner, attribute, original = self._originals.pop()
            setattr(owner, attribute, original)

    def _wrap(self, layer: str, fn: Callable, observe: Optional[Observe]) -> Callable:
        # Runs a few hundred thousand times per traced run, so the span
        # bookkeeping is inlined here rather than split into helper calls.
        tracer = self
        stack, spans, envelopes = self._stack, self.spans, self.envelopes
        counters, ids = self.counters, self._ids
        stats = self.stats[layer]
        enveloped = layer in ENVELOPED
        is_root = layer == ROOT

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not stack and not is_root:
                return fn(*args, **kwargs)  # outside a cycle: set-up work
            parent = stack[-1] if stack else None
            if enveloped:
                span_id = parent[1]  # summed into the nearest raw ancestor
            else:
                span_id = next(ids)
                if is_root:
                    tracer._cycle += 1
            frame = [0.0, span_id]
            stack.append(frame)
            stats.depth += 1
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                duration = end - start
                stack.pop()
                stats.depth -= 1
                stats.calls += 1
                stats.self_s += duration - frame[0]
                if not stats.depth:
                    stats.incl_s += duration
                if parent is not None:
                    parent[0] += duration
                if enveloped:
                    envelope = envelopes.get((span_id, layer))
                    if envelope is None:
                        envelopes[(span_id, layer)] = [1, duration]
                    else:
                        envelope[0] += 1
                        envelope[1] += duration
                else:
                    parent_id = None if parent is None else parent[1]
                    spans.append((span_id, layer, start, end, parent_id, tracer._cycle))
            if observe is not None and not stats.depth:
                observe(counters, args, result)
            return result

        return traced

    # ------------------------------------------------------------ results
    def metrics(
        self, *, walk_steps: int, telemetry_bytes: int, events_dropped: int
    ) -> Dict[str, float]:
        """Every per-layer metric except ``trace.overhead`` (needs an untraced run)."""
        stats, counters = self.stats, self.counters
        wall = stats[ROOT].incl_s
        values: Dict[str, float] = {
            "datasets.calls": stats["datasets"].calls,
            "datasets.walk_steps": walk_steps,
            "profiles.queries": stats["profiles"].calls,
            "core.microprofiler.calls": stats["core.microprofiler"].calls,
            "core.microprofiler.incl_s": stats["core.microprofiler"].incl_s,
            "core.planner.calls": stats["core.planner"].calls,
            "core.planner.steal_iterations": counters["core.planner.steal_iterations"],
            "core.planner.pick_configs_evaluations": counters[
                "core.planner.pick_configs_evaluations"
            ],
            "cluster.calls": stats["cluster"].calls,
            "simulation.plan_calls": counters["simulation.plan_calls"],
            "simulation.settle_calls": counters["simulation.settle_calls"],
            "fleet.control.calls": stats["fleet.control"].calls,
            "fleet.control.incl_s": stats["fleet.control"].incl_s,
            "fleet.control.migrations": counters["fleet.control.migrations"],
            "fleet.calendar.events_scheduled": counters["fleet.calendar.events_scheduled"],
            "fleet.calendar.events_popped": counters["fleet.calendar.events_popped"],
            "fleet.telemetry.records": stats["fleet.telemetry"].calls,
            "fleet.telemetry.bytes": telemetry_bytes,
            "fleet.telemetry.events_dropped": events_dropped,
        }
        for layer in LAYERS:
            values[f"{layer}.self_s"] = stats[layer].self_s
            values[f"{layer}.share"] = stats[layer].self_s / wall
        values["trace.coverage"] = (
            sum(stats[layer].self_s for layer in LAYERS if layer != ROOT) / wall
        )
        return values

    def write(self, path: Path) -> Path:
        """Write the spans and envelopes as JSON lines (times relative to the first cycle)."""
        path.parent.mkdir(parents=True, exist_ok=True)
        origin = min((span[2] for span in self.spans), default=0.0)
        with path.open("w", encoding="utf-8") as handle:
            for span_id, layer, start, end, parent_id, cycle in self.spans:
                record = {
                    "span": span_id,
                    "layer": layer,
                    "start": start - origin,
                    "end": end - origin,
                    "parent": parent_id,
                    "cycle": cycle,
                }
                handle.write(json.dumps(record) + "\n")
            for (parent_id, layer), (count, seconds) in sorted(self.envelopes.items()):
                record = {
                    "envelope": layer,
                    "parent": parent_id,
                    "count": count,
                    "seconds": seconds,
                }
                handle.write(json.dumps(record) + "\n")
        return path
