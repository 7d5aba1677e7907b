"""Workloads and the closed-loop cycle driver of the end-to-end fleet benchmark.

``run.py`` starts this file as a worker subprocess, once per measurement, so
every workload runs in a fresh interpreter with BLAS/OpenMP pinned to one
thread.  The worker builds the first repetition's fleet, prints ``ready`` (the
parent times set-up up to that line), then drives the fleet engine through
its public API: one ``FleetSimulator.run_window(w)`` call per cycle, the next
call only after the previous one returned.  After every cycle it checks the
outputs; after every repetition it runs ``check_invariants``.  The last
stdout line is one JSON object with the raw measurements.

Every run of a workload does the same fixed work: ``reps`` fresh fleets of
``windows`` cycles, repetition ``r`` seeded ``seed + r``, in :data:`PASSES`
passes that must agree exactly.  Every metric, timing included, therefore
comes from inputs that are a pure function of the seed, whatever the host
speed.  ``--trace`` runs one pass and drives two more copies of every fleet
in lockstep with the first, one traced and one counting the drift walk's
steps (see :class:`Lane`).

Worker CLI (normally invoked by ``run.py``)::

    python benchmarks/e2e/harness.py --workload steady_long --seed 0 \\
        [--smoke] [--trace [--trace-out DIR]] [--setup-only]
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import hashlib
import json
import math
import resource
import sys
import time
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

_SRC = Path(__file__).resolve().parents[2] / "src"
if str(_SRC) not in sys.path:
    sys.path.insert(0, str(_SRC))

from repro.fleet import FleetController, FleetSimulator, make_fleet  # noqa: E402
from repro.fleet.chaos import ChaosInjector, check_invariants  # noqa: E402
from repro.fleet.metrics import FleetResult, FleetWindowResult  # noqa: E402

# This file's directory is sys.path[0] when run as a script.
from layers import Tracer, WalkStepCounter  # noqa: E402

#: Cycles per repetition in ``--smoke`` mode (one repetition and one pass
#: per workload).
SMOKE_WINDOWS = 2

#: An untraced run does its work this many times, one whole pass after
#: another, and keeps each cycle's shortest time.  On a shared host, slow
#: spells of a few seconds come and go; a pass lasts longer than most of
#: them, so both passes of a cycle rarely fall in one.
PASSES = 2

Build = Callable[[int, int], Tuple[FleetController, FleetSimulator]]
Instrument = Union[Tracer, WalkStepCounter]


@dataclass(frozen=True)
class Workload:
    """One fleet shape: ``reps`` fresh fleets of ``windows`` cycles each."""

    name: str
    windows: int
    reps: int
    build: Build


def _steady_long(seed: int, windows: int) -> Tuple[FleetController, FleetSimulator]:
    controller = make_fleet(4, 25, gpus_per_site=4, seed=seed)
    return controller, FleetSimulator(controller)


def _dense_sites(seed: int, windows: int) -> Tuple[FleetController, FleetSimulator]:
    controller = make_fleet(1, 150, gpus_per_site=24, seed=seed)
    return controller, FleetSimulator(controller)


def _chaos_fleet(seed: int, windows: int) -> Tuple[FleetController, FleetSimulator]:
    injector = ChaosInjector(seed, intensity=1.5)
    controller = make_fleet(
        6,
        12,
        gpus_per_site=4,
        preemptive_sites=True,
        profile_sharing=True,
        wan_faults=injector.wan_faults(),
        control_policy="predictive",
        seed=seed,
    )
    scenario = injector.compile(
        [site.name for site in controller.sites],
        window_duration=controller.window_duration,
        num_windows=windows,
        gpus_per_site=4,
    )
    return controller, FleetSimulator(controller, scenario, control_interval=50.0)


WORKLOADS: Dict[str, Workload] = {
    workload.name: workload
    for workload in (
        Workload("steady_long", windows=40, reps=1, build=_steady_long),
        Workload("dense_sites", windows=4, reps=10, build=_dense_sites),
        Workload("chaos_fleet", windows=20, reps=2, build=_chaos_fleet),
    )
}


def check_cycle(cycle: FleetWindowResult) -> List[str]:
    """Output checks for one cycle; returns human-readable problems.

    Every stream a site planned this cycle is settled exactly once, on that
    site only, and every realised accuracy is a finite number in [0, 1].
    """
    problems: List[str] = []
    owner: Dict[str, str] = {}
    for site, result in cycle.site_results.items():
        planned = set(result.schedule.decisions)
        settled = set(result.outcomes)
        if planned != settled:
            problems.append(
                f"cycle {cycle.window_index} site {site}: planned {len(planned)} "
                f"streams, settled {len(settled)} ({sorted(planned ^ settled)[:3]})"
            )
        for name in settled:
            if name in owner:
                problems.append(
                    f"cycle {cycle.window_index}: {name} settled on {owner[name]} and {site}"
                )
            owner[name] = site
    if set(owner) != set(cycle.stream_outcomes):
        problems.append(
            f"cycle {cycle.window_index}: {len(cycle.stream_outcomes)} fleet outcomes "
            f"for {len(owner)} settled streams"
        )
    for name, outcome in cycle.stream_outcomes.items():
        accuracy = outcome.effective_average_accuracy
        if not (math.isfinite(accuracy) and 0.0 <= accuracy <= 1.0):
            problems.append(f"cycle {cycle.window_index} {name}: accuracy {accuracy!r}")
    return problems


def _digest_rep(digest, rep: int, result: FleetResult) -> None:
    """Fold one repetition's outcomes and summary counters into ``digest``."""
    rows = sorted(
        (name, cycle.window_index, outcome.effective_average_accuracy)
        for cycle in result.windows
        for name, outcome in cycle.stream_outcomes.items()
    )
    for name, window, accuracy in rows:
        digest.update(f"{rep}|{name}|{window}|{accuracy.hex()}\n".encode())
    summary = result.summary()
    summary.pop("wall_clock_seconds")  # host time, not an outcome
    digest.update(json.dumps(summary, sort_keys=True).encode())


class Lane:
    """One sequence of fleets driven cycle by cycle, with its own measurements.

    An untraced run has one lane.  A traced run has three lanes built from
    the same seeds and stepped in lockstep: a reference, one whose builds and
    cycles run under a :class:`~layers.Tracer`, and one under a
    :class:`~layers.WalkStepCounter`.  The first two see the same host speed,
    so ``trace.overhead`` compares like with like; the counter's cost stays
    out of both.
    """

    def __init__(self, instrument: Optional[Instrument] = None) -> None:
        self.instrument = instrument
        self.digest = hashlib.sha256()
        self.rep_cycle_s: List[List[float]] = []
        self.accuracy: List[Tuple[float, float]] = []
        self.problems: List[str] = []
        self.attempted = 0
        self.failed_cycles = set()
        self.stream_windows = 0
        self.telemetry_bytes = 0
        self.events_dropped = 0
        self._fleet: Optional[Tuple[FleetController, FleetSimulator]] = None
        self._result: Optional[FleetResult] = None
        self._initial_streams = 0

    @contextlib.contextmanager
    def _instrumented(self):
        if self.instrument is None:
            yield
            return
        self.instrument.install()
        try:
            yield
        finally:
            self.instrument.uninstall()

    def start_rep(self, workload: Workload, seed: int, windows: int) -> None:
        """Build the next repetition's fleet."""
        with self._instrumented():
            controller, simulator = workload.build(seed, windows)
        self._fleet = controller, simulator
        self._initial_streams = controller.num_streams
        self._result = FleetResult(
            admission_policy=controller.admission_policy.name,
            num_sites=len(controller.sites),
        )
        self.rep_cycle_s.append([])

    def step(self, rep: int, window: int, windows: int) -> None:
        """Run one cycle (if this repetition has not failed) and check it."""
        self.attempted += 1
        cycle_s = self.rep_cycle_s[-1]
        if len(cycle_s) < window:
            return  # an earlier cycle of this repetition raised
        with self._instrumented():
            began = time.perf_counter()
            try:
                cycle = self._fleet[1].run_window(window)
            except Exception as exc:  # a raising cycle is a counted failure
                self.problems.append(f"rep {rep} cycle {window} raised {exc!r}")
                self.failed_cycles.update((rep, w) for w in range(window, windows))
                return
            finally:
                elapsed = time.perf_counter() - began
        cycle_s.append(elapsed)
        self._result.windows.append(cycle)
        self.stream_windows += cycle.num_streams
        problems = check_cycle(cycle)
        if problems:
            self.failed_cycles.add((rep, window))
            self.problems.extend(f"rep {rep} {problem}" for problem in problems)

    def finish_rep(self, rep: int, windows: int) -> None:
        controller, simulator = self._fleet
        result = self._result
        violations = check_invariants(controller, result, initial_streams=self._initial_streams)
        if violations:
            self.failed_cycles.add((rep, windows - 1))
            self.problems.extend(f"rep {rep} invariant: {violation}" for violation in violations)
        report = simulator.telemetry.memory_report()
        self.telemetry_bytes = max(self.telemetry_bytes, report["telemetry_bytes"])
        self.events_dropped += report["events_dropped"]
        _digest_rep(self.digest, rep, result)
        self.accuracy.append((result.mean_accuracy, result.worst_stream_accuracy(10.0)))
        # The simulator and controller reference each other; drop them here
        # so the caller's gc.collect() frees the fleet before the next build.
        self._fleet = self._result = None

    def outcome(self) -> dict:
        return {
            "rep_cycle_s": self.rep_cycle_s,
            "stream_windows": self.stream_windows,
            "attempted": self.attempted,
            "failed": len(self.failed_cycles),
            "problems": self.problems[:20],
            "digest": self.digest.hexdigest(),
            "mean_accuracy": sum(mean for mean, _ in self.accuracy) / len(self.accuracy),
            "p10_accuracy": sum(p10 for _, p10 in self.accuracy) / len(self.accuracy),
            "telemetry_bytes": self.telemetry_bytes,
            "events_dropped": self.events_dropped,
        }


def drive(
    workload: Workload,
    seed: int,
    lanes: Sequence[Lane],
    *,
    smoke: bool = False,
    on_ready: Optional[Callable[[], None]] = None,
) -> dict:
    """Run the workload's fixed repetitions in every lane, in lockstep.

    The lanes' order is reversed every other cycle.  Returns the first
    lane's outcome with the run's shape and peak memory.
    """
    windows = SMOKE_WINDOWS if smoke else workload.windows
    reps = 1 if smoke else workload.reps
    for rep in range(reps):
        if rep:
            gc.collect()  # outside the timed cycles
        for lane in lanes:
            lane.start_rep(workload, seed + rep, windows)
        if rep == 0 and on_ready is not None:
            on_ready()
        for window in range(windows):
            for lane in lanes if window % 2 == 0 else lanes[::-1]:
                lane.step(rep, window, windows)
        for lane in lanes:
            lane.finish_rep(rep, windows)
    return {
        "workload": workload.name,
        "seed": seed,
        "windows": windows,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        **lanes[0].outcome(),
    }


def best_of(passes: Sequence[dict]) -> dict:
    """Merge :func:`drive` outcomes of passes over the same cycles.

    Each cycle keeps its shortest time.  Every pass must reproduce the first
    pass's outcome digest; the failures and problems of all passes add up.
    """
    merged = dict(passes[0], passes=len(passes))
    merged["rep_cycle_s"] = [
        [min(times) for times in zip(*rep)]
        for rep in zip(*(outcome["rep_cycle_s"] for outcome in passes))
    ]
    merged["attempted"] = sum(outcome["attempted"] for outcome in passes)
    merged["failed"] = sum(outcome["failed"] for outcome in passes)
    merged["problems"] = [problem for outcome in passes for problem in outcome["problems"]]
    if any(outcome["digest"] != merged["digest"] for outcome in passes):
        merged["problems"].append("a later pass changed the outcome digest")
    merged["problems"] = merged["problems"][:20]
    merged["peak_rss_mb"] = max(outcome["peak_rss_mb"] for outcome in passes)
    return merged


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true")
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--trace-out", type=Path)
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]

    def ready() -> None:
        print("ready", flush=True)

    if args.setup_only:
        workload.build(args.seed, SMOKE_WINDOWS if args.smoke else workload.windows)
        ready()
        return 0
    if not args.trace:
        passes = []
        for index in range(1 if args.smoke else PASSES):
            if index:
                gc.collect()
            on_ready = None if index else ready
            passes.append(
                drive(workload, args.seed, [Lane()], smoke=args.smoke, on_ready=on_ready)
            )
        outcome = best_of(passes)
        print(json.dumps(outcome), flush=True)
        return 1 if outcome["failed"] or outcome["problems"] else 0
    tracer, counter = Tracer(), WalkStepCounter()
    lanes = [Lane(), Lane(tracer), Lane(counter)]
    outcome = drive(workload, args.seed, lanes, smoke=args.smoke, on_ready=ready)
    outcome["traced"], outcome["counted"] = traced, counted = [
        lane.outcome() for lane in lanes[1:]
    ]
    traced["layers"] = tracer.metrics(
        walk_steps=counter.steps,
        telemetry_bytes=traced["telemetry_bytes"],
        events_dropped=traced["events_dropped"],
    )
    if args.trace_out is not None:
        path = args.trace_out / f"{args.workload}-seed{args.seed}.jsonl"
        traced["trace_file"] = str(tracer.write(path))
    print(json.dumps(outcome), flush=True)
    return 0 if outcome["failed"] + traced["failed"] + counted["failed"] == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
