"""Horizon flatness of the analytic substrate.

Ekya re-plans every retraining window, so the cost of one window must not
grow with simulated time.  This benchmark runs ``make_fleet(2, 10, seed=0)``
for 3 and for 30 windows and gates two things:

* **walk draws, exactly**: the appearance-drift random walks draw exactly
  one ``normal`` per stream-window.  Drift magnitudes come from an
  incremental prefix of the walk; a replay from window 0 draws O(window)
  per query and fails this gate at any window count above one.
* **seconds per window**: at 30 windows, within 1.2x of the 3-window
  figure (best of :data:`REPEATS`, the two lengths interleaved).  Raw
  wall clock, so ``run_benchmarks.py`` skips it when ``CI`` is set.

Draws are counted by the end-to-end benchmark's
:class:`~layers.WalkStepCounter` in runs of their own; timed runs are
uncounted::

    PYTHONPATH=src python benchmarks/bench_horizon.py

``run_benchmarks.py --quick`` runs both gates.
"""

from __future__ import annotations

import sys
import time
from pathlib import Path
from typing import Dict, List

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE / "e2e"))

from layers import WalkStepCounter  # noqa: E402

from repro.fleet import FleetSimulator, make_fleet  # noqa: E402

NUM_SITES = 2
STREAMS_PER_SITE = 10
#: Window counts compared: 10x more simulated time.
WINDOWS = (3, 30)
#: Largest allowed ratio of seconds per window, longest to shortest horizon.
MAX_GROWTH = 1.2
#: Timed runs per horizon; each horizon keeps its fastest.
REPEATS = 3


def count_walk_draws(num_windows: int) -> Dict[str, int]:
    """Walk draws and stream-windows of one ``num_windows`` fleet run."""
    counter = WalkStepCounter()
    counter.install()
    try:
        controller = make_fleet(NUM_SITES, STREAMS_PER_SITE, seed=0)
        FleetSimulator(controller).run(num_windows)
    finally:
        counter.uninstall()
    return {"stream_windows": controller.num_streams * num_windows, "walk_draws": counter.steps}


def seconds_per_window() -> Dict[int, float]:
    """Best-of-:data:`REPEATS` seconds per window for each horizon, interleaved."""
    best = {num_windows: float("inf") for num_windows in WINDOWS}
    for _ in range(REPEATS):
        for num_windows in WINDOWS:
            simulator = FleetSimulator(make_fleet(NUM_SITES, STREAMS_PER_SITE, seed=0))
            began = time.perf_counter()
            simulator.run(num_windows)
            elapsed = (time.perf_counter() - began) / num_windows
            best[num_windows] = min(best[num_windows], elapsed)
    return best


def check_walk_draws() -> List[str]:
    """The exact gate: one walk draw per stream-window at every horizon."""
    failures = []
    for num_windows in WINDOWS:
        counts = count_walk_draws(num_windows)
        if counts["walk_draws"] != counts["stream_windows"]:
            failures.append(
                f"drift walk drew {counts['walk_draws']} steps over "
                f"{counts['stream_windows']} stream-windows at {num_windows} windows "
                f"(must be exactly one per stream-window)"
            )
    return failures


def check_time_growth(per_window: Dict[int, float]) -> List[str]:
    """The wall-clock gate: per-window cost flat across horizons."""
    shortest, longest = min(per_window), max(per_window)
    growth = per_window[longest] / per_window[shortest]
    if growth <= MAX_GROWTH:
        return []
    return [
        f"seconds per window grew {growth:.2f}x from {shortest} to {longest} windows "
        f"({per_window[shortest] * 1000:.1f} -> {per_window[longest] * 1000:.1f} ms; "
        f"bound {MAX_GROWTH:.2f}x)"
    ]


def main() -> int:
    failures = check_walk_draws()
    per_window = seconds_per_window()
    for num_windows, seconds in per_window.items():
        print(f"  {num_windows:3d} windows: {seconds * 1000:7.1f} ms/window")
    failures.extend(check_time_growth(per_window))
    if failures:
        print("HORIZON FLATNESS VIOLATED:")
        for message in failures:
            print(f"  - {message}")
        return 1
    print(f"walk draws exact; seconds per window flat within {MAX_GROWTH:.1f}x")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
