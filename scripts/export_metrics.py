#!/usr/bin/env python
"""Run a fleet simulation and print its Prometheus-style metric exposition.

A thin CLI over :meth:`repro.fleet.telemetry.TelemetryPlane.export_text`:
builds a fleet from scalar knobs (same defaults as the benchmarks' small
shapes), runs it under a ``ManualClock`` for reproducibility, and writes the
text exposition — every ``FleetResult.summary()`` key as an
``ekya_fleet_*`` metric, plus the telemetry plane's own gauges — to stdout,
where a Prometheus file-based scrape (or a human) can pick it up::

    PYTHONPATH=src python scripts/export_metrics.py --sites 4 --streams 4 --windows 3
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

REPO_ROOT = Path(__file__).resolve().parents[1]
sys.path.insert(0, str(REPO_ROOT / "src"))

from repro.fleet import FleetSimulator, make_fleet  # noqa: E402
from repro.utils.clock import ManualClock  # noqa: E402


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--sites", type=int, default=4, help="edge sites (default 4)")
    parser.add_argument(
        "--streams", type=int, default=4, help="streams per site (default 4)"
    )
    parser.add_argument(
        "--gpus", type=int, default=2, help="GPUs per site (default 2)"
    )
    parser.add_argument(
        "--windows", type=int, default=3, help="retraining windows (default 3)"
    )
    parser.add_argument("--seed", type=int, default=0, help="workload seed (default 0)")
    args = parser.parse_args(argv)

    clock = ManualClock()
    controller = make_fleet(
        args.sites, args.streams, gpus_per_site=args.gpus, seed=args.seed, clock=clock
    )
    simulator = FleetSimulator(controller, clock=clock)
    result = simulator.run(args.windows)
    sys.stdout.write(simulator.telemetry.export_text(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
