"""A/B harness: replay identical seeded calendars under two control policies.

The only honest way to compare control policies is to hold *everything*
else fixed: the same fleet shape, the same seeds, the same scenario events
at the same absolute instants, the same :class:`~repro.utils.clock.
ManualClock`.  :func:`run_policy_scenario` builds exactly that fleet twice
— once per policy — so every difference in the outcome is attributable to
the control decisions alone.

Three :func:`reference_scenarios` exercise the regimes where prediction
should pay (they are the fixtures of the acceptance test in
``tests/integration/test_policy_ab.py`` and of ``benchmarks/
bench_policy.py``):

* ``flash_crowd`` — a mid-run arrival burst on one site; a reactive
  rebalancer migrates blindly and cancels in-flight retrainings, a
  predictive one weighs each move's accuracy profit against the wasted
  GPU-seconds.
* ``wan_degradation`` — one site's WAN collapses mid-run; migrations
  through the degraded link cost far more than usual, which the predictive
  policy's WAN-cost term sees and the greedy policy does not.
* ``gpu_flaps`` — partial GPU failures shrink sites mid-window; retrainings
  that can no longer finish before the boundary burn GPU-seconds for
  nothing unless proactively cancelled.

``scripts/run_policy_ab.py`` is the CLI wrapper; results feed
``BENCH_fleet.json`` under the ``"policy"`` entry.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence, Tuple, Union

from ...exceptions import FleetError
from ...utils.clock import ManualClock
from ..scenarios import FlashCrowd, GpuFailure, Scenario, ScenarioEvent, WanDegradation
from .base import ControlPolicy

__all__ = [
    "AbComparison",
    "AbScenario",
    "PolicyRun",
    "reference_scenarios",
    "run_policy_ab",
    "run_policy_scenario",
]

#: Metrics every :class:`PolicyRun` carries; deltas are predictive - greedy
#: except accuracies, reported so "up is good" for the first two rows.
COMPARED_METRICS = (
    "mean_accuracy",
    "p10_worst_stream_accuracy",
    "wasted_gpu_seconds",
    "total_migration_seconds",
    "migration_count",
)


@dataclass(frozen=True)
class AbScenario:
    """One replayable fleet + scenario fixture for a policy comparison."""

    name: str
    events: Tuple[ScenarioEvent, ...] = ()
    num_sites: int = 3
    streams_per_site: int = 4
    gpus_per_site: int = 2
    num_windows: int = 5
    window_duration: float = 200.0
    control_interval: float = 50.0
    seed: int = 0

    def __post_init__(self) -> None:
        if self.num_sites < 2:
            raise FleetError("an A/B scenario needs >= 2 sites to migrate between")
        if self.num_windows < 1:
            raise FleetError("num_windows must be >= 1")


def reference_scenarios() -> List[AbScenario]:
    """The three committed fixtures the acceptance criteria run against."""
    return [
        AbScenario(
            name="flash_crowd",
            events=(
                FlashCrowd(at_seconds=250.0, num_streams=5, site="site-0"),
            ),
        ),
        AbScenario(
            name="wan_degradation",
            events=(
                FlashCrowd(at_seconds=230.0, num_streams=5, site="site-1"),
                WanDegradation(
                    site="site-1",
                    at_seconds=210.0,
                    until_at=810.0,
                    uplink_factor=0.08,
                    downlink_factor=0.08,
                ),
            ),
            # One extra window past the WAN restore: holding migrations
            # until the link recovers only pays if the run lives to see it.
            num_windows=6,
        ),
        AbScenario(
            name="gpu_flaps",
            events=(
                GpuFailure(site="site-0", at_seconds=230.0, recovery_at=430.0),
                GpuFailure(site="site-2", at_seconds=620.0, recovery_at=820.0),
                FlashCrowd(at_seconds=430.0, num_streams=2, site="site-2"),
            ),
        ),
    ]


@dataclass(frozen=True)
class PolicyRun:
    """One policy's outcome on one scenario: the compared metric slice."""

    policy: str
    metrics: Dict[str, float] = field(hash=False)

    @classmethod
    def from_summary(cls, policy: str, summary: Dict[str, object]) -> "PolicyRun":
        return cls(
            policy=policy,
            metrics={key: float(summary[key]) for key in COMPARED_METRICS},
        )


@dataclass(frozen=True)
class AbComparison:
    """Greedy vs predictive on one scenario, plus the derived deltas."""

    scenario: str
    greedy: PolicyRun
    predictive: PolicyRun

    @property
    def deltas(self) -> Dict[str, float]:
        """Predictive minus greedy, per compared metric."""
        return {
            key: self.predictive.metrics[key] - self.greedy.metrics[key]
            for key in COMPARED_METRICS
        }

    @property
    def predictive_wins(self) -> bool:
        """The acceptance criterion: better tail accuracy AND less waste."""
        return (
            self.deltas["p10_worst_stream_accuracy"] > 0.0
            and self.deltas["wasted_gpu_seconds"] < 0.0
        )


def run_policy_scenario(
    spec: AbScenario, policy: Union[str, ControlPolicy]
) -> Dict[str, object]:
    """Run one scenario under one policy; returns the full summary mapping.

    Builds the fleet fresh (same seed, :class:`ManualClock`, profile
    sharing) so repeated calls — and the two arms of an A/B pair — replay
    the identical event calendar.
    """
    # Local import: the policy package must stay importable by the factory,
    # so the harness (which needs the factory) cannot be a package-level
    # import there.
    from ..factory import make_fleet
    from ..simulator import FleetSimulator

    clock = ManualClock()
    controller = make_fleet(
        spec.num_sites,
        spec.streams_per_site,
        gpus_per_site=spec.gpus_per_site,
        window_duration=spec.window_duration,
        seed=spec.seed,
        clock=clock,
        profile_sharing=True,
        control_policy=policy,
    )
    simulator = FleetSimulator(
        controller,
        Scenario(list(spec.events)),
        clock=clock,
        control_interval=spec.control_interval,
    )
    return simulator.run(spec.num_windows).summary()


def run_policy_ab(
    scenarios: Optional[Sequence[AbScenario]] = None,
    *,
    policies: Tuple[Union[str, ControlPolicy], Union[str, ControlPolicy]] = (
        "greedy",
        "predictive",
    ),
) -> List[AbComparison]:
    """Run every scenario under both policies; one comparison per scenario."""
    specs = list(scenarios) if scenarios is not None else reference_scenarios()
    comparisons = []
    for spec in specs:
        baseline, candidate = policies
        greedy = PolicyRun.from_summary(
            _policy_label(baseline), run_policy_scenario(spec, baseline)
        )
        predictive = PolicyRun.from_summary(
            _policy_label(candidate), run_policy_scenario(spec, candidate)
        )
        comparisons.append(
            AbComparison(scenario=spec.name, greedy=greedy, predictive=predictive)
        )
    return comparisons


def _policy_label(policy: Union[str, ControlPolicy]) -> str:
    return policy if isinstance(policy, str) else policy.name
