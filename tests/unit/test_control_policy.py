"""Unit tests for the pluggable control-policy plane.

Pins the plane's contracts: the greedy default is the controller's policy
unless asked otherwise, its no-op-scan skip is output-identical (same
``MigrationEvent`` sequence bit for bit, only the skip counter moves), the
predictive policy is deterministic with name-based tie-breaks, rejects
whole scans when no candidate clears ``MIN_PROFIT``, and the
proactive-cancellation channel degrades to a counted no-op without
a simulator hook.  The departure hook must fire exactly once per
mid-window migration — double-firing would double-cancel and double-reclaim.
"""

import pytest

from repro.exceptions import FleetError
from repro.fleet import (
    FlashCrowd,
    FleetSimulator,
    GreedyRebalancePolicy,
    POLICY_NAMES,
    PredictiveProfitPolicy,
    Scenario,
    build_policy,
    make_fleet,
)
from repro.fleet.policy.ab import AbScenario, run_policy_scenario
from repro.utils.clock import ManualClock

SEED = 0

#: A calendar that actually trips greedy's overload threshold: five extra
#: streams on one 4-stream / 2-GPU site push its load past 1.5x the mean.
BURST = Scenario(events=[FlashCrowd(at_seconds=250.0, num_streams=5, site="site-0")])


def _run(policy, scenario=BURST, *, num_windows=4, control_interval=50.0, **kwargs):
    clock = ManualClock()
    controller = make_fleet(
        3,
        4,
        gpus_per_site=2,
        seed=SEED,
        clock=clock,
        control_policy=policy,
        **kwargs,
    )
    simulator = FleetSimulator(
        controller, scenario, clock=clock, control_interval=control_interval
    )
    return controller, simulator.run(num_windows)


class _ScansEveryTime(GreedyRebalancePolicy):
    """Greedy with its idle-scan cache cleared before every scan."""

    def rebalance(self, controller, window_index, signals=None):
        self._idle_key = None
        return super().rebalance(controller, window_index, signals)


class _Unprofitable(PredictiveProfitPolicy):
    """Predictive with a minimum profit no move can clear."""

    MIN_PROFIT = 1000.0


def _migration_tuples(result):
    return [
        (e.stream_name, e.source, e.destination, e.window_index, e.transfer_seconds, e.reason)
        for window in result.windows
        for e in window.migrations
    ]


class TestFactoryAndDefaults:
    def test_policy_names_and_build_policy(self):
        assert POLICY_NAMES == ("greedy", "predictive")
        assert isinstance(build_policy("greedy"), GreedyRebalancePolicy)
        assert isinstance(build_policy("predictive"), PredictiveProfitPolicy)
        with pytest.raises(FleetError):
            build_policy("thompson")

    def test_default_fleet_policy_is_greedy(self):
        controller = make_fleet(2, 2, seed=SEED)
        assert isinstance(controller.control_policy, GreedyRebalancePolicy)
        assert controller.control_policy.name == "greedy"
        assert controller.control_policy.wants_signals is False

    def test_policy_instance_passes_through(self):
        policy = PredictiveProfitPolicy()
        controller = make_fleet(2, 2, seed=SEED, control_policy=policy)
        assert controller.control_policy is policy


class TestGreedyScanSkip:
    def test_skip_is_output_identical(self):
        """The satellite pin: skipping no-op scans changes no MigrationEvent.

        Same fleet, same burst calendar, mid-window control ticks; the only
        summary difference allowed is the ``control_scans_skipped`` counter.
        """
        _, skipping = _run(GreedyRebalancePolicy())
        _, scanning = _run(_ScansEveryTime())
        assert _migration_tuples(skipping) == _migration_tuples(scanning)
        skipped = skipping.summary()
        scanned = scanning.summary()
        assert skipped["control_scans_skipped"] > 0
        assert scanned["control_scans_skipped"] == 0
        for key in skipped:
            if key == "control_scans_skipped":
                continue
            assert skipped[key] == scanned[key], key

    def test_mutation_invalidates_the_idle_cache(self):
        """A burst right after an idle scan must not be skipped past.

        If the cached idle key survived the flash crowd, the overloaded
        site would sit unbalanced until some other mutation; the migrations
        above prove the cache invalidates (the load vector changed)."""
        _, result = _run(GreedyRebalancePolicy())
        assert result.summary()["migration_count"] > 0


class TestPredictivePolicy:
    def test_deterministic_replay(self):
        """Same seed, same calendar: bit-identical summaries and events.

        The policy's tie-breaks are all name-based, so nothing in a scan
        depends on dict iteration order or object identity."""
        spec = AbScenario(
            name="replay",
            events=(FlashCrowd(at_seconds=250.0, num_streams=5, site="site-0"),),
        )
        first = run_policy_scenario(spec, "predictive")
        second = run_policy_scenario(spec, "predictive")
        assert first == second

    def test_all_negative_profit_rejects_the_scan(self):
        """An unclearable MIN_PROFIT: no migrations, counted rejections."""
        policy = _Unprofitable()
        controller, result = _run(policy, profile_sharing=True)
        summary = result.summary()
        assert summary["migration_count"] == 0
        assert summary["migrations_rejected"] > 0
        assert controller.control_counters["migrations_rejected"] == (
            summary["migrations_rejected"]
        )

    def test_migrations_carry_the_predictive_reason(self):
        _, result = _run(PredictiveProfitPolicy(), profile_sharing=True)
        summary = result.summary()
        assert summary["control_policy"] == "predictive"
        assert summary["migration_count"] > 0
        for event_tuple in _migration_tuples(result):
            assert event_tuple[-1] in {"predictive", "evacuation"}


class TestDepartureAndCancellationHooks:
    def test_departure_hook_fires_exactly_once_per_migration(self):
        """Every mid-window move notifies the hook once — never zero, never
        twice (twice would double-cancel the in-flight retraining)."""
        clock = ManualClock()
        controller = make_fleet(
            3,
            4,
            gpus_per_site=2,
            seed=SEED,
            clock=clock,
            profile_sharing=True,
            control_policy="predictive",
        )
        simulator = FleetSimulator(controller, BURST, clock=clock, control_interval=50.0)
        calls = []
        inner = controller._departure_hook
        assert inner is not None, "simulators install the hook"
        controller.set_departure_hook(
            lambda stream, source, reason: (
                calls.append((stream, source, reason)),
                inner(stream, source, reason),
            )[-1]
        )
        result = simulator.run(4)
        moves = _migration_tuples(result)
        assert moves, "the burst must trigger at least one migration"
        assert len(calls) == len(moves)
        assert calls == [(m[0], m[1], m[5]) for m in moves]
        assert len(set(calls)) == len(calls)

    def test_request_cancellation_without_hook_is_a_counted_noop(self):
        controller = make_fleet(2, 2, seed=SEED)
        assert controller.request_cancellation("site-0", "cityscapes-0") is False
        assert controller.control_counters["proactive_cancellations"] == 0

    def test_request_cancellation_counts_only_actual_cancels(self):
        controller = make_fleet(2, 2, seed=SEED)
        controller.set_cancellation_hook(lambda site, stream, reason: False)
        assert controller.request_cancellation("site-0", "cityscapes-0") is False
        assert controller.control_counters["proactive_cancellations"] == 0
        controller.set_cancellation_hook(lambda site, stream, reason: True)
        assert controller.request_cancellation("site-0", "cityscapes-0") is True
        assert controller.control_counters["proactive_cancellations"] == 1


class TestAbScenarioValidation:
    def test_rejects_single_site_and_zero_windows(self):
        with pytest.raises(FleetError):
            AbScenario(name="lonely", num_sites=1)
        with pytest.raises(FleetError):
            AbScenario(name="instant", num_windows=0)
