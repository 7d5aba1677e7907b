"""Unit tests for partial site degradation (GPU failure/recovery)."""

import pytest

from repro.exceptions import FleetError
from repro.fleet import (
    FleetSimulator,
    GpuFailure,
    GpuRecovered,
    Scenario,
    make_fleet,
)
from repro.utils.clock import ManualClock


def _site(num_sites=1, streams_per_site=2, *, gpus_per_site=4, clock=None, **kwargs):
    controller = make_fleet(
        num_sites,
        streams_per_site,
        gpus_per_site=gpus_per_site,
        clock=clock,
        seed=0,
        **kwargs,
    )
    return controller, controller.site("site-0")


class TestSiteGpuBookkeeping:
    def test_degrade_rebuilds_server_at_effective_capacity(self):
        _, site = _site()
        taken = site.degrade_gpus(2)
        assert taken == 2
        assert site.gpus_lost == 2
        assert site.effective_gpus == 2
        assert site.server.spec.num_gpus == 2
        assert site.server.fleet.num_gpus == 2
        # The provisioned spec is untouched.
        assert site.spec.num_gpus == 4

    def test_losses_stack_and_clamp(self):
        _, site = _site()
        assert site.degrade_gpus(3) == 3
        # Only one GPU left: a 2-GPU failure takes just that one.
        assert site.degrade_gpus(2) == 1
        assert site.gpus_lost == 4
        assert site.effective_gpus == 0
        # Nothing left to take.
        assert site.degrade_gpus(1) == 0

    def test_restore_returns_exactly_the_clamped_count(self):
        _, site = _site()
        site.degrade_gpus(3)
        assert site.restore_gpus(2) == 2
        assert site.effective_gpus == 3
        # Restoring more than is lost clamps.
        assert site.restore_gpus(5) == 1
        assert site.gpus_lost == 0
        assert site.server.spec.num_gpus == 4

    def test_full_restore_reproduces_the_original_spec(self):
        _, site = _site()
        original = site.server.spec
        site.degrade_gpus(2)
        site.restore_gpus(2)
        assert site.server.spec == original

    def test_delta_is_clamped_into_the_shrunken_spec(self):
        _, site = _site(gpus_per_site=4, delta=3.0)
        site.degrade_gpus(2)
        assert site.server.spec.num_gpus == 2
        assert site.server.spec.delta == 2.0

    def test_zero_capacity_site_skips_windows_with_finite_load(self):
        _, site = _site()
        site.degrade_gpus(4)
        assert site.prepare_window_request(0) is None
        assert site.plan_window(0) is None
        # Large but finite: inf would defeat the rebalancer's comparisons.
        assert site.load > 1e5
        assert site.load < float("inf")

    def test_degraded_site_looks_proportionally_more_loaded(self):
        _, site = _site(streams_per_site=4)
        base = site.load
        site.degrade_gpus(2)
        assert site.load == pytest.approx(2 * base)

    def test_rejects_non_positive_counts(self):
        _, site = _site()
        with pytest.raises(FleetError):
            site.degrade_gpus(0)
        with pytest.raises(FleetError):
            site.restore_gpus(0)


class TestGpuFailureScenarioEvent:
    def test_validates_trigger_and_expiry(self):
        event = GpuFailure(site="site-0", at_seconds=50.0, recovery_at=250.0, num_gpus=2)
        assert (event.at_seconds, event.recovery_at) == (50.0, 250.0)
        with pytest.raises(FleetError):
            GpuFailure(site="site-0")  # no trigger
        with pytest.raises(FleetError):
            GpuFailure(site="site-0", at_seconds=50.0, num_gpus=0)
        with pytest.raises(FleetError):
            GpuFailure(site="", at_seconds=50.0)
        with pytest.raises(FleetError):
            GpuFailure(site="site-0", at_seconds=50.0, recovery_at=50.0)

    def test_unknown_site_is_rejected_at_simulator_construction(self):
        clock = ManualClock()
        controller, _ = _site(2, 1, clock=clock)
        scenario = Scenario([GpuFailure(site="site-9", at_seconds=10.0)])
        with pytest.raises(FleetError):
            FleetSimulator(controller, scenario, clock=clock)


class TestFleetGpuDegradation:
    def test_flap_degrades_then_restores_capacity(self):
        clock = ManualClock()
        controller, site = _site(2, 2, clock=clock)
        scenario = Scenario(
            [GpuFailure(site="site-0", at_seconds=250.0, recovery_at=450.0, num_gpus=3)]
        )
        simulator = FleetSimulator(controller, scenario, clock=clock)
        result = simulator.run(4)
        assert site.gpus_lost == 0
        assert site.server.spec.num_gpus == 4
        recoveries = [e for e in simulator.event_trace if isinstance(e, GpuRecovered)]
        assert [e.num_gpus for e in recoveries] == [3]
        assert recoveries[0].time == 450.0
        # Streams were served in every window regardless of the flap.
        assert all(w.stream_outcomes for w in result.windows)

    def test_zero_capacity_preemptive_site_cancels_in_flight_retrainings(self):
        clock = ManualClock()
        controller, site = _site(2, 2, clock=clock)
        scenario = Scenario(
            [GpuFailure(site="site-0", at_seconds=210.0, recovery_at=450.0, num_gpus=4)]
        )
        simulator = FleetSimulator(controller, scenario, clock=clock)
        result = simulator.run(4)
        assert result.retrainings_cancelled >= 1
        # Every cancellation left a gpu_failure marker on the calendar trace.
        markers = [
            e
            for e in simulator.event_trace
            if getattr(e, "reason", None) == "gpu_failure"
        ]
        assert len(markers) == result.retrainings_cancelled
        assert site.gpus_lost == 0  # recovered before the run ended

    def test_identical_seeds_replay_bit_identically(self):
        def run():
            clock = ManualClock()
            controller, _ = _site(2, 2, clock=clock)
            scenario = Scenario(
                [
                    GpuFailure(
                        site="site-0", at_seconds=230.0, recovery_at=500.0, num_gpus=2
                    )
                ]
            )
            return FleetSimulator(controller, scenario, clock=clock).run(4).summary()

        assert run() == run()
