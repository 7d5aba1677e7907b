"""The bounded-memory telemetry plane: ring, sampler, stats table, export.

The plane replaces unbounded Python-object telemetry with fixed-layout
numpy storage, so these tests pin the compatibility contracts everything
else relies on: the event ring decodes back into the *same* ``SimEvent``
dataclasses (and serves them as a cached tuple — the old ``event_trace``
copied per access), the stats table round-trips ``SiteWindowStats``
bit-identically, the drop counter is exact, and the Prometheus exposition
covers every ``FleetResult.summary()`` key.
"""

import numpy as np
import pytest

from repro.exceptions import FleetError
from repro.fleet import (
    ControlTick,
    FleetSimulator,
    GpuRecovered,
    InferenceReconfigured,
    MigrationStarted,
    ProfilePush,
    RetrainingComplete,
    Scenario,
    SiteFailure,
    SiteRecovery,
    TelemetryConfig,
    TelemetryPlane,
    TransferArrival,
    TransferFailed,
    WanRestore,
    WindowBoundary,
    make_fleet,
    run_chaos_trial,
)
from repro.fleet.migration import MigrationEvent
from repro.fleet.telemetry import EVENT_DTYPE, P2Quantile
from repro.utils.clock import ManualClock


def _small_sim(**fleet_kwargs):
    clock = ManualClock()
    controller = make_fleet(2, 2, gpus_per_site=2, seed=0, clock=clock, **fleet_kwargs)
    return FleetSimulator(controller, clock=clock)


# ---------------------------------------------------------------- event ring
class TestEventRing:
    def test_envelope_layout_is_fixed_and_compact(self):
        assert EVENT_DTYPE.itemsize <= 32

    def test_every_event_type_round_trips_losslessly(self):
        migration = MigrationEvent(
            stream_name="s", source="site-0", destination="site-1",
            reason="overload", transfer_seconds=3.5, window_index=1,
        )
        failure = SiteFailure(site="site-0", at_seconds=10.0, recovery_at=50.0)
        events = [
            SiteRecovery(time=1.0, site="site-0", owner=failure),
            WanRestore(time=2.0, site="site-1", owner=failure),
            GpuRecovered(time=3.0, site="site-0", num_gpus=2),
            TransferArrival(time=4.5, stream="cityscapes-1"),
            TransferFailed(
                time=5.0, stream="cityscapes-2", site="site-1", kind="checkpoint",
                attempt=3, wasted_seconds=7.25, final=True,
            ),
            TransferFailed(
                time=5.5, stream="", site="site-0", kind="profile_push",
                attempt=1, wasted_seconds=0.5, final=True,
            ),
            RetrainingComplete(time=6.0, site="site-0", stream="s", window_index=4),
            InferenceReconfigured(
                time=7.0, site="site-1", stream="s", inference_gpu=0.75,
                reason="retraining_cancelled",
            ),
            InferenceReconfigured(
                time=7.5, site="site-1", stream="s", inference_gpu=0.5,
                reason="some_future_reason",
            ),
            ProfilePush(time=8.0, site="site-0", profiles=(("key", "profile"),)),
            ControlTick(time=9.0),
            WindowBoundary(time=10.0, site="site-1", window_index=2),
            MigrationStarted(time=11.0, migration=migration),
        ]
        plane = TelemetryPlane()
        for event in events:
            plane.record_event(event)
        assert list(plane.events()) == events

    def test_eviction_keeps_newest_and_counts_drops_exactly(self):
        plane = TelemetryPlane(TelemetryConfig(event_ring_capacity=4))
        for i in range(11):
            plane.record_event(ControlTick(time=float(i)))
        assert plane.ring_occupancy == 4
        assert plane.events_recorded == 11
        assert plane.events_dropped == 7
        assert [e.time for e in plane.events()] == [7.0, 8.0, 9.0, 10.0]

    def test_simulator_surfaces_drop_counter_in_summary(self):
        simulator = _small_sim(telemetry=TelemetryConfig(event_ring_capacity=3))
        result = simulator.run(2)
        plane = simulator.telemetry
        assert plane.events_recorded > 3
        expected = plane.events_recorded - 3
        assert plane.events_dropped == expected
        assert result.summary()["telemetry_events_dropped"] == expected
        assert result.summary()["telemetry_ring_occupancy"] == 3
        assert len(simulator.event_trace) == 3

    def test_event_trace_is_served_cached_not_copied(self):
        """Regression: event_trace used to build a fresh tuple per access."""
        simulator = _small_sim()
        simulator.run(1)
        first = simulator.event_trace
        assert simulator.event_trace is first  # O(1) repeated reads
        simulator.run(1, start_window=1)
        second = simulator.event_trace
        assert second is not first
        assert len(second) > len(first)
        assert list(second[: len(first)]) == list(first)
        assert simulator.event_trace is second


# ------------------------------------------------------------------ sketches
class TestP2Quantile:
    def test_exact_regime_matches_numpy_percentile(self):
        rng = np.random.default_rng(7)
        values = rng.uniform(0.0, 1.0, size=40)
        sketch = P2Quantile(0.10, exact_limit=64)
        for value in values:
            sketch.add(value)
        assert sketch.is_exact
        assert sketch.value() == pytest.approx(np.percentile(values, 10.0), abs=1e-12)
        assert sketch.count == 40

    def test_streaming_regime_is_within_the_documented_bound(self):
        rng = np.random.default_rng(3)
        values = rng.normal(0.7, 0.1, size=600)
        sketch = P2Quantile(0.10, exact_limit=64)
        for value in values:
            sketch.add(value)
        assert not sketch.is_exact
        exact = np.percentile(values, 10.0)
        bound = 0.05 * (values.max() - values.min())
        assert abs(sketch.value() - exact) <= bound

    def test_rejects_degenerate_parameters(self):
        with pytest.raises(FleetError):
            P2Quantile(0.0)
        with pytest.raises(FleetError):
            P2Quantile(0.1, exact_limit=3)


class TestAdaptiveSampler:
    def _plane(self, **overrides):
        defaults = dict(top_k_movers=1, tail_stride=3, series_capacity=8)
        defaults.update(overrides)
        return TelemetryPlane(TelemetryConfig(**defaults))

    def test_movers_sample_densely_and_the_tail_sparsely(self):
        plane = self._plane()
        mover, stable = "mover", "stable"
        for window in range(9):
            plane.observe_streams(
                window, {mover: 0.1 * (window % 2), stable: 0.5}
            )
        # The mover flips every window and wins the single dense slot each
        # time; the stable stream records at most 1-in-3.
        assert len(plane.stream_series(mover)) == 8  # series ring capacity
        assert len(plane.stream_series(stable)) <= 3

    def test_aggregates_stay_exact_for_unsampled_streams(self):
        plane = self._plane()
        values = [0.5, 0.51, 0.49, 0.5, 0.52, 0.5]
        for window, value in enumerate(values):
            plane.observe_streams(window, {"mover": float(window), "tail": value})
        summary = plane.stream_summary("tail")
        assert summary["count"] == len(values)
        assert summary["mean"] == pytest.approx(np.mean(values), abs=1e-12)
        assert summary["p10"] == pytest.approx(np.percentile(values, 10.0), abs=1e-12)

    def test_sampled_streams_gauge_counts_the_latest_window(self):
        plane = self._plane(top_k_movers=2)
        plane.observe_streams(0, {"a": 0.1, "b": 0.2, "c": 0.3})
        assert plane.sampled_streams == 2
        plane.observe_streams(1, {"a": 0.9, "b": 0.2, "c": 0.3})
        assert plane.sampled_streams == 2  # reset, then 2 movers again

    def test_unknown_stream_queries_raise(self):
        plane = self._plane()
        with pytest.raises(FleetError):
            plane.stream_summary("nope")
        with pytest.raises(FleetError):
            plane.stream_series("nope")


# ------------------------------------------------------------- stats packing
class TestSiteStatsPacking:
    def test_site_stats_round_trip_is_bit_identical(self):
        simulator = _small_sim()
        window = simulator.run(2).windows[1]
        stats = window.site_stats["site-0"]
        # Reading twice materialises from the packed table via the cache;
        # a fresh identical run must produce value-equal dataclasses.
        rerun = _small_sim().run(2).windows[1]
        assert window.site_stats == rerun.site_stats
        assert stats == rerun.site_stats["site-0"]
        assert isinstance(stats.num_streams, int)
        assert isinstance(stats.utilization, float)

    def test_table_grows_past_its_initial_capacity(self):
        simulator = _small_sim(telemetry=TelemetryConfig(site_stats_capacity=1))
        result = simulator.run(3)
        assert all(len(w.site_stats) == 2 for w in result.windows)

    def test_standalone_window_result_has_empty_stats(self):
        from repro.fleet import FleetWindowResult

        assert FleetWindowResult(window_index=0).site_stats == {}


# ------------------------------------------------------------------- wiring
class TestTelemetryWiring:
    def test_make_fleet_threads_the_config_through(self):
        clock = ManualClock()
        config = TelemetryConfig(event_ring_capacity=128)
        controller = make_fleet(
            1, 1, gpus_per_site=1, seed=0, clock=clock, telemetry=config
        )
        assert controller.telemetry is config
        simulator = FleetSimulator(controller, clock=clock)
        assert simulator.telemetry.ring_capacity == 128

    def test_explicit_plane_wins_over_the_controller_config(self):
        clock = ManualClock()
        controller = make_fleet(
            1, 1, gpus_per_site=1, seed=0, clock=clock,
            telemetry=TelemetryConfig(event_ring_capacity=128),
        )
        plane = TelemetryPlane(TelemetryConfig(event_ring_capacity=16))
        simulator = FleetSimulator(controller, clock=clock, telemetry=plane)
        assert simulator.telemetry is plane

    def test_invalid_telemetry_argument_is_rejected(self):
        clock = ManualClock()
        controller = make_fleet(1, 1, gpus_per_site=1, seed=0, clock=clock)
        with pytest.raises(FleetError):
            FleetSimulator(controller, clock=clock, telemetry="big")

    def test_invalid_config_values_are_rejected(self):
        with pytest.raises(FleetError):
            TelemetryConfig(event_ring_capacity=0)
        with pytest.raises(FleetError):
            TelemetryConfig(tail_stride=0)

    def test_chaos_reports_carry_telemetry_accounting(self):
        report = run_chaos_trial(0, quick=True)
        assert report.ok
        telemetry = report.telemetry
        assert telemetry["ring_occupancy"] <= telemetry["ring_capacity"]
        assert telemetry["events_dropped"] == max(
            0, telemetry["events_recorded"] - telemetry["ring_capacity"]
        )
        assert telemetry["telemetry_bytes"] > 0


# -------------------------------------------------------------------- export
class TestPrometheusExport:
    def test_export_covers_every_summary_key(self):
        simulator = _small_sim()
        result = simulator.run(2)
        text = simulator.telemetry.export_text(result)
        for key in result.summary():
            assert f"ekya_fleet_{key}" in text, f"export must cover {key!r}"

    def test_export_format_and_value_encodings(self):
        clock = ManualClock()
        controller = make_fleet(2, 4, gpus_per_site=1, seed=0, clock=clock)
        scenario = Scenario(
            events=[SiteFailure(at_seconds=200.0, site="site-0", recovery_at=400.0)]
        )
        simulator = FleetSimulator(controller, scenario, clock=clock)
        result = simulator.run(3)
        summary = result.summary()
        text = simulator.telemetry.export_text(result)
        lines = text.splitlines()
        # Info-style gauge for the string key, labelled counters for dicts.
        policy = summary["admission_policy"]
        assert f'ekya_fleet_admission_policy_info{{policy="{policy}"}} 1' in lines
        assert summary["migrations_by_reason"], "scenario must migrate streams"
        for reason, count in summary["migrations_by_reason"].items():
            assert (
                f'ekya_fleet_migrations_by_reason_total{{reason="{reason}"}} {count}'
                in lines
            )
        assert f"ekya_fleet_num_sites {summary['num_sites']}" in lines
        # Every sample line is preceded by HELP/TYPE metadata for its metric.
        assert lines.count("# TYPE ekya_fleet_num_sites gauge") == 1
        assert lines.count("# HELP ekya_fleet_num_sites Edge sites in the fleet.") == 1
        # The control policy exports as a second info-style gauge.
        control = summary["control_policy"]
        assert f'ekya_fleet_control_policy_info{{policy="{control}"}} 1' in lines

    def test_export_appends_accuracy_histogram(self):
        simulator = _small_sim()
        result = simulator.run(2)
        text = simulator.telemetry.export_text(result)
        lines = text.splitlines()
        assert "# TYPE ekya_fleet_stream_accuracy histogram" in lines
        buckets = [
            float(line.rsplit(" ", 1)[1])
            for line in lines
            if line.startswith('ekya_fleet_stream_accuracy_bucket{le="')
            and '+Inf' not in line
        ]
        assert buckets, "histogram must render at least one finite bucket"
        assert buckets == sorted(buckets), "bucket counts must be cumulative"
        count_line = [l for l in lines if l.startswith("ekya_fleet_stream_accuracy_count")]
        total = int(count_line[0].rsplit(" ", 1)[1])
        assert total > 0, "a real run observes accuracies"
        assert buckets[-1] <= total
        assert f'ekya_fleet_stream_accuracy_bucket{{le="+Inf"}} {total}' in lines
        sum_line = [l for l in lines if l.startswith("ekya_fleet_stream_accuracy_sum")]
        assert 0.0 <= float(sum_line[0].rsplit(" ", 1)[1]) <= float(total)

    def test_histogram_renderer_clamps_sketch_noise(self):
        from repro.fleet.export import render_accuracy_histogram

        text = render_accuracy_histogram(
            {"buckets": [(0.5, 3.2), (0.8, 2.9), (1.0, 7.5)], "count": 5, "sum": 3.5}
        )
        lines = text.splitlines()
        # 2.9 < 3.2 is clamped up; 7.5 > count is clamped down to 5.
        assert 'ekya_fleet_stream_accuracy_bucket{le="0.5"} 3.2' in lines
        assert 'ekya_fleet_stream_accuracy_bucket{le="0.8"} 3.2' in lines
        assert 'ekya_fleet_stream_accuracy_bucket{le="1.0"} 5.0' in lines
        assert 'ekya_fleet_stream_accuracy_bucket{le="+Inf"} 5' in lines

    def test_sampler_histogram_matches_exact_counts_below_buffer_limit(self):
        plane = TelemetryPlane(TelemetryConfig())
        series = {"a": [0.2, 0.4, 0.6], "b": [0.7, 0.9]}
        window = 0
        for _ in range(3):
            for i in range(3):
                batch = {
                    name: values[i] for name, values in series.items() if i < len(values)
                }
                plane.observe_streams(window, batch)
                window += 1
        histogram = plane.sampler.histogram((0.5, 0.8, 1.0))
        assert histogram["count"] == 15
        by_bound = dict(histogram["buckets"])
        assert by_bound[0.5] == pytest.approx(6.0)  # 0.2, 0.4 per repeat
        assert by_bound[0.8] == pytest.approx(12.0)  # + 0.6, 0.7 per repeat
        assert by_bound[1.0] == pytest.approx(15.0)
        assert histogram["sum"] == pytest.approx(
            sum(sum(values) for values in series.values()) * 3
        )

    def test_p2_cumulative_below_streams_past_the_exact_buffer(self):
        sketch = P2Quantile(0.5, exact_limit=8)
        rng = np.random.default_rng(7)
        data = rng.uniform(0.0, 1.0, 500)
        for x in data:
            sketch.add(float(x))
        for bound in (0.25, 0.5, 0.75):
            exact = float(np.sum(data <= bound))
            assert sketch.cumulative_below(bound) == pytest.approx(exact, rel=0.15)
        assert sketch.cumulative_below(-0.1) == 0.0
        assert sketch.cumulative_below(2.0) == pytest.approx(500.0)
