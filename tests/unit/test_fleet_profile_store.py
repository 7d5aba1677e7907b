"""Unit tests for the fleet-wide profile store and its stream keying."""

import json
from collections import Counter

import pytest

from repro.configs import RetrainingConfig
from repro.datasets import DriftProfile, make_stream
from repro.profiles import (
    FleetProfileStore,
    RetrainingEstimate,
    StreamWindowProfile,
    regime_key,
    stream_profile_key,
)


def _profile(stream="cam", window=0, accuracies=(0.7, 0.85), costs=(10.0, 60.0)):
    profile = StreamWindowProfile(
        stream_name=stream, window_index=window, start_accuracy=0.6
    )
    for epochs, accuracy, cost in zip((5, 30), accuracies, costs):
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=epochs),
                post_retraining_accuracy=accuracy,
                gpu_seconds=cost,
                profiling_gpu_seconds=cost / 10.0,
            )
        )
    return profile


KEY = ("cityscapes", "regime-a")


class TestStreamKeying:
    def test_regime_key_distinguishes_drift_profiles(self):
        a = DriftProfile(distribution_volatility=0.3)
        b = DriftProfile(distribution_volatility=0.4)
        assert regime_key(a) != regime_key(b)
        assert regime_key(a) == regime_key(DriftProfile(distribution_volatility=0.3))

    def test_generated_streams_of_one_dataset_share_a_key(self):
        first = stream_profile_key(make_stream("cityscapes", 0, seed=0))
        second = stream_profile_key(make_stream("cityscapes", 7, seed=3))
        assert first == second
        assert first[0] == "cityscapes"

    def test_datasets_get_distinct_keys(self):
        assert stream_profile_key(make_stream("cityscapes", 0, seed=0)) != (
            stream_profile_key(make_stream("urban_traffic", 0, seed=0))
        )

    def test_non_indexed_names_fall_back_to_the_full_name(self):
        from repro.datasets import VideoStream

        stream = VideoStream(
            name="lone-camera-feed",
            drift_profile=DriftProfile(),
            samples_per_window=120,
            eval_samples_per_window=80,
            seed=0,
        )
        assert stream_profile_key(stream)[0] == "lone-camera-feed"


class TestFleetProfileStore:
    def test_empty_store(self):
        store = FleetProfileStore()
        assert len(store) == 0
        assert store.num_pushes == 0
        assert KEY not in store
        assert store.curves_for(KEY) == {}
        assert store.best_candidate(KEY) is None

    def test_push_aggregates_means(self):
        store = FleetProfileStore()
        store.push(KEY, _profile(accuracies=(0.7, 0.85), costs=(10.0, 60.0)))
        store.push(KEY, _profile(accuracies=(0.8, 0.95), costs=(20.0, 80.0)))
        assert KEY in store
        assert store.pushes_for(KEY) == 2
        curves = store.curves_for(KEY)
        cost, accuracy = curves[RetrainingConfig(epochs=5)]
        assert cost == pytest.approx(15.0)
        assert accuracy == pytest.approx(0.75)
        cost, accuracy = curves[RetrainingConfig(epochs=30)]
        assert cost == pytest.approx(70.0)
        assert accuracy == pytest.approx(0.90)

    def test_keys_are_isolated(self):
        store = FleetProfileStore()
        other = ("waymo", "regime-b")
        store.push(KEY, _profile())
        store.push(other, _profile(accuracies=(0.5, 0.6)))
        assert store.curves_for(KEY)[RetrainingConfig(epochs=30)][1] == pytest.approx(0.85)
        assert store.curves_for(other)[RetrainingConfig(epochs=30)][1] == pytest.approx(0.6)
        assert store.keys() == sorted([KEY, other])

    def test_best_candidate_prefers_accuracy_then_cost(self):
        store = FleetProfileStore()
        store.push(KEY, _profile(accuracies=(0.7, 0.85), costs=(10.0, 60.0)))
        config, cost, accuracy = store.best_candidate(KEY)
        assert config == RetrainingConfig(epochs=30)
        assert cost == pytest.approx(60.0)
        assert accuracy == pytest.approx(0.85)
        # A full accuracy tie resolves toward the cheaper configuration.
        tied = FleetProfileStore()
        tied.push(KEY, _profile(accuracies=(0.85, 0.85), costs=(10.0, 60.0)))
        config, cost, _ = tied.best_candidate(KEY)
        assert config == RetrainingConfig(epochs=5)
        assert cost == pytest.approx(10.0)

    def test_curves_shape_matches_history_for(self):
        """curves_for must be drop-in for ProfileStore.history_for pruning."""
        from repro.profiles import ProfileStore

        local = ProfileStore()
        profile = _profile(stream="cam", window=0)
        local.put(profile)
        store = FleetProfileStore()
        store.push(KEY, profile)
        assert store.curves_for(KEY) == local.history_for("cam", up_to_window=1)

    def test_dict_round_trip_through_json(self):
        store = FleetProfileStore()
        store.push(KEY, _profile())
        store.push(KEY, _profile(accuracies=(0.8, 0.9)))
        store.push(("waymo", "regime-b"), _profile())
        payload = json.loads(json.dumps(store.as_dict()))
        restored = FleetProfileStore.from_dict(payload)
        assert restored.keys() == store.keys()
        assert restored.num_pushes == store.num_pushes
        for key in store.keys():
            assert restored.curves_for(key) == store.curves_for(key)
            assert restored.best_candidate(key) == store.best_candidate(key)


class TestStaleCurveDecay:
    """Exponential aging of pushed curves (``decay_half_life``)."""

    def test_default_store_never_decays(self):
        """Weight-1.0-forever is the default: arrival times change nothing."""
        plain = FleetProfileStore()
        plain.push(KEY, _profile(accuracies=(0.9, 0.9)))
        plain.push(KEY, _profile(accuracies=(0.3, 0.3)))
        timed = FleetProfileStore()
        timed.push(KEY, _profile(accuracies=(0.9, 0.9)), at_seconds=0.0)
        timed.push(KEY, _profile(accuracies=(0.3, 0.3)), at_seconds=1e6)
        assert plain.curves_for(KEY) == timed.curves_for(KEY)
        config = RetrainingConfig(epochs=5)
        assert plain.curves_for(KEY)[config][1] == pytest.approx(0.6)

    def test_invalid_half_life_rejected(self):
        from repro.exceptions import ProfilingError

        with pytest.raises(ProfilingError):
            FleetProfileStore(decay_half_life=0.0)
        with pytest.raises(ProfilingError):
            FleetProfileStore(decay_half_life=-10.0)

    def test_old_regime_curve_decays_below_a_fresh_push(self):
        """The ROADMAP item: an old regime's curves must age out.

        An early push says config reaches 0.9; ten half-lives later a fresh
        push says 0.3.  The weighted mean must land near the fresh value,
        not the 0.6 midpoint an undecayed store reports.
        """
        store = FleetProfileStore(decay_half_life=100.0)
        store.push(KEY, _profile(accuracies=(0.9, 0.9)), at_seconds=0.0)
        store.push(KEY, _profile(accuracies=(0.3, 0.3)), at_seconds=1000.0)
        config = RetrainingConfig(epochs=5)
        _, accuracy = store.curves_for(KEY)[config]
        # weight of the old push is 2**-10: mean = (0.9/1024 + 0.3) / (1/1024 + 1)
        assert accuracy == pytest.approx((0.9 / 1024 + 0.3) / (1 / 1024 + 1))
        assert accuracy < 0.31  # the old regime no longer dominates
        undecayed = FleetProfileStore()
        undecayed.push(KEY, _profile(accuracies=(0.9, 0.9)))
        undecayed.push(KEY, _profile(accuracies=(0.3, 0.3)))
        assert undecayed.curves_for(KEY)[config][1] == pytest.approx(0.6)

    def test_same_instant_pushes_share_full_weight(self):
        store = FleetProfileStore(decay_half_life=50.0)
        store.push(KEY, _profile(accuracies=(0.8, 0.8)), at_seconds=200.0)
        store.push(KEY, _profile(accuracies=(0.4, 0.4)), at_seconds=200.0)
        config = RetrainingConfig(epochs=5)
        assert store.curves_for(KEY)[config][1] == pytest.approx(0.6)

    def test_out_of_order_arrival_does_not_inflate(self):
        """A late-arriving push must not resurrect already-decayed curves."""
        store = FleetProfileStore(decay_half_life=100.0)
        store.push(KEY, _profile(accuracies=(0.9, 0.9)), at_seconds=500.0)
        store.push(KEY, _profile(accuracies=(0.3, 0.3)), at_seconds=100.0)
        config = RetrainingConfig(epochs=5)
        # Negative elapsed clamps to zero: equal weights, plain mean.
        assert store.curves_for(KEY)[config][1] == pytest.approx(0.6)
        assert store._last_push_at[KEY] == 500.0

    def test_decay_round_trips_through_json(self):
        store = FleetProfileStore(decay_half_life=100.0)
        store.push(KEY, _profile(accuracies=(0.9, 0.9)), at_seconds=0.0)
        store.push(KEY, _profile(accuracies=(0.3, 0.3)), at_seconds=250.0)
        payload = json.loads(json.dumps(store.as_dict()))
        # The half-life itself round-trips (via the payload's _meta entry):
        # a plain from_dict keeps decaying, no kwarg required.
        restored = FleetProfileStore.from_dict(payload)
        assert restored.decay_half_life == 100.0
        assert restored.curves_for(KEY) == store.curves_for(KEY)
        # Continuing to push after the round trip decays from the same state.
        fresh = _profile(accuracies=(0.5, 0.5))
        store.push(KEY, fresh, at_seconds=400.0)
        restored.push(KEY, fresh, at_seconds=400.0)
        assert restored.curves_for(KEY) == store.curves_for(KEY)

    def test_undecayed_payload_shape_is_unchanged(self):
        """Default stores serialise exactly as before the decay feature."""
        store = FleetProfileStore()
        store.push(KEY, _profile())
        (entry,) = store.as_dict().values()
        assert "last_push_at" not in entry


def _fresh_best(store, key):
    """The best curve point by a fresh argmin over ``curves_for`` (no memo)."""
    curves = store.curves_for(key)
    if not curves:
        return None
    config = min(curves, key=lambda cfg: (-curves[cfg][1], curves[cfg][0], cfg.key()))
    return (config, *curves[config])


class TestBestCandidateMemo:
    """``best_candidate`` is memoised per key; ``push``, its only writer, retires it."""

    #: (arrival time, accuracies, costs): same-instant pairs, out-of-order
    #: arrivals and pushes that flip which configuration is best.
    PUSHES = [
        (0.0, (0.70, 0.85), (10.0, 60.0)),
        (0.0, (0.99, 0.50), (10.0, 60.0)),
        (300.0, (0.40, 0.95), (20.0, 80.0)),
        (100.0, (0.90, 0.90), (30.0, 30.0)),
        (900.0, (0.99, 0.10), (5.0, 90.0)),
        (900.0, (0.10, 0.99), (5.0, 90.0)),
        (400.0, (0.60, 0.20), (40.0, 40.0)),
        (2000.0, (0.80, 0.80), (40.0, 10.0)),
    ]

    @pytest.mark.parametrize("half_life", [None, 150.0])
    def test_memo_equals_a_fresh_argmin_after_every_push(self, half_life):
        store = FleetProfileStore(decay_half_life=half_life)
        assert store.best_candidate(KEY) is None
        winners = []
        for at, accuracies, costs in self.PUSHES:
            store.best_candidate(KEY)  # memoise the answer this push must retire
            store.push(KEY, _profile(accuracies=accuracies, costs=costs), at_seconds=at)
            best = store.best_candidate(KEY)
            assert best == _fresh_best(store, KEY)
            assert store.best_candidate(KEY) is best  # served from the memo
            winners.append(best[0])
        assert len(set(winners)) == 2, "the pushes never moved the best configuration"

    def test_a_chaos_fleet_rebuilds_each_key_at_most_once_per_push(self):
        """Over a seed-0 ``chaos_fleet``-shaped run the control scan queries
        the store's best point thousands of times, but each key's curves
        are rebuilt for it at most once per push to that key."""
        from repro.fleet import FleetSimulator, make_fleet
        from repro.fleet.chaos import ChaosInjector

        windows = 10
        injector = ChaosInjector(0, intensity=1.5)
        controller = make_fleet(
            6,
            12,
            gpus_per_site=4,
            profile_sharing=True,
            wan_faults=injector.wan_faults(),
            control_policy="predictive",
            seed=0,
        )
        scenario = injector.compile(
            [site.name for site in controller.sites],
            window_duration=controller.window_duration,
            num_windows=windows,
            gpus_per_site=4,
        )
        store = controller.profile_sharing.store
        best_candidate, curves_for = store.best_candidate, store.curves_for
        queries, builds, building = Counter(), Counter(), []

        def counted_best_candidate(key):
            queries[key] += 1
            building.append(key)
            try:
                return best_candidate(key)
            finally:
                building.pop()

        def counted_curves_for(key):
            if building:
                builds[key] += 1
            return curves_for(key)

        # Instance attributes shadow the methods, for the store's own calls too.
        store.best_candidate = counted_best_candidate
        store.curves_for = counted_curves_for
        FleetSimulator(controller, scenario, control_interval=50.0).run(windows)
        assert builds
        for key, count in builds.items():
            assert count <= store.pushes_for(key), key
        assert sum(queries.values()) > 10 * sum(builds.values())
