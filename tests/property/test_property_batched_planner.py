"""Property suite: the batched planner equals the scalar oracle bit for bit.

The :class:`~repro.core.batched_planner.BatchedThiefScheduler` stacks every
stream's lattice into blocked numpy evaluations, but its contract is
*decision equivalence*: identical decisions, iteration and
PickConfigs-evaluation counters and estimated accuracies to
:class:`~repro.core.ThiefScheduler` on any request.  The scalar thief is the
reference oracle — these properties fuzz randomized problems (fleet shapes,
pruned grids, degraded sites, empty sites, hand-built accuracy landscapes,
row blocks, prefix columns, multi-unit victims under every patience) and
compare the two paths field by field with ``==``, never with tolerances.
"""

import math
from contextlib import contextmanager
from unittest import mock

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster import EdgeServerSpec
from repro.configs import (
    ConfigurationSpace,
    InferenceConfig,
    RetrainingConfig,
    default_inference_configs,
    default_retraining_grid,
)
from repro.core import (
    EkyaPolicy,
    OracleProfileSource,
    ScheduleRequest,
    StreamWindowInput,
    ThiefScheduler,
)
from repro.core import batched_planner, thief
from repro.core.batched_planner import BatchedThiefScheduler
from repro.datasets import make_workload
from repro.fleet.factory import make_fleet
from repro.fleet.simulator import FleetSimulator
from repro.profiles import AnalyticDynamics, RetrainingEstimate, StreamWindowProfile

#: Deterministic fleet-summary fields (seed-fixed, no wall-clock content):
#: the batched path must reproduce each one bit for bit.
FLEET_PARITY_FIELDS = (
    "mean_accuracy",
    "p10_worst_stream_accuracy",
    "migration_count",
    "mean_utilization",
    "mean_allocation_loss",
)

unit = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


def assert_schedules_identical(scalar, batched):
    """The equivalence contract, field by field, all exact."""
    assert batched.decisions == scalar.decisions
    assert batched.iterations == scalar.iterations
    assert batched.pick_configs_evaluations == scalar.pick_configs_evaluations
    assert batched.estimated_average_accuracy == scalar.estimated_average_accuracy


def build_oracle_request(num_streams, num_gpus, seed, grid, inference_configs, delta):
    """A randomized oracle-profiled scheduling problem (one fleet window)."""
    space = ConfigurationSpace(
        retraining_configs=grid, inference_configs=inference_configs
    )
    streams = make_workload("cityscapes", num_streams, seed=seed)
    spec = EdgeServerSpec(num_gpus=num_gpus, delta=delta, window_duration=200.0)
    policy = EkyaPolicy(
        OracleProfileSource(AnalyticDynamics(seed=seed), seed=seed),
        space,
        steal_quantum=delta,
    )
    return policy.build_request(streams, 0, spec)


class TestRandomizedRequests:
    """Scalar-vs-batched over randomized oracle problems."""

    @settings(
        max_examples=15, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        num_streams=st.integers(min_value=1, max_value=8),
        num_gpus=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        epochs=st.sampled_from([(5,), (5, 15), (5, 15, 30)]),
        layers=st.sampled_from([(1.0,), (0.5, 1.0)]),
        fractions=st.sampled_from([(1.0,), (0.2, 1.0), (0.2, 0.5, 1.0)]),
        sampling=st.sampled_from([(1.0,), (1.0, 0.5), (1.0, 0.5, 0.25)]),
        prune=st.integers(min_value=1, max_value=18),
        delta=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_decisions_bit_identical(
        self, num_streams, num_gpus, seed, epochs, layers, fractions, sampling, prune, delta
    ):
        """Any grid shape x fleet size x pruning depth: exact equivalence.

        ``prune`` truncates the retraining grid the way ``max_configs``
        pruning does before a request is built, so degenerate one-config
        lattices and ragged stacks are all exercised.
        """
        grid = default_retraining_grid(
            epochs=epochs, layers_trained=layers, data_fractions=fractions
        )[:prune]
        inference_configs = default_inference_configs(sampling_rates=sampling)
        request = build_oracle_request(
            num_streams, num_gpus, seed, grid, inference_configs, delta
        )
        scalar = ThiefScheduler(steal_quantum=delta).schedule(request)
        batched = BatchedThiefScheduler(steal_quantum=delta).schedule(request)
        assert_schedules_identical(scalar, batched)


def _stream_input(name, start, post, cost):
    """A hand-built stream: one retraining estimate, three inference tiers."""
    profile = StreamWindowProfile(stream_name=name, window_index=0, start_accuracy=start)
    profile.add(
        RetrainingEstimate(
            config=RetrainingConfig(epochs=15),
            post_retraining_accuracy=post,
            gpu_seconds=cost,
        )
    )
    inference_configs = [
        InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.25),
        InferenceConfig(frame_sampling_rate=0.5, gpu_demand=0.1),
        InferenceConfig(frame_sampling_rate=0.25, resolution_scale=0.5, gpu_demand=0.03),
    ]
    return StreamWindowInput(
        stream_name=name, profile=profile, inference_configs=inference_configs
    )


class TestHandBuiltLandscapes:
    """Equivalence on synthetic accuracy landscapes the oracle never makes."""

    stream_spec = st.tuples(unit, unit, st.floats(min_value=5.0, max_value=150.0))

    @settings(max_examples=25, deadline=None)
    @given(
        stream_specs=st.lists(stream_spec, min_size=1, max_size=5),
        num_gpus=st.integers(min_value=1, max_value=4),
        quantum=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_arbitrary_profiles_bit_identical(self, stream_specs, num_gpus, quantum):
        streams = {
            f"cam-{i}": _stream_input(f"cam-{i}", start, post, cost)
            for i, (start, post, cost) in enumerate(stream_specs)
        }
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=float(num_gpus),
            delta=0.1,
            a_min=0.3,
            streams=streams,
        )
        scalar = ThiefScheduler(steal_quantum=quantum).schedule(request)
        batched = BatchedThiefScheduler(steal_quantum=quantum).schedule(request)
        assert_schedules_identical(scalar, batched)


class TestUnderProvisionedRelease:
    """Pin the level-*dependent* post-retraining factor path.

    With ``release_retraining_gpu_to_inference`` (the default), the factor
    applied after retraining depends on the level only when even the
    post-window GPU share under-provisions the chosen inference config —
    the one region where the batched path must fall back from its collapsed
    ``(row, config)`` arithmetic to the full ``(row, level, config)`` tensor
    and run the scalar power law per under-provisioned level.  A config
    demanding a full GPU on a small lattice forces that region.
    """

    @staticmethod
    def _greedy_stream(name, demand):
        profile = StreamWindowProfile(
            stream_name=name, window_index=0, start_accuracy=0.5
        )
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=15),
                post_retraining_accuracy=0.95,
                gpu_seconds=60.0,
            )
        )
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=30),
                post_retraining_accuracy=0.9,
                gpu_seconds=30.0,
            )
        )
        return StreamWindowInput(
            stream_name=name,
            profile=profile,
            inference_configs=[
                InferenceConfig(frame_sampling_rate=1.0, gpu_demand=demand)
            ],
        )

    @settings(max_examples=20, deadline=None)
    @given(
        num_streams=st.integers(min_value=1, max_value=4),
        demand=st.floats(min_value=0.5, max_value=2.0),
        quantum=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_under_provisioned_levels_bit_identical(self, num_streams, demand, quantum):
        streams = {
            f"cam-{i}": self._greedy_stream(f"cam-{i}", demand)
            for i in range(num_streams)
        }
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=2.0,
            delta=0.25,
            a_min=0.3,
            streams=streams,
        )
        scalar = ThiefScheduler(steal_quantum=quantum).schedule(request)
        batched = BatchedThiefScheduler(steal_quantum=quantum).schedule(request)
        assert_schedules_identical(scalar, batched)


class TestObjectiveTieBreak:
    """Pin the tie-break: equal objectives resolve to the earliest candidate.

    The scalar ``_sequential_select`` automaton only replaces the incumbent
    on a *strictly* better objective, so among tied candidates the first in
    scan order wins.  That ordering is observable in the decisions, and the
    batched argmax must reproduce it — a ``>=`` in the wrong place would
    flip winners silently without moving any accuracy.
    """

    def _tied_request(self):
        profile = StreamWindowProfile(
            stream_name="tied", window_index=0, start_accuracy=0.5
        )
        # Two distinct configs with identical outcomes: a perfect objective
        # tie between scan positions 0 and 1.
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=15),
                post_retraining_accuracy=0.9,
                gpu_seconds=40.0,
            )
        )
        profile.add(
            RetrainingEstimate(
                config=RetrainingConfig(epochs=30),
                post_retraining_accuracy=0.9,
                gpu_seconds=40.0,
            )
        )
        stream = StreamWindowInput(
            stream_name="tied",
            profile=profile,
            inference_configs=[InferenceConfig(frame_sampling_rate=1.0, gpu_demand=0.25)],
        )
        return ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=2.0,
            delta=0.25,
            a_min=0.3,
            streams={"tied": stream},
        )

    def test_tied_candidates_resolve_to_first_in_scan_order(self):
        request = self._tied_request()
        scalar = ThiefScheduler(steal_quantum=0.25).schedule(request)
        batched = BatchedThiefScheduler(steal_quantum=0.25).schedule(request)
        assert_schedules_identical(scalar, batched)
        decision = batched.decisions["tied"]
        if decision.retraining_config is not None:
            assert decision.retraining_config == RetrainingConfig(epochs=15)

    def test_tie_break_is_pinned_even_when_retraining_wins(self):
        """With ample GPU the tied retraining pair is chosen — and it must
        be the epochs=15 entry (scan position 0), under both schedulers."""
        request = self._tied_request()
        for scheduler in (
            ThiefScheduler(steal_quantum=0.25),
            BatchedThiefScheduler(steal_quantum=0.25),
        ):
            decision = scheduler.schedule(request).decisions["tied"]
            assert decision.retraining_config == RetrainingConfig(epochs=15)


#: ``make_fleet``'s allocation quantum in the fleet properties; the shared
#: policy's steal quantum, so the oracle swapped in below must match it.
FLEET_DELTA = 0.1


class ScalarCohortScheduler(ThiefScheduler):
    """The scalar oracle behind the cohort interface: one solve per request."""

    def schedule_cohort(self, requests):
        return {key: self.schedule(request) for key, request in requests.items()}


def fleet_on(planner, *args, **kwargs):
    """``make_fleet`` whose shared policy solves with ``planner``'s thief.

    ``"oracle"`` swaps the shared policy's scheduler for
    :class:`ScalarCohortScheduler`; ``"batched"`` keeps the engine's own.
    """
    controller = make_fleet(*args, delta=FLEET_DELTA, **kwargs)
    if planner == "oracle":
        policy = controller.sites[0].policy
        assert all(site.policy is policy for site in controller.sites)
        policy._scheduler = ScalarCohortScheduler(steal_quantum=FLEET_DELTA)
    return controller


class TestRandomizedFleets:
    """Whole-fleet cohort planning vs the scalar oracle, bit for bit."""

    @settings(
        max_examples=8, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        num_sites=st.integers(min_value=1, max_value=3),
        streams_per_site=st.integers(min_value=0, max_value=3),
        gpus_per_site=st.integers(min_value=1, max_value=3),
        seed=st.integers(min_value=0, max_value=1_000),
        degrade=st.booleans(),
    )
    def test_fleet_summaries_bit_identical(
        self, num_sites, streams_per_site, gpus_per_site, seed, degrade
    ):
        """Randomized fleets — including empty sites (``streams_per_site=0``)
        and degraded GPUs — summarize identically whether the cohort is
        solved batched or by the scalar oracle."""
        summaries = {}
        windows = {}
        for planner in ("oracle", "batched"):
            controller = fleet_on(
                planner,
                num_sites,
                streams_per_site,
                gpus_per_site=gpus_per_site,
                seed=seed,
            )
            if degrade and gpus_per_site > 1:
                controller.sites[0].degrade_gpus(1)
            result = FleetSimulator(controller).run(2)
            summaries[planner] = result.summary()
            windows[planner] = [w.mean_accuracy for w in result.windows]
        for field in FLEET_PARITY_FIELDS:
            assert summaries["batched"][field] == summaries["oracle"][field]
        assert windows["batched"] == windows["oracle"]

    def test_heterogeneous_window_cohorts_bit_identical(self):
        """Staggered per-site calendars: cohorts form only where boundaries
        truly coincide, and the result still matches the scalar oracle."""
        summaries = {}
        for planner in ("oracle", "batched"):
            controller = fleet_on(
                planner,
                3,
                2,
                gpus_per_site=2,
                window_duration=(100.0, 200.0, 100.0),
                seed=11,
            )
            result = FleetSimulator(controller).run_until(600.0)
            summaries[planner] = result.summary()
        for field in FLEET_PARITY_FIELDS:
            assert summaries["batched"][field] == summaries["oracle"][field]


@contextmanager
def row_blocks(size):
    """Patch :data:`~repro.core.batched_planner.ROW_BLOCK` to ``size``.

    Yields the row count of every block evaluated meanwhile, so a property
    can check that its examples really crossed block boundaries.
    """
    sizes = []
    evaluate = batched_planner._compute_block

    def recording(pending):
        sizes.append(len(pending))
        evaluate(pending)

    with mock.patch.object(batched_planner, "ROW_BLOCK", size), mock.patch.object(
        batched_planner, "_compute_block", recording
    ):
        yield sizes


#: Stream shapes that take different branches of the stacked evaluation.
ROW_KINDS = ("fast", "below_a_min", "under_provisioned")


def kind_stream(name, kind, value):
    """One stream of the given :data:`ROW_KINDS` shape; ``value`` in [0, 1]."""
    if kind == "fast":
        # Meets a_min at every level: the masked-argmax fast path.
        return _stream_input(name, 0.5 + 0.4 * value, 0.9, 20.0 + 100.0 * value)
    if kind == "below_a_min":
        # Base accuracy below a_min: the reference candidate scan.
        return _stream_input(name, 0.25 * value, 0.8, 40.0 + 60.0 * value)
    # One inference config no small share provisions: the level-varying
    # post-retraining factor.
    return TestUnderProvisionedRelease._greedy_stream(name, 0.5 + 1.5 * value)


class TestRowBlocks:
    """Blocking the stacked evaluation changes no bit.

    ``ROW_BLOCK`` is patched down to 1–3 rows, so every example spans
    several blocks and padding differs from block to block.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6).flatmap(
            lambda extra: st.permutations(list(ROW_KINDS) + extra)
        ),
        values=st.lists(unit, min_size=9, max_size=9),
        block=st.integers(min_value=1, max_value=3),
        num_gpus=st.integers(min_value=1, max_value=4),
        quantum=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_mixed_row_kinds_bit_identical(self, kinds, values, block, num_gpus, quantum):
        """Fast, below-a_min and under-provisioned rows, shuffled across blocks."""
        streams = {
            f"cam-{i}": kind_stream(f"cam-{i}", kind, values[i])
            for i, kind in enumerate(kinds)
        }
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=float(num_gpus),
            delta=0.1,
            a_min=0.3,
            streams=streams,
        )
        with row_blocks(block) as sizes:
            batched = BatchedThiefScheduler(steal_quantum=quantum).schedule(request)
        scalar = ThiefScheduler(steal_quantum=quantum).schedule(request)
        assert_schedules_identical(scalar, batched)
        assert max(sizes) <= block < len(streams)
        assert sizes[0] == block

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        stream_counts=st.lists(
            st.integers(min_value=2, max_value=12), min_size=1, max_size=3
        ),
        num_gpus=st.integers(min_value=1, max_value=6),
        seed=st.integers(min_value=0, max_value=10_000),
        block=st.integers(min_value=1, max_value=3),
        delta=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_cohorts_across_blocks_bit_identical(
        self, stream_counts, num_gpus, seed, block, delta
    ):
        """Oracle-profiled sites stacked into one cohort, blocks spanning sites."""
        requests = {
            f"site-{index}": build_oracle_request(
                num_streams,
                num_gpus,
                seed + index,
                default_retraining_grid(),
                default_inference_configs(),
                delta,
            )
            for index, num_streams in enumerate(stream_counts)
        }
        with row_blocks(block) as sizes:
            cohort = BatchedThiefScheduler(steal_quantum=delta).schedule_cohort(requests)
        for key, request in requests.items():
            scalar = ThiefScheduler(steal_quantum=delta).schedule(request)
            assert_schedules_identical(scalar, cohort[key])
        assert max(sizes) <= block
        assert len(sizes) > 1


@contextmanager
def prefix_floor(levels):
    """Patch :data:`~repro.core.batched_planner.PREFIX_FLOOR` to ``levels``.

    Yields the first retraining level of every row evaluated meanwhile; a
    first level above 1 is an in-place extension of a memoised prefix.
    """
    firsts = []
    evaluate = batched_planner._compute_block

    def recording(pending):
        firsts.extend(first for _, _, first, _ in pending)
        evaluate(pending)

    with mock.patch.object(batched_planner, "PREFIX_FLOOR", levels), mock.patch.object(
        batched_planner, "_compute_block", recording
    ):
        yield firsts


def lattice_gpus(num_streams, quantum, units_per_job, extra_gpus):
    """Whole GPUs giving every job at least ``units_per_job`` units at the fair start."""
    return math.ceil(2 * units_per_job * num_streams * quantum) + extra_gpus


class TestPrefixColumns:
    """Growing columns on demand changes no bit.

    ``PREFIX_FLOOR`` is patched down to 1–2 levels and every lattice is
    sized by :func:`lattice_gpus` to give every job at least ``floor``
    units, so a retraining thief's steals read past a ``floor``-level
    prefix and every example extends columns in place.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6).flatmap(
            lambda extra: st.permutations(list(ROW_KINDS) + extra)
        ),
        values=st.lists(unit, min_size=9, max_size=9),
        floor=st.integers(min_value=1, max_value=2),
        extra_gpus=st.integers(min_value=0, max_value=2),
        quantum=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_mixed_row_kinds_bit_identical(self, kinds, values, floor, extra_gpus, quantum):
        """Fast, below-a_min and under-provisioned rows, extended in place."""
        streams = {
            f"cam-{i}": kind_stream(f"cam-{i}", kind, values[i])
            for i, kind in enumerate(kinds)
        }
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=float(lattice_gpus(len(streams), quantum, floor, extra_gpus)),
            delta=0.1,
            a_min=0.3,
            streams=streams,
        )
        with prefix_floor(floor) as firsts:
            batched = BatchedThiefScheduler(steal_quantum=quantum).schedule(request)
        scalar = ThiefScheduler(steal_quantum=quantum).schedule(request)
        assert_schedules_identical(scalar, batched)
        assert max(firsts) > 1

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        stream_counts=st.lists(
            st.integers(min_value=2, max_value=12), min_size=1, max_size=3
        ),
        extra_gpus=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10_000),
        floor=st.integers(min_value=1, max_value=2),
        delta=st.sampled_from([0.1, 0.25, 0.5]),
    )
    def test_cohorts_bit_identical(self, stream_counts, extra_gpus, seed, floor, delta):
        """Oracle-profiled 1–3-site cohorts with short prefixes."""
        num_gpus = lattice_gpus(max(stream_counts), delta, floor, extra_gpus)
        requests = {
            f"site-{index}": build_oracle_request(
                num_streams,
                num_gpus,
                seed + index,
                default_retraining_grid(),
                default_inference_configs(),
                delta,
            )
            for index, num_streams in enumerate(stream_counts)
        }
        with prefix_floor(floor) as firsts:
            cohort = BatchedThiefScheduler(steal_quantum=delta).schedule_cohort(requests)
        for key, request in requests.items():
            scalar = ThiefScheduler(steal_quantum=delta).schedule(request)
            assert_schedules_identical(scalar, cohort[key])
        assert max(firsts) > 1


@contextmanager
def patience(steps):
    """Patch :data:`~repro.core.thief.PATIENCE`, which both sweeps read at call time."""
    with mock.patch.object(thief, "PATIENCE", steps):
        yield


class TestGuardedVisits:
    """Settling visits by their guards changes no bit.

    Every lattice is sized by :func:`lattice_gpus` so the fair start hands
    every job at least two units (coarse quanta, more GPUs than streams),
    and :data:`~repro.core.thief.PATIENCE` is patched to 1–4, so victims
    are settled over several steps, or walked, under every patience.
    """

    @settings(max_examples=25, deadline=None)
    @given(
        kinds=st.lists(st.sampled_from(ROW_KINDS), min_size=1, max_size=6).flatmap(
            lambda extra: st.permutations(list(ROW_KINDS) + extra)
        ),
        values=st.lists(unit, min_size=9, max_size=9),
        steps=st.integers(min_value=1, max_value=4),
        units_per_job=st.integers(min_value=2, max_value=4),
        extra_gpus=st.integers(min_value=0, max_value=2),
        quantum=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_mixed_row_kinds_bit_identical(
        self, kinds, values, steps, units_per_job, extra_gpus, quantum
    ):
        """Fast, below-a_min and under-provisioned rows, multi-unit victims."""
        streams = {
            f"cam-{i}": kind_stream(f"cam-{i}", kind, values[i])
            for i, kind in enumerate(kinds)
        }
        request = ScheduleRequest(
            window_index=0,
            window_seconds=200.0,
            total_gpus=float(lattice_gpus(len(streams), quantum, units_per_job, extra_gpus)),
            delta=0.1,
            a_min=0.3,
            streams=streams,
        )
        start = ThiefScheduler.fair_start(request, quantum).as_units_dict()
        assert min(start.values()) >= units_per_job
        with patience(steps):
            batched = BatchedThiefScheduler(steal_quantum=quantum).schedule(request)
            scalar = ThiefScheduler(steal_quantum=quantum).schedule(request)
        assert_schedules_identical(scalar, batched)

    @settings(
        max_examples=10, deadline=None, suppress_health_check=[HealthCheck.too_slow]
    )
    @given(
        stream_counts=st.lists(
            st.integers(min_value=2, max_value=8), min_size=1, max_size=3
        ),
        units_per_job=st.integers(min_value=2, max_value=4),
        extra_gpus=st.integers(min_value=0, max_value=2),
        seed=st.integers(min_value=0, max_value=10_000),
        steps=st.integers(min_value=1, max_value=4),
        delta=st.sampled_from([0.25, 0.5, 1.0]),
    )
    def test_cohorts_bit_identical(
        self, stream_counts, units_per_job, extra_gpus, seed, steps, delta
    ):
        """Oracle-profiled 1–3-site cohorts whose victims hold several units."""
        num_gpus = lattice_gpus(max(stream_counts), delta, units_per_job, extra_gpus)
        requests = {
            f"site-{index}": build_oracle_request(
                num_streams,
                num_gpus,
                seed + index,
                default_retraining_grid(),
                default_inference_configs(),
                delta,
            )
            for index, num_streams in enumerate(stream_counts)
        }
        with patience(steps):
            cohort = BatchedThiefScheduler(steal_quantum=delta).schedule_cohort(requests)
            for key, request in requests.items():
                scalar = ThiefScheduler(steal_quantum=delta).schedule(request)
                assert_schedules_identical(scalar, cohort[key])
