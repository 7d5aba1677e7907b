"""Oracle equivalence of the predictive control scan.

``PredictiveProfitPolicy._best_candidate`` hoists the per-victim terms out of
the destination loop, computes the WAN term once per site pair, scores
through a memo keyed on the admission estimate's own arguments, and reads
the fleet store's memoised best curve point.  Its oracle is the scan it
replaced, kept below verbatim: every victim × destination pair scored from
scratch through ``AccuracyGreedyAdmission.score``, on a best curve point
taken by a fresh argmin over ``curves_for``.

On random small predictive fleets — 2 to 5 sites with mixed window lengths,
profile sharing with and without decay, flash crowds, GPU flaps and
degraded WAN links that keep checkpoints in flight and destinations
backlogged — the oracle runs beside
every scan and must pick the same ``(profit, victim, source, destination)``
(``==``, never approx).
"""

from typing import List, Optional, Tuple

from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.cluster.network import CELLULAR_4G_X2, NetworkLink
from repro.configs.inference import InferenceConfig
from repro.core.estimator import estimate_stream_average_accuracy
from repro.fleet import (
    FlashCrowd,
    FleetSimulator,
    GpuFailure,
    PredictiveProfitPolicy,
    Scenario,
    WanDegradation,
    make_fleet,
)
from repro.profiles.fleet_store import stream_profile_key
from repro.utils.clock import ManualClock
from repro.utils.math_utils import clamp

_REFERENCE_INFERENCE = InferenceConfig(frame_sampling_rate=1.0, resolution_scale=1.0)

#: A link fast enough that the WAN term rarely vetoes a move; degraded, it
#: still keeps a checkpoint in flight across several control ticks.
FIBRE = NetworkLink(name="fibre", uplink_mbps=400.0, downlink_mbps=400.0)


def fresh_best_candidate(store, key):
    """The store's best curve point by a fresh argmin (no memo)."""
    curves = store.curves_for(key)
    if not curves:
        return None
    config = min(curves, key=lambda cfg: (-curves[cfg][1], curves[cfg][0], cfg.key()))
    cost, accuracy = curves[config]
    return (config, cost, accuracy)


class FromScratchScorer:
    """The admission score before it became a pure function, verbatim."""

    def __init__(self, dynamics, *, shared_profiles=None):
        self._dynamics = dynamics
        self._shared_profiles = shared_profiles

    def _best_shared_candidate(self, stream):
        """The fleet store's best curve point for ``stream`` (site-independent)."""
        if self._shared_profiles is None:
            return None
        return fresh_best_candidate(self._shared_profiles, stream_profile_key(stream))

    def score(self, stream, site, window_index, *, already_placed=False):
        return self._score(
            stream,
            site,
            window_index,
            self._best_shared_candidate(stream),
            already_placed=already_placed,
        )

    def _score(self, stream, site, window_index, candidate, *, already_placed=False):
        occupants = site.num_streams if already_placed else site.num_streams + 1
        share = site.spec.num_gpus / max(occupants, 1)
        start = clamp(self._dynamics.start_accuracy(stream, window_index))
        if candidate is not None:
            _, gpu_seconds, post_accuracy = candidate
            estimate = estimate_stream_average_accuracy(
                start_accuracy=start,
                post_retraining_accuracy=clamp(post_accuracy),
                retraining_gpu_seconds=gpu_seconds,
                inference_config=_REFERENCE_INFERENCE,
                inference_gpu=share / 2.0,
                retraining_gpu=share / 2.0,
                window_seconds=site.spec.window_duration,
            )
        else:
            estimate = estimate_stream_average_accuracy(
                start_accuracy=start,
                post_retraining_accuracy=None,
                retraining_gpu_seconds=0.0,
                inference_config=_REFERENCE_INFERENCE,
                inference_gpu=share,
                retraining_gpu=0.0,
                window_seconds=site.spec.window_duration,
            )
        return estimate.average_accuracy


class FromScratchScan(PredictiveProfitPolicy):
    """The scan before hoisting and memoisation, verbatim."""

    def _best_candidate(self, controller, scorer, healthy, window_index, signals):
        now = signals.now if signals is not None else 0.0
        backlog = self._backlog_by_site(controller, signals)
        best = None
        best_key: Optional[Tuple[float, str, str]] = None
        for source in healthy:
            if source.num_streams < 2:
                continue  # never empty a site — same floor as greedy
            for victim in sorted(source.stream_names):
                if signals is not None and signals.transfer_arrivals.get(victim, now) > now:
                    continue  # checkpoint still in flight — not movable yet
                stream = source.server.stream(victim)
                status_quo = scorer.score(stream, source, window_index, already_placed=True)
                confidence = self._confidence(controller, stream, now)
                waste_penalty = self._cancellation_penalty(source, victim, signals)
                for destination in healthy:
                    if destination.name == source.name:
                        continue
                    if backlog.get(destination.name, 0) >= self.BACKLOG_LIMIT:
                        continue  # congested: WAN backlog already queued there
                    profit = self._profit(
                        controller,
                        scorer,
                        stream,
                        source,
                        destination,
                        window_index,
                        status_quo,
                        confidence,
                        waste_penalty,
                    )
                    key = (-profit, victim, destination.name)
                    if best_key is None or key < best_key:
                        best_key = key
                        best = (profit, victim, source, destination)
        return best

    def _profit(
        self,
        controller,
        scorer,
        stream,
        source,
        destination,
        window_index,
        status_quo,
        confidence,
        waste_penalty,
    ):
        gain = scorer.score(stream, destination, window_index) - status_quo
        if gain > 0.0:
            # Stale curves → less trust in the predicted upside.  Downside
            # estimates stay undiscounted: uncertainty never makes a losing
            # move look safer.
            gain *= confidence
        transfer = controller.migration_cost.transfer_seconds(source.link, destination.link)
        wan_cost = transfer / destination.spec.window_duration
        return (
            gain
            - self.WAN_COST_WEIGHT * wan_cost
            - self.CANCELLATION_COST_WEIGHT * waste_penalty
        )

    def _confidence(self, controller, stream, now):
        """Drift/staleness trust in the store's curves for this stream."""
        sharing = controller.profile_sharing
        if sharing is None:
            return 1.0
        store = sharing.store
        half_life = store.decay_half_life
        if half_life is None:
            return 1.0
        last = store.last_push_at(stream_profile_key(stream))
        if last is None:
            return 1.0  # no curve history: the score already fell back cold
        staleness = max(0.0, now - last)
        return 0.5 ** (staleness / half_life)


class OracleChecked(PredictiveProfitPolicy):
    """The predictive policy, with the from-scratch scan run beside every scan."""

    def __init__(self) -> None:
        super().__init__()
        self.oracle = FromScratchScan()
        self.picks: List[Tuple[float, str, str, str]] = []
        self.backlogged_scans = 0
        self.in_flight_scans = 0

    def _best_candidate(self, controller, healthy, window_index, signals):
        got = super()._best_candidate(controller, healthy, window_index, signals)
        sharing = controller.profile_sharing
        scorer = FromScratchScorer(
            controller.dynamics, shared_profiles=sharing.store if sharing is not None else None
        )
        want = self.oracle._best_candidate(controller, scorer, healthy, window_index, signals)
        assert got == want
        if got is not None:
            profit, victim, source, destination = got
            self.picks.append((profit, victim, source.name, destination.name))
        if signals is not None:
            backlog = self._backlog_by_site(controller, signals).values()
            arrivals = signals.transfer_arrivals.values()
            self.backlogged_scans += any(count >= self.BACKLOG_LIMIT for count in backlog)
            self.in_flight_scans += any(arrival > signals.now for arrival in arrivals)
        return got


@st.composite
def predictive_fleets(draw):
    num_sites = draw(st.integers(min_value=2, max_value=5))
    sites = [f"site-{index}" for index in range(num_sites)]
    sharing = draw(st.booleans())
    half_life = draw(st.none() | st.sampled_from([60.0, 200.0, 900.0])) if sharing else None
    horizon = draw(st.sampled_from([400.0, 600.0]))
    events = [
        FlashCrowd(
            at_seconds=draw(st.floats(min_value=10.0, max_value=horizon - 60.0)),
            num_streams=draw(st.integers(min_value=3, max_value=8)),
            site=draw(st.sampled_from(sites)),
        )
    ]
    # A degraded link stretches checkpoint transfers past the next ticks,
    # so streams stay in flight and destinations collect a backlog.
    for site in draw(st.lists(st.sampled_from(sites), max_size=2, unique=True)):
        start = draw(st.floats(min_value=0.0, max_value=horizon - 100.0))
        factor = draw(st.sampled_from([0.02, 0.1, 0.5]))
        events.append(
            WanDegradation(
                site=site,
                at_seconds=start,
                until_at=start + 400.0,
                uplink_factor=factor,
                downlink_factor=factor,
            )
        )
    if draw(st.booleans()):
        at = draw(st.floats(min_value=20.0, max_value=horizon - 100.0))
        site = draw(st.sampled_from(sites))
        events.append(GpuFailure(site=site, at_seconds=at, recovery_at=at + 150.0))
    links = st.sampled_from([FIBRE, CELLULAR_4G_X2])
    windows = st.sampled_from([150.0, 200.0, 300.0])
    return {
        "num_sites": num_sites,
        "streams_per_site": draw(st.integers(min_value=2, max_value=4)),
        "gpus_per_site": draw(st.integers(min_value=1, max_value=3)),
        "links": draw(st.lists(links, min_size=num_sites, max_size=num_sites)),
        "windows": draw(st.lists(windows, min_size=num_sites, max_size=num_sites)),
        "sharing": sharing,
        "half_life": half_life,
        "seed": draw(st.integers(min_value=0, max_value=10_000)),
        "control_interval": draw(st.sampled_from([10.0, 25.0, 50.0])),
        "horizon": horizon,
        "events": events,
    }


def run_checked(shape) -> OracleChecked:
    """Run one fleet under the oracle-checked policy; return the policy."""
    policy = OracleChecked()
    clock = ManualClock()
    controller = make_fleet(
        shape["num_sites"],
        shape["streams_per_site"],
        gpus_per_site=shape["gpus_per_site"],
        links=shape["links"],
        window_duration=shape["windows"],
        profile_sharing=shape["sharing"],
        profile_decay_half_life=shape["half_life"],
        control_policy=policy,
        clock=clock,
        seed=shape["seed"],
    )
    simulator = FleetSimulator(
        controller,
        Scenario(events=shape["events"]),
        clock=clock,
        control_interval=shape["control_interval"],
    )
    simulator.run_until(shape["horizon"])
    return policy


class TestPredictiveScanMatchesTheFromScratchOracle:
    @settings(max_examples=20, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(shape=predictive_fleets())
    def test_every_scan_picks_what_the_oracle_picks(self, shape):
        run_checked(shape)

    def test_a_decaying_fleet_scans_past_backlogs_and_checkpoints_in_flight(self):
        """A fixed fleet that reaches the backlog and in-flight branches."""
        policy = run_checked(
            {
                "num_sites": 4,
                "streams_per_site": 2,
                "gpus_per_site": 2,
                "links": [CELLULAR_4G_X2, CELLULAR_4G_X2, CELLULAR_4G_X2, FIBRE],
                "windows": [200.0],
                "sharing": True,
                "half_life": 900.0,
                "seed": 4123,
                "control_interval": 25.0,
                "horizon": 600.0,
                "events": [
                    FlashCrowd(at_seconds=13.0, num_streams=5, site="site-0"),
                    WanDegradation(
                        site="site-2",
                        at_seconds=10.0,
                        until_at=410.0,
                        uplink_factor=0.1,
                        downlink_factor=0.1,
                    ),
                    GpuFailure(site="site-2", at_seconds=398.0, recovery_at=548.0),
                ],
            }
        )
        assert sum(profit > 0.0 for profit, *_ in policy.picks) >= 2
        assert policy.backlogged_scans > 0
        assert policy.in_flight_scans > 0
