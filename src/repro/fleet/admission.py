"""Stream admission: which site should own a newly arriving stream.

The fleet controller delegates the placement decision for every admitted
stream (initial rollout, flash-crowd arrivals and evacuation targets) to a
pluggable :class:`AdmissionPolicy`.  Three policies are provided:

* :class:`LeastLoadedAdmission` — pick the healthy site with the fewest
  streams per GPU (the classic horizontal-autoscaling heuristic).
* :class:`AccuracyGreedyAdmission` — estimate, with the same
  ``EstimateAccuracy`` primitive the thief scheduler optimises
  (:func:`~repro.core.estimator.estimate_stream_average_accuracy`), the
  window-average accuracy the stream would get at each site if admitted, and
  pick the best.  The estimate assumes the site splits its GPUs evenly over
  the post-admission stream count and serves with a reference inference
  configuration — a deliberately cheap stand-in for running the full thief
  at every candidate site.
* :class:`RandomAdmission` — seeded uniform choice, the baseline every
  placement experiment compares against.

All policies receive only *healthy* sites and must be deterministic given
their construction arguments (ties break on site name), so fleet simulations
are reproducible run to run.
"""

from __future__ import annotations

import abc
from typing import Optional, Sequence, Tuple

from ..configs.inference import InferenceConfig
from ..core.estimator import estimate_stream_average_accuracy
from ..datasets.stream import VideoStream
from ..exceptions import FleetError
from ..profiles.dynamics import StreamDynamics
from ..profiles.fleet_store import FleetProfileStore, stream_profile_key
from ..utils.math_utils import clamp
from ..utils.rng import SeedLike, ensure_rng
from .site import EdgeSite

#: Reference inference configuration used by the accuracy-greedy estimate:
#: every frame at full resolution, the most demanding (and most accurate)
#: pipeline, so the estimate is sensitive to how much GPU the site can spare.
_REFERENCE_INFERENCE = InferenceConfig(frame_sampling_rate=1.0, resolution_scale=1.0)


class AdmissionPolicy(abc.ABC):
    """Chooses the owning site for one stream among the healthy candidates."""

    #: Label used in fleet benchmark tables.
    name: str = "admission"

    @abc.abstractmethod
    def choose_site(
        self, stream: VideoStream, sites: Sequence[EdgeSite], window_index: int
    ) -> EdgeSite:
        """Return the site that should own ``stream`` from ``window_index`` on."""

    def _require_sites(self, sites: Sequence[EdgeSite]) -> None:
        if not sites:
            raise FleetError("no healthy site available for admission")

    def __repr__(self) -> str:
        return f"{type(self).__name__}(name={self.name!r})"


class LeastLoadedAdmission(AdmissionPolicy):
    """Admit to the healthy site with the fewest streams per GPU."""

    name = "least-loaded"

    def choose_site(
        self, stream: VideoStream, sites: Sequence[EdgeSite], window_index: int
    ) -> EdgeSite:
        self._require_sites(sites)
        return min(sites, key=lambda site: (site.load, site.name))


class RandomAdmission(AdmissionPolicy):
    """Seeded uniform-random site choice (the placement baseline)."""

    name = "random"

    def __init__(self, seed: SeedLike = 0) -> None:
        self._rng = ensure_rng(seed)

    def choose_site(
        self, stream: VideoStream, sites: Sequence[EdgeSite], window_index: int
    ) -> EdgeSite:
        self._require_sites(sites)
        ordered = sorted(sites, key=lambda site: site.name)
        return ordered[int(self._rng.integers(0, len(ordered)))]


class AccuracyGreedyAdmission(AdmissionPolicy):
    """Admit where the estimated window-average accuracy is highest.

    For every candidate site the policy assumes the stream joins and the
    site's GPUs are split evenly across the enlarged stream set (the thief
    scheduler's fair starting point), then scores the stream's window with
    ``EstimateAccuracy`` at that inference share and no retraining — the
    stale-model serving accuracy the stream is guaranteed while the site's
    scheduler works out a better plan.

    With ``shared_profiles`` (a fleet-wide
    :class:`~repro.profiles.fleet_store.FleetProfileStore`), a stream whose
    ``(dataset, drift-regime)`` key has aggregated curves is scored with the
    store's best *post-retraining* point instead: half the fair share
    retrains with the neighbours' best-known configuration while the other
    half serves, which ranks sites by what the stream will actually achieve
    once its first retraining lands — a materially better signal for
    flash-crowd placement than the stale no-retraining estimate.
    """

    name = "accuracy-greedy"

    def __init__(
        self,
        dynamics: StreamDynamics,
        *,
        shared_profiles: Optional[FleetProfileStore] = None,
    ) -> None:
        self._dynamics = dynamics
        self._shared_profiles = shared_profiles

    def score(self, stream: VideoStream, site: EdgeSite, window_index: int) -> float:
        """Estimated window-average accuracy of ``stream`` if admitted to ``site``."""
        best = None
        if self._shared_profiles is not None:
            best = self._shared_profiles.best_candidate(stream_profile_key(stream))
        return self.estimate(
            self._dynamics.start_accuracy(stream, window_index),
            None if best is None else best[1:],
            site.num_streams + 1,
            site.spec.num_gpus,
            site.spec.window_duration,
        )

    @staticmethod
    def estimate(
        start_accuracy: float,
        curve_point: Optional[Tuple[float, float]],
        occupants: int,
        num_gpus: int,
        window_seconds: float,
    ) -> float:
        """The admission estimate as a pure function of the values it reads.

        ``curve_point`` is the fleet store's best ``(gpu_seconds, accuracy)``
        for the stream's key, or ``None`` to score the stale model alone;
        ``occupants`` counts the stream itself.  Equal arguments give the
        same float, which is what lets the predictive control policy
        memoise it.
        """
        share = num_gpus / max(occupants, 1)
        start = clamp(start_accuracy)
        if curve_point is not None:
            gpu_seconds, post_accuracy = curve_point
            estimate = estimate_stream_average_accuracy(
                start_accuracy=start,
                post_retraining_accuracy=clamp(post_accuracy),
                retraining_gpu_seconds=gpu_seconds,
                inference_config=_REFERENCE_INFERENCE,
                inference_gpu=share / 2.0,
                retraining_gpu=share / 2.0,
                window_seconds=window_seconds,
            )
        else:
            estimate = estimate_stream_average_accuracy(
                start_accuracy=start,
                post_retraining_accuracy=None,
                retraining_gpu_seconds=0.0,
                inference_config=_REFERENCE_INFERENCE,
                inference_gpu=share,
                retraining_gpu=0.0,
                window_seconds=window_seconds,
            )
        return estimate.average_accuracy

    def choose_site(
        self, stream: VideoStream, sites: Sequence[EdgeSite], window_index: int
    ) -> EdgeSite:
        self._require_sites(sites)
        # Once a site has GPU to spare the estimate saturates (the reference
        # pipeline cannot get more accurate than the model), so ties are
        # common early on; break them toward the less-loaded site, then the
        # smallest site name (min over the negated score keeps the name leg
        # ascending — a max() over (score, -load, name) would resolve full
        # ties to the lexicographically largest name, violating the module's
        # tie-break convention).
        return min(
            sites,
            key=lambda site: (
                -self.score(stream, site, window_index),
                site.load,
                site.name,
            ),
        )
