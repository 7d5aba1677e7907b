"""Fleet-wide profile sharing across edge sites.

The paper's micro-profiler (§4.3) pays its profiling cost per (stream,
window) at every site independently, yet streams of the same dataset under
the same drift regime have near-identical resource–accuracy curves.  The
:class:`FleetProfileStore` exploits that: sites push their micro-profiled
:class:`~repro.profiles.profile.StreamWindowProfile` s — keyed by
``(dataset, drift-regime)`` — into one fleet-wide store, and new or migrated
streams warm-start from the aggregated curves instead of profiling the full
configuration grid.

The store itself is deliberately transport-agnostic: in the fleet simulation
a push rides the event calendar as a
:class:`~repro.fleet.calendar.ProfilePush` event whose arrival time pays the
source site's WAN uplink, so a WAN-degraded site contributes *stale* curves
— the store only ever reflects what has actually arrived.

Aggregation is ``history_for``-shaped on purpose: ``curves_for`` returns the
same ``config -> (mean gpu_seconds, mean accuracy)`` mapping that
:meth:`~repro.profiles.store.ProfileStore.history_for` produces locally, so
:meth:`~repro.configs.space.ConfigurationSpace.pruned` consumes either
signal unchanged.
"""

from __future__ import annotations

import math
from typing import Dict, List, Optional, Tuple

from ..configs.retraining import RetrainingConfig
from ..exceptions import ProfilingError
from ..datasets.drift import DriftProfile
from ..datasets.stream import VideoStream
from ..utils.serialization import to_jsonable
from .profile import StreamWindowProfile

#: A fleet-store key: ``(dataset, drift-regime)``.
ProfileKey = Tuple[str, str]


def regime_key(profile: DriftProfile) -> str:
    """Canonical string identifying a drift regime.

    Two streams share a regime when their :class:`DriftProfile` s are equal;
    the string form keeps the key JSON-serialisable.
    """
    return (
        f"dist={profile.distribution_volatility:g}"
        f"/app={profile.appearance_volatility:g}"
        f"/period={profile.regime_period}"
        f"/drop={profile.dropout_probability:g}"
        f"/diurnal={int(profile.diurnal)}"
    )


def stream_profile_key(stream: VideoStream) -> ProfileKey:
    """The fleet-store key of one stream.

    Streams are named ``{dataset}-{index}`` by the workload generators; the
    dataset half of the key strips the per-stream index when present and
    falls back to the full name otherwise.
    """
    dataset, _, suffix = stream.name.rpartition("-")
    if not dataset or not suffix.isdigit():
        dataset = stream.name
    return (dataset, regime_key(stream.drift_profile))


class FleetProfileStore:
    """Aggregated resource–accuracy curves shared across a fleet.

    Each key accumulates, per retraining configuration, the running sum of
    observed ``(gpu_seconds, post_retraining_accuracy)`` over every pushed
    profile — the fleet-wide analogue of
    :meth:`~repro.profiles.store.ProfileStore.history_for`.

    ``decay_half_life`` (seconds) ages old pushes out: each push decays the
    key's existing weighted sums by ``0.5 ** (elapsed / half_life)`` —
    elapsed being the arrival-time gap to the key's previous push — before
    merging at weight 1.0, so curves profiled under an old drift regime stop
    dominating the mean once the regime has moved on.  The decayed *count*
    keeps ``curves_for`` an exact weighted mean.  ``None`` (the default)
    never decays: every push keeps weight 1.0 forever, which is the
    pre-decay behaviour and serialisation bit for bit.
    """

    def __init__(self, *, decay_half_life: Optional[float] = None) -> None:
        if decay_half_life is not None and not 0 < decay_half_life < math.inf:
            raise ProfilingError(
                f"decay_half_life must be positive and finite (or None), got {decay_half_life}"
            )
        self._decay_half_life = decay_half_life
        self._sums: Dict[ProfileKey, Dict[RetrainingConfig, List[float]]] = {}
        self._pushes: Dict[ProfileKey, int] = {}
        #: Arrival time of each key's latest push (tracked only with decay).
        self._last_push_at: Dict[ProfileKey, float] = {}
        #: ``best_candidate`` per key; ``push``, the only writer, retires it.
        self._best: Dict[ProfileKey, Tuple[RetrainingConfig, float, float]] = {}

    @property
    def decay_half_life(self) -> Optional[float]:
        return self._decay_half_life

    # ------------------------------------------------------------------ push
    def push(
        self, key: ProfileKey, profile: StreamWindowProfile, *, at_seconds: float = 0.0
    ) -> None:
        """Merge one site's profiled window into the key's aggregate curves.

        ``at_seconds`` is the push's arrival time on the fleet's simulated
        clock (the :class:`~repro.fleet.calendar.ProfilePush` event time);
        it only matters when the store was built with a ``decay_half_life``.
        Out-of-order arrivals never *inflate* old curves: elapsed time is
        clamped at zero, so a late-arriving push decays nothing.
        """
        curves = self._sums.setdefault(key, {})
        self._best.pop(key, None)
        if self._decay_half_life is not None:
            last = self._last_push_at.get(key)
            if last is not None:
                elapsed = max(0.0, at_seconds - last)
                if elapsed > 0.0:
                    factor = 0.5 ** (elapsed / self._decay_half_life)
                    for bucket in curves.values():
                        bucket[0] *= factor
                        bucket[1] *= factor
                        bucket[2] *= factor
            self._last_push_at[key] = max(at_seconds, last) if last is not None else at_seconds
        for config, estimate in profile.estimates.items():
            bucket = curves.setdefault(config, [0.0, 0.0, 0.0])
            bucket[0] += estimate.gpu_seconds
            bucket[1] += estimate.post_retraining_accuracy
            bucket[2] += 1.0
        self._pushes[key] = self._pushes.get(key, 0) + 1

    # --------------------------------------------------------------- queries
    def curves_for(self, key: ProfileKey) -> Dict[RetrainingConfig, Tuple[float, float]]:
        """Mean ``(gpu_seconds, accuracy)`` per configuration for one key.

        Shaped exactly like ``ProfileStore.history_for`` so it can seed
        :meth:`~repro.configs.space.ConfigurationSpace.pruned` directly;
        empty when nothing has arrived for the key yet.
        """
        curves = self._sums.get(key)
        if not curves:
            return {}
        return {
            config: (cost / count, accuracy / count)
            for config, (cost, accuracy, count) in curves.items()
            if count > 0
        }

    def best_candidate(self, key: ProfileKey) -> Optional[Tuple[RetrainingConfig, float, float]]:
        """The key's best mean-accuracy configuration as ``(config, cost, acc)``.

        Ties break toward the cheaper configuration, then the configuration
        key, so the answer is deterministic.  ``None`` when the key is
        unknown — callers fall back to their cold-start behaviour.  The
        answer is memoised until the next push for the key, so a control
        scan pays the argmin once per push rather than once per query.
        """
        best = self._best.get(key)
        if best is None:
            curves = self.curves_for(key)
            if not curves:
                return None
            config = min(curves, key=lambda cfg: (-curves[cfg][1], curves[cfg][0], cfg.key()))
            best = self._best[key] = (config, *curves[config])
        return best

    def pushes_for(self, key: ProfileKey) -> int:
        return self._pushes.get(key, 0)

    def last_push_at(self, key: ProfileKey) -> Optional[float]:
        """Arrival time of the key's latest push on the fleet clock.

        ``None`` before any push — and always ``None`` on stores built
        without a ``decay_half_life``, which never track arrival times.
        The predictive control policy reads this as a staleness signal:
        the older a key's curves, the less its predicted accuracy gain is
        trusted.
        """
        return self._last_push_at.get(key)

    @property
    def num_pushes(self) -> int:
        return sum(self._pushes.values())

    def keys(self) -> List[ProfileKey]:
        return sorted(self._sums)

    def __contains__(self, key: ProfileKey) -> bool:
        return key in self._sums

    def __len__(self) -> int:
        return len(self._sums)

    # --------------------------------------------------------------- export
    def as_dict(self) -> Dict:
        payload = {}
        # Decaying stores persist their half-life under a reserved key so a
        # plain round-trip keeps decaying; default stores omit it and the
        # payload stays byte-identical to the pre-decay format.
        if self._decay_half_life is not None:
            payload["_meta"] = {"decay_half_life": self._decay_half_life}
        for key in self.keys():
            dataset, regime = key
            entry = {
                "dataset": dataset,
                "regime": regime,
                "pushes": self._pushes.get(key, 0),
                "curves": [
                    {
                        "config": config.as_dict(),
                        "gpu_seconds_sum": sums[0],
                        "accuracy_sum": sums[1],
                        "count": sums[2],
                    }
                    for config, sums in self._sums[key].items()
                ],
            }
            # Only decaying stores track arrival times; omitting the field
            # otherwise keeps the pre-decay payload shape byte-identical.
            if key in self._last_push_at:
                entry["last_push_at"] = self._last_push_at[key]
            payload[f"{dataset}|{regime}"] = entry
        return to_jsonable(payload)

    @classmethod
    def from_dict(
        cls, payload: Dict, *, decay_half_life: Optional[float] = None
    ) -> "FleetProfileStore":
        """Rebuild a store from :meth:`as_dict` output.

        The half-life round-trips through the payload's ``_meta`` entry; an
        explicit ``decay_half_life`` argument overrides it (e.g. to start
        decaying a store that was recorded without decay).
        """
        meta = payload.get("_meta", {})
        if decay_half_life is None:
            decay_half_life = meta.get("decay_half_life")
        store = cls(decay_half_life=decay_half_life)
        for name, entry in payload.items():
            if name == "_meta":
                continue
            key = (entry["dataset"], entry["regime"])
            store._pushes[key] = int(entry["pushes"])
            if "last_push_at" in entry:
                store._last_push_at[key] = float(entry["last_push_at"])
            curves = store._sums.setdefault(key, {})
            for item in entry["curves"]:
                curves[RetrainingConfig.from_dict(item["config"])] = [
                    float(item["gpu_seconds_sum"]),
                    float(item["accuracy_sum"]),
                    float(item["count"]),
                ]
        return store
