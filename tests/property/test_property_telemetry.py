"""Property tests for the telemetry plane's accounting guarantees.

Two contracts the docs promise unconditionally (``docs/telemetry.md``):

* **Aggregates are exact under sampling.**  Adaptive sampling only thins
  the raw ``(window, value)`` series points; the per-stream count, running
  mean and p10 fold in *every* observation.  Below
  ``EXACT_QUANTILE_LIMIT`` samples the p10 matches ``np.percentile``
  exactly; past it the P² estimate stays within ~5 % of the observed value
  range.
* **The drop counter is exact.**  However many events flow through
  whatever ring capacity, ``telemetry_events_dropped`` equals
  ``max(0, recorded - capacity)`` and the survivors are exactly the newest
  ``min(recorded, capacity)`` in order.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fleet.telemetry import (
    EXACT_QUANTILE_LIMIT,
    SERIES_CAPACITY,
    AdaptiveStreamSampler,
    EventRing,
    P2Quantile,
)

_values = st.floats(min_value=0.0, max_value=1.0, allow_nan=False, width=64)


class TestSampledAggregatesMatchDense:
    @given(
        series=st.lists(_values, min_size=1, max_size=60),
        top_k=st.integers(min_value=0, max_value=3),
        stride=st.integers(min_value=1, max_value=8),
    )
    @settings(max_examples=100, deadline=None)
    def test_exact_regime_aggregates_are_exact(self, series, top_k, stride):
        """count/mean/p10 ignore sampling entirely (≤ exact_limit samples)."""
        sampler = AdaptiveStreamSampler(
            top_k=top_k,
            tail_stride=stride,
            series_capacity=SERIES_CAPACITY,
            exact_limit=EXACT_QUANTILE_LIMIT,
        )
        # A decoy mover competes for the dense slots so the stream under
        # test is sometimes sampled densely, sometimes only 1-in-stride.
        for window, value in enumerate(series):
            sampler.observe(window, {"probe": value, "decoy": float(window % 2)})
        summary = sampler.summary_of("probe")
        dense = np.asarray(series, dtype=float)
        assert summary["count"] == len(series)
        assert abs(summary["mean"] - dense.mean()) <= 1e-9
        assert abs(summary["p10"] - np.percentile(dense, 10.0)) <= 1e-9
        # The thinned series only ever holds genuinely observed points.
        for window, value in sampler.series_of("probe"):
            assert series[window] == value

    @given(seed=st.integers(min_value=0, max_value=2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_streaming_p10_is_within_the_documented_bound(self, seed):
        """Past the exact regime the P² estimate is ~5 % of value range."""
        rng = np.random.default_rng(seed)
        samples = rng.uniform(0.0, 1.0, size=400)
        sketch = P2Quantile(0.10, exact_limit=64)
        for value in samples:
            sketch.add(float(value))
        assert not sketch.is_exact
        exact = np.percentile(samples, 10.0)
        bound = 0.05 * (samples.max() - samples.min())
        assert abs(sketch.value() - exact) <= bound


class TestRingDropCounterIsExact:
    @given(
        recorded=st.integers(min_value=0, max_value=300),
        capacity=st.integers(min_value=1, max_value=64),
    )
    @settings(max_examples=100, deadline=None)
    def test_drops_equal_overflow_and_survivors_are_the_newest(
        self, recorded, capacity
    ):
        ring = EventRing(capacity)
        for i in range(recorded):
            ring.append(float(i), 0, 0, 0, 0, 0.0, 0, None)
        assert ring.recorded == recorded
        assert ring.dropped == max(0, recorded - capacity)
        assert len(ring) == min(recorded, capacity)
        kept = [float(row["time"]) for row, _ in ring.records()]
        expected_start = max(0, recorded - capacity)
        assert kept == [float(i) for i in range(expected_start, recorded)]
