"""Oracle equivalence of the analytic substrate's caches.

Two caches make the analytic substrate O(1) per stream-window:

* ``AppearanceDrift.drift_magnitude`` reads an incremental prefix of the
  cumulative appearance walk.  Its oracle is ``offsets_for_window``, the
  stateless replay of the walk from window 0, on a fresh drift model with
  the same seed.
* ``AnalyticDynamics`` memoises ``_ceiling`` and ``start_accuracy`` per
  (stream, window).  Its oracle is the same dynamics with the memo
  disabled, so every query recomputes from the serving state.

Both caches must be bit-identical to their oracles (``==``, never approx)
under any interleaving of queries and state changes.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.configs import ConfigurationSpace
from repro.datasets import AppearanceDrift, ClassTaxonomy, DriftProfile, VideoStream
from repro.profiles import AnalyticDynamics

drift_profiles = st.builds(
    DriftProfile,
    distribution_volatility=st.floats(min_value=0.0, max_value=1.0),
    appearance_volatility=st.floats(min_value=0.0, max_value=0.5),
    regime_period=st.none() | st.integers(min_value=1, max_value=6),
    dropout_probability=st.floats(min_value=0.0, max_value=1.0),
    diurnal=st.booleans(),
)

windows = st.integers(min_value=0, max_value=24)


def replayed_magnitude(drift: AppearanceDrift, from_window: int, to_window: int) -> float:
    start = drift.offsets_for_window(from_window)
    end = drift.offsets_for_window(to_window)
    return float(np.mean(np.linalg.norm(end - start, axis=1)))


class TestDriftPrefixMatchesTheReplay:
    @settings(max_examples=150, deadline=None)
    @given(
        profile=drift_profiles,
        num_classes=st.integers(min_value=1, max_value=8),
        feature_dim=st.integers(min_value=1, max_value=24),
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        queries=st.lists(st.tuples(windows, windows), min_size=1, max_size=30),
    )
    def test_drift_magnitude_equals_the_stateless_replay(
        self, profile, num_classes, feature_dim, seed, queries
    ):
        taxonomy = ClassTaxonomy([f"class-{index}" for index in range(num_classes)])
        cached = AppearanceDrift(taxonomy, profile, feature_dim=feature_dim, seed=seed)
        for from_window, to_window in queries:
            fresh = AppearanceDrift(taxonomy, profile, feature_dim=feature_dim, seed=seed)
            expected = replayed_magnitude(fresh, from_window, to_window)
            assert cached.drift_magnitude(from_window, to_window) == expected

        # One walk step per window up to the furthest queried, each stored
        # read-only and equal to the replay's offsets.
        prefix = cached._prefix
        furthest = max(max(pair) for pair in queries)
        assert sorted(prefix) == list(range(furthest + 1))
        reference = AppearanceDrift(taxonomy, profile, feature_dim=feature_dim, seed=seed)
        for window, offsets in prefix.items():
            assert not offsets.flags.writeable
            assert np.array_equal(offsets, reference.offsets_for_window(window))


class MemolessDynamics(AnalyticDynamics):
    """The oracle: every query recomputes from the serving state."""

    def _stream_memo(self, stream):
        return {}


def make_streams(count):
    return [
        VideoStream(
            f"stream-{index}",
            drift_profile=DriftProfile(appearance_volatility=0.05 + 0.1 * index),
            samples_per_window=8,
            eval_samples_per_window=8,
            seed=index,
        )
        for index in range(count)
    ]


CONFIGS = ConfigurationSpace.small().retraining_configs[::3]

#: Operation kinds, repeated to weight the draw: invalidations and resets
#: are rare, so memo entries live across several state changes.
OPERATION_MIX = ("start",) * 3 + ("candidate",) * 3 + ("commit",) * 3 + ("invalidate", "reset")

# ``(kind, stream, window, config)`` over few windows, so queries and
# commits often meet at the same (stream, window).  A commit with config
# ``None`` did not retrain; a candidate query with ``None`` asks for the
# first config.
operations = st.lists(
    st.tuples(
        st.sampled_from(OPERATION_MIX),
        st.integers(min_value=0, max_value=3),
        st.integers(min_value=0, max_value=4),
        st.none() | st.sampled_from(CONFIGS),
    ),
    min_size=10,
    max_size=60,
)


class TestDynamicsMemoMatchesAnEmptyMemo:
    @settings(max_examples=150, deadline=None)
    @given(
        num_streams=st.integers(min_value=2, max_value=4),
        seed=st.integers(min_value=0, max_value=2**16),
        ops=operations,
    )
    def test_interleaved_queries_and_commits_return_the_oracle_floats(
        self, num_streams, seed, ops
    ):
        memoised, oracle = AnalyticDynamics(seed=seed), MemolessDynamics(seed=seed)
        # Separate (identically seeded) streams, so the oracle shares no
        # drift prefix with the memoised dynamics.
        pairs = list(zip(make_streams(num_streams), make_streams(num_streams)))
        for kind, index, window, config in ops:
            mine, theirs = pairs[index % num_streams]
            if kind == "start":
                assert memoised.start_accuracy(mine, window) == oracle.start_accuracy(
                    theirs, window
                )
            elif kind == "candidate":
                config = config or CONFIGS[0]
                assert memoised.candidate_post_accuracy(
                    mine, window, config
                ) == oracle.candidate_post_accuracy(theirs, window, config)
            elif kind == "commit":
                memoised.commit_window(mine, window, config)
                oracle.commit_window(theirs, window, config)
            elif kind == "invalidate":
                memoised.invalidate_stream(mine.name)
                oracle.invalidate_stream(theirs.name)
            else:
                memoised.reset()
                oracle.reset()
        # The committed serving states agree too.
        for mine, theirs in pairs:
            assert memoised.start_accuracy(mine, 5) == oracle.start_accuracy(theirs, 5)
