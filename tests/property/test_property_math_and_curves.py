"""Property-based tests for the numeric helpers and accuracy curves."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.utils.curves import SaturatingCurve, fit_accuracy_curve, scale_for_data_fraction
from repro.utils.math_utils import (
    clamp,
    is_pareto_dominated,
    pareto_frontier,
    quantize_to_inverse_power_of_two,
    time_weighted_average,
)

finite_floats = st.floats(min_value=-1e6, max_value=1e6, allow_nan=False, allow_infinity=False)
unit_floats = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)
positive_floats = st.floats(min_value=1e-3, max_value=1e3, allow_nan=False)


class TestClampProperties:
    @given(finite_floats)
    def test_clamp_always_in_unit_interval(self, value):
        assert 0.0 <= clamp(value) <= 1.0

    @given(unit_floats)
    def test_clamp_identity_inside_interval(self, value):
        assert clamp(value) == value


class TestAverages:
    @given(st.lists(st.tuples(positive_floats, unit_floats), min_size=1, max_size=20))
    def test_time_weighted_average_bounded_by_extremes(self, segments):
        average = time_weighted_average(segments)
        values = [value for _, value in segments]
        assert min(values) - 1e-9 <= average <= max(values) + 1e-9


class TestParetoProperties:
    points_strategy = st.lists(
        st.tuples(positive_floats, unit_floats), min_size=1, max_size=25
    )

    @given(points_strategy)
    def test_frontier_points_are_not_dominated(self, points):
        frontier = pareto_frontier(points)
        assert frontier
        for index in frontier:
            others = [p for i, p in enumerate(points) if i != index]
            assert not is_pareto_dominated(points[index], others)

    @given(points_strategy)
    def test_non_frontier_points_are_dominated_or_tied(self, points):
        frontier = set(pareto_frontier(points))
        for i, point in enumerate(points):
            if i in frontier:
                continue
            frontier_points = [points[j] for j in frontier]
            # Every excluded point must have a frontier point at least as good
            # on both axes.
            assert any(
                fp[0] <= point[0] + 1e-12 and fp[1] >= point[1] - 1e-12 for fp in frontier_points
            )


class TestQuantisation:
    @given(st.floats(min_value=0.0, max_value=16.0, allow_nan=False))
    def test_quantised_fraction_never_exceeds_request(self, fraction):
        quantised = quantize_to_inverse_power_of_two(fraction, min_fraction=1 / 16)
        assert quantised <= fraction + 1e-9 or quantised == 1 / 16
        assert quantised >= 0

    @given(st.floats(min_value=1 / 16, max_value=16.0, allow_nan=False))
    def test_quantised_fraction_loses_at_most_half(self, fraction):
        quantised = quantize_to_inverse_power_of_two(fraction, min_fraction=1 / 16)
        assert quantised >= fraction / 2 - 1e-9


class TestCurveProperties:
    curve_strategy = st.builds(
        SaturatingCurve,
        a_max=st.floats(min_value=0.3, max_value=1.0),
        k0=st.floats(min_value=0.1, max_value=10.0),
        k1=st.floats(min_value=0.0, max_value=5.0),
    )

    @given(curve_strategy, st.integers(min_value=0, max_value=200), st.integers(min_value=0, max_value=200))
    def test_curve_monotone_nondecreasing(self, curve, e1, e2):
        low, high = sorted((e1, e2))
        assert curve.accuracy_at(high) >= curve.accuracy_at(low) - 1e-12

    @given(curve_strategy, st.integers(min_value=0, max_value=500))
    def test_curve_bounded(self, curve, epochs):
        value = curve.accuracy_at(epochs)
        assert 0.0 <= value <= 1.0

    @settings(max_examples=30)
    @given(
        st.floats(min_value=0.5, max_value=0.95),
        st.floats(min_value=0.3, max_value=3.0),
        st.floats(min_value=0.1, max_value=2.0),
    )
    def test_fit_reproduces_observations_reasonably(self, a_max, k0, k1):
        truth = SaturatingCurve(a_max=a_max, k0=k0, k1=k1)
        epochs = list(range(1, 7))
        observations = [truth.accuracy_at(e) for e in epochs]
        fitted = fit_accuracy_curve(epochs, observations)
        for e, observed in zip(epochs, observations):
            assert abs(fitted.accuracy_at(e) - observed) < 0.15

    @settings(max_examples=30)
    @given(
        curve_strategy,
        st.floats(min_value=0.05, max_value=1.0),
        st.floats(min_value=0.05, max_value=1.0),
    )
    def test_scaling_keeps_asymptote_in_unit_interval(self, curve, profiled, target):
        scaled = scale_for_data_fraction(curve, profiled_fraction=profiled, target_fraction=target)
        assert 0.0 <= scaled.a_max <= 1.0
        assert scaled.k1 >= 0.0
