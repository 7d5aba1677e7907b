"""Unit tests for repro.utils.math_utils."""

import pytest

from repro.utils.math_utils import (
    clamp,
    euclidean_distance,
    is_pareto_dominated,
    pareto_frontier,
    quantize_to_inverse_power_of_two,
    safe_mean,
    time_weighted_average,
)


class TestClamp:
    def test_within_bounds_passthrough(self):
        assert clamp(0.5) == 0.5

    def test_below_floor(self):
        assert clamp(-1.0) == 0.0

    def test_above_ceiling(self):
        assert clamp(2.0) == 1.0

    def test_custom_bounds(self):
        assert clamp(5.0, 1.0, 3.0) == 3.0

    def test_invalid_bounds_raise(self):
        with pytest.raises(ValueError):
            clamp(0.5, 1.0, 0.0)


class TestMeans:
    def test_safe_mean_empty_returns_default(self):
        assert safe_mean([], default=0.3) == 0.3

    def test_safe_mean_values(self):
        assert safe_mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)


class TestTimeWeightedAverage:
    def test_two_segments(self):
        # Half the window at 0.5, half at 1.0 -> 0.75.
        assert time_weighted_average([(100.0, 0.5), (100.0, 1.0)]) == pytest.approx(0.75)

    def test_zero_duration_segments_ignored(self):
        assert time_weighted_average([(0.0, 0.1), (50.0, 0.8)]) == pytest.approx(0.8)

    def test_all_zero_duration_is_zero(self):
        assert time_weighted_average([(0.0, 0.9)]) == 0.0

    def test_negative_duration_raises(self):
        with pytest.raises(ValueError):
            time_weighted_average([(-1.0, 0.5)])


class TestPareto:
    def test_frontier_basic(self):
        # (cost, accuracy): the cheap-and-accurate point dominates.
        points = [(1.0, 0.9), (2.0, 0.8), (0.5, 0.5), (3.0, 0.95)]
        frontier = pareto_frontier(points)
        assert 0 in frontier  # cheap and accurate
        assert 3 in frontier  # most accurate
        assert 1 not in frontier  # dominated by point 0

    def test_frontier_empty(self):
        assert pareto_frontier([]) == []

    def test_frontier_single_point(self):
        assert pareto_frontier([(1.0, 0.5)]) == [0]

    def test_dominated_detection(self):
        assert is_pareto_dominated((2.0, 0.7), [(1.0, 0.9)])

    def test_not_dominated_by_worse(self):
        assert not is_pareto_dominated((1.0, 0.9), [(2.0, 0.7), (1.5, 0.85)])

    def test_equal_point_not_dominating(self):
        assert not is_pareto_dominated((1.0, 0.5), [(1.0, 0.5)])


class TestDistributions:
    def test_euclidean_distance(self):
        assert euclidean_distance([0, 0], [3, 4]) == pytest.approx(5.0)

    def test_euclidean_distance_mismatch(self):
        with pytest.raises(ValueError):
            euclidean_distance([1.0], [1.0, 2.0])


class TestQuantizeInversePowerOfTwo:
    def test_whole_gpu_untouched(self):
        assert quantize_to_inverse_power_of_two(1.0) == 1.0

    def test_half(self):
        assert quantize_to_inverse_power_of_two(0.6) == 0.5

    def test_quarter(self):
        assert quantize_to_inverse_power_of_two(0.3) == 0.25

    def test_zero_stays_zero(self):
        assert quantize_to_inverse_power_of_two(0.0) == 0.0

    def test_respects_min_fraction(self):
        assert quantize_to_inverse_power_of_two(0.01, min_fraction=1 / 8) == pytest.approx(1 / 8)

    def test_above_one_floors_to_integer(self):
        assert quantize_to_inverse_power_of_two(2.7) == 2.0

    def test_negative_raises(self):
        with pytest.raises(ValueError):
            quantize_to_inverse_power_of_two(-0.1)
