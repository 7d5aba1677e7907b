"""Unit tests for the micro-profiler's accuracy-curve extrapolation."""

import numpy as np
import pytest

from repro.exceptions import ProfilingError
from repro.utils.curves import (
    SaturatingCurve,
    fit_accuracy_curve,
    scale_for_data_fraction,
)


class TestSaturatingCurve:
    def test_monotone_in_epochs(self):
        curve = SaturatingCurve(a_max=0.9, k0=2.0, k1=1.0)
        values = [curve.accuracy_at(e) for e in range(0, 50, 5)]
        assert all(b >= a - 1e-12 for a, b in zip(values, values[1:]))

    def test_bounded_by_a_max(self):
        curve = SaturatingCurve(a_max=0.85, k0=1.0, k1=2.0)
        assert curve.accuracy_at(10_000) <= 0.85 + 1e-9

    def test_accuracy_clamped_to_unit_interval(self):
        curve = SaturatingCurve(a_max=0.9, k0=0.5, k1=0.0)
        assert 0.0 <= curve.accuracy_at(0) <= 1.0

    def test_negative_epochs_raise(self):
        curve = SaturatingCurve(a_max=0.9, k0=1.0, k1=1.0)
        with pytest.raises(ValueError):
            curve.accuracy_at(-1)

    def test_dict_roundtrip(self):
        curve = SaturatingCurve(a_max=0.88, k0=1.2, k1=0.4)
        assert SaturatingCurve.from_dict(curve.as_dict()) == curve


class TestFitAccuracyCurve:
    def _observations(self, a_max=0.9, k0=1.5, k1=0.9, epochs=5):
        truth = SaturatingCurve(a_max=a_max, k0=k0, k1=k1)
        xs = list(range(1, epochs + 1))
        ys = [truth.accuracy_at(x) for x in xs]
        return xs, ys, truth

    def test_recovers_synthetic_curve(self):
        xs, ys, truth = self._observations()
        fitted = fit_accuracy_curve(xs, ys)
        for epoch in (10, 20, 30):
            assert fitted.accuracy_at(epoch) == pytest.approx(truth.accuracy_at(epoch), abs=0.06)

    def test_extrapolation_not_below_last_observation(self):
        xs, ys, _ = self._observations()
        fitted = fit_accuracy_curve(xs, ys)
        assert fitted.accuracy_at(30) >= ys[-1] - 1e-6

    def test_requires_two_points(self):
        with pytest.raises(ProfilingError):
            fit_accuracy_curve([1], [0.5])

    def test_rejects_mismatched_lengths(self):
        with pytest.raises(ProfilingError):
            fit_accuracy_curve([1, 2], [0.5])

    def test_rejects_out_of_range_accuracy(self):
        with pytest.raises(ProfilingError):
            fit_accuracy_curve([1, 2], [0.5, 1.4])

    def test_rejects_negative_epochs(self):
        with pytest.raises(ProfilingError):
            fit_accuracy_curve([-1, 2], [0.5, 0.6])

    def test_noisy_observations_still_fit(self):
        rng = np.random.default_rng(0)
        xs, ys, truth = self._observations(epochs=8)
        noisy = [min(1.0, max(0.0, y + rng.normal(0, 0.01))) for y in ys]
        fitted = fit_accuracy_curve(xs, noisy)
        assert fitted.accuracy_at(30) == pytest.approx(truth.accuracy_at(30), abs=0.1)

    def test_flat_observations_do_not_crash(self):
        fitted = fit_accuracy_curve([1, 2, 3], [0.7, 0.7, 0.7])
        assert 0.6 <= fitted.accuracy_at(30) <= 1.0


class TestScaleForDataFraction:
    def test_more_data_raises_asymptote(self):
        curve = SaturatingCurve(a_max=0.8, k0=1.0, k1=1.0)
        scaled = scale_for_data_fraction(curve, profiled_fraction=0.1, target_fraction=1.0)
        assert scaled.a_max > curve.a_max

    def test_same_fraction_is_identity_on_asymptote(self):
        curve = SaturatingCurve(a_max=0.8, k0=1.0, k1=1.0)
        scaled = scale_for_data_fraction(curve, profiled_fraction=0.5, target_fraction=0.5)
        assert scaled.a_max == pytest.approx(curve.a_max)

    def test_asymptote_never_exceeds_one(self):
        curve = SaturatingCurve(a_max=0.97, k0=1.0, k1=1.0)
        scaled = scale_for_data_fraction(curve, profiled_fraction=0.01, target_fraction=1.0)
        assert scaled.a_max <= 1.0

    def test_invalid_fractions_raise(self):
        curve = SaturatingCurve(a_max=0.8, k0=1.0, k1=1.0)
        with pytest.raises(ValueError):
            scale_for_data_fraction(curve, profiled_fraction=0.0, target_fraction=1.0)
