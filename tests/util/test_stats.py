"""Unit tests for repro.util.stats."""

from __future__ import annotations

import pytest

from repro.util.stats import (
    OnlineStats,
    Percentiles,
    TimeSeries,
    WindowedCounter,
    mean,
    percentile,
)


class TestMean:
    def test_simple(self):
        assert mean([1.0, 2.0, 3.0]) == pytest.approx(2.0)

    def test_single_value(self):
        assert mean([5.0]) == 5.0

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            mean([])


class TestPercentile:
    def test_median_of_odd_sample(self):
        assert percentile([3.0, 1.0, 2.0], 50) == pytest.approx(2.0)

    def test_interpolation(self):
        assert percentile([0.0, 10.0], 25) == pytest.approx(2.5)

    def test_extremes(self):
        values = [5.0, 1.0, 9.0]
        assert percentile(values, 0) == 1.0
        assert percentile(values, 100) == 9.0

    def test_single_value(self):
        assert percentile([7.0], 90) == 7.0

    def test_out_of_range_q(self):
        with pytest.raises(ValueError):
            percentile([1.0], 101)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            percentile([], 50)


class TestOnlineStats:
    def test_mean_and_variance(self):
        stats = OnlineStats()
        stats.extend([2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0])
        assert stats.mean == pytest.approx(5.0)
        assert stats.variance == pytest.approx(4.0)
        assert stats.stddev == pytest.approx(2.0)

    def test_min_max(self):
        stats = OnlineStats()
        stats.extend([3.0, -1.0, 10.0])
        assert stats.minimum == -1.0
        assert stats.maximum == 10.0

    def test_empty_behaviour(self):
        stats = OnlineStats()
        assert stats.count == 0
        assert stats.mean == 0.0
        assert stats.variance == 0.0
        with pytest.raises(ValueError):
            _ = stats.minimum
        with pytest.raises(ValueError):
            _ = stats.maximum

    def test_single_observation_has_zero_variance(self):
        stats = OnlineStats()
        stats.add(4.2)
        assert stats.variance == 0.0

    def test_as_dict_keys(self):
        stats = OnlineStats()
        stats.add(1.0)
        assert set(stats.as_dict()) == {"count", "mean", "stddev", "min", "max"}


class TestPercentiles:
    def test_from_values(self):
        snapshot = Percentiles.from_values(list(range(101)))
        assert snapshot.p50 == pytest.approx(50.0)
        assert snapshot.p90 == pytest.approx(90.0)
        assert snapshot.p99 == pytest.approx(99.0)
        assert snapshot.maximum == 100.0


class TestTimeSeries:
    def test_append_and_iterate(self):
        series = TimeSeries(name="load")
        series.append(0.0, 1.0)
        series.append(10.0, 2.0)
        assert list(series) == [(0.0, 1.0), (10.0, 2.0)]
        assert len(series) == 2

    def test_rejects_time_going_backwards(self):
        series = TimeSeries(name="load")
        series.append(10.0, 1.0)
        with pytest.raises(ValueError):
            series.append(5.0, 2.0)

    def test_latest(self):
        series = TimeSeries(name="load")
        series.append(1.0, 5.0)
        series.append(2.0, 6.0)
        assert series.latest() == (2.0, 6.0)

    def test_latest_empty_rejected(self):
        with pytest.raises(ValueError):
            TimeSeries(name="x").latest()

    def test_value_stats(self):
        series = TimeSeries(name="x")
        for index in range(5):
            series.append(float(index), float(index))
        assert series.value_stats().mean == pytest.approx(2.0)

    def test_resample_mean(self):
        series = TimeSeries(name="x")
        for index in range(6):
            series.append(float(index), float(index))
        resampled = series.resample_mean(2.0)
        assert resampled.values == [pytest.approx(0.5), pytest.approx(2.5), pytest.approx(4.5)]

    def test_resample_requires_positive_width(self):
        with pytest.raises(ValueError):
            TimeSeries(name="x").resample_mean(0.0)

    def test_resample_empty_series(self):
        assert len(TimeSeries(name="x").resample_mean(10.0)) == 0

    def test_resample_with_gap(self):
        series = TimeSeries(name="x")
        series.append(0.0, 1.0)
        series.append(10.0, 3.0)
        resampled = series.resample_mean(2.0)
        assert resampled.values[0] == pytest.approx(1.0)
        assert resampled.values[-1] == pytest.approx(3.0)


class TestWindowedCounter:
    def test_rate_computation(self):
        counter = WindowedCounter()
        counter.add(10)
        counter.add(20)
        assert counter.window_total == 30
        assert counter.roll_window(10.0) == pytest.approx(3.0)
        assert counter.window_total == 0
        assert counter.grand_total == 30

    def test_rejects_negative_counts(self):
        with pytest.raises(ValueError):
            WindowedCounter().add(-1)

    def test_rejects_non_positive_window(self):
        counter = WindowedCounter()
        with pytest.raises(ValueError):
            counter.roll_window(0.0)

    def test_multiple_windows_accumulate_grand_total(self):
        counter = WindowedCounter()
        counter.add(5)
        counter.roll_window(1.0)
        counter.add(7)
        counter.roll_window(1.0)
        assert counter.grand_total == 12
