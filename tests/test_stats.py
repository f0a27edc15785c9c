"""Unit tests for online stats, histograms and error metrics."""

from __future__ import annotations

import math

import numpy as np
import pytest

from repro.stats import (
    ErrorReport,
    Histogram,
    LatencyRecorder,
    NetworkStats,
    OnlineStats,
    mean_absolute_percentage_error,
    percent_error,
    signed_percent_error,
)


# ------------------------------------------------------------ OnlineStats
def test_online_stats_empty():
    s = OnlineStats()
    assert s.count == 0
    assert s.mean == 0.0
    assert s.variance == 0.0


def test_online_stats_matches_numpy():
    rng = np.random.default_rng(0)
    xs = rng.normal(10, 3, size=500)
    s = OnlineStats()
    for x in xs:
        s.add(float(x))
    assert s.count == 500
    assert s.mean == pytest.approx(xs.mean(), rel=1e-12)
    assert s.variance == pytest.approx(xs.var(ddof=1), rel=1e-9)
    assert s.min == xs.min()
    assert s.max == xs.max()
    assert s.total == pytest.approx(xs.sum())


def test_online_stats_merge_matches_single_pass():
    rng = np.random.default_rng(1)
    xs = rng.random(300)
    a, b, whole = OnlineStats(), OnlineStats(), OnlineStats()
    for x in xs[:100]:
        a.add(float(x))
    for x in xs[100:]:
        b.add(float(x))
    for x in xs:
        whole.add(float(x))
    a.merge(b)
    assert a.count == whole.count
    assert a.mean == pytest.approx(whole.mean)
    assert a.variance == pytest.approx(whole.variance)
    assert a.min == whole.min and a.max == whole.max


def test_online_stats_merge_empty_cases():
    a, b = OnlineStats(), OnlineStats()
    b.add(5.0)
    a.merge(b)
    assert a.count == 1 and a.mean == 5.0
    a.merge(OnlineStats())            # merging empty is a no-op
    assert a.count == 1


def test_online_stats_as_dict():
    s = OnlineStats()
    s.add(2.0)
    s.add(4.0)
    d = s.as_dict()
    assert d["count"] == 2 and d["mean"] == 3.0 and d["total"] == 6.0


# -------------------------------------------------------------- Histogram
def test_histogram_basic_binning():
    h = Histogram(bin_width=10, num_bins=4)
    for x in (0, 9, 10, 35, 39):
        h.add(x)
    assert list(h.counts) == [2, 1, 0, 2]
    assert h.overflow == 0
    assert h.count == 5


def test_histogram_overflow():
    h = Histogram(bin_width=1, num_bins=4)
    h.add(100)
    assert h.overflow == 1
    assert h.percentile(99) == math.inf


def test_histogram_rejects_negative():
    h = Histogram()
    with pytest.raises(ValueError):
        h.add(-1)


def test_histogram_percentile():
    h = Histogram(bin_width=1, num_bins=100)
    for x in range(100):
        h.add(x)
    assert h.percentile(50) == pytest.approx(50, abs=1)
    assert h.percentile(99) == pytest.approx(99, abs=1)
    assert h.percentile(0) >= 0


def test_histogram_mean_approximation():
    h = Histogram(bin_width=1, num_bins=1000)
    for x in (10, 20, 30):
        h.add(x)
    assert h.mean == pytest.approx(20.5, abs=1.0)  # midpoints = x + 0.5


def test_histogram_invalid_params():
    with pytest.raises(ValueError):
        Histogram(bin_width=0)
    with pytest.raises(ValueError):
        Histogram(num_bins=0)
    h = Histogram()
    with pytest.raises(ValueError):
        h.percentile(101)


# ----------------------------------------------------------- error metrics
def test_percent_error():
    assert percent_error(110, 100) == pytest.approx(10.0)
    assert percent_error(90, 100) == pytest.approx(10.0)
    with pytest.raises(ValueError):
        percent_error(1, 0)


def test_signed_percent_error():
    assert signed_percent_error(110, 100) == pytest.approx(10.0)
    assert signed_percent_error(90, 100) == pytest.approx(-10.0)


def test_mape():
    assert mean_absolute_percentage_error([110, 90], [100, 100]) == pytest.approx(10.0)
    assert mean_absolute_percentage_error([], []) == 0.0
    # zero-reference entries skipped
    assert mean_absolute_percentage_error([5, 110], [0, 100]) == pytest.approx(10.0)
    with pytest.raises(ValueError, match="shape"):
        mean_absolute_percentage_error([1], [1, 2])


def test_error_report_compare():
    rep = ErrorReport.compare(
        replay_exec_time=105,
        ref_exec_time=100,
        replay_latencies={"a": 10, "b": 20, "c": 5},
        ref_latencies={"a": 10, "b": 25, "d": 7},
    )
    assert rep.exec_time_error_pct == pytest.approx(5.0)
    assert rep.exec_time_signed_pct == pytest.approx(5.0)
    assert rep.matched_messages == 2
    assert rep.unmatched_messages == 2
    assert rep.latency_mape_pct == pytest.approx((0 + 20.0) / 2)
    # mean replay (15) vs mean ref (17.5)
    assert rep.mean_latency_error_pct == pytest.approx(abs(15 - 17.5) / 17.5 * 100)


def test_error_report_no_matches():
    rep = ErrorReport.compare(100, 100, {"x": 1}, {"y": 2})
    assert rep.matched_messages == 0
    assert rep.latency_mape_pct == 0.0


# ---------------------------------------------------------------- summary
def test_latency_recorder():
    r = LatencyRecorder()
    r.record(1, 10)
    r.record(2, 20)
    assert r.mean == 15.0
    assert r.count == 2
    with pytest.raises(ValueError):
        r.record(3, -1)


def test_network_stats_in_flight():
    st = NetworkStats()
    st.messages_sent = 10
    st.messages_delivered = 7
    assert st.in_flight() == 3
