"""Log-bucketed histogram edge cases: empty, single-sample, overflow,
merging, serialisation."""

import json
import math
import random

import pytest

from repro.obs.hist import HistogramRegistry, LogHistogram


def test_empty_histogram_reports_zeros():
    h = LogHistogram()
    assert h.count == 0
    assert h.mean == 0.0
    assert h.percentile(50) == 0.0
    assert h.percentile(99.9) == 0.0
    s = h.summary()
    assert s["count"] == 0
    assert s["min"] == 0.0 and s["max"] == 0.0


def test_single_sample_is_exact_at_every_quantile():
    h = LogHistogram(min_value=1e-6, max_value=10.0)
    h.record(0.0042)
    for p in (0, 50, 90, 99, 99.9, 100):
        assert h.percentile(p) == pytest.approx(0.0042)
    assert h.mean == pytest.approx(0.0042)
    assert h.min == h.max == 0.0042


def test_quantile_relative_error_is_bounded_by_bucket_width():
    h = LogHistogram(min_value=1e-6, max_value=10.0, buckets_per_decade=20)
    rng = random.Random(42)
    samples = sorted(rng.uniform(1e-4, 1.0) for _ in range(5000))
    for v in samples:
        h.record(v)
    # One bucket spans a factor of 10**(1/20) ~= 1.122; the geometric
    # midpoint is within ~6% of any sample in the bucket.
    for p in (50, 90, 99):
        exact = samples[math.ceil(len(samples) * p / 100.0) - 1]
        assert h.percentile(p) == pytest.approx(exact, rel=0.13)


def test_overflow_underflow_and_zero_samples_are_tracked():
    h = LogHistogram(min_value=1e-3, max_value=1.0)
    h.record(0.0)        # zero bucket
    h.record(-1.0)       # negatives count as zeros
    h.record(1e-5)       # below min_value -> underflow
    h.record(50.0)       # above max_value -> overflow
    h.record(0.1)        # in range
    assert h.zeros == 2
    assert h.underflow == 1
    assert h.overflow == 1
    assert h.count == 5
    # Extremes stay exact even though they fell outside the range.
    assert h.max == 50.0
    assert h.min == -1.0
    assert h.percentile(100) == 50.0


def test_overflow_dominated_histogram_reports_observed_max():
    h = LogHistogram(min_value=1e-3, max_value=1.0)
    for _ in range(100):
        h.record(7.0)
    assert h.overflow == 100
    assert h.percentile(50) == 7.0  # clamped to observed extremes


def test_fixed_memory_regardless_of_sample_count():
    h = LogHistogram(min_value=1e-6, max_value=10.0)
    buckets = len(h.counts)
    for i in range(100_000):
        h.record((i % 997 + 1) * 1e-5)
    assert len(h.counts) == buckets


def test_registry_creates_on_first_record_and_honours_config():
    reg = HistogramRegistry()
    reg.configure("queue", min_value=1e-4, max_value=2.0, buckets_per_decade=30)
    reg.record("queue", 0.5)
    reg.record("rtt", 0.01)
    assert reg.names() == ["queue", "rtt"]
    assert reg.get("queue").buckets_per_decade == 30
    assert reg.get("rtt").buckets_per_decade == 20  # default
    summaries = reg.summaries()
    assert summaries["queue"]["count"] == 1
    assert json.dumps(summaries)  # JSON-safe
