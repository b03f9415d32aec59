"""Tests for streaming quantile estimation over log-spaced buckets.

The load-bearing guarantee is the acceptance criterion from the
observability issue: quantiles read off :data:`LATENCY_BUCKETS`
histograms stay within 5% relative error of the exact nearest-rank
percentile on a 10k-sample reference distribution.  The geometric
layout promises ``sqrt(growth) - 1`` (~3.9% at growth 1.08), so the
tests check the 5% budget with real slack behind it.
"""

import math
import random

import pytest

from repro.obs.metrics import Histogram, MetricsRegistry
from repro.obs.quantiles import (
    LATENCY_BUCKETS,
    bucket_quantile,
    latency_histogram,
    log_buckets,
)


def exact_quantile(samples, q):
    """The nearest-rank quantile: the ceil(q*n)-th smallest sample."""
    ordered = sorted(samples)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latency_samples(seed, count=10_000):
    """A latency-shaped reference sample: lognormal around 1 ms."""
    rng = random.Random(seed)
    return [
        min(max(rng.lognormvariate(math.log(1e-3), 1.2), 2e-6), 9.0)
        for _ in range(count)
    ]


class TestLogBuckets:
    def test_geometric_progression_covers_range(self):
        bounds = log_buckets(1e-6, 10.0, growth=1.08)
        assert bounds[0] == 1e-6
        assert bounds[-1] >= 10.0
        ratios = [b / a for a, b in zip(bounds, bounds[1:])]
        assert all(r == pytest.approx(1.08) for r in ratios)

    def test_default_layout_is_log_spaced_and_bounded(self):
        assert LATENCY_BUCKETS == log_buckets(1e-6, 10.0, growth=1.08)
        # ~200 buckets: cheap enough to attach per session
        assert 150 < len(LATENCY_BUCKETS) < 300

    def test_validation(self):
        with pytest.raises(ValueError):
            log_buckets(0.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 1.0)
        with pytest.raises(ValueError):
            log_buckets(1.0, 2.0, growth=1.0)


class TestBucketQuantile:
    def test_empty_sample_is_none(self):
        assert bucket_quantile((1.0, 2.0), [0, 0, 0], 0, 0.5) is None

    def test_quantile_outside_unit_interval_rejected(self):
        with pytest.raises(ValueError):
            bucket_quantile((1.0,), [1, 0], 1, -0.1)
        with pytest.raises(ValueError):
            bucket_quantile((1.0,), [1, 0], 1, 1.5)

    def test_overflow_bucket_uses_observed_max(self):
        # every sample above the last bound: only the max is honest
        estimate = bucket_quantile((1.0, 2.0), [0, 0, 5], 5, 0.99, maximum=7.5)
        assert estimate == 7.5

    def test_estimate_clamped_to_observed_extremes(self):
        histogram = Histogram(buckets=LATENCY_BUCKETS)
        histogram.observe(3e-3)
        assert histogram.quantile(0.0) == 3e-3
        assert histogram.quantile(1.0) == 3e-3

    def test_reference_accuracy_10k_samples(self):
        """p50/p90/p95/p99 within 5% of exact on 10k latency samples."""
        for seed in (1, 7, 42):
            samples = latency_samples(seed)
            histogram = Histogram(buckets=LATENCY_BUCKETS)
            for value in samples:
                histogram.observe(value)
            for q in (0.50, 0.90, 0.95, 0.99):
                exact = exact_quantile(samples, q)
                estimate = histogram.quantile(q)
                relative = abs(estimate - exact) / exact
                assert relative <= 0.05, (seed, q, exact, estimate)

    def test_uniform_distribution_accuracy(self):
        """The bound is distribution-free: uniform samples obey it too."""
        rng = random.Random(99)
        samples = [rng.uniform(1e-4, 1e-1) for _ in range(10_000)]
        histogram = Histogram(buckets=LATENCY_BUCKETS)
        for value in samples:
            histogram.observe(value)
        for q in (0.50, 0.95, 0.99):
            exact = exact_quantile(samples, q)
            assert abs(histogram.quantile(q) - exact) / exact <= 0.05


class TestHistogramQuantileIntegration:
    def test_snapshot_carries_percentile_keys(self):
        histogram = Histogram(buckets=LATENCY_BUCKETS)
        snapshot = histogram.snapshot()
        assert snapshot["p50"] is None  # empty histogram
        histogram.observe(2e-3)
        snapshot = histogram.snapshot()
        for key in ("p50", "p95", "p99"):
            assert snapshot[key] == pytest.approx(2e-3)

    def test_latency_histogram_wires_latency_buckets(self):
        registry = MetricsRegistry()
        histogram = latency_histogram(registry, "stream.latency.feed_to_verdict")
        assert histogram.buckets == LATENCY_BUCKETS
        # get-or-create: repeated wiring returns the same instrument
        assert latency_histogram(
            registry, "stream.latency.feed_to_verdict"
        ) is histogram
        histogram.observe(1e-3)
        snapshot = registry.snapshot()["histograms"]
        assert snapshot["stream.latency.feed_to_verdict"]["count"] == 1
