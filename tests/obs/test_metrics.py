"""Unit tests for the metrics registry and its instruments."""

import math

import pytest

from repro.obs.latency import LatencyHistogram
from repro.obs.metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    NULL_REGISTRY,
)
from repro.sim.monitor import Tally


class TestCounter:
    def test_increments(self):
        counter = Counter("hits_total")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5
        assert counter.snapshot() == {"type": "counter", "value": 5}

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Counter("hits_total").inc(-1)


class TestGauge:
    def test_set_inc_dec(self):
        gauge = Gauge("queue_depth")
        gauge.set(3.0)
        gauge.inc(2.0)
        gauge.dec()
        assert gauge.value == pytest.approx(4.0)
        assert gauge.snapshot()["type"] == "gauge"


class TestHistogram:
    def test_bucket_placement_inclusive_upper_bound(self):
        hist = Histogram("lat", buckets=(1, 5, 10))
        for value in (0.5, 1.0, 1.1, 5.0, 9.9, 10.0, 11.0):
            hist.observe(value)
        snap = hist.snapshot()
        assert snap["buckets"] == {"1.0": 2, "5.0": 2, "10.0": 2, "+inf": 1}
        assert snap["count"] == 7

    def test_observe_many_matches_sequential_observes(self):
        values = [0.5, 1.0, 1.1, 5.0, 9.9, 10.0, 11.0]
        batched = Histogram("lat", buckets=(1, 5, 10))
        batched.observe_many(values)
        sequential = Histogram("lat", buckets=(1, 5, 10))
        for value in values:
            sequential.observe(value)
        assert batched.snapshot()["buckets"] \
            == sequential.snapshot()["buckets"]
        assert batched.count == sequential.count
        assert batched.mean == pytest.approx(sequential.mean)
        assert batched.stddev == pytest.approx(sequential.stddev)
        assert batched.quantile(0.5) == sequential.quantile(0.5)

    def test_observe_many_empty_batch_is_noop(self):
        hist = Histogram("lat", buckets=(1,))
        hist.observe_many([])
        assert hist.count == 0

    def test_observe_many_rejects_non_finite_before_mutation(self):
        hist = Histogram("lat", buckets=(1,))
        hist.observe(0.5)
        with pytest.raises(ValueError):
            hist.observe_many([2.0, math.nan])
        assert hist.count == 1  # the clean value did not slip in

    @pytest.mark.parametrize("cls", [Histogram, LatencyHistogram])
    def test_rejected_observe_leaves_buckets_untouched(self, cls):
        hist = cls("lat")
        hist.observe(3.0)
        for value, weight in ((math.nan, 1), (math.inf, 1), (-math.inf, 1),
                              (2.0, 0), (2.0, -1.5)):
            with pytest.raises(ValueError):
                hist.observe(value, weight)
        assert sum(hist.counts) == hist.count == 1

    def test_summary_stats_match_tally(self):
        hist = Histogram("lat", buckets=(10,))
        values = [1.0, 2.0, 3.0, 4.0]
        for value in values:
            hist.observe(value)
        assert hist.count == 4
        assert hist.mean == pytest.approx(2.5)
        reference = Tally()
        for value in values:
            reference.add(value)
        assert hist.stddev == pytest.approx(reference.stddev)

    def test_quantile_approximation(self):
        hist = Histogram("lat", buckets=(10, 20, 30))
        for value in (5, 15, 25, 35):
            hist.observe(value)
        assert hist.quantile(0.25) == pytest.approx(10.0)
        assert hist.quantile(0.5) == pytest.approx(20.0)
        assert hist.quantile(1.0) == pytest.approx(35.0)  # overflow → max
        assert math.isnan(Histogram("empty").quantile(0.5))
        with pytest.raises(ValueError):
            hist.quantile(1.5)

    def test_zero_quantile_skips_empty_first_bucket(self):
        # Regression: q=0 has rank 0, and an empty first bucket used to
        # satisfy "cumulative >= rank" immediately, reporting bounds[0]
        # (10.0) even though nothing was ever observed there.
        hist = Histogram("lat", buckets=(10, 20, 30))
        hist.observe(15.0)
        assert hist.quantile(0.0) == 15.0  # observed min, not 10.0
        assert hist.quantile(1.0) == 15.0

    def test_extreme_quantiles_are_exact_observations(self):
        hist = Histogram("lat", buckets=(10, 20, 30))
        for value in (12.0, 14.0, 25.0):
            hist.observe(value)
        assert hist.quantile(0.0) == 12.0
        assert hist.quantile(1.0) == 25.0

    def test_quantile_rank_on_bucket_edge(self):
        hist = Histogram("lat", buckets=(10, 20))
        hist.observe(5.0)
        hist.observe(15.0)
        # rank = 0.5 * 2 = 1.0 lands exactly on the first bucket's
        # cumulative count: the bucket that *reaches* the rank owns it.
        assert hist.quantile(0.5) == 10.0

    def test_quantile_single_observation(self):
        hist = Histogram("lat", buckets=(10, 20))
        hist.observe(15.0)
        for q in (0.0, 0.25, 0.5, 0.99, 1.0):
            assert hist.quantile(q) in (15.0, 20.0)
        assert hist.quantile(0.0) == 15.0
        assert hist.quantile(1.0) == 15.0

    def test_validation(self):
        with pytest.raises(ValueError):
            Histogram("h", buckets=())
        with pytest.raises(ValueError):
            Histogram("h", buckets=(1, 1, 2))


class TestMetricsRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        first = registry.counter("requests_total")
        first.inc(3)
        second = registry.counter("requests_total")
        assert second is first
        assert second.value == 3

    def test_type_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("x")
        with pytest.raises(TypeError):
            registry.gauge("x")

    def test_snapshot_is_plain_data(self):
        registry = MetricsRegistry()
        registry.counter("c").inc()
        registry.gauge("g").set(2.5)
        registry.histogram("h", buckets=(1,)).observe(0.5)
        snap = registry.snapshot()
        assert snap["c"] == {"type": "counter", "value": 1}
        assert snap["g"]["value"] == pytest.approx(2.5)
        assert snap["h"]["count"] == 1

    def test_render_lists_every_instrument(self):
        registry = MetricsRegistry()
        registry.counter("requests_total").inc(7)
        registry.histogram("depth", buckets=(1,)).observe(0.0)
        text = registry.render()
        assert "requests_total" in text and "7" in text
        assert "depth" in text and "count=1" in text
        assert MetricsRegistry().render() == "(no metrics registered)"

    def test_disabled_registry_is_inert(self):
        registry = MetricsRegistry(enabled=False)
        counter = registry.counter("c")
        counter.inc(10)
        registry.gauge("g").set(5)
        registry.histogram("h").observe(1.0)
        assert counter.value == 0
        assert len(registry) == 0
        assert registry.snapshot() == {}
        # Every factory hands back the same shared no-op object.
        assert registry.counter("other") is counter
        assert NULL_REGISTRY.counter("x") is counter


class TestHistogramMerge:
    def test_merge_matches_pooled_observations(self):
        left_values = [0.5, 1.0, 3.0, 7.0, 12.0]
        right_values = [2.0, 4.0, 9.0, 30.0, 100.0, 5000.0]
        left = Histogram("lat")
        right = Histogram("lat")
        pooled = Histogram("lat")
        for value in left_values:
            left.observe(value)
            pooled.observe(value)
        for value in right_values:
            right.observe(value)
            pooled.observe(value)
        left.merge(right)
        assert left.counts == pooled.counts
        assert left.count == pooled.count
        assert left.mean == pytest.approx(pooled.mean)
        assert left.stddev == pytest.approx(pooled.stddev)
        assert left.snapshot()["min"] == pooled.snapshot()["min"]
        assert left.snapshot()["max"] == pooled.snapshot()["max"]
        for q in (0.1, 0.5, 0.9, 0.99):
            assert left.quantile(q) == pooled.quantile(q)

    def test_merge_empty_and_into_empty(self):
        empty = Histogram("lat")
        full = Histogram("lat")
        full.observe(2.0)
        full.merge(Histogram("lat"))  # no-op
        assert full.count == 1
        empty.merge(full)
        assert empty.count == 1 and empty.mean == pytest.approx(2.0)

    def test_mismatched_bounds_raise(self):
        left = Histogram("a", buckets=(1, 5, 10))
        right = Histogram("b", buckets=(1, 5))
        with pytest.raises(ValueError, match="bucket bounds differ"):
            left.merge(right)
        shifted = Histogram("c", buckets=(1, 5, 20))
        with pytest.raises(ValueError):
            left.merge(shifted)


class TestWeightedObserve:
    def test_weighted_observe_equals_repeated_observe(self):
        weighted = Histogram("lat")
        repeated = Histogram("lat")
        weighted.observe(3.0, weight=4)
        weighted.observe(9.0, weight=2)
        for _ in range(4):
            repeated.observe(3.0)
        for _ in range(2):
            repeated.observe(9.0)
        assert weighted.count == repeated.count
        assert weighted.counts == repeated.counts
        assert weighted.mean == pytest.approx(repeated.mean)
        assert weighted.stddev == pytest.approx(repeated.stddev)

    def test_fractional_weights_accumulate(self):
        hist = Histogram("lat", buckets=(1, 10))
        hist.observe(0.5, weight=2.5)
        hist.observe(5.0, weight=2.5)
        assert hist.count == pytest.approx(5.0)
        assert hist.mean == pytest.approx(2.75)
        assert hist.counts[0] == pytest.approx(2.5)

    def test_default_weight_keeps_integer_counts(self):
        hist = Histogram("lat", buckets=(1,))
        hist.observe(0.5)
        assert isinstance(hist.counts[0], int)
        assert isinstance(hist.count, int)

    def test_weighted_tally_matches_plain_tally(self):
        weighted = Tally()
        plain = Tally()
        for value, repeat in ((2.0, 3), (8.0, 5), (1.0, 2)):
            weighted.add_weighted(value, repeat)
            for _ in range(repeat):
                plain.add(value)
        assert weighted.count == plain.count
        assert weighted.mean == pytest.approx(plain.mean)
        assert weighted.variance == pytest.approx(plain.variance)
        assert (weighted.min, weighted.max) == (plain.min, plain.max)

    def test_weighted_tally_rejects_nonpositive_weight(self):
        with pytest.raises(ValueError):
            Tally().add_weighted(1.0, 0)
