"""Tests for the metrics registry and text exposition."""

import math

import pytest

from repro.obs.metrics import COUNT_BUCKETS, MetricsRegistry


class TestCounter:
    def test_starts_at_zero_and_increments(self):
        registry = MetricsRegistry()
        counter = registry.counter("events_total")
        assert counter.value == 0.0
        counter.inc()
        counter.inc(2.5)
        assert counter.value == 3.5

    def test_labelled_series_are_independent(self):
        registry = MetricsRegistry()
        counter = registry.counter("by_link", labelnames=("link",))
        counter.labels(link="SR").inc()
        counter.labels(link="SR").inc()
        counter.labels(link="RS").inc()
        assert counter.value_for(link="SR") == 2.0
        assert counter.value_for(link="RS") == 1.0

    def test_bound_child_is_cached(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labelnames=("x",))
        assert counter.labels(x="a") is counter.labels(x="a")

    def test_unlabelled_use_of_labelled_metric_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labelnames=("x",))
        with pytest.raises(ValueError):
            counter.inc()

    def test_wrong_label_names_rejected(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labelnames=("x",))
        with pytest.raises(ValueError):
            counter.labels(y="a")


class TestGauge:
    def test_set_inc_dec(self):
        registry = MetricsRegistry()
        gauge = registry.gauge("depth")
        gauge.set(5.0)
        gauge.inc()
        gauge.dec(2.0)
        assert gauge.value == 4.0


class TestHistogram:
    def test_observations_land_in_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 1.5, 3.0, 100.0):
            hist.observe(value)
        child = hist._children[()]
        assert child.counts == [1, 1, 1, 1]  # last is the +inf bucket
        assert hist.count == 4
        assert hist.sum == 105.0

    def test_quantile_upper_bound(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0, 4.0))
        for value in (0.5, 0.6, 0.7, 3.0):
            hist.observe(value)
        assert hist._children[()].quantile(0.5) == 1.0
        assert hist._children[()].quantile(1.0) == 4.0

    def test_overflow_quantile_is_inf(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0,))
        hist.observe(50.0)
        assert hist._children[()].quantile(1.0) == math.inf

    def test_buckets_must_be_finite_nonempty(self):
        registry = MetricsRegistry()
        with pytest.raises(ValueError):
            registry.histogram("bad", buckets=(math.inf,))


class TestRegistry:
    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("c") is registry.counter("c")

    def test_kind_conflict_raises(self):
        registry = MetricsRegistry()
        registry.counter("name")
        with pytest.raises(ValueError):
            registry.gauge("name")

    def test_scoped_registries_do_not_share(self):
        a, b = MetricsRegistry(), MetricsRegistry()
        a.counter("c").inc()
        assert b.counter("c").value == 0.0

    def test_snapshot_shape(self):
        registry = MetricsRegistry()
        registry.counter("c", help="a counter").inc()
        registry.histogram("h", buckets=COUNT_BUCKETS).observe(3)
        snap = registry.snapshot()
        assert snap["c"]["type"] == "counter"
        assert snap["c"]["samples"] == [{"labels": {}, "value": 1.0}]
        hist = snap["h"]["samples"][0]
        assert len(hist["counts"]) == len(hist["buckets"]) + 1


class TestTextExposition:
    def test_counter_and_gauge_lines(self):
        registry = MetricsRegistry()
        registry.counter("c", help="things").inc(2)
        registry.gauge("g").set(1.5)
        text = registry.render_text()
        assert "# HELP c things" in text
        assert "# TYPE c counter" in text
        assert "c 2" in text
        assert "g 1.5" in text

    def test_histogram_renders_cumulative_buckets(self):
        registry = MetricsRegistry()
        hist = registry.histogram("h", buckets=(1.0, 2.0))
        hist.observe(0.5)
        hist.observe(1.5)
        text = registry.render_text()
        assert 'h_bucket{le="1"} 1' in text
        assert 'h_bucket{le="2"} 2' in text
        assert 'h_bucket{le="+Inf"} 2' in text
        assert "h_sum 2" in text
        assert "h_count 2" in text

    def test_labels_sorted_and_quoted(self):
        registry = MetricsRegistry()
        counter = registry.counter("c", labelnames=("z", "a"))
        counter.labels(z="1", a="2").inc()
        assert 'c{a="2",z="1"} 1' in registry.render_text()
