"""Unit tests for the deterministic metric primitives."""

from __future__ import annotations

import json

import pytest

from repro.obs import (
    METRIC_VOCAB,
    NULL_REGISTRY,
    WORKER_COUNTER_FIELDS,
    MetricError,
    MetricRegistry,
    worker_metric,
)


class TestCounter:
    def test_inc_accumulates(self):
        counter = MetricRegistry().counter("net.session.packets_sent")
        counter.inc()
        counter.inc(4)
        assert counter.value == 5

    def test_negative_increment_rejected(self):
        counter = MetricRegistry().counter("c")
        with pytest.raises(MetricError):
            counter.inc(-1)


class TestHistogram:
    def test_inclusive_upper_edges_and_overflow(self):
        histogram = MetricRegistry().histogram("h", bounds=(1.0, 2.0))
        histogram.observe(1.0)  # == edge -> first bucket (inclusive upper edge)
        histogram.observe(1.5)
        histogram.observe(9.0)  # above the last edge -> overflow bucket
        assert histogram.counts == [1, 1, 1]
        assert histogram.count == 3
        assert histogram.total == pytest.approx(11.5)

    def test_bounds_must_strictly_increase(self):
        registry = MetricRegistry()
        with pytest.raises(MetricError):
            registry.histogram("bad", bounds=(2.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("flat", bounds=(1.0, 1.0))
        with pytest.raises(MetricError):
            registry.histogram("empty", bounds=())


class TestRegistry:
    def test_same_name_returns_same_instrument(self):
        registry = MetricRegistry()
        assert registry.counter("x") is registry.counter("x")

    def test_kind_collision_raises(self):
        registry = MetricRegistry()
        registry.counter("x")
        with pytest.raises(MetricError):
            registry.histogram("x", bounds=(1.0,))

    def test_histogram_rebind_with_different_bounds_raises(self):
        registry = MetricRegistry()
        registry.histogram("h", bounds=(1.0, 2.0))
        assert registry.histogram("h", bounds=(1.0, 2.0)).counts == [0, 0, 0]
        with pytest.raises(MetricError):
            registry.histogram("h", bounds=(1.0, 3.0))

    def test_snapshot_is_name_sorted(self):
        registry = MetricRegistry()
        registry.counter("b")
        registry.counter("a")
        assert list(registry.snapshot()) == ["a", "b"]

    def test_to_jsonl_is_stable_and_parseable(self):
        registry = MetricRegistry()
        registry.counter("hits").inc(2)
        registry.histogram("lat", bounds=(0.1,)).observe(0.05)
        first = registry.to_jsonl()
        assert first == registry.to_jsonl()
        records = [json.loads(line) for line in first.splitlines()]
        assert [record["name"] for record in records] == ["hits", "lat"]
        assert records[0] == {"kind": "counter", "name": "hits", "value": 2}


class TestDisabledRegistry:
    def test_hands_out_shared_null_instrument(self):
        registry = MetricRegistry(enabled=False)
        counter = registry.counter("x")
        assert counter is registry.histogram("z", bounds=(1.0,))
        # No-ops by contract; nothing registers, nothing serializes.
        counter.inc()
        counter.observe(1.0)
        assert registry.snapshot() == {}
        assert registry.to_jsonl() == ""

    def test_shared_null_registry_is_disabled(self):
        assert not NULL_REGISTRY.enabled
        assert NULL_REGISTRY.to_jsonl() == ""


class TestFleetVocabulary:
    def test_worker_metric_names(self):
        assert worker_metric("completed") == "fleet.worker.completed"
        assert worker_metric("inflight") == "fleet.worker.inflight"
        with pytest.raises(MetricError):
            worker_metric("nonsense")

    def test_fault_metric_names(self):
        # Fault-class counters are named ``fleet.faults.<error type>``.
        assert "fleet.faults.*" in METRIC_VOCAB

    def test_vocab_covers_every_worker_counter_field(self):
        for field in WORKER_COUNTER_FIELDS:
            assert worker_metric(field) in METRIC_VOCAB

    def test_vocab_names_sorted(self):
        names = sorted(METRIC_VOCAB)
        assert "net.session.frames_sent" in names
        assert all(name == name.lower() and "." in name for name in names)
