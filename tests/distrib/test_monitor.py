"""Fleet status: the snapshot accessor and the ``--status-json`` sink.

A real coordinator socket and in-process workers: ``status_snapshot()``
must be schema-valid, the sink must capture monotonic frames ending in a
terminal ``done`` frame, and a coordinator without a sink runs no status
thread.
"""

from __future__ import annotations

import json
import threading
import time

import pytest

from repro.distrib import DistributedBackend
from repro.distrib.coordinator import SweepCoordinator
from repro.distrib.protocol import STATUS_SCHEMA
from repro.distrib.worker import run_worker
from repro.obs import WORKER_COUNTER_FIELDS

FINGERPRINT = "test-tree"


def _executor(payload):
    time.sleep(0.02)
    if payload.get("explode"):
        return {
            "payload": payload,
            "elapsed_s": 0.02,
            "error": {"type": "BoomError", "message": "boom", "traceback": ""},
        }
    return {"payload": payload, "elapsed_s": 0.02, "error": None}


def _start_worker(address, name="w0"):
    thread = threading.Thread(
        target=run_worker,
        kwargs=dict(
            connect=address,
            fingerprint=FINGERPRINT,
            worker_name=name,
            executor=_executor,
            heartbeat_interval_s=0.1,
            connect_timeout_s=10.0,
        ),
        daemon=True,
    )
    thread.start()
    return thread


def _items(count, explode=()):
    return [
        (index, {"cache_key": f"k{index}", "explode": index in explode})
        for index in range(count)
    ]


class TestStatusAccessors:
    def test_queue_depth_and_inflight_before_any_worker(self):
        coordinator = SweepCoordinator(fingerprint=FINGERPRINT)
        try:
            coordinator.submit([(str(index), {"cache_key": f"k{index}"}) for index in range(3)])
            snapshot = coordinator.status_snapshot()
            assert snapshot["queue_depth"] == 3
            assert snapshot["inflight"] == 0
            assert all(row["inflight"] == 0 for row in snapshot["workers"].values())
        finally:
            coordinator.close()

    def test_snapshot_schema_and_shape(self):
        coordinator = SweepCoordinator(fingerprint=FINGERPRINT)
        try:
            coordinator.submit([(str(index), {"cache_key": f"k{index}"}) for index in range(2)])
            snapshot = coordinator.status_snapshot()
            assert snapshot["schema"] == STATUS_SCHEMA
            assert snapshot["total"] == 2
            assert snapshot["queue_depth"] == 2
            assert snapshot["inflight"] == 0
            assert snapshot["done"] is False
            assert snapshot["workers"] == {}
            assert snapshot["fault_classes"] == {}
            # JSON-serializable as-is: it is one line of the sink.
            json.dumps(snapshot)
        finally:
            coordinator.close()

    def test_snapshot_sequence_numbers_increase(self):
        coordinator = SweepCoordinator(fingerprint=FINGERPRINT)
        try:
            first = coordinator.status_snapshot()["seq"]
            second = coordinator.status_snapshot()["seq"]
            assert second == first + 1
        finally:
            coordinator.close()

    def test_invalid_status_interval_rejected(self):
        with pytest.raises(ValueError):
            SweepCoordinator(fingerprint=FINGERPRINT, status_interval_s=0.0)


class TestStatusJsonSink:
    def test_sink_captures_schema_valid_frames_and_terminal_state(self, tmp_path):
        sink = tmp_path / "status.jsonl"
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=30,
            status_json=sink,
            status_interval_s=0.1,
        )
        _start_worker(backend.address)
        records = list(backend.execute(_items(6, explode={2})))
        backend.close()
        assert len(records) == 6
        lines = [json.loads(line) for line in sink.read_text().splitlines()]
        assert lines, "status sink stayed empty"
        assert all(line["schema"] == STATUS_SCHEMA for line in lines)
        final = lines[-1]
        assert final["done"] is True
        assert final["completed"] == 6
        assert final["failed"] == 1
        assert final["fault_classes"] == {"BoomError": 1}
        assert final["queue_depth"] == 0
        worker_row = final["workers"]["w0"]
        # Per-worker blocks speak the shared vocabulary, plus inflight.
        assert set(worker_row) == set(WORKER_COUNTER_FIELDS) | {"inflight"}
        assert worker_row["completed"] == 6
        assert worker_row["failed"] == 1

    def test_sequence_numbers_monotonic_in_sink(self, tmp_path):
        sink = tmp_path / "status.jsonl"
        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            fingerprint=FINGERPRINT,
            startup_timeout_s=30,
            status_json=sink,
            status_interval_s=0.05,
        )
        _start_worker(backend.address)
        list(backend.execute(_items(4)))
        backend.close()
        seqs = [json.loads(line)["seq"] for line in sink.read_text().splitlines()]
        assert seqs == sorted(seqs)
        assert len(set(seqs)) == len(seqs)


class TestStatusThread:
    @staticmethod
    def _threads_started_by_bind(coordinator) -> list[str]:
        before = set(threading.enumerate())
        coordinator.bind("127.0.0.1", 0)
        return sorted(thread.name for thread in set(threading.enumerate()) - before)

    def test_no_sink_starts_no_status_thread(self):
        coordinator = SweepCoordinator(fingerprint=FINGERPRINT)
        try:
            assert self._threads_started_by_bind(coordinator) == ["distrib-accept"]
        finally:
            coordinator.close()

    def test_sink_starts_the_status_thread(self):
        frames: list[dict] = []
        coordinator = SweepCoordinator(
            fingerprint=FINGERPRINT, status_interval_s=0.05, status_sink=frames.append
        )
        try:
            started = self._threads_started_by_bind(coordinator)
            assert started == ["distrib-accept", "distrib-status"]
        finally:
            coordinator.close()
        # close() writes the terminal frame through the sink.
        assert frames and frames[-1]["schema"] == STATUS_SCHEMA
