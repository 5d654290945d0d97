"""Loopback integration tests for the distributed sweep dispatcher.

A real coordinator socket plus in-process workers on localhost: full-grid
equivalence with the local pool (identical persisted records), requeue of a
killed worker's cells, bounded retries ending in an error record,
fingerprint-mismatch rejection, and cache-aware scheduling (cached cells
are never dispatched).
"""

from __future__ import annotations

import json
import socket
import threading
import time
from pathlib import Path

import pytest

from repro.analysis import SweepGrid, SweepRunner, bernoulli_scenario, gilbert_elliott_scenario
from repro.analysis.sweeps import execute_cell_record
from repro.distrib import DistribTimeouts, DistributedBackend, SweepCoordinator, run_worker
from repro.distrib.protocol import PROTOCOL_VERSION, MessageChannel
from repro.distrib.worker import WorkerOutcome

GRID = SweepGrid(
    experiments=("section1_latency_budget", "section21_jitter_invariance"),
    scenarios=(bernoulli_scenario(0.02), gilbert_elliott_scenario(p_good_to_bad=0.05)),
    seeds=(0, 1),
)

SMALL_GRID = SweepGrid(
    experiments=("section1_latency_budget",),
    scenarios=(bernoulli_scenario(0.02),),
    seeds=(0,),
)


def start_worker(address, **kwargs) -> tuple[threading.Thread, list[WorkerOutcome]]:
    """Run a worker session on a thread; outcome lands in the returned list."""
    kwargs.setdefault("heartbeat_interval_s", 0.1)
    kwargs.setdefault("connect_timeout_s", 10.0)
    outcomes: list[WorkerOutcome] = []
    thread = threading.Thread(
        target=lambda: outcomes.append(run_worker(connect=address, **kwargs)), daemon=True
    )
    thread.start()
    return thread, outcomes


def load_records(results_dir) -> dict[tuple, tuple]:
    """Persisted cell records keyed by coordinates, timing stripped.

    ``elapsed_s`` is wall time and necessarily differs between runs; every
    other byte of the record — including its relative path, which encodes
    the experiment, slug, seed and cache-key prefix — must match exactly.
    """
    out = {}
    for path in sorted(Path(results_dir).glob("*/*.json")):
        record = json.loads(path.read_text())
        record.pop("elapsed_s")
        key = (record["experiment"], record["scenario"]["name"], record["seed"])
        out[key] = (str(path.relative_to(results_dir)), record)
    return out


class TestFullGridEquivalence:
    def test_distributed_matches_local_pool_byte_for_byte(self, tmp_path):
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=30)
        workers = [start_worker(backend.address) for _ in range(2)]
        report = SweepRunner(results_dir=tmp_path / "dist", backend=backend).run(GRID)
        for thread, _ in workers:
            thread.join(timeout=10)

        assert len(report.cells) == GRID.cell_count == 8
        assert report.executed == 8 and report.failed_cells == []
        assert backend.stats.dispatched == 8 and backend.stats.completed == 8
        assert backend.stats.workers_connected == 2

        local = SweepRunner(results_dir=tmp_path / "local", processes=1).run(GRID)
        assert local.executed == 8
        distributed_records = load_records(tmp_path / "dist")
        local_records = load_records(tmp_path / "local")
        assert distributed_records == local_records

        # Both workers ended cleanly and between them executed the grid.
        outcomes = [outcomes[0] for _, outcomes in workers]
        assert all(outcome.status == "done" for outcome in outcomes)
        assert sum(outcome.completed for outcome in outcomes) == 8

    def test_in_memory_report_matches_local(self, tmp_path):
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=30)
        workers = [start_worker(backend.address) for _ in range(2)]
        distributed = SweepRunner(results_dir=tmp_path / "dist", backend=backend).run(GRID)
        for thread, _ in workers:
            thread.join(timeout=10)
        local = SweepRunner(results_dir=tmp_path / "local", processes=1).run(GRID)
        by_key = {cell.cache_key: cell.result for cell in local.cells}
        for cell in distributed.cells:
            assert cell.result == by_key[cell.cache_key]


class TestWorkerLoss:
    def test_killed_worker_cells_requeued(self, tmp_path):
        """A worker dying mid-sweep loses its in-flight cell to the queue;
        the surviving worker finishes the whole grid."""
        calls = {"n": 0}

        def dies_on_second_cell(payload):
            calls["n"] += 1
            if calls["n"] >= 2:
                raise RuntimeError("simulated worker crash")
            return execute_cell_record(payload)

        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=30)
        crasher_thread, crasher_outcomes = start_worker(
            backend.address, executor=dies_on_second_cell
        )
        healthy_thread, healthy_outcomes = start_worker(backend.address)
        report = SweepRunner(results_dir=tmp_path, backend=backend).run(GRID)
        crasher_thread.join(timeout=10)
        healthy_thread.join(timeout=10)

        assert crasher_outcomes[0].status == "crashed"
        assert healthy_outcomes[0].status == "done"
        assert backend.stats.workers_lost == 1
        assert backend.stats.requeued >= 1
        # Every cell is accounted for with a real result (the crash was in
        # the harness, not the runner, so retries succeed elsewhere).
        assert len(report.cells) == 8 and report.failed_cells == []
        local = SweepRunner(results_dir=tmp_path / "local", processes=1).run(GRID)
        assert load_records(tmp_path / "local") == {
            key: value
            for key, value in load_records(tmp_path).items()
            if key in load_records(tmp_path / "local")
        }

    def test_silent_worker_times_out_and_cell_is_rescued(self, tmp_path):
        """A worker that stops heartbeating (hung, not disconnected) trips
        the heartbeat timeout; its cell reruns on the healthy worker and the
        stale duplicate result is dropped."""
        release = threading.Event()

        def hangs(payload):
            release.wait(timeout=20)
            return execute_cell_record(payload)

        backend = DistributedBackend(
            listen=("127.0.0.1", 0),
            startup_timeout_s=30,
            timeouts=DistribTimeouts(heartbeat_interval_s=0.2, heartbeat_timeout_s=0.4),
        )
        hung_thread, hung_outcomes = start_worker(
            backend.address,
            executor=hangs,
            heartbeat_interval_s=60.0,  # never heartbeats within the timeout
        )
        runner = SweepRunner(results_dir=tmp_path, backend=backend)
        result_holder: list = []
        run_thread = threading.Thread(
            target=lambda: result_holder.append(runner.run(SMALL_GRID)), daemon=True
        )
        run_thread.start()
        # Let the hung worker own the (only) cell before a rescuer exists.
        deadline = time.monotonic() + 5.0
        while backend.stats.dispatched == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert backend.stats.dispatched == 1
        healthy_thread, _ = start_worker(backend.address)
        run_thread.join(timeout=15)
        assert result_holder, "sweep did not complete"
        report = result_holder[0]
        release.set()
        hung_thread.join(timeout=10)
        healthy_thread.join(timeout=10)

        assert backend.stats.workers_lost == 1
        assert backend.stats.requeued == 1
        assert len(report.cells) == 1 and report.failed_cells == []
        # The hung worker eventually reported its duplicate into a dead
        # connection (or found it closed) — either way it did not corrupt
        # the sweep and completed nothing coordinator-visible.
        assert hung_outcomes[0].status in ("disconnected", "done")

    def test_retries_exhausted_produce_error_record(self, tmp_path):
        """When every attempt loses its worker, the cell resolves to an
        error record instead of stalling the sweep forever."""

        def always_dies(payload):
            raise RuntimeError("boom")

        backend = DistributedBackend(
            listen=("127.0.0.1", 0), startup_timeout_s=30, max_requeues=1
        )
        first_thread, _ = start_worker(backend.address, executor=always_dies)
        runner = SweepRunner(results_dir=tmp_path, backend=backend)
        result_holder: list = []
        run_thread = threading.Thread(
            target=lambda: result_holder.append(runner.run(SMALL_GRID)), daemon=True
        )
        run_thread.start()
        first_thread.join(timeout=10)
        # Second (and last allowed) attempt also dies.
        second_thread, _ = start_worker(backend.address, executor=always_dies)
        second_thread.join(timeout=10)
        run_thread.join(timeout=15)
        assert result_holder, "sweep did not complete"
        report = result_holder[0]

        assert len(report.failed_cells) == 1
        cell = report.failed_cells[0]
        assert cell.error["type"] == "WorkerLost"
        assert "requeues" in cell.error["message"]
        assert backend.stats.failed == 1
        # The failure is persisted (every cell accounted for on disk) ...
        record = json.loads(cell.path.read_text())
        assert record["error"]["type"] == "WorkerLost" and record["result"] is None
        # ... but never served from cache: a re-run retries the cell.
        retry_backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=30)
        retry_thread, retry_outcomes = start_worker(retry_backend.address)
        retry = SweepRunner(results_dir=tmp_path, backend=retry_backend).run(SMALL_GRID)
        retry_thread.join(timeout=10)
        assert retry.cached == 0 and retry.executed == 1
        assert retry.failed_cells == [] and retry_outcomes[0].completed == 1


class TestFingerprintVerification:
    def test_mismatched_worker_rejected_by_coordinator(self, tmp_path):
        """A worker announcing a different source tree is refused work; the
        sweep completes on the matching worker."""
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=30)
        bad_thread, bad_outcomes = start_worker(backend.address, fingerprint="bogus-tree")
        good_thread, good_outcomes = start_worker(backend.address)
        report = SweepRunner(results_dir=tmp_path, backend=backend).run(SMALL_GRID)
        bad_thread.join(timeout=10)
        good_thread.join(timeout=10)

        assert bad_outcomes[0].status == "fingerprint_mismatch"
        assert bad_outcomes[0].completed == 0
        assert good_outcomes[0].status == "done" and good_outcomes[0].completed == 1
        assert backend.stats.workers_connected == 1
        assert report.failed_cells == []

    def test_worker_lying_about_fingerprint_rejected_server_side(self, tmp_path):
        """Even a worker that skips its own check is refused by the
        coordinator when its announced fingerprint differs."""
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=30)
        good_thread, _ = start_worker(backend.address)
        runner_thread = threading.Thread(
            target=lambda: SweepRunner(results_dir=tmp_path, backend=backend).run(SMALL_GRID),
            daemon=True,
        )
        runner_thread.start()

        sock = socket.create_connection(backend.address, timeout=5)
        sock.settimeout(5)
        channel = MessageChannel(sock)
        hello = channel.recv()
        assert hello["type"] == "hello" and hello["role"] == "coordinator"
        assert hello["fingerprint"]  # the coordinator advertises its tree
        channel.send(
            "hello",
            role="worker",
            protocol=PROTOCOL_VERSION,
            fingerprint="not-the-same-tree",
            worker="liar",
        )
        reply = channel.recv()
        assert reply["type"] == "reject"
        assert "fingerprint" in reply["reason"]
        channel.close()

        runner_thread.join(timeout=15)
        good_thread.join(timeout=10)
        assert backend.stats.workers_rejected == 1


class TestPeerRoles:
    def test_monitor_role_refused(self):
        """Workers are the coordinator's only peers: a ``hello`` with any
        other role gets no ``welcome`` and its connection closes."""
        coordinator = SweepCoordinator(fingerprint="test-tree")
        address = coordinator.bind("127.0.0.1", 0)
        try:
            sock = socket.create_connection(address, timeout=5)
            sock.settimeout(5)
            channel = MessageChannel(sock)
            try:
                assert channel.recv()["type"] == "hello"
                channel.send(
                    "hello", role="monitor", protocol=PROTOCOL_VERSION, fingerprint="test-tree"
                )
                assert channel.recv() is None  # closed, no welcome
            finally:
                channel.close()
            assert coordinator.stats.workers_connected == 0
        finally:
            coordinator.close()


class TestCacheAwareScheduling:
    def test_cached_cells_never_dispatched(self, tmp_path):
        """A fully cached grid produces zero dispatches (no worker needed)."""
        SweepRunner(results_dir=tmp_path, processes=1).run(GRID)
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=5)
        report = SweepRunner(results_dir=tmp_path, backend=backend).run(GRID)
        assert report.cached == 8 and report.executed == 0
        assert backend.stats.dispatched == 0

    def test_only_stale_cells_dispatched(self, tmp_path):
        """Deleting one cell file leaves exactly one cell to distribute."""
        local = SweepRunner(results_dir=tmp_path, processes=1).run(GRID)
        local.cells[0].path.unlink()
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=30)
        worker_thread, outcomes = start_worker(backend.address)
        report = SweepRunner(results_dir=tmp_path, backend=backend).run(GRID)
        worker_thread.join(timeout=10)
        assert report.cached == 7 and report.executed == 1
        assert backend.stats.dispatched == 1
        assert outcomes[0].completed == 1


class TestBackendContract:
    def test_requires_a_destination(self):
        with pytest.raises(TypeError, match="listen"):
            DistributedBackend()

    def test_single_use(self, tmp_path):
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=5)
        worker_thread, _ = start_worker(backend.address)
        SweepRunner(results_dir=tmp_path, backend=backend).run(SMALL_GRID)
        worker_thread.join(timeout=10)
        with pytest.raises(RuntimeError, match="one sweep"):
            list(backend.execute([(0, {})]))

    def test_startup_timeout_without_workers(self, tmp_path):
        backend = DistributedBackend(
            listen=("127.0.0.1", 0), startup_timeout_s=0.3, local_fallback=False
        )
        with pytest.raises(RuntimeError, match="no worker connected"):
            SweepRunner(results_dir=tmp_path, backend=backend).run(SMALL_GRID)

    def test_describe_mentions_address(self):
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=5)
        host, port = backend.address
        assert f"{host}:{port}" in backend.describe()
        backend.coordinator.close()

    def test_fully_cached_sweep_releases_connected_workers(self, tmp_path):
        """With every cell cached nothing is dispatched, yet a worker that
        already connected must be told the sweep is over, not left polling
        a zombie coordinator forever."""
        SweepRunner(results_dir=tmp_path, processes=1).run(SMALL_GRID)
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=5)
        worker_thread, outcomes = start_worker(backend.address)
        time.sleep(0.3)  # let the worker connect and start polling
        report = SweepRunner(results_dir=tmp_path, backend=backend).run(SMALL_GRID)
        worker_thread.join(timeout=10)
        assert not worker_thread.is_alive(), "worker left polling after a cached sweep"
        assert report.cached == 1 and backend.stats.dispatched == 0
        assert outcomes and outcomes[0].ok and outcomes[0].completed == 0

    def test_last_worker_departing_gracefully_trips_timeout(self, tmp_path):
        """A --max-cells worker that leaves with cells still pending must
        not hang the sweep forever: the no-workers window aborts it (and a
        reconnecting worker would have reset the window)."""
        backend = DistributedBackend(
            listen=("127.0.0.1", 0), startup_timeout_s=0.6, local_fallback=False
        )
        worker_thread, outcomes = start_worker(backend.address, max_cells=1)
        grid = SweepGrid(
            experiments=("section1_latency_budget", "section21_jitter_invariance"),
            scenarios=(bernoulli_scenario(0.02),),
            seeds=(0,),
        )
        with pytest.raises(RuntimeError, match="no worker connected"):
            SweepRunner(results_dir=tmp_path, backend=backend).run(grid)
        worker_thread.join(timeout=10)
        assert outcomes[0].status == "done" and outcomes[0].completed == 1
        assert backend.stats.completed == 1
        # The completed cell was streamed to disk before the abort.
        assert len(load_records(tmp_path)) == 1

    def test_backend_closed_when_run_fails_before_execute(self, tmp_path):
        """A sweep that dies before any cell is dispatched (unknown
        experiment during cache resolution) must still shut the
        eagerly-bound coordinator down, releasing port and workers."""
        backend = DistributedBackend(listen=("127.0.0.1", 0), startup_timeout_s=5)
        worker_thread, outcomes = start_worker(backend.address)
        deadline = time.monotonic() + 5.0
        while backend.stats.workers_connected == 0 and time.monotonic() < deadline:
            time.sleep(0.01)
        assert backend.stats.workers_connected == 1
        grid = SweepGrid(
            experiments=("no_such_experiment",),
            scenarios=(bernoulli_scenario(0.02),),
            seeds=(0,),
        )
        with pytest.raises(KeyError, match="no_such_experiment"):
            SweepRunner(results_dir=tmp_path, backend=backend).run(grid)
        worker_thread.join(timeout=10)
        assert not worker_thread.is_alive(), "worker left polling a zombie coordinator"
        assert outcomes and outcomes[0].ok and outcomes[0].completed == 0
        with pytest.raises(OSError):
            socket.create_connection(backend.address, timeout=1)
