"""The sweep coordinator: serves cells to workers, survives their deaths.

The coordinator owns the authoritative task state of one distributed sweep:
a queue of pending cells, the set of cells in flight (and on which worker),
and a stream of finished records.  Workers are untrusted to stay alive —
any connection that goes silent for longer than the heartbeat timeout, or
drops outright, has its in-flight cells requeued with bounded retries;
cells whose retries are exhausted resolve to an error record so the sweep
always completes with every cell accounted for.

Scheduling is cache-aware by construction: :class:`~repro.analysis.sweeps.
SweepRunner` resolves cached cells before any backend sees the grid, so a
cell reaching this coordinator is guaranteed to need execution — cached
cells are never dispatched, and ``stats.dispatched`` counts real work only.

Every timing knob comes from one validated
:class:`~repro.distrib.config.DistribTimeouts` (see
:mod:`repro.distrib.config`) instead of scattered module constants.

Workers always dial in: the coordinator accepts them on a listening socket
(:meth:`bind`; workers run ``python -m repro.distrib.worker --connect``),
and each accepted connection runs one per-connection session.
"""

from __future__ import annotations

import queue
import socket
import threading
from collections import deque
from dataclasses import dataclass, field
from typing import Callable, Iterator, Optional, Sequence

from ..analysis.sweeps import _package_fingerprint, error_record
from ..core import wallclock
from ..core.spec import ConfigError
from ..obs import WORKER_COUNTER_FIELDS
from .config import DEFAULT_MAX_REQUEUES, DEFAULT_TIMEOUTS, DistribTimeouts
from .protocol import PROTOCOL_VERSION, STATUS_SCHEMA, MessageChannel, ProtocolError


class NoWorkersError(RuntimeError):
    """The worker pool stayed empty past the startup window with cells
    outstanding.  :class:`~repro.distrib.backend.DistributedBackend`
    catches this to degrade gracefully onto the local pool."""


@dataclass
class WorkerStats:
    """Per-worker operational counters (keyed by worker name, so a
    reconnecting worker's sessions accumulate into one row).

    The field set *is* the fleet metric vocabulary
    (:data:`repro.obs.metrics.WORKER_COUNTER_FIELDS`): the live status
    snapshot and the post-hoc hotspot tables in ``repro.analysis.report``
    both serialize these counters through :meth:`to_jsonable`, so there is
    exactly one bookkeeping site and one naming scheme.
    """

    sessions: int = 0
    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    lost: int = 0
    requeued_cells: int = 0

    def to_jsonable(self) -> dict:
        return {name: getattr(self, name) for name in WORKER_COUNTER_FIELDS}


# The dataclass and the shared vocabulary must never drift apart: a field
# added to one without the other fails at import time, not in a report.
assert tuple(WorkerStats.__dataclass_fields__) == WORKER_COUNTER_FIELDS


@dataclass
class CoordinatorStats:
    """Counters exposed for tests, logs and the CLI summary."""

    dispatched: int = 0
    completed: int = 0
    failed: int = 0
    requeued: int = 0
    workers_connected: int = 0
    workers_rejected: int = 0
    workers_lost: int = 0
    #: Late results from presumed-dead workers, dropped on arrival — each
    #: one is a cell that still resolved exactly once.
    duplicates_dropped: int = 0
    #: Cells executed by the local-pool fallback after the worker pool
    #: emptied (filled in by the backend, not the coordinator).
    fallback_cells: int = 0
    #: Fault-class counters: error-record ``type`` -> count.  Keys are the
    #: same strings report.py's ``error_type`` hotspot axis ranks, so the
    #: live stream and the post-hoc report share one fault vocabulary.
    fault_classes: dict[str, int] = field(default_factory=dict)
    #: Per-worker breakdown for the fleet hotspot report.
    per_worker: dict[str, WorkerStats] = field(default_factory=dict)

    def worker(self, name: str) -> WorkerStats:
        return self.per_worker.setdefault(name, WorkerStats())


@dataclass
class _Connection:
    """Per-connection mutable state shared with the coordinator."""

    channel: MessageChannel
    name: str
    inflight: set[str] = field(default_factory=set)


class SweepCoordinator:
    """Serves sweep cells over the dispatcher protocol.

    Lifecycle: construct, :meth:`bind`, :meth:`submit` the cells, iterate
    :meth:`results` until every cell has resolved, then :meth:`close`.
    A coordinator serves exactly one sweep.
    """

    def __init__(
        self,
        fingerprint: Optional[str] = None,
        timeouts: Optional[DistribTimeouts] = None,
        max_requeues: Optional[int] = None,
        status_interval_s: float = 1.0,
        status_sink: Optional[Callable[[dict], None]] = None,
    ) -> None:
        self.fingerprint = fingerprint if fingerprint is not None else _package_fingerprint()
        self.timeouts = timeouts if timeouts is not None else DEFAULT_TIMEOUTS
        self.max_requeues = DEFAULT_MAX_REQUEUES if max_requeues is None else max_requeues
        if not (isinstance(self.max_requeues, int) and self.max_requeues >= 0):
            raise ConfigError(f"max_requeues must be an int >= 0, got {self.max_requeues!r}")
        if status_interval_s <= 0:
            raise ValueError(f"status_interval_s must be positive, got {status_interval_s!r}")
        self.status_interval_s = status_interval_s
        self.status_sink = status_sink
        self.stats = CoordinatorStats()
        self.address: Optional[tuple[str, int]] = None

        self._lock = threading.Lock()
        self._tasks: dict[str, dict] = {}
        self._pending: deque[str] = deque()
        self._unresolved: set[str] = set()
        self._requeues: dict[str, int] = {}
        self._out: "queue.Queue[tuple[str, dict]]" = queue.Queue()
        self._submitted = False
        self._closed = False
        self._server: Optional[socket.socket] = None
        self._threads: list[threading.Thread] = []
        self._connections: list[_Connection] = []
        self._live_workers = 0
        # Instant the live-worker count last hit zero; drives the
        # no-workers timeout in :meth:`results`.
        self._workers_gone_since = wallclock.monotonic()
        # Status stream state: the emitter thread's stop latch and a
        # monotonic frame sequence number.
        self._stop_status = threading.Event()
        self._status_seq = 0
        self._started_monotonic: Optional[float] = None

    @property
    def submitted(self) -> bool:
        """Whether the sweep's cells have been registered (chaos harnesses
        gate worker launch on this to fault the *sweep*, not the idle
        pre-submit polling)."""
        with self._lock:
            return self._submitted

    @property
    def heartbeat_timeout_s(self) -> float:
        return self.timeouts.heartbeat_timeout_s

    # -- wiring ------------------------------------------------------------

    def bind(self, host: str = "127.0.0.1", port: int = 0) -> tuple[str, int]:
        """Listen for workers on ``(host, port)``; returns the bound address.

        Port 0 picks an ephemeral port (tests); the accept loop, and the
        status stream when a ``status_sink`` is given, run on daemon
        threads until :meth:`close`.
        """
        if self._server is not None:
            raise RuntimeError("coordinator is already listening")
        server = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        server.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        server.bind((host, port))
        server.listen()
        server.settimeout(0.2)
        self._server = server
        self.address = server.getsockname()[:2]
        self._spawn(self._accept_loop, name="distrib-accept")
        if self.status_sink is not None:
            self._spawn(self._status_loop, name="distrib-status")
        return self.address

    def _spawn(self, target, *args, name: str) -> None:
        thread = threading.Thread(target=target, args=args, name=name, daemon=True)
        self._threads.append(thread)
        thread.start()

    def _accept_loop(self) -> None:
        while not self._closed:
            try:
                conn, addr = self._server.accept()
            except socket.timeout:
                continue
            except OSError:
                return  # closed
            # The liveness timeout goes on before the connection is handed
            # anywhere: no window in which a silent peer can block a read
            # forever (machine-checked by reprolint's socket-timeout rule).
            conn.settimeout(self.timeouts.heartbeat_timeout_s)
            self._spawn(self._serve_connection, conn, addr, name=f"distrib-conn-{addr}")

    # -- task state --------------------------------------------------------

    def submit(self, tasks: Sequence[tuple[str, dict]]) -> None:
        """Register the sweep's cells as ``(task_id, payload)`` pairs."""
        with self._lock:
            if self._submitted:
                raise RuntimeError("a coordinator serves exactly one sweep")
            self._submitted = True
            self._started_monotonic = wallclock.monotonic()
            for task_id, payload in tasks:
                self._tasks[task_id] = payload
                self._pending.append(task_id)
                self._unresolved.add(task_id)

    def _next_action(self, connection: _Connection) -> tuple[str, Optional[str], Optional[dict]]:
        with self._lock:
            if not self._submitted:
                if self._closed:
                    # Shut down without a sweep (e.g. a fully cached grid):
                    # release polling workers cleanly.
                    return "done", None, None
                # Workers may connect before the sweep registers its cells
                # (the backend binds its port eagerly); hold them instead of
                # telling them the sweep is over before it began.
                return "wait", None, None
            if self._pending:
                task_id = self._pending.popleft()
                connection.inflight.add(task_id)
                self.stats.dispatched += 1
                self.stats.worker(connection.name).dispatched += 1
                return "task", task_id, self._tasks[task_id]
            if self._unresolved:
                return "wait", None, None
            return "done", None, None

    def _resolve(self, task_id: str, record: dict, connection: Optional[_Connection]) -> None:
        with self._lock:
            if connection is not None:
                connection.inflight.discard(task_id)
            if task_id not in self._unresolved:
                # Duplicate: a presumed-dead worker finished after requeue
                # (or after the fallback took the cell over).
                self.stats.duplicates_dropped += 1
                return
            self._unresolved.discard(task_id)
            self.stats.completed += 1
            if connection is not None:
                self.stats.worker(connection.name).completed += 1
            error = record.get("error")
            if error is not None:
                self.stats.failed += 1
                if connection is not None:
                    self.stats.worker(connection.name).failed += 1
                # Same key report.py's ``error_type`` hotspot axis ranks.
                fault = str(error.get("type") or "Unknown") if isinstance(error, dict) else "Unknown"
                self.stats.fault_classes[fault] = self.stats.fault_classes.get(fault, 0) + 1
        self._out.put((task_id, record))

    def _requeue_inflight(self, connection: _Connection, reason: str, penalize: bool = True) -> None:
        """Put a lost worker's cells back in the queue (bounded retries)."""
        exhausted: list[tuple[str, dict]] = []
        with self._lock:
            for task_id in sorted(connection.inflight):
                if task_id not in self._unresolved:
                    continue
                attempts = self._requeues.get(task_id, 0) + (1 if penalize else 0)
                self._requeues[task_id] = attempts
                if attempts > self.max_requeues:
                    exhausted.append((task_id, self._tasks[task_id]))
                else:
                    # Front of the queue: a requeued cell was already paid
                    # for once, so it should not also wait behind the tail.
                    self._pending.appendleft(task_id)
                    self.stats.requeued += 1
                    self.stats.worker(connection.name).requeued_cells += 1
            connection.inflight.clear()
        for task_id, payload in exhausted:
            self._resolve(
                task_id,
                error_record(
                    payload,
                    {
                        "type": "WorkerLost",
                        "message": (
                            f"worker {connection.name} lost ({reason}); "
                            f"giving up after {self.max_requeues} requeues"
                        ),
                        "traceback": "",
                        # Attribution for the failure-hotspot report: which
                        # worker took the cell down with it.
                        "worker": connection.name,
                    },
                ),
                connection=None,
            )

    def _mark_lost(self, connection: _Connection) -> None:
        with self._lock:
            self.stats.workers_lost += 1
            self.stats.worker(connection.name).lost += 1

    # -- status stream -----------------------------------------------------

    def status_snapshot(self) -> dict:
        """One machine-readable fleet snapshot.

        The same dict is written (one JSON object per line) by the
        backend's ``--status-json`` sink and is available here for tests
        and supervisors.  Shape is versioned by
        :data:`~repro.distrib.protocol.STATUS_SCHEMA`; fields are documented
        in docs/OBSERVABILITY.md.
        """
        with self._lock:
            self._status_seq += 1
            # A reconnected worker's live connections share one row, keyed
            # by name exactly as in :class:`WorkerStats`.
            inflight: dict[str, int] = {}
            for connection in self._connections:
                if connection.inflight:
                    inflight[connection.name] = inflight.get(connection.name, 0) + len(
                        connection.inflight
                    )
            workers = {
                name: {**stats.to_jsonable(), "inflight": inflight.get(name, 0)}
                for name, stats in sorted(self.stats.per_worker.items())
            }
            elapsed = (
                wallclock.monotonic() - self._started_monotonic
                if self._started_monotonic is not None
                else 0.0
            )
            return {
                "schema": STATUS_SCHEMA,
                "seq": self._status_seq,
                "elapsed_s": elapsed,
                "total": len(self._tasks),
                "queue_depth": len(self._pending),
                "inflight": sum(inflight.values()),
                "unresolved": len(self._unresolved),
                "dispatched": self.stats.dispatched,
                "completed": self.stats.completed,
                "failed": self.stats.failed,
                "requeued": self.stats.requeued,
                "duplicates_dropped": self.stats.duplicates_dropped,
                "workers_live": self._live_workers,
                "workers": workers,
                "fault_classes": dict(sorted(self.stats.fault_classes.items())),
                "done": self._submitted and not self._unresolved,
            }

    def _status_loop(self) -> None:
        while not self._stop_status.wait(self.status_interval_s):
            self._emit_status()

    def _emit_status(self) -> None:
        try:
            self.status_sink(self.status_snapshot())
        except OSError:
            # A full disk or broken pipe on the sink must not take the
            # sweep down; the next frame will try again.
            pass

    # -- per-connection session --------------------------------------------

    def _serve_connection(self, sock: socket.socket, addr) -> None:
        channel = MessageChannel(sock)
        connection = _Connection(channel=channel, name=f"{addr[0]}:{addr[1]}")
        registered = False
        try:
            channel.send(
                "hello",
                role="coordinator",
                protocol=PROTOCOL_VERSION,
                fingerprint=self.fingerprint,
            )
            if not self._handshake(channel, connection):
                return
            with self._lock:
                self.stats.workers_connected += 1
                self.stats.worker(connection.name).sessions += 1
                self._live_workers += 1
                registered = True
                self._connections.append(connection)
            self._session_loop(channel, connection)
        except (OSError, ProtocolError, TimeoutError) as exc:
            if connection.inflight:
                self._mark_lost(connection)
                self._requeue_inflight(connection, f"{type(exc).__name__}: {exc}")
        finally:
            if registered:
                with self._lock:
                    self._live_workers -= 1
                    if self._live_workers == 0:
                        self._workers_gone_since = wallclock.monotonic()
            channel.close()

    def _handshake(self, channel: MessageChannel, connection: _Connection) -> bool:
        """Run the accept side of the handshake; True once a worker is
        welcomed.  Any other peer role is refused without a reply."""
        message = channel.recv()
        if message is None or message.get("type") != "hello" or message.get("role") != "worker":
            return False
        if message.get("worker"):
            connection.name = str(message["worker"])
        reason = None
        if message.get("protocol") != PROTOCOL_VERSION:
            reason = (
                f"protocol version mismatch: coordinator speaks {PROTOCOL_VERSION}, "
                f"peer speaks {message.get('protocol')}"
            )
        elif message.get("fingerprint") != self.fingerprint:
            # The cell cache key folds in this fingerprint; a worker running
            # a different source tree would compute *different* results for
            # the same cache key, silently corrupting the results directory.
            reason = (
                "package fingerprint mismatch: the worker's repro source tree "
                "differs from the coordinator's — update the worker's checkout"
            )
        if reason is not None:
            with self._lock:
                self.stats.workers_rejected += 1
            channel.send("reject", reason=reason)
            return False
        channel.send("welcome")
        return True

    def _session_loop(self, channel: MessageChannel, connection: _Connection) -> None:
        while True:
            try:
                message = channel.recv()
            except (TimeoutError, socket.timeout):
                self._mark_lost(connection)
                self._requeue_inflight(
                    connection,
                    f"silent for {self.timeouts.heartbeat_timeout_s:g}s (presumed dead)",
                )
                return
            if message is None:  # EOF
                if connection.inflight:
                    self._mark_lost(connection)
                    self._requeue_inflight(connection, "connection closed")
                return
            kind = message.get("type")
            if kind == "heartbeat":
                continue
            if kind == "bye":
                # Graceful departure; anything still in flight (unexpected)
                # goes back to the queue without burning a retry.
                self._requeue_inflight(connection, "worker said bye", penalize=False)
                return
            if kind == "next":
                action, task_id, payload = self._next_action(connection)
                if action == "task":
                    channel.send("task", task_id=task_id, payload=payload)
                elif action == "wait":
                    channel.send("wait", seconds=self.timeouts.wait_poll_s)
                else:
                    channel.send("done")
                    return
            elif kind == "result":
                record = message.get("record")
                task_id = message.get("task_id")
                if isinstance(task_id, str) and isinstance(record, dict):
                    self._resolve(task_id, record, connection)
                else:
                    raise ProtocolError("malformed result message")
            # Unknown message types are ignored (forward compatibility).

    # -- consuming results -------------------------------------------------

    def results(self, startup_timeout_s: Optional[float] = None) -> Iterator[tuple[str, dict]]:
        """Yield ``(task_id, record)`` as cells resolve, until all have.

        ``startup_timeout_s`` bounds how long the sweep tolerates having
        **zero connected workers** while cells are outstanding — both at
        startup (nobody ever dialed in) and mid-sweep (the last worker
        departed, e.g. gracefully via ``--max-cells``, leaving pending cells
        that only a worker could resolve).  When the window expires a
        :class:`NoWorkersError` is raised instead of waiting forever (the
        backend catches it to fall back to local execution); a worker
        (re)connecting resets it.  While at least one worker is connected
        the sweep waits indefinitely: every dispatched cell retains a path
        to resolution through requeue-or-error.
        """
        with self._lock:
            total = len(self._tasks)
            if self._live_workers == 0:
                # Start the no-workers clock at sweep start, not at bind
                # time (the backend binds eagerly, possibly much earlier).
                self._workers_gone_since = wallclock.monotonic()
        yielded = 0
        while yielded < total:
            try:
                item = self._out.get(timeout=0.1)
            except queue.Empty:
                if self._closed:
                    raise RuntimeError("coordinator closed with cells outstanding")
                if startup_timeout_s is not None:
                    with self._lock:
                        live = self._live_workers
                        gone_for = wallclock.monotonic() - self._workers_gone_since
                    if live == 0 and gone_for > startup_timeout_s:
                        raise NoWorkersError(
                            f"no worker connected for {startup_timeout_s:g}s with "
                            f"{total - yielded} cell(s) outstanding "
                            f"(serving on {self.address})"
                        )
                continue
            yielded += 1
            yield item

    def drain_for_fallback(self) -> tuple[list[tuple[str, dict]], list[tuple[str, dict]]]:
        """Atomically take over every unresolved cell for local execution.

        Returns ``(already_resolved, pending)``: records that resolved but
        were not yet consumed from the output queue, and ``(task_id,
        payload)`` pairs for every still-unresolved cell.  The unresolved
        set empties in the same locked section, so a presumed-dead worker
        delivering late is counted as a dropped duplicate rather than
        double-resolving a cell the fallback now owns — the exactly-once
        invariant survives the takeover.
        """
        with self._lock:
            already: list[tuple[str, dict]] = []
            while True:
                try:
                    already.append(self._out.get_nowait())
                except queue.Empty:
                    break
            pending = [
                (task_id, self._tasks[task_id])
                for task_id in self._tasks
                if task_id in self._unresolved
            ]
            self._unresolved.clear()
            self._pending.clear()
            for connection in self._connections:
                connection.inflight.clear()
        return already, pending

    def close(self) -> None:
        """Shut the coordinator down.

        Waits up to ``timeouts.linger_s`` for connection threads to finish
        serving ``done`` to idle workers (they poll within ``wait_poll_s``),
        then force-closes whatever remains.
        """
        if self._closed:
            return
        # One terminal frame (``done`` true on a completed sweep, final
        # counters either way) so the sink sees how it ended before the
        # stream stops.
        if self._server is not None and self.status_sink is not None:
            self._emit_status()
        self._stop_status.set()
        self._closed = True
        if self._server is not None:
            try:
                self._server.close()
            except OSError:
                pass
        deadline = wallclock.monotonic() + self.timeouts.linger_s
        for thread in self._threads:
            remaining = deadline - wallclock.monotonic()
            if remaining > 0 and thread is not threading.current_thread():
                thread.join(timeout=remaining)
        with self._lock:
            connections = list(self._connections)
        for connection in connections:
            connection.channel.close()
