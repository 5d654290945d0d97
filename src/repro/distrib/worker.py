"""Worker agent: pulls sweep cells from a coordinator and executes them.

Run one per machine (or per core) against a coordinator started by
``examples/sweep_scenarios.py --serve`` or a
:class:`~repro.distrib.backend.DistributedBackend`::

    python -m repro.distrib.worker --connect HOST:PORT

Before accepting any work the worker verifies the coordinator's package
fingerprint against its own source tree: sweep cache keys fold in that
fingerprint, so a worker running different code would poison the results
directory with records computed by a different simulator.  Cells execute
through the existing fault-isolated cell machinery
(:func:`repro.analysis.sweeps.execute_cell_record`), so a raising runner
returns an error record rather than killing the worker; a heartbeat thread
keeps the connection visibly alive during long cells.

Elasticity: sessions can share a :class:`WorkerCellCache`, so a worker that
reconnects after a partition or preemption *re-offers* the records it
already computed instead of redoing the work — the coordinator requeued
those cells when the worker vanished, and the re-offer resolves them at the
cost of one message each (``--reconnect`` wires this up on the CLI; the
chaos harness leans on it heavily).
"""

from __future__ import annotations

import argparse
import os
import socket
import sys
import threading
import time
from dataclasses import dataclass, field
from typing import Callable, Optional

import numpy as np

from ..analysis.sweeps import _package_fingerprint, execute_cell_record
from ..core import wallclock
from .config import DEFAULT_TIMEOUTS, backoff_seed, reconnect_delay_s
from .protocol import PROTOCOL_VERSION, MessageChannel, ProtocolError, parse_address


@dataclass
class WorkerCellCache:
    """Completed cells this worker can re-offer after a reconnect.

    Keyed by the cell's content-hash ``cache_key`` (same key the on-disk
    sweep cache uses), so a cell requeued under a different ``task_id``
    still hits.  Error records are never cached — a retry after a transient
    fault should re-execute, exactly like the on-disk cache refuses to
    load error records.
    """

    records: dict[str, dict] = field(default_factory=dict)
    #: Cells answered from the cache (re-offers) vs. freshly executed.
    hits: int = 0
    stores: int = 0

    def get(self, payload: dict) -> Optional[dict]:
        record = self.records.get(payload.get("cache_key"))
        if record is not None:
            self.hits += 1
        return record

    def put(self, payload: dict, record: dict) -> None:
        if record.get("error") is not None:
            return
        key = payload.get("cache_key")
        if isinstance(key, str):
            self.records[key] = record
            self.stores += 1


@dataclass
class WorkerOutcome:
    """How one worker session ended.

    ``status`` is one of ``done`` (coordinator said the sweep is complete,
    or ``max_cells`` was reached), ``disconnected`` (the coordinator went
    away — normal when it tears down after the sweep), ``rejected``
    (coordinator refused the handshake), ``fingerprint_mismatch`` (the
    worker refused the coordinator's tree), ``crashed`` (the executor
    itself raised — the connection is dropped so the cell is requeued
    elsewhere) or ``connect_failed``.
    """

    status: str
    completed: int = 0
    detail: str = ""

    @property
    def ok(self) -> bool:
        return self.status in ("done", "disconnected")


def _default_worker_name() -> str:
    return f"{socket.gethostname()}:{os.getpid()}"


def _run_session(
    channel: MessageChannel,
    fingerprint: str,
    worker_name: str,
    executor: Callable[[dict], dict],
    heartbeat_interval_s: float,
    max_cells: Optional[int],
    cache: Optional[WorkerCellCache] = None,
) -> WorkerOutcome:
    """Drive one coordinator connection from handshake to completion."""
    hello = channel.recv()
    if (
        hello is None
        or hello.get("type") != "hello"
        or hello.get("role") != "coordinator"
    ):
        return WorkerOutcome("disconnected", detail="no coordinator hello")
    if hello.get("protocol") != PROTOCOL_VERSION:
        channel.send(
            "reject",
            reason=f"protocol version mismatch ({hello.get('protocol')} != {PROTOCOL_VERSION})",
        )
        return WorkerOutcome("rejected", detail="protocol version mismatch")
    if hello.get("fingerprint") != fingerprint:
        channel.send(
            "reject",
            reason="package fingerprint mismatch: this worker runs a different repro tree",
        )
        return WorkerOutcome(
            "fingerprint_mismatch",
            detail="coordinator's repro source tree differs from this worker's",
        )
    channel.send(
        "hello",
        role="worker",
        protocol=PROTOCOL_VERSION,
        fingerprint=fingerprint,
        worker=worker_name,
    )
    reply = channel.recv()
    if reply is None:
        return WorkerOutcome("disconnected", detail="coordinator closed during handshake")
    if reply.get("type") == "reject":
        return WorkerOutcome("rejected", detail=str(reply.get("reason", "")))
    if reply.get("type") != "welcome":
        return WorkerOutcome("disconnected", detail=f"unexpected reply {reply.get('type')!r}")

    stop_heartbeat = threading.Event()

    def _heartbeat() -> None:
        while not stop_heartbeat.wait(heartbeat_interval_s):
            try:
                channel.send("heartbeat")
            except OSError:
                return

    threading.Thread(target=_heartbeat, name="distrib-heartbeat", daemon=True).start()
    completed = 0
    try:
        while True:
            channel.send("next")
            message = channel.recv()
            if message is None:
                return WorkerOutcome("disconnected", completed, "coordinator went away")
            kind = message.get("type")
            if kind == "done":
                return WorkerOutcome("done", completed)
            if kind == "wait":
                time.sleep(float(message.get("seconds", 0.2)))
                continue
            if kind != "task":
                continue  # unknown messages are ignored (forward compatibility)
            payload = message["payload"]
            record = cache.get(payload) if cache is not None else None
            if record is None:
                try:
                    record = executor(payload)
                except Exception as exc:  # reprolint: disable=broad-except
                    # Deliberately broad: the executor is already fault-isolated,
                    # so anything escaping it means this worker cannot report a
                    # record at all — drop the connection and let the coordinator
                    # requeue the cell on a healthy worker.
                    return WorkerOutcome("crashed", completed, f"{type(exc).__name__}: {exc}")
                if cache is not None:
                    cache.put(payload, record)
            channel.send("result", task_id=message["task_id"], record=record)
            completed += 1
            if max_cells is not None and completed >= max_cells:
                channel.send("bye")
                return WorkerOutcome("done", completed, f"max_cells={max_cells} reached")
    except (OSError, ProtocolError, TimeoutError) as exc:
        return WorkerOutcome("disconnected", completed, f"{type(exc).__name__}: {exc}")
    finally:
        stop_heartbeat.set()


def run_worker(
    connect: tuple[str, int],
    fingerprint: Optional[str] = None,
    worker_name: Optional[str] = None,
    executor: Optional[Callable[[dict], dict]] = None,
    heartbeat_interval_s: float = DEFAULT_TIMEOUTS.heartbeat_interval_s,
    connect_timeout_s: float = DEFAULT_TIMEOUTS.connect_timeout_s,
    io_timeout_s: float = DEFAULT_TIMEOUTS.io_timeout_s,
    max_cells: Optional[int] = None,
    cache: Optional[WorkerCellCache] = None,
    channel_factory: Optional[Callable[[socket.socket], MessageChannel]] = None,
) -> WorkerOutcome:
    """Run one worker session (the in-process entry point; the CLI wraps it).

    Dials the coordinator at ``connect``, retrying with the jittered
    exponential backoff of :func:`~repro.distrib.config.reconnect_delay_s`
    until ``connect_timeout_s``.
    ``fingerprint`` and ``executor`` exist for tests; they default to the
    real source-tree fingerprint and the fault-isolated cell executor.

    The timing kwargs default to :data:`~repro.distrib.config.
    DEFAULT_TIMEOUTS` but are accepted individually (not as a validated
    ``DistribTimeouts``) on purpose: tests simulate misbehaving workers —
    e.g. one that heartbeats slower than the coordinator's patience — which
    the validated config would rightly refuse to construct.

    ``cache`` makes sessions elastic: pass the same :class:`WorkerCellCache`
    across reconnects and finished cells are re-offered, not recomputed.
    ``channel_factory`` wraps the connected socket (default
    :class:`MessageChannel`); the chaos harness injects its fault layer here.
    """
    fingerprint = fingerprint if fingerprint is not None else _package_fingerprint()
    worker_name = worker_name or _default_worker_name()
    executor = executor or execute_cell_record

    backoff_rng = np.random.default_rng(backoff_seed(worker_name))
    deadline = wallclock.monotonic() + connect_timeout_s
    attempt = 0
    while True:
        try:
            sock = socket.create_connection(connect, timeout=2.0)
            break
        except OSError as exc:
            if wallclock.monotonic() >= deadline:
                return WorkerOutcome("connect_failed", detail=f"{connect[0]}:{connect[1]}: {exc}")
            time.sleep(reconnect_delay_s(attempt, backoff_rng))
            attempt += 1

    sock.settimeout(io_timeout_s)
    channel = channel_factory(sock) if channel_factory is not None else MessageChannel(sock)
    try:
        return _run_session(
            channel,
            fingerprint,
            worker_name,
            executor,
            heartbeat_interval_s,
            max_cells,
            cache=cache,
        )
    except (OSError, ProtocolError, TimeoutError) as exc:
        # The session loop handles its own I/O errors; this catches the
        # coordinator vanishing *mid-handshake* (e.g. it aborted before the
        # sweep started), which must read as a disconnect, not a crash.
        return WorkerOutcome("disconnected", detail=f"{type(exc).__name__}: {exc}")
    finally:
        channel.close()


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="Sweep worker agent: pulls cells from a coordinator and executes them."
    )
    parser.add_argument(
        "--connect",
        metavar="HOST:PORT",
        required=True,
        help="dial a coordinator (examples/sweep_scenarios.py --serve)",
    )
    parser.add_argument(
        "--max-cells", type=int, default=None, help="disconnect after this many cells"
    )
    parser.add_argument(
        "--connect-timeout",
        type=float,
        default=DEFAULT_TIMEOUTS.connect_timeout_s,
        help="seconds to keep retrying the initial connect",
    )
    parser.add_argument(
        "--io-timeout",
        type=float,
        default=DEFAULT_TIMEOUTS.io_timeout_s,
        help="socket receive timeout for coordinator responses",
    )
    parser.add_argument(
        "--heartbeat",
        type=float,
        default=DEFAULT_TIMEOUTS.heartbeat_interval_s,
        help="heartbeat interval in seconds",
    )
    parser.add_argument("--name", default=None, help="worker name shown to the coordinator")
    parser.add_argument(
        "--reconnect",
        type=int,
        default=0,
        metavar="N",
        help="on disconnect/crash, redial up to N times, "
        "re-offering already-completed cells from the in-memory cache",
    )
    args = parser.parse_args(argv)

    address = parse_address(args.connect)
    cache = WorkerCellCache()
    redials = 0
    while True:
        outcome = run_worker(
            connect=address,
            worker_name=args.name,
            heartbeat_interval_s=args.heartbeat,
            connect_timeout_s=args.connect_timeout,
            io_timeout_s=args.io_timeout,
            max_cells=args.max_cells,
            cache=cache,
        )
        print(
            f"worker {outcome.status}: {outcome.completed} cells"
            + (f" ({outcome.detail})" if outcome.detail else "")
        )
        # Reconnect only on involuntary endings; "done"/"rejected" are
        # final, and connect_failed means the coordinator never existed.
        if outcome.status not in ("disconnected", "crashed") or redials >= args.reconnect:
            return 0 if outcome.ok else 2
        redials += 1
        if cache.hits or cache.stores:
            print(
                f"worker reconnecting ({redials}/{args.reconnect}) with "
                f"{len(cache.records)} cached cell(s) to re-offer"
            )


if __name__ == "__main__":
    sys.exit(main())
