"""``DistributedBackend``: plug the dispatcher into ``SweepRunner``.

The backend owns one :class:`~repro.distrib.coordinator.SweepCoordinator`
and adapts it to the :class:`~repro.analysis.sweeps.CellBackend` contract:
``execute(items)`` registers the grid's non-cached cells as tasks, serves
them to workers, and yields ``(position, record)`` pairs back to the runner
as they stream in — the runner persists them through the exact same
``_persist``/results-dir format as a local sweep, so caching and
``repro.analysis.report`` work unchanged.

``DistributedBackend(listen=("0.0.0.0", 7071))`` binds a port and lets
workers dial in (``python -m repro.distrib.worker --connect host:7071``).
The port is bound at construction, so ``backend.address`` is known (and
printable) before the sweep starts — ephemeral ports work for tests.

Graceful degradation: when the worker pool empties for longer than
``startup_timeout_s`` while cells are outstanding, the backend (by default)
drains the coordinator and finishes the remaining cells through a
:class:`~repro.analysis.sweeps.LocalPoolBackend` instead of erroring — a
sweep that *can* complete locally always does.  Disable with
``local_fallback=False`` to get the original hard
:class:`~repro.distrib.coordinator.NoWorkersError`.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Optional, Union

from ..analysis.sweeps import CellBackend, LocalPoolBackend
from .config import DistribTimeouts
from .coordinator import NoWorkersError, SweepCoordinator
from .protocol import parse_address

AddressLike = Union[str, tuple[str, int]]


def _as_address(value: AddressLike) -> tuple[str, int]:
    if isinstance(value, str):
        return parse_address(value)
    host, port = value
    return str(host), int(port)


class DistributedBackend(CellBackend):
    """Execute sweep cells on remote workers behind the dispatcher protocol.

    A backend instance serves exactly one sweep (its coordinator's task
    state is single-use); construct a fresh one per ``SweepRunner.run``.
    Cached cells never reach ``execute`` at all — the runner resolves them
    first — so ``backend.stats.dispatched`` counts genuinely executed cells.

    ``startup_timeout_s`` (default 120) bounds how long the sweep tolerates
    **zero connected workers** with cells outstanding — whether nobody ever
    dialed in or the last worker departed mid-sweep (a reconnecting worker
    resets the window); pass ``None`` to wait indefinitely.  What happens
    when it expires depends on ``local_fallback``: finish the remaining
    cells on the local pool (default) or raise :class:`NoWorkersError`.

    Timing knobs come as one validated
    :class:`~repro.distrib.config.DistribTimeouts`; ``max_requeues`` bounds
    how often a lost worker's cell is re-served (default
    :data:`~repro.distrib.config.DEFAULT_MAX_REQUEUES`).

    ``status_json`` names a JSONL file that receives one
    :data:`~repro.distrib.protocol.STATUS_SCHEMA` fleet snapshot per
    ``status_interval_s`` (plus one terminal frame at close) — the fleet's
    one status stream and its autoscaling hook: a supervisor tails it and
    spawns or retires workers against ``queue_depth``.  Without it the
    coordinator runs no status thread.
    """

    def __init__(
        self,
        listen: AddressLike,
        fingerprint: Optional[str] = None,
        timeouts: Optional[DistribTimeouts] = None,
        max_requeues: Optional[int] = None,
        startup_timeout_s: Optional[float] = 120.0,
        local_fallback: bool = True,
        fallback_processes: Optional[int] = None,
        status_json: Optional[Union[str, Path]] = None,
        status_interval_s: float = 1.0,
    ) -> None:
        self._status_file = None
        if status_json is not None:
            path = Path(status_json)
            path.parent.mkdir(parents=True, exist_ok=True)
            self._status_file = path.open("a", encoding="utf-8")
        self.coordinator = SweepCoordinator(
            fingerprint=fingerprint,
            timeouts=timeouts,
            max_requeues=max_requeues,
            status_interval_s=status_interval_s,
            status_sink=self._write_status if self._status_file is not None else None,
        )
        self.startup_timeout_s = startup_timeout_s
        self.local_fallback = local_fallback
        self.fallback_processes = fallback_processes
        self._used = False
        host, port = _as_address(listen)
        self.address = self.coordinator.bind(host, port)

    def _write_status(self, snapshot: dict) -> None:
        # Line-buffered JSONL with an explicit flush per frame: a tailing
        # supervisor sees each snapshot as soon as it is emitted.
        self._status_file.write(json.dumps(snapshot, sort_keys=True) + "\n")
        self._status_file.flush()

    @property
    def stats(self):
        return self.coordinator.stats

    def close(self) -> None:
        """Shut the coordinator down (idempotent).

        ``SweepRunner.run`` calls this even when the run dies before
        ``execute`` is consumed, so the eagerly-bound port, accept thread
        and any already-connected workers are always released.
        """
        # Coordinator first: close() emits the terminal status frame and
        # joins the emitter thread, so the sink file must still be open.
        self.coordinator.close()
        if self._status_file is not None:
            try:
                self._status_file.close()
            except OSError:
                pass
            self._status_file = None

    def describe(self) -> str:
        parts = [f"serving on {self.address[0]}:{self.address[1]}"]
        if self.local_fallback:
            parts.append("local fallback on")
        return f"distributed ({'; '.join(parts)})"

    def execute(self, items: list[tuple[int, dict]]) -> Iterable[tuple[int, dict]]:
        if self._used:
            raise RuntimeError("DistributedBackend serves exactly one sweep; build a new one")
        self._used = True
        if not items:
            self.coordinator.close()
            return
        self.coordinator.submit([(str(position), payload) for position, payload in items])
        try:
            try:
                for task_id, record in self.coordinator.results(
                    startup_timeout_s=self.startup_timeout_s
                ):
                    yield int(task_id), record
            except NoWorkersError:
                if not self.local_fallback:
                    raise
                yield from self._run_fallback()
        finally:
            self.coordinator.close()

    def _run_fallback(self) -> Iterable[tuple[int, dict]]:
        """Finish the sweep locally after the worker pool emptied.

        :meth:`SweepCoordinator.drain_for_fallback` atomically hands over
        every unresolved cell, so a presumed-dead worker delivering late
        counts as a dropped duplicate instead of double-resolving a cell
        the local pool now owns.
        """
        already, pending = self.coordinator.drain_for_fallback()
        for task_id, record in already:
            yield int(task_id), record
        if not pending:
            return
        local = LocalPoolBackend(processes=self.fallback_processes)
        try:
            for position, record in local.execute(
                [(int(task_id), payload) for task_id, payload in pending]
            ):
                self.stats.fallback_cells += 1
                yield position, record
        finally:
            local.close()
