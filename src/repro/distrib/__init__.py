"""Distributed sweep dispatcher: multi-machine cell execution.

The sweep engine (:mod:`repro.analysis.sweeps`) already has everything a
distributed executor needs — deterministic per-cell seeds, content-hash
cache keys, and JSON-record streaming.  This package adds the missing
transport: a coordinator that serves sweep cells over a length-prefixed
JSON socket protocol (:mod:`repro.distrib.protocol`), worker agents that
pull cells, execute them through the existing cell machinery and stream
records back (:mod:`repro.distrib.worker`), and a
:class:`~repro.distrib.backend.DistributedBackend` that plugs the pair
into :class:`~repro.analysis.sweeps.SweepRunner` as a drop-in
:class:`~repro.analysis.sweeps.CellBackend`.

Workers always dial the coordinator, and they are its only protocol
peers; fleet status leaves through the backend's ``status_json`` sink
(``sweep_scenarios.py --status-json``).  Start a worker per machine or
core with::

    python -m repro.distrib.worker --connect HOST:PORT

and sweep through them with ``examples/sweep_scenarios.py --serve`` or
programmatically via
``SweepRunner(..., backend=DistributedBackend(listen=...)).run(grid)``.
"""

from .backend import DistributedBackend
from .config import DEFAULT_TIMEOUTS, ConfigError, DistribTimeouts
from .coordinator import CoordinatorStats, NoWorkersError, SweepCoordinator, WorkerStats
from .protocol import (
    PROTOCOL_VERSION,
    FrameTooLargeError,
    MessageChannel,
    ProtocolError,
    recv_message,
    send_message,
)


def __getattr__(name: str):
    # Lazy so that ``python -m repro.distrib.worker`` (or ``.chaos``) does
    # not import those modules twice (once via this package, once as
    # ``__main__``), which would trip runpy's double-import warning.
    if name in ("WorkerCellCache", "WorkerOutcome", "run_worker"):
        from . import worker

        return getattr(worker, name)
    if name in ("ChaosChannel", "FaultPlan", "sample_plans"):
        from . import chaos

        return getattr(chaos, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "DEFAULT_TIMEOUTS",
    "PROTOCOL_VERSION",
    "ChaosChannel",
    "ConfigError",
    "CoordinatorStats",
    "DistribTimeouts",
    "DistributedBackend",
    "FaultPlan",
    "FrameTooLargeError",
    "MessageChannel",
    "NoWorkersError",
    "ProtocolError",
    "SweepCoordinator",
    "WorkerCellCache",
    "WorkerOutcome",
    "WorkerStats",
    "run_worker",
    "sample_plans",
    "send_message",
    "recv_message",
]
