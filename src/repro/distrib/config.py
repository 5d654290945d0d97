"""The dispatcher's validated timing configuration and its retry constants.

Before this module the dispatcher's timing constants were scattered as
``DEFAULT_*_S`` module globals across ``coordinator.py`` and ``worker.py``,
with nothing enforcing the relationships between them — most critically
that a worker's heartbeat interval stays well below the coordinator's
liveness timeout (a worker heartbeating *slower* than the coordinator's
patience is indistinguishable from a dead one and gets its cells requeued
forever).  :class:`DistribTimeouts` gathers every knob in one validated,
JSON-able dataclass.  The requeue bound and the worker's reconnect backoff
are constants: :func:`reconnect_delay_s` is jittered exponential, drawn
from a seeded ``np.random.Generator`` so backoff schedules replay
bit-identically — the same discipline every other random draw in this repo
follows.

:class:`DistribTimeouts` is a plain JSON spec like every other
configuration here: build one with ``from_spec(DistribTimeouts, spec)`` and
write it back with ``to_spec(timeouts)`` (:mod:`repro.core.spec`), so a
fault plan or CLI invocation can carry the full timing configuration as
data.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Optional

import numpy as np

from ..core.spec import ConfigError


@dataclass(frozen=True)
class DistribTimeouts:
    """Every dispatcher timing knob, validated as a set.

    ``heartbeat_interval_s`` (worker side) and ``heartbeat_timeout_s``
    (coordinator side) live in one dataclass precisely so the invariant
    between them is checkable: a deployment configures both from the same
    object and cannot ship a worker that heartbeats slower than the
    coordinator's patience.
    """

    #: Coordinator: delay an idle worker is told to ``wait`` before polling.
    wait_poll_s: float = 0.2
    #: Worker: how often the heartbeat thread proves liveness.
    heartbeat_interval_s: float = 2.0
    #: Coordinator: silence threshold after which a worker is presumed dead.
    heartbeat_timeout_s: float = 10.0
    #: Worker: how long the initial connect keeps retrying.
    connect_timeout_s: float = 30.0
    #: Worker: socket receive timeout for coordinator responses.
    io_timeout_s: float = 120.0
    #: Coordinator: grace period for serving ``done`` to idle workers on close.
    linger_s: float = 1.0

    #: Safety margin required between heartbeat interval and timeout: the
    #: interval must leave room for at least two missed beats plus delivery
    #: jitter before the coordinator gives up on a healthy worker.
    MIN_HEARTBEAT_RATIO = 2.0

    def __post_init__(self) -> None:
        for name in (
            "wait_poll_s",
            "heartbeat_interval_s",
            "heartbeat_timeout_s",
            "connect_timeout_s",
            "io_timeout_s",
        ):
            value = getattr(self, name)
            if not (isinstance(value, (int, float)) and value > 0):
                raise ConfigError(f"{name} must be a positive number, got {value!r}")
        if self.linger_s < 0:
            raise ConfigError(f"linger_s must be >= 0, got {self.linger_s!r}")
        if self.heartbeat_interval_s * self.MIN_HEARTBEAT_RATIO > self.heartbeat_timeout_s:
            raise ConfigError(
                f"heartbeat interval {self.heartbeat_interval_s:g}s is too close to "
                f"the coordinator liveness timeout {self.heartbeat_timeout_s:g}s: a "
                "healthy worker would be presumed dead on one delayed beat — keep "
                f"interval <= timeout/{self.MIN_HEARTBEAT_RATIO:g}"
            )
        if self.wait_poll_s >= self.heartbeat_timeout_s:
            raise ConfigError(
                f"wait poll {self.wait_poll_s:g}s must stay below the liveness "
                f"timeout {self.heartbeat_timeout_s:g}s or idle workers read as dead"
            )

    def override(self, **fields: Optional[float]) -> "DistribTimeouts":
        """Copy with the non-``None`` fields replaced (re-validated)."""
        updates = {key: value for key, value in fields.items() if value is not None}
        return replace(self, **updates) if updates else self


#: How many times the coordinator re-serves a cell whose worker died before
#: the cell resolves to an error record.
DEFAULT_MAX_REQUEUES = 2
#: A worker's reconnect backoff: jittered exponential, capped.
BACKOFF_BASE_S = 0.2
BACKOFF_FACTOR = 2.0
BACKOFF_MAX_S = 5.0
#: Fractional jitter: each delay is scaled by a uniform draw from
#: ``[1 - jitter, 1 + jitter]`` to decorrelate reconnect stampedes.
BACKOFF_JITTER = 0.5


def reconnect_delay_s(attempt: int, rng: np.random.Generator) -> float:
    """Backoff before reconnect ``attempt`` (0-based), jittered by ``rng``.

    Drawn from the caller's seeded generator so a replayed chaos run
    schedules the same backoffs.
    """
    base = min(BACKOFF_MAX_S, BACKOFF_BASE_S * BACKOFF_FACTOR**attempt)
    return base * (1.0 + BACKOFF_JITTER * (2.0 * rng.random() - 1.0))


#: The one place the dispatcher's default timing lives.
DEFAULT_TIMEOUTS = DistribTimeouts()


def backoff_seed(worker_name: str) -> int:
    """Deterministic backoff-RNG seed derived from the worker's name.

    Different workers get decorrelated jitter; the same worker replays the
    same backoff schedule (the point of seeding it at all).
    """
    return int.from_bytes(hashlib.sha256(worker_name.encode("utf-8")).digest()[:4], "big")
