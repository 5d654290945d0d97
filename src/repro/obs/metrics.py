"""Deterministic metric primitives: counters and fixed-bucket histograms.

Everything in this module is pure bookkeeping — no wall-clock reads, no RNG
draws, no I/O — so instrumenting simulation code with a
:class:`MetricRegistry` cannot perturb determinism: two seeded runs that
execute the same events produce byte-identical serialized streams, and the
scalar and batched delivery paths (which are bit-identical in their
observable stats) emit bit-identical telemetry.  That property is gated by
the fast-vs-reference equivalence gate next to the stats checks.

A *disabled* registry (``MetricRegistry(enabled=False)``, or the shared
:data:`NULL_REGISTRY`) hands out shared no-op instruments, so an
instrumented hot path costs one attribute load and a no-op call when
telemetry is off — cheap enough to live inside ``net/`` without moving the
untraced ``uplink_*`` timings of the end-to-end benchmark.

This module is also the home of the **fleet metric vocabulary**: the
canonical names shared by the coordinator's status snapshot, the
per-worker counters in ``repro.distrib.coordinator.WorkerStats``, and the
post-hoc failure-hotspot tables in ``repro.analysis.report`` — one
vocabulary, bookkept once (see docs/OBSERVABILITY.md).
"""

from __future__ import annotations

import json
from bisect import bisect_left
from typing import Mapping, Optional, Sequence, Union


class MetricError(ValueError):
    """A metric was registered or used inconsistently."""


class Counter:
    """A monotonically non-decreasing event count."""

    __slots__ = ("name", "value")

    kind = "counter"

    def __init__(self, name: str) -> None:
        self.name = name
        self.value = 0

    def inc(self, amount: int = 1) -> None:
        if amount < 0:
            raise MetricError(f"counter {self.name!r} cannot decrease (inc {amount})")
        self.value += amount

    def to_jsonable(self) -> dict:
        return {"kind": self.kind, "name": self.name, "value": self.value}


class Histogram:
    """Fixed-bucket histogram: bucket bounds are part of the metric identity.

    ``bounds`` are inclusive upper edges; observations above the last edge
    land in the overflow bucket, so ``len(counts) == len(bounds) + 1``.
    Fixed buckets (rather than adaptive ones) keep the serialized stream a
    pure function of the observation sequence.
    """

    __slots__ = ("name", "bounds", "counts", "count", "total")

    kind = "histogram"

    def __init__(self, name: str, bounds: Sequence[float]) -> None:
        edges = tuple(float(edge) for edge in bounds)
        if not edges:
            raise MetricError(f"histogram {name!r} needs at least one bucket bound")
        if any(b >= a for b, a in zip(edges, edges[1:])):
            raise MetricError(f"histogram {name!r} bounds must strictly increase: {edges}")
        self.name = name
        self.bounds = edges
        self.counts = [0] * (len(edges) + 1)
        self.count = 0
        self.total = 0.0

    def observe(self, value: float) -> None:
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value

    def to_jsonable(self) -> dict:
        return {
            "kind": self.kind,
            "name": self.name,
            "bounds": list(self.bounds),
            "counts": list(self.counts),
            "count": self.count,
            "total": self.total,
        }


class _NullInstrument:
    """Shared no-op counter/histogram handed out by a disabled registry."""

    __slots__ = ()

    def inc(self, amount: int = 1) -> None:
        pass

    def observe(self, value: float) -> None:
        pass


_NULL_INSTRUMENT = _NullInstrument()

#: Instruments a registry may hand out (the null variant quacks like both).
Instrument = Union[Counter, Histogram, _NullInstrument]


class MetricRegistry:
    """Named metrics with stable, deterministic serialization.

    Re-requesting a name returns the existing instrument; requesting it as a
    different kind (or a histogram with different bounds) raises, so a
    metric name means one thing across the whole process.
    """

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._metrics: dict[str, Union[Counter, Histogram]] = {}

    def _get(self, name: str, kind: str) -> Optional[Union[Counter, Histogram]]:
        existing = self._metrics.get(name)
        if existing is not None and existing.kind != kind:
            raise MetricError(
                f"metric {name!r} already registered as {existing.kind}, not {kind}"
            )
        return existing

    def counter(self, name: str) -> Instrument:
        if not self.enabled:
            return _NULL_INSTRUMENT
        found = self._get(name, "counter")
        if found is None:
            found = self._metrics[name] = Counter(name)
        return found

    def histogram(self, name: str, bounds: Sequence[float]) -> Instrument:
        if not self.enabled:
            return _NULL_INSTRUMENT
        found = self._get(name, "histogram")
        if found is None:
            found = self._metrics[name] = Histogram(name, bounds)
        elif found.bounds != tuple(float(edge) for edge in bounds):
            raise MetricError(
                f"histogram {name!r} re-registered with different bounds: "
                f"{found.bounds} vs {tuple(bounds)}"
            )
        return found

    def snapshot(self) -> dict[str, dict]:
        """Name-sorted ``{name: to_jsonable()}`` view of every metric."""
        return {name: self._metrics[name].to_jsonable() for name in sorted(self._metrics)}

    def to_jsonl(self) -> str:
        """One key-sorted JSON object per metric, name-sorted — the stable
        stream format the determinism and equivalence gates compare."""
        return "\n".join(
            json.dumps(record, sort_keys=True) for record in self.snapshot().values()
        )


#: The shared disabled registry: instrumented code defaults to this so
#: telemetry is strictly opt-in and costs a no-op call when off.
NULL_REGISTRY = MetricRegistry(enabled=False)


# --------------------------------------------------------------------------
# Fleet metric vocabulary
#
# One naming scheme for fleet counters, defined here and imported by the
# coordinator (live bookkeeping + the ``--status-json`` snapshot) and
# report.py's post-hoc hotspot tables — so the live stream and the
# post-hoc report can never disagree about what a counter is called.
# --------------------------------------------------------------------------

#: Per-worker fleet counter fields, in canonical render order.  This is the
#: field list of ``repro.distrib.coordinator.WorkerStats``; its
#: ``to_jsonable`` and the status snapshot's per-worker blocks are both
#: generated from this tuple.
WORKER_COUNTER_FIELDS = (
    "sessions",
    "dispatched",
    "completed",
    "failed",
    "lost",
    "requeued_cells",
)

#: Axes along which fleet faults are classified and ranked: ``(record key,
#: human label)`` pairs shared by the status snapshot's fault-class block
#: and ``repro.analysis.report``'s failure-hotspot tables.
FAULT_AXES = (
    ("error_type", "fault class"),
    ("cell", "experiment / scenario"),
    ("worker", "worker"),
)


def worker_metric(field: str) -> str:
    """Canonical metric name for a per-worker counter field."""
    if field not in WORKER_COUNTER_FIELDS and field != "inflight":
        raise MetricError(f"unknown worker counter field {field!r}")
    return f"fleet.worker.{field}"


#: Metric vocabulary: canonical name -> one-line meaning.  Instrumentation
#: and docs/OBSERVABILITY.md both draw from this table; tests assert that
#: emitted names stay inside it.
METRIC_VOCAB: Mapping[str, str] = {
    # net layer — per-session, sim-time, identical across delivery modes
    "net.session.frames_sent": "video frames handed to the sender",
    "net.session.frames_delivered": "frames fully delivered to the receiver",
    "net.session.packets_sent": "data packets sent (excl. retransmissions)",
    "net.session.bytes_sent": "payload bytes sent (excl. retransmissions)",
    "net.session.packets_dropped": "packets dropped by the emulated uplink",
    "net.session.retransmissions_sent": "retransmitted packets sent",
    "net.session.nacks_sent": "NACK feedback messages sent by the receiver",
    "net.session.reports_received": "receiver reports consumed by the sender",
    "net.session.controller_actions": "control actions applied by the sender",
    "net.session.fec.recovered": "packets recovered by FEC parity",
    "net.session.fec.spurious": "FEC recoveries of packets that also arrived",
    "net.session.frame_latency_s": "per-frame delivery latency histogram (s)",
    # sweep layer — per-cell, wall-clock (runner side, never in cell records)
    "sweep.cells.executed": "cells executed this run",
    "sweep.cells.cached": "cells served from the content-hash cache",
    "sweep.cells.failed": "cells that resolved to an error record",
    # fleet layer — the coordinator's status snapshot (`--status-json`)
    "fleet.queue.depth": "cells queued and not yet dispatched",
    "fleet.cells.inflight": "cells dispatched and not yet resolved",
    "fleet.workers.live": "workers currently connected",
    "fleet.faults.*": "fault-class counters keyed by error type",
    "fleet.worker.inflight": "cells in flight on one worker",
}
METRIC_VOCAB = {
    **METRIC_VOCAB,
    **{
        worker_metric(field): f"per-worker counter: WorkerStats.{field}"
        for field in WORKER_COUNTER_FIELDS
    },
}
