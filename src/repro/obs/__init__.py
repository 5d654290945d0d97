"""repro.obs — the deterministic telemetry spine.

Two primitives and a bundle:

- :mod:`repro.obs.metrics` — counters and fixed-bucket histograms
  in a :class:`MetricRegistry`, plus the canonical fleet metric vocabulary
  shared by the coordinator's status snapshot and report.py.
- :mod:`repro.obs.trace` — nestable spans carrying sim-time for
  in-simulation work and wall-clock (via ``core/wallclock``) for fleet
  work, exported as stable-schema JSONL.
- :class:`Telemetry` — the pair, threaded through
  ``VideoTransportSession``, ``SweepRunner`` and the dispatcher.  The
  default everywhere is :data:`NULL_TELEMETRY`, whose no-op instruments
  make disabled telemetry free enough for hot paths and provably inert: it draws no RNG, reads no clock and changes no
  session stat (gated in tests).

See docs/OBSERVABILITY.md for the vocabulary, span schema and the
fleet status stream (``sweep_scenarios.py --status-json``).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .metrics import (
    FAULT_AXES,
    METRIC_VOCAB,
    NULL_REGISTRY,
    WORKER_COUNTER_FIELDS,
    Counter,
    Histogram,
    MetricError,
    MetricRegistry,
    worker_metric,
)
from .trace import CLOCKS, NULL_TRACE, TRACE_SCHEMA, Span, TraceError, TraceRecorder


@dataclass(frozen=True)
class Telemetry:
    """A metric registry and a trace recorder that travel together."""

    metrics: MetricRegistry = field(default_factory=MetricRegistry)
    trace: TraceRecorder = field(default_factory=TraceRecorder)

    @property
    def enabled(self) -> bool:
        return self.metrics.enabled or self.trace.enabled

    def sim_stream(self) -> str:
        """The deterministic export: metrics JSONL + sim-clock trace JSONL.

        This is the byte-string the determinism tests and the telemetry
        checks of the fast-vs-reference equivalence gate compare across delivery modes and
        repeated seeded runs (wall spans are excluded by construction).
        """
        return self.metrics.to_jsonl() + "\n---\n" + self.trace.to_jsonl(clock="sim")


#: Shared disabled bundle — the default for every instrumented constructor.
NULL_TELEMETRY = Telemetry(metrics=NULL_REGISTRY, trace=NULL_TRACE)

__all__ = [
    "CLOCKS",
    "Counter",
    "FAULT_AXES",
    "Histogram",
    "METRIC_VOCAB",
    "MetricError",
    "MetricRegistry",
    "NULL_REGISTRY",
    "NULL_TELEMETRY",
    "NULL_TRACE",
    "Span",
    "TRACE_SCHEMA",
    "Telemetry",
    "TraceError",
    "TraceRecorder",
    "WORKER_COUNTER_FIELDS",
    "worker_metric",
]
