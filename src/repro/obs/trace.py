"""Nestable spans over two clocks: sim-time for simulation, wall for fleet.

A span is a named interval with attributes.  The *clock* a span carries is
part of its identity:

- ``clock="sim"`` spans take their timestamps from the caller (the event
  loop's ``now``), so they are bit-identical across seeded replays and
  across the scalar/batched delivery paths — the determinism tests and the
  equivalence gate's telemetry checks compare their serialized form
  byte-for-byte.
- ``clock="wall"`` spans read :mod:`repro.core.wallclock` (the repo's only
  sanctioned wall-clock surface, enforced by reprolint's ``wall-clock``
  rule) and describe fleet work: sweep cells, queue waits, dispatch.

Export is JSONL with a stable schema — one key-sorted JSON object per
span, in finish order::

    {"attrs": {...}, "clock": "sim", "dur": 1.5, "name": "net.session",
     "parent": null, "span": 0, "t0": 0.0, "t1": 1.5}

Span ids are sequential per recorder (never random), and nesting is
tracked with an explicit stack: a span started while another is open
records that span as its parent.  A disabled recorder (the shared
:data:`NULL_TRACE`) hands back a no-op span and never reads any clock.
"""

from __future__ import annotations

import json
from contextlib import contextmanager
from typing import Any, Iterator, Optional

from repro.core import wallclock

#: The two clocks a span may carry.
CLOCKS = ("sim", "wall")

#: Schema identifier embedded in exported streams (docs/OBSERVABILITY.md).
TRACE_SCHEMA = "repro-trace-v1"


class TraceError(ValueError):
    """A span was used inconsistently (bad clock, double finish, ...)."""


class Span:
    """One named interval.  Create via :class:`TraceRecorder`, not directly."""

    __slots__ = ("name", "span_id", "parent_id", "clock", "t0", "t1", "attrs")

    def __init__(
        self,
        name: str,
        span_id: int,
        parent_id: Optional[int],
        clock: str,
        t0: float,
        attrs: dict[str, Any],
    ) -> None:
        self.name = name
        self.span_id = span_id
        self.parent_id = parent_id
        self.clock = clock
        self.t0 = t0
        self.t1: Optional[float] = None
        self.attrs = attrs

    @property
    def finished(self) -> bool:
        return self.t1 is not None

    def to_jsonable(self) -> dict[str, Any]:
        if self.t1 is None:
            raise TraceError(f"span {self.name!r} serialized before finish")
        return {
            "attrs": self.attrs,
            "clock": self.clock,
            "dur": self.t1 - self.t0,
            "name": self.name,
            "parent": self.parent_id,
            "span": self.span_id,
            "t0": self.t0,
            "t1": self.t1,
        }


class _NullSpan:
    """Shared do-nothing span handed out by a disabled recorder."""

    __slots__ = ()

    attrs: dict[str, Any] = {}

    def set(self, **attrs: Any) -> None:
        pass


_NULL_SPAN = _NullSpan()


class TraceRecorder:
    """Collects finished spans; sequential ids; explicit nesting stack."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self._spans: list[Span] = []
        self._stack: list[Span] = []
        self._next_id = 0

    # -- core lifecycle ----------------------------------------------------

    def start(self, name: str, t0: float, clock: str = "sim", **attrs: Any):
        """Open a span at explicit time ``t0``; it becomes the nesting parent
        for spans started before its :meth:`finish`."""
        if not self.enabled:
            return _NULL_SPAN
        if clock not in CLOCKS:
            raise TraceError(f"unknown clock {clock!r}; expected one of {CLOCKS}")
        parent = self._stack[-1].span_id if self._stack else None
        span = Span(name, self._next_id, parent, clock, float(t0), dict(attrs))
        self._next_id += 1
        self._stack.append(span)
        return span

    def finish(self, span, t1: float) -> None:
        """Close ``span`` at explicit time ``t1`` and record it."""
        if span is _NULL_SPAN:
            return
        if span.finished:
            raise TraceError(f"span {span.name!r} finished twice")
        if span not in self._stack:
            raise TraceError(f"span {span.name!r} is not open on this recorder")
        span.t1 = float(t1)
        self._stack.remove(span)
        self._spans.append(span)

    def record(self, name: str, t0: float, t1: float, clock: str = "sim", **attrs: Any) -> None:
        """Record an already-elapsed interval (e.g. a cell whose timings
        arrive after the fact).  Parented to the currently open span."""
        if not self.enabled:
            return
        span = self.start(name, t0, clock=clock, **attrs)
        self.finish(span, t1)

    @contextmanager
    def wall_span(self, name: str, **attrs: Any) -> Iterator[Any]:
        """Context manager timing a block on the wall clock (fleet work)."""
        if not self.enabled:
            yield _NULL_SPAN
            return
        span = self.start(name, wallclock.perf_counter(), clock="wall", **attrs)
        try:
            yield span
        finally:
            self.finish(span, wallclock.perf_counter())

    # -- export ------------------------------------------------------------

    def spans(self, clock: Optional[str] = None) -> list[Span]:
        """Finished spans in finish order, optionally filtered by clock."""
        if clock is None:
            return list(self._spans)
        if clock not in CLOCKS:
            raise TraceError(f"unknown clock {clock!r}; expected one of {CLOCKS}")
        return [span for span in self._spans if span.clock == clock]

    def to_jsonl(self, clock: Optional[str] = None) -> str:
        """Stable JSONL export (see module docstring).  Pass ``clock="sim"``
        to get the deterministic subset the equivalence gates compare."""
        return "\n".join(
            json.dumps(span.to_jsonable(), sort_keys=True)
            for span in self.spans(clock)
        )


#: The shared disabled recorder: never reads a clock, never allocates.
NULL_TRACE = TraceRecorder(enabled=False)
