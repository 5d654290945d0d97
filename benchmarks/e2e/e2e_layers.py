"""Outside-in layer trace for the end-to-end benchmark.

The library is traced from outside: :class:`LayerTracer` replaces each public
entry point in :data:`BOUNDARIES` with a wrapper that records one
``clock="wall"`` span (carrying the current ``op`` index) in a
:class:`repro.obs.TraceRecorder`.  Class methods are replaced on the class;
module functions are replaced on every ``repro.*`` module whose attribute
*is* the original, so a ``from x import f`` import site is covered too.
Leaving the ``with`` block restores every original attribute.

A layer's self time is its spans' duration minus the time covered by their
direct child spans, so the self times of nested layers add up to the traced
wall time instead of counting it several times.
"""

from __future__ import annotations

import functools
import statistics
import sys
import time
from collections import defaultdict
from typing import Any, Callable, Optional

from repro.obs import NULL_TRACE, MetricRegistry, Telemetry, TraceRecorder

#: ``(layer name, module, class or None for a module function, attribute)``.
BOUNDARIES: tuple[tuple[str, str, Optional[str], str], ...] = (
    ("mllm.clip", "repro.mllm.clip", "MobileClip", "correlation_map"),
    ("mllm.answer", "repro.mllm.model", "SimulatedMLLM", "answer_question"),
    ("video.render", "repro.video.scene", "Scene", "render"),
    ("video.encode", "repro.video.codec", "BlockCodec", "encode"),
    ("video.decode", "repro.video.codec", "BlockCodec", "decode"),
    ("video.rate_control", "repro.video.rate_control", None, "encode_at_target_bitrate"),
    ("video.quality", "repro.video.quality", None, "high_frequency_retention"),
    ("core.encode_frame", "repro.core.context_aware", "ContextAwareStreamer", "encode_frame"),
    ("core.encode_frame", "repro.core.context_aware", "UniformStreamer", "encode_frame"),
    ("core.turn", "repro.core.pipeline", "AIVideoChatSession", "run_turn"),
    ("devibench.prepare", "repro.devibench.videos", "VideoCollection", "prepare_all"),
    ("devibench.generate", "repro.devibench.generation", "QAGenerator", "generate"),
    ("devibench.filter", "repro.devibench.filtering", "QAFilter", "run"),
    ("devibench.verify", "repro.devibench.verification", "CrossVerifier", "run"),
    ("devibench.evaluate", "repro.devibench.evaluate", "BenchmarkEvaluator", "evaluate_sample"),
    ("net.session", "repro.net.transport", "VideoTransportSession", "run"),
    ("net.buffer", "repro.net.jitter_buffer", "JitterBuffer", "push"),
    ("net.buffer", "repro.net.jitter_buffer", "PassthroughBuffer", "push"),
)

LAYERS: tuple[str, ...] = tuple(dict.fromkeys(name for name, *_ in BOUNDARIES))

#: Counters ``VideoTransportSession(telemetry=...)`` publishes, under ``net.session.``.
NET_COUNTERS = (
    "packets_sent",
    "packets_dropped",
    "retransmissions_sent",
    "nacks_sent",
    "reports_received",
    "controller_actions",
    "fec.recovered",
    "fec.spurious",
)


def _per_layer_specs() -> dict[str, tuple[str, str]]:
    specs: dict[str, tuple[str, str]] = {}
    for layer in LAYERS:
        specs[f"{layer}.calls"] = ("count", "lower")
        specs[f"{layer}.self_s"] = ("s", "lower")
        specs[f"{layer}.share"] = ("fraction", "lower")
    specs.update(
        {
            "mllm.clip.patches": ("count", "lower"),
            "mllm.accuracy": ("fraction", "higher"),
            "video.rate_control.encodes_per_call": ("encodes/call", "lower"),
            "core.turn.sim_latency_p50_ms": ("ms", "lower"),
            "devibench.filter_accept_frac": ("fraction", "higher"),
            "devibench.verify_approve_frac": ("fraction", "higher"),
            **{f"net.session.{counter}": ("count", "lower") for counter in NET_COUNTERS},
            "net.retx_per_packet": ("fraction", "lower"),
            "net.fec.spurious_frac": ("fraction", "lower"),
            "net.frame_latency_p90_ms": ("ms", "lower"),
            "sweep.cells.executed": ("count", "higher"),
            "sweep.cells.cached": ("count", "higher"),
            "sweep.cells.failed": ("count", "lower"),
            "sweep.queue_wait_s": ("s", "lower"),
            "sweep.execute_s": ("s", "lower"),
            "sweep.pool_busy_frac": ("fraction", "higher"),
            "sweep.cached_cells_per_s": ("cells/s", "higher"),
            "trace.overhead_frac": ("fraction", "lower"),
        }
    )
    return specs


#: Every per-layer metric: name -> (unit, better).  A traced run reports all
#: of them on every workload; a layer the workload never reaches reads 0.
PER_LAYER: dict[str, tuple[str, str]] = _per_layer_specs()


class LayerTracer:
    """Wraps the :data:`BOUNDARIES` and turns the recorded spans into metrics."""

    def __init__(self) -> None:
        self.recorder = TraceRecorder()
        self.metrics = MetricRegistry()
        #: Index of the op in flight, stamped on every span as ``op``.
        self.op: Optional[int] = None
        self._restore: list[tuple[Any, str, Any]] = []
        self._observed: dict[str, float] = defaultdict(float)
        self._turn_latencies_ms: list[float] = []
        self._frame_latencies_ms: list[float] = []

    def telemetry(self, spans: bool) -> Telemetry:
        """Library telemetry sharing this tracer's counters (and spans, if asked)."""
        return Telemetry(metrics=self.metrics, trace=self.recorder if spans else NULL_TRACE)

    # -- install / restore ------------------------------------------------

    def __enter__(self) -> "LayerTracer":
        try:
            for name, module_name, class_name, attr in BOUNDARIES:
                module = sys.modules[module_name]
                observe = _OBSERVERS.get(name)
                if class_name is not None:
                    owner = getattr(module, class_name)
                    original = owner.__dict__[attr]
                    self._replace(owner, attr, self._wrap(name, original, observe))
                    continue
                original = getattr(module, attr)
                wrapper = self._wrap(name, original, observe)
                for other_name, other in list(sys.modules.items()):
                    if other_name.partition(".")[0] == "repro" and other is not None:
                        for key, value in list(vars(other).items()):
                            if value is original:
                                self._replace(other, key, wrapper)
        except BaseException:
            self.restore()
            raise
        return self

    def __exit__(self, *exc_info: Any) -> None:
        self.restore()

    def _replace(self, owner: Any, attr: str, wrapper: Callable) -> None:
        self._restore.append((owner, attr, getattr(owner, "__dict__", {})[attr]))
        setattr(owner, attr, wrapper)

    def restore(self) -> None:
        """Put every replaced attribute back (last replaced, first restored)."""
        while self._restore:
            owner, attr, original = self._restore.pop()
            setattr(owner, attr, original)

    def _wrap(self, name: str, original: Callable, observe: Optional[Callable]) -> Callable:
        recorder = self.recorder
        clock = time.perf_counter

        @functools.wraps(original)
        def wrapper(*args: Any, **kwargs: Any) -> Any:
            span = recorder.start(name, clock(), clock="wall", op=self.op)
            try:
                result = original(*args, **kwargs)
            finally:
                recorder.finish(span, clock())
            if observe is not None:
                observe(self, args, result)
            return result

        return wrapper

    # -- metrics ------------------------------------------------------------

    def layer_metrics(self, traced_wall_s: float, pool_processes: int = 1) -> dict[str, float]:
        """Every :data:`PER_LAYER` metric except ``trace.overhead_frac``."""
        spans = self.recorder.spans()
        covered: dict[int, float] = defaultdict(float)
        for span in spans:
            if span.parent_id is not None:
                covered[span.parent_id] += span.t1 - span.t0
        calls: dict[str, int] = defaultdict(int)
        self_s: dict[str, float] = defaultdict(float)
        for span in spans:
            if span.name in LAYERS:
                calls[span.name] += 1
                self_s[span.name] += span.t1 - span.t0 - covered[span.span_id]

        values: dict[str, float] = {}
        for layer in LAYERS:
            values[f"{layer}.calls"] = calls[layer]
            values[f"{layer}.self_s"] = self_s[layer]
            values[f"{layer}.share"] = self_s[layer] / traced_wall_s if traced_wall_s > 0 else 0.0

        seen = self._observed
        values["mllm.clip.patches"] = seen["patches"]
        values["mllm.accuracy"] = _ratio(seen["correct"], seen["answers"])
        values["video.rate_control.encodes_per_call"] = _ratio(
            seen["encodes"], calls["video.rate_control"]
        )
        values["core.turn.sim_latency_p50_ms"] = (
            statistics.median(self._turn_latencies_ms) if self._turn_latencies_ms else 0.0
        )
        values["devibench.filter_accept_frac"] = _ratio(seen["filter_accepted"], seen["filter_total"])
        values["devibench.verify_approve_frac"] = _ratio(seen["verify_approved"], seen["verify_total"])

        counters = {name: record["value"] for name, record in self.metrics.snapshot().items()
                    if record["kind"] == "counter"}
        for counter in NET_COUNTERS:
            values[f"net.session.{counter}"] = counters.get(f"net.session.{counter}", 0)
        values["net.retx_per_packet"] = _ratio(
            values["net.session.retransmissions_sent"], values["net.session.packets_sent"]
        )
        values["net.fec.spurious_frac"] = _ratio(
            values["net.session.fec.spurious"],
            values["net.session.fec.recovered"] + values["net.session.fec.spurious"],
        )
        values["net.frame_latency_p90_ms"] = p90(self._frame_latencies_ms)

        for disposition in ("executed", "cached", "failed"):
            values[f"sweep.cells.{disposition}"] = counters.get(f"sweep.cells.{disposition}", 0)
        values.update(_sweep_metrics(spans, pool_processes))
        return values


def _sweep_metrics(spans: list, pool_processes: int) -> dict[str, float]:
    """Pool and cache figures from the runner-side ``sweep.run``/``sweep.cell`` spans."""
    cells_by_run: dict[int, list] = defaultdict(list)
    for span in spans:
        if span.name == "sweep.cell":
            cells_by_run[span.parent_id].append(span)
    queue_wait = execute = write_wall = read_wall = 0.0
    cached = 0
    for span in spans:
        if span.name != "sweep.run":
            continue
        cells = cells_by_run[span.span_id]
        executed = [cell for cell in cells if cell.attrs["disposition"] != "cached"]
        if executed:
            write_wall += span.t1 - span.t0
            queue_wait += sum(cell.attrs["queue_wait_s"] for cell in executed)
            execute += sum(cell.attrs["execute_s"] for cell in executed)
        else:
            read_wall += span.t1 - span.t0
            cached += len(cells)
    return {
        "sweep.queue_wait_s": queue_wait,
        "sweep.execute_s": execute,
        "sweep.pool_busy_frac": _ratio(execute, write_wall * pool_processes),
        "sweep.cached_cells_per_s": _ratio(cached, read_wall),
    }


def _ratio(numerator: float, denominator: float) -> float:
    return numerator / denominator if denominator else 0.0


def p90(values: list[float]) -> float:
    """90th percentile (exclusive method); 0 for no values."""
    if len(values) < 2:
        return values[0] if values else 0.0
    return statistics.quantiles(values, n=10)[-1]


# -- observers: counts read from a boundary's arguments or result ------------


def _observe_clip(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer._observed["patches"] += result.values.size


def _observe_rate_control(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer._observed["encodes"] += result.iterations


def _observe_turn(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer._observed["answers"] += 1
    tracer._observed["correct"] += result.correct
    tracer._turn_latencies_ms.append(result.latency_budget.total_ms)


def _observe_evaluate(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer._observed["answers"] += 1
    tracer._observed["correct"] += result.correct


def _observe_filter(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer._observed["filter_total"] += result.total
    tracer._observed["filter_accepted"] += len(result.accepted)


def _observe_verify(tracer: LayerTracer, args: tuple, result: Any) -> None:
    tracer._observed["verify_total"] += result.total
    tracer._observed["verify_approved"] += len(result.approved)


def _observe_session(tracer: LayerTracer, args: tuple, result: Any) -> None:
    session = args[0]
    tracer._frame_latencies_ms.extend(
        record.transmission_latency * 1000.0
        for record in session.stats.frames
        if record.transmission_latency is not None
    )


_OBSERVERS: dict[str, Callable[[LayerTracer, tuple, Any], None]] = {
    "mllm.clip": _observe_clip,
    "video.rate_control": _observe_rate_control,
    "core.turn": _observe_turn,
    "devibench.evaluate": _observe_evaluate,
    "devibench.filter": _observe_filter,
    "devibench.verify": _observe_verify,
    "net.session": _observe_session,
}
