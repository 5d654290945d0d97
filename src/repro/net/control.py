"""Sender control plane: RTCP-style receiver reports and pluggable controllers.

The paper's end-to-end turn depends on the sender *adapting* to the network.
This module closes that loop.  The receiver periodically summarises what it
observed on the wire (receive rate, loss fraction, one-way delay, highest
sequence) into a :class:`ReceiverReport` that rides the same feedback
:class:`~repro.net.emulator.EmulatedPath` as NACKs.  On the sender side a
:class:`SenderController` turns each report into a :class:`ControlAction` —
a target bitrate plus an optional FEC redundancy ratio — which the transport
session applies to the :class:`~repro.net.transport.VideoSender` and its
:class:`~repro.net.fec.FecEncoder`.

Two invariants shape the implementation:

* **Mode equivalence.**  Report timing and contents must be bit-identical
  between the scalar per-packet delivery path and the batched block fastpath.
  :class:`ReportCollector` achieves this by recording raw per-packet samples
  (in whatever order the active delivery mode produces them), firing on the
  absolute ``k * interval_s`` deadline grid, including only samples that
  arrived strictly before the firing instant, and canonically ordering the
  included set before any float aggregation.
* **Determinism.**  Controllers are built from JSON specs
  (:func:`controller_from_spec`; its nested estimator and ABR specs go
  through :mod:`repro.core.spec` with ``ESTIMATOR_KINDS`` / ``ABR_KINDS``)
  so sweep cells stay content-hash cacheable, and they draw no hidden
  randomness — the ``seed`` field is carried through specs for policies that
  will need it (learned controllers), keeping reprolint's rng-discipline rule
  trivially satisfied today.
"""

from __future__ import annotations

import inspect
import math
from dataclasses import dataclass
from typing import Any, Optional

from ..core.spec import ConfigError, from_spec, to_spec
from .abr import AbrPolicy, AiOrientedAbr, BufferBasedAbr, ThroughputAbr
from .congestion import (
    AimdConfig,
    AimdController,
    BandwidthEstimator,
    GccConfig,
    GoogleCongestionControl,
    RateSample,
)

__all__ = [
    "ABR_KINDS",
    "ESTIMATOR_KINDS",
    "REPORT_SIZE_BYTES",
    "ClosedLoopController",
    "ControlAction",
    "FixedController",
    "ReceiverReport",
    "ReportCollector",
    "SenderController",
    "controller_from_spec",
    "controller_to_spec",
    "fec_group_size_for_overhead",
    "preset_controller_spec",
]

#: Wire size charged to one receiver report on the feedback path.  Roughly an
#: RTCP RR plus a transport-wide-feedback style delay block.
REPORT_SIZE_BYTES = 64


@dataclass(slots=True)
class ReceiverReport:
    """RTCP-style receiver report summarising one feedback window."""

    #: Instant the report was generated (receiver clock == simulation clock).
    report_time: float
    #: Width of the window the rate figure averages over.
    window_s: float
    #: Received wire bytes (video + retransmission + FEC) over the window.
    receive_rate_bps: float
    #: Fraction of expected video-sequence slots not received this window.
    loss_fraction: float
    #: Mean one-way delay over the window's wire packets.
    one_way_delay_s: float
    #: Up to ``max_delay_samples`` raw one-way-delay samples, arrival order.
    delay_samples: tuple[float, ...]
    #: Cumulative highest video/retransmission sequence seen so far.
    highest_sequence: int
    #: Video-sequence-space wire packets received this window.
    received_packets: int
    #: New video-sequence slots expected this window (highest-seq delta).
    expected_packets: int


@dataclass(slots=True)
class ControlAction:
    """One sender-side control decision derived from a receiver report."""

    target_bitrate_bps: float
    #: Desired parity/data ratio; ``None`` leaves FEC sizing untouched.
    fec_overhead_ratio: Optional[float] = None
    reason: str = ""


def fec_group_size_for_overhead(ratio: float, max_group_size: int = 64) -> int:
    """Map a redundancy ratio (parity bytes per data byte) to a group size.

    ``FecConfig.group_size = g`` yields one parity packet per ``g`` data
    packets, i.e. an overhead of ``1/g``; the inverse is rounded and clamped
    to ``[1, max_group_size]``.
    """
    if ratio <= 0:
        raise ValueError("FEC overhead ratio must be positive")
    return int(min(max(round(1.0 / ratio), 1), max_group_size))


class ReportCollector:
    """Receiver-side accounting behind the RTCP-style report chain.

    Wire-packet samples are recorded as they arrive (in either delivery mode)
    and aggregated at deadline instants on the absolute ``k * interval_s``
    grid.  Only samples that arrived strictly before the firing instant enter
    a report — same-instant samples wait for the next window — and the
    included set is sorted canonically before any float aggregation, so the
    scalar and block delivery paths produce bit-identical report sequences
    even though they record samples in different orders.

    The deadline chain is demand-driven so ``EventLoop.run_until_idle`` still
    converges: :meth:`record` returns a deadline only when the chain is
    dormant (or must fire earlier than currently armed), and :meth:`collect`
    returns the next fire time only while there is (or was) something to
    report.

    Fire instants live on an *integer* tick index: every deadline is computed
    as ``tick * interval_s`` from the same integer, never by accumulating
    floats or re-dividing a grid point, so the two delivery modes can never
    disagree by a ulp about when a window closes.  A fire whose tick no
    longer matches the collector's (it was superseded by an earlier arming —
    possible when an unordered run records out of arrival order) is a no-op.
    """

    __slots__ = (
        "interval_s",
        "max_delay_samples",
        "_pending",
        "_last_report_time",
        "_highest_sequence",
        "_armed",
        "_tick",
    )

    def __init__(self, interval_s: float, max_delay_samples: int = 16) -> None:
        if interval_s <= 0:
            raise ValueError("report interval must be positive")
        self.interval_s = float(interval_s)
        self.max_delay_samples = int(max_delay_samples)
        #: Pending samples: (arrival_time, sequence, one_way_delay, size_bytes).
        #: ``sequence`` is the video-space sequence, or -1 for packets outside
        #: that space (FEC parity), which count towards rate/delay only.
        self._pending: list[tuple[float, int, float, int]] = []
        self._last_report_time = 0.0
        self._highest_sequence = -1
        self._armed = False
        self._tick = 0

    @property
    def highest_sequence(self) -> int:
        return self._highest_sequence

    def record(
        self, arrival_time: float, send_time: float, size_bytes: int, sequence: int
    ) -> Optional[tuple[int, float]]:
        """Record one wire packet; returns ``(tick, deadline)`` to arm, if any.

        The deadline is derived from the *sample's* arrival timestamp (not
        the caller's clock) so the fastpath — which records whole runs at the
        first packet's arrival — arms the exact instant the scalar path
        would.  A non-``None`` return supersedes any earlier arming.
        """
        self._pending.append(
            (arrival_time, sequence, max(0.0, arrival_time - send_time), size_bytes)
        )
        tick = int(math.floor(arrival_time / self.interval_s)) + 1
        if self._armed and tick >= self._tick:
            return None
        self._armed = True
        self._tick = tick
        return tick, tick * self.interval_s

    def collect(
        self, now: float, tick: int
    ) -> tuple[Optional[ReceiverReport], Optional[tuple[int, float]]]:
        """Aggregate at a deadline instant; returns (report, next arming).

        The report is ``None`` when no sample arrived strictly before ``now``;
        the arming is ``None`` when the chain should go dormant (no samples
        included and none pending).  A stale ``tick`` returns (None, None).
        """
        if not self._armed or tick != self._tick:
            return None, None
        included = [sample for sample in self._pending if sample[0] < now]
        if len(included) < len(self._pending):
            self._pending = [sample for sample in self._pending if not sample[0] < now]
        else:
            self._pending = []
        report = None
        if included:
            included.sort()
            window = max(now - self._last_report_time, 1e-9)
            total_bytes = 0
            delay_sum = 0.0
            highest = self._highest_sequence
            received_video = 0
            for _, sequence, delay, size_bytes in included:
                total_bytes += size_bytes
                delay_sum += delay
                if sequence >= 0:
                    received_video += 1
                    if sequence > highest:
                        highest = sequence
            expected = highest - self._highest_sequence
            loss = 0.0
            if expected > 0:
                loss = min(max(1.0 - received_video / expected, 0.0), 1.0)
            report = ReceiverReport(
                report_time=now,
                window_s=window,
                receive_rate_bps=total_bytes * 8.0 / window,
                loss_fraction=loss,
                one_way_delay_s=delay_sum / len(included),
                delay_samples=tuple(
                    sample[2] for sample in included[: self.max_delay_samples]
                ),
                highest_sequence=highest,
                received_packets=received_video,
                expected_packets=max(expected, 0),
            )
            self._highest_sequence = highest
            self._last_report_time = now
        if included or self._pending:
            self._tick += 1
            return report, (self._tick, self._tick * self.interval_s)
        self._armed = False
        return report, None


class SenderController:
    """Interface for sender-side policies driven by receiver reports."""

    def initial_action(self) -> ControlAction:  # pragma: no cover - interface
        raise NotImplementedError

    def on_report(
        self, report: ReceiverReport, now: float
    ) -> ControlAction:  # pragma: no cover - interface
        raise NotImplementedError


@dataclass(slots=True)
class FixedController(SenderController):
    """Open-loop baseline: ignores reports and holds a constant action."""

    bitrate_bps: float = 2_000_000.0
    fec_overhead_ratio: Optional[float] = None

    def initial_action(self) -> ControlAction:
        return ControlAction(
            target_bitrate_bps=self.bitrate_bps,
            fec_overhead_ratio=self.fec_overhead_ratio,
            reason="fixed",
        )

    def on_report(self, report: ReceiverReport, now: float) -> ControlAction:
        return self.initial_action()


class ClosedLoopController(SenderController):
    """Compose a :class:`BandwidthEstimator` with an :class:`AbrPolicy`.

    Each report is converted into a :class:`RateSample` for the estimator;
    the ABR policy then picks the target bitrate from the fresh estimate.
    FEC redundancy is either held at ``fec_overhead_ratio`` or, with
    ``adapt_fec``, scaled with the reported loss fraction (clamped to
    ``[fec_min_overhead, fec_max_overhead]``).
    """

    def __init__(
        self,
        estimator: BandwidthEstimator,
        abr: AbrPolicy,
        *,
        fec_overhead_ratio: Optional[float] = None,
        adapt_fec: bool = False,
        fec_min_overhead: float = 0.05,
        fec_max_overhead: float = 0.5,
        fec_loss_multiplier: float = 2.0,
        seed: int = 0,
    ) -> None:
        self.estimator = estimator
        self.abr = abr
        self.fec_overhead_ratio = fec_overhead_ratio
        self.adapt_fec = bool(adapt_fec)
        self.fec_min_overhead = float(fec_min_overhead)
        self.fec_max_overhead = float(fec_max_overhead)
        self.fec_loss_multiplier = float(fec_loss_multiplier)
        #: Carried through specs for stochastic policies (learned controllers);
        #: the classic estimator/ABR compositions draw no randomness.
        self.seed = int(seed)

    def _fec_overhead(self, loss_fraction: float) -> Optional[float]:
        if not self.adapt_fec:
            return self.fec_overhead_ratio
        return min(
            max(loss_fraction * self.fec_loss_multiplier, self.fec_min_overhead),
            self.fec_max_overhead,
        )

    def initial_action(self) -> ControlAction:
        decision = self.abr.decide(self.estimator.estimate_bps)
        return ControlAction(
            target_bitrate_bps=decision.bitrate_bps,
            fec_overhead_ratio=self._fec_overhead(0.0),
            reason=f"init:{decision.reason}",
        )

    def on_report(self, report: ReceiverReport, now: float) -> ControlAction:
        sample = RateSample(
            timestamp=report.report_time,
            receive_rate_bps=report.receive_rate_bps,
            loss_ratio=report.loss_fraction,
            one_way_delay_s=report.one_way_delay_s,
        )
        estimate = self.estimator.update(sample)
        decision = self.abr.decide(estimate)
        return ControlAction(
            target_bitrate_bps=decision.bitrate_bps,
            fec_overhead_ratio=self._fec_overhead(report.loss_fraction),
            reason=decision.reason,
        )


#: Estimator and ABR kinds for JSON specs (see :mod:`repro.core.spec`).  An
#: estimator spec is its config: the config class picks the estimator.
ESTIMATOR_KINDS: dict[str, type] = {"gcc": GccConfig, "aimd": AimdConfig}
ABR_KINDS: dict[str, type] = {
    "throughput": ThroughputAbr,
    "buffer": BufferBasedAbr,
    "ai": AiOrientedAbr,
}


def controller_from_spec(spec: dict[str, Any]) -> SenderController:
    """Build a sender controller from a JSON-able spec dict.

    Kinds: ``fixed`` (constant action) and ``closed_loop`` (estimator × ABR
    composition with nested ``estimator`` / ``abr`` specs).
    """
    params = dict(spec)
    kind = params.pop("kind", "closed_loop")
    if kind == "fixed":
        return from_spec(FixedController, params)
    if kind == "closed_loop":
        config = from_spec(ESTIMATOR_KINDS, params.pop("estimator", {}), default_kind="gcc")
        estimator_cls = GoogleCongestionControl if isinstance(config, GccConfig) else AimdController
        abr = from_spec(ABR_KINDS, params.pop("abr", {}), default_kind="throughput")
        # The keyword-only parameters are the spec fields; estimator and
        # abr are the nested specs popped above.
        known = {
            name
            for name, parameter in inspect.signature(ClosedLoopController).parameters.items()
            if parameter.kind is inspect.Parameter.KEYWORD_ONLY
        }
        unknown = sorted(set(params) - known)
        if unknown:
            raise ConfigError(f"unknown ClosedLoopController field(s): {unknown}")
        return ClosedLoopController(estimator_cls(config), abr, **params)
    raise ConfigError(f"unknown controller kind: {kind!r}")


def controller_to_spec(controller: SenderController) -> dict[str, Any]:
    """Serialise a sender controller back to its spec dict."""
    if isinstance(controller, FixedController):
        return {"kind": "fixed", **to_spec(controller)}
    if isinstance(controller, ClosedLoopController):
        spec = {
            "kind": "closed_loop",
            "estimator": to_spec(controller.estimator.config, ESTIMATOR_KINDS),
            "abr": to_spec(controller.abr, ABR_KINDS),
            "seed": controller.seed,
        }
        if controller.adapt_fec:
            spec["adapt_fec"] = True
            spec["fec_min_overhead"] = controller.fec_min_overhead
            spec["fec_max_overhead"] = controller.fec_max_overhead
            spec["fec_loss_multiplier"] = controller.fec_loss_multiplier
        elif controller.fec_overhead_ratio is not None:
            spec["fec_overhead_ratio"] = controller.fec_overhead_ratio
        return spec
    raise ConfigError(f"cannot serialise controller of type {type(controller).__name__}")


def preset_controller_spec(name: str) -> dict[str, Any]:
    """Named controller presets for CLIs and experiment grids."""
    presets: dict[str, dict[str, Any]] = {"fixed": {"kind": "fixed", "bitrate_bps": 2_000_000.0}}
    for estimator in ("gcc", "aimd"):
        for abr, suffix in (("throughput", ""), ("buffer", "-buffer"), ("ai", "-ai")):
            presets[estimator + suffix] = {
                "kind": "closed_loop",
                "estimator": {"kind": estimator},
                "abr": {"kind": abr},
            }
    try:
        return presets[name]
    except KeyError:
        raise ValueError(
            f"unknown controller preset: {name!r} (expected one of {sorted(presets)})"
        ) from None
