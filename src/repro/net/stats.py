"""Latency and throughput statistics for the RTC transport.

Figure 3 of the paper reports frame transmission latency (time from a frame
being sent to being completely received, explicitly excluding the jitter
buffer) as a function of bitrate and loss rate.  This module collects those
per-frame records and summarises them.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

import numpy as np


@dataclass(slots=True)
class FrameRecord:
    """Per-frame transmission accounting."""

    frame_id: int
    capture_time: float
    send_time: float
    size_bytes: int
    packet_count: int
    complete_time: Optional[float] = None
    retransmitted_packets: int = 0
    nack_rounds: int = 0

    @property
    def delivered(self) -> bool:
        return self.complete_time is not None

    @property
    def transmission_latency(self) -> Optional[float]:
        """Time from first send to complete reception (paper's definition)."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.send_time

    @property
    def end_to_end_latency(self) -> Optional[float]:
        """Time from capture to complete reception."""
        if self.complete_time is None:
            return None
        return self.complete_time - self.capture_time


@dataclass
class LatencySummary:
    """Aggregate latency statistics over delivered frames."""

    count: int
    delivered: int
    mean_s: float
    median_s: float
    p90_s: float
    p95_s: float
    p99_s: float
    max_s: float
    min_s: float
    stddev_s: float
    delivery_ratio: float
    mean_retransmissions: float

    @property
    def mean_ms(self) -> float:
        return self.mean_s * 1000.0

    @property
    def p95_ms(self) -> float:
        return self.p95_s * 1000.0


class TransportStats:
    """Accumulates per-frame records and produces summaries."""

    def __init__(self) -> None:
        self._frames: dict[int, FrameRecord] = {}

    def register_frame(
        self,
        frame_id: int,
        capture_time: float,
        send_time: float,
        size_bytes: int,
        packet_count: int,
    ) -> FrameRecord:
        record = FrameRecord(
            frame_id=frame_id,
            capture_time=capture_time,
            send_time=send_time,
            size_bytes=size_bytes,
            packet_count=packet_count,
        )
        self._frames[frame_id] = record
        return record

    def record_completion(self, frame_id: int, complete_time: float) -> None:
        record = self._frames.get(frame_id)
        if record is not None and record.complete_time is None:
            record.complete_time = complete_time

    def record_retransmission(self, frame_id: int, packets: int) -> None:
        record = self._frames.get(frame_id)
        if record is not None:
            record.retransmitted_packets += packets
            record.nack_rounds += 1

    @property
    def frames(self) -> list[FrameRecord]:
        return [self._frames[key] for key in sorted(self._frames)]

    def transmission_latencies(self) -> np.ndarray:
        values = [
            record.transmission_latency
            for record in self._frames.values()
            if record.transmission_latency is not None
        ]
        return np.asarray(sorted(values), dtype=float)

    def summary(self) -> LatencySummary:
        return summarize_latencies(
            self.transmission_latencies(),
            total=len(self._frames),
            retransmissions=[r.retransmitted_packets for r in self._frames.values()],
        )


def summarize_latencies(
    latencies: Iterable[float],
    total: Optional[int] = None,
    retransmissions: Optional[Iterable[int]] = None,
) -> LatencySummary:
    """Summarise a collection of latencies (seconds) into a :class:`LatencySummary`."""
    values = np.asarray(list(latencies), dtype=float)
    delivered = int(values.size)
    count = int(total) if total is not None else delivered
    retrans = list(retransmissions) if retransmissions is not None else []
    mean_retrans = float(np.mean(retrans)) if retrans else 0.0
    if delivered == 0:
        return LatencySummary(
            count=count,
            delivered=0,
            mean_s=float("nan"),
            median_s=float("nan"),
            p90_s=float("nan"),
            p95_s=float("nan"),
            p99_s=float("nan"),
            max_s=float("nan"),
            min_s=float("nan"),
            stddev_s=float("nan"),
            delivery_ratio=0.0,
            mean_retransmissions=mean_retrans,
        )
    low = float(np.min(values))
    high = float(np.max(values))
    # Pairwise summation can land np.mean a few ULPs outside [min, max];
    # the true mean is always within the sample range.
    mean = min(max(float(np.mean(values)), low), high)
    # One percentile call partitions once for all three tail quantiles
    # instead of re-partitioning the sample per statistic.  (The median
    # keeps ``np.median``: its even-length midpoint rounds differently from
    # the 50th linear-interpolation percentile.)
    p90, p95, p99 = np.percentile(values, (90.0, 95.0, 99.0))
    return LatencySummary(
        count=count,
        delivered=delivered,
        mean_s=mean,
        median_s=float(np.median(values)),
        p90_s=float(p90),
        p95_s=float(p95),
        p99_s=float(p99),
        max_s=high,
        min_s=low,
        stddev_s=float(np.std(values)),
        delivery_ratio=delivered / count if count else 1.0,
        mean_retransmissions=mean_retrans,
    )
