"""Jitter buffer — and why AI Video Chat can remove it.

Traditional RTC smooths out network-induced inter-frame jitter with a jitter
buffer that holds frames for a target delay before playback, trading latency
for smoothness.  Section 2.1 of the paper argues the buffer is unnecessary
for an MLLM receiver: the model's perception of time comes from positional
encodings derived from capture timestamps, not from the wall-clock arrival
times, so jittered delivery does not change what the model sees.

We implement both behaviours so the benchmark can quantify the latency the
buffer adds and show that removing it leaves the MLLM input unchanged.
"""

from __future__ import annotations

import heapq
import itertools
from dataclasses import dataclass
from typing import Optional

import numpy as np


@dataclass(slots=True)
class BufferedFrame:
    """A frame waiting inside the jitter buffer."""

    frame_id: int
    capture_time: float
    arrival_time: float
    release_time: float
    payload: object = None


@dataclass
class JitterBufferConfig:
    """Configuration of the adaptive jitter buffer."""

    #: Initial playout delay added on top of the first frame's arrival.
    initial_delay_s: float = 0.050
    #: Minimum and maximum playout delay the adaptation may choose.
    min_delay_s: float = 0.010
    max_delay_s: float = 0.500
    #: How aggressively the target delay tracks observed jitter (in standard
    #: deviations of inter-arrival error), mirroring the NetEQ-style rule.
    jitter_multiplier: float = 4.0
    #: Exponential smoothing factor for the jitter estimate.
    smoothing: float = 0.1


class JitterBuffer:
    """An adaptive playout buffer for human-oriented RTC.

    Frames are released no earlier than ``capture_time + playout_delay`` on a
    reconstructed playback clock, which converts arrival jitter into added
    latency — exactly the cost the paper proposes to eliminate for MLLM
    receivers.
    """

    def __init__(self, config: Optional[JitterBufferConfig] = None) -> None:
        self.config = config or JitterBufferConfig()
        # Min-heap keyed on (release_time, insertion order): release times are
        # not monotone in arrival order under jitter, so a FIFO queue would
        # head-of-line block ready frames behind a not-yet-ready one.
        self._queue: list[tuple[float, int, BufferedFrame]] = []
        self._counter = itertools.count()
        self._playout_delay = self.config.initial_delay_s
        self._jitter_estimate = 0.0
        self._last_transit: Optional[float] = None
        self._min_transit: Optional[float] = None
        self.released: list[BufferedFrame] = []

    @property
    def playout_delay_s(self) -> float:
        return self._playout_delay

    @property
    def jitter_estimate_s(self) -> float:
        return self._jitter_estimate

    def _update_jitter(self, capture_time: float, arrival_time: float) -> None:
        transit = arrival_time - capture_time
        if self._last_transit is not None:
            deviation = abs(transit - self._last_transit)
            alpha = self.config.smoothing
            self._jitter_estimate = (1 - alpha) * self._jitter_estimate + alpha * deviation
        self._last_transit = transit
        if self._min_transit is None or transit < self._min_transit:
            self._min_transit = transit
        target = self.config.initial_delay_s + self.config.jitter_multiplier * self._jitter_estimate
        self._playout_delay = float(
            np.clip(target, self.config.min_delay_s, self.config.max_delay_s)
        )

    def push(self, frame_id: int, capture_time: float, arrival_time: float, payload: object = None) -> BufferedFrame:
        """Insert a frame; it is released when the playback clock reaches it.

        The playback clock is ``capture_time + min_transit + playout_delay``:
        the minimum observed transit estimates the network's base (jitter-free)
        delay, so an early frame (transit near the minimum) is held for the
        full playout delay while a late frame has already consumed its hold in
        flight and is released on (or soon after) arrival — never re-delayed
        by the full playout delay on top of the jitter it suffered.
        """
        self._update_jitter(capture_time, arrival_time)
        base_transit = self._min_transit if self._min_transit is not None else 0.0
        release_time = max(arrival_time, capture_time + base_transit + self._playout_delay)
        frame = BufferedFrame(
            frame_id=frame_id,
            capture_time=capture_time,
            arrival_time=arrival_time,
            release_time=release_time,
            payload=payload,
        )
        heapq.heappush(self._queue, (release_time, next(self._counter), frame))
        return frame

    def pop_ready(self, now: float) -> list[BufferedFrame]:
        """Release every queued frame whose release time has passed.

        Frames come out in release-time order (not arrival order): a ready
        frame is never head-of-line blocked behind a not-yet-ready one that
        happened to arrive earlier.
        """
        ready: list[BufferedFrame] = []
        while self._queue and self._queue[0][0] <= now:
            _, _, frame = heapq.heappop(self._queue)
            ready.append(frame)
            self.released.append(frame)
        return ready

    @property
    def depth(self) -> int:
        return len(self._queue)

    def added_latency(self) -> float:
        """Mean extra latency (release - arrival) over all released frames."""
        if not self.released:
            return 0.0
        return float(np.mean([f.release_time - f.arrival_time for f in self.released]))


class PassthroughBuffer:
    """The AI-oriented alternative: frames are handed over on arrival.

    Because the MLLM orders frames by capture timestamp (positional
    encoding), no reordering delay is needed; this buffer adds zero latency
    and simply records the delivery order for the equivalence benchmark.
    """

    def __init__(self) -> None:
        self.released: list[BufferedFrame] = []
        self._pending: list[BufferedFrame] = []

    def push(self, frame_id: int, capture_time: float, arrival_time: float, payload: object = None) -> BufferedFrame:
        frame = BufferedFrame(
            frame_id=frame_id,
            capture_time=capture_time,
            arrival_time=arrival_time,
            release_time=arrival_time,
            payload=payload,
        )
        self.released.append(frame)
        self._pending.append(frame)
        return frame

    def pop_ready(self, now: float) -> list[BufferedFrame]:
        """Drain frames released by ``now`` exactly once.

        Matches :meth:`JitterBuffer.pop_ready` semantics: each frame is
        returned by exactly one call (release time == arrival time, so a
        frame becomes ready the instant it is pushed).  ``released`` keeps
        the full delivery history for the equivalence benchmark.
        """
        ready = [f for f in self._pending if f.release_time <= now]
        self._pending = [f for f in self._pending if f.release_time > now]
        return ready

    def added_latency(self) -> float:
        return 0.0

    @property
    def depth(self) -> int:
        return 0


def frames_in_capture_order(frames: list[BufferedFrame]) -> list[BufferedFrame]:
    """Order frames the way an MLLM consumes them: by capture timestamp.

    This is the crux of the "jitter has no impact" argument — regardless of
    arrival jitter or ordering, sorting by capture time yields an identical
    model input.
    """
    return sorted(frames, key=lambda frame: (frame.capture_time, frame.frame_id))
