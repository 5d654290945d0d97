"""Network path emulation.

The paper's prototype runs a WebRTC-style transport over an emulated link
with a configured bandwidth (10 Mbps), one-way propagation delay (30 ms) and
a swept packet-loss rate.  This module provides that emulated path as a
bandwidth-limited drop-tail queue with serialisation delay, propagation
delay, optional delay jitter, and pluggable loss models (Bernoulli i.i.d.
loss and a two-state Gilbert-Elliott bursty-loss model), plus a trace-driven
bandwidth schedule for time-varying links.
"""

from __future__ import annotations

import os
from bisect import bisect_right
from collections import deque
from dataclasses import dataclass, field
from typing import Any, Callable, Optional, Sequence

import numpy as np

from .events import EventLoop
from .packet import Packet

#: Environment switch for the vectorized fast path.  ``REPRO_NET_FASTPATH=0``
#: falls back to the scalar per-packet algorithms (one RNG call per decision,
#: linear-scan trace lookups) — the reference implementation the equivalence
#: gate and tests compare with.  The flag is
#: read at object construction time, so toggling it mid-process only affects
#: paths/traces built afterwards.
FASTPATH_ENV = "REPRO_NET_FASTPATH"

#: Drop decisions are drawn from the loss model in blocks of this many
#: packets; the per-packet path then consumes precomputed booleans instead of
#: paying 1-2 ``Generator.random()`` dispatches per packet.
DEFAULT_DROP_BLOCK_SIZE = 1024


def fastpath_enabled() -> bool:
    """Whether newly constructed paths/traces use the vectorized fast path."""
    return os.environ.get(FASTPATH_ENV, "1") != "0"


class LossModel:
    """Interface for packet-loss processes."""

    def should_drop(self, rng: np.random.Generator) -> bool:  # pragma: no cover - interface
        raise NotImplementedError

    def sample_drops(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Draw ``n`` consecutive drop decisions as a boolean array.

        The block consumes the RNG stream exactly as ``n`` successive
        :meth:`should_drop` calls would, so for a given seed the decision
        sequence is identical whether drawn one at a time or in blocks of any
        size.  Subclasses override this with vectorized implementations; the
        fallback simply loops.
        """
        return np.fromiter(
            (self.should_drop(rng) for _ in range(n)), dtype=bool, count=max(n, 0)
        )


@dataclass
class BernoulliLoss(LossModel):
    """Independent and identically distributed packet loss."""

    loss_rate: float = 0.0

    def __post_init__(self) -> None:
        if not 0.0 <= self.loss_rate < 1.0:
            raise ValueError(f"loss_rate must be in [0, 1), got {self.loss_rate}")

    def should_drop(self, rng: np.random.Generator) -> bool:
        if self.loss_rate <= 0.0:
            return False
        return bool(rng.random() < self.loss_rate)

    def sample_drops(self, rng: np.random.Generator, n: int) -> np.ndarray:
        if n <= 0:
            return np.zeros(0, dtype=bool)
        if self.loss_rate <= 0.0:
            # The scalar path short-circuits without consuming a draw.
            return np.zeros(n, dtype=bool)
        return rng.random(n) < self.loss_rate


@dataclass
class GilbertElliottLoss(LossModel):
    """Two-state bursty loss: a good state and a bad (lossy) state.

    ``p_good_to_bad`` and ``p_bad_to_good`` are per-packet transition
    probabilities; ``loss_in_bad`` (and optionally ``loss_in_good``) give the
    drop probability within each state.  This captures the bursty loss that
    makes per-frame retransmission rounds expensive in interactive video.
    """

    p_good_to_bad: float = 0.01
    p_bad_to_good: float = 0.3
    loss_in_bad: float = 0.5
    loss_in_good: float = 0.0
    _in_bad_state: bool = field(default=False, repr=False)

    def should_drop(self, rng: np.random.Generator) -> bool:
        if self._in_bad_state:
            if rng.random() < self.p_bad_to_good:
                self._in_bad_state = False
        else:
            if rng.random() < self.p_good_to_bad:
                self._in_bad_state = True
        loss = self.loss_in_bad if self._in_bad_state else self.loss_in_good
        return bool(rng.random() < loss)

    def sample_drops(self, rng: np.random.Generator, n: int) -> np.ndarray:
        """Vectorized state-stepping block sampler.

        Each packet consumes two uniforms — a state-transition draw and a
        loss draw — in the same order as :meth:`should_drop`, so the decision
        sequence for a given seed is bit-identical to the scalar path.  The
        transition draws for the whole block are precomputed once; the chain
        is then advanced run-by-run (one numpy slice per state run) rather
        than packet-by-packet, so the Python-level work scales with the
        number of state transitions, not the number of packets.
        """
        if n <= 0:
            return np.zeros(0, dtype=bool)
        u = rng.random(2 * n)
        trans = u[0::2]
        loss = u[1::2]
        # Candidate transition points for either current state, found once.
        to_bad = np.flatnonzero(trans < self.p_good_to_bad)
        to_good = np.flatnonzero(trans < self.p_bad_to_good)
        drops = np.empty(n, dtype=bool)
        in_bad = self._in_bad_state
        pos = 0
        while pos < n:
            candidates = to_good if in_bad else to_bad
            cursor = int(np.searchsorted(candidates, pos))
            flip_at = int(candidates[cursor]) if cursor < len(candidates) else n
            rate = self.loss_in_bad if in_bad else self.loss_in_good
            # Packets [pos, flip_at) keep the current state's loss rate.
            drops[pos:flip_at] = loss[pos:flip_at] < rate
            if flip_at >= n:
                break
            # The packet whose transition draw fires sees the *new* state's
            # loss rate, exactly as the scalar path does.
            in_bad = not in_bad
            new_rate = self.loss_in_bad if in_bad else self.loss_in_good
            drops[flip_at] = loss[flip_at] < new_rate
            pos = flip_at + 1
        self._in_bad_state = in_bad
        return drops

    @property
    def steady_state_loss(self) -> float:
        """Long-run average loss probability of the chain."""
        denom = self.p_good_to_bad + self.p_bad_to_good
        if denom == 0:
            return self.loss_in_good
        p_bad = self.p_good_to_bad / denom
        return p_bad * self.loss_in_bad + (1 - p_bad) * self.loss_in_good


@dataclass
class BandwidthTrace:
    """A piecewise-constant bandwidth schedule.

    ``times`` are the instants (seconds) at which a new rate takes effect and
    ``rates_bps`` the corresponding link rates.  Before the first instant the
    first rate applies.
    """

    times: Sequence[float]
    rates_bps: Sequence[float]

    def __post_init__(self) -> None:
        if len(self.times) != len(self.rates_bps):
            raise ValueError("times and rates_bps must have equal length")
        if len(self.times) == 0:
            raise ValueError("trace must contain at least one entry")
        if any(t1 < t0 for t0, t1 in zip(self.times, list(self.times)[1:])):
            raise ValueError("trace times must be non-decreasing")
        if any(rate <= 0 for rate in self.rates_bps):
            raise ValueError("trace rates must be positive")
        # Precomputed breakpoint arrays for O(log n) lookups, plus a cached
        # active segment: consecutive lookups almost always land in the same
        # piecewise-constant segment, making the common case O(1).
        self._times_list = [float(t) for t in self.times]
        self._rates_list = [float(r) for r in self.rates_bps]
        self._seg_start = float("inf")  # empty cache until the first lookup
        self._seg_end = float("-inf")
        self._seg_rate = self._rates_list[0]
        self._fast = fastpath_enabled()

    def rate_at(self, time: float) -> float:
        if not self._fast:
            return self.rate_at_scan(time)
        if self._seg_start <= time < self._seg_end:
            return self._seg_rate
        times = self._times_list
        # Index of the last breakpoint at or before ``time`` (-1 when the
        # query precedes the trace, in which case the first rate applies).
        idx = bisect_right(times, time) - 1
        if idx < 0:
            self._seg_start = float("-inf")
            self._seg_end = times[0]
            rate = self._rates_list[0]
        else:
            self._seg_start = times[idx]
            self._seg_end = times[idx + 1] if idx + 1 < len(times) else float("inf")
            rate = self._rates_list[idx]
        self._seg_rate = rate
        return rate

    def rate_at_scan(self, time: float) -> float:
        """Reference linear-scan lookup (the pre-fast-path implementation).

        Kept for the scalar reference mode and the property tests asserting
        that :meth:`rate_at` agrees with it on arbitrary traces.
        """
        rate = self.rates_bps[0]
        for instant, value in zip(self.times, self.rates_bps):
            if instant <= time:
                rate = value
            else:
                break
        return float(rate)

    @property
    def mean_rate_bps(self) -> float:
        """Time-weighted mean rate over the trace's defined horizon.

        Each rate is weighted by how long it holds (the gap to the next
        breakpoint); the final rate holds forever, so it is excluded unless
        the trace has a single entry or zero total width.
        """
        times = np.asarray(self.times, dtype=float)
        rates = np.asarray(self.rates_bps, dtype=float)
        if len(times) < 2:
            return float(rates[0])
        widths = np.diff(times)
        total = float(np.sum(widths))
        low = float(np.min(rates))
        high = float(np.max(rates))
        if total <= 0.0:
            mean = float(np.mean(rates))
        else:
            mean = float(np.sum(widths * rates[:-1]) / total)
        # Accumulated rounding can land the weighted mean a few ULPs outside
        # [min, max]; the true mean is always within the rate range.
        return min(max(mean, low), high)


# ---------------------------------------------------------------------------
# JSON-friendly specs: scenario grids (see repro.analysis.sweeps) describe
# loss models and bandwidth traces as plain dicts so they can be hashed,
# persisted, and shipped across process boundaries, then rebuilt here.
# ---------------------------------------------------------------------------


def loss_model_from_spec(spec: Optional[dict]) -> LossModel:
    """Build a loss model from a plain-dict spec (``{"kind": ..., params}``)."""
    if spec is None:
        return BernoulliLoss(0.0)
    kind = spec.get("kind", "bernoulli")
    params = {k: v for k, v in spec.items() if k != "kind"}
    if kind == "bernoulli":
        return BernoulliLoss(**params)
    if kind == "gilbert_elliott":
        return GilbertElliottLoss(**params)
    raise ValueError(f"unknown loss model kind: {kind!r}")


def loss_model_to_spec(model: LossModel) -> dict:
    """Inverse of :func:`loss_model_from_spec` for the built-in models."""
    if isinstance(model, BernoulliLoss):
        return {"kind": "bernoulli", "loss_rate": model.loss_rate}
    if isinstance(model, GilbertElliottLoss):
        return {
            "kind": "gilbert_elliott",
            "p_good_to_bad": model.p_good_to_bad,
            "p_bad_to_good": model.p_bad_to_good,
            "loss_in_bad": model.loss_in_bad,
            "loss_in_good": model.loss_in_good,
        }
    raise ValueError(f"cannot build a spec for {type(model).__name__}")


def bandwidth_trace_from_spec(spec: Optional[dict]) -> Optional["BandwidthTrace"]:
    if spec is None:
        return None
    return BandwidthTrace(times=list(spec["times"]), rates_bps=list(spec["rates_bps"]))


def bandwidth_trace_to_spec(trace: Optional["BandwidthTrace"]) -> Optional[dict]:
    if trace is None:
        return None
    return {"times": list(trace.times), "rates_bps": list(trace.rates_bps)}


def expected_loss_rate(model: LossModel, samples: int = 20_000, seed: int = 0) -> float:
    """Long-run drop probability of a loss model.

    Analytic for the built-in models; an empirical estimate (on a copy, so
    stateful models are not perturbed) for anything else.
    """
    if isinstance(model, BernoulliLoss):
        return model.loss_rate
    if isinstance(model, GilbertElliottLoss):
        return model.steady_state_loss
    import copy

    probe = copy.deepcopy(model)
    rng = np.random.default_rng(seed)
    sampler = getattr(probe, "sample_drops", None)
    if sampler is not None:
        drops = int(np.count_nonzero(sampler(rng, samples)))
    else:  # duck-typed models that only implement should_drop
        drops = sum(probe.should_drop(rng) for _ in range(samples))
    return drops / max(samples, 1)


@dataclass
class PathConfig:
    """Configuration of an emulated network path.

    The defaults match the paper's measurement setup: 10 Mbps bottleneck,
    30 ms one-way propagation delay.
    """

    bandwidth_bps: float = 10_000_000.0
    propagation_delay_s: float = 0.030
    loss_model: LossModel = field(default_factory=BernoulliLoss)
    queue_capacity_bytes: int = 300_000
    jitter_std_s: float = 0.0
    bandwidth_trace: Optional[BandwidthTrace] = None
    seed: int = 0
    #: Packets per block drawn from the loss model at once.  ``None`` picks
    #: the default block size (or 1 — per-packet scalar draws — when the
    #: fast path is disabled via ``REPRO_NET_FASTPATH=0``).
    drop_block_size: Optional[int] = None

    def __post_init__(self) -> None:
        if self.bandwidth_bps <= 0:
            raise ValueError("bandwidth_bps must be positive")
        if self.propagation_delay_s < 0:
            raise ValueError("propagation_delay_s must be non-negative")
        if self.queue_capacity_bytes <= 0:
            raise ValueError("queue_capacity_bytes must be positive")
        if self.jitter_std_s < 0:
            raise ValueError("jitter_std_s must be non-negative")
        if self.drop_block_size is not None and self.drop_block_size < 1:
            raise ValueError("drop_block_size must be at least 1")


@dataclass
class PathStats:
    """Counters exposed by the emulated path."""

    packets_offered: int = 0
    packets_delivered: int = 0
    packets_lost_random: int = 0
    packets_dropped_queue: int = 0
    bytes_delivered: int = 0
    max_queue_bytes: int = 0

    @property
    def delivery_ratio(self) -> float:
        if self.packets_offered == 0:
            return 1.0
        return self.packets_delivered / self.packets_offered

    @property
    def loss_ratio(self) -> float:
        return 1.0 - self.delivery_ratio


class EmulatedPath:
    """A one-way emulated network path driven by an :class:`EventLoop`.

    Packets entering the path are serialised through a bandwidth-limited
    queue (drop-tail when the backlog exceeds the configured capacity), then
    experience the propagation delay plus optional Gaussian jitter, then are
    delivered to the configured callback.  Random loss is applied on entry,
    modelling loss on the bottleneck.
    """

    def __init__(
        self,
        loop: EventLoop,
        config: PathConfig,
        deliver: Callable[[Packet, float], None],
        deliver_block: Optional[Callable[[Any, np.ndarray, np.ndarray, int, bool], None]] = None,
        lazy_dequeue: Optional[bool] = None,
    ) -> None:
        self.loop = loop
        self.config = config
        self._deliver = deliver
        #: Block-delivery callback ``(context, offsets, arrivals, bytes,
        #: ordered)`` — ``ordered`` means offsets are contiguous and
        #: arrivals non-decreasing.
        #: When set, :meth:`send_block` is available and the path defaults to
        #: event-free lazy queue draining (see :meth:`_drain_queue`);
        #: ``lazy_dequeue`` overrides that default (the transport enables it
        #: for the feedback path alongside block mode).
        self._deliver_block = deliver_block
        self._lazy_dequeue = (
            deliver_block is not None if lazy_dequeue is None else lazy_dequeue
        )
        # FIFO of [finish_times, cumulative_bytes, consumed_pos] chunks; the
        # link serialises in order, so finish times are globally monotone
        # across chunks and draining front-to-back is exact.
        self._pending_dequeue: deque[list] = deque()
        self._rng = np.random.default_rng(config.seed)
        # Jitter draws come from their own stream so that drop decisions for
        # a given seed are identical whether drawn per packet or in blocks
        # (interleaved normal draws would shift the uniform stream).
        self._jitter_rng = np.random.default_rng((config.seed, 0x6A177E12))
        block = config.drop_block_size
        if block is None:
            block = DEFAULT_DROP_BLOCK_SIZE if fastpath_enabled() else 1
        if not hasattr(config.loss_model, "sample_drops"):
            # Duck-typed models that only implement should_drop stay scalar.
            block = 1
        self._drop_block_size = int(block)
        self._drop_block_np = np.zeros(0, dtype=bool)
        if block > 1:
            # Block refill draws decisions ahead of consumption, which would
            # advance a *shared* stateful model (Gilbert-Elliott chain state)
            # past what this path actually sent.  The path therefore owns a
            # snapshot of the model taken at construction; callers that need
            # one chain threaded across several paths/sessions must use
            # ``drop_block_size=1`` (exact scalar semantics).
            import copy

            self._loss_model = copy.deepcopy(config.loss_model)
        else:
            self._loss_model = config.loss_model
        self._drop_block: list[bool] = []
        self._drop_pos = 0
        # Per-burst derived arrays memoised on the sizes array's identity:
        # fixed-bitrate senders offer the same (memoised) sizes array every
        # frame, so cumulative bytes and bit counts never change.  The held
        # reference keeps the array alive, so identity comparison stays sound.
        self._burst_memo: Optional[tuple] = None
        self._ser_scratch = np.empty(96)
        self._queue_bytes = 0
        # Time at which the transmitter finishes serialising the last queued packet.
        self._link_free_at = 0.0
        self.stats = PathStats()

    def _should_drop(self) -> bool:
        """Next drop decision, refilled from the loss model in blocks.

        With a block size of 1 this degenerates to the scalar per-packet
        path; either way the decision sequence for a given seed is identical
        because block sampling consumes the RNG stream in the same order.
        """
        if self._drop_block_size <= 1:
            return self._loss_model.should_drop(self._rng)
        pos = self._drop_pos
        if pos >= len(self._drop_block):
            self._drop_block_np = self._loss_model.sample_drops(
                self._rng, self._drop_block_size
            )
            self._drop_block = self._drop_block_np.tolist()
            pos = 0
        self._drop_pos = pos + 1
        return self._drop_block[pos]

    def _take_drops(self, n: int) -> np.ndarray:
        """Consume ``n`` consecutive drop decisions as a boolean array.

        Shares the refill buffer with :meth:`_should_drop`, so mixing block
        sends and per-packet sends (retransmissions) consumes the loss
        model's RNG stream exactly as ``n`` scalar calls would.
        """
        if self._drop_block_size <= 1:
            return np.fromiter(
                (self._loss_model.should_drop(self._rng) for _ in range(n)),
                dtype=bool,
                count=n,
            )
        pos = self._drop_pos
        block = self._drop_block_np
        if len(block) - pos >= n:
            self._drop_pos = pos + n
            return block[pos : pos + n]
        parts = [block[pos:]]
        need = n - (len(block) - pos)
        while need > 0:
            fresh = self._loss_model.sample_drops(self._rng, self._drop_block_size)
            take = min(need, len(fresh))
            parts.append(fresh[:take])
            if take < len(fresh):
                self._drop_block_np = fresh
                self._drop_pos = take
            else:
                self._drop_block_np = np.zeros(0, dtype=bool)
                self._drop_pos = 0
            need -= take
        # Keep the scalar consumer's list view in sync with the refill.
        self._drop_block = self._drop_block_np.tolist()
        if len(parts) == 1:
            return parts[0]
        return np.concatenate(parts)

    def _current_bandwidth(self, time: float) -> float:
        if self.config.bandwidth_trace is not None:
            return self.config.bandwidth_trace.rate_at(time)
        return self.config.bandwidth_bps

    def _drain_queue(self, now: float) -> None:
        """Release queued bytes whose serialisation finished by ``now``.

        The scalar path schedules one dequeue event per packet; in block
        mode the same releases happen lazily at the points where queue
        occupancy is actually read (sends), which are exactly the instants
        whose observations matter.
        """
        pending = self._pending_dequeue
        while pending:
            entry = pending[0]
            if len(entry) == 2:  # single packet: (finish, size)
                if entry[0] > now:
                    return
                self._queue_bytes -= entry[1]
                pending.popleft()
                continue
            finishes, cum_bytes, pos = entry
            if finishes[pos] > now:
                return
            if finishes[-1] <= now:  # whole chunk expired (the common case)
                self._queue_bytes -= int(cum_bytes[-1] - cum_bytes[pos])
                pending.popleft()
                continue
            idx = int(np.searchsorted(finishes, now, side="right"))
            self._queue_bytes -= int(cum_bytes[idx] - cum_bytes[pos])
            entry[2] = idx
            return

    def queueing_delay(self) -> float:
        """Current queueing delay a newly arriving packet would observe."""
        return max(0.0, self._link_free_at - self.loop.now)

    def send(self, packet: Packet) -> bool:
        """Offer a packet to the path.  Returns False when the packet is lost
        or dropped before delivery (the caller only learns through missing
        acknowledgements, as on a real network)."""
        self.stats.packets_offered += 1
        now = self.loop.now

        if self._should_drop():
            self.stats.packets_lost_random += 1
            return False

        if self._lazy_dequeue:
            self._drain_queue(now)
        if self._queue_bytes + packet.size_bytes > self.config.queue_capacity_bytes:
            self.stats.packets_dropped_queue += 1
            return False

        bandwidth = self._current_bandwidth(now)
        serialization = packet.size_bits / bandwidth
        start = max(now, self._link_free_at)
        finish = start + serialization
        self._link_free_at = finish
        self._queue_bytes += packet.size_bytes
        self.stats.max_queue_bytes = max(self.stats.max_queue_bytes, self._queue_bytes)

        jitter = 0.0
        if self.config.jitter_std_s > 0:
            jitter = abs(float(self._jitter_rng.normal(0.0, self.config.jitter_std_s)))
        arrival = finish + self.config.propagation_delay_s + jitter

        def _arrive() -> None:
            self.stats.packets_delivered += 1
            self.stats.bytes_delivered += packet.size_bytes
            self._deliver(packet, self.loop.now)

        if self._lazy_dequeue:
            self._pending_dequeue.append((finish, packet.size_bytes))
        else:

            def _dequeue() -> None:
                self._queue_bytes -= packet.size_bytes

            self.loop.schedule_at(finish, _dequeue)
        self.loop.schedule_at(arrival, _arrive)
        return True

    def send_block(self, sizes: np.ndarray, context: Any) -> None:
        """Offer one frame burst to the path, batched.

        Computes drop decisions, drop-tail admission, serialisation and
        jitter for the whole burst with numpy — consuming the loss-model and
        jitter RNG streams exactly as per-packet :meth:`send` calls would —
        and schedules **one** arrival event per contiguous delivered run
        (one per burst under jitter, whose reordering can interleave runs).
        Each event hands the run to the block-delivery callback as
        ``(context, offsets, arrival_times, bytes)``; per-packet arrival
        times are exact, so receiver bookkeeping keyed on them observes the
        same timeline as per-packet delivery.
        """
        n = len(sizes)
        if n == 0:
            return
        stats = self.stats
        stats.packets_offered += n
        now = self.loop.now

        drops = self._take_drops(n)
        lost = int(np.count_nonzero(drops))
        if lost:
            stats.packets_lost_random += lost
            keep = np.flatnonzero(~drops)
        else:
            keep = np.arange(n, dtype=np.int64)
        if not len(keep):
            return

        self._drain_queue(now)
        if lost:
            kept_sizes = sizes[keep]
            cum = np.cumsum(kept_sizes)
            bits = kept_sizes * 8
            pcum = None
        else:
            kept_sizes = sizes
            memo = self._burst_memo
            if memo is not None and memo[0] is sizes:
                _, cum, bits, pcum = memo
            else:
                cum = np.cumsum(sizes)
                bits = sizes * 8
                pcum = np.concatenate((np.zeros(1, dtype=np.int64), cum))
                self._burst_memo = (sizes, cum, bits, pcum)
        capacity = self.config.queue_capacity_bytes
        if self._queue_bytes + int(cum[-1]) > capacity:
            # Rare overflow: replicate per-packet drop-tail admission (a
            # rejected packet leaves the backlog unchanged, so later smaller
            # packets may still fit).
            admitted: list[int] = []
            backlog = self._queue_bytes
            for offset, size in zip(keep.tolist(), kept_sizes.tolist()):
                if backlog + size > capacity:
                    stats.packets_dropped_queue += 1
                else:
                    backlog += size
                    admitted.append(offset)
            if not admitted:
                return
            keep = np.array(admitted, dtype=np.int64)
            kept_sizes = sizes[keep]
            cum = np.cumsum(kept_sizes)
            bits = kept_sizes * 8
            pcum = None

        total_bytes = int(cum[-1])
        bandwidth = self._current_bandwidth(now)
        start = max(now, self._link_free_at)
        # ``sizes * 8`` stays exact in int64; the division then rounds
        # exactly like the scalar path's per-packet ``size_bits / bandwidth``
        # and the cumulative sum accumulates left-to-right exactly like its
        # sequential ``finish = finish + serialization``.
        kept_count = len(bits)
        scratch = self._ser_scratch
        if len(scratch) < kept_count + 1:
            self._ser_scratch = scratch = np.empty(2 * kept_count + 2)
        scratch[0] = start
        np.divide(bits, bandwidth, out=scratch[1 : kept_count + 1])
        finishes = scratch[: kept_count + 1].cumsum()[1:]
        self._link_free_at = float(finishes[-1])
        self._queue_bytes += total_bytes
        if self._queue_bytes > stats.max_queue_bytes:
            stats.max_queue_bytes = self._queue_bytes
        if pcum is None:
            pcum = np.concatenate((np.zeros(1, dtype=np.int64), cum))
        self._pending_dequeue.append([finishes, pcum, 0])

        arrivals = finishes + self.config.propagation_delay_s
        jittered = self.config.jitter_std_s > 0
        if jittered:
            arrivals = arrivals + np.abs(
                self._jitter_rng.normal(0.0, self.config.jitter_std_s, size=len(keep))
            )

        if jittered:
            # Reordered arrivals can interleave runs, so the whole burst is
            # one delivery unit at its earliest arrival.
            self._schedule_run(context, keep, arrivals, total_bytes, False)
        elif len(keep) != n:  # random losses and/or queue drops fragment the burst
            breaks = np.flatnonzero(np.diff(keep) > 1) + 1
            bounds = np.concatenate(([0], breaks, [len(keep)]))
            for a, b in zip(bounds[:-1].tolist(), bounds[1:].tolist()):
                self._schedule_run(
                    context,
                    keep[a:b],
                    arrivals[a:b],
                    int(cum[b - 1] - (cum[a - 1] if a else 0)),
                    True,
                )
        else:
            self._schedule_run(context, keep, arrivals, total_bytes, True)

    def _schedule_run(
        self, context: Any, offsets: np.ndarray, arrivals: np.ndarray, run_bytes: int, ordered: bool
    ) -> None:
        """One loop event delivers the whole run at its earliest arrival.

        Arrivals beyond the loop's current run horizon are *not* delivered
        by that event: the run splits and the remainder waits on its own
        event at its earliest arrival, which only fires if the simulation
        is driven further — exactly the portion per-packet scheduling would
        leave unexecuted at the horizon.
        """
        event_time = float(arrivals[0]) if ordered else float(np.min(arrivals))

        def _arrive_run() -> None:
            horizon = self.loop.horizon
            tail = float(arrivals[-1]) if ordered else float(np.max(arrivals))
            if tail <= horizon:
                self.stats.packets_delivered += len(offsets)
                self.stats.bytes_delivered += run_bytes
                self._deliver_block(context, offsets, arrivals, run_bytes, ordered)
                return
            within = arrivals <= horizon
            head = int(np.count_nonzero(within)) if ordered else within
            if ordered:
                head_offsets, head_arrivals = offsets[:head], arrivals[:head]
                rest_offsets, rest_arrivals = offsets[head:], arrivals[head:]
            else:
                head_offsets, head_arrivals = offsets[within], arrivals[within]
                rest_offsets, rest_arrivals = offsets[~within], arrivals[~within]
            sizes = np.fromiter(
                (context.packet_size(int(o)) for o in head_offsets),
                dtype=np.int64,
                count=len(head_offsets),
            )
            head_bytes = int(sizes.sum())
            if len(head_offsets):
                self.stats.packets_delivered += len(head_offsets)
                self.stats.bytes_delivered += head_bytes
                self._deliver_block(context, head_offsets, head_arrivals, head_bytes, ordered)
            self._schedule_run(
                context, rest_offsets, rest_arrivals, run_bytes - head_bytes, ordered
            )

        self.loop.schedule_at(event_time, _arrive_run)
