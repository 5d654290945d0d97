"""Packets and frame packetisation.

The paper observes (Section 2.2) that each packet carries roughly 1400 bytes
of payload, so higher bitrates mean more packets per frame, and with packet
loss the probability that a frame arrives complete in one attempt falls as
the packet count grows.  This module models exactly that: encoded frames are
split into MTU-sized packets with RTP-like sequencing metadata.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from enum import Enum
from typing import Iterable, Optional

import numpy as np

#: Default payload size used by the paper's prototype ("around 1400 bytes").
DEFAULT_MTU_BYTES = 1400

#: Extra margin after a frame's final packet (or a sequence gap) arrives
#: before the receiver first checks for missing packets.
NACK_CHECK_MARGIN_S = 0.005
#: Interval between successive NACK rounds (roughly one RTT in WebRTC).
NACK_RETRY_INTERVAL_S = 0.065
#: Retransmission rounds after which the receiver gives up on a frame.
MAX_NACK_ROUNDS = 20

#: Sequence slots tracked by :class:`SequenceWindow`.  At the default the
#: window spans several seconds of traffic even at high packet rates, far
#: beyond the NACK machinery's give-up horizon (``MAX_NACK_ROUNDS ×
#: NACK_RETRY_INTERVAL_S`` ≈ 1.3 s), so eviction only ever discards
#: sequences whose retransmission rounds are already exhausted.
DEFAULT_SEQUENCE_WINDOW = 4096


class PacketType(Enum):
    """Kinds of packets exchanged by the unidirectional video transport."""

    VIDEO = "video"
    RETRANSMISSION = "retransmission"
    FEC = "fec"
    NACK = "nack"
    ACK = "ack"
    REPLY = "reply"  # downlink audio/text tokens from the MLLM


@dataclass(slots=True)
class Packet:
    """A single transport packet.

    Attributes mirror what a WebRTC video RTP packet would carry: a global
    sequence number, the frame it belongs to, its index within the frame, and
    the capture timestamp (used by the MLLM positional encoding, which is why
    jitter does not matter for the receiver — Section 2.1).
    """

    sequence: int
    frame_id: int
    index_in_frame: int
    packets_in_frame: int
    size_bytes: int
    capture_time: float
    send_time: float = 0.0
    packet_type: PacketType = PacketType.VIDEO
    metadata: dict = field(default_factory=dict)

    @property
    def is_last_in_frame(self) -> bool:
        return self.index_in_frame == self.packets_in_frame - 1

    @property
    def size_bits(self) -> int:
        return self.size_bytes * 8


@dataclass(slots=True)
class NackRequest:
    """A receiver-to-sender request to retransmit specific packets of a frame."""

    frame_id: int
    missing_indices: tuple[int, ...]
    request_time: float
    size_bytes: int = 64


@dataclass(slots=True)
class SequenceNackRequest:
    """A retransmission request addressed by global sequence numbers.

    This is how WebRTC's transport-wide NACK works: the receiver detects gaps
    in the sequence-number space (which also catches frames whose packets were
    *all* lost, as soon as a later packet arrives) and asks the sender to
    resend those sequences.
    """

    missing_sequences: tuple[int, ...]
    request_time: float
    size_bytes: int = 64


class Packetizer:
    """Split encoded frames into MTU-sized packets with monotone sequencing."""

    def __init__(self, mtu_bytes: int = DEFAULT_MTU_BYTES) -> None:
        if mtu_bytes <= 0:
            raise ValueError(f"mtu_bytes must be positive, got {mtu_bytes}")
        self.mtu_bytes = int(mtu_bytes)
        self._next_sequence = 0
        self._sizes_memo_bytes = -1
        self._sizes_memo: Optional[np.ndarray] = None

    def packet_count_for(self, frame_bytes: int) -> int:
        """Number of packets needed to carry ``frame_bytes`` of payload."""
        if frame_bytes <= 0:
            return 1
        return max(1, math.ceil(frame_bytes / self.mtu_bytes))

    def packetize(
        self,
        frame_id: int,
        frame_bytes: int,
        capture_time: float,
        packet_type: PacketType = PacketType.VIDEO,
    ) -> list[Packet]:
        """Build the packet sequence for one encoded frame.

        The final packet carries the remainder so total bytes are preserved.
        """
        frame_bytes = max(1, int(frame_bytes))
        count = self.packet_count_for(frame_bytes)
        packets: list[Packet] = []
        remaining = frame_bytes
        for index in range(count):
            size = min(self.mtu_bytes, remaining)
            remaining -= size
            packets.append(
                Packet(
                    sequence=self._next_sequence,
                    frame_id=frame_id,
                    index_in_frame=index,
                    packets_in_frame=count,
                    size_bytes=size,
                    capture_time=capture_time,
                    packet_type=packet_type,
                )
            )
            self._next_sequence += 1
        return packets

    def packet_sizes(self, frame_bytes: int) -> np.ndarray:
        """Per-packet payload sizes for one frame, without building packets.

        Matches :meth:`packetize` exactly: every packet carries the MTU
        except the last, which carries the remainder.  Fixed-bitrate
        workloads ask for the same split every frame, so the last answer is
        memoised; treat the returned array as read-only.
        """
        frame_bytes = max(1, int(frame_bytes))
        if frame_bytes == self._sizes_memo_bytes:
            return self._sizes_memo
        count = self.packet_count_for(frame_bytes)
        sizes = np.full(count, self.mtu_bytes, dtype=np.int64)
        sizes[-1] = frame_bytes - (count - 1) * self.mtu_bytes
        self._sizes_memo_bytes = frame_bytes
        self._sizes_memo = sizes
        return sizes

    def allocate_sequences(self, count: int) -> int:
        """Reserve ``count`` consecutive sequence numbers; returns the first.

        The batched sender describes a frame burst as ``(first_sequence,
        count)`` instead of materialising one :class:`Packet` per sequence.
        """
        first = self._next_sequence
        self._next_sequence += int(count)
        return first

    def retransmission_copy(self, packet: Packet, request_time: float) -> Packet:
        """Create a retransmission packet for a previously sent packet.

        The copy keeps the original sequence number (RTX-style), so the
        receiver's gap accounting treats it as filling the original hole.
        """
        return Packet(
            sequence=packet.sequence,
            frame_id=packet.frame_id,
            index_in_frame=packet.index_in_frame,
            packets_in_frame=packet.packets_in_frame,
            size_bytes=packet.size_bytes,
            capture_time=packet.capture_time,
            packet_type=PacketType.RETRANSMISSION,
            metadata={"original_sequence": packet.sequence, "request_time": request_time},
        )


class FrameAssembler:
    """Receiver-side reassembly of frames from packets.

    Tracks, per frame, which packet indices have arrived and reports
    completion.  The frame transmission latency in Figure 3 is the time from
    the first packet's send time to the arrival of the last missing packet.
    """

    def __init__(self) -> None:
        self._received: dict[int, set[int]] = {}
        self._expected: dict[int, int] = {}
        self._first_send_time: dict[int, float] = {}
        self._complete_time: dict[int, float] = {}
        self._capture_time: dict[int, float] = {}
        self._bytes: dict[int, int] = {}

    def on_packet(self, packet: Packet, arrival_time: float) -> bool:
        """Register an arriving packet.  Returns True when its frame completes."""
        frame_id = packet.frame_id
        if frame_id not in self._received:
            self._received[frame_id] = set()
            self._expected[frame_id] = packet.packets_in_frame
            self._first_send_time[frame_id] = packet.send_time
            self._capture_time[frame_id] = packet.capture_time
            self._bytes[frame_id] = 0
        else:
            self._first_send_time[frame_id] = min(
                self._first_send_time[frame_id], packet.send_time
            )
        already_complete = frame_id in self._complete_time
        # A duplicate delivery (a retransmission racing an FEC recovery, or a
        # reordered original arriving after its parity stood in for it) must
        # not count its bytes against the frame twice.
        if packet.index_in_frame not in self._received[frame_id]:
            self._received[frame_id].add(packet.index_in_frame)
            self._bytes[frame_id] += packet.size_bytes
        if already_complete:
            return False
        if len(self._received[frame_id]) >= self._expected[frame_id]:
            self._complete_time[frame_id] = arrival_time
            return True
        return False

    def missing_indices(self, frame_id: int) -> tuple[int, ...]:
        """Indices of packets of ``frame_id`` not yet received."""
        if frame_id not in self._received:
            return ()
        expected = self._expected[frame_id]
        have = self._received[frame_id]
        return tuple(index for index in range(expected) if index not in have)

    def is_complete(self, frame_id: int) -> bool:
        return frame_id in self._complete_time

    def completion_time(self, frame_id: int) -> Optional[float]:
        return self._complete_time.get(frame_id)

    def capture_time(self, frame_id: int) -> Optional[float]:
        return self._capture_time.get(frame_id)

    def first_send_time(self, frame_id: int) -> Optional[float]:
        return self._first_send_time.get(frame_id)

    def received_bytes(self, frame_id: int) -> int:
        return self._bytes.get(frame_id, 0)

    def known_frames(self) -> Iterable[int]:
        return self._received.keys()


class SequenceWindow:
    """Ring-buffer bookkeeping of the receiver's sequence-number space.

    The scalar receiver mutates a ``set`` once per packet.  This window
    records whole delivered blocks instead: earliest arrival times live in a
    fixed ring array indexed by ``sequence % capacity`` (one vectorized
    slice write per run), while gap candidates — rare, a few per loss — live
    in a small dict of ``sequence -> [discovered_at, nack_rounds]`` so NACK
    scans touch only actual losses.

    All state is timestamped so queries are exact under batched delivery,
    where packets are *recorded* at a run's first arrival but *arrive*
    (semantically) at their own, possibly later, instants.  A sequence is a
    NACK-able gap at time ``T`` iff ``discovered[s] <= T < arrival[s]`` and
    ``rounds[s] < max_rounds``.  Tail losses (no higher sequence delivered
    yet) hold a +inf discovery until later traffic resolves them.

    When the highest tracked sequence advances past ``capacity``, old slots
    are evicted; any gap still unresolved there is abandoned (counted in
    ``evicted_gaps``).  With the default capacity that can only hit gaps
    whose retransmission rounds are long exhausted, so eviction never
    changes which NACKs are sent.
    """

    def __init__(self, capacity: int = DEFAULT_SEQUENCE_WINDOW) -> None:
        if capacity < 2:
            raise ValueError("capacity must be at least 2")
        self.capacity = int(capacity)
        self._arrival = np.full(self.capacity, np.inf)
        #: sequence -> [discovered_at, nack_rounds]
        self._gaps: dict[int, list] = {}
        self._lo = 0  # lowest sequence still tracked
        self._hi = -1  # highest sequence consumed into the window
        self._max_arrival = float("-inf")  # latest arrival instant recorded
        self.evicted_gaps = 0

    @property
    def lo(self) -> int:
        return self._lo

    @property
    def hi(self) -> int:
        return self._hi

    def _span_slots(self, start: int, stop: int) -> tuple[slice, ...]:
        """Ring slots covering sequences ``[start, stop)`` (<= 2 slices)."""
        if start >= stop:
            return ()
        a, b = start % self.capacity, (stop - 1) % self.capacity
        if b >= a:
            return (slice(a, b + 1),)
        return (slice(a, self.capacity), slice(0, b + 1))

    def _advance(self, new_hi: int) -> None:
        """Move the window head, evicting slots that fall off the tail."""
        if new_hi <= self._hi:
            return
        new_lo = new_hi - self.capacity + 1
        if new_lo > self._lo:
            if self._gaps:
                for sequence in [s for s in self._gaps if s < new_lo]:
                    del self._gaps[sequence]
                    if self._arrival[sequence % self.capacity] == np.inf:
                        self.evicted_gaps += 1
            cleared = min(new_lo, self._hi + 1)
            for span in self._span_slots(self._lo, cleared):
                self._arrival[span] = np.inf
            self._lo = new_lo
        # Slots for the newly-entered span are in their cleared (+inf)
        # state by invariant: spans only ever advance.
        self._hi = new_hi

    def _write_arrivals(self, start: int, stop: int, values: np.ndarray) -> None:
        """Write arrival times for the contiguous sequences [start, stop)."""
        offset = 0
        for span in self._span_slots(start, stop):
            width = span.stop - span.start
            self._arrival[span] = values[offset : offset + width]
            offset += width

    def _discover_below(self, limit: int, instant: float) -> float:
        """Mark every live sequence below ``limit`` still unarrived at
        ``instant`` as discovered-missing no later than ``instant``.

        A sequence is missing at ``instant`` exactly when some higher
        sequence has arrived by then while it has not — under reordering
        the discovering arrival can come from a *later burst* (or a
        retransmission), and even a *delivered* packet counts as missing
        while it is overtaken in flight.  Losses always hold a gap entry,
        so lowering their discovery is a pass over the (small) gap dict;
        overtaken deliveries need a vectorized sweep of the live span,
        skipped whenever ``instant`` is at or past every recorded arrival
        (always true without jitter, where arrivals are FIFO).  Returns
        ``instant`` when it newly discovers a still-unarrived sequence (the
        NACK chain should arm), else +inf.
        """
        armed = np.inf
        arrival = self._arrival
        capacity = self.capacity
        gaps = self._gaps
        for sequence, entry in gaps.items():
            if sequence < limit and entry[0] > instant:
                entry[0] = instant
                if armed == np.inf and arrival[sequence % capacity] > instant:
                    armed = instant
        if instant < self._max_arrival:
            # Some recorded arrival lies beyond ``instant``: sweep for
            # delivered packets below ``limit`` overtaken in flight.
            lo = self._lo
            if limit > lo:
                base = lo
                for span in self._span_slots(lo, limit):
                    hits = np.flatnonzero(self._arrival[span] > instant)
                    for offset in hits.tolist():
                        sequence = base + offset
                        entry = gaps.get(sequence)
                        if entry is None:
                            gaps[sequence] = [instant, 0]
                            if armed == np.inf:
                                armed = instant
                    base += span.stop - span.start
        return armed

    def _add_gap(self, sequence: int, discovered: float) -> None:
        entry = self._gaps.get(sequence)
        if entry is None:
            self._gaps[sequence] = [discovered, 0]
        elif discovered < entry[0]:
            entry[0] = discovered

    def record(
        self,
        first_sequence: int,
        count: int,
        delivered: np.ndarray,
        arrivals: np.ndarray,
        ordered: bool = True,
    ) -> float:
        """Record one delivery unit: sequences ``[first, first+count)`` were
        offered, the ``delivered`` offsets arrive at ``arrivals`` and the
        rest were dropped.  ``ordered`` asserts contiguous offsets with
        non-decreasing arrivals (the jitter-free case).

        Returns the earliest *newly-known* gap discovery time (``inf`` when
        the unit creates no resolvable gap), so the receiver can arm its
        NACK chain exactly when the scalar path would.
        """
        if count <= 0:
            return np.inf
        last = first_sequence + count - 1
        span_min = min(first_sequence, self._hi + 1)
        if ordered and len(delivered) == count:
            # In-order full run: slice-write the arrivals; a delivered
            # packet can only become a transient "gap" under reordering, so
            # no gap bookkeeping is needed for the run itself.
            stale = first_sequence <= self._hi  # span already consumed:
            # a later unit marked it wholly lost and retransmissions may
            # have filled slots, so merge minima instead of overwriting.
            self._advance(last)
            lo = self._lo
            start = first_sequence if first_sequence >= lo else lo
            if start <= last:
                slot = start % self.capacity
                width = last - start + 1
                values = arrivals[start - first_sequence :]
                if stale:
                    for span in self._span_slots(start, last + 1):
                        span_width = span.stop - span.start
                        np.minimum(
                            self._arrival[span],
                            values[: span_width],
                            out=self._arrival[span],
                        )
                        values = values[span_width:]
                elif slot + width <= self.capacity:  # no wrap (common case)
                    self._arrival[slot : slot + width] = values
                else:
                    self._write_arrivals(start, last + 1, values)
            first_new_discovery = np.inf
            min_arrival = float(arrivals[0])
            first_new_discovery = self._discover_below(first_sequence, min_arrival)
            last_arrival = float(arrivals[-1])
            if last_arrival > self._max_arrival:
                self._max_arrival = last_arrival
            if span_min < first_sequence:
                # Sequences skipped between the previous head and this run
                # (losses between runs, or whole lost bursts) become gaps
                # discovered at this run's first arrival.
                for sequence in range(max(span_min, lo), first_sequence):
                    self._gaps[sequence] = [min_arrival, 0]
                if first_new_discovery > min_arrival:
                    first_new_discovery = min_arrival
            return first_new_discovery
        stale = first_sequence <= self._hi
        self._advance(last)
        lo = self._lo
        first_new_discovery = np.inf
        min_arrival = float(np.min(arrivals)) if len(arrivals) else np.inf
        # Anything below this unit still in flight (or lost) at its
        # earliest arrival is discovered missing by it.
        if len(arrivals):
            first_new_discovery = self._discover_below(first_sequence, min_arrival)
            top = float(np.max(arrivals))
            if top > self._max_arrival:
                self._max_arrival = top
        # Per-offset discovery: the earliest arrival among delivered packets
        # at a *higher* offset (suffix minimum), +inf for the tail.
        offsets = np.asarray(delivered, dtype=np.int64)
        arr = np.asarray(arrivals, dtype=float)
        discovery = np.full(count, np.inf)
        if len(offsets):
            suffix = np.minimum.accumulate(arr[::-1])[::-1]
            boundaries = np.zeros(count, dtype=np.int64)
            boundaries[offsets] = 1
            # Index (into ``offsets``) of the first delivered offset at or
            # after each burst offset.
            idx_of_next = len(offsets) - np.cumsum(boundaries[::-1])[::-1]
            valid = idx_of_next < len(offsets)
            discovery[valid] = suffix[idx_of_next[valid]]
            # A delivered packet's own arrival does not discover itself: its
            # discovery is the earliest *strictly later-offset* arrival.
            if len(offsets) > 1:
                discovery[offsets[:-1]] = suffix[1:]
            discovery[offsets[-1]] = np.inf
            dseqs = first_sequence + offsets
            keep = dseqs >= lo
            dslots = dseqs[keep] % self.capacity
            if stale:
                # (fancy indexing copies, so in-place minima need .at)
                np.minimum.at(self._arrival, dslots, arr[keep])
            else:
                self._arrival[dslots] = arr[keep]
        # Gaps below this unit (sequences skipped since the previous
        # highest) are discovered by this unit's earliest arrival.
        if span_min < first_sequence:
            gap_lo = max(span_min, lo)
            if len(arrivals):
                for sequence in range(gap_lo, first_sequence):
                    self._add_gap(sequence, min_arrival)
                first_new_discovery = min(first_new_discovery, min_arrival)
            else:
                for sequence in range(gap_lo, first_sequence):
                    self._add_gap(sequence, np.inf)
        # Losses inside the unit: real discovery when a higher offset was
        # delivered, pending otherwise.
        lost_offsets = np.setdiff1d(np.arange(count, dtype=np.int64), offsets, assume_unique=True)
        for off in lost_offsets.tolist():
            disc = float(discovery[off])
            self._add_gap(first_sequence + off, disc)
            if disc < first_new_discovery:
                first_new_discovery = disc
        # Reordering makes a *delivered* packet a transient gap: a higher
        # offset lands first, so the receiver briefly counts it missing
        # during [discovery, arrival).  Those discoveries arm the NACK chain
        # exactly like real losses.
        if len(offsets):
            transient = discovery[offsets] < arr
            if transient.any():
                for off in offsets[transient].tolist():
                    self._add_gap(first_sequence + off, float(discovery[off]))
                first_new_discovery = min(
                    first_new_discovery, float(np.min(discovery[offsets][transient]))
                )
        return first_new_discovery

    def record_jump(self, sequence: int, arrival_time: float) -> float:
        """Record an out-of-band jump past the window head.

        Everything skipped over becomes a gap discovered at ``arrival_time``.
        Returns that discovery instant when a gap was created, else +inf.
        """
        skipped_from = self._hi + 1
        self._advance(sequence)
        self._arrival[sequence % self.capacity] = arrival_time
        created = sequence > skipped_from
        created = (self._discover_below(skipped_from, arrival_time) != np.inf) or created
        if arrival_time > self._max_arrival:
            self._max_arrival = arrival_time
        for skipped in range(max(skipped_from, self._lo), sequence):
            self._add_gap(skipped, arrival_time)
        return arrival_time if created else np.inf

    def record_single(self, sequence: int, arrival_time: float) -> float:
        """Record one individually delivered packet (e.g. a retransmission).

        Sequences that already fell off the window (a duplicate
        retransmission arriving after the window advanced) are ignored,
        exactly as the scalar path forgets sequences it gave up on.  Returns
        the discovery instant of any gap this arrival newly resolves or
        creates (+inf otherwise), so the caller can arm its NACK chain.
        """
        if sequence < self._lo:
            return np.inf
        if sequence > self._hi:
            return self.record_jump(sequence, arrival_time)
        slot = sequence % self.capacity
        if arrival_time < self._arrival[slot]:
            self._arrival[slot] = arrival_time
        if arrival_time > self._max_arrival:
            self._max_arrival = arrival_time
        return self._discover_below(sequence, arrival_time)

    def gaps_at(self, time: float, max_rounds: int) -> list[int]:
        """Sequences that are NACK-able gaps at ``time`` (ascending).

        Prunes dead candidates as a side effect: evicted sequences, gaps
        filled at or before ``time`` (arrivals only ever move earlier, so
        they can never be gaps again) and round-exhausted gaps.
        """
        if not self._gaps:
            return []
        arrival = self._arrival
        capacity = self.capacity
        lo = self._lo
        out: list[int] = []
        dead: list[int] = []
        for sequence, entry in self._gaps.items():
            if (
                sequence < lo
                or arrival[sequence % capacity] <= time
                or entry[1] >= max_rounds
            ):
                dead.append(sequence)
            elif entry[0] <= time:
                out.append(sequence)
        for sequence in dead:
            del self._gaps[sequence]
        out.sort()
        return out

    def bump_rounds(self, sequences) -> None:
        for sequence in sequences:
            entry = self._gaps.get(sequence)
            if entry is not None:
                entry[1] += 1

    def next_discovery_after(self, time: float, max_rounds: int) -> float:
        """Earliest future gap-discovery instant, +inf when there is none.

        Batched delivery can record a gap whose discovery lies ahead of the
        current NACK-chain tick; the chain re-arms for that instant instead
        of dying, which is exactly when the scalar path would restart it.
        """
        best = np.inf
        arrival = self._arrival
        capacity = self.capacity
        lo = self._lo
        for sequence, entry in self._gaps.items():
            discovered = entry[0]
            if (
                sequence >= lo
                and entry[1] < max_rounds
                and time < discovered < best
                and arrival[sequence % capacity] > discovered
            ):
                best = discovered
        return best


class _FrameSlot:
    """Array-backed reassembly state for one frame (fast-path counterpart of
    a :class:`FrameAssembler` entry)."""

    __slots__ = (
        "expected",
        "arrivals",
        "received",
        "bytes",
        "capture_time",
        "first_send_time",
        "complete_time",
        "finalize_at",
        "nack_rounds",
        "check_armed",
    )

    def __init__(self, expected: int, capture_time: float, first_send_time: float) -> None:
        self.expected = expected
        self.arrivals = np.full(expected, np.inf)
        self.received = 0
        self.bytes = 0
        self.capture_time = capture_time
        self.first_send_time = first_send_time
        self.complete_time: Optional[float] = None
        self.finalize_at: Optional[float] = None
        self.nack_rounds = 0
        self.check_armed = False

    def completion_instant(self) -> float:
        """The instant the frame (first) became complete: every packet index
        has arrived once the last of their earliest arrivals lands."""
        return float(np.max(self.arrivals))

    def complete_at(self, time: float) -> bool:
        if self.received < self.expected:
            return False
        return bool(np.max(self.arrivals) <= time)

    def missing_at(self, time: float) -> tuple[int, ...]:
        """Packet indices not yet arrived as of ``time``."""
        return tuple(np.flatnonzero(self.arrivals > time).tolist())


class FrameTable:
    """Per-frame received-state table for the batched receiver.

    Replaces the dict-of-sets :class:`FrameAssembler` on the fast path with
    one float array of earliest arrival times per frame; membership,
    missing-index and completion queries become vectorized comparisons that
    are exact *at any simulated instant*, which is what lets a whole
    delivered run be recorded at its first arrival without changing any
    observable timing.
    """

    def __init__(self) -> None:
        self._slots: dict[int, _FrameSlot] = {}

    def get(self, frame_id: int) -> Optional[_FrameSlot]:
        return self._slots.get(frame_id)

    def ensure(self, frame_id: int, expected: int, capture_time: float, send_time: float) -> _FrameSlot:
        slot = self._slots.get(frame_id)
        if slot is None:
            slot = _FrameSlot(expected, capture_time, send_time)
            self._slots[frame_id] = slot
        return slot

    def record_single(self, slot: _FrameSlot, offset: int, arrival_time: float, size_bytes: int) -> bool:
        """Record one packet; returns True when it fills a new hole."""
        known = slot.arrivals[offset]
        if arrival_time < known:
            slot.arrivals[offset] = arrival_time
        if not np.isinf(known):
            return False  # Duplicate: bytes must not count twice.
        slot.received += 1
        slot.bytes += size_bytes
        return True
