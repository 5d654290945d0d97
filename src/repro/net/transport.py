"""Unidirectional video transport with NACK-based retransmission.

This is the reproduction of the paper's prototype (Section 2.2): a
WebRTC-style transport that packetises each encoded frame, sends the packets
over an emulated uplink, and recovers losses with NACK-triggered
retransmissions over a feedback channel.  The statistic of interest is the
frame transmission latency — the time from a frame being sent to being
completely received — which Figure 3 sweeps against bitrate and loss rate.
"""

from __future__ import annotations

from bisect import bisect_right
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np

from .control import (
    REPORT_SIZE_BYTES,
    ControlAction,
    ReceiverReport,
    ReportCollector,
    SenderController,
    fec_group_size_for_overhead,
)
from .emulator import BernoulliLoss, EmulatedPath, PathConfig, fastpath_enabled
from .events import DeadlineScheduler, EventLoop
from .fec import FecConfig, FecEncoder, FecDecoder
from .packet import (
    MAX_NACK_ROUNDS,
    NACK_CHECK_MARGIN_S,
    NACK_RETRY_INTERVAL_S,
    FrameAssembler,
    FrameTable,
    NackRequest,
    Packet,
    Packetizer,
    PacketType,
    SequenceNackRequest,
    SequenceWindow,
)
from .stats import TransportStats
from repro.obs import NULL_TELEMETRY, Telemetry

#: Fixed bucket edges (seconds) for the per-frame delivery latency
#: histogram — fixed so the serialized stream is a pure function of the
#: observation sequence (see repro.obs.metrics.Histogram).
FRAME_LATENCY_BUCKETS_S = (0.02, 0.05, 0.1, 0.15, 0.2, 0.3, 0.5, 0.75, 1.0, 2.0)


@dataclass(slots=True)
class TransportConfig:
    """Configuration of the unidirectional video transport.

    Packet size and NACK timing are the module constants of
    :mod:`repro.net.packet` (``DEFAULT_MTU_BYTES``, ``NACK_*``,
    ``MAX_NACK_ROUNDS``).
    """

    enable_nack: bool = True
    #: Optional forward error correction applied per frame.
    fec: Optional[FecConfig] = None
    #: Interval between RTCP-style receiver reports on the feedback path;
    #: ``0`` disables report emission (the open-loop default).
    report_interval_s: float = 0.0


@dataclass(slots=True)
class BurstContext:
    """Sender-side description of one packetised frame burst.

    The batched hot path ships this instead of per-packet :class:`Packet`
    objects: packet ``i`` of the burst has sequence ``first_sequence + i``,
    carries the MTU except for the last packet's remainder, and shares the
    frame's capture/send times.
    """

    frame_id: int
    first_sequence: int
    count: int
    frame_bytes: int
    mtu_bytes: int
    capture_time: float
    send_time: float

    def packet_size(self, index: int) -> int:
        if index < self.count - 1:
            return self.mtu_bytes
        return self.frame_bytes - (self.count - 1) * self.mtu_bytes


@dataclass(slots=True)
class RetransmissionBatch:
    """All retransmissions answering one NACK request, sent as one burst.

    ``entries`` holds ``(burst_context, packet_index)`` pairs; packet ``i``
    of the batch retransmits ``entries[i]``.
    """

    entries: list[tuple[BurstContext, int]]
    send_time: float
    request_time: float

    def packet_size(self, index: int) -> int:
        context, packet_index = self.entries[index]
        return context.packet_size(packet_index)


@dataclass(slots=True)
class FrameDeliveryEvent:
    """Emitted by the receiver when a frame completes reassembly."""

    frame_id: int
    capture_time: float
    send_time: float
    complete_time: float
    size_bytes: int

    @property
    def transmission_latency(self) -> float:
        return self.complete_time - self.send_time


class VideoSender:
    """Sender half of the transport: packetises frames and serves NACKs."""

    def __init__(
        self,
        loop: EventLoop,
        uplink: EmulatedPath,
        config: TransportConfig,
        stats: TransportStats,
        block_mode: bool = False,
    ) -> None:
        if block_mode and config.fec is not None:
            raise ValueError("block mode sends no parity; FEC senders transmit per packet")
        self.loop = loop
        self.uplink = uplink
        self.config = config
        self.stats = stats
        self.packetizer = Packetizer()
        self._block_mode = block_mode
        self._sent_packets: dict[int, dict[int, Packet]] = {}
        self._packet_by_sequence: dict[int, Packet] = {}
        # Block-mode ledger: frames are (first_sequence, count, bytes,
        # capture_time) records; retransmission packets are materialised on
        # demand from a NACK instead of being held per packet.
        self._ledger: dict[int, BurstContext] = {}
        self._ledger_first_seqs: list[int] = []
        self._ledger_frame_ids: list[int] = []
        self._lookup_memo: Optional[BurstContext] = None
        self._last_retransmit_time: dict[int, float] = {}
        self._fec_encoder = FecEncoder(config.fec) if config.fec else None
        #: Latest controller-set target; ``None`` until an action arrives.
        #: Drivers derive frame sizes from this (see ``drive_fixed_bitrate``).
        self.target_bitrate_bps: Optional[float] = None
        self.bytes_sent = 0
        self.packets_sent = 0
        self.retransmissions_sent = 0

    def apply_action(self, action: ControlAction) -> None:
        """Apply one control decision: retarget bitrate and FEC redundancy.

        The FEC group size realising the requested overhead takes effect from
        the next frame; parity packets are self-describing (``covers`` /
        ``sizes`` metadata), so in-flight groups from the old size decode
        unchanged.
        """
        self.target_bitrate_bps = float(action.target_bitrate_bps)
        encoder = self._fec_encoder
        if encoder is not None and action.fec_overhead_ratio is not None:
            group_size = fec_group_size_for_overhead(action.fec_overhead_ratio)
            if group_size != encoder.config.group_size:
                encoder.config = FecConfig(group_size=group_size)

    def send_frame(self, frame_id: int, size_bytes: int, capture_time: float) -> list[Packet]:
        """Packetise and transmit one encoded frame.

        On the batched path the burst travels as arrays and the returned
        list is empty — no per-packet objects exist until a NACK asks for a
        retransmission.
        """
        now = self.loop.now
        if self._block_mode:
            frame_bytes = max(1, int(size_bytes))
            sizes = self.packetizer.packet_sizes(frame_bytes)
            count = len(sizes)
            first_sequence = self.packetizer.allocate_sequences(count)
            context = BurstContext(
                frame_id=frame_id,
                first_sequence=first_sequence,
                count=count,
                frame_bytes=frame_bytes,
                mtu_bytes=self.packetizer.mtu_bytes,
                capture_time=capture_time,
                send_time=now,
            )
            self._ledger[frame_id] = context
            self._ledger_first_seqs.append(first_sequence)
            self._ledger_frame_ids.append(frame_id)
            self.stats.register_frame(
                frame_id=frame_id,
                capture_time=capture_time,
                send_time=now,
                size_bytes=size_bytes,
                packet_count=count,
            )
            self.bytes_sent += frame_bytes
            self.packets_sent += count
            self.uplink.send_block(sizes, context)
            return []
        packets = self.packetizer.packetize(frame_id, size_bytes, capture_time)
        self._sent_packets[frame_id] = {p.index_in_frame: p for p in packets}
        for packet in packets:
            self._packet_by_sequence[packet.sequence] = packet
        self.stats.register_frame(
            frame_id=frame_id,
            capture_time=capture_time,
            send_time=now,
            size_bytes=size_bytes,
            packet_count=len(packets),
        )
        for packet in packets:
            self._transmit(packet)
        if self._fec_encoder is not None:
            for fec_packet in self._fec_encoder.protect(packets):
                self._transmit(fec_packet)
        return packets

    def _transmit(self, packet: Packet) -> None:
        packet.send_time = self.loop.now
        self.bytes_sent += packet.size_bytes
        self.packets_sent += 1
        self.uplink.send(packet)

    def _retransmit(self, original: Packet, request_time: float) -> bool:
        """Retransmit a packet unless it was resent very recently (dedup)."""
        if not self._claim_retransmission(original.sequence):
            return False
        copy = self.packetizer.retransmission_copy(original, request_time)
        self._transmit(copy)
        self.retransmissions_sent += 1
        return True

    def _claim_retransmission(self, sequence: int) -> bool:
        """Dedup gate: skip a sequence retransmitted very recently."""
        last = self._last_retransmit_time.get(sequence)
        if last is not None and self.loop.now - last < NACK_RETRY_INTERVAL_S / 2:
            return False
        self._last_retransmit_time[sequence] = self.loop.now
        return True

    def _send_batch(self, entries: list[tuple[BurstContext, int]], request_time: float) -> None:
        """Transmit one NACK request's retransmissions as a single burst."""
        now = self.loop.now
        size_list = [context.packet_size(index) for context, index in entries]
        sizes = np.array(size_list, dtype=np.int64)
        self.bytes_sent += sum(size_list)
        self.packets_sent += len(entries)
        self.retransmissions_sent += len(entries)
        self.uplink.send_block(
            sizes, RetransmissionBatch(entries=entries, send_time=now, request_time=request_time)
        )

    def _lookup_sequence(self, sequence: int) -> Optional[tuple[BurstContext, int]]:
        """Resolve a global sequence number to its (burst, index) in the ledger."""
        memo = self._lookup_memo
        if memo is not None and 0 <= sequence - memo.first_sequence < memo.count:
            return memo, sequence - memo.first_sequence
        position = bisect_right(self._ledger_first_seqs, sequence) - 1
        if position < 0:
            return None
        context = self._ledger.get(self._ledger_frame_ids[position])
        if context is None:  # forgotten frame
            return None
        index = sequence - context.first_sequence
        if index >= context.count:
            return None
        self._lookup_memo = context
        return context, index

    def on_nack(self, request: NackRequest) -> None:
        """Handle a per-frame NACK by retransmitting the missing packet indices."""
        if self._block_mode:
            context = self._ledger.get(request.frame_id)
            if context is None:
                return
            entries = [
                (context, index)
                for index in request.missing_indices
                if 0 <= index < context.count
                and self._claim_retransmission(context.first_sequence + index)
            ]
            if entries:
                self.stats.record_retransmission(request.frame_id, len(entries))
                self._send_batch(entries, request.request_time)
            return
        frame_packets = self._sent_packets.get(request.frame_id)
        if not frame_packets:
            return
        retransmitted = 0
        for index in request.missing_indices:
            original = frame_packets.get(index)
            if original is None:
                continue
            if self._retransmit(original, request.request_time):
                retransmitted += 1
        if retransmitted:
            self.stats.record_retransmission(request.frame_id, retransmitted)

    def on_sequence_nack(self, request: SequenceNackRequest) -> None:
        """Handle a sequence-number NACK (covers fully lost frames)."""
        retransmitted_by_frame: dict[int, int] = {}
        if self._block_mode:
            entries = []
            for sequence in request.missing_sequences:
                resolved = self._lookup_sequence(sequence)
                if resolved is None:
                    continue
                context, index = resolved
                if self._claim_retransmission(sequence):
                    entries.append(resolved)
                    retransmitted_by_frame[context.frame_id] = (
                        retransmitted_by_frame.get(context.frame_id, 0) + 1
                    )
            if entries:
                self._send_batch(entries, request.request_time)
        else:
            for sequence in request.missing_sequences:
                original = self._packet_by_sequence.get(sequence)
                if original is None:
                    continue
                if self._retransmit(original, request.request_time):
                    retransmitted_by_frame[original.frame_id] = (
                        retransmitted_by_frame.get(original.frame_id, 0) + 1
                    )
        for frame_id, count in retransmitted_by_frame.items():
            self.stats.record_retransmission(frame_id, count)


class VideoReceiver:
    """Receiver half of the transport: reassembles frames and issues NACKs."""

    def __init__(
        self,
        loop: EventLoop,
        config: TransportConfig,
        stats: TransportStats,
        send_nack: Callable[[NackRequest], None],
        on_frame: Optional[Callable[[FrameDeliveryEvent], None]] = None,
        send_sequence_nack: Optional[Callable[[SequenceNackRequest], None]] = None,
        send_report: Optional[Callable[[ReceiverReport], None]] = None,
    ) -> None:
        self.loop = loop
        self.config = config
        self.stats = stats
        self.assembler = FrameAssembler()
        # Batched-delivery bookkeeping: per-frame arrival-time arrays, a
        # ring-buffer sequence window, and every NACK/completion deadline
        # coalesced behind a single outstanding loop event.  All three are
        # keyed on exact per-packet arrival timestamps, so recording a whole
        # delivered run at its first arrival leaves every observable
        # statistic identical to per-packet delivery.
        self._table = FrameTable()
        self._window = SequenceWindow()
        self._deadlines = DeadlineScheduler(loop)
        self._seq_chain_pending = False
        self._send_nack = send_nack
        self._send_sequence_nack = send_sequence_nack
        self._on_frame = on_frame
        self._nack_rounds: dict[int, int] = {}
        self._check_scheduled: set[int] = set()
        self._fec_decoder = FecDecoder(config.fec) if config.fec else None
        self._fec_flush_scheduled: set[int] = set()
        self.delivered_frames: list[FrameDeliveryEvent] = []
        # Sequence-gap tracking (covers frames whose packets were all lost).
        # ``_missing_sequences`` holds sequences observed as gaps and not yet received.
        self._missing_sequences: set[int] = set()
        self._highest_sequence: int = -1
        self._missing_sequence_rounds: dict[int, int] = {}
        self._sequence_check_pending = False
        # RTCP-style receiver reports: raw wire-packet samples recorded by
        # whichever delivery mode is active, aggregated on the absolute
        # report-interval grid by the shared DeadlineScheduler so report
        # timing and contents are bit-identical across modes.
        self._send_report = send_report
        self._reports = (
            ReportCollector(config.report_interval_s)
            if send_report is not None and config.report_interval_s > 0
            else None
        )

    # --- receiver reports --------------------------------------------------

    def _report_record(
        self, arrival_time: float, send_time: float, size_bytes: int, sequence: int
    ) -> None:
        """Record one wire packet, (re)arming the report chain if dormant.

        ``sequence`` is the video-space sequence, or -1 for packets outside
        that space (FEC parity), which count towards rate and delay only.
        """
        armed = self._reports.record(arrival_time, send_time, size_bytes, sequence)
        if armed is not None:
            tick, deadline = armed
            # tie_time: the scalar path arms this chain while processing the
            # recorded packet, i.e. at that packet's arrival.
            self._deadlines.schedule_at(
                deadline,
                lambda: self._report_fire(tick),
                tie_time=arrival_time,
                priority=2,
            )

    def _report_fire(self, tick: int) -> None:
        report, armed = self._reports.collect(self.loop.now, tick)
        if armed is not None:
            next_tick, deadline = armed
            self._deadlines.schedule_at(
                deadline, lambda: self._report_fire(next_tick), priority=2
            )
        if report is not None:
            self._send_report(report)

    def on_packet(self, packet: Packet, arrival_time: float) -> None:
        if self._reports is not None:
            self._report_record(
                arrival_time,
                packet.send_time,
                packet.size_bytes,
                -1 if packet.packet_type == PacketType.FEC else packet.sequence,
            )
        if packet.packet_type == PacketType.FEC:
            recovered = None
            if self._fec_decoder is not None:
                recovered = self._fec_decoder.on_fec_packet(packet, self.assembler)
                self._maybe_schedule_fec_flush(packet.frame_id)
            if recovered:
                for data_packet in recovered:
                    self._accept(data_packet, arrival_time)
            return
        recovered: list[Packet] = []
        if self._fec_decoder is not None:
            # Recording the packet may let previously-pending parity repair
            # the remaining hole in its group.
            recovered = self._fec_decoder.on_data_packet(packet, self.assembler)
        self._accept(packet, arrival_time)
        for data_packet in recovered:
            self._accept(data_packet, arrival_time)
        if self._fec_decoder is not None:
            self._maybe_schedule_fec_flush(packet.frame_id)

    def _maybe_schedule_fec_flush(self, frame_id: int) -> None:
        """Arrange a deferred retry for parity held without loss evidence.

        Pending parity is normally retried when a later packet arrives, but
        for a frame at the tail of a burst (or of the session) no later
        packet may ever come.  After roughly one NACK interval any reordered
        in-flight packet has landed, so remaining holes can be presumed lost
        and the parity flushed.
        """
        if not self._fec_decoder.has_pending(frame_id):
            return
        if frame_id in self._fec_flush_scheduled:
            return
        self._fec_flush_scheduled.add(frame_id)
        self.loop.schedule(
            NACK_RETRY_INTERVAL_S, lambda: self._flush_fec(frame_id)
        )

    def _flush_fec(self, frame_id: int) -> None:
        self._fec_flush_scheduled.discard(frame_id)
        if self._fec_decoder is None or self.assembler.is_complete(frame_id):
            return
        for packet in self._fec_decoder.flush_frame(frame_id, self.assembler):
            self._accept(packet, self.loop.now)

    def _accept(self, packet: Packet, arrival_time: float) -> None:
        self._track_sequence(packet)
        frame_id = packet.frame_id
        completed = self.assembler.on_packet(packet, arrival_time)
        if completed:
            self._complete_frame(frame_id, arrival_time)
        elif (
            self.config.enable_nack
            and packet.is_last_in_frame
            and frame_id not in self._check_scheduled
        ):
            # Only once the frame's final packet has arrived do we know the
            # remaining holes are losses rather than packets still in flight.
            self._check_scheduled.add(frame_id)
            self.loop.schedule(NACK_CHECK_MARGIN_S, lambda: self._check_frame(frame_id))

    def _complete_frame(self, frame_id: int, complete_time: float) -> None:
        self.stats.record_completion(frame_id, complete_time)
        if self._fec_decoder is not None:
            self._fec_decoder.on_frame_complete(frame_id)
        event = FrameDeliveryEvent(
            frame_id=frame_id,
            capture_time=self.assembler.capture_time(frame_id),
            send_time=self.assembler.first_send_time(frame_id),
            complete_time=complete_time,
            size_bytes=self.assembler.received_bytes(frame_id),
        )
        self.delivered_frames.append(event)
        if self._on_frame is not None:
            self._on_frame(event)

    def _check_frame(self, frame_id: int) -> None:
        """Periodic per-frame check: request whatever is still missing."""
        if self.assembler.is_complete(frame_id):
            return
        missing = self.assembler.missing_indices(frame_id)
        if not missing:
            return
        rounds = self._nack_rounds.get(frame_id, 0)
        if rounds >= MAX_NACK_ROUNDS:
            return
        self._nack_rounds[frame_id] = rounds + 1
        request = NackRequest(
            frame_id=frame_id,
            missing_indices=missing,
            request_time=self.loop.now,
        )
        self._send_nack(request)
        self.loop.schedule(NACK_RETRY_INTERVAL_S, lambda: self._check_frame(frame_id))

    # --- batched delivery (fast path) ------------------------------------

    def on_block(
        self,
        context: BurstContext,
        offsets: np.ndarray,
        arrivals: np.ndarray,
        run_bytes: int,
        ordered: bool = True,
    ) -> None:
        """Record one delivered run of a frame burst.

        Runs are handed over at their *first* arrival with exact per-packet
        arrival times; every decision below keys on those timestamps (never
        on ``loop.now``), and timers are armed at absolute instants, so the
        NACK/completion timeline matches per-packet delivery bit-for-bit.
        """
        config = self.config
        if self._reports is not None:
            # Per-sample recording keyed on exact arrival timestamps; the
            # collector's tick guard tolerates unordered runs recording out
            # of arrival order, so no sort is needed here.
            first_sequence = context.first_sequence
            send_time = context.send_time
            for offset, arrival in zip(offsets.tolist(), arrivals.tolist()):
                self._report_record(
                    arrival, send_time, context.packet_size(offset), first_sequence + offset
                )
        # The window records the span this run actually covers (losses
        # between runs surface as the sequence jump when the next run, or a
        # later burst, records) — runs of one burst must not re-initialise
        # each other's slots.
        base = int(offsets[0])
        last_offset = int(offsets[-1])
        first_discovery = self._window.record(
            context.first_sequence + base,
            last_offset - base + 1,
            offsets - base,
            arrivals,
            ordered,
        )
        if first_discovery != np.inf:
            self._arm_sequence_chain(first_discovery)

        slot = self._table.ensure(
            context.frame_id, context.count, context.capture_time, context.send_time
        )
        fresh = slot.received == 0
        if not fresh:
            view = (
                slot.arrivals[base : last_offset + 1] if ordered else slot.arrivals[offsets]
            )
            fresh = bool(np.isinf(view).all())
        if fresh:
            if ordered:
                slot.arrivals[base : last_offset + 1] = arrivals
            else:
                slot.arrivals[offsets] = arrivals
            slot.received += len(offsets)
            slot.bytes += run_bytes
        else:
            # Rare out-of-order recording: an extreme reorder let NACKed
            # retransmissions record before this run's event fired.  Merge
            # per packet with the duplicate guard so received/bytes stay
            # exact and arrivals keep their minima.
            for offset, arrival in zip(offsets.tolist(), arrivals.tolist()):
                self._table.record_single(
                    slot, offset, arrival, context.packet_size(offset)
                )

        complete_now = slot.received >= slot.expected
        if complete_now and slot.complete_time is None and slot.finalize_at is None:
            completion = float(arrivals[-1]) if ordered else slot.completion_instant()
            self._finish_frame(context.frame_id, slot, completion, final=ordered)
        if config.enable_nack and not slot.check_armed and last_offset == context.count - 1:
            # The frame's final packet tells the receiver the remaining
            # holes are losses; arm the check only if the frame was still
            # incomplete at that packet's own arrival instant.  Under
            # reordering a burst that eventually completes can still arm the
            # check (a straggler was in flight when the final *index*
            # landed) — the scalar path does exactly that.
            if ordered:
                t_last = float(arrivals[-1])
                incomplete_then = not complete_now  # in-order: processed last
            else:
                t_last = float(arrivals[np.flatnonzero(offsets == context.count - 1)[0]])
                incomplete_then = int(np.count_nonzero(slot.arrivals <= t_last)) < slot.expected
            if incomplete_then:
                slot.check_armed = True
                # tie_time: the scalar path arms this check while processing
                # the frame's final packet, i.e. at that packet's arrival.
                self._deadlines.schedule_at(
                    t_last + NACK_CHECK_MARGIN_S,
                    lambda frame_id=context.frame_id: self._frame_check_fire(frame_id),
                    tie_time=t_last,
                    priority=1,
                )

    def _arm_sequence_chain(self, discovery: float) -> None:
        """Start the coalesced sequence-NACK chain at ``discovery`` + margin
        (the instant the scalar path arms its own chain)."""
        if (
            discovery != np.inf
            and self.config.enable_nack
            and self._send_sequence_nack is not None
            and not self._seq_chain_pending
        ):
            self._seq_chain_pending = True
            # tie_time: the scalar path arms its chain while processing the
            # discovering packet, i.e. at the discovery instant.
            self._deadlines.schedule_at(
                discovery + NACK_CHECK_MARGIN_S,
                self._sequence_chain_fire,
                tie_time=discovery,
            )

    def on_retransmission_block(
        self,
        batch: "RetransmissionBatch",
        offsets: np.ndarray,
        arrivals: np.ndarray,
        run_bytes: int,
        ordered: bool,
    ) -> None:
        """Record one delivered run of a retransmission batch.

        A NACK request's retransmissions travel as one burst through
        :meth:`EmulatedPath.send_block`; each surviving packet is recorded
        with its exact arrival time, so this is observationally identical to
        per-packet delivery.
        """
        entries = batch.entries
        for offset, arrival in zip(offsets.tolist(), arrivals.tolist()):
            context, index = entries[offset]
            self._record_single_delivery(
                frame_id=context.frame_id,
                expected=context.count,
                index=index,
                sequence=context.first_sequence + index,
                size_bytes=context.packet_size(index),
                capture_time=context.capture_time,
                send_time=batch.send_time,
                arrival_time=arrival,
            )

    def _record_single_delivery(
        self,
        frame_id: int,
        expected: int,
        index: int,
        sequence: int,
        size_bytes: int,
        capture_time: float,
        send_time: float,
        arrival_time: float,
    ) -> None:
        if self._reports is not None:
            self._report_record(arrival_time, send_time, size_bytes, sequence)
        if sequence >= 0:
            discovery = self._window.record_single(sequence, arrival_time)
            if discovery != np.inf:
                self._arm_sequence_chain(discovery)
        slot = self._table.get(frame_id)
        if slot is None:
            slot = self._table.ensure(frame_id, expected, capture_time, send_time)
        elif send_time < slot.first_send_time:
            slot.first_send_time = send_time
        filled_hole = self._table.record_single(slot, index, arrival_time, size_bytes)
        completed_now = False
        if filled_hole and slot.received >= slot.expected and slot.complete_time is None:
            completion = slot.completion_instant()
            # "Completed by this packet" is judged at its arrival instant
            # (that is what suppresses the scalar path's check arming)...
            completed_now = completion <= arrival_time
            # ...but the *recorded* instant is only final once it is in the
            # simulated past: a batch processed later can still carry an
            # earlier arrival for some index (a retransmission racing a
            # reordered in-flight original) and lower it.  Future-dated
            # completions defer to a loop event that re-derives the instant.
            if completion <= self.loop.now:
                self._record_completion(frame_id, slot, completion)
            elif slot.finalize_at is None or completion < slot.finalize_at:
                self._finish_frame(frame_id, slot, completion, final=False)
        if (
            not completed_now
            and self.config.enable_nack
            and index == expected - 1
            and not slot.check_armed
        ):
            slot.check_armed = True
            self._deadlines.schedule_at(
                arrival_time + NACK_CHECK_MARGIN_S,
                lambda: self._frame_check_fire(frame_id),
                tie_time=arrival_time,
                priority=1,
            )

    def _finish_frame(self, frame_id: int, slot, completion: float, final: bool) -> None:
        """Record a completion, deferring when the instant could still move.

        ``final`` asserts the completion instant can no longer be lowered (a
        jitter-reordered original racing a retransmission is the only thing
        that can lower it).  Recording early keeps every statistic exact —
        the *value* is the exact instant — but the ``on_frame`` callback
        must still observe it at the right simulated time, so a registered
        callback always defers to a loop event at the completion instant.
        """
        if final and (self._on_frame is None or completion <= self.loop.now):
            self._record_completion(frame_id, slot, completion)
            return
        slot.finalize_at = completion
        self.loop.schedule_at(
            completion, lambda: self._finalize_frame(frame_id)
        )

    def _finalize_frame(self, frame_id: int) -> None:
        slot = self._table.get(frame_id)
        if slot is None or slot.complete_time is not None:
            return
        # Re-derive the completion instant: a retransmission racing a
        # reordered in-flight original can only have moved it earlier.
        self._record_completion(frame_id, slot, slot.completion_instant())

    def _record_completion(self, frame_id: int, slot, complete_time: float) -> None:
        slot.complete_time = complete_time
        self.stats.record_completion(frame_id, complete_time)
        event = FrameDeliveryEvent(
            frame_id=frame_id,
            capture_time=slot.capture_time,
            send_time=slot.first_send_time,
            complete_time=complete_time,
            size_bytes=slot.bytes,
        )
        self.delivered_frames.append(event)
        if self._on_frame is not None:
            self._on_frame(event)

    def _frame_check_fire(self, frame_id: int) -> None:
        """Deadline-driven twin of :meth:`_check_frame` over the frame table."""
        now = self.loop.now
        slot = self._table.get(frame_id)
        if slot is None or slot.complete_at(now):
            return
        missing = slot.missing_at(now)
        if not missing:
            return
        if slot.nack_rounds >= MAX_NACK_ROUNDS:
            return
        slot.nack_rounds += 1
        self._send_nack(
            NackRequest(frame_id=frame_id, missing_indices=missing, request_time=now)
        )
        self._deadlines.schedule_at(
            now + NACK_RETRY_INTERVAL_S,
            lambda: self._frame_check_fire(frame_id),
            priority=1,
        )

    def _sequence_chain_fire(self) -> None:
        """Deadline-driven twin of :meth:`_check_sequences` over the window."""
        self._seq_chain_pending = False
        now = self.loop.now
        max_rounds = MAX_NACK_ROUNDS
        gaps = self._window.gaps_at(now, max_rounds)
        if not len(gaps):
            # Batched recording can know of gaps whose discovery instant is
            # still ahead; re-arm for that instant — exactly when the scalar
            # path would restart its chain.
            upcoming = self._window.next_discovery_after(now, max_rounds)
            if upcoming != np.inf:
                self._seq_chain_pending = True
                # tie_time: the scalar path would restart its chain while
                # processing the packet arriving at the discovery instant.
                self._deadlines.schedule_at(
                    upcoming + NACK_CHECK_MARGIN_S,
                    self._sequence_chain_fire,
                    tie_time=upcoming,
                )
            return
        self._window.bump_rounds(gaps)
        request = SequenceNackRequest(
            missing_sequences=tuple(gaps),
            request_time=now,
        )
        if self._send_sequence_nack is not None:
            self._send_sequence_nack(request)
        self._seq_chain_pending = True
        self._deadlines.schedule_at(
            now + NACK_RETRY_INTERVAL_S, self._sequence_chain_fire
        )

    # --- sequence-gap detection ------------------------------------------

    def _track_sequence(self, packet: Packet) -> None:
        """Record a received sequence number and arm gap detection."""
        if packet.sequence < 0:
            return
        self._missing_sequences.discard(packet.sequence)
        self._missing_sequence_rounds.pop(packet.sequence, None)
        if packet.sequence > self._highest_sequence:
            # Every sequence skipped over is a new gap candidate.
            for sequence in range(self._highest_sequence + 1, packet.sequence):
                self._missing_sequences.add(sequence)
                self._missing_sequence_rounds.setdefault(sequence, 0)
            self._highest_sequence = packet.sequence
        if not self.config.enable_nack or self._send_sequence_nack is None:
            return
        # Arm the check chain only when a NACK-able gap exists right now.
        # This pins arming instants to gap-discovery instants, which is what
        # lets the batched path reproduce this chain's timing exactly.  It
        # is a (deliberate) semantic refinement over arming on the raw
        # missing set: previously, round-exhausted leftovers armed no-op
        # checks, and a fresh gap discovered within one check margin of
        # such an arming would ride it and be NACKed up to one margin
        # earlier than its own discovery would schedule.
        if (
            self._missing_sequences
            and not self._sequence_check_pending
            and self._sequence_gaps()
        ):
            self._sequence_check_pending = True
            self.loop.schedule(NACK_CHECK_MARGIN_S, self._check_sequences)

    def _sequence_gaps(self) -> list[int]:
        """Sequence numbers below the highest seen that have not arrived."""
        return sorted(
            sequence
            for sequence in self._missing_sequences
            if self._missing_sequence_rounds.get(sequence, 0) < MAX_NACK_ROUNDS
        )

    def _check_sequences(self) -> None:
        self._sequence_check_pending = False
        gaps = self._sequence_gaps()
        if not gaps:
            return
        for sequence in gaps:
            self._missing_sequence_rounds[sequence] = (
                self._missing_sequence_rounds.get(sequence, 0) + 1
            )
        request = SequenceNackRequest(
            missing_sequences=tuple(gaps),
            request_time=self.loop.now,
        )
        if self._send_sequence_nack is not None:
            self._send_sequence_nack(request)
        self._sequence_check_pending = True
        self.loop.schedule(NACK_RETRY_INTERVAL_S, self._check_sequences)


class VideoTransportSession:
    """A complete sender/receiver pair over an emulated uplink and feedback path.

    The feedback path carries NACKs — and, when ``report_interval_s`` is set,
    RTCP-style receiver reports — from the receiver back to the sender with
    its own propagation delay (the downlink in the paper's asymmetric setup).
    An optional :class:`SenderController` closes the loop: each report that
    survives the feedback path becomes a :class:`ControlAction` applied to
    the sender (target bitrate and FEC redundancy), logged in
    ``control_log`` as ``(apply_time, action)`` pairs.
    """

    def __init__(
        self,
        uplink_config: Optional[PathConfig] = None,
        feedback_config: Optional[PathConfig] = None,
        transport_config: Optional[TransportConfig] = None,
        on_frame: Optional[Callable[[FrameDeliveryEvent], None]] = None,
        controller: Optional[SenderController] = None,
        telemetry: Optional[Telemetry] = None,
    ) -> None:
        self.loop = EventLoop()
        self.transport_config = transport_config or TransportConfig()
        self.stats = TransportStats()

        # Telemetry is strictly opt-in: the default NULL_TELEMETRY hands out
        # no-op instruments, so the increments below cost one method call and
        # the session's behaviour is unchanged (gated in tests).
        # Counters are incremented only at points that are bit-identical
        # across the scalar and batched delivery paths; the bulk counters are
        # published from final stats by finalize_telemetry().
        self.telemetry = telemetry if telemetry is not None else NULL_TELEMETRY
        self._m_nacks = self.telemetry.metrics.counter("net.session.nacks_sent")
        self._m_reports = self.telemetry.metrics.counter("net.session.reports_received")
        self._m_actions = self.telemetry.metrics.counter("net.session.controller_actions")
        self._telemetry_finalized = False
        # The per-session span runs on sim-time; its attributes carry only
        # mode-independent facts so the serialized stream stays identical
        # under REPRO_NET_FASTPATH=0/1.
        self._session_span = self.telemetry.trace.start(
            "net.session",
            self.loop.now,
            clock="sim",
            fec=(self.transport_config.fec is not None),
            controller=(controller is not None),
        )

        uplink_config = uplink_config or PathConfig()
        feedback_config = feedback_config or PathConfig(
            bandwidth_bps=uplink_config.bandwidth_bps,
            propagation_delay_s=uplink_config.propagation_delay_s,
            loss_model=BernoulliLoss(0.0),
            seed=uplink_config.seed + 1,
        )

        # Batched block delivery carries frame bursts as arrays end-to-end.
        # FEC sessions always take the per-packet reference path (still with
        # the per-decision fast path: block drop sampling and bisect trace
        # lookups): parity decode decisions are order-coupled to
        # individual arrivals in ways run-granular recording does not
        # reproduce (see docs/PERFORMANCE.md for the contract).
        self.block_mode = fastpath_enabled() and self.transport_config.fec is None

        self.uplink = EmulatedPath(
            self.loop,
            uplink_config,
            self._deliver_uplink,
            deliver_block=self._deliver_uplink_block if self.block_mode else None,
        )
        self.feedback = EmulatedPath(
            self.loop,
            feedback_config,
            self._deliver_feedback,
            lazy_dequeue=self.block_mode or None,
        )

        self.receiver = VideoReceiver(
            self.loop,
            self.transport_config,
            self.stats,
            send_nack=self._queue_nack,
            on_frame=on_frame,
            send_sequence_nack=self._queue_sequence_nack,
            send_report=self._queue_report,
        )
        self.sender = VideoSender(
            self.loop,
            self.uplink,
            self.transport_config,
            self.stats,
            block_mode=self.block_mode,
        )
        self._nack_sequence = 0
        self.controller = controller
        #: ``(apply_time, action)`` pairs in application order.
        self.control_log: list[tuple[float, ControlAction]] = []
        self.reports_received = 0
        if controller is not None:
            self._apply_action(controller.initial_action())

    # --- wiring ---------------------------------------------------------

    def _deliver_uplink(self, packet: Packet, arrival_time: float) -> None:
        self.receiver.on_packet(packet, arrival_time)

    def _deliver_uplink_block(
        self,
        context,
        offsets: np.ndarray,
        arrivals: np.ndarray,
        run_bytes: int,
        ordered: bool,
    ) -> None:
        if type(context) is BurstContext:
            self.receiver.on_block(context, offsets, arrivals, run_bytes, ordered)
        else:
            self.receiver.on_retransmission_block(context, offsets, arrivals, run_bytes, ordered)

    def _queue_nack(self, request: NackRequest) -> None:
        packet = Packet(
            sequence=self._nack_sequence,
            frame_id=request.frame_id,
            index_in_frame=0,
            packets_in_frame=1,
            size_bytes=request.size_bytes,
            capture_time=request.request_time,
            send_time=self.loop.now,
            packet_type=PacketType.NACK,
            metadata={"request": request},
        )
        self._nack_sequence += 1
        self._m_nacks.inc()
        self.feedback.send(packet)

    def _queue_sequence_nack(self, request: SequenceNackRequest) -> None:
        packet = Packet(
            sequence=self._nack_sequence,
            frame_id=-1,
            index_in_frame=0,
            packets_in_frame=1,
            size_bytes=request.size_bytes,
            capture_time=request.request_time,
            send_time=self.loop.now,
            packet_type=PacketType.NACK,
            metadata={"request": request},
        )
        self._nack_sequence += 1
        self._m_nacks.inc()
        self.feedback.send(packet)

    def _queue_report(self, report: ReceiverReport) -> None:
        """Put one receiver report on the feedback path (RTCP RR analogue).

        Reports share the NACK packets' feedback sequence space and are
        subject to the same loss/jitter, so they can arrive late, reordered,
        or not at all — the controller sees exactly what the wire delivers.
        """
        packet = Packet(
            sequence=self._nack_sequence,
            frame_id=-1,
            index_in_frame=0,
            packets_in_frame=1,
            size_bytes=REPORT_SIZE_BYTES,
            capture_time=report.report_time,
            send_time=self.loop.now,
            packet_type=PacketType.ACK,
            metadata={"report": report},
        )
        self._nack_sequence += 1
        self.feedback.send(packet)

    def _apply_action(self, action: ControlAction) -> None:
        self.control_log.append((self.loop.now, action))
        self._m_actions.inc()
        self.sender.apply_action(action)

    def _deliver_feedback(self, packet: Packet, arrival_time: float) -> None:
        request = packet.metadata.get("request")
        if isinstance(request, NackRequest):
            self.sender.on_nack(request)
            return
        if isinstance(request, SequenceNackRequest):
            self.sender.on_sequence_nack(request)
            return
        report = packet.metadata.get("report")
        if report is not None:
            self.reports_received += 1
            self._m_reports.inc()
            if self.controller is not None:
                self._apply_action(self.controller.on_report(report, self.loop.now))

    # --- driving --------------------------------------------------------

    def send_frame(self, frame_id: int, size_bytes: int, capture_time: Optional[float] = None) -> None:
        capture = self.loop.now if capture_time is None else capture_time
        self.sender.send_frame(frame_id, size_bytes, capture)

    def run(self, until: Optional[float] = None) -> None:
        if until is None:
            self.loop.run_until_idle()
        else:
            self.loop.run(until=until)

    def fec_summary(self) -> dict[str, int]:
        """Decoder-side FEC counters (all zero when FEC is disabled)."""
        decoder = self.receiver._fec_decoder
        if decoder is None:
            return {
                "recovered_packets": 0,
                "spurious_recoveries": 0,
                "pending_parity_frames": 0,
            }
        return {
            "recovered_packets": decoder.recovered_packets,
            "spurious_recoveries": decoder.spurious_recoveries,
            "pending_parity_frames": decoder.pending_parity_frames,
        }

    def finalize_telemetry(self) -> None:
        """Close the per-session span and publish the end-of-run counters.

        Idempotent, and a no-op when telemetry is disabled.  Every value
        read here — sender counters, path counters, per-frame latencies,
        FEC recovery counts — is bit-identical across the scalar and
        batched delivery paths (held by the stats-equivalence gates), so
        the serialized telemetry stream is bit-identical too; the
        equivalence gate checks that directly (``telemetry_stream_identical``).
        """
        telemetry = self.telemetry
        if not telemetry.enabled or self._telemetry_finalized:
            return
        self._telemetry_finalized = True
        metrics = telemetry.metrics
        frames = self.stats.frames
        metrics.counter("net.session.frames_sent").inc(len(frames))
        metrics.counter("net.session.packets_sent").inc(self.sender.packets_sent)
        metrics.counter("net.session.bytes_sent").inc(self.sender.bytes_sent)
        metrics.counter("net.session.retransmissions_sent").inc(
            self.sender.retransmissions_sent
        )
        path = self.uplink.stats
        metrics.counter("net.session.packets_dropped").inc(
            path.packets_lost_random + path.packets_dropped_queue
        )
        fec = self.fec_summary()
        metrics.counter("net.session.fec.recovered").inc(fec["recovered_packets"])
        metrics.counter("net.session.fec.spurious").inc(fec["spurious_recoveries"])
        delivered = metrics.counter("net.session.frames_delivered")
        latency = metrics.histogram(
            "net.session.frame_latency_s", FRAME_LATENCY_BUCKETS_S
        )
        # stats.frames is frame_id-sorted, so the observation order (and the
        # histogram's float total) is deterministic and mode-independent.
        for record in frames:
            if record.transmission_latency is not None:
                delivered.inc()
                latency.observe(record.transmission_latency)
        telemetry.trace.finish(self._session_span, self.loop.now)


@dataclass(slots=True)
class FixedBitrateWorkload:
    """A constant-bitrate video source: ``bitrate_bps`` split across ``fps``
    equal frames of ``max(int(bitrate_bps / fps / 8), 1)`` bytes each."""

    bitrate_bps: float
    fps: float = 30.0


def drive_fixed_bitrate(
    session: VideoTransportSession,
    workload: FixedBitrateWorkload,
    duration_s: float,
) -> None:
    """Feed ``duration_s`` of the workload's frames into ``session`` and run it.

    Frames are captured on the workload's fixed fps grid.  Each frame's size
    follows the sender's *current* target bitrate at its capture instant, so
    controller actions applied between frames re-shape the very next frame;
    until an action sets a target (never, without a controller) the
    workload's ``bitrate_bps`` stands in.  A session constructed with a
    controller applies its initial action up front, so there the workload
    rate is never used.  Actions apply at report-arrival instants that are
    event-exact across delivery modes, so the frame stream is bit-identical
    between the scalar and batched paths.  Chained scheduling (each send
    schedules the next) keeps one source event in the heap instead of one
    per frame.  After the last frame the loop runs 5 more simulated seconds
    so in-flight retransmissions settle.
    """
    frame_count = max(1, int(round(duration_s * workload.fps)))
    interval = 1.0 / workload.fps

    def _send(frame_id: int) -> None:
        target = session.sender.target_bitrate_bps
        if target is None:
            target = workload.bitrate_bps
        size = max(int(target / workload.fps / 8.0), 1)
        session.send_frame(frame_id, size, capture_time=frame_id * interval)
        if frame_id + 1 < frame_count:
            session.loop.schedule_at(
                (frame_id + 1) * interval, lambda: _send(frame_id + 1)
            )

    session.loop.schedule_at(0.0, lambda: _send(0))
    session.run(until=duration_s + 5.0)


#: The same driver under the name closed-loop callers use: with a
#: controller, each frame follows its target bitrate.
drive_closed_loop = drive_fixed_bitrate


def run_fixed_bitrate_session(
    bitrate_bps: float,
    duration_s: float,
    fps: float = 30.0,
    uplink_config: Optional[PathConfig] = None,
    feedback_config: Optional[PathConfig] = None,
    transport_config: Optional[TransportConfig] = None,
    workload: Optional[FixedBitrateWorkload] = None,
    telemetry: Optional[Telemetry] = None,
) -> TransportStats:
    """Run a constant-bitrate transmission and return per-frame statistics.

    This is the primitive behind the Figure 3 reproduction: sweep
    ``bitrate_bps`` and the path loss rate, and look at the frame
    transmission latency distribution.  Passing an enabled ``telemetry``
    additionally publishes the session's counter/span stream into it.
    """
    session = VideoTransportSession(
        uplink_config, feedback_config, transport_config, telemetry=telemetry
    )
    workload = workload or FixedBitrateWorkload(bitrate_bps=bitrate_bps, fps=fps)
    drive_fixed_bitrate(session, workload, duration_s)
    session.finalize_telemetry()
    return session.stats
