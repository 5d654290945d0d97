"""Forward error correction (FEC) over packet groups.

Traditional RTC stacks (the paper cites Tambur, Hairpin, GRACE) add parity
packets so that a limited number of losses can be repaired without waiting a
round trip for retransmission.  We model XOR-parity FEC over fixed-size
groups of a frame's packets: one parity packet per group repairs any single
loss inside that group.  Like the rest of the transport it works on packet
sizes and arrival instants, never on payload bytes.  The AI-oriented
transport can trade this redundancy off against the ultra-low-bitrate
operating point of Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .packet import (
    MAX_NACK_ROUNDS,
    NACK_RETRY_INTERVAL_S,
    FrameAssembler,
    Packet,
    PacketType,
)

#: Sender-clock seconds before an incomplete frame's decoder state (pending
#: parity, seen packets) is considered abandoned: a few retry intervals past
#: the NACK machinery's give-up point, so pruning never races an ongoing
#: repair and late retransmissions still in flight can combine with pending
#: parity.
STALE_TIMEOUT_S = (MAX_NACK_ROUNDS + 4) * NACK_RETRY_INTERVAL_S


@dataclass(slots=True)
class FecConfig:
    """FEC configuration.

    ``group_size`` data packets are protected by one parity packet, so the
    redundancy overhead is ``1 / group_size``.
    """

    group_size: int = 5

    def __post_init__(self) -> None:
        if self.group_size < 1:
            raise ValueError("group_size must be at least 1")


class FecEncoder:
    """Produces parity packets for each frame's packet groups.

    FEC packets live in their own sequence space so they do not create gaps
    in the video sequence numbering used for NACK-based loss detection.
    """

    def __init__(self, config: FecConfig) -> None:
        self.config = config
        self._next_fec_sequence = 0

    def protect(self, packets: list[Packet]) -> list[Packet]:
        """Build one parity packet per ``group_size`` consecutive data packets.

        A parity packet is as large as its group's largest member, and its
        metadata names the covered indices and their sizes.
        """
        parity_packets: list[Packet] = []
        group = self.config.group_size
        for start in range(0, len(packets), group):
            members = packets[start : start + group]
            covered = tuple(p.index_in_frame for p in members)
            size = max(p.size_bytes for p in members)
            parity = Packet(
                sequence=self._next_fec_sequence,
                frame_id=members[0].frame_id,
                index_in_frame=-1 - (start // group),
                packets_in_frame=members[0].packets_in_frame,
                size_bytes=size,
                capture_time=members[0].capture_time,
                packet_type=PacketType.FEC,
                metadata={"covers": covered, "sizes": tuple(p.size_bytes for p in members)},
            )
            self._next_fec_sequence += 1
            parity_packets.append(parity)
        return parity_packets


class FecDecoder:
    """Recovers a single missing data packet per parity group.

    The decoder tracks which data packets of each frame have been seen.  When
    a parity packet arrives and exactly one of its covered packets is
    missing, that packet is reconstructed with its own size from the parity
    metadata (the simulation carries sizes, not bytes).
    A covered packet only counts as missing once there is loss evidence (see
    :meth:`_has_loss_evidence`); until then parity is held pending so that
    jitter-reordered packets still in flight are not "recovered" and later
    delivered twice.  Reconstructing from parity plus the rest of the group
    is always a valid XOR decode, but when the reconstructed packet's
    original arrives anyway (it was in flight, or a retransmission raced the
    repair) the reconstruction did not fix a loss: it is reclassified from
    ``recovered_packets`` to ``spurious_recoveries`` so the repair counter
    only reflects packets FEC uniquely delivered.
    """

    # How many frames of reordering to tolerate before giving up on an
    # original confirming a reconstruction as spurious.
    _UNCONFIRMED_HORIZON_FRAMES = 8

    def __init__(self, config: Optional[FecConfig]) -> None:
        self.config = config
        self._seen: dict[int, dict[int, Packet]] = {}
        self._pending_parity: dict[int, list[Packet]] = {}
        self._unconfirmed: dict[int, set[int]] = {}
        self._highest_frame_seen = -1
        self._latest_capture_time = float("-inf")
        self.recovered_packets = 0
        self.spurious_recoveries = 0

    def on_data_packet(
        self, packet: Packet, assembler: Optional["FrameAssembler"] = None
    ) -> list[Packet]:
        """Record a data packet and retry parity held back so far.

        A parity packet that arrives while two or more of its covered packets
        are missing cannot repair anything yet, but a later data arrival (for
        example a retransmission) can reduce the hole to exactly one packet.
        A packet of a previously unseen frame is also fresh loss evidence
        for every earlier frame whose parity outran its data, so those
        pending frames are retried too.  Returns any packets newly recovered
        by such pending parity.
        """
        self._latest_capture_time = max(self._latest_capture_time, packet.capture_time)
        new_evidence = packet.frame_id > self._highest_frame_seen
        if new_evidence:
            self._highest_frame_seen = packet.frame_id
            self._prune_stale()
        self._confirm_spurious(packet)
        if assembler is not None and assembler.is_complete(packet.frame_id):
            # Late duplicate for a finished frame: track nothing, and drop
            # any state so long sessions don't accumulate per-frame dicts.
            self.on_frame_complete(packet.frame_id)
            return []
        self._seen.setdefault(packet.frame_id, {})[packet.index_in_frame] = packet
        if assembler is None:
            return []
        recovered: list[Packet] = []
        if new_evidence:
            # A first packet of a new frame is fresh loss evidence for every
            # earlier pending frame; otherwise only this packet's own frame
            # can have changed state.
            for frame_id in sorted(f for f in self._pending_parity if f != packet.frame_id):
                recovered.extend(self._retry_pending(frame_id, assembler))
        recovered.extend(self._retry_pending(packet.frame_id, assembler))
        return recovered

    def on_fec_packet(
        self, parity: Packet, assembler: "FrameAssembler"
    ) -> list[Packet]:
        """Attempt recovery with a parity packet.

        Returns recovered packets — possibly of *earlier* frames too: a
        parity of a new frame is loss evidence for every older pending
        frame, exactly like a data packet of a new frame.
        """
        self._latest_capture_time = max(self._latest_capture_time, parity.capture_time)
        recovered: list[Packet] = []
        if parity.frame_id > self._highest_frame_seen:
            self._highest_frame_seen = parity.frame_id
            self._prune_stale()
            for frame_id in sorted(f for f in self._pending_parity if f != parity.frame_id):
                recovered.extend(self._retry_pending(frame_id, assembler))
        if assembler.is_complete(parity.frame_id):
            self.on_frame_complete(parity.frame_id)
            return recovered
        covers = parity.metadata.get("covers", ())
        unaccounted = self._unaccounted(covers, parity.frame_id, assembler)
        if not unaccounted:
            return recovered  # Everything this parity covers has arrived.
        if self._has_loss_evidence(parity.frame_id, assembler) and len(unaccounted) == 1:
            recovered.append(self._recover(parity, min(unaccounted)))
        else:
            # Either no loss evidence yet (the unaccounted packets may still
            # be in flight) or more losses than the parity can fix.  Keep the
            # parity around: a later arrival may provide the evidence or close
            # the gap down to one packet, at which point it becomes useful.
            self._pending_parity.setdefault(parity.frame_id, []).append(parity)
        return recovered

    def on_frame_complete(self, frame_id: int) -> None:
        """Drop per-frame state once a frame is fully reassembled."""
        self._pending_parity.pop(frame_id, None)
        self._seen.pop(frame_id, None)

    @property
    def pending_parity_frames(self) -> int:
        return len(self._pending_parity)

    def has_pending(self, frame_id: int) -> bool:
        """Whether parity for ``frame_id`` is being held for lack of loss
        evidence or because its group has more than one hole."""
        return frame_id in self._pending_parity

    def flush_frame(self, frame_id: int, assembler: "FrameAssembler") -> list[Packet]:
        """Retry ``frame_id``'s pending parity presuming unaccounted packets
        are lost.

        Loss evidence normally comes from a later arrival, so parity held
        for a frame at the tail of a burst (or of the whole session) would
        otherwise never be retried.  The caller invokes this once enough
        time has passed that reordered in-flight packets must have landed —
        the same timeout reasoning the NACK machinery uses.
        """
        return self._retry_pending(frame_id, assembler, assume_loss=True)

    def _unaccounted(
        self, covers: tuple[int, ...], frame_id: int, assembler: "FrameAssembler"
    ) -> set[int]:
        """Covered indices neither received by the assembler nor seen (or
        recovered) by the decoder — seen packets may not have reached the
        assembler yet when this is called mid-delivery.

        When no packet of the frame has reached the assembler at all, every
        covered index not seen by the decoder is unaccounted for:
        ``FrameAssembler.missing_indices`` returns ``()`` for unknown frames.
        """
        if assembler.capture_time(frame_id) is None:
            unaccounted = set(covers)
        else:
            still = set(assembler.missing_indices(frame_id))
            unaccounted = {index for index in covers if index in still}
        unaccounted -= set(self._seen.get(frame_id, {}))
        return unaccounted

    def _has_loss_evidence(self, frame_id: int, assembler: "FrameAssembler") -> bool:
        """Whether unaccounted packets of ``frame_id`` can be presumed lost.

        An unaccounted packet may simply be in flight behind jitter-induced
        reordering; treating it as lost would fabricate a recovery for a
        packet that was never dropped (and later arrives as a duplicate).
        Evidence that the hole is a real loss: the frame is known to the
        assembler (its delivery has started, so the NACK machinery's view of
        missing indices applies), or a packet of a *later* frame has been
        observed (frames are sent in order, so this frame's transmission is
        over).
        """
        if assembler.capture_time(frame_id) is not None:
            return True
        return self._highest_frame_seen > frame_id

    def _recover(self, parity: Packet, index: int) -> Packet:
        # sequence=-1: the parity's sequence lives in the FEC space, and a
        # reconstructed packet must not be mistaken for the video-space
        # packet of the same number (it would cancel that packet's
        # sequence-gap NACK).  Gap tracking skips negative sequences.
        covers = parity.metadata["covers"]
        recovered = Packet(
            sequence=-1,
            frame_id=parity.frame_id,
            index_in_frame=index,
            packets_in_frame=parity.packets_in_frame,
            size_bytes=parity.metadata["sizes"][covers.index(index)],
            capture_time=parity.capture_time,
            send_time=parity.send_time,
            packet_type=PacketType.VIDEO,
            metadata={"recovered_by_fec": True},
        )
        self._seen.setdefault(parity.frame_id, {})[index] = recovered
        self._unconfirmed.setdefault(parity.frame_id, set()).add(index)
        self.recovered_packets += 1
        return recovered

    def _confirm_spurious(self, packet: Packet) -> None:
        """Reclassify a reconstruction whose original arrived after all.

        Only the original transmission proves the packet was merely in
        flight behind reordering, never lost.  A retransmission arriving
        after the repair (the sequence-gap NACK machinery does not know FEC
        filled the hole) says nothing about the original's fate.
        """
        if packet.packet_type is not PacketType.VIDEO or packet.metadata.get(
            "recovered_by_fec"
        ):
            return
        pending = self._unconfirmed.get(packet.frame_id)
        if not pending or packet.index_in_frame not in pending:
            return
        pending.discard(packet.index_in_frame)
        if not pending:
            del self._unconfirmed[packet.frame_id]
        self.recovered_packets -= 1
        self.spurious_recoveries += 1

    def _prune_stale(self) -> None:
        """Bound per-frame state across a session.

        Reconstructions too old for a late original to still show up stand
        as real repairs; frames whose capture time is more than
        :data:`STALE_TIMEOUT_S` behind the newest — past the NACK machinery's
        give-up point — release their pending parity and seen packets
        (frames that complete are purged promptly by
        :meth:`on_frame_complete` — this catches the ones that never do).
        """
        horizon = self._highest_frame_seen - self._UNCONFIRMED_HORIZON_FRAMES
        for frame_id in [f for f in self._unconfirmed if f < horizon]:
            del self._unconfirmed[frame_id]
        cutoff = self._latest_capture_time - STALE_TIMEOUT_S
        for frame_id, parities in list(self._pending_parity.items()):
            if parities[0].capture_time < cutoff:
                del self._pending_parity[frame_id]
        for frame_id, seen in list(self._seen.items()):
            if seen and next(iter(seen.values())).capture_time < cutoff:
                del self._seen[frame_id]

    def _retry_pending(
        self, frame_id: int, assembler: "FrameAssembler", assume_loss: bool = False
    ) -> list[Packet]:
        pending = self._pending_parity.get(frame_id)
        if not pending:
            return []
        if assembler.is_complete(frame_id):
            self.on_frame_complete(frame_id)
            return []
        recovered: list[Packet] = []
        remaining: list[Packet] = []
        for parity in pending:
            covers = parity.metadata.get("covers", ())
            unaccounted = self._unaccounted(covers, frame_id, assembler)
            if not unaccounted:
                continue  # Everything this parity covers has arrived.
            if assume_loss or self._has_loss_evidence(frame_id, assembler):
                missing = sorted(unaccounted)
            else:
                missing = []
            if len(missing) == 1:
                packet = self._recover(parity, missing[0])
                recovered.append(packet)
            else:
                remaining.append(parity)
        if remaining:
            self._pending_parity[frame_id] = remaining
        else:
            self._pending_parity.pop(frame_id, None)
        return recovered
