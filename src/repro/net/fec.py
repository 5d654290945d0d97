"""Forward error correction (FEC) over packet groups.

Traditional RTC stacks (the paper cites Tambur, Hairpin, GRACE) add parity
packets so that a limited number of losses can be repaired without waiting a
round trip for retransmission.  We implement XOR-parity FEC over fixed-size
groups of a frame's packets: one parity packet per group repairs any single
loss inside that group.  The AI-oriented transport can trade this redundancy
off against the ultra-low-bitrate operating point of Section 2.2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING, Optional

import numpy as np

from .emulator import fastpath_enabled
from .packet import Packet, PacketType

if TYPE_CHECKING:  # pragma: no cover - import cycle guard for type checkers
    from .packet import FrameAssembler, Packetizer


def _xor_payloads_scalar(payloads: list[bytes], size: int) -> bytes:
    """Reference XOR over python bytearrays, one byte at a time.

    This is the shape of parity coding most textbook implementations start
    from; it allocates a fresh buffer per group and pays a Python-level loop
    per byte.  Kept as the ``REPRO_NET_FASTPATH=0`` reference the vectorized
    path is checked against.
    """
    out = bytearray(size)
    for payload in payloads:
        for i, byte in enumerate(payload):
            out[i] ^= byte
    return bytes(out)


class _XorScratch:
    """Reusable ``numpy.uint8`` scratch for XOR parity.

    One buffer is reused across groups so steady-state coding performs no
    allocations beyond the final ``tobytes`` copy.
    """

    __slots__ = ("_buffer",)

    def __init__(self) -> None:
        self._buffer: Optional[np.ndarray] = None

    def xor(self, payloads: list[bytes], size: int) -> bytes:
        buffer = self._buffer
        if buffer is None or len(buffer) < size:
            self._buffer = buffer = np.zeros(max(2048, size), dtype=np.uint8)
        view = buffer[:size]
        view[:] = 0
        for payload in payloads:
            view[: len(payload)] ^= np.frombuffer(payload, dtype=np.uint8)
        return view.tobytes()


def xor_payloads(
    payloads: list[bytes], size: int, scratch: Optional[_XorScratch] = None
) -> Optional[bytes]:
    """XOR ``payloads`` (zero-padded to ``size``); None if any is missing."""
    if not payloads or any(p is None for p in payloads):
        return None
    if scratch is not None:
        return scratch.xor(payloads, size)
    return _xor_payloads_scalar(payloads, size)


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

    @property
    def overhead_ratio(self) -> float:
        return 1.0 / self.group_size


class FecEncoder:
    """Produces parity packets for each frame's packet groups.

    FEC packets live in their own sequence space so they do not create gaps
    in the video sequence numbering used for NACK-based loss detection.
    """

    def __init__(self, config: FecConfig) -> None:
        self.config = config
        self._next_fec_sequence = 0
        # Payload coding mode is fixed at construction, like every other
        # fast-path toggle: numpy uint8 views vs the per-byte reference.
        self._scratch = _XorScratch() if fastpath_enabled() else None

    def protect(self, packets: list[Packet], packetizer: "Packetizer" = None) -> list[Packet]:
        """Build one parity packet per ``group_size`` consecutive data packets.

        When the covered packets carry payloads, the parity packet carries
        their XOR (zero-padded to the group's largest payload), so a single
        loss per group is recoverable bit-for-bit.
        """
        parity_packets: list[Packet] = []
        group = self.config.group_size
        for start in range(0, len(packets), group):
            members = packets[start : start + group]
            covered = tuple(p.index_in_frame for p in members)
            size = max(p.size_bytes for p in members)
            payload = xor_payloads([p.payload for p in members], size, self._scratch)
            parity = Packet(
                sequence=self._next_fec_sequence,
                frame_id=members[0].frame_id,
                index_in_frame=-1 - (start // group),
                packets_in_frame=members[0].packets_in_frame,
                size_bytes=size,
                capture_time=members[0].capture_time,
                packet_type=PacketType.FEC,
                payload=payload,
                metadata={"covers": covered, "sizes": tuple(p.size_bytes for p in members)},
            )
            self._next_fec_sequence += 1
            parity_packets.append(parity)
        return parity_packets


class FecDecoder:
    """Recovers a single missing data packet per parity group.

    The decoder tracks which data packets of each frame have been seen.  When
    a parity packet arrives and exactly one of its covered packets is
    missing, that packet is reconstructed (its size is taken from the parity
    metadata — for latency accounting the payload content is irrelevant).
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
    # Sender-clock seconds before an incomplete frame's decoder state
    # (pending parity, seen packets) is considered abandoned.  The default
    # exceeds the default NACK give-up point (max_nack_rounds ×
    # nack_retry_interval_s ≈ 1.3 s) so pruning never races an ongoing
    # repair; the transport passes a value derived from its actual config.
    DEFAULT_STALE_TIMEOUT_S = 2.0

    def __init__(
        self, config: Optional[FecConfig], stale_timeout_s: Optional[float] = None
    ) -> None:
        self.config = config
        self.stale_timeout_s = (
            self.DEFAULT_STALE_TIMEOUT_S if stale_timeout_s is None else stale_timeout_s
        )
        self._scratch = _XorScratch() if fastpath_enabled() else None
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
        recovered = Packet(
            sequence=-1,
            frame_id=parity.frame_id,
            index_in_frame=index,
            packets_in_frame=parity.packets_in_frame,
            size_bytes=parity.size_bytes,
            capture_time=parity.capture_time,
            send_time=parity.send_time,
            packet_type=PacketType.VIDEO,
            payload=self._recover_payload(parity, index),
            metadata={"recovered_by_fec": True},
        )
        self._seen.setdefault(parity.frame_id, {})[index] = recovered
        self._unconfirmed.setdefault(parity.frame_id, set()).add(index)
        self.recovered_packets += 1
        return recovered

    def _recover_payload(self, parity: Packet, index: int) -> Optional[bytes]:
        """Rebuild the missing packet's bytes: parity XOR the survivors.

        Returns None when the parity carries no payload (size-only
        simulation) or any surviving packet's payload is unavailable.
        """
        if parity.payload is None:
            return None
        covers = parity.metadata.get("covers", ())
        seen = self._seen.get(parity.frame_id, {})
        payloads: list[bytes] = [parity.payload]
        for covered in covers:
            if covered == index:
                continue
            survivor = seen.get(covered)
            if survivor is None or survivor.payload is None:
                return None
            payloads.append(survivor.payload)
        recovered = xor_payloads(payloads, parity.size_bytes, self._scratch)
        sizes = parity.metadata.get("sizes")
        if recovered is not None and sizes is not None:
            position = covers.index(index)
            recovered = recovered[: sizes[position]]
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
        ``stale_timeout_s`` behind the newest — past the NACK machinery's
        give-up point — release their pending parity and seen packets
        (frames that complete are purged promptly by
        :meth:`on_frame_complete` — this catches the ones that never do).
        """
        horizon = self._highest_frame_seen - self._UNCONFIRMED_HORIZON_FRAMES
        for frame_id in [f for f in self._unconfirmed if f < horizon]:
            del self._unconfirmed[frame_id]
        cutoff = self._latest_capture_time - self.stale_timeout_s
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


def fec_recovery_probability(packet_count: int, loss_rate: float, group_size: int) -> float:
    """Analytic probability that a frame is decodable in one shot with XOR FEC.

    A frame of ``packet_count`` packets split into groups of ``group_size``
    (each with one parity packet) is decodable if every group loses at most
    one of its ``k + 1`` packets.  Used to sanity-check the simulator and to
    size redundancy in the traditional-RTC baseline.
    """
    if not 0.0 <= loss_rate < 1.0:
        raise ValueError("loss_rate must be in [0, 1)")
    if packet_count <= 0:
        return 1.0
    probability = 1.0
    remaining = packet_count
    while remaining > 0:
        k = min(group_size, remaining)
        n = k + 1
        p_ok = (1 - loss_rate) ** n + n * loss_rate * (1 - loss_rate) ** (n - 1)
        # Floating-point rounding can push the binomial sum marginally above
        # 1.0 for tiny loss rates; the true probability is bounded by 1.
        probability *= min(max(p_ok, 0.0), 1.0)
        remaining -= k
    return probability
