"""Tests for the unidirectional video transport (Figure 3 prototype)."""

import numpy as np
import pytest

from repro.net import (
    BernoulliLoss,
    FecConfig,
    FixedBitrateWorkload,
    PathConfig,
    TransportConfig,
    VideoTransportSession,
    run_fixed_bitrate_session,
)


def _path(loss=0.0, bandwidth=10_000_000, delay=0.030, seed=1, **kwargs):
    return PathConfig(
        bandwidth_bps=bandwidth,
        propagation_delay_s=delay,
        loss_model=BernoulliLoss(loss),
        seed=seed,
        **kwargs,
    )


class TestLosslessDelivery:
    def test_single_frame_latency_is_serialization_plus_propagation(self):
        session = VideoTransportSession(uplink_config=_path())
        session.send_frame(0, size_bytes=14_000)
        session.run()
        summary = session.stats.summary()
        assert summary.delivered == 1
        expected = 0.030 + 14_000 * 8 / 10_000_000
        assert summary.mean_s == pytest.approx(expected, rel=1e-6)

    def test_all_frames_delivered_without_loss(self):
        stats = run_fixed_bitrate_session(
            bitrate_bps=1_000_000, duration_s=5, fps=30, uplink_config=_path()
        )
        summary = stats.summary()
        assert summary.delivered == summary.count == 150
        assert summary.delivery_ratio == 1.0

    def test_latency_excludes_capture_to_send_gap(self):
        session = VideoTransportSession(uplink_config=_path())
        session.loop.schedule_at(1.0, lambda: session.send_frame(0, 1400, capture_time=0.5))
        session.run()
        record = session.stats.frames[0]
        assert record.send_time == pytest.approx(1.0)
        assert record.transmission_latency < record.end_to_end_latency

    def test_no_retransmissions_without_loss(self):
        stats = run_fixed_bitrate_session(
            bitrate_bps=2_000_000, duration_s=3, fps=30, uplink_config=_path()
        )
        assert all(record.retransmitted_packets == 0 for record in stats.frames)


class _DropNthOffered:
    """Loss model that drops exactly the packets at the given offer indices."""

    def __init__(self, drop_indices):
        self.drop_indices = set(drop_indices)
        self.offered = 0

    def should_drop(self, rng):
        drop = self.offered in self.drop_indices
        self.offered += 1
        return drop


class TestFecFlush:
    def test_tail_frame_loss_recovered_without_later_packets(self):
        """The session's final frame loses its data packet but its parity
        survives.  No later packet ever arrives to provide loss evidence,
        so only the deferred flush can complete the frame."""
        # Offer order: f0 data, f0 parity, f1 data, f1 parity — drop f1 data.
        config = TransportConfig(fec=FecConfig(group_size=1))
        session = VideoTransportSession(
            uplink_config=PathConfig(loss_model=_DropNthOffered([2]), seed=1),
            transport_config=config,
        )
        session.send_frame(0, size_bytes=1000, capture_time=0.0)
        session.loop.schedule_at(1 / 30, lambda: session.send_frame(1, 1000, 1 / 30))
        session.run()
        assert session.stats.summary().delivered == 2
        assert session.receiver._fec_decoder.recovered_packets == 1
        assert session.receiver._fec_decoder.pending_parity_frames == 0

    def test_recovered_packet_does_not_cancel_video_sequence_nack(self):
        """A reconstruction carries no video-space sequence number.

        Offer order: f0 seq0, seq1, parity; f1 seq2, seq3, parity.  Dropping
        seq1, f0's parity and seq3 makes frame 1's parity repair seq3's
        hole; the reconstruction must not be mistaken for video seq 1, whose
        sequence-NACK is frame 0's only path to completion.
        """
        config = TransportConfig(fec=FecConfig(group_size=2))
        session = VideoTransportSession(
            uplink_config=PathConfig(loss_model=_DropNthOffered([1, 2, 4]), seed=1),
            transport_config=config,
        )
        session.send_frame(0, size_bytes=2400, capture_time=0.0)
        session.loop.schedule_at(1 / 30, lambda: session.send_frame(1, 2400, 1 / 30))
        session.run()
        assert session.stats.summary().delivered == 2

    def test_abandoned_frame_state_pruned(self):
        """Frames that never complete must not grow decoder state forever."""
        from repro.net.fec import FecDecoder
        from repro.net.packet import FrameAssembler, Packetizer
        from repro.net.fec import FecEncoder

        config = FecConfig(group_size=2)
        decoder = FecDecoder(config)
        assembler = FrameAssembler()
        packetizer = Packetizer(mtu_bytes=1200)
        encoder = FecEncoder(config)
        # Frame 0 loses both packets of its group; only the parity arrives,
        # so it is held pending and the frame can never complete.
        doomed = packetizer.packetize(frame_id=0, frame_bytes=1100 * 2, capture_time=0.0)
        decoder.on_fec_packet(encoder.protect(doomed, packetizer)[0], assembler)
        assert decoder.pending_parity_frames == 1
        # A long healthy tail of frames; once frame 0's capture time falls
        # behind the stale timeout its pending parity and seen-packet state
        # are released.
        for frame_id in range(1, int(decoder.stale_timeout_s * 30) + 5):
            packets = packetizer.packetize(
                frame_id=frame_id, frame_bytes=1100 * 2, capture_time=frame_id / 30
            )
            for packet in packets:
                decoder.on_data_packet(packet, assembler)
                assembler.on_packet(packet, arrival_time=frame_id / 30)
            decoder.on_frame_complete(frame_id)
        assert decoder.pending_parity_frames == 0
        assert 0 not in decoder._seen


class TestLossRecovery:
    def test_lost_packets_recovered_via_nack(self):
        stats = run_fixed_bitrate_session(
            bitrate_bps=2_000_000, duration_s=10, fps=30, uplink_config=_path(loss=0.05)
        )
        summary = stats.summary()
        assert summary.delivery_ratio > 0.99
        assert any(record.retransmitted_packets > 0 for record in stats.frames)

    def test_fully_lost_single_packet_frames_recovered_by_sequence_nack(self):
        # At 200 Kbps every frame is a single packet; a loss wipes the whole
        # frame and only the sequence-gap NACK can recover it.
        stats = run_fixed_bitrate_session(
            bitrate_bps=200_000, duration_s=10, fps=30, uplink_config=_path(loss=0.08, seed=3)
        )
        summary = stats.summary()
        assert summary.delivery_ratio > 0.98

    def test_retransmission_adds_roughly_one_rtt(self):
        stats = run_fixed_bitrate_session(
            bitrate_bps=2_000_000, duration_s=20, fps=30, uplink_config=_path(loss=0.05)
        )
        retransmitted = [
            r.transmission_latency for r in stats.frames if r.retransmitted_packets > 0 and r.delivered
        ]
        clean = [
            r.transmission_latency for r in stats.frames if r.retransmitted_packets == 0 and r.delivered
        ]
        assert np.mean(retransmitted) > np.mean(clean) + 0.050

    def test_nack_disabled_leaves_frames_incomplete(self):
        config = TransportConfig(enable_nack=False)
        stats = run_fixed_bitrate_session(
            bitrate_bps=2_000_000,
            duration_s=10,
            fps=30,
            uplink_config=_path(loss=0.05),
            transport_config=config,
        )
        summary = stats.summary()
        assert summary.delivery_ratio < 0.95
        assert all(record.retransmitted_packets == 0 for record in stats.frames)

    def test_fec_recovers_single_losses_without_retransmission(self):
        config = TransportConfig(enable_nack=False, fec=FecConfig(group_size=1))
        stats = run_fixed_bitrate_session(
            bitrate_bps=2_000_000,
            duration_s=10,
            fps=30,
            uplink_config=_path(loss=0.03, seed=5),
            transport_config=config,
        )
        no_fec_stats = run_fixed_bitrate_session(
            bitrate_bps=2_000_000,
            duration_s=10,
            fps=30,
            uplink_config=_path(loss=0.03, seed=5),
            transport_config=TransportConfig(enable_nack=False),
        )
        assert stats.summary().delivery_ratio > no_fec_stats.summary().delivery_ratio


class TestFigure3Shape:
    """The qualitative claims behind Figure 3 of the paper."""

    def test_latency_grows_with_bitrate_under_loss(self):
        means = []
        for bitrate in [200_000, 2_000_000, 8_000_000]:
            stats = run_fixed_bitrate_session(
                bitrate_bps=bitrate,
                duration_s=15,
                fps=30,
                uplink_config=_path(loss=0.05, seed=2),
            )
            means.append(stats.summary().mean_s)
        assert means[0] < means[1] < means[2]

    def test_latency_explodes_above_bandwidth(self):
        below = run_fixed_bitrate_session(
            bitrate_bps=8_000_000, duration_s=10, fps=30, uplink_config=_path()
        ).summary()
        above = run_fixed_bitrate_session(
            bitrate_bps=13_000_000, duration_s=10, fps=30, uplink_config=_path()
        ).summary()
        assert above.mean_s > 5 * below.mean_s

    def test_loss_increases_latency_at_same_bitrate(self):
        clean = run_fixed_bitrate_session(
            bitrate_bps=4_000_000, duration_s=15, fps=30, uplink_config=_path(loss=0.0)
        ).summary()
        lossy = run_fixed_bitrate_session(
            bitrate_bps=4_000_000, duration_s=15, fps=30, uplink_config=_path(loss=0.05)
        ).summary()
        assert lossy.mean_s > clean.mean_s
        assert lossy.p95_s > clean.p95_s

    def test_ultra_low_bitrate_keeps_latency_near_propagation(self):
        stats = run_fixed_bitrate_session(
            bitrate_bps=200_000, duration_s=15, fps=30, uplink_config=_path(loss=0.01)
        )
        summary = stats.summary()
        assert summary.median_s < 0.040  # 30 ms propagation + ~1 ms serialization


class TestWorkload:
    def test_constant_sizes_without_iframes(self):
        workload = FixedBitrateWorkload(bitrate_bps=2_400_000, fps=30)
        sizes = workload.frame_sizes(10)
        assert len(sizes) == 10
        assert all(size == sizes[0] for size in sizes)
        assert sizes[0] == pytest.approx(2_400_000 / 30 / 8, abs=1)

    def test_iframe_structure_preserves_average(self):
        workload = FixedBitrateWorkload(
            bitrate_bps=3_000_000, fps=30, iframe_interval=10, iframe_scale=4.0
        )
        sizes = workload.frame_sizes(300)
        target = 3_000_000 / 30 / 8
        assert np.mean(sizes) == pytest.approx(target, rel=0.02)
        assert sizes[0] > sizes[1]

    def test_zero_count(self):
        assert FixedBitrateWorkload(bitrate_bps=1e6).frame_sizes(0).size == 0

    def test_jitter_changes_sizes_but_keeps_positive(self):
        workload = FixedBitrateWorkload(bitrate_bps=1_000_000, fps=30, size_jitter=0.3, seed=4)
        sizes = workload.frame_sizes(100)
        assert len(set(sizes.tolist())) > 10
        assert (sizes > 0).all()


class TestSessionAccounting:
    def test_sender_byte_accounting_includes_retransmissions(self):
        session = VideoTransportSession(uplink_config=_path(loss=0.2, seed=9))
        for frame_id in range(30):
            session.loop.schedule_at(
                frame_id / 30, lambda f=frame_id: session.send_frame(f, 14_000)
            )
        session.run(until=5.0)
        original_bytes = sum(r.size_bytes for r in session.stats.frames)
        assert session.sender.bytes_sent > original_bytes
        assert session.sender.retransmissions_sent > 0

