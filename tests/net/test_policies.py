"""Tests for congestion control, ABR policies, FEC math, jitter buffer and stats."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.net.abr import (
    AiOrientedAbr,
    BufferBasedAbr,
    ThroughputAbr,
    expected_frame_latency,
)
from repro.net.congestion import (
    AimdController,
    GccConfig,
    GoogleCongestionControl,
    RateSample,
)
from repro.net.emulator import FASTPATH_ENV
from repro.net.fec import FecConfig, FecDecoder, FecEncoder
from repro.net.packet import FrameAssembler, Packetizer
from repro.net.jitter_buffer import (
    JitterBuffer,
    JitterBufferConfig,
    PassthroughBuffer,
    frames_in_capture_order,
)
from repro.net.stats import TransportStats, summarize_latencies


def _sample(time, rate, loss=0.0, delay=0.035):
    return RateSample(timestamp=time, receive_rate_bps=rate, loss_ratio=loss, one_way_delay_s=delay)


class TestGcc:
    def test_rate_grows_when_delay_flat_and_no_loss(self):
        gcc = GoogleCongestionControl(GccConfig(initial_rate_bps=1_000_000))
        for i in range(20):
            gcc.update(_sample(i * 0.2, 1_000_000, loss=0.0, delay=0.035))
        assert gcc.estimate_bps > 1_000_000

    def test_rate_drops_on_rising_delay(self):
        gcc = GoogleCongestionControl(GccConfig(initial_rate_bps=5_000_000))
        # Delay ramps up 10 ms per report: clear overuse.
        for i in range(20):
            gcc.update(_sample(i * 0.2, 4_000_000, loss=0.0, delay=0.035 + 0.01 * i))
        assert gcc.estimate_bps < 5_000_000
        assert gcc.state == "decrease"

    def test_rate_drops_on_heavy_loss(self):
        gcc = GoogleCongestionControl(GccConfig(initial_rate_bps=5_000_000))
        for i in range(10):
            gcc.update(_sample(i * 0.2, 5_000_000, loss=0.3, delay=0.035))
        assert gcc.estimate_bps < 5_000_000

    def test_rate_respects_bounds(self):
        config = GccConfig(initial_rate_bps=100_000, min_rate_bps=50_000, max_rate_bps=200_000)
        gcc = GoogleCongestionControl(config)
        for i in range(100):
            gcc.update(_sample(i * 0.2, 500_000, loss=0.0))
        assert gcc.estimate_bps <= 200_000
        gcc2 = GoogleCongestionControl(config)
        for i in range(100):
            gcc2.update(_sample(i * 0.2, 10_000, loss=0.5, delay=0.2 + i * 0.01))
        assert gcc2.estimate_bps >= 50_000


class TestAimd:
    def test_additive_increase(self):
        aimd = AimdController()
        before = aimd.estimate_bps
        aimd.update(_sample(0.2, 1_000_000, loss=0.0))
        assert aimd.estimate_bps == pytest.approx(before + aimd.config.additive_increase_bps)

    def test_multiplicative_decrease_on_loss(self):
        aimd = AimdController()
        before = aimd.estimate_bps
        aimd.update(_sample(0.2, 1_000_000, loss=0.1))
        assert aimd.estimate_bps == pytest.approx(before * aimd.config.multiplicative_decrease)


class TestAbrPolicies:
    def test_throughput_abr_stays_below_estimate(self):
        policy = ThroughputAbr()
        decision = policy.decide(bandwidth_estimate_bps=5_000_000)
        assert decision.bitrate_bps <= 5_000_000 * policy.safety_factor
        assert decision.bitrate_bps == 4_000_000

    def test_throughput_abr_falls_back_to_minimum(self):
        policy = ThroughputAbr()
        decision = policy.decide(bandwidth_estimate_bps=100_000)
        assert decision.bitrate_bps == min(policy.ladder_bps)

    def test_buffer_based_abr_low_buffer_selects_low_rate(self):
        policy = BufferBasedAbr()
        decision = policy.decide(bandwidth_estimate_bps=10_000_000, buffer_s=0.01)
        assert decision.bitrate_bps == min(policy.ladder_bps)

    def test_buffer_based_abr_high_buffer_selects_high_rate(self):
        policy = BufferBasedAbr()
        decision = policy.decide(bandwidth_estimate_bps=10_000_000, buffer_s=1.0)
        assert decision.bitrate_bps == max(policy.ladder_bps)

    def test_buffer_based_abr_caps_at_bandwidth(self):
        policy = BufferBasedAbr()
        decision = policy.decide(bandwidth_estimate_bps=700_000, buffer_s=1.0)
        assert decision.bitrate_bps <= 700_000

    def test_ai_oriented_abr_picks_minimum_accurate_bitrate(self):
        # Accuracy predictor: adequate from 400 Kbps upwards.
        policy = AiOrientedAbr(
            accuracy_target=0.85,
            accuracy_predictor=lambda rate: 0.9 if rate >= 400_000 else 0.4,
        )
        decision = policy.decide(bandwidth_estimate_bps=10_000_000)
        assert decision.bitrate_bps == 400_000
        assert decision.reason == "accuracy-constrained"

    def test_ai_oriented_abr_without_predictor_picks_minimum(self):
        policy = AiOrientedAbr(accuracy_predictor=None)
        decision = policy.decide(bandwidth_estimate_bps=10_000_000)
        assert decision.bitrate_bps == min(policy.candidate_bitrates_bps)

    def test_ai_oriented_abr_latency_budget_filters_candidates(self):
        policy = AiOrientedAbr(
            accuracy_target=0.5,
            accuracy_predictor=lambda rate: 1.0,
            latency_budget_s=0.068,
            latency_predictor=lambda rate: expected_frame_latency(
                rate, fps=30, bandwidth_bps=10_000_000, loss_rate=0.05, rtt_s=0.065
            ),
        )
        decision = policy.decide(bandwidth_estimate_bps=10_000_000)
        assert decision.bitrate_bps < 4_000_000

    def test_ai_oriented_abr_selects_below_traditional(self):
        """The yellow-region claim: AI ABR sits far below traditional ABR."""
        traditional = ThroughputAbr().decide(bandwidth_estimate_bps=10_000_000)
        ai = AiOrientedAbr(
            accuracy_target=0.85,
            accuracy_predictor=lambda rate: 0.9 if rate >= 200_000 else 0.3,
        ).decide(bandwidth_estimate_bps=10_000_000)
        assert ai.bitrate_bps <= traditional.bitrate_bps / 10


class TestExpectedFrameLatency:
    def test_monotone_in_bitrate_under_loss(self):
        latencies = [
            expected_frame_latency(rate, 30, 10_000_000, 0.05, 0.065)
            for rate in [200_000, 1_000_000, 4_000_000, 8_000_000]
        ]
        assert latencies == sorted(latencies)

    def test_monotone_in_loss(self):
        latencies = [
            expected_frame_latency(4_000_000, 30, 10_000_000, loss, 0.065)
            for loss in [0.0, 0.01, 0.05, 0.1]
        ]
        assert latencies == sorted(latencies)

    def test_overload_dominates(self):
        below = expected_frame_latency(8_000_000, 30, 10_000_000, 0.0, 0.065)
        above = expected_frame_latency(14_000_000, 30, 10_000_000, 0.0, 0.065)
        assert above > 2 * below

    def test_invalid_arguments_rejected(self):
        with pytest.raises(ValueError):
            expected_frame_latency(0, 30, 10_000_000, 0.0, 0.065)


class TestFec:
    def test_group_size_validation(self):
        with pytest.raises(ValueError):
            FecConfig(group_size=0)


class TestFecDecoderPendingParity:
    """The decoder must retry parity that arrived before it could repair."""

    def _frame(self, config, packet_count=4):
        packetizer = Packetizer(mtu_bytes=1200)
        packets = packetizer.packetize(
            frame_id=0, frame_bytes=1100 * packet_count, capture_time=0.0
        )
        assert len(packets) == packet_count
        parity = FecEncoder(config).protect(packets, packetizer)
        return packets, parity

    def test_pending_parity_retried_on_late_data_packet(self):
        config = FecConfig(group_size=4)
        packets, parity_packets = self._frame(config)
        decoder = FecDecoder(config)
        assembler = FrameAssembler()

        # Packets 0 and 1 arrive; 2 and 3 are lost.
        for packet in packets[:2]:
            decoder.on_data_packet(packet, assembler)
            assembler.on_packet(packet, arrival_time=0.01)

        # Parity arrives but two covered packets are missing: nothing yet.
        assert decoder.on_fec_packet(parity_packets[0], assembler) == []
        assert decoder.pending_parity_frames == 1

        # A retransmission of packet 2 closes the hole to one: the pending
        # parity now recovers packet 3.
        recovered = decoder.on_data_packet(packets[2], assembler)
        assert [p.index_in_frame for p in recovered] == [3]
        assert decoder.recovered_packets == 1
        assert decoder.pending_parity_frames == 0

    def test_pending_parity_purged_on_frame_completion(self):
        config = FecConfig(group_size=4)
        packets, parity_packets = self._frame(config)
        decoder = FecDecoder(config)
        assembler = FrameAssembler()

        for packet in packets[:2]:
            decoder.on_data_packet(packet, assembler)
            assembler.on_packet(packet, arrival_time=0.01)
        decoder.on_fec_packet(parity_packets[0], assembler)
        assert decoder.pending_parity_frames == 1

        # Both missing packets are retransmitted; the frame completes.
        recovered = decoder.on_data_packet(packets[2], assembler)
        for packet in [packets[2], *recovered]:
            assembler.on_packet(packet, arrival_time=0.02)
        decoder.on_frame_complete(0)
        assert decoder.pending_parity_frames == 0
        assert decoder._seen == {}

    def test_pending_dict_does_not_grow_across_completed_frames(self):
        config = FecConfig(group_size=4)
        decoder = FecDecoder(config)
        assembler = FrameAssembler()
        packetizer = Packetizer(mtu_bytes=1200)
        encoder = FecEncoder(config)

        for frame_id in range(50):
            packets = packetizer.packetize(
                frame_id=frame_id, frame_bytes=1100 * 4, capture_time=frame_id / 30
            )
            parity = encoder.protect(packets, packetizer)[0]
            # First two packets arrive, then parity (held pending), then the
            # rest arrive and the frame completes.
            for packet in packets[:2]:
                decoder.on_data_packet(packet, assembler)
                assembler.on_packet(packet, arrival_time=frame_id / 30)
            decoder.on_fec_packet(parity, assembler)
            for packet in packets[2:]:
                recovered = decoder.on_data_packet(packet, assembler)
                assembler.on_packet(packet, arrival_time=frame_id / 30)
                for extra in recovered:
                    assembler.on_packet(extra, arrival_time=frame_id / 30)
            decoder.on_frame_complete(frame_id)

        assert decoder.pending_parity_frames == 0
        assert decoder._seen == {}

    def test_parity_arriving_before_any_data_is_kept_pending(self):
        """A burst can drop the whole group while the parity survives."""
        config = FecConfig(group_size=4)
        packets, parity_packets = self._frame(config)
        decoder = FecDecoder(config)
        assembler = FrameAssembler()

        # Parity outran every data packet: the assembler knows nothing of
        # the frame yet, so the parity is held pending until loss evidence
        # (a known frame or a later frame's packet) arrives.
        assert decoder.on_fec_packet(parity_packets[0], assembler) == []
        assert decoder.pending_parity_frames == 1

        # Retransmissions restore three of the four packets; the pending
        # parity then recovers the last one.
        recovered = []
        for packet in packets[:3]:
            recovered = decoder.on_data_packet(packet, assembler)
            assembler.on_packet(packet, arrival_time=0.1)
        assert [p.index_in_frame for p in recovered] == [3]
        assert decoder.pending_parity_frames == 0

    def test_single_packet_group_recovered_once_loss_is_evident(self):
        config = FecConfig(group_size=1)
        packetizer = Packetizer(mtu_bytes=1200)
        packets = packetizer.packetize(frame_id=0, frame_bytes=800, capture_time=0.0)
        parity = FecEncoder(config).protect(packets, packetizer)[0]
        decoder = FecDecoder(config)
        assembler = FrameAssembler()
        # The lone data packet was dropped.  At parity arrival the decoder
        # cannot yet tell a loss from a reordered in-flight packet, so the
        # parity is held pending rather than recovering immediately.
        assert decoder.on_fec_packet(parity, assembler) == []
        assert decoder.pending_parity_frames == 1
        # A packet of the next frame shows frame 0's transmission is over;
        # the pending parity then reconstructs the lost packet.
        next_frame = packetizer.packetize(frame_id=1, frame_bytes=800, capture_time=1 / 30)
        recovered = decoder.on_data_packet(next_frame[0], assembler)
        assert [(p.frame_id, p.index_in_frame) for p in recovered] == [(0, 0)]
        assert decoder.pending_parity_frames == 0

    def test_later_frame_parity_is_loss_evidence_for_earlier_frame(self):
        """A parity of a new frame, like a data packet of one, proves older
        frames' transmissions are over and retries their pending parity."""
        config = FecConfig(group_size=1)
        packetizer = Packetizer(mtu_bytes=1200)
        encoder = FecEncoder(config)
        decoder = FecDecoder(config)
        assembler = FrameAssembler()
        frame0 = packetizer.packetize(frame_id=0, frame_bytes=800, capture_time=0.0)
        parity0 = encoder.protect(frame0, packetizer)[0]
        # Frame 0's lone data packet is lost; its parity is held pending.
        assert decoder.on_fec_packet(parity0, assembler) == []
        assert decoder.pending_parity_frames == 1
        # Frame 1's parity jitters ahead of frame 1's data: its arrival
        # alone is evidence for frame 0 and recovers the lost packet.
        frame1 = packetizer.packetize(frame_id=1, frame_bytes=800, capture_time=1 / 30)
        parity1 = encoder.protect(frame1, packetizer)[0]
        recovered = decoder.on_fec_packet(parity1, assembler)
        assert [(p.frame_id, p.index_in_frame) for p in recovered] == [(0, 0)]
        assert decoder.pending_parity_frames == 1  # frame 1's own parity waits

    def test_reordered_parity_does_not_fabricate_recovery(self):
        """Jitter can deliver a parity ahead of its undropped data packet;
        that must not be counted as an FEC recovery."""
        config = FecConfig(group_size=1)
        packetizer = Packetizer(mtu_bytes=1200)
        packets = packetizer.packetize(frame_id=0, frame_bytes=800, capture_time=0.0)
        parity = FecEncoder(config).protect(packets, packetizer)[0]
        decoder = FecDecoder(config)
        assembler = FrameAssembler()
        assert decoder.on_fec_packet(parity, assembler) == []
        # The in-flight data packet arrives: nothing was lost, nothing to
        # recover, and the now-useless parity is discarded.
        assert decoder.on_data_packet(packets[0], assembler) == []
        assembler.on_packet(packets[0], arrival_time=0.02)
        assert decoder.recovered_packets == 0
        assert decoder.pending_parity_frames == 0

    def test_reconstruction_reclassified_when_original_arrives(self):
        """A known-frame reconstruction of an in-flight packet must not stand
        as a repair once the original shows up."""
        config = FecConfig(group_size=2)
        packetizer = Packetizer(mtu_bytes=1200)
        packets = packetizer.packetize(frame_id=0, frame_bytes=1100 * 2, capture_time=0.0)
        parity = FecEncoder(config).protect(packets, packetizer)[0]
        decoder = FecDecoder(config)
        assembler = FrameAssembler()
        # Packet 0 arrives and the frame becomes known; the parity then
        # XOR-reconstructs packet 1, which is actually still in flight.
        decoder.on_data_packet(packets[0], assembler)
        assembler.on_packet(packets[0], arrival_time=0.01)
        recovered = decoder.on_fec_packet(parity, assembler)
        assert [p.index_in_frame for p in recovered] == [1]
        assert decoder.recovered_packets == 1
        # The original of packet 1 arrives: the reconstruction was premature.
        decoder.on_data_packet(packets[1], assembler)
        assert decoder.recovered_packets == 0
        assert decoder.spurious_recoveries == 1

    def test_retransmission_does_not_reclassify_genuine_repair(self):
        config = FecConfig(group_size=2)
        packetizer = Packetizer(mtu_bytes=1200)
        packets = packetizer.packetize(frame_id=0, frame_bytes=1100 * 2, capture_time=0.0)
        parity = FecEncoder(config).protect(packets, packetizer)[0]
        decoder = FecDecoder(config)
        assembler = FrameAssembler()
        # Packet 1 was genuinely lost; FEC repairs it from packet 0 + parity.
        decoder.on_data_packet(packets[0], assembler)
        assembler.on_packet(packets[0], arrival_time=0.01)
        assert decoder.on_fec_packet(parity, assembler) != []
        # The NACK machinery retransmits it anyway (it cannot know FEC
        # filled the hole); the RTX copy must not demote the repair.
        rtx = packetizer.retransmission_copy(packets[1], request_time=0.05)
        decoder.on_data_packet(rtx, assembler)
        assert decoder.recovered_packets == 1
        assert decoder.spurious_recoveries == 0

    def test_first_data_packet_does_not_recover_in_flight_groupmate(self):
        config = FecConfig(group_size=2)
        packetizer = Packetizer(mtu_bytes=1200)
        packets = packetizer.packetize(frame_id=0, frame_bytes=1100 * 2, capture_time=0.0)
        assert len(packets) == 2
        parity = FecEncoder(config).protect(packets, packetizer)[0]
        decoder = FecDecoder(config)
        assembler = FrameAssembler()
        # Parity reordered ahead of both data packets of its group.
        assert decoder.on_fec_packet(parity, assembler) == []
        # The first data packet arrives.  Its groupmate is still in flight
        # and there is no loss evidence, so no recovery is fabricated.
        assert decoder.on_data_packet(packets[0], assembler) == []
        assembler.on_packet(packets[0], arrival_time=0.02)
        assert decoder.recovered_packets == 0
        assert decoder.pending_parity_frames == 1
        # The groupmate arrives too: everything is accounted for.
        assert decoder.on_data_packet(packets[1], assembler) == []
        assert decoder.recovered_packets == 0
        assert decoder.pending_parity_frames == 0

    def test_satisfied_parity_is_not_kept_pending(self):
        config = FecConfig(group_size=4)
        packets, parity_packets = self._frame(config)
        decoder = FecDecoder(config)
        assembler = FrameAssembler()

        for packet in packets:
            decoder.on_data_packet(packet, assembler)
            assembler.on_packet(packet, arrival_time=0.01)
        assert decoder.on_fec_packet(parity_packets[0], assembler) == []
        assert decoder.pending_parity_frames == 0


@pytest.mark.parametrize("fastpath", ["0", "1"], ids=["reference", "fast"])
class TestFecPayloadRecovery:
    """XOR parity restores the bytes that were lost, on both XOR paths.

    A 10-packet frame in two groups of 5; the last packet carries only
    37 bytes, so its group's parity is zero-padded past it and its recovery
    must be trimmed back to the true size.
    """

    GROUP = 5

    def _frame(self, monkeypatch, fastpath):
        monkeypatch.setenv(FASTPATH_ENV, fastpath)
        config = FecConfig(group_size=self.GROUP)
        packetizer = Packetizer(mtu_bytes=100)
        packets = packetizer.packetize(frame_id=0, frame_bytes=937, capture_time=0.0)
        assert [p.size_bytes for p in packets] == [100] * 9 + [37]
        rng = np.random.default_rng(3)
        for packet in packets:
            packet.payload = rng.bytes(packet.size_bytes)
        assert len({p.payload for p in packets}) == len(packets)
        parity = FecEncoder(config).protect(packets, packetizer)
        assert len(parity) == 2
        return packets, parity, FecDecoder(config)

    def _deliver(self, packets, parity, decoder, lost):
        """Deliver every packet not in ``lost``, then the parity; return
        the recovered payloads by index."""
        assembler = FrameAssembler()
        for packet in packets:
            if packet.index_in_frame not in lost:
                decoder.on_data_packet(packet, assembler)
                assembler.on_packet(packet, arrival_time=0.01)
        recovered = {}
        for fec_packet in parity:
            for packet in decoder.on_fec_packet(fec_packet, assembler):
                recovered[packet.index_in_frame] = packet.payload
        return recovered

    @pytest.mark.parametrize("offset", range(GROUP))
    def test_one_loss_per_group_recovers_original_bytes(self, monkeypatch, fastpath, offset):
        packets, parity, decoder = self._frame(monkeypatch, fastpath)
        lost = {offset, self.GROUP + offset}
        recovered = self._deliver(packets, parity, decoder, lost)
        assert recovered == {index: packets[index].payload for index in lost}
        assert decoder.recovered_packets == 2

    def test_two_losses_in_a_group_recover_nothing_there(self, monkeypatch, fastpath):
        packets, parity, decoder = self._frame(monkeypatch, fastpath)
        recovered = self._deliver(packets, parity, decoder, lost={1, 3, 9})
        assert recovered == {9: packets[9].payload}
        assert len(recovered[9]) == 37
        assert decoder.recovered_packets == 1
        assert decoder.has_pending(0)


class TestJitterBuffer:
    def test_buffer_adds_latency(self):
        buffer = JitterBuffer(JitterBufferConfig(initial_delay_s=0.05))
        for i in range(20):
            capture = i / 30
            arrival = capture + 0.03 + (0.02 if i % 3 == 0 else 0.0)
            buffer.push(i, capture, arrival)
        buffer.pop_ready(now=100.0)
        assert buffer.added_latency() > 0.0

    def test_buffer_delay_adapts_to_jitter(self):
        calm = JitterBuffer()
        noisy = JitterBuffer()
        rng = np.random.default_rng(0)
        for i in range(200):
            capture = i / 30
            calm.push(i, capture, capture + 0.03)
            noisy.push(i, capture, capture + 0.03 + abs(rng.normal(0, 0.02)))
        assert noisy.playout_delay_s > calm.playout_delay_s
        assert noisy.jitter_estimate_s > calm.jitter_estimate_s

    def test_pop_ready_respects_release_times(self):
        buffer = JitterBuffer(JitterBufferConfig(initial_delay_s=0.1))
        buffer.push(0, 0.0, 0.03)
        assert buffer.pop_ready(now=0.05) == []
        assert len(buffer.pop_ready(now=10.0)) == 1

    def test_passthrough_adds_no_latency(self):
        buffer = PassthroughBuffer()
        frame = buffer.push(0, 0.0, 0.03)
        assert frame.release_time == frame.arrival_time
        assert buffer.added_latency() == 0.0
        assert buffer.depth == 0

    def test_capture_order_is_jitter_invariant(self):
        """Section 2.1: the MLLM input does not depend on arrival jitter."""
        rng = np.random.default_rng(1)
        captures = [i / 30 for i in range(50)]
        smooth = PassthroughBuffer()
        jittered = PassthroughBuffer()
        for i, capture in enumerate(captures):
            smooth.push(i, capture, capture + 0.03)
            jittered.push(i, capture, capture + 0.03 + float(rng.uniform(0, 0.05)))
        smooth_order = [f.frame_id for f in frames_in_capture_order(smooth.released)]
        jitter_order = [f.frame_id for f in frames_in_capture_order(jittered.released)]
        assert smooth_order == jitter_order


class TestStats:
    def test_empty_summary_has_nan_latencies(self):
        summary = TransportStats().summary()
        assert summary.count == 0
        assert np.isnan(summary.mean_s)

    def test_summary_percentiles_ordered(self):
        latencies = np.linspace(0.01, 0.2, 100)
        summary = summarize_latencies(latencies)
        assert summary.min_s <= summary.median_s <= summary.p90_s <= summary.p95_s
        assert summary.p95_s <= summary.p99_s <= summary.max_s

    def test_delivery_ratio_uses_total(self):
        summary = summarize_latencies([0.03] * 50, total=100)
        assert summary.delivery_ratio == pytest.approx(0.5)

    def test_ms_helpers(self):
        summary = summarize_latencies([0.05, 0.05])
        assert summary.mean_ms == pytest.approx(50.0)

    def test_record_completion_idempotent(self):
        stats = TransportStats()
        stats.register_frame(0, 0.0, 0.0, 1400, 1)
        stats.record_completion(0, 0.05)
        stats.record_completion(0, 0.09)
        assert stats.frames[0].complete_time == pytest.approx(0.05)

    @given(st.lists(st.floats(min_value=0.001, max_value=5.0), min_size=1, max_size=200))
    def test_property_mean_between_min_and_max(self, latencies):
        summary = summarize_latencies(latencies)
        assert summary.min_s <= summary.mean_s <= summary.max_s
