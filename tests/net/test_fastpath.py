"""Scalar-vs-vectorized equivalence for the simulation fast path.

The fast path (block-sampled drop decisions, bisect-based trace lookups)
must be a pure optimisation: for any seed the drop sequence, rate lookups
and end-to-end session statistics must be identical to the scalar
reference path.  These tests pin that contract with property tests.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.net.emulator import (
    FASTPATH_ENV,
    BandwidthTrace,
    BernoulliLoss,
    GilbertElliottLoss,
    LossModel,
    PathConfig,
    fastpath_enabled,
)
from repro.net.transport import run_fixed_bitrate_session


def scalar_sequence(model: LossModel, seed: int, n: int) -> list[bool]:
    rng = np.random.default_rng(seed)
    return [model.should_drop(rng) for _ in range(n)]


def block_sequence(model: LossModel, seed: int, n: int, block: int) -> list[bool]:
    """Draw ``n`` decisions in blocks of ``block`` from a fresh seeded RNG."""
    rng = np.random.default_rng(seed)
    out: list[bool] = []
    while len(out) < n:
        out.extend(bool(x) for x in model.sample_drops(rng, min(block, n - len(out))))
    return out


class TestBernoulliBlockEquivalence:
    @given(
        loss_rate=st.floats(min_value=0.0, max_value=0.95),
        seed=st.integers(min_value=0, max_value=2**31),
        block=st.sampled_from([1, 3, 64, 1024]),
    )
    @settings(max_examples=40, deadline=None)
    def test_identical_drop_sequence(self, loss_rate, seed, block):
        n = 300
        scalar = scalar_sequence(BernoulliLoss(loss_rate), seed, n)
        blocked = block_sequence(BernoulliLoss(loss_rate), seed, n, block)
        assert scalar == blocked

    def test_zero_loss_consumes_no_draws(self):
        rng = np.random.default_rng(0)
        before = rng.bit_generator.state
        drops = BernoulliLoss(0.0).sample_drops(rng, 500)
        assert not drops.any()
        assert rng.bit_generator.state == before

    def test_empty_block(self):
        assert BernoulliLoss(0.5).sample_drops(np.random.default_rng(0), 0).size == 0


class TestGilbertElliottBlockEquivalence:
    @given(
        p_gb=st.floats(min_value=0.0, max_value=1.0),
        p_bg=st.floats(min_value=0.0, max_value=1.0),
        loss_bad=st.floats(min_value=0.0, max_value=1.0),
        loss_good=st.floats(min_value=0.0, max_value=0.5),
        seed=st.integers(min_value=0, max_value=2**31),
        block=st.sampled_from([1, 7, 128, 1024]),
    )
    @settings(max_examples=60, deadline=None)
    def test_identical_drop_sequence(self, p_gb, p_bg, loss_bad, loss_good, seed, block):
        def make():
            return GilbertElliottLoss(
                p_good_to_bad=p_gb,
                p_bad_to_good=p_bg,
                loss_in_bad=loss_bad,
                loss_in_good=loss_good,
            )

        n = 300
        assert scalar_sequence(make(), seed, n) == block_sequence(make(), seed, n, block)

    def test_state_carries_across_blocks(self):
        """Two sample_drops calls equal one scalar pass of the same length."""
        model_a = GilbertElliottLoss(p_good_to_bad=0.2, p_bad_to_good=0.4, loss_in_bad=0.8)
        model_b = GilbertElliottLoss(p_good_to_bad=0.2, p_bad_to_good=0.4, loss_in_bad=0.8)
        rng = np.random.default_rng(3)
        first = model_a.sample_drops(rng, 100)
        second = model_a.sample_drops(rng, 150)
        combined = list(first) + list(second)
        assert combined == scalar_sequence(model_b, 3, 250)

    def test_fallback_loop_matches_for_custom_models(self):
        """The base-class sample_drops loops should_drop with the same RNG."""

        class EveryThird(LossModel):
            def __init__(self):
                self.calls = 0

            def should_drop(self, rng):
                self.calls += 1
                return self.calls % 3 == 0

        drops = EveryThird().sample_drops(np.random.default_rng(0), 9)
        assert drops.tolist() == [False, False, True] * 3


class TestRateAtEquivalence:
    @given(data=st.data())
    @settings(max_examples=60, deadline=None)
    def test_bisect_matches_linear_scan(self, data):
        count = data.draw(st.integers(min_value=1, max_value=30))
        gaps = data.draw(
            st.lists(
                st.floats(min_value=0.0, max_value=5.0),
                min_size=count,
                max_size=count,
            )
        )
        start = data.draw(st.floats(min_value=-10.0, max_value=10.0))
        times = list(np.cumsum([start] + gaps[:-1]))  # non-decreasing, may repeat
        rates = data.draw(
            st.lists(
                st.floats(min_value=1e3, max_value=1e9),
                min_size=count,
                max_size=count,
            )
        )
        trace = BandwidthTrace(times=times, rates_bps=rates)
        queries = data.draw(
            st.lists(st.floats(min_value=-20.0, max_value=40.0), min_size=1, max_size=40)
        )
        # Include the breakpoints themselves: boundary behaviour must match.
        for query in queries + times:
            assert trace.rate_at(query) == trace.rate_at_scan(query)

    def test_segment_cache_survives_arbitrary_query_order(self):
        trace = BandwidthTrace(times=[0.0, 1.0, 1.0, 2.0, 5.0], rates_bps=[1, 2, 3, 4, 5])
        order = [4.9, 0.5, 1.0, 0.0, 7.0, 1.5, -3.0, 2.0, 1.0, 0.99, 5.0]
        for query in order:
            assert trace.rate_at(query) == trace.rate_at_scan(query)

    def test_duplicate_breakpoints_pick_latest_entry(self):
        trace = BandwidthTrace(times=[0.0, 1.0, 1.0], rates_bps=[1e6, 2e6, 3e6])
        assert trace.rate_at(1.0) == 3e6
        assert trace.rate_at(0.5) == 1e6


def _session_stats(seed: int, jitter: float = 0.0) -> tuple:
    steps = 400
    trace = BandwidthTrace(
        times=np.linspace(0.0, 2.0, steps).tolist(),
        rates_bps=(5e6 + 2e6 * np.sin(np.linspace(0, 9, steps))).tolist(),
    )
    config = PathConfig(
        loss_model=GilbertElliottLoss(p_good_to_bad=0.03, p_bad_to_good=0.3, loss_in_bad=0.5),
        bandwidth_trace=trace,
        jitter_std_s=jitter,
        seed=seed,
    )
    stats = run_fixed_bitrate_session(4e6, 2.0, uplink_config=config)
    summary = stats.summary()
    return (
        summary.count,
        summary.delivered,
        summary.mean_s,
        summary.p99_s,
        summary.mean_retransmissions,
    )


class TestSessionEquivalence:
    """The emulator's block-refill path must not change simulated semantics."""

    @pytest.mark.parametrize("jitter", [0.0, 0.002])
    @pytest.mark.parametrize("seed", [0, 7])
    def test_fastpath_on_off_identical(self, monkeypatch, seed, jitter):
        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert not fastpath_enabled()
        scalar = _session_stats(seed, jitter)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        assert fastpath_enabled()
        fast = _session_stats(seed, jitter)
        assert scalar == fast

    def test_block_refill_does_not_advance_callers_model(self, monkeypatch):
        """The path snapshots a stateful model: prefetching a 1024-decision
        block must not advance the chain state of the caller's instance."""
        monkeypatch.setenv(FASTPATH_ENV, "1")
        model = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0, loss_in_bad=0.9)
        config = PathConfig(loss_model=model, seed=0)
        run_fixed_bitrate_session(2e6, 1.0, uplink_config=config)
        assert model._in_bad_state is False

    def test_scalar_block_size_keeps_shared_model_semantics(self, monkeypatch):
        """The reference path draws one decision per packet and keeps exact
        scalar semantics: the caller's model advances with every packet the
        path offers."""
        monkeypatch.setenv(FASTPATH_ENV, "0")
        model = GilbertElliottLoss(p_good_to_bad=1.0, p_bad_to_good=0.0, loss_in_bad=0.9)
        config = PathConfig(loss_model=model, seed=0)
        run_fixed_bitrate_session(2e6, 1.0, uplink_config=config)
        assert model._in_bad_state is True


class TestHorizonEquivalence:
    """Batched run events must not observe arrivals beyond the run horizon."""

    def _overloaded_session(self):
        from repro.net.emulator import BernoulliLoss, PathConfig
        from repro.net.transport import VideoTransportSession

        config = PathConfig(
            bandwidth_bps=20_000,
            queue_capacity_bytes=2_000_000,
            loss_model=BernoulliLoss(0.0),
            seed=1,
        )
        session = VideoTransportSession(uplink_config=config)
        for frame_id in range(60):
            session.loop.schedule_at(
                frame_id / 30, lambda f=frame_id: session.send_frame(f, 25_000)
            )
        return session

    def _stats(self, session):
        summary = session.stats.summary()
        path = session.uplink.stats
        return (
            summary.count,
            summary.delivered,
            summary.mean_s if summary.delivered else None,
            path.packets_delivered,
            path.bytes_delivered,
        )

    @pytest.mark.parametrize("resume", [False, True])
    def test_backlogged_link_cut_at_horizon(self, monkeypatch, resume):
        """A 20 kbps link with a deep queue stretches a burst's arrivals far
        past the horizon: delivery stats and completions must match the
        scalar path both when the run is cut there and when it resumes."""
        results = {}
        for fast in ("0", "1"):
            monkeypatch.setenv(FASTPATH_ENV, fast)
            session = self._overloaded_session()
            session.run(until=7.0)
            if resume:
                session.run(until=300.0)
            results[fast] = self._stats(session)
        assert results["0"] == results["1"]


class TestFecSessionEquivalence:
    """FEC sessions take per-packet delivery under both flag values.

    With the flag on they keep the per-decision fast path (block drop
    sampling, bisect trace lookups, numpy XOR); delivery stays per-packet
    because parity decode decisions are coupled to individual arrival
    instants.  Every observable — latency summary, recovery/spurious
    counters, per-frame completion instants, retransmission counts — must
    match the scalar reference (``REPRO_NET_FASTPATH=0``) bit-for-bit.
    """

    @pytest.mark.parametrize(
        "variant",
        [
            {},
            {"jitter_std_s": 0.002},
            {"bitrate_bps": 250_000},
            {"seed": 11, "bitrate_bps": 8e6},
        ],
        ids=["plain", "jittered", "single_packet_frames", "high_rate"],
    )
    def test_fastpath_on_off_identical(self, monkeypatch, variant):
        from repro.analysis.perfbench import _run_fec_session

        monkeypatch.setenv(FASTPATH_ENV, "0")
        assert not fastpath_enabled()
        scalar = _run_fec_session(2.0, **variant)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        fast = _run_fec_session(2.0, **variant)
        assert scalar == fast

    def test_fec_recovery_actually_exercised(self, monkeypatch):
        """The equivalence above must not hold vacuously: the bursty FEC
        session really recovers packets from parity."""
        from repro.analysis.perfbench import _run_fec_session

        monkeypatch.setenv(FASTPATH_ENV, "1")
        result = _run_fec_session(2.0)
        fec = dict(result[5])
        assert fec["recovered_packets"] > 0

    def test_fec_session_takes_reference_delivery(self, monkeypatch):
        """FEC sessions deliver per packet under both flag values, yet keep
        the per-decision fast path when it is on — otherwise the FEC
        equivalence gates would compare the reference path with itself."""
        from repro.net.emulator import DEFAULT_DROP_BLOCK_SIZE
        from repro.net.fec import FecConfig
        from repro.net.transport import TransportConfig, VideoTransportSession

        for fast, drop_block in (("0", 1), ("1", DEFAULT_DROP_BLOCK_SIZE)):
            monkeypatch.setenv(FASTPATH_ENV, fast)
            session = VideoTransportSession(
                transport_config=TransportConfig(fec=FecConfig(group_size=5))
            )
            assert not session.block_mode
            assert session.uplink._deliver_block is None
            assert session.uplink._refill_size == drop_block

    def test_block_mode_sender_rejects_fec(self):
        """Block-mode senders carry no parity, so an FEC config must not
        silently lose its protection there."""
        from repro.net.emulator import EmulatedPath
        from repro.net.events import EventLoop
        from repro.net.fec import FecConfig
        from repro.net.stats import TransportStats
        from repro.net.transport import TransportConfig, VideoSender

        loop = EventLoop()
        path = EmulatedPath(loop, PathConfig(), lambda packet, arrival: None)
        config = TransportConfig(fec=FecConfig(group_size=5))
        with pytest.raises(ValueError):
            VideoSender(loop, path, config, TransportStats(), block_mode=True)


def _sample_fec_configs(count: int = 8, seed: int = 2026) -> list[dict]:
    """Sampled FEC session configurations, a pure function of ``seed``.

    Scenarios come from ``traces.corpus(0)`` (bursty, trace-driven and
    lossy links alike); the controller column is a permutation so fixed
    and adaptive-FEC closed-loop sessions are drawn equally often.
    """
    from repro.net.traces import corpus

    scenarios = corpus(0)
    rng = np.random.default_rng(seed)
    picks = rng.choice(len(scenarios), size=count, replace=False)
    bitrates = rng.choice([250_000.0, 1_000_000.0, 4_000_000.0], size=count)
    group_sizes = rng.choice([3, 5, 8], size=count)
    closed_loop = rng.permutation([False, True] * (count // 2))
    path_seeds = rng.integers(0, 2**16, size=count)
    return [
        {
            "scenario": scenarios[int(picks[i])],
            "bitrate_bps": float(bitrates[i]),
            "group_size": int(group_sizes[i]),
            "closed_loop": bool(closed_loop[i]),
            "path_seed": int(path_seeds[i]),
        }
        for i in range(count)
    ]


FEC_SAMPLES = _sample_fec_configs()


def _run_sampled_fec_session(sample: dict, duration_s: float = 3.0) -> tuple:
    """Every observable of one sampled FEC session: stats, control log and
    the serialized telemetry stream."""
    from repro.net.control import controller_from_spec, preset_controller_spec
    from repro.net.emulator import bandwidth_trace_from_spec, loss_model_from_spec
    from repro.net.fec import FecConfig
    from repro.net.transport import (
        FixedBitrateWorkload,
        TransportConfig,
        VideoTransportSession,
        drive_closed_loop,
        drive_fixed_bitrate,
    )
    from repro.obs import Telemetry

    scenario = sample["scenario"]
    uplink = PathConfig(
        loss_model=loss_model_from_spec(scenario.loss_model),
        bandwidth_trace=bandwidth_trace_from_spec(scenario.bandwidth_trace),
        seed=sample["path_seed"],
    )
    fec = FecConfig(group_size=sample["group_size"])
    telemetry = Telemetry()
    source = FixedBitrateWorkload(bitrate_bps=sample["bitrate_bps"])
    if sample["closed_loop"]:
        spec = {
            **preset_controller_spec("gcc"),
            "estimator": {"kind": "gcc", "initial_rate_bps": sample["bitrate_bps"]},
            "adapt_fec": True,
        }
        session = VideoTransportSession(
            uplink_config=uplink,
            transport_config=TransportConfig(fec=fec, report_interval_s=0.2),
            controller=controller_from_spec(spec),
            telemetry=telemetry,
        )
        drive_closed_loop(session, source, duration_s)
    else:
        session = VideoTransportSession(
            uplink_config=uplink, transport_config=TransportConfig(fec=fec), telemetry=telemetry
        )
        drive_fixed_bitrate(session, source, duration_s)
    session.finalize_telemetry()
    summary = session.stats.summary()
    stats = (
        summary.count,
        summary.delivered,
        summary.mean_s,
        summary.p99_s,
        summary.mean_retransmissions,
        tuple(sorted(session.fec_summary().items())),
        session.sender.packets_sent,
        session.sender.retransmissions_sent,
        tuple((e.frame_id, e.complete_time) for e in session.receiver.delivered_frames),
    )
    return stats, list(session.control_log), telemetry.sim_stream()


class TestSampledFecEquivalence:
    """FEC sessions sampled over the trace corpus, bitrate, group size and
    fixed vs adaptive-FEC closed loop: the fast path must reproduce the
    reference path's stats, control log and telemetry bytes exactly."""

    @pytest.mark.parametrize(
        "sample",
        FEC_SAMPLES,
        ids=[
            f"{s['scenario'].name}-{int(s['bitrate_bps'] / 1000)}k-g{s['group_size']}"
            f"-{'gcc' if s['closed_loop'] else 'fixed'}"
            for s in FEC_SAMPLES
        ],
    )
    def test_fastpath_on_off_identical(self, monkeypatch, sample):
        monkeypatch.setenv(FASTPATH_ENV, "0")
        scalar = _run_sampled_fec_session(sample)
        monkeypatch.setenv(FASTPATH_ENV, "1")
        fast = _run_sampled_fec_session(sample)
        assert scalar == fast
        if sample["closed_loop"]:
            # Not vacuous: reports reached the controller mid-session.
            assert len(scalar[1]) > 1
