"""Tests for the sender control plane: receiver reports, controllers, specs.

The closed feedback loop must satisfy two hard contracts: (1) report timing
and contents are bit-identical between the scalar per-packet delivery path
and the batched block fastpath, even over lossy/jittery feedback channels;
(2) controllers are deterministic — same seed and trace produce the same
action sequence across runs and across delivery modes.  The sawtooth
tracking test pins the acceptance criterion: a GCC + ABR sender follows the
capacity trace while fixed-bitrate baselines demonstrably over/under-shoot.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core.spec import ConfigError, from_spec, to_spec
from repro.net import (
    BernoulliLoss,
    FecConfig,
    FixedBitrateWorkload,
    PathConfig,
    TransportConfig,
    VideoTransportSession,
    bandwidth_trace_from_spec,
    drive_closed_loop,
    family_scenarios,
    loss_model_from_spec,
)
from repro.net.abr import AiOrientedAbr, ThroughputAbr
from repro.net.congestion import AimdController, GoogleCongestionControl
from repro.net.control import (
    ABR_KINDS,
    ESTIMATOR_KINDS,
    ClosedLoopController,
    ControlAction,
    FixedController,
    ReportCollector,
    controller_from_spec,
    controller_to_spec,
    fec_group_size_for_overhead,
    preset_controller_spec,
)
from repro.net.emulator import FASTPATH_ENV


# ---------------------------------------------------------------------------
# ReportCollector: the deadline-grid accounting both delivery modes share
# ---------------------------------------------------------------------------


class TestReportCollector:
    def test_interval_must_be_positive(self):
        with pytest.raises(ValueError):
            ReportCollector(0.0)

    def test_first_record_arms_on_interval_grid(self):
        collector = ReportCollector(0.2)
        armed = collector.record(0.07, 0.05, 1200, 0)
        assert armed == (1, 0.2)

    def test_second_record_in_same_window_does_not_rearm(self):
        collector = ReportCollector(0.2)
        assert collector.record(0.07, 0.05, 1200, 0) is not None
        assert collector.record(0.11, 0.09, 1200, 1) is None

    def test_deadlines_are_integer_multiples_of_the_interval(self):
        # The grid is computed as tick * interval from one integer — never by
        # accumulating now + interval — so both delivery modes land on the
        # exact same float no matter how they reached it.
        collector = ReportCollector(0.2)
        _, deadline = collector.record(0.55, 0.5, 900, 0)
        assert deadline == 3 * 0.2
        report, armed = collector.collect(deadline, 3)
        assert report is not None
        assert armed == (4, 4 * 0.2)

    def test_out_of_order_record_supersedes_later_arming(self):
        # An unordered fastpath run can record a late-window sample before an
        # early-window one; the earlier sample must lower the armed tick and
        # the superseded (stale) fire must become a no-op.
        collector = ReportCollector(0.2)
        late = collector.record(0.45, 0.4, 900, 5)
        assert late == (3, pytest.approx(0.6))
        early = collector.record(0.05, 0.0, 900, 0)
        assert early == (1, pytest.approx(0.2))
        report, armed = collector.collect(0.2, 1)
        assert report is not None and report.received_packets == 1
        assert armed == (2, pytest.approx(0.4))
        # The stale tick-3 fire observes a collector armed at tick 2: no-op.
        assert collector.collect(0.6, 3) == (None, None)

    def test_sample_at_fire_instant_waits_for_next_window(self):
        collector = ReportCollector(0.2)
        collector.record(0.1, 0.05, 1000, 0)
        collector.record(0.2, 0.15, 1000, 1)  # exactly at the deadline
        report, armed = collector.collect(0.2, 1)
        assert report is not None
        assert report.received_packets == 1
        assert armed is not None  # the boundary sample keeps the chain armed
        follow_up, _ = collector.collect(0.4, 2)
        assert follow_up is not None and follow_up.received_packets == 1

    def test_report_contents_rate_loss_delay_highest(self):
        collector = ReportCollector(1.0)
        # Sequences 0..4 with 2 and 3 missing; one FEC packet (sequence -1)
        # contributes to rate and delay but not to the loss accounting.
        for arrival, seq, size in ((0.10, 0, 500), (0.20, 1, 500), (0.30, 4, 500)):
            collector.record(arrival, arrival - 0.05, size, seq)
        collector.record(0.40, 0.35, 300, -1)
        report, _ = collector.collect(1.0, 1)
        assert report.receive_rate_bps == pytest.approx((3 * 500 + 300) * 8.0 / 1.0)
        assert report.highest_sequence == 4
        assert report.received_packets == 3
        assert report.expected_packets == 5
        assert report.loss_fraction == pytest.approx(1.0 - 3 / 5)
        assert report.one_way_delay_s == pytest.approx(0.05)
        assert len(report.delay_samples) == 4

    def test_loss_is_cumulative_across_windows(self):
        collector = ReportCollector(1.0)
        collector.record(0.1, 0.1, 100, 9)
        first, _ = collector.collect(1.0, 1)
        assert first.expected_packets == 10 and first.received_packets == 1
        collector.record(1.1, 1.1, 100, 10)
        second, _ = collector.collect(2.0, 2)
        # Only one new sequence slot was expected after highest=9.
        assert second.expected_packets == 1 and second.loss_fraction == 0.0
        assert collector.highest_sequence == 10

    def test_recording_order_does_not_change_the_report(self):
        samples = [(0.171, 3, 0.021, 1200), (0.054, 0, 0.019, 900), (0.101, 1, 0.033, 1100)]
        reports = []
        for ordering in (samples, sorted(samples), list(reversed(samples))):
            collector = ReportCollector(0.2)
            for arrival, seq, delay, size in ordering:
                collector.record(arrival, arrival - delay, size, seq)
            report, _ = collector.collect(0.2, 1)
            reports.append(report)
        assert reports[0] == reports[1] == reports[2]

    def test_chain_goes_dormant_and_rearms(self):
        collector = ReportCollector(0.2)
        collector.record(0.1, 0.1, 100, 0)
        report, armed = collector.collect(0.2, 1)
        assert report is not None and armed == (2, pytest.approx(0.4))
        # Nothing arrived in the next window: no report, chain goes dormant.
        assert collector.collect(0.4, 2) == (None, None)
        # A new sample re-arms from scratch on the absolute grid.
        assert collector.record(0.95, 0.9, 100, 1) == (5, pytest.approx(1.0))

    def test_empty_window_between_samples_emits_no_report(self):
        collector = ReportCollector(0.2)
        collector.record(0.1, 0.1, 100, 0)
        collector.record(0.5, 0.45, 100, 1)  # lands two windows later
        report, armed = collector.collect(0.2, 1)
        assert report is not None
        report, armed = collector.collect(0.4, 2)
        assert report is None  # the 0.5 sample has not arrived "before" 0.4
        assert armed == (3, pytest.approx(0.6))
        report, _ = collector.collect(0.6, 3)
        assert report is not None and report.received_packets == 1


class TestFecGroupSize:
    def test_ratio_to_group_size(self):
        assert fec_group_size_for_overhead(0.2) == 5
        assert fec_group_size_for_overhead(0.5) == 2
        assert fec_group_size_for_overhead(1.0) == 1
        assert fec_group_size_for_overhead(2.0) == 1  # clamped low
        assert fec_group_size_for_overhead(0.001) == 64  # clamped high

    def test_non_positive_ratio_rejected(self):
        with pytest.raises(ValueError):
            fec_group_size_for_overhead(0.0)
        with pytest.raises(ValueError):
            fec_group_size_for_overhead(-0.1)


# ---------------------------------------------------------------------------
# Controllers and JSON-able spec factories
# ---------------------------------------------------------------------------


class TestControllers:
    def test_fixed_controller_ignores_reports(self):
        controller = FixedController(bitrate_bps=3e6, fec_overhead_ratio=0.25)
        initial = controller.initial_action()
        assert initial.target_bitrate_bps == 3e6
        assert initial.fec_overhead_ratio == 0.25
        # Any report yields the same action.
        collector = ReportCollector(0.2)
        collector.record(0.1, 0.05, 1000, 0)
        report, _ = collector.collect(0.2, 1)
        assert controller.on_report(report, 0.2) == initial

    def test_closed_loop_composes_estimator_and_abr(self):
        controller = ClosedLoopController(GoogleCongestionControl(), ThroughputAbr())
        collector = ReportCollector(0.2)
        collector.record(0.1, 0.05, 25_000, 0)
        report, _ = collector.collect(0.2, 1)
        action = controller.on_report(report, 0.2)
        assert isinstance(action, ControlAction)
        assert action.target_bitrate_bps > 0
        assert action.fec_overhead_ratio is None

    def test_adaptive_fec_scales_with_loss(self):
        controller = ClosedLoopController(
            AimdController(), ThroughputAbr(), adapt_fec=True, fec_loss_multiplier=2.0
        )
        lossless = ReportCollector(1.0)
        lossless.record(0.1, 0.1, 100, 0)
        clean, _ = lossless.collect(1.0, 1)
        assert controller.on_report(clean, 1.0).fec_overhead_ratio == 0.05  # floor
        lossy = ReportCollector(1.0)
        lossy.record(0.1, 0.1, 100, 9)  # 1 of 10 expected slots
        dirty, _ = lossy.collect(1.0, 1)
        action = controller.on_report(dirty, 1.0)
        assert action.fec_overhead_ratio == 0.5  # 0.9 loss * 2, clamped to max

    def test_determinism_same_seed_same_actions(self):
        def actions():
            controller = controller_from_spec(preset_controller_spec("gcc"))
            out = [controller.initial_action()]
            collector = ReportCollector(0.2)
            rng = np.random.default_rng(7)
            for k, seq in enumerate(rng.integers(0, 50, size=40).tolist()):
                collector.record(0.01 + 0.05 * k, 0.05 * k, 1000 + seq, k)
            now = 0.2
            tick = 1
            while True:
                report, armed = collector.collect(now, tick)
                if report is not None:
                    out.append(controller.on_report(report, now))
                if armed is None:
                    break
                tick, now = armed
            return out

        assert actions() == actions()


class TestSpecFactories:
    def test_controller_round_trip_preserves_spec(self):
        for preset in ("fixed", "gcc", "aimd", "gcc-buffer", "aimd-ai"):
            spec = preset_controller_spec(preset)
            controller = controller_from_spec(spec)
            rebuilt = controller_from_spec(controller_to_spec(controller))
            assert controller_to_spec(rebuilt) == controller_to_spec(controller)

    def test_controller_spec_is_pinned(self):
        # controller_to_spec output lands in every closed_loop_session record
        # and so in the e2e benchmark's golden digests: pin it value for value.
        gcc = controller_to_spec(controller_from_spec(preset_controller_spec("gcc")))
        assert gcc == {
            "kind": "closed_loop",
            "estimator": {
                "kind": "gcc",
                "initial_rate_bps": 1000000.0,
                "min_rate_bps": 50000.0,
                "max_rate_bps": 50000000.0,
                "increase_factor": 1.08,
                "decrease_factor": 0.85,
                "overuse_threshold_s": 0.004,
                "high_loss_threshold": 0.1,
                "low_loss_threshold": 0.02,
                "window": 20,
            },
            "abr": {
                "kind": "throughput",
                "ladder_bps": [
                    300000.0, 600000.0, 1000000.0, 2000000.0,
                    4000000.0, 6000000.0, 8000000.0, 10000000.0,
                ],
                "safety_factor": 0.95,
            },
            "seed": 0,
        }
        aimd = controller_to_spec(
            ClosedLoopController(
                AimdController(), ThroughputAbr(ladder_bps=(5e5, 1e6)), adapt_fec=True, seed=4
            )
        )
        assert aimd == {
            "kind": "closed_loop",
            "estimator": {
                "kind": "aimd",
                "initial_rate_bps": 1000000.0,
                "min_rate_bps": 50000.0,
                "max_rate_bps": 50000000.0,
                "additive_increase_bps": 100000.0,
                "multiplicative_decrease": 0.7,
                "loss_threshold": 0.02,
            },
            "abr": {"kind": "throughput", "ladder_bps": [500000.0, 1000000.0], "safety_factor": 0.95},
            "seed": 4,
            "adapt_fec": True,
            "fec_min_overhead": 0.05,
            "fec_max_overhead": 0.5,
            "fec_loss_multiplier": 2.0,
        }

    def test_adaptive_fec_survives_round_trip(self):
        controller = ClosedLoopController(
            AimdController(), ThroughputAbr(), adapt_fec=True, fec_max_overhead=0.4
        )
        spec = controller_to_spec(controller)
        assert spec["adapt_fec"] is True and spec["fec_max_overhead"] == 0.4
        rebuilt = controller_from_spec(spec)
        assert rebuilt.adapt_fec and rebuilt.fec_max_overhead == 0.4

    def test_unknown_kinds_rejected(self):
        with pytest.raises(ConfigError):
            from_spec(ESTIMATOR_KINDS, {"kind": "bbr"})
        with pytest.raises(ConfigError):
            from_spec(ABR_KINDS, {"kind": "oracle"})
        with pytest.raises(ConfigError):
            controller_from_spec({"kind": "rl"})
        with pytest.raises(ValueError, match="preset"):
            preset_controller_spec("nope")

    def test_callable_predictor_cannot_ride_a_spec(self):
        policy = AiOrientedAbr(accuracy_predictor=lambda bps: 0.9)
        with pytest.raises(ConfigError, match="callable"):
            to_spec(policy, ABR_KINDS)


# ---------------------------------------------------------------------------
# End-to-end sessions: the loop actually closes, in both delivery modes
# ---------------------------------------------------------------------------


def _closed_loop_session(
    controller_spec,
    *,
    report_interval_s=0.2,
    uplink_loss=0.02,
    uplink_jitter=0.0,
    feedback_loss=0.0,
    feedback_jitter=0.0,
    fec_group_size=0,
    duration_s=2.0,
    seed=3,
):
    session = VideoTransportSession(
        uplink_config=PathConfig(
            loss_model=BernoulliLoss(uplink_loss), seed=seed, jitter_std_s=uplink_jitter
        ),
        feedback_config=PathConfig(
            loss_model=BernoulliLoss(feedback_loss), seed=seed + 1, jitter_std_s=feedback_jitter
        ),
        transport_config=TransportConfig(
            report_interval_s=report_interval_s,
            fec=FecConfig(group_size=fec_group_size) if fec_group_size else None,
        ),
        controller=controller_from_spec(controller_spec),
    )
    drive_closed_loop(session, FixedBitrateWorkload(bitrate_bps=2e6), duration_s)
    return session


def _trajectory(session):
    actions = tuple(
        (when, action.target_bitrate_bps, action.fec_overhead_ratio, action.reason)
        for when, action in session.control_log
    )
    completions = tuple(
        (event.frame_id, event.complete_time) for event in session.receiver.delivered_frames
    )
    summary = session.stats.summary()
    return (summary.count, summary.delivered, summary.mean_s, summary.p99_s,
            session.reports_received, actions, completions)


class TestClosedLoopSessions:
    def test_reports_drive_the_sender(self):
        session = _closed_loop_session(preset_controller_spec("gcc"))
        assert session.reports_received > 0
        # Initial action + one per delivered report.
        assert len(session.control_log) == session.reports_received + 1
        assert session.sender.target_bitrate_bps is not None
        assert session.stats.summary().delivered > 0

    def test_open_loop_sessions_are_unchanged(self):
        # report_interval_s defaults to 0: no collector, no feedback traffic
        # beyond NACKs, no controller — the pre-control-plane behaviour.
        session = VideoTransportSession(uplink_config=PathConfig(seed=1))
        assert session.receiver._reports is None
        session.send_frame(0, 5000)
        session.run()
        assert session.reports_received == 0 and session.control_log == []

    def test_controller_determinism_across_runs(self):
        first = _trajectory(_closed_loop_session(preset_controller_spec("aimd")))
        second = _trajectory(_closed_loop_session(preset_controller_spec("aimd")))
        assert first == second

    @pytest.mark.parametrize(
        "kwargs",
        [
            {},
            {"uplink_jitter": 0.002},
            {"feedback_loss": 0.05, "feedback_jitter": 0.002},
            {"fec_group_size": 5},
            {"fec_group_size": 5, "uplink_jitter": 0.001},
        ],
        ids=["plain", "jittered", "lossy_feedback", "fec", "fec_jittered"],
    )
    def test_scalar_and_fast_modes_agree_bit_exactly(self, monkeypatch, kwargs):
        spec = preset_controller_spec("gcc")
        monkeypatch.setenv(FASTPATH_ENV, "0")
        scalar = _trajectory(_closed_loop_session(spec, **kwargs))
        monkeypatch.setenv(FASTPATH_ENV, "1")
        fast = _trajectory(_closed_loop_session(spec, **kwargs))
        assert scalar == fast

    def test_reports_survive_a_lossy_reordering_feedback_path(self):
        # A lossless uplink means every feedback packet is a report (no
        # NACKs), so the path's delivery counter exactly measures how many
        # reports survived; dropped reports must simply thin the control log,
        # late/reordered ones must still be applied in arrival order.
        session = _closed_loop_session(
            preset_controller_spec("gcc"),
            uplink_loss=0.0,
            feedback_loss=0.3,
            feedback_jitter=0.005,
        )
        assert session.reports_received == session.feedback.stats.packets_delivered
        assert 0 < session.reports_received < session.feedback.stats.packets_offered
        assert len(session.control_log) == session.reports_received + 1
        applied = [when for when, _ in session.control_log[1:]]
        assert applied == sorted(applied)

    def test_report_arriving_after_last_frame_is_still_applied(self):
        # The last window's report fires and crosses the feedback path after
        # every frame has been delivered; the session must drain to idle
        # (the chain goes dormant) and the controller still sees the report.
        session = VideoTransportSession(
            uplink_config=PathConfig(seed=2),
            transport_config=TransportConfig(report_interval_s=0.2),
            controller=controller_from_spec(preset_controller_spec("gcc")),
        )
        session.send_frame(0, 8000, capture_time=0.0)
        session.run()  # run_until_idle: raises if the report chain never ends
        assert session.reports_received == 1
        last_delivery = session.receiver.delivered_frames[-1].complete_time
        assert session.control_log[-1][0] > last_delivery

    def test_adaptive_fec_retunes_group_size_mid_session(self):
        spec = {
            "kind": "closed_loop",
            "estimator": {"kind": "gcc"},
            "abr": {"kind": "throughput"},
            "adapt_fec": True,
        }
        session = _closed_loop_session(spec, uplink_loss=0.08, fec_group_size=5, duration_s=3.0)
        ratios = {action.fec_overhead_ratio for _, action in session.control_log}
        assert len(ratios) > 1  # loss varies window to window
        group_sizes = {fec_group_size_for_overhead(r) for r in ratios if r is not None}
        assert len(group_sizes) > 1  # the encoder was actually re-tuned
        assert session.sender._fec_encoder.config.group_size in group_sizes
        assert session.stats.summary().delivered > 0


# ---------------------------------------------------------------------------
# Acceptance: tracking the congestion sawtooth (ISSUE 7 criterion)
# ---------------------------------------------------------------------------


def _sawtooth_run(controller_spec, duration_s=20.0):
    scenario = family_scenarios("congestion_sawtooth", seed=0)[0]
    session = VideoTransportSession(
        uplink_config=PathConfig(
            loss_model=loss_model_from_spec(scenario.loss_model),
            bandwidth_trace=bandwidth_trace_from_spec(scenario.bandwidth_trace),
            seed=0,
        ),
        transport_config=TransportConfig(report_interval_s=0.1),
        controller=controller_from_spec(controller_spec),
    )
    drive_closed_loop(session, FixedBitrateWorkload(bitrate_bps=2e6), duration_s)
    trace = scenario.bandwidth_trace
    bounds = list(trace["times"]) + [duration_s]
    rates = trace["rates_bps"]
    sent = [0.0] * len(rates)
    delivered = [0.0] * len(rates)
    for record in session.stats.frames:
        i = int(np.searchsorted(bounds, record.send_time, side="right")) - 1
        if 0 <= i < len(sent):
            sent[i] += record.size_bytes
    for event in session.receiver.delivered_frames:
        i = int(np.searchsorted(bounds, event.complete_time, side="right")) - 1
        if 0 <= i < len(delivered):
            delivered[i] += event.size_bytes
    phases = []  # (capacity, offered/capacity, delivered/capacity) after warm-up
    for i in range(len(rates)):
        width = bounds[i + 1] - bounds[i]
        if bounds[i] >= 2.5:
            phases.append(
                (rates[i], sent[i] * 8 / width / rates[i], delivered[i] * 8 / width / rates[i])
            )
    return session, phases, min(rates), max(rates)


class TestSawtoothTracking:
    """The closed-loop acceptance criterion on the congestion_sawtooth family.

    Stated band: after a 2.5 s warm-up, the GCC + throughput-ABR sender keeps
    the delivered rate between 0.10x and 1.05x of the phase capacity in
    *every* 1.25 s trace phase, averaging at least 0.35x, with no congestion
    collapse (delivery ratio stays ~1).  The fixed baselines break the band
    in the advertised direction: the high one offers ~2x the trough capacity
    and collapses, the low one never exceeds 0.2x at the peaks.

    The GCC estimator spec is tuned for the 0.1 s report cadence (smaller
    trendline window, overuse threshold above the per-window delay noise of
    frame serialisation) — exactly the knob surface the JSON specs exist for.
    """

    GCC_SPEC = {
        "kind": "closed_loop",
        "estimator": {
            "kind": "gcc",
            "overuse_threshold_s": 0.012,
            "window": 8,
            "low_loss_threshold": 0.05,
        },
        "abr": {"kind": "throughput"},
    }

    def test_gcc_tracks_the_capacity_trace(self):
        session, phases, _, _ = _sawtooth_run(self.GCC_SPEC)
        delivered_util = [d for _, _, d in phases]
        assert all(0.10 <= u <= 1.05 for u in delivered_util), delivered_util
        assert float(np.mean(delivered_util)) >= 0.35
        assert session.stats.summary().delivery_ratio >= 0.95

    def test_fixed_high_overshoots_and_collapses(self):
        _, phases, trough, _ = _sawtooth_run({"kind": "fixed", "bitrate_bps": 2.0 * trough_rate()})
        offered_util = [o for _, o, _ in phases]
        delivered_util = [d for _, _, d in phases]
        assert max(offered_util) > 1.5  # offers ~2x the trough capacity
        assert float(np.mean(delivered_util)) < 0.25  # standing queues eat it

    def test_fixed_high_delivery_ratio_collapses(self):
        session, _, _, _ = _sawtooth_run({"kind": "fixed", "bitrate_bps": 2.0 * trough_rate()})
        assert session.stats.summary().delivery_ratio < 0.5

    def test_fixed_low_undershoots_the_peaks(self):
        session, phases, _, peak = _sawtooth_run({"kind": "fixed", "bitrate_bps": 0.15 * peak_rate()})
        peak_util = [d for cap, _, d in phases if cap >= 0.99 * peak]
        assert peak_util and all(u < 0.20 for u in peak_util)
        assert session.stats.summary().delivery_ratio >= 0.95  # wasteful, not broken

    def test_gcc_beats_the_low_baseline_on_mean_utilisation(self):
        _, gcc_phases, _, _ = _sawtooth_run(self.GCC_SPEC)
        _, low_phases, _, _ = _sawtooth_run({"kind": "fixed", "bitrate_bps": 0.15 * peak_rate()})
        gcc_mean = float(np.mean([d for _, _, d in gcc_phases]))
        low_mean = float(np.mean([d for _, _, d in low_phases]))
        assert gcc_mean > low_mean + 0.1


def trough_rate() -> float:
    scenario = family_scenarios("congestion_sawtooth", seed=0)[0]
    return min(scenario.bandwidth_trace["rates_bps"])


def peak_rate() -> float:
    scenario = family_scenarios("congestion_sawtooth", seed=0)[0]
    return max(scenario.bandwidth_trace["rates_bps"])
