"""Cross-module integration tests: the full stack working together.

These tests exercise the seams between substrates that the unit tests cover
individually: context-aware encoding feeding the transport, the transport
feeding the MLLM, ABR driven by the accuracy predictor, DeViBench samples
evaluated through the full pipeline, and the public package surface.
"""

import importlib

import numpy as np
import pytest

import repro
from repro.core import (
    AIVideoChatSession,
    ChatSessionConfig,
    ContextAwareStreamer,
    UniformStreamer,
)
from repro.mllm import SimulatedMLLM
from repro.net import (
    AiOrientedAbr,
    BernoulliLoss,
    GoogleCongestionControl,
    PathConfig,
    RateSample,
    ThroughputAbr,
    VideoTransportSession,
    expected_frame_latency,
)
from repro.video import VideoFrame, make_park_scene, make_sports_scene


@pytest.fixture(scope="module")
def scene():
    return make_sports_scene(5, height=176, width=320)


class TestPackageSurface:
    def test_subpackages_importable(self):
        assert repro.__version__
        for name in ("core", "net", "video", "mllm", "devibench", "analysis"):
            assert hasattr(repro, name)

    def test_public_exports_resolve(self):
        subpackages = ("analysis", "core", "devibench", "distrib", "lint", "mllm", "net", "obs", "video")
        dangling = []
        for name in subpackages:
            module = importlib.import_module(f"repro.{name}")
            dangling += [f"repro.{name}.{export}" for export in module.__all__ if not hasattr(module, export)]
        assert dangling == []


class TestEncoderToTransport:
    def test_context_aware_frames_travel_over_lossy_uplink(self, scene):
        """Encoded frame sizes drive packetisation; all frames are recovered."""
        streamer = ContextAwareStreamer()
        fact = next(f for f in scene.facts if f.key == "score")
        source = scene.to_source()
        session = VideoTransportSession(
            uplink_config=PathConfig(loss_model=BernoulliLoss(0.05), seed=2)
        )
        sizes = []
        for index in range(3):
            frame = source.frame_at(index * 15)
            outcome = streamer.encode_frame(
                scene, frame, fact.question, target_bitrate_bps=300_000, fps=2.0
            )
            sizes.append(outcome.encoded.size_bytes)
            session.loop.schedule_at(
                index * 0.5, lambda i=index, s=outcome.encoded.size_bytes: session.send_frame(i, s)
            )
        session.run(until=4.0)
        summary = session.stats.summary()
        assert summary.delivered == 3
        # Low-bitrate frames stay close to the propagation delay even with loss.
        assert summary.mean_s < 0.15
        assert all(size > 0 for size in sizes)


class TestAbrIntegration:
    def test_ai_oriented_abr_uses_streamer_accuracy_predictor(self, scene):
        streamer = ContextAwareStreamer()
        fact = next(f for f in scene.facts if f.key == "score")
        frame = scene.to_source().frame_at(0)
        predictor = streamer.accuracy_predictor(scene, frame, fact, fps=2.0)
        policy = AiOrientedAbr(
            candidate_bitrates_bps=(50_000.0, 150_000.0, 400_000.0, 1_000_000.0),
            accuracy_target=0.9,
            accuracy_predictor=predictor,
            latency_budget_s=0.068,
            latency_predictor=lambda rate: expected_frame_latency(
                rate, fps=2.0, bandwidth_bps=10_000_000.0, loss_rate=0.02, rtt_s=0.065
            ),
        )
        decision = policy.decide(bandwidth_estimate_bps=10_000_000.0)
        traditional = ThroughputAbr().decide(bandwidth_estimate_bps=10_000_000.0)
        # The AI-oriented policy lands far below the traditional grey-region pick
        # while predicting full accuracy for the current question.
        assert decision.bitrate_bps < traditional.bitrate_bps / 4
        assert predictor(decision.bitrate_bps) == 1.0

    def test_gcc_estimate_feeds_abr(self):
        gcc = GoogleCongestionControl()
        for index in range(15):
            gcc.update(
                RateSample(
                    timestamp=index * 0.2,
                    receive_rate_bps=6_000_000.0,
                    loss_ratio=0.0,
                    one_way_delay_s=0.032,
                )
            )
        decision = ThroughputAbr().decide(bandwidth_estimate_bps=gcc.estimate_bps)
        assert decision.bitrate_bps <= gcc.estimate_bps


class TestEndToEndAccuracyShape:
    def test_context_aware_recovers_accuracy_lost_to_uniform_compression(self, scene):
        """The headline result end-to-end: same scarce bitrate, higher evidence."""
        fact = next(f for f in scene.facts if f.key == "score")
        results = {}
        for context_aware in (False, True):
            session = AIVideoChatSession(
                scene,
                session_config=ChatSessionConfig(
                    target_bitrate_bps=130_000.0, context_aware=context_aware
                ),
                uplink_config=PathConfig(seed=3),
            )
            results[context_aware] = session.run_turn(fact)
        assert results[True].answer.evidence_quality > results[False].answer.evidence_quality
        assert results[True].achieved_bitrate_bps == pytest.approx(
            results[False].achieved_bitrate_bps, rel=0.3
        )

    def test_uniform_and_context_aware_match_at_generous_bitrate(self, scene):
        """When bits are plentiful both methods saturate — no regression."""
        fact = next(f for f in scene.facts if f.key == "score")
        mllm = SimulatedMLLM(seed=2)
        frame = scene.to_source().frame_at(0)
        ours = ContextAwareStreamer().encode_frame(
            scene, frame, fact.question, target_bitrate_bps=2_000_000, fps=2.0
        )
        base = UniformStreamer().encode_frame(frame, target_bitrate_bps=2_000_000, fps=2.0)
        originals = [frame]
        ours_answer = mllm.answer_question(
            fact, scene, [VideoFrame(0, 0.0, ours.decoded)], originals
        )
        base_answer = mllm.answer_question(
            fact, scene, [VideoFrame(0, 0.0, base.decoded)], originals
        )
        assert ours_answer.knows and base_answer.knows


class TestSceneVariety:
    @pytest.mark.parametrize("builder_seed", [0, 7, 21])
    def test_pipeline_works_across_scene_seeds(self, builder_seed):
        scene = make_park_scene(builder_seed, height=160, width=288)
        fact = next(f for f in scene.facts if f.key == "ear_type")
        session = AIVideoChatSession(
            scene,
            session_config=ChatSessionConfig(target_bitrate_bps=250_000.0, context_aware=True),
        )
        result = session.run_turn(fact)
        assert result.frames_delivered >= 1
        assert 0.0 <= result.answer.evidence_quality <= 1.0
