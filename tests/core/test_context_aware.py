"""Tests for the context-aware streaming core: patches, QP maps, streamer, pipeline."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.core import (
    AIVideoChatSession,
    ChatSessionConfig,
    ContextAwareStreamer,
    PatchGrid,
    QpMapConfig,
    StreamingConfig,
    UniformStreamer,
    correlation_to_qp,
    qp_map_statistics,
)
from repro.net import BernoulliLoss, PathConfig
from repro.video import MIN_QP, VideoFrame, make_sports_scene, region_quality


def qp_to_expected_correlation(qp, config):
    """Invert Equation (2): the analytic oracle of ``correlation_to_qp``."""
    qp = np.clip(qp, MIN_QP, config.max_qp)
    return 2.0 * (1.0 - qp / config.max_qp) ** (1.0 / config.gamma) - 1.0


@pytest.fixture(scope="module")
def scene():
    return make_sports_scene(2, height=176, width=320)


@pytest.fixture(scope="module")
def frame(scene):
    return scene.to_source().frame_at(0)


@pytest.fixture(scope="module")
def score_fact(scene):
    return next(f for f in scene.facts if f.key == "score")


class TestPatchGrid:
    def test_grid_shape_and_count(self):
        grid = PatchGrid(100, 200, patch_size=32)
        assert grid.shape == (4, 7)
        assert grid.patch_count == 28

    def test_edge_patches_are_clipped(self):
        grid = PatchGrid(100, 200, patch_size=32)
        last = grid.patch(3, 6)
        assert last.pixel_region == (96, 100, 192, 200)
        assert last.height == 4 and last.width == 8

    def test_extract_matches_region(self):
        grid = PatchGrid(64, 64, patch_size=16)
        pixels = np.arange(64 * 64).reshape(64, 64).astype(float)
        patch = grid.patch(1, 2)
        np.testing.assert_array_equal(grid.extract(pixels, patch), pixels[16:32, 32:48])

    def test_validation(self):
        with pytest.raises(ValueError):
            PatchGrid(0, 10, 16)
        with pytest.raises(ValueError):
            PatchGrid(10, 10, 0)
        grid = PatchGrid(64, 64, 16)
        with pytest.raises(IndexError):
            grid.patch(10, 0)


class TestQpMapping:
    def test_equation2_reference_values(self):
        # ρ = 1 → QP 0; ρ = -1 → QP 51; ρ = 0 with γ=3 → 51 * (1 - 0.125) = 44.625
        assert correlation_to_qp(1.0) == pytest.approx(0.0)
        assert correlation_to_qp(-1.0) == pytest.approx(51.0)
        assert correlation_to_qp(0.0) == pytest.approx(51.0 * (1 - 0.125))

    def test_monotone_decreasing_in_correlation(self):
        rhos = np.linspace(-1, 1, 21)
        qps = correlation_to_qp(rhos)
        assert (np.diff(qps) <= 1e-9).all()

    def test_gamma_controls_aggressiveness(self):
        mild = correlation_to_qp(0.2, QpMapConfig(gamma=1.0))
        aggressive = correlation_to_qp(0.2, QpMapConfig(gamma=5.0))
        assert aggressive > mild

    def test_inverse_mapping_round_trips(self):
        config = QpMapConfig(gamma=3.0)
        for rho in [-0.6, 0.0, 0.4, 0.9]:
            qp = correlation_to_qp(rho, config)
            assert qp_to_expected_correlation(qp, config) == pytest.approx(rho, abs=1e-6)

    def test_out_of_range_correlation_is_clipped(self):
        assert correlation_to_qp(5.0) == pytest.approx(0.0)
        assert correlation_to_qp(-5.0) == pytest.approx(51.0)

    def test_uniform_map_and_statistics(self):
        stats = qp_map_statistics(np.full((4, 6), 35.0))
        assert stats["mean_qp"] == pytest.approx(35.0)
        assert stats["std_qp"] == pytest.approx(0.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            QpMapConfig(gamma=0)
        with pytest.raises(ValueError):
            QpMapConfig(min_qp=40, max_qp=20)

    @settings(max_examples=30, deadline=None)
    @given(st.floats(min_value=-1.0, max_value=1.0), st.floats(min_value=0.5, max_value=8.0))
    def test_property_qp_in_valid_range(self, rho, gamma):
        qp = correlation_to_qp(rho, QpMapConfig(gamma=gamma))
        assert 0.0 <= qp <= 51.0


class TestContextAwareStreamer:
    def test_qp_map_gives_important_region_lowest_qp(self, scene, frame, score_fact):
        streamer = ContextAwareStreamer()
        correlation = streamer.correlation_for(scene, score_fact.question, frame)
        qp_map = streamer.qp_map_for(correlation, frame.pixels.shape)
        block = streamer.codec.config.block_size
        region = scene.object_by_name("scoreboard").pixel_region(scene.height, scene.width)
        br0, br1 = region[0] // block, max(region[0] // block + 1, region[1] // block)
        bc0, bc1 = region[2] // block, max(region[2] // block + 1, region[3] // block)
        important_qp = qp_map[br0:br1, bc0:bc1].mean()
        assert important_qp < qp_map.mean() - 10

    def test_encode_protects_question_region_at_low_bitrate(self, scene, frame, score_fact):
        streamer = ContextAwareStreamer()
        baseline = UniformStreamer()
        target = 150_000.0
        ours = streamer.encode_frame(scene, frame, score_fact.question, target_bitrate_bps=target, fps=2.0)
        base = baseline.encode_frame(frame, target_bitrate_bps=target, fps=2.0)
        region = scene.object_by_name("scoreboard").pixel_region(scene.height, scene.width)
        ours_quality = region_quality(frame.pixels, ours.decoded, region).readable_score
        base_quality = region_quality(frame.pixels, base.decoded, region).readable_score
        assert ours_quality > base_quality + 0.1
        # Bitrates are matched by the rate controller.
        assert ours.encoded.total_bits == pytest.approx(base.encoded.total_bits, rel=0.3)

    def test_encode_without_target_uses_equation2_directly(self, scene, frame, score_fact):
        streamer = ContextAwareStreamer()
        outcome = streamer.encode_frame(scene, frame, score_fact.question)
        assert outcome.rate_control is None
        assert outcome.qp_map.std() > 5.0
        assert outcome.client_compute_ms > 0

    def test_uniform_streamer_has_flat_qp(self, frame):
        outcome = UniformStreamer().encode_frame(frame, qp=35)
        assert outcome.qp_map.std() == pytest.approx(0.0)
        assert outcome.correlation is None

    def test_accuracy_predictor_monotone_with_bitrate(self, scene, frame, score_fact):
        streamer = ContextAwareStreamer()
        predictor = streamer.accuracy_predictor(scene, frame, score_fact, fps=2.0)
        low = predictor(40_000.0)
        high = predictor(800_000.0)
        assert high >= low
        assert high == 1.0


class TestPipeline:
    def _session(self, scene, context_aware=True, loss=0.0, jitter_buffer=False):
        return AIVideoChatSession(
            scene,
            session_config=ChatSessionConfig(
                target_bitrate_bps=250_000.0,
                context_aware=context_aware,
                use_jitter_buffer=jitter_buffer,
            ),
            uplink_config=PathConfig(loss_model=BernoulliLoss(loss), seed=4),
        )

    def test_turn_delivers_frames_and_answers(self, scene, score_fact):
        result = self._session(scene).run_turn(score_fact)
        assert result.frames_sent >= 1
        assert result.frames_delivered == result.frames_sent
        assert result.answer.ground_truth == score_fact.value
        assert result.achieved_bitrate_bps > 0

    def test_latency_budget_contains_all_stages(self, scene, score_fact):
        result = self._session(scene).run_turn(score_fact)
        breakdown = result.latency_budget.breakdown()
        assert breakdown["inference_ms"] > 200
        assert breakdown["transmission_ms"] > 0
        assert result.response_latency_ms == pytest.approx(breakdown["total_ms"])

    def test_jitter_buffer_adds_latency_but_not_accuracy(self, scene, score_fact):
        without = self._session(scene, jitter_buffer=False).run_turn(score_fact)
        with_buffer = self._session(scene, jitter_buffer=True).run_turn(score_fact)
        assert with_buffer.jitter_buffer_delay_ms >= without.jitter_buffer_delay_ms
        assert with_buffer.answer.evidence_quality == pytest.approx(
            without.answer.evidence_quality, abs=1e-9
        )

    def test_context_aware_beats_baseline_at_scarce_bitrate(self, scene, score_fact):
        config = ChatSessionConfig(target_bitrate_bps=120_000.0, context_aware=True)
        baseline_config = ChatSessionConfig(target_bitrate_bps=120_000.0, context_aware=False)
        ours = AIVideoChatSession(scene, session_config=config).run_turn(score_fact)
        base = AIVideoChatSession(scene, session_config=baseline_config).run_turn(score_fact)
        assert ours.answer.evidence_quality > base.answer.evidence_quality

    def test_dialogue_runs_one_turn_per_fact(self, scene):
        session = self._session(scene)
        results = session.run_dialogue(scene.facts[:2])
        assert len(results) == 2
        with pytest.raises(ValueError):
            session.run_dialogue(scene.facts[:2], user_words=["only one"])
