"""Tests for the simulated MLLM, sampler, inference model and tokenizers."""

import numpy as np
import pytest

from repro.mllm import (
    DEFAULT_MAX_PIXELS,
    LatencyBudget,
    MOBILE_MLLM,
    QWEN2_5_OMNI,
    ReceiverSampler,
    SimulatedMLLM,
    TokenizerConfig,
    ContinuousTokenizer,
    DiscreteTokenizer,
    compare_token_stream_bitrates,
    drop_and_recover_tokens,
    first_response_latency_ms,
    transmission_budget_ms,
)
from repro.mllm.model import MODE_FREE_RESPONSE, MllmProfile
from repro.video import BlockCodec, VideoFrame, make_sports_scene


@pytest.fixture(scope="module")
def scene():
    return make_sports_scene(1, height=160, width=288)


@pytest.fixture(scope="module")
def codec():
    return BlockCodec()


def _frames(scene, qp, codec, count=2):
    originals, decoded = [], []
    source = scene.to_source()
    for index in range(count):
        frame = source.frame_at(index * 15)
        _, recon = codec.roundtrip(frame.pixels, qp)
        originals.append(frame)
        decoded.append(VideoFrame(frame.frame_id, frame.timestamp, recon))
    return decoded, originals


class TestSimulatedMLLM:
    def test_detail_question_needs_high_quality(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        fact = next(f for f in scene.facts if f.key == "score")
        good_decoded, good_orig = _frames(scene, qp=10, codec=codec)
        bad_decoded, bad_orig = _frames(scene, qp=50, codec=codec)
        good = mllm.answer_question(fact, scene, good_decoded, good_orig)
        bad = mllm.answer_question(fact, scene, bad_decoded, bad_orig)
        assert good.knows and good.correct
        assert not bad.knows

    def test_coarse_question_survives_low_quality(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        fact = next(f for f in scene.facts if f.key == "present")
        decoded, originals = _frames(scene, qp=48, codec=codec)
        answer = mllm.answer_question(fact, scene, decoded, originals)
        assert answer.knows

    def test_multi_frame_fact_requires_two_frames(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        fact = next(f for f in scene.facts if f.multi_frame)
        decoded, originals = _frames(scene, qp=10, codec=codec, count=1)
        single = mllm.answer_question(fact, scene, decoded, originals)
        decoded2, originals2 = _frames(scene, qp=10, codec=codec, count=2)
        double = mllm.answer_question(fact, scene, decoded2, originals2)
        assert not single.knows
        assert double.knows

    def test_guessing_respects_choices(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        fact = next(f for f in scene.facts if f.key == "score")
        decoded, originals = _frames(scene, qp=51, codec=codec)
        answer = mllm.answer_question(
            fact, scene, decoded, originals, choices=list(fact.domain)
        )
        assert answer.guessed
        assert answer.answer in fact.domain

    def test_free_response_can_say_unclear(self, scene, codec):
        profile = MllmProfile("strict", free_response_guess_rate=0.0)
        mllm = SimulatedMLLM(profile=profile, seed=0)
        fact = next(f for f in scene.facts if f.key == "score")
        decoded, originals = _frames(scene, qp=51, codec=codec)
        answer = mllm.answer_question(
            fact, scene, decoded, originals, mode=MODE_FREE_RESPONSE
        )
        assert answer.answer == "unclear"
        assert not answer.correct

    def test_answers_are_deterministic(self, scene, codec):
        decoded, originals = _frames(scene, qp=40, codec=codec)
        fact = scene.facts[0]
        first = SimulatedMLLM(seed=5).answer_question(fact, scene, decoded, originals)
        second = SimulatedMLLM(seed=5).answer_question(fact, scene, decoded, originals)
        assert first.answer == second.answer

    def test_stronger_profile_reads_more(self, scene, codec):
        fact = next(f for f in scene.facts if f.key == "logo")
        decoded, originals = _frames(scene, qp=38, codec=codec)
        weak = SimulatedMLLM(profile=MOBILE_MLLM, seed=0).evidence_quality(fact, scene, decoded, originals)
        strong = SimulatedMLLM(profile=QWEN2_5_OMNI, seed=0).evidence_quality(fact, scene, decoded, originals)
        assert strong > weak

    def test_empty_frames_mean_no_evidence(self, scene):
        mllm = SimulatedMLLM(seed=0)
        fact = scene.facts[0]
        assert mllm.evidence_quality(fact, scene, [], []) == 0.0

    def test_mismatched_frame_lists_rejected(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        decoded, originals = _frames(scene, qp=20, codec=codec)
        with pytest.raises(ValueError):
            mllm.evidence_quality(scene.facts[0], scene, decoded, originals[:1])

    def test_invalid_mode_rejected(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        decoded, originals = _frames(scene, qp=20, codec=codec)
        with pytest.raises(ValueError):
            mllm.answer_question(scene.facts[0], scene, decoded, originals, mode="essay")

    def test_profile_validation(self):
        with pytest.raises(ValueError):
            MllmProfile("bad", base_error_rate=1.5)
        with pytest.raises(ValueError):
            MllmProfile("bad", detail_competence=0.0)


class TestReceiverSampler:
    def test_frame_rate_capped_at_two_fps(self):
        sampler = ReceiverSampler()
        frames = [VideoFrame(i, i / 30.0, np.zeros((8, 8))) for i in range(60)]
        selected = sampler.select_frames(frames)
        assert len(selected) <= 5  # 2 seconds of video at <=2 FPS (+ boundary)
        assert len(selected) >= 4

    def test_pixel_cap_enforced(self):
        frame = VideoFrame(0, 0.0, np.zeros((720, 1280)))
        assert frame.pixel_count > DEFAULT_MAX_PIXELS
        prepared = ReceiverSampler().prepare_frame(frame)
        assert 0 < prepared.pixel_count <= DEFAULT_MAX_PIXELS

    def test_default_pixel_cap_matches_paper(self):
        assert DEFAULT_MAX_PIXELS == 602_112

    def test_redundancy_report(self):
        sampler = ReceiverSampler()
        frames = [VideoFrame(i, i / 30.0, np.zeros((64, 64))) for i in range(30)]
        _, report = sampler.prepare(frames)
        assert report.frame_redundancy > 0.9
        assert 0.0 <= report.pixel_redundancy <= 1.0

    def test_selection_uses_capture_time_not_arrival_order(self):
        sampler = ReceiverSampler()
        frames = [VideoFrame(i, i / 30.0, np.zeros((8, 8))) for i in range(30)]
        shuffled = list(reversed(frames))
        assert [f.frame_id for f in sampler.select_frames(frames)] == [
            f.frame_id for f in sampler.select_frames(shuffled)
        ]

    def test_token_counts_positive(self):
        sampler = ReceiverSampler()
        frame = VideoFrame(0, 0.0, np.zeros((112, 112)))
        assert sampler.visual_token_count(frame) >= 16


class TestInferenceModel:
    def test_audio_only_floor_near_232ms(self):
        assert first_response_latency_ms(visual_tokens=0) == pytest.approx(232, abs=5)

    def test_latency_grows_with_tokens(self):
        assert first_response_latency_ms(1000) > first_response_latency_ms(100)

    def test_budget_subtraction(self):
        assert transmission_budget_ms() == pytest.approx(68.0)

    def test_latency_budget_accounting(self):
        budget = LatencyBudget(transmission_ms=40.0, inference_ms=240.0, encode_ms=10.0)
        assert budget.total_ms == pytest.approx(290.0)
        assert budget.meets_target
        assert budget.transmission_budget_ms == pytest.approx(50.0)


class TestTokenizers:
    def test_continuous_tokens_are_heavy(self, scene):
        frame = scene.render(0)
        comparison = compare_token_stream_bitrates(frame, fps=2.0)
        assert comparison["continuous_bps"] > 10 * comparison["discrete_bps"]

    def test_discrete_tokens_round_trip_keeps_coarse_content(self, scene):
        frame = scene.render(0)
        tokenizer = DiscreteTokenizer(TokenizerConfig())
        tokenized = tokenizer.tokenize(frame)
        reconstructed = tokenizer.reconstruct(tokenized)
        trimmed = frame[: reconstructed.shape[0], : reconstructed.shape[1]]
        assert abs(trimmed.mean() - reconstructed.mean()) < 40

    def test_continuous_reconstruction_better_than_discrete(self, scene):
        frame = scene.render(0)
        config = TokenizerConfig()
        continuous = ContinuousTokenizer(config)
        discrete = DiscreteTokenizer(config)
        cont_recon = continuous.reconstruct(continuous.tokenize(frame))
        disc_recon = discrete.reconstruct(discrete.tokenize(frame))
        trimmed = frame[: cont_recon.shape[0], : cont_recon.shape[1]]
        cont_err = np.mean((trimmed - cont_recon) ** 2)
        disc_err = np.mean((trimmed - disc_recon) ** 2)
        assert cont_err < disc_err

    def test_token_loss_recovery(self, scene):
        frame = scene.render(0)
        tokenizer = DiscreteTokenizer(TokenizerConfig())
        tokenized = tokenizer.tokenize(frame)
        result = drop_and_recover_tokens(tokenized, loss_fraction=0.5, seed=1)
        assert result.dropped_indices.size > 0
        assert result.recovered_tokens.shape == np.asarray(tokenized.tokens).shape

    def test_loss_fraction_validation(self, scene):
        tokenized = DiscreteTokenizer().tokenize(scene.render(0))
        with pytest.raises(ValueError):
            drop_and_recover_tokens(tokenized, 1.0)

    def test_tokenizer_config_validation(self):
        with pytest.raises(ValueError):
            TokenizerConfig(patch_size=0)
        with pytest.raises(ValueError):
            TokenizerConfig(codebook_size=1)

