"""Tests for the simulated MLLM, sampler, inference model, tokenizers, memory, mobile."""

import numpy as np
import pytest

from repro.mllm import (
    DEFAULT_MAX_PIXELS,
    InferenceConfig,
    LatencyBudget,
    LongTermMemory,
    MOBILE_MLLM,
    ModelCollaboration,
    QWEN2_5_OMNI,
    ReceiverSampler,
    SamplerConfig,
    SimulatedMLLM,
    TokenizerConfig,
    ContinuousTokenizer,
    DiscreteTokenizer,
    compare_token_stream_bitrates,
    default_inference_config,
    drop_and_recover_tokens,
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
        good = mllm.answer_question(fact, scene, good_decoded, good_orig, apply_frame_sampling=False)
        bad = mllm.answer_question(fact, scene, bad_decoded, bad_orig, apply_frame_sampling=False)
        assert good.knows and good.correct
        assert not bad.knows

    def test_coarse_question_survives_low_quality(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        fact = next(f for f in scene.facts if f.key == "present")
        decoded, originals = _frames(scene, qp=48, codec=codec)
        answer = mllm.answer_question(fact, scene, decoded, originals, apply_frame_sampling=False)
        assert answer.knows

    def test_multi_frame_fact_requires_two_frames(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        fact = next(f for f in scene.facts if f.multi_frame)
        decoded, originals = _frames(scene, qp=10, codec=codec, count=1)
        single = mllm.answer_question(fact, scene, decoded, originals, apply_frame_sampling=False)
        decoded2, originals2 = _frames(scene, qp=10, codec=codec, count=2)
        double = mllm.answer_question(fact, scene, decoded2, originals2, apply_frame_sampling=False)
        assert not single.knows
        assert double.knows

    def test_guessing_respects_choices(self, scene, codec):
        mllm = SimulatedMLLM(seed=0)
        fact = next(f for f in scene.facts if f.key == "score")
        decoded, originals = _frames(scene, qp=51, codec=codec)
        answer = mllm.answer_question(
            fact, scene, decoded, originals, choices=list(fact.domain), apply_frame_sampling=False
        )
        assert answer.guessed
        assert answer.answer in fact.domain

    def test_free_response_can_say_unclear(self, scene, codec):
        profile = MllmProfile("strict", free_response_guess_rate=0.0)
        mllm = SimulatedMLLM(profile=profile, seed=0)
        fact = next(f for f in scene.facts if f.key == "score")
        decoded, originals = _frames(scene, qp=51, codec=codec)
        answer = mllm.answer_question(
            fact, scene, decoded, originals, mode=MODE_FREE_RESPONSE, apply_frame_sampling=False
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
        sampler = ReceiverSampler(SamplerConfig(max_pixels_per_frame=10_000))
        frame = VideoFrame(0, 0.0, np.zeros((300, 300)))
        prepared = sampler.prepare_frame(frame)
        assert prepared.pixel_count <= 10_000

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

    def test_config_validation(self):
        with pytest.raises(ValueError):
            SamplerConfig(max_fps=0)
        with pytest.raises(ValueError):
            SamplerConfig(max_pixels_per_frame=0)


class TestInferenceModel:
    def test_audio_only_floor_near_232ms(self):
        config = default_inference_config()
        assert config.first_response_latency_ms(visual_tokens=0) == pytest.approx(232, abs=5)

    def test_latency_grows_with_tokens(self):
        config = default_inference_config()
        assert config.first_response_latency_ms(1000) > config.first_response_latency_ms(100)

    def test_budget_subtraction(self):
        assert transmission_budget_ms() == pytest.approx(68.0)

    def test_latency_budget_accounting(self):
        budget = LatencyBudget(transmission_ms=40.0, inference_ms=240.0, encode_ms=10.0)
        assert budget.total_ms == pytest.approx(290.0)
        assert budget.meets_target
        assert budget.transmission_budget_ms == pytest.approx(50.0)

    def test_config_validation(self):
        with pytest.raises(ValueError):
            InferenceConfig(base_latency_ms=-1)
        with pytest.raises(ValueError):
            InferenceConfig(first_chunk_output_tokens=0)


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


class TestMemoryAndCollaboration:
    def test_memory_recalls_relevant_fact(self, scene):
        memory = LongTermMemory()
        fact = next(f for f in scene.facts if f.key == "score")
        memory.ingest(fact, observed_quality=0.95, observed_at=0.0, scene=scene)
        recalled = memory.recall("what was the score of the game?")
        assert recalled and recalled[0].fact.key == "score"
        assert memory.answer_from_memory(fact, scene.name) == fact.value

    def test_low_quality_memory_is_not_recallable(self, scene):
        memory = LongTermMemory()
        fact = next(f for f in scene.facts if f.key == "score")
        memory.ingest(fact, observed_quality=0.3, observed_at=0.0, scene=scene)
        assert memory.answer_from_memory(fact, scene.name) is None

    def test_memory_keeps_best_observation(self, scene):
        memory = LongTermMemory()
        fact = scene.facts[0]
        memory.ingest(fact, observed_quality=0.4, observed_at=0.0, scene=scene)
        memory.ingest(fact, observed_quality=0.9, observed_at=1.0, scene=scene)
        assert len(memory) == 1
        assert memory.entries[0].observed_quality == pytest.approx(0.9)

    def test_memory_coverage(self, scene):
        memory = LongTermMemory()
        for fact in scene.facts:
            memory.ingest(fact, observed_quality=1.0, observed_at=0.0, scene=scene)
        assert memory.coverage(scene.facts, scene.name) == pytest.approx(1.0)

    def test_collaboration_routes_easy_questions_locally(self, scene, codec):
        collaboration = ModelCollaboration()
        decoded, originals = _frames(scene, qp=5, codec=codec)
        easy = next(f for f in scene.facts if f.detail_scale <= 0.1)
        hard = next(f for f in scene.facts if f.detail_scale >= 0.85)
        easy_routed = collaboration.answer(easy, scene, originals, originals, uplink_frame_bytes=50_000)
        hard_routed = collaboration.answer(hard, scene, originals, originals, uplink_frame_bytes=50_000)
        assert easy_routed.served_by == "local"
        assert easy_routed.uplink_bytes == 0
        assert hard_routed.served_by == "cloud"
        assert hard_routed.uplink_bytes == 50_000

    def test_collaboration_evaluate(self, scene, codec):
        collaboration = ModelCollaboration()
        decoded, originals = _frames(scene, qp=5, codec=codec)
        report = collaboration.evaluate(scene.facts, scene, originals, originals, uplink_frame_bytes=10_000)
        assert 0.0 <= report["accuracy"] <= 1.0
        assert 0.0 <= report["local_fraction"] <= 1.0
