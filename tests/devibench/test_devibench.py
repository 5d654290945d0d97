"""Tests for the DeViBench data model, pipeline stages, evaluation and stats."""

import hashlib
import json

import numpy as np
import pytest

from repro.devibench import (
    BenchmarkEvaluator,
    CrossVerifier,
    DeViBench,
    DeViBenchPipeline,
    GenerationConfig,
    QAFilter,
    QAGenerator,
    QASample,
    QA_GENERATION_PROMPT,
    VideoCollection,
    build_benchmark,
    coarse_qa_breakage_rate,
    figure8_distribution,
    figure8_temporal_split,
    format_figure8,
    format_table1,
    table1_rows,
)
from repro.mllm.model import SimulatedMLLM
from repro.video import Scene, make_sports_scene, psnr, region_quality
from repro.video.scene import CATEGORY_TEXT_RICH, build_scene_corpus


# A small, fast corpus shared by the pipeline tests.  The degraded rendition
# bitrate is scaled to the reduced test resolution so that — as in the full-
# size setup — fine detail breaks while coarse content survives.
SMALL = dict(height=180, width=320)


@pytest.fixture(scope="module")
def collection():
    scenes = build_scene_corpus(4, seed=0, **SMALL)
    return VideoCollection(scenes=scenes, low_bitrate_bps=50_000, frames_per_video=2)


@pytest.fixture(scope="module")
def prepared(collection):
    return {p.scene.name: p for p in collection.prepare_all()}


@pytest.fixture(scope="module")
def pipeline_report(collection):
    return DeViBenchPipeline(collection=collection, generator=QAGenerator(GenerationConfig(seed=1))).run()


#: The fields of one valid sample, as a saved artifact spells them.
SAMPLE_FIELDS = dict(
    sample_id="abc",
    scene_name="s",
    question="What is the score?",
    options=["3-2", "1-4", "2-2", "5-0"],
    correct_letter="A",
    category=CATEGORY_TEXT_RICH,
    multi_frame=False,
    detail_scale=0.9,
    object_name="scoreboard",
    fact_key="score",
    ground_truth="3-2",
)


def _artifact(*entries):
    return json.dumps({"format": "devibench-v1", "samples": list(entries)})


class TestQASample:
    def _sample(self, **overrides):
        fields = {**SAMPLE_FIELDS, **overrides}
        return QASample(**{**fields, "options": tuple(fields["options"])})

    def test_grading_by_letter_and_text(self):
        sample = self._sample()
        assert sample.is_correct("A")
        assert sample.is_correct("3-2")
        assert not sample.is_correct("B")
        assert not sample.is_correct("1-4")

    def test_correct_letter_must_match_ground_truth(self):
        with pytest.raises(ValueError):
            self._sample(correct_letter="B")

    def test_option_count_validation(self):
        with pytest.raises(ValueError):
            self._sample(options=("3-2",))

    def test_duplicate_options_rejected(self):
        # Grading by letter would mark the second copy of the answer wrong.
        with pytest.raises(ValueError, match="distinct"):
            self._sample(options=("3-2", "3-2"))

    def test_to_fact_round_trip(self):
        fact = self._sample().to_fact()
        assert fact.value == "3-2"
        assert fact.category == CATEGORY_TEXT_RICH


class TestDatasetContainer:
    def test_serialisation_round_trip(self, pipeline_report, tmp_path):
        benchmark = pipeline_report.benchmark
        path = tmp_path / "bench.json"
        benchmark.save(path)
        loaded = DeViBench.load(path, scenes=benchmark.scenes)
        assert len(loaded) == len(benchmark)
        assert loaded.samples[0].question == benchmark.samples[0].question

    def test_category_distribution_sums_to_one(self, pipeline_report):
        benchmark = pipeline_report.benchmark
        if len(benchmark) == 0:
            pytest.skip("empty benchmark for this tiny corpus")
        assert sum(benchmark.category_distribution().values()) == pytest.approx(1.0)

    def test_scene_lookup(self, pipeline_report):
        benchmark = pipeline_report.benchmark
        if len(benchmark) == 0:
            pytest.skip("empty benchmark for this tiny corpus")
        sample = benchmark.samples[0]
        assert benchmark.scene_for(sample).name == sample.scene_name

    def test_unknown_format_rejected(self):
        with pytest.raises(ValueError):
            DeViBench.from_json('{"format": "other", "samples": []}')
        with pytest.raises(ValueError):
            DeViBench.from_json('["devibench-v1"]')
        with pytest.raises(ValueError, match="list of samples"):
            DeViBench.from_json('{"format": "devibench-v1"}')

    def test_duplicate_sample_ids_rejected(self):
        sample = TestQASample()._sample()
        with pytest.raises(ValueError, match="sample 1: duplicate sample_id 'abc'"):
            DeViBench([sample, sample])

    @pytest.mark.parametrize(
        "entry, message",
        [
            (
                {k: v for k, v in SAMPLE_FIELDS.items() if k != "question"},
                r"missing fields \['question'\]",
            ),
            ({**SAMPLE_FIELDS, "sample_id": "b", "answer": "x"}, r"unknown fields \['answer'\]"),
            ({**SAMPLE_FIELDS, "sample_id": "b", "options": ["3-2", "3-2"]}, "distinct"),
            (SAMPLE_FIELDS, "duplicate sample_id"),
            ({**SAMPLE_FIELDS, "sample_id": "b", "options": 4}, "int"),
            (["not", "an", "object"], "expected an object"),
        ],
        ids=[
            "missing-field",
            "unknown-field",
            "duplicate-options",
            "duplicate-id",
            "non-list-options",
            "non-object-sample",
        ],
    )
    def test_from_json_names_the_faulty_sample(self, entry, message):
        assert len(DeViBench.from_json(_artifact(SAMPLE_FIELDS))) == 1
        with pytest.raises(ValueError, match=f"sample 1: .*{message}"):
            DeViBench.from_json(_artifact(SAMPLE_FIELDS, entry))


class TestVideoCollection:
    def test_prepare_degrades_video(self, prepared):
        video = next(iter(prepared.values()))
        assert video.frame_count == 2
        original = video.original_frames[0].pixels
        degraded = video.degraded_frames[0].pixels
        assert original.shape == degraded.shape
        assert not np.allclose(original, degraded)

    def test_validation(self):
        with pytest.raises(ValueError):
            VideoCollection(scenes=[], low_bitrate_bps=0)
        with pytest.raises(ValueError):
            VideoCollection(scenes=[], frames_per_video=0)
        with pytest.raises(ValueError):
            VideoCollection(scenes=[]).prepare_all()

    def test_synthetic_builder(self):
        collection = VideoCollection.synthetic(video_count=2, seed=1, **SMALL)
        assert len(collection.scenes) == 2

    def test_prepare_renders_each_sampled_frame_once(self, monkeypatch):
        calls = []
        render = Scene.render

        def counting_render(scene, frame_index, **kwargs):
            calls.append(frame_index)
            return render(scene, frame_index, **kwargs)

        monkeypatch.setattr(Scene, "render", counting_render)
        collection = VideoCollection.synthetic(video_count=1, seed=0, height=96, width=160)
        video = collection.prepare(collection.scenes[0])
        assert calls == [frame.frame_id for frame in video.original_frames]
        assert len(calls) == 3

    def test_prepare_output_is_pinned(self):
        # Degraded pixels and achieved bitrates of a fixed corpus, so a change
        # to frame sampling or the 200 Kbps rendition shows up bit for bit.
        collection = VideoCollection.synthetic(video_count=2, seed=0, height=96, width=160)
        digest = hashlib.sha256()
        bitrates = []
        for video in collection.prepare_all():
            for frame in video.degraded_frames:
                digest.update(np.ascontiguousarray(frame.pixels).tobytes())
            bitrates.append(video.achieved_bitrate_bps)
        assert digest.hexdigest() == "92ab9be53923224b0ebaae9af01ff2022e75a0fe3c2012c0719b9fe9953e9292"
        assert bitrates == [199820.0, 201144.66666666666]

    def test_prepare_hits_the_low_bitrate(self):
        scene = make_sports_scene(0, height=96, width=160)
        video = VideoCollection(scenes=[scene], low_bitrate_bps=120_000).prepare(scene)
        assert video.achieved_bitrate_bps == pytest.approx(120_000, rel=0.2)

    def test_lower_bitrate_means_lower_psnr(self):
        scene = make_sports_scene(0, height=96, width=160)

        def mean_psnr(low_bitrate_bps):
            collection = VideoCollection(scenes=[scene], low_bitrate_bps=low_bitrate_bps, frames_per_video=2)
            video = collection.prepare(scene)
            return np.mean(
                [psnr(o.pixels, d.pixels) for o, d in zip(video.original_frames, video.degraded_frames)]
            )

        assert mean_psnr(100_000) < mean_psnr(2_000_000)


class TestGeneration:
    def test_prompt_contains_required_sections(self):
        for section in ("Persona", "Context", "Core task", "Execution steps", "Constraints", "Output format"):
            assert section in QA_GENERATION_PROMPT

    def test_candidates_cover_detail_and_coarse(self, collection, prepared):
        generator = QAGenerator(GenerationConfig(seed=2))
        candidates = generator.generate_for_video(next(iter(prepared.values())))
        kinds = {candidate.kind for candidate in candidates}
        assert kinds == {"detail", "coarse"}
        # Every fact yields (detail + coarse) variants.
        scene = next(iter(prepared.values())).scene
        per_fact = 1 + generator.config.coarse_variants_per_fact
        assert len(candidates) == per_fact * len(scene.facts)

    def test_candidate_options_contain_answer(self, prepared):
        generator = QAGenerator(GenerationConfig(seed=2))
        for candidate in generator.generate_for_video(next(iter(prepared.values()))):
            assert candidate.generator_answer in candidate.sample.options
            assert candidate.sample.ground_truth == candidate.generator_answer

    def test_generation_is_deterministic(self, prepared):
        video = next(iter(prepared.values()))
        first = QAGenerator(GenerationConfig(seed=3)).generate_for_video(video)
        second = QAGenerator(GenerationConfig(seed=3)).generate_for_video(video)
        assert [c.sample.sample_id for c in first] == [c.sample.sample_id for c in second]

    def test_hallucination_rate_zero_means_always_truthful(self, prepared):
        generator = QAGenerator(GenerationConfig(seed=4, hallucination_rate=0.0))
        for candidate in generator.generate_for_video(next(iter(prepared.values()))):
            assert not candidate.hallucinated

    def test_config_validation(self):
        with pytest.raises(ValueError):
            GenerationConfig(hallucination_rate=1.5)
        with pytest.raises(ValueError):
            GenerationConfig(detail_variants_per_fact=0)


class TestFilteringAndVerification:
    def test_filter_accepts_only_quality_sensitive(self, collection, prepared):
        generator = QAGenerator(GenerationConfig(seed=5, hallucination_rate=0.0, unanswerable_rate=0.0))
        candidates = generator.generate(list(prepared.values()))
        report = QAFilter(seed=7).run(candidates, prepared)
        assert 0.0 < report.acceptance_rate < 0.6
        # Accepted candidates skew towards high detail; rejected include the coarse chaff.
        accepted_detail = np.mean([c.sample.detail_scale for c in report.accepted])
        all_detail = np.mean([c.sample.detail_scale for c in candidates])
        assert accepted_detail > all_detail

    def test_verifier_rejects_some_fine_grained_candidates(self, collection, prepared):
        generator = QAGenerator(GenerationConfig(seed=5, hallucination_rate=0.0, unanswerable_rate=0.0))
        candidates = generator.generate(list(prepared.values()))
        accepted = QAFilter(seed=7).run(candidates, prepared).accepted
        if not accepted:
            pytest.skip("tiny corpus produced no accepted candidates")
        verification = CrossVerifier(seed=11, cross_model_disagreement=0.5).run(accepted, prepared)
        assert 0.0 <= verification.approval_rate <= 1.0
        lenient = CrossVerifier(seed=11, cross_model_disagreement=0.0).run(accepted, prepared)
        assert lenient.approval_rate >= verification.approval_rate

    def test_verifier_validation(self):
        with pytest.raises(ValueError):
            CrossVerifier(cross_model_disagreement=1.0)


def _record_answers(patch, uncached: bool) -> list:
    """Record every ``answer_question`` result and whether a table was passed.

    With ``uncached`` the table is dropped, so the answer scores its frames
    afresh through ``evidence_quality``.
    """
    calls = []
    answer = SimulatedMLLM.answer_question

    def recording(self, *args, frame_scores=None, **kwargs):
        if not uncached:
            kwargs["frame_scores"] = frame_scores
        calls.append((frame_scores is not None, answer(self, *args, **kwargs)))
        return calls[-1][1]

    patch.setattr(SimulatedMLLM, "answer_question", recording)
    return calls


class TestEvidenceTable:
    """``PreparedVideo.region_scores`` against scoring every frame afresh."""

    BUILD = dict(video_count=8, height=96, width=160)

    @pytest.fixture(scope="class", params=[0, 1])
    def build(self, request):
        videos = []
        prepare_all = VideoCollection.prepare_all

        def capturing(collection):
            videos.extend(prepare_all(collection))
            return videos

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(VideoCollection, "prepare_all", capturing)
            answers = _record_answers(patch, uncached=False)
            report = build_benchmark(seed=request.param, **self.BUILD)
        return request.param, videos, answers, report

    def test_table_entries_equal_uncached_scores(self, build):
        _, videos, _, _ = build
        for video in videos:
            for obj in video.scene.objects:
                for degraded in (False, True):
                    frames = video.degraded_frames if degraded else video.original_frames
                    expected = [
                        region_quality(
                            original.pixels,
                            frame.pixels,
                            obj.pixel_region(frame.height, frame.width, original.timestamp),
                        ).readable_score
                        for frame, original in zip(frames, video.original_frames)
                    ]
                    assert video.region_scores(obj.name, degraded) == expected

    def test_filter_and_verifier_equal_uncached(self, build, monkeypatch):
        seed, _, answers, report = build
        assert answers and all(passed for passed, _ in answers)
        uncached_answers = _record_answers(monkeypatch, uncached=True)
        uncached = build_benchmark(seed=seed, **self.BUILD)
        assert [a for _, a in uncached_answers] == [a for _, a in answers]
        assert uncached.filter_report.decisions == report.filter_report.decisions
        assert uncached.verification_report.decisions == report.verification_report.decisions

    def test_coarse_breakage_equals_uncached(self, build, monkeypatch):
        collection = VideoCollection.synthetic(seed=build[0], **self.BUILD)
        with pytest.MonkeyPatch.context() as patch:
            answers = _record_answers(patch, uncached=False)
            cached = coarse_qa_breakage_rate(collection)
        uncached_answers = _record_answers(monkeypatch, uncached=True)
        assert coarse_qa_breakage_rate(collection) == cached
        assert answers and all(passed for passed, _ in answers)
        assert [a for _, a in uncached_answers] == [a for _, a in answers]


class TestPipelineAndStats:
    def test_pipeline_produces_report(self, pipeline_report):
        funnel = pipeline_report.funnel()
        assert funnel["generated"] > 0
        assert 0.0 <= funnel["filter_acceptance_rate"] <= 1.0
        assert pipeline_report.estimated_money_usd > 0
        assert pipeline_report.estimated_time_s > 0

    def test_table1_rows_and_formatting(self, pipeline_report):
        rows = table1_rows(pipeline_report)
        assert {row.metric for row in rows} >= {"Number of QA samples", "Total money spent ($)"}
        text = format_table1(pipeline_report)
        assert "Filter acceptance" in text

    def test_figure8_helpers(self, pipeline_report):
        benchmark = pipeline_report.benchmark
        rows = figure8_distribution(benchmark)
        assert len(rows) == 6
        split = figure8_temporal_split(benchmark)
        assert split["multi_frame_fraction"] + split["single_frame_fraction"] == pytest.approx(1.0)
        assert "multi-frame" in format_figure8(benchmark)

    def test_build_benchmark_smoke(self):
        report = build_benchmark(video_count=2, seed=1, height=180, width=320)
        assert report.generated_candidates > 0


class TestEvaluator:
    def test_evaluator_rejects_empty_benchmark(self):
        with pytest.raises(ValueError):
            BenchmarkEvaluator(DeViBench([]))

    def test_accuracy_improves_with_bitrate(self, pipeline_report):
        benchmark = pipeline_report.benchmark
        if len(benchmark) < 2:
            pytest.skip("tiny corpus produced too few samples")
        evaluator = BenchmarkEvaluator(benchmark)
        low = evaluator.evaluate(40_000.0, context_aware=False)
        high = evaluator.evaluate(800_000.0, context_aware=False)
        assert high.accuracy >= low.accuracy

    def test_context_aware_no_worse_than_baseline(self, pipeline_report):
        benchmark = pipeline_report.benchmark
        if len(benchmark) < 2:
            pytest.skip("tiny corpus produced too few samples")
        evaluator = BenchmarkEvaluator(benchmark)
        baseline = evaluator.evaluate(60_000.0, context_aware=False)
        ours = evaluator.evaluate(60_000.0, context_aware=True)
        assert ours.accuracy >= baseline.accuracy

    @pytest.mark.parametrize("max_samples", [0, -1])
    def test_max_samples_below_one_rejected(self, pipeline_report, max_samples):
        evaluator = BenchmarkEvaluator(pipeline_report.benchmark)
        with pytest.raises(ValueError, match="max_samples"):
            evaluator.evaluate(60_000.0, context_aware=False, max_samples=max_samples)

    def test_max_samples_caps_evaluated_samples(self, pipeline_report):
        evaluator = BenchmarkEvaluator(pipeline_report.benchmark)
        result = evaluator.evaluate(60_000.0, context_aware=False, max_samples=1)
        assert len(result.evaluations) == 1

    def test_coarse_qa_breakage_structure(self, collection):
        result = coarse_qa_breakage_rate(collection)
        assert set(result) == {"total_coarse_qa", "flipped", "flip_rate", "paper_flip_rate"}
        assert 0.0 <= result["flip_rate"] <= 1.0
