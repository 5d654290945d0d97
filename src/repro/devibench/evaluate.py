"""Evaluation harness: how does streaming quality move DeViBench accuracy?

This is the measurement loop behind Figure 9 of the paper: take the
benchmark's QA samples, encode their videos at a target bitrate either with
the context-agnostic baseline (uniform QP) or with context-aware streaming
(Equation 2 QP maps conditioned on each question), ask the evaluation MLLM,
and report the accuracy.  Free-response grading is also supported because
the paper's Figure 9 was produced with an earlier free-response version of
the benchmark.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from ..core.context_aware import ContextAwareStreamer, StreamingConfig, UniformStreamer
from ..mllm.model import MODE_MULTIPLE_CHOICE, SimulatedMLLM
from ..video.frames import VideoFrame
from ..video.scene import Scene
from .dataset import DeViBench, QASample
from .videos import VideoCollection


@dataclass
class SampleEvaluation:
    """Evaluation outcome for one QA sample at one operating point."""

    sample: QASample
    correct: bool
    achieved_bitrate_bps: float
    evidence_quality: float
    answer: str


@dataclass
class EvaluationResult:
    """Aggregate accuracy at one operating point."""

    label: str
    target_bitrate_bps: float
    context_aware: bool
    accuracy: float
    mean_achieved_bitrate_bps: float
    evaluations: list[SampleEvaluation] = field(default_factory=list)


class BenchmarkEvaluator:
    """Runs DeViBench QA through an encode→answer loop at chosen bitrates."""

    def __init__(
        self,
        benchmark: DeViBench,
        mllm: Optional[SimulatedMLLM] = None,
        streamer: Optional[ContextAwareStreamer] = None,
        baseline: Optional[UniformStreamer] = None,
        sampling_fps: float = 2.0,
        frames_per_video: int = 3,
        rate_fps: Optional[float] = None,
        mode: str = MODE_MULTIPLE_CHOICE,
    ) -> None:
        if len(benchmark) == 0:
            raise ValueError("cannot evaluate an empty benchmark")
        self.benchmark = benchmark
        self.mllm = mllm or SimulatedMLLM()
        self.streamer = streamer or ContextAwareStreamer(StreamingConfig())
        self.baseline = baseline or UniformStreamer(StreamingConfig())
        self.sampling_fps = sampling_fps
        self.frames_per_video = frames_per_video
        #: Frame rate used to convert a target bitrate into a per-frame bit
        #: budget.  Defaults to the MLLM sampling rate, consistently with the
        #: DeViBench preprocessing (see VideoCollection.rate_fps).
        self.rate_fps = float(rate_fps) if rate_fps is not None else float(sampling_fps)
        self.mode = mode
        self._frame_cache: dict[str, list[VideoFrame]] = {}

    # -- frames ---------------------------------------------------------------

    def _original_frames(self, scene: Scene) -> list[VideoFrame]:
        if scene.name not in self._frame_cache:
            source = scene.to_source()
            stride = max(1, int(round(scene.fps / self.sampling_fps)))
            indices = list(range(0, source.frame_count(), stride))[: self.frames_per_video]
            self._frame_cache[scene.name] = [source.frame_at(index) for index in indices]
        return self._frame_cache[scene.name]

    # -- evaluation -----------------------------------------------------------

    def evaluate_sample(
        self,
        sample: QASample,
        target_bitrate_bps: float,
        context_aware: bool,
    ) -> SampleEvaluation:
        scene = self.benchmark.scene_for(sample)
        originals = self._original_frames(scene)
        fact = sample.to_fact()

        decoded_frames: list[VideoFrame] = []
        total_bits = 0.0
        for frame in originals:
            if context_aware:
                outcome = self.streamer.encode_frame(
                    scene,
                    frame,
                    sample.question,
                    target_bitrate_bps=target_bitrate_bps,
                    fps=self.rate_fps,
                )
            else:
                outcome = self.baseline.encode_frame(
                    frame,
                    target_bitrate_bps=target_bitrate_bps,
                    fps=self.rate_fps,
                )
            total_bits += outcome.encoded.total_bits
            decoded_frames.append(
                VideoFrame(frame_id=frame.frame_id, timestamp=frame.timestamp, pixels=outcome.decoded)
            )

        achieved = total_bits / max(len(originals), 1) * self.rate_fps
        answer = self.mllm.answer_question(
            fact,
            scene,
            decoded_frames,
            originals,
            mode=self.mode,
            choices=list(sample.options) if self.mode == MODE_MULTIPLE_CHOICE else None,
            apply_frame_sampling=False,
        )
        return SampleEvaluation(
            sample=sample,
            correct=sample.is_correct(answer.answer) if self.mode == MODE_MULTIPLE_CHOICE else answer.correct,
            achieved_bitrate_bps=achieved,
            evidence_quality=answer.evidence_quality,
            answer=answer.answer,
        )

    def evaluate(
        self,
        target_bitrate_bps: float,
        context_aware: bool,
        label: Optional[str] = None,
        max_samples: Optional[int] = None,
    ) -> EvaluationResult:
        """Accuracy of the whole benchmark at one bitrate / method."""
        samples = self.benchmark.samples
        if max_samples is not None:
            if max_samples < 1:
                raise ValueError(f"max_samples must be >= 1, got {max_samples}")
            samples = samples[:max_samples]
        evaluations = [
            self.evaluate_sample(sample, target_bitrate_bps, context_aware) for sample in samples
        ]
        return EvaluationResult(
            label=label
            or ("context-aware" if context_aware else "baseline") + f"@{target_bitrate_bps / 1000:.0f}kbps",
            target_bitrate_bps=target_bitrate_bps,
            context_aware=context_aware,
            accuracy=float(np.mean([e.correct for e in evaluations])),
            mean_achieved_bitrate_bps=float(np.mean([e.achieved_bitrate_bps for e in evaluations])),
            evaluations=evaluations,
        )


def coarse_qa_breakage_rate(
    collection: VideoCollection,
    mllm: Optional[SimulatedMLLM] = None,
) -> dict[str, float]:
    """Reproduce the Section 2.3 measurement on StreamingBench-style coarse QA.

    Existing benchmarks ask coarse questions; the paper finds only ~8 % of
    those flip from correct (high bitrate) to wrong (200 Kbps).  We take the
    corpus's *coarse* facts (detail ≤ 0.3), answer them on the original and on
    the 200 Kbps rendition, and report the flip rate.
    """
    mllm = mllm or SimulatedMLLM(seed=7)
    prepared_videos = collection.prepare_all()
    flips = 0
    total = 0
    for prepared in prepared_videos:
        coarse_facts = [fact for fact in prepared.scene.facts if fact.detail_scale <= 0.3]
        for fact in coarse_facts:
            original = mllm.answer_question(
                fact,
                prepared.scene,
                prepared.original_frames,
                prepared.original_frames,
                apply_frame_sampling=False,
                salt="coarse-orig",
            )
            degraded = mllm.answer_question(
                fact,
                prepared.scene,
                prepared.degraded_frames,
                prepared.original_frames,
                apply_frame_sampling=False,
                salt="coarse-deg",
            )
            total += 1
            if original.correct and not degraded.correct:
                flips += 1
    return {
        "total_coarse_qa": float(total),
        "flipped": float(flips),
        "flip_rate": flips / total if total else 0.0,
        "paper_flip_rate": 0.08,
    }
