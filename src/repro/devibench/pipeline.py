"""The five-step DeViBench construction pipeline (Section 3.1, Figure 6).

    Video Collection → Video Preprocessing → QA Generation → QA Filtering
    → Cross Verification

The paper reports the funnel: 11.16 % of generated QA pairs survive the
filter, 70.61 % of those survive cross-verification, for an overall yield of
about 7.8 %; the released benchmark contains 1,074 samples and the whole run
cost $68.47 and ~99,471 s of compute (Table 1).  This module runs the same
funnel over the synthetic corpus and reports the realised numbers next to
the paper's.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

from .dataset import DeViBench
from .filtering import FilterReport, QAFilter
from .generation import GenerationConfig, QAGenerator
from .verification import CrossVerifier, VerificationReport
from .videos import FRAMES_PER_VIDEO, VideoCollection

#: Funnel rates reported by the paper (Table 1 and Section 3.1 text).
PAPER_FILTER_ACCEPTANCE = 0.1116
PAPER_VERIFICATION_APPROVAL = 0.7061
PAPER_OVERALL_YIELD = 0.078
PAPER_SAMPLE_COUNT = 1074
PAPER_TOTAL_DURATION_S = 180_000.0
PAPER_TOTAL_MONEY_USD = 68.47
PAPER_TOTAL_TIME_S = 99_471.0

#: Cost model used to produce Table 1-style totals for our runs: the paper's
#: totals divided by its generated-candidate count imply roughly these
#: per-candidate figures.
MONEY_PER_CANDIDATE_USD = PAPER_TOTAL_MONEY_USD / (PAPER_SAMPLE_COUNT / PAPER_OVERALL_YIELD)
TIME_PER_CANDIDATE_S = PAPER_TOTAL_TIME_S / (PAPER_SAMPLE_COUNT / PAPER_OVERALL_YIELD)


@dataclass
class PipelineReport:
    """Everything measured while constructing a benchmark."""

    benchmark: DeViBench
    generated_candidates: int
    filter_report: FilterReport
    verification_report: VerificationReport
    total_video_duration_s: float
    estimated_money_usd: float
    estimated_time_s: float

    @property
    def filter_acceptance_rate(self) -> float:
        return self.filter_report.acceptance_rate

    @property
    def verification_approval_rate(self) -> float:
        return self.verification_report.approval_rate

    @property
    def overall_yield(self) -> float:
        if self.generated_candidates == 0:
            return 0.0
        return len(self.benchmark) / self.generated_candidates

    def funnel(self) -> dict[str, float]:
        """The acceptance funnel, ours next to the paper's."""
        return {
            "generated": float(self.generated_candidates),
            "filter_accepted": float(len(self.filter_report.accepted)),
            "verified": float(len(self.benchmark)),
            "filter_acceptance_rate": self.filter_acceptance_rate,
            "paper_filter_acceptance_rate": PAPER_FILTER_ACCEPTANCE,
            "verification_approval_rate": self.verification_approval_rate,
            "paper_verification_approval_rate": PAPER_VERIFICATION_APPROVAL,
            "overall_yield": self.overall_yield,
            "paper_overall_yield": PAPER_OVERALL_YIELD,
        }


class DeViBenchPipeline:
    """Runs the full five-step construction pipeline."""

    def __init__(
        self,
        collection: Optional[VideoCollection] = None,
        generator: Optional[QAGenerator] = None,
    ) -> None:
        self.collection = collection or VideoCollection.synthetic(video_count=8)
        self.generator = generator or QAGenerator(GenerationConfig())
        self.qa_filter = QAFilter()
        self.verifier = CrossVerifier()

    def run(self) -> PipelineReport:
        """Execute collection → preprocessing → generation → filtering → verification."""
        prepared_videos = self.collection.prepare_all()
        prepared_by_scene = {prepared.scene.name: prepared for prepared in prepared_videos}

        candidates = self.generator.generate(prepared_videos)
        filter_report = self.qa_filter.run(candidates, prepared_by_scene)
        verification_report = self.verifier.run(filter_report.accepted, prepared_by_scene)

        samples = [candidate.sample for candidate in verification_report.approved]
        benchmark = DeViBench(samples, scenes=self.collection.scenes)

        return PipelineReport(
            benchmark=benchmark,
            generated_candidates=len(candidates),
            filter_report=filter_report,
            verification_report=verification_report,
            total_video_duration_s=self.collection.total_duration_s,
            estimated_money_usd=MONEY_PER_CANDIDATE_USD * len(candidates),
            estimated_time_s=TIME_PER_CANDIDATE_S * len(candidates),
        )


def build_benchmark(
    video_count: int = 8,
    seed: int = 0,
    height: int = 360,
    width: int = 640,
    frames_per_video: int = FRAMES_PER_VIDEO,
    generation_config: Optional[GenerationConfig] = None,
) -> PipelineReport:
    """One-call construction of a DeViBench instance over a synthetic corpus."""
    collection = VideoCollection.synthetic(
        video_count=video_count,
        seed=seed,
        height=height,
        width=width,
        frames_per_video=frames_per_video,
    )
    generator = QAGenerator(generation_config or GenerationConfig(seed=seed))
    pipeline = DeViBenchPipeline(collection=collection, generator=generator)
    return pipeline.run()
