"""DeViBench step 4: QA filtering (Section 3.1).

Each generated QA pair is answered twice by the filter MLLM (Qwen2.5-Omni in
the paper): once on the original video and once on the 200 Kbps rendition.
The pair is accepted only when the original-video answer is correct and the
low-bitrate answer is wrong — i.e. the question genuinely hinges on detail
the degradation destroyed.  The paper reports an 11.16 % acceptance rate.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Sequence

from ..mllm.model import MODE_MULTIPLE_CHOICE, MllmProfile, QWEN2_5_OMNI, SimulatedMLLM
from .generation import CandidateQA
from .videos import PreparedVideo


@dataclass
class FilterDecision:
    """The filter's verdict on one candidate."""

    candidate: CandidateQA
    accepted: bool
    correct_on_original: bool
    correct_on_degraded: bool


@dataclass
class FilterReport:
    """Aggregate statistics of the filtering stage."""

    decisions: list[FilterDecision]

    @property
    def total(self) -> int:
        return len(self.decisions)

    @property
    def accepted(self) -> list[CandidateQA]:
        return [decision.candidate for decision in self.decisions if decision.accepted]

    @property
    def acceptance_rate(self) -> float:
        if not self.decisions:
            return 0.0
        return len(self.accepted) / len(self.decisions)


class QAFilter:
    """Simulated Qwen2.5-Omni filter implementing the accept rule."""

    def __init__(
        self,
        profile: MllmProfile = QWEN2_5_OMNI,
        seed: int = 101,
    ) -> None:
        self.mllm = SimulatedMLLM(profile=profile, seed=seed)

    def _answer(self, candidate: CandidateQA, prepared: PreparedVideo, degraded: bool, salt: str) -> bool:
        frames = prepared.degraded_frames if degraded else prepared.original_frames
        sample = candidate.sample
        fact = candidate.source_fact
        # An unanswerable (nonsense) question cannot be answered correctly on
        # either rendition except by luck; model that by forcing a guess.
        effective_fact = fact
        if candidate.unanswerable:
            effective_fact = replace(fact, detail_scale=1.0, question=sample.question)
        answer = self.mllm.answer_question(
            effective_fact,
            prepared.scene,
            frames,
            prepared.original_frames,
            mode=MODE_MULTIPLE_CHOICE,
            choices=list(sample.options),
            salt=salt,
            frame_scores=prepared.region_scores(fact.object_name, degraded),
        )
        # The filter grades against the *generated* answer letter, exactly as
        # the real pipeline does (it has no other ground truth).
        return answer.answer == candidate.generator_answer

    def evaluate(self, candidate: CandidateQA, prepared: PreparedVideo) -> FilterDecision:
        correct_on_original = self._answer(candidate, prepared, degraded=False, salt="orig")
        correct_on_degraded = self._answer(candidate, prepared, degraded=True, salt="deg")
        accepted = correct_on_original and not correct_on_degraded
        return FilterDecision(
            candidate=candidate,
            accepted=accepted,
            correct_on_original=correct_on_original,
            correct_on_degraded=correct_on_degraded,
        )

    def run(
        self,
        candidates: Sequence[CandidateQA],
        prepared_by_scene: dict[str, PreparedVideo],
    ) -> FilterReport:
        decisions = []
        for candidate in candidates:
            prepared = prepared_by_scene[candidate.sample.scene_name]
            decisions.append(self.evaluate(candidate, prepared))
        return FilterReport(decisions=decisions)
