"""DeViBench step 5: cross verification (Section 3.1).

The generator's answer may itself be wrong, and the filter cannot catch that
(it grades against the generated answer).  The paper therefore asks a second
MLLM (GLM-4.5V thinking) the accepted question on the original video; the QA
pair is approved only when the new answer agrees with the generated one.
The paper reports a 70.61 % pass rate for this stage.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass, replace
from typing import Sequence

from ..mllm.model import GLM_4_5V, MODE_MULTIPLE_CHOICE, MllmProfile, SimulatedMLLM
from .generation import CandidateQA
from .videos import PreparedVideo


@dataclass
class VerificationDecision:
    """The verifier's verdict on one filter-accepted candidate."""

    candidate: CandidateQA
    approved: bool
    verifier_answer: str


@dataclass
class VerificationReport:
    """Aggregate statistics of the cross-verification stage."""

    decisions: list[VerificationDecision]

    @property
    def total(self) -> int:
        return len(self.decisions)

    @property
    def approved(self) -> list[CandidateQA]:
        return [decision.candidate for decision in self.decisions if decision.approved]

    @property
    def approval_rate(self) -> float:
        if not self.decisions:
            return 0.0
        return len(self.approved) / len(self.decisions)


class CrossVerifier:
    """Simulated GLM-4.5V verifier: agreement with the generated answer.

    ``cross_model_disagreement`` models the fact that two different MLLMs
    reading the *same* fine detail (small digits, logos, counts) frequently
    disagree — the paper's own spot check found only 84 % of generated
    answers correct, and this stage removes roughly 30 % of the candidates
    that survive filtering (70.61 % pass).  The disagreement is deterministic
    per candidate so the pipeline is reproducible.
    """

    def __init__(
        self,
        profile: MllmProfile = GLM_4_5V,
        seed: int = 202,
        cross_model_disagreement: float = 0.25,
        disagreement_detail_threshold: float = 0.6,
    ) -> None:
        if not 0.0 <= cross_model_disagreement < 1.0:
            raise ValueError("cross_model_disagreement must be in [0, 1)")
        self.mllm = SimulatedMLLM(profile=profile, seed=seed)
        self.cross_model_disagreement = cross_model_disagreement
        self.disagreement_detail_threshold = disagreement_detail_threshold
        self._seed = seed

    def _disagrees(self, candidate: CandidateQA) -> bool:
        if candidate.sample.detail_scale < self.disagreement_detail_threshold:
            return False
        key = f"{self._seed}|disagree|{candidate.sample.sample_id}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        draw = int.from_bytes(digest[:8], "little") / float(2**64)
        return draw < self.cross_model_disagreement

    def evaluate(self, candidate: CandidateQA, prepared: PreparedVideo) -> VerificationDecision:
        sample = candidate.sample
        fact = candidate.source_fact
        if self._disagrees(candidate):
            others = [option for option in sample.options if option != candidate.generator_answer]
            disagreeing_answer = others[0] if others else candidate.generator_answer
            return VerificationDecision(
                candidate=candidate,
                approved=disagreeing_answer == candidate.generator_answer,
                verifier_answer=disagreeing_answer,
            )
        # An unanswerable question leaves the verifier guessing too.
        effective_fact = fact
        if candidate.unanswerable:
            effective_fact = replace(fact, detail_scale=1.0, question=sample.question)
        answer = self.mllm.answer_question(
            effective_fact,
            prepared.scene,
            prepared.original_frames,
            prepared.original_frames,
            mode=MODE_MULTIPLE_CHOICE,
            choices=list(sample.options),
            salt="verify",
            frame_scores=prepared.region_scores(fact.object_name, degraded=False),
        )
        approved = answer.answer == candidate.generator_answer
        return VerificationDecision(
            candidate=candidate, approved=approved, verifier_answer=answer.answer
        )

    def run(
        self,
        candidates: Sequence[CandidateQA],
        prepared_by_scene: dict[str, PreparedVideo],
    ) -> VerificationReport:
        decisions = []
        for candidate in candidates:
            prepared = prepared_by_scene[candidate.sample.scene_name]
            decisions.append(self.evaluate(candidate, prepared))
        return VerificationReport(decisions=decisions)
