"""DeViBench step 3: automatic QA generation (Section 3.1, Figure 7).

The paper feeds the side-by-side (original | 200 Kbps) video to a strong
MLLM (Qwen3-VL-plus thinking) with a carefully structured prompt — persona,
context, core task, execution steps, constraints, output format — asking it
to produce four-option multiple-choice questions that hinge on details the
low-bitrate rendition has destroyed.

Our simulated generator mirrors the *behaviour* of that step:

* for every scene fact it proposes the fact's own detail question plus
  coarser paraphrases (existence / rough-content questions) — the chaff that
  the later filtering step is designed to reject because it remains
  answerable at 200 Kbps;
* with a small probability it hallucinates the ground-truth answer (the
  paper's spot check found 84 % of generated answers correct), which the
  cross-verification step is designed to catch;
* with a small probability it produces an unanswerable question (95 % of
  generated questions were human-answerable), which is also chaff.

Every candidate records its provenance so the pipeline report can reproduce
the acceptance funnel of Table 1.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..mllm.model import MllmProfile, QWEN3_VL_PLUS
from ..video.scene import CATEGORY_OBJECT, Scene, SceneFact
from .dataset import OPTION_LETTERS, QASample
from .videos import PreparedVideo

#: The structured prompt of Figure 7, kept as the contract the generator follows.
QA_GENERATION_PROMPT = """\
[Persona] You are an expert video-quality analyst and question writer.
[Context] You are shown one video twice, side by side: the left half is the
original high-bitrate version, the right half is the same video transcoded
to 200 Kbps.  Compression has destroyed some fine details on the right.
[Core task] Write multiple-choice questions (four options, A-D) that can be
answered from the left half but NOT from the right half, i.e. questions that
hinge on the details the low bitrate destroyed.
[Execution steps] 1. Compare both halves region by region.  2. Identify
details visible only on the left (text, digits, logos, small counts, fine
shapes).  3. For each such detail, write one question and four options with
exactly one correct answer.  4. Prefer questions that require observing more
than one frame when possible.
[Constraints] Do not ask about overall scene gist, colours of large objects,
or anything still visible at 200 Kbps.  Do not reveal which half you used.
[Output format] JSON list of {question, options[A-D], answer_letter}.
"""


@dataclass
class GenerationConfig:
    """Behavioural knobs of the simulated QA generator."""

    #: Probability that a generated answer is wrong (paper spot check: 84 % correct).
    hallucination_rate: float = 0.16
    #: Probability that a generated question is unanswerable noise
    #: (paper spot check: 95 % answerable).
    unanswerable_rate: float = 0.05
    #: Number of coarse paraphrase candidates generated per fact (the chaff the
    #: filter rejects because they survive 200 Kbps).
    coarse_variants_per_fact: int = 3
    #: Number of detail-targeted candidates generated per fact.
    detail_variants_per_fact: int = 1
    seed: int = 0

    def __post_init__(self) -> None:
        if not 0.0 <= self.hallucination_rate < 1.0:
            raise ValueError("hallucination_rate must be in [0, 1)")
        if not 0.0 <= self.unanswerable_rate < 1.0:
            raise ValueError("unanswerable_rate must be in [0, 1)")
        if self.coarse_variants_per_fact < 0 or self.detail_variants_per_fact < 1:
            raise ValueError("variant counts out of range")


@dataclass
class CandidateQA:
    """A generated QA sample before filtering and verification."""

    sample: QASample
    source_fact: SceneFact
    generator_answer: str
    hallucinated: bool
    unanswerable: bool
    kind: str  # "detail" or "coarse"


class QAGenerator:
    """Simulated Qwen3-VL-plus generator producing candidate QA samples."""

    def __init__(
        self,
        config: Optional[GenerationConfig] = None,
        profile: MllmProfile = QWEN3_VL_PLUS,
    ) -> None:
        self.config = config or GenerationConfig()
        self.profile = profile
        self.prompt = QA_GENERATION_PROMPT

    def _rng(self, scene: Scene, fact: SceneFact, salt: str) -> np.random.Generator:
        key = f"{self.config.seed}|{scene.name}|{fact.object_name}|{fact.key}|{salt}"
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def _options_for(
        self, fact: SceneFact, answer: str, rng: np.random.Generator
    ) -> tuple[tuple[str, ...], str]:
        distractors = [value for value in fact.domain if value != answer]
        rng.shuffle(distractors)
        options = [answer] + distractors[:3]
        if len(options) < 2:
            options.append("none of the above")
        rng.shuffle(options)
        letter = OPTION_LETTERS[options.index(answer)]
        return tuple(options), letter

    def _make_sample(
        self,
        scene: Scene,
        fact: SceneFact,
        question: str,
        detail_scale: float,
        answer: str,
        kind: str,
        index: int,
        hallucinated: bool,
        unanswerable: bool,
    ) -> CandidateQA:
        rng = self._rng(scene, fact, f"options|{kind}|{index}|{question}")
        options, letter = self._options_for(fact, answer, rng)
        sample_id = hashlib.sha1(
            f"{scene.name}|{question}|{answer}|{kind}|{index}".encode("utf-8")
        ).hexdigest()[:12]
        sample = QASample(
            sample_id=sample_id,
            scene_name=scene.name,
            question=question,
            options=options,
            correct_letter=letter,
            category=fact.category,
            multi_frame=fact.multi_frame and kind == "detail",
            detail_scale=detail_scale,
            object_name=fact.object_name,
            fact_key=fact.key,
            ground_truth=answer,
            provenance={"kind": kind, "generator": self.profile.name},
        )
        return CandidateQA(
            sample=sample,
            source_fact=fact,
            generator_answer=answer,
            hallucinated=hallucinated,
            unanswerable=unanswerable,
            kind=kind,
        )

    def generate_for_video(self, prepared: PreparedVideo) -> list[CandidateQA]:
        """Generate all candidate QA samples for one prepared video."""
        scene = prepared.scene
        candidates: list[CandidateQA] = []
        for fact in scene.facts:
            # Detail-targeted candidates: the ones DeViBench wants to keep.
            for index in range(self.config.detail_variants_per_fact):
                rng = self._rng(scene, fact, f"detail|{index}")
                hallucinated = bool(rng.random() < self.config.hallucination_rate)
                unanswerable = bool(rng.random() < self.config.unanswerable_rate)
                answer = fact.value
                if hallucinated:
                    wrong = [value for value in fact.domain if value != fact.value]
                    answer = str(rng.choice(wrong)) if wrong else fact.value
                question = fact.question if index == 0 else f"{fact.question} (look closely)"
                candidates.append(
                    self._make_sample(
                        scene,
                        fact,
                        question,
                        fact.detail_scale,
                        answer,
                        kind="detail",
                        index=index,
                        hallucinated=hallucinated,
                        unanswerable=unanswerable,
                    )
                )
            # Coarse paraphrases: answerable even at 200 Kbps, so the filter
            # step is expected to reject them (this is what makes the paper's
            # acceptance rate low).
            for index in range(self.config.coarse_variants_per_fact):
                rng = self._rng(scene, fact, f"coarse|{index}")
                if index == 0:
                    question = f"Is the {fact.object_name.replace('_', ' ')} visible in the video?"
                    answer = "yes"
                    coarse_fact = SceneFact(
                        object_name=fact.object_name,
                        key=f"{fact.key}_visible",
                        value="yes",
                        domain=("yes", "no"),
                        category=CATEGORY_OBJECT,
                        detail_scale=0.05,
                        question=question,
                    )
                else:
                    prefix = "Roughly speaking" if index == 1 else "At a glance"
                    question = f"{prefix}, {fact.question.lower()}"
                    answer = fact.value
                    coarse_fact = SceneFact(
                        object_name=fact.object_name,
                        key=fact.key,
                        value=fact.value,
                        domain=fact.domain,
                        category=fact.category,
                        detail_scale=max(0.05, fact.detail_scale * 0.3 / index),
                        question=question,
                    )
                candidates.append(
                    self._make_sample(
                        scene,
                        coarse_fact,
                        question,
                        coarse_fact.detail_scale,
                        answer,
                        kind="coarse",
                        index=index,
                        hallucinated=False,
                        unanswerable=False,
                    )
                )
        return candidates

    def generate(self, prepared_videos: Sequence[PreparedVideo]) -> list[CandidateQA]:
        """Generate candidates for a whole corpus."""
        candidates: list[CandidateQA] = []
        for prepared in prepared_videos:
            candidates.extend(self.generate_for_video(prepared))
        return candidates
