"""A simulated multimodal large language model (MLLM).

The experiments in the paper treat the MLLM (Qwen2.5-Omni for evaluation,
Qwen3-VL-plus as a QA generator, GLM-4.5V as a cross-verifier) as a black
box with one behavioural property that everything else depends on: **whether
it answers a question correctly is governed by how much of the relevant
visual evidence survived compression**.  Coarse questions ("what is the
player doing?") survive heavy quantisation; detail questions ("what number
is on the license plate?") do not (Section 2.3, Figure 4).

:class:`SimulatedMLLM` reproduces exactly that behaviour on top of the
synthetic scene ground truth:

* the evidence for a question is the decoded quality of the region holding
  the fact it asks about (second-best frame for multi-frame questions);
* the question is answerable when the evidence exceeds a threshold that
  grows with the fact's ``detail_scale``;
* an answerable question is answered correctly up to a small profile-specific
  error rate; an unanswerable one falls back to guessing — uniformly over
  the A/B/C/D options in multiple-choice mode (the ≥25 % floor the paper
  notes), or over the open answer space in free-response mode.

All randomness is derived deterministically from the profile seed and the
question, so experiments are exactly reproducible.
"""

from __future__ import annotations

import hashlib
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..video.frames import VideoFrame
from ..video.quality import region_quality
from ..video.scene import Scene, SceneFact
from .inference import InferenceConfig, default_inference_config
from .sampler import ReceiverSampler, SamplerConfig

MODE_MULTIPLE_CHOICE = "multiple_choice"
MODE_FREE_RESPONSE = "free_response"


@dataclass(frozen=True)
class MllmProfile:
    """Behavioural profile of one MLLM."""

    name: str
    #: Error rate on questions whose evidence is fully visible.
    base_error_rate: float = 0.05
    #: Multiplier on the evidence score (stronger models read more from less).
    detail_competence: float = 1.0
    #: Probability mass shifted towards the correct option when guessing in
    #: multiple-choice mode (language priors / option elimination).
    guess_bias: float = 0.05
    #: Probability of producing *any* plausible answer in free-response mode
    #: when the evidence is missing (otherwise it answers "unclear").
    free_response_guess_rate: float = 0.6

    def __post_init__(self) -> None:
        if not 0.0 <= self.base_error_rate < 1.0:
            raise ValueError("base_error_rate must be in [0, 1)")
        if self.detail_competence <= 0:
            raise ValueError("detail_competence must be positive")
        if not 0.0 <= self.guess_bias < 1.0:
            raise ValueError("guess_bias must be in [0, 1)")
        if not 0.0 <= self.free_response_guess_rate <= 1.0:
            raise ValueError("free_response_guess_rate must be in [0, 1]")


#: Profiles standing in for the models named in the paper.
QWEN2_5_OMNI = MllmProfile("qwen2.5-omni", base_error_rate=0.05, detail_competence=1.00)
QWEN3_VL_PLUS = MllmProfile("qwen3-vl-plus-thinking", base_error_rate=0.03, detail_competence=1.08)
GLM_4_5V = MllmProfile("glm-4.5v-thinking", base_error_rate=0.04, detail_competence=1.04)
MOBILE_MLLM = MllmProfile(
    "mobile-mllm", base_error_rate=0.12, detail_competence=0.70, guess_bias=0.02
)

UNCLEAR_ANSWER = "unclear"


@dataclass
class MllmAnswer:
    """The outcome of asking the simulated MLLM one question."""

    question: str
    answer: str
    ground_truth: str
    correct: bool
    knows: bool
    guessed: bool
    evidence_quality: float
    required_quality: float
    mode: str
    visual_tokens: int = 0
    inference_latency_ms: float = 0.0


class SimulatedMLLM:
    """Answers scene questions through a quality-gated evidence model."""

    def __init__(
        self,
        profile: MllmProfile = QWEN2_5_OMNI,
        seed: int = 0,
        sampler: Optional[ReceiverSampler] = None,
        inference_config: Optional[InferenceConfig] = None,
    ) -> None:
        self.profile = profile
        self.seed = seed
        self.sampler = sampler or ReceiverSampler(SamplerConfig())
        self.inference_config = inference_config or default_inference_config()

    # -- internals -----------------------------------------------------------

    def _rng_for(self, fact: SceneFact, salt: str = "", scene_name: str = "") -> np.random.Generator:
        key = (
            f"{self.seed}|{self.profile.name}|{scene_name}|{fact.object_name}|{fact.key}"
            f"|{fact.question}|{salt}"
        )
        digest = hashlib.sha256(key.encode("utf-8")).digest()
        return np.random.default_rng(int.from_bytes(digest[:8], "little"))

    def required_quality(self, detail_scale: float) -> float:
        """Evidence quality needed to answer a question of a given granularity."""
        return float(np.clip(0.30 + 0.60 * detail_scale, 0.0, 0.95))

    def evidence_quality(
        self,
        fact: SceneFact,
        scene: Scene,
        decoded_frames: Sequence[VideoFrame],
        original_frames: Sequence[VideoFrame],
    ) -> float:
        """Quality of the visual evidence for a fact across the visible frames.

        Single-frame questions use the best frame; multi-frame questions use
        the second best (at least two usable observations are needed).
        """
        if len(decoded_frames) != len(original_frames):
            raise ValueError("decoded and original frame lists must align")
        if not decoded_frames:
            return 0.0
        obj = scene.object_by_name(fact.object_name)
        scores = []
        for decoded, original in zip(decoded_frames, original_frames):
            if decoded.pixels.shape != original.pixels.shape:
                raise ValueError("decoded/original frame shape mismatch")
            region = obj.pixel_region(
                decoded.height, decoded.width, time_s=original.timestamp
            )
            report = region_quality(original.pixels, decoded.pixels, region)
            scores.append(report.readable_score)
        scores.sort(reverse=True)
        if fact.multi_frame:
            raw = scores[1] if len(scores) >= 2 else 0.0
        else:
            raw = scores[0]
        return float(np.clip(raw * self.profile.detail_competence, 0.0, 1.0))

    def _build_choices(self, fact: SceneFact, choices: Optional[Sequence[str]]) -> list[str]:
        if choices is not None:
            # The caller (e.g. the DeViBench filter) supplies the options as
            # generated; the true answer may be absent when the generator
            # hallucinated — the model then simply cannot score by knowledge.
            return list(choices)
        rng = self._rng_for(fact, salt="choices")  # choices need not vary by scene
        distractors = [value for value in fact.domain if value != fact.value]
        rng.shuffle(distractors)
        options = [fact.value] + distractors[:3]
        rng.shuffle(options)
        return options

    # -- public API ------------------------------------------------------------

    def answer_question(
        self,
        fact: SceneFact,
        scene: Scene,
        decoded_frames: Sequence[VideoFrame],
        original_frames: Sequence[VideoFrame],
        mode: str = MODE_MULTIPLE_CHOICE,
        choices: Optional[Sequence[str]] = None,
        apply_frame_sampling: bool = True,
        salt: str = "",
    ) -> MllmAnswer:
        """Ask the model one question about the decoded video."""
        if mode not in (MODE_MULTIPLE_CHOICE, MODE_FREE_RESPONSE):
            raise ValueError(f"unknown mode {mode!r}")

        decoded = list(decoded_frames)
        originals = list(original_frames)
        if apply_frame_sampling and decoded:
            selected = self.sampler.select_frames(decoded)
            selected_ids = {frame.frame_id for frame in selected}
            pairs = [
                (d, o) for d, o in zip(decoded, originals) if d.frame_id in selected_ids
            ]
            if pairs:
                decoded, originals = map(list, zip(*pairs))

        evidence = self.evidence_quality(fact, scene, decoded, originals)
        required = self.required_quality(fact.detail_scale)
        knows = evidence >= required

        rng = self._rng_for(fact, salt=salt or mode, scene_name=scene.name)
        visual_tokens = sum(self.sampler.visual_token_count(frame) for frame in decoded)
        latency = self.inference_config.first_response_latency_ms(visual_tokens)

        if knows and rng.random() >= self.profile.base_error_rate:
            answer = fact.value
            guessed = False
        elif mode == MODE_MULTIPLE_CHOICE:
            options = self._build_choices(fact, choices)
            if rng.random() < self.profile.guess_bias:
                answer = fact.value
            else:
                answer = str(rng.choice(options))
            guessed = True
        else:  # free response
            if rng.random() < self.profile.free_response_guess_rate:
                answer = str(rng.choice(list(fact.domain)))
            else:
                answer = UNCLEAR_ANSWER
            guessed = True

        return MllmAnswer(
            question=fact.question,
            answer=answer,
            ground_truth=fact.value,
            correct=answer == fact.value,
            knows=knows,
            guessed=guessed,
            evidence_quality=evidence,
            required_quality=required,
            mode=mode,
            visual_tokens=visual_tokens,
            inference_latency_ms=latency,
        )
