"""DeViBench dataset containers: QA samples and the benchmark object.

DeViBench (Section 3.1) is a set of multiple-choice QA samples that are
*sensitive to video streaming quality*: each accepted sample is answerable
from the original video but not from the 200 Kbps rendition.  This module
holds the sample/benchmark data model, Table 1-style summaries and JSON
(de)serialisation so a generated benchmark can be shipped as an artifact.
"""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from ..video.scene import CATEGORIES, Scene, SceneFact

OPTION_LETTERS = ("A", "B", "C", "D")


@dataclass
class QASample:
    """One multiple-choice question about one video."""

    sample_id: str
    scene_name: str
    question: str
    options: tuple[str, ...]
    correct_letter: str
    category: str
    multi_frame: bool
    detail_scale: float
    object_name: str
    fact_key: str
    ground_truth: str
    provenance: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        if len(self.options) < 2 or len(self.options) > len(OPTION_LETTERS):
            raise ValueError("options must contain between 2 and 4 entries")
        if self.correct_letter not in OPTION_LETTERS[: len(self.options)]:
            raise ValueError(f"correct_letter {self.correct_letter!r} not among the options")
        if self.category not in CATEGORIES:
            raise ValueError(f"unknown category {self.category!r}")
        if self.options[self.letter_index(self.correct_letter)] != self.ground_truth:
            raise ValueError("the option behind correct_letter must equal ground_truth")

    @staticmethod
    def letter_index(letter: str) -> int:
        return OPTION_LETTERS.index(letter)

    @property
    def correct_option(self) -> str:
        return self.options[self.letter_index(self.correct_letter)]

    def is_correct(self, answer: str) -> bool:
        """Grade an answer given either as a letter or as the option text."""
        answer = answer.strip()
        if answer.upper() in OPTION_LETTERS[: len(self.options)]:
            return answer.upper() == self.correct_letter
        return answer == self.correct_option

    def to_fact(self) -> SceneFact:
        """Rebuild the underlying scene fact (used when re-asking the MLLM)."""
        return SceneFact(
            object_name=self.object_name,
            key=self.fact_key,
            value=self.ground_truth,
            domain=tuple(dict.fromkeys(list(self.options) + [self.ground_truth])),
            category=self.category,
            detail_scale=self.detail_scale,
            question=self.question,
            multi_frame=self.multi_frame,
        )


@dataclass
class BenchmarkSummary:
    """The Table 1 style summary of a generated benchmark."""

    num_samples: int
    num_sample_types: int
    total_duration_s: float
    total_money_spent_usd: float
    total_time_cost_s: float
    category_distribution: dict[str, float]
    multi_frame_fraction: float


class DeViBench:
    """A collection of quality-sensitive QA samples over a scene corpus."""

    def __init__(self, samples: Sequence[QASample], scenes: Optional[Sequence[Scene]] = None) -> None:
        self._samples = list(samples)
        self._scenes = {scene.name: scene for scene in (scenes or [])}

    def __len__(self) -> int:
        return len(self._samples)

    def __iter__(self):
        return iter(self._samples)

    @property
    def samples(self) -> list[QASample]:
        return list(self._samples)

    def scene_for(self, sample: QASample) -> Scene:
        if sample.scene_name not in self._scenes:
            raise KeyError(f"scene {sample.scene_name!r} not attached to this benchmark")
        return self._scenes[sample.scene_name]

    @property
    def scenes(self) -> list[Scene]:
        return list(self._scenes.values())

    def by_category(self, category: str) -> list[QASample]:
        return [sample for sample in self._samples if sample.category == category]

    def category_distribution(self) -> dict[str, float]:
        if not self._samples:
            return {category: 0.0 for category in CATEGORIES}
        counts = {category: 0 for category in CATEGORIES}
        for sample in self._samples:
            counts[sample.category] += 1
        total = len(self._samples)
        return {category: counts[category] / total for category in CATEGORIES}

    def multi_frame_fraction(self) -> float:
        if not self._samples:
            return 0.0
        return float(np.mean([sample.multi_frame for sample in self._samples]))

    def sample_type_count(self) -> int:
        """Number of (category, temporal-dependency) type combinations present."""
        types = {(sample.category, sample.multi_frame) for sample in self._samples}
        return len(types)

    def summary(
        self,
        scene_duration_s: Optional[float] = None,
        money_per_sample_usd: float = 0.0,
        time_per_sample_s: float = 0.0,
    ) -> BenchmarkSummary:
        duration = 0.0
        if scene_duration_s is not None:
            duration = scene_duration_s * max(len(self._scenes), 1)
        else:
            duration = sum(scene.duration_s for scene in self._scenes.values())
        return BenchmarkSummary(
            num_samples=len(self._samples),
            num_sample_types=self.sample_type_count(),
            total_duration_s=duration,
            total_money_spent_usd=money_per_sample_usd * len(self._samples),
            total_time_cost_s=time_per_sample_s * len(self._samples),
            category_distribution=self.category_distribution(),
            multi_frame_fraction=self.multi_frame_fraction(),
        )

    # -- persistence --------------------------------------------------------------

    def to_json(self) -> str:
        payload = {
            "format": "devibench-v1",
            "samples": [
                {**asdict(sample), "options": list(sample.options)} for sample in self._samples
            ],
        }
        return json.dumps(payload, indent=2)

    def save(self, path: Path) -> None:
        Path(path).write_text(self.to_json(), encoding="utf-8")

    @classmethod
    def from_json(cls, text: str, scenes: Optional[Sequence[Scene]] = None) -> "DeViBench":
        payload = json.loads(text)
        if payload.get("format") != "devibench-v1":
            raise ValueError("unrecognised DeViBench serialisation format")
        samples = [
            QASample(**{**entry, "options": tuple(entry["options"])})
            for entry in payload["samples"]
        ]
        return cls(samples, scenes=scenes)

    @classmethod
    def load(cls, path: Path, scenes: Optional[Sequence[Scene]] = None) -> "DeViBench":
        return cls.from_json(Path(path).read_text(encoding="utf-8"), scenes=scenes)
