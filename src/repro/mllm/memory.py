"""Long-term memory over streamed video (Section 4, "MLLM long-term memory").

Context-aware streaming discards most video content that is irrelevant to the
*current* chat.  But MLLMs with long-term memory may later be asked about
content that was never important before — which is why the paper proposes
semantic layered streaming: a latency-critical base layer for the current
context plus enhancement layers that are shipped lazily and ingested offline
into memory.

This module provides that memory: facts observed from delivered video are
stored with the quality they were observed at, and recall is gated on that
stored quality just like live answering is gated on decoded quality.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..video.scene import Scene, SceneFact
from .embedding import ConceptSpace, cosine_similarity


@dataclass
class MemoryEntry:
    """One remembered observation."""

    fact: SceneFact
    observed_quality: float
    observed_at: float
    scene_name: str
    layer: str = "base"

    @property
    def recallable(self) -> bool:
        """Whether the stored observation is good enough to answer from."""
        required = 0.30 + 0.60 * self.fact.detail_scale
        return self.observed_quality >= required


class LongTermMemory:
    """Stores observations and answers later questions from them."""

    def __init__(self, space: Optional[ConceptSpace] = None) -> None:
        self.space = space or ConceptSpace()
        self._entries: list[MemoryEntry] = []

    def __len__(self) -> int:
        return len(self._entries)

    @property
    def entries(self) -> list[MemoryEntry]:
        return list(self._entries)

    def ingest(
        self,
        fact: SceneFact,
        observed_quality: float,
        observed_at: float,
        scene: Scene,
        layer: str = "base",
    ) -> MemoryEntry:
        """Store one observation (typically from an enhancement layer)."""
        if not 0.0 <= observed_quality <= 1.0:
            raise ValueError("observed_quality must be in [0, 1]")
        entry = MemoryEntry(
            fact=fact,
            observed_quality=float(observed_quality),
            observed_at=float(observed_at),
            scene_name=scene.name,
            layer=layer,
        )
        # Keep only the best observation of each fact.
        for index, existing in enumerate(self._entries):
            if (
                existing.fact.object_name == fact.object_name
                and existing.fact.key == fact.key
                and existing.scene_name == scene.name
            ):
                if observed_quality > existing.observed_quality:
                    self._entries[index] = entry
                return self._entries[index]
        self._entries.append(entry)
        return entry

    def recall(self, query: str, top_k: int = 3) -> list[MemoryEntry]:
        """Entries most semantically relevant to a query, best first."""
        if top_k <= 0:
            raise ValueError("top_k must be positive")
        if not self._entries:
            return []
        query_vector = self.space.encode_concepts(self.space.extract_concepts(query))
        scored = []
        for entry in self._entries:
            concepts = list(entry.fact.query_concepts) or [entry.fact.object_name]
            entry_vector = self.space.encode_concepts(concepts)
            scored.append((cosine_similarity(query_vector, entry_vector), entry))
        scored.sort(key=lambda pair: pair[0], reverse=True)
        return [entry for _, entry in scored[:top_k]]

    def answer_from_memory(self, fact: SceneFact, scene_name: str) -> Optional[str]:
        """Answer a question purely from memory, or None when not recallable."""
        for entry in self._entries:
            if (
                entry.fact.object_name == fact.object_name
                and entry.fact.key == fact.key
                and entry.scene_name == scene_name
            ):
                return entry.fact.value if entry.recallable else None
        return None

    def coverage(self, facts: Sequence[SceneFact], scene_name: str) -> float:
        """Fraction of the given facts answerable from memory."""
        if not facts:
            raise ValueError("facts must not be empty")
        hits = sum(
            1 for fact in facts if self.answer_from_memory(fact, scene_name) == fact.value
        )
        return hits / len(facts)
