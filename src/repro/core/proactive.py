"""Proactive context awareness (Section 4, "Proactive context-aware").

The reactive mechanism of Section 3.2 needs the user's words *before* the
frame is encoded, but users may speak at any time — some segments have no
words to condition on.  The paper's proposed next step is a mechanism that
recognises likely-important regions even when the user is silent.

We implement three proactive policies:

* :class:`SaliencyProactivePolicy` — score patches by visual saliency
  (local contrast / fine structure), on the premise that detail-rich regions
  are the ones detail questions will target;
* :class:`HistoryProactivePolicy` — reuse the correlation maps of the recent
  dialogue turns with exponential decay, on the premise that conversations
  have topical locality;
* :class:`HybridProactivePolicy` — a weighted blend of the two, falling back
  to saliency when there is no history.

Each policy produces a pseudo-correlation map in [−1, 1], so it plugs into
the same Equation (2) QP mapping as the reactive streamer.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..mllm.clip import CorrelationMap
from ..video.frames import VideoFrame
from .patches import PatchGrid


class ProactivePolicy:
    """Interface: produce a pseudo-correlation map without user words."""

    def importance_map(self, frame: VideoFrame) -> CorrelationMap:  # pragma: no cover
        raise NotImplementedError


@dataclass
class SaliencyProactivePolicy(ProactivePolicy):
    """Visual saliency: regions with fine structure get high importance.

    The score of a patch is its normalised local standard deviation plus a
    gradient-energy term, squashed into [−1, 1] so it can reuse Equation (2).
    """

    patch_size: int = 32
    #: Exponent shaping the saliency distribution (higher → more peaked).
    sharpness: float = 1.0

    def importance_map(self, frame: VideoFrame) -> CorrelationMap:
        grid = PatchGrid(frame.height, frame.width, self.patch_size)
        scores = np.zeros(grid.shape)
        for patch in grid:
            pixels = grid.extract(frame.pixels, patch)
            contrast = float(pixels.std())
            gy, gx = np.gradient(pixels)
            gradient_energy = float(np.mean(np.abs(gx)) + np.mean(np.abs(gy)))
            scores[patch.row, patch.col] = contrast + gradient_energy
        if scores.max() > scores.min():
            normalised = (scores - scores.min()) / (scores.max() - scores.min())
        else:
            normalised = np.full(grid.shape, 0.5)
        normalised = normalised**self.sharpness
        correlation = 2.0 * normalised - 1.0
        return CorrelationMap(
            values=correlation,
            patch_size=self.patch_size,
            frame_shape=(frame.height, frame.width),
            query="<proactive:saliency>",
            query_concepts=(),
        )


@dataclass
class HistoryProactivePolicy(ProactivePolicy):
    """Topical locality: recent questions predict where future questions look."""

    patch_size: int = 32
    decay: float = 0.6
    max_history: int = 8
    _history: list[np.ndarray] = field(default_factory=list)

    def observe(self, correlation: CorrelationMap) -> None:
        """Record the correlation map of a completed dialogue turn."""
        if correlation.patch_size != self.patch_size:
            raise ValueError(
                f"history patch size {correlation.patch_size} does not match policy {self.patch_size}"
            )
        self._history.append(np.asarray(correlation.values, dtype=float))
        if len(self._history) > self.max_history:
            self._history = self._history[-self.max_history :]

    @property
    def history_length(self) -> int:
        return len(self._history)

    def importance_map(self, frame: VideoFrame) -> CorrelationMap:
        grid = PatchGrid(frame.height, frame.width, self.patch_size)
        if not self._history:
            values = np.zeros(grid.shape)
        else:
            weights = np.array([self.decay**age for age in range(len(self._history))][::-1])
            weights /= weights.sum()
            stacked = np.stack([self._resize(h, grid.shape) for h in self._history])
            values = np.tensordot(weights, stacked, axes=1)
        return CorrelationMap(
            values=np.clip(values, -1.0, 1.0),
            patch_size=self.patch_size,
            frame_shape=(frame.height, frame.width),
            query="<proactive:history>",
            query_concepts=(),
        )

    @staticmethod
    def _resize(values: np.ndarray, shape: tuple[int, int]) -> np.ndarray:
        if values.shape == shape:
            return values
        rows = np.minimum(
            (np.arange(shape[0]) * values.shape[0]) // shape[0], values.shape[0] - 1
        )
        cols = np.minimum(
            (np.arange(shape[1]) * values.shape[1]) // shape[1], values.shape[1] - 1
        )
        return values[np.ix_(rows, cols)]


@dataclass
class HybridProactivePolicy(ProactivePolicy):
    """Blend of saliency and dialogue history."""

    patch_size: int = 32
    history_weight: float = 0.6
    saliency: SaliencyProactivePolicy = field(default=None)  # type: ignore[assignment]
    history: HistoryProactivePolicy = field(default=None)  # type: ignore[assignment]

    def __post_init__(self) -> None:
        if not 0.0 <= self.history_weight <= 1.0:
            raise ValueError("history_weight must be in [0, 1]")
        if self.saliency is None:
            self.saliency = SaliencyProactivePolicy(patch_size=self.patch_size)
        if self.history is None:
            self.history = HistoryProactivePolicy(patch_size=self.patch_size)

    def observe(self, correlation: CorrelationMap) -> None:
        self.history.observe(correlation)

    def importance_map(self, frame: VideoFrame) -> CorrelationMap:
        saliency_map = self.saliency.importance_map(frame)
        if self.history.history_length == 0:
            return saliency_map
        history_map = self.history.importance_map(frame)
        blended = (
            self.history_weight * history_map.values
            + (1.0 - self.history_weight) * saliency_map.values
        )
        return CorrelationMap(
            values=np.clip(blended, -1.0, 1.0),
            patch_size=self.patch_size,
            frame_shape=saliency_map.frame_shape,
            query="<proactive:hybrid>",
            query_concepts=(),
        )
