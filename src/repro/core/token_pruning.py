"""Context-aware token pruning (Section 4, "Token pruning").

MLLM inference is autoregressive, so its latency scales with the number of
input tokens; pruning visual tokens is the standard lever (the paper cites
AIM and TimeChat-Online).  Context-aware streaming has already scored every
region's relevance to the chat, so the natural extension is to prune the
visual tokens of chat-irrelevant regions before they ever reach the model.

The pruner maps the CLIP correlation map onto the vision-tower token grid,
keeps the most relevant tokens (plus an optional uniformly-sampled retention
floor so global context is not lost), and reports the inference-latency
saving through the shared
:func:`~repro.mllm.inference.first_response_latency_ms` model.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from ..mllm.clip import CorrelationMap
from ..mllm.inference import first_response_latency_ms
from ..video.frames import VideoFrame


@dataclass
class PruningConfig:
    """Configuration of the context-aware token pruner."""

    #: Side length (pixels) of the square image patch behind one visual token.
    token_patch_size: int = 28
    #: Fraction of tokens to keep (by correlation rank).
    keep_ratio: float = 0.3
    #: Fraction of the *pruned* tokens re-added uniformly so the model keeps
    #: a coarse view of the whole frame.
    uniform_floor_ratio: float = 0.05

    def __post_init__(self) -> None:
        if self.token_patch_size <= 0:
            raise ValueError("token_patch_size must be positive")
        if not 0.0 < self.keep_ratio <= 1.0:
            raise ValueError("keep_ratio must be in (0, 1]")
        if not 0.0 <= self.uniform_floor_ratio < 1.0:
            raise ValueError("uniform_floor_ratio must be in [0, 1)")


@dataclass
class PruningResult:
    """Which tokens survive pruning and what that saves."""

    token_grid_shape: tuple[int, int]
    keep_mask: np.ndarray
    token_scores: np.ndarray
    kept_tokens: int
    total_tokens: int
    latency_before_ms: float
    latency_after_ms: float

    @property
    def kept_ratio(self) -> float:
        if self.total_tokens == 0:
            return 0.0
        return self.kept_tokens / self.total_tokens

    @property
    def latency_saving_ms(self) -> float:
        return self.latency_before_ms - self.latency_after_ms

    def region_kept_fraction(self, pixel_region: tuple[int, int, int, int], patch_size: int) -> float:
        """Fraction of the tokens covering a pixel region that survived pruning."""
        row0, row1, col0, col1 = pixel_region
        tr0, tr1 = row0 // patch_size, max(row0 // patch_size + 1, int(np.ceil(row1 / patch_size)))
        tc0, tc1 = col0 // patch_size, max(col0 // patch_size + 1, int(np.ceil(col1 / patch_size)))
        tr1 = min(tr1, self.keep_mask.shape[0])
        tc1 = min(tc1, self.keep_mask.shape[1])
        window = self.keep_mask[tr0:tr1, tc0:tc1]
        if window.size == 0:
            return 0.0
        return float(window.mean())


class ContextAwareTokenPruner:
    """Prunes visual tokens by chat relevance before MLLM ingestion."""

    def __init__(self, config: Optional[PruningConfig] = None) -> None:
        self.config = config or PruningConfig()

    def _token_scores(self, frame: VideoFrame, correlation: CorrelationMap) -> np.ndarray:
        patch = self.config.token_patch_size
        rows = int(np.ceil(frame.height / patch))
        cols = int(np.ceil(frame.width / patch))
        scores = np.zeros((rows, cols))
        for row in range(rows):
            for col in range(cols):
                centre_row = min(frame.height - 1, row * patch + patch // 2)
                centre_col = min(frame.width - 1, col * patch + patch // 2)
                source_row = min(correlation.values.shape[0] - 1, centre_row // correlation.patch_size)
                source_col = min(correlation.values.shape[1] - 1, centre_col // correlation.patch_size)
                scores[row, col] = correlation.values[source_row, source_col]
        return scores

    def prune(self, frame: VideoFrame, correlation: CorrelationMap) -> PruningResult:
        """Decide which visual tokens of this frame survive."""
        scores = self._token_scores(frame, correlation)
        total = scores.size
        keep_count = max(1, int(round(self.config.keep_ratio * total)))

        flat_order = np.argsort(scores.ravel())[::-1]
        keep_mask = np.zeros(total, dtype=bool)
        keep_mask[flat_order[:keep_count]] = True

        # Uniform retention floor over the pruned tokens.
        if self.config.uniform_floor_ratio > 0:
            pruned_indices = np.flatnonzero(~keep_mask)
            floor_count = int(round(self.config.uniform_floor_ratio * pruned_indices.size))
            if floor_count > 0:
                stride = max(1, pruned_indices.size // floor_count)
                keep_mask[pruned_indices[::stride][:floor_count]] = True

        keep_mask = keep_mask.reshape(scores.shape)
        kept = int(keep_mask.sum())
        latency_before = first_response_latency_ms(total)
        latency_after = first_response_latency_ms(kept)
        return PruningResult(
            token_grid_shape=scores.shape,
            keep_mask=keep_mask,
            token_scores=scores,
            kept_tokens=kept,
            total_tokens=total,
            latency_before_ms=latency_before,
            latency_after_ms=latency_after,
        )
