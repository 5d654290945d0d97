"""A MobileCLIP-style text/patch encoder pair and correlation maps.

Implements Equation (1) of the paper: the frame is partitioned into
non-overlapping N×N patches, each patch is encoded by a visual encoder, the
user words are encoded by a language encoder sharing the same feature space,
and the semantic correlation of a patch is the cosine similarity of the two
features.

Offline we substitute the real MobileCLIP with encoders built on the
deterministic :class:`~repro.mllm.embedding.ConceptSpace`:

* the **text encoder** extracts vocabulary concepts from the user's words
  (plus any explicit query concepts) and averages their vectors;
* the **vision side** (:meth:`MobileClip.correlation_map`) encodes the whole
  patch grid with array operations: each patch's feature averages the
  concept vectors of the scene objects overlapping it, weighted by overlap
  area and attenuated when the patch's fine detail has been blurred away
  (mirroring the paper's observation that CLIP "ignores the blurry grass in
  the distance").

The resulting correlation maps have the property every downstream experiment
needs: patches containing chat-relevant objects score higher than the rest,
including for indirect queries (season → grass).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..video.quality import high_frequency_retention
from ..video.scene import Scene
from .embedding import ConceptSpace


@dataclass
class ClipConfig:
    """Configuration of the CLIP-substitute."""

    patch_size: int = 32
    #: Weight of a neutral "background" component added to every patch so
    #: empty patches are not exactly zero vectors.
    background_weight: float = 0.15
    #: Detail visibility below which fine-grained object concepts fade out.
    visibility_floor: float = 0.2
    #: Per-patch compute cost of the visual encoder (MobileCLIP-class), used
    #: in the client-side computation discussion of Section 4.
    encode_cost_ms_per_patch: float = 0.035
    text_encode_cost_ms: float = 3.0

    def __post_init__(self) -> None:
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        if not 0.0 <= self.background_weight <= 1.0:
            raise ValueError("background_weight must be in [0, 1]")


@dataclass
class CorrelationMap:
    """Per-patch semantic correlation of a frame against the user's words."""

    values: np.ndarray  # (patches_y, patches_x), in [-1, 1]
    patch_size: int
    frame_shape: tuple[int, int]
    query: str
    query_concepts: tuple[str, ...]
    compute_latency_ms: float = 0.0

    @property
    def grid_shape(self) -> tuple[int, int]:
        return self.values.shape

    def top_patches(self, count: int = 5) -> list[tuple[int, int, float]]:
        """The ``count`` most chat-relevant patches as (row, col, correlation)."""
        flat = self.values.ravel()
        order = np.argsort(flat)[::-1][:count]
        rows, cols = np.unravel_index(order, self.values.shape)
        return [(int(r), int(c), float(self.values[r, c])) for r, c in zip(rows, cols)]

    def region_mean(self, pixel_region: tuple[int, int, int, int]) -> float:
        """Mean correlation over the patches overlapping a pixel region."""
        row0, row1, col0, col1 = pixel_region
        p = self.patch_size
        pr0, pr1 = row0 // p, max(row0 // p + 1, int(np.ceil(row1 / p)))
        pc0, pc1 = col0 // p, max(col0 // p + 1, int(np.ceil(col1 / p)))
        pr1 = min(pr1, self.values.shape[0])
        pc1 = min(pc1, self.values.shape[1])
        return float(self.values[pr0:pr1, pc0:pc1].mean())

    def to_block_grid(self, block_size: int, frame_shape: Optional[tuple[int, int]] = None) -> np.ndarray:
        """Resample the patch-level map onto a codec block grid.

        The context-aware streamer computes correlation on CLIP patches but
        the encoder applies QP per codec block; this nearest-patch resampling
        bridges the two grids.
        """
        if block_size <= 0:
            raise ValueError("block_size must be positive")
        height, width = frame_shape if frame_shape is not None else self.frame_shape
        blocks_y = int(np.ceil(height / block_size))
        blocks_x = int(np.ceil(width / block_size))
        rows = np.minimum(
            (np.arange(blocks_y) * block_size + block_size // 2) // self.patch_size,
            self.values.shape[0] - 1,
        )
        cols = np.minimum(
            (np.arange(blocks_x) * block_size + block_size // 2) // self.patch_size,
            self.values.shape[1] - 1,
        )
        return self.values[np.ix_(rows, cols)]


class ClipTextEncoder:
    """Language side of the CLIP substitute."""

    def __init__(self, space: ConceptSpace) -> None:
        self.space = space

    def encode(self, text: str, extra_concepts: Sequence[str] = ()) -> np.ndarray:
        return self.space.encode_concepts(self.concepts(text, extra_concepts))

    def concepts(self, text: str, extra_concepts: Sequence[str] = ()) -> tuple[str, ...]:
        concepts = self.space.extract_concepts(text)
        for concept in extra_concepts:
            if concept not in concepts:
                concepts.append(concept)
        return tuple(concepts)


class MobileClip:
    """The full CLIP substitute: correlation maps per Equation (1)."""

    def __init__(self, config: Optional[ClipConfig] = None) -> None:
        self.space = ConceptSpace()
        self.config = config or ClipConfig()
        self.text_encoder = ClipTextEncoder(self.space)

    def correlation_map(
        self,
        scene: Scene,
        user_words: str,
        frame_pixels: Optional[np.ndarray] = None,
        original_pixels: Optional[np.ndarray] = None,
        extra_concepts: Sequence[str] = (),
        time_s: float = 0.0,
    ) -> CorrelationMap:
        """Compute the patch-wise semantic correlation ρ of Equation (1).

        ``frame_pixels`` are the (decoded) pixels CLIP sees and
        ``original_pixels`` the captured ones; when both are given and
        differ, blurred fine detail attenuates the objects in each patch.
        """
        patch = self.config.patch_size
        height, width = scene.height, scene.width
        patches_y = int(np.ceil(height / patch))
        patches_x = int(np.ceil(width / patch))

        text_feature = self.text_encoder.encode(user_words, extra_concepts)
        query_concepts = self.text_encoder.concepts(user_words, extra_concepts)

        row0 = np.arange(patches_y) * patch
        row1 = np.minimum(row0 + patch, height)
        col0 = np.arange(patches_x) * patch
        col1 = np.minimum(col0 + patch, width)
        area = np.maximum(1, (row1 - row0)[:, None] * (col1 - col0)[None, :])
        visibility = self._visibility(
            frame_pixels, original_pixels, list(zip(row0, row1)), list(zip(col0, col1))
        )

        # Sum the weighted concept vectors in the per-patch order (background,
        # then each object's concepts in scene order), so each feature is the
        # same float sum as one patch encoded alone; an object that misses a
        # patch adds exact zeros there.
        features = np.empty((patches_y, patches_x, self.space.dim))
        features[:] = self.config.background_weight * self.space.vector("background")
        for obj in scene.objects:
            orow0, orow1, ocol0, ocol1 = obj.pixel_region(height, width, time_s)
            rows = np.maximum(0, np.minimum(row1, orow1) - np.maximum(row0, orow0))
            cols = np.maximum(0, np.minimum(col1, ocol1) - np.maximum(col0, ocol0))
            weight = rows[:, None] * cols[None, :] / area
            if visibility is not None:
                weight = weight * self._detail_penalty(visibility, obj.detail_scale)
            for concept in obj.concepts:
                features += weight[:, :, None] * self.space.vector(concept)

        # Norms and dot products stay per patch: a batched norm or matmul may
        # sum the 64 products in another order and round differently.  The
        # loop is ``cosine_similarity(feature / norm, text_feature)`` with each
        # ``np.linalg.norm(v)`` spelled as what it computes for a real 1-D
        # vector, ``sqrt(v.dot(v))``, and the text norm taken once.
        text_norm = math.sqrt(text_feature.dot(text_feature))
        values = np.zeros((patches_y, patches_x))
        flat_values = values.reshape(-1)
        for index, feature in enumerate(features.reshape(-1, self.space.dim)):
            norm = math.sqrt(feature.dot(feature))
            if norm > 1e-12:
                unit = feature / norm
                norms = math.sqrt(unit.dot(unit)) * text_norm
                if norms > 1e-12:
                    flat_values[index] = unit.dot(text_feature) / norms

        latency = (
            self.config.text_encode_cost_ms
            + patches_y * patches_x * self.config.encode_cost_ms_per_patch
        )
        return CorrelationMap(
            values=values,
            patch_size=patch,
            frame_shape=(height, width),
            query=user_words,
            query_concepts=query_concepts,
            compute_latency_ms=latency,
        )

    @staticmethod
    def _visibility(
        frame_pixels: Optional[np.ndarray],
        original_pixels: Optional[np.ndarray],
        rows: list[tuple[int, int]],
        cols: list[tuple[int, int]],
    ) -> Optional[np.ndarray]:
        """Per-patch detail retention of the frame, or None when nothing was lost.

        Identical pixels retain all detail (``high_frequency_retention(x, x)``
        is exactly 1.0), so the spectra are only computed for a degraded frame.
        """
        if frame_pixels is None or original_pixels is None or np.array_equal(frame_pixels, original_pixels):
            return None
        retention = [
            high_frequency_retention(original_pixels[r0:r1, c0:c1], frame_pixels[r0:r1, c0:c1])
            for r0, r1 in rows
            for c0, c1 in cols
        ]
        return np.reshape(retention, (len(rows), len(cols)))

    def _detail_penalty(self, visibility: np.ndarray, detail_scale: float) -> np.ndarray:
        """Fine-detail objects fade when their detail is blurred; coarse ones stay.

        Python's float power, not ``np.power``: a vectorised power may round
        differently from the scalar one in the last place.
        """
        floor = self.config.visibility_floor
        exponent = 0.5 + 2.0 * detail_scale
        penalty = [max(v, floor) ** exponent if v < 1.0 else 1.0 for v in visibility.ravel().tolist()]
        return np.reshape(penalty, visibility.shape)
