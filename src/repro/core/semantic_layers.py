"""Semantic layered video streaming (Section 4, "MLLM long-term memory").

Scalable video coding (SVC) layers a stream by *quality*; the paper proposes
layering by *semantic correlation* instead:

* the **base layer** carries the regions most important to the current chat
  context at high quality and must arrive with low latency;
* one or more **enhancement layers** carry the remaining detail, are not
  latency-sensitive, and are ingested offline to build the MLLM's long-term
  memory so that future questions about currently-irrelevant content can
  still be answered.

The implementation splits the context-aware QP map by correlation quantiles
into per-layer QP maps (regions outside a layer are pushed to the maximum
QP), encodes each layer with the shared block codec, and reconstructs by
taking, per block, the best-quality layer received so far.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

import numpy as np

from ..mllm.clip import CorrelationMap
from ..video.codec import MAX_QP, BlockCodec, EncodedFrame


@dataclass
class LayerConfig:
    """Configuration of the semantic layering."""

    #: Correlation thresholds splitting blocks into layers: the base layer
    #: holds blocks with correlation >= thresholds[0], layer 1 holds blocks
    #: in [thresholds[1], thresholds[0]), and so on; the final enhancement
    #: layer holds everything below the last threshold.
    thresholds: tuple[float, ...] = (0.45, 0.0)
    #: QP used inside each layer for the blocks it owns (base first).  Must
    #: have one more entry than ``thresholds``.
    layer_qps: tuple[float, ...] = (16.0, 30.0, 40.0)
    gamma: float = 3.0

    def __post_init__(self) -> None:
        if len(self.layer_qps) != len(self.thresholds) + 1:
            raise ValueError("layer_qps must have exactly one more entry than thresholds")
        if list(self.thresholds) != sorted(self.thresholds, reverse=True):
            raise ValueError("thresholds must be strictly decreasing")
        if any(not 0 <= qp <= MAX_QP for qp in self.layer_qps):
            raise ValueError("layer QPs must lie in the codec QP range")

    @property
    def layer_count(self) -> int:
        return len(self.layer_qps)


@dataclass
class SemanticLayer:
    """One encoded layer plus its block ownership mask."""

    index: int
    name: str
    encoded: EncodedFrame
    block_mask: np.ndarray  # True where this layer owns the block
    latency_sensitive: bool

    @property
    def size_bytes(self) -> int:
        # Only the blocks this layer owns count towards its payload; the rest
        # are encoded at the maximum QP and carry negligible bits, but we
        # charge them anyway to stay conservative.
        return self.encoded.size_bytes


@dataclass
class LayeredEncodeResult:
    """All layers of one frame."""

    layers: list[SemanticLayer]
    correlation: CorrelationMap
    block_assignment: np.ndarray  # layer index per block

    @property
    def base_layer(self) -> SemanticLayer:
        return self.layers[0]

    @property
    def enhancement_layers(self) -> list[SemanticLayer]:
        return self.layers[1:]

    @property
    def total_bytes(self) -> int:
        return sum(layer.size_bytes for layer in self.layers)


class SemanticLayeredEncoder:
    """Splits a frame into semantic layers and reconstructs from any subset."""

    def __init__(self, config: Optional[LayerConfig] = None) -> None:
        self.config = config or LayerConfig()
        self.codec = BlockCodec()

    def _assign_blocks(self, correlation_blocks: np.ndarray) -> np.ndarray:
        assignment = np.full(correlation_blocks.shape, self.config.layer_count - 1, dtype=int)
        for layer_index, threshold in enumerate(self.config.thresholds):
            mask = (correlation_blocks >= threshold) & (assignment == self.config.layer_count - 1)
            # Blocks not yet claimed by a more important layer and above this
            # threshold belong to this layer.
            claimed_by_earlier = np.zeros_like(assignment, dtype=bool)
            for earlier in range(layer_index):
                claimed_by_earlier |= assignment == earlier
            mask &= ~claimed_by_earlier
            assignment[mask] = layer_index
        return assignment

    def encode(
        self,
        pixels: np.ndarray,
        correlation: CorrelationMap,
        frame_id: int = 0,
        timestamp: float = 0.0,
    ) -> LayeredEncodeResult:
        """Encode one frame into semantic layers."""
        pixels = np.asarray(pixels, dtype=float)
        blocks = correlation.to_block_grid(self.codec.config.block_size, pixels.shape)
        assignment = self._assign_blocks(blocks)

        layers: list[SemanticLayer] = []
        for index in range(self.config.layer_count):
            mask = assignment == index
            qp_map = np.full(blocks.shape, float(MAX_QP))
            qp_map[mask] = self.config.layer_qps[index]
            encoded = self.codec.encode(pixels, qp_map, frame_id=frame_id, timestamp=timestamp)
            name = "base" if index == 0 else f"enhancement_{index}"
            layers.append(
                SemanticLayer(
                    index=index,
                    name=name,
                    encoded=encoded,
                    block_mask=mask,
                    latency_sensitive=index == 0,
                )
            )
        return LayeredEncodeResult(layers=layers, correlation=correlation, block_assignment=assignment)

    def reconstruct(
        self, result: LayeredEncodeResult, received_layers: Sequence[int]
    ) -> np.ndarray:
        """Reconstruct a frame from whichever layers have been received.

        Each block is taken from the received layer that owns it; blocks whose
        owning layer is missing fall back to the best received layer (which
        encoded them at maximum QP, i.e. heavily blurred) — mirroring how the
        base layer alone shows crisp important regions and coarse background.
        """
        received = sorted(set(received_layers))
        if not received:
            raise ValueError("at least one layer must be received")
        unknown = [index for index in received if not 0 <= index < self.config.layer_count]
        if unknown:
            raise ValueError(f"unknown layer indices: {unknown}")

        block = self.codec.config.block_size
        decoded_by_layer = {index: self.codec.decode(result.layers[index].encoded) for index in received}
        # Start from the lowest-index received layer as the canvas.
        canvas = decoded_by_layer[received[0]].copy()
        assignment = result.block_assignment
        for block_row in range(assignment.shape[0]):
            for block_col in range(assignment.shape[1]):
                owner = int(assignment[block_row, block_col])
                source = owner if owner in decoded_by_layer else received[0]
                row0, row1 = block_row * block, (block_row + 1) * block
                col0, col1 = block_col * block, (block_col + 1) * block
                row1 = min(row1, canvas.shape[0])
                col1 = min(col1, canvas.shape[1])
                canvas[row0:row1, col0:col1] = decoded_by_layer[source][row0:row1, col0:col1]
        return canvas

    def layer_bitrates_bps(self, result: LayeredEncodeResult, fps: float) -> dict[str, float]:
        """Per-layer bitrate at a given frame rate."""
        return {layer.name: layer.encoded.bitrate_bps(fps) for layer in result.layers}
