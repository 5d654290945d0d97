"""Context-Aware Video Streaming — the paper's primary contribution (Section 3.2).

The streamer takes the current user words and the latest frame, computes the
semantic correlation of every video region against the words with the
CLIP-style encoder (Equation 1), converts correlation to a per-region QP map
(Equation 2), and encodes the frame so that chat-important regions keep
their quality while chat-irrelevant regions are compressed away.  A uniform-
QP encoder with the same rate-control loop provides the context-agnostic
baseline used throughout the evaluation (Figures 9 and 10).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence, Union

import numpy as np

from ..mllm.clip import ClipConfig, CorrelationMap, MobileClip
from ..video.codec import BlockCodec, EncodedFrame
from ..video.frames import VideoFrame
from ..video.rate_control import RateControlResult, encode_at_target_bitrate
from ..video.scene import Scene, SceneFact
from .qp_map import PAPER_GAMMA, QpMapConfig, correlation_to_qp


#: QP of the context-agnostic baseline when no bitrate target is given.
BASELINE_QP = 35.0
#: Rate-control tolerance and trial budget when a target bitrate is requested.
RATE_TOLERANCE = 0.05
RATE_ITERATIONS = 10


@dataclass
class StreamingConfig:
    """Configuration of the context-aware streamer."""

    patch_size: int = 32
    gamma: float = PAPER_GAMMA

    def qp_config(self) -> QpMapConfig:
        return QpMapConfig(gamma=self.gamma)


@dataclass
class EncodeOutcome:
    """Everything produced when one frame is encoded for the current context."""

    encoded: EncodedFrame
    decoded: np.ndarray
    qp_map: np.ndarray
    correlation: Optional[CorrelationMap]
    rate_control: Optional[RateControlResult]
    client_compute_ms: float

    @property
    def size_bytes(self) -> int:
        return self.encoded.size_bytes

    def bitrate_bps(self, fps: float) -> float:
        return self.encoded.bitrate_bps(fps)


class ContextAwareStreamer:
    """Implements Equations (1) and (2): user words → QP map → encoded frame."""

    def __init__(self, config: Optional[StreamingConfig] = None) -> None:
        self.config = config or StreamingConfig()
        self.clip = MobileClip(config=ClipConfig(patch_size=self.config.patch_size))
        self.codec = BlockCodec()

    # -- Equation (1): correlation --------------------------------------------

    def correlation_for(
        self,
        scene: Scene,
        user_words: str,
        frame: Optional[Union[VideoFrame, np.ndarray]] = None,
        extra_concepts: Sequence[str] = (),
        time_s: float = 0.0,
    ) -> CorrelationMap:
        """Semantic correlation of every patch against the current user words."""
        pixels = frame.pixels if isinstance(frame, VideoFrame) else frame
        return self.clip.correlation_map(
            scene,
            user_words,
            frame_pixels=pixels,
            original_pixels=pixels,
            extra_concepts=extra_concepts,
            time_s=time_s,
        )

    # -- Equation (2): QP map -----------------------------------------------

    def qp_map_for(
        self, correlation: CorrelationMap, frame_shape: tuple[int, int]
    ) -> np.ndarray:
        """Per-codec-block QP map derived from a correlation map."""
        block_grid = correlation.to_block_grid(self.codec.config.block_size, frame_shape)
        # Stretch the map to the full [-1, 1] range before Equation (2).  The
        # concept-embedding CLIP substitute produces similarities in a
        # narrower, higher band than real CLIP, so without the stretch
        # Equation (2) would under-penalise irrelevant regions; the stretch
        # restores the paper's "almost exclusively important regions"
        # allocation (documented as a substitution detail in DESIGN.md).
        low, high = float(block_grid.min()), float(block_grid.max())
        if high - low > 1e-9:
            block_grid = 2.0 * (block_grid - low) / (high - low) - 1.0
        return np.asarray(
            correlation_to_qp(block_grid, self.config.qp_config()), dtype=float
        )

    # -- encoding -------------------------------------------------------------

    def encode_frame(
        self,
        scene: Scene,
        frame: Union[VideoFrame, np.ndarray],
        user_words: str,
        target_bitrate_bps: Optional[float] = None,
        fps: float = 2.0,
        extra_concepts: Sequence[str] = (),
        frame_id: int = 0,
        timestamp: float = 0.0,
    ) -> EncodeOutcome:
        """Encode one frame with context-aware bit allocation.

        Without a target bitrate the QP map from Equation (2) is used as-is;
        with a target bitrate the same trial-and-error offset search as the
        baseline is applied on top of the map so matched-bitrate comparisons
        (Figure 9/10) are apples-to-apples.
        """
        pixels = frame.pixels if isinstance(frame, VideoFrame) else np.asarray(frame, dtype=float)
        timestamp = frame.timestamp if isinstance(frame, VideoFrame) else timestamp
        frame_id = frame.frame_id if isinstance(frame, VideoFrame) else frame_id

        correlation = self.correlation_for(
            scene, user_words, pixels, extra_concepts=extra_concepts, time_s=timestamp
        )
        qp_map = self.qp_map_for(correlation, pixels.shape)
        return _encode_outcome(
            self.codec, pixels, qp_map, target_bitrate_bps, fps, frame_id, timestamp, correlation
        )

    # -- helpers for ABR integration ------------------------------------------

    def accuracy_predictor(
        self,
        scene: Scene,
        frame: Union[VideoFrame, np.ndarray],
        fact: SceneFact,
        fps: float = 2.0,
        required_quality_fn=None,
    ):
        """Build a bitrate→predicted-accuracy callable for :class:`AiOrientedAbr`.

        The prediction encodes the frame at the candidate bitrate with the
        context-aware QP map and checks whether the fact's region would still
        be readable; it returns 1.0 or the multiple-choice guess floor 0.25.
        """
        from ..video.quality import region_quality  # local import to avoid cycles

        pixels = frame.pixels if isinstance(frame, VideoFrame) else np.asarray(frame, dtype=float)
        required = (
            required_quality_fn(fact.detail_scale)
            if required_quality_fn is not None
            else 0.30 + 0.60 * fact.detail_scale
        )
        obj = scene.object_by_name(fact.object_name)
        region = obj.pixel_region(pixels.shape[0], pixels.shape[1])

        def predict(bitrate_bps: float) -> float:
            outcome = self.encode_frame(
                scene, pixels, fact.question, target_bitrate_bps=bitrate_bps, fps=fps
            )
            report = region_quality(pixels, outcome.decoded, region)
            return 1.0 if report.readable_score >= required else 0.25

        return predict


class UniformStreamer:
    """The context-agnostic baseline: the same codec with a single QP everywhere."""

    def __init__(self) -> None:
        self.codec = BlockCodec()

    def encode_frame(
        self,
        frame: Union[VideoFrame, np.ndarray],
        target_bitrate_bps: Optional[float] = None,
        fps: float = 2.0,
        qp: Optional[float] = None,
        frame_id: int = 0,
        timestamp: float = 0.0,
    ) -> EncodeOutcome:
        """Encode one frame with a uniform QP (optionally rate-controlled)."""
        pixels = frame.pixels if isinstance(frame, VideoFrame) else np.asarray(frame, dtype=float)
        timestamp = frame.timestamp if isinstance(frame, VideoFrame) else timestamp
        frame_id = frame.frame_id if isinstance(frame, VideoFrame) else frame_id
        base_qp = BASELINE_QP if qp is None else float(qp)
        return _encode_outcome(
            self.codec, pixels, base_qp, target_bitrate_bps, fps, frame_id, timestamp, None
        )


def _encode_outcome(
    codec: BlockCodec,
    pixels: np.ndarray,
    qp_map: Union[float, np.ndarray],
    target_bitrate_bps: Optional[float],
    fps: float,
    frame_id: int,
    timestamp: float,
    correlation: Optional[CorrelationMap],
) -> EncodeOutcome:
    """Encode at ``qp_map`` (or rate-control around it to a target), then decode."""
    rate_result: Optional[RateControlResult] = None
    if target_bitrate_bps is None:
        encoded = codec.encode(pixels, qp_map, frame_id=frame_id, timestamp=timestamp)
    else:
        rate_result = encode_at_target_bitrate(
            codec,
            pixels,
            target_bitrate_bps,
            fps=fps,
            base_qp_map=qp_map,
            tolerance=RATE_TOLERANCE,
            max_iterations=RATE_ITERATIONS,
            frame_id=frame_id,
            timestamp=timestamp,
        )
        encoded = rate_result.encoded
    return EncodeOutcome(
        encoded=encoded,
        decoded=codec.decode(encoded),
        qp_map=encoded.qp_map,
        correlation=correlation,
        rate_control=rate_result,
        client_compute_ms=0.0 if correlation is None else correlation.compute_latency_ms,
    )
