"""Receiver-side downsampling of the incoming video before MLLM ingestion.

Section 2.1 of the paper: the MLLM cannot consume the full sender stream —
existing systems process at most 2 frames per second, and every frame is
resized so it contains no more than 602,112 pixels (the Qwen2.5-Omni limit).
The gap between what the sender transmits and what the model perceives is
the redundancy plotted in Figure 2.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np

from ..video.frames import VideoFrame, downsample_frame

#: Maximum pixels per frame after downsampling (Qwen2.5-Omni, Section 2.1).
DEFAULT_MAX_PIXELS = 602_112
#: Maximum frame rate existing AI video chat systems process (Section 2.1).
DEFAULT_MAX_FPS = 2.0
#: Vision-tower patch size used to convert pixels to visual tokens.
VISION_PATCH_PIXELS = 28 * 28


@dataclass
class SamplingReport:
    """Accounting of how much of the sender's stream the MLLM actually sees."""

    input_frames: int
    selected_frames: int
    input_pixels: int
    perceived_pixels: int

    @property
    def frame_redundancy(self) -> float:
        """Fraction of transmitted frames the MLLM never looks at (Figure 2)."""
        if self.input_frames == 0:
            return 0.0
        return 1.0 - self.selected_frames / self.input_frames

    @property
    def pixel_redundancy(self) -> float:
        """Fraction of transmitted pixels the MLLM never perceives."""
        if self.input_pixels == 0:
            return 0.0
        return 1.0 - self.perceived_pixels / self.input_pixels


class ReceiverSampler:
    """Selects and resizes frames the way the MLLM ingestion path does.

    Frame selection is based on the *capture timestamp* (positional encoding),
    not on arrival time — which is exactly why network jitter does not change
    what the model sees (Section 2.1).
    """

    def select_frames(self, frames: Sequence[VideoFrame]) -> list[VideoFrame]:
        """Pick at most :data:`DEFAULT_MAX_FPS` frames per second of capture time."""
        if not frames:
            return []
        ordered = sorted(frames, key=lambda frame: (frame.timestamp, frame.frame_id))
        interval = 1.0 / DEFAULT_MAX_FPS
        selected: list[VideoFrame] = []
        next_slot = ordered[0].timestamp
        for frame in ordered:
            if frame.timestamp + 1e-9 >= next_slot:
                selected.append(frame)
                next_slot = frame.timestamp + interval
        return selected

    def prepare_frame(self, frame: VideoFrame) -> VideoFrame:
        """Resize one frame to the per-frame pixel cap."""
        return downsample_frame(frame, DEFAULT_MAX_PIXELS)

    def prepare(self, frames: Sequence[VideoFrame]) -> tuple[list[VideoFrame], SamplingReport]:
        """Select and resize frames; report the induced redundancy."""
        selected = self.select_frames(frames)
        prepared = [self.prepare_frame(frame) for frame in selected]
        report = SamplingReport(
            input_frames=len(frames),
            selected_frames=len(prepared),
            input_pixels=sum(frame.pixel_count for frame in frames),
            perceived_pixels=sum(frame.pixel_count for frame in prepared),
        )
        return prepared, report

    def visual_token_count(self, frame: VideoFrame) -> int:
        """Number of visual tokens one prepared frame contributes."""
        prepared = self.prepare_frame(frame)
        return max(1, int(np.ceil(prepared.pixel_count / VISION_PATCH_PIXELS)))


def perceived_throughput_bps(
    report: SamplingReport, duration_s: float, bits_per_pixel: float = 8.0
) -> float:
    """Effective pixel throughput the MLLM perceives (receiver side of Figure 2)."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    return report.perceived_pixels * bits_per_pixel / duration_s


def sender_throughput_bps(
    report: SamplingReport, duration_s: float, bits_per_pixel: float = 8.0
) -> float:
    """Raw pixel throughput the sender captured (sender side of Figure 2)."""
    if duration_s <= 0:
        raise ValueError("duration_s must be positive")
    return report.input_pixels * bits_per_pixel / duration_s
