"""Video frames and their spatial downsampling.

Frames are single-channel (luma) numpy arrays with values in [0, 255].  The
paper's pipeline operates on full RGB video, but every quantity the
experiments measure — per-region rate/distortion, bitrate, regional quality,
MLLM-visible detail — is carried by the luma plane, and a single channel
keeps the pure-Python codec fast enough for exhaustive testing.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np


@dataclass
class VideoFrame:
    """One captured video frame."""

    frame_id: int
    timestamp: float
    pixels: np.ndarray
    metadata: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        pixels = np.asarray(self.pixels, dtype=np.float64)
        if pixels.ndim != 2:
            raise ValueError(f"pixels must be a 2-D luma array, got shape {pixels.shape}")
        self.pixels = pixels

    @property
    def height(self) -> int:
        return int(self.pixels.shape[0])

    @property
    def width(self) -> int:
        return int(self.pixels.shape[1])

    @property
    def resolution(self) -> tuple[int, int]:
        return (self.height, self.width)

    @property
    def pixel_count(self) -> int:
        return self.height * self.width

    def copy(self) -> "VideoFrame":
        return VideoFrame(
            frame_id=self.frame_id,
            timestamp=self.timestamp,
            pixels=self.pixels.copy(),
            metadata=dict(self.metadata),
        )


def downsample_frame(frame: VideoFrame, max_pixels: int) -> VideoFrame:
    """Spatially downsample a frame so its pixel count is at most ``max_pixels``.

    Used by the MLLM ingestion path (Section 2.1): regardless of the source
    resolution, the model sees no more than ~602,112 pixels per frame.
    Downsampling is done by integer block averaging to stay dependency-free.
    """
    if max_pixels <= 0:
        raise ValueError("max_pixels must be positive")
    if frame.pixel_count <= max_pixels:
        return frame
    factor = int(np.ceil(np.sqrt(frame.pixel_count / max_pixels)))
    height = frame.height - frame.height % factor
    width = frame.width - frame.width % factor
    trimmed = frame.pixels[:height, :width]
    reduced = trimmed.reshape(height // factor, factor, width // factor, factor).mean(axis=(1, 3))
    return VideoFrame(
        frame_id=frame.frame_id,
        timestamp=frame.timestamp,
        pixels=reduced,
        metadata={**frame.metadata, "downsampled_by": factor},
    )
