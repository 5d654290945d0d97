"""Transcoding high-bitrate video down to low-bitrate versions.

DeViBench's preprocessing step (Section 3.1) transcodes every source video
to a 200 Kbps rendition so the QA-generation MLLM can see the original and
the degraded version side by side.  This module provides that step on top
of the block codec and the rate controller, plus the side-by-side
concatenation used by the generation prompt.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from .codec import BlockCodec
from .frames import ArrayVideoSource, VideoSource
from .quality import psnr
from .rate_control import RateControlResult, achieved_bitrate_bps, encode_sequence_at_target_bitrate


@dataclass
class TranscodeResult:
    """A transcoded rendition of a video source."""

    frames: list[np.ndarray]
    rate_control: list[RateControlResult]
    target_bitrate_bps: float
    achieved_bitrate_bps: float
    fps: float
    mean_psnr_db: float = float("nan")

    def to_source(self) -> ArrayVideoSource:
        return ArrayVideoSource(self.frames, fps=self.fps)


def transcode_to_bitrate(
    source: VideoSource,
    target_bitrate_bps: float,
    codec: Optional[BlockCodec] = None,
    max_frames: Optional[int] = None,
    frame_stride: int = 1,
    tolerance: float = 0.08,
    rate_fps: Optional[float] = None,
) -> TranscodeResult:
    """Re-encode a source at a target bitrate and return decoded frames.

    ``frame_stride`` lets callers subsample the source (DeViBench only needs
    the frames the MLLM will actually look at).  The per-frame bit budget is
    ``target_bitrate / rate_fps``; ``rate_fps`` defaults to the *source*
    frame rate because that is how the paper's 200 Kbps renditions are
    produced — the full-rate video is transcoded and only then sampled, so a
    200 Kbps budget is spread over every source frame, not just the sampled
    ones.
    """
    if frame_stride < 1:
        raise ValueError("frame_stride must be >= 1")
    codec = codec or BlockCodec()
    indices = range(0, source.frame_count(), frame_stride)
    if max_frames is not None:
        indices = list(indices)[:max_frames]
    originals = [source.frame_at(index).pixels for index in indices]
    if not originals:
        raise ValueError("source produced no frames to transcode")
    effective_fps = float(rate_fps) if rate_fps is not None else source.fps
    if effective_fps <= 0:
        raise ValueError("rate_fps must be positive")

    results = encode_sequence_at_target_bitrate(
        codec,
        originals,
        target_bitrate_bps=target_bitrate_bps,
        fps=effective_fps,
        tolerance=tolerance,
    )
    decoded = [codec.decode(result.encoded) for result in results]
    achieved = achieved_bitrate_bps(results, effective_fps)
    return TranscodeResult(
        frames=decoded,
        rate_control=results,
        target_bitrate_bps=target_bitrate_bps,
        achieved_bitrate_bps=achieved,
        fps=effective_fps,
        mean_psnr_db=float(np.mean([psnr(orig, dec) for orig, dec in zip(originals, decoded)])),
    )
