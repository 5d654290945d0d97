"""DeViBench step 1 & 2: video collection and preprocessing.

The paper collects the videos of existing streaming-video benchmarks
(discarding their QA) and transcodes each one to a 200 Kbps rendition with
x265; the original and the low-bitrate version are then concatenated side by
side for the QA-generation model.  Our collection is the synthetic scene
corpus, and preprocessing runs the block-codec transcoder.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Sequence

from ..video.codec import BlockCodec
from ..video.frames import VideoFrame
from ..video.scene import Scene, build_scene_corpus
from ..video.transcode import TranscodeResult, transcode_to_bitrate

#: Bitrate of the degraded rendition used throughout Section 3.1.
DEFAULT_LOW_BITRATE_BPS = 200_000.0
#: Frame rate at which the QA-generation / filtering MLLMs look at the video.
DEFAULT_SAMPLING_FPS = 2.0


@dataclass
class PreparedVideo:
    """One corpus entry: the scene, its original frames and the low-bitrate frames."""

    scene: Scene
    original_frames: list[VideoFrame]
    degraded_frames: list[VideoFrame]
    low_bitrate_bps: float
    achieved_bitrate_bps: float

    @property
    def frame_count(self) -> int:
        return len(self.original_frames)


class VideoCollection:
    """Builds and preprocesses the DeViBench video corpus."""

    def __init__(
        self,
        scenes: Optional[Sequence[Scene]] = None,
        low_bitrate_bps: float = DEFAULT_LOW_BITRATE_BPS,
        sampling_fps: float = DEFAULT_SAMPLING_FPS,
        frames_per_video: int = 3,
        codec: Optional[BlockCodec] = None,
        rate_fps: Optional[float] = None,
    ) -> None:
        if low_bitrate_bps <= 0:
            raise ValueError("low_bitrate_bps must be positive")
        if frames_per_video < 1:
            raise ValueError("frames_per_video must be >= 1")
        self.scenes = list(scenes) if scenes is not None else []
        self.low_bitrate_bps = float(low_bitrate_bps)
        self.sampling_fps = float(sampling_fps)
        self.frames_per_video = int(frames_per_video)
        self.codec = codec or BlockCodec()
        #: Frame rate used to convert the bitrate into a per-frame bit budget.
        #: Our codec is intra-only and only the MLLM-rate frames are encoded,
        #: so bitrates are accounted over those frames (≈2 FPS); the paper's
        #: inter-predicted full-rate stream at the same kbps delivers roughly
        #: the same budget per sampled frame.
        self.rate_fps = float(rate_fps) if rate_fps is not None else self.sampling_fps

    @classmethod
    def synthetic(
        cls,
        video_count: int,
        seed: int = 0,
        height: int = 360,
        width: int = 640,
        **kwargs,
    ) -> "VideoCollection":
        """Build a synthetic corpus of the requested size (collection step)."""
        scenes = build_scene_corpus(video_count, seed=seed, height=height, width=width)
        return cls(scenes=scenes, **kwargs)

    def _select_frames(self, scene: Scene) -> list[VideoFrame]:
        source = scene.to_source()
        stride = max(1, int(round(scene.fps / self.sampling_fps)))
        indices = list(range(0, source.frame_count(), stride))[: self.frames_per_video]
        return [source.frame_at(index) for index in indices]

    def prepare(self, scene: Scene) -> PreparedVideo:
        """Preprocessing step for one scene: select frames and transcode to 200 Kbps."""
        originals = self._select_frames(scene)
        transcoded: TranscodeResult = transcode_to_bitrate(
            scene.to_source(),
            self.low_bitrate_bps,
            codec=self.codec,
            max_frames=self.frames_per_video,
            frame_stride=max(1, int(round(scene.fps / self.sampling_fps))),
            rate_fps=self.rate_fps,
        )
        degraded = [
            VideoFrame(frame_id=orig.frame_id, timestamp=orig.timestamp, pixels=pixels)
            for orig, pixels in zip(originals, transcoded.frames)
        ]
        return PreparedVideo(
            scene=scene,
            original_frames=originals,
            degraded_frames=degraded,
            low_bitrate_bps=self.low_bitrate_bps,
            achieved_bitrate_bps=transcoded.achieved_bitrate_bps,
        )

    def prepare_all(self) -> list[PreparedVideo]:
        """Preprocess the whole corpus."""
        if not self.scenes:
            raise ValueError("the collection holds no scenes; use synthetic() or pass scenes")
        return [self.prepare(scene) for scene in self.scenes]

    @property
    def total_duration_s(self) -> float:
        return sum(scene.duration_s for scene in self.scenes)
