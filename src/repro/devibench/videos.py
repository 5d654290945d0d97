"""DeViBench step 1 & 2: video collection and preprocessing.

The paper collects the videos of existing streaming-video benchmarks
(discarding their QA) and transcodes each one to a 200 Kbps rendition with
x265; the original and the low-bitrate version are then concatenated side by
side for the QA-generation model.  Our collection is the synthetic scene
corpus, and preprocessing rate-controls each video's sampled frames with the
block codec.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

from ..mllm.model import region_scores
from ..video.codec import BlockCodec
from ..video.frames import VideoFrame
from ..video.rate_control import achieved_bitrate_bps, encode_sequence_at_target_bitrate
from ..video.scene import Scene, build_scene_corpus

#: Bitrate of the degraded rendition used throughout Section 3.1.
DEFAULT_LOW_BITRATE_BPS = 200_000.0
#: Frame rate at which the QA-generation, filtering and evaluation MLLMs look
#: at the video.  It is also the rate that turns a bitrate into a per-frame
#: bit budget: our codec is intra-only and only these sampled frames are
#: encoded, so bitrates are accounted over them; the paper's inter-predicted
#: full-rate stream at the same kbps delivers roughly the same budget per
#: sampled frame.
SAMPLING_FPS = 2.0
#: Frames sampled from each video for evaluation (and by default for the build).
FRAMES_PER_VIDEO = 3


def sampled_frames(scene: Scene, count: int) -> list[VideoFrame]:
    """The first ``count`` frames of ``scene`` taken at :data:`SAMPLING_FPS`."""
    source = scene.to_source()
    stride = max(1, int(round(scene.fps / SAMPLING_FPS)))
    return [source.frame_at(index) for index in range(0, source.frame_count(), stride)[:count]]


@dataclass
class PreparedVideo:
    """One corpus entry: the scene, its original frames and the low-bitrate frames."""

    scene: Scene
    original_frames: list[VideoFrame]
    degraded_frames: list[VideoFrame]
    low_bitrate_bps: float
    achieved_bitrate_bps: float
    #: (object name, degraded) -> per-frame region scores, filled on first use.
    _scores: dict[tuple[str, bool], list[float]] = field(
        default_factory=dict, init=False, repr=False, compare=False
    )

    @property
    def frame_count(self) -> int:
        return len(self.original_frames)

    def region_scores(self, object_name: str, degraded: bool) -> list[float]:
        """:func:`~repro.mllm.model.region_scores` of one object on one rendition.

        Filtering, verification and the coarse-QA measurement ask about the
        same few objects on the same frames, so each is scored once per video.
        """
        key = (object_name, degraded)
        if key not in self._scores:
            frames = self.degraded_frames if degraded else self.original_frames
            obj = self.scene.object_by_name(object_name)
            self._scores[key] = region_scores(obj, frames, self.original_frames)
        return self._scores[key]


class VideoCollection:
    """Builds and preprocesses the DeViBench video corpus."""

    def __init__(
        self,
        scenes: Optional[Sequence[Scene]] = None,
        low_bitrate_bps: float = DEFAULT_LOW_BITRATE_BPS,
        frames_per_video: int = FRAMES_PER_VIDEO,
    ) -> None:
        if low_bitrate_bps <= 0:
            raise ValueError("low_bitrate_bps must be positive")
        if frames_per_video < 1:
            raise ValueError("frames_per_video must be >= 1")
        self.scenes = list(scenes) if scenes is not None else []
        self.low_bitrate_bps = float(low_bitrate_bps)
        self.frames_per_video = int(frames_per_video)
        self.codec = BlockCodec()

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

    def prepare(self, scene: Scene) -> PreparedVideo:
        """Preprocessing step for one scene: sample frames, rate-control them to the low bitrate."""
        originals = sampled_frames(scene, self.frames_per_video)
        results = encode_sequence_at_target_bitrate(
            self.codec,
            [frame.pixels for frame in originals],
            self.low_bitrate_bps,
            fps=SAMPLING_FPS,
            tolerance=0.08,
        )
        degraded = [
            VideoFrame(
                frame_id=orig.frame_id,
                timestamp=orig.timestamp,
                pixels=self.codec.decode(result.encoded),
            )
            for orig, result in zip(originals, results)
        ]
        return PreparedVideo(
            scene=scene,
            original_frames=originals,
            degraded_frames=degraded,
            low_bitrate_bps=self.low_bitrate_bps,
            achieved_bitrate_bps=achieved_bitrate_bps(results, SAMPLING_FPS),
        )

    def prepare_all(self) -> list[PreparedVideo]:
        """Preprocess the whole corpus."""
        if not self.scenes:
            raise ValueError("the collection holds no scenes; use synthetic() or pass scenes")
        return [self.prepare(scene) for scene in self.scenes]

    @property
    def total_duration_s(self) -> float:
        return sum(scene.duration_s for scene in self.scenes)
