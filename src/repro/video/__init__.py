"""Video substrate: frames, synthetic scenes, block codec, rate control.

This subpackage supplies everything the paper's experiments need from a
video pipeline: frames, a synthetic scene generator with semantic ground
truth (standing in for the real video corpus), a block-DCT codec with
per-block QP control (standing in for Kvazaar/x265), trial-and-error rate
control, and quality metrics.
"""

from .codec import (
    MAX_QP,
    MIN_QP,
    BlockCodec,
    CodecConfig,
    EncodedFrame,
    TransformedFrame,
)
from .frames import (
    VideoFrame,
    downsample_frame,
)
from .quality import (
    RegionQualityReport,
    high_frequency_retention,
    mse,
    psnr,
    region_quality,
)
from .rate_control import (
    RateControlResult,
    achieved_bitrate_bps,
    encode_at_target_bitrate,
    encode_sequence_at_target_bitrate,
)
from .scene import (
    CATEGORIES,
    CATEGORY_ACTION,
    CATEGORY_ATTRIBUTE,
    CATEGORY_COUNTING,
    CATEGORY_OBJECT,
    CATEGORY_SPATIAL,
    CATEGORY_TEXT_RICH,
    PAPER_CATEGORY_DISTRIBUTION,
    PAPER_MULTI_FRAME_FRACTION,
    SCENE_BUILDERS,
    Scene,
    SceneFact,
    SceneObject,
    SceneVideoSource,
    build_scene_corpus,
    make_kitchen_scene,
    make_lecture_scene,
    make_park_scene,
    make_sports_scene,
    make_street_scene,
)

__all__ = [
    "BlockCodec",
    "CATEGORIES",
    "CATEGORY_ACTION",
    "CATEGORY_ATTRIBUTE",
    "CATEGORY_COUNTING",
    "CATEGORY_OBJECT",
    "CATEGORY_SPATIAL",
    "CATEGORY_TEXT_RICH",
    "CodecConfig",
    "EncodedFrame",
    "MAX_QP",
    "MIN_QP",
    "PAPER_CATEGORY_DISTRIBUTION",
    "PAPER_MULTI_FRAME_FRACTION",
    "RateControlResult",
    "RegionQualityReport",
    "SCENE_BUILDERS",
    "Scene",
    "SceneFact",
    "SceneObject",
    "SceneVideoSource",
    "TransformedFrame",
    "VideoFrame",
    "achieved_bitrate_bps",
    "build_scene_corpus",
    "downsample_frame",
    "encode_at_target_bitrate",
    "encode_sequence_at_target_bitrate",
    "high_frequency_retention",
    "make_kitchen_scene",
    "make_lecture_scene",
    "make_park_scene",
    "make_sports_scene",
    "make_street_scene",
    "mse",
    "psnr",
    "region_quality",
]
