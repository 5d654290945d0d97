"""MobileClip's vectorised patch grid against the per-patch reference encoder.

``ReferencePatchEncoder`` is the per-patch loop the correlation map used to
run: it encodes one patch at a time, looping over the scene objects and
recomputing each object's pixel region per patch.  It is the oracle here;
``MobileClip.correlation_map`` must reproduce its values bit for bit over
sampled scenes, queries, patch sizes, background weights and times.
"""

from __future__ import annotations

import itertools
from typing import Optional, Sequence

import numpy as np
import pytest

from repro.mllm import ConceptSpace, MobileClip, cosine_similarity
from repro.mllm.clip import ClipConfig
from repro.video import SCENE_BUILDERS, BlockCodec, high_frequency_retention
from repro.video.scene import Scene

HEIGHT, WIDTH = 240, 432
PATCH_SIZES = (16, 32, 48)  # 48 leaves ragged edge patches at 240x432
BACKGROUND_WEIGHTS = (0.0, 0.15)
TIMES_S = (0.0, 1.0)  # moving objects shift between the two
CONFIGS = tuple(itertools.product(PATCH_SIZES, BACKGROUND_WEIGHTS, TIMES_S))
EXTRA_CONCEPTS = ("text", "person")


class ReferencePatchEncoder:
    """Encodes one patch from the objects overlapping it and its visible detail."""

    def __init__(self, space: ConceptSpace, config: ClipConfig) -> None:
        self.space = space
        self.config = config

    @staticmethod
    def _overlap_fraction(
        patch_box: tuple[int, int, int, int], object_box: tuple[int, int, int, int]
    ) -> float:
        pr0, pr1, pc0, pc1 = patch_box
        orow0, orow1, ocol0, ocol1 = object_box
        rows = max(0, min(pr1, orow1) - max(pr0, orow0))
        cols = max(0, min(pc1, ocol1) - max(pc0, ocol0))
        patch_area = max(1, (pr1 - pr0) * (pc1 - pc0))
        return rows * cols / patch_area

    def encode_patch(
        self,
        scene: Scene,
        patch_box: tuple[int, int, int, int],
        decoded_patch: Optional[np.ndarray] = None,
        original_patch: Optional[np.ndarray] = None,
        time_s: float = 0.0,
    ) -> np.ndarray:
        concepts: list[str] = ["background"]
        weights: list[float] = [self.config.background_weight]

        visibility = 1.0
        if decoded_patch is not None and original_patch is not None and original_patch.size > 0:
            visibility = high_frequency_retention(original_patch, decoded_patch)

        for obj in scene.objects:
            object_box = obj.pixel_region(scene.height, scene.width, time_s)
            overlap = self._overlap_fraction(patch_box, object_box)
            if overlap <= 0.0:
                continue
            detail_penalty = 1.0
            if visibility < 1.0:
                effective = max(visibility, self.config.visibility_floor)
                detail_penalty = effective ** (0.5 + 2.0 * obj.detail_scale)
            weight = overlap * detail_penalty
            for concept in obj.concepts:
                concepts.append(concept)
                weights.append(weight)
        return self.space.encode_concepts(concepts, weights)


def reference_correlation(
    clip: MobileClip,
    scene: Scene,
    user_words: str,
    frame_pixels: Optional[np.ndarray] = None,
    original_pixels: Optional[np.ndarray] = None,
    extra_concepts: Sequence[str] = (),
    time_s: float = 0.0,
) -> np.ndarray:
    """The correlation values of Equation (1), one patch at a time."""
    encoder = ReferencePatchEncoder(clip.space, clip.config)
    patch = clip.config.patch_size
    height, width = scene.height, scene.width
    patches_y = int(np.ceil(height / patch))
    patches_x = int(np.ceil(width / patch))
    text_feature = clip.text_encoder.encode(user_words, extra_concepts)
    values = np.zeros((patches_y, patches_x))
    for row in range(patches_y):
        for col in range(patches_x):
            row0, row1 = row * patch, min((row + 1) * patch, height)
            col0, col1 = col * patch, min((col + 1) * patch, width)
            decoded_patch = None if frame_pixels is None else frame_pixels[row0:row1, col0:col1]
            original_patch = (
                None if original_pixels is None else original_pixels[row0:row1, col0:col1]
            )
            feature = encoder.encode_patch(
                scene, (row0, row1, col0, col1), decoded_patch, original_patch, time_s
            )
            values[row, col] = cosine_similarity(feature, text_feature)
    return values


@pytest.fixture(scope="module")
def scenes() -> dict[str, Scene]:
    return {kind: build(seed=7, height=HEIGHT, width=WIDTH) for kind, build in SCENE_BUILDERS.items()}


def _queries(scene: Scene) -> list[tuple[str, tuple[str, ...]]]:
    """Every fact question, an empty query and one call with extra concepts."""
    queries = [(fact.question, ()) for fact in scene.facts]
    queries.append(("", ()))
    queries.append((scene.facts[0].question, EXTRA_CONCEPTS))
    return queries


def _clip(patch_size: int, background_weight: float) -> MobileClip:
    return MobileClip(config=ClipConfig(patch_size=patch_size, background_weight=background_weight))


@pytest.mark.parametrize("kind", sorted(SCENE_BUILDERS))
class TestCorrelationMapMatchesOracle:
    def test_without_pixels(self, scenes, kind):
        # Consecutive queries take consecutive configurations, from an
        # offset per scene: each scene meets 7-9 of the 12 configurations
        # (both times included), and the five scenes together meet all.
        scene = scenes[kind]
        offset = 7 * sorted(SCENE_BUILDERS).index(kind)
        for index, (words, extra) in enumerate(_queries(scene)):
            patch_size, background_weight, time_s = CONFIGS[(offset + index) % len(CONFIGS)]
            clip = _clip(patch_size, background_weight)
            fast = clip.correlation_map(scene, words, extra_concepts=extra, time_s=time_s)
            expected = reference_correlation(clip, scene, words, extra_concepts=extra, time_s=time_s)
            assert np.array_equal(fast.values, expected), (words, patch_size, background_weight, time_s)

    @pytest.mark.parametrize("patch_size", PATCH_SIZES)
    def test_blurred_pixels(self, scenes, kind, patch_size):
        scene = scenes[kind]
        frame = scene.render(0)
        _, blurred = BlockCodec().roundtrip(frame, qp=50)
        clip = _clip(patch_size, 0.15)
        words = scene.facts[0].question
        fast = clip.correlation_map(scene, words, blurred, frame)
        expected = reference_correlation(clip, scene, words, blurred, frame)
        assert np.array_equal(fast.values, expected)
        # The blur really reached the detail penalty.
        assert not np.array_equal(fast.values, clip.correlation_map(scene, words).values)


@pytest.mark.parametrize("config_index", range(len(CONFIGS)))
def test_identical_pixels_match_oracle(scenes, config_index):
    # Both pixel arrays given and equal: the oracle computes every patch's
    # detail retention (exactly 1.0); the grid skips it.  The scenes take
    # turns so each one meets several configurations.
    patch_size, background_weight, time_s = CONFIGS[config_index]
    scene = scenes[sorted(SCENE_BUILDERS)[config_index % len(SCENE_BUILDERS)]]
    frame = scene.render(int(round(time_s * scene.fps)))
    clip = _clip(patch_size, background_weight)
    words, extra = _queries(scene)[-1]
    fast = clip.correlation_map(scene, words, frame, frame.copy(), extra, time_s)
    expected = reference_correlation(clip, scene, words, frame, frame.copy(), extra, time_s)
    assert np.array_equal(fast.values, expected)


@pytest.mark.parametrize("words_index", [0, -2], ids=["fact-question", "empty-query"])
def test_zero_feature_patches_match_oracle(scenes, words_index):
    # With no background component, a patch that no object overlaps has the
    # zero feature, and its correlation is 0.  The empty query also makes the
    # text feature zero, so every patch scores 0.
    scene = scenes["park"]
    clip = _clip(16, 0.0)
    words, extra = _queries(scene)[words_index]
    height, width = scene.height, scene.width
    covered = np.zeros((height // 16, width // 16), dtype=bool)
    for obj in scene.objects:
        row0, row1, col0, col1 = obj.pixel_region(height, width, 0.0)
        covered[row0 // 16 : -(-row1 // 16), col0 // 16 : -(-col1 // 16)] = True
    assert not covered.all(), "the scene leaves no patch empty"
    fast = clip.correlation_map(scene, words, extra_concepts=extra)
    expected = reference_correlation(clip, scene, words, extra_concepts=extra)
    assert np.array_equal(fast.values, expected)
    assert (fast.values[~covered] == 0.0).all()
    if words:
        assert (fast.values[covered] != 0.0).any()
