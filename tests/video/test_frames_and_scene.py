"""Tests for frame abstractions and synthetic scenes."""

from dataclasses import replace

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.video import (
    SCENE_BUILDERS,
    Scene,
    SceneFact,
    SceneObject,
    VideoFrame,
    build_scene_corpus,
    downsample_frame,
    make_park_scene,
    make_sports_scene,
)
from repro.video.scene import CATEGORIES, CATEGORY_TEXT_RICH


class TestVideoFrame:
    def test_basic_properties(self):
        frame = VideoFrame(0, 0.0, np.zeros((120, 160)))
        assert frame.height == 120
        assert frame.width == 160
        assert frame.resolution == (120, 160)
        assert frame.pixel_count == 120 * 160

    def test_rejects_non_2d(self):
        with pytest.raises(ValueError):
            VideoFrame(0, 0.0, np.zeros((120, 160, 3)))

    def test_copy_is_independent(self):
        frame = VideoFrame(0, 0.0, np.zeros((10, 10)))
        clone = frame.copy()
        clone.pixels[0, 0] = 99
        assert frame.pixels[0, 0] == 0


class TestDownsampling:
    def test_no_change_when_under_limit(self):
        frame = VideoFrame(0, 0.0, np.zeros((50, 50)))
        assert downsample_frame(frame, max_pixels=10_000) is frame

    def test_downsamples_to_under_limit(self):
        frame = VideoFrame(0, 0.0, np.random.default_rng(0).uniform(0, 255, (400, 600)))
        reduced = downsample_frame(frame, max_pixels=60_000)
        assert reduced.pixel_count <= 60_000
        assert reduced.metadata["downsampled_by"] >= 2

    def test_preserves_mean_brightness(self):
        pixels = np.random.default_rng(1).uniform(0, 255, (300, 300))
        frame = VideoFrame(0, 0.0, pixels)
        reduced = downsample_frame(frame, max_pixels=10_000)
        assert reduced.pixels.mean() == pytest.approx(pixels.mean(), abs=2.0)

    def test_invalid_max_pixels(self):
        with pytest.raises(ValueError):
            downsample_frame(VideoFrame(0, 0.0, np.zeros((4, 4))), 0)


class TestSceneObject:
    def test_bbox_validation(self):
        with pytest.raises(ValueError):
            SceneObject("bad", ("x",), bbox=(0.9, 0.9, 0.5, 0.5))
        with pytest.raises(ValueError):
            SceneObject("bad", ("x",), bbox=(0.1, 0.1, 0.0, 0.2))

    def test_pixel_region_within_frame(self):
        obj = SceneObject("thing", ("x",), bbox=(0.5, 0.25, 0.5, 0.5))
        row0, row1, col0, col1 = obj.pixel_region(100, 200)
        assert 0 <= row0 < row1 <= 100
        assert 0 <= col0 < col1 <= 200
        assert row0 == 25 and col0 == 100

    def test_motion_moves_bbox_and_clamps(self):
        obj = SceneObject("mover", ("x",), bbox=(0.1, 0.1, 0.2, 0.2), velocity=(0.5, 0.0))
        x0 = obj.bbox_at(0.0)[0]
        x1 = obj.bbox_at(1.0)[0]
        x_far = obj.bbox_at(100.0)[0]
        assert x1 > x0
        assert x_far <= 0.8 + 1e-9


class TestSceneFactValidation:
    def test_value_must_be_in_domain(self):
        with pytest.raises(ValueError):
            SceneFact(
                object_name="a",
                key="k",
                value="missing",
                domain=("x", "y"),
                category=CATEGORY_TEXT_RICH,
                detail_scale=0.5,
                question="?",
            )

    def test_category_must_be_known(self):
        with pytest.raises(ValueError):
            SceneFact(
                object_name="a",
                key="k",
                value="x",
                domain=("x", "y"),
                category="nonsense",
                detail_scale=0.5,
                question="?",
            )

    def test_domain_needs_two_options(self):
        with pytest.raises(ValueError):
            SceneFact(
                object_name="a",
                key="k",
                value="x",
                domain=("x",),
                category=CATEGORY_TEXT_RICH,
                detail_scale=0.5,
                question="?",
            )


class TestSceneLibrary:
    @pytest.mark.parametrize("kind", sorted(SCENE_BUILDERS))
    def test_all_builders_produce_valid_scenes(self, kind):
        scene = SCENE_BUILDERS[kind](seed=1, height=90, width=160)
        assert isinstance(scene, Scene)
        assert scene.objects and scene.facts
        frame = scene.render(0)
        assert frame.shape == (90, 160)
        assert 0 <= frame.min() and frame.max() <= 255

    @pytest.mark.parametrize("kind", sorted(SCENE_BUILDERS))
    def test_facts_reference_existing_objects(self, kind):
        scene = SCENE_BUILDERS[kind](seed=2, height=90, width=160)
        names = {obj.name for obj in scene.objects}
        assert all(fact.object_name in names for fact in scene.facts)

    def test_scene_rendering_is_deterministic(self):
        a = make_sports_scene(0, height=90, width=160).render(3)
        b = make_sports_scene(0, height=90, width=160).render(3)
        np.testing.assert_array_equal(a, b)

    def test_different_seeds_change_ground_truth(self):
        values = {make_sports_scene(seed, height=90, width=160).facts[0].value for seed in range(8)}
        assert len(values) > 1

    def test_fine_detail_objects_have_more_high_frequency_energy(self):
        scene = make_sports_scene(0, height=180, width=320)
        frame = scene.render(0)
        fine = scene.object_by_name("scoreboard").pixel_region(180, 320)
        coarse = scene.object_by_name("court").pixel_region(180, 320)

        def hf_energy(region):
            r0, r1, c0, c1 = region
            patch = frame[r0:r1, c0:c1]
            spectrum = np.abs(np.fft.fft2(patch - patch.mean()))
            freq = np.sqrt(
                np.add.outer(np.fft.fftfreq(patch.shape[0]) ** 2, np.fft.fftfreq(patch.shape[1]) ** 2)
            )
            return spectrum[freq > 0.2].sum() / max(spectrum.sum(), 1e-9)

        assert hf_energy(fine) > hf_energy(coarse)

    def test_scene_video_source_interface(self):
        scene = make_park_scene(0, height=90, width=160)
        source = scene.to_source()
        assert source.frame_count() == scene.frame_count
        frame = source.frame_at(1)
        assert frame.timestamp == pytest.approx(1 / scene.fps)
        assert frame.metadata["scene"] == scene.name

    def test_moving_objects_change_between_frames(self):
        scene = make_sports_scene(0, height=90, width=160)
        first = scene.render(0)
        last = scene.render(scene.frame_count - 1)
        assert not np.array_equal(first, last)

    def test_duplicate_object_names_rejected(self):
        obj = SceneObject("dup", ("x",), bbox=(0.1, 0.1, 0.2, 0.2))
        with pytest.raises(ValueError):
            Scene("s", "d", objects=[obj, obj], facts=[], height=40, width=40)

    def test_fact_with_unknown_object_rejected(self):
        obj = SceneObject("a", ("x",), bbox=(0.1, 0.1, 0.2, 0.2))
        fact = SceneFact(
            object_name="ghost",
            key="k",
            value="x",
            domain=("x", "y"),
            category=CATEGORY_TEXT_RICH,
            detail_scale=0.5,
            question="?",
        )
        with pytest.raises(ValueError):
            Scene("s", "d", objects=[obj], facts=[fact], height=40, width=40)

    def test_object_by_name_missing_raises(self):
        scene = make_sports_scene(0, height=90, width=160)
        with pytest.raises(KeyError):
            scene.object_by_name("not-there")

    @pytest.mark.parametrize("field", ["fps", "duration_s"])
    @pytest.mark.parametrize("value", [0.0, -5.0])
    def test_non_positive_timing_rejected(self, field, value):
        with pytest.raises(ValueError):
            Scene("s", "d", objects=[], facts=[], height=40, width=40, **{field: value})
        with pytest.raises(ValueError):
            replace(make_sports_scene(0, height=40, width=40), **{field: value})


class TestRenderMemo:
    """``SceneVideoSource`` renders through a memo; ``Scene.render`` alone is the oracle."""

    @staticmethod
    def assert_source_matches_oracle(scene, frame_count):
        source = scene.to_source()
        for index in range(frame_count):
            memo = source.frame_at(index).pixels
            oracle = scene.render(index)
            assert memo.dtype == oracle.dtype
            assert memo.tobytes() == oracle.tobytes(), (scene.name, index)

    @pytest.mark.parametrize("seed", [0, 3])
    @pytest.mark.parametrize("kind", sorted(SCENE_BUILDERS))
    def test_source_frames_equal_uncached_render(self, kind, seed):
        self.assert_source_matches_oracle(SCENE_BUILDERS[kind](seed=seed, height=120, width=216), 25)

    def test_capture_rate_scene_equals_uncached_render(self):
        # Built as run_figure2_redundancy builds it; its moving objects take
        # several region sizes, so the texture key's (rows, cols) matters.
        scene = replace(make_sports_scene(0, height=120, width=216), fps=60.0, duration_s=2.0)
        sizes = {
            (obj.name, r1 - r0, c1 - c0)
            for index in range(scene.frame_count)
            for obj in scene.objects
            for r0, r1, c0, c1 in [obj.pixel_region(scene.height, scene.width, index / scene.fps)]
        }
        assert len(sizes) > len(scene.objects)
        self.assert_source_matches_oracle(scene, scene.frame_count)

    def test_memo_layers_are_read_only(self):
        scene = make_sports_scene(0, height=60, width=90)
        layers: dict = {}
        scene.render(0, layers=layers)
        assert len(layers) == 1 + len(scene.objects)
        assert not any(array.flags.writeable for array in layers.values())
        assert scene.render(0).flags.writeable


class TestSceneCorpus:
    def test_corpus_size_and_kinds(self):
        corpus = build_scene_corpus(10, seed=0, height=90, width=160)
        assert len(corpus) == 10
        assert len({scene.name for scene in corpus}) == 10

    def test_corpus_covers_all_categories(self):
        corpus = build_scene_corpus(8, seed=0, height=90, width=160)
        categories = {fact.category for scene in corpus for fact in scene.facts}
        assert categories == set(CATEGORIES)

    def test_corpus_validation(self):
        with pytest.raises(ValueError):
            build_scene_corpus(0)
        with pytest.raises(ValueError):
            build_scene_corpus(3, kinds=("unknown",))

    @settings(max_examples=10, deadline=None)
    @given(st.integers(min_value=1, max_value=6), st.integers(min_value=0, max_value=1000))
    def test_property_corpus_deterministic_per_seed(self, count, seed):
        first = build_scene_corpus(count, seed=seed, height=60, width=80)
        second = build_scene_corpus(count, seed=seed, height=60, width=80)
        assert [s.name for s in first] == [s.name for s in second]
        np.testing.assert_array_equal(first[0].render(0), second[0].render(0))
