"""Tests for the block codec, rate control and quality metrics."""

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.video import (
    MAX_QP,
    MIN_QP,
    SCENE_BUILDERS,
    BlockCodec,
    CodecConfig,
    EncodedFrame,
    TransformedFrame,
    high_frequency_retention,
    make_sports_scene,
    mse,
    psnr,
    region_quality,
)
from repro.video.rate_control import (
    achieved_bitrate_bps,
    encode_at_target_bitrate,
    encode_sequence_at_target_bitrate,
)


@pytest.fixture(scope="module")
def scene_frame():
    return make_sports_scene(0, height=176, width=320).render(0)


@pytest.fixture(scope="module")
def codec():
    return BlockCodec()


class TestCodecConfig:
    def test_quantisation_step_follows_hevc_rule(self):
        config = CodecConfig(base_step=1.0)
        assert config.quantisation_step(4) == pytest.approx(1.0)
        assert config.quantisation_step(10) == pytest.approx(2.0)
        assert config.quantisation_step(16) == pytest.approx(4.0)

    def test_validation(self):
        with pytest.raises(ValueError):
            CodecConfig(block_size=0)
        with pytest.raises(ValueError):
            CodecConfig(block_size=15)
        with pytest.raises(ValueError):
            CodecConfig(base_step=0)


class TestBlockCodecRoundtrip:
    def test_low_qp_is_near_lossless(self, codec, scene_frame):
        _, decoded = codec.roundtrip(scene_frame, qp=0)
        assert psnr(scene_frame, decoded) > 50

    def test_high_qp_degrades_quality(self, codec, scene_frame):
        _, low_qp_decoded = codec.roundtrip(scene_frame, qp=10)
        _, high_qp_decoded = codec.roundtrip(scene_frame, qp=48)
        assert psnr(scene_frame, high_qp_decoded) < psnr(scene_frame, low_qp_decoded)

    def test_bits_decrease_monotonically_with_qp(self, codec, scene_frame):
        bits = [codec.encode(scene_frame, qp).total_bits for qp in [5, 15, 25, 35, 45, 51]]
        assert bits == sorted(bits, reverse=True)

    def test_decoded_shape_matches_original_even_with_padding(self, codec):
        # 50x70 is not a multiple of the 16-pixel block size.
        frame = np.random.default_rng(0).uniform(0, 255, (50, 70))
        encoded, decoded = codec.roundtrip(frame, qp=20)
        assert decoded.shape == frame.shape
        assert encoded.padded_shape == (64, 80)

    def test_decoded_values_in_range(self, codec, scene_frame):
        _, decoded = codec.roundtrip(scene_frame, qp=40)
        assert decoded.min() >= 0 and decoded.max() <= 255

    def test_rejects_non_2d_input(self, codec):
        with pytest.raises(ValueError):
            codec.encode(np.zeros((10, 10, 3)), 30)

    def test_rejects_out_of_range_qp(self, codec, scene_frame):
        with pytest.raises(ValueError):
            codec.encode(scene_frame, qp=52)
        with pytest.raises(ValueError):
            codec.encode(scene_frame, qp=-1)

    @pytest.mark.parametrize("qp", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_qp(self, codec, scene_frame, qp):
        # NaN fails both range comparisons; it used to quantise every
        # coefficient to INT_MIN and report a header-only frame.
        grid = codec.block_grid_shape(*scene_frame.shape)
        qp_map = np.full(grid, 30.0)
        qp_map[1, 2] = qp
        for value in (qp, qp_map):
            with pytest.raises(ValueError):
                codec.encode(scene_frame, value)

    @pytest.mark.parametrize("pixel", [float("nan"), float("inf"), float("-inf")])
    def test_rejects_non_finite_pixels(self, codec, scene_frame, pixel):
        frame = scene_frame.copy()
        frame[5, 7] = pixel
        with pytest.raises(ValueError):
            codec.transform(frame)
        with pytest.raises(ValueError):
            codec.encode(frame, 30)

    def test_rejects_pixels_whose_coefficients_overflow_int32(self, codec):
        # The 16x16 DC coefficient is 16x the pixel value; at QP 0 (step
        # about 0.252) 1e8 quantises past 2**31 - 1, 1e7 stays inside.
        frame = np.full((16, 16), 1e8)
        with pytest.raises(ValueError, match="int32"):
            codec.transform(frame)
        with pytest.raises(ValueError, match="int32"):
            codec.encode(frame, 0)
        encoded = codec.encode(np.full((16, 16), 1e7), 0)
        step = codec.config.quantisation_step(MIN_QP)
        assert encoded.quantised[0, 0, 0, 0] == np.rint(16e7 / step)

    def test_size_bytes_consistent_with_bits(self, codec, scene_frame):
        encoded = codec.encode(scene_frame, 30)
        assert encoded.size_bytes == int(np.ceil(encoded.total_bits / 8))
        assert encoded.bitrate_bps(30) == pytest.approx(encoded.total_bits * 30)

    @settings(max_examples=15, deadline=None)
    @given(st.integers(min_value=0, max_value=51))
    def test_property_roundtrip_error_bounded_by_step(self, qp):
        rng = np.random.default_rng(qp)
        frame = rng.uniform(0, 255, (32, 32))
        codec = BlockCodec()
        _, decoded = codec.roundtrip(frame, qp)
        # Quantisation error per coefficient is at most step/2; the spatial
        # error is bounded by step/2 times the block dimension.
        step = codec.config.quantisation_step(qp)
        assert np.max(np.abs(frame - decoded)) <= step * codec.config.block_size / 2 + 1e-6


class TestPerBlockQpMaps:
    def test_qp_map_shape_validation(self, codec, scene_frame):
        with pytest.raises(ValueError):
            codec.encode(scene_frame, np.full((3, 3), 30.0))

    def test_spatially_varying_qp_shifts_quality(self, codec, scene_frame):
        grid = codec.block_grid_shape(*scene_frame.shape)
        qp_map = np.full(grid, 45.0)
        qp_map[:, : grid[1] // 2] = 10.0  # left half high quality
        encoded = codec.encode(scene_frame, qp_map)
        decoded = codec.decode(encoded)
        half = scene_frame.shape[1] // 2
        left_psnr = psnr(scene_frame[:, :half], decoded[:, :half])
        right_psnr = psnr(scene_frame[:, half:], decoded[:, half:])
        assert left_psnr > right_psnr + 5

    def test_bits_concentrate_in_low_qp_regions(self, codec, scene_frame):
        grid = codec.block_grid_shape(*scene_frame.shape)
        qp_map = np.full(grid, 45.0)
        qp_map[:, : grid[1] // 2] = 10.0
        encoded = codec.encode(scene_frame, qp_map)
        height, width = scene_frame.shape
        left_bits = encoded.bits_in_region(0, height, 0, width // 2)
        right_bits = encoded.bits_in_region(0, height, width // 2, width)
        assert left_bits > 2 * right_bits

    def test_uniform_map_equals_scalar_qp(self, codec, scene_frame):
        grid = codec.block_grid_shape(*scene_frame.shape)
        scalar = codec.encode(scene_frame, 30)
        mapped = codec.encode(scene_frame, np.full(grid, 30.0))
        assert scalar.total_bits == pytest.approx(mapped.total_bits)


class TestRateControl:
    def test_hits_target_within_tolerance(self, codec, scene_frame):
        result = encode_at_target_bitrate(codec, scene_frame, 400_000, fps=2.0, tolerance=0.05)
        assert result.relative_error < 0.10

    def test_unreachable_target_returns_best_effort(self, codec):
        tiny = np.full((32, 32), 128.0)
        result = encode_at_target_bitrate(codec, tiny, 50_000_000, fps=30.0)
        assert result.achieved_bits < result.target_bits

    def test_respects_base_qp_map_structure(self, codec, scene_frame):
        grid = codec.block_grid_shape(*scene_frame.shape)
        base = np.full(grid, 40.0)
        base[:, : grid[1] // 3] = 15.0
        result = encode_at_target_bitrate(codec, scene_frame, 300_000, fps=2.0, base_qp_map=base)
        qp_map = result.encoded.qp_map
        assert qp_map[:, : grid[1] // 3].mean() < qp_map[:, grid[1] // 3 :].mean()

    def test_sequence_rate_control(self, codec):
        scene = make_sports_scene(0, height=96, width=160)
        frames = [scene.render(i) for i in range(3)]
        results = encode_sequence_at_target_bitrate(codec, frames, 300_000, fps=2.0)
        rate = achieved_bitrate_bps(results, fps=2.0)
        assert rate == pytest.approx(300_000, rel=0.15)

    def test_invalid_arguments(self, codec, scene_frame):
        with pytest.raises(ValueError):
            encode_at_target_bitrate(codec, scene_frame, 0, fps=2.0)
        with pytest.raises(ValueError):
            encode_at_target_bitrate(codec, scene_frame, 100_000, fps=0)

    @pytest.mark.parametrize(
        "arguments",
        [{"max_iterations": 0}, {"max_iterations": -3}, {"tolerance": -0.01}, {"tolerance": float("nan")}],
        ids=["no-iterations", "negative-iterations", "negative-tolerance", "nan-tolerance"],
    )
    def test_invalid_search_arguments(self, codec, scene_frame, arguments):
        # max_iterations=0 used to end on a bare AssertionError (a None
        # unpacking under python -O); a negative tolerance searched on.
        with pytest.raises(ValueError):
            encode_at_target_bitrate(codec, scene_frame, 100_000, fps=2.0, **arguments)

    def test_nan_base_qp_map_is_rejected(self, codec, scene_frame):
        # It used to come back as a result with qp_offset=nan.
        base = np.full(codec.block_grid_shape(*scene_frame.shape), 30.0)
        base[0, 0] = np.nan
        with pytest.raises(ValueError):
            encode_at_target_bitrate(codec, scene_frame, 100_000, fps=2.0, base_qp_map=base)


def assert_same_encoding(first, second):
    """Every :class:`EncodedFrame` field is equal, arrays bit for bit and dtype too."""
    for item in dataclasses.fields(first):
        a, b = getattr(first, item.name), getattr(second, item.name)
        if isinstance(a, np.ndarray):
            assert a.dtype == b.dtype and np.array_equal(a, b), item.name
        else:
            assert a == b, item.name


class TestTransformOnce:
    """``encode(transform(x), qp)`` is ``encode(x, qp)``; rate control relies on it."""

    @pytest.fixture(scope="class")
    def ragged_frame(self):
        # 100x150 is not a multiple of the 16-pixel block: edge padding runs.
        return make_sports_scene(0, height=100, width=150).render(0)

    def test_transform_keeps_shapes(self, codec, ragged_frame):
        frame = codec.transform(ragged_frame)
        assert isinstance(frame, TransformedFrame)
        assert frame.shape == (100, 150)
        assert frame.padded_shape == (112, 160)
        assert frame.coefficients.shape == (7, 10, 16, 16)

    def test_scalar_qp_matches_pixel_path(self, codec, ragged_frame):
        frame = codec.transform(ragged_frame)
        for qp in (0, 22, 37.5, 51):
            assert_same_encoding(
                codec.encode(frame, qp, frame_id=3, timestamp=0.5),
                codec.encode(ragged_frame, qp, frame_id=3, timestamp=0.5),
            )

    def test_qp_map_matches_pixel_path(self, codec, ragged_frame):
        rng = np.random.default_rng(4)
        qp_map = rng.uniform(MIN_QP, MAX_QP, size=codec.block_grid_shape(*ragged_frame.shape))
        assert_same_encoding(
            codec.encode(codec.transform(ragged_frame), qp_map),
            codec.encode(ragged_frame, qp_map),
        )

    def test_out_of_range_qp_raises_on_both_paths(self, codec, ragged_frame):
        grid = codec.block_grid_shape(*ragged_frame.shape)
        bad_map = np.full(grid, 30.0)
        bad_map[2, 3] = MAX_QP + 1
        for source in (ragged_frame, codec.transform(ragged_frame)):
            for qp in (MIN_QP - 1, MAX_QP + 1, bad_map):
                with pytest.raises(ValueError):
                    codec.encode(source, qp)

    def test_coefficients_are_read_only(self, codec, ragged_frame):
        frame = codec.transform(ragged_frame)
        with pytest.raises(ValueError):
            frame.coefficients[0, 0, 0, 0] = 1.0

    @pytest.mark.parametrize("base", ["scalar", "map"])
    def test_rate_control_choice_is_a_direct_encode(self, codec, ragged_frame, base):
        grid = codec.block_grid_shape(*ragged_frame.shape)
        base_qp = 30.0 if base == "scalar" else np.linspace(18.0, 46.0, grid[0] * grid[1]).reshape(grid)
        result = encode_at_target_bitrate(
            codec, ragged_frame, 150_000, fps=2.0, base_qp_map=base_qp, frame_id=5, timestamp=2.5
        )
        assert result.iterations > 1  # the search quantised the transform more than once
        direct = codec.encode(
            ragged_frame,
            np.clip(np.asarray(base_qp) + result.qp_offset, MIN_QP, MAX_QP),
            frame_id=5,
            timestamp=2.5,
        )
        assert_same_encoding(result.encoded, direct)


def oracle_bits_per_block(quantised, header_bits_per_block):
    """The log2 bit count ``BlockCodec`` used before it read float exponents."""
    magnitude = np.abs(quantised).astype(np.float64)
    nonzero = magnitude > 0
    coefficient_bits = np.where(nonzero, 2.0 * np.floor(np.log2(np.maximum(magnitude, 1))) + 3.0, 0.0)
    return coefficient_bits.sum(axis=(2, 3)) + header_bits_per_block


def oracle_encode(codec, frame, qp):
    """``BlockCodec.encode`` as it was: ``np.round`` to int32, then the log2 bit count."""
    height, width = frame.shape
    qp_map = codec._expand_qp_map(qp, height, width)
    steps = codec.config.quantisation_step(qp_map)[:, :, None, None]
    quantised = np.round(frame.coefficients / steps).astype(np.int32)
    bits_per_block = oracle_bits_per_block(quantised, codec.config.header_bits_per_block)
    return EncodedFrame(
        frame_id=0,
        timestamp=0.0,
        shape=(height, width),
        padded_shape=frame.padded_shape,
        block_size=codec.config.block_size,
        qp_map=qp_map,
        quantised=quantised,
        bits_per_block=bits_per_block,
        total_bits=float(bits_per_block.sum()) + codec.config.frame_header_bits,
    )


class TestBitCountKernel:
    """The exponent-field bit count equals the log2 formula it replaced."""

    # At base_step 1 and QP 4 the quantisation step is exactly 1.0, so each
    # coefficient quantises to itself rounded half to even.
    EXACT_STEP_QP = 4

    @staticmethod
    def _crafted_frame(values, block=16):
        """One block per value (rest zero), then blocks holding all values at once."""
        values = np.asarray(values, dtype=np.float64)
        per_block = block * block
        mixed = int(np.ceil(values.size / per_block))
        coefficients = np.zeros((values.size + mixed, block, block))
        coefficients[np.arange(values.size), 0, 0] = values
        coefficients[values.size :].reshape(-1)[: values.size] = values
        coefficients = coefficients.reshape(1, -1, block, block)
        width = coefficients.shape[1] * block
        return TransformedFrame(shape=(block, width), padded_shape=(block, width), coefficients=coefficients)

    @staticmethod
    def _magnitudes():
        edges = {1, 2**31 - 1}
        for k in range(1, 31):
            edges.update((2**k - 1, 2**k, 2**k + 1))
        return sorted(edges)

    def test_per_block_bits_on_power_of_two_edges(self):
        codec = BlockCodec(CodecConfig(base_step=1.0))
        assert codec.config.quantisation_step(self.EXACT_STEP_QP) == 1.0
        magnitudes = self._magnitudes()
        values = [0.0, -0.0] + magnitudes + [-m for m in magnitudes]
        frame = self._crafted_frame(values)
        encoded = codec.encode(frame, self.EXACT_STEP_QP)
        assert np.array_equal(encoded.quantised[0, : len(values), 0, 0], np.asarray(values, dtype=np.int32))
        expected = oracle_bits_per_block(encoded.quantised, codec.config.header_bits_per_block)
        assert encoded.bits_per_block.dtype == np.float64
        assert np.array_equal(encoded.bits_per_block, expected)
        # Spot values of 2*floor(log2 m) + 3 on top of the 12-bit block header.
        bits = dict(zip(values, encoded.bits_per_block[0, : len(values)] - codec.config.header_bits_per_block))
        assert bits[0.0] == 0 and bits[1] == 3 and bits[-1] == 3
        assert bits[2**10 - 1] == 2 * 9 + 3 and bits[2**10] == 2 * 10 + 3 and bits[-(2**10 + 1)] == 2 * 10 + 3
        assert bits[2**30] == 2 * 30 + 3 and bits[2**31 - 1] == 2 * 30 + 3

    def test_fractional_coefficients_round_like_the_oracle(self):
        # Halves round to even, and small negatives round to -0.0 (0 bits).
        codec = BlockCodec(CodecConfig(base_step=1.0))
        values = [0.5, 1.5, 2.5, -0.5, -1.5, -0.3, 0.49, 3.5, -7.5, 1023.5, 1024.5, -(2**20) - 0.5]
        frame = self._crafted_frame(values)
        assert_same_encoding(codec.encode(frame, self.EXACT_STEP_QP), oracle_encode(codec, frame, self.EXACT_STEP_QP))

    @pytest.mark.parametrize(
        "kind, height, width",
        [(kind, 120, 216) for kind in sorted(SCENE_BUILDERS)] + [("sports", 100, 150)],  # 100x150 is ragged
    )
    def test_scene_encodings_match_the_oracle(self, codec, kind, height, width):
        frame = codec.transform(SCENE_BUILDERS[kind](seed=3, height=height, width=width).render(0))
        grid = frame.coefficients.shape[:2]
        rng = np.random.default_rng(height + sorted(SCENE_BUILDERS).index(kind))
        for qp in [0, 15, 30, 45, 51, np.full(grid, 27.0), rng.uniform(MIN_QP, MAX_QP, size=grid)]:
            assert_same_encoding(codec.encode(frame, qp), oracle_encode(codec, frame, qp))


class TestQualityMetrics:
    def test_psnr_identity_is_infinite(self, scene_frame):
        assert psnr(scene_frame, scene_frame) == float("inf")

    def test_psnr_decreases_with_noise(self, scene_frame):
        rng = np.random.default_rng(0)
        small = scene_frame + rng.normal(0, 2, scene_frame.shape)
        large = scene_frame + rng.normal(0, 20, scene_frame.shape)
        assert psnr(scene_frame, small) > psnr(scene_frame, large)

    def test_mse_shape_mismatch(self):
        with pytest.raises(ValueError):
            mse(np.zeros((4, 4)), np.zeros((5, 5)))

    def test_high_frequency_retention_drops_with_blur(self, codec, scene_frame):
        _, decoded_mild = codec.roundtrip(scene_frame, 20)
        _, decoded_heavy = codec.roundtrip(scene_frame, 50)
        assert high_frequency_retention(scene_frame, decoded_heavy) < high_frequency_retention(
            scene_frame, decoded_mild
        )

    def test_region_quality_report(self, codec, scene_frame):
        _, decoded = codec.roundtrip(scene_frame, 40)
        report = region_quality(scene_frame, decoded, (0, 64, 0, 64))
        assert 0.0 <= report.readable_score <= 1.0
        assert report.psnr_db > 0
        with pytest.raises(ValueError):
            region_quality(scene_frame, decoded, (10, 10, 0, 64))
