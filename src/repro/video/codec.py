"""A block-transform video codec with per-block quantisation control.

The paper's context-aware streaming (Section 3.2) relies on an encoder that
accepts *per-region* quantisation parameters (it uses Kvazaar's fine-grained
QP control, with x265 for the uniform baseline).  We reproduce the behaviour
those experiments depend on with a block-DCT codec:

* frames are split into ``block_size`` × ``block_size`` blocks;
* each block is transformed with a 2-D DCT and quantised with a step that
  follows the HEVC rule ``Qstep = 2^((QP - 4) / 6)``;
* the bit cost of a block is an entropy-style estimate over the quantised
  coefficients (signed exp-Golomb-like), so rate falls as QP rises and rises
  with texture complexity — the two monotonicities all experiments need;
* decoding inverts the quantisation and transform, so regional distortion is
  a real rate-distortion consequence rather than an assumed curve.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional, Union

import numpy as np
from scipy.fft import dctn, idctn

MIN_QP = 0
MAX_QP = 51


@dataclass
class CodecConfig:
    """Configuration of the block codec."""

    block_size: int = 16
    #: Base quantisation granularity; the effective step is
    #: ``base_step * 2^((QP-4)/6)`` as in HEVC.
    base_step: float = 0.40
    #: Header overhead charged per block (mode/partition signalling).
    header_bits_per_block: float = 12.0
    #: Frame-level overhead (parameter sets, slice headers).
    frame_header_bits: float = 256.0

    def __post_init__(self) -> None:
        if self.block_size <= 0 or self.block_size % 2 != 0:
            raise ValueError("block_size must be a positive even integer")
        if self.base_step <= 0:
            raise ValueError("base_step must be positive")

    def quantisation_step(self, qp: Union[float, np.ndarray]) -> Union[float, np.ndarray]:
        """HEVC-style quantisation step for a QP value (scalar or array)."""
        return self.base_step * np.power(2.0, (np.asarray(qp, dtype=float) - 4.0) / 6.0)


@dataclass
class EncodedFrame:
    """The output of encoding one frame."""

    frame_id: int
    timestamp: float
    shape: tuple[int, int]
    padded_shape: tuple[int, int]
    block_size: int
    qp_map: np.ndarray
    quantised: np.ndarray  # (blocks_y, blocks_x, block, block)
    bits_per_block: np.ndarray
    total_bits: float

    @property
    def size_bytes(self) -> int:
        return int(np.ceil(self.total_bits / 8.0))

    @property
    def size_bits(self) -> float:
        return float(self.total_bits)

    def bitrate_bps(self, fps: float) -> float:
        """Bitrate this frame size corresponds to at a given frame rate."""
        if fps <= 0:
            raise ValueError("fps must be positive")
        return self.total_bits * fps

    def bits_in_region(self, row0: int, row1: int, col0: int, col1: int) -> float:
        """Total bits spent on blocks overlapping a pixel-coordinate region."""
        b = self.block_size
        br0, br1 = row0 // b, int(np.ceil(row1 / b))
        bc0, bc1 = col0 // b, int(np.ceil(col1 / b))
        return float(self.bits_per_block[br0:br1, bc0:bc1].sum())


@dataclass(frozen=True)
class TransformedFrame:
    """A luma frame's block-DCT coefficients, ready to quantise at any QP."""

    shape: tuple[int, int]
    padded_shape: tuple[int, int]
    coefficients: np.ndarray  # (blocks_y, blocks_x, block, block), read-only


def _pad_to_blocks(pixels: np.ndarray, block: int) -> np.ndarray:
    height, width = pixels.shape
    pad_h = (-height) % block
    pad_w = (-width) % block
    if pad_h == 0 and pad_w == 0:
        return pixels
    return np.pad(pixels, ((0, pad_h), (0, pad_w)), mode="edge")


def _to_blocks(pixels: np.ndarray, block: int) -> np.ndarray:
    """Reshape an (H, W) array into (H/b, W/b, b, b) blocks."""
    height, width = pixels.shape
    blocks = pixels.reshape(height // block, block, width // block, block)
    return blocks.transpose(0, 2, 1, 3)


def _from_blocks(blocks: np.ndarray) -> np.ndarray:
    blocks_y, blocks_x, block, _ = blocks.shape
    return blocks.transpose(0, 2, 1, 3).reshape(blocks_y * block, blocks_x * block)


class BlockCodec:
    """Encoder/decoder pair with per-block QP control."""

    def __init__(self, config: Optional[CodecConfig] = None) -> None:
        self.config = config or CodecConfig()

    # -- QP map handling ---------------------------------------------------

    def block_grid_shape(self, height: int, width: int) -> tuple[int, int]:
        block = self.config.block_size
        return (int(np.ceil(height / block)), int(np.ceil(width / block)))

    def _expand_qp_map(
        self, qp: Union[int, float, np.ndarray], height: int, width: int
    ) -> np.ndarray:
        grid = self.block_grid_shape(height, width)
        if np.isscalar(qp):
            qp_map = np.full(grid, float(qp))
        else:
            qp_map = np.asarray(qp, dtype=float)
            if qp_map.shape != grid:
                raise ValueError(
                    f"qp_map shape {qp_map.shape} does not match block grid {grid} "
                    f"for a {height}x{width} frame with block {self.config.block_size}"
                )
        if (qp_map < MIN_QP).any() or (qp_map > MAX_QP).any():
            raise ValueError(f"QP values must lie in [{MIN_QP}, {MAX_QP}]")
        return qp_map

    # -- encode / decode ----------------------------------------------------

    def transform(self, pixels: np.ndarray) -> TransformedFrame:
        """Block-DCT a luma array once, so several QPs can quantise it."""
        pixels = np.asarray(pixels, dtype=np.float64)
        if pixels.ndim != 2:
            raise ValueError(f"expected a 2-D luma array, got shape {pixels.shape}")
        padded = _pad_to_blocks(pixels, self.config.block_size)
        coefficients = dctn(_to_blocks(padded, self.config.block_size), axes=(2, 3), norm="ortho")
        coefficients.flags.writeable = False
        return TransformedFrame(shape=pixels.shape, padded_shape=padded.shape, coefficients=coefficients)

    def encode(
        self,
        pixels: Union[np.ndarray, TransformedFrame],
        qp: Union[int, float, np.ndarray] = 30,
        frame_id: int = 0,
        timestamp: float = 0.0,
    ) -> EncodedFrame:
        """Encode a luma array (or its transform) with a scalar QP or a per-block QP map."""
        frame = pixels if isinstance(pixels, TransformedFrame) else self.transform(pixels)
        height, width = frame.shape
        qp_map = self._expand_qp_map(qp, height, width)

        steps = self.config.quantisation_step(qp_map)[:, :, None, None]
        quantised = np.round(frame.coefficients / steps).astype(np.int32)

        bits_per_block = self._estimate_bits(quantised)
        total_bits = float(bits_per_block.sum()) + self.config.frame_header_bits

        return EncodedFrame(
            frame_id=frame_id,
            timestamp=timestamp,
            shape=(height, width),
            padded_shape=frame.padded_shape,
            block_size=self.config.block_size,
            qp_map=qp_map,
            quantised=quantised,
            bits_per_block=bits_per_block,
            total_bits=total_bits,
        )

    def decode(self, encoded: EncodedFrame) -> np.ndarray:
        """Reconstruct the luma array from an :class:`EncodedFrame`."""
        steps = self.config.quantisation_step(encoded.qp_map)[:, :, None, None]
        coefficients = encoded.quantised.astype(np.float64) * steps
        blocks = idctn(coefficients, axes=(2, 3), norm="ortho")
        padded = _from_blocks(blocks)
        height, width = encoded.shape
        return np.clip(padded[:height, :width], 0, 255)

    def roundtrip(
        self, pixels: np.ndarray, qp: Union[int, float, np.ndarray] = 30
    ) -> tuple[EncodedFrame, np.ndarray]:
        encoded = self.encode(pixels, qp)
        return encoded, self.decode(encoded)

    # -- rate model ----------------------------------------------------------

    def _estimate_bits(self, quantised: np.ndarray) -> np.ndarray:
        """Entropy-style bit estimate per block.

        Each non-zero coefficient of magnitude ``m`` costs roughly
        ``2*floor(log2(m)) + 3`` bits (signed exp-Golomb); zero coefficients
        are nearly free thanks to run-length coding, which we charge at a
        small constant aggregated into the block header.
        """
        magnitude = np.abs(quantised).astype(np.float64)
        nonzero = magnitude > 0
        coefficient_bits = np.where(nonzero, 2.0 * np.floor(np.log2(np.maximum(magnitude, 1))) + 3.0, 0.0)
        per_block = coefficient_bits.sum(axis=(2, 3)) + self.config.header_bits_per_block
        return per_block
