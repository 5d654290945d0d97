"""Video tokenizers: continuous embeddings versus discrete (VQ) indices.

Section 4 of the paper ("Client-side tokenizer and token streaming") asks
whether the video tokenizer could move to the client so that tokens — not
pixels — are streamed.  The argument hinges on the bitrate gap between the
two token families and on the loss-resilience of tokens:

* **continuous tokens** (what MLLMs actually consume) are uncompressed
  floating-point tensors whose bitrate is far too high to stream;
* **discrete tokens** (VQ codebook indices) are compact — better than HEVC in
  some regimes — and tolerate heavy loss (the paper cites 82.8 % token loss
  with 98 % retained accuracy), but state-of-the-art MLLMs no longer use
  them because quantisation costs accuracy.

This module implements both tokenizers over the block-DCT feature space so
the feasibility analysis can be run quantitatively, plus the masked-recovery
step used to patch missing tokens at the receiver.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np
from scipy.fft import dctn, idctn


@dataclass
class TokenizerConfig:
    """Shared configuration of the video tokenizers."""

    patch_size: int = 16
    #: Embedding dimension kept per token (leading DCT coefficients).
    token_dim: int = 32
    #: Bits per float component when a continuous token is serialised.
    bits_per_component: int = 32
    #: Codebook size of the discrete tokenizer (bits per token = log2(size)).
    codebook_size: int = 8192
    seed: int = 0

    def __post_init__(self) -> None:
        if self.patch_size <= 0:
            raise ValueError("patch_size must be positive")
        if not 1 <= self.token_dim <= self.patch_size * self.patch_size:
            raise ValueError("token_dim must be within the patch coefficient count")
        if self.codebook_size < 2:
            raise ValueError("codebook_size must be at least 2")

    @property
    def bits_per_discrete_token(self) -> float:
        return float(np.log2(self.codebook_size))

    @property
    def bits_per_continuous_token(self) -> float:
        return float(self.token_dim * self.bits_per_component)


@dataclass
class TokenizedFrame:
    """Tokens extracted from one frame."""

    tokens: np.ndarray          # continuous: (n, dim) float; discrete: (n,) int
    grid_shape: tuple[int, int]
    frame_shape: tuple[int, int]
    discrete: bool
    total_bits: float

    @property
    def token_count(self) -> int:
        return int(self.tokens.shape[0])

    def bitrate_bps(self, fps: float) -> float:
        if fps <= 0:
            raise ValueError("fps must be positive")
        return self.total_bits * fps


def _patch_features(pixels: np.ndarray, config: TokenizerConfig) -> tuple[np.ndarray, tuple[int, int]]:
    """Leading DCT coefficients of each patch, zig-zag-free (row-major) order."""
    pixels = np.asarray(pixels, dtype=np.float64)
    if pixels.ndim != 2:
        raise ValueError("expected a 2-D luma array")
    p = config.patch_size
    height = pixels.shape[0] - pixels.shape[0] % p
    width = pixels.shape[1] - pixels.shape[1] % p
    if height == 0 or width == 0:
        raise ValueError(f"frame {pixels.shape} smaller than patch size {p}")
    trimmed = pixels[:height, :width]
    blocks = trimmed.reshape(height // p, p, width // p, p).transpose(0, 2, 1, 3)
    coefficients = dctn(blocks, axes=(2, 3), norm="ortho")
    flat = coefficients.reshape(height // p * (width // p), p * p)
    return flat[:, : config.token_dim], (height // p, width // p)


class ContinuousTokenizer:
    """Produces the embedding tokens modern MLLMs consume."""

    def __init__(self, config: Optional[TokenizerConfig] = None) -> None:
        self.config = config or TokenizerConfig()

    def tokenize(self, pixels: np.ndarray) -> TokenizedFrame:
        features, grid = _patch_features(pixels, self.config)
        total_bits = features.shape[0] * self.config.bits_per_continuous_token
        return TokenizedFrame(
            tokens=features,
            grid_shape=grid,
            frame_shape=pixels.shape,
            discrete=False,
            total_bits=total_bits,
        )

    def reconstruct(self, tokenized: TokenizedFrame) -> np.ndarray:
        """Approximate reconstruction from the retained coefficients."""
        return _reconstruct_from_features(tokenized.tokens, tokenized, self.config)


class DiscreteTokenizer:
    """A VQ-VAE-style tokenizer: each patch becomes a codebook index."""

    def __init__(self, config: Optional[TokenizerConfig] = None) -> None:
        self.config = config or TokenizerConfig()
        rng = np.random.default_rng(self.config.seed)
        # A fixed random codebook over the DCT feature space.  Real systems
        # learn it; a random-but-fixed codebook preserves the quantities the
        # feasibility analysis needs (bits/token and quantisation error).
        scale = np.ones(self.config.token_dim)
        scale[0] = 2000.0  # DC coefficients span a much larger range
        scale[1:] = 300.0
        self._codebook = rng.uniform(-1, 1, (self.config.codebook_size, self.config.token_dim)) * scale

    @property
    def codebook(self) -> np.ndarray:
        return self._codebook

    def tokenize(self, pixels: np.ndarray) -> TokenizedFrame:
        features, grid = _patch_features(pixels, self.config)
        indices = self._nearest_codeword(features)
        total_bits = indices.shape[0] * self.config.bits_per_discrete_token
        return TokenizedFrame(
            tokens=indices,
            grid_shape=grid,
            frame_shape=pixels.shape,
            discrete=True,
            total_bits=total_bits,
        )

    def _nearest_codeword(self, features: np.ndarray) -> np.ndarray:
        # Chunked nearest-neighbour search to bound memory.
        indices = np.empty(features.shape[0], dtype=np.int64)
        chunk = 512
        for start in range(0, features.shape[0], chunk):
            block = features[start : start + chunk]
            distances = (
                np.sum(block**2, axis=1, keepdims=True)
                - 2 * block @ self._codebook.T
                + np.sum(self._codebook**2, axis=1)[None, :]
            )
            indices[start : start + chunk] = np.argmin(distances, axis=1)
        return indices

    def reconstruct(self, tokenized: TokenizedFrame) -> np.ndarray:
        if not tokenized.discrete:
            raise ValueError("expected a discrete TokenizedFrame")
        features = self._codebook[np.asarray(tokenized.tokens, dtype=np.int64)]
        return _reconstruct_from_features(features, tokenized, self.config)


def _reconstruct_from_features(
    features: np.ndarray, tokenized: TokenizedFrame, config: TokenizerConfig
) -> np.ndarray:
    p = config.patch_size
    rows, cols = tokenized.grid_shape
    coefficients = np.zeros((rows * cols, p * p))
    coefficients[:, : config.token_dim] = features
    blocks = coefficients.reshape(rows, cols, p, p)
    pixels = idctn(blocks, axes=(2, 3), norm="ortho")
    frame = pixels.transpose(0, 2, 1, 3).reshape(rows * p, cols * p)
    return np.clip(frame, 0, 255)


@dataclass
class TokenLossResult:
    """Outcome of dropping a fraction of tokens and recovering the rest."""

    loss_fraction: float
    recovered_tokens: np.ndarray
    dropped_indices: np.ndarray


def drop_and_recover_tokens(
    tokenized: TokenizedFrame,
    loss_fraction: float,
    seed: int = 0,
) -> TokenLossResult:
    """Drop a random fraction of tokens and patch them from spatial neighbours.

    This models the masked-recovery argument of Section 4: missing discrete
    tokens can be re-synthesised at the receiver (the paper cites masked
    language models); we use nearest-surviving-neighbour substitution on the
    token grid, which preserves coarse content but not fine detail — the same
    qualitative trade-off.
    """
    if not 0.0 <= loss_fraction < 1.0:
        raise ValueError("loss_fraction must be in [0, 1)")
    rng = np.random.default_rng(seed)
    count = tokenized.token_count
    dropped = rng.random(count) < loss_fraction
    dropped_indices = np.flatnonzero(dropped)
    tokens = np.array(tokenized.tokens, copy=True)
    if dropped_indices.size and dropped_indices.size < count:
        rows, cols = tokenized.grid_shape
        grid_dropped = dropped.reshape(rows, cols)
        surviving = np.argwhere(~grid_dropped)
        for index in dropped_indices:
            row, col = divmod(int(index), cols)
            distances = np.abs(surviving[:, 0] - row) + np.abs(surviving[:, 1] - col)
            nearest = surviving[int(np.argmin(distances))]
            source = int(nearest[0] * cols + nearest[1])
            tokens[index] = tokens[source]
    return TokenLossResult(
        loss_fraction=loss_fraction,
        recovered_tokens=tokens,
        dropped_indices=dropped_indices,
    )


def compare_token_stream_bitrates(
    pixels: np.ndarray,
    fps: float = 2.0,
    config: Optional[TokenizerConfig] = None,
) -> dict[str, float]:
    """Bitrate comparison backing the Section 4 feasibility table.

    Returns the per-second bitrate of streaming continuous tokens, discrete
    tokens, and the raw pixels, for one frame at the MLLM ingestion rate.
    """
    config = config or TokenizerConfig()
    continuous = ContinuousTokenizer(config).tokenize(pixels)
    discrete = DiscreteTokenizer(config).tokenize(pixels)
    raw_bits = float(np.asarray(pixels).size * 8)
    return {
        "continuous_bps": continuous.bitrate_bps(fps),
        "discrete_bps": discrete.bitrate_bps(fps),
        "raw_pixels_bps": raw_bits * fps,
        "tokens_per_frame": float(continuous.token_count),
    }
