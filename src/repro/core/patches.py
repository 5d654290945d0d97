"""Frame partitioning into non-overlapping patches (Section 3.2).

The context-aware streamer partitions the latest frame F ∈ R^{H×W} into
non-overlapping N×N patches {P_mn}; each patch is a candidate video region
whose semantic correlation against the user's words decides its bitrate
share.  This module owns that partition and the mapping between patch grid,
codec block grid and pixel regions.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterator

import numpy as np


@dataclass(frozen=True)
class Patch:
    """One N×N region of a frame."""

    row: int
    col: int
    pixel_region: tuple[int, int, int, int]  # (row0, row1, col0, col1)

    @property
    def height(self) -> int:
        return self.pixel_region[1] - self.pixel_region[0]

    @property
    def width(self) -> int:
        return self.pixel_region[3] - self.pixel_region[2]


class PatchGrid:
    """The non-overlapping patch partition of an H×W frame."""

    def __init__(self, height: int, width: int, patch_size: int) -> None:
        if height <= 0 or width <= 0:
            raise ValueError("frame dimensions must be positive")
        if patch_size <= 0:
            raise ValueError("patch_size must be positive")
        self.height = int(height)
        self.width = int(width)
        self.patch_size = int(patch_size)
        self.rows = int(np.ceil(height / patch_size))
        self.cols = int(np.ceil(width / patch_size))

    @property
    def shape(self) -> tuple[int, int]:
        return (self.rows, self.cols)

    @property
    def patch_count(self) -> int:
        return self.rows * self.cols

    def patch(self, row: int, col: int) -> Patch:
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise IndexError(f"patch ({row}, {col}) outside grid {self.shape}")
        row0 = row * self.patch_size
        col0 = col * self.patch_size
        row1 = min(self.height, row0 + self.patch_size)
        col1 = min(self.width, col0 + self.patch_size)
        return Patch(row=row, col=col, pixel_region=(row0, row1, col0, col1))

    def __iter__(self) -> Iterator[Patch]:
        for row in range(self.rows):
            for col in range(self.cols):
                yield self.patch(row, col)

    def extract(self, pixels: np.ndarray, patch: Patch) -> np.ndarray:
        """Pixels of one patch."""
        if pixels.shape[:2] != (self.height, self.width):
            raise ValueError(
                f"pixel array shape {pixels.shape} does not match grid ({self.height}, {self.width})"
            )
        row0, row1, col0, col1 = patch.pixel_region
        return pixels[row0:row1, col0:col1]
