"""Dataset container and byte-size model for line-segment spatial data.

A :class:`SegmentDataset` holds the road-atlas line segments as parallel NumPy
column arrays (structure-of-arrays, per the HPC guides: contiguous columns
vectorize and cache well), plus the metadata the rest of the system needs —
the spatial extent and the byte-size model that message construction and the
insufficient-memory budgeting use.

The byte-size model matches the paper's published dataset sizes: the PA
dataset (139 006 segments) occupies about 10.06 MB, i.e. ~76 bytes per stored
segment (four float32 coordinates plus an id and a fixed-width name payload).
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Sequence

import numpy as np

from repro.constants import DEFAULT_COSTS, CostModel
from repro.spatial.mbr import MBR

__all__ = ["SegmentDataset"]


@dataclass
class SegmentDataset:
    """Immutable-by-convention container of ``n`` line segments.

    Attributes
    ----------
    name:
        Human-readable dataset label (``"PA"``, ``"NYC"``, …).
    x1, y1, x2, y2:
        Endpoint coordinate columns, each shape ``(n,)`` float64, all finite.
    extent:
        The MBR of the whole dataset (precomputed at construction).
    costs:
        The byte-size model used for size accounting.
    """

    name: str
    x1: np.ndarray
    y1: np.ndarray
    x2: np.ndarray
    y2: np.ndarray
    extent: MBR = field(init=False)
    costs: CostModel = field(default=DEFAULT_COSTS)

    def __post_init__(self) -> None:
        cols = (self.x1, self.y1, self.x2, self.y2)
        n = len(self.x1)
        if any(len(c) != n for c in cols):
            raise ValueError("coordinate columns must have equal length")
        if n == 0:
            raise ValueError("a dataset must contain at least one segment")
        lo, hi = {}, {}
        for attr in ("x1", "y1", "x2", "y2"):
            col = np.ascontiguousarray(getattr(self, attr), dtype=np.float64)
            setattr(self, attr, col)
            # min and max propagate NaN, so finite bounds mean a finite column.
            lo[attr], hi[attr] = float(col.min()), float(col.max())
            if not (math.isfinite(lo[attr]) and math.isfinite(hi[attr])):
                raise ValueError(f"coordinate column {attr} must be finite")
        self.extent = MBR(
            min(lo["x1"], lo["x2"]),
            min(lo["y1"], lo["y2"]),
            max(hi["x1"], hi["x2"]),
            max(hi["y1"], hi["y2"]),
        )

    # ------------------------------------------------------------------
    # Basics
    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return len(self.x1)

    @property
    def size(self) -> int:
        """Number of segments."""
        return len(self.x1)

    def segment(self, i: int) -> tuple[float, float, float, float]:
        """Endpoints of segment ``i`` as plain floats."""
        return (
            float(self.x1[i]),
            float(self.y1[i]),
            float(self.x2[i]),
            float(self.y2[i]),
        )

    def segment_mbr(self, i: int) -> MBR:
        """MBR of segment ``i``."""
        return MBR.from_segment(*self.segment(i))

    def centers(self) -> tuple[np.ndarray, np.ndarray]:
        """Center points of every segment's MBR (Hilbert sort keys use these)."""
        return (self.x1 + self.x2) / 2.0, (self.y1 + self.y2) / 2.0

    def subset(self, ids: Sequence[int] | np.ndarray, name: str | None = None) -> "SegmentDataset":
        """A new dataset containing only the segments in ``ids``.

        The returned dataset re-derives its extent from the subset.  Used by
        the insufficient-memory path, where the server ships a spatially
        proximate slice of the master dataset to the client.
        """
        idx = np.asarray(ids, dtype=np.intp)
        if idx.size == 0:
            raise ValueError("subset() requires at least one segment id")
        return SegmentDataset(
            name=name if name is not None else f"{self.name}-subset",
            x1=self.x1[idx],
            y1=self.y1[idx],
            x2=self.x2[idx],
            y2=self.y2[idx],
            costs=self.costs,
        )

    # ------------------------------------------------------------------
    # Byte-size model
    # ------------------------------------------------------------------
    def data_bytes(self, count: int | None = None) -> int:
        """Stored size of ``count`` segments (whole dataset by default)."""
        n = self.size if count is None else count
        return n * self.costs.segment_record_bytes

    def id_bytes(self, count: int) -> int:
        """Wire size of a list of ``count`` object identifiers."""
        return count * self.costs.object_id_bytes
