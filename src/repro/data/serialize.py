"""Wire/storage encoding of segments, object references and indexes.

The cost model prices messages by a byte-size model
(:class:`repro.constants.CostModel`): 76 B per stored segment record, 16 B
per object reference, 20 B per index entry.  This module makes those
numbers *real*: it defines the actual binary layouts and encodes/decodes
them, and the tests assert that the encoded sizes equal the modeled sizes —
so a layout change that breaks the calibration fails loudly.

Layouts (little-endian):

* **Segment record** (76 B): 4 x float32 endpoint coordinates (16 B),
  uint32 id (4 B), 56 B fixed-width name/attribute payload.
* **Object reference** (16 B): uint32 id plus the 4-coordinate MBR
  quantized to 3 bytes per coordinate on the dataset grid (24-bit cells —
  the same quantization the index MBR tests run on).
* **Index entry** (20 B): 4 x float32 MBR + uint32 child pointer.
* **Index node** (8 B header): uint16 level, uint16 count, uint32 first
  child offset.
"""

from __future__ import annotations

import struct
from typing import List, Sequence, Tuple

from repro.data.model import SegmentDataset
from repro.data.tiger import street_name
from repro.spatial.mbr import MBR
from repro.spatial.rtree import PackedRTree

__all__ = [
    "encode_segment",
    "decode_segment",
    "encode_object_ref",
    "decode_object_ref",
    "encode_segments",
    "encode_object_refs",
    "encode_index",
    "quantize_coord",
    "dequantize_coord",
]

_SEGMENT_STRUCT = struct.Struct("<4fI56s")
_REF_STRUCT = struct.Struct("<I12s")
_ENTRY_STRUCT = struct.Struct("<4fI")
_NODE_HEADER_STRUCT = struct.Struct("<HHI")

#: 24-bit quantization grid per axis.
_QUANT_CELLS = (1 << 24) - 1


def quantize_coord(value: float, lo: float, hi: float) -> int:
    """Map ``value`` in ``[lo, hi]`` onto the 24-bit grid (clamping)."""
    if hi <= lo:
        raise ValueError("quantization interval must have positive width")
    t = (value - lo) / (hi - lo)
    return max(0, min(_QUANT_CELLS, int(round(t * _QUANT_CELLS))))


def dequantize_coord(q: int, lo: float, hi: float) -> float:
    """Inverse of :func:`quantize_coord` (to grid-cell precision)."""
    return lo + (q / _QUANT_CELLS) * (hi - lo)


# ----------------------------------------------------------------------
# Segment records
# ----------------------------------------------------------------------
def encode_segment(ds: SegmentDataset, seg_id: int) -> bytes:
    """One 76-byte segment record, with its synthetic name payload."""
    x1, y1, x2, y2 = ds.segment(seg_id)
    name = street_name(seg_id).encode("utf-8")[:56].ljust(56, b"\0")
    return _SEGMENT_STRUCT.pack(x1, y1, x2, y2, seg_id, name)


def decode_segment(blob: bytes) -> Tuple[float, float, float, float, int, str]:
    """Decode a segment record; returns coords, id and name."""
    x1, y1, x2, y2, seg_id, name = _SEGMENT_STRUCT.unpack(blob)
    return (x1, y1, x2, y2, seg_id, name.rstrip(b"\0").decode("utf-8"))


def encode_segments(ds: SegmentDataset, ids: Sequence[int]) -> bytes:
    """A data-items message body: concatenated segment records."""
    return b"".join(encode_segment(ds, int(i)) for i in ids)


# ----------------------------------------------------------------------
# Object references
# ----------------------------------------------------------------------
def encode_object_ref(ds: SegmentDataset, seg_id: int) -> bytes:
    """One 16-byte object reference: id + quantized MBR."""
    mbr = ds.segment_mbr(seg_id)
    ext = ds.extent
    qx1 = quantize_coord(mbr.xmin, ext.xmin, ext.xmax)
    qy1 = quantize_coord(mbr.ymin, ext.ymin, ext.ymax)
    qx2 = quantize_coord(mbr.xmax, ext.xmin, ext.xmax)
    qy2 = quantize_coord(mbr.ymax, ext.ymin, ext.ymax)
    packed = (
        qx1.to_bytes(3, "little")
        + qy1.to_bytes(3, "little")
        + qx2.to_bytes(3, "little")
        + qy2.to_bytes(3, "little")
    )
    return _REF_STRUCT.pack(seg_id, packed)


def decode_object_ref(
    blob: bytes, extent: MBR
) -> Tuple[int, MBR]:
    """Decode an object reference to its id and (grid-precision) MBR."""
    seg_id, packed = _REF_STRUCT.unpack(blob)
    qs = [int.from_bytes(packed[i : i + 3], "little") for i in (0, 3, 6, 9)]
    return seg_id, MBR(
        dequantize_coord(qs[0], extent.xmin, extent.xmax),
        dequantize_coord(qs[1], extent.ymin, extent.ymax),
        dequantize_coord(qs[2], extent.xmin, extent.xmax),
        dequantize_coord(qs[3], extent.ymin, extent.ymax),
    )


def encode_object_refs(ds: SegmentDataset, ids: Sequence[int]) -> bytes:
    """A candidate/result-id message body: concatenated references."""
    return b"".join(encode_object_ref(ds, int(i)) for i in ids)


# ----------------------------------------------------------------------
# Index
# ----------------------------------------------------------------------
def encode_index(tree: PackedRTree) -> bytes:
    """Serialize a packed R-tree: per node, an 8-byte header plus its
    occupied 20-byte entries.

    The encoded length equals :meth:`PackedRTree.index_bytes` exactly
    (property-tested) — the number the extraction-shipment budgeting and
    the broadcast chunk sizing rely on.
    """
    out: List[bytes] = []
    for node in range(tree.node_count):
        level = int(tree.node_level[node])
        start = int(tree.node_child_start[node])
        count = int(tree.node_child_count[node])
        out.append(_NODE_HEADER_STRUCT.pack(level, count, start))
        for off in range(start, start + count):
            if level == 0:
                out.append(
                    _ENTRY_STRUCT.pack(
                        tree.entry_xmin[off],
                        tree.entry_ymin[off],
                        tree.entry_xmax[off],
                        tree.entry_ymax[off],
                        int(tree.entry_ids[off]),
                    )
                )
            else:
                out.append(
                    _ENTRY_STRUCT.pack(
                        tree.node_xmin[off],
                        tree.node_ymin[off],
                        tree.node_xmax[off],
                        tree.node_ymax[off],
                        off,
                    )
                )
    return b"".join(out)
