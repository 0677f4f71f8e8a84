"""Traversal orders over block grids: AnyOrder / DepthFirst / PMTiles.

Port of the reference's traversal ordering semantics
(versatiles_core/src/traversal/order.rs:17-120, main.rs traverse_pyramid):
a pyramid is split into <= size x size blocks per level
(TileBBox.iter_grid) and the block sequence is ordered:

- ANY: input order (levels ascending, row-major in each level);
- DEPTH_FIRST: quadtree path key of (x_min/size, y_min/size), MSB
  first, with sentinel 4 — children precede their parent block;
- PMTILES: Hilbert index of the block's (level, x_min, y_min).

In the Ray engine this is metadata ordering: sinks that demand an
order (pmtiles-like) sort by the corresponding key column; the
translation machinery (Push/Pop caches, processing.rs:46-95) is
replaced by shuffles. Golden-tested against main.rs:184-300.
"""

from __future__ import annotations

from .bbox import TileBBoxPyramid
from .coords import hilbert_index

ANY = "any"
DEPTH_FIRST = "depth_first"
PMTILES = "pmtiles"


def intersect_orders(a: str, b: str) -> str:
    """Merge two order requirements (order.rs:56-67): ANY yields to the
    other; two different concrete orders are incompatible."""
    if a == b or b == ANY:
        return a
    if a == ANY:
        return b
    raise ValueError(f"Incompatible traversal orders: {a} vs {b}")


def _depth_first_key(bbox, size: int):
    key = []
    bx = bbox.x_min // size
    by = bbox.y_min // size
    for i in range(bbox.level - 1, -1, -1):
        key.append(((bx >> i) & 1) | (((by >> i) & 1) << 1))
    key.append(4)  # sentinel: parents sort after their children
    return key


def traverse_pyramid(pyramid: TileBBoxPyramid, order: str = ANY, size: int = 256):
    """Pyramid -> ordered list of block TileBBoxes."""
    blocks = []
    for z in sorted(pyramid.level_bbox):
        bb = pyramid.level_bbox[z]
        if not bb.is_empty:
            blocks.extend(bb.iter_grid(size))
    if order == ANY:
        return blocks
    if order == DEPTH_FIRST:
        return sorted(blocks, key=lambda b: _depth_first_key(b, size))
    if order == PMTILES:
        return sorted(blocks, key=lambda b: int(hilbert_index(b.level, b.x_min, b.y_min)))
    raise ValueError(f"unknown traversal order {order!r}")


