"""Exact Euclidean distance transform of a binary mask.

Distances are measured voxel center to voxel center, and the background
includes the virtual voxels just outside the grid, so every true voxel gets
a distance of at least 1. The transform is exact: squared distances are
computed in integer arithmetic, one pass per axis. The vertical pass finds
each voxel's row distance ``g`` to the nearest background in its column.
The row pass then needs ``min over p of (x - p)^2 + g[y, p]^2``. From
``f_0 = g^2`` it steps ``f_i(x) = min(f_{i-1}(x), min(f_{i-1}(x - 1),
f_{i-1}(x + 1)) + 2i - 1)``, the odd-increment erosion of Lotufo &
Zampirolli (SIBGRAPI 2001). So ``f_i(x)`` is that minimum over
``|x - p| <= i``: column ``x + i`` reaches ``x`` through ``x + 1``, adding
``(i - 1)^2 + 2i - 1 = i^2`` to its ``g^2``, and no candidate through a
neighbour undercuts its column's own term. No column farther than ``g[y, x]`` beats ``p = x``, and
an off-grid column lies within ``w + 1``, so a block of rows steps at most
to the smaller of its deepest ``g`` and ``w + 1``. It also stops at the
first power-of-two step that improves no voxel: each voxel is then within
``2i - 1`` of its neighbours, and every later step adds more. A block's
rows lie end to end in one flat array, a zero before every row and after
the last, so a step is three contiguous numpy calls. Each zero is the
off-grid column of both rows beside it; a column past it is farther and
no smaller, so rows never mix.

Both passes run on the bounding box of the true voxels only. This is exact:
the box's own off-array ring is background, just as the grid's is, and any
background voxel farther out is no closer to a voxel in the box than its
projection onto that ring.
"""

from __future__ import annotations

import numpy as np

from .grid import _box
from .validation import check_mask

# Rows per row-pass block: a block steps only as far as its own voxels
# need, so shallow rows do not pay for deep ones.
_BLOCK = 32


def euclidean_distance_map(mask) -> np.ndarray:
    """Distance from each true voxel to the nearest background voxel.

    Background voxels (including everything off the grid) map to 0. The
    result is the exact Euclidean distance, not a chamfer approximation.

    Raises
    ------
    ValidationError
        If the mask contains no true voxel.
    """
    m = check_mask(mask, require_nonempty=True)
    box = _box(m)
    out = np.zeros(m.shape)
    np.sqrt(_squared_distance_map(m[box]), out=out[box])
    return out


def _squared_distance_map(mask: np.ndarray) -> np.ndarray:
    h, w = mask.shape

    # Vertical pass: per column, row distance to the nearest background,
    # counting the off-grid rows -1 and h just above and below the grid: the
    # nearest background row at or above each voxel, and at or below it.
    rows = np.arange(h, dtype=np.int64)[:, None]
    above = np.maximum.accumulate(np.where(mask, -1, rows), axis=0)
    below = np.minimum.accumulate(np.where(mask, h, rows)[::-1], axis=0)[::-1]
    g = np.minimum(rows - above, below - rows)

    # Row pass, in place over g, one block of rows at a time: f holds the
    # block's rows of g^2 with a zero before each and after the last.
    for y0 in range(0, h, _BLOCK):
        blk = g[y0:y0 + _BLOCK]
        r = min(int(blk.max()), w + 1)
        f = np.zeros(blk.size + blk.shape[0] + 1, dtype=np.int64)
        cells = f[1:].reshape(-1, w + 1)[:, :w]
        np.multiply(blk, blk, out=cells)
        mid, t = f[1:-1], np.empty(f.size - 2, dtype=np.int64)
        for i in range(1, r + 1):
            np.minimum(f[:-2], f[2:], out=t)
            t += 2 * i - 1
            if i & (i - 1) == 0 and not (t < mid).any():
                break
            np.minimum(mid, t, out=mid)
        blk[...] = cells
    return g
