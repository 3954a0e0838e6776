"""Exact Euclidean distance transform of a binary mask.

Distances are measured voxel center to voxel center, and the background
includes the virtual voxels just outside the grid, so every true voxel gets
a distance of at least 1. The transform is exact: squared distances are
computed in integer arithmetic, one pass per axis. The vertical pass finds
each voxel's row distance ``g`` to the nearest background in its column.
The row pass then takes the definition itself,
``min over p of (x - p)^2 + g[y, p]^2``, over a window of columns: the term
``p = x`` already gives ``g[y, x]^2``, so a column can only do better when
``|x - p| <= g[y, x]``, and a window as wide as the deepest ``g`` in the
rows at hand misses no candidate.

Both passes run on the bounding box of the true voxels only. This is exact:
the box's own off-array ring is background, just as the grid's is, and any
background voxel farther out is no closer to a voxel in the box than its
projection onto that ring.
"""

from __future__ import annotations

import numpy as np

from .grid import _box
from .validation import check_mask

# Rows per row-pass block: each block scans only as far as its own deepest
# voxel needs, so shallow rows do not pay for the deep ones.
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

    # Row pass, in place over g. Padding each block with r zero columns per
    # side puts the off-grid background at columns -1 and w; the zero
    # columns beyond those are farther from every voxel, so they never win.
    # The off-grid columns are within w + 1 of every voxel, which caps r.
    for y0 in range(0, h, _BLOCK):
        blk = g[y0:y0 + _BLOCK]
        r = min(int(blk.max()), w + 1)
        padded = np.zeros((blk.shape[0], w + 2 * r), dtype=np.int64)
        np.multiply(blk, blk, out=padded[:, r:r + w])
        blk[...] = padded[:, r:r + w]
        tmp = np.empty_like(blk)
        for d in range(1, r + 1):
            for lo in (r - d, r + d):
                np.add(padded[:, lo:lo + w], d * d, out=tmp)
                np.minimum(blk, tmp, out=blk)
    return g
