"""Grid primitives: neighborhoods and connected-component labeling.

Coordinates are ``(x, y)`` pairs on a ``width x height`` grid; arrays are
indexed ``[y, x]``. Everything outside the grid counts as background.
Every connectivity question in the library (is a region one piece, which
pieces does a cut leave, which band voxels reach the anchor) is answered
by the one run-based labeling in ``connected_components``.
"""

from __future__ import annotations

import numpy as np

from .validation import check_connectivity, check_coord, check_dims, check_mask

# Fixed neighbor order: N, S, W, E, then NW, NE, SW, SE. All tie-breaking
# over neighbors anywhere in the library follows this order.
NEIGHBOR_STEPS_4 = ((0, -1), (0, 1), (-1, 0), (1, 0))
NEIGHBOR_STEPS_8 = NEIGHBOR_STEPS_4 + ((-1, -1), (1, -1), (-1, 1), (1, 1))


def neighbors(coord, dims, connectivity: int = 4) -> list[tuple[int, int]]:
    """In-bounds neighbors of ``coord`` on a ``dims = (width, height)`` grid.

    The result order is fixed (north, south, west, east, then the four
    diagonals for 8-connectivity), with out-of-bounds positions skipped.
    """
    width, height = check_dims(dims)
    x, y = check_coord(coord, (height, width))
    conn = check_connectivity(connectivity)
    steps = NEIGHBOR_STEPS_4 if conn == 4 else NEIGHBOR_STEPS_8
    return [
        (x + dx, y + dy)
        for dx, dy in steps
        if 0 <= x + dx < width and 0 <= y + dy < height
    ]


def is_connected(region: np.ndarray) -> bool:
    """True when ``region`` is nonempty and 4-connected."""
    return connected_components(region)[1] == 1


def connected_components(mask, connectivity: int = 4) -> tuple[np.ndarray, int]:
    """Label connected components of a boolean mask.

    Run-based labeling over the whole array: every row run is found at once,
    each run is joined to the runs it touches on the row above, and the
    labels are painted run by run. Components are numbered ``1..count`` in
    order of first encounter in a row-major scan, so the numbering is
    deterministic; background voxels get label 0.

    Returns ``(labels, count)`` with ``labels`` an int32 array of the same
    shape as ``mask``.
    """
    m = check_mask(mask)
    conn = check_connectivity(connectivity)
    h, w = m.shape
    labels = np.zeros((h, w), dtype=np.int32)

    # Runs [start, end) per row, in row-major order, from the edges of the
    # rows padded with background on both sides.
    edges = np.diff(np.pad(m, ((0, 0), (1, 1))).view(np.int8), axis=1)
    rows, starts = np.nonzero(edges == 1)
    ends = np.nonzero(edges == -1)[1]

    # Runs touch across rows when their column intervals overlap; 8-connectivity
    # widens the window by one column on each side. On keys row * (w + 2) + col,
    # one search per side finds the slice [lo, hi) of touching runs one row up.
    slack = 0 if conn == 4 else 1
    pitch = w + 2
    above = (rows - 1) * pitch
    lo = np.searchsorted(rows * pitch + ends, above + starts - slack, side="right")
    hi = np.searchsorted(rows * pitch + starts, above + ends + slack, side="left")

    # Union-find over runs; each root is the earliest run of its component.
    parent = list(range(rows.size))

    def find(i: int) -> int:
        while parent[i] != i:
            parent[i] = parent[parent[i]]  # path halving
            i = parent[i]
        return i

    touching = np.flatnonzero(lo < hi)
    for i, a, b in zip(touching.tolist(), lo[touching].tolist(), hi[touching].tolist()):
        root = find(a)
        for j in range(a + 1, b):
            other = find(j)
            if other != root:
                root, other = min(root, other), max(root, other)
                parent[other] = root
        parent[i] = root

    roots, run_label = np.unique([find(i) for i in range(rows.size)], return_inverse=True)
    # True voxels in row-major order are the runs in order.
    labels[m] = np.repeat(run_label.astype(np.int32) + 1, ends - starts)
    return labels, int(roots.size)
