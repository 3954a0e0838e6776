"""Grid primitives: neighborhoods, flood fill and connected-component labeling.

Coordinates are ``(x, y)`` pairs on a ``width x height`` grid; arrays are
indexed ``[y, x]``. Everything outside the grid counts as background.
"""

from __future__ import annotations

from collections import deque

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


def flood(region: np.ndarray, start, steps) -> np.ndarray:
    """Voxels of the boolean array ``region`` reachable from ``start = (x, y)``.

    Breadth-first fill moving by the offsets in ``steps``, such as
    ``NEIGHBOR_STEPS_4`` or ``NEIGHBOR_STEPS_8``. Returns a boolean mask,
    empty when ``start`` is not in ``region``. Arguments are not validated,
    since callers run it in inner loops.
    """
    h, w = region.shape
    x, y = start
    out = np.zeros((h, w), dtype=bool)
    if not region[y, x]:
        return out
    out[y, x] = True
    queue = deque([(x, y)])
    while queue:
        cx, cy = queue.popleft()
        for dx, dy in steps:
            px, py = cx + dx, cy + dy
            if 0 <= px < w and 0 <= py < h and region[py, px] and not out[py, px]:
                out[py, px] = True
                queue.append((px, py))
    return out


def is_connected(region: np.ndarray, steps=NEIGHBOR_STEPS_4) -> bool:
    """True when ``region`` is nonempty and one piece under ``steps``."""
    ys, xs = np.nonzero(region)
    return xs.size > 0 and int(flood(region, (int(xs[0]), int(ys[0])), steps).sum()) == xs.size


def connected_components(mask, connectivity: int = 4) -> tuple[np.ndarray, int]:
    """Label connected components of a boolean mask.

    Uses a two-pass run-based union-find. Components are numbered
    ``1..count`` in order of first encounter in a row-major scan, so the
    numbering is deterministic; background voxels get label 0.

    Returns ``(labels, count)`` with ``labels`` an int32 array of the same
    shape as ``mask``.
    """
    m = check_mask(mask)
    conn = check_connectivity(connectivity)
    h, w = m.shape
    labels = np.zeros((h, w), dtype=np.int32)

    parent: list[int] = []

    def find(i: int) -> int:
        # path halving
        while parent[i] != i:
            parent[i] = parent[parent[i]]
            i = parent[i]
        return i

    def union(i: int, j: int) -> None:
        ri, rj = find(i), find(j)
        if ri != rj:
            if ri < rj:
                parent[rj] = ri
            else:
                parent[ri] = rj

    # Runs touch across rows when their column intervals [s, e) overlap;
    # 8-connectivity widens the window by one column on each side.
    slack = 0 if conn == 4 else 1

    rows_runs: list[list[tuple[int, int, int]]] = []
    prev_runs: list[tuple[int, int, int]] = []
    for y in range(h):
        row = m[y]
        true_cols = np.flatnonzero(row)
        cur_runs: list[tuple[int, int, int]] = []
        if true_cols.size:
            breaks = np.flatnonzero(np.diff(true_cols) > 1)
            starts = np.concatenate(([0], breaks + 1))
            ends = np.concatenate((breaks, [true_cols.size - 1]))
            for si, ei in zip(starts, ends):
                s = int(true_cols[si])
                e = int(true_cols[ei]) + 1
                rid = len(parent)
                parent.append(rid)
                cur_runs.append((s, e, rid))
        j = 0
        for s, e, rid in cur_runs:
            while j < len(prev_runs) and prev_runs[j][1] <= s - slack:
                j += 1
            jj = j
            while jj < len(prev_runs) and prev_runs[jj][0] < e + slack:
                union(rid, prev_runs[jj][2])
                jj += 1
        rows_runs.append(cur_runs)
        prev_runs = cur_runs

    # Renumber roots in order of first encounter; run ids were created in
    # row-major order, so the first run of a component fixes its number.
    numbering: dict[int, int] = {}
    count = 0
    for rid in range(len(parent)):
        root = find(rid)
        if root not in numbering:
            count += 1
            numbering[root] = count

    for y, cur_runs in enumerate(rows_runs):
        for s, e, rid in cur_runs:
            labels[y, s:e] = numbering[find(rid)]

    return labels, count
