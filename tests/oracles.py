"""Independent reference implementations used only to check the library.

These deliberately share no code with shapesplit: the distance oracle is a
direct minimum over all background voxels, the component oracle is a plain
BFS flood fill, the Euler number counts flood-filled components and holes,
the bit-quad sum and label adjacency are plain loops over the grid, and the
arrival-time oracle is a Gauss-Seidel sweeping iteration run to its fixed
point.
"""

from __future__ import annotations

import math
from collections import deque

import numpy as np


def brute_force_distance_map(mask) -> np.ndarray:
    """Min Euclidean distance to any background voxel, O(n^2).

    The grid is padded with one ring of background so that off-grid
    voxels count, matching the library's convention.
    """
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    padded = np.pad(m, 1, constant_values=False)
    bys, bxs = np.nonzero(~padded)
    bg = np.stack([bxs, bys], axis=1).astype(np.int64)

    out = np.zeros((h, w), dtype=np.float64)
    tys, txs = np.nonzero(m)
    pts = np.stack([txs + 1, tys + 1], axis=1).astype(np.int64)
    best = np.empty(len(pts), dtype=np.int64)
    step = max(1, 2**20 // len(bg))  # about a million pairs per chunk, whatever the canvas
    for i in range(0, len(pts), step):
        chunk = pts[i : i + step]
        d2 = (chunk[:, None, 0] - bg[None, :, 0]) ** 2 + (chunk[:, None, 1] - bg[None, :, 1]) ** 2
        best[i : i + step] = d2.min(axis=1)
    out[tys, txs] = np.sqrt(best.astype(np.float64))
    return out


def flood_fill_components(mask, connectivity: int = 4) -> tuple[np.ndarray, int]:
    """BFS flood-fill labeling, first encounter in row-major order."""
    m = np.asarray(mask, dtype=bool)
    h, w = m.shape
    if connectivity == 4:
        steps = ((0, -1), (0, 1), (-1, 0), (1, 0))
    else:
        steps = ((0, -1), (0, 1), (-1, 0), (1, 0), (-1, -1), (1, -1), (-1, 1), (1, 1))
    labels = np.zeros((h, w), dtype=np.int32)
    count = 0
    for y in range(h):
        for x in range(w):
            if not m[y, x] or labels[y, x]:
                continue
            count += 1
            labels[y, x] = count
            queue = deque([(x, y)])
            while queue:
                cx, cy = queue.popleft()
                for dx, dy in steps:
                    px, py = cx + dx, cy + dy
                    if 0 <= px < w and 0 <= py < h and m[py, px] and not labels[py, px]:
                        labels[py, px] = count
                        queue.append((px, py))
    return labels, count


def euler_number(region) -> int:
    """4-connectivity Euler number: 4-connected components minus holes.

    A hole is an 8-connected background component that does not reach the
    outside of the grid.
    """
    r = np.asarray(region, dtype=bool)
    _, components = flood_fill_components(r, 4)
    _, background = flood_fill_components(~np.pad(r, 1), 8)
    return components - (background - 1)


def bit_quad_sum(region) -> int:
    """Gray's bit-quad sum over the 2x2 windows of the padded grid, window by window.

    A window holding one region voxel adds 1, three subtract 1, and two on a
    diagonal add 2; the sum is four times the 4-connectivity Euler number.
    """
    p = np.pad(np.asarray(region, dtype=bool), 1).astype(int).tolist()
    total = 0
    for y in range(len(p) - 1):
        for x in range(len(p[0]) - 1):
            a, b, c, d = p[y][x], p[y][x + 1], p[y + 1][x], p[y + 1][x + 1]
            n = a + b + c + d
            total += {1: 1, 3: -1}.get(n, 0) + (2 if n == 2 and a == d else 0)
    return total


def adjacent_label_pairs(labels) -> dict[tuple[int, int], int]:
    """Count of 4-adjacent voxel pairs per label pair ``(a, b)``, ``a <= b``."""
    lab = np.asarray(labels).tolist()
    h, w = len(lab), len(lab[0])
    pairs: dict[tuple[int, int], int] = {}
    for y in range(h):
        for x in range(w):
            for py, px in ((y, x + 1), (y + 1, x)):
                if py < h and px < w:
                    key = tuple(sorted((lab[y][x], lab[py][px])))
                    pairs[key] = pairs.get(key, 0) + 1
    return pairs


def sweep_arrival(potential, domain, source, max_rounds: int = 1000) -> np.ndarray:
    """Fixed point of the upwind update by Gauss-Seidel sweeps.

    Four alternating sweep orders per round; stops when a full round
    changes nothing, i.e. at the exact fixed point of the discrete system.
    """
    pot = np.asarray(potential, dtype=np.float64)
    dom = np.asarray(domain, dtype=bool)
    h, w = dom.shape
    sx, sy = source
    u = np.full((h, w), math.inf)
    u[sy, sx] = 0.0

    orders = [
        (range(h), range(w)),
        (range(h), range(w - 1, -1, -1)),
        (range(h - 1, -1, -1), range(w)),
        (range(h - 1, -1, -1), range(w - 1, -1, -1)),
    ]
    for _ in range(max_rounds):
        changed = False
        for ys, xs in orders:
            for y in ys:
                for x in xs:
                    if not dom[y, x] or (x == sx and y == sy):
                        continue
                    a = min(
                        u[y, x - 1] if x > 0 else math.inf,
                        u[y, x + 1] if x < w - 1 else math.inf,
                    )
                    b = min(
                        u[y - 1, x] if y > 0 else math.inf,
                        u[y + 1, x] if y < h - 1 else math.inf,
                    )
                    if a > b:
                        a, b = b, a
                    if math.isinf(a):
                        continue  # no finite neighbor yet
                    v = pot[y, x]
                    if b - a >= v:
                        new = a + v
                    else:
                        new = 0.5 * (a + b + math.sqrt(2.0 * v * v - (a - b) * (a - b)))
                    if new < u[y, x]:
                        u[y, x] = new
                        changed = True
        if not changed:
            break
    return u
