"""Subdivision of a connected region into equal-area, shape-following parts.

Cuts are one-voxel-thick digital lines placed perpendicular to the
centerline at evenly spaced path positions. Each cut severs the region;
labeling walks the cuts in centerline order, assigning the piece behind
every cut before moving on. A balancing pass then equalizes the region
areas by exchanging border voxels, and trims the division remainder from
the last region so that all areas come out exactly equal. It keeps the
areas, Euler numbers, adjacency and boxes of the parts up to date voxel by
voxel, so no exchange rescans the grid.

Regions use 4-connectivity, paths and cut bands 8-connectivity; an
8-connected band 4-separates the plane, which is what makes one-voxel cuts
sufficient.
"""

from __future__ import annotations

from itertools import islice
from typing import NamedTuple

import numpy as np

from .centerline import DEFAULT_EXPONENT, CenterlineResult, _extract_full
from .exceptions import BalanceError, CutError, ValidationError
from .grid import connected_components, is_connected
from .validation import (
    _as_int,
    check_coord,
    check_labelmap,
    check_mask,
    check_path,
    check_positive_int,
    check_scalar_field,
)


class Cut(NamedTuple):
    """A planned perpendicular cut: path position, voxel, and direction."""

    index: int
    anchor: tuple[int, int]
    normal: tuple[int, int]


def _tangent(pts: list[tuple[int, int]], i: int) -> tuple[int, int]:
    """``normal_at`` on a path and interior index that are already validated."""
    dx = pts[i + 1][0] - pts[i - 1][0]
    dy = pts[i + 1][1] - pts[i - 1][1]
    return dx, dy


def normal_at(path, i: int) -> tuple[int, int]:
    """Direction of the path at interior index ``i``.

    Computed from the two surrounding voxels as
    ``(x[i+1] - x[i-1], y[i+1] - y[i-1])``; the perpendicular cut at ``i``
    consists of the voxels whose offset from the anchor is orthogonal to
    this vector.
    """
    pts = check_path(path)
    try:
        i = _as_int(i)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"path index must be an integer, got {i!r}") from None
    if not 1 <= i <= len(pts) - 2:
        raise ValidationError(f"index {i} needs two path neighbors (valid range 1..{len(pts) - 2})")
    return _tangent(pts, i)


def sample_cut_points(path, k: int) -> list[Cut]:
    """Plan ``k - 1`` cuts at evenly spaced positions along ``path``.

    Anchor indices are ``round(j * (L - 1) / k)`` for ``j = 1..k-1``
    (half-up rounding, exact integer arithmetic). The path must have at
    least ``2k + 1`` voxels so every anchor is interior and cuts are
    distinct; ``k = 1`` yields an empty plan.
    """
    pts = check_path(path)
    k = check_positive_int(k, "k")
    length = len(pts)
    # k = 1 needs no anchors, so any path length is fine
    if k > 1 and length < 2 * k + 1:
        raise ValidationError(
            f"k too large for region (centerline has {length} voxels, need at least {2 * k + 1})"
        )
    plan = []
    for j in range(1, k):
        idx = (2 * j * (length - 1) + k) // (2 * k)
        plan.append(Cut(index=idx, anchor=pts[idx], normal=_tangent(pts, idx)))
    return plan


def _band_mask(region: np.ndarray, anchor, normal) -> np.ndarray:
    """Digital-line band through ``anchor`` perpendicular to ``normal``.

    Voxels p of ``region`` with |normal . (p - anchor)| <= max(|nx|, |ny|)/2
    form the thinnest 4-separating line; of those, only the 8-connected
    piece containing the anchor is returned, so far-away lobes that happen
    to fall on the same line are untouched.
    """
    ax, ay = anchor
    nx, ny = float(normal[0]), float(normal[1])
    h, w = region.shape
    xs = np.arange(w, dtype=np.float64) - ax
    ys = np.arange(h, dtype=np.float64) - ay
    dot = nx * xs[None, :] + ny * ys[:, None]
    line = region & (2.0 * np.abs(dot) <= max(abs(nx), abs(ny)))
    comps, _ = connected_components(line, connectivity=8)
    return comps == comps[ay, ax]


def cut_band(mask, anchor, normal) -> set[tuple[int, int]]:
    """Voxels of the one-voxel-thick cut through ``anchor``.

    Only voxels 8-connected to the anchor within the band are included.
    """
    m = check_mask(mask, require_nonempty=True)
    x, y = check_coord(anchor, m.shape)
    if not m[y, x]:
        raise ValidationError(f"anchor ({x}, {y}) is not a true voxel of the mask")
    try:
        nx, ny = (float(v) for v in normal)
    except (TypeError, ValueError):
        raise ValidationError(f"cut normal must be an (nx, ny) pair, got {normal!r}") from None
    if not np.isfinite((nx, ny)).all() or nx == ny == 0:
        raise ValidationError(f"cut normal must be finite and nonzero, got {normal!r}")
    band = _band_mask(m, (x, y), (nx, ny))
    ys, xs = np.nonzero(band)
    return {(int(px), int(py)) for px, py in zip(xs, ys)}


def _shift_sequence(max_shift: int):
    yield 0
    for step in range(1, max_shift + 1):
        yield step
        yield -step


def subdivide(mask, path, plan: list[Cut]) -> np.ndarray:
    """Label the region into ``len(plan) + 1`` parts along the centerline.

    Cuts are applied in order on a shrinking working mask. After removing a
    cut band, the 4-connected component holding the earliest centerline
    voxel that is still unlabeled gets the next label; the band voxels join
    it (cut voxels belong to the earlier side). The remainder after the
    last cut gets the final label. ``plan`` holds ``(index, anchor, normal)``
    triples, as ``sample_cut_points`` returns them, whose path indices
    increase strictly within ``1..L-2`` and whose anchor and normal are the
    path voxel and ``normal_at`` direction at that index.

    If a band fails to split the working mask, the anchor is shifted along
    the path by +-1, +-2, ... up to a quarter of the per-region path
    share, recomputing the direction each time, before giving up.
    """
    m = check_mask(mask, require_nonempty=True)
    pts = check_path(path)
    h, w = m.shape
    _, count = connected_components(m, connectivity=4)
    if count != 1:
        raise ValidationError(f"region not connected ({count} components)")
    for px, py in pts:
        if not (0 <= px < w and 0 <= py < h) or not m[py, px]:
            raise ValidationError(f"path voxel ({px}, {py}) lies outside the region")
    try:
        cuts = [(_as_int(index), tuple(anchor), tuple(normal)) for index, anchor, normal in plan]
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("plan entries must be (index, anchor, normal) with an integer index") from None
    indices = [index for index, _, _ in cuts]
    if indices and any(a >= b for a, b in zip([0, *indices], [*indices, len(pts) - 1])):
        raise ValidationError(f"cut indices {indices} must increase strictly within 1..{len(pts) - 2}")
    for index, anchor, normal in cuts:
        if (anchor, normal) != (pts[index], _tangent(pts, index)):
            raise ValidationError(f"cut anchor {anchor} and normal {normal} do not match path index {index}")
    return _subdivide(m, pts, indices)


def _subdivide(m: np.ndarray, pts: list[tuple[int, int]], indices: list[int]) -> np.ndarray:
    """``subdivide`` on a one-region mask, a path in it, and cut indices, all validated."""
    # Cut on the region's bounding box, writing through to the full label
    # map: row-major order there is the grid's, so components number alike.
    ys, xs = np.nonzero(m)
    y0, x0 = int(ys.min()), int(xs.min())
    box = np.s_[y0 : int(ys.max()) + 1, x0 : int(xs.max()) + 1]
    pts = [(px - x0, py - y0) for px, py in pts]
    path_x, path_y = np.array(pts).T
    length = len(pts)
    k = len(indices) + 1
    max_shift = length // (4 * k)
    full = np.zeros(m.shape, dtype=np.int32)
    labels = full[box]
    working = m[box].copy()

    for j, index in enumerate(indices, start=1):
        chosen = None
        fallback = None
        for shift in _shift_sequence(max_shift):
            i = index + shift
            if not 1 <= i <= length - 2:
                continue
            ax, ay = pts[i]
            if not working[ay, ax]:
                continue
            band = _band_mask(working, (ax, ay), _tangent(pts, i))
            comps, ncomp = connected_components(working & ~band, connectivity=4)
            # Components along the path, in path order, the first behind the
            # cut; band voxels and labeled parts are off the working mask.
            along = comps[path_y, path_x]
            along = along[along > 0]
            if ncomp < 2 or along.size == 0:
                continue
            part = band | (comps == along[0])
            if fallback is None:
                fallback = part
            # Prefer a cut that (a) strands no component, since one holding no
            # centerline voxel can never be labeled by a later cut, and (b)
            # yields a 4-connected region once the band joins the behind side;
            # a diagonal band's tail can otherwise hang off the far side.
            if np.unique(along).size == ncomp and is_connected(part):
                chosen = part
                break
        if chosen is None:
            chosen = fallback
        if chosen is None:
            raise CutError(f"cut failed at segment {j}")
        labels[chosen] = j
        working &= ~chosen

    labels[working] = k
    return full


# The 8-neighbors of a voxel in ring order, clockwise from north: even
# positions are its 4-neighbors, odd positions the corners between them.
_RING = ((0, -1), (1, -1), (1, 0), (1, 1), (0, 1), (-1, 1), (-1, 0), (-1, -1))


def _ring_entry(pattern: int) -> tuple[int, int]:
    """Ring groups of a voxel, and the change of its region's quad sum as it joins.

    Bit i of ``pattern`` is set when ring position i is in the region. Two
    in-region 4-neighbors share a group when the corner between them is in
    the region too. Gray's bit-quad sum Q1 - Q3 + 2 QD, over the 2x2 windows
    holding one, three or two diagonal region voxels, is four times the
    4-connectivity Euler number; of it, only the voxel's four windows change.
    Window i holds ring positions 2i, 2i+1 and 2i+2, the corner diagonal, and
    changes by the entry at edge + 2 corner + 4 edge of (1, -1, 1, -1, -1, -3, -1, 1).
    """
    r = [pattern >> i & 1 for i in (0, 1, 2, 3, 4, 5, 6, 7, 0)]
    windows = [r[i : i + 3] for i in range(0, 8, 2)]
    joins = sum(a & b & c for a, b, c in windows)
    change = sum((1, -1, 1, -1, -1, -3, -1, 1)[a + 2 * b + 4 * c] for a, b, c in windows)
    return (1 if joins == 4 else sum(r[0:8:2]) - joins), change


_RING_TABLE = [_ring_entry(pattern) for pattern in range(256)]


class _Parts:
    """The parts of one balancing call, updated per moved voxel.

    ``lab`` is the labels' box padded with background, so a part voxel's
    neighbors need no bounds checks, and ``flat`` its row-major list. Per
    part: ``areas``, ``quads`` (the bit-quad sum of ``_ring_entry``, 4 iff no
    holes) and ``boxes`` ([y0, y1, x0, x1], grown and never shrunk, so
    covering the part). ``touch[a][b]`` counts 4-adjacent pairs labeled a, b.
    """

    def __init__(self, lab: np.ndarray, k: int):
        self.lab, self.flat, self.width = lab, lab.ravel().tolist(), lab.shape[1]
        self.ring = [(1 << i, dy * self.width + dx) for i, (dx, dy) in enumerate(_RING)]
        self.areas = np.bincount(lab.ravel(), minlength=k + 1).tolist()
        # A quad sum is what the voxels add joining their part in row-major order.
        inner, (h, w) = lab[1:-1, 1:-1], lab.shape
        before = [(i, dx, dy) for i, (dx, dy) in enumerate(_RING) if (dy, dx) < (0, 0)]
        pattern = sum((lab[1 + dy : h - 1 + dy, 1 + dx : w - 1 + dx] == inner) << i for i, dx, dy in before)
        quads = np.bincount(inner.ravel(), np.array(_RING_TABLE)[pattern, 1].ravel(), k + 1)
        pairs = ((lab[:, :-1], lab[:, 1:]), (lab[:-1], lab[1:]))
        touch = sum(np.bincount((a * (k + 1) + b).ravel(), minlength=(k + 1) ** 2) for a, b in pairs)
        touch = touch.reshape(k + 1, k + 1)
        self.quads, self.touch = quads.astype(int).tolist(), (touch + touch.T).tolist()
        spans = [[np.flatnonzero((lab == j).any(axis)) for axis in (1, 0)] for j in range(k + 1)]
        self.boxes = [[int(rows[0]), int(rows[-1]), int(cols[0]), int(cols[-1])] for rows, cols in spans]

    def part(self, j: int) -> tuple[np.ndarray, int, int]:
        """``(region, y0, x0)``: part ``j`` on its box, and the box's corner."""
        y0, y1, x0, x1 = self.boxes[j]
        return self.lab[y0 : y1 + 1, x0 : x1 + 1] == j, y0, x0

    def pattern(self, i: int, j: int) -> int:
        return sum(bit for bit, off in self.ring if self.flat[i + off] == j)

    def border(self, give: int, take: int) -> list[tuple[int, int]]:
        """Part ``give``'s voxels 4-adjacent to part ``take``, row-major as (y, x)."""
        (gy0, gy1, gx0, gx1), (ty0, ty1, tx0, tx1) = self.boxes[give], self.boxes[take]
        y0, y1, x0, x1 = max(gy0, ty0 - 1), min(gy1, ty1 + 1), max(gx0, tx0 - 1), min(gx1, tx1 + 1)
        win = self.lab[y0 - 1 : y1 + 2, x0 - 1 : x1 + 2]
        near = win == take
        near = near[:-2, 1:-1] | near[2:, 1:-1] | near[1:-1, :-2] | near[1:-1, 2:]
        ys, xs = np.nonzero((win[1:-1, 1:-1] == give) & near)
        return list(zip((ys + y0).tolist(), (xs + x0).tolist()))

    def move(self, y: int, x: int, take: int) -> None:
        """Relabel part voxel (y, x) to ``take``; 0 trims it."""
        i, flat, touch = y * self.width + x, self.flat, self.touch
        for j, sign in ((flat[i], -1), (take, 1)):
            self.areas[j] += sign
            self.quads[j] += sign * _RING_TABLE[self.pattern(i, j)][1]
            for v in [flat[i + off] for _, off in self.ring[::2]]:
                touch[j][v] += sign
                touch[v][j] += sign
        flat[i] = self.lab[y, x] = take
        box = self.boxes[take]
        box[:] = min(box[0], y), max(box[1], y), min(box[2], x), max(box[3], x)


def _removable(parts: _Parts, j: int, cand):
    """The voxels of ``cand``, as (y, x), that can leave part ``j`` in turn, keeping it 4-connected.

    A voxel can iff its in-part 4-neighbors reach each other without it: at
    once when they form one ring group (see ``_ring_entry``), never with no
    group. Several groups of a part without holes never meet, as a path
    between two would close a loop around the background corner between
    them. Each voxel is tested against the part as it stands at its turn.
    """
    for y, x in cand:
        i = y * parts.width + x
        groups = _RING_TABLE[parts.pattern(i, j)][0] if parts.flat[i] == j else 0
        if groups > 1 and parts.quads[j] != 4:  # around a hole, the groups may meet
            rest, y0, x0 = parts.part(j)
            rest[y - y0, x - x0] = False
            groups = 1 if is_connected(rest) else groups
        if groups == 1:
            yield y, x


def _strip_move(parts: _Parts, give: int, take: int, limit: int, arrival) -> int:
    """Move up to ``limit`` border voxels from ``give`` to ``take``.

    Works off one snapshot of the border, deepest voxels first (smallest
    arrival value, row-major on ties): repeated transfers across the same
    border then dent its middle instead of marching along the region's
    boundary rim, which keeps the moves shape preserving. Every move keeps
    the donor 4-connected and nonempty; every moved voxel borders the
    receiver, so it joins background the donor already touches and opens no
    hole. Returns the number of voxels moved.
    """
    if limit <= 0:
        return 0
    cand = parts.border(give, take)
    cand.sort(key=lambda yx: arrival[yx])  # stable: ties stay row-major
    moved = 0
    for moved, (y, x) in enumerate(islice(_removable(parts, give, cand), limit), 1):
        parts.move(y, x, take)
    return moved


def _route_to_deficit(parts: _Parts, goals, dest: int) -> list[int] | None:
    """Shortest chain from the nearest surplus region to ``dest``.

    Breadth-first search from the deficit over the region adjacency graph,
    walking only edges whose upstream side can actually give up a border
    voxel. Returns labels ordered donor..dest, or None when no surplus is
    reachable.
    """
    queue, seen = [[dest]], {dest}
    for chain in queue:  # grows as the search goes
        cur = chain[0]
        for nb in [l for l, n in enumerate(parts.touch[cur]) if n and l not in (0, cur)]:
            if nb in seen or next(_removable(parts, nb, parts.border(nb, cur)), None) is None:
                continue
            seen.add(nb)
            queue.append([nb, *chain])
            if parts.areas[nb] > goals[nb]:
                return queue[-1]
    return None


def _area_report(areas: list[int], k: int) -> str:
    return ", ".join(f"{j}: {areas[j]}" for j in range(1, k + 1))


def balance_areas(labels, k: int, arrival) -> np.ndarray:
    """Equalize region areas by border exchanges, then trim the remainder.

    With total labeled area A and target T = floor(A / k), the steps in
    order:

    1. Pair equalizing: connectivity-preserving border strips flow from
       large regions into their smallest neighbors, largest first, each
       capped at half the area gap.
    2. Routed strip flow: the remaining surplus is routed as strips along
       the region graph until regions 1..k-1 hold T voxels and region k
       holds T plus the remainder. Strips keep borders compact, so regions
       change width but keep their shape.
    3. Trim: relabel the A mod k surplus voxels of region k to background,
       taking the largest arrival values first, never breaking the region.

    Every region ends 4-connected with exactly T voxels. Raises
    BalanceError when no transfer route exists or the routed flow's
    budget (200 k voxel moves) runs out. The steps share one ``_Parts`` state
    updated per moved voxel: areas, Euler numbers, adjacency counts, boxes.
    """
    k = check_positive_int(k, "k")
    lab = check_labelmap(labels).copy()
    arr = check_scalar_field(getattr(arrival, "values", arrival), shape=lab.shape)  # ArrivalField or array

    present = set(np.unique(lab).tolist())
    if not present <= set(range(k + 1)) or not set(range(1, k + 1)) <= present:
        raise ValidationError(f"label map must contain exactly labels 1..{k}")
    if not np.isfinite(arr[lab > 0]).all():
        raise ValidationError("arrival values must be finite on all labeled voxels")
    # Work on the labels' bounding box padded with background, as the grid's
    # outside is; row-major order is kept.
    ys, xs = np.nonzero(lab)
    box = np.s_[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
    parts = _Parts(np.pad(lab[box], 1), k)
    arr = np.pad(arr[box], 1)
    for j in range(1, k + 1):
        if not is_connected(parts.part(j)[0]):
            raise BalanceError(f"balance failed: region {j} is not 4-connected")

    areas = parts.areas
    total = sum(areas[1:])
    target = total // k
    leftover = total % k

    goals = np.full(k + 1, target, dtype=np.int64)
    goals[0] = 0
    goals[k] = target + leftover  # remainder parks on region k for the trim

    # Pair equalizing: each pass visits every region in descending area
    # order and lets it push a strip to its smallest neighbor, capped at the
    # pair-equalizing quota (half the area gap); moving a whole strip
    # regardless of the gap would make the largest pair trade the same
    # strip back and forth without converging. Ends when a pass moves nothing.
    for _ in range(10 * k):
        acted = False
        for donor in sorted(range(1, k + 1), key=lambda l: (-areas[l], l)):
            neigh = [l for l, n in enumerate(parts.touch[donor]) if n and l not in (0, donor)]
            if not neigh:
                continue
            recv = min(neigh, key=lambda l: (areas[l], l))
            quota = int(areas[donor] - areas[recv]) // 2
            if _strip_move(parts, donor, recv, quota, arr):
                acted = True
        if not acted:
            break

    # Routed strip flow: pair averaging stalls once neighbor areas are
    # within one voxel, which can still leave a long drift across a chain
    # of regions. Route the remaining surplus to each deficit region along
    # the region graph, still as deepest-first strips: pushing this bulk one
    # voxel at a time would peel whole boundary rims off the pass-through
    # regions and destroy their shape.
    budget = 200 * k
    moved = 0
    while True:
        deficits = [j for j in range(1, k + 1) if areas[j] < goals[j]]
        if not deficits:
            break
        dest = deficits[0]
        chain = _route_to_deficit(parts, goals, dest) if moved < budget else None
        if chain is None:
            raise BalanceError(f"balance failed; region areas: {_area_report(areas, k)}")
        flow = min(int(areas[chain[0]] - goals[chain[0]]), int(goals[dest] - areas[dest]))
        for give, take in zip(chain, chain[1:]):
            flow = _strip_move(parts, give, take, min(flow, budget - moved), arr)
            moved += flow
            if flow == 0:
                break

    # Trim the remainder off region k, outermost (largest second wave arrival)
    # voxels first, rescanning one sorted list: a removal can free a voxel.
    if leftover:
        cand = [(int(y), int(x)) for y, x in np.argwhere(parts.lab == k)]
        cand.sort(key=lambda yx: -arr[yx])  # stable: ties stay row-major
        for _ in range(leftover):
            yx = next(_removable(parts, k, cand), None)
            if yx is None:
                raise BalanceError(f"balance failed: cannot trim region {k} without disconnecting it")
            parts.move(*yx, 0)

    lab[box] = parts.lab[1:-1, 1:-1]
    if any(areas[j] != target for j in range(1, k + 1)):
        raise BalanceError(f"balance failed; region areas: {_area_report(areas, k)}")
    for j in range(1, k + 1):
        if not is_connected(parts.part(j)[0]):
            raise BalanceError(f"balance failed: region {j} is not 4-connected")
    return lab


def subdivide_equal(mask, k: int, exponent: float = DEFAULT_EXPONENT, balance: bool = True) -> np.ndarray:
    """Split a connected region into ``k`` equal-area parts along its shape.

    Composition of centerline extraction, cut planning, cut labeling, and
    area balancing. Returns an int32 label map with labels 1..k (0 for
    background and, when the region's area is not divisible by k, the few
    trimmed voxels).
    """
    k = check_positive_int(k, "k")
    m = check_mask(mask, require_nonempty=True)
    return _cut_and_balance(m, _extract_full(m, exponent), k, balance)[1]


def _cut_and_balance(mask: np.ndarray, centerline: CenterlineResult, k: int, balance: bool):
    """``(plan, labels)``: cuts planned along ``centerline``, applied to ``mask``, balanced if asked."""
    plan = sample_cut_points(centerline.path, k)
    labels = _subdivide(mask, centerline.path, [cut.index for cut in plan])
    if balance:
        labels = balance_areas(labels, k, centerline.second_wave)
    return plan, labels
