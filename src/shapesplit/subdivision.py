"""Subdivision of a connected region into equal-area, shape-following parts.

Cuts are one-voxel-thick digital lines placed perpendicular to the
centerline at evenly spaced path positions. Each cut severs the region;
labeling walks the cuts in centerline order, assigning the piece behind
every cut before moving on. A balancing pass then equalizes the region
areas by exchanging border voxels, and trims the division remainder from
the last region so that all areas come out exactly equal.

Regions use 4-connectivity, paths and cut bands 8-connectivity; an
8-connected band 4-separates the plane, which is what makes one-voxel cuts
sufficient.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .centerline import DEFAULT_EXPONENT, CenterlineResult, _extract_full
from .exceptions import BalanceError, CutError, ValidationError
from .grid import connected_components, is_connected
from .validation import (
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
    """``normal_at`` on a path that ``check_path`` has already validated."""
    n = len(pts)
    if not 1 <= i <= n - 2:
        raise ValidationError(f"index {i} needs two path neighbors (valid range 1..{n - 2})")
    dx = pts[i + 1][0] - pts[i - 1][0]
    dy = pts[i + 1][1] - pts[i - 1][1]
    if dx == 0 and dy == 0:
        raise ValidationError(f"degenerate tangent at path index {i}")
    return dx, dy


def normal_at(path, i: int) -> tuple[int, int]:
    """Direction of the path at interior index ``i``.

    Computed from the two surrounding voxels as
    ``(x[i+1] - x[i-1], y[i+1] - y[i-1])``; the perpendicular cut at ``i``
    consists of the voxels whose offset from the anchor is orthogonal to
    this vector.
    """
    return _tangent(check_path(path), i)


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
    last cut gets the final label.

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
    for cut in plan:
        if pts[cut.index] != tuple(cut.anchor):
            raise ValidationError(f"cut anchor {cut.anchor} does not match path index {cut.index}")

    # Cut on the region's bounding box, writing through to the full label
    # map: row-major order there is the grid's, so components number alike.
    ys, xs = np.nonzero(m)
    y0, x0 = int(ys.min()), int(xs.min())
    box = np.s_[y0 : int(ys.max()) + 1, x0 : int(xs.max()) + 1]
    pts = [(px - x0, py - y0) for px, py in pts]
    path_x, path_y = np.array(pts).T
    length = len(pts)
    k = len(plan) + 1
    max_shift = length // (4 * k)
    full = np.zeros((h, w), dtype=np.int32)
    labels = full[box]
    working = m[box].copy()

    for j, cut in enumerate(plan, start=1):
        chosen = None
        fallback = None
        for shift in _shift_sequence(max_shift):
            i = cut.index + shift
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


def _has_holes(region: np.ndarray) -> bool:
    """Whether the 4-connected ``region`` encloses background.

    Gray's bit-quad count gives the 4-connectivity Euler number, components
    minus holes, as (Q1 - Q3 + 2 QD) / 4 over the 2x2 windows of the padded
    grid holding one, three, or two diagonal region voxels.
    """
    p = np.pad(region, 1)
    a, b, c, d = p[:-1, :-1], p[:-1, 1:], p[1:, :-1], p[1:, 1:]
    n = a.astype(np.int8) + b + c + d
    quads = int((n == 1).sum()) - int((n == 3).sum()) + 2 * int(((n == 2) & (a == d)).sum())
    return quads != 4


def _ring_groups(region: np.ndarray, x: int, y: int) -> int:
    """Groups the in-region 4-neighbors of voxel (x, y) form in its 3x3 ring.

    Two 4-neighbors share a group when the corner between them is in the
    region too, which joins them without the voxel.
    """
    h, w = region.shape
    ring = [0 <= x + dx < w and 0 <= y + dy < h and bool(region[y + dy, x + dx]) for dx, dy in _RING]
    joins = sum(ring[i] and ring[i + 1] and ring[(i + 2) % 8] for i in range(0, 8, 2))
    return 1 if joins == 4 else sum(ring[0::2]) - joins


def _stays_connected_without(region: np.ndarray, x: int, y: int) -> bool:
    """Would removing voxel (x, y) keep the region 4-connected and nonempty?

    It does iff the voxel's in-region 4-neighbors reach each other without
    it: at once when they form one ring group (see ``_ring_groups``),
    otherwise only if the 4-connected region stays one piece without it.
    """
    groups = _ring_groups(region, x, y)
    if groups <= 1:
        return groups == 1  # no neighbor: sole voxel of its region
    rest = region.copy()
    rest[y, x] = False
    return is_connected(rest)


def _removal_test(region: np.ndarray):
    """``_stays_connected_without`` for ``region``, without its search if it can.

    In a region without holes (see ``_has_holes``) the ring decides alone: a
    path between two ring groups would close a loop around the background
    corner between them.
    """
    if _has_holes(region):
        return _stays_connected_without
    return lambda region, x, y: _ring_groups(region, x, y) == 1


def _near4(region: np.ndarray) -> np.ndarray:
    """Voxels that have a 4-neighbor in ``region``."""
    near = np.zeros_like(region)
    near[:, :-1] |= region[:, 1:]
    near[:, 1:] |= region[:, :-1]
    near[:-1, :] |= region[1:, :]
    near[1:, :] |= region[:-1, :]
    return near


def _adjacent_labels(labels: np.ndarray, lab: int) -> list[int]:
    region = labels == lab
    vals = np.unique(labels[_near4(region) & (labels > 0) & ~region])
    return [int(v) for v in vals]


def _label_adjacency(labels: np.ndarray, k: int) -> dict[int, list[int]]:
    adj: dict[int, set[int]] = {j: set() for j in range(1, k + 1)}
    for a, b in (
        (labels[:, :-1], labels[:, 1:]),
        (labels[:-1, :], labels[1:, :]),
    ):
        touching = (a != b) & (a > 0) & (b > 0)
        for i, j in set(zip(a[touching].tolist(), b[touching].tolist())):
            adj[i].add(j)
            adj[j].add(i)
    return {j: sorted(s) for j, s in adj.items()}


def _border_candidates(labels: np.ndarray, donor: int, receiver: int) -> list[tuple[int, int]]:
    """Donor voxels 4-adjacent to the receiver, in row-major order as (y, x)."""
    near = _near4(labels == receiver)
    return [(int(y), int(x)) for y, x in np.argwhere((labels == donor) & near)]


def _strip_move(lab, areas, give: int, take: int, limit: int, arrival) -> int:
    """Move up to ``limit`` border voxels from ``give`` to ``take``.

    Works off one snapshot of the border, deepest voxels first (smallest
    arrival value, row-major on ties): repeated transfers across the same
    border then dent its middle instead of marching along the region's
    boundary rim, which keeps the moves shape preserving. Every move keeps
    the donor 4-connected and nonempty. Returns the number of voxels moved.
    """
    if limit <= 0:
        return 0
    cand = _border_candidates(lab, give, take)
    cand.sort(key=lambda yx: arrival[yx])  # stable: ties stay row-major
    moved = 0
    donor_region = lab == give
    # Every moved voxel borders the receiver, so it joins background the
    # donor already touches: a donor without holes keeps none.
    keeps = _removal_test(donor_region)
    for y, x in cand:
        if moved >= limit or areas[give] <= 1:
            break
        if keeps(donor_region, x, y):
            lab[y, x] = take
            donor_region[y, x] = False
            areas[give] -= 1
            areas[take] += 1
            moved += 1
    return moved


def _can_give(lab, give: int, take: int) -> bool:
    """Whether ``give`` can hand ``take`` a border voxel and stay 4-connected."""
    region = lab == give
    keeps = _removal_test(region)
    return any(keeps(region, x, y) for y, x in _border_candidates(lab, give, take))


def _route_to_deficit(lab, areas, goals, k: int, dest: int) -> list[int] | None:
    """Shortest chain from the nearest surplus region to ``dest``.

    Breadth-first search from the deficit over the region adjacency graph,
    walking only edges whose upstream side can actually give up a border
    voxel. Returns labels ordered donor..dest, or None when no surplus is
    reachable.
    """
    adjacency = _label_adjacency(lab, k)
    parent: dict[int, int | None] = {dest: None}
    order = [dest]
    qi = 0
    donor = None
    while qi < len(order) and donor is None:
        cur = order[qi]
        qi += 1
        for nb in adjacency[cur]:
            if nb in parent or not _can_give(lab, nb, cur):
                continue
            parent[nb] = cur
            order.append(nb)
            if areas[nb] > goals[nb]:
                donor = nb
                break
    if donor is None:
        return None
    chain = [donor]
    while parent[chain[-1]] is not None:
        chain.append(parent[chain[-1]])
    return chain


def _area_report(areas: np.ndarray, k: int) -> str:
    return ", ".join(f"{j}: {int(areas[j])}" for j in range(1, k + 1))


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
    budget (200 k voxel moves) runs out.
    """
    k = check_positive_int(k, "k")
    lab = check_labelmap(labels).copy()
    arr = check_scalar_field(getattr(arrival, "values", arrival), shape=lab.shape)  # ArrivalField or array

    present = set(np.unique(lab).tolist())
    if not present <= set(range(k + 1)) or not set(range(1, k + 1)) <= present:
        raise ValidationError(f"label map must contain exactly labels 1..{k}")
    if not np.isfinite(arr[lab > 0]).all():
        raise ValidationError("arrival values must be finite on all labeled voxels")
    # Work in place on the labels' bounding box: the voxels around it are
    # background, as the grid's outside is, and row-major order is kept.
    full = lab
    ys, xs = np.nonzero(full)
    box = np.s_[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
    lab, arr = full[box], arr[box]
    for j in range(1, k + 1):
        if not is_connected(lab == j):
            raise BalanceError(f"balance failed: region {j} is not 4-connected")

    areas = np.bincount(lab.ravel(), minlength=k + 1).astype(np.int64)
    total = int(areas[1:].sum())
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
            neigh = _adjacent_labels(lab, donor)
            if not neigh:
                continue
            recv = min(neigh, key=lambda l: (areas[l], l))
            quota = int(areas[donor] - areas[recv]) // 2
            if _strip_move(lab, areas, donor, recv, quota, arr):
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
        chain = _route_to_deficit(lab, areas, goals, k, dest) if moved < budget else None
        if chain is None:
            raise BalanceError(f"balance failed; region areas: {_area_report(areas, k)}")
        flow = min(int(areas[chain[0]] - goals[chain[0]]), int(goals[dest] - areas[dest]))
        for give, take in zip(chain, chain[1:]):
            flow = _strip_move(lab, areas, give, take, min(flow, budget - moved), arr)
            moved += flow
            if flow == 0:
                break

    # Trim the remainder off region k, outermost (largest second wave arrival)
    # voxels first, rescanning one sorted list: a removal can free a voxel.
    if leftover:
        region = lab == k
        cand = [(int(y), int(x)) for y, x in np.argwhere(region)]
        cand.sort(key=lambda yx: -arr[yx])  # stable: ties stay row-major
        for _ in range(leftover):
            keeps = _removal_test(region)  # trimming an inner voxel opens a hole
            for y, x in cand:
                if region[y, x] and keeps(region, x, y):
                    lab[y, x] = 0
                    region[y, x] = False
                    break
            else:
                raise BalanceError(f"balance failed: cannot trim region {k} without disconnecting it")

    areas = np.bincount(lab.ravel(), minlength=k + 1).astype(np.int64)
    if not (areas[1 : k + 1] == target).all():
        raise BalanceError(f"balance failed; region areas: {_area_report(areas, k)}")
    for j in range(1, k + 1):
        if not is_connected(lab == j):
            raise BalanceError(f"balance failed: region {j} is not 4-connected")
    return full


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
    labels = subdivide(mask, centerline.path, plan)
    if balance:
        labels = balance_areas(labels, k, centerline.second_wave)
    return plan, labels
