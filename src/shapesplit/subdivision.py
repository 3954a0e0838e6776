"""Cuts and balancing: a region split into equal-area parts along its centerline.

Cuts are one-voxel-thick digital lines placed perpendicular to the
centerline at evenly spaced path positions. Each cut severs the region;
labeling walks the cuts in centerline order, assigning the piece behind
every cut before moving on. Balancing then equalizes the region areas by
one flow of border strips along a maximum spanning tree of the regions,
and trims the division remainder from the last region as one more strip,
into the background, so that all areas come out exactly equal. It keeps
the labels, Euler numbers and boxes of the parts up to date voxel by voxel,
and each pair's border from strip to strip: the border is read once per
pair, each move adds the voxels it puts on it, and a voxel that cannot
leave is not tested again until one of its 4-neighbors moves. Once per
tree, every part's area, Euler number, box and border lengths are counted
afresh from the row runs of the labels (``_counts``), the runs of the one
run finder that labeling uses (``grid._runs``), so a count costs the
parts' runs, not a pass per quantity over their box.
Connectivity is asked at the size of the question: the region's row runs
are found once, and all planned cuts are labeled at once, by removing every
planned band from them and joining what is left into pieces with one
``grid._union``. As far as five conditions on those pieces and bands prove
that the walk would take each cut where it is planned, the parts are read
off the pieces (``_at_once``); the walk resumes at the first cut they do not
prove, where each attempt splits the runs left to label at its band's
voxels and joins them, so it pays for the runs, not for their box. A band
and its 4-pieces are read off the rows of its line, which hold one voxel or
two side by side; a new part is one piece when every 4-piece of its band
touches the piece behind the cut; and as balancing starts, joining the runs
of the first count checks all parts.

Regions use 4-connectivity, paths and cut bands 8-connectivity; an
8-connected band 4-separates the plane, which is what makes one-voxel cuts
sufficient.
"""

from __future__ import annotations

from itertools import accumulate, chain
from typing import NamedTuple

import numpy as np

from .exceptions import BalanceError, CutError, ValidationError
from .grid import _box, _cells, _label_runs, _runs, _touching, _union
from .validation import (
    _as_int,
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
    """Direction of a validated path at interior index ``i``: ``(x[i+1] - x[i-1], y[i+1] - y[i-1])``.

    The cut at ``i`` is the line through ``pts[i]`` perpendicular to it.
    """
    dx = pts[i + 1][0] - pts[i - 1][0]
    dy = pts[i + 1][1] - pts[i - 1][1]
    return dx, dy


def sample_cut_points(path, k: int) -> list[Cut]:
    """Plan ``k - 1`` cuts at evenly spaced positions along ``path``.

    Anchor indices are ``round(j * (L - 1) / k)`` for ``j = 1..k-1``
    (half-up rounding, exact integer arithmetic). The path must have at
    least ``2k + 1`` voxels so every anchor is interior and cuts are
    distinct; ``k = 1`` yields an empty plan.
    """
    return _plan_cuts(check_path(path), check_positive_int(k, "k"))


def _plan_cuts(pts: list[tuple[int, int]], k: int) -> list[Cut]:
    """``sample_cut_points`` on a path and k that are already validated."""
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


def _band(region: np.ndarray, anchor, normal) -> tuple[tuple[np.ndarray, np.ndarray], np.ndarray]:
    """``((ys, xs), piece)``: the digital-line band through ``anchor`` perpendicular to ``normal``.

    Voxels p of ``region`` with |normal . (p - anchor)| <= max(|nx|, |ny|)/2
    form the thinnest 4-separating line; of those, only the 8-connected
    piece containing the anchor, which must lie in ``region``, is returned,
    so far-away lobes that happen to fall on the same line are untouched.
    ``piece`` numbers the band's 4-pieces 0, 1, ... in the order of its
    voxels. The work grows with the region's side, not its area.
    """
    ax, ay = anchor
    nx, ny = float(normal[0]), float(normal[1])
    flip = abs(nx) < abs(ny)
    if flip:  # a line nearer horizontal: walk its columns (the test's sum commutes exactly)
        region, ax, ay, nx, ny = region.T, ay, ax, ny, nx
    h, w = region.shape
    # On row y the line's voxels lie within half a voxel of c = ax - (ny / nx)(y - ay),
    # so they are floor(c) or floor(c) + 1 (rounding moves c by far less than
    # half a voxel); the exact test below picks them out of those two.
    dy = np.arange(-ay, h - ay)[:, None]
    xs = np.floor(ax - ny / nx * dy).astype(np.intp) + (0, 1)
    at = xs.clip(0, w - 1)
    on = (at == xs) & (2.0 * np.abs(nx * (xs - ax) + ny * dy) <= max(abs(nx), abs(ny)))
    on &= region[dy + ay, at]
    # A row of the line holds no voxel, one, or two side by side, spanning
    # columns lo..hi; an empty row's span lies far from every other. Rows in
    # turn are 8-adjacent when their spans come within one column of each
    # other and 4-adjacent when they share one, so the band is the anchor's
    # run of 8-adjacent rows, and a new 4-piece starts at each row of it
    # that shares no column with the row before.
    span = np.where(on, xs, 1 << 40)
    lo = np.minimum(span[:, 0], span[:, 1])
    span = np.where(on, xs, -1 << 40)
    hi = np.maximum(span[:, 0], span[:, 1])
    gap = np.maximum(lo[1:] - hi[:-1], lo[:-1] - hi[1:])  # 0 or less when they share a column
    apart = np.flatnonzero(gap > 1)
    i = np.searchsorted(apart, ay)
    y0 = apart[i - 1] + 1 if i else 0
    y1 = apart[i] + 1 if i < apart.size else h
    v = np.flatnonzero(on[y0:y1])
    ys, xs = v >> 1, xs[y0:y1].ravel()[v]
    diagonal = gap[y0 : y1 - 1] > 0
    piece = np.zeros(ys.size, np.intp)
    if diagonal.any():
        piece = np.concatenate(([0], np.cumsum(diagonal)))[ys]
    ys += y0
    return ((xs, ys) if flip else (ys, xs)), piece


def _piece_of(starts: np.ndarray, ends: np.ndarray, root: np.ndarray, cells: np.ndarray) -> np.ndarray:
    """The root run of the piece holding each flat position in ``cells``, -1 where no run does.

    The runs ``[starts, ends)`` are nonempty and in order, ``root`` their
    pieces' first runs (``grid._union``).
    """
    r = np.searchsorted(starts, cells, side="right") - 1
    return np.where((r >= 0) & (cells < ends[r]), root[r], -1)


def _joins(band: np.ndarray, piece: np.ndarray, pitch: int, runs: tuple, behind: int) -> bool:
    """Whether ``band``, with 4-pieces ``piece``, and the 4-piece whose first run is ``behind`` form one 4-piece.

    ``band`` holds flat positions of ``grid._runs``' layout, with row pitch
    ``pitch``, and ``runs`` is ``(starts, ends, root)`` of the voxels around
    it, as ``_piece_of`` takes them. Two 4-pieces of the band never touch,
    so each reaches the rest of the union only through the behind piece:
    the union is one piece iff every 4-piece of the band has a voxel
    4-adjacent to it. Off the grid's sides lie the layout's zero columns,
    and above and below it positions past the runs, so no run holds them.
    """
    near = (_piece_of(*runs, band[:, None] + (-pitch, -1, 1, pitch)) == behind).any(axis=1)
    return bool(np.bincount(piece[near], minlength=piece[-1] + 1).all())


def subdivide(mask, path, plan: list[Cut]) -> np.ndarray:
    """Label the region into ``len(plan) + 1`` parts along the centerline.

    Cuts are applied in order on a shrinking working mask. After removing a
    cut band, the 4-connected component holding the earliest centerline
    voxel that is still unlabeled gets the next label; the band voxels join
    it (cut voxels belong to the earlier side). The remainder after the
    last cut gets the final label. ``plan`` holds ``(index, anchor, normal)``
    triples, as ``sample_cut_points`` returns them, whose path indices
    increase strictly within ``1..L-2`` and whose anchor and normal are the
    path voxel at that index and the path's direction there,
    ``(x[i+1] - x[i-1], y[i+1] - y[i-1])``.

    A cut that strands a piece off the path, or leaves its part in pieces,
    moves along the path by +1, -1, +2, -2, ... over every unlabeled path
    voxel, recomputing the direction each time. The first cut that does
    neither is taken, else the first that severs anything, else CutError.
    """
    m = check_mask(mask, require_nonempty=True)
    pts = check_path(path)
    h, w = m.shape
    _, count = _label_runs(m, 4)
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


def _at_once(flat: np.ndarray, starts: np.ndarray, ends: np.ndarray, pitch: int, cells: np.ndarray, bands: list):
    """``(m, runs, done, rest)``: the first ``m`` cuts of a plan, labeled at once from the bands of all its cuts.

    ``starts`` and ``ends`` are the region's runs, ``cells`` the flat
    positions of its path and ``bands`` each planned cut's ``(band, piece)``
    on the region, in ``grid._runs``' layout. All bands are removed and the
    rest joined into pieces with one ``grid._union``; the pieces holding a
    path voxel are numbered 1, 2, ... by their first path voxel. ``m`` is
    the number of cuts for which ``_subdivide``'s conditions hold, part i
    being piece i and band i, and their labels are painted into ``flat``,
    with the last part's too when m is every cut. ``flat`` also holds each
    later band voxel's lowest cut. ``runs`` are the runs left to label,
    ``done`` the voxels of parts 1..m when cuts are left, and ``rest`` the
    ``(starts, ends, root)`` of the pieces past part m when band m + 1 is the
    last, which are the last cut's shift-0 attempt; else None.
    """
    k = len(bands) + 1
    sizes, counts = [band.size for band, _ in bands], [int(piece[-1]) + 1 for _, piece in bands]
    pos = np.concatenate([band for band, _ in bands])
    owner = np.repeat(np.arange(1, k), sizes)  # a band voxel's cut
    piece = np.concatenate([p for _, p in bands]) + np.repeat(list(accumulate([0, *counts[:-1]])), sizes)
    cut_of = np.repeat(np.arange(1, k), counts)  # a band 4-piece's cut, by its number in ``piece``
    fails = [k]  # per condition, the first cut that fails it

    # (a) Cut i fails when its band meets another, and with cut 1 failing,
    # nothing is labeled at once. A voxel in several bands keeps one of its
    # cuts in ``flat``, the other entries clash, and then it takes the
    # lowest; ``cut`` lists each band voxel once.
    flat[pos] = owner
    clash = flat[pos] != owner
    cut = pos
    if clash.any():
        fails.append(int(min(owner[clash].min(), flat[pos[clash]].min())))
        if fails[-1] == 1:
            return 0, (starts, ends), pos[:0], None
        np.minimum.at(flat, pos[clash], owner[clash].astype(flat.dtype))
        cut = pos[~clash]
    lowest = flat[cut]

    s, e = np.sort(np.concatenate((starts, cut + 1))), np.sort(np.concatenate((ends, cut)))
    keep = s != e
    s, e = s[keep], e[keep]
    root = _union(s.size, *_touching(s, e, pitch, 0))
    # (b) The pieces holding a path voxel, numbered by their first; cut i
    # needs a piece i + 1. ``number`` is 0 off the path, and at -1, where no
    # run is.
    along = _piece_of(s, e, root, cells)
    on = np.flatnonzero(along >= 0)
    first = np.full(s.size, cells.size)  # each root's first path index
    np.minimum.at(first, along[on], on)
    roots = np.argsort(first)[: np.count_nonzero(first < cells.size)]
    first = first[roots]
    number = np.zeros(s.size + 1, dtype=np.intp)
    number[roots] = np.arange(1, roots.size + 1)
    fails.append(roots.size)
    # (c) No voxel of a later band lies on the path before piece i's first.
    # A path voxel's part is its piece's number or its band's lowest cut;
    # where parts never fall along the path, no cut fails (c).
    part = number[along] + flat[cells]
    if (part[1:] < part[:-1]).any():
        before = np.concatenate(([0], np.maximum.accumulate(part)))[first]
        late = np.flatnonzero(before > np.arange(1, roots.size + 1))
        fails.append(int(late[0]) + 1 if late.size else k)
    # (d) Every 4-piece of band i touches piece i; (e) piece i touches no
    # later band.
    near_root = _piece_of(s, e, root, pos[:, None] + (-pitch, -1, 1, pitch))
    near = number[near_root]
    touch = np.bincount(piece[(near == owner[:, None]).any(axis=1)], minlength=cut_of.size)
    if not touch.all():
        fails.append(int(cut_of[touch == 0].min()))
    early = near[(near > 0) & (near < owner[:, None])]
    if early.size:
        fails.append(int(early.min()))
    m = min(fails) - 1

    # What is left after part m is in pieces that each hold a path voxel when
    # every piece off the path touches a 4-piece b of a later band that
    # reaches a piece numbered past m, and when every such b does; m is the
    # most cuts with both. Past the last cut, no band is left.
    reach = np.zeros(cut_of.size, dtype=np.intp)
    np.maximum.at(reach, piece, near.max(axis=1))
    off = (near == 0) & (near_root >= 0)
    if off.any():
        limit = np.zeros(s.size, dtype=np.intp)
        np.maximum.at(limit, near_root[off], np.minimum(cut_of, reach)[piece[np.nonzero(off)[0]]])
        m = min(m, int(limit[(number[:-1] == 0) & (root == np.arange(s.size))].min()) - 1)
    if m < k - 1:
        low = reach < cut_of
        block = np.cumsum(np.bincount(reach[low], minlength=k) - np.bincount(cut_of[low], minlength=k))
        proven = np.flatnonzero(block[1 : m + 1] == 0)
        m = int(proven[-1]) + 1 if proven.size else 0

    run_part = number[root]
    if m == k - 1:  # every part at once; pieces past the last number are part k too
        flat[_cells(s, e)] = np.repeat(np.minimum(run_part, k), e - s)
        return m, (s[:0], e[:0]), pos[:0], None
    taken = (run_part >= 1) & (run_part <= m)
    s_taken, e_taken = s[taken], e[taken]
    done = _cells(s_taken, e_taken)
    flat[done] = np.repeat(run_part[taken], e_taken - s_taken)
    done = np.concatenate((done, cut[lowest <= m]))
    s, e = s[~taken], e[~taken]
    rest = (s, e, (np.cumsum(~taken) - 1)[root[~taken]]) if m == k - 2 else None  # roots among the runs kept
    # The runs left: those of the pieces past part m, and the voxels of later
    # bands, joined where they meet.
    later = cut[lowest > m]
    s, e = np.sort(np.concatenate((s, later))), np.sort(np.concatenate((e, later + 1)))
    meet = s[1:] == e[:-1]
    return m, (s[np.concatenate(([True], ~meet))], e[np.concatenate((~meet, [True]))]), done, rest


def _subdivide(m: np.ndarray, pts: list[tuple[int, int]], indices: list[int]) -> np.ndarray:
    """``subdivide`` on a one-region mask, a path in it, and cut indices, all validated.

    The cuts are first labeled at once (``_at_once``): the bands
    B_1..B_{k-1} of the planned cuts are found on the whole region and
    removed together, what they leave is joined into pieces with one
    ``grid._union``, and the pieces holding a path voxel are numbered 1, 2,
    ... by their first path voxel. Let m be the most cuts such that every
    cut i <= m meets five conditions: (a) B_i meets no other band; (b) there
    is a piece i + 1; (c) no path voxel before piece i's first lies in a band
    B_j with j > i; (d) every 4-piece of B_i touches piece i; (e) piece i
    touches no band B_j with j > i; and such that every 4-piece of a band
    B_j with j > m touches a piece numbered past m, and every piece off the
    path touches such a 4-piece. Then the shift search takes shift 0 at every
    cut i <= m, with piece i and B_i as part i; those parts are painted, and
    the search resumes at cut m + 1.

    By induction on i <= m, with W_i what parts 1..i-1 leave: B_i misses the
    pieces and, by (a), the earlier bands, so it lies in W_i, and the band on
    W_i, the anchor's 8-piece of the line within W_i, is B_i, which is that
    8-piece within the whole region. Removing it leaves the pieces numbered
    i or more, the pieces off the path, and the later bands, which (a) keeps
    whole. Piece i is a component of that, as its other 4-neighbors lie in
    B_1..B_i (e), and piece i + 1 lies in another (b), so the cut severs. The
    first path voxel left is in piece i: one before piece i's first lies in
    a lower piece or in a band, by (c) one of B_1..B_i. Every other component
    is one of W_{i+1}, which is W_{m+1} and parts i+1..m, each one 4-piece
    (d) holding its piece's path voxels; a component holding none of those
    parts is one of W_{m+1}, whose pieces and bands each reach a piece
    numbered past m by the last two conditions. So no piece is stranded,
    B_i joins piece i by (d), and shift 0 is taken.

    Runs are a function of their voxels, so the search resumes on the runs
    of W_{m+1}: those of the pieces past part m, joined with the voxels of
    the later bands. Its shift-0 attempt takes the planned band while what
    is left holds all of it, and at the last cut, when m is one short, the
    pieces of the labeling at once, which are what that band leaves.
    """
    # The region's row runs are found once, on its box, and the runs left to
    # label are carried from segment to segment. An attempt splits them at
    # its band's voxels, each band voxel p ending a run at p and starting one
    # at p + 1, drops the empty ones and joins the rest into pieces
    # (grid._union). Only the chosen part is painted, and its runs and band
    # dropped; the next segment keeps the other runs. Positions are flat, in
    # grid._runs' layout, where ``free`` marks the unlabeled voxels and
    # ``working`` views them on the box for ``_band``.
    box = _box(m)
    y0, x0 = box[0].start, box[1].start
    free, pitch, starts, ends = _runs(m[box])
    working = free[:-1].reshape(-1, pitch)[:, 1:]
    flat = np.zeros(free.size, dtype=np.int32)
    length = len(pts)
    path_x, path_y = np.fromiter(chain.from_iterable(pts), np.intp, 2 * length).reshape(-1, 2).T
    cells = (path_y - y0) * pitch + 1 + path_x - x0
    k = len(indices) + 1
    planned = []
    for index in indices:
        (ys, xs), piece = _band(working, (path_x[index] - x0, path_y[index] - y0), _tangent(pts, index))
        planned.append((ys * pitch + 1 + xs, piece))

    proven, rest = 0, None
    if planned:
        proven, (starts, ends), done, rest = _at_once(flat, starts, ends, pitch, cells, planned)
        free[done] = False

    for j in range(proven + 1, k):
        index = indices[j - 1]
        unlabeled = cells[free[cells]]  # the unlabeled path voxels, in path order
        chosen = fallback = None
        for shift in range(2 * length):  # 0, +1, -1, +2, -2, ...: nearest first, + before -
            i = index + (shift + 1) // 2 * (1 if shift % 2 else -1)
            if not 1 <= i <= length - 2 or not free[cells[i]]:
                continue
            band, piece = planned[j - 1]
            kept = not shift and free[band].all()  # the planned band, when what is left holds it
            if not kept:
                ax, ay = pts[i]
                (ys, xs), piece = _band(working, (ax - x0, ay - y0), _tangent(pts, i))
                band = ys * pitch + 1 + xs
            if kept and rest is not None:
                s, e, root = rest
            else:
                s, e = np.sort(np.concatenate((starts, band + 1))), np.sort(np.concatenate((ends, band)))
                keep = s != e
                s, e = s[keep], e[keep]
                root = _union(s.size, *_touching(s, e, pitch, 0))
            ncomp = np.count_nonzero(root == np.arange(root.size))
            if ncomp < 2:
                continue
            # Pieces along the path, in path order, the first behind the cut;
            # band voxels and labeled parts lie in no run.
            along = _piece_of(s, e, root, unlabeled)
            along = along[along >= 0]
            if along.size == 0:
                continue
            # Prefer a cut that (a) strands no piece, since one holding no
            # centerline voxel can never be labeled by a later cut, and (b)
            # yields a 4-connected region once the band joins the behind side;
            # a diagonal band's tail can otherwise hang off the far side.
            behind = along[0]
            joins = np.count_nonzero(np.bincount(along)) == ncomp and _joins(band, piece, pitch, (s, e, root), behind)
            if joins or fallback is None:
                part = s, e, root == behind, band
                if joins:
                    chosen = part
                    break
                fallback = part
        if chosen is None:
            chosen = fallback
        if chosen is None:
            raise CutError(f"cut failed at segment {j}")
        s, e, taken, band = chosen
        done = np.concatenate((_cells(s[taken], e[taken]), band))
        flat[done] = j
        free[done] = False
        starts, ends = s[~taken], e[~taken]

    flat[_cells(starts, ends)] = k
    labels = np.zeros(m.shape, dtype=np.int32)
    labels[box] = flat[:-1].reshape(-1, pitch)[:, 1:]
    return labels


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


def _counts(
    lab: np.ndarray, k: int, check: bool = False
) -> tuple[list[int], list[int], list[list[int]], list[list[int]]]:
    """``(areas, quads, boxes, touch)`` of the parts 1..k of a padded label box, from its row runs.

    Per part: ``areas``; ``quads``, Gray's bit-quad sum, which is four times
    the Euler number, the runs less the pairs of its runs that share a
    column across adjacent rows (the vertices less the edges of its run
    graph); and ``boxes`` ([y0, y1, x0, x1]). ``touch[a][b]`` counts the
    4-adjacent voxel pairs of parts a and b: the columns that runs of a and
    b share across adjacent rows, and the runs of a and b that abut in a
    row. The background has no runs, so its entries are 0, but for its
    box, which the padding makes the whole box; a part not in ``lab`` has
    zeros too, and a box that means nothing. With ``check``, it first
    raises BalanceError naming the lowest part in two 4-pieces or more,
    joining the pairs of touching runs of one part (``grid._union``).
    """
    flat, pitch, starts, ends = _runs(lab)
    part = flat[starts]
    n = k + 1
    areas = np.bincount(part, ends - starts, n).astype(int)
    src, dst = _touching(starts, ends, pitch, 0)
    same = part[src] == part[dst]
    if check:
        root = _union(part.size, src[same], dst[same])
        split = np.flatnonzero(np.bincount(part[root == np.arange(part.size)]) > 1)
        if split.size:
            raise BalanceError(f"balance failed: region {split[0]} is not 4-connected")
    quads = 4 * (np.bincount(part, minlength=n) - np.bincount(part[src[same]], minlength=n))
    src, dst = src[~same], dst[~same]
    shared = np.minimum(ends[src] - pitch, ends[dst]) - np.maximum(starts[src] - pitch, starts[dst])
    abut = np.flatnonzero(ends[:-1] == starts[1:])
    pairs = np.concatenate((part[src] * n + part[dst], part[abut] * n + part[abut + 1]))
    touch = np.bincount(pairs, np.concatenate((shared, np.ones(abut.size))), n * n).reshape(n, n)
    touch = (touch + touch.T).astype(int)
    # A box spans the first and last row and column its part's runs reach.
    rows = starts // pitch
    first, last = starts - rows * pitch - 1, ends - rows * pitch - 2

    def span(lo, hi, size):
        seen = np.zeros((n, size), dtype=bool)
        seen[part, lo] = seen[part, hi] = True
        return seen.argmax(axis=1), size - 1 - seen[:, ::-1].argmax(axis=1)

    boxes = np.stack(span(rows, rows, lab.shape[0]) + span(first, last, lab.shape[1]), axis=1)
    boxes[0] = 0, lab.shape[0] - 1, 0, lab.shape[1] - 1
    return areas.tolist(), quads.tolist(), boxes.tolist(), touch.tolist()


class _Parts:
    """The parts of one balancing call, updated per moved voxel by ``_strip_move``.

    ``lab`` is the labels' box padded with background, so a part voxel's
    neighbors need no bounds checks, and ``flat`` a row-major memoryview of
    the same buffer, for fast reads and writes of one voxel. Per part:
    ``quads`` (the bit-quad sum of ``_ring_entry``, 4 iff no holes) and
    ``boxes`` ([y0, y1, x0, x1], exact at a count, then grown and never
    shrunk, so covering the part). ``areas`` and ``touch``, which only
    building a tree reads, are exact at a count only. With ``check``, the
    first count raises BalanceError if a part is not one piece.
    """

    def __init__(self, lab: np.ndarray, k: int, check: bool = False):
        self.lab, self.flat, self.width, self.k = lab, memoryview(lab.reshape(-1)), lab.shape[1], k
        self.areas, self.quads, self.boxes, self.touch = _counts(lab, k, check)

    def count(self) -> None:
        """Count every part afresh from ``lab`` (``_counts``)."""
        self.areas, self.quads, self.boxes, self.touch = _counts(self.lab, self.k)

    def border(self, give: int, take: int) -> tuple[np.ndarray, np.ndarray]:
        """``(ys, xs)`` of part ``give``'s voxels 4-adjacent to part ``take``, row-major.

        Read once per pair, for its first strip: ``_Border`` carries it to
        the pair's later strips.
        """
        (gy0, gy1, gx0, gx1), (ty0, ty1, tx0, tx1) = self.boxes[give], self.boxes[take]
        y0, y1, x0, x1 = max(gy0, ty0 - 1), min(gy1, ty1 + 1), max(gx0, tx0 - 1), min(gx1, tx1 + 1)
        win = self.lab[y0 - 1 : y1 + 2, x0 - 1 : x1 + 2]
        is_take = win == take
        near = is_take[:-2, 1:-1] | is_take[2:, 1:-1]
        near |= is_take[1:-1, :-2]
        near |= is_take[1:-1, 2:]
        near &= win[1:-1, 1:-1] == give
        ys, xs = near.nonzero()
        return ys + y0, xs + x0


class _Border:
    """The border of part ``give`` on part ``take``, carried by ``_strip_move`` from strip to strip.

    ``cand`` lists the next strip's candidates as ``(arrival, i)`` pairs in
    ascending order, ``i`` being the row-major index into ``_Parts.flat``, so
    ties stay row-major, and ``dormant`` the listed voxels whose removal
    test failed and none of whose 4-neighbors has left since. Only the first
    strip reads ``_Parts.border``; ``arrival`` gives the order of the voxels
    that join the border later. The border stays exact while its own strips
    make every move, as they do while one pair's flow runs.
    """

    __slots__ = ("give", "take", "cand", "dormant", "arrival")

    def __init__(self, parts: _Parts, give: int, take: int, arrival: np.ndarray):
        ys, xs = parts.border(give, take)
        at = arrival[ys, xs]
        order = at.argsort(kind="stable")  # stable: ties stay row-major
        self.give, self.take, self.dormant, self.arrival = give, take, set(), memoryview(arrival.reshape(-1))
        self.cand = list(zip(at[order].tolist(), (ys * parts.width + xs)[order].tolist()))


def _strip_move(parts: _Parts, border: _Border, limit: int) -> int:
    """Move up to ``limit`` voxels of ``border`` from part ``give`` to ``take``, 0 being the background.

    The candidates go in ascending ``arrival`` order, row-major on ties:
    with the second wave's arrival the deepest voxels go first, so repeated
    transfers across the same border dent its middle instead of marching
    along the region's boundary rim, which keeps the moves shape preserving;
    the trim passes the negated arrival to take the outermost first. Every
    move keeps the donor 4-connected and nonempty; every moved voxel borders
    the receiver, so it joins background the donor already touches and
    opens no hole. Returns the number of voxels moved.

    Each candidate is tested against the donor as it stands at its turn. Its
    eight ring labels are read once; the donor's ``_RING_TABLE`` entry gives
    its ring groups and quad change, the receiver's its quad change. A voxel
    can leave iff its in-donor 4-neighbors reach each other without it: at
    once when they form one ring group, never with no group. Several groups
    of a donor without holes never meet, as a path between two would close a
    loop around the background corner between them; around a hole, one
    labeling of the donor's box tells.

    The border is left as the next strip's: the candidates that stayed and
    the donor voxels the moves put on the border, which wait for that strip,
    in the same order. That is the border a fresh read would give, as the
    donor only loses voxels and the receiver only gains them: a move adds
    the donor 4-neighbors with no other receiver 4-neighbor. A voxel whose
    test fails sleeps, skipped without reading its ring, until one of its
    4-neighbors moves, which may be in the middle of a strip. It would fail
    again: the donor without it was in pieces (or it was the whole donor),
    and the donor since lost only voxels it stays one piece without, so the
    pieces stay apart until one is gone; a piece goes with its last voxel,
    which reached the donor through the reject alone, as its 4-neighbor.
    """
    if limit <= 0:
        return 0
    give, take, cand, dormant, arrival = border.give, border.take, border.cand, border.dormant, border.arrival
    flat, lab, width, quads = parts.flat, parts.lab, parts.width, parts.quads
    table, box = _RING_TABLE, parts.boxes[take]
    kept, new, moved = [], [], 0
    for c in cand:
        i = c[1]
        if i in dormant:
            kept.append(c)
            continue
        a, b = i - width, i + width  # the ring, in _RING order; read once for the test and the move
        n, ne, e, se = flat[a], flat[a + 1], flat[i + 1], flat[b + 1]
        s, sw, w, nw = flat[b], flat[b - 1], flat[i - 1], flat[a - 1]
        groups, lose = table[(n == give) + 2 * (ne == give) + 4 * (e == give) + 8 * (se == give)
                             + 16 * (s == give) + 32 * (sw == give) + 64 * (w == give) + 128 * (nw == give)]
        if groups > 1 and quads[give] != 4:  # around a hole, the groups may meet
            y0, y1, x0, x1 = parts.boxes[give]
            rest = lab[y0 : y1 + 1, x0 : x1 + 1] == give
            rest[i // width - y0, i % width - x0] = False
            groups = 1 if _label_runs(rest, 4)[1] == 1 else groups
        if groups != 1:
            dormant.add(i)
            kept.append(c)
            continue
        gain = table[(n == take) + 2 * (ne == take) + 4 * (e == take) + 8 * (se == take)
                     + 16 * (s == take) + 32 * (sw == take) + 64 * (w == take) + 128 * (nw == take)][1]
        quads[give] -= lose
        quads[take] += gain
        flat[i] = take
        y, x = divmod(i, width)
        if not (box[0] <= y <= box[1] and box[2] <= x <= box[3]):
            box[:] = min(box[0], y), max(box[1], y), min(box[2], x), max(box[3], x)
        if dormant:
            dormant.difference_update((a, i - 1, i + 1, b))
        if n == give and nw != take and ne != take and flat[a - width] != take:  # new on the border
            new.append((arrival[a], a))
        if e == give and ne != take and se != take and flat[i + 2] != take:
            new.append((arrival[i + 1], i + 1))
        if s == give and se != take and sw != take and flat[b + width] != take:
            new.append((arrival[b], b))
        if w == give and sw != take and nw != take and flat[i - 2] != take:
            new.append((arrival[i - 1], i - 1))
        moved += 1
        if moved == limit:
            break
    kept += cand[len(kept) + moved :]  # those a stop at the limit left unreached
    if new:
        kept += new
        kept.sort()
    border.cand = kept
    return moved


def _spanning_tree(touch: list[list[int]], k: int, blocked: set) -> tuple[list[int], list[int]] | None:
    """``(order, parent)``: a maximum spanning tree of parts 1..k, rooted at k; None when none spans.

    Prim's rule from part k: each step joins the part with the longest
    border (``touch``) to the tree, over pairs not in ``blocked``; ties go
    to the lowest new label, then the lowest label in the tree. ``order``
    lists the parts as they join, so every parent comes before its children.
    """
    order, parent = [k], [0] * (k + 1)
    while len(order) < k:
        joined = set(order)
        edges = [(touch[a][b], -b, -a) for a in order for b in range(1, k + 1)
                 if b not in joined and touch[a][b] and (a, b) not in blocked]
        if not edges:
            return None
        _, b, a = max(edges)
        order.append(-b)
        parent[-b] = -a
    return order, parent


def balance_areas(labels, k: int, arrival) -> np.ndarray:
    """Equalize region areas by border exchanges, then trim the remainder.

    With total labeled area A and target T = floor(A / k), the steps in
    order:

    1. Tree flow: take a maximum spanning tree of the part graph, weighted
       by shared border length and rooted at region k; the flow across
       each tree edge is the surplus (area minus goal) of the subtree
       below it, the goal being T, and T plus the remainder for region k.
       Upward flows move leaves first, then downward flows root first,
       each as border strips, so every donor holds what it passes on.
       When a strip moves nothing, that pair is blocked and the tree and
       its flows are rebuilt from the current areas. Strips keep borders
       compact, so regions change width but keep their shape.
    2. Trim: move the A mod k surplus voxels of region k to the background
       as one strip off their shared border, largest arrival first, never
       breaking the region or opening a hole.

    Every region ends 4-connected with exactly T voxels: each is checked
    to be one piece on entry, and every move keeps its donor one piece and
    joins its receiver at a voxel 4-adjacent to it. Every step moves voxels
    by ``_strip_move``, which reads each candidate's ring once, for its
    removal test and for its update of the one ``_Parts`` state: the
    labels, Euler numbers and boxes. A pair's border is read when its flow
    starts and carried by a ``_Border`` through its strips, which adds the
    voxels each move puts on it and skips a voxel that could not leave
    until one of its 4-neighbors moves; the moves are those of a fresh
    border per strip with every candidate tested. Areas, Euler numbers,
    boxes and border lengths are counted from the labels' row runs on entry
    and after each round that blocks a pair.

    Raises
    ------
    ValidationError
        If the labels are not exactly 1..k, or the arrival is not finite
        on them or not of their shape.
    BalanceError
        If a region is split on entry, the pairs left unblocked no longer
        connect the regions, or the trim's border gives too few voxels.
    """
    k = check_positive_int(k, "k")
    lab = check_labelmap(labels).copy()
    arr = check_scalar_field(getattr(arrival, "values", arrival), shape=lab.shape)  # ArrivalField or array

    # max first: it keeps the count from sizing itself by a stray huge label
    if not lab.size or lab.max() > k or not np.bincount(lab.ravel(), minlength=k + 1)[1:].all():
        raise ValidationError(f"label map must contain exactly labels 1..{k}")
    if not np.isfinite(arr[lab > 0]).all():
        raise ValidationError("arrival values must be finite on all labeled voxels")
    # Work on the labels' bounding box padded with background, as the grid's
    # outside is; row-major order is kept.
    box = _box(lab)
    parts = _Parts(np.pad(lab[box], 1), k, check=True)
    arr = np.pad(arr[box], 1)

    target, leftover = divmod(int(np.count_nonzero(lab)), k)
    goals = [0] + [target] * (k - 1) + [target + leftover]  # remainder parks on region k for the trim

    # Each round fixes a tree and its flows on the counted areas and borders,
    # then meets them strip by strip. With the tree fixed, every voxel moved
    # lowers the flow left to move by one, so a round ends: with every goal
    # met, which ends the loop, or on a strip that moves nothing, which blocks
    # a pair the tree used, and the parts are counted again. No pair is
    # blocked twice, so there are at most k(k - 1)/2 rebuilds, and the loop
    # ends with no cap on moves. The trim reads only the quad sums and the
    # covering boxes, which the moves keep.
    blocked = set()
    while parts.areas[1:] != goals[1:]:
        tree = _spanning_tree(parts.touch, k, blocked)
        if tree is None:
            report = ", ".join(f"{j}: {parts.areas[j]}" for j in range(1, k + 1))
            raise BalanceError(f"balance failed; region areas: {report}")
        order, parent = tree
        flow = [area - goal for area, goal in zip(parts.areas, goals)]
        for j in reversed(order[1:]):
            flow[parent[j]] += flow[j]
        moves = [(j, parent[j], flow[j]) for j in reversed(order[1:]) if flow[j] > 0]
        moves += [(parent[j], j, -flow[j]) for j in order[1:] if flow[j] < 0]
        for give, take, need in moves:
            border = _Border(parts, give, take, arr)
            while need and (moved := _strip_move(parts, border, need)):
                need -= moved
            if need:
                blocked |= {(give, take), (take, give)}
                parts.count()
                break
        else:
            break

    # Trim: a strip from region k into the background, outermost first; the
    # padding puts the grid's outside in the background.
    if leftover and _strip_move(parts, _Border(parts, k, 0, -arr), leftover) < leftover:
        raise BalanceError(f"balance failed: cannot trim region {k} without disconnecting it")

    lab[box] = parts.lab[1:-1, 1:-1]
    return lab
