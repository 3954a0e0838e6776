from collections import deque

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapesplit import (
    BalanceError,
    Cut,
    CutError,
    ValidationError,
    balance_areas,
    euclidean_distance_map,
    extract_centerline,
    sample_cut_points,
    subdivide,
    subdivide_equal,
)
from shapesplit.eikonal import ArrivalField
from shapesplit.grid import _box, _label_runs, _runs
from shapesplit import subdivision
from shapesplit.subdivision import _RING, _RING_TABLE, _band, _Border, _counts, _joins, _Parts, _strip_move, _tangent

from conftest import make_blob, make_c_annulus
from oracles import adjacent_label_pairs, bit_quad_sum, euler_number, flood_fill_components


def straight_path(n):
    return [(x, 0) for x in range(n)]


class TestNormalAt:
    def test_horizontal(self):
        assert _tangent([(0, 0), (1, 0), (2, 0)], 1) == (2, 0)

    def test_diagonal(self):
        assert _tangent([(0, 0), (1, 1), (2, 2)], 1) == (2, 2)

    def test_corner(self):
        assert _tangent([(0, 0), (1, 0), (1, 1)], 1) == (1, 1)


class TestSampleCutPoints:
    def test_17_voxels_4_parts(self):
        plan = sample_cut_points(straight_path(17), 4)
        assert [cut.index for cut in plan] == [4, 8, 12]
        assert [cut.anchor for cut in plan] == [(4, 0), (8, 0), (12, 0)]
        assert all(cut.normal == (2, 0) for cut in plan)

    def test_k_1_empty_plan(self):
        assert sample_cut_points(straight_path(9), 1) == []

    def test_k_1_any_path_length(self):
        assert sample_cut_points([(0, 0)], 1) == []
        assert sample_cut_points(straight_path(2), 1) == []

    def test_100_voxels_16_parts(self):
        plan = sample_cut_points(straight_path(100), 16)
        idx = [cut.index for cut in plan]
        assert len(idx) == 15
        assert idx == sorted(set(idx))
        assert all(1 <= i <= 98 for i in idx)

    def test_k_too_large(self):
        with pytest.raises(ValidationError, match="k too large"):
            sample_cut_points(straight_path(9), 500)

    def test_length_boundary(self):
        with pytest.raises(ValidationError, match="k too large"):
            sample_cut_points(straight_path(8), 4)  # needs 2k+1 = 9
        assert len(sample_cut_points(straight_path(9), 4)) == 3

    def test_k_invalid(self):
        with pytest.raises(ValidationError):
            sample_cut_points(straight_path(9), 0)


class TestCutBand:
    def test_vertical_column(self):
        mask = np.ones((4, 8), dtype=bool)
        band = band_voxels(mask, (4, 1), (2, 0))
        assert band == {(4, 0), (4, 1), (4, 2), (4, 3)}

    def test_anti_diagonal(self):
        mask = np.ones((5, 5), dtype=bool)
        band = band_voxels(mask, (2, 2), (1, 1))
        assert band == {(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)}

    def test_stays_on_anchor_component(self):
        # two blobs on the same line: the band must not leak to the far one
        mask = np.zeros((5, 12), dtype=bool)
        mask[:, 0:4] = True
        mask[:, 8:12] = True
        band = band_voxels(mask, (2, 2), (2, 0))
        assert band == {(2, y) for y in range(5)}
        assert all(x < 4 for x, _ in band)


def line_reference(region, anchor, normal):
    """The band by its definition: the whole grid's line voxels, flood-filled from the anchor."""
    (ax, ay), (nx, ny) = anchor, normal
    yy, xx = np.mgrid[0 : region.shape[0], 0 : region.shape[1]]
    line = region & (2.0 * np.abs(nx * (xx - ax) + ny * (yy - ay)) <= max(abs(nx), abs(ny)))
    comps, _ = flood_fill_components(line, 8)
    return comps == comps[ay, ax]


def band_mask(region, anchor, normal):
    """``_band``'s voxels as a mask of ``region``'s shape."""
    band = np.zeros(region.shape, dtype=bool)
    band[_band(region, anchor, normal)[0]] = True
    return band


def band_voxels(region, anchor, normal):
    """``_band``'s voxels as a set of ``(x, y)``."""
    ys, xs = np.nonzero(band_mask(region, anchor, normal))
    return set(zip(xs.tolist(), ys.tolist()))


def band_cases(seed, count):
    """Regions up to 64², anchors on them and normals: integers in -4..4 and
    floats, on random masks, blobs and rings that a line through the anchor
    crosses twice."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        h, w = (int(v) for v in rng.integers(1, 65, size=2))
        kind = i % 3
        if kind == 0:
            region = rng.random((h, w)) < rng.uniform(0.3, 1.0)
        elif kind == 1:
            region = make_blob(int(rng.integers(100)), size=48)
        else:
            n = int(rng.integers(16, 65))
            yy, xx = np.mgrid[0:n, 0:n]
            radius = np.hypot(yy - (n - 1) / 2, xx - (n - 1) / 2)
            outer = rng.uniform(n / 4, n / 2)
            region = (radius <= outer) & (radius >= outer - rng.uniform(1.5, 6))
        ys, xs = np.nonzero(region)
        if ys.size == 0:
            continue
        pick = rng.integers(ys.size)
        normal = (0, 0)
        while normal == (0, 0):
            if rng.random() < 0.5:
                normal = tuple(int(v) for v in rng.integers(-4, 5, size=2))
            else:
                normal = tuple(float(v) for v in rng.uniform(-4, 4, size=2))
        yield region, (int(xs[pick]), int(ys[pick])), normal


def gapped_band_cases(seed, count):
    """Filled and random regions up to 40² whose line through the anchor
    lost random voxels, so its rows have gaps and some hold one of their two
    voxels; normals are small integers and floats whose |ny / nx| lies within
    1e-12 of 1."""
    rng = np.random.default_rng(seed)
    for i in range(count):
        h, w = (int(v) for v in rng.integers(2, 41, size=2))
        region = np.ones((h, w), bool) if i % 2 else rng.random((h, w)) < 0.9
        ys, xs = np.nonzero(region)
        if ys.size == 0:
            continue
        pick = rng.integers(ys.size)
        anchor = (int(xs[pick]), int(ys[pick]))
        if i % 3:
            a = float(rng.uniform(0.1, 4))
            normal = (a * float(rng.choice([-1, 1])), a * (1 + float(rng.uniform(-1e-12, 1e-12))))
            normal = normal if rng.random() < 0.5 else normal[::-1]
        else:
            normal = (0, 0)
            while normal == (0, 0):
                normal = tuple(int(v) for v in rng.integers(-3, 4, size=2))
        (ax, ay), (nx, ny) = anchor, normal
        yy, xx = np.mgrid[0:h, 0:w]
        line = region & (2.0 * np.abs(nx * (xx - ax) + ny * (yy - ay)) <= max(abs(nx), abs(ny)))
        drop = line & (rng.random((h, w)) < rng.uniform(0.05, 0.4))
        drop[ay, ax] = False
        yield region & ~drop, anchor, normal


class TestBandMask:
    def test_line_box_labeling_matches_a_whole_grid_reference(self):
        # The band is read off the line's rows; a reference labels the whole
        # line with the flood-fill oracle.
        rng = np.random.default_rng(12)
        cases = []
        for _ in range(200):
            h, w = rng.integers(3, 30, size=2)
            region = rng.random((h, w)) < rng.uniform(0.3, 1.0)
            ys, xs = np.nonzero(region)
            if ys.size == 0:
                continue
            pick = rng.integers(ys.size)
            ax, ay = int(xs[pick]), int(ys[pick])
            normal = (0, 0)
            while normal == (0, 0):
                normal = tuple(int(v) for v in rng.integers(-2, 3, size=2))
            cases.append((region, (ax, ay), normal))
        for region, (ax, ay), (nx, ny) in [*cases, *gapped_band_cases(13, 200)]:
            h, w = region.shape
            yy, xx = np.mgrid[0:h, 0:w]
            line = region & (2.0 * np.abs(nx * (xx - ax) + ny * (yy - ay)) <= max(abs(nx), abs(ny)))
            comps, _ = flood_fill_components(line, 8)
            before = region.copy()
            assert np.array_equal(band_mask(region, (ax, ay), (nx, ny)), comps == comps[ay, ax])
            assert np.array_equal(region, before)

    @pytest.mark.parametrize("seed", range(3))
    def test_candidates_per_row_match_the_definition(self, seed):
        # The band is picked from a few candidates per row or column of the
        # line; the reference tests every voxel of the grid.
        for region, anchor, normal in band_cases(seed, 120):
            before = region.copy()
            assert np.array_equal(band_mask(region, anchor, normal), line_reference(region, anchor, normal))
            assert np.array_equal(region, before)

    def test_edge_normals_and_thin_grids(self):
        normals = [(1, 1), (1, -1), (1.0, 1 - 1e-12), (1 - 1e-12, 1.0), (1e-300, 1.0), (3, 1.5), (1e6, 3), (0.1, 0.3)]
        regions = [np.ones((1, 1), bool), np.ones((1, 40), bool), np.ones((40, 1), bool), np.ones((64, 64), bool)]
        for region in regions:
            h, w = region.shape
            for anchor in {(0, 0), (w // 2, h // 2), (w - 1, h - 1)}:
                for normal in normals:
                    expect = line_reference(region, anchor, normal)
                    assert np.array_equal(band_mask(region, anchor, normal), expect), (region.shape, anchor, normal)

    @pytest.mark.parametrize("seed", range(3))
    def test_pieces_are_the_band_4_components(self, seed):
        # Pieces are numbered 0, 1, ... in the order of the band's voxels, one
        # number per 4-component of the band.
        counts = []
        for region, anchor, normal in [*band_cases(seed, 60), *gapped_band_cases(20 + seed, 120)]:
            (ys, xs), piece = _band(region, anchor, normal)
            comps, count = flood_fill_components(band_mask(region, anchor, normal), 4)
            assert np.array_equal(np.unique(piece), np.arange(count))
            assert (np.diff(piece) >= 0).all()
            pairs = set(zip(piece.tolist(), comps[ys, xs].tolist()))
            assert len(pairs) == count, (region.shape, anchor, normal)
            counts.append(count)
        assert max(counts) > 2


def assert_join_check_matches(region, anchor, normal):
    """``_joins`` against flood-filling the band with each piece it leaves; returns the outcomes.

    ``_joins`` reads the band's neighbours off the row runs of what the band
    leaves, each run given the first run of its flood-filled 4-piece.
    """
    (ys, xs), piece = _band(region, anchor, normal)
    mask = band_mask(region, anchor, normal)
    comps, count = flood_fill_components(region & ~mask, 4)
    _, pitch, starts, ends = _runs(region & ~mask)
    owner = comps.ravel()[starts // pitch * region.shape[1] + starts % pitch - 1]
    _, first, inverse = np.unique(owner, return_index=True, return_inverse=True)
    runs = starts, ends, first[inverse]
    outcomes = []
    for behind in range(1, count + 1):
        expect = flood_fill_components(mask | (comps == behind), 4)[1] == 1
        assert _joins(ys * pitch + 1 + xs, piece, pitch, runs, first[behind - 1]) == expect, (anchor, normal, behind)
        outcomes.append(expect)
    return outcomes


class TestJoins:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_flood_fill_on_random_cuts(self, seed):
        outcomes = []
        for region, anchor, normal in [*band_cases(100 + seed, 120), *gapped_band_cases(200 + seed, 120)]:
            outcomes += assert_join_check_matches(region, anchor, normal)
        assert True in outcomes and False in outcomes

    def test_diagonal_tail_on_the_far_side(self):
        # The anti-diagonal x + y = 4 cuts a 5x5 square in two; without the
        # voxel x=0, y=3, the band's end x=0, y=4 touches only the far side.
        region = np.ones((5, 5), dtype=bool)
        region[3, 0] = False
        band, piece = _band(region, (2, 2), (1, 1))
        assert sorted(zip(*band)) == [(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)]  # (y, x)
        comps, count = flood_fill_components(region & ~band_mask(region, (2, 2), (1, 1)), 4)
        assert count == 2
        assert (comps[0, 0], comps[4, 4]) == (1, 2)  # the near side, then the far side
        assert assert_join_check_matches(region, (2, 2), (1, 1)) == [False, True]


def areas_of(labels, k):
    return [int((labels == j).sum()) for j in range(1, k + 1)]


def assert_valid_partition(mask, labels, k):
    """Parts 1..k of floor(A/k) voxels each, every one a 4-piece, inside the mask."""
    assert areas_of(labels, k) == [int(mask.sum()) // k] * k
    assert (labels[~mask] == 0).all()
    for j in range(1, k + 1):
        assert flood_fill_components(labels == j, 4)[1] == 1


class TestSubdivide:
    def test_rectangle_vertical_bands(self):
        mask = np.ones((16, 64), dtype=bool)
        path, _ = extract_centerline(mask)
        plan = sample_cut_points(path, 4)
        labels = subdivide(mask, path, plan)
        assert sorted(np.unique(labels).tolist()) == [1, 2, 3, 4]
        for j in range(1, 5):
            cols = np.unique(np.nonzero(labels == j)[1])
            assert 15 <= cols.size <= 17
        mins = [np.nonzero(labels == j)[1].min() for j in range(1, 5)]
        assert mins == sorted(mins)

    def test_k_1_labels_everything_1(self):
        mask = np.ones((4, 9), dtype=bool)
        path, _ = extract_centerline(mask)
        labels = subdivide(mask, path, [])
        assert (labels[mask] == 1).all()
        assert (labels[~mask] == 0).all()

    def test_partition_no_overlap_no_gap(self):
        mask = make_blob(8)
        path, _ = extract_centerline(mask)
        plan = sample_cut_points(path, 5)
        labels = subdivide(mask, path, plan)
        assert (labels[~mask] == 0).all()
        assert (labels[mask] >= 1).all()
        assert (labels[mask] <= 5).all()
        assert set(np.unique(labels[mask]).tolist()) == {1, 2, 3, 4, 5}

    def test_labels_non_decreasing_along_path(self):
        for seed in (3, 9):
            mask = make_blob(seed)
            path, _ = extract_centerline(mask)
            plan = sample_cut_points(path, 6)
            labels = subdivide(mask, path, plan)
            seq = [int(labels[y, x]) for x, y in path]
            assert all(a <= b for a, b in zip(seq, seq[1:]))

    def test_anchor_path_mismatch_rejected(self):
        mask = np.ones((4, 9), dtype=bool)
        path, _ = extract_centerline(mask)
        plan = sample_cut_points(path, 2)
        bad = [plan[0]._replace(anchor=(0, 0))]
        with pytest.raises(ValidationError):
            subdivide(mask, path, bad)

    def test_disconnected_mask_rejected(self):
        mask = np.zeros((3, 5), dtype=bool)
        mask[0, 0:2] = True
        mask[2, 3:5] = True
        with pytest.raises(ValidationError, match="region not connected"):
            subdivide(mask, [(0, 0), (1, 0)], [])

    def test_path_outside_region_rejected(self):
        mask = np.ones((5, 12), dtype=bool)
        path = [(i, i) for i in range(6)]  # (5, 5) is below the last row
        with pytest.raises(ValidationError, match=r"^path voxel \(5, 5\) lies outside the region$"):
            subdivide(mask, path, [])


class TestSubdividePlan:
    # a 20-voxel centerline down the middle row of a 3x20 rectangle
    mask = np.ones((3, 20), dtype=bool)
    path = [(x, 1) for x in range(20)]

    @pytest.mark.parametrize(
        "plan",
        [
            [Cut(100, (0, 1), (2, 0))],
            [Cut(-1, (19, 1), (2, 0))],
            [Cut(0, (0, 1), (2, 0))],
            [Cut(19, (19, 1), (2, 0))],
            [Cut(12, (12, 1), (2, 0)), Cut(6, (6, 1), (2, 0))],
            [Cut(6, (6, 1), (2, 0)), Cut(6, (6, 1), (2, 0))],
            [Cut(6.5, (6, 1), (2, 0))],
            [Cut(True, (1, 1), (2, 0))],
            [(6, (6, 1))],
            [6],
            [None],
        ],
    )
    def test_bad_plan_rejected(self, plan):
        with pytest.raises(ValidationError):
            subdivide(self.mask, self.path, plan)

    def test_normal_must_match_the_path(self):
        # the straight path's direction at every interior index is (2, 0)
        assert subdivide(self.mask, self.path, [Cut(6, (6, 1), (2, 0))]).max() == 2
        for normal in ((0, 5), (4, 0), "junk", (2, 0, 0), None):
            with pytest.raises(ValidationError):
                subdivide(self.mask, self.path, [Cut(6, (6, 1), normal)])

    def test_plain_triples_accepted(self):
        plan = sample_cut_points(self.path, 3)
        plain = [tuple(cut) for cut in plan]
        assert np.array_equal(subdivide(self.mask, self.path, plain), subdivide(self.mask, self.path, plan))


def nearest_first(index, length):
    """Path indices 1..length-2 in the shift search's order: index, +1, -1, +2, -2, ..."""
    shifts = [0] + [s for step in range(1, length) for s in (step, -step)]
    return [index + s for s in shifts if 1 <= index + s <= length - 2]


def cut_outcome(working, path, i):
    """``(part, joins)`` of a cut at path index ``i`` on ``working``, by flood fill.

    ``part`` is the component behind the cut, the first along the path, with
    the band; it is None when the cut severs no component holding a path
    voxel. ``joins`` says that no component is stranded off the path and the
    part is one 4-piece.
    """
    rest = working & ~band_mask(working, path[i], _tangent(path, i))
    comps, count = flood_fill_components(rest, 4)
    along = [comps[y, x] for x, y in path if comps[y, x]]
    if count < 2 or not along:
        return None, False
    part = (comps == along[0]) | (rest != working)
    return part, set(along) == set(range(1, count + 1)) and flood_fill_components(part, 4)[1] == 1


class TestShiftSearch:
    """Where a cut that fails to join moves to, seen through the public ``subdivide``.

    Segment j cuts the voxels the earlier cuts left, which are ``labels >= j``.
    """

    def test_a_joining_cut_is_found_anywhere_on_the_path(self):
        # The path is shorter than 4k voxels, so no cut could shift before;
        # segments 2 and 4 join one voxel along, and every label is one piece.
        mask = make_blob(3)
        path, _ = extract_centerline(mask)
        assert len(path) < 4 * 8
        labels = subdivide(mask, path, sample_cut_points(path, 8))
        for j in range(1, 9):
            assert flood_fill_components(labels == j, 4)[1] == 1

    def test_nearest_first_plus_before_minus(self):
        # The planned first cut severs but does not join; one voxel either
        # way joins, and the cut one voxel toward the path's end is taken.
        mask = make_blob(1)
        path, _ = extract_centerline(mask)
        plan = sample_cut_points(path, 4)
        labels = subdivide(mask, path, plan)
        index = plan[0].index
        part, joins = cut_outcome(mask, path, index)
        assert part is not None and not joins
        after, before = cut_outcome(mask, path, index + 1), cut_outcome(mask, path, index - 1)
        assert after[1] and before[1]
        assert np.array_equal(labels == 1, after[0])
        assert not np.array_equal(labels == 1, before[0])

    def test_without_a_joining_cut_the_first_that_severs_is_used(self):
        # No unlabeled path voxel of segment 3 gives a cut that joins. The
        # planned cut severs nothing; of those that do, six voxels toward the
        # path's end comes before twelve back.
        mask = make_blob(20, size=64)
        path, _ = extract_centerline(mask)
        plan = sample_cut_points(path, 4)
        labels = subdivide(mask, path, plan)
        working = labels >= 3
        order = [i for i in nearest_first(plan[2].index, len(path)) if working[path[i][1], path[i][0]]]
        outcomes = {i: cut_outcome(working, path, i) for i in order}
        assert not any(joins for _, joins in outcomes.values())
        severing = [i for i in order if outcomes[i][0] is not None]
        assert severing[0] == plan[2].index + 6 and plan[2].index - 12 in severing
        assert np.array_equal(labels == 3, outcomes[severing[0]][0])


def reference_subdivide(m, pts, indices, seen):
    """The cut stage as it labelled each attempt's rest on its box, here by flood fill.

    Every attempt copies what is left to label on its box, clears the band
    and flood-fills the rest; the part is painted from that map, and the box
    shrinks to what is left. ``seen`` collects the branches the attempts
    reach: ``"shift"`` (a cut taken off its planned index), ``"fallback"``
    (a segment that takes the first severing cut) and ``"three"`` (a band
    that leaves three pieces or more).
    """
    path_x, path_y = np.array(pts).T
    length, k = len(pts), len(indices) + 1
    labels = np.zeros(m.shape, dtype=np.int32)
    working = m.copy()
    box = _box(m)
    for j, index in enumerate(indices, start=1):
        work, y0, x0 = working[box], box[0].start, box[1].start
        on = working[path_y, path_x]
        box_y, box_x = path_y[on] - y0, path_x[on] - x0
        chosen = fallback = None
        for shift, i in enumerate(nearest_first(index, length)):
            ax, ay = pts[i]
            if not working[ay, ax]:
                continue
            (ys, xs), piece = _band(work, (ax - x0, ay - y0), _tangent(pts, i))
            rest = work.copy()
            rest[ys, xs] = False
            comps, ncomp = flood_fill_components(rest, 4)
            along = comps[box_y, box_x]
            along = along[along > 0]
            if ncomp < 2 or along.size == 0:
                continue
            if ncomp > 2:
                seen.add("three")
            # every band piece needs a 4-neighbour in the piece behind the cut
            h, w = rest.shape
            near = np.zeros(ys.size, dtype=bool)
            for dy, dx in ((-1, 0), (1, 0), (0, -1), (0, 1)):
                py, px = ys + dy, xs + dx
                inside = (0 <= py) & (py < h) & (0 <= px) & (px < w)
                near[inside] |= comps[py[inside], px[inside]] == along[0]
            strands = set(along.tolist()) != set(range(1, ncomp + 1))
            joins = not strands and set(piece[near].tolist()) == set(piece.tolist())
            if joins or fallback is None:
                part = comps == along[0]
                part[ys, xs] = True
                if joins:
                    chosen = part
                    if shift:
                        seen.add("shift")
                    break
                fallback = part
        if chosen is None and fallback is not None:
            chosen = fallback
            seen.add("fallback")
        if chosen is None:
            raise CutError(f"cut failed at segment {j}")
        labels[box][chosen] = j
        work &= ~chosen
        rows, cols = _box(work)
        box = np.s_[y0 + rows.start : y0 + rows.stop, x0 + cols.start : x0 + cols.stop]
    labels[box][working[box]] = k
    return labels


def cut_outcomes(mask, k):
    """``(carried, reference, seen)``: the cut stage's labels or error message, both ways, on the mask's own path."""
    pts, _ = extract_centerline(mask)
    indices = [cut.index for cut in sample_cut_points(pts, k)]
    outcomes, seen = [], set()
    for cut_stage in (subdivision._subdivide, lambda *args: reference_subdivide(*args, seen)):
        try:
            outcomes.append(cut_stage(mask, pts, indices).tobytes())
        except CutError as err:
            outcomes.append(str(err))
    return *outcomes, seen


class TestCarriedRuns:
    """The carried runs label every segment as flood-filling each attempt's rest did."""

    @pytest.mark.parametrize("size, seeds", [(48, range(12)), (64, range(6)), (96, range(3))])
    def test_blobs_match_a_flood_fill_per_attempt(self, size, seeds):
        for seed in seeds:
            mask = make_blob(seed, size=size)
            for k in range(2, 9):
                try:
                    carried, reference, _ = cut_outcomes(mask, k)
                except ValidationError:  # the path is too short for k
                    continue
                assert carried == reference, (size, seed, k)

    @pytest.mark.parametrize("notch", [20.0, 5.0, 0.0])
    def test_annuli_match_a_flood_fill_per_attempt(self, notch):
        for k in (2, 4, 8, 16):
            carried, reference, _ = cut_outcomes(make_c_annulus(notch_deg=notch), k)
            assert carried == reference, k

    @pytest.mark.parametrize(
        "size, seed, k, branches, failed",
        [
            (48, 1, 4, {"shift"}, False),
            (64, 20, 4, {"shift", "fallback", "three"}, False),
            (96, 13, 7, {"shift", "fallback", "three"}, True),
            (96, 8, 5, {"three"}, False),
        ],
    )
    def test_the_shift_search_the_fallback_and_three_pieces_match(self, size, seed, k, branches, failed):
        carried, reference, seen = cut_outcomes(make_blob(seed, size=size), k)
        assert carried == reference
        assert seen == branches
        assert isinstance(carried, str) == failed


def stage_outcome(cut_stage, mask, pts, indices):
    """A cut stage's labels, as bytes, or its CutError's message."""
    try:
        return cut_stage(mask, pts, indices).tobytes()
    except CutError as err:
        return str(err)


def both_outcomes(mask, pts, indices):
    """``(carried, reference)``: ``_subdivide``'s outcome and the flood fill per attempt's."""
    return (
        stage_outcome(subdivision._subdivide, mask, pts, indices),
        stage_outcome(lambda *args: reference_subdivide(*args, set()), mask, pts, indices),
    )


def four_near(mask):
    """The voxels 4-adjacent to ``mask``."""
    pad = np.pad(mask, 1)
    return pad[:-2, 1:-1] | pad[2:, 1:-1] | pad[1:-1, :-2] | pad[1:-1, 2:]


def at_once_failures(mask, pts, indices):
    """The first cut failing each of ``_subdivide``'s conditions (a)-(e), by flood fill; k where none does.

    The bands are those of the planned cuts on the whole mask; the pieces
    are the 4-pieces of what they leave, those holding a path voxel numbered
    1, 2, ... by their first. A band voxel's part is its lowest cut, a piece
    voxel's its piece's number.
    """
    k = len(indices) + 1
    bands = [band_mask(mask, pts[i], _tangent(pts, i)) for i in indices]
    covers = np.sum(bands, axis=0)
    comps, _ = flood_fill_components(mask & (covers == 0), 4)
    order = list(dict.fromkeys(c for c in (comps[y, x] for x, y in pts) if c))
    number = np.zeros(comps.max() + 1, dtype=int)
    number[order] = np.arange(1, len(order) + 1)
    pieces = number[comps]
    lowest = np.where(covers > 0, np.argmax(bands, axis=0) + 1, 0)
    part = [int(pieces[y, x] or lowest[y, x]) for x, y in pts]
    firsts = [next(t for t, (x, y) in enumerate(pts) if pieces[y, x] == n) for n in range(1, len(order) + 1)]

    def strays(j, band):
        """Whether a 4-piece of ``band`` touches no voxel of piece j."""
        bits, count = flood_fill_components(band, 4)
        return any(not (four_near(bits == b) & (pieces == j)).any() for b in range(1, count + 1))

    return {
        "a": min([j for j, band in enumerate(bands, 1) if (band & (covers > 1)).any()], default=k),
        "b": min(len(order), k),
        "c": min([n for n, t in enumerate(firsts, 1) if max(part[:t], default=0) > n], default=k),
        "d": min([j for j, band in enumerate(bands, 1) if strays(j, band)], default=k),
        "e": min([n for n in range(1, len(order) + 1) if any((four_near(pieces == n) & band).any() for band in bands[n:])], default=k),
    }


def random_cut_case(seed):
    """A random 4-connected region up to 15², a random simple 8-path in it, and random cut indices."""
    rng = np.random.default_rng(seed)
    while True:
        h, w = (int(v) for v in rng.integers(4, 16, size=2))
        labels, count = flood_fill_components(rng.random((h, w)) < rng.uniform(0.6, 1.0), 4)
        if count == 0:
            continue
        region = labels == np.argmax(np.bincount(labels.ravel())[1:]) + 1
        ys, xs = np.nonzero(region)
        pick = rng.integers(ys.size)
        pts = [(int(xs[pick]), int(ys[pick]))]
        for _ in range(int(rng.integers(4, 60))):
            x, y = pts[-1]
            steps = [(x + dx, y + dy) for dy in (-1, 0, 1) for dx in (-1, 0, 1) if dx or dy]
            steps = [(a, b) for a, b in steps if 0 <= a < w and 0 <= b < h and region[b, a] and (a, b) not in pts]
            if not steps:
                break
            pts.append(steps[rng.integers(len(steps))])
        if len(pts) >= 5:
            k = int(rng.integers(2, min(6, (len(pts) - 1) // 2) + 1))
            return region, pts, sorted(rng.choice(np.arange(1, len(pts) - 1), size=k - 1, replace=False).tolist())


def hand_mask(rows: list[str]) -> np.ndarray:
    """A mask from rows of ``#`` (region) and ``.``."""
    return np.array([[c == "#" for c in row] for row in rows])


class TestAtOnce:
    """Labeling all planned cuts at once gives what the shift search gives, and hands it the cut that it cannot prove.

    Each hand case is the smallest found, on random regions, paths and cuts,
    where a copy of ``_subdivide`` without that one check gives other labels.
    """

    CONDITIONS = {
        "a": (["#.##", "###.", "###.", ".#.."], [(1, 3), (0, 2), (1, 2), (0, 1), (1, 1), (2, 2), (2, 1), (3, 0), (2, 0)], [1, 5]),
        "b": (["####", ".#.#", "###."], [(1, 1), (2, 2), (3, 1), (2, 0), (1, 0), (0, 0)], [1]),
        "c": (["##.#", ".###", "..#.", "..##", "...#"], [(2, 2), (1, 1), (0, 0), (1, 0), (2, 1), (3, 0), (3, 1)], [3, 4]),
        "d": (["###..", "#####", "##.##"], [(3, 1), (2, 1), (3, 2), (4, 2), (4, 1)], [3]),
        "e": (["..##", "####", "####", ".###"], [(0, 2), (0, 1), (1, 2), (2, 2), (2, 3), (3, 2), (3, 3)], [1, 3]),
    }

    @pytest.mark.parametrize("condition", sorted(CONDITIONS))
    def test_a_failing_condition_leaves_the_cut_to_the_shift_search(self, condition):
        rows, pts, indices = self.CONDITIONS[condition]
        mask = hand_mask(rows)
        assert at_once_failures(mask, pts, indices)[condition] < len(indices) + 1
        carried, reference = both_outcomes(mask, pts, indices)
        assert carried == reference

    @pytest.mark.parametrize(
        "rows, pts, indices",
        [
            # a piece that holds no path voxel
            (["###", ".#.", "###", "##."], [(0, 2), (1, 1), (2, 2), (1, 3), (0, 3), (1, 2)], [1]),
            # a 4-piece of a later band that reaches no piece past the proven cuts
            (
                [".#..#####.#", "#######.###", ".#####..#.#", "#.###......", "#####.###.#", "###########",
                 "##.#..##.#.", "#....######", ".....###.#."],
                [(5, 2), (5, 1), (5, 0), (6, 0), (7, 0), (8, 0), (8, 1), (9, 1), (10, 2), (10, 1), (10, 0)],
                [6, 7],
            ),
        ],
    )
    def test_what_is_left_must_reach_the_path(self, rows, pts, indices):
        carried, reference = both_outcomes(hand_mask(rows), pts, indices)
        assert carried == reference

    def test_every_condition_fails_on_some_blob(self):
        seen = set()
        for size, seed, k in ((48, 1, 4), (48, 2, 4), (64, 20, 4), (96, 13, 7)):
            mask = make_blob(seed, size=size)
            pts, _ = extract_centerline(mask)
            indices = [cut.index for cut in sample_cut_points(pts, k)]
            seen |= {condition for condition, cut in at_once_failures(mask, pts, indices).items() if cut < k}
            carried, reference = both_outcomes(mask, pts, indices)
            assert carried == reference, (size, seed, k)
        assert seen == set("abcde")

    @settings(max_examples=300, deadline=None)
    @given(st.integers(0, 2**32 - 1))
    def test_random_paths_and_cuts_match_a_flood_fill_per_attempt(self, seed):
        mask, pts, indices = random_cut_case(seed)
        carried, reference = both_outcomes(mask, pts, indices)
        assert carried == reference

    @settings(max_examples=60, deadline=None)
    @given(st.integers(0, 10_000), st.sampled_from([48, 64]), st.integers(2, 8))
    def test_drawn_blobs_match_a_flood_fill_per_attempt(self, seed, size, k):
        mask = make_blob(seed, size=size)
        pts, _ = extract_centerline(mask)
        try:
            indices = [cut.index for cut in sample_cut_points(pts, k)]
        except ValidationError:  # the path is too short for k
            return
        carried, reference = both_outcomes(mask, pts, indices)
        assert carried == reference


class TestCutBandSeparation:
    @pytest.mark.parametrize("seed", range(6))
    def test_band_splits_convex_mask_in_two(self, seed):
        rng = np.random.default_rng(seed)
        h, w = 24, 24
        cy, cx = 11.5, 11.5
        ry = rng.uniform(6, 10)
        rx = rng.uniform(6, 10)
        yy, xx = np.mgrid[0:h, 0:w]
        mask = ((xx - cx) / rx) ** 2 + ((yy - cy) / ry) ** 2 <= 1.0
        normals = [(2, 0), (0, 2), (1, 1), (2, 1), (1, -2), (-2, 1)]
        n = normals[seed]
        d = euclidean_distance_map(mask)
        idx = int(np.argmax(d))
        anchor = (idx % w, idx // w)
        remaining = mask & ~band_mask(mask, anchor, n)
        _, count = flood_fill_components(remaining, 4)
        assert count == 2, (seed, n, count)


def synthetic_arrival(shape):
    yy, xx = np.mgrid[0 : shape[0], 0 : shape[1]]
    return ArrivalField(values=(xx + yy).astype(np.float64), source=(0, 0))


class TestBalanceAreas:
    def test_already_equal_identity(self):
        labels = np.zeros((2, 8), dtype=np.int32)
        labels[:, 0:4] = 1
        labels[:, 4:8] = 2
        out = balance_areas(labels, 2, synthetic_arrival(labels.shape))
        assert np.array_equal(out, labels)

    def test_10_6_becomes_8_8(self):
        labels = np.zeros((2, 8), dtype=np.int32)
        labels[:, 0:5] = 1
        labels[:, 5:8] = 2
        out = balance_areas(labels, 2, synthetic_arrival(labels.shape))
        assert areas_of(out, 2) == [8, 8]
        assert (out > 0).sum() == 16

    def test_17_voxels_4_parts_trims_one(self):
        labels = np.zeros((1, 17), dtype=np.int32)
        labels[0, 0:5] = 1
        labels[0, 5:9] = 2
        labels[0, 9:13] = 3
        labels[0, 13:17] = 4
        out = balance_areas(labels, 4, synthetic_arrival(labels.shape))
        assert areas_of(out, 4) == [4, 4, 4, 4]
        assert int((out == 0).sum()) == 1

    def test_regions_stay_connected(self):
        labels = np.zeros((6, 20), dtype=np.int32)
        labels[:, 0:9] = 1
        labels[:, 9:20] = 2
        out = balance_areas(labels, 2, synthetic_arrival(labels.shape))
        assert areas_of(out, 2) == [60, 60]
        for j in (1, 2):
            _, count = flood_fill_components(out == j, 4)
            assert count == 1

    def test_wrong_label_set_rejected(self):
        labels = np.zeros((2, 4), dtype=np.int32)
        labels[:, 0:2] = 1
        labels[:, 2:4] = 3  # label 2 missing
        with pytest.raises(ValidationError, match=r"exactly labels 1\.\.3"):
            balance_areas(labels, 3, synthetic_arrival(labels.shape))
        labels[0, 0] = 2  # labels 1..3 all present, and label 3 above k = 2
        with pytest.raises(ValidationError, match=r"exactly labels 1\.\.2"):
            balance_areas(labels, 2, synthetic_arrival(labels.shape))
        empty = np.zeros((0, 4), dtype=np.int32)
        with pytest.raises(ValidationError, match=r"exactly labels 1\.\.1"):
            balance_areas(empty, 1, synthetic_arrival(empty.shape))

    def test_nonfinite_arrival_rejected(self):
        labels = np.ones((2, 4), dtype=np.int32)
        arrival = ArrivalField(values=np.full((2, 4), np.inf), source=(0, 0))
        with pytest.raises(ValidationError):
            balance_areas(labels, 1, arrival)

    def test_arrival_field_shape_checked(self):
        labels = np.ones((2, 4), dtype=np.int32)
        with pytest.raises(ValidationError, match="shape"):
            balance_areas(labels, 1, synthetic_arrival((2, 3)))

    def test_disconnected_region_is_balance_failure(self):
        labels = np.zeros((1, 5), dtype=np.int32)
        labels[0] = [1, 2, 1, 2, 2]  # label 1 split in two
        with pytest.raises(BalanceError, match="balance failed"):
            balance_areas(labels, 2, synthetic_arrival(labels.shape))

    def test_entry_failure_names_the_lowest_split_region(self):
        # labels 3 and 2 are both split, 3 met first in row-major order
        labels = np.array([[1, 3, 2, 3, 2]], dtype=np.int32)
        with pytest.raises(BalanceError) as err:
            balance_areas(labels, 3, synthetic_arrival(labels.shape))
        assert str(err.value) == "balance failed: region 2 is not 4-connected"

    def test_surplus_routes_across_intermediate_regions(self):
        # all surplus sits on region 1, the deficits at the chain's far end
        labels = np.zeros((4, 60), dtype=np.int32)
        labels[:, 0:30] = 1
        labels[:, 30:40] = 2
        labels[:, 40:50] = 3
        labels[:, 50:60] = 4
        out = balance_areas(labels, 4, synthetic_arrival(labels.shape))
        assert areas_of(out, 4) == [60, 60, 60, 60]
        for j in range(1, 5):
            _, count = flood_fill_components(out == j, 4)
            assert count == 1

    @pytest.mark.parametrize("seed, k", [(19, 3), (4, 5)])
    def test_large_drift_balances_into_a_valid_partition(self, seed, k):
        # cuts on these shapes leave a large drift: balancing moves 1,082
        # and 737 voxels between parts
        mask = make_blob(seed, size=96)
        labels = subdivide_equal(mask, k)
        assert_valid_partition(mask, labels, k)

    @pytest.mark.parametrize("seed, size, k", [(23, 48, 5), (23, 48, 8), (13, 48, 4), (13, 48, 5), (4, 96, 8)])
    def test_a_blocked_pair_rebuilds_the_tree(self, seed, size, k, monkeypatch):
        # On these shapes a strip toward a part moves nothing; balancing
        # blocks that pair and still succeeds on a tree without it.
        stuck, trees = [], []
        strip_move, spanning_tree = subdivision._strip_move, subdivision._spanning_tree

        def counted_strip(parts, border, limit):
            moved = strip_move(parts, border, limit)
            if border.take and not moved:  # toward a part, not the trim
                stuck.append((border.give, border.take))
            return moved

        def counted_tree(*args):
            trees.append(args)
            return spanning_tree(*args)

        monkeypatch.setattr(subdivision, "_strip_move", counted_strip)
        monkeypatch.setattr(subdivision, "_spanning_tree", counted_tree)
        mask = make_blob(seed, size=size)
        labels = subdivide_equal(mask, k)
        assert stuck
        assert 2 <= len(trees) <= k * (k - 1) // 2 + 1
        assert_valid_partition(mask, labels, k)

    def test_parts_that_never_touch_fail_with_their_areas(self):
        labels = np.array([[1, 0, 2, 2, 2]], dtype=np.int32)
        with pytest.raises(BalanceError) as err:
            balance_areas(labels, 2, np.ones(labels.shape))
        assert str(err.value) == "balance failed; region areas: 1: 1, 2: 3"

    def test_trim_prefers_large_arrival(self):
        # region 2 must lose exactly one voxel, the one with max arrival
        labels = np.zeros((1, 9), dtype=np.int32)
        labels[0, 0:4] = 1
        labels[0, 4:9] = 2
        out = balance_areas(labels, 2, synthetic_arrival(labels.shape))
        assert areas_of(out, 2) == [4, 4]
        assert out[0, 8] == 0  # largest x + y in region 2

    def test_trim_takes_only_voxels_on_the_background(self):
        # The tree flow moves (0, 4) to region 1; region 2 then trims one
        # voxel. Its largest arrival is at (1, 6), enclosed by region 2, so
        # trimming it would open a hole: the trim takes (0, 8), the largest
        # arrival on region 2's border with the background.
        labels = np.zeros((3, 9), dtype=np.int32)
        labels[:, 0:4] = 1
        labels[:, 4:9] = 2
        arrival = np.ones(labels.shape)
        arrival[1, 6] = 100.0
        arrival[0, 8] = 50.0
        out = balance_areas(labels, 2, arrival)
        assert areas_of(out, 2) == [13, 13]
        assert np.argwhere(out == 0).tolist() == [[0, 8]]
        assert euler_number(out > 0) == 1

    def test_trim_without_a_border_on_the_background_fails(self):
        # Region 2 (25 voxels, one to trim) is enclosed by region 1 (24
        # voxels), so no voxel of it touches the background.
        labels = np.ones((7, 7), dtype=np.int32)
        labels[1:-1, 1:-1] = 2
        with pytest.raises(BalanceError, match="^balance failed: cannot trim region 2 without disconnecting it$"):
            balance_areas(labels, 2, np.ones((7, 7)))


def one_part(region):
    """``region`` as part 1 of a balancing state, on its grid padded by one voxel."""
    return _Parts(np.pad(region, 1).astype(np.int32), 1)


# The ring table with one ring group for every pattern: a removal test that
# lets every voxel go, with the true quad changes.
ONE_GROUP_TABLE = [(1, change) for _, change in _RING_TABLE]


def flood_fill_replay(part, cand, limit):
    """The reference removal scan, by flood fill: ``(moved, left)``.

    Takes, in ``cand`` order, up to ``limit`` voxels whose removal leaves
    the boolean ``part`` one 4-piece, each tested against what is left.
    """
    left, moved = part.copy(), []
    for yx in cand:
        if len(moved) == limit:
            break
        rest = left.copy()
        rest[yx] = False
        if flood_fill_components(rest, 4)[1] == 1:
            moved.append(yx)
            left = rest
    return moved, left


def strip_over(parts, cand, give, take, limit):
    """``_strip_move`` with ``cand``, a list of (y, x), as the border, in that order."""
    ys, xs = np.array(cand, dtype=np.intp).reshape(-1, 2).T
    parts.border = lambda g, t: (ys, xs)  # equal arrivals: the stable sort keeps the order
    return _strip_move(parts, _Border(parts, give, take, np.zeros(parts.lab.shape)), limit)


class TestStripMoveRemoval:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_flood_fill_oracle(self, seed):
        # every voxel of every 4-component of small random masks, holes
        # included, probed one at a time as a one-voxel strip to the
        # background, each on a fresh state
        rng = np.random.default_rng(seed)
        for _ in range(120):
            h, w = (int(v) for v in rng.integers(1, 10, size=2))
            mask = rng.random((h, w)) < rng.uniform(0.3, 0.95)
            comps, count = flood_fill_components(mask, 4)
            for c in range(1, count + 1):
                region = comps == c
                _, background = flood_fill_components(~np.pad(region, 1), 8)
                assert (one_part(region).quads[1] != 4) == (background > 1)
                for y, x in np.argwhere(region):
                    rest = region.copy()
                    rest[y, x] = False
                    truth = flood_fill_components(rest, 4)[1] == 1
                    parts = one_part(region)
                    assert strip_over(parts, [(y + 1, x + 1)], 1, 0, 1) == truth
                    assert np.array_equal(parts.lab[1:-1, 1:-1] == 1, rest if truth else region)

    @pytest.mark.parametrize("seed", range(3))
    def test_scan_removes_in_turn(self, seed):
        # each candidate is tested against the part the earlier removals
        # left, holes they open included
        rng = np.random.default_rng(seed)
        for _ in range(60):
            h, w = (int(v) for v in rng.integers(2, 10, size=2))
            mask = rng.random((h, w)) < rng.uniform(0.5, 0.95)
            comps, _ = flood_fill_components(mask, 4)
            region = np.pad(comps == int(np.argmax(np.bincount(comps.ravel())[1:])) + 1, 1)
            cand = [(int(y), int(x)) for y, x in rng.permutation(np.argwhere(region))]
            parts = _Parts(region.astype(np.int32), 1)
            got = strip_over(parts, cand, 1, 0, len(cand))
            want, left = flood_fill_replay(region, cand, len(cand))
            assert got == len(want)
            assert np.array_equal(parts.lab == 1, left)

    def test_loop_around_a_hole_needs_the_search(self):
        # the top middle voxel splits its two neighbors locally, yet the
        # ring joins them the long way round
        ring = np.ones((3, 3), dtype=bool)
        ring[1, 1] = False
        assert one_part(ring).quads[1] != 4
        assert strip_over(one_part(ring), [(1, 2)], 1, 0, 1) == 1
        assert strip_over(one_part(ring[:2]), [(1, 2)], 1, 0, 1) == 0


def ring_patch(pattern: int, centre: bool) -> np.ndarray:
    """A 3x3 patch whose ring holds ``pattern`` (bit i at ring position i)."""
    patch = np.zeros((3, 3), dtype=bool)
    for i, (dx, dy) in enumerate(_RING):
        patch[1 + dy, 1 + dx] = bool(pattern >> i & 1)
    patch[1, 1] = centre
    return patch


class TestRingTable:
    def test_groups_are_the_four_neighbors_components_without_the_voxel(self):
        for pattern in range(256):
            comps, _ = flood_fill_components(ring_patch(pattern, False), 4)
            groups = {int(comps[1 + dy, 1 + dx]) for dx, dy in _RING[0::2]} - {0}
            assert _RING_TABLE[pattern][0] == len(groups), pattern

    def test_quad_change_matches_the_bit_quad_scan(self):
        for pattern in range(256):
            off, on = ring_patch(pattern, False), ring_patch(pattern, True)
            assert bit_quad_sum(on) == 4 * euler_number(on)
            assert bit_quad_sum(off) == 4 * euler_number(off)
            assert _RING_TABLE[pattern][1] == bit_quad_sum(on) - bit_quad_sum(off), pattern


def part_borders(lab, k) -> list[list[int]]:
    """``[a][b]``: the 4-adjacent voxel pairs of parts a and b of ``lab``, a != b, by pair recount."""
    touch = [[0] * (k + 1) for _ in range(k + 1)]
    for (a, b), n in adjacent_label_pairs(lab).items():
        if a and b and a != b:
            touch[a][b] += n
            touch[b][a] += n
    return touch


def assert_counts_exact(lab, k) -> None:
    """``_counts`` of a padded label box equals a voxel-by-voxel recount, part by part."""
    areas, quads, boxes, touch = _counts(lab, k)
    recount = part_borders(lab, k)
    assert [[touch[a][b] for b in range(1, k + 1) if b != a] for a in range(1, k + 1)] == [
        [recount[a][b] for b in range(1, k + 1) if b != a] for a in range(1, k + 1)
    ]
    h, w = lab.shape
    assert boxes[0] == [0, h - 1, 0, w - 1]
    for j in range(1, k + 1):
        region = lab == j
        assert areas[j] == int(np.count_nonzero(region))
        assert quads[j] == bit_quad_sum(region)
        if region.any():
            rows, cols = _box(region)
            assert boxes[j] == [rows.start, rows.stop - 1, cols.start, cols.stop - 1]


def assert_state_exact(parts: _Parts, k: int) -> None:
    """What balancing reads of the state equals a recount from scratch, and every box covers its part.

    ``flat`` is ``lab``'s own buffer, ``_counts`` counts ``lab`` as a
    voxel-by-voxel recount does, and the quad sum and border of every part
    are those of a recount. The background's entries are not read.
    """
    lab = parts.lab
    flat = np.asarray(parts.flat)
    assert np.shares_memory(flat, lab) and flat.tolist() == lab.ravel().tolist()
    assert_counts_exact(lab, k)
    for j in range(1, k + 1):
        region = lab == j
        assert parts.quads[j] == bit_quad_sum(region)
        if region.any():
            ys, xs = np.nonzero(region)
            y0, y1, x0, x1 = parts.boxes[j]
            assert y0 <= ys.min() and ys.max() <= y1 and x0 <= xs.min() and xs.max() <= x1
        for other in range(1, k + 1):
            near = np.zeros_like(region)
            near[1:-1, 1:-1] = (lab[:-2, 1:-1] == other) | (lab[2:, 1:-1] == other)
            near[1:-1, 1:-1] |= (lab[1:-1, :-2] == other) | (lab[1:-1, 2:] == other)
            want = [(int(y), int(x)) for y, x in np.argwhere(region & near)] if other != j else []
            if other != j:
                ys, xs = parts.border(j, other)
                assert list(zip(ys.tolist(), xs.tolist())) == want


def label_boxes(max_k=8, max_side=12):
    """Hypothesis ``(lab, k)``: a label box with labels 0..k, k <= ``max_k``."""
    return st.integers(1, max_k).flatmap(
        lambda k: st.tuples(
            arrays(np.int32, st.tuples(st.integers(1, max_side), st.integers(1, max_side)), elements=st.integers(0, k)),
            st.just(k),
        )
    )


def hand_box(rows: list[str]) -> np.ndarray:
    """A label box from rows of digits."""
    return np.array([[int(c) for c in row] for row in rows], dtype=np.int32)


class TestCounts:
    # parts with holes, parts that meet only at a corner, one-voxel parts,
    # and rows with several runs of one part and of several
    @settings(max_examples=300, deadline=None)
    @given(label_boxes())
    @example((hand_box(["111", "101", "111"]), 1))  # a hole
    @example((hand_box(["12", "21"]), 2))  # two parts meeting only at corners, one voxel each
    @example((hand_box(["1212121", "2121212", "1111111"]), 2))  # many runs a row
    @example((hand_box(["3", "1", "2"]), 8))  # absent parts
    @example((hand_box(["0"]), 3))  # nothing but background
    @example((hand_box(["1110222", "1010202", "1113222"]), 3))  # holes, and parts that abut in a row
    def test_match_a_voxel_by_voxel_recount(self, case):
        lab, k = case
        assert_counts_exact(np.pad(lab, 1), k)


class TestParts:
    @pytest.mark.parametrize("seed", range(4))
    def test_random_moves_match_a_recount(self, seed, monkeypatch):
        # random multi-label maps, every part present at the start; random
        # part voxels move to random other labels, 0 (a trim) included, each
        # as a one-voxel strip that the one-group table lets go
        monkeypatch.setattr(subdivision, "_RING_TABLE", ONE_GROUP_TABLE)
        rng = np.random.default_rng(seed)
        for _ in range(12):
            h, w = (int(v) for v in rng.integers(2, 9, size=2))
            k = int(rng.integers(1, min(6, h * w) + 1))
            inner = rng.integers(0, k + 1, size=h * w)
            inner[:k] = np.arange(1, k + 1)
            parts = _Parts(np.pad(rng.permutation(inner).reshape(h, w), 1).astype(np.int32), k)
            for j in range(k + 1):  # exact at the start; afterwards they only cover
                rows, cols = _box(parts.lab == j)
                assert parts.boxes[j] == [rows.start, rows.stop - 1, cols.start, cols.stop - 1]
            assert_state_exact(parts, k)
            for _ in range(25):
                ys, xs = np.nonzero(parts.lab)
                if not ys.size:
                    break
                n = int(rng.integers(ys.size))
                y, x = int(ys[n]), int(xs[n])
                give = int(parts.lab[y, x])
                take = int(rng.choice([t for t in range(k + 1) if t != give]))
                assert strip_over(parts, [(y, x)], give, take, 1) == 1
                del parts.border
                assert_state_exact(parts, k)


class TestStripMove:
    @pytest.mark.parametrize("sign", [1, -1])  # the trim passes the negated arrival
    def test_moves_in_ascending_arrival_row_major_on_ties(self, sign):
        # Part 1 is rows 2-4 between two rows of part 2: its 40-voxel border
        # is rows 2 and 4, every voxel removable in any order. Arrivals take
        # three values, so most voxels tie; an unstable sort reorders ties.
        # A strip of limit n moves the first n, so the nth moved voxel is
        # the one limit n moves and limit n - 1 does not.
        lab = np.zeros((7, 22), dtype=np.int32)
        lab[1:6, 1:21] = 2
        lab[2:5, 1:21] = 1
        yy, xx = np.mgrid[0:7, 0:22]
        arrival = sign * ((7 * xx + yy) % 3).astype(float)
        moved = []
        for limit in range(1, 41):
            parts = _Parts(lab.copy(), 2)
            assert _strip_move(parts, _Border(parts, 1, 2, arrival), limit) == limit
            new = [(int(y), int(x)) for y, x in np.argwhere((parts.lab == 2) & (lab == 1)) if (y, x) not in moved]
            assert len(new) == 1
            moved += new
        border = [(y, x) for y in (2, 4) for x in range(1, 21)]
        assert moved == sorted(border, key=lambda yx: (arrival[yx], yx))
        assert np.bincount(parts.lab.ravel(), minlength=3)[1:].tolist() == [20, 80]
        assert_state_exact(parts, 2)

    def test_around_a_hole_the_long_way_round_decides(self, monkeypatch):
        # Part 1 is a ring around a background hole with a tail on its top
        # right; part 2 lies along the top of both, so part 1's border is
        # row 2, columns 1-8. (2, 6), tried first, and (2, 3), tried second,
        # both have two ring groups, left and right. Without (2, 6) the tail
        # has no other way in, so it stays; without (2, 3) the ring joins the
        # two the long way round, so it moves and the hole opens. Both take
        # the labeling of part 1's box; the rest go in row-major order.
        lab = np.zeros((8, 11), dtype=np.int32)
        lab[1, 1:10] = 2
        lab[2:7, 1:6] = 1
        lab[3:6, 2:5] = 0
        lab[2, 6:9] = 1
        arrival = np.full(lab.shape, 10.0) + np.arange(11)
        arrival[2, 6], arrival[2, 3] = 0.0, 1.0
        labelings = []
        label_runs = subdivision._label_runs
        monkeypatch.setattr(subdivision, "_label_runs", lambda *a: labelings.append(a) or label_runs(*a))
        parts = _Parts(lab.copy(), 2)
        assert parts.quads[1] != 4
        moved = _strip_move(parts, _Border(parts, 1, 2, arrival), 8)
        assert len(labelings) == 2
        cand = sorted(((2, x) for x in range(1, 9)), key=lambda yx: (arrival[yx], yx))
        want, left = flood_fill_replay(lab == 1, cand, 8)
        assert (2, 3) in want and (2, 6) not in want
        assert moved == len(want) == 4
        assert np.array_equal(parts.lab == 1, left)
        assert_state_exact(parts, 2)


def strips_of(parts, border, limit, count):
    """The voxels each of ``count`` strips moves, as sets of (y, x)."""
    out = []
    for _ in range(count):
        before = parts.lab.copy()
        _strip_move(parts, border, limit)
        out.append({(int(y), int(x)) for y, x in np.argwhere(parts.lab != before)})
    return out


def flat_yx(parts, indices):
    """Row-major ``_Parts.flat`` indices as a sorted list of (y, x)."""
    return sorted(divmod(i, parts.width) for i in indices)


def fresh_strip(parts, border, limit):
    """The reference strip: a fresh border read by a scan of the whole map, every candidate tested.

    Candidates go in ascending (arrival, y, x) order; one stays with the
    donor iff a labeling finds the donor without it empty or in pieces.
    It changes only the labels, from which the rounds of ``balance_areas``
    count the areas and borders; of ``border`` it reads only the pair and
    the arrival, so the candidates it was built with, from boxes this
    strip leaves stale, go unused.
    """
    lab, give, take = parts.lab, border.give, border.take
    arrival = np.asarray(border.arrival).reshape(lab.shape)
    near = np.zeros(lab.shape, dtype=bool)
    near[1:-1, 1:-1] = (lab[:-2, 1:-1] == take) | (lab[2:, 1:-1] == take)
    near[1:-1, 1:-1] |= (lab[1:-1, :-2] == take) | (lab[1:-1, 2:] == take)
    cand = sorted(((arrival[y, x], y, x) for y, x in np.argwhere(near & (lab == give)).tolist()))
    moved = 0
    for _, y, x in cand:
        rest = lab == give
        rest[y, x] = False
        if _label_runs(rest, 4)[1] == 1:
            lab[y, x] = take
            moved += 1
            if moved == limit:
                break
    return moved


def counted_ring_table(monkeypatch):
    """Have ``_strip_move`` look up a ring table that records each pattern; returns the record."""
    lookups = []

    class Counted(list):
        def __getitem__(self, pattern):
            lookups.append(pattern)
            return list.__getitem__(self, pattern)

    monkeypatch.setattr(subdivision, "_RING_TABLE", Counted(_RING_TABLE))
    return lookups


def voronoi_parts(region, k, rng):
    """Labels 1..k on a 4-connected ``region``, grown by a breadth-first wave from k random voxels.

    Each voxel takes the label of the voxel that reached it, so each part is one 4-piece.
    """
    h, w = region.shape
    lab = np.zeros(region.shape, dtype=np.int32)
    seeds = rng.permutation(np.argwhere(region))[:k].tolist()
    queue = deque()
    for j, (y, x) in enumerate(seeds, start=1):
        lab[y, x] = j
        queue.append((y, x))
    while queue:
        y, x = queue.popleft()
        for ny, nx in ((y - 1, x), (y, x + 1), (y + 1, x), (y, x - 1)):
            if 0 <= ny < h and 0 <= nx < w and region[ny, nx] and not lab[ny, nx]:
                lab[ny, nx] = lab[y, x]
                queue.append((ny, nx))
    return lab


class TestCarriedBorder:
    # Part 1 is a body, columns 1 and 2, joined to u (3, 3) and m (4, 3)
    # only through v (2, 3); part 2 runs from above v round to the right
    # of m. The border is v and m: v cannot leave, as u and m would be cut
    # off, and m can.
    CHAIN = np.array([[0, 0, 0, 0, 0, 0, 0],
                      [0, 0, 0, 2, 2, 2, 0],
                      [0, 1, 1, 1, 0, 2, 0],
                      [0, 1, 0, 1, 0, 2, 0],
                      [0, 1, 0, 1, 2, 2, 0],
                      [0, 0, 0, 0, 0, 0, 0]], dtype=np.int32)

    @pytest.mark.parametrize("u_first", [True, False])
    def test_a_reject_sleeps_until_its_ring_changes(self, u_first):
        # Strip 1 tests v, which stays and sleeps, then moves m, which is
        # not in v's ring, so v sleeps on; u joins the border and waits.
        # Strip 2 moves u, whose leaving wakes v in the middle of the strip:
        # if v comes after u, it is tested at its turn and leaves too; if v
        # comes first, it is skipped at its turn and tested in strip 3.
        arrival = np.zeros(self.CHAIN.shape)
        arrival[2, 3], arrival[4, 3], arrival[3, 3] = 1.0, 2.0, 0.0 if u_first else 3.0
        parts = _Parts(self.CHAIN.copy(), 2)
        border = _Border(parts, 1, 2, arrival)
        assert strips_of(parts, border, 10, 1) == [{(4, 3)}]
        assert flat_yx(parts, border.dormant) == [(2, 3)]
        assert flat_yx(parts, (i for _, i in border.cand)) == [(2, 3), (3, 3)]
        if u_first:
            assert strips_of(parts, border, 10, 1) == [{(3, 3), (2, 3)}]
        else:
            assert strips_of(parts, border, 10, 2) == [{(3, 3)}, {(2, 3)}]
        assert not border.dormant
        assert_state_exact(parts, 2)

    def test_a_sleeping_voxel_is_not_read(self, monkeypatch):
        # The strip after v's test reads the ring of u alone: v is skipped
        # without a ring read, so the ring table is looked up for u's test
        # and its move only.
        arrival = np.zeros(self.CHAIN.shape)
        arrival[2, 3], arrival[4, 3], arrival[3, 3] = 1.0, 2.0, 3.0
        parts = _Parts(self.CHAIN.copy(), 2)
        border = _Border(parts, 1, 2, arrival)
        _strip_move(parts, border, 10)
        lookups = counted_ring_table(monkeypatch)
        assert _strip_move(parts, border, 10) == 1
        assert len(lookups) == 2

    @staticmethod
    def two_rows():
        """Part 1 as two rows under part 2, the top row's arrivals 0, the bottom row's 5 to 1, and its border."""
        lab = np.zeros((5, 8), dtype=np.int32)
        lab[1, 1:7] = 2
        lab[2:4, 1:7] = 1
        arrival = np.zeros(lab.shape)
        arrival[3, 1:7] = [5.0, 4.0, 4.0, 3.0, 2.0, 1.0]
        parts = _Parts(lab, 2)
        return parts, _Border(parts, 1, 2, arrival)

    def test_new_border_voxels_wait_for_the_next_strip(self):
        # Moving a top-row voxel puts the one under it on the border, but a
        # strip only takes the voxels on the border when it starts: the
        # first strip moves the top row and stops short of its limit. The
        # next strip's candidates are the bottom row in ascending arrival
        # order, row-major on ties; it moves all but (3, 2), which joins
        # (3, 1) to the rest at its turn.
        parts, border = self.two_rows()
        assert _strip_move(parts, border, 11) == 6
        assert [divmod(i, 8) for _, i in border.cand] == [(3, 6), (3, 5), (3, 4), (3, 2), (3, 3), (3, 1)]
        assert [a for a, _ in border.cand] == [1.0, 2.0, 3.0, 4.0, 4.0, 5.0]
        assert strips_of(parts, border, 11, 1) == [{(3, 6), (3, 5), (3, 4), (3, 3), (3, 1)}]
        assert_state_exact(parts, 2)

    def test_a_strip_stopped_by_its_limit_leaves_the_rest_first(self):
        # The strip moves the top row's first four, row-major, and stops:
        # the two it did not reach stay ahead of the four under the moved.
        parts, border = self.two_rows()
        assert _strip_move(parts, border, 4) == 4
        assert [divmod(i, 8) for _, i in border.cand] == [(2, 5), (2, 6), (3, 4), (3, 2), (3, 3), (3, 1)]
        assert_state_exact(parts, 2)

    def test_a_hole_branch_reject_is_labeled_again_only_when_its_ring_changes(self, monkeypatch):
        # Part 1 is a block round a hole, so every border voxel with two
        # ring groups takes a labeling, with a tail through v (2, 6) that
        # forks at t (2, 7) into (2, 8) and down column 7. Strip 1 labels
        # v, t and (2, 5), and all three stay; then (2, 8) leaves, an edge
        # neighbor of t, and the top row of the block, whose last, (2, 4),
        # is an edge neighbor of (2, 5). Strip 2 labels t and (2, 5) again,
        # as v sleeps, and both stay; it moves the block's row 3, of which
        # (3, 4) is on a corner of (2, 5), not an edge. Strip 3 labels (3, 5),
        # which that move put on the border, and neither v nor (2, 5). v's
        # edge neighbors never move, so it is labeled once; a fresh border
        # per strip labels all three in strip 2 and again in strip 3.
        lab = np.zeros((10, 11), dtype=np.int32)
        lab[1, 1:10] = 2
        lab[2:9, 1:6] = 1
        lab[5:7, 2:4] = 0
        lab[2, 6:9] = 1
        lab[3:5, 7] = 1
        arrival = np.full(lab.shape, 10.0) + np.arange(11) + 20 * np.arange(10)[:, None]
        arrival[2, 6], arrival[2, 7], arrival[2, 8], arrival[2, 5] = 0.0, 1.0, 2.0, 3.0
        parts = _Parts(lab.copy(), 2)
        assert parts.quads[1] != 4
        labeled = []
        label_runs = subdivision._label_runs

        def recorded(rest, conn):  # the voxel tested is the one the donor's box lacks
            y0, y1, x0, x1 = parts.boxes[1]
            ((y, x),) = np.argwhere((parts.lab[y0 : y1 + 1, x0 : x1 + 1] == 1) & ~rest) + (y0, x0)
            labeled[-1].append((int(y), int(x)))
            return label_runs(rest, conn)

        monkeypatch.setattr(subdivision, "_label_runs", recorded)
        border = _Border(parts, 1, 2, arrival)
        moves = []
        for _ in range(3):
            labeled.append([])
            moves += strips_of(parts, border, 100, 1)
        assert labeled[:2] == [[(2, 6), (2, 7), (2, 5)], [(2, 7), (2, 5)]]
        assert labeled[2][0] == (3, 5) and (2, 5) not in labeled[2] and (2, 6) not in labeled[2]
        assert moves[:2] == [{(2, 1), (2, 2), (2, 3), (2, 4), (2, 8)}, {(3, 1), (3, 2), (3, 3), (3, 4)}]
        assert_state_exact(parts, 2)

    def test_a_reject_wakes_mid_strip_when_the_voxel_it_cut_off_leaves(self):
        # Part 1 is a 2x2 body with a chain r (2, 3), p (2, 4), q (2, 5)
        # under part 2; the chain is the border. Strip 1 tests p, which
        # stays as q would be cut off, and r, which stays as p and q would;
        # then q leaves, which wakes p, its edge neighbor, but not r. In
        # strip 2 p leaves, the one-voxel piece r cut off, which wakes r in
        # the middle of the strip: r is tested at its turn and leaves too.
        lab = np.zeros((5, 7), dtype=np.int32)
        lab[1, 3:6] = 2
        lab[2, 1:6] = 1
        lab[3, 1:3] = 1
        arrival = np.zeros(lab.shape)
        arrival[2, 4], arrival[2, 3], arrival[2, 5] = 0.0, 1.0, 2.0
        parts = _Parts(lab, 2)
        border = _Border(parts, 1, 2, arrival)
        assert strips_of(parts, border, 10, 1) == [{(2, 5)}]
        assert flat_yx(parts, border.dormant) == [(2, 3)]
        assert strips_of(parts, border, 10, 1) == [{(2, 4), (2, 3)}]
        assert not border.dormant
        assert_state_exact(parts, 2)

    def test_a_corner_move_leaves_a_reject_asleep(self, monkeypatch):
        # Part 1 is a 2x2 block with a tail (2, 3), (2, 4) on its lower
        # right, trimmed into the background. r (2, 3) stays, as the tail's
        # end would be cut off; then (1, 2), on r's corner, leaves. The end
        # is still cut off without r, so r sleeps on, and the next strip
        # reads the ring of the end alone, which leaves.
        lab = np.zeros((4, 6), dtype=np.int32)
        lab[1:3, 1:3] = 1
        lab[2, 3:5] = 1
        arrival = np.full(lab.shape, 5.0)
        arrival[2, 3], arrival[1, 2], arrival[2, 4] = 0.0, 1.0, 2.0
        parts = _Parts(lab, 1)
        border = _Border(parts, 1, 0, arrival)
        assert strips_of(parts, border, 1, 1) == [{(1, 2)}]
        assert flat_yx(parts, border.dormant) == [(2, 3)]
        lookups = counted_ring_table(monkeypatch)
        assert strips_of(parts, border, 1, 1) == [{(2, 4)}]
        assert len(lookups) == 2
        assert not border.dormant
        assert_state_exact(parts, 1)

    def test_a_voxel_with_a_second_receiver_neighbor_is_listed_once(self):
        # Part 1 is a 3x3 block under and right of part 2. (2, 2) leaves,
        # then (2, 3), which puts (3, 3) on the border, then (3, 2), which
        # gives (3, 3) a second neighbor in part 2: it is listed once.
        lab = np.zeros((6, 6), dtype=np.int32)
        lab[1, 1:5] = 2
        lab[2:5, 1] = 2
        lab[2:5, 2:5] = 1
        arrival = np.full(lab.shape, 10.0) + np.arange(6)
        arrival[2, 2], arrival[2, 3], arrival[3, 2] = 0.0, 1.0, 2.0
        parts = _Parts(lab, 2)
        border = _Border(parts, 1, 2, arrival)
        assert strips_of(parts, border, 3, 1) == [{(2, 2), (2, 3), (3, 2)}]
        assert [divmod(i, 6) for _, i in border.cand] == [(4, 2), (3, 3), (2, 4)]
        assert_state_exact(parts, 2)

    def test_balancing_matches_a_fresh_border_per_strip(self, monkeypatch):
        # Random blobs, holes included, split into random 4-pieces with
        # few arrival values, so that most voxels tie: the carried border
        # must give the labels, or the error, of the reference strips.
        rng = np.random.default_rng(7)
        strip_move, holes, balanced = subdivision._strip_move, 0, 0
        for _ in range(240):
            h, w = (int(v) for v in rng.integers(6, 19, size=2))
            mask = rng.random((h, w)) < rng.uniform(0.55, 0.9)
            comps, _ = flood_fill_components(mask, 4)
            region = comps == int(np.argmax(np.bincount(comps.ravel())[1:])) + 1
            holes += euler_number(region) < 1
            k = int(rng.integers(2, min(6, int(region.sum())) + 1))
            labels = voronoi_parts(region, k, rng)
            arrival = rng.integers(0, 4, size=region.shape).astype(float)
            outcomes = []
            for strip in (strip_move, fresh_strip):
                monkeypatch.setattr(subdivision, "_strip_move", strip)
                try:
                    out = balance_areas(labels, k, arrival)
                except BalanceError as err:
                    outcomes.append(str(err))
                    continue
                assert all(flood_fill_components(out == j, 4)[1] == 1 for j in range(1, k + 1))
                outcomes.append(out.tobytes())
            assert outcomes[0] == outcomes[1]
            balanced += not isinstance(outcomes[0], str)
        assert holes >= 20 and balanced >= 100


class TestSubdivideEqual:
    def test_rectangle_exact(self):
        labels = subdivide_equal(np.ones((16, 64), dtype=bool), 4)
        assert areas_of(labels, 4) == [256, 256, 256, 256]

    def test_k_1(self):
        mask = make_blob(1)
        labels = subdivide_equal(mask, 1)
        assert int((labels == 1).sum()) == int(mask.sum())

    def test_k_1_tiny_region(self):
        mask = np.zeros((1, 2), dtype=bool)
        mask[0, :] = True
        labels = subdivide_equal(mask, 1)
        assert labels.tolist() == [[1, 1]]

    def test_no_balance_partition_holds(self):
        mask = make_blob(4)
        labels = subdivide_equal(mask, 3, balance=False)
        assert set(np.unique(labels[mask]).tolist()) == {1, 2, 3}
        assert (labels[~mask] == 0).all()

    def test_valid_or_designated_error_on_blobs(self):
        for seed in (10, 11, 12):
            mask = make_blob(seed)
            area = int(mask.sum())
            for k in (2, 5, 8):
                try:
                    labels = subdivide_equal(mask, k)
                except (CutError, BalanceError) as err:
                    assert str(err)
                    continue
                except ValidationError as err:
                    assert "k too large" in str(err)
                    continue
                assert areas_of(labels, k) == [area // k] * k

    def test_deterministic(self):
        mask = make_blob(13)
        a = subdivide_equal(mask, 4)
        b = subdivide_equal(mask, 4)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("balance", ["no", "", 1, 0, None, 1.0])
    def test_non_bool_balance_rejected(self, balance):
        with pytest.raises(ValidationError, match=r"^balance must be True or False, got "):
            subdivide_equal(np.ones((16, 64), dtype=bool), 4, balance=balance)

    def test_numpy_bool_balance_accepted(self):
        mask = np.ones((5, 13), dtype=bool)
        assert np.array_equal(subdivide_equal(mask, 2, balance=np.False_), subdivide_equal(mask, 2, balance=False))
        assert np.array_equal(subdivide_equal(mask, 2, balance=np.True_), subdivide_equal(mask, 2))
