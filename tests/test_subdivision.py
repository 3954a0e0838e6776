import numpy as np
import pytest

from shapesplit import (
    BalanceError,
    CutError,
    ValidationError,
    balance_areas,
    cut_band,
    euclidean_distance_map,
    extract_centerline,
    normal_at,
    sample_cut_points,
    subdivide,
    subdivide_equal,
)
from shapesplit.eikonal import ArrivalField
from shapesplit.subdivision import _has_holes, _removal_test, _stays_connected_without

from conftest import make_blob
from oracles import flood_fill_components


def straight_path(n):
    return [(x, 0) for x in range(n)]


class TestNormalAt:
    def test_horizontal(self):
        assert normal_at([(0, 0), (1, 0), (2, 0)], 1) == (2, 0)

    def test_diagonal(self):
        assert normal_at([(0, 0), (1, 1), (2, 2)], 1) == (2, 2)

    def test_corner(self):
        assert normal_at([(0, 0), (1, 0), (1, 1)], 1) == (1, 1)

    def test_endpoint_rejected(self):
        with pytest.raises(ValidationError):
            normal_at([(0, 0), (1, 0), (2, 0)], 0)
        with pytest.raises(ValidationError):
            normal_at([(0, 0), (1, 0), (2, 0)], 2)

    def test_bad_path_rejected(self):
        with pytest.raises(ValidationError):
            normal_at([(0, 0), (5, 5), (6, 5)], 1)


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
        band = cut_band(mask, (4, 1), (2, 0))
        assert band == {(4, 0), (4, 1), (4, 2), (4, 3)}

    def test_anti_diagonal(self):
        mask = np.ones((5, 5), dtype=bool)
        band = cut_band(mask, (2, 2), (1, 1))
        assert band == {(0, 4), (1, 3), (2, 2), (3, 1), (4, 0)}

    def test_stays_on_anchor_component(self):
        # two blobs on the same line: the band must not leak to the far one
        mask = np.zeros((5, 12), dtype=bool)
        mask[:, 0:4] = True
        mask[:, 8:12] = True
        band = cut_band(mask, (2, 2), (2, 0))
        assert band == {(2, y) for y in range(5)}
        assert all(x < 4 for x, _ in band)

    def test_anchor_must_be_true(self):
        mask = np.zeros((3, 3), dtype=bool)
        mask[0, 0] = True
        with pytest.raises(ValidationError):
            cut_band(mask, (2, 2), (1, 0))

    def test_zero_normal_rejected(self):
        with pytest.raises(ValidationError):
            cut_band(np.ones((3, 3), dtype=bool), (1, 1), (0, 0))


def areas_of(labels, k):
    return [int((labels == j).sum()) for j in range(1, k + 1)]


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
        band = cut_band(mask, anchor, n)
        remaining = mask.copy()
        for x, y in band:
            remaining[y, x] = False
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
        with pytest.raises(ValidationError):
            balance_areas(labels, 3, synthetic_arrival(labels.shape))

    def test_nonfinite_arrival_rejected(self):
        labels = np.ones((2, 4), dtype=np.int32)
        arrival = ArrivalField(values=np.full((2, 4), np.inf), source=(0, 0))
        with pytest.raises(ValidationError):
            balance_areas(labels, 1, arrival)

    def test_disconnected_region_is_balance_failure(self):
        labels = np.zeros((1, 5), dtype=np.int32)
        labels[0] = [1, 2, 1, 2, 2]  # label 1 split in two
        with pytest.raises(BalanceError, match="balance failed"):
            balance_areas(labels, 2, synthetic_arrival(labels.shape))

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

    @pytest.mark.parametrize("seed, k", [(2, 2), (4, 5)])
    def test_routed_flow_uses_most_of_its_budget(self, seed, k):
        # after pair equalizing these shapes route 261 and 682 voxels, over
        # half of the routed flow's budget of 200 k moves
        mask = make_blob(seed, size=96)
        labels = subdivide_equal(mask, k)
        assert areas_of(labels, k) == [int(mask.sum()) // k] * k
        assert (labels[~mask] == 0).all()
        for j in range(1, k + 1):
            _, count = flood_fill_components(labels == j, 4)
            assert count == 1

    def test_trim_prefers_large_arrival(self):
        # region 2 must lose exactly one voxel, the one with max arrival
        labels = np.zeros((1, 9), dtype=np.int32)
        labels[0, 0:4] = 1
        labels[0, 4:9] = 2
        out = balance_areas(labels, 2, synthetic_arrival(labels.shape))
        assert areas_of(out, 2) == [4, 4]
        assert out[0, 8] == 0  # largest x + y in region 2


class TestStaysConnectedWithout:
    @pytest.mark.parametrize("seed", range(3))
    def test_matches_flood_fill_oracle(self, seed):
        # every voxel of every 4-component of small random masks, holes
        # included, through the full test and the one picked for the region
        rng = np.random.default_rng(seed)
        for _ in range(120):
            h, w = (int(v) for v in rng.integers(1, 10, size=2))
            mask = rng.random((h, w)) < rng.uniform(0.3, 0.95)
            comps, count = flood_fill_components(mask, 4)
            for c in range(1, count + 1):
                region = comps == c
                _, background = flood_fill_components(~np.pad(region, 1), 8)
                assert _has_holes(region) == (background > 1)
                for y, x in np.argwhere(region):
                    rest = region.copy()
                    rest[y, x] = False
                    truth = flood_fill_components(rest, 4)[1] == 1
                    assert _stays_connected_without(region, int(x), int(y)) == truth
                    assert _removal_test(region)(region, int(x), int(y)) == truth

    def test_loop_around_a_hole_needs_the_search(self):
        # the top middle voxel splits its two neighbors locally, yet the
        # ring joins them the long way round
        ring = np.ones((3, 3), dtype=bool)
        ring[1, 1] = False
        assert _has_holes(ring)
        assert _removal_test(ring)(ring, 1, 0)
        assert not _removal_test(ring[:2])(ring[:2], 1, 0)


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
