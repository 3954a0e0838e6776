import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapesplit import ValidationError, euclidean_distance_map

from conftest import make_blob, make_c_annulus, random_mask
from oracles import brute_force_distance_map


def test_single_voxel_grid():
    # nearest background is the off-grid ring
    out = euclidean_distance_map(np.ones((1, 1), dtype=bool))
    assert out.tolist() == [[1.0]]


def test_all_true_3x3():
    out = euclidean_distance_map(np.ones((3, 3), dtype=bool))
    assert out.tolist() == [[1, 1, 1], [1, 2, 1], [1, 1, 1]]


def test_empty_mask_rejected():
    with pytest.raises(ValidationError, match="empty region"):
        euclidean_distance_map(np.zeros((4, 4), dtype=bool))


@pytest.mark.parametrize("seed", range(8))
def test_matches_brute_force_exactly(seed):
    mask = random_mask(seed, size=64)
    got = euclidean_distance_map(mask)
    want = brute_force_distance_map(mask)
    assert np.array_equal(got, want)


def _disk_and_line():
    # spans row blocks of different depths, whose row passes end at
    # different steps: a shallow one around the line, deep ones through the
    # disk, and an empty one at the bottom
    yy, xx = np.mgrid[0:100, 0:100]
    mask = (yy - 60) ** 2 + (xx - 50) ** 2 <= 30 * 30
    mask[10, 5:95] = True
    return mask


def _line_ring_and_disk():
    # more than two row blocks, each mixing depths: a one-voxel line, a
    # thin ring whose column chords run deep, and a filled disk
    yy, xx = np.mgrid[0:140, 0:120]
    mask = (yy - 100) ** 2 + (xx - 60) ** 2 <= 35 * 35
    ring = np.hypot(yy - 35, xx - 60)
    mask |= (ring >= 20) & (ring <= 23)
    mask[4, 3:117] = True
    return mask


@pytest.mark.parametrize(
    "mask_fn",
    [
        lambda: make_blob(0),
        make_c_annulus,
        pytest.param(lambda: np.ones((200, 3), dtype=bool), id="filled_200x3"),  # window capped by the width
        pytest.param(lambda: np.ones((1, 300), dtype=bool), id="filled_1x300"),
        pytest.param(lambda: np.ones((300, 1), dtype=bool), id="filled_300x1"),
        _disk_and_line,
        _line_ring_and_disk,
    ],
)
def test_matches_brute_force_on_shapes(mask_fn):
    mask = mask_fn()
    assert np.array_equal(euclidean_distance_map(mask), brute_force_distance_map(mask))


@pytest.mark.parametrize("h", range(1, 21))
def test_filled_rectangles_match_brute_force(h):
    # a row pass ends at the first power-of-two step that improves no
    # voxel, or at its cap: over these rectangles at steps 1, 2, 4, 8 and
    # 16, and at the cap on the narrow ones
    for w in (1, 2, 3 * h + 7):
        for mask in (np.ones((h, w), dtype=bool), np.ones((w, h), dtype=bool)):
            assert np.array_equal(euclidean_distance_map(mask), brute_force_distance_map(mask))


def test_c_annulus_in_a_large_canvas_matches_brute_force():
    annulus = make_c_annulus()
    h, w = annulus.shape
    canvas = np.zeros((256, 256), dtype=bool)
    canvas[100 : 100 + h, 20 : 20 + w] = annulus
    assert np.array_equal(euclidean_distance_map(canvas), brute_force_distance_map(canvas))


@settings(max_examples=200, deadline=None)
@given(arrays(bool, st.tuples(st.integers(1, 40), st.integers(1, 40))))
def test_matches_brute_force_on_drawn_masks(mask):
    assume(mask.any())
    assert np.array_equal(euclidean_distance_map(mask), brute_force_distance_map(mask))


@pytest.mark.parametrize("offset", [(7, 9), (0, 9), (21, 9), (7, 0), (7, 30), (0, 0), (21, 30)])
def test_placement_in_a_larger_canvas_matches_own_crop(offset):
    # the region's crop, placed inside a canvas or against each edge and
    # corner: distances on the crop are those of the crop on its own
    blob = make_blob(4, size=32)
    ys, xs = np.nonzero(blob)
    crop = blob[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
    h, w = crop.shape
    canvas = np.zeros((h + 21, w + 30), dtype=bool)
    y0, x0 = offset
    canvas[y0 : y0 + h, x0 : x0 + w] = crop
    got = euclidean_distance_map(canvas)
    want = np.zeros(canvas.shape)
    want[y0 : y0 + h, x0 : x0 + w] = euclidean_distance_map(crop)
    assert np.array_equal(got, want)


def _columns_of_several_runs():
    # column x alternates runs of x % 6 + 1 true and x % 4 + 1 false rows,
    # so runs start on the first row, some end on the last, and a column
    # holds up to 20 of them
    yy, xx = np.mgrid[0:41, 0:24]
    return yy % (xx % 6 + xx % 4 + 2) <= xx % 6


def _first_and_last_rows():
    # runs that reach the first or the last row, or both, beside runs in between
    mask = np.zeros((9, 8), dtype=bool)
    mask[0, :5] = mask[8, 3:] = True
    mask[:, 0] = mask[:4, 6] = mask[5:, 7] = mask[3:6, 2] = True
    return mask


@pytest.mark.parametrize(
    "mask_fn",
    [
        _columns_of_several_runs,
        _first_and_last_rows,
        pytest.param(lambda: np.arange(50)[None, :] % 3 != 1, id="row_1x50_gapped"),
        pytest.param(lambda: np.arange(50)[:, None] % 4 != 2, id="column_50x1_gapped"),
        pytest.param(lambda: np.ones((1, 1), dtype=bool), id="filled_1x1"),
        pytest.param(lambda: np.indices((33, 31)).sum(axis=0) % 2 == 0, id="checkerboard"),
        pytest.param(lambda: np.indices((30, 30)).sum(axis=0) % 2 == 1, id="checkerboard_odd"),
    ],
)
def test_vertical_pass_from_column_runs_matches_brute_force(mask_fn):
    mask = mask_fn()
    assert np.array_equal(euclidean_distance_map(mask), brute_force_distance_map(mask))


def test_column_longer_than_the_square_root_of_int32():
    # a column run of 92682 rows reaches g = 46341 in its middle, whose
    # square overflows int32
    assert (euclidean_distance_map(np.ones((92682, 1), dtype=bool)) == 1.0).all()


def test_peak_memory_on_filled_square():
    # The vertical pass holds int32 values of the voxels and writes an int32
    # g: the call peaks at 4.3 MiB here (about 17 bytes per voxel, the
    # float64 result included), where int64 grids of the box, four of them
    # alive at once, peaked at 12.0 MiB.
    mask = np.ones((512, 512), dtype=bool)
    tracemalloc.start()
    try:
        euclidean_distance_map(mask)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 4.3 * 2**20


def test_zero_iff_background():
    mask = random_mask(1, size=48)
    mask[0, 0] = True  # keep nonempty
    d = euclidean_distance_map(mask)
    assert (d[mask] >= 1.0).all()
    assert (d[~mask] == 0.0).all()


def test_lipschitz_on_sampled_pairs():
    mask = random_mask(2, size=48)
    mask[3, 3] = True
    d = euclidean_distance_map(mask)
    rng = np.random.default_rng(0)
    ys = rng.integers(0, 48, size=200)
    xs = rng.integers(0, 48, size=200)
    vals = d[ys, xs]
    dy = ys[:, None] - ys[None, :]
    dx = xs[:, None] - xs[None, :]
    dist = np.hypot(dx, dy)
    gap = np.abs(vals[:, None] - vals[None, :])
    assert (gap <= dist + 1e-9).all()


def test_accepts_numeric_mask():
    out = euclidean_distance_map(np.array([[0, 5], [0, 0]]))
    assert out.tolist() == [[0.0, 1.0], [0.0, 0.0]]
