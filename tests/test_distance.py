import numpy as np
import pytest

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
    # spans row blocks that need different windows: a shallow one around
    # the line, deep ones through the disk, and an empty one at the bottom
    yy, xx = np.mgrid[0:100, 0:100]
    mask = (yy - 60) ** 2 + (xx - 50) ** 2 <= 30 * 30
    mask[10, 5:95] = True
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
    ],
)
def test_matches_brute_force_on_shapes(mask_fn):
    mask = mask_fn()
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
