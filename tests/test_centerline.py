import functools
import re

import numpy as np
import pytest

from shapesplit import (
    AlgorithmError,
    CenterlineExtractor,
    EqualAreaSubdivider,
    ValidationError,
    argmax_field,
    descend,
    euclidean_distance_map,
    extract_centerline,
    fast_march,
    subdivide_equal,
)
from shapesplit.centerline import DEFAULT_EXPONENT, _run

from conftest import C_ANNULUS_NOTCH_DEG, annulus_radii, make_blob, make_c_annulus


def test_strip_degenerates_to_itself():
    mask = np.ones((1, 9), dtype=bool)
    path, arrival = extract_centerline(mask)
    assert path == [(x, 0) for x in range(9)]
    assert {path[0], path[-1]} == {(0, 0), (8, 0)}
    assert arrival.values[0, path[0][0]] > 0.0


def test_rectangle_band_property():
    # 64x8: the deep band is rows 3 and 4; the path sits there except for
    # the short diagonal climbs to the corner endpoints.
    mask = np.ones((8, 64), dtype=bool)
    path, _ = extract_centerline(mask)
    length = len(path)
    for i, (x, y) in enumerate(path):
        if min(i, length - 1 - i) > 3:
            assert y in (3, 4), (i, x, y)
    assert len({x for x, _ in path}) >= 60


def test_path_inside_mask_simple_and_8_connected():
    mask = make_blob(5)
    path, _ = extract_centerline(mask)
    assert len(set(path)) == len(path)
    for (x0, y0), (x1, y1) in zip(path, path[1:]):
        assert max(abs(x1 - x0), abs(y1 - y0)) == 1
    for x, y in path:
        assert mask[y, x]


def test_centrality_prefers_deep_voxels():
    for seed in (1, 4, 7):
        mask = make_blob(seed)
        path, _ = extract_centerline(mask)
        d = euclidean_distance_map(mask)
        on_path = np.array([d[y, x] for x, y in path])
        assert on_path.mean() >= d[mask].mean()


def test_endpoint_extremality():
    mask = make_blob(2)
    path, arrival = extract_centerline(mask)
    bx, by = path[0]
    u = arrival.values
    assert u[by, bx] >= u[np.isfinite(u)].max() - 1e-12


def test_deterministic():
    mask = make_blob(6)
    p1, a1 = extract_centerline(mask)
    p2, a2 = extract_centerline(mask)
    assert p1 == p2
    assert np.array_equal(a1.values, a2.values)


def test_disconnected_mask_rejected():
    mask = np.zeros((5, 5), dtype=bool)
    mask[0, 0] = mask[4, 4] = True
    with pytest.raises(ValidationError, match="region not connected"):
        extract_centerline(mask)


def in_pieces(pieces: int) -> np.ndarray:
    """The C annulus with ``pieces - 1`` more pieces: a voxel in a corner, then a 3x3 square.

    The annulus overflows the potential at exponent 400 and underflows it
    at -2000, so only the connectivity check stands between those and the
    second wave.
    """
    mask = make_c_annulus()
    assert not mask[:6, :6].any()
    mask[0, 0] = True
    if pieces == 3:
        mask[2:5, 2:5] = True
    return mask


@pytest.mark.parametrize("exponent", [DEFAULT_EXPONENT, 400, -2000])
@pytest.mark.parametrize("pieces", [2, 3])
def test_region_in_pieces_is_rejected_with_their_count(pieces, exponent):
    # the first wave stops short of the other pieces, and one labeling counts them
    mask = in_pieces(pieces)
    calls = [
        lambda: subdivide_equal(mask, 4, exponent),
        lambda: extract_centerline(mask, exponent),
        lambda: EqualAreaSubdivider(n_regions=4, exponent=exponent).fit(mask),
        lambda: CenterlineExtractor(exponent).fit(mask),
    ]
    for call in calls:
        with pytest.raises(ValidationError) as info:
            call()
        assert str(info.value) == f"region not connected ({pieces} components)"


def test_pieces_that_meet_only_at_a_corner_are_apart():
    mask = np.zeros((6, 6), dtype=bool)
    mask[:3, :3] = mask[3:, 3:] = True
    with pytest.raises(ValidationError, match=r"^region not connected \(2 components\)$"):
        subdivide_equal(mask, 2)


def test_empty_mask_rejected():
    with pytest.raises(ValidationError, match="empty region"):
        extract_centerline(np.zeros((5, 5), dtype=bool))


def test_invalid_exponent_rejected():
    with pytest.raises(ValidationError):
        extract_centerline(np.ones((1, 9), dtype=bool), exponent=float("inf"))


def test_descent_stall_at_large_exponent_is_an_algorithm_error(c_annulus_mask):
    # the arrival times lose the precision that descent needs
    with pytest.raises(AlgorithmError, match="exponent 30"):
        extract_centerline(c_annulus_mask, exponent=30)


def test_potential_too_large_to_square_gives_the_public_chains_stall(c_annulus_mask):
    # At exponent 200 the potential is finite but 2 v**2 overflows near the
    # wall, so some reached voxels keep +inf and the public chain stalls in
    # the descent; the pipeline names the overflow instead.
    mask, exponent = c_annulus_mask, 200
    dist = euclidean_distance_map(mask)
    h, w = mask.shape
    idx = int(np.argmax(dist))
    end_a = argmax_field(fast_march(np.ones((h, w)), mask, (idx % w, idx // w)))
    potential = np.ones((h, w))
    potential[mask] = (dist.max() / dist[mask]) ** exponent
    assert np.isfinite(potential).all()
    second = fast_march(potential, mask, end_a)
    assert np.isinf(second.values[mask]).any()
    with pytest.raises(ValidationError) as want:
        descend(second, argmax_field(second))
    with pytest.raises(ValidationError) as info:
        extract_centerline(mask, exponent)
    assert type(info.value) is ValidationError
    message = r"exponent 200 is too large for this region: the second wave's potential \(\S+ / d\) \*\* 200 overflows"
    assert re.fullmatch(message, str(info.value))


def test_overflowing_exponent_rejected(c_annulus_mask):
    with pytest.raises(ValidationError, match="exponent 400"):
        extract_centerline(c_annulus_mask, exponent=400)


def test_underflowing_potential_rejected(c_annulus_mask):
    # (d_max / d) ** -2000 is 0 away from the deepest voxels
    with pytest.raises(ValidationError) as info:
        subdivide_equal(c_annulus_mask, 4, exponent=-2000)
    assert type(info.value) is ValidationError
    assert str(info.value) == "potential must be positive and finite on the domain"


def test_exponent_zero_still_extracts():
    mask = np.ones((8, 32), dtype=bool)
    path, _ = extract_centerline(mask, exponent=0.0)
    assert len(path) >= 32


class TestCAnnulus:
    def test_endpoints_near_the_two_notch_faces(self, c_annulus_mask):
        path, _ = extract_centerline(c_annulus_mask)
        r = annulus_radii()
        half = C_ANNULUS_NOTCH_DEG / 2.0
        c = (c_annulus_mask.shape[0] - 1) / 2.0
        face_hits = set()
        for x, y in (path[0], path[-1]):
            ang = np.degrees(np.arctan2(y - c, x - c))
            face = half if ang >= 0 else -half
            arc = abs(abs(ang) - half) * np.pi / 180.0 * r[y, x]
            assert arc <= 3.0, (x, y, ang, arc)
            face_hits.add(face)
        assert face_hits == {half, -half}

    def test_path_visits_every_angular_sector(self, c_annulus_mask):
        path, _ = extract_centerline(c_annulus_mask)
        c = (c_annulus_mask.shape[0] - 1) / 2.0
        half = C_ANNULUS_NOTCH_DEG / 2.0
        span = 360.0 - C_ANNULUS_NOTCH_DEG
        covered = np.zeros(17, dtype=bool)
        for x, y in path:
            ang = np.degrees(np.arctan2(y - c, x - c))
            rel = (ang - half) % 360.0
            covered[min(int(rel / (span / 17)), 16)] = True
        assert covered.all()


@pytest.mark.parametrize(
    "mask_fn",
    [
        make_c_annulus,
        pytest.param(lambda: np.ones((40, 300), dtype=bool), id="filled_strip"),
        pytest.param(lambda: make_blob(3), id="blob3"),
        pytest.param(lambda: make_blob(7, size=96), id="blob7_96"),
    ],
)
def test_record_matches_public_chain(mask_fn):
    # The record's waves, ends and path, read through its grid views, are
    # those of the public functions composed by hand on the grid, byte for byte.
    mask = mask_fn()
    record = _run(mask, DEFAULT_EXPONENT)
    h, w = mask.shape
    dist = euclidean_distance_map(mask)
    idx = int(np.argmax(dist))
    first = fast_march(np.ones((h, w)), mask, (idx % w, idx // w))
    end_a = argmax_field(first)
    potential = np.ones((h, w))
    potential[mask] = (dist.max() / dist[mask]) ** DEFAULT_EXPONENT
    second = fast_march(potential, mask, end_a)
    end_b = argmax_field(second)
    path = descend(second, end_b)
    assert record.place(record.distance_map, 0.0).tobytes() == dist.tobytes()
    for got, want in ((record.wave(record.first_wave), first), (record.wave(record.second_wave), second)):
        assert got.values.dtype == want.values.dtype and got.values.shape == want.values.shape
        assert got.values.tobytes() == want.values.tobytes()
        assert got.source == want.source
    assert record.wave(record.second_wave).source == end_a
    assert record.grid_path()[0] == end_b
    assert record.grid_path() == path


# The crops of two regions and the k each is split into; each crop is placed
# in a canvas 21 rows and 30 columns larger, inside it or against each edge
# and in two corners, as in test_distance's placement test.
PLACED = {"c_annulus": (make_c_annulus, 16), "blob7_96": (lambda: make_blob(7, size=96), 5)}
OFFSETS = [(7, 9), (0, 9), (21, 9), (7, 0), (7, 30), (0, 0), (21, 30)]


@functools.lru_cache
def own_crop(name):
    """The region's crop, and every output of the pipeline on the crop alone."""
    mask_fn, k = PLACED[name]
    mask = mask_fn()
    ys, xs = np.nonzero(mask)
    crop = mask[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
    return crop, k, run_every_view(crop, k)


def run_every_view(mask, k):
    return (
        subdivide_equal(mask, k),
        extract_centerline(mask),
        EqualAreaSubdivider(n_regions=k).fit(mask),
        CenterlineExtractor().fit(mask),
    )


def fitted(est):
    return {name: value for name, value in vars(est).items() if name.endswith("_")}


@pytest.mark.parametrize("offset", OFFSETS)
@pytest.mark.parametrize("name", list(PLACED))
def test_placement_in_a_larger_canvas_matches_own_crop(name, offset):
    # Every stage runs on the region's box, so wherever the region sits the
    # outputs are its crop's: fields and labels placed, voxels shifted.
    crop, k, (labels, (path, arrival), subdivider, extractor) = own_crop(name)
    h, w = crop.shape
    y0, x0 = offset
    canvas = np.zeros((h + 21, w + 30), dtype=bool)
    canvas[y0 : y0 + h, x0 : x0 + w] = crop

    def place(values, fill):
        out = np.full(canvas.shape, fill, dtype=values.dtype)
        out[y0 : y0 + h, x0 : x0 + w] = values
        return out

    def shift(voxel):
        return voxel[0] + x0, voxel[1] + y0

    got_labels, (got_path, got_arrival), got_subdivider, got_extractor = run_every_view(canvas, k)
    assert got_labels.dtype == labels.dtype and np.array_equal(got_labels, place(labels, 0))
    assert got_path == [shift(voxel) for voxel in path]
    assert got_arrival.source == shift(arrival.source)
    assert got_arrival.values.tobytes() == place(arrival.values, np.inf).tobytes()

    xy = np.array([x0, y0])
    want = fitted(subdivider)
    want.update(
        labels_=place(subdivider.labels_, 0),
        centerline_=subdivider.centerline_ + xy,
        cut_plan_=[cut._replace(anchor=shift(cut.anchor)) for cut in subdivider.cut_plan_],
        distance_map_=place(subdivider.distance_map_, 0.0),
        first_arrival_=place(subdivider.first_arrival_, np.inf),
        second_arrival_=place(subdivider.second_arrival_, np.inf),
    )
    got = fitted(got_subdivider)
    assert got.keys() == want.keys()
    assert got["cut_plan_"] == want.pop("cut_plan_") and got.pop("n_trimmed_") == want.pop("n_trimmed_")
    for attr, value in want.items():
        assert got[attr].dtype == value.dtype and got[attr].tobytes() == value.tobytes(), attr

    want = fitted(extractor)
    want.update(
        path_=extractor.path_ + xy,
        endpoints_=tuple(shift(end) for end in extractor.endpoints_),
        distance_map_=place(extractor.distance_map_, 0.0),
        first_arrival_=place(extractor.first_arrival_, np.inf),
        second_arrival_=place(extractor.second_arrival_, np.inf),
    )
    got = fitted(got_extractor)
    assert got.keys() == want.keys()
    assert got.pop("endpoints_") == want.pop("endpoints_")
    for attr, value in want.items():
        assert got[attr].dtype == value.dtype and got[attr].tobytes() == value.tobytes(), attr


@pytest.mark.parametrize("offset", OFFSETS)
def test_placed_descent_stall_names_its_voxel_on_the_grid(offset):
    # The walk runs on the box; its stall voxel is reported on the grid.
    crop = own_crop("c_annulus")[0]
    with pytest.raises(AlgorithmError) as own:
        extract_centerline(crop, exponent=30)
    x, y = map(int, re.search(r"local minimum \((\d+), (\d+)\)", str(own.value)).groups())
    h, w = crop.shape
    y0, x0 = offset
    canvas = np.zeros((h + 21, w + 30), dtype=bool)
    canvas[y0 : y0 + h, x0 : x0 + w] = crop
    want = str(own.value).replace(f"({x}, {y})", f"({x + x0}, {y + y0})")
    for fit in (lambda m: extract_centerline(m, exponent=30), EqualAreaSubdivider(4, exponent=30).fit):
        with pytest.raises(AlgorithmError) as placed:
            fit(canvas)
        assert str(placed.value) == want
