import hashlib
import math
import tracemalloc

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from shapesplit import (
    ArrivalField,
    ValidationError,
    VoxelGraph,
    argmax_field,
    descend,
    double_sweep,
    euclidean_distance_map,
    fast_march,
    march,
    subdivide_equal,
)

from shapesplit.eikonal import NEIGHBOR_STEPS_8

from conftest import make_blob, make_c_annulus
from oracles import flood_fill_components, flood_fill_steps, sweep_arrival


# sha256 of ``fast_march(...).values.tobytes()`` on odd domains, recorded
# with the padded-grid solver; the voxel-graph solver must match them bit
# for bit (its sentinel neighbour and row-major numbering included).
PINS = {
    ("holes", 0): "853198a53cef5d13a5b31dffa3b344befef5b31960543be602fe9b93112b8f77",
    ("holes", 1): "8b70324d82148faea63b44116c815a8ee5f17797c83e6d9903f0ffe75949e83f",
    ("holes", 2): "702f1674454b8a68c885f8e9181062a0d581ab3dcd40c5da670a3d7241c17a50",
    ("holes", 3): "99d771571bd1e0e8864c8a01fe853c6735124ac179db9f62606245afe0444454",
    "unreachable": "8ccbe122da770ee2d1e12f5fc1a31fc1dab0da99160a0f421292a2c92de7f54c",
    ("thin", (1, 1)): "af5570f5a1810b7af78caf4bc70a660f0df51e42baf91d4de5b2328de0e83dfc",
    ("thin", (1, 17)): "261fe56f45c7bead4f78632d34afbc9da320df39964f40acb0a098b906db9202",
    ("thin", (17, 1)): "346247663b4695710ab608375e127229ebcfef5440aa2795083e92b596594fea",
    "annulus": "8c96f8362a84050350287eec51f83393edc2bf50b0ad85d8b01806943a0f0754",
}


def sha256(values):
    return hashlib.sha256(np.ascontiguousarray(values).tobytes()).hexdigest()


def assert_matches_sweep(pot, domain, src, pin=None):
    """``fast_march`` agrees with the sweeping oracle; +inf in the same places.

    With ``pin``, the values must also hash to ``PINS[pin]``.
    """
    pot_before, dom_before = pot.copy(), domain.copy()
    got = fast_march(pot, domain, src).values
    assert np.array_equal(pot, pot_before) and np.array_equal(domain, dom_before)
    want = sweep_arrival(pot, domain, src)
    assert got.dtype == np.float64 and got.shape == domain.shape
    assert np.array_equal(np.isinf(got), np.isinf(want))
    finite = np.isfinite(want)
    assert np.abs(got[finite] - want[finite]).max() <= 1e-9
    if pin is not None:
        assert sha256(got) == PINS[pin]
    return got


def unit_strip(n=5):
    domain = np.ones((1, n), dtype=bool)
    return fast_march(np.ones((1, n)), domain, (0, 0))


class TestFastMarch:
    def test_unit_speed_strip(self):
        field = unit_strip()
        assert field.values.tolist() == [[0.0, 1.0, 2.0, 3.0, 4.0]]
        assert field.source == (0, 0)

    def test_3x3_center_source(self):
        field = fast_march(np.ones((3, 3)), np.ones((3, 3), dtype=bool), (1, 1))
        u = field.values
        assert u[1, 1] == 0.0
        for y, x in [(0, 1), (1, 0), (1, 2), (2, 1)]:
            assert u[y, x] == 1.0
        corner = 1.0 + 1.0 / math.sqrt(2.0)
        for y, x in [(0, 0), (0, 2), (2, 0), (2, 2)]:
            assert abs(u[y, x] - corner) <= 1e-12

    def test_source_outside_domain(self):
        domain = np.zeros((3, 3), dtype=bool)
        domain[0, 0] = True
        with pytest.raises(ValidationError):
            fast_march(np.ones((3, 3)), domain, (2, 2))

    def test_source_off_the_grid(self):
        with pytest.raises(ValidationError, match=r"^coordinate \(3, 0\) out of bounds for 3x3 grid$"):
            fast_march(np.ones((3, 3)), np.ones((3, 3), dtype=bool), (3, 0))

    def test_nonpositive_potential_rejected(self):
        domain = np.ones((2, 2), dtype=bool)
        pot = np.ones((2, 2))
        pot[0, 1] = 0.0
        with pytest.raises(ValidationError):
            fast_march(pot, domain, (0, 0))

    def test_infinite_potential_rejected(self):
        domain = np.ones((2, 2), dtype=bool)
        pot = np.ones((2, 2))
        pot[1, 1] = np.inf
        with pytest.raises(ValidationError):
            fast_march(pot, domain, (0, 0))

    def test_infinite_outside_domain(self):
        domain = make_blob(3, size=24, min_area=40)
        sy, sx = map(int, np.argwhere(domain)[0])
        field = fast_march(np.ones(domain.shape), domain, (sx, sy))
        assert np.isfinite(field.values[domain]).all()
        assert np.isinf(field.values[~domain]).all()

    @pytest.mark.parametrize("seed", range(3))
    def test_matches_sweeping_fixed_point(self, seed):
        rng = np.random.default_rng(200 + seed)
        pot = rng.uniform(0.2, 5.0, (32, 32))
        src = (int(rng.integers(32)), int(rng.integers(32)))
        domain = np.ones((32, 32), dtype=bool)
        got = fast_march(pot, domain, src).values
        want = sweep_arrival(pot, domain, src)
        assert np.abs(got - want).max() <= 1e-9

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_sweep_on_domain_with_holes(self, seed):
        rng = np.random.default_rng(300 + seed)
        domain = rng.random((24, 28)) < 0.8
        domain[12, 14] = True
        pot = rng.uniform(0.2, 5.0, domain.shape)
        assert_matches_sweep(pot, domain, (14, 12), pin=("holes", seed))

    def test_matches_sweep_with_unreachable_components(self):
        rng = np.random.default_rng(310)
        domain = np.zeros((20, 30), dtype=bool)
        domain[2:18, 2:12] = True  # source side
        domain[2:18, 16:28] = True  # cut off by the empty columns 12-15
        domain[8:11, 5:9] = False  # a hole in the source side
        domain[0, 29] = True  # an isolated voxel
        pot = rng.uniform(0.5, 2.0, domain.shape)
        got = assert_matches_sweep(pot, domain, (3, 3), pin="unreachable")
        assert np.isinf(got[:, 16:]).all()

    @pytest.mark.parametrize("shape, src", [((1, 1), (0, 0)), ((1, 17), (5, 0)), ((17, 1), (0, 16))])
    def test_matches_sweep_on_thin_domains(self, shape, src):
        pot = np.random.default_rng(320).uniform(0.2, 5.0, shape)
        got = assert_matches_sweep(pot, np.ones(shape, dtype=bool), src, pin=("thin", shape))
        assert got[src[1], src[0]] == 0.0

    def test_matches_sweep_on_second_wave_potential(self, c_annulus_mask):
        # The centerline's second wave, checked on the annulus' bounding box
        # (the rest of the grid is off the domain and must stay +inf).
        dist = euclidean_distance_map(c_annulus_mask)
        pot = np.ones(dist.shape)
        pot[c_annulus_mask] = (dist.max() / dist[c_annulus_mask]) ** 6
        ys, xs = np.nonzero(c_annulus_mask)
        box = np.s_[ys.min() : ys.max() + 1, xs.min() : xs.max() + 1]
        src = (int(xs[0]), int(ys[0]))
        got = fast_march(pot, c_annulus_mask, src).values
        assert sha256(got) == PINS["annulus"]
        outside = np.ones(got.shape, dtype=bool)
        outside[box] = False
        assert np.isinf(got[outside]).all()
        local = assert_matches_sweep(pot[box], c_annulus_mask[box], (src[0] - xs.min(), src[1] - ys.min()))
        assert np.array_equal(got[box], local)

    def test_causality_bounds_unit_potential(self):
        domain = np.ones((32, 32), dtype=bool)
        sx, sy = 5, 9
        u = fast_march(np.ones((32, 32)), domain, (sx, sy)).values
        yy, xx = np.mgrid[0:32, 0:32]
        chebyshev = np.maximum(np.abs(xx - sx), np.abs(yy - sy))
        manhattan = np.abs(xx - sx) + np.abs(yy - sy)
        assert (u >= chebyshev - 1e-12).all()
        assert (u <= manhattan + 1e-12).all()

    def test_scaling_covariance(self):
        rng = np.random.default_rng(42)
        pot = rng.uniform(0.5, 3.0, (16, 16))
        domain = np.ones((16, 16), dtype=bool)
        base = fast_march(pot, domain, (2, 3)).values
        for c in (0.5, 3.0):
            scaled = fast_march(c * pot, domain, (2, 3)).values
            assert np.allclose(scaled, c * base, rtol=1e-12, atol=0.0)

    def test_deterministic(self):
        rng = np.random.default_rng(9)
        pot = rng.uniform(0.1, 2.0, (20, 20))
        domain = rng.random((20, 20)) < 0.9
        domain[4, 4] = True
        a = fast_march(pot, domain, (4, 4)).values
        b = fast_march(pot, domain, (4, 4)).values
        assert np.array_equal(a, b)

    def test_peak_memory_on_filled_square(self):
        # The padded-grid solver peaked at 12.3 MiB here (about 49 bytes
        # per voxel); the voxel graph may cost at most half as much again.
        domain = np.ones((512, 512), dtype=bool)
        pot = np.ones((512, 512))
        tracemalloc.start()
        try:
            fast_march(pot, domain, (256, 256))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 1.5 * 12.3 * 2**20


def test_peak_memory_of_a_small_region_on_a_large_canvas():
    # Every stage runs on the region's box, so the only canvas-sized array is
    # the returned label map (16 MiB of int32 here): the call peaks at
    # 16.1 MiB, and one more canvas-sized field would add 16-32 MiB.
    canvas = np.zeros((2048, 2048), dtype=bool)
    canvas[976:1072, 976:1072] = make_blob(1, size=96)
    tracemalloc.start()
    try:
        subdivide_equal(canvas, 2)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak <= 1.5 * 16.1 * 2**20


class TestVoxelGraph:
    def test_row_major_ids_and_a_sentinel_for_every_neighbour_off_the_domain(self):
        graph = VoxelGraph(np.array([[1, 0, 1], [1, 1, 0]]))
        assert graph.size == 4
        # W, E, N and S per id, id 4 being the sentinel
        assert graph.neighbors.T.tolist() == [[4, 4, 4, 2], [4, 4, 4, 4], [4, 3, 0, 4], [2, 4, 4, 4], [4, 4, 4, 4]]
        assert [graph.voxel(i) for i in range(4)] == [(0, 0), (2, 0), (0, 1), (1, 1)]
        assert graph.spread(np.arange(4.0)).tolist() == [[0.0, np.inf, 1.0], [2.0, 3.0, np.inf]]

    def test_the_table_is_built_from_the_domain_and_kept_read_only(self):
        domain = np.array([[1, 0, 1], [1, 1, 0]], dtype=bool)
        with pytest.raises(TypeError):
            VoxelGraph(domain, np.zeros((4, 5), dtype=np.intp))
        graph = VoxelGraph(domain)
        domain[0, 1] = True  # the graph keeps its own copy
        assert graph.size == 4 and not graph.domain[0, 1]
        for array in (graph.domain, graph.neighbors):
            with pytest.raises(ValueError):
                array[0, 0] = 0

    @pytest.mark.parametrize("domain", [np.ones(4, dtype=bool), np.ones((2, 2, 2), dtype=bool), "abc"])
    def test_rejects_a_domain_that_is_not_a_2d_mask(self, domain):
        with pytest.raises(ValidationError, match="^mask must be 2D"):
            VoxelGraph(domain)

    @pytest.mark.parametrize("index", [-1, 4, 1.5, True, None])
    def test_voxel_rejects_what_is_not_an_id(self, index):
        with pytest.raises(ValidationError, match="(is not a voxel id of a graph of 4 voxels|must be an integer)"):
            VoxelGraph(np.array([[1, 0, 1], [1, 1, 0]])).voxel(index)

    @pytest.mark.parametrize("seed", range(4))
    def test_march_is_fast_march_on_the_graph(self, seed):
        # holes and unreachable pieces included; the ids of a mask are those
        # of its box on the grid
        rng = np.random.default_rng(seed)
        domain = np.zeros((24, 30), dtype=bool)
        domain[3:20, 4:27] = rng.random((17, 23)) < 0.8
        domain[22, 1] = True  # a voxel no front from the block reaches, nor one from it the block
        pot = rng.uniform(0.2, 3.0, domain.shape)
        graph = VoxelGraph(domain)
        source = int(rng.integers(graph.size))
        x, y = graph.voxel(source)
        u = march(graph, pot[domain], source)
        want = fast_march(pot, domain, (x, y)).values
        assert np.array_equal(graph.spread(u), want)
        assert u[source] == 0.0 and np.isinf(u).any()

    @pytest.mark.parametrize("bad", [0.0, -1.0, np.inf, np.nan])
    def test_march_rejects_a_potential_not_positive_and_finite(self, bad):
        graph = VoxelGraph(np.ones((2, 3), dtype=bool))
        pot = np.ones(6)
        pot[4] = bad
        with pytest.raises(ValidationError, match="^potential must be positive and finite on the domain$"):
            march(graph, pot, 0)

    @pytest.mark.parametrize("potential", [np.ones((2, 3)), np.ones(5), [[1.0], [1.0, 2.0]], "abc"])
    def test_march_rejects_a_potential_not_of_the_graph(self, potential):
        with pytest.raises(ValidationError, match="^potential must (hold the graph's 6 values|be an array of real numbers)"):
            march(VoxelGraph(np.ones((2, 3), dtype=bool)), potential, 0)

    @pytest.mark.parametrize("source", [-1, 6, 1.5, True, "0", None])
    def test_march_rejects_a_source_that_is_not_an_id(self, source):
        with pytest.raises(ValidationError):
            march(VoxelGraph(np.ones((2, 3), dtype=bool)), np.ones(6), source)


def two_marches(graph, potential, source):
    """A unit march from ``source``, and a march of ``potential`` from its largest finite arrival."""
    u1 = march(graph, np.ones(graph.size), source)
    end = int(np.argmax(np.where(np.isfinite(u1), u1, -1.0)))
    return u1, march(graph, potential, end), end


def pipeline_inputs(mask):
    """The region's graph, the second wave's potential at the default exponent, and the deepest voxel."""
    graph = VoxelGraph(mask)
    depth = euclidean_distance_map(mask)[mask]
    return graph, (depth.max() / depth) ** 6, int(np.argmax(depth))


# The pipeline's forecast, the far end of the layers from the deepest voxel,
# is the unit wave's far end on the first region and not on the others, so
# the second wave starts once or restarts.
BRANCHES = {
    "annulus-5deg-hit": (lambda: make_c_annulus(notch_deg=5.0), True),
    "annulus-20deg-miss": (make_c_annulus, False),
    "blob2-miss": (lambda: make_blob(2), False),
    "blob3-miss": (lambda: make_blob(3), False),
}


class TestDoubleSweep:
    @settings(max_examples=200, deadline=None)
    @given(
        st.integers(0, 2**32 - 1),
        st.tuples(st.integers(1, 14), st.integers(1, 14)),
        st.floats(0.4, 0.95),
        st.integers(0, 10**6),
    )
    def test_is_two_marches_whatever_the_forecast(self, seed, shape, density, forecast):
        # the largest 4-piece of a random mask, random potentials and source,
        # and any forecast
        rng = np.random.default_rng(seed)
        labels, count = flood_fill_components(rng.random(shape) < density)
        assume(count)
        mask = labels == 1 + int(np.argmax(np.bincount(labels.ravel())[1:]))
        graph = VoxelGraph(mask)
        potential = rng.uniform(0.2, 5.0, graph.size)
        source = int(rng.integers(graph.size))
        u1, u2 = double_sweep(graph, potential, source, forecast % graph.size)
        want1, want2, _ = two_marches(graph, potential, source)
        assert u1.tobytes() == want1.tobytes() and u2.tobytes() == want2.tobytes()

    @pytest.mark.parametrize("name", BRANCHES)
    def test_the_pipelines_forecast_starts_once_or_restarts(self, name):
        make, hit = BRANCHES[name]
        graph, potential, deepest = pipeline_inputs(make())
        layers = graph.layers(deepest)
        forecast = int(np.argmax(layers))
        want1, want2, end = two_marches(graph, potential, deepest)
        assert (end == forecast) is hit
        u1, u2 = double_sweep(graph, potential, deepest, forecast)
        assert u1.tobytes() == want1.tobytes() and u2.tobytes() == want2.tobytes()

    def test_a_forecast_the_first_wave_reaches_long_before_it_settles(self, c_annulus_mask):
        # beside the source: reached in round 1, wrong, and only known to be
        # wrong once the first wave has settled
        graph, potential, deepest = pipeline_inputs(c_annulus_mask)
        forecast = int(graph.neighbors[0, deepest])
        assert forecast < graph.size
        u1, u2 = double_sweep(graph, potential, deepest, forecast)
        want1, want2, _ = two_marches(graph, potential, deepest)
        assert u1.tobytes() == want1.tobytes() and u2.tobytes() == want2.tobytes()

    def test_a_region_the_first_wave_does_not_cover(self):
        # the second wave starts at the first one's largest finite arrival
        domain = np.zeros((6, 9), dtype=bool)
        domain[1:5, 1:7] = True
        domain[5, 8] = True
        graph = VoxelGraph(domain)
        potential = np.linspace(0.5, 2.0, graph.size)
        u1, u2 = double_sweep(graph, potential, 0, graph.size - 1)
        want1, want2, end = two_marches(graph, potential, 0)
        assert np.isinf(u1[-1]) and end == 23
        assert u1.tobytes() == want1.tobytes() and u2.tobytes() == want2.tobytes()

    def test_peak_memory_on_filled_square(self):
        # beyond the graph and the potential: the (4, 2n + 2) table (64
        # bytes per voxel), a value and a stamp per copy (32), the
        # potential's copy and its square (16); a temporary of the table
        # would add 32 more, and the round itself adds about 3
        graph = VoxelGraph(np.ones((256, 256), dtype=bool))
        potential = np.full(graph.size, 2.0)
        tracemalloc.start()
        try:
            double_sweep(graph, potential, 0, 1)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak <= 128 * graph.size

    @pytest.mark.parametrize(
        "potential",
        [np.full(6, 0.0), np.full(6, -1.0), np.full(6, np.inf), np.full(6, np.nan), np.ones(5), "abc", [[1.0], [1.0, 2.0]]],
    )
    def test_rejects_the_potentials_that_march_rejects(self, potential):
        graph = VoxelGraph(np.ones((2, 3), dtype=bool))
        with pytest.raises(ValidationError) as want:
            march(graph, potential, 0)
        with pytest.raises(ValidationError) as info:
            double_sweep(graph, potential, 0, 1)
        assert str(info.value) == str(want.value)

    def test_rejects_an_underflowing_potential_as_march_does(self, c_annulus_mask):
        # (d_max / d) ** -2000 is 0 away from the deepest voxels
        graph, _, deepest = pipeline_inputs(c_annulus_mask)
        depth = euclidean_distance_map(c_annulus_mask)[c_annulus_mask]
        potential = (depth.max() / depth) ** -2000.0
        with pytest.raises(ValidationError) as want:
            march(graph, potential, deepest)
        with pytest.raises(ValidationError) as info:
            double_sweep(graph, potential, deepest, 0)
        assert str(info.value) == str(want.value) == "potential must be positive and finite on the domain"

    @pytest.mark.parametrize("ids", [(-1, 0), (6, 0), (1.5, 0), (0, 6), (0, True), (0, None)])
    def test_rejects_a_source_or_forecast_that_is_not_an_id(self, ids):
        with pytest.raises(ValidationError, match="(is not a voxel id of a graph of 6 voxels|must be an integer)"):
            double_sweep(VoxelGraph(np.ones((2, 3), dtype=bool)), np.ones(6), *ids)


class TestLayers:
    @pytest.mark.parametrize("seed", range(4))
    def test_are_the_flood_fills_steps(self, seed):
        rng = np.random.default_rng(seed)
        domain = np.zeros((24, 30), dtype=bool)
        domain[3:20, 4:27] = rng.random((17, 23)) < 0.65
        domain[22, 1] = True  # a voxel no layer from the block reaches
        graph = VoxelGraph(domain)
        for source in rng.integers(graph.size, size=3):
            want = flood_fill_steps(domain, graph.voxel(source))[domain]
            got = graph.layers(source)
            assert got.dtype == np.intp and got.tolist() == want.tolist()
            assert got[source] == 0 and (got < 0).any()

    def test_an_isolated_voxel_is_its_own_only_layer(self):
        graph = VoxelGraph(np.array([[1, 0, 1], [1, 1, 0]]))
        assert graph.layers(1).tolist() == [-1, 0, -1, -1]
        assert graph.layers(3).tolist() == [2, -1, 1, 0]

    @pytest.mark.parametrize("source", [-1, 4, 1.5, True, None])
    def test_reject_a_source_that_is_not_an_id(self, source):
        with pytest.raises(ValidationError):
            VoxelGraph(np.array([[1, 0, 1], [1, 1, 0]])).layers(source)


class TestArgmaxField:
    def test_strip(self):
        assert argmax_field(unit_strip()) == (4, 0)

    def test_constant_field_row_major_tie(self):
        field = ArrivalField(values=np.ones((3, 3)), source=(0, 0))
        assert argmax_field(field) == (0, 0)

    def test_3x3_corner_tie(self):
        field = fast_march(np.ones((3, 3)), np.ones((3, 3), dtype=bool), (1, 1))
        assert argmax_field(field) == (0, 0)

    def test_all_infinite_rejected(self):
        field = ArrivalField(values=np.full((2, 2), np.inf), source=(0, 0))
        with pytest.raises(ValidationError):
            argmax_field(field)


# Arrival values that are not a 2D field of non-negative numbers.
BAD_VALUES = {
    "1d": np.array([0.0, 1.0, 2.0]),
    "nan": np.array([[0.0, np.nan], [1.0, 2.0]]),
    "negative": np.array([[0.0, -1.0], [1.0, 2.0]]),
    "ragged": [[0.0, 1.0], [2.0]],
}


@pytest.mark.parametrize("name", list(BAD_VALUES))
def test_malformed_field_values_rejected(name):
    field = ArrivalField(values=BAD_VALUES[name], source=(0, 0))
    with pytest.raises(ValidationError):
        argmax_field(field)
    with pytest.raises(ValidationError):
        descend(field, (1, 0))


def test_plain_list_values_accepted():
    field = ArrivalField(values=[[0.0, 1.0, 2.0]], source=(0, 0))
    assert argmax_field(field) == (2, 0)
    assert descend(field, (2, 0)) == [(2, 0), (1, 0), (0, 0)]


class TestDescend:
    def test_strip(self):
        path = descend(unit_strip(), (4, 0))
        assert path == [(4, 0), (3, 0), (2, 0), (1, 0), (0, 0)]

    def test_start_at_source(self):
        assert descend(unit_strip(), (0, 0)) == [(0, 0)]

    def test_l_shaped_domain(self):
        domain = np.zeros((10, 10), dtype=bool)
        domain[:, 0:2] = True
        domain[8:10, :] = True
        field = fast_march(np.ones((10, 10)), domain, (0, 0))
        start = argmax_field(field)
        path = descend(field, start)
        assert path[0] == start
        assert path[-1] == (0, 0)
        assert len(path) <= int(domain.sum())
        u = field.values
        for (x, y) in path:
            assert domain[y, x]
        vals = [u[y, x] for x, y in path]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    @pytest.mark.parametrize("first", range(7))
    def test_ties_step_to_the_first_neighbor_in_order(self, first):
        # the start's 8-neighbors in the fixed N, S, W, E, NW, NE, SW, SE
        # order; from ``first`` on they tie for the smallest value
        order = [(0, -1), (0, 1), (-1, 0), (1, 0), (-1, -1), (1, -1), (-1, 1), (1, 1)]
        values = np.zeros((5, 5))
        values[2, 2] = 3.0
        for i, (dx, dy) in enumerate(order):
            values[2 + dy, 2 + dx] = 2.0 if i < first else 1.0
        path = descend(ArrivalField(values=values, source=(0, 0)), (2, 2))
        dx, dy = order[first]
        assert path[:2] == [(2, 2), (2 + dx, 2 + dy)]

    @settings(max_examples=300, deadline=None)
    @given(
        arrays(np.float64, st.tuples(st.integers(1, 7), st.integers(1, 7)),
               elements=st.sampled_from([0.0, 1.0, 2.0, 2.0, 3.0, 5.0, np.inf])),
        st.integers(0, 48),
    )
    def test_matches_a_bounds_checked_walk(self, values, at):
        # small values with many ties, zeros off the source, +inf walls and
        # stalls, and starts on every edge and corner
        h, w = values.shape
        x, y = at % w, at // w % h
        assume(np.isfinite(values[y, x]))
        want, stall = [(x, y)], None
        while values[want[-1][1], want[-1][0]] != 0.0:
            cx, cy = want[-1]
            best, step = values[cy, cx], None
            for dx, dy in NEIGHBOR_STEPS_8:
                nx, ny = cx + dx, cy + dy
                if 0 <= nx < w and 0 <= ny < h and values[ny, nx] < best:
                    best, step = values[ny, nx], (nx, ny)
            if step is None:
                stall = (cx, cy)
                break
            want.append(step)
        field = ArrivalField(values=values, source=(0, 0))
        if stall is None:
            assert descend(field, (x, y)) == want
        else:
            with pytest.raises(ValidationError) as info:
                descend(field, (x, y))
            assert str(info.value) == f"stuck at non-source local minimum {stall}; arrival field is not descendable"
            assert info.value.voxel == stall

    def test_peak_memory_on_a_large_canvas(self):
        # The walk pads only the box of the field's finite voxels: the call
        # peaks at 4.0 MiB here, the validation's boolean scans of the
        # canvas, where a padded copy of the whole field would add 32 MiB.
        blob = make_blob(1, size=96)
        ys, xs = np.nonzero(blob)
        wave = fast_march(np.ones(blob.shape), blob, (int(xs[0]), int(ys[0])))
        values = np.full((2048, 2048), np.inf)
        values[976:1072, 976:1072] = wave.values
        field = ArrivalField(values, (int(xs[0]) + 976, int(ys[0]) + 976))
        end = argmax_field(field)
        tracemalloc.start()
        try:
            path = descend(field, end)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert path[0] == end and path[-1] == field.source
        assert peak <= 1.5 * 4.0 * 2**20

    def test_stuck_at_local_minimum(self):
        values = np.full((2, 2), np.inf)
        values[1, 1] = 5.0
        field = ArrivalField(values=values, source=(0, 0))
        with pytest.raises(ValidationError, match="stuck at non-source local minimum"):
            descend(field, (1, 1))

    def test_infinite_start_rejected(self):
        field = unit_strip()
        values = field.values.copy()
        values[0, 2] = np.inf
        with pytest.raises(ValidationError):
            descend(ArrivalField(values=values, source=(0, 0)), (2, 0))
