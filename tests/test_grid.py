import numpy as np
import pytest

from shapesplit import ValidationError, connected_components, neighbors
from shapesplit.grid import is_connected

from conftest import random_mask
from oracles import flood_fill_components

_rng = np.random.default_rng(7)
_edge_runs = _rng.random((16, 20)) < 0.5
_edge_runs[::2, :3] = True  # runs from the left edge
_edge_runs[1::2, -3:] = True  # runs to the right edge
_edge_runs[5] = True  # one run from edge to edge

# Edge shapes for the oracle test, next to the random masks of seeds 0-4.
EDGE_SHAPES = {
    "1x1": np.ones((1, 1), dtype=bool),
    "1xW": _rng.random((1, 40)) < 0.6,
    "Hx1": _rng.random((40, 1)) < 0.6,
    "filled": np.ones((12, 17), dtype=bool),
    "checkerboard": np.indices((9, 10)).sum(axis=0) % 2 == 0,
    "edge_runs": _edge_runs,
}


class TestNeighbors:
    def test_corner_4(self):
        # fixed N, S, W, E order keeps only the in-bounds two
        assert neighbors((0, 0), (3, 3), 4) == [(0, 1), (1, 0)]
        assert set(neighbors((0, 0), (3, 3), 4)) == {(1, 0), (0, 1)}

    def test_center_4(self):
        assert neighbors((1, 1), (3, 3), 4) == [(1, 0), (1, 2), (0, 1), (2, 1)]

    def test_center_8(self):
        got = neighbors((1, 1), (3, 3), 8)
        assert len(got) == 8
        assert got == [(1, 0), (1, 2), (0, 1), (2, 1), (0, 0), (2, 0), (0, 2), (2, 2)]

    def test_out_of_bounds(self):
        with pytest.raises(ValidationError):
            neighbors((3, 0), (3, 3), 4)
        with pytest.raises(ValidationError):
            neighbors((0, -1), (3, 3), 4)

    def test_bad_connectivity(self):
        with pytest.raises(ValidationError):
            neighbors((0, 0), (3, 3), 6)

    def test_order_stable_across_calls(self):
        a = neighbors((2, 3), (8, 8), 8)
        b = neighbors((2, 3), (8, 8), 8)
        assert a == b


class TestConnectedComponents:
    def test_empty_mask(self):
        labels, count = connected_components(np.zeros((4, 5), dtype=bool))
        assert count == 0
        assert not labels.any()

    def test_diagonal_pair(self):
        mask = np.zeros((2, 2), dtype=bool)
        mask[0, 0] = mask[1, 1] = True
        _, c4 = connected_components(mask, 4)
        _, c8 = connected_components(mask, 8)
        assert c4 == 2
        assert c8 == 1

    def test_single_row_runs(self):
        mask = np.array([[1, 1, 0, 1, 0, 1, 1, 1]], dtype=bool)
        labels, count = connected_components(mask, 4)
        assert count == 3
        assert labels.tolist() == [[1, 1, 0, 2, 0, 3, 3, 3]]

    @pytest.mark.parametrize("case", [*range(5), *EDGE_SHAPES])
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_oracle(self, case, connectivity):
        mask = EDGE_SHAPES[case] if isinstance(case, str) else random_mask(case, size=32)
        got, count = connected_components(mask, connectivity)
        want, want_count = flood_fill_components(mask, connectivity)
        assert count == want_count
        assert np.array_equal(got, want)
        assert got.dtype == np.int32
        # is_connected asks for 4-connectivity
        comps4, count4 = flood_fill_components(mask, 4)
        assert is_connected(comps4 == 1)
        assert is_connected(mask) == (count4 == 1)
        assert not is_connected(np.zeros_like(mask))

    def test_row_major_first_encounter_order(self):
        mask = random_mask(11, size=32)
        labels, count = connected_components(mask, 4)
        flat = labels.ravel()
        firsts = [int(np.flatnonzero(flat == j)[0]) for j in range(1, count + 1)]
        assert firsts == sorted(firsts)

    def test_accepts_integer_input(self):
        labels, count = connected_components(np.array([[0, 2], [3, 0]]), 4)
        assert count == 2
        assert labels.tolist() == [[0, 1], [2, 0]]
