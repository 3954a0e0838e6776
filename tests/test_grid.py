import numpy as np
import pytest

from shapesplit import ValidationError, connected_components
from shapesplit.grid import _label_runs

from conftest import random_mask
from oracles import flood_fill_components

_rng = np.random.default_rng(7)
_edge_runs = _rng.random((16, 20)) < 0.5
_edge_runs[::2, :3] = True  # runs from the left edge
_edge_runs[1::2, -3:] = True  # runs to the right edge
_edge_runs[5] = True  # one run from edge to edge


def double_spiral(n: int = 32, turns: float = 2.0, width: float = 0.8) -> np.ndarray:
    """Two arms of an Archimedean spiral, half a turn apart and joined at its centre.

    Each arm is the voxels within ``width`` of points close along its line.
    In row-major order the arms' runs take turns as they wind in, so the
    union's first hook round leaves the two arms apart and a second joins
    them, at either connectivity.
    """
    t = np.tile(np.linspace(0, 2 * np.pi * turns, 2000), 2)
    angle = t + np.repeat([0, np.pi], 2000)
    r = (n / 2 - width - 1) * t / (2 * np.pi * turns)
    y, x = (n - 1) / 2 + r * np.sin(angle), (n - 1) / 2 + r * np.cos(angle)
    ys = np.round(y)[:, None] + (-1, -1, -1, 0, 0, 0, 1, 1, 1)
    xs = np.round(x)[:, None] + (-1, 0, 1, -1, 0, 1, -1, 0, 1)
    near = (ys - y[:, None]) ** 2 + (xs - x[:, None]) ** 2 <= width**2
    mask = np.zeros((n, n), dtype=bool)
    mask[ys[near].astype(int), xs[near].astype(int)] = True
    return mask


# Edge shapes for the oracle test, next to the random masks of seeds 0-4.
EDGE_SHAPES = {
    "1x1": np.ones((1, 1), dtype=bool),
    "1xW": _rng.random((1, 40)) < 0.6,
    "Hx1": _rng.random((40, 1)) < 0.6,
    "filled": np.ones((12, 17), dtype=bool),
    "checkerboard": np.indices((9, 10)).sum(axis=0) % 2 == 0,
    "edge_runs": _edge_runs,
    "spiral": double_spiral(),
}


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
        # one 4-connected piece is one component; an empty mask has none
        comps4, count4 = flood_fill_components(mask, 4)
        assert connected_components(comps4 == 1)[1] == 1
        assert (connected_components(mask)[1] == 1) == (count4 == 1)
        assert connected_components(np.zeros_like(mask))[1] == 0

    def test_row_major_first_encounter_order(self):
        mask = random_mask(11, size=32)
        labels, count = connected_components(mask, 4)
        flat = labels.ravel()
        firsts = [int(np.flatnonzero(flat == j)[0]) for j in range(1, count + 1)]
        assert firsts == sorted(firsts)

    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_matches_flood_fill_oracle_on_random_masks(self, connectivity):
        # 300 masks of every shape from 1x1 to 24x24 and every density.
        rng = np.random.default_rng(connectivity)
        for _ in range(300):
            h, w = rng.integers(1, 25, size=2)
            mask = rng.random((h, w)) < rng.random()
            got, count = connected_components(mask, connectivity)
            want, want_count = flood_fill_components(mask, connectivity)
            assert count == want_count
            assert np.array_equal(got, want)
            assert got.dtype == np.int32

    def test_accepts_integer_input(self):
        labels, count = connected_components(np.array([[0, 2], [3, 0]]), 4)
        assert count == 2
        assert labels.tolist() == [[0, 1], [2, 0]]

    def test_unknown_connectivity_rejected(self):
        with pytest.raises(ValidationError, match="^connectivity must be 4 or 8, got 6$"):
            connected_components(np.ones((2, 2), dtype=bool), 6)


class TestLabelRuns:
    """The run labeling of label maps: a run joins only runs of its own value."""

    @pytest.mark.parametrize("seed", range(4))
    @pytest.mark.parametrize("connectivity", [4, 8])
    def test_pieces_are_the_flood_fill_components_of_each_label(self, seed, connectivity):
        rng = np.random.default_rng(seed)
        for _ in range(40):
            h, w = rng.integers(1, 21, size=2)
            values = rng.integers(0, int(rng.integers(2, 6)), size=(h, w)).astype(np.int32)
            if rng.random() < 0.5:  # blocky maps, with longer runs
                values = np.repeat(values[:, ::3], 3, axis=1)[:, :w]
            got, count = _label_runs(values, connectivity)
            assert got.dtype == np.int32
            assert np.array_equal(got > 0, values > 0)
            total = 0
            for j in np.unique(values[values > 0]):
                want, want_count = flood_fill_components(values == j, connectivity)
                total += want_count
                # the same pieces, numbered apart: a one-to-one map of numbers
                pairs = {(int(a), int(b)) for a, b in zip(got[values == j], want[values == j])}
                assert len(pairs) == len({a for a, _ in pairs}) == len({b for _, b in pairs}) == want_count
            assert count == total
            # first encounter in row-major order numbers the pieces
            flat = got.ravel()
            firsts = [int(np.flatnonzero(flat == c)[0]) for c in range(1, count + 1)]
            assert firsts == sorted(firsts)

    def test_touching_labels_stay_apart(self):
        values = np.array([[1, 1, 2, 2], [2, 2, 1, 1], [1, 2, 1, 2]], dtype=np.int32)
        labels, count = _label_runs(values, 4)
        assert count == 6
        assert labels.tolist() == [[1, 1, 2, 2], [3, 3, 4, 4], [5, 3, 4, 6]]
