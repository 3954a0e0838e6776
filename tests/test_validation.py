import numpy as np
import pytest

from shapesplit import ValidationError, balance_areas, fast_march, region_stats, write_labelmap
from shapesplit.validation import check_coord, check_dims, check_exponent, check_labelmap, check_mask, check_path


class TestIntegerCoercion:
    def test_fractional_source_rejected(self):
        with pytest.raises(ValidationError):
            fast_march(np.ones((3, 3)), np.ones((3, 3), dtype=bool), (0.5, 0))

    def test_fractional_path_rejected(self):
        with pytest.raises(ValidationError):
            check_path([(0.5, 0), (1.2, 1)])

    def test_fractional_and_bool_dims_rejected(self):
        with pytest.raises(ValidationError):
            check_dims((2.9, True))

    @pytest.mark.parametrize("coord", [(True, 0), (0, np.True_), (1.0001, 0), (np.nan, 0), (np.inf, 0), ("1", 0)])
    def test_non_integer_coord_rejected(self, coord):
        with pytest.raises(ValidationError):
            check_coord(coord, (3, 3))

    def test_integral_values_accepted(self):
        assert check_coord((np.int64(2), 1.0), (3, 3)) == (2, 1)
        assert check_dims((np.uint8(4), 2.0)) == (4, 2)
        assert check_path([(0.0, 0), (np.int32(1), 1)]) == [(0, 0), (1, 1)]
        for x, y in check_path([(0.0, 0), (np.int32(1), 1)]):
            assert type(x) is int and type(y) is int


# Labels above the int32 maximum used to wrap: 2**32 + 3 became label 3,
# and 2**31 became -2**31.
TOO_LARGE = [np.array([[0, 2**32 + 3], [3, 1]]), np.array([[2**31]], dtype=np.uint32)]


class TestLabelRange:
    @pytest.mark.parametrize("labels", TOO_LARGE)
    @pytest.mark.parametrize("call", [
        write_labelmap,
        region_stats,
        lambda labels: balance_areas(labels, 3, np.ones(labels.shape)),
    ], ids=["write_labelmap", "region_stats", "balance_areas"])
    def test_rejected(self, call, labels):
        with pytest.raises(ValidationError, match=f"label {labels.max()} exceeds"):
            call(labels)

    def test_int32_maximum_accepted(self):
        labels = np.array([[0, 2**31 - 1]], dtype=np.int64)
        (s,) = region_stats(labels)
        assert s.label == 2**31 - 1


class TestMessages:
    @pytest.mark.parametrize("call, message", [
        (lambda: check_dims((0, 3)), "grid dimensions must be >= 1, got 0x3"),
        (lambda: check_dims((16384, 8192)),
         "grid of 16384x8192 = 134217728 voxels exceeds the cap of 67108864"),
        (lambda: check_mask(np.ones((2, 2, 2), dtype=bool)), "mask must be 2D, got 3 dimension(s)"),
        (lambda: check_labelmap(np.zeros(3, dtype=int)), "label map must be 2D, got 1 dimension(s)"),
        (lambda: check_labelmap(np.zeros((2, 2))), "label map must have an integer dtype, got float64"),
        (lambda: check_labelmap(np.array([[0, -1]])), "label map contains negative labels"),
        (lambda: check_path([]), "path must contain at least one voxel"),
        (lambda: check_path([(0, 0), (1, 0), (0, 0)]), "path repeats a voxel"),
        (lambda: check_exponent("abc"), "exponent must be a real number, got 'abc'"),
        (lambda: check_exponent(True), "exponent must be a real number, got True"),
        (lambda: check_exponent("6"), "exponent must be a real number, got '6'"),
        (lambda: check_exponent(b"6"), "exponent must be a real number, got b'6'"),
    ], ids=["dims_zero", "dims_over_cap", "mask_3d", "labels_1d", "labels_float", "labels_negative",
            "path_empty", "path_repeat", "exponent_text", "exponent_bool", "exponent_digits", "exponent_bytes"])
    def test_message(self, call, message):
        with pytest.raises(ValidationError) as exc:
            call()
        assert str(exc.value) == message
