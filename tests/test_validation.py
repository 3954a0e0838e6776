import numpy as np
import pytest

from shapesplit import ValidationError, fast_march
from shapesplit.validation import check_coord, check_dims, check_path


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
