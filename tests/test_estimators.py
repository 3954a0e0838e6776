import numpy as np
import pytest

from shapesplit import CenterlineExtractor, EqualAreaSubdivider, ValidationError, subdivide_equal


def rect_mask():
    return np.ones((16, 64), dtype=bool)


class TestParamHandling:
    def test_get_params(self):
        est = EqualAreaSubdivider(n_regions=5, exponent=4.0, balance=False)
        assert est.get_params() == {"n_regions": 5, "exponent": 4.0, "balance": False}

    def test_set_params_roundtrip(self):
        est = EqualAreaSubdivider()
        est.set_params(n_regions=7, exponent=2.0)
        assert est.n_regions == 7
        assert est.exponent == 2.0

    def test_set_invalid_param(self):
        with pytest.raises(ValueError, match="invalid parameter"):
            CenterlineExtractor().set_params(bogus=1)

    def test_repr_mentions_params(self):
        text = repr(EqualAreaSubdivider(n_regions=3))
        assert "EqualAreaSubdivider" in text
        assert "n_regions=3" in text

    def test_clone_by_params(self):
        est = EqualAreaSubdivider(n_regions=4)
        clone = EqualAreaSubdivider(**est.get_params())
        a = est.fit_predict(rect_mask())
        b = clone.fit_predict(rect_mask())
        assert np.array_equal(a, b)


class TestEqualAreaSubdivider:
    def test_fit_attributes(self):
        est = EqualAreaSubdivider(n_regions=4).fit(rect_mask())
        assert est.labels_.shape == (16, 64)
        assert est.region_areas_.tolist() == [256, 256, 256, 256]
        assert est.n_trimmed_ == 0
        assert est.centerline_.ndim == 2 and est.centerline_.shape[1] == 2
        assert len(est.cut_plan_) == 3
        assert est.distance_map_.shape == (16, 64)
        assert est.first_arrival_.shape == (16, 64)
        assert est.second_arrival_.shape == (16, 64)

    def test_fit_predict_matches_labels(self):
        est = EqualAreaSubdivider(n_regions=4)
        labels = est.fit_predict(rect_mask())
        assert np.array_equal(labels, est.labels_)

    def test_trim_accounting(self):
        mask = np.ones((5, 13), dtype=bool)  # 65 voxels, k=2 -> 1 trimmed
        est = EqualAreaSubdivider(n_regions=2).fit(mask)
        assert est.region_areas_.tolist() == [32, 32]
        assert est.n_trimmed_ == 1

    def test_no_balance(self):
        est = EqualAreaSubdivider(n_regions=4, balance=False).fit(rect_mask())
        assert est.region_areas_.sum() == 1024
        assert est.n_trimmed_ == 0

    def test_invalid_n_regions(self):
        with pytest.raises(ValidationError):
            EqualAreaSubdivider(n_regions=0).fit(rect_mask())


class TestFacadeParity:
    """``subdivide_equal`` and ``EqualAreaSubdivider.fit`` reject bad input alike."""

    @pytest.mark.parametrize("mask, k, exponent, balance", [
        (np.zeros((16, 64), dtype=bool), 0, 6.0, True),
        (np.ones((2, 16, 64), dtype=bool), 0, 6.0, True),
        (rect_mask(), 0, 6.0, True),
        (rect_mask(), True, 6.0, True),
        (rect_mask(), 2.0, 6.0, True),
        (rect_mask(), 4, "abc", True),
        (rect_mask(), 4, True, True),
        (rect_mask(), 4, "6", True),
        (rect_mask(), 4, 6.0, "no"),
    ], ids=["empty_mask", "3d_mask", "k_zero", "k_bool", "k_float", "exponent_text", "exponent_bool",
            "exponent_digits", "balance_text"])
    def test_same_error(self, mask, k, exponent, balance):
        with pytest.raises(Exception) as by_function:
            subdivide_equal(mask, k, exponent, balance)
        with pytest.raises(Exception) as by_estimator:
            EqualAreaSubdivider(n_regions=k, exponent=exponent, balance=balance).fit(mask)
        assert type(by_function.value) is type(by_estimator.value) is ValidationError
        assert str(by_function.value).removeprefix("k ") == str(by_estimator.value).removeprefix("n_regions ")


class TestCenterlineExtractor:
    def test_fit_and_transform_agree(self):
        est = CenterlineExtractor()
        fitted = est.fit(rect_mask())
        assert np.array_equal(fitted.path_, est.transform(rect_mask()))

    def test_fit_transform(self):
        est = CenterlineExtractor()
        path = est.fit_transform(rect_mask())
        assert np.array_equal(path, est.path_)
        assert est.endpoints_ == (tuple(path[0]), tuple(path[-1]))

    def test_attribute_shapes(self):
        est = CenterlineExtractor().fit(rect_mask())
        assert est.distance_map_.shape == (16, 64)
        assert est.first_arrival_.shape == (16, 64)
        assert est.second_arrival_.shape == (16, 64)
