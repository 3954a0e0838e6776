"""Scikit-learn style estimators wrapping the subdivision pipeline.

Both estimators are stateless transforms over a single mask: ``fit``
runs the pipeline and exposes every intermediate as a fitted attribute, so
they drop into sklearn pipelines and grid searches via ``get_params`` /
``set_params`` without pulling in a scikit-learn dependency.
"""

from __future__ import annotations

import inspect

import numpy as np

from .centerline import DEFAULT_EXPONENT, _extract_full
from .subdivision import _cut_and_balance
from .validation import check_mask, check_positive_int


class BaseEstimator:
    """Minimal parameter handling compatible with the sklearn estimator API."""

    @classmethod
    def _param_names(cls) -> list[str]:
        sig = inspect.signature(cls.__init__)
        return sorted(name for name in sig.parameters if name != "self")

    def get_params(self, deep: bool = True) -> dict:
        return {name: getattr(self, name) for name in self._param_names()}

    def set_params(self, **params):
        valid = set(self._param_names())
        for name, value in params.items():
            if name not in valid:
                raise ValueError(
                    f"invalid parameter {name!r} for {type(self).__name__}; "
                    f"valid parameters are {sorted(valid)}"
                )
            setattr(self, name, value)
        return self

    def __repr__(self) -> str:
        args = ", ".join(f"{k}={v!r}" for k, v in self.get_params().items())
        return f"{type(self).__name__}({args})"


class CenterlineExtractor(BaseEstimator):
    """Extract the centerline path of a single 4-connected region.

    Parameters
    ----------
    exponent : float, default 6.0
        Power applied to the depth ratio when shaping the second wave's
        potential; higher values pull the path harder toward the deepest
        voxels.

    Attributes
    ----------
    path_ : (L, 2) int array of (x, y) centerline voxels, end to end.
    endpoints_ : pair of (x, y) tuples, the path's two ends.
    distance_map_ : (H, W) float array, distance to the nearest background.
    first_arrival_, second_arrival_ : (H, W) float arrays, the two wave
        arrival-time fields (+inf outside the region).
    """

    def __init__(self, exponent: float = DEFAULT_EXPONENT):
        self.exponent = exponent

    def fit(self, X, y=None):
        result = _extract_full(check_mask(X), self.exponent)
        self.path_ = np.asarray(result.path, dtype=np.int64)
        self.endpoints_ = (result.path[0], result.path[-1])
        self.distance_map_ = result.distance_map
        self.first_arrival_ = result.first_wave.values
        self.second_arrival_ = result.second_wave.values
        return self

    def transform(self, X) -> np.ndarray:
        """Centerline of ``X`` as an (L, 2) int array; stateless."""
        result = _extract_full(check_mask(X), self.exponent)
        return np.asarray(result.path, dtype=np.int64)

    def fit_transform(self, X, y=None) -> np.ndarray:
        self.fit(X)
        return self.path_


class EqualAreaSubdivider(BaseEstimator):
    """Partition a single 4-connected region into equal-area parts.

    Parameters
    ----------
    n_regions : int, default 16
        Number of parts.
    exponent : float, default 6.0
        Depth weighting passed to the centerline extraction.
    balance : bool, default True
        Equalize areas after cutting. When False the raw cut labeling is
        returned, whose areas are only approximately equal.

    Attributes
    ----------
    labels_ : (H, W) int32 array with labels 1..n_regions (0 = background
        and trimmed voxels).
    region_areas_ : (n_regions,) int array of voxels per label.
    n_trimmed_ : int, voxels relabeled to background to even the division.
    centerline_ : (L, 2) int array of (x, y) path voxels.
    cut_plan_ : list of planned cuts (path index, anchor, normal).
    distance_map_, first_arrival_, second_arrival_ : per-voxel fields from
        the centerline stage.
    """

    def __init__(self, n_regions: int = 16, exponent: float = DEFAULT_EXPONENT, balance: bool = True):
        self.n_regions = n_regions
        self.exponent = exponent
        self.balance = balance

    def fit(self, X, y=None):
        mask = check_mask(X, require_nonempty=True)
        k = check_positive_int(self.n_regions, "n_regions")
        result = _extract_full(mask, self.exponent)
        plan, labels = _cut_and_balance(mask, result, k, self.balance)

        self.labels_ = labels
        self.centerline_ = np.asarray(result.path, dtype=np.int64)
        self.cut_plan_ = plan
        self.distance_map_ = result.distance_map
        self.first_arrival_ = result.first_wave.values
        self.second_arrival_ = result.second_wave.values
        areas = np.bincount(labels.ravel(), minlength=k + 1)
        self.region_areas_ = areas[1 : k + 1].copy()
        self.n_trimmed_ = int(mask.sum()) - int(areas[1:].sum())
        return self

    def fit_predict(self, X, y=None) -> np.ndarray:
        """Fit and return the label map."""
        return self.fit(X).labels_
