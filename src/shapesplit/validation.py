"""Input validation helpers shared across the library.

All public operations funnel their array arguments through these checks so
that error behavior is uniform and the numerical code can assume clean
inputs. Masks are 2D boolean arrays indexed ``[y, x]``; coordinates are
``(x, y)`` pairs with ``x`` the column and ``y`` the row.
"""

from __future__ import annotations

import math

import numpy as np

from .exceptions import ValidationError

# Upper bound on accepted grid size. Guards against absurd allocations from
# corrupt headers, not a tuning knob.
MAX_VOXELS = 1 << 26
# Label maps are int32 internally; larger labels would wrap.
_INT32_MAX = int(np.iinfo(np.int32).max)


def _as_int(value) -> int:
    """``value`` as a plain int; ``ValueError`` for bools and non-integral numbers."""
    out = int(value)
    if isinstance(value, (bool, np.bool_)) or out != value:
        raise ValueError(value)
    return out


def check_dims(dims) -> tuple[int, int]:
    """Validate a ``(width, height)`` pair and return it as plain ints."""
    try:
        width, height = (_as_int(v) for v in dims)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"dims must be a (width, height) pair of integers, got {dims!r}") from None
    if width < 1 or height < 1:
        raise ValidationError(f"grid dimensions must be >= 1, got {width}x{height}")
    if width * height > MAX_VOXELS:
        raise ValidationError(
            f"grid of {width}x{height} = {width * height} voxels exceeds the cap of {MAX_VOXELS}"
        )
    return width, height


def check_mask(mask, require_nonempty: bool = False) -> np.ndarray:
    """Coerce ``mask`` to a 2D boolean array and enforce grid invariants.

    Nonzero entries of numeric input count as true. Boolean input is
    returned without copying.
    """
    arr = np.asarray(mask)
    if arr.ndim != 2:
        raise ValidationError(f"mask must be 2D, got {arr.ndim} dimension(s)")
    h, w = arr.shape
    check_dims((w, h))
    if arr.dtype != np.bool_:
        arr = arr != 0
    if require_nonempty and not arr.any():
        raise ValidationError("empty region")
    return arr


def check_scalar_field(field, shape=None) -> np.ndarray:
    """Coerce to a 2D float64 field of non-negative values; +inf allowed."""
    try:
        arr = np.asarray(field, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError("field must be an array of real numbers") from None
    if arr.ndim != 2:
        raise ValidationError(f"field must be 2D, got {arr.ndim} dimension(s)")
    if shape is not None and arr.shape != tuple(shape):
        raise ValidationError(f"field shape {arr.shape} does not match expected {tuple(shape)}")
    if np.isnan(arr).any():
        raise ValidationError("field contains NaN")
    if (arr < 0).any():
        raise ValidationError("field contains negative values")
    return arr


def check_labelmap(labels) -> np.ndarray:
    """Coerce to a 2D array of non-negative integer labels (0 = background)."""
    arr = np.asarray(labels)
    if arr.ndim != 2:
        raise ValidationError(f"label map must be 2D, got {arr.ndim} dimension(s)")
    if arr.dtype.kind not in "iu":
        raise ValidationError(f"label map must have an integer dtype, got {arr.dtype}")
    if arr.size and int(arr.min()) < 0:
        raise ValidationError("label map contains negative labels")
    if arr.size and (top := int(arr.max())) > _INT32_MAX:
        raise ValidationError(f"label {top} exceeds the largest supported label {_INT32_MAX}")
    return arr.astype(np.int32, copy=False)


def check_coord(coord, shape) -> tuple[int, int]:
    """Validate an ``(x, y)`` coordinate against an array ``shape = (h, w)``."""
    try:
        x, y = (_as_int(v) for v in coord)
    except (TypeError, ValueError, OverflowError):
        raise ValidationError(f"coordinate must be an (x, y) pair of integers, got {coord!r}") from None
    h, w = shape
    if not (0 <= x < w and 0 <= y < h):
        raise ValidationError(f"coordinate ({x}, {y}) out of bounds for {w}x{h} grid")
    return x, y


def check_path(path) -> list[tuple[int, int]]:
    """Validate an ordered voxel path: 8-adjacent consecutive steps, no repeats."""
    try:
        pts = [(_as_int(x), _as_int(y)) for x, y in path]
    except (TypeError, ValueError, OverflowError):
        raise ValidationError("path must be a sequence of (x, y) integer pairs") from None
    if not pts:
        raise ValidationError("path must contain at least one voxel")
    if len(set(pts)) != len(pts):
        raise ValidationError("path repeats a voxel")
    for (x0, y0), (x1, y1) in zip(pts, pts[1:]):
        if max(abs(x1 - x0), abs(y1 - y0)) != 1:
            raise ValidationError(
                f"consecutive path voxels ({x0}, {y0}) and ({x1}, {y1}) are not 8-adjacent"
            )
    return pts


def check_connectivity(connectivity) -> int:
    if connectivity not in (4, 8):
        raise ValidationError(f"connectivity must be 4 or 8, got {connectivity!r}")
    return int(connectivity)


def check_positive_int(value, name: str) -> int:
    if not isinstance(value, (int, np.integer)) or isinstance(value, bool) or value < 1:
        raise ValidationError(f"{name} must be a positive integer, got {value!r}")
    return int(value)


def check_exponent(value) -> float:
    try:
        if isinstance(value, (bool, np.bool_, str, bytes)):  # float() would take True and "6"
            raise TypeError(value)
        out = float(value)
    except (TypeError, ValueError):
        raise ValidationError(f"exponent must be a real number, got {value!r}") from None
    if not math.isfinite(out):
        raise ValidationError(f"exponent must be finite, got {out!r}")
    return out
