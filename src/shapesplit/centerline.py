"""Centerline extraction for a connected binary region.

The centerline is found in four steps: compute the distance map, grow a
unit-potential wave from the deepest voxel to find one end of the region,
grow a second wave from that end with the potential shaped so that deep
voxels are cheap to cross (the wave runs fastest along the region's middle),
and finally walk down the second wave's arrival times from its farthest
voxel. The walk traces the minimal path between the two ends, hugging the
deep interior.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .distance import euclidean_distance_map
from .eikonal import ArrivalField, argmax_field, descend, fast_march
from .exceptions import AlgorithmError, ValidationError
from .grid import connected_components
from .validation import check_exponent, check_mask

# Exponent applied to the depth ratio when shaping the second wave's
# potential. Higher values pull the path harder toward the deepest voxels.
DEFAULT_EXPONENT = 6.0


class CenterlineResult(NamedTuple):
    path: list[tuple[int, int]]
    distance_map: np.ndarray
    first_wave: ArrivalField
    second_wave: ArrivalField


def _extract_full(mask, exponent: float = DEFAULT_EXPONENT) -> CenterlineResult:
    """Run the full centerline pipeline, keeping every intermediate."""
    m = check_mask(mask, require_nonempty=True)
    exponent = check_exponent(exponent)
    _, count = connected_components(m, connectivity=4)
    if count != 1:
        raise ValidationError(f"region not connected ({count} components)")

    dist = euclidean_distance_map(m)
    h, w = m.shape

    # Deepest voxel seeds the first wave (row-major tie-break; background
    # is 0 so a plain argmax lands inside the region).
    idx = int(np.argmax(dist))
    seed = (idx % w, idx // w)

    first = fast_march(np.ones((h, w)), m, seed)
    end_a = argmax_field(first)

    # Second wave: potential (d_max / d)^exponent is 1 at the deepest voxels
    # and large near the boundary, so arrival cost accumulates slowly along
    # the middle of the region.
    d_max = float(dist.max())
    potential = np.ones((h, w))
    with np.errstate(over="ignore"):
        potential[m] = (d_max / dist[m]) ** exponent
    if not np.isfinite(potential).all():
        raise ValidationError(
            f"exponent {exponent:g} is too large for this region: the second wave's "
            f"potential ({d_max:g} / d) ** {exponent:g} overflows"
        )
    second = fast_march(potential, m, end_a)
    end_b = argmax_field(second)

    # The pipeline built this field itself, so a stall is its own failure
    # (large exponents leave too little precision between arrival times).
    try:
        path = descend(second, end_b)
    except ValidationError as err:
        raise AlgorithmError(f"centerline descent failed at exponent {exponent:g}: {err}") from err
    return CenterlineResult(path=path, distance_map=dist, first_wave=first, second_wave=second)


def extract_centerline(mask, exponent: float = DEFAULT_EXPONENT):
    """Extract the centerline of a single 4-connected region.

    Returns ``(path, arrival)`` where ``path`` is the ordered list of
    ``(x, y)`` centerline voxels running from one end of the region to the
    other, and ``arrival`` is the second wave's :class:`ArrivalField`
    (needed later when trimming surplus voxels).

    Raises
    ------
    ValidationError
        If the mask is empty, its true voxels form more than one
        4-connected component, or the exponent overflows the potential.
    AlgorithmError
        If the descent stalls on the second wave's arrival times, as it
        can at large exponents.
    """
    result = _extract_full(mask, exponent)
    return result.path, result.second_wave
