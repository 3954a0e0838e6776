"""The pipeline: a region's centerline, then its equal-area parts.

The centerline is found in four steps: compute the distance map, grow a
unit-potential wave from the deepest voxel to find one end of the region,
grow a second wave from that end with the potential shaped so that deep
voxels are cheap to cross (the wave runs fastest along the region's middle),
and finally walk down the second wave's arrival times from its farthest
voxel. The walk traces the minimal path between the two ends, hugging the
deep interior. A split into k parts then plans cuts along the path, applies
them and balances the part areas (``subdivision``). ``_run`` composes the
stages once; ``extract_centerline``, ``subdivide_equal`` and the estimators
are views of its record. Both waves march on one voxel graph of the region
(``eikonal.VoxelGraph``), so their potentials, arrival times and ends are
arrays and argmaxes of the region's n voxels. The graph's breadth-first
layers from the deepest voxel tell whether the region is one piece (only
a region in pieces is labeled, to name how many), and their far end
forecasts the first wave's: both waves march in the same rounds
(``eikonal.double_sweep``), the second from the forecast, restarted from
the first wave's true far end when that lies elsewhere, so the fields are
those of two marches one after the other.

Every stage runs on the region's bounding box, cropped from the grid once,
so a small region on a large canvas costs what the region costs. This is
exact: off the box is background, as off the grid is, and row-major order
on the box is the grid's, so every tie breaks alike. The record keeps the
grid's shape and the box, and its grid views place on the grid only what a
caller returns: fields and labels filled around the box, voxels shifted by
its corner. A descent stall is named on the grid as well.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .distance import euclidean_distance_map
from .eikonal import ArrivalField, VoxelGraph, descend, double_sweep
from .exceptions import AlgorithmError, ValidationError
from .grid import _box, _label_runs
from .subdivision import Cut, _plan_cuts, _subdivide, balance_areas
from .validation import check_exponent, check_mask, check_positive_int

# Exponent applied to the depth ratio when shaping the second wave's
# potential. Higher values pull the path harder toward the deepest voxels.
DEFAULT_EXPONENT = 6.0


class _Record(NamedTuple):
    shape: tuple[int, int]  # the grid's
    box: tuple[slice, slice]  # the region's box on the grid, which every field below covers
    distance_map: np.ndarray
    first_wave: ArrivalField
    second_wave: ArrivalField
    path: list[tuple[int, int]]
    plan: list[Cut] | None  # the cut plan and label map, when a k was given
    labels: np.ndarray | None

    def place(self, values: np.ndarray, fill) -> np.ndarray:
        """A field on the box as a grid field, ``fill`` off the box."""
        out = np.full(self.shape, fill, dtype=values.dtype)
        out[self.box] = values
        return out

    def shift(self, voxel) -> tuple[int, int]:
        """A voxel ``(x, y)`` of the box in grid coordinates."""
        return voxel[0] + self.box[1].start, voxel[1] + self.box[0].start

    def wave(self, field: ArrivalField) -> ArrivalField:
        """A wave of the record on the grid."""
        return ArrivalField(self.place(field.values, np.inf), self.shift(field.source))

    def grid_path(self) -> list[tuple[int, int]]:
        return [self.shift(voxel) for voxel in self.path]

    def grid_plan(self) -> list[Cut]:
        return [cut._replace(anchor=self.shift(cut.anchor)) for cut in self.plan]


def _run(m: np.ndarray, exponent, k: int | None = None, balance=True) -> _Record:
    """Every stage on the box of a checked nonempty mask, and k; checks exponent, ``balance``, connectivity."""
    exponent = check_exponent(exponent)
    if not isinstance(balance, (bool, np.bool_)):
        raise ValidationError(f"balance must be True or False, got {balance!r}")
    shape, box = m.shape, _box(m)
    m = m[box]
    dist = euclidean_distance_map(m)

    # Both waves march on one voxel graph of the region, with the potentials
    # and arrival times as its n values in row-major order; argmax breaks
    # ties row-major, as on the grid. The deepest voxel seeds the first wave.
    # Its breadth-first layers reach every voxel iff the region is one
    # 4-piece, and their far end forecasts the first wave's, end A.
    graph = VoxelGraph(m)
    depth = dist[m]
    deepest = int(np.argmax(depth))
    layers = graph.layers(deepest)
    if (layers < 0).any():
        raise ValidationError(f"region not connected ({_label_runs(m, 4)[1]} components)")
    forecast = int(np.argmax(layers))
    del layers

    # Second wave: potential (d_max / d)^exponent is 1 at the deepest voxels
    # and large near the boundary, so arrival cost accumulates slowly along
    # the middle of the region. The march squares it (``march``), so 2 v**2
    # must be finite too, or reached voxels could keep +inf; then every
    # arrival is finite, as the region is one piece. Both waves march in the
    # same rounds, the second from the forecast, and again from end A only
    # if the first wave ends elsewhere.
    d_max = float(depth[deepest])
    with np.errstate(over="ignore"):
        potential = (d_max / depth) ** exponent
        top = potential.max()
        squares = np.isfinite(2.0 * top * top)
    if not squares:
        raise ValidationError(
            f"exponent {exponent:g} is too large for this region: the second wave's "
            f"potential ({d_max:g} / d) ** {exponent:g} overflows"
        )
    del depth
    u1, u2 = double_sweep(graph, potential, deepest, forecast)
    del potential  # free it before the stages below allocate
    end_a = int(np.argmax(u1))
    end_b = int(np.argmax(u2))
    first = ArrivalField(graph.spread(u1), graph.voxel(deepest))
    second = ArrivalField(graph.spread(u2), graph.voxel(end_a))

    # The pipeline built this field itself, so a stall is its own failure
    # (large exponents leave too little precision between arrival times).
    # The walk ran on the box; its stall voxel is named on the grid.
    try:
        path = descend(second, graph.voxel(end_b))
    except ValidationError as err:
        x, y = err.voxel
        where = str(err).replace(f"({x}, {y})", f"({x + box[1].start}, {y + box[0].start})", 1)
        raise AlgorithmError(f"centerline descent failed at exponent {exponent:g}: {where}") from err

    plan = labels = None
    if k is not None:
        plan = _plan_cuts(path, k)
        labels = _subdivide(m, path, [cut.index for cut in plan])
        if balance:
            labels = balance_areas(labels, k, second)
    return _Record(shape, box, dist, first, second, path, plan, labels)


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
    record = _run(check_mask(mask, require_nonempty=True), exponent)
    return record.grid_path(), record.wave(record.second_wave)


def subdivide_equal(mask, k: int, exponent: float = DEFAULT_EXPONENT, balance: bool = True) -> np.ndarray:
    """Split a connected region into ``k`` equal-area parts along its shape.

    Composition of centerline extraction, cut planning, cut labeling, and
    area balancing. Returns an int32 label map with labels 1..k (0 for
    background and, when the region's area is not divisible by k, the few
    trimmed voxels).
    """
    m = check_mask(mask, require_nonempty=True)
    record = _run(m, exponent, check_positive_int(k, "k"), balance)
    return record.place(record.labels, 0)
