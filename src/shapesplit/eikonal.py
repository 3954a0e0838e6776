"""Front propagation on a masked grid and descent through arrival times.

``march`` solves the discrete equation |grad U| = V on the true voxels of
a domain mask with the Fast Iterative Method (Jeong & Whitaker, SIAM J.
Sci. Comput. 30(5), 2008). Starting from +inf everywhere but the source,
it keeps an active list of the voxels whose neighbours just improved and
recomputes their standard upwind quadratic from the axis-wise neighbour
minima as whole-array operations, writing every value that improves. The
update is monotone in its inputs, so the values only decrease; when a
round improves nothing, every voxel satisfies its update and the field is
the discrete fixed point that Sethian's fast marching also computes (up to
the last bit, where the two-sided root does not round monotonically).
Small potential values mean fast propagation.

The rounds run on the domain's voxel graph, not on the grid.
``VoxelGraph`` numbers the domain's voxels in row-major order and
tabulates each one's W, E, N and S neighbour ids; id n, one past the last
voxel, is a sentinel that stands for every neighbour off the domain. The
sentinel's arrival time is +inf, so its update is NaN, never an
improvement, and no round needs to filter it out. ``march`` takes the
potential and gives the arrival times as compact arrays of the n values in
id order. The graph is public and shared: the pipeline builds one per
region and marches both of its waves on it, and ``fast_march`` is the
march on a grid, which builds the graph of the domain's bounding box
(row-major ranks on the box are the grid's, so the table is the same) and
places the arrival times on the grid. Each update takes the same operands
through the same operations that a solver on the grid itself would, and
reads only the previous round's values, so neither the numbering nor the
order of the active list moves a bit of the result.

``double_sweep`` marches both waves of the pipeline's double sweep in the
same rounds: a unit wave from a source, and a second wave from the unit
wave's far end. The second cannot wait for that end, because a round costs
about as much with a few active voxels as with a few dozen, so it starts
at a forecast, on a second copy of the graph that shares no edge with the
first, and starts again, in the same loop of rounds, only if the first
wave settles with its far end elsewhere. A call then pays for about the
rounds of the longer wave, not for both, and both waves' values are those
of two marches, bit for bit. ``VoxelGraph.layers`` gives the forecast: the
breadth-first layers, whose far end is usually the unit wave's, and whose
depth bounds the rounds in which the unit wave cannot yet have settled.

A round allocates only what its active list needs. It de-duplicates the
neighbour list by stamping each id with its position in the list, read
from one order buffer ``0, 1, 2, ...`` that grows on demand to twice the
longest list so far; a fixed buffer of all 4n positions would add half
again to the march's peak memory.

``descend`` walks from a voxel to the source by repeatedly stepping to the
8-neighbor with the smallest arrival time, which recovers the discrete
minimal path.
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .grid import _box
from .validation import _as_int, check_coord, check_mask, check_scalar_field

_INF = float("inf")


@dataclass(frozen=True)
class ArrivalField:
    """Arrival times of a front grown from ``source``.

    ``values`` is a float64 array holding the arrival time per voxel, +inf
    on voxels outside the solve domain; ``values[source] == 0``.
    """

    values: np.ndarray
    source: tuple[int, int]


@dataclass(frozen=True)
class VoxelGraph:
    """The 4-neighbour graph of the true voxels of a 2D boolean ``domain``, on which the waves march.

    The domain's n voxels are numbered 0..n-1 in row-major order.
    ``neighbors`` is the ``(4, n + 1)`` table of each voxel's W, E, N and S
    neighbour ids. Id ``n`` is the sentinel: it stands for every neighbour
    off the domain, and its own neighbours are itself. The graph builds the
    table from its domain and keeps both read-only, so a march never reads a
    table that does not fit its domain.
    """

    domain: np.ndarray
    neighbors: np.ndarray = dataclasses.field(init=False)

    def __post_init__(self):
        dom = check_mask(self.domain).copy()
        h, w = dom.shape
        n = int(np.count_nonzero(dom))
        ids = np.full((h + 2, w + 2), n, dtype=np.intp)
        ids[1:-1, 1:-1][dom] = np.arange(n)
        nbr = np.empty((4, n + 1), dtype=np.intp)
        nbr[:, n] = n
        for row, (dy, dx) in enumerate(((1, 0), (1, 2), (0, 1), (2, 1))):
            nbr[row, :n] = ids[dy : dy + h, dx : dx + w][dom]
        dom.flags.writeable = nbr.flags.writeable = False
        object.__setattr__(self, "domain", dom)
        object.__setattr__(self, "neighbors", nbr)

    @property
    def size(self) -> int:
        """The number n of the domain's voxels."""
        return self.neighbors.shape[1] - 1

    def voxel(self, index: int) -> tuple[int, int]:
        """The ``(x, y)`` of the voxel with id ``index``."""
        index = self._id(index)
        before = np.count_nonzero(self.domain, axis=1).cumsum()  # voxels up to the end of each row
        y = int(np.searchsorted(before, index, side="right"))
        x = np.flatnonzero(self.domain[y])[index - (int(before[y - 1]) if y else 0)]
        return int(x), y

    def _id(self, index) -> int:
        """``index`` as a plain int, checked to be a voxel id."""
        try:
            out = _as_int(index)
        except (TypeError, ValueError, OverflowError):
            raise ValidationError(f"voxel id must be an integer, got {index!r}") from None
        if not 0 <= out < self.size:
            raise ValidationError(f"{out} is not a voxel id of a graph of {self.size} voxels")
        return out

    def layers(self, source: int) -> np.ndarray:
        """Breadth-first layers from voxel ``source``, in id order: each voxel's fewest 4-steps from it, -1 where unreached."""
        src = self._id(source)
        n, nbr = self.size, self.neighbors
        out = np.full(n + 1, -1, dtype=np.intp)
        out[src] = out[n] = 0  # the sentinel counts as reached, so no layer takes it
        stamp = np.empty(n + 1, dtype=np.intp)
        front, layer = np.array([src]), 0
        while front.size:
            layer += 1
            near = nbr.take(front, axis=1).ravel()
            near = near[out.take(near) < 0]
            # De-duplicate as ``march`` does: keep each voxel where its last write landed.
            rank = np.arange(near.size)
            stamp[near] = rank
            front = near[stamp.take(near) == rank]
            out[front] = layer
        return out[:-1]

    def spread(self, values: np.ndarray) -> np.ndarray:
        """Values in id order as a field on the domain's grid, +inf off the domain."""
        out = np.full(self.domain.shape, _INF)
        out[self.domain] = values
        return out


def _potential(graph: VoxelGraph, potential) -> np.ndarray:
    """``potential`` as float64, checked to hold the graph's n values, each positive and finite."""
    n = graph.size
    try:
        v = np.asarray(potential, dtype=np.float64)
    except (TypeError, ValueError):
        raise ValidationError("potential must be an array of real numbers") from None
    if v.shape != (n,):
        raise ValidationError(f"potential must hold the graph's {n} values, got shape {v.shape}")
    if not np.isfinite(v).all() or (v <= 0).any():
        raise ValidationError("potential must be positive and finite on the domain")
    return v


def _rounds(nbr: np.ndarray, pot: np.ndarray, u: np.ndarray, changed: np.ndarray, after=None) -> None:
    """The Fast Iterative Method's rounds on ``u`` in place, from the ids in ``changed``, until one improves nothing.

    ``nbr`` is a neighbour table whose sentinels are their own neighbours
    and hold +inf in ``u``; ``pot`` holds a potential per voxel id, and an
    id past its end reads its last value. ``after``, if given, sees
    the ids each round improved and returns the ids the next round starts
    from.
    """
    stamp = np.empty(u.size, dtype=np.intp)
    order = np.arange(0)
    with np.errstate(invalid="ignore", over="ignore"):
        pot2 = 2.0 * pot * pot
        while changed.size:
            near = nbr.take(changed, axis=1).ravel()
            # De-duplicate: keep each voxel where its last write landed.
            if near.size > order.size:
                order = np.arange(2 * near.size)
            rank = order[: near.size]
            stamp[near] = rank
            active = near[stamp.take(near) == rank]
            q = u.take(nbr.take(active, axis=1))
            a = np.minimum(q[0], q[1])
            b = np.minimum(q[2], q[3])
            gap = np.abs(a - b)
            v = pot.take(active, mode="clip")
            v2 = pot2.take(active, mode="clip")
            # Largest root of (U-a)+^2 + (U-b)+^2 = v^2, or the one-sided value
            # min(a, b) + v when the roots are invalid (also for an unreached axis).
            # The source never improves (every update is positive), nor does
            # a sentinel (its update is NaN).
            root = 0.5 * (a + b + np.sqrt(v2 - gap * gap))
            new = np.where(gap >= v, np.minimum(a, b) + v, root)
            better = new < u.take(active)
            changed = active[better]
            u[changed] = new[better]
            if after is not None:
                changed = after(changed)


def march(graph: VoxelGraph, potential, source: int) -> np.ndarray:
    """Arrival times, in id order, of a front grown from voxel ``source`` over ``graph``.

    ``potential`` holds the graph's n values in id order, each positive and
    finite: the cost per unit length of front travel (small = fast). Each
    round recomputes, with array operations, the upwind update of every
    voxel next to one that improved in the round before, and writes the
    values that improve. Updates are computed from the previous round's
    values only, so the result does not depend on the order of the active
    list and is bit-identical across runs. A voxel the front cannot reach
    keeps +inf, and so can one whose potential is too large to square
    (above about 1e154): where both of its axes are reached, its two-sided
    root overflows to +inf, which never improves.
    """
    v = _potential(graph, potential)
    src = graph._id(source)
    # The sentinel reads the last voxel's potential: its update is NaN
    # whatever its potential, so it never improves. No output grid is held
    # during the march, where the memory peaks.
    u = np.full(graph.size + 1, _INF)
    u[src] = 0.0
    _rounds(graph.neighbors, v, u, np.array([src]))
    return u[:-1]


def double_sweep(graph: VoxelGraph, potential, source: int, forecast: int):
    """Both waves of a double sweep over ``graph``, marched in the same rounds.

    Returns ``(u1, u2)``, bit for bit ``u1 = march(graph, ones, source)``
    and ``u2 = march(graph, potential, end)``, where ``end`` is the voxel
    of the largest finite value of ``u1`` (lowest id on ties), as
    ``argmax_field`` takes it on the grid. ``forecast`` is a guess of
    ``end``: the second wave starts there at once, in the rounds of the
    first.

    The rounds are ``march``'s, on a graph of two copies of ``graph``: ids
    0..n-1 for the second wave and n+1..2n for the first, each copy
    followed by its own sentinel, so no edge joins the copies. No update
    reads the other copy, so each wave takes the values that it would take
    alone. The first wave's ids lie past the potential's n values and the
    1 appended to them, which is what a clipped read gives them, so its
    unit potential takes no array of its own. In the first round in
    which the first wave improves nothing, its values are final; if
    ``end`` is then not ``forecast``, the second copy is reset and starts
    again from ``end``, in the same loop, which is exact for the same
    reason. The first wave improves a voxel in every round until it
    reaches the forecast (the wave reaches breadth-first layer L in round
    L), so the check waits for that; for the far end of the layers from
    ``source`` it waits for the deepest layer.
    """
    v = _potential(graph, potential)
    src, guess = graph._id(source), graph._id(forecast)
    n = graph.size
    # Filled in place, so that no temporary of the table is held.
    nbr = np.empty((4, 2 * n + 2), dtype=np.intp)
    nbr[:, : n + 1] = graph.neighbors
    np.add(graph.neighbors, n + 1, out=nbr[:, n + 1 :])
    pot = np.append(v, 1.0)
    u = np.full(2 * n + 2, _INF)
    u[guess] = u[n + 1 + src] = 0.0
    first = u[n + 1 : -1]
    settled = False

    def restart(changed):
        nonlocal settled
        if settled or (changed.size and (first[guess] == _INF or (changed > n).any())):
            return changed
        settled = True
        end = int(np.argmax(first))
        if first[end] == _INF:  # the first wave did not cover the graph
            end = int(np.argmax(np.where(first < _INF, first, -1.0)))
        if end == guess:
            return changed
        u[:n] = _INF
        u[end] = 0.0
        return np.array([end])

    _rounds(nbr, pot, u, np.array([guess, n + 1 + src]), restart)
    return first, u[:n]


def fast_march(potential, domain, source) -> ArrivalField:
    """Propagate a front from ``source`` across the true voxels of ``domain``.

    Parameters
    ----------
    potential : 2D array
        Positive, finite values on the domain; the accumulated cost per unit
        length of front travel (small = fast).
    domain : 2D boolean array
        Solve domain. Voxels outside it keep arrival time +inf.
    source : (x, y)
        Seed voxel; must lie in the domain.

    The front is ``march``'s, on the ``VoxelGraph`` of the domain's
    bounding box (row-major ranks on the box are the grid's, so the graph is
    the same), and the arrival times are placed on the grid.
    """
    dom2d = check_mask(domain)
    h, w = dom2d.shape
    pot2d = check_scalar_field(potential, shape=(h, w))
    sx, sy = check_coord(source, (h, w))
    if not dom2d[sy, sx]:
        raise ValidationError(f"source ({sx}, {sy}) is not inside the domain")
    box = _box(dom2d)
    graph = VoxelGraph(dom2d[box])
    src = int(np.count_nonzero(dom2d[:sy])) + int(np.count_nonzero(dom2d[sy, :sx]))
    u = march(graph, pot2d[box][graph.domain], src)
    values = np.full((h, w), _INF)
    values[box][graph.domain] = u
    return ArrivalField(values=values, source=(sx, sy))


def argmax_field(field: ArrivalField) -> tuple[int, int]:
    """Coordinate of the largest finite arrival time, row-major tie-break."""
    u = check_scalar_field(field.values)
    finite = np.isfinite(u)
    if not finite.any():
        raise ValidationError("arrival field has no finite values")
    idx = int(np.argmax(np.where(finite, u, -1.0)))
    h, w = u.shape
    return idx % w, idx // w


# Fixed neighbor order: N, S, W, E, then NW, NE, SW, SE. ``descend`` breaks
# ties between neighbors in this order.
NEIGHBOR_STEPS_8 = ((0, -1), (0, 1), (-1, 0), (1, 0), (-1, -1), (1, -1), (-1, 1), (1, 1))


def descend(field: ArrivalField, start) -> list[tuple[int, int]]:
    """Walk from ``start`` down the arrival times to the source.

    Each step moves to the 8-neighbor with the strictly smallest arrival
    time (ties by the fixed neighbor order), so the values decrease
    strictly along the path and the walk terminates at the source. The
    returned path runs start -> source.
    """
    u = check_scalar_field(field.values)
    h, w = u.shape
    x, y = check_coord(start, (h, w))
    if not math.isfinite(u[y, x]):
        raise ValidationError(f"start ({x}, {y}) has no finite arrival time")

    # The walk visits only finite voxels. Their bounding box, padded with
    # +inf, which is never smaller, is read through a memoryview: a neighbour
    # is a fixed flat offset and needs no bounds check, and a field on a
    # large canvas is not copied whole. Padded voxel (0, 0) is grid voxel
    # (x0, y0).
    rows, cols = _box(np.isfinite(u))
    x0, y0 = cols.start - 1, rows.start - 1
    pitch = cols.stop - x0 + 1
    flat = memoryview(np.pad(u[rows, cols], 1, constant_values=_INF).reshape(-1))
    steps = [dy * pitch + dx for dx, dy in NEIGHBOR_STEPS_8]
    i = (y - y0) * pitch + x - x0
    visited = [i]
    best_val = flat[i]  # a Python float, cheaper to compare than a numpy scalar
    while best_val != 0.0:  # best_val is always the arrival at voxel i
        best = i
        for step in steps:
            if flat[i + step] < best_val:
                best_val = flat[i + step]
                best = i + step
        if best == i:
            x, y = i % pitch + x0, i // pitch + y0
            err = ValidationError(f"stuck at non-source local minimum ({x}, {y}); arrival field is not descendable")
            err.voxel = (x, y)  # for a caller that walked a crop of its grid
            raise err
        i = best
        visited.append(i)
    return [(j % pitch + x0, j // pitch + y0) for j in visited]
