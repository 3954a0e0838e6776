"""Front propagation on a masked grid and descent through arrival times.

``fast_march`` solves the discrete equation |grad U| = V on the true voxels
of a domain mask with the Fast Iterative Method (Jeong & Whitaker, SIAM J.
Sci. Comput. 30(5), 2008). Starting from +inf everywhere but the source,
it keeps an active list of the voxels whose neighbours just improved and
recomputes their standard upwind quadratic from the axis-wise neighbour
minima as whole-array operations, writing every value that improves. The
update is monotone in its inputs, so the values only decrease; when a
round improves nothing, every voxel satisfies its update and the field is
the discrete fixed point that Sethian's fast marching also computes (up to
the last bit, where the two-sided root does not round monotonically).
Small potential values mean fast propagation.

The rounds run on the domain's voxel graph, not on the grid. ``_graph``
numbers the domain's voxels in row-major order and tabulates each one's W,
E, N and S neighbour ids; id n, one past the last voxel, is a sentinel that
stands for every neighbour off the domain. The sentinel's arrival time and
potential are +inf, so its update is never an improvement and no round
needs to filter it out. ``_march`` runs on compact arrays of n + 1 values.
The graph is private to ``fast_march``, which builds it on each call from
the bounding box of the domain (row-major ranks on the box are the grid's,
so the table is the same) and spreads the arrival times over the grid at
the end. Each update takes the same operands through the same operations
that a solver on the grid itself would, and reads only the previous round's
values, so neither the numbering nor the order of the active list moves a
bit of the result.

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

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .grid import _box
from .validation import check_coord, check_mask, check_scalar_field

_INF = float("inf")


@dataclass(frozen=True)
class ArrivalField:
    """Arrival times of a front grown from ``source``.

    ``values`` is a float64 array holding the arrival time per voxel, +inf
    on voxels outside the solve domain; ``values[source] == 0``.
    """

    values: np.ndarray
    source: tuple[int, int]


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

    Each round recomputes, with array operations, the upwind update of every
    domain voxel next to one that improved in the round before, and writes
    the values that improve. The rounds run on the domain's voxel graph
    (``_graph``), whose missing neighbours are a sentinel that never
    improves, and the result is expanded to the grid at the end. Updates
    are computed from the previous round's values only, so the result does
    not depend on the order of the active list and is bit-identical across
    runs.
    """
    dom2d = check_mask(domain)
    h, w = dom2d.shape
    pot2d = check_scalar_field(potential, shape=(h, w))
    sx, sy = check_coord(source, (h, w))
    if not dom2d[sy, sx]:
        raise ValidationError(f"source ({sx}, {sy}) is not inside the domain")
    v = pot2d[dom2d]
    if not np.isfinite(v).all() or (v <= 0).any():
        raise ValidationError("potential must be positive and finite on the domain")
    # Rows v and 2 v**2 per voxel id; with potential +inf the sentinel never
    # improves. Neither ``v`` nor the output grid is held during the march,
    # where the memory peaks.
    weights = np.full((2, v.size + 1), _INF)
    weights[0, :-1] = v
    weights[1, :-1] = 2.0 * v * v
    del v
    # Voxel ids are row-major ranks among the domain's voxels, on its box as
    # on the grid.
    box = _box(dom2d)
    dom = dom2d[box]
    src = int(np.count_nonzero(dom2d[:sy])) + int(np.count_nonzero(dom2d[sy, :sx]))
    u = _march(_graph(dom), weights, src)
    values = np.full((h, w), _INF)
    values[box][dom] = u
    return ArrivalField(values=values, source=(sx, sy))


def _graph(domain: np.ndarray) -> np.ndarray:
    """The ``(4, n + 1)`` table of W, E, N and S neighbour ids of a domain's n voxels.

    Voxels are numbered in row-major order. Id ``n`` is the sentinel: it
    stands for every neighbour off the domain, and its own neighbours are
    itself.
    """
    h, w = domain.shape
    n = int(np.count_nonzero(domain))
    ids = np.full((h + 2, w + 2), n, dtype=np.intp)
    ids[1:-1, 1:-1][domain] = np.arange(n)
    nbr = np.empty((4, n + 1), dtype=np.intp)
    nbr[:, n] = n
    for row, (dy, dx) in enumerate(((1, 0), (1, 2), (0, 1), (2, 1))):
        nbr[row, :n] = ids[dy : dy + h, dx : dx + w][domain]
    return nbr


def _march(nbr: np.ndarray, weights: np.ndarray, src: int) -> np.ndarray:
    """Arrival times on the graph of ``nbr`` from voxel ``src``, in id order."""
    u = np.full(nbr.shape[1], _INF)
    u[src] = 0.0
    stamp = np.empty(u.size, dtype=np.intp)
    order = np.arange(0)
    pot, pot2 = weights
    changed = np.array([src])
    with np.errstate(invalid="ignore"):
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
            v = pot.take(active)
            v2 = pot2.take(active)
            # Largest root of (U-a)+^2 + (U-b)+^2 = v^2, or the one-sided value
            # min(a, b) + v when the roots are invalid (also for an unreached axis).
            # The source never improves (every update is positive), nor does
            # the sentinel (its update is NaN).
            root = 0.5 * (a + b + np.sqrt(v2 - gap * gap))
            new = np.where(gap >= v, np.minimum(a, b) + v, root)
            better = new < u.take(active)
            changed = active[better]
            u[changed] = new[better]
    return u[:-1]


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

    path = [(x, y)]
    best_val = u.item(y, x)  # item reads a Python float, cheaper to compare than a numpy scalar
    while best_val != 0.0:  # best_val is always the arrival at (x, y)
        best = None
        for dx, dy in NEIGHBOR_STEPS_8:
            nx = x + dx
            ny = y + dy
            if not (0 <= nx < w and 0 <= ny < h):
                continue
            if u.item(ny, nx) < best_val:
                best_val = u.item(ny, nx)
                best = (nx, ny)
        if best is None:
            err = ValidationError(
                f"stuck at non-source local minimum ({x}, {y}); arrival field is not descendable"
            )
            err.voxel = (x, y)  # for a caller that walked a crop of its grid
            raise err
        x, y = best
        path.append(best)
    return path
