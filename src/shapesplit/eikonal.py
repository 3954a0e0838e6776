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

``descend`` walks from a voxel to the source by repeatedly stepping to the
8-neighbor with the smallest arrival time, which recovers the discrete
minimal path.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .exceptions import ValidationError
from .grid import NEIGHBOR_STEPS_8
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
    the values that improve. Updates are computed from the previous round's
    values only, so the result does not depend on the order of the active
    list and is bit-identical across runs.
    """
    dom2d = check_mask(domain)
    h, w = dom2d.shape
    pot2d = check_scalar_field(potential, shape=(h, w))
    sx, sy = check_coord(source, (h, w))
    if not dom2d[sy, sx]:
        raise ValidationError(f"source ({sx}, {sy}) is not inside the domain")
    vals = pot2d[dom2d]
    if not np.isfinite(vals).all() or (vals <= 0).any():
        raise ValidationError("potential must be positive and finite on the domain")

    # Pad by one voxel so that every neighbour index is in range; padding
    # and off-domain voxels are never updated, stay +inf and get potential 0.
    pw = w + 2
    live = np.pad(dom2d, 1).ravel()
    pot = np.pad(np.where(dom2d, pot2d, 0.0), 1).ravel()
    pot2 = 2.0 * pot * pot
    u = np.full(live.size, _INF)
    src = (sy + 1) * pw + sx + 1
    u[src] = 0.0
    live[src] = False
    steps = np.array([-1, 1, -pw, pw])
    stamp = np.empty(live.size, dtype=np.intp)
    changed = np.array([src])
    with np.errstate(invalid="ignore"):
        while changed.size:
            near = (changed[:, None] + steps).ravel()
            near = near[live[near]]
            # De-duplicate: keep each voxel where its last write landed.
            order = np.arange(near.size)
            stamp[near] = order
            active = near[stamp[near] == order]
            a = np.minimum(u[active - 1], u[active + 1])
            b = np.minimum(u[active - pw], u[active + pw])
            gap = np.abs(a - b)
            v = pot[active]
            # Largest root of (U-a)+^2 + (U-b)+^2 = v^2, or the one-sided value
            # min(a, b) + v when the roots are invalid (also for an unreached axis).
            root = 0.5 * (a + b + np.sqrt(pot2[active] - gap * gap))
            new = np.where(gap >= v, np.minimum(a, b) + v, root)
            better = new < u[active]
            changed = active[better]
            u[changed] = new[better]

    return ArrivalField(values=u.reshape(h + 2, pw)[1:-1, 1:-1].copy(), source=(sx, sy))


def argmax_field(field: ArrivalField) -> tuple[int, int]:
    """Coordinate of the largest finite arrival time, row-major tie-break."""
    u = check_scalar_field(field.values)
    finite = np.isfinite(u)
    if not finite.any():
        raise ValidationError("arrival field has no finite values")
    idx = int(np.argmax(np.where(finite, u, -1.0)))
    h, w = u.shape
    return idx % w, idx // w


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
    while u[y, x] != 0.0:
        best = None
        best_val = u[y, x]
        for dx, dy in NEIGHBOR_STEPS_8:
            nx = x + dx
            ny = y + dy
            if not (0 <= nx < w and 0 <= ny < h):
                continue
            if u[ny, nx] < best_val:
                best_val = u[ny, nx]
                best = (nx, ny)
        if best is None:
            raise ValidationError(
                f"stuck at non-source local minimum ({x}, {y}); arrival field is not descendable"
            )
        x, y = best
        path.append(best)
    return path
