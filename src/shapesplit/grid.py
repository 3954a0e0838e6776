"""Grid primitives: bounding boxes and connected-component labeling.

Coordinates are ``(x, y)`` pairs on a ``width x height`` grid; arrays are
indexed ``[y, x]``. Everything outside the grid counts as background.
Every connectivity question in the library (how many pieces a region has,
which pieces a cut leaves, whether a part stays one piece around a hole,
whether every part of a label map is one piece) is answered by the one
run-based labeling in ``_label_runs``: of a mask, or of a label map at once, where
runs join only runs of their own label. A cut band's pieces need no
labeling: they are read off the rows of its line (``subdivision._band``),
and the pipeline reads whether its region is one piece off the first
wave's reach. The labeling's run finder, ``_runs``, and its pairs of runs
that touch across rows, ``_touching``, also give balancing its counts
(``subdivision._counts``) and the distance map its column runs.
"""

from __future__ import annotations

import numpy as np

from .validation import check_connectivity, check_mask


def _box(mask: np.ndarray) -> tuple[slice, slice]:
    """The bounding box of a nonempty mask's true voxels, as an index."""
    rows, cols = (np.flatnonzero(mask.any(axis)).tolist() for axis in (1, 0))
    return np.s_[rows[0] : rows[-1] + 1, cols[0] : cols[-1] + 1]


def connected_components(mask, connectivity: int = 4) -> tuple[np.ndarray, int]:
    """``(labels, count)``: the connected components of a boolean mask, as int32 labels.

    Components are numbered ``1..count`` in order of first encounter in a
    row-major scan; background voxels get label 0.
    """
    return _label_runs(check_mask(mask), check_connectivity(connectivity))


def _runs(values: np.ndarray) -> tuple[np.ndarray, int, np.ndarray, np.ndarray]:
    """``(flat, pitch, starts, ends)``: the maximal row runs of one nonzero value in a 2-D array.

    ``flat`` holds the rows, each with a zero in front, and a zero at the
    end; a run is ``flat[start:end]``, and value ``(y, x)`` sits at
    ``y * pitch + 1 + x``. Runs never wrap to the next row, and they come
    in row-major order.
    """
    h, w = values.shape
    pitch = w + 1
    flat = np.zeros(h * pitch + 1, dtype=values.dtype)
    flat[:-1].reshape(h, pitch)[:, 1:] = values
    change = np.flatnonzero(flat[1:] != flat[:-1]) + 1
    starts = change[flat[change] != 0]
    ends = change[flat[change - 1] != 0]
    return flat, pitch, starts, ends


def _touching(starts: np.ndarray, ends: np.ndarray, pitch: int, slack: int) -> tuple[np.ndarray, np.ndarray]:
    """``(src, dst)``: every run ``src`` and run ``dst`` one row up whose columns overlap.

    Runs are those of ``_runs``; ``slack`` widens each run by that many
    columns on each side, 1 for 8-connectivity. The runs one row up that
    touch run i are the runs [lo, hi).
    """
    lo = np.searchsorted(ends, starts - pitch - slack, side="right")
    hi = np.searchsorted(starts, ends - pitch + slack, side="left")
    touching = hi - lo
    src = np.repeat(np.arange(starts.size), touching)
    dst = np.arange(src.size) + np.repeat(lo - np.cumsum(touching) + touching, touching)
    return src, dst


def _label_runs(values: np.ndarray, conn: int) -> tuple[np.ndarray, int]:
    """Label the ``conn``-connected pieces of equal nonzero value in a 2-D array.

    Run-based labeling over the whole array (He, Chao & Suzuki 2008): every
    maximal row run of one nonzero value is found at once, and a run joins
    the runs of its value it touches on the row above. Numbering and return
    value are those of ``connected_components``, with zeros as background.
    """
    flat, pitch, starts, ends = _runs(values)
    # Keep the touching pairs (src, dst) of equal value.
    src, dst = _touching(starts, ends, pitch, 0 if conn == 4 else 1)
    same = flat[starts[src]] == flat[starts[dst]]
    src, dst = src[same], dst[same]

    # A forest whose pointers all go to earlier runs, so each root is the first
    # run of its piece: hook every run to a touching run above, then jump every
    # pointer to its root and hook the later root of each pair in two trees to
    # the earlier one, until no pair is.
    parent = np.arange(starts.size)
    parent[src] = dst
    while True:
        while not np.array_equal(jumped := parent[parent], parent):
            parent = jumped
        a, b = parent[src], parent[dst]
        if np.array_equal(a, b):
            break
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))

    # Roots in run order are the components in order of first encounter, and
    # the nonzero voxels in row-major order are the runs in order.
    number = np.cumsum(parent == np.arange(parent.size), dtype=np.int32)
    labels = np.zeros(values.shape, dtype=np.int32)
    labels[values != 0] = np.repeat(number[parent], ends - starts)
    return labels, int(number[-1]) if number.size else 0
