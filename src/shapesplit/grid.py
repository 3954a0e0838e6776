"""Grid primitives: bounding boxes and connected-component labeling.

Coordinates are ``(x, y)`` pairs on a ``width x height`` grid; arrays are
indexed ``[y, x]``. Everything outside the grid counts as background.
Every connectivity question in the library (how many pieces a region has,
which pieces a cut leaves, whether a part stays one piece around a hole,
whether every part of a label map is one piece) is answered on row runs:
``_runs`` finds them, ``_touching`` pairs the runs that touch across rows,
and ``_union`` joins the pairs into pieces (He, Chao & Suzuki 2008). The
labeling ``_label_runs`` is these three over a mask, or over a label map
at once, where runs join only runs of their own label. The cut stage does
not label: it finds the region's runs once, joins them once with every
planned band removed (``subdivision._at_once``), splits the runs left to
label at each band it still has to try and joins them
(``subdivision._subdivide``), and balancing joins the runs its counts
already paired (``subdivision._counts``) to check that each part is one
piece. A cut band's own pieces are read
off the rows of its line (``subdivision._band``), and the pipeline reads
whether its region is one piece off the first wave's reach. The runs
also give the distance map its column runs.
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


def _cells(starts: np.ndarray, ends: np.ndarray) -> np.ndarray:
    """The flat positions of the voxels of the runs ``[starts, ends)``, run by run."""
    lengths = ends - starts
    return np.repeat(starts - np.cumsum(lengths) + lengths, lengths) + np.arange(lengths.sum())


def _union(size: int, src: np.ndarray, dst: np.ndarray) -> np.ndarray:
    """The root of each of ``size`` runs joined into pieces by the pairs ``(src, dst)``.

    Pairs are those of ``_touching``, whose ``dst`` is one row up, so an
    earlier run. The root of a piece is its first run. Every run is hooked
    to a touching run above; then, in rounds, every pointer jumps to its
    pointer's pointer, and the later root of each pair in two trees is
    hooked to the earlier one, until every pair's runs point to one run
    (Shiloach & Vishkin 1982). All runs of a piece then point to one run
    of it, which points to itself: the root. Pointers all go to earlier
    runs, so no tree is deeper than ``size - 1``, and ceil(log2 size) jumps
    a round reach the roots, with no check after each jump.
    """
    parent = np.arange(size)
    parent[src] = dst
    jumps = (size - 1).bit_length()
    while True:
        for _ in range(jumps):
            parent = parent[parent]
        a, b = parent[src], parent[dst]
        if np.array_equal(a, b):
            return parent
        np.minimum.at(parent, np.maximum(a, b), np.minimum(a, b))


def _label_runs(values: np.ndarray, conn: int) -> tuple[np.ndarray, int]:
    """Label the ``conn``-connected pieces of equal nonzero value in a 2-D array.

    Run-based labeling over the whole array (He, Chao & Suzuki 2008): every
    maximal row run of one nonzero value is found at once, and a run joins
    the runs of its value it touches on the row above (``_union``).
    Numbering and return value are those of ``connected_components``, with
    zeros as background.
    """
    flat, pitch, starts, ends = _runs(values)
    # Keep the touching pairs (src, dst) of equal value.
    src, dst = _touching(starts, ends, pitch, 0 if conn == 4 else 1)
    same = flat[starts[src]] == flat[starts[dst]]
    parent = _union(starts.size, src[same], dst[same])

    # Roots in run order are the components in order of first encounter, and
    # the nonzero voxels in row-major order are the runs in order.
    number = np.cumsum(parent == np.arange(parent.size), dtype=np.int32)
    labels = np.zeros(values.shape, dtype=np.int32)
    labels[values != 0] = np.repeat(number[parent], ends - starts)
    return labels, int(number[-1]) if number.size else 0
